//! Repetitions: one replay of a script from fresh state, in process or
//! over the wire, timed per script position; and the per-position noise
//! floor over repetitions.

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use amjs_core::LiveScheduler;
use amjs_obs::expo::SharedStats;
use amjs_platform::Platform;
use amjs_serve::telemetry::verb_name;
use amjs_serve::{read_frame, recover, run_daemon, write_frame, Command, ServeConfig, ServeReport};
use amjs_sim::{Snapshot, SnapshotStore};

use crate::script::{apply, Script, Workload};
use crate::trace::{span, Tracer};

/// Name of the span around the `LiveScheduler` call a script command makes.
fn core_span(cmd: &Command) -> &'static str {
    match cmd {
        Command::Advance(_) => "core.advance_to",
        Command::Submit { .. } => "core.submit",
        Command::Status(_) => "core.status",
        Command::Stats => "core.stats",
        Command::WhatIf { .. } => "core.whatif_start",
        Command::Cancel(_) => "core.cancel",
        Command::Hash => "core.state_hash",
        other => panic!("not a script command: {other:?}"),
    }
}

/// What one repetition measured.
pub struct Rep {
    /// Generating every month's trace.
    pub generate_s: f64,
    /// Constructing platform and scheduler (lib), or `run_daemon` up to
    /// the first `PONG` including genesis snapshot and WAL create (serve).
    pub start_s: f64,
    /// Latency of every script position, warm-up included, ns.
    pub lat_ns: Vec<u64>,
    /// Positions whose reply did not start with `OK`.
    pub failed: u64,
    /// Final state hash and event index, as the scheduler or daemon reports them.
    pub final_hash: u64,
    pub final_events: u64,
    /// Round trips of `PING`s sent after the script (serve only), ns.
    pub ping_ns: Vec<u64>,
    /// The daemon's own account of the run (serve only).
    pub report: Option<ServeReport>,
}

fn generate_all(w: &Workload, seed: u64) -> f64 {
    let t = Instant::now();
    for m in 0..=w.months {
        std::hint::black_box(w.month_jobs(seed, m));
    }
    t.elapsed().as_secs_f64()
}

/// Replay `script` on a fresh in-process scheduler.
pub fn lib_rep<P: Platform + Snapshot>(
    w: &Workload,
    script: &Script,
    seed: u64,
    make: fn() -> P,
    tracer: &mut Option<Tracer>,
) -> (Rep, LiveScheduler<P>) {
    let generate_s = generate_all(w, seed);
    let t = Instant::now();
    let mut sched = w.scheduler(make());
    let start_s = t.elapsed().as_secs_f64();
    let mut lat_ns = Vec::with_capacity(script.cmds.len());
    let mut failed = 0;
    for (op, cmd) in script.cmds.iter().enumerate() {
        let t = Instant::now();
        let ok = span(tracer, "op", op, |tr| {
            span(tr, core_span(cmd), op, |_| apply(&mut sched, cmd))
        });
        lat_ns.push(t.elapsed().as_nanos() as u64);
        failed += u64::from(!ok);
    }
    let rep = Rep {
        generate_s,
        start_s,
        lat_ns,
        failed,
        final_hash: sched.state_hash(),
        final_events: sched.event_index(),
        ping_ns: Vec::new(),
        report: None,
    };
    (rep, sched)
}

/// `PING`s each serve repetition sends after its script.
const PINGS: usize = 256;

/// One closed-loop client connection to the daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the in-process daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone the client socket")),
            writer: stream,
        }
    }

    /// Send one line and wait for its reply.
    fn ask(&mut self, line: &str, op: usize, tracer: &mut Option<Tracer>) -> String {
        span(tracer, "client.write_frame", op, |_| {
            write_frame(&mut self.writer, line.as_bytes())
        })
        .expect("send a frame to the daemon");
        span(tracer, "wire.wait", op, |_| {
            self.reader.fill_buf().map(|_| ())
        })
        .expect("wait for the daemon's reply");
        let reply = span(tracer, "client.read_frame", op, |_| {
            read_frame(&mut self.reader)
        })
        .expect("read the daemon's reply");
        String::from_utf8(reply).expect("replies are utf-8")
    }
}

/// Replay `script` over one TCP connection against a fresh daemon with
/// the configuration the CLI ships (virtual clock, snapshot every 64,
/// oracle every 64, flight recorder 512), in state dir `dir`. Passing
/// `stats` makes the daemon publish its own histograms there.
pub fn serve_rep<P: Platform + Snapshot + 'static>(
    w: &Workload,
    script: &Script,
    seed: u64,
    make: fn() -> P,
    dir: &Path,
    stats: Option<SharedStats>,
    tracer: &mut Option<Tracer>,
) -> Rep {
    let generate_s = generate_all(w, seed);
    let t = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("listener address");
    let mut cfg = ServeConfig::new(dir);
    cfg.stats = stats;
    let w_copy = *w;
    let daemon = std::thread::spawn(move || {
        run_daemon(listener, move || w_copy.scheduler(make()), false, cfg)
    });
    let mut client = Client::connect(addr);
    assert_eq!(client.ask("PING", 0, &mut None), "OK PONG");
    let start_s = t.elapsed().as_secs_f64();

    let mut lat_ns = Vec::with_capacity(script.cmds.len());
    let mut failed = 0;
    for (op, cmd) in script.cmds.iter().enumerate() {
        let t = Instant::now();
        let ok = span(tracer, "op", op, |tr| {
            let line = span(tr, "client.render", op, |_| cmd.render());
            client.ask(&line, op, tr).starts_with("OK")
        });
        lat_ns.push(t.elapsed().as_nanos() as u64);
        failed += u64::from(!ok);
    }

    // Wire and two thread hops with no engine work: the floor under
    // every verb.
    let ping_ns = (0..PINGS)
        .map(|_| {
            let t = Instant::now();
            let reply = client.ask("PING", 0, &mut None);
            let ns = t.elapsed().as_nanos() as u64;
            assert_eq!(reply, "OK PONG");
            ns
        })
        .collect();

    // "OK HASH=<16 hex> INDEX=<events> T=<secs>"
    let hash_reply = client.ask("HASH", 0, &mut None);
    let field = |key: &str| {
        hash_reply
            .split(' ')
            .find_map(|tok| tok.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} in {hash_reply:?}"))
            .to_string()
    };
    let final_hash = u64::from_str_radix(&field("HASH="), 16).expect("hex state hash");
    let final_events = field("INDEX=").parse().expect("event index");
    assert_eq!(client.ask("SHUTDOWN", 0, &mut None), "OK BYE");
    let report = daemon
        .join()
        .expect("daemon thread panicked")
        .expect("daemon reported an error");
    Rep {
        generate_s,
        start_s,
        lat_ns,
        failed,
        final_hash,
        final_events,
        ping_ns,
        report: Some(report),
    }
}

/// The noise floor over repetitions. Interference on a shared host only
/// ever adds time, and position `i` of a script does byte-identical work
/// in every repetition, so the minimum over repetitions is the estimate
/// of what the program itself costs at `i`.
pub struct Floors<'a> {
    script: &'a Script,
    /// `min` over repetitions of each position's latency, ns.
    pub floor: Vec<u64>,
    /// The same for the trailing `PING`s of serve repetitions.
    pub ping_floor: Vec<u64>,
    pub generate_s: f64,
    pub start_s: f64,
    /// Σ measured-phase latency of each repetition, seconds.
    pub rep_wall: Vec<f64>,
    pub failed: u64,
    pub attempted: u64,
    /// Every repetition ended on the script's reference hash and event index.
    pub identical: bool,
}

impl<'a> Floors<'a> {
    pub fn new(script: &'a Script) -> Floors<'a> {
        Floors {
            script,
            floor: vec![u64::MAX; script.cmds.len()],
            ping_floor: vec![u64::MAX; PINGS],
            generate_s: f64::MAX,
            start_s: f64::MAX,
            rep_wall: Vec::new(),
            failed: 0,
            attempted: 0,
            identical: true,
        }
    }

    pub fn add(&mut self, rep: &Rep) {
        let script = self.script;
        for (f, &l) in self.floor.iter_mut().zip(&rep.lat_ns) {
            *f = (*f).min(l);
        }
        for (f, &l) in self.ping_floor.iter_mut().zip(&rep.ping_ns) {
            *f = (*f).min(l);
        }
        self.generate_s = self.generate_s.min(rep.generate_s);
        self.start_s = self.start_s.min(rep.start_s);
        let measured: u64 = rep.lat_ns[script.warm..].iter().sum();
        self.rep_wall.push(measured as f64 / 1e9);
        self.failed += rep.failed;
        self.attempted += script.cmds.len() as u64;
        if rep.final_hash != script.final_hash || rep.final_events != script.events_end {
            println!(
                "MISMATCH repetition ended on hash {:016x} after {} events, reference replay on {:016x} after {}",
                rep.final_hash, rep.final_events, script.final_hash, script.events_end
            );
            self.identical = false;
        }
    }

    /// Σ floor over the warm-up positions, seconds.
    pub fn warm_s(&self) -> f64 {
        self.floor[..self.script.warm].iter().sum::<u64>() as f64 / 1e9
    }

    /// Σ floor over the measured positions, seconds.
    pub fn measured_s(&self) -> f64 {
        self.floor[self.script.warm..].iter().sum::<u64>() as f64 / 1e9
    }

    /// Sorted measured-phase floors of one protocol verb (`"ADVANCE"`,
    /// `"SUBMIT"`, … as `verb_name` spells them), ns.
    pub fn of_verb(&self, verb: &str) -> Vec<u64> {
        let script = self.script;
        let mut v: Vec<u64> = script.cmds[script.warm..]
            .iter()
            .zip(&self.floor[script.warm..])
            .filter(|(c, _)| verb_name(c) == verb)
            .map(|(_, &f)| f)
            .collect();
        v.sort_unstable();
        v
    }
}

/// One timed `decode(encode())` of the end state, checking the copy's hash.
pub fn restore_lib<P: Platform + Snapshot>(sched: &LiveScheduler<P>) -> f64 {
    let t = Instant::now();
    let copy = LiveScheduler::<P>::decode(&sched.encode()).expect("decode own snapshot");
    let same = copy.state_hash() == sched.state_hash();
    let s = t.elapsed().as_secs_f64();
    assert!(same, "restored state hash differs from the live one");
    s
}

/// One timed `recover` of `dir` with every snapshot but genesis removed:
/// a full WAL replay through the apply path with the per-record hash
/// cross-check. Returns the seconds, the records replayed, and the
/// recovered scheduler.
pub fn restore_serve<P: Platform + Snapshot>(dir: &Path) -> (f64, u64, LiveScheduler<P>) {
    for (index, path) in SnapshotStore::new(dir, 1).list().expect("list snapshots") {
        if index != 0 {
            std::fs::remove_file(path).expect("remove a non-genesis snapshot");
        }
    }
    let t = Instant::now();
    let (sched, wal, replayed, _) = recover::<P>(dir, |_| {}).expect("recover the state dir");
    let s = t.elapsed().as_secs_f64();
    drop(wal);
    (s, replayed, sched)
}
