//! Serving-layer load experiment: what can the daemon sustain, and
//! what does watching it cost?
//!
//! Two measurements against a real in-process `amjs serve` daemon over
//! real TCP:
//!
//! 1. **Paced load** — several submit clients drive the daemon at a
//!    target aggregate submissions/s while what-if clients hammer the
//!    speculative path (sized to overrun `--whatif-cap`, so BUSY
//!    shedding is exercised, not just measured as zero). Every client
//!    keeps its own [`amjs_obs::Histogram`] of queue-inclusive
//!    latencies; the per-client histograms are merged at the end.
//! 2. **Recorder overhead** — one deterministic command script, run
//!    unpaced with the flight recorder on (512 events) and off
//!    (capacity 0), reps interleaved and best-of taken so machine
//!    drift cannot masquerade as overhead. The run asserts the
//!    recorder costs < 5% sustained throughput
//!    (`AMJS_SERVE_OVERHEAD_PCT` overrides the budget; `--fast` skips
//!    the gate) and that both modes end on the *identical* state hash:
//!    the recorder may cost time, never state.
//!
//! Writes `results/BENCH_serve.json` (sustained rates, latency
//! quantiles, shed rate, overhead) plus a human-readable table.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_serve_load [--fast]`

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use amjs_bench::{results, table};
use amjs_core::{LiveScheduler, PolicyParams, SimulationBuilder};
use amjs_obs::json::ObjWriter;
use amjs_obs::Histogram;
use amjs_platform::FlatCluster;
use amjs_serve::{read_frame, run_daemon, write_frame, ServeConfig, ServeReport};

/// What-if clients, deliberately above the daemon's `whatif_cap` of 2
/// so the cap sheds under this load.
const WHATIF_CLIENTS: usize = 4;
const SUBMIT_CLIENTS: usize = 3;
const OVERHEAD_REPS: usize = 3;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amjs-serve-load-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn an in-process daemon on an ephemeral port; returns its
/// address and the daemon thread's handle (joined via SHUTDOWN).
fn spawn_daemon(
    dir: &Path,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (
    SocketAddr,
    thread::JoinHandle<Result<ServeReport, amjs_serve::ServeError>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut cfg = ServeConfig::new(dir);
    tweak(&mut cfg);
    let handle = thread::spawn(move || {
        run_daemon(
            listener,
            || {
                LiveScheduler::from_builder(
                    SimulationBuilder::new(FlatCluster::new(1024), Vec::new())
                        .policy(PolicyParams::new(0.5, 4))
                        .label("serve-load".to_string()),
                )
            },
            false,
            cfg,
        )
    });
    (addr, handle)
}

struct Client {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: std::io::BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn ask(&mut self, cmd: &str) -> String {
        write_frame(&mut self.writer, cmd.as_bytes()).expect("send frame");
        let payload = read_frame(&mut self.reader).expect("read reply");
        String::from_utf8(payload).expect("utf-8 reply")
    }
}

struct PacedOutcome {
    target_rate: f64,
    achieved_rate: f64,
    submits: u64,
    submit_hist: Histogram,
    whatif_hist: Histogram,
    whatif_ok: u64,
    whatif_shed: u64,
}

/// Section 1: paced submit traffic plus concurrent what-if pressure.
fn paced_load(fast: bool) -> PacedOutcome {
    let per_client = if fast { 100 } else { 400 };
    let rate_per_client = if fast { 150.0 } else { 250.0 };
    let target_rate = rate_per_client * SUBMIT_CLIENTS as f64;

    let dir = tmp_dir("paced");
    let (addr, handle) = spawn_daemon(&dir, |cfg| {
        cfg.flightrec = 512;
        cfg.whatif_cap = 2;
        cfg.snapshot_every = 256;
    });

    // The what-if subject must stay queued, or the daemon answers from
    // `STATUS` without a fork: job 0 holds 64 nodes for the whole run and
    // job 1 wants the whole machine. Its reservation lies past job 0's
    // end, so the paced jobs backfill in front of it undisturbed.
    let mut seed_client = Client::connect(addr);
    assert_eq!(
        seed_client.ask("SUBMIT NODES=64 WALL=10000000 USER=0"),
        "OK ID=0"
    );
    assert_eq!(
        seed_client.ask("SUBMIT NODES=1024 WALL=3600 USER=0"),
        "OK ID=1"
    );

    let done = Arc::new(AtomicBool::new(false));
    let whatif_ok = Arc::new(AtomicU64::new(0));
    let whatif_shed = Arc::new(AtomicU64::new(0));
    let mut whatif_threads = Vec::new();
    for _ in 0..WHATIF_CLIENTS {
        let done = done.clone();
        let ok = whatif_ok.clone();
        let shed = whatif_shed.clone();
        whatif_threads.push(thread::spawn(move || {
            let mut c = Client::connect(addr);
            let mut hist = Histogram::latency();
            while !done.load(Ordering::SeqCst) {
                let t0 = Instant::now();
                let reply = c.ask("WHATIF 1 HORIZON=86400");
                hist.observe_duration(t0.elapsed());
                if reply.starts_with("BUSY") {
                    shed.fetch_add(1, Ordering::SeqCst);
                    // Back off a little: a shed loop at full speed
                    // would measure the shed path, not the service.
                    thread::sleep(Duration::from_millis(2));
                } else {
                    ok.fetch_add(1, Ordering::SeqCst);
                }
            }
            hist
        }));
    }

    let t0 = Instant::now();
    let mut submit_threads = Vec::new();
    for client_id in 0..SUBMIT_CLIENTS {
        submit_threads.push(thread::spawn(move || {
            let mut c = Client::connect(addr);
            let mut hist = Histogram::latency();
            let interval = Duration::from_secs_f64(1.0 / rate_per_client);
            let mut next = Instant::now();
            let mut submitted = 0u64;
            for i in 0..per_client {
                if let Some(wait) = next.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                next += interval;
                let t0 = Instant::now();
                // Advance often enough that jobs retire at the rate
                // they arrive: a queue growing without bound would
                // measure ever-slower scheduling passes, not the
                // serving layer.
                let reply = if i % 20 == 19 {
                    c.ask("ADVANCE 600")
                } else {
                    let user = client_id + 1;
                    c.ask(&format!("SUBMIT NODES=16 WALL=3600 RUN=600 USER={user}"))
                };
                hist.observe_duration(t0.elapsed());
                assert!(
                    reply.starts_with("OK"),
                    "paced mutation rejected: {reply:?}"
                );
                submitted += 1;
            }
            (hist, submitted)
        }));
    }

    let mut submit_hist = Histogram::latency();
    let mut submits = 0u64;
    for t in submit_threads {
        let (hist, n) = t.join().expect("submit client");
        submit_hist.merge(&hist);
        submits += n;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::SeqCst);
    let mut whatif_hist = Histogram::latency();
    for t in whatif_threads {
        whatif_hist.merge(&t.join().expect("whatif client"));
    }

    assert_eq!(seed_client.ask("SHUTDOWN"), "OK BYE");
    handle.join().unwrap().expect("daemon report");
    let _ = std::fs::remove_dir_all(&dir);

    PacedOutcome {
        target_rate,
        achieved_rate: submits as f64 / elapsed,
        submits,
        submit_hist,
        whatif_hist,
        whatif_ok: whatif_ok.load(Ordering::SeqCst),
        whatif_shed: whatif_shed.load(Ordering::SeqCst),
    }
}

/// One unpaced run of the deterministic overhead script; returns the
/// sustained mutation rate and the final state hash.
fn scripted_run(commands: usize, flightrec: usize) -> (f64, String) {
    let dir = tmp_dir(if flightrec > 0 { "rec-on" } else { "rec-off" });
    let (addr, handle) = spawn_daemon(&dir, |cfg| {
        cfg.flightrec = flightrec;
        cfg.snapshot_every = 256;
    });
    let mut c = Client::connect(addr);
    let t0 = Instant::now();
    for i in 0..commands {
        // Same steady-state shaping as the paced phase: jobs must
        // retire as fast as they arrive or the measurement decays.
        let reply = if i % 20 == 19 {
            c.ask("ADVANCE 600")
        } else {
            c.ask(&format!("SUBMIT NODES=16 WALL=3600 RUN=600 USER={}", i % 7))
        };
        assert!(
            reply.starts_with("OK"),
            "script mutation rejected: {reply:?}"
        );
    }
    let rate = commands as f64 / t0.elapsed().as_secs_f64();
    let hash = c.ask("HASH");
    assert!(hash.starts_with("OK HASH="), "unexpected: {hash}");
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    handle.join().unwrap().expect("daemon report");
    let _ = std::fs::remove_dir_all(&dir);
    (rate, hash)
}

fn quantiles_json(hist: &Histogram) -> String {
    let mut o = ObjWriter::new();
    let q = |p: f64| hist.quantile(p).unwrap_or(0.0);
    o.u64("count", hist.count())
        .f64("mean_s", hist.mean().unwrap_or(0.0))
        .f64("p50_s", q(0.50))
        .f64("p95_s", q(0.95))
        .f64("p99_s", q(0.99));
    o.finish()
}

fn main() {
    let (_seed, fast) = amjs_bench::harness::parse_args();
    eprintln!("ablation_serve_load: paced load phase ({SUBMIT_CLIENTS} submit + {WHATIF_CLIENTS} what-if clients)");
    let paced = paced_load(fast);
    let shed_rate = paced.whatif_shed as f64 / (paced.whatif_ok + paced.whatif_shed).max(1) as f64;

    eprintln!("ablation_serve_load: recorder overhead phase (interleaved best-of-{OVERHEAD_REPS})");
    let commands = if fast { 300 } else { 1500 };
    let mut best_on = 0.0f64;
    let mut best_off = 0.0f64;
    let mut hash_on = String::new();
    let mut hash_off = String::new();
    for _ in 0..OVERHEAD_REPS {
        let (on, h_on) = scripted_run(commands, 512);
        let (off, h_off) = scripted_run(commands, 0);
        best_on = best_on.max(on);
        best_off = best_off.max(off);
        hash_on = h_on;
        hash_off = h_off;
    }
    assert_eq!(
        hash_on, hash_off,
        "flight recorder changed the daemon's state hash"
    );
    let overhead_pct = (best_off / best_on - 1.0) * 100.0;

    let rows = vec![
        vec![
            "paced load".to_string(),
            table::num(paced.target_rate, 0),
            table::num(paced.achieved_rate, 0),
            table::num(paced.submit_hist.quantile(0.95).unwrap_or(0.0) * 1e3, 2),
            table::num(shed_rate * 100.0, 1),
        ],
        vec![
            "unpaced, recorder on".to_string(),
            "-".to_string(),
            table::num(best_on, 0),
            "-".to_string(),
            "-".to_string(),
        ],
        vec![
            "unpaced, recorder off".to_string(),
            "-".to_string(),
            table::num(best_off, 0),
            "-".to_string(),
            "-".to_string(),
        ],
    ];
    let header = [
        "serve load",
        "target(cmd/s)",
        "sustained(cmd/s)",
        "p95(ms)",
        "whatif shed(%)",
    ];
    let rendered = table::render(&header, &rows);
    print!("{rendered}");
    eprintln!(
        "whatif: {} served, {} shed; recorder overhead {overhead_pct:+.1}%",
        paced.whatif_ok, paced.whatif_shed
    );

    let mut paced_obj = ObjWriter::new();
    paced_obj
        .f64("target_rate", paced.target_rate)
        .f64("achieved_rate", paced.achieved_rate)
        .u64("mutations", paced.submits)
        .u64("whatif_ok", paced.whatif_ok)
        .u64("whatif_shed", paced.whatif_shed)
        .f64("whatif_shed_rate", shed_rate)
        .raw("mutation_latency", &quantiles_json(&paced.submit_hist))
        .raw("whatif_latency", &quantiles_json(&paced.whatif_hist));
    let mut overhead_obj = ObjWriter::new();
    overhead_obj
        .u64("script_commands", commands as u64)
        .f64("recorder_on_rate", best_on)
        .f64("recorder_off_rate", best_off)
        .f64("overhead_pct", overhead_pct)
        .bool("hash_identical", hash_on == hash_off);
    let mut root = ObjWriter::new();
    root.str("bench", "ablation_serve_load")
        .bool("fast", fast)
        .raw("paced", &paced_obj.finish())
        .raw("overhead", &overhead_obj.finish());
    let json = root.finish();
    let path = results::write_result("BENCH_serve.json", &format!("{json}\n"));
    eprintln!("wrote {}", path.display());

    // The gate: recording must stay in the noise next to the WAL flush
    // every mutation already pays. Override for pathological CI boxes,
    // skip under --fast where sub-second walls make percentages noise.
    let budget: f64 = std::env::var("AMJS_SERVE_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    if !fast {
        assert!(
            overhead_pct < budget,
            "flight recorder overhead {overhead_pct:.1}% breaches the {budget}% budget"
        );
    }
}
