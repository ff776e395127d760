//! The daemon: a `std::net` TCP service over a
//! [`LiveScheduler`], built so that client misbehavior, overload,
//! SIGKILL — and, since PR 7, the death of the whole process's *host
//! role* — cannot lose an acknowledged job or corrupt scheduler state.
//!
//! ## Thread model
//!
//! ```text
//!              accept             admit, lock          unlock, then act on the `Reply`
//!  clients ──► listener thread ──► connection ──► Engine::step ──► write the frame, stream
//!              (non-blocking,      thread (read    (scheduler +     `REPL SNAPSHOT`, feed
//!               conn cap)          deadline)       WAL + epoch)     `REPL TAIL`, or supervise
//!                                                    ▲   │          one what-if attempt thread
//!   tail thread (follower mode) ── lock, apply ──────┤   ├─► follower sinks (feeder loops)
//!   ticker (`run_daemon`'s thread) ── lock, tick ────┘   └─► snapshot writer (one head +
//!                                                            frame in flight at a time)
//! ```
//!
//! Scheduler state lives in one `Engine` behind one `Mutex`, and the
//! thread that holds the lock runs one step on it: a client command on
//! the connection thread that read it, a replicated record on the tail
//! thread, a tick on the ticker. Steps run one at a time, in the order
//! the lock is taken, and the WAL sequence is that order; determinism
//! is inherited wholesale from the batch core. A client step takes one
//! input, a parsed `Command`, and gives one output, `Reply`, which says
//! what is left for the connection thread to do once it has let go of
//! the lock:
//!
//! - admission is **bounded**: `admission_cap` counts the requests
//!   waiting for or holding the lock, and a request over it is answered
//!   `BUSY` instead of queueing unboundedly;
//! - connections above the cap get a `BUSY` frame and are closed;
//! - every connection has a read deadline; a stuck or slow-loris client
//!   is culled instead of pinning a thread forever;
//! - `WHATIF` runs on forked state: the step hands the fork back as a
//!   closure and the connection that asked supervises it with the PR-5
//!   `catch_unwind` + deadline pattern, so a pathological query times
//!   out or panics without touching live state;
//! - replication takes the same lock: a follower's tail thread applies
//!   the records it reads itself, and follower subscriptions feed
//!   records out through per-connection sinks.
//!
//! [`run_daemon`] is `Engine::open` (fresh, `--resume` or follower
//! bootstrap: all there is before the first socket), a shell (listener,
//! tail thread, and its own thread as the ticker) and `Engine::close`;
//! tests step the engine with no socket. The ticker wakes every 50 ms,
//! or at once when a step sets shutdown or a fatal error, and under the
//! lock handles the stop latch and SIGTERM, wall-clock catch-up, the
//! snapshot writer's result, the follower heartbeat and the dashboard.
//! On shutdown it lets every request already admitted be answered, then
//! closes the engine; a request that arrives later gets `ERR server
//! shutting down`. A panic inside a step poisons the lock and the
//! ticker re-raises it, so `run_daemon` panics.
//!
//! ## Durability contract
//!
//! Accepted mutations are applied, then appended to the command WAL
//! ([`crate::wal`]) and flushed, and only then acknowledged. Every
//! `snapshot_every` accepted commands a snapshot rotates: the engine
//! encodes the bounded *head* of the live state and a *frame* of what
//! the append-only columns gained since the last snapshot — a few KB
//! however long the daemon has run — and hands both to the
//! `amjs-snap-writer` thread in one step. The writer appends the frame
//! to the column log ([`crate::collog`]) and syncs it, and only then
//! checksums, writes, syncs, renames and prunes the head as
//! `snapshot-<seq>.snap`, sealed with the log length it counts on: a
//! head never names log bytes that were not durable before it. The ACK
//! never waits for any of that — the WAL is what it promises, and the
//! WAL is never truncated at a snapshot, so a snapshot that lands late
//! only lengthens the replayed tail. Snapshots a caller builds on
//! (genesis, follower bootstrap, promotion, final) are waited for.
//! Recovery = newest head whose log prefix verifies (frame checksums,
//! column counts equal to the head's — else the one before, down to
//! genesis) + the log cut back to that prefix + WAL tail replayed
//! through the identical apply path ⇒ byte-identical state as of the
//! last acknowledged mutation (each replayed record's `state_hash` is
//! cross-checked, so silent divergence is impossible). An
//! un-acknowledged command may be lost — that is the contract the
//! client sees. A WAL append or snapshot write that *fails* (disk
//! full, permissions) is a clean `error:` shutdown with one final
//! best-effort snapshot — never a panic, and never an ACK for a
//! command the log could not hold.
//!
//! ## Replication contract
//!
//! A follower ([`ServeConfig::follow`]) mirrors the primary by applying
//! the primary's WAL records through this same apply path,
//! cross-checking the primary's post-apply `state_hash` record by
//! record — divergence is reported at its exact sequence number and the
//! follower refuses to continue. Failover is epoch-fenced: after the
//! lease expires the follower promotes itself into `epoch + 1`, and a
//! stale ex-primary is refused at the `REPL TAIL` handshake by
//! fingerprint + epoch before a single record moves. See
//! [`crate::repl`].

use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use amjs_core::live::{peek_platform, JobStatus, LiveScheduler, WhatIfAnswer};
use amjs_obs::expo::{ReplStats, SharedStats};
use amjs_platform::Platform;
use amjs_sim::snapshot::SnapshotStore;
use amjs_sim::{Columns, SimDuration, SimTime, SnapError, Snapshot};
use amjs_workload::JobId;

use crate::collog::{column_log_path, read_column_log, seal_head, split_head, ColumnLog};
use crate::flight::{FlightKind, FlightRecorder};
use crate::proto::{read_frame, write_frame, Command, FrameError};
use crate::repl::{
    fetch_snapshot, follow_loop, render_heartbeat, render_record, send_snapshot, Bootstrap,
    FollowEvent, FollowShared, ReplRecord,
};
use crate::signal;
use crate::telemetry::{shared_telemetry, verb_name, SharedTelemetry};
use crate::wal::{read_wal, WalError, WalRecord, WalWriter};

/// How the daemon's simulated clock advances.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClockMode {
    /// Track the host's wall clock: one elapsed second advances
    /// simulated time by `scale` seconds.
    Wall {
        /// Simulated seconds per wall second.
        scale: f64,
    },
    /// Time moves only through `ADVANCE` commands — fully
    /// deterministic, the mode CI's recovery proof runs in.
    Virtual,
}

/// Follower-mode configuration: who to mirror and how patient to be.
#[derive(Clone, Debug)]
pub struct FollowSpec {
    /// The primary's serve address (`host:port`).
    pub primary: String,
    /// Promote after this long without contact from the primary.
    pub lease: Duration,
    /// Prefetched bootstrap snapshot (the CLI fetches one up front to
    /// dispatch on the platform tag); `None` makes the daemon fetch its
    /// own on startup.
    pub bootstrap: Option<Bootstrap>,
}

impl FollowSpec {
    /// Follow `primary` with a default 3-second lease.
    pub fn new(primary: impl Into<String>) -> FollowSpec {
        FollowSpec {
            primary: primary.into(),
            lease: Duration::from_secs(3),
            bootstrap: None,
        }
    }
}

/// Daemon tuning knobs. `Default` is sized for tests and small
/// deployments; the CLI maps flags onto the fields it exposes.
pub struct ServeConfig {
    /// State directory: command WAL + snapshot rotation.
    pub dir: PathBuf,
    /// Clock mode (default: virtual — explicitly opt into wall time).
    pub clock: ClockMode,
    /// Snapshot after this many accepted mutations.
    pub snapshot_every: u64,
    /// Snapshots retained besides genesis.
    pub keep_snapshots: usize,
    /// Connection cap; excess connections get `BUSY` and are closed.
    pub max_conns: usize,
    /// Requests that may wait for or hold the engine at once; one over
    /// it gets `BUSY`.
    pub admission_cap: usize,
    /// Per-connection read deadline; idle/stuck clients are culled.
    pub read_timeout: Duration,
    /// Concurrent what-if worker cap; excess queries get `BUSY`.
    pub whatif_cap: usize,
    /// Per-query what-if deadline.
    pub whatif_deadline: Duration,
    /// Default speculation horizon (seconds) when the query names none.
    pub whatif_horizon_secs: i64,
    /// Run the invariant suite every N accepted mutations (0 = off).
    pub oracle_every: u64,
    /// Mirror a primary instead of serving writes (hot standby).
    pub follow: Option<FollowSpec>,
    /// Heartbeat cadence on follower streams (primary side).
    pub repl_heartbeat: Duration,
    /// Publish dashboard gauges here (the PR-4 metrics endpoint).
    pub stats: Option<SharedStats>,
    /// Extra shutdown latch checked alongside the process signal flag —
    /// lets embedders (and tests) stop one daemon without raising a
    /// process-wide signal.
    pub stop: Option<Arc<AtomicBool>>,
    /// Flight recorder capacity: keep the last N request/apply/repl
    /// events for the `flightrec.jsonl` postmortem (0 = disabled; the
    /// disabled path is byte-identical in scheduler state).
    pub flightrec: usize,
    /// Log any request slower than this to stderr (milliseconds;
    /// 0 = off).
    pub slow_ms: u64,
}

impl ServeConfig {
    /// A config over `dir` with test-sized defaults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            clock: ClockMode::Virtual,
            snapshot_every: 64,
            keep_snapshots: 3,
            max_conns: 64,
            admission_cap: 128,
            read_timeout: Duration::from_secs(30),
            whatif_cap: 4,
            whatif_deadline: Duration::from_secs(5),
            whatif_horizon_secs: 7 * 24 * 3600,
            oracle_every: 64,
            follow: None,
            repl_heartbeat: Duration::from_millis(500),
            stats: None,
            stop: None,
            flightrec: 512,
            slow_ms: 0,
        }
    }
}

/// Everything that can go wrong starting, recovering, or running a
/// daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Transport / filesystem failure.
    Io(std::io::Error),
    /// Snapshot decode failure.
    Snap(SnapError),
    /// WAL open/read failure.
    Wal(WalError),
    /// Recovered state is inconsistent (e.g. a logged command no longer
    /// applies) — refuse to serve from it.
    Corrupt(String),
    /// Replication failure: fenced by the primary, or divergence
    /// detected on the record stream.
    Repl(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::Snap(e) => write!(f, "snapshot error: {e:?}"),
            ServeError::Wal(e) => write!(f, "{e}"),
            ServeError::Corrupt(m) => write!(f, "recovered state corrupt: {m}"),
            ServeError::Repl(m) => write!(f, "replication: {m}"),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
impl From<SnapError> for ServeError {
    fn from(e: SnapError) -> Self {
        ServeError::Snap(e)
    }
}
impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

/// What a finished daemon reports back.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Accepted (logged) mutations over the daemon's lifetime segment.
    pub commands_applied: u64,
    /// Records applied off the replication stream (follower segments).
    pub replicated: u64,
    /// WAL sequence the next command would get.
    pub final_seq: u64,
    /// Snapshots written this segment (including the final one).
    pub snapshots_written: u64,
    /// `BUSY` replies issued (admission + connection + what-if sheds).
    pub sheds: u64,
    /// Follower→primary promotions this segment (0 or 1).
    pub promotions: u64,
    /// Epoch the daemon ended in.
    pub final_epoch: u64,
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("commands.wal")
}

/// Read the platform name tag out of the newest valid snapshot in
/// `dir` — the typed-dispatch hook for `amjs serve --resume`.
pub fn snapshot_platform(dir: &Path) -> Result<String, ServeError> {
    let store = SnapshotStore::new(dir, 1);
    let (_, payload, _) = store.load_latest(u64::MAX, |_| {})?;
    Ok(peek_platform(&payload)?)
}

/// Recover a scheduler from `dir`: newest snapshot head whose column
/// log prefix verifies + WAL tail replay through the live apply path,
/// cross-checking each record's logged `state_hash` so divergence is
/// caught at its exact sequence. The column log is cut back to the
/// prefix that head counts on, as the WAL is to its last intact record.
/// Returns the scheduler, the reopened WAL positioned after the last
/// intact record, the number of replayed records, and the epoch the
/// log ended in.
pub fn recover<P: Platform + Snapshot>(
    dir: &Path,
    diag: impl FnMut(&str),
) -> Result<(LiveScheduler<P>, WalWriter, u64, u64), ServeError> {
    let r = recover_state::<P>(dir, diag)?;
    Ok((r.sched, r.wal, r.replayed, r.epoch))
}

/// What [`recover`] found, and what [`Engine::open`] goes on writing
/// snapshots with.
struct Recovered<P: Platform + Snapshot> {
    sched: LiveScheduler<P>,
    wal: WalWriter,
    replayed: u64,
    epoch: u64,
    log: ColumnLog,
    /// Column lengths of the recovered *head*: the replayed tail is in
    /// memory, not in the log.
    cursor: Columns,
}

fn recover_state<P: Platform + Snapshot>(
    dir: &Path,
    mut diag: impl FnMut(&str),
) -> Result<Recovered<P>, ServeError> {
    let log_path = column_log_path(dir);
    let log = read_column_log(&log_path)?;
    let store = SnapshotStore::new(dir, 1);
    let (snap_seq, (mut sched, cursor, covered), snap_path) =
        store.load_latest_with(u64::MAX, &mut diag, |payload| {
            let (head, covered) = split_head(&payload)?;
            let (sched, cursor) =
                LiveScheduler::<P>::decode_parts(head, &log.covered_by(covered)?)?;
            Ok((sched, cursor, covered))
        })?;
    diag(&format!(
        "recovered snapshot {} (command seq {snap_seq})",
        snap_path.display()
    ));
    if log.bytes() > covered {
        diag(&format!(
            "dropping {} bytes of column log past the recovered snapshot \
             (frames whose head is not the one recovered, or a torn append)",
            log.bytes() - covered
        ));
    }
    let log = ColumnLog::reopen(&log_path, covered)?;

    let wal = read_wal(&wal_path(dir), Some(sched.fingerprint()))?;
    if wal.torn_tail {
        diag("dropping torn tail from command wal (crash mid-append)");
    }
    let mut replayed = 0u64;
    let mut next_seq = snap_seq;
    for rec in wal.records.iter().filter(|r| r.seq >= snap_seq) {
        if rec.seq != next_seq {
            return Err(ServeError::Corrupt(format!(
                "wal sequence gap: expected {next_seq}, found {}",
                rec.seq
            )));
        }
        replay_record(&mut sched, rec).map_err(ServeError::Corrupt)?;
        next_seq = rec.seq + 1;
        replayed += 1;
    }
    diag(&format!("replayed {replayed} wal records"));
    let epoch = wal.current_epoch();
    let wal = WalWriter::reopen(&wal_path(dir), next_seq, wal.valid_len)?;
    Ok(Recovered {
        sched,
        wal,
        replayed,
        epoch,
        log,
        cursor,
    })
}

/// Re-apply one logged record — the step recovery replay and follower
/// replication share: the live apply path at the recorded time, then the
/// logged `state_hash` cross-check. The error names the record's `seq`.
fn replay_record<P: Platform + Snapshot>(
    sched: &mut LiveScheduler<P>,
    rec: &WalRecord,
) -> Result<(), String> {
    let cmd =
        Command::parse(&rec.cmd).map_err(|e| format!("unparseable wal record {}: {e}", rec.seq))?;
    // Only advance when the clock actually moved: an equal-time
    // advance still processes due events, which live service had
    // not yet processed when it hashed — a false divergence.
    let at = SimTime::from_secs(rec.time_secs);
    if at > sched.now() {
        sched.advance_to(at);
    }
    apply_mutation(sched, &cmd)
        .map_err(|e| format!("wal record {} re-apply failed: {e}", rec.seq))?;
    let replayed = sched.state_hash();
    if replayed != rec.state_hash {
        return Err(format!(
            "state divergence at wal seq {}: logged state_hash {:016x}, replayed {:016x}",
            rec.seq, rec.state_hash, replayed
        ));
    }
    Ok(())
}

/// Apply one accepted mutation; the single code path shared by live
/// service, recovery replay, and follower replication (which is what
/// makes all three reproduce live decisions exactly). Returns the
/// `OK ...` reply text.
fn apply_mutation<P: Platform + Snapshot>(
    sched: &mut LiveScheduler<P>,
    cmd: &Command,
) -> Result<String, String> {
    match cmd {
        Command::Submit {
            nodes,
            wall_secs,
            run_secs,
            user,
        } => {
            let id = sched
                .submit(
                    *nodes,
                    SimDuration::from_secs(*wall_secs),
                    run_secs.map(SimDuration::from_secs),
                    *user,
                )
                .map_err(|e| e.to_string())?;
            Ok(format!("OK ID={}", id.0))
        }
        Command::Cancel(id) => {
            if sched.cancel(JobId(*id)) {
                Ok("OK CANCELED".to_string())
            } else {
                Err(format!(
                    "job {id} is not cancelable (running, done, or unknown)"
                ))
            }
        }
        Command::Advance(secs) => {
            let target = sched.now().as_secs().checked_add(*secs);
            let target = target.ok_or("ADVANCE overflows the clock")?;
            sched.advance_to(SimTime::from_secs(target));
            Ok(format!("OK T={}", sched.now().as_secs()))
        }
        other => Err(format!("not a mutation: {other:?}")),
    }
}

fn render_status(status: JobStatus) -> String {
    match status {
        JobStatus::Queued { position } => format!("OK QUEUED POS={position}"),
        JobStatus::Running {
            start,
            expected_end,
        } => format!(
            "OK RUNNING START={} END={}",
            start.as_secs(),
            expected_end.as_secs()
        ),
        JobStatus::Finished { start, end } => {
            format!("OK DONE START={} END={}", start.as_secs(), end.as_secs())
        }
        JobStatus::Pending => "OK PENDING".to_string(),
        JobStatus::Unknown => "ERR unknown job".to_string(),
    }
}

fn render_whatif(ans: WhatIfAnswer) -> String {
    match ans {
        WhatIfAnswer::AlreadyStarted(t) => format!("OK START={} LIVE", t.as_secs()),
        WhatIfAnswer::PredictedStart(t) => format!("OK START={}", t.as_secs()),
        WhatIfAnswer::NoStartWithin(d) => format!("OK NOSTART WITHIN={}", d.as_secs()),
        WhatIfAnswer::UnknownJob => "ERR unknown job".to_string(),
    }
}

/// The engine's answer to one client command: what is left for the
/// connection thread that asked to do once it has let go of the lock.
enum Reply {
    /// Write this frame.
    Text(String),
    /// `REPL SNAPSHOT`: stream the chunked payload.
    Snapshot(Bootstrap),
    /// `REPL TAIL` accepted: write the greeting, then turn into the
    /// feeder of this sink (already backfilled from disk).
    Tail(String, mpsc::Receiver<String>),
    /// A `WHATIF` that needs a fork: run the speculation under
    /// [`supervise_whatif`]. Boxed so nothing here is generic over the
    /// platform.
    Speculate(Box<dyn FnOnce() -> WhatIfAnswer + Send>, WhatIfSlot),
}

/// What the engine, the listener, the connections and the snapshot
/// writer share: the configuration, the two recorders and the counters.
struct Shared {
    cfg: ServeConfig,
    telem: SharedTelemetry,
    flight: FlightRecorder,
    connections_total: AtomicU64,
    connections_active: AtomicUsize,
    sheds: AtomicU64,
    frame_errors: AtomicU64,
    whatif_active: AtomicUsize,
    whatif_timeouts: AtomicU64,
    whatif_panics: AtomicU64,
    /// What the engine publishes for the tail thread; its `stop` also
    /// stops the listener.
    follow: FollowShared,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Shared {
        Shared {
            telem: shared_telemetry(),
            flight: FlightRecorder::new(cfg.flightrec, cfg.dir.join("flightrec.jsonl")),
            cfg,
            connections_total: AtomicU64::new(0),
            connections_active: AtomicUsize::new(0),
            sheds: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            whatif_active: AtomicUsize::new(0),
            whatif_timeouts: AtomicU64::new(0),
            whatif_panics: AtomicU64::new(0),
            follow: FollowShared::default(),
        }
    }

    /// Count one `BUSY` reply and leave the flight-recorder line `amjs
    /// doctor` builds its shed windows from.
    fn shed(&self, what: &str) {
        self.sheds.fetch_add(1, Ordering::SeqCst);
        self.flight.record(FlightKind::Shed {
            what: what.to_string(),
        });
    }

    /// Telemetry for one finished request: latency histogram, flight
    /// recorder event, and the slow-op log. `seq` is the WAL sequence
    /// an accepted mutation logged. Called by the engine for what it
    /// answers itself and by the connection that supervised a `WHATIF`.
    fn note_request(&self, verb: &'static str, reply_text: &str, at: Instant, seq: Option<u64>) {
        let elapsed = at.elapsed();
        self.telem.lock().unwrap().observe_verb(verb, elapsed);
        let status = reply_text
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_string();
        self.flight.record(FlightKind::Request {
            verb: verb.to_string(),
            status,
            dur_us: elapsed.as_micros() as u64,
            seq,
        });
        if self.cfg.slow_ms > 0 && elapsed >= Duration::from_millis(self.cfg.slow_ms) {
            eprintln!(
                "amjs serve: slow op: {verb} took {:.1}ms (reply {:.40})",
                elapsed.as_secs_f64() * 1e3,
                reply_text
            );
        }
    }
}

/// One of the `whatif_cap` speculation slots. The step counts it
/// into `whatif_active` before it forks; it is freed when the
/// supervising connection has its text (an abandoned overrun frees it
/// at the deadline) — or when a [`Reply`] nobody received is dropped,
/// which is why it is a guard.
struct WhatIfSlot(Arc<Shared>);

impl Drop for WhatIfSlot {
    fn drop(&mut self) {
        self.0.whatif_active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The daemon's replication role.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Role {
    /// Serves writes; feeds any attached followers.
    Primary,
    /// Mirrors `primary`; read-only until promoted.
    Follower {
        /// The primary's address (for diagnostics and `ROLE` replies).
        primary: String,
    },
}

/// One snapshot on its way to the writer: `(seq, head, frame)`.
type HandOff = (u64, Vec<u8>, Vec<u8>);

/// Handle on the `amjs-snap-writer` thread, which owns the state dir's
/// [`ColumnLog`] and [`SnapshotStore`]: every snapshot of a running
/// daemon — frame appended and synced, then the head checksummed,
/// written, synced, renamed and pruned — is made durable there. At most
/// one is in flight; handing over the next first waits for the previous
/// one, so a disk slower than the snapshot cadence slows the engine
/// down instead of queueing buffers.
struct SnapshotPipe {
    /// `None` once closed.
    jobs: Option<mpsc::Sender<HandOff>>,
    done: mpsc::Receiver<io::Result<()>>,
    in_flight: bool,
    writer: Option<thread::JoinHandle<()>>,
}

fn writer_gone() -> io::Error {
    io::Error::other("the snapshot writer thread is gone")
}

impl SnapshotPipe {
    /// Start the writer. It times each write into
    /// `telem.snapshot_write` and records the flight-recorder
    /// `Snapshot` event when the file is in place.
    fn spawn(
        store: SnapshotStore,
        mut log: ColumnLog,
        shared: Arc<Shared>,
    ) -> io::Result<SnapshotPipe> {
        let (jobs, inbox) = mpsc::channel::<HandOff>();
        let (outbox, done) = mpsc::channel();
        let writer = thread::Builder::new()
            .name("amjs-snap-writer".into())
            .spawn(move || {
                for (seq, head, frame) in inbox {
                    let started = Instant::now();
                    // The frame is durable before the head that counts
                    // on it exists under its name.
                    let res = log
                        .append(&frame)
                        .and_then(|covered| store.write(seq, &seal_head(head, covered)))
                        .map(drop);
                    let elapsed = started.elapsed();
                    shared
                        .telem
                        .lock()
                        .expect("telemetry lock poisoned by a panicked thread")
                        .snapshot_write
                        .observe_duration(elapsed);
                    if res.is_ok() {
                        shared.flight.record(FlightKind::Snapshot {
                            seq,
                            dur_us: elapsed.as_micros() as u64,
                        });
                    }
                    if outbox.send(res).is_err() {
                        break;
                    }
                }
            })?;
        Ok(SnapshotPipe {
            jobs: Some(jobs),
            done,
            in_flight: false,
            writer: Some(writer),
        })
    }

    /// Wait for the write in flight, if any, and return its result.
    fn settle(&mut self) -> io::Result<()> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        self.done.recv().unwrap_or_else(|_| Err(writer_gone()))
    }

    /// [`settle`](Self::settle) without waiting: `Ok` while the write
    /// is still running.
    fn poll(&mut self) -> io::Result<()> {
        if !self.in_flight {
            return Ok(());
        }
        let res = match self.done.try_recv() {
            Err(TryRecvError::Empty) => return Ok(()),
            Err(TryRecvError::Disconnected) => Err(writer_gone()),
            Ok(res) => res,
        };
        self.in_flight = false;
        res
    }

    /// Settle the previous write, then hand `head` and `frame` over as
    /// the snapshot at command sequence `seq`. An `Err` is the previous
    /// write's; the two are then dropped unwritten.
    fn submit(&mut self, seq: u64, head: Vec<u8>, frame: Vec<u8>) -> io::Result<()> {
        self.settle()?;
        let jobs = self.jobs.as_ref().ok_or_else(writer_gone)?;
        jobs.send((seq, head, frame)).map_err(|_| writer_gone())?;
        self.in_flight = true;
        Ok(())
    }

    /// Close the queue and join the writer (it finishes a write in
    /// flight first). `Err` if the thread panicked.
    fn join(&mut self) -> thread::Result<()> {
        self.jobs = None;
        self.writer.take().map_or(Ok(()), |w| w.join())
    }
}

impl Drop for SnapshotPipe {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// The engine: sole owner of scheduler, WAL, epoch, and follower
/// sinks; snapshots leave it as encoded buffers through
/// [`SnapshotPipe`]. A daemon runs every method under [`Served`]'s
/// lock.
struct Engine<P: Platform + Snapshot + 'static> {
    sched: LiveScheduler<P>,
    wal: WalWriter,
    snap: SnapshotPipe,
    /// Column lengths of the last snapshot handed to the writer: the
    /// next frame starts here.
    cursor: Columns,
    /// Head + frame bytes of that hand-off (`serve_snapshot_bytes`).
    snapshot_bytes: usize,
    shared: Arc<Shared>,
    role: Role,
    epoch: u64,
    followers: Vec<mpsc::Sender<String>>,
    report: ServeReport,
    draining: bool,
    shutdown: bool,
    fatal: Option<ServeError>,
    since_snapshot: u64,
    since_oracle: u64,
    last_heartbeat: Instant,
    wall_anchor: Instant,
    sim_anchor: SimTime,
}

fn refuse_dirty_dir(dir: &Path) -> Result<(), ServeError> {
    if wal_path(dir).exists() {
        return Err(ServeError::Corrupt(format!(
            "state dir {} already holds a command wal; \
             use --resume to recover it or point --serve-dir at a fresh directory",
            dir.display()
        )));
    }
    Ok(())
}

/// A dropped engine — closed or crashed — takes its recorder out of
/// the process-wide panic hook.
impl<P: Platform + Snapshot + 'static> Drop for Engine<P> {
    fn drop(&mut self) {
        self.shared.flight.deregister();
    }
}

impl<P: Platform + Snapshot + 'static> Engine<P> {
    /// Everything [`run_daemon`] does before it binds a thread to a
    /// socket: recover the state directory (`resume`), or refuse a
    /// dirty one and start from `init()` or — with
    /// [`ServeConfig::follow`] — from the primary's snapshot. The
    /// genesis/bootstrap snapshot is on disk when this returns.
    fn open(
        init: impl FnOnce() -> LiveScheduler<P>,
        resume: bool,
        cfg: ServeConfig,
    ) -> Result<Engine<P>, ServeError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let shared = Arc::new(Shared::new(cfg));
        let cfg = &shared.cfg;
        let wal_file = wal_path(&cfg.dir);
        let (sched, wal, epoch, resumed) = match (&cfg.follow, resume) {
            (_, true) => {
                let r = recover_state::<P>(&cfg.dir, |m| eprintln!("amjs serve: {m}"))?;
                (r.sched, r.wal, r.epoch, Some((r.log, r.cursor)))
            }
            (None, false) => {
                refuse_dirty_dir(&cfg.dir)?;
                let sched = init();
                let wal = WalWriter::create(&wal_file, sched.fingerprint(), 0)?;
                (sched, wal, 0, None)
            }
            (Some(spec), false) => {
                refuse_dirty_dir(&cfg.dir)?;
                // Bootstrap from the primary's live snapshot (prefetched by
                // the CLI for platform dispatch, or fetched here).
                let patience = spec.lease.max(Duration::from_millis(500));
                let boot = match spec.bootstrap.clone() {
                    Some(b) => b,
                    None => fetch_snapshot(&spec.primary, patience).map_err(ServeError::Repl)?,
                };
                let sched = LiveScheduler::<P>::decode(&boot.payload)?;
                if sched.fingerprint() != boot.fingerprint {
                    return Err(ServeError::Corrupt(format!(
                        "bootstrap fingerprint {:016x} does not match decoded state {:016x}",
                        boot.fingerprint,
                        sched.fingerprint()
                    )));
                }
                let wal = WalWriter::create_at(&wal_file, boot.fingerprint, boot.epoch, boot.seq)?;
                eprintln!(
                    "amjs serve: bootstrapped from primary {} (seq {}, epoch {})",
                    spec.primary, boot.seq, boot.epoch
                );
                (sched, wal, boot.epoch, None)
            }
        };
        // A fresh directory starts an empty column log, and lays the
        // snapshot it starts from — genesis, or the primary's state —
        // once there is an engine to take it.
        let fresh = resumed.is_none();
        let (log, cursor) = match resumed {
            Some(resumed) => resumed,
            None => (
                ColumnLog::create(&column_log_path(&cfg.dir))?,
                Columns::default(),
            ),
        };
        let store = SnapshotStore::new(&cfg.dir, cfg.keep_snapshots);
        let snap = SnapshotPipe::spawn(store, log, shared.clone())?;
        let role = cfg
            .follow
            .as_ref()
            .map_or(Role::Primary, |spec| Role::Follower {
                primary: spec.primary.clone(),
            });
        let follow = &shared.follow;
        follow.applied_seq.store(wal.next_seq(), Ordering::SeqCst);
        follow.epoch.store(epoch, Ordering::SeqCst);
        follow
            .primary_next_seq
            .store(wal.next_seq(), Ordering::SeqCst);
        shared.flight.register_panic_hook();
        let mut engine = Engine {
            snap,
            cursor,
            snapshot_bytes: 0,
            report: ServeReport {
                final_seq: wal.next_seq(),
                final_epoch: epoch,
                ..ServeReport::default()
            },
            wall_anchor: Instant::now(),
            sim_anchor: sched.now(),
            sched,
            wal,
            role,
            epoch,
            followers: Vec::new(),
            draining: false,
            shutdown: false,
            fatal: None,
            since_snapshot: 0,
            since_oracle: 0,
            last_heartbeat: Instant::now(),
            shared,
        };
        if fresh {
            // Recovery always has a floor to replay from. It is where
            // the segment starts, not part of its work.
            engine.snapshot(engine.wal.next_seq(), true)?;
            engine.report.snapshots_written = 0;
        }
        Ok(engine)
    }

    /// The clean end of a segment, after the last
    /// [`step`](Self::step): settle the writer, take the final
    /// snapshot — best-effort when already failing — flush the flight
    /// recorder and report. Dropping the engine instead is a crash:
    /// what the WAL holds is what a `resume` gets back.
    fn close(mut self) -> Result<ServeReport, ServeError> {
        self.followers.clear(); // feeder threads exit on sink disconnect
        if self.fatal.is_none() {
            // A rotation still in flight that fails is that failure, not
            // the final snapshot's.
            if let Err(e) = self.snap.settle() {
                self.rotation_failed(e);
            }
        }
        let final_snapshot = self.snapshot(self.wal.next_seq(), true);
        if self.snap.join().is_err() {
            eprintln!("amjs serve: error: the snapshot writer thread panicked");
        }
        // Flush the flight recorder before any early return: the
        // postmortem must survive fatal exits, and the termination path
        // (SIGTERM → stop flag → shell → here) lands here too.
        self.shared.flight.flush();
        match final_snapshot {
            Ok(()) => {}
            Err(e) if self.fatal.is_some() => {
                // Already failing: the snapshot was a best-effort salvage.
                eprintln!("amjs serve: final best-effort snapshot also failed: {e}");
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
        if let Some(e) = self.fatal.take() {
            eprintln!("amjs serve: fatal: {e}");
            return Err(e);
        }
        self.report.sheds = self.shared.sheds.load(Ordering::SeqCst);
        self.report.final_epoch = self.epoch;
        eprintln!(
            "amjs serve: shut down cleanly ({} commands, {} replicated, wal seq {}, epoch {})",
            self.report.commands_applied,
            self.report.replicated,
            self.report.final_seq,
            self.report.final_epoch
        );
        Ok(self.report)
    }

    fn sim_now(&self) -> SimTime {
        match self.shared.cfg.clock {
            ClockMode::Wall { scale } => {
                let elapsed = self.wall_anchor.elapsed().as_secs_f64() * scale;
                self.sim_anchor + SimDuration::from_secs(elapsed as i64)
            }
            ClockMode::Virtual => self.sim_anchor, // moves only via ADVANCE
        }
    }

    /// Wall-clock catchup so decisions see current time (primaries
    /// only: a follower's clock is driven by the primary's records).
    fn catch_up_clock(&mut self) {
        if self.role != Role::Primary {
            return;
        }
        if let ClockMode::Wall { .. } = self.shared.cfg.clock {
            let t = self.sim_now();
            if t > self.sched.now() {
                self.sched.advance_to(t);
            }
        }
    }

    fn stop_requested(&self) -> bool {
        let latch = self.shared.cfg.stop.as_ref();
        signal::termination_requested() || latch.is_some_and(|s| s.load(Ordering::SeqCst))
    }

    /// One client command, read at `at` (the latency clock starts
    /// there, so the wait for the lock is measured). A [`Reply::Text`]
    /// has its telemetry noted here; a [`Reply`] that leaves work for
    /// the connection thread is noted there, when the work is done.
    fn step(&mut self, cmd: &Command, at: Instant) -> Reply {
        #[cfg(test)]
        if let Command::Submit {
            user: tests::PANIC_USER,
            ..
        } = cmd
        {
            panic!("injected step panic");
        }
        self.catch_up_clock();
        let (answer, seq) = self.answer(cmd);
        if let Reply::Text(text) = &answer {
            self.shared.note_request(verb_name(cmd), text, at, seq);
        }
        answer
    }

    /// One event from the follower's tail thread.
    fn follow(&mut self, event: FollowEvent) {
        match event {
            FollowEvent::Record(rec) => self.apply_repl_record(rec),
            FollowEvent::Fatal(msg) => self.fatal = Some(ServeError::Repl(msg)),
            FollowEvent::PrimaryLost => self.promote(),
        }
    }

    /// `REPL TAIL`: validate the handshake — the fencing point — then
    /// backfill a sink from disk and register it.
    fn subscribe(&mut self, seq: u64, epoch: u64, fingerprint: u64) -> Reply {
        if let Role::Follower { primary } = &self.role {
            return Reply::Text(format!(
                "ERR cannot tail a follower (the primary is at {primary})"
            ));
        }
        let ours = self.sched.fingerprint();
        if fingerprint != ours {
            return Reply::Text(format!(
                "ERR FENCED: fingerprint {fingerprint:016x} does not match this run \
                 ({ours:016x}); that state belongs to a different world"
            ));
        }
        if epoch != self.epoch {
            return Reply::Text(format!(
                "ERR FENCED: stale epoch {epoch} (current epoch {}); \
                 re-bootstrap from the current primary with a fresh --serve-dir",
                self.epoch
            ));
        }
        let head = self.wal.next_seq();
        if seq > head {
            return Reply::Text(format!(
                "ERR tail seq {seq} is ahead of the wal head {head}"
            ));
        }
        let (sink, stream) = mpsc::channel();
        if seq < head {
            // Catch the subscriber up from the durable log. Appends only
            // happen under the engine lock, held here, so the read races
            // nothing.
            let contents = match read_wal(&wal_path(&self.shared.cfg.dir), Some(ours)) {
                Ok(c) => c,
                Err(e) => return Reply::Text(format!("ERR cannot backfill from wal: {e}")),
            };
            for rec in contents.records.iter().filter(|r| r.seq >= seq) {
                let _ = sink.send(render_record(rec));
            }
        }
        self.followers.push(sink);
        Reply::Tail(format!("OK TAILING FROM={seq}"), stream)
    }

    /// The only caller of [`WalWriter::append`]: time the append and,
    /// once the record is in the log, move the head the report and the
    /// tail thread see.
    fn log(&mut self, rec: &ReplRecord) -> io::Result<()> {
        let started = Instant::now();
        let appended = self
            .wal
            .append(rec.epoch, rec.time_secs, rec.state_hash, &rec.cmd);
        let mut telem = self.shared.telem.lock().unwrap();
        telem.wal_append.observe_duration(started.elapsed());
        drop(telem);
        let seq = appended?;
        debug_assert_eq!(seq, rec.seq);
        self.report.final_seq = seq + 1;
        let follow = &self.shared.follow;
        follow.applied_seq.store(seq + 1, Ordering::SeqCst);
        Ok(())
    }

    /// Apply one record off the replication stream: identical apply
    /// path, then the divergence cross-check, then the local WAL append
    /// (what makes the follower itself crash-recoverable).
    fn apply_repl_record(&mut self, rec: ReplRecord) {
        if self.role == Role::Primary {
            return; // stale event raced the promotion; drop it
        }
        if rec.epoch != self.epoch {
            self.fatal = Some(ServeError::Repl(format!(
                "fenced record: epoch {} vs local epoch {} at seq {}",
                rec.epoch, self.epoch, rec.seq
            )));
            return;
        }
        let head = self.wal.next_seq();
        if rec.seq != head {
            self.fatal = Some(ServeError::Repl(format!(
                "replication sequence gap: expected {head}, got {}",
                rec.seq
            )));
            return;
        }
        if let Err(e) = replay_record(&mut self.sched, &rec) {
            self.fatal = Some(ServeError::Repl(e));
            return;
        }
        if let Err(e) = self.log(&rec) {
            eprintln!("amjs serve: error: follower wal append failed: {e} — shutting down");
            self.fatal = Some(ServeError::Io(e));
            return;
        }
        self.report.replicated += 1;
        self.shared.flight.record(FlightKind::ReplApply {
            seq: rec.seq,
            epoch: rec.epoch,
        });
        self.after_mutation(rec.seq);
    }

    /// Lease expired: step up into a new, fenced epoch.
    fn promote(&mut self) {
        let Role::Follower { primary } = self.role.clone() else {
            return;
        };
        let takeover_started = Instant::now();
        let new_epoch = self.epoch + 1;
        eprintln!(
            "amjs serve: primary {primary} lost (lease expired); promoting to epoch {new_epoch}"
        );
        // Persist the new epoch before serving a single write in it: a
        // promoted follower that crashed and resumed must not regress
        // into the old epoch.
        if let Err(e) = self.wal.set_epoch(new_epoch) {
            eprintln!("amjs serve: error: cannot persist promotion epoch: {e}");
            self.fatal = Some(ServeError::Io(e));
            return;
        }
        self.epoch = new_epoch;
        self.shared.follow.epoch.store(new_epoch, Ordering::SeqCst);
        self.role = Role::Primary;
        self.report.promotions += 1;
        // Promotion snapshot: a durability floor inside the new epoch,
        // on disk before the first write of that epoch is served.
        if let Err(e) = self.snapshot(self.wal.next_seq(), true) {
            eprintln!("amjs serve: error: promotion snapshot failed: {e}");
            self.fatal = Some(ServeError::Io(e));
        }
        // Time-to-takeover: lease expiry to serving writes in the new
        // epoch (epoch persisted + promotion snapshot on disk).
        let takeover = takeover_started.elapsed();
        self.shared.telem.lock().unwrap().promotion_secs = Some(takeover.as_secs_f64());
        self.shared.flight.record(FlightKind::Promotion {
            epoch: new_epoch,
            dur_us: takeover.as_micros() as u64,
        });
    }

    /// Fan a freshly logged record out to every follower sink.
    fn broadcast_record(&mut self, rec: &ReplRecord) {
        if self.followers.is_empty() {
            return;
        }
        let frame = render_record(rec);
        self.followers
            .retain(|sink| sink.send(frame.clone()).is_ok());
    }

    /// Periodic heartbeat to followers (liveness + lag signal).
    fn heartbeat_tick(&mut self) {
        if self.followers.is_empty()
            || self.last_heartbeat.elapsed() < self.shared.cfg.repl_heartbeat
        {
            return;
        }
        self.last_heartbeat = Instant::now();
        let frame = render_heartbeat(self.epoch, self.wal.next_seq());
        self.followers
            .retain(|sink| sink.send(frame.clone()).is_ok());
    }

    /// One snapshot at command sequence `seq`: encode the head and the
    /// frame past the cursor here, make them durable on the writer
    /// thread. Every snapshot of a daemon (genesis or bootstrap,
    /// rotation, promotion, final) goes through here; `wait` makes the
    /// call return only once the head is on disk. Without it an `Err`
    /// is the *previous* write's, and this one's surfaces at the next
    /// call or tick. What the step paid — encode plus any waiting —
    /// goes to `snapshot_stall`.
    fn snapshot(&mut self, seq: u64, wait: bool) -> io::Result<()> {
        let started = Instant::now();
        let (head, frame, next) = self.sched.encode_since(&self.cursor);
        let bytes = head.len() + frame.len();
        let mut res = self.snap.submit(seq, head, frame);
        if res.is_ok() {
            // Handed over: the next frame starts where this one stopped.
            // A write that fails after this is fatal, and a daemon that
            // ends fatally returns no report.
            self.cursor = next;
            self.snapshot_bytes = bytes;
            self.report.snapshots_written += 1;
            if wait {
                res = self.snap.settle();
            }
        }
        self.shared
            .telem
            .lock()
            .unwrap()
            .snapshot_stall
            .observe_duration(started.elapsed());
        res
    }

    fn rotation_failed(&mut self, e: io::Error) {
        eprintln!(
            "amjs serve: error: snapshot rotation failed: {e} — shutting down \
             (the command wal remains authoritative)"
        );
        self.fatal = Some(ServeError::Io(e));
    }

    /// Post-append bookkeeping shared by client mutations and
    /// replicated records: snapshot cadence and the invariant oracle.
    /// Failures are clean `error:` shutdowns, never panics.
    fn after_mutation(&mut self, seq: u64) {
        self.since_snapshot += 1;
        self.since_oracle += 1;
        if self.since_snapshot >= self.shared.cfg.snapshot_every {
            match self.snapshot(seq + 1, false) {
                Ok(()) => self.since_snapshot = 0,
                Err(e) => self.rotation_failed(e),
            }
        }
        if self.shared.cfg.oracle_every > 0 && self.since_oracle >= self.shared.cfg.oracle_every {
            self.since_oracle = 0;
            if let Err(msg) = self.sched.check_invariants() {
                eprintln!("amjs serve: error: live invariant violation: {msg}");
                self.fatal = Some(ServeError::Corrupt(format!(
                    "live invariant violation: {msg}"
                )));
            }
        }
    }

    /// Records between this follower and the head the primary last told
    /// the tail thread of (0 on a primary).
    fn lag_records(&self) -> u64 {
        let head = self.shared.follow.primary_next_seq.load(Ordering::SeqCst);
        head.saturating_sub(self.wal.next_seq())
    }

    /// Answer one client command: the reply, and the WAL sequence it
    /// logged if it was an accepted mutation.
    fn answer(&mut self, cmd: &Command) -> (Reply, Option<u64>) {
        let mut logged_seq = None;
        let text = match cmd {
            Command::Ping => "OK PONG".to_string(),
            Command::Stats => {
                let s = self.sched.stats();
                format!(
                    "OK T={} QUEUED={} RUNNING={} DONE={} ABANDONED={} BACKOFF={} \
                     PENDING={} QDEPTH={:.1} UTIL={:.4} DOWN={} BF={} W={}",
                    self.sched.now().as_secs(),
                    s.queued,
                    s.running,
                    s.finished,
                    s.abandoned,
                    s.in_backoff,
                    s.unsubmitted,
                    s.queue_depth_mins,
                    s.util_instant,
                    s.down_nodes,
                    s.policy.balance_factor,
                    s.policy.window,
                )
            }
            Command::Hash => format!(
                "OK HASH={:016x} INDEX={} T={}",
                self.sched.state_hash(),
                self.sched.event_index(),
                self.sched.now().as_secs()
            ),
            Command::Role => match &self.role {
                Role::Primary => format!(
                    "OK ROLE=primary EPOCH={} FOLLOWERS={}",
                    self.epoch,
                    self.followers.len()
                ),
                Role::Follower { primary } => format!(
                    "OK ROLE=follower EPOCH={} PRIMARY={} LAG={}",
                    self.epoch,
                    primary,
                    self.lag_records(),
                ),
            },
            Command::Status(id) => render_status(self.sched.status(JobId(*id))),
            Command::Drain => {
                self.draining = true;
                "OK DRAINING".to_string()
            }
            Command::Shutdown => {
                self.shutdown = true;
                "OK BYE".to_string()
            }
            Command::ReplSnapshot => match &self.role {
                Role::Follower { primary } => format!(
                    "ERR follower cannot serve snapshots; bootstrap from the primary at {primary}"
                ),
                Role::Primary => {
                    let boot = Bootstrap {
                        payload: self.sched.encode(),
                        seq: self.wal.next_seq(),
                        epoch: self.epoch,
                        fingerprint: self.sched.fingerprint(),
                    };
                    return (Reply::Snapshot(boot), None);
                }
            },
            Command::ReplTail {
                seq,
                epoch,
                fingerprint,
            } => return (self.subscribe(*seq, *epoch, *fingerprint), None),
            Command::WhatIf {
                job,
                bf,
                window,
                horizon_secs,
            } => match self.sched.settled_whatif(JobId(*job)) {
                // A job that has started (or never existed) needs no fork.
                Some(answer) => render_whatif(answer),
                None if self.shared.whatif_active.load(Ordering::SeqCst)
                    >= self.shared.cfg.whatif_cap =>
                {
                    self.shared.shed("whatif-cap");
                    "BUSY what-if capacity".to_string()
                }
                None => {
                    self.shared.whatif_active.fetch_add(1, Ordering::SeqCst);
                    let slot = WhatIfSlot(self.shared.clone());
                    let fork = self.sched.fork();
                    let (job, bf, window) = (JobId(*job), *bf, *window);
                    let horizon = horizon_secs.unwrap_or(self.shared.cfg.whatif_horizon_secs);
                    let horizon = SimDuration::from_secs(horizon);
                    let speculate = move || fork.speculate_start(job, bf, window, horizon);
                    return (Reply::Speculate(Box::new(speculate), slot), None);
                }
            },
            mutating if mutating.is_mutating() && self.role != Role::Primary => {
                let Role::Follower { primary } = &self.role else {
                    unreachable!()
                };
                format!("ERR follower is read-only (the primary is at {primary})")
            }
            Command::Advance(_) if self.shared.cfg.clock != ClockMode::Virtual => {
                "ERR ADVANCE requires --clock virtual".to_string()
            }
            Command::Submit { .. } if self.draining => {
                "ERR draining: not admitting new work".to_string()
            }
            mutating => {
                // Journal the clock as it stood *before* the command ran:
                // replay advances to this time and re-applies, so a
                // relative command like ADVANCE must not see its own
                // effect in the logged timestamp.
                let applied_at = self.sched.now().as_secs();
                match apply_mutation(&mut self.sched, mutating) {
                    Ok(ok) => {
                        // Journal before acknowledgment: the reply is not
                        // sent until the record is flushed. A WAL that can
                        // no longer be written means memory is ahead of
                        // what the log can promise — refuse the ACK and
                        // stop serving, cleanly.
                        let rec = ReplRecord {
                            seq: self.wal.next_seq(),
                            epoch: self.epoch,
                            time_secs: applied_at,
                            state_hash: self.sched.state_hash(),
                            cmd: mutating.render(),
                        };
                        match self.log(&rec) {
                            Err(e) => {
                                eprintln!(
                                    "amjs serve: error: command wal append failed: {e} — \
                                     refusing to acknowledge, shutting down"
                                );
                                let text =
                                    format!("ERR durability failure: {e}; daemon shutting down");
                                self.fatal = Some(ServeError::Io(e));
                                text
                            }
                            Ok(()) => {
                                logged_seq = Some(rec.seq);
                                self.report.commands_applied += 1;
                                self.broadcast_record(&rec);
                                self.after_mutation(rec.seq);
                                ok
                            }
                        }
                    }
                    Err(e) => format!("ERR {e}"),
                }
            }
        };
        (Reply::Text(text), logged_seq)
    }

    /// Publish the daemon dashboard into the PR-4 metrics endpoint.
    fn publish_stats(&self) {
        let Some(stats) = &self.shared.cfg.stats else {
            return;
        };
        let s = self.sched.stats();
        let shared = &self.shared;
        let count = |c: &AtomicU64| c.load(Ordering::SeqCst) as f64;
        let gauges = [
            (
                "serve_connections_active",
                shared.connections_active.load(Ordering::SeqCst) as f64,
            ),
            ("serve_connections_total", count(&shared.connections_total)),
            ("serve_sheds_total", count(&shared.sheds)),
            ("serve_frame_errors_total", count(&shared.frame_errors)),
            (
                "serve_whatif_active",
                shared.whatif_active.load(Ordering::SeqCst) as f64,
            ),
            (
                "serve_whatif_timeouts_total",
                count(&shared.whatif_timeouts),
            ),
            ("serve_whatif_panics_total", count(&shared.whatif_panics)),
            ("serve_wal_seq", self.wal.next_seq() as f64),
            ("serve_snapshot_bytes", self.snapshot_bytes as f64),
            ("serve_draining", if self.draining { 1.0 } else { 0.0 }),
            ("serve_jobs_abandoned", s.abandoned as f64),
            ("serve_jobs_finished", s.finished as f64),
        ];
        let mut extra: Vec<(String, f64)> = gauges.map(|(name, v)| (name.to_string(), v)).into();
        let lag_records = self.lag_records();
        let hists = {
            let mut t = self.shared.telem.lock().unwrap();
            // Sample follower lag into its distribution each tick (the
            // instantaneous value stays a gauge below).
            if matches!(self.role, Role::Follower { .. }) {
                t.repl_lag.observe(lag_records as f64);
            }
            if let Some(takeover) = t.promotion_secs {
                extra.push(("serve_promotion_seconds".to_string(), takeover));
            }
            t.hist_entries()
        };
        let (flight_total, flight_dropped) = self.shared.flight.totals();
        if self.shared.flight.enabled() {
            extra.push((
                "serve_flightrec_events_total".to_string(),
                flight_total as f64,
            ));
            extra.push((
                "serve_flightrec_dropped_total".to_string(),
                flight_dropped as f64,
            ));
        }
        let repl = ReplStats {
            role: match self.role {
                Role::Primary => 1,
                Role::Follower { .. } => 2,
            },
            epoch: self.epoch,
            followers: self.followers.len() as u64,
            lag_records,
            last_seq: self.wal.next_seq(),
        };
        let mut g = stats.lock().unwrap();
        g.sim_time_s = self.sched.now().as_secs();
        g.events = self.sched.event_index();
        g.queue_depth_mins = s.queue_depth_mins;
        g.util_instant = s.util_instant;
        g.util_1h = s.util_1h;
        g.util_10h = s.util_10h;
        g.util_24h = s.util_24h;
        g.down_nodes = s.down_nodes;
        g.running = s.running as u64;
        g.waiting = s.queued as u64;
        g.done = false;
        g.repl = Some(repl);
        g.extra = extra;
        g.hists = hists;
    }
}

/// The engine behind its lock, and admission's count: what connection
/// threads, the tail thread and the ticker share.
struct Served<P: Platform + Snapshot + 'static> {
    /// `None` once the ticker has closed it.
    engine: Mutex<Option<Engine<P>>>,
    shared: Arc<Shared>,
    /// Requests waiting for or holding the engine.
    admitted: AtomicUsize,
    /// Set when the ticker starts to close; later requests are refused.
    closing: AtomicBool,
    /// The ticker, woken by a step that stops the engine.
    ticker: OnceLock<Thread>,
}

/// Why a client command was not stepped: over `admission_cap`
/// (`Busy`), or shutting down, failed or panicked (`Closed`).
enum Refusal {
    Busy,
    Closed,
}

impl<P: Platform + Snapshot + 'static> Served<P> {
    fn new(engine: Engine<P>) -> Served<P> {
        Served {
            shared: engine.shared.clone(),
            engine: Mutex::new(Some(engine)),
            admitted: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            ticker: OnceLock::new(),
        }
    }

    /// Run `f` on the engine if it still serves: not closed, not
    /// failing, and no step has panicked. A panic in `f` poisons the
    /// lock and wakes the ticker, which re-raises it.
    fn with_engine<R>(&self, f: impl FnOnce(&mut Engine<P>) -> R) -> Option<R> {
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = self.engine.lock().ok()?;
            let engine = guard.as_mut().filter(|e| e.fatal.is_none())?;
            let out = f(engine);
            Some((out, engine.shutdown || engine.fatal.is_some()))
        }));
        let (out, stopped) = match stepped {
            Ok(Some((out, stopped))) => (Some(out), stopped),
            Ok(None) => (None, false),
            Err(_panic) => (None, true),
        };
        if let (true, Some(ticker)) = (stopped, self.ticker.get()) {
            ticker.unpark();
        }
        out
    }

    /// Admit one client command, step it, and let go of the engine.
    fn request(&self, cmd: &Command, at: Instant) -> Result<Reply, Refusal> {
        let ahead = self.admitted.fetch_add(1, Ordering::SeqCst);
        // Read after the count went up: the ticker that set `closing`
        // and then saw no request admitted cannot have missed this one.
        let reply = if self.closing.load(Ordering::SeqCst) {
            Err(Refusal::Closed)
        } else if ahead >= self.shared.cfg.admission_cap {
            Err(Refusal::Busy)
        } else {
            self.with_engine(|e| e.step(cmd, at)).ok_or(Refusal::Closed)
        };
        self.admitted.fetch_sub(1, Ordering::SeqCst);
        reply
    }

    /// The ticker's lock. Poisoned, a step panicked: stop the listener
    /// and the tail thread, drop the engine as an unwinding engine
    /// thread would, and panic here too.
    fn lock_or_raise(&self) -> MutexGuard<'_, Option<Engine<P>>> {
        self.engine.lock().unwrap_or_else(|poisoned| {
            self.shared.follow.stop.store(true, Ordering::SeqCst);
            drop(poisoned.into_inner().take());
            panic!("amjs serve: a step panicked; the engine state cannot be trusted");
        })
    }
}

// Whichever thread holds the lock steps the engine.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine<amjs_platform::FlatCluster>>();
    assert_send::<Engine<amjs_platform::BgpCluster>>();
};

/// Run the daemon over an already-bound listener until `SHUTDOWN`,
/// SIGTERM/SIGINT, an unrecoverable persistence failure, or a
/// replication fence/divergence. The calling thread is the ticker;
/// listener, connection, feeder, and tail threads are spawned
/// internally, and steps run on them.
///
/// For a fresh start the state directory must not already contain a
/// WAL (a stale directory silently overwritten would destroy exactly
/// the state `--resume` exists to protect); pass `resume = true` to
/// recover instead. With [`ServeConfig::follow`] set, the daemon runs
/// as a hot-standby follower: it bootstraps from the primary's
/// snapshot (fresh) or its own state dir (`--resume`), mirrors the
/// primary's WAL, refuses client writes, and promotes itself into a
/// new epoch if the primary stays silent past the lease.
pub fn run_daemon<P: Platform + Snapshot + 'static>(
    listener: TcpListener,
    init: impl FnOnce() -> LiveScheduler<P>,
    resume: bool,
    cfg: ServeConfig,
) -> Result<ServeReport, ServeError> {
    let engine = Engine::open(init, resume, cfg)?;
    let fingerprint = engine.sched.fingerprint();
    let served = Arc::new(Served::new(engine));
    let shared = served.shared.clone();

    let local_addr = listener.local_addr()?;
    eprintln!("amjs serve: listening on {local_addr}");
    let listener_handle = {
        let served = served.clone();
        thread::spawn(move || listener_loop(listener, served))
    };

    // ----- follower tail thread -----
    if let Some(spec) = &shared.cfg.follow {
        let tail = served.clone();
        let primary = spec.primary.clone();
        let lease = spec.lease;
        thread::Builder::new()
            .name("amjs-repl-tail".into())
            .spawn(move || {
                follow_loop(&primary, fingerprint, lease, &tail.shared.follow, |ev| {
                    tail.with_engine(|e| e.follow(ev)).is_some()
                })
            })
            .expect("spawn tail thread");
        eprintln!(
            "amjs serve: following primary {} (lease {:?})",
            spec.primary, spec.lease
        );
    }

    let result = tick_until_closed(&served);
    let _ = listener_handle.join();
    result
}

/// The ticker, from the first socket to the close: under the lock,
/// every 50 ms or when a step stops the engine, it handles the stop
/// latch, keeps the wall clock moving so the world evolves with no
/// client traffic, takes the snapshot writer's result, beats the
/// heartbeat and publishes the dashboard. Once stopped, it waits for
/// every request already admitted to be answered, then closes.
fn tick_until_closed<P: Platform + Snapshot + 'static>(
    served: &Served<P>,
) -> Result<ServeReport, ServeError> {
    let _ = served.ticker.set(thread::current());
    let tick = Duration::from_millis(50);
    loop {
        {
            let mut guard = served.lock_or_raise();
            let engine = guard.as_mut().expect("only the ticker closes the engine");
            if engine.stop_requested() {
                engine.shutdown = true;
            }
            if engine.shutdown || engine.fatal.is_some() {
                break;
            }
            engine.catch_up_clock();
            if let Err(e) = engine.snap.poll() {
                engine.rotation_failed(e);
            }
            engine.heartbeat_tick();
            engine.publish_stats();
        }
        thread::park_timeout(tick);
    }

    // ----- shutdown -----
    // Stop admitting and stop the listener and the tail thread; answer
    // what is admitted (a failing engine refuses it), then close.
    served.closing.store(true, Ordering::SeqCst);
    served.shared.follow.stop.store(true, Ordering::SeqCst);
    let engine = loop {
        let mut guard = served.lock_or_raise();
        if served.admitted.load(Ordering::SeqCst) == 0 {
            break guard.take().expect("only the ticker closes the engine");
        }
        drop(guard);
        thread::yield_now();
    };
    engine.publish_stats();
    engine.close()
}

/// Accept loop: enforce the connection cap, hand accepted sockets to
/// per-connection threads, and exit promptly when asked.
fn listener_loop<P: Platform + Snapshot + 'static>(listener: TcpListener, served: Arc<Served<P>>) {
    let shared = &served.shared;
    listener
        .set_nonblocking(true)
        .expect("set_nonblocking on listener");
    while !shared.follow.stop.load(Ordering::SeqCst) {
        let Ok((mut stream, _peer)) = listener.accept() else {
            // Nobody waiting (`WouldBlock`), or a transient accept error.
            thread::sleep(Duration::from_millis(20));
            continue;
        };
        shared.connections_total.fetch_add(1, Ordering::SeqCst);
        if shared.connections_active.load(Ordering::SeqCst) >= shared.cfg.max_conns {
            shared.shed("connection-limit");
            let _ = stream.set_nodelay(true);
            let _ = write_frame(&mut stream, b"BUSY connection limit");
            continue; // dropped: closed
        }
        shared.connections_active.fetch_add(1, Ordering::SeqCst);
        let served = served.clone();
        thread::spawn(move || {
            connection_loop(stream, &served);
            served
                .shared
                .connections_active
                .fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Serve one client: framed request/reply until EOF, protocol error,
/// or read deadline. Unknown verbs and bad arguments get `ERR` and the
/// conversation continues; framing violations (oversized/truncated/
/// garbage) get a best-effort `ERR` and the connection is closed, since
/// the stream can no longer be resynchronized. Every parsed command is
/// admitted and stepped here, the same way; the [`Reply`] says what
/// this thread does next — `REPL SNAPSHOT` streams a chunked payload,
/// an accepted `REPL TAIL` permanently converts the connection into a
/// one-way record feeder, a forking `WHATIF` is supervised here.
fn connection_loop<P: Platform + Snapshot + 'static>(stream: TcpStream, served: &Served<P>) {
    let shared = &served.shared;
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(payload) => {
                let line = match std::str::from_utf8(&payload) {
                    Ok(s) => s,
                    Err(_) => {
                        shared.frame_errors.fetch_add(1, Ordering::SeqCst);
                        let _ = write_frame(&mut writer, b"ERR payload is not utf-8");
                        continue;
                    }
                };
                let cmd = match Command::parse(line) {
                    Ok(c) => c,
                    Err(e) => {
                        // Unknown verb / bad args: reply ERR, keep the
                        // connection — a typo must not cost the session.
                        let _ = write_frame(&mut writer, format!("ERR {e}").as_bytes());
                        continue;
                    }
                };
                let at = Instant::now();
                let sent = match served.request(&cmd, at) {
                    Err(Refusal::Busy) => {
                        // Load shed: admission is full.
                        shared.shed("admission");
                        write_frame(&mut writer, b"BUSY admission queue full")
                    }
                    Ok(Reply::Text(text)) => write_frame(&mut writer, text.as_bytes()),
                    Ok(Reply::Speculate(speculate, slot)) => {
                        let text = supervise_whatif(shared, speculate, slot, at);
                        write_frame(&mut writer, text.as_bytes())
                    }
                    Ok(Reply::Snapshot(boot)) => send_snapshot(&mut writer, &boot),
                    Ok(Reply::Tail(greeting, sink)) => {
                        if write_frame(&mut writer, greeting.as_bytes()).is_ok() {
                            feeder_loop(&mut writer, sink);
                        }
                        return; // the connection was consumed by the stream
                    }
                    Err(Refusal::Closed) => {
                        let _ = write_frame(&mut writer, b"ERR server shutting down");
                        return;
                    }
                };
                if sent.is_err() {
                    return;
                }
            }
            Err(FrameError::Eof) => return,
            Err(FrameError::TooLarge(n)) => {
                shared.frame_errors.fetch_add(1, Ordering::SeqCst);
                let _ = write_frame(
                    &mut writer,
                    format!("ERR frame of {n} bytes exceeds limit").as_bytes(),
                );
                return; // unsynchronizable
            }
            Err(FrameError::Malformed(m)) => {
                shared.frame_errors.fetch_add(1, Ordering::SeqCst);
                let _ = write_frame(&mut writer, format!("ERR {m}").as_bytes());
                return; // unsynchronizable
            }
            Err(FrameError::Io(_)) => {
                // Read deadline hit or transport failure: cull quietly.
                let _ = write_frame(&mut writer, b"ERR idle timeout");
                return;
            }
        }
    }
}

/// Forward the engine's record/heartbeat frames to one follower. Ends
/// when the sink disconnects (engine shutdown) or the transport dies —
/// the engine prunes the sink on its next send.
fn feeder_loop(writer: &mut TcpStream, sink_rx: mpsc::Receiver<String>) {
    while let Ok(frame) = sink_rx.recv() {
        if write_frame(writer, frame.as_bytes()).is_err() {
            return;
        }
    }
}

/// The PR-5 supervision pattern around one what-if query, run by the
/// connection thread that asked: one attempt thread does the
/// speculative work; this thread waits with a deadline, reports
/// panic/timeout as clean `ERR` replies and leaves the request's
/// telemetry. An overrunning attempt is abandoned (honest semantics:
/// its fork is garbage-collected when the thread eventually finishes;
/// live state was never shared with it). `at` is when the request was
/// read; the slot is freed on return.
fn supervise_whatif(
    shared: &Shared,
    speculate: Box<dyn FnOnce() -> WhatIfAnswer + Send>,
    _slot: WhatIfSlot,
    at: Instant,
) -> String {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(speculate)));
    });
    let (text, panicked) = match rx.recv_timeout(shared.cfg.whatif_deadline) {
        Ok(Ok(ans)) => (render_whatif(ans), false),
        Ok(Err(_panic)) => {
            shared.whatif_panics.fetch_add(1, Ordering::SeqCst);
            let text = "ERR what-if worker panicked (live state unaffected)";
            (text.to_string(), true)
        }
        Err(_) => {
            shared.whatif_timeouts.fetch_add(1, Ordering::SeqCst);
            ("ERR what-if deadline exceeded".to_string(), false)
        }
    };
    shared.note_request("WHATIF", &text, at, None);
    if panicked {
        // The panic hook already flushed at panic time; flush
        // again so the on-disk tail ends at the panicking command.
        shared.flight.flush();
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::read_flightrec;
    use crate::repl::{parse_stream_frame, StreamFrame};
    use amjs_core::{PolicyParams, SimulationBuilder};
    use amjs_platform::FlatCluster;
    use amjs_sim::rng::Xoshiro256;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::net::SocketAddr;
    use std::sync::Barrier;

    /// A `SUBMIT` from this user panics inside its step (test builds
    /// only).
    pub(super) const PANIC_USER: u32 = u32::MAX;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amjs-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh_sched() -> LiveScheduler<FlatCluster> {
        LiveScheduler::from_builder(
            SimulationBuilder::new(FlatCluster::new(64), Vec::new())
                .policy(PolicyParams::new(0.5, 4)),
        )
    }

    fn config(dir: &Path, tweak: impl FnOnce(&mut ServeConfig)) -> ServeConfig {
        let mut cfg = ServeConfig::new(dir);
        tweak(&mut cfg);
        cfg
    }

    // ----- the stepped harness: an engine and no socket -----

    type Stepped = Engine<FlatCluster>;

    fn open(dir: &Path, resume: bool, tweak: impl FnOnce(&mut ServeConfig)) -> Stepped {
        try_open(dir, resume, tweak).unwrap()
    }

    fn try_open(
        dir: &Path,
        resume: bool,
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> Result<Stepped, ServeError> {
        Engine::open(fresh_sched, resume, config(dir, tweak))
    }

    /// One client command through `Engine::step`.
    fn step(engine: &mut Stepped, line: &str) -> Reply {
        engine.step(&Command::parse(line).unwrap(), Instant::now())
    }

    /// [`step`] down to the text a client reads first; a speculation
    /// runs inline.
    fn ask(engine: &mut Stepped, line: &str) -> String {
        match step(engine, line) {
            Reply::Text(text) | Reply::Tail(text, _) => text,
            Reply::Speculate(speculate, _slot) => render_whatif(speculate()),
            Reply::Snapshot(boot) => format!("OK SNAPSHOT SEQ={}", boot.seq),
        }
    }

    /// `count` accepted submissions of one shape, users 0, 1, 2, ...
    fn submits(engine: &mut Stepped, count: usize, shape: &str) {
        for user in 0..count {
            let reply = ask(engine, &format!("SUBMIT {shape} USER={user}"));
            assert!(reply.starts_with("OK ID="), "unexpected: {reply}");
        }
    }

    /// Replies that together fingerprint the externally visible state.
    fn observe(engine: &mut Stepped, jobs: usize) -> Vec<String> {
        let per_job = (0..jobs).flat_map(|id| [format!("STATUS {id}"), format!("WHATIF {id}")]);
        let probes = ["HASH", "STATS"].map(String::from);
        let probes = probes.into_iter().chain(per_job);
        probes.map(|probe| ask(engine, &probe)).collect()
    }

    /// A follower of `primary` in `dir`, bootstrapped from its snapshot.
    fn bootstrap(primary: &mut Stepped, dir: &Path) -> Stepped {
        let Reply::Snapshot(boot) = step(primary, "REPL SNAPSHOT") else {
            panic!("a primary serves snapshots");
        };
        open(dir, false, following("primary:0", 3000, Some(boot)))
    }

    /// Follower configuration. A stepped follower's link is [`pump`],
    /// so its `primary` is only a name.
    fn following(
        primary: impl ToString,
        lease_ms: u64,
        bootstrap: Option<Bootstrap>,
    ) -> impl FnOnce(&mut ServeConfig) {
        move |cfg| {
            cfg.follow = Some(FollowSpec {
                primary: primary.to_string(),
                lease: Duration::from_millis(lease_ms),
                bootstrap,
            })
        }
    }

    /// The handshake `follow_loop` would send for `engine`.
    fn hello(engine: &Stepped) -> String {
        let (seq, epoch) = (engine.wal.next_seq(), engine.epoch);
        let fingerprint = engine.sched.fingerprint();
        format!("REPL TAIL SEQ={seq} EPOCH={epoch} FP={fingerprint:016x}")
    }

    /// Subscribe `follower` to `primary`: the stream half of the
    /// accepted handshake's `Reply::Tail`.
    fn link(primary: &mut Stepped, follower: &Stepped) -> mpsc::Receiver<String> {
        match step(primary, &hello(follower)) {
            Reply::Tail(_, stream) => stream,
            _ => panic!("handshake refused"),
        }
    }

    /// Deliver stream frames — those waiting on a [`link`], or a test's
    /// edit of them — as the tail thread would: nothing more once the
    /// engine is failing.
    fn pump(frames: impl IntoIterator<Item = String>, follower: &mut Stepped) {
        for frame in frames {
            let event = match parse_stream_frame(&frame).unwrap() {
                StreamFrame::Record(rec) => FollowEvent::Record(rec),
                StreamFrame::Heartbeat { .. } => continue, // only moves the lag gauge
            };
            if follower.fatal.is_none() {
                follower.follow(event);
            }
        }
    }

    /// `frame`, with `edit` applied if it is the record at `seq`.
    fn forge(frame: String, seq: u64, edit: impl FnOnce(&mut ReplRecord)) -> String {
        match parse_stream_frame(&frame) {
            Ok(StreamFrame::Record(mut rec)) if rec.seq == seq => {
                edit(&mut rec);
                render_record(&rec)
            }
            _ => frame,
        }
    }

    fn snapshot_seqs(dir: &Path) -> Vec<u64> {
        let listed = SnapshotStore::new(dir, 1).list().unwrap();
        listed.into_iter().map(|(seq, _)| seq).collect()
    }

    // ----- the wire harness: a daemon on a socket -----

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let writer = stream.try_clone().unwrap();
            Client {
                reader: BufReader::new(stream),
                writer,
            }
        }

        fn read(&mut self) -> String {
            String::from_utf8(read_frame(&mut self.reader).unwrap()).unwrap()
        }

        fn send(&mut self, line: &str) {
            write_frame(&mut self.writer, line.as_bytes()).unwrap();
        }

        fn ask(&mut self, line: &str) -> String {
            self.send(line);
            self.read()
        }

        fn was_closed(&mut self) -> bool {
            matches!(read_frame(&mut self.reader), Err(FrameError::Eof))
        }
    }

    type Running = thread::JoinHandle<Result<ServeReport, ServeError>>;

    fn spawn_daemon(
        dir: &Path,
        resume: bool,
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> (SocketAddr, Running) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = config(dir, tweak);
        let handle = thread::spawn(move || run_daemon(listener, fresh_sched, resume, cfg));
        (addr, handle)
    }

    /// Poll `probe` until it returns true or the deadline passes.
    fn wait_until(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if probe() {
                return;
            }
            thread::sleep(Duration::from_millis(20));
        }
        panic!("timed out waiting for {what}");
    }

    /// A client whose accepted socket `connection_loop` serves against
    /// `served` on a thread of `scope`; dropping the client ends it.
    fn connect<'s>(scope: &'s thread::Scope<'s, '_>, served: &'s Served<FlatCluster>) -> Client {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap());
        let (stream, _) = listener.accept().unwrap();
        scope.spawn(move || connection_loop(stream, served));
        client
    }

    /// `connection_loop` by hand over one accepted socket.
    fn with_connection(served: &Served<FlatCluster>, script: impl FnOnce(&mut Client)) {
        thread::scope(|s| script(&mut connect(s, served)));
    }

    /// A daemon's shared half over a freshly opened engine: no listener
    /// and no ticker.
    fn served(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> Served<FlatCluster> {
        Served::new(open(&tmp_dir(tag), false, tweak))
    }

    /// Yield until `probe` holds — the threads it waits for run, the
    /// test never sleeps.
    fn spin_until(what: &str, mut probe: impl FnMut() -> bool) {
        let end = Instant::now() + Duration::from_secs(10);
        while !probe() {
            assert!(Instant::now() < end, "timed out waiting for {what}");
            thread::yield_now();
        }
    }

    fn admission_sheds(served: &Served<FlatCluster>) -> usize {
        served.shared.flight.flush();
        let events = read_flightrec(&served.shared.cfg.dir.join("flightrec.jsonl")).unwrap();
        let admission = FlightKind::Shed {
            what: "admission".to_string(),
        };
        events.iter().filter(|e| e.kind == admission).count()
    }

    /// Three verbs, three `Reply` shapes, one admission site.
    const ADMITTED_ALIKE: [&str; 3] = ["REPL TAIL SEQ=0 EPOCH=0 FP=0", "REPL SNAPSHOT", "PING"];

    #[test]
    fn end_to_end_over_the_wire() {
        let dir = tmp_dir("e2e");
        let (addr, handle) = spawn_daemon(&dir, false, |_| {});
        let mut c = Client::connect(addr);

        assert_eq!(c.ask("PING"), "OK PONG");
        assert_eq!(c.ask("SUBMIT NODES=64 WALL=1800 RUN=600 USER=1"), "OK ID=0");
        assert_eq!(c.ask("STATUS 0"), "OK PENDING");
        assert_eq!(c.ask("ADVANCE 60"), "OK T=60");
        assert!(c.ask("STATUS 0").starts_with("OK RUNNING START=0"));
        assert!(c.ask("HASH").starts_with("OK HASH="));
        assert!(c.ask("STATS").contains("RUNNING=1"));
        assert_eq!(c.ask("ROLE"), "OK ROLE=primary EPOCH=0 FOLLOWERS=0");

        // A bad verb is an ERR, not a dropped session.
        assert!(c.ask("FROB 12").starts_with("ERR "));
        assert_eq!(c.ask("PING"), "OK PONG");

        // Rejected mutations are refused without being journaled.
        assert!(c.ask("SUBMIT NODES=9999 WALL=60").starts_with("ERR "));
        assert!(c.ask("CANCEL 77").starts_with("ERR "));

        // Every other `Reply` shape crosses the socket once: a
        // speculation this connection's thread supervises (job 1 queues
        // behind job 0), a streamed snapshot, a refused handshake — an
        // ordinary ERR on a connection that stays open — and an accepted
        // one, which turns its connection into the backfilled stream.
        assert_eq!(c.ask("SUBMIT NODES=64 WALL=900 USER=2"), "OK ID=1");
        assert_eq!(c.ask("WHATIF 1"), "OK START=600");
        let boot = fetch_snapshot(&addr.to_string(), Duration::from_secs(5)).unwrap();
        assert_eq!((boot.seq, boot.epoch), (3, 0));
        let fp = boot.fingerprint;
        let refused = c.ask(&format!("REPL TAIL SEQ=0 EPOCH=7 FP={fp:016x}"));
        assert!(
            refused.starts_with("ERR FENCED: stale epoch 7"),
            "{refused}"
        );
        assert_eq!(c.ask("PING"), "OK PONG");
        let mut tail = Client::connect(addr);
        let greeting = tail.ask(&format!("REPL TAIL SEQ=1 EPOCH=0 FP={fp:016x}"));
        assert_eq!(greeting, "OK TAILING FROM=1");
        assert!(tail.read().ends_with(" ADVANCE 60"));
        assert!(tail.read().ends_with(" SUBMIT NODES=64 WALL=900 USER=2"));
        assert_eq!(c.ask("ROLE"), "OK ROLE=primary EPOCH=0 FOLLOWERS=1");

        assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.commands_applied, 3); // SUBMIT ×2 + ADVANCE only
        assert_eq!(report.final_seq, 3);
    }

    #[test]
    fn whatif_is_answered_from_a_fork() {
        let mut e = open(&tmp_dir("whatif"), false, |_| {});

        // Fill the machine; the second job must queue behind the first.
        assert_eq!(ask(&mut e, "SUBMIT NODES=64 WALL=3600 USER=1"), "OK ID=0");
        assert_eq!(ask(&mut e, "SUBMIT NODES=64 WALL=1800 USER=2"), "OK ID=1");
        assert_eq!(ask(&mut e, "ADVANCE 60"), "OK T=60");
        let hash_before = ask(&mut e, "HASH");

        assert!(matches!(step(&mut e, "WHATIF 1"), Reply::Speculate(..)));
        let ans = ask(&mut e, "WHATIF 1");
        assert!(ans.starts_with("OK START="), "unexpected: {ans}");
        let ans = ask(&mut e, "WHATIF 1 BF=0.9 W=8");
        assert!(ans.starts_with("OK START="), "unexpected: {ans}");
        assert!(ask(&mut e, "WHATIF 42").starts_with("ERR unknown job"));

        // Speculation never touches live state.
        assert_eq!(ask(&mut e, "HASH"), hash_before);
        e.close().unwrap();
    }

    #[test]
    fn a_started_or_unknown_job_is_answered_without_a_fork() {
        let mut e = open(&tmp_dir("whatif-inline"), false, |cfg| cfg.whatif_cap = 0);
        assert_eq!(ask(&mut e, "SUBMIT NODES=64 WALL=3600 USER=1"), "OK ID=0");
        assert_eq!(ask(&mut e, "SUBMIT NODES=64 WALL=1800 USER=2"), "OK ID=1");
        assert_eq!(ask(&mut e, "ADVANCE 60"), "OK T=60");
        assert_eq!(ask(&mut e, "SUBMIT NODES=8 WALL=600 USER=3"), "OK ID=2");
        // No what-if slot exists, and the running job needs none.
        assert_eq!(ask(&mut e, "WHATIF 0"), "OK START=0 LIVE");
        assert!(ask(&mut e, "WHATIF 42").starts_with("ERR unknown job"));
        assert_eq!(ask(&mut e, "WHATIF 1"), "BUSY what-if capacity"); // queued
        assert_eq!(ask(&mut e, "WHATIF 2"), "BUSY what-if capacity"); // pending
        assert_eq!(e.close().unwrap().sheds, 2);
    }

    #[test]
    fn commands_that_overflow_the_clock_are_answered_not_obeyed() {
        let mut e = open(&tmp_dir("overflow"), false, |_| {});
        assert_eq!(ask(&mut e, "SUBMIT NODES=64 WALL=3600 USER=1"), "OK ID=0");
        assert_eq!(ask(&mut e, "SUBMIT NODES=64 WALL=1800 USER=2"), "OK ID=1");
        assert_eq!(ask(&mut e, "ADVANCE 1000"), "OK T=1000");
        let hash_before = ask(&mut e, "HASH");

        let ans = ask(&mut e, "ADVANCE 9223372036854775807");
        assert_eq!(ans, "ERR ADVANCE overflows the clock");
        // The deadline saturates: the queued job starts when job 0 ends.
        let ans = ask(&mut e, "WHATIF 1 HORIZON=9223372036854775807");
        assert_eq!(ans, "OK START=3600");

        assert_eq!(ask(&mut e, "PING"), "OK PONG");
        assert_eq!(ask(&mut e, "HASH"), hash_before);
        // Two submits and one advance: the refused one never reached the WAL.
        assert_eq!(e.close().unwrap().commands_applied, 3);

        let mut sched = fresh_sched();
        sched.advance_to(SimTime::from_secs(1000));
        let hash = sched.state_hash();
        let refused = apply_mutation(&mut sched, &Command::Advance(i64::MAX));
        assert_eq!(refused.unwrap_err(), "ADVANCE overflows the clock");
        assert_eq!((sched.now().as_secs(), sched.state_hash()), (1000, hash));
    }

    #[test]
    fn whatif_cap_sheds_with_busy() {
        let mut e = open(&tmp_dir("whatif-cap"), false, |cfg| cfg.whatif_cap = 0);
        submits(&mut e, 1, "NODES=8 WALL=600");
        assert_eq!(ask(&mut e, "WHATIF 0"), "BUSY what-if capacity");
        assert_eq!(ask(&mut e, "PING"), "OK PONG");
        assert!(e.close().unwrap().sheds >= 1);
    }

    #[test]
    fn a_speculation_dropped_undelivered_frees_its_slot() {
        let mut e = open(&tmp_dir("whatif-drop"), false, |cfg| cfg.whatif_cap = 1);
        submits(&mut e, 1, "NODES=8 WALL=600");
        let held = step(&mut e, "WHATIF 0");
        assert!(matches!(held, Reply::Speculate(..)));
        assert_eq!(ask(&mut e, "WHATIF 0"), "BUSY what-if capacity");
        // The connection that asked went away before it read its reply.
        drop(held);
        assert_eq!(e.shared.whatif_active.load(Ordering::SeqCst), 0);
        assert_eq!(ask(&mut e, "WHATIF 0"), "OK START=0");
        assert_eq!(e.close().unwrap().sheds, 1);
    }

    #[test]
    fn connection_cap_sheds_with_busy() {
        let dir = tmp_dir("conn-cap");
        let (addr, handle) = spawn_daemon(&dir, false, |cfg| cfg.max_conns = 1);
        let mut first = Client::connect(addr);
        assert_eq!(first.ask("PING"), "OK PONG"); // registered for sure
        let mut second = Client::connect(addr);
        assert_eq!(second.read(), "BUSY connection limit");
        assert_eq!(first.ask("PING"), "OK PONG"); // daemon unbothered
        assert_eq!(first.ask("SHUTDOWN"), "OK BYE");
        assert_eq!(handle.join().unwrap().unwrap().sheds, 1);
        let events = read_flightrec(&dir.join("flightrec.jsonl")).unwrap();
        let limit = FlightKind::Shed {
            what: "connection-limit".to_string(),
        };
        assert!(events.iter().any(|e| e.kind == limit), "{events:?}");
    }

    #[test]
    fn behind_a_held_engine_the_request_over_the_cap_is_shed_alone() {
        let served = served("held-cap", |cfg| cfg.admission_cap = 2);
        thread::scope(|s| {
            let held = served.engine.lock().unwrap();
            let mut waiting = [connect(s, &served), connect(s, &served)];
            for (n, client) in waiting.iter_mut().enumerate() {
                client.send("PING");
                spin_until("admission", || {
                    served.admitted.load(Ordering::SeqCst) == n + 1
                });
            }
            let mut over = connect(s, &served);
            assert_eq!(over.ask("PING"), "BUSY admission queue full");
            drop(held);
            for client in &mut waiting {
                assert_eq!(client.read(), "OK PONG");
            }
            assert_eq!(over.ask("PING"), "OK PONG");
        });
        assert_eq!(served.shared.sheds.load(Ordering::SeqCst), 1);
        assert_eq!(admission_sheds(&served), 1);
    }

    #[test]
    fn a_full_admission_queue_under_repl_tail_leaves_a_shed_line() {
        let served = served("repl-shed", |cfg| cfg.admission_cap = 1);
        thread::scope(|s| {
            // One request waits for an engine the test holds: admission
            // is full.
            let held = served.engine.lock().unwrap();
            let mut waiting = connect(s, &served);
            waiting.send("PING");
            spin_until("admission", || served.admitted.load(Ordering::SeqCst) == 1);
            let mut client = connect(s, &served);
            for verb in ADMITTED_ALIKE {
                assert_eq!(client.ask(verb), "BUSY admission queue full", "{verb}");
            }
            drop(held);
            assert_eq!(waiting.read(), "OK PONG");
        });
        assert_eq!(served.shared.sheds.load(Ordering::SeqCst), 3);
        assert_eq!(admission_sheds(&served), 3);
    }

    #[test]
    fn a_closed_engine_is_shutdown_not_overload() {
        let served = served("repl-gone", |cfg| cfg.flightrec = 8);
        let engine = served.engine.lock().unwrap().take().unwrap();
        engine.close().unwrap();
        let flight = served.shared.flight.totals();
        for verb in ADMITTED_ALIKE {
            with_connection(&served, |client| {
                assert_eq!(client.ask(verb), "ERR server shutting down", "{verb}");
                assert!(client.was_closed()); // nothing can serve it any more
            });
        }
        assert_eq!(served.shared.sheds.load(Ordering::SeqCst), 0);
        assert_eq!(served.shared.flight.totals(), flight);
    }

    #[test]
    fn a_silent_client_is_culled_at_the_read_deadline() {
        let quick = |cfg: &mut ServeConfig| cfg.read_timeout = Duration::from_millis(50);
        with_connection(&served("idle", quick), |client| {
            assert_eq!(client.read(), "ERR idle timeout");
            assert!(client.was_closed());
        });
    }

    #[test]
    fn requests_admitted_before_shutdown_are_answered_later_ones_refused() {
        let served = served("shutdown-drain", |_| {});
        thread::scope(|s| {
            let held = served.engine.lock().unwrap();
            let mut bye = connect(s, &served);
            bye.send("SHUTDOWN");
            spin_until("admission", || served.admitted.load(Ordering::SeqCst) == 1);
            let mut waiting = connect(s, &served);
            waiting.send("SUBMIT NODES=8 WALL=600 USER=1");
            spin_until("admission", || served.admitted.load(Ordering::SeqCst) == 2);
            let ticker = s.spawn(|| tick_until_closed(&served));
            drop(held);
            // In whichever order the three take the lock, both requests
            // were admitted before the ticker closed: both are answered.
            assert_eq!(bye.read(), "OK BYE");
            assert_eq!(waiting.read(), "OK ID=0");
            assert_eq!(ticker.join().unwrap().unwrap().commands_applied, 1);
            let mut late = connect(s, &served);
            assert_eq!(late.ask("PING"), "ERR server shutting down");
            assert!(late.was_closed());
        });
        assert!(served.engine.lock().unwrap().is_none());
    }

    #[test]
    fn concurrent_clients_serialize_in_wal_order() {
        let dir = tmp_dir("concurrent");
        let (addr, handle) = spawn_daemon(&dir, false, |cfg| {
            cfg.snapshot_every = u64::MAX; // recovery replays every record
        });
        let start = Barrier::new(4);
        thread::scope(|s| {
            for client in 0..4u64 {
                let start = &start;
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    start.wait();
                    for i in 0..25 {
                        let submit = format!("SUBMIT NODES=16 WALL=1800 RUN=900 USER={client}");
                        assert!(c.ask(&submit).starts_with("OK ID="));
                        assert!(c.ask("ADVANCE 60").starts_with("OK T="));
                        let other = (client * 25 + i) / 2;
                        let cancel = c.ask(&format!("CANCEL {other}"));
                        assert!(cancel.starts_with("OK") || cancel.starts_with("ERR job"));
                        let whatif = c.ask(&format!("WHATIF {other}"));
                        assert!(whatif.starts_with("OK ") || whatif == "ERR unknown job");
                    }
                });
            }
        });
        let mut c = Client::connect(addr);
        let hash = c.ask("HASH");
        assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
        handle.join().unwrap().unwrap();
        for (seq, path) in SnapshotStore::new(&dir, 8).list().unwrap() {
            if seq > 0 {
                std::fs::remove_file(path).unwrap();
            }
        }
        let (sched, _, replayed, _) = recover::<FlatCluster>(&dir, |_| {}).unwrap();
        assert!(replayed >= 200, "{replayed}"); // the SUBMITs and ADVANCEs
        let recovered = format!(
            "OK HASH={:016x} INDEX={} T={}",
            sched.state_hash(),
            sched.event_index(),
            sched.now().as_secs()
        );
        assert_eq!(hash, recovered);
    }

    #[test]
    fn a_panicking_step_panics_the_daemon_and_leaves_a_flight_tail() {
        let dir = tmp_dir("step-panic");
        let (addr, handle) = spawn_daemon(&dir, false, |cfg| cfg.flightrec = 64);
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("SUBMIT NODES=8 WALL=600 USER=1"), "OK ID=0");
        let fatal = format!("SUBMIT NODES=8 WALL=600 USER={PANIC_USER}");
        assert_eq!(c.ask(&fatal), "ERR server shutting down");
        assert!(handle.join().is_err(), "run_daemon re-raises the panic");
        let events = read_flightrec(&dir.join("flightrec.jsonl")).unwrap();
        let last = events.last().map(|e| &e.kind);
        assert!(
            matches!(last, Some(FlightKind::Panic { what }) if what.contains("injected step panic")),
            "{events:?}"
        );
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            FlightKind::Request { verb, seq: Some(0), .. } if verb == "SUBMIT"
        )));
    }

    #[test]
    fn framing_violation_closes_but_daemon_survives() {
        let dir = tmp_dir("framing");
        let (addr, handle) = spawn_daemon(&dir, false, |_| {});

        let mut garbage = Client::connect(addr);
        garbage.writer.write_all(b"not a frame at all\n").unwrap();
        let reply = garbage.read();
        assert!(reply.starts_with("ERR "), "unexpected: {reply}");
        assert!(garbage.was_closed());

        let mut oversized = Client::connect(addr);
        oversized.writer.write_all(b"999999:").unwrap();
        let reply = oversized.read();
        assert!(reply.contains("exceeds limit"), "unexpected: {reply}");

        let mut c = Client::connect(addr);
        assert_eq!(c.ask("PING"), "OK PONG");
        assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn recovery_replays_wal_into_identical_state() {
        let dir = tmp_dir("recover");

        // Segment 1: mutate state, record the reference replies, close.
        let mut e = open(&dir, false, |cfg| {
            cfg.snapshot_every = u64::MAX; // force recovery through the WAL
        });
        submits(&mut e, 5, "NODES=32 WALL=3600 RUN=1200");
        assert_eq!(ask(&mut e, "ADVANCE 1800"), "OK T=1800");
        assert_eq!(ask(&mut e, "CANCEL 4"), "OK CANCELED");
        assert_eq!(ask(&mut e, "ADVANCE 1800"), "OK T=3600");
        let reference = observe(&mut e, 5);
        e.close().unwrap();

        // Simulate a crash that predates the final snapshot: delete every
        // snapshot except genesis so recovery must earn its state from
        // the command WAL alone.
        let store = SnapshotStore::new(&dir, 8);
        for (idx, path) in store.list().unwrap() {
            if idx > 0 {
                std::fs::remove_file(path).unwrap();
            }
        }

        // Segment 2: resume and compare against the reference replies.
        let mut e = open(&dir, true, |_| {});
        assert_eq!(observe(&mut e, 5), reference);
        // The recovered daemon keeps serving: new work lands normally.
        submits(&mut e, 1, "NODES=8 WALL=600");
        e.close().unwrap();
    }

    #[test]
    fn stepped_crash_at_every_wal_boundary_recovers_to_the_reference() {
        // Forty commands, 24 jobs; the cancels meet queued, running and
        // finished jobs, so some are refused and leave no record.
        let script: Vec<String> = (0..40)
            .map(|i| match i % 5 {
                3 => format!("ADVANCE {}", 200 + 40 * i),
                4 => format!("CANCEL {}", i * 3 / 5 - 1),
                n => format!(
                    "SUBMIT NODES={} WALL=7200 RUN={} USER={n}",
                    16 << n,
                    1500 + 100 * i
                ),
            })
            .collect();
        let cadence = |cfg: &mut ServeConfig| cfg.snapshot_every = 4;

        let mut reference = open(&tmp_dir("crash-ref"), false, cadence);
        let replies: Vec<String> = script.iter().map(|l| ask(&mut reference, l)).collect();
        let observed = observe(&mut reference, 24);
        assert!(observed.iter().any(|reply| reply.starts_with("OK QUEUED")));
        assert!(replies.iter().any(|reply| reply.starts_with("ERR job")));

        for cut in 0..=script.len() {
            let dir = tmp_dir("crash-cut");
            let mut e = open(&dir, false, cadence);
            for (line, expect) in script[..cut].iter().zip(&replies) {
                assert_eq!(&ask(&mut e, line), expect, "before cut {cut}: {line}");
            }
            drop(e); // the crash: no drain, no final snapshot
            let mut e = open(&dir, true, cadence);
            for (line, expect) in script[cut..].iter().zip(&replies[cut..]) {
                assert_eq!(&ask(&mut e, line), expect, "after cut {cut}: {line}");
            }
            assert_eq!(observe(&mut e, 24), observed, "cut {cut}");
        }
    }

    #[test]
    fn fresh_start_refuses_dirty_state_dir() {
        let dir = tmp_dir("dirty");
        open(&dir, false, |_| {}).close().unwrap();
        match try_open(&dir, false, |_| {}) {
            Err(ServeError::Corrupt(msg)) => assert!(msg.contains("--resume")),
            other => panic!("expected refusal, got {:?}", other.map(drop)),
        }
    }

    #[test]
    fn drain_refuses_new_work_but_keeps_answering() {
        let mut e = open(&tmp_dir("drain"), false, |_| {});
        assert_eq!(ask(&mut e, "SUBMIT NODES=8 WALL=600 USER=1"), "OK ID=0");
        assert_eq!(ask(&mut e, "DRAIN"), "OK DRAINING");
        assert!(ask(&mut e, "SUBMIT NODES=8 WALL=600 USER=2").starts_with("ERR draining"));
        assert!(ask(&mut e, "STATUS 0").starts_with("OK ")); // reads still served
        assert_eq!(ask(&mut e, "ADVANCE 60"), "OK T=60"); // time still moves
        assert_eq!(e.close().unwrap().commands_applied, 2); // drained SUBMIT not logged
    }

    #[test]
    fn stop_latch_triggers_graceful_shutdown() {
        // Exercises the same path a SIGTERM takes (the signal handler
        // just flips a flag the ticker polls), but through the
        // per-daemon latch so parallel tests in this process are not
        // taken down with it.
        let dir = tmp_dir("sigterm");
        let latch = Arc::new(AtomicBool::new(false));
        let hook = latch.clone();
        let (addr, handle) = spawn_daemon(&dir, false, move |cfg| cfg.stop = Some(hook));
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("SUBMIT NODES=8 WALL=600 USER=1"), "OK ID=0");
        latch.store(true, Ordering::SeqCst);
        let report = handle.join().unwrap().unwrap();
        assert!(report.snapshots_written >= 1); // final snapshot landed
        let plat = snapshot_platform(&dir).unwrap();
        assert_eq!(plat, "flat");
    }

    // ----- replication -----

    #[test]
    fn snapshot_transfer_matches_live_state() {
        let dir = tmp_dir("repl-snap");
        let (addr, handle) = spawn_daemon(&dir, false, |_| {});
        let mut c = Client::connect(addr);
        assert_eq!(c.ask("SUBMIT NODES=16 WALL=1800 USER=1"), "OK ID=0");
        assert_eq!(c.ask("ADVANCE 120"), "OK T=120");
        let hash_reply = c.ask("HASH");

        let boot = fetch_snapshot(&addr.to_string(), Duration::from_secs(5)).unwrap();
        assert_eq!(boot.seq, 2);
        assert_eq!(boot.epoch, 0);
        let sched = LiveScheduler::<FlatCluster>::decode(&boot.payload).unwrap();
        assert_eq!(sched.fingerprint(), boot.fingerprint);
        let expect = format!(
            "OK HASH={:016x} INDEX={} T={}",
            sched.state_hash(),
            sched.event_index(),
            sched.now().as_secs()
        );
        assert_eq!(hash_reply, expect);

        assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stepped_follower_mirrors_promotes_and_fences() {
        let (dir_p, dir_f) = (tmp_dir("step-prim"), tmp_dir("step-foll"));
        let mut p = open(&dir_p, false, |cfg| cfg.snapshot_every = u64::MAX);
        submits(&mut p, 6, "NODES=16 WALL=3600 RUN=1800");
        assert_eq!(ask(&mut p, "ADVANCE 600"), "OK T=600");

        // Bootstrap moves state, not records. Then the handshake — the
        // fencing point — refuses a foreign world, a stale epoch, a tail
        // from the future and a follower, before it accepts ours.
        let mut f = bootstrap(&mut p, &dir_f);
        let fp = f.sched.fingerprint();
        for ((seq, epoch, fp), refusal) in [
            ((7, 0, 0), "ERR FENCED: fingerprint 0000000000000000 does"),
            ((7, 3, fp), "ERR FENCED: stale epoch 3 (current epoch 0)"),
            ((8, 0, fp), "ERR tail seq 8 is ahead of the wal head 7"),
        ] {
            let handshake = format!("REPL TAIL SEQ={seq} EPOCH={epoch} FP={fp:016x}");
            let reply = ask(&mut p, &handshake);
            assert!(reply.starts_with(refusal), "{reply}");
        }
        let ours = hello(&f);
        assert!(ask(&mut f, &ours).starts_with("ERR cannot tail a follower"));
        assert!(ask(&mut f, "REPL SNAPSHOT").starts_with("ERR follower cannot serve"));
        let link = link(&mut p, &f);
        assert_eq!(ask(&mut p, "ROLE"), "OK ROLE=primary EPOCH=0 FOLLOWERS=1");

        // Two records over the link. Job 4 is queued on both sides, so
        // the follower's what-if forks the follower's own state.
        assert_eq!(ask(&mut p, "CANCEL 5"), "OK CANCELED");
        assert_eq!(ask(&mut p, "ADVANCE 600"), "OK T=1200");
        pump(link.try_iter(), &mut f);
        let reference = observe(&mut p, 6);
        assert_eq!(observe(&mut f, 6), reference);
        assert!(reference.contains(&"OK START=1800".to_string()));
        let role = ask(&mut f, "ROLE");
        assert_eq!(role, "OK ROLE=follower EPOCH=0 PRIMARY=primary:0 LAG=0");
        let refused = ask(&mut f, "SUBMIT NODES=1 WALL=60 USER=9");
        assert!(
            refused.starts_with("ERR follower is read-only"),
            "{refused}"
        );
        assert!(!snapshot_seqs(&dir_f).contains(&9));

        // The primary dies — dropped, not closed — and the lease runs
        // out: the follower steps up into a new epoch, the promotion
        // snapshot on disk before the epoch's first write is served.
        drop((p, link));
        f.follow(FollowEvent::PrimaryLost);
        assert_eq!(ask(&mut f, "ROLE"), "OK ROLE=primary EPOCH=1 FOLLOWERS=0");
        assert!(snapshot_seqs(&dir_f).contains(&9));
        assert_eq!(observe(&mut f, 6), reference);
        assert_eq!(ask(&mut f, "SUBMIT NODES=1 WALL=60 USER=9"), "OK ID=6");

        // The ex-primary comes back from its own directory and asks to
        // follow from its old epoch: fenced at the handshake, and the
        // refusal `follow_loop` forwards is what ends it.
        let mut stale = open(&dir_p, true, following("primary:0", 3000, None));
        assert_eq!(observe(&mut stale, 6), reference);
        let refusal = ask(&mut f, &hello(&stale));
        assert!(
            refusal.starts_with("ERR FENCED: stale epoch 0"),
            "{refusal}"
        );
        stale.follow(FollowEvent::Fatal(refusal[4..].to_string()));
        match stale.close() {
            Err(ServeError::Repl(msg)) => assert!(msg.contains("stale epoch 0"), "{msg}"),
            other => panic!("expected fencing, got {other:?}"),
        }

        let report = f.close().unwrap();
        let counts = (report.promotions, report.final_epoch, report.replicated);
        assert_eq!((counts, report.commands_applied), ((1, 1, 2), 1));
    }

    #[test]
    fn follower_mirrors_promotes_and_fences_the_stale_primary() {
        let (dir_p, dir_f) = (tmp_dir("repl-prim"), tmp_dir("repl-foll"));
        let latch = Arc::new(AtomicBool::new(false));
        let hook = latch.clone();
        let (p_addr, p_handle) = spawn_daemon(&dir_p, false, move |cfg| {
            cfg.stop = Some(hook);
            cfg.snapshot_every = u64::MAX;
        });
        let mut c = Client::connect(p_addr);
        for u in 0..6 {
            let submit = format!("SUBMIT NODES=16 WALL=3600 RUN=900 USER={u}");
            assert!(c.ask(&submit).starts_with("OK ID="));
        }
        assert_eq!(c.ask("ADVANCE 600"), "OK T=600");

        let (f_addr, f_handle) = spawn_daemon(&dir_f, false, |cfg| {
            following(p_addr, 800, None)(cfg);
            cfg.repl_heartbeat = Duration::from_millis(100);
        });

        // Keep mutating after the follower bootstrapped: the tail
        // stream, not just the snapshot, must carry these.
        assert_eq!(c.ask("CANCEL 5"), "OK CANCELED");
        assert_eq!(c.ask("ADVANCE 600"), "OK T=1200");
        let observe = |c: &mut Client| -> Vec<String> {
            let statuses = (0..6).map(|i| format!("STATUS {i}"));
            let probes = ["HASH", "STATS"].map(String::from).into_iter();
            probes.chain(statuses).map(|probe| c.ask(&probe)).collect()
        };
        let reference = observe(&mut c);

        // Replication is asynchronous with respect to the primary's ACK:
        // wait for convergence before comparing or killing anything.
        let mut f = Client::connect(f_addr);
        wait_until("follower catch-up", Duration::from_secs(10), || {
            f.ask("HASH") == reference[0]
        });
        assert_eq!(observe(&mut f), reference);
        let role = f.ask("ROLE");
        assert!(role.starts_with("OK ROLE=follower EPOCH=0"), "{role}");
        let refused = f.ask("SUBMIT NODES=1 WALL=60 USER=9");
        assert!(
            refused.starts_with("ERR follower is read-only"),
            "{refused}"
        );
        // Tail registration is asynchronous too: the follower can
        // converge via the bootstrap snapshot alone before its TAIL
        // stream registers on the primary, so poll rather than assert.
        wait_until("follower registration", Duration::from_secs(10), || {
            c.ask("ROLE") == "OK ROLE=primary EPOCH=0 FOLLOWERS=1"
        });
        // One more record, certainly past the bootstrap snapshot: the
        // follower's log now ends at seq 10 and it holds no snapshot
        // there.
        assert_eq!(c.ask("ADVANCE 60"), "OK T=1260");
        let reference = observe(&mut c);
        wait_until("follower catch-up", Duration::from_secs(10), || {
            f.ask("HASH") == reference[0]
        });
        assert!(!snapshot_seqs(&dir_f).contains(&10));

        // Primary dies; the lease expires; the follower steps up into a
        // new epoch with state byte-identical to the reference, the
        // promotion snapshot on disk before the epoch's first write.
        latch.store(true, Ordering::SeqCst);
        p_handle.join().unwrap().unwrap();
        wait_until("promotion", Duration::from_secs(10), || {
            f.ask("ROLE").starts_with("OK ROLE=primary")
        });
        assert_eq!(f.ask("ROLE"), "OK ROLE=primary EPOCH=1 FOLLOWERS=0");
        assert!(snapshot_seqs(&dir_f).contains(&10));
        assert_eq!(observe(&mut f), reference);
        assert_eq!(f.ask("SUBMIT NODES=1 WALL=60 USER=9"), "OK ID=6");

        // The stale ex-primary comes back and asks to follow the new
        // primary from its old epoch: fenced at the handshake, clean
        // diagnostic, no records moved.
        let (_, stale_handle) = spawn_daemon(&dir_p, true, following(f_addr, 800, None));
        match stale_handle.join().unwrap() {
            Err(ServeError::Repl(msg)) => {
                assert!(msg.contains("FENCED"), "{msg}");
                assert!(msg.contains("stale epoch 0"), "{msg}");
            }
            other => panic!("expected fencing, got {other:?}"),
        }

        assert_eq!(f.ask("SHUTDOWN"), "OK BYE");
        let report = f_handle.join().unwrap().unwrap();
        assert_eq!((report.promotions, report.final_epoch), (1, 1));
        // Bootstrap moves *state*, not records, so only mutations issued
        // after the snapshot arrive over the stream (CANCEL and the two
        // ADVANCEs, fewer if the bootstrap raced past the first two);
        // the stepped twin of this test counts them exactly.
        let replicated = report.replicated;
        assert!((1..=3).contains(&replicated), "replicated {replicated}");
        assert_eq!(report.commands_applied, 1); // post-promotion SUBMIT
    }

    #[test]
    fn injected_divergence_is_reported_at_its_sequence() {
        let mut p = open(&tmp_dir("div-prim"), false, |_| {});
        let mut f = bootstrap(&mut p, &tmp_dir("div-foll"));
        let link = link(&mut p, &f);
        submits(&mut p, 4, "NODES=8 WALL=600");
        // The link, not the primary, lies: seq 2 arrives with a forged hash.
        let forged = link
            .try_iter()
            .map(|frame| forge(frame, 2, |r| r.state_hash ^= 0xDEAD_BEEF));
        pump(forged, &mut f);
        match f.close() {
            Err(ServeError::Repl(msg)) => {
                assert!(msg.contains("divergence at wal seq 2"), "{msg}");
            }
            other => panic!("expected divergence detection, got {other:?}"),
        }
        p.close().unwrap();
    }

    #[test]
    fn stepped_stream_guards_refuse_a_duplicate_a_skip_and_a_foreign_epoch() {
        // Records 0 and 1 arrive as sent; the third is the fault.
        type Fault = fn(&[String]) -> String;
        let cases: [(&str, Fault, &str); 3] = [
            (
                "dup",
                |sent| sent[1].clone(),
                "replication sequence gap: expected 2, got 1",
            ),
            (
                "skip",
                |sent| sent[3].clone(),
                "replication sequence gap: expected 2, got 3",
            ),
            (
                "epoch",
                |sent| forge(sent[2].clone(), 2, |r| r.epoch = 1),
                "fenced record: epoch 1 vs local epoch 0 at seq 2",
            ),
        ];
        for (tag, fault, refusal) in cases {
            let dir_f = tmp_dir(&format!("guard-{tag}-foll"));
            let mut p = open(&tmp_dir(&format!("guard-{tag}-prim")), false, |_| {});
            let mut f = bootstrap(&mut p, &dir_f);
            let link = link(&mut p, &f);
            submits(&mut p, 4, "NODES=8 WALL=600");
            let sent: Vec<String> = link.try_iter().collect();
            pump([sent[0].clone(), sent[1].clone(), fault(&sent)], &mut f);
            match f.close() {
                Err(ServeError::Repl(msg)) => assert!(msg.contains(refusal), "{tag}: {msg}"),
                other => panic!("{tag}: expected {refusal:?}, got {other:?}"),
            }
            let logged = read_wal(&wal_path(&dir_f), None).unwrap().records;
            let seqs: Vec<u64> = logged.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, [0, 1], "{tag}: the log ends before the fault");
            p.close().unwrap();
        }
    }

    /// A test-side link from a follower to the primary at `upstream`:
    /// each accepted connection forwards the follower's first frame up
    /// and relays the primary's frames down. On a tail stream every
    /// frame meets a seeded fate — both sockets cut (10 %), an `R …`
    /// frame dropped (25 %), or delivered.
    fn lossy_relay(upstream: SocketAddr, seed: u64) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for (conn, down) in listener.incoming().enumerate() {
                let salt = (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut fate = Xoshiro256::seed_from_u64(seed ^ salt);
                let (Ok(mut down), Ok(mut up)) = (down, TcpStream::connect(upstream)) else {
                    continue;
                };
                // Returning closes both sockets: that is the cut.
                thread::spawn(move || {
                    let mut from_follower = BufReader::new(down.try_clone().unwrap());
                    let mut from_primary = BufReader::new(up.try_clone().unwrap());
                    let Ok(hello) = read_frame(&mut from_follower) else {
                        return;
                    };
                    let lossy = hello.starts_with(b"REPL TAIL");
                    if write_frame(&mut up, &hello).is_err() {
                        return;
                    }
                    while let Ok(frame) = read_frame(&mut from_primary) {
                        if lossy && fate.next_bool(0.10) {
                            return;
                        }
                        if lossy && frame.starts_with(b"R ") && fate.next_bool(0.25) {
                            continue;
                        }
                        if write_frame(&mut down, &frame).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn lossy_link_heals_and_converges() {
        let dir_p = tmp_dir("lossy-prim");
        let dir_f = tmp_dir("lossy-foll");
        let (p_addr, p_handle) = spawn_daemon(&dir_p, false, |cfg| {
            cfg.repl_heartbeat = Duration::from_millis(50);
        });
        // The follower bootstraps and tails through the relay.
        let relay = lossy_relay(p_addr, 42);
        let (f_addr, f_handle) = spawn_daemon(&dir_f, false, following(relay, 5000, None));
        let mut c = Client::connect(p_addr);
        for u in 0..24 {
            assert!(c
                .ask(&format!("SUBMIT NODES=4 WALL=1200 RUN=300 USER={u}"))
                .starts_with("OK ID="));
            if u % 6 == 0 {
                c.ask("ADVANCE 300");
            }
        }
        let reference_hash = c.ask("HASH");
        // Dropped frames surface as sequence gaps; the follower heals by
        // re-tailing from its applied sequence, so it still converges.
        let mut f = Client::connect(f_addr);
        wait_until("lossy catch-up", Duration::from_secs(20), || {
            f.ask("HASH") == reference_hash
        });
        assert_eq!(f.ask("SHUTDOWN"), "OK BYE");
        f_handle.join().unwrap().unwrap();
        assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
        p_handle.join().unwrap().unwrap();
    }

    // ----- speculation under supervision, flight recorder -----

    /// A pending job's `WHATIF`, stopped where the connection thread
    /// takes over: the engine, the speculation and its slot.
    fn forked_whatif(
        tag: &str,
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> (
        Stepped,
        Box<dyn FnOnce() -> WhatIfAnswer + Send>,
        WhatIfSlot,
    ) {
        let mut e = open(&tmp_dir(tag), false, tweak);
        assert_eq!(ask(&mut e, "SUBMIT NODES=8 WALL=600 USER=1"), "OK ID=0");
        match step(&mut e, "WHATIF 0") {
            Reply::Speculate(speculate, slot) => (e, speculate, slot),
            _ => panic!("a pending job needs a fork"),
        }
    }

    #[test]
    fn whatif_panic_leaves_a_flightrec_tail_ending_at_the_command() {
        let (mut e, _, slot) = forked_whatif("flight-panic", |cfg| cfg.flightrec = 64);
        let hash_before = ask(&mut e, "HASH");
        // The engine forked; what runs on the attempt thread is ours.
        let chaos = Box::new(|| panic!("injected what-if panic (chaos)"));
        assert_eq!(
            supervise_whatif(&e.shared, chaos, slot, Instant::now()),
            "ERR what-if worker panicked (live state unaffected)"
        );
        assert_eq!(e.shared.whatif_panics.load(Ordering::SeqCst), 1);
        assert_eq!(e.shared.whatif_active.load(Ordering::SeqCst), 0);
        // The supervisor flushed before replying: the on-disk tail is
        // already complete, no shutdown needed to observe it.
        let events = read_flightrec(&e.shared.cfg.dir.join("flightrec.jsonl")).unwrap();
        let last_request = events
            .iter()
            .rev()
            .find_map(|e| match &e.kind {
                FlightKind::Request { verb, status, .. } => Some((verb.clone(), status.clone())),
                _ => None,
            })
            .expect("a request event");
        assert_eq!(last_request, ("WHATIF".to_string(), "ERR".to_string()));
        assert!(
            events.iter().any(
                |e| matches!(&e.kind, FlightKind::Panic { what } if what.contains("injected"))
            ),
            "panic event missing from {events:?}"
        );
        // The SUBMIT that preceded the panic is in the tail too, with
        // its WAL sequence.
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            FlightKind::Request { verb, seq: Some(0), .. } if verb == "SUBMIT"
        )));
        // Live state survived the worker panic.
        assert_eq!(ask(&mut e, "HASH"), hash_before);
        e.close().unwrap();
    }

    #[test]
    fn an_overrunning_speculation_is_abandoned_at_the_deadline() {
        let brief = |cfg: &mut ServeConfig| cfg.whatif_deadline = Duration::from_millis(20);
        let (mut e, speculate, slot) = forked_whatif("whatif-overrun", brief);
        let hash_before = ask(&mut e, "HASH");
        let (release, gate) = mpsc::channel::<()>();
        let stuck = Box::new(move || {
            let _ = gate.recv(); // until the test lets go
            speculate()
        });
        assert_eq!(
            supervise_whatif(&e.shared, stuck, slot, Instant::now()),
            "ERR what-if deadline exceeded"
        );
        assert_eq!(e.shared.whatif_timeouts.load(Ordering::SeqCst), 1);
        assert_eq!(e.shared.whatif_active.load(Ordering::SeqCst), 0);
        assert_eq!(ask(&mut e, "HASH"), hash_before);
        drop(release);
        e.close().unwrap();
    }

    #[test]
    fn disabled_recorder_is_byte_identical_and_writes_nothing() {
        let script = |dir: &Path, flightrec: usize| {
            let mut e = open(dir, false, |cfg| cfg.flightrec = flightrec);
            submits(&mut e, 5, "NODES=32 WALL=3600 RUN=1200");
            // At T=1800 jobs 0-1 are done, 2-3 are running, 4 is still
            // queued — and a queued job is cancelable.
            assert_eq!(ask(&mut e, "ADVANCE 1800"), "OK T=1800");
            assert_eq!(ask(&mut e, "CANCEL 4"), "OK CANCELED");
            assert_eq!(ask(&mut e, "ADVANCE 900"), "OK T=2700");
            let hash = ask(&mut e, "HASH");
            e.close().unwrap();
            hash
        };

        let dir_on = tmp_dir("flight-on");
        let hash_on = script(&dir_on, 128);
        assert!(dir_on.join("flightrec.jsonl").exists()); // flushed at close

        let dir_off = tmp_dir("flight-off");
        let hash_off = script(&dir_off, 0);
        assert!(!dir_off.join("flightrec.jsonl").exists()); // never writes

        // Identical command script => byte-identical scheduler state,
        // recorder on or off.
        assert_eq!(hash_on, hash_off);
    }

    // ----- durability-path errors -----

    /// Make `dir` read-only; returns false (test should skip) when the
    /// process can write anyway (running as root, e.g. in a container).
    fn make_read_only(dir: &Path) -> bool {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        match std::fs::File::create(dir.join(".probe")) {
            Ok(_) => {
                let _ = std::fs::remove_file(dir.join(".probe"));
                let _ = std::fs::set_permissions(dir, std::fs::Permissions::from_mode(0o755));
                false
            }
            Err(_) => true,
        }
    }

    fn restore_writable(dir: &Path) {
        use std::os::unix::fs::PermissionsExt;
        let _ = std::fs::set_permissions(dir, std::fs::Permissions::from_mode(0o755));
    }

    #[test]
    fn unwritable_state_dir_is_a_clean_startup_error() {
        let dir = tmp_dir("ro-start");
        if !make_read_only(&dir) {
            eprintln!("skipping: process writes through read-only permissions (root)");
            return;
        }
        // WAL creation fails before the daemon ever serves: clean Err,
        // no panic, no listener left half-alive.
        match try_open(&dir, false, |_| {}) {
            Err(ServeError::Io(_)) => {}
            other => panic!("expected io error, got {:?}", other.map(drop)),
        }
        restore_writable(&dir);
    }

    #[test]
    fn a_failed_wal_append_is_refused_not_acknowledged() {
        let dir = tmp_dir("wal-fail");
        let mut p = open(&dir, false, |_| {});
        let f = bootstrap(&mut p, &tmp_dir("wal-fail-foll"));
        let link = link(&mut p, &f);
        assert_eq!(ask(&mut p, "SUBMIT NODES=8 WALL=600 USER=1"), "OK ID=0");
        // The log stops taking bytes.
        p.wal = WalWriter::broken(&wal_path(&dir), 1);
        let reply = ask(&mut p, "SUBMIT NODES=8 WALL=600 USER=2");
        assert!(reply.starts_with("ERR durability failure"), "{reply}");
        // No ACK, no record for the follower, and the engine is stopping.
        assert_eq!(link.try_iter().count(), 1);
        assert_eq!((p.report.commands_applied, p.report.final_seq), (1, 1));
        assert!(matches!(p.fatal, Some(ServeError::Io(_))));
        assert!(matches!(p.close(), Err(ServeError::Io(_))));
    }

    /// Path of the `.tmp` the writer uses for the snapshot at `seq`.
    fn snapshot_tmp_path(dir: &Path, seq: u64) -> PathBuf {
        let mut name = SnapshotStore::new(dir, 1).path_for(seq).into_os_string();
        name.push(".tmp");
        PathBuf::from(name)
    }

    fn leftover_snapshot_tmps(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".snap.tmp"))
            .collect()
    }

    #[test]
    fn snapshot_rotation_failure_keeps_the_ack_and_shuts_down_cleanly() {
        let dir = tmp_dir("rotate-fail");
        let mut e = open(&dir, false, |cfg| cfg.snapshot_every = 2);
        assert_eq!(ask(&mut e, "SUBMIT NODES=8 WALL=600 USER=1"), "OK ID=0");
        // A directory squatting on the writer's temp path fails the
        // `File::create` of the seq-2 snapshot for any user, root too.
        let blocker = snapshot_tmp_path(&dir, 2);
        std::fs::create_dir(&blocker).unwrap();
        // The second accepted mutation hands off a rotation, which then
        // fails on the writer thread. The command itself IS durable (the
        // wal append preceded the handoff), so the ACK must stand — but
        // the failure must surface when the write is settled, as a clean
        // error, not a panic, and the final best-effort snapshot failing
        // too must not turn it into one.
        assert_eq!(ask(&mut e, "ADVANCE 60"), "OK T=60");
        match e.close() {
            Err(ServeError::Io(_)) => {}
            other => panic!("expected io error, got {other:?}"),
        }
        std::fs::remove_dir(&blocker).unwrap();

        // Both acknowledged commands survived in the WAL.
        let mut e = open(&dir, true, |_| {});
        assert!(ask(&mut e, "STATS").contains("T=60"));
        assert!(ask(&mut e, "STATUS 0").starts_with("OK "));
        e.close().unwrap();
    }

    // ----- pipelined rotation -----

    /// Six mutations at `snapshot_every = 2` — so the last one is a
    /// cadence point — with `HASH` and a clean close straight behind
    /// it. Returns the `HASH` reply and the engine's report.
    fn six_mutations_then_close(dir: &Path) -> (String, ServeReport) {
        let mut e = open(dir, false, |cfg| cfg.snapshot_every = 2);
        submits(&mut e, 5, "NODES=16 WALL=3600 RUN=1200");
        assert_eq!(ask(&mut e, "ADVANCE 1800"), "OK T=1800");
        (ask(&mut e, "HASH"), e.close().unwrap())
    }

    #[test]
    fn shutdown_behind_a_cadence_point_leaves_a_snapshot_at_next_seq() {
        let dir = tmp_dir("rotate-a");
        let (_, first) = six_mutations_then_close(&dir);
        let (_, second) = six_mutations_then_close(&tmp_dir("rotate-b"));
        // Three rotations and the final snapshot, run after run.
        assert_eq!(first.snapshots_written, 4);
        assert_eq!(second.snapshots_written, 4);

        // The rotation handed off by the last ACK and the final snapshot
        // both target `next_seq`; what is on disk under that name when
        // the daemon returns is whole (`amjs doctor` reads a newest
        // snapshot at `next_seq` as a clean shutdown).
        let store = SnapshotStore::new(&dir, 1);
        let (seq, payload, _) = store.load_latest(u64::MAX, |m| panic!("{m}")).unwrap();
        assert_eq!(seq, first.final_seq);
        assert_eq!(first.final_seq, 6);
        // Whole: the head decodes with the log it counts on, all of it.
        let (head, covered) = split_head(&payload).unwrap();
        let log = read_column_log(&column_log_path(&dir)).unwrap();
        assert_eq!(
            (covered, log.boundaries().last()),
            (log.bytes(), Some(covered))
        );
        LiveScheduler::<FlatCluster>::decode_parts(head, &log.covered_by(covered).unwrap())
            .unwrap();
        assert_eq!(leftover_snapshot_tmps(&dir), Vec::<String>::new());
    }

    #[test]
    fn a_kill_mid_snapshot_write_recovers_from_the_snapshot_before() {
        // What a SIGKILL between the writer's `File::create` and its
        // `rename` leaves: the newest snapshot never got its name, and
        // half of it — or, killed after the sync, all of it — sits in
        // the `.tmp`.
        for (tag, written) in [("kill-half", 0.5), ("kill-whole", 1.0)] {
            let dir = tmp_dir(tag);
            let (reference_hash, _) = six_mutations_then_close(&dir);
            let store = SnapshotStore::new(&dir, 1);
            let (newest, path) = store.list().unwrap().pop().unwrap();
            assert_eq!(newest, 6);
            let raw = std::fs::read(&path).unwrap();
            let cut = (raw.len() as f64 * written) as usize;
            std::fs::write(snapshot_tmp_path(&dir, newest), &raw[..cut]).unwrap();
            std::fs::remove_file(&path).unwrap();

            // Snapshot 4 + the two-record WAL tail.
            let mut e = open(&dir, true, |_| {});
            assert_eq!(ask(&mut e, "HASH"), reference_hash, "{tag}");
            assert_eq!(e.close().unwrap().final_seq, 6);
            // The resumed daemon's final snapshot swept the stale `.tmp`.
            assert_eq!(leftover_snapshot_tmps(&dir), Vec::<String>::new());
        }
    }

    // ----- the crash windows the column log opens -----

    /// Twelve mutations at `snapshot_every = 4`, then a crash: heads 0,
    /// 4, 8 and 12 on disk, one frame in the log for each. Returns what
    /// the dead daemon would have answered.
    fn crashed_after_three_rotations(dir: &Path) -> Vec<String> {
        let mut e = open(dir, false, |cfg| cfg.snapshot_every = 4);
        for round in 0..3 {
            submits(&mut e, 3, "NODES=16 WALL=3600 RUN=900");
            assert!(ask(&mut e, &format!("ADVANCE {}", 400 + round)).starts_with("OK T="));
        }
        let reference = observe(&mut e, 9);
        drop(e); // a dropped engine's writer finishes what it was handed
        assert_eq!(snapshot_seqs(dir), [0, 4, 8, 12]);
        reference
    }

    /// `recover` on `dir`: the snapshot recovered from, the records
    /// replayed on top, and every diagnostic line.
    fn recovery_of(dir: &Path) -> (u64, u64, Vec<String>) {
        let mut diags = Vec::new();
        let (_, wal, replayed, _) =
            recover::<FlatCluster>(dir, |m| diags.push(m.to_string())).unwrap();
        (wal.next_seq() - replayed, replayed, diags)
    }

    /// The resumed daemon answers as the dead one did, keeps rotating on
    /// the log recovery cut back, and comes back from *that* as well.
    fn resumes_to(dir: &Path, reference: &[String]) {
        let mut e = open(dir, true, |cfg| cfg.snapshot_every = 4);
        assert_eq!(observe(&mut e, 9), reference);
        submits(&mut e, 5, "NODES=16 WALL=3600 RUN=900");
        let extended = observe(&mut e, 14);
        drop(e);
        let (from, replayed, diags) = recovery_of(dir);
        assert_eq!((from, replayed), (16, 1), "{diags:?}");
        let mut e = open(dir, true, |_| {});
        assert_eq!(observe(&mut e, 14), extended);
        e.close().unwrap();
    }

    #[test]
    fn a_frame_whose_head_never_landed_is_dropped_with_a_diagnostic() {
        // Killed between the log append and the head's rename — or,
        // with the log torn as well, inside the append itself.
        for (tag, torn) in [("log-headless", 0), ("log-torn", 5)] {
            let dir = tmp_dir(tag);
            let reference = crashed_after_three_rotations(&dir);
            std::fs::remove_file(SnapshotStore::new(&dir, 1).path_for(12)).unwrap();
            let log_path = column_log_path(&dir);
            let whole = std::fs::metadata(&log_path).unwrap().len();
            let log = OpenOptions::new().write(true).open(&log_path).unwrap();
            log.set_len(whole - torn).unwrap();

            let (from, replayed, diags) = recovery_of(&dir);
            assert_eq!((from, replayed), (8, 4), "{tag}: {diags:?}");
            let dropped = "of column log past the recovered snapshot";
            assert!(diags.iter().any(|d| d.contains(dropped)), "{diags:?}");
            assert!(!diags.iter().any(|d| d.contains("rejecting")), "{diags:?}");
            let cut = std::fs::metadata(&log_path).unwrap().len();
            assert!(
                cut < whole - torn,
                "recovery cut the log back to head 8's prefix"
            );
            resumes_to(&dir, &reference);
        }
    }

    #[test]
    fn a_head_whose_log_prefix_is_damaged_falls_back_to_the_head_before() {
        // (frame damaged, how, snapshot recovered from): the newest
        // head's own frame truncated or bit-flipped costs that head; a
        // flip in head 4's frame costs every head that counts on it.
        for (tag, frame, flip, survivor) in [
            ("log-cut", 4, false, 8),
            ("log-flip", 4, true, 8),
            ("log-flip-early", 2, true, 0),
        ] {
            let dir = tmp_dir(tag);
            let reference = crashed_after_three_rotations(&dir);
            let log_path = column_log_path(&dir);
            // The header's end, then one frame's for each of the four heads.
            let ends: Vec<u64> = read_column_log(&log_path).unwrap().boundaries().collect();
            assert_eq!(ends.len(), 5);
            let mut raw = std::fs::read(&log_path).unwrap();
            if flip {
                raw[ends[frame] as usize - 12] ^= 0x10; // in the frame's body
            } else {
                raw.truncate(ends[frame] as usize - 5);
            }
            std::fs::write(&log_path, &raw).unwrap();

            let (from, replayed, diags) = recovery_of(&dir);
            assert_eq!(
                (from, replayed),
                (survivor, 12 - survivor),
                "{tag}: {diags:?}"
            );
            let rejected = diags.iter().filter(|d| d.starts_with("rejecting snapshot"));
            let counted_on = "bytes of column log, which is intact for";
            assert!(
                rejected.clone().all(|d| d.contains(counted_on)),
                "{diags:?}"
            );
            assert_eq!(rejected.count() as u64, (12 - survivor) / 4, "{diags:?}");
            assert!(
                diags.iter().any(|d| d.starts_with("falling back")),
                "{diags:?}"
            );
            resumes_to(&dir, &reference);
        }
    }

    #[test]
    fn a_bootstrapped_follower_rotates_deltas_and_resumes_from_them() {
        let (dir_p, dir_f) = (tmp_dir("delta-prim"), tmp_dir("delta-foll"));
        let mut p = open(&dir_p, false, |_| {});
        submits(&mut p, 6, "NODES=16 WALL=3600 RUN=900");
        assert_eq!(ask(&mut p, "ADVANCE 600"), "OK T=600");

        // The bootstrap is one full payload; from there on the follower
        // writes its own log, a frame every fourth mirrored record.
        let Reply::Snapshot(boot) = step(&mut p, "REPL SNAPSHOT") else {
            panic!("a primary serves snapshots");
        };
        let cadence = |boot| {
            move |cfg: &mut ServeConfig| {
                following("primary:0", 3000, boot)(cfg);
                cfg.snapshot_every = 4;
            }
        };
        let mut f = open(&dir_f, false, cadence(Some(boot)));
        let link = link(&mut p, &f);
        for i in 0..200 {
            let line = match i % 4 {
                3 => "ADVANCE 300".to_string(),
                n => format!("SUBMIT NODES=8 WALL=1800 RUN=600 USER={n}"),
            };
            assert!(ask(&mut p, &line).starts_with("OK "), "{line}");
        }
        pump(link.try_iter(), &mut f);
        let reference = observe(&mut p, 156);
        assert_eq!(observe(&mut f, 156), reference);
        assert_eq!(f.report.replicated, 200);
        assert_eq!(f.report.snapshots_written, 50);

        // Killed, and resumed from the last head + its log prefix with
        // nothing left to replay.
        drop((f, link));
        let (from, replayed, diags) = recovery_of(&dir_f);
        assert_eq!((from, replayed), (207, 0), "{diags:?}");
        let mut f = open(&dir_f, true, cadence(None));
        assert_eq!(observe(&mut f, 156), reference);
        assert_eq!(
            ask(&mut f, "ROLE"),
            "OK ROLE=follower EPOCH=0 PRIMARY=primary:0 LAG=0"
        );
        f.close().unwrap();
        p.close().unwrap();
    }

    #[test]
    fn what_a_rotation_hands_the_writer_does_not_grow_with_the_script() {
        // 4 000 mutations at the default cadence, in a steady state: the
        // machine keeps up with three submissions every two minutes.
        let mut e = open(&tmp_dir("size-gate"), false, |_| {});
        let mut handed = Vec::new();
        for i in 0..4000 {
            let line = match i % 4 {
                3 => "ADVANCE 120".to_string(),
                n => format!("SUBMIT NODES=8 WALL=600 RUN=240 USER={n}"),
            };
            assert!(ask(&mut e, &line).starts_with("OK "), "{line}");
            if (i + 1) % 64 == 0 {
                handed.push(e.snapshot_bytes);
            }
        }
        assert_eq!((handed.len() as u64, e.report.snapshots_written), (62, 62));
        let (fourth, last) = (handed[3], handed[61]);
        // The gate a growing field in the head trips: 16 B a job would
        // be 48 KB by the last rotation.
        assert!(
            last <= 2 * fourth,
            "{fourth} B at rotation 4, {last} B at 62"
        );
        assert!(last < 64 << 10, "{last} B");
        e.close().unwrap();
    }
}
