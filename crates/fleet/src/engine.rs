//! The supervised work-stealing execution engine.
//!
//! A fixed pool of supervisor workers (`std::thread::scope`) pulls grid
//! points from one shared injector queue — an idle worker always steals
//! the next pending run, so the schedule load-balances regardless of
//! per-run cost. Each run is executed once, under supervision:
//!
//! * a panic is caught (`catch_unwind`) and recorded as `failed`, with
//!   the panic message;
//! * with a deadline configured, the run executes on a dedicated thread
//!   the supervisor waits on with a timeout; an overrunning run is
//!   abandoned (std threads cannot be force-killed — the stray thread
//!   is detached and its eventual result discarded) and recorded as
//!   `timeout`.
//!
//! A degraded run does not stop the sweep, and it is not retried in
//! process: a grid point is a pure function of its spec, so a second
//! attempt would only repeat the first. `amjs sweep --resume` runs it
//! again, for the one case where that can help (a transient failure
//! outside the simulation, such as an unreadable trace file).
//!
//! Results are journaled through the optional [`SweepStore`] the moment
//! they complete, so a crash loses at most the runs in flight.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use amjs_core::RunSpec;
use amjs_sim::snapshot::{Fnv1a, SnapError, SnapReader, SnapWriter};

use crate::digest::RunDigest;
use crate::store::SweepStore;

/// How a sweep executes one grid point.
pub type Exec = Arc<dyn Fn(&RunSpec) -> RunDigest + Send + Sync + 'static>;

/// The production executor: run the simulation, distill the digest.
pub fn default_exec() -> Exec {
    Arc::new(|spec| RunDigest::from_outcome(&spec.execute()))
}

/// Final disposition of one grid point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Completed with a digest.
    Ok,
    /// Overran the deadline and was abandoned; no result.
    Timeout,
    /// Panicked; no result.
    Failed,
}

impl RunStatus {
    /// The CSV status-column spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Timeout => "timeout",
            RunStatus::Failed => "failed",
        }
    }

    /// Whether the run produced a digest.
    pub fn succeeded(&self) -> bool {
        *self == RunStatus::Ok
    }

    fn to_tag(self) -> u8 {
        match self {
            RunStatus::Ok => 0,
            RunStatus::Timeout => 1,
            RunStatus::Failed => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapError> {
        Ok(match tag {
            0 => RunStatus::Ok,
            1 => RunStatus::Timeout,
            2 => RunStatus::Failed,
            other => {
                return Err(SnapError::UnsupportedVersion {
                    found: other as u32,
                    supported: 2,
                })
            }
        })
    }
}

/// The journaled record of one completed (or degraded) grid point.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The grid point's key.
    pub key: String,
    /// Final disposition.
    pub status: RunStatus,
    /// Wall-clock milliseconds of the run.
    pub wall_ms: u64,
    /// The result (`None` for `timeout`/`failed`).
    pub digest: Option<RunDigest>,
    /// Why the run failed, for `timeout`/`failed`.
    pub error: Option<String>,
}

impl RunRecord {
    /// Append the record's encoding to a snapshot writer.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.put_str(&self.key);
        w.put_u8(self.status.to_tag());
        w.put_u64(self.wall_ms);
        match &self.digest {
            None => w.put_u8(0),
            Some(d) => {
                w.put_u8(1);
                d.encode(w);
            }
        }
        match &self.error {
            None => w.put_u8(0),
            Some(e) => {
                w.put_u8(1);
                w.put_str(e);
            }
        }
    }

    /// Decode one record (inverse of [`RunRecord::encode`]).
    pub fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let key = r.get_str()?;
        let status = RunStatus::from_tag(r.get_u8()?)?;
        let wall_ms = r.get_u64()?;
        let digest = match r.get_u8()? {
            0 => None,
            _ => Some(RunDigest::decode(r)?),
        };
        let error = match r.get_u8()? {
            0 => None,
            _ => Some(r.get_str()?),
        };
        Ok(RunRecord {
            key,
            status,
            wall_ms,
            digest,
            error,
        })
    }
}

/// Sweep-level error: invalid configuration or grid, or a broken store.
#[derive(Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The parameter grid expanded to zero runs.
    EmptyGrid,
    /// Two *different* grid points share a key.
    DuplicateKey(String),
    /// `--jobs 0`: a sweep needs at least one worker.
    ZeroWorkers,
    /// The sweep store (manifest/journal) failed or does not match.
    Store(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::EmptyGrid => {
                write!(f, "the parameter grid is empty: nothing to sweep")
            }
            FleetError::DuplicateKey(key) => write!(
                f,
                "two different grid points share the key {key:?}; keys must be unique"
            ),
            FleetError::ZeroWorkers => write!(f, "--jobs must be at least 1"),
            FleetError::Store(msg) => write!(f, "sweep store: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Sweep execution configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker (supervisor) thread count.
    pub workers: usize,
    /// Per-run wall-clock deadline (`None` = unbounded).
    pub run_timeout: Option<Duration>,
    /// Record failed runs and exit cleanly instead of reporting an
    /// error exit.
    pub keep_going: bool,
    /// Progress-line cadence on stderr (`None` = silent).
    pub heartbeat: Option<Duration>,
    /// Stop dispatching new runs after this many completions *in this
    /// invocation* (testing/ops aid: simulates a partial sweep that a
    /// later `--resume` finishes).
    pub stop_after: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            run_timeout: None,
            keep_going: true,
            heartbeat: None,
            stop_after: None,
        }
    }
}

impl FleetConfig {
    /// Reject configurations that could never run a sweep sensibly.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.workers == 0 {
            return Err(FleetError::ZeroWorkers);
        }
        Ok(())
    }
}

/// Validate a grid: reject an empty grid and conflicting keys, and drop
/// exact duplicate grid points (same full fingerprint), returning the
/// deduplicated grid plus one warning line per dropped duplicate.
pub fn validate_grid(specs: Vec<RunSpec>) -> Result<(Vec<RunSpec>, Vec<String>), FleetError> {
    if specs.is_empty() {
        return Err(FleetError::EmptyGrid);
    }
    let mut seen: Vec<(u64, String)> = Vec::with_capacity(specs.len());
    let mut out = Vec::with_capacity(specs.len());
    let mut warnings = Vec::new();
    for spec in specs {
        let mut h = Fnv1a::new();
        spec.fingerprint_into(&mut h);
        let fp = h.finish();
        if let Some((prev_fp, _)) = seen.iter().find(|(_, key)| *key == spec.key) {
            if *prev_fp == fp {
                warnings.push(format!(
                    "duplicate grid point {:?} dropped (identical configuration)",
                    spec.key
                ));
                continue;
            }
            return Err(FleetError::DuplicateKey(spec.key));
        }
        seen.push((fp, spec.key.clone()));
        out.push(spec);
    }
    Ok((out, warnings))
}

/// What one sweep invocation did.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-grid-point records, aligned with the spec slice (`None` =
    /// never dispatched, e.g. the invocation was stopped early).
    pub records: Vec<Option<RunRecord>>,
    /// Successful records reused from a resumed journal instead of
    /// re-run.
    pub resumed: usize,
    /// Runs executed by *this* invocation.
    pub executed: usize,
    /// Wall-clock time of this invocation.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl FleetReport {
    /// Runs that ended degraded (`timeout` or `failed`).
    pub fn failed_runs(&self) -> usize {
        self.records
            .iter()
            .flatten()
            .filter(|r| !r.status.succeeded())
            .count()
    }

    /// Whether every grid point has a record.
    pub fn complete(&self) -> bool {
        self.records.iter().all(Option::is_some)
    }
}

/// One run currently executing, for heartbeat visibility.
struct Inflight {
    key: String,
    started: Instant,
}

struct Shared<'a> {
    specs: &'a [RunSpec],
    queue: Mutex<VecDeque<usize>>,
    /// (index, record) pairs as they complete, any order.
    results: Mutex<Vec<(usize, RunRecord)>>,
    inflight: Vec<Mutex<Option<Inflight>>>,
    done: AtomicUsize,
    failed: AtomicUsize,
    executed: AtomicUsize,
    stop: AtomicBool,
    finished: AtomicBool,
    store_error: Mutex<Option<String>>,
}

/// Run a grid under supervision, resuming from `store` when it already
/// holds records: a successful record is reused, a degraded one
/// (`timeout`/`failed`) is dispatched again and its new record
/// supersedes the old in the journal.
///
/// Determinism contract: each grid point is executed once, by one
/// worker, with a deterministic `exec`, and all aggregation happens in
/// grid order — so the sweep's results are independent of the worker
/// count and of the work-stealing schedule.
pub fn run_fleet(
    specs: &[RunSpec],
    cfg: &FleetConfig,
    exec: Exec,
    store: Option<&SweepStore>,
) -> Result<FleetReport, FleetError> {
    cfg.validate()?;
    if specs.is_empty() {
        return Err(FleetError::EmptyGrid);
    }
    let start = Instant::now();

    let mut records: Vec<Option<RunRecord>> = specs
        .iter()
        .map(|s| {
            store
                .and_then(|st| st.completed().get(&s.key))
                .filter(|r| r.status.succeeded())
                .cloned()
        })
        .collect();
    let resumed = records.iter().flatten().count();
    let pending: VecDeque<usize> = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    let total_pending = pending.len();
    let workers = cfg.workers.min(total_pending.max(1));

    let shared = Shared {
        specs,
        queue: Mutex::new(pending),
        results: Mutex::new(Vec::with_capacity(total_pending)),
        inflight: (0..workers).map(|_| Mutex::new(None)).collect(),
        done: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
        executed: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        finished: AtomicBool::new(false),
        store_error: Mutex::new(None),
    };

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for slot in 0..workers {
            let shared = &shared;
            let exec = exec.clone();
            handles.push(scope.spawn(move || worker_loop(shared, slot, cfg, exec, store)));
        }
        if let Some(every) = cfg.heartbeat {
            let shared = &shared;
            let total = total_pending + resumed;
            scope.spawn(move || heartbeat_loop(shared, every, total, resumed, start));
        }
        for h in handles {
            h.join().expect("fleet worker panicked outside supervision");
        }
        shared.finished.store(true, Ordering::SeqCst);
    });

    let executed = shared.executed.load(Ordering::SeqCst);
    for (idx, rec) in shared.results.into_inner().unwrap() {
        records[idx] = Some(rec);
    }
    if let Some(msg) = shared.store_error.into_inner().unwrap() {
        return Err(FleetError::Store(msg));
    }
    Ok(FleetReport {
        records,
        resumed,
        executed,
        wall: start.elapsed(),
        workers,
    })
}

fn worker_loop(
    shared: &Shared<'_>,
    slot: usize,
    cfg: &FleetConfig,
    exec: Exec,
    store: Option<&SweepStore>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Some(idx) = shared.queue.lock().unwrap().pop_front() else {
            return;
        };
        let spec = &shared.specs[idx];
        let rec = supervise(shared, slot, spec, cfg, &exec);

        if !rec.status.succeeded() {
            shared.failed.fetch_add(1, Ordering::SeqCst);
        }
        shared.done.fetch_add(1, Ordering::SeqCst);

        if let Some(store) = store {
            if let Err(e) = store.append(&rec) {
                *shared.store_error.lock().unwrap() =
                    Some(format!("cannot journal run {:?}: {e}", rec.key));
                shared.stop.store(true, Ordering::SeqCst);
            }
        }
        shared.results.lock().unwrap().push((idx, rec));

        let executed_now = shared.executed.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(limit) = cfg.stop_after {
            if executed_now >= limit {
                shared.stop.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// Run one grid point to its record: one attempt, panics caught, the
/// deadline enforced when configured.
fn supervise(
    shared: &Shared<'_>,
    slot: usize,
    spec: &RunSpec,
    cfg: &FleetConfig,
    exec: &Exec,
) -> RunRecord {
    let started = Instant::now();
    *shared.inflight[slot].lock().unwrap() = Some(Inflight {
        key: spec.key.clone(),
        started,
    });
    let result = attempt(spec, exec, cfg.run_timeout);
    *shared.inflight[slot].lock().unwrap() = None;

    let (status, digest, error) = match result {
        Ok(digest) => (RunStatus::Ok, Some(digest), None),
        Err((status, msg)) => (status, None, Some(msg)),
    };
    RunRecord {
        key: spec.key.clone(),
        status,
        wall_ms: started.elapsed().as_millis() as u64,
        digest,
        error,
    }
}

/// Execute `spec` once: its digest, or the degraded status and why.
fn attempt(
    spec: &RunSpec,
    exec: &Exec,
    timeout: Option<Duration>,
) -> Result<RunDigest, (RunStatus, String)> {
    let panicked = |msg: String| (RunStatus::Failed, format!("panicked: {msg}"));
    match timeout {
        None => catch_unwind(AssertUnwindSafe(|| exec(spec)))
            .map_err(|payload| panicked(panic_message(payload.as_ref()))),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let spec = spec.clone();
            let exec = exec.clone();
            let handle = std::thread::Builder::new()
                .name(format!("amjs-run-{}", spec.key))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| exec(&spec)))
                        .map_err(|payload| panic_message(payload.as_ref()));
                    let _ = tx.send(result);
                })
                .expect("cannot spawn attempt thread");
            match rx.recv_timeout(limit) {
                Ok(result) => {
                    let _ = handle.join();
                    result.map_err(panicked)
                }
                // The run overran its deadline. The thread cannot be
                // killed; it is abandoned (detached) and its eventual
                // result, if any, is discarded with the channel.
                Err(_) => Err((
                    RunStatus::Timeout,
                    format!("timed out after {:.1}s", limit.as_secs_f64()),
                )),
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn heartbeat_loop(
    shared: &Shared<'_>,
    every: Duration,
    total: usize,
    resumed: usize,
    start: Instant,
) {
    let mut last = Instant::now();
    loop {
        if shared.finished.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
        if last.elapsed() < every {
            continue;
        }
        last = Instant::now();
        let done = shared.done.load(Ordering::SeqCst);
        let failed = shared.failed.load(Ordering::SeqCst);
        let inflight: Vec<String> = shared
            .inflight
            .iter()
            .filter_map(|m| {
                m.lock()
                    .unwrap()
                    .as_ref()
                    .map(|run| format!("{} {:.0}s", run.key, run.started.elapsed().as_secs_f64()))
            })
            .collect();
        let rate = done as f64 / start.elapsed().as_secs_f64().max(1e-9);
        eprintln!(
            "amjs fleet: {}/{} done ({failed} failed), \
             {} inflight [{}], {rate:.2} runs/s",
            resumed + done,
            total,
            inflight.len(),
            inflight.join(", "),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate_csv;
    use amjs_core::{MachineSpec, PolicyParams, PresetName, WorkloadSource};
    use std::path::{Path, PathBuf};

    fn spec(key: &str, seed: u64) -> RunSpec {
        RunSpec::new(
            key,
            MachineSpec::Flat { nodes: 64 },
            WorkloadSource::Preset {
                name: PresetName::Small,
                seed,
                load_factor: 1.0,
            },
            PolicyParams::fcfs(),
        )
    }

    /// A fake executor that doesn't simulate: digests carry the seed so
    /// tests can check routing.
    fn fake_exec() -> Exec {
        Arc::new(|s: &RunSpec| {
            let mut d = crate::digest::tests::sample(&s.label);
            d.scheduler_passes = match &s.workload {
                WorkloadSource::Preset { seed, .. } => *seed,
                _ => 0,
            };
            d
        })
    }

    /// [`fake_exec`], except that the run keyed `bad` panics every time.
    fn panics_on(bad: &'static str) -> Exec {
        let healthy = fake_exec();
        Arc::new(move |s: &RunSpec| {
            if s.key == bad {
                panic!("injected failure for {}", s.key);
            }
            healthy(s)
        })
    }

    fn cfg(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            ..FleetConfig::default()
        }
    }

    fn keys(n: u64) -> Vec<RunSpec> {
        (0..n).map(|i| spec(&format!("k{i}"), i)).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("amjs-fleet-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Journal a whole sweep of `specs` in `dir` through `first`, then
    /// resume it from the directory through `second`.
    fn journal_then_resume(
        dir: &Path,
        specs: &[RunSpec],
        first: Exec,
        second: Exec,
    ) -> FleetReport {
        let store = SweepStore::create(dir, specs).unwrap();
        assert!(run_fleet(specs, &cfg(2), first, Some(&store))
            .unwrap()
            .complete());
        drop(store);
        let (resumed_specs, store) = SweepStore::resume(dir).unwrap();
        assert_eq!(resumed_specs, specs);
        run_fleet(specs, &cfg(2), second, Some(&store)).unwrap()
    }

    #[test]
    fn config_validation_guards() {
        assert_eq!(cfg(0).validate(), Err(FleetError::ZeroWorkers));
        let deadline = FleetConfig {
            run_timeout: Some(Duration::from_millis(1)),
            ..cfg(1)
        };
        assert_eq!(deadline.validate(), Ok(()));
    }

    #[test]
    fn grid_validation_rejects_empty_and_conflicting() {
        assert_eq!(validate_grid(vec![]), Err(FleetError::EmptyGrid));

        // Identical duplicates dedup with a warning.
        let (specs, warnings) = validate_grid(vec![spec("a", 1), spec("a", 1)]).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("duplicate grid point"));

        // Same key, different content: hard error.
        assert_eq!(
            validate_grid(vec![spec("a", 1), spec("a", 2)]),
            Err(FleetError::DuplicateKey("a".to_string()))
        );
    }

    #[test]
    fn fleet_runs_every_grid_point_once() {
        let specs = keys(13);
        let report = run_fleet(&specs, &cfg(4), fake_exec(), None).unwrap();
        assert!(report.complete());
        assert_eq!(report.executed, 13);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.failed_runs(), 0);
        for (i, rec) in report.records.iter().enumerate() {
            let rec = rec.as_ref().unwrap();
            assert_eq!(rec.key, format!("k{i}"));
            assert_eq!(rec.status, RunStatus::Ok);
            assert_eq!(rec.digest.as_ref().unwrap().scheduler_passes, i as u64);
        }
    }

    #[test]
    fn panicking_run_fails_on_its_one_attempt_and_the_rest_complete() {
        let specs = keys(6);
        let calls = Arc::new(AtomicUsize::new(0));
        let exec: Exec = {
            let (calls, inner) = (calls.clone(), panics_on("k3"));
            Arc::new(move |s: &RunSpec| {
                calls.fetch_add(1, Ordering::SeqCst);
                inner(s)
            })
        };
        let report = run_fleet(&specs, &cfg(3), exec, None).unwrap();
        assert!(report.complete());
        assert_eq!(calls.load(Ordering::SeqCst), 6, "each point runs once");
        assert_eq!(report.failed_runs(), 1);
        let bad = report.records[3].as_ref().unwrap();
        assert_eq!(bad.status, RunStatus::Failed);
        assert!(bad.digest.is_none());
        assert_eq!(
            bad.error.as_deref(),
            Some("panicked: injected failure for k3")
        );
        for i in [0, 1, 2, 4, 5] {
            assert_eq!(report.records[i].as_ref().unwrap().status, RunStatus::Ok);
        }
    }

    #[test]
    fn hung_run_times_out_and_the_rest_complete() {
        let specs = vec![spec("hung", 1), spec("fine", 2)];
        let exec: Exec = Arc::new(|s: &RunSpec| {
            if s.key == "hung" {
                // Far past the deadline; the run thread is abandoned.
                std::thread::sleep(Duration::from_secs(5));
            }
            crate::digest::tests::sample(&s.label)
        });
        let cfg = FleetConfig {
            run_timeout: Some(Duration::from_millis(80)),
            ..cfg(2)
        };
        let started = Instant::now();
        let report = run_fleet(&specs, &cfg, exec, None).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the sweep must not wait for the hung run"
        );
        let hung = report.records[0].as_ref().unwrap();
        assert_eq!(hung.status, RunStatus::Timeout);
        assert_eq!(hung.error.as_deref(), Some("timed out after 0.1s"));
        assert_eq!(report.records[1].as_ref().unwrap().status, RunStatus::Ok);
    }

    #[test]
    fn stop_after_leaves_the_tail_undispatched() {
        let specs = keys(8);
        let cfg = FleetConfig {
            stop_after: Some(3),
            ..cfg(1)
        };
        let report = run_fleet(&specs, &cfg, fake_exec(), None).unwrap();
        assert_eq!(report.executed, 3);
        assert!(!report.complete());
        assert_eq!(report.records.iter().flatten().count(), 3);
    }

    #[test]
    fn resume_runs_a_failed_point_again_and_reuses_only_successes() {
        let dir = tmp_dir("rerun");
        let specs = keys(5);
        let report = journal_then_resume(&dir, &specs, panics_on("k2"), fake_exec());
        assert_eq!(report.resumed, 4, "only the successes are reused");
        assert_eq!(report.executed, 1, "the failed point runs again");
        assert_eq!(report.failed_runs(), 0);
        let healthy = run_fleet(&specs, &cfg(2), fake_exec(), None).unwrap();
        assert_eq!(
            aggregate_csv(&specs, &report.records),
            aggregate_csv(&specs, &healthy.records)
        );
        // The new record superseded the failed one in the journal.
        let (_, store) = SweepStore::resume(&dir).unwrap();
        assert_eq!(store.completed()["k2"].status, RunStatus::Ok);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resuming_a_deterministic_failure_reproduces_the_uninterrupted_csv() {
        let dir = tmp_dir("repeat");
        let specs = keys(5);
        let report = journal_then_resume(&dir, &specs, panics_on("k2"), panics_on("k2"));
        assert_eq!((report.resumed, report.executed), (4, 1));
        assert_eq!(
            report.records[2].as_ref().unwrap().status,
            RunStatus::Failed
        );
        let uninterrupted = run_fleet(&specs, &cfg(2), panics_on("k2"), None).unwrap();
        assert_eq!(
            aggregate_csv(&specs, &report.records),
            aggregate_csv(&specs, &uninterrupted.records)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_round_trips_through_the_codec() {
        for rec in [
            RunRecord {
                key: "k".into(),
                status: RunStatus::Ok,
                wall_ms: 1234,
                digest: Some(crate::digest::tests::sample("BF=1/W=1")),
                error: None,
            },
            RunRecord {
                key: "dead".into(),
                status: RunStatus::Timeout,
                wall_ms: 9000,
                digest: None,
                error: Some("timed out after 3.0s".into()),
            },
            RunRecord {
                key: "bad".into(),
                status: RunStatus::Failed,
                wall_ms: 7,
                digest: None,
                error: Some("panicked: boom".into()),
            },
        ] {
            let mut w = SnapWriter::new();
            rec.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(
                RunRecord::decode(&mut SnapReader::new(&bytes)).unwrap(),
                rec
            );
        }
    }
}
