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
//! attempt would only repeat the first. Re-running the sweep runs it
//! again, for the one case where that can help (a transient failure
//! outside the simulation, such as an unreadable trace file).

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use amjs_core::RunSpec;

use crate::digest::RunDigest;

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
}

/// The record of one completed (or degraded) grid point.
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

/// Sweep-level error: an invalid configuration or grid.
#[derive(Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The parameter grid expanded to zero runs.
    EmptyGrid,
    /// Two *different* grid points share a key.
    DuplicateKey(String),
    /// `--jobs 0`: a sweep needs at least one worker.
    ZeroWorkers,
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

    /// The worker threads a sweep of `runs` grid points starts: no more
    /// than there are runs.
    pub fn workers_for(&self, runs: usize) -> usize {
        self.workers.min(runs.max(1))
    }
}

/// Validate a grid: reject an empty grid and conflicting keys, and drop
/// exact duplicate grid points (equal specs), returning the
/// deduplicated grid plus one warning line per dropped duplicate.
pub fn validate_grid(specs: Vec<RunSpec>) -> Result<(Vec<RunSpec>, Vec<String>), FleetError> {
    if specs.is_empty() {
        return Err(FleetError::EmptyGrid);
    }
    let mut out: Vec<RunSpec> = Vec::with_capacity(specs.len());
    let mut warnings = Vec::new();
    for spec in specs {
        if let Some(prev) = out.iter().find(|prev| prev.key == spec.key) {
            if *prev == spec {
                warnings.push(format!(
                    "duplicate grid point {:?} dropped (identical configuration)",
                    spec.key
                ));
                continue;
            }
            return Err(FleetError::DuplicateKey(spec.key));
        }
        out.push(spec);
    }
    Ok((out, warnings))
}

/// What one sweep did.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-grid-point records, aligned with the spec slice.
    pub records: Vec<RunRecord>,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl FleetReport {
    /// Runs that ended degraded (`timeout` or `failed`).
    pub fn failed_runs(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.status.succeeded())
            .count()
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
    finished: AtomicBool,
}

/// Run a grid under supervision: every grid point gets one record.
///
/// Determinism contract: each grid point is executed once, by one
/// worker, with a deterministic `exec`, and all aggregation happens in
/// grid order — so the sweep's results are independent of the worker
/// count and of the work-stealing schedule.
pub fn run_fleet(
    specs: &[RunSpec],
    cfg: &FleetConfig,
    exec: Exec,
) -> Result<FleetReport, FleetError> {
    cfg.validate()?;
    if specs.is_empty() {
        return Err(FleetError::EmptyGrid);
    }
    let start = Instant::now();
    let total = specs.len();
    let workers = cfg.workers_for(total);

    let shared = Shared {
        specs,
        queue: Mutex::new((0..total).collect()),
        results: Mutex::new(Vec::with_capacity(total)),
        inflight: (0..workers).map(|_| Mutex::new(None)).collect(),
        done: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
        finished: AtomicBool::new(false),
    };

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for slot in 0..workers {
            let shared = &shared;
            let exec = exec.clone();
            handles.push(scope.spawn(move || worker_loop(shared, slot, cfg, exec)));
        }
        if let Some(every) = cfg.heartbeat {
            let shared = &shared;
            scope.spawn(move || heartbeat_loop(shared, every, total, start));
        }
        for h in handles {
            h.join().expect("fleet worker panicked outside supervision");
        }
        shared.finished.store(true, Ordering::SeqCst);
    });

    let mut results = shared.results.into_inner().unwrap();
    results.sort_unstable_by_key(|(idx, _)| *idx);
    Ok(FleetReport {
        records: results.into_iter().map(|(_, rec)| rec).collect(),
        wall: start.elapsed(),
        workers,
    })
}

fn worker_loop(shared: &Shared<'_>, slot: usize, cfg: &FleetConfig, exec: Exec) {
    loop {
        // A `while let` would hold the queue lock through the run.
        let Some(idx) = shared.queue.lock().unwrap().pop_front() else {
            return;
        };
        let rec = supervise(shared, slot, &shared.specs[idx], cfg, &exec);
        if !rec.status.succeeded() {
            shared.failed.fetch_add(1, Ordering::SeqCst);
        }
        shared.done.fetch_add(1, Ordering::SeqCst);
        shared.results.lock().unwrap().push((idx, rec));
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

fn heartbeat_loop(shared: &Shared<'_>, every: Duration, total: usize, start: Instant) {
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
            "amjs fleet: {done}/{total} done ({failed} failed), \
             {} inflight [{}], {rate:.2} runs/s",
            inflight.len(),
            inflight.join(", "),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_core::{MachineSpec, PolicyParams, PresetName, WorkloadSource};

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

    #[test]
    fn config_validation_guards() {
        assert_eq!(cfg(0).validate(), Err(FleetError::ZeroWorkers));
        let deadline = FleetConfig {
            run_timeout: Some(Duration::from_millis(1)),
            ..cfg(1)
        };
        assert_eq!(deadline.validate(), Ok(()));
        // A grid smaller than the pool starts one worker per run.
        assert_eq!((cfg(2).workers_for(1), cfg(2).workers_for(5)), (1, 2));
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
        // The label is content too.
        assert_eq!(
            validate_grid(vec![spec("a", 1), spec("a", 1).labeled("other")]),
            Err(FleetError::DuplicateKey("a".to_string()))
        );
    }

    #[test]
    fn fleet_runs_every_grid_point_once() {
        let specs = keys(13);
        let report = run_fleet(&specs, &cfg(4), fake_exec()).unwrap();
        assert_eq!(report.records.len(), 13);
        assert_eq!(report.workers, 4);
        assert_eq!(report.failed_runs(), 0);
        for (i, rec) in report.records.iter().enumerate() {
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
        let report = run_fleet(&specs, &cfg(3), exec).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 6, "each point runs once");
        assert_eq!(report.failed_runs(), 1);
        let bad = &report.records[3];
        assert_eq!(bad.status, RunStatus::Failed);
        assert!(bad.digest.is_none());
        assert_eq!(
            bad.error.as_deref(),
            Some("panicked: injected failure for k3")
        );
        for i in [0, 1, 2, 4, 5] {
            assert_eq!(report.records[i].status, RunStatus::Ok);
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
        let report = run_fleet(&specs, &cfg, exec).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the sweep must not wait for the hung run"
        );
        let hung = &report.records[0];
        assert_eq!(hung.status, RunStatus::Timeout);
        assert_eq!(hung.error.as_deref(), Some("timed out after 0.1s"));
        assert_eq!(report.records[1].status, RunStatus::Ok);
    }
}
