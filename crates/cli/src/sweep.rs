//! `amjs sweep` — fault-tolerant parallel grid sweeps on the
//! `amjs-fleet` engine.
//!
//! The command expands scheme × BF × W × seed (under one shared
//! machine/workload/failure configuration) into a grid of
//! [`RunSpec`]s, fans it across supervised workers, and aggregates the
//! per-run digests into one CSV with per-config mean ± 95% CI and a
//! status column. Each grid point runs once; a panic or an overrun
//! deadline leaves a degraded row. With `--sweep-dir` the grid manifest
//! and a checksummed result journal make the sweep crash-recoverable:
//! `amjs sweep --resume <dir>` skips successful runs exactly, runs
//! degraded ones again, and re-aggregates byte-identically.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use amjs_core::{grid_fingerprint, AdaptiveKind, PolicyParams, RunSpec, WorkloadSource};
use amjs_fleet::{
    aggregate_csv, bench_json, render_table, run_fleet, validate_grid, Exec, FleetConfig,
    RunDigest, SweepStore,
};

use crate::args::{parse, render_flags, ArgError, FlagSpec, ParsedArgs};
use crate::config::{machine_spec, run_config_flags, template_spec, workload_source};

fn sweep_flags() -> Vec<FlagSpec> {
    let mut flags = crate::commands::common_flags();
    flags.extend([
        FlagSpec::with_default("bf", "1,0.75,0.5,0.25,0", "comma-separated balance factors"),
        FlagSpec::with_default("window", "1,2,4", "comma-separated window sizes"),
        FlagSpec::optional(
            "seeds",
            "the --seed value",
            "comma-separated workload seeds (repetitions per config)",
        ),
        FlagSpec::with_default(
            "adaptive",
            "none",
            "comma-separated tuning schemes: none|bf|w|2d",
        ),
        FlagSpec::with_default(
            "threshold",
            1000,
            "queue-depth threshold (min) for bf/2d tuning",
        ),
        FlagSpec::with_default("estimates", "raw", "planning walltimes: raw|adaptive"),
        FlagSpec::optional("jobs", "all cores", "worker threads (1 = sequential)"),
        FlagSpec::optional(
            "run-timeout",
            "unbounded",
            "per-run wall-clock deadline in seconds; overrunning runs are abandoned",
        ),
        FlagSpec::switch(
            "keep-going",
            "exit 0 even when runs end degraded (status column still records them)",
        ),
        FlagSpec::value(
            "sweep-dir",
            "directory for the sweep manifest + result journal (enables --resume)",
        ),
        FlagSpec::value(
            "resume",
            "resume the sweep in this directory, skipping completed runs",
        ),
        FlagSpec::value("csv", "write the aggregated sweep CSV to this path"),
        FlagSpec::value(
            "bench-json",
            "write sweep throughput stats (runs/s, quartiles) as JSON to this path",
        ),
        FlagSpec::value(
            "heartbeat",
            "stderr progress line (done/inflight/failed) every N seconds",
        ),
        FlagSpec::value(
            "profile-dir",
            "write a per-run scheduler span profile JSON into this directory",
        ),
        FlagSpec::value(
            "stop-after",
            "stop dispatching after N runs this invocation",
        ),
        FlagSpec::switch("quiet", "print only the aggregated CSV on stdout"),
    ]);
    flags
}

/// Flags that define the grid: every run-config flag plus `seeds`.
/// Alongside `--resume` they are only accepted when they reproduce the
/// manifest's grid exactly (checked by fingerprint) — anything else
/// would silently sweep a different experiment than the journal records.
fn grid_flags() -> Vec<&'static str> {
    let mut flags = run_config_flags();
    flags.push("seeds");
    flags
}

/// `amjs sweep`.
pub fn sweep(argv: &[String]) -> Result<(), ArgError> {
    run_sweep(argv, build_exec)
}

/// `amjs sweep` with the per-run executor built by `exec` — the seam a
/// test hands its own [`Exec`] through.
fn run_sweep(
    argv: &[String],
    exec: impl FnOnce(&ParsedArgs) -> Result<Exec, ArgError>,
) -> Result<(), ArgError> {
    let flags = sweep_flags();
    let parsed = parse(argv, &flags)?;
    if parsed.get_bool("help") {
        println!(
            "amjs sweep — fault-tolerant parallel grid sweep \
             (scheme x BF x W x seed)\n\n{}",
            render_flags(&flags)
        );
        return Ok(());
    }

    let cfg = fleet_config(&parsed)?;
    cfg.validate().map_err(|e| ArgError(e.to_string()))?;

    // Resolve the grid and the durable store.
    let resume_dir = parsed.get("resume").map(PathBuf::from);
    let sweep_dir = parsed.get("sweep-dir").map(PathBuf::from);
    if resume_dir.is_some() && sweep_dir.is_some() {
        return Err(ArgError(
            "--resume and --sweep-dir are mutually exclusive: --resume already \
             names the sweep directory"
                .to_string(),
        ));
    }
    let (specs, store) = match &resume_dir {
        Some(dir) => {
            let (specs, store) =
                SweepStore::resume(dir).map_err(|e| ArgError(format!("--resume: {e}")))?;
            // Grid flags may accompany --resume only if they rebuild the
            // exact same grid (guard against resuming the wrong sweep).
            let given = parsed.given_among(&grid_flags());
            if !given.is_empty() {
                let (flag_specs, _) = build_grid(&parsed)?;
                if grid_fingerprint(&flag_specs) != store.fingerprint() {
                    return Err(ArgError(format!(
                        "--resume: the grid described by {} does not match the sweep \
                         manifest in {} (grid fingerprint mismatch); drop the grid \
                         flags — the manifest already carries the full grid — or \
                         start a fresh sweep with --sweep-dir",
                        given.join(", "),
                        dir.display()
                    )));
                }
            }
            eprintln!(
                "amjs: resuming sweep in {} ({} of {} runs already journaled ok)",
                dir.display(),
                store
                    .completed()
                    .values()
                    .filter(|r| r.status.succeeded())
                    .count(),
                specs.len()
            );
            (specs, Some(store))
        }
        None => {
            let (specs, warnings) = build_grid(&parsed)?;
            for w in &warnings {
                eprintln!("amjs: warning: {w}");
            }
            let store = match &sweep_dir {
                Some(dir) => Some(
                    SweepStore::create(dir, &specs)
                        .map_err(|e| ArgError(format!("--sweep-dir: {e}")))?,
                ),
                None => None,
            };
            (specs, store)
        }
    };

    eprintln!(
        "amjs: sweeping {} runs on {} workers{}",
        specs.len(),
        cfg.workers,
        store
            .as_ref()
            .map(|s| format!(" (journal in {})", s.dir().display()))
            .unwrap_or_default()
    );
    let exec = exec(&parsed)?;
    let report = run_fleet(&specs, &cfg, exec, store.as_ref())
        .map_err(|e| ArgError(format!("sweep failed: {e}")))?;

    // Artifacts and stdout, all in grid order.
    let csv = aggregate_csv(&specs, &report.records);
    if parsed.get_bool("quiet") {
        print!("{csv}");
    } else {
        print!("{}", render_table(&specs, &report.records));
    }
    if let Some(path) = parsed.get("csv") {
        std::fs::write(path, &csv).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("amjs: wrote aggregated sweep CSV to {path}");
    }
    if let Some(path) = parsed.get("bench-json") {
        std::fs::write(path, bench_json(&report, &report.records))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("amjs: wrote sweep benchmark to {path}");
    }

    let failed = report.failed_runs();
    eprintln!(
        "amjs: sweep {}: {} runs ({} resumed, {} executed), {} degraded, {:.1}s wall",
        if report.complete() {
            "complete"
        } else {
            "stopped"
        },
        report.records.iter().flatten().count(),
        report.resumed,
        report.executed,
        failed,
        report.wall.as_secs_f64(),
    );
    if !report.complete() {
        if let Some(store) = &store {
            eprintln!(
                "amjs: {} runs still pending; continue with: amjs sweep --resume {}",
                report.records.iter().filter(|r| r.is_none()).count(),
                store.dir().display()
            );
        }
    }
    if failed > 0 && !cfg.keep_going {
        let keys: Vec<&str> = report
            .records
            .iter()
            .flatten()
            .filter(|r| !r.status.succeeded())
            .map(|r| r.key.as_str())
            .collect();
        return Err(ArgError(format!(
            "{failed} runs ended degraded ({}); their rows carry status \
             timeout/failed — pass --keep-going to exit 0 anyway",
            keys.join(", ")
        )));
    }
    Ok(())
}

/// Parse the fleet execution flags.
fn fleet_config(parsed: &ParsedArgs) -> Result<FleetConfig, ArgError> {
    let workers = match parsed.get_opt("jobs")? {
        Some(n) => n,
        None => FleetConfig::default().workers,
    };
    let run_timeout = parsed.get_opt_f64("run-timeout")?;
    if let Some(s) = run_timeout.filter(|s| *s <= 0.0) {
        return Err(ArgError(format!(
            "--run-timeout: must be positive seconds, got {s}"
        )));
    }
    Ok(FleetConfig {
        workers,
        run_timeout: run_timeout.map(Duration::from_secs_f64),
        keep_going: parsed.get_bool("keep-going"),
        heartbeat: parsed
            .get_opt_f64("heartbeat")?
            .filter(|s| *s > 0.0)
            .map(Duration::from_secs_f64),
        stop_after: parsed.get_opt::<usize>("stop-after")?,
    })
}

/// Expand the grid flags into a validated, deduplicated spec list.
fn build_grid(parsed: &ParsedArgs) -> Result<(Vec<RunSpec>, Vec<String>), ArgError> {
    let default_seed: u64 = parsed.get_parsed("seed")?;
    let template = template_spec(
        parsed,
        machine_spec(parsed)?,
        workload_source(parsed, default_seed),
    )?;

    let bfs: Vec<f64> = parsed.get_list("bf")?;
    let windows: Vec<usize> = parsed.get_list("window")?;
    for &bf in &bfs {
        if !(0.0..=1.0).contains(&bf) {
            return Err(ArgError(format!("--bf values must be in [0,1], got {bf}")));
        }
    }
    if windows.contains(&0) {
        return Err(ArgError("--window values must be at least 1".to_string()));
    }
    // `--seeds` defaults to another flag's value, not to a string.
    let seeds: Vec<u64> = if parsed.is_given("seeds") {
        parsed.get_list("seeds")?
    } else {
        vec![default_seed]
    };
    let threshold = parsed.get_f64("threshold")?;
    let schemes = parsed
        .get_list::<String>("adaptive")?
        .into_iter()
        .map(|scheme| {
            let kind = match scheme.as_str() {
                "none" => AdaptiveKind::None,
                "bf" => AdaptiveKind::Bf { threshold },
                "w" => AdaptiveKind::Window,
                "2d" => AdaptiveKind::TwoD { threshold },
                _ => {
                    return Err(ArgError(format!(
                        "--adaptive: expected none|bf|w|2d, got {scheme:?}"
                    )))
                }
            };
            Ok((scheme, kind))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let fixed_trace = matches!(template.workload, WorkloadSource::Swf { .. });
    if fixed_trace && seeds.len() > 1 {
        return Err(ArgError(
            "--seeds: multiple seeds only apply to synthetic presets; an SWF \
             trace is fixed data"
                .to_string(),
        ));
    }

    let mut specs = Vec::new();
    for (scheme, adaptive) in &schemes {
        for &bf in &bfs {
            for &w in &windows {
                for &seed in &seeds {
                    let policy = PolicyParams::new(bf, w);
                    let key = format!("{scheme}-bf{bf}-w{w}-s{seed}");
                    let label = match scheme.as_str() {
                        "none" => policy.label(),
                        other => format!("{}+{other}adapt", policy.label()),
                    };
                    specs.push(RunSpec {
                        key,
                        label,
                        workload: workload_source(parsed, seed),
                        policy,
                        adaptive: *adaptive,
                        ..template.clone()
                    });
                }
            }
        }
    }
    validate_grid(specs).map_err(|e| ArgError(e.to_string()))
}

/// Build the per-run executor: the real simulation, with optional
/// per-run span profiling.
fn build_exec(parsed: &ParsedArgs) -> Result<Exec, ArgError> {
    let profile_dir = parsed.get("profile-dir").map(PathBuf::from);
    if let Some(dir) = &profile_dir {
        std::fs::create_dir_all(dir).map_err(|e| {
            ArgError(format!(
                "--profile-dir: cannot create {}: {e}",
                dir.display()
            ))
        })?;
    }
    Ok(Arc::new(move |spec: &RunSpec| match &profile_dir {
        None => RunDigest::from_outcome(&spec.execute()),
        Some(dir) => run_profiled(spec, dir),
    }))
}

/// Execute one run with a span profiler attached, writing the profile
/// JSON next to the sweep artifacts. The profiler is `Rc`-shared and
/// must be built here, on the run's own thread.
fn run_profiled(spec: &RunSpec, dir: &Path) -> RunDigest {
    let prof: amjs_obs::SharedProfiler =
        std::rc::Rc::new(std::cell::RefCell::new(amjs_obs::Profiler::new()));
    let obs = amjs_obs::Observer::disabled().with_profiler(prof.clone());
    let (outcome, _obs) = spec.execute_observed(obs);
    let path = dir.join(format!("{}.profile.json", spec.key));
    if let Err(e) = std::fs::write(&path, prof.borrow().to_json()) {
        eprintln!("amjs: warning: cannot write {}: {e}", path.display());
    }
    RunDigest::from_outcome(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::tests::argv;
    use std::sync::Mutex;

    const SMALL: &[&str] = &[
        "--workload",
        "small",
        "--machine",
        "flat",
        "--nodes",
        "1024",
    ];

    fn small_argv(extra: &[&str]) -> Vec<String> {
        let mut v = argv(SMALL);
        v.extend(argv(extra));
        v
    }

    #[test]
    fn help_does_not_error() {
        assert!(sweep(&argv(&["--help"])).is_ok());
    }

    #[test]
    fn an_empty_argv_is_the_fleet_default_and_the_full_grid() {
        let parsed = parse(&[], &sweep_flags()).unwrap();
        let (cfg, d) = (fleet_config(&parsed).unwrap(), FleetConfig::default());
        assert_eq!((cfg.workers, cfg.run_timeout), (d.workers, d.run_timeout));
        assert_eq!((cfg.heartbeat, cfg.stop_after), (d.heartbeat, d.stop_after));
        // `--keep-going` is a switch: off unless asked for.
        assert!(!cfg.keep_going);
        let (specs, _) = build_grid(&parsed).unwrap();
        assert_eq!(specs.len(), 5 * 3);
        assert!(specs.iter().any(|s| s.key == "none-bf0.25-w4-s42"));
    }

    #[test]
    fn grid_flags_are_the_run_config_flags_plus_seeds() {
        let grid = grid_flags();
        assert_eq!(grid.len(), 22);
        assert!(grid.contains(&"seeds") && grid.contains(&"threshold"));
        let declared = sweep_flags();
        for name in &grid {
            assert!(declared.iter().any(|f| f.name == *name), "{name}");
        }
    }

    #[test]
    fn tiny_grid_runs_in_parallel() {
        sweep(&small_argv(&[
            "--bf", "1,0", "--window", "1", "--jobs", "2",
        ]))
        .unwrap();
    }

    #[test]
    fn grid_expands_scheme_bf_window_seed() {
        let parsed = parse(
            &small_argv(&[
                "--bf",
                "1,0.5",
                "--window",
                "1,2",
                "--seeds",
                "1,2,3",
                "--adaptive",
                "none,bf",
            ]),
            &sweep_flags(),
        )
        .unwrap();
        let (specs, warnings) = build_grid(&parsed).unwrap();
        assert_eq!(specs.len(), 2 * 2 * 2 * 3);
        assert!(warnings.is_empty());
        // Keys are unique and encode the full coordinate.
        assert!(specs.iter().any(|s| s.key == "bf-bf0.5-w2-s3"));
        // Seeds share a label within one config (aggregation grouping).
        let labels: Vec<&str> = specs
            .iter()
            .filter(|s| s.key.starts_with("none-bf1-w1"))
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(labels, vec!["BF=1/W=1"; 3]);
    }

    #[test]
    fn duplicate_seeds_dedup_with_warning() {
        let parsed = parse(
            &small_argv(&["--bf", "1", "--window", "1", "--seeds", "7,7"]),
            &sweep_flags(),
        )
        .unwrap();
        let (specs, warnings) = build_grid(&parsed).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("duplicate grid point"));
    }

    #[test]
    fn validation_guards_reject_bad_flags() {
        // --jobs 0
        let err = sweep(&small_argv(&["--bf", "1", "--window", "1", "--jobs", "0"])).unwrap_err();
        assert!(err.0.contains("--jobs"), "{err}");
        // a deadline that is not positive
        let err = sweep(&small_argv(&[
            "--bf",
            "1",
            "--window",
            "1",
            "--run-timeout",
            "0",
        ]))
        .unwrap_err();
        assert!(err.0.contains("--run-timeout"), "{err}");
        // bad grid values
        assert!(sweep(&small_argv(&["--bf", "1.5", "--window", "1"])).is_err());
        assert!(sweep(&small_argv(&["--bf", "1", "--window", "0"])).is_err());
        assert!(sweep(&small_argv(&["--adaptive", "zzz"])).is_err());
        // multiple seeds over a fixed SWF trace
        let err = sweep(&argv(&[
            "--workload",
            "/tmp/x.swf",
            "--machine",
            "flat",
            "--nodes",
            "64",
            "--seeds",
            "1,2",
        ]))
        .unwrap_err();
        assert!(err.0.contains("--seeds"), "{err}");
        // --resume and --sweep-dir together
        let err = sweep(&argv(&["--resume", "/tmp/a", "--sweep-dir", "/tmp/b"])).unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "{err}");
    }

    /// The real executor, except that a run whose key contains `pat`
    /// panics.
    fn panicking(pat: &'static str) -> Exec {
        Arc::new(move |spec: &RunSpec| {
            if spec.key.contains(pat) {
                panic!("injected failure for run {}", spec.key);
            }
            RunDigest::from_outcome(&spec.execute())
        })
    }

    /// [`sweep`] over `argv`, every run through `exec`.
    fn sweep_with(argv: &[String], exec: Exec) -> Result<(), ArgError> {
        run_sweep(argv, |_| Ok(exec))
    }

    #[test]
    fn degraded_runs_fail_the_exit_unless_keep_going() {
        let base = &["--bf", "1,0", "--window", "1"];
        let err = sweep_with(&small_argv(base), panicking("bf0-")).unwrap_err();
        assert!(err.0.contains("degraded"), "{err}");
        assert!(err.0.contains("--keep-going"), "{err}");

        let mut with_keep = base.to_vec();
        with_keep.push("--keep-going");
        sweep_with(&small_argv(&with_keep), panicking("bf0-")).unwrap();
    }

    #[test]
    fn resume_runs_a_failed_point_again() {
        let dir = std::env::temp_dir().join(format!("amjs-sweep-rerun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let csv_path = dir.join("out.csv");
        let (dir_s, csv_s) = (dir.to_str().unwrap(), csv_path.to_str().unwrap());
        let first = small_argv(&[
            "--bf",
            "1",
            "--window",
            "1,2",
            "--keep-going",
            "--sweep-dir",
            dir_s,
        ]);
        sweep_with(&first, panicking("w2")).unwrap();

        // The failed point is dispatched again and its new record
        // supersedes the old one; the successful point is reused.
        let calls = Arc::new(Mutex::new(Vec::new()));
        let healthy: Exec = {
            let calls = calls.clone();
            Arc::new(move |spec: &RunSpec| {
                calls.lock().unwrap().push(spec.key.clone());
                RunDigest::from_outcome(&spec.execute())
            })
        };
        sweep_with(&argv(&["--resume", dir_s, "--csv", csv_s]), healthy).unwrap();
        assert_eq!(*calls.lock().unwrap(), ["none-bf1-w2-s42"]);
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.contains("none-bf1-w1-s42,ok,"), "{csv}");
        assert!(csv.contains("none-bf1-w2-s42,ok,"), "{csv}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_with_mismatched_grid_flags_is_rejected() {
        let dir = std::env::temp_dir().join(format!("amjs-sweep-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sweep(&small_argv(&[
            "--bf",
            "1",
            "--window",
            "1",
            "--sweep-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        // Same grid flags: accepted.
        sweep(&small_argv(&[
            "--bf",
            "1",
            "--window",
            "1",
            "--resume",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        // Different grid: fingerprint mismatch.
        let err = sweep(&small_argv(&[
            "--bf",
            "0.5",
            "--window",
            "1",
            "--resume",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.0.contains("fingerprint mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
