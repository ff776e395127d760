//! `amjs sweep` — fault-tolerant parallel grid sweeps on the
//! `amjs-fleet` engine.
//!
//! The command expands scheme × BF × W × seed (under one shared
//! machine/workload/failure configuration) into a grid of
//! [`RunSpec`]s, fans it across supervised workers, and aggregates the
//! per-run digests into one CSV with per-config mean ± 95% CI and a
//! status column. Each grid point runs once; a panic or an overrun
//! deadline leaves a degraded row. A sweep keeps nothing on disk but
//! the artifacts it is asked for: an interrupted sweep, or one with a
//! degraded point, is run again.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use amjs_core::{AdaptiveKind, PolicyParams, RunSpec, WorkloadSource};
use amjs_fleet::{
    aggregate_csv, bench_json, render_table, run_fleet, validate_grid, Exec, FleetConfig, RunDigest,
};

use crate::args::{parse, render_flags, ArgError, FlagSpec, ParsedArgs};
use crate::config::{machine_spec, template_spec, workload_source};

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
        FlagSpec::switch("quiet", "print only the aggregated CSV on stdout"),
    ]);
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

    let (specs, warnings) = build_grid(&parsed)?;
    for w in &warnings {
        eprintln!("amjs: warning: {w}");
    }
    eprintln!(
        "amjs: sweeping {} runs on {} workers",
        specs.len(),
        cfg.workers_for(specs.len())
    );
    let exec = exec(&parsed)?;
    let report =
        run_fleet(&specs, &cfg, exec).map_err(|e| ArgError(format!("sweep failed: {e}")))?;

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
        std::fs::write(path, bench_json(&report))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("amjs: wrote sweep benchmark to {path}");
    }

    let failed = report.failed_runs();
    eprintln!(
        "amjs: sweep complete: {} runs, {failed} degraded, {:.1}s wall",
        report.records.len(),
        report.wall.as_secs_f64(),
    );
    if failed > 0 && !cfg.keep_going {
        let keys: Vec<&str> = report
            .records
            .iter()
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
    Ok(FleetConfig {
        workers,
        run_timeout: positive_secs(parsed, "run-timeout")?,
        keep_going: parsed.get_bool("keep-going"),
        heartbeat: positive_secs(parsed, "heartbeat")?,
    })
}

/// An optional duration flag in seconds, which must be positive.
fn positive_secs(parsed: &ParsedArgs, flag: &str) -> Result<Option<Duration>, ArgError> {
    let secs = parsed.get_opt_f64(flag)?;
    if let Some(s) = secs.filter(|s| *s <= 0.0) {
        return Err(ArgError(format!(
            "--{flag}: must be positive seconds, got {s}"
        )));
    }
    Ok(secs.map(Duration::from_secs_f64))
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
        assert_eq!(cfg.heartbeat, d.heartbeat);
        // `--keep-going` is a switch: off unless asked for.
        assert!(!cfg.keep_going);
        let (specs, _) = build_grid(&parsed).unwrap();
        assert_eq!(specs.len(), 5 * 3);
        assert!(specs.iter().any(|s| s.key == "none-bf0.25-w4-s42"));
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
        // a deadline or a heartbeat that is not positive
        for (flag, bad) in [
            ("--run-timeout", "0"),
            ("--heartbeat", "0"),
            ("--heartbeat", "-1"),
        ] {
            let err = sweep(&small_argv(&["--bf", "1", "--window", "1", flag, bad])).unwrap_err();
            assert_eq!(
                err.0,
                format!("{flag}: must be positive seconds, got {bad}"),
                "{flag} {bad}"
            );
        }
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
}
