//! `amjs sweep` — a parallel grid sweep.
//!
//! The command expands scheme × BF × W × seed (under one shared
//! machine/workload/failure configuration) into a grid of
//! [`RunSpec`]s, maps it across worker threads with
//! [`amjs_core::par_map`], and aggregates the per-run digests in grid
//! order into one CSV with per-config mean ± 95% CI. A grid point is a
//! pure function of its spec, so a panic is a bug, not a result: it
//! fails the command and names the point. A sweep keeps nothing on disk
//! but the artifacts it is asked for; an interrupted sweep is run
//! again.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use amjs_core::{par_map, AdaptiveKind, PolicyParams, RunDigest, RunSpec, WorkloadSource};

use crate::aggregate::{aggregate_csv, render_table};
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
        FlagSpec::value("csv", "write the aggregated sweep CSV to this path"),
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
/// test hands its own executor through.
fn run_sweep<E: Fn(&RunSpec) -> RunDigest + Sync>(
    argv: &[String],
    exec: impl FnOnce(&ParsedArgs) -> Result<E, ArgError>,
) -> Result<(), ArgError> {
    let flags = sweep_flags();
    let parsed = parse(argv, &flags)?;
    if parsed.get_bool("help") {
        println!(
            "{}\n\n{}",
            crate::commands::title("sweep"),
            render_flags(&flags)
        );
        return Ok(());
    }

    let workers = match parsed.get_opt("jobs")? {
        Some(0) => return Err(ArgError("--jobs must be at least 1".to_string())),
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(4, |n| n.get()),
    };
    let (specs, warnings) = build_grid(&parsed)?;
    for w in &warnings {
        eprintln!("amjs: warning: {w}");
    }
    let workers = workers.min(specs.len());
    eprintln!("amjs: sweeping {} runs on {workers} workers", specs.len());
    let exec = exec(&parsed)?;
    let started = Instant::now();
    let digests = par_map(&specs, workers, |spec| {
        catch_unwind(AssertUnwindSafe(|| exec(spec)))
            .unwrap_or_else(|_| panic!("amjs sweep: grid point {} panicked", spec.key))
    });

    // Artifacts and stdout, all in grid order.
    let csv = aggregate_csv(&specs, &digests);
    if parsed.get_bool("quiet") {
        print!("{csv}");
    } else {
        print!("{}", render_table(&specs, &digests));
    }
    if let Some(path) = parsed.get("csv") {
        std::fs::write(path, &csv).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("amjs: wrote aggregated sweep CSV to {path}");
    }
    eprintln!(
        "amjs: sweep complete: {} runs, {:.1}s wall",
        specs.len(),
        started.elapsed().as_secs_f64(),
    );
    Ok(())
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
    if fixed_trace {
        // Every grid point reads the same trace: refuse it here, once,
        // rather than panic inside each point.
        template.workload.load().map_err(ArgError)?;
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
    validate_grid(specs)
}

/// Validate a grid: reject an empty grid and conflicting keys, and drop
/// exact duplicate grid points (equal specs), returning the
/// deduplicated grid plus one warning line per dropped duplicate.
fn validate_grid(specs: Vec<RunSpec>) -> Result<(Vec<RunSpec>, Vec<String>), ArgError> {
    if specs.is_empty() {
        return Err(ArgError(
            "the parameter grid is empty: nothing to sweep".to_string(),
        ));
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
            return Err(ArgError(format!(
                "two different grid points share the key {:?}; keys must be unique",
                spec.key
            )));
        }
        out.push(spec);
    }
    Ok((out, warnings))
}

/// Build the per-run executor: the real simulation, with optional
/// per-run span profiling.
fn build_exec(parsed: &ParsedArgs) -> Result<impl Fn(&RunSpec) -> RunDigest + Sync, ArgError> {
    let profile_dir = parsed.get("profile-dir").map(PathBuf::from);
    if let Some(dir) = &profile_dir {
        std::fs::create_dir_all(dir).map_err(|e| {
            ArgError(format!(
                "--profile-dir: cannot create {}: {e}",
                dir.display()
            ))
        })?;
    }
    Ok(move |spec: &RunSpec| match &profile_dir {
        None => RunDigest::from_outcome(&spec.execute()),
        Some(dir) => run_profiled(spec, dir),
    })
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
    fn an_empty_argv_is_the_full_grid() {
        let parsed = parse(&[], &sweep_flags()).unwrap();
        assert_eq!(parsed.get_opt::<usize>("jobs").unwrap(), None);
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
        assert_eq!(err.0, "--jobs must be at least 1");
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

    #[test]
    fn grid_validation_rejects_empty_and_conflicting() {
        let spec = |key: &str, seed| {
            RunSpec::new(
                key,
                amjs_core::MachineSpec::Flat { nodes: 64 },
                WorkloadSource::Preset {
                    name: amjs_core::PresetName::Small,
                    seed,
                    load_factor: 1.0,
                },
                PolicyParams::fcfs(),
            )
        };
        let err = validate_grid(vec![]).unwrap_err();
        assert_eq!(err.0, "the parameter grid is empty: nothing to sweep");

        // Identical duplicates dedup with a warning.
        let (specs, warnings) = validate_grid(vec![spec("a", 1), spec("a", 1)]).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("duplicate grid point"));

        // Same key, different content: hard error. The label is content
        // too.
        let conflict = "two different grid points share the key \"a\"; keys must be unique";
        let err = validate_grid(vec![spec("a", 1), spec("a", 2)]).unwrap_err();
        assert_eq!(err.0, conflict);
        let err = validate_grid(vec![spec("a", 1), spec("a", 1).labeled("other")]).unwrap_err();
        assert_eq!(err.0, conflict);
    }

    #[test]
    fn a_panicking_grid_point_fails_the_sweep_and_names_its_key() {
        let argv = small_argv(&["--bf", "1,0", "--window", "1", "--jobs", "2"]);
        let exec = |_: &ParsedArgs| {
            Ok(|spec: &RunSpec| {
                if spec.key.contains("bf0-") {
                    panic!("injected failure for run {}", spec.key);
                }
                RunDigest::from_outcome(&spec.execute())
            })
        };
        let payload = catch_unwind(|| run_sweep(&argv, exec)).unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("amjs sweep: grid point none-bf0-w1-s42 panicked")
        );
    }
}
