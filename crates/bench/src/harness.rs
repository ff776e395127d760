//! Shared experiment setup and the parallel sweep runners.
//!
//! Every experiment run is a [`RunSpec`]: the same machine (Intrepid's
//! geometry), the same seeded month-long synthetic trace
//! ([`experiment_workload`]) and [`RunSpec::new`]'s scheduler defaults,
//! so the binaries' outputs are directly comparable — exactly like the
//! paper, which runs every policy over the same trace. A run that needs
//! a setting no spec field names adds it on [`RunSpec::builder`].

use amjs_core::runner::SimulationOutcome;
use amjs_core::{par_map, PresetName, RunDigest, RunSpec, WorkloadSource};

/// The master seed every experiment uses unless overridden on the
/// command line (`--seed N`).
pub const DEFAULT_SEED: u64 = 42;

/// The paper's workload stand-in: one month of Intrepid-like load with
/// the hour-100 burst (see `amjs-workload::synth`), or the one-week
/// preset under `--fast`.
pub fn experiment_workload(seed: u64, fast: bool) -> WorkloadSource {
    WorkloadSource::Preset {
        name: if fast {
            PresetName::Week
        } else {
            PresetName::Month
        },
        seed,
        load_factor: 1.0,
    }
}

/// Run fully-specified grid points on `workers` threads
/// ([`amjs_core::par_map`]) and keep each run's compact digest, in spec
/// order: the output is byte-identical across worker counts, and
/// `workers == 1` runs them one after another. A panicking run panics
/// the caller.
pub fn run_sweep(specs: &[RunSpec], workers: usize) -> Vec<RunDigest> {
    par_map(specs, workers, |spec| {
        RunDigest::from_outcome(&spec.execute())
    })
}

/// Like [`run_sweep`], but keep every run's *full*
/// [`SimulationOutcome`] (sampled time series included) instead of the
/// compact digest — for the figure binaries, which chart queue-depth
/// and utilization series.
pub fn run_outcomes(specs: &[RunSpec], workers: usize) -> Vec<SimulationOutcome> {
    par_map(specs, workers, RunSpec::execute)
}

/// Parse `--seed N` and `--fast` from command-line arguments (`--jobs`
/// is accepted and ignored: these binaries run one simulation at a
/// time). `--fast` swaps the month trace for the one-week preset so
/// every binary can be smoke-tested quickly; returns `(seed, fast)`.
pub fn parse_args() -> (u64, bool) {
    let (seed, fast, _) = parse_args_with_jobs(1);
    (seed, fast)
}

/// Parse `--seed N`, `--fast`, and `--jobs N`; returns
/// `(seed, fast, workers)`. `default_workers` is what `--jobs` falls
/// back to: the machine's parallelism for throughput sweeps, or 1 for
/// timing experiments (parallel cells contend for cores and contaminate
/// each other's wall-clock numbers).
pub fn parse_args_with_jobs(default_workers: usize) -> (u64, bool, usize) {
    let mut seed = DEFAULT_SEED;
    let mut fast = false;
    let mut workers = default_workers;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed needs an integer"));
                i += 2;
            }
            "--jobs" => {
                workers = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--jobs needs an integer"));
                i += 2;
            }
            "--fast" => {
                fast = true;
                i += 1;
            }
            other => panic!("unknown argument {other:?} (supported: --seed N, --fast, --jobs N)"),
        }
    }
    (seed, fast, workers)
}

/// The machine's available parallelism — the `--jobs` default for
/// throughput sweeps.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_match_direct_runs_across_worker_counts() {
        use amjs_core::{MachineSpec, PolicyParams};
        let specs: Vec<RunSpec> = [(1.0, 1), (0.5, 2), (0.0, 1)]
            .iter()
            .map(|&(bf, w)| {
                RunSpec::new(
                    format!("bf{bf}-w{w}"),
                    MachineSpec::Flat { nodes: 1024 },
                    WorkloadSource::Preset {
                        name: PresetName::Small,
                        seed: 3,
                        load_factor: 1.0,
                    },
                    PolicyParams::new(bf, w),
                )
            })
            .collect();
        let seq = run_outcomes(&specs, 1);
        let par = run_outcomes(&specs, 3);
        assert_eq!(seq.len(), 3);
        for ((spec, a), b) in specs.iter().zip(&seq).zip(&par) {
            assert_eq!(a.summary.label, spec.label, "outcomes in spec order");
            assert_eq!(a.summary, b.summary, "worker count changed an outcome");
            assert_eq!(
                a.queue_depth.points(),
                b.queue_depth.points(),
                "worker count changed a sampled series"
            );
        }
        // The map returns the same result a direct execute gives.
        assert_eq!(seq[1].summary, specs[1].execute().summary);
    }
}
