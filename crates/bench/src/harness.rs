//! Shared experiment setup and the parallel sweep runners.
//!
//! All experiment binaries use the same machine (Intrepid's geometry),
//! the same seeded month-long synthetic trace, and the same run
//! configurations, so their outputs are directly comparable — exactly
//! like the paper, which runs every policy over the same trace.

use amjs_core::adaptive::AdaptiveScheme;
use amjs_core::runner::{SimulationBuilder, SimulationOutcome};
use amjs_core::scheduler::BackfillMode;
use amjs_core::{par_map, PolicyParams, RunDigest, RunSpec};
use amjs_platform::{BgpCluster, Platform};
use amjs_workload::{Job, WorkloadSpec};

/// The master seed every experiment uses unless overridden on the
/// command line (`--seed N`).
pub const DEFAULT_SEED: u64 = 42;

/// The production backfill depth used by every experiment (Cobalt-like:
/// only the first N queued jobs are backfill candidates; see
/// `amjs_core::Scheduler::backfill_depth` and DESIGN.md §7).
pub const BACKFILL_DEPTH: usize = 16;

/// The classic-EASY protection used by every experiment: only the
/// highest-priority reservation is inviolable (see
/// `amjs_core::Scheduler::easy_protected` and DESIGN.md §4).
pub const EASY_PROTECTED: usize = 1;

/// The paper's machine: Intrepid, 40,960 nodes as 80 midplanes of 512.
pub fn intrepid() -> BgpCluster {
    BgpCluster::intrepid()
}

/// The paper's workload stand-in: one month of Intrepid-like load with
/// the hour-100 burst (see `amjs-workload::synth`).
pub fn intrepid_month_jobs(seed: u64) -> Vec<Job> {
    WorkloadSpec::intrepid_month().generate(seed)
}

/// One simulation configuration in a sweep.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Row label (defaults to the policy label when built via helpers).
    pub label: String,
    /// Static policy (initial policy when adaptive).
    pub policy: PolicyParams,
    /// Backfilling mode.
    pub backfill: BackfillMode,
    /// Adaptive tuning scheme (empty = static).
    pub adaptive: AdaptiveScheme,
}

impl RunConfig {
    /// A static `(BF, W)` configuration with EASY backfilling.
    pub fn fixed(bf: f64, window: usize) -> Self {
        let policy = PolicyParams::new(bf, window);
        RunConfig {
            label: policy.label(),
            policy,
            backfill: BackfillMode::Easy,
            adaptive: AdaptiveScheme::none(),
        }
    }

    /// The paper's "BF Adapt." row.
    pub fn bf_adaptive(threshold_mins: f64) -> Self {
        RunConfig {
            label: "BF Adapt.".to_string(),
            policy: PolicyParams::fcfs(),
            backfill: BackfillMode::Easy,
            adaptive: AdaptiveScheme::bf_adaptive(threshold_mins),
        }
    }

    /// The paper's "W Adapt." row.
    pub fn window_adaptive() -> Self {
        RunConfig {
            label: "W Adapt.".to_string(),
            policy: PolicyParams::fcfs(),
            backfill: BackfillMode::Easy,
            adaptive: AdaptiveScheme::window_adaptive(),
        }
    }

    /// The paper's "2D Adapt." row.
    pub fn two_d_adaptive(threshold_mins: f64) -> Self {
        RunConfig {
            label: "2D Adapt.".to_string(),
            policy: PolicyParams::fcfs(),
            backfill: BackfillMode::Easy,
            adaptive: AdaptiveScheme::two_d(threshold_mins),
        }
    }

    /// Rename the row.
    pub fn named(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Change the backfilling mode.
    pub fn with_backfill(mut self, mode: BackfillMode) -> Self {
        self.backfill = mode;
        self
    }
}

/// Run one configuration on a fresh `platform` over `jobs`.
pub fn run_one<P: Platform>(platform: P, jobs: Vec<Job>, config: &RunConfig) -> SimulationOutcome {
    SimulationBuilder::new(platform, jobs)
        .policy(config.policy)
        .backfill(config.backfill)
        .adaptive(config.adaptive.clone())
        .easy_protected(Some(EASY_PROTECTED))
        .backfill_depth(Some(BACKFILL_DEPTH))
        .label(config.label.clone())
        .run()
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

/// The experiment trace honoring `--fast`.
pub fn experiment_jobs(seed: u64, fast: bool) -> Vec<Job> {
    if fast {
        WorkloadSpec::intrepid_week().generate(seed)
    } else {
        intrepid_month_jobs(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_match_direct_runs_across_worker_counts() {
        use amjs_core::{MachineSpec, PresetName, WorkloadSource};
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

    #[test]
    fn config_helpers_have_paper_labels() {
        assert_eq!(RunConfig::fixed(0.5, 4).label, "BF=0.5/W=4");
        assert_eq!(RunConfig::bf_adaptive(1000.0).label, "BF Adapt.");
        assert_eq!(RunConfig::window_adaptive().label, "W Adapt.");
        assert_eq!(RunConfig::two_d_adaptive(1000.0).label, "2D Adapt.");
    }
}
