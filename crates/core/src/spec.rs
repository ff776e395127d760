//! Self-contained run specifications — one grid point of a sweep.
//!
//! A [`RunSpec`] captures *everything* one simulation needs (machine,
//! workload source, policy, failure model, oracle switch) as plain
//! data, so a sweep can fan specs across worker threads with
//! [`par_map`]. [`RunSpec::execute`] is the per-grid-point runner entry
//! point: it regenerates the workload, builds the platform, and runs
//! the simulation to a [`SimulationOutcome`]; [`RunDigest`] is the
//! compact part of that outcome a sweep keeps.

use std::sync::atomic::{AtomicUsize, Ordering};

use amjs_metrics::{FaultDomain, MetricsSummary};
use amjs_obs::Observer;
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_workload::{swf, Job, WorkloadSpec};

use crate::adaptive::AdaptiveScheme;
use crate::estimates::EstimatePolicy;
use crate::failures::{CorrelationSpec, FailureSpec, RetryPolicy};
use crate::runner::{SimulationBuilder, SimulationOutcome};
use crate::scheduler::BackfillMode;
use crate::PolicyParams;

/// The machine one run simulates on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineSpec {
    /// Blue Gene/P-style partitioned machine (`nodes` must be a
    /// positive multiple of 512).
    Bgp {
        /// Total node count.
        nodes: u32,
    },
    /// Idealized flat cluster.
    Flat {
        /// Total node count.
        nodes: u32,
    },
}

impl MachineSpec {
    /// Intrepid: 40,960 nodes as 80 midplanes of 512.
    pub fn intrepid() -> Self {
        MachineSpec::Bgp { nodes: 40_960 }
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        match *self {
            MachineSpec::Bgp { nodes } | MachineSpec::Flat { nodes } => nodes,
        }
    }
}

/// A synthetic workload preset name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PresetName {
    /// One month of Intrepid-like load (`WorkloadSpec::intrepid_month`).
    Month,
    /// One week (`WorkloadSpec::intrepid_week`).
    Week,
    /// The tiny smoke-test trace (`WorkloadSpec::small_test`).
    Small,
}

impl PresetName {
    /// The CLI spelling (`month`/`week`/`small`).
    pub fn as_str(&self) -> &'static str {
        match self {
            PresetName::Month => "month",
            PresetName::Week => "week",
            PresetName::Small => "small",
        }
    }

    /// Inverse of [`PresetName::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        [PresetName::Month, PresetName::Week, PresetName::Small]
            .into_iter()
            .find(|name| name.as_str() == s)
    }

    /// The generator parameters behind the name.
    pub fn spec(&self) -> WorkloadSpec {
        match self {
            PresetName::Month => WorkloadSpec::intrepid_month(),
            PresetName::Week => WorkloadSpec::intrepid_week(),
            PresetName::Small => WorkloadSpec::small_test(),
        }
    }
}

/// Where one run's jobs come from.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSource {
    /// A synthetic preset, regenerated deterministically from the seed.
    Preset {
        /// Which preset.
        name: PresetName,
        /// Generation seed.
        seed: u64,
        /// Arrival-rate scale factor.
        load_factor: f64,
    },
    /// An SWF trace file, read at execution time.
    Swf {
        /// Path to the trace.
        path: String,
    },
}

impl WorkloadSource {
    /// Generate or read the jobs; the error is a one-line diagnostic
    /// (unreadable, unparsable or empty SWF trace).
    pub fn load(&self) -> Result<Vec<Job>, String> {
        match self {
            WorkloadSource::Preset {
                name,
                seed,
                load_factor,
            } => Ok(name.spec().with_load_factor(*load_factor).generate(*seed)),
            WorkloadSource::Swf { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read workload {path:?}: {e}"))?;
                let parsed =
                    swf::parse(&text).map_err(|e| format!("SWF parse error in {path}: {e}"))?;
                if parsed.jobs.is_empty() {
                    return Err(format!("{path}: no usable jobs"));
                }
                Ok(parsed.jobs)
            }
        }
    }
}

/// The adaptive tuning scheme of one run, as plain data (the live
/// [`AdaptiveScheme`] is built at execution time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdaptiveKind {
    /// Static policy — no tuning.
    None,
    /// The paper's "BF Adapt." row.
    Bf {
        /// Queue-depth threshold in minutes.
        threshold: f64,
    },
    /// The paper's "W Adapt." row.
    Window,
    /// The paper's "2D Adapt." row.
    TwoD {
        /// Queue-depth threshold in minutes.
        threshold: f64,
    },
}

impl AdaptiveKind {
    fn scheme(&self) -> AdaptiveScheme {
        match *self {
            AdaptiveKind::None => AdaptiveScheme::none(),
            AdaptiveKind::Bf { threshold } => AdaptiveScheme::bf_adaptive(threshold),
            AdaptiveKind::Window => AdaptiveScheme::window_adaptive(),
            AdaptiveKind::TwoD { threshold } => AdaptiveScheme::two_d(threshold),
        }
    }
}

/// One grid point: a complete, self-contained run description.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Unique identifier within a sweep (the CSV `key` column).
    pub key: String,
    /// Human-facing row label (e.g. `"BF=0.5/W=4"`).
    pub label: String,
    /// The machine.
    pub machine: MachineSpec,
    /// The workload.
    pub workload: WorkloadSource,
    /// Initial `(BF, W)` policy.
    pub policy: PolicyParams,
    /// Backfilling mode.
    pub backfill: BackfillMode,
    /// Backfill candidate depth (`None` = unlimited).
    pub backfill_depth: Option<usize>,
    /// EASY protection depth (`None` = protect every reservation).
    pub easy_protected: Option<usize>,
    /// Adaptive tuning scheme.
    pub adaptive: AdaptiveKind,
    /// Planning walltime policy.
    pub estimates: EstimatePolicy,
    /// Failure injection (`None` = reliable machine).
    pub failures: Option<FailureSpec>,
    /// Retry behavior for failure-killed jobs.
    pub retry: RetryPolicy,
    /// Correlated failure layer.
    pub correlation: Option<CorrelationSpec>,
    /// Force the runtime invariant oracle on in release builds.
    pub oracle: bool,
}

impl RunSpec {
    /// A spec at the experiment defaults: the given machine, workload
    /// and policy, classic EASY backfill protecting the head reservation
    /// only (`easy_protected = Some(1)`, DESIGN.md §4), a Cobalt-like
    /// backfill depth of 16 (DESIGN.md §7), requested walltimes, a
    /// reliable machine and no tuning. Every table and figure of
    /// `amjs-bench` runs this configuration.
    pub fn new(
        key: impl Into<String>,
        machine: MachineSpec,
        workload: WorkloadSource,
        policy: PolicyParams,
    ) -> Self {
        RunSpec {
            key: key.into(),
            label: policy.label(),
            machine,
            workload,
            policy,
            backfill: BackfillMode::Easy,
            backfill_depth: Some(16),
            easy_protected: Some(1),
            adaptive: AdaptiveKind::None,
            estimates: EstimatePolicy::Requested,
            failures: None,
            retry: RetryPolicy::default(),
            correlation: None,
            oracle: false,
        }
    }

    /// Rename the row label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The jobs this spec runs over.
    ///
    /// # Panics
    /// Panics when an SWF workload cannot be read or parsed; a caller
    /// that wants an error instead loads [`RunSpec::workload`] itself.
    pub fn jobs(&self) -> Vec<Job> {
        self.workload.load().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run this grid point to completion (deterministic: the same spec
    /// always produces the same outcome).
    pub fn execute(&self) -> SimulationOutcome {
        self.execute_observed(Observer::disabled()).0
    }

    /// Like [`RunSpec::execute`], with an observer attached (e.g. a
    /// per-run span profiler). The observer must be built on the
    /// calling thread — it is not `Send`.
    pub fn execute_observed(&self, obs: Observer) -> (SimulationOutcome, Observer) {
        self.run(self.jobs(), obs)
    }

    /// Run this spec over `jobs` on the machine it names. The caller
    /// supplies the jobs so it can load them with its own error
    /// handling ([`RunSpec::jobs`] panics) or share one loaded trace
    /// between runs. The flushed observer comes back with the outcome.
    pub fn run(&self, jobs: Vec<Job>, obs: Observer) -> (SimulationOutcome, Observer) {
        match self.machine {
            MachineSpec::Bgp { nodes } => self
                .builder(BgpCluster::new((nodes / 512) as u16, 512), jobs)
                .run_observed(obs),
            MachineSpec::Flat { nodes } => self
                .builder(FlatCluster::new(nodes), jobs)
                .run_observed(obs),
        }
    }

    /// The one path from a spec to the simulator: a builder for `jobs`
    /// on `platform` carrying every setting this spec describes
    /// ([`RunSpec::machine`] is the caller's, through `platform`). A run
    /// that needs a setting no spec field names — a protection style,
    /// a tuning scheme beyond [`AdaptiveKind`], a platform no
    /// [`MachineSpec`] builds, the reference hot path — adds it here.
    pub fn builder<P: Platform>(&self, platform: P, jobs: Vec<Job>) -> SimulationBuilder<P> {
        let mut builder = SimulationBuilder::new(platform, jobs)
            .policy(self.policy)
            .backfill(self.backfill)
            .backfill_depth(self.backfill_depth)
            .easy_protected(self.easy_protected)
            .estimate_policy(self.estimates)
            .failures(self.failures)
            .retry_policy(self.retry)
            .correlated_failures(self.correlation)
            .adaptive(self.adaptive.scheme())
            .label(self.label.clone());
        if self.oracle {
            // Only force the oracle *on*; leave the debug-build default
            // alone otherwise.
            builder = builder.oracle(true);
        }
        builder
    }
}

/// Whole-run numbers distilled from one simulation: the Table-II
/// summary plus the handful of whole-run numbers the experiment
/// binaries aggregate. A full outcome carries every sampled series and
/// per-job record, far too heavy to keep for thousands of runs.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDigest {
    /// The Table-II-style summary.
    pub summary: MetricsSummary,
    /// Mean sampled queue depth in minutes (threshold calibration).
    pub queue_depth_mean: f64,
    /// Job interruptions caused by injected failures.
    pub interrupted_jobs: u64,
    /// Node-hours of progress destroyed by failures.
    pub lost_node_hours: f64,
    /// Smallest sampled in-service fraction of the machine (1.0 on a
    /// reliable machine).
    pub min_availability: f64,
    /// Label of the widest failure domain that actually faulted
    /// (`"-"` without failure injection).
    pub worst_domain: String,
    /// Scheduling passes executed (cost accounting, passes/s).
    pub scheduler_passes: u64,
    /// Jobs started via backfill.
    pub backfilled_starts: u64,
}

impl RunDigest {
    /// Distill an outcome.
    pub fn from_outcome(o: &SimulationOutcome) -> Self {
        let min_availability = o
            .availability
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(1.0f64, f64::min);
        let worst_domain = FaultDomain::ALL
            .iter()
            .rev()
            .find(|&&l| o.domain_downtime.level(l).faults > 0)
            .map(|l| l.label().to_string())
            .unwrap_or_else(|| "-".to_string());
        RunDigest {
            summary: o.summary.clone(),
            queue_depth_mean: o.queue_depth.mean_value().unwrap_or(0.0),
            interrupted_jobs: o.interrupted_jobs,
            lost_node_hours: o.lost_node_hours,
            min_availability,
            worst_domain,
            scheduler_passes: o.scheduler_passes,
            backfilled_starts: o.backfilled_starts,
        }
    }
}

/// `f` over every item on up to `workers` scoped threads, results in
/// item order. Each worker takes the next unclaimed index from one
/// shared cursor, so a slow item never holds up the rest; the results
/// are independent of the worker count whenever `f` is deterministic.
///
/// # Panics
/// If `f` panics, the other workers stop claiming items, every worker
/// is joined, and one panic's payload is resumed on the caller.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // `Relaxed` throughout: the cursor publishes no other data, and the
    // results come back through `join`.
    let cursor = AtomicUsize::new(0);
    let worker = || {
        // Moves the cursor past the end if `f` unwinds.
        struct Stop<'a>(&'a AtomicUsize, usize);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(self.1, Ordering::Relaxed);
                }
            }
        }
        let _stop = Stop(&cursor, items.len());
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, items.len().max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        let mut indexed = Vec::with_capacity(items.len());
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => indexed.extend(done),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        indexed
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_runs_a_small_grid_point() {
        let spec = RunSpec::new(
            "tiny",
            MachineSpec::Flat { nodes: 1024 },
            WorkloadSource::Preset {
                name: PresetName::Small,
                seed: 3,
                load_factor: 1.0,
            },
            PolicyParams::new(0.5, 2),
        );
        let out = spec.execute();
        assert!(out.summary.jobs_completed > 0);
        assert_eq!(out.summary.label, "BF=0.5/W=2");
        // Determinism: the same spec reproduces the same summary.
        assert_eq!(spec.execute().summary, out.summary);
    }

    #[test]
    #[should_panic(expected = "cannot read workload")]
    fn missing_swf_panics_with_a_clear_message() {
        RunSpec::new(
            "gone",
            MachineSpec::Flat { nodes: 64 },
            WorkloadSource::Swf {
                path: "/no/such/trace.swf".to_string(),
            },
            PolicyParams::fcfs(),
        )
        .jobs();
    }

    #[test]
    fn digest_from_a_real_outcome() {
        let spec = RunSpec::new(
            "d",
            MachineSpec::Flat { nodes: 1024 },
            WorkloadSource::Preset {
                name: PresetName::Small,
                seed: 5,
                load_factor: 1.0,
            },
            PolicyParams::fcfs(),
        );
        let out = spec.execute();
        let d = RunDigest::from_outcome(&out);
        assert_eq!(d.summary, out.summary);
        assert_eq!(d.worst_domain, "-");
        assert_eq!(d.min_availability, 1.0);
        assert!(d.scheduler_passes > 0);
    }

    #[test]
    fn par_map_keeps_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..13).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [1, 3, 64] {
            assert_eq!(
                par_map(&items, workers, |i| i * i),
                want,
                "{workers} workers"
            );
        }
        assert!(par_map(&[] as &[u64], 4, |i| i * i).is_empty());
    }

    #[test]
    fn par_map_resumes_a_panic_on_the_caller() {
        let items: Vec<u64> = (0..8).collect();
        let payload = std::panic::catch_unwind(|| {
            par_map(&items, 3, |&i| {
                if i == 5 {
                    panic!("item {i} failed");
                }
                i
            })
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 5 failed");
    }
}
