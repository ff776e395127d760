//! Self-contained run specifications — one grid point of a sweep.
//!
//! A [`RunSpec`] captures *everything* one simulation needs (machine,
//! workload source, policy, failure model, oracle switch) as plain
//! data, so a sweep orchestrator can fan specs across worker threads,
//! fingerprint a whole grid, and serialize it into a durable sweep
//! manifest (see the `amjs-fleet` crate). [`RunSpec::execute`] is the
//! per-grid-point runner entry point: it regenerates the workload,
//! builds the platform, and runs the simulation to a
//! [`SimulationOutcome`].
//!
//! Serialization reuses the workspace snapshot codec
//! ([`amjs_sim::snapshot::SnapWriter`] / [`SnapReader`]): length-
//! prefixed strings, explicit option tags, and a version byte so a
//! manifest written by an older build is rejected loudly rather than
//! misread.

use amjs_obs::Observer;
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_sim::snapshot::{Fnv1a, SnapError, SnapReader, SnapWriter, Snapshot};
use amjs_workload::{swf, Job, WorkloadSpec};

use crate::adaptive::AdaptiveScheme;
use crate::estimates::EstimatePolicy;
use crate::failures::{CorrelationSpec, FailureSpec, RetryPolicy};
use crate::runner::{SimulationBuilder, SimulationOutcome};
use crate::scheduler::BackfillMode;
use crate::PolicyParams;

/// Format version of the [`RunSpec`] encoding.
pub const RUN_SPEC_VERSION: u8 = 1;

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
    /// Unique identifier within a sweep (journal key, CSV column).
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
    /// A minimal spec: the given machine/workload with everything else
    /// at the bench-harness defaults (EASY backfill, depth 16,
    /// protected 1 — see `amjs-bench::harness`).
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
    /// Panics when an SWF workload cannot be read or parsed; sweep
    /// supervisors convert the panic into a structured run failure.
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

    /// Run this spec over `jobs` — the one path from a spec to the
    /// simulator. The caller supplies the jobs so it can load them with
    /// its own error handling ([`RunSpec::jobs`] panics) or share one
    /// loaded trace between runs. The flushed observer comes back with
    /// the outcome.
    pub fn run(&self, jobs: Vec<Job>, obs: Observer) -> (SimulationOutcome, Observer) {
        match self.machine {
            MachineSpec::Bgp { nodes } => {
                self.run_on(BgpCluster::new((nodes / 512) as u16, 512), jobs, obs)
            }
            MachineSpec::Flat { nodes } => self.run_on(FlatCluster::new(nodes), jobs, obs),
        }
    }

    fn run_on<P: Platform + Snapshot>(
        &self,
        platform: P,
        jobs: Vec<Job>,
        obs: Observer,
    ) -> (SimulationOutcome, Observer) {
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
        builder.run_observed(obs)
    }

    /// Append this spec's canonical encoding to a snapshot writer. The
    /// config types write themselves through their own [`Snapshot`]
    /// impls, so each has one encoding workspace-wide.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(RUN_SPEC_VERSION);
        w.put_str(&self.key);
        w.put_str(&self.label);
        match self.machine {
            MachineSpec::Bgp { nodes } => (0u8, nodes).encode(w),
            MachineSpec::Flat { nodes } => (1u8, nodes).encode(w),
        }
        match &self.workload {
            WorkloadSource::Preset {
                name,
                seed,
                load_factor,
            } => {
                w.put_u8(0);
                w.put_str(name.as_str());
                w.put_u64(*seed);
                w.put_f64(*load_factor);
            }
            WorkloadSource::Swf { path } => {
                w.put_u8(1);
                w.put_str(path);
            }
        }
        self.policy.encode(w);
        self.backfill.encode(w);
        self.backfill_depth.encode(w);
        self.easy_protected.encode(w);
        match self.adaptive {
            AdaptiveKind::None => w.put_u8(0),
            AdaptiveKind::Bf { threshold } => (1u8, threshold).encode(w),
            AdaptiveKind::Window => w.put_u8(2),
            AdaptiveKind::TwoD { threshold } => (3u8, threshold).encode(w),
        }
        self.estimates.encode(w);
        self.failures.encode(w);
        // Field by field: `RetryPolicy`'s own codec widens
        // `max_attempts` to u64, this format keeps it u32.
        self.retry.max_attempts.encode(w);
        self.retry.backoff_base.encode(w);
        self.correlation.encode(w);
        w.put_bool(self.oracle);
    }

    /// Decode one spec from a snapshot reader (inverse of
    /// [`RunSpec::encode`]).
    pub fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let version = r.get_u8()?;
        if version != RUN_SPEC_VERSION {
            return Err(SnapError::UnsupportedVersion {
                found: version as u32,
                supported: RUN_SPEC_VERSION as u32,
            });
        }
        let bad_tag = |context, tag: u8| SnapError::BadTag {
            context,
            tag: tag.into(),
        };
        let key = r.get_str()?;
        let label = r.get_str()?;
        let machine = match r.get_u8()? {
            0 => MachineSpec::Bgp {
                nodes: r.get_u32()?,
            },
            1 => MachineSpec::Flat {
                nodes: r.get_u32()?,
            },
            tag => return Err(bad_tag("MachineSpec", tag)),
        };
        let workload = match r.get_u8()? {
            0 => WorkloadSource::Preset {
                name: {
                    let name = r.get_str()?;
                    PresetName::parse(&name)
                        .ok_or_else(|| SnapError::Malformed(format!("unknown preset {name:?}")))?
                },
                seed: r.get_u64()?,
                load_factor: r.get_f64()?,
            },
            1 => WorkloadSource::Swf { path: r.get_str()? },
            tag => return Err(bad_tag("WorkloadSource", tag)),
        };
        let policy = Snapshot::decode(r)?;
        let backfill = Snapshot::decode(r)?;
        let backfill_depth = Snapshot::decode(r)?;
        let easy_protected = Snapshot::decode(r)?;
        let adaptive = match r.get_u8()? {
            0 => AdaptiveKind::None,
            1 => AdaptiveKind::Bf {
                threshold: r.get_f64()?,
            },
            2 => AdaptiveKind::Window,
            3 => AdaptiveKind::TwoD {
                threshold: r.get_f64()?,
            },
            tag => return Err(bad_tag("AdaptiveKind", tag)),
        };
        Ok(RunSpec {
            key,
            label,
            machine,
            workload,
            policy,
            backfill,
            backfill_depth,
            easy_protected,
            adaptive,
            estimates: Snapshot::decode(r)?,
            failures: Snapshot::decode(r)?,
            retry: RetryPolicy {
                max_attempts: Snapshot::decode(r)?,
                backoff_base: Snapshot::decode(r)?,
            },
            correlation: Snapshot::decode(r)?,
            oracle: r.get_bool()?,
        })
    }

    /// Mix this spec's canonical encoding into a fingerprint hasher.
    pub fn fingerprint_into(&self, h: &mut Fnv1a) {
        let mut w = SnapWriter::new();
        self.encode(&mut w);
        h.write(w.as_bytes());
    }
}

/// Fingerprint of a whole grid: the FNV-1a digest of every spec's
/// canonical encoding, in grid order. Two invocations agree on the
/// fingerprint iff they describe the same sweep.
pub fn grid_fingerprint(specs: &[RunSpec]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(specs.len() as u64);
    for spec in specs {
        spec.fingerprint_into(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::{BurstModel, DomainSpec, RepairSpec};
    use amjs_sim::SimDuration;

    fn sample_specs() -> Vec<RunSpec> {
        let plain = RunSpec::new(
            "s1-bf0.5-w2",
            MachineSpec::Flat { nodes: 1024 },
            WorkloadSource::Preset {
                name: PresetName::Small,
                seed: 1,
                load_factor: 1.0,
            },
            PolicyParams::new(0.5, 2),
        );
        let mut fancy = RunSpec::new(
            "s2-2d",
            MachineSpec::intrepid(),
            WorkloadSource::Swf {
                path: "trace.swf".to_string(),
            },
            PolicyParams::fcfs(),
        )
        .labeled("2D Adapt.");
        fancy.adaptive = AdaptiveKind::TwoD { threshold: 1500.0 };
        fancy.estimates = EstimatePolicy::user_adaptive();
        fancy.backfill = BackfillMode::Conservative;
        fancy.failures = Some(FailureSpec {
            node_mtbf: SimDuration::from_hours(87_600),
            repair: RepairSpec::LogNormal {
                mean: SimDuration::from_hours(2),
                sigma: 0.6,
            },
            seed: 7,
        });
        fancy.retry = RetryPolicy {
            max_attempts: Some(5),
            backoff_base: SimDuration::from_mins(5),
        };
        fancy.correlation = Some(CorrelationSpec {
            cascade_prob: 0.3,
            domains: DomainSpec::intrepid(),
            burst: BurstModel::Weibull { shape: 0.7 },
        });
        fancy.oracle = true;
        vec![plain, fancy]
    }

    /// Four specs that between them take every arm of every enum the
    /// codec writes (Preset/Swf, Bgp/Flat, all four `AdaptiveKind`s,
    /// both estimate policies, both repair specs, `max_attempts` and
    /// `backfill_depth` as `Some`/`None`, all three burst models).
    fn every_arm_grid() -> Vec<RunSpec> {
        let mut specs = sample_specs();
        specs.reverse(); // the fully populated spec first
        let mut markov = RunSpec::new(
            "s3-bf",
            MachineSpec::Bgp { nodes: 4096 },
            WorkloadSource::Preset {
                name: PresetName::Month,
                seed: 42,
                load_factor: 1.5,
            },
            PolicyParams::new(0.25, 4),
        );
        markov.adaptive = AdaptiveKind::Bf { threshold: 1000.0 };
        markov.backfill = BackfillMode::None;
        markov.backfill_depth = None;
        markov.easy_protected = None;
        markov.failures = Some(FailureSpec {
            node_mtbf: SimDuration::from_hours(240),
            repair: RepairSpec::Deterministic(SimDuration::from_hours(4)),
            seed: 0xFA11,
        });
        markov.correlation = Some(CorrelationSpec {
            cascade_prob: 0.4,
            domains: DomainSpec {
                midplane_nodes: 256,
                midplanes_per_rack: 4,
                racks_per_power_domain: 2,
            },
            burst: BurstModel::Markov {
                rate_boost: 10.0,
                mean_calm: SimDuration::from_hours(48),
                mean_burst: SimDuration::from_hours(4),
            },
        });
        let mut window = RunSpec::new(
            "s4-w",
            MachineSpec::Flat { nodes: 640 },
            WorkloadSource::Preset {
                name: PresetName::Week,
                seed: 7,
                load_factor: 1.0,
            },
            PolicyParams::sjf(),
        )
        .labeled("BF=0/W=1+wadapt");
        window.adaptive = AdaptiveKind::Window;
        window.correlation = Some(CorrelationSpec {
            cascade_prob: 0.0,
            domains: DomainSpec::intrepid(),
            burst: BurstModel::None,
        });
        specs.extend([markov, window]);
        specs
    }

    /// Pinned at the hand-written codec this one replaced: sweep
    /// manifests and journals written by earlier builds must still
    /// resume, so neither the bytes nor the fingerprint may move.
    #[test]
    fn encoding_and_grid_fingerprint_are_pinned() {
        const GOLDEN_FP: u64 = 0x4593_ce1c_a5a2_f809;
        const GOLDEN_HEX: &str = concat!(
            "01050000000000000073322d3264090000000000000032442041646170742e00",
            "00a0000001090000000000000074726163652e737766000000000000f03f0100",
            "0000000000000201100000000000000001010000000000000003000000000070",
            "974001333333333333d33f9a9999999999b93f010003cc120000000001201c00",
            "0000000000333333333333e33f070000000000000001050000002c0100000000",
            "000001333333333333d33f00020000020000000800000001666666666666e63f",
            "01",
        );
        let specs = every_arm_grid();
        assert_eq!(grid_fingerprint(&specs), GOLDEN_FP);
        let mut w = SnapWriter::new();
        specs[0].encode(&mut w);
        let hex: String = w.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX);
        for spec in &specs {
            let mut w = SnapWriter::new();
            spec.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(
                &RunSpec::decode(&mut SnapReader::new(&bytes)).unwrap(),
                spec
            );
        }
    }

    #[test]
    fn specs_round_trip_through_the_codec() {
        for spec in sample_specs() {
            let mut w = SnapWriter::new();
            spec.encode(&mut w);
            let bytes = w.into_bytes();
            let decoded = RunSpec::decode(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(decoded, spec);
        }
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let specs = sample_specs();
        let fp = grid_fingerprint(&specs);
        assert_eq!(fp, grid_fingerprint(&specs), "fingerprint is deterministic");

        let reversed: Vec<RunSpec> = specs.iter().rev().cloned().collect();
        assert_ne!(fp, grid_fingerprint(&reversed), "order matters");

        let mut tweaked = specs.clone();
        tweaked[0].policy = PolicyParams::new(0.25, 2);
        assert_ne!(fp, grid_fingerprint(&tweaked), "content matters");
    }

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
}
