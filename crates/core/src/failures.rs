//! Failure injection and the node lifecycle — the paper's §V names
//! reliability as the second "system cost" to fold into the balanced
//! metric set, and the authors' own prior work (ref. 21, *Fault-aware,
//! utility-based job scheduling on Blue Gene/P*) schedules around
//! exactly the failures modeled here.
//!
//! The model: node failures arrive as a Poisson process over the whole
//! machine (rate = `total_nodes / node_mtbf`). Each failure hits a
//! uniformly random node and takes its failure quantum (the node on a
//! flat machine, the whole midplane on Blue Gene/P) out of service
//! until a repair completes. If the node belongs to a running job's
//! partition, the job is killed — its progress is lost — and the
//! partition drains: its capacity leaves service the moment the
//! allocation releases. Repair times follow [`RepairSpec`]
//! (deterministic or log-normal around a mean), drawn from the same
//! seeded RNG stream as the failure gaps so a run stays a pure function
//! of `(configuration, seed)`. Killed jobs re-enter the queue under a
//! [`RetryPolicy`]: exponential re-submit backoff and an optional
//! attempt cap after which the job is abandoned. While capacity is out
//! of service, utilization and Loss of Capacity are computed against
//! *available* nodes, so the adaptive tuner reacts to outages.
//!
//! Production failures are not independent: a blown power supply takes
//! a rack, a cooling or bulk-power event takes several racks at once,
//! and failure logs show strong temporal clustering. [`CorrelationSpec`]
//! layers both effects on the base process: each fault *escalates* with
//! probability [`CorrelationSpec::cascade_prob`] into its enclosing
//! [`FaultDomain`] (midplane → rack → power domain → machine, geometry
//! from [`DomainSpec`]), and a [`BurstModel`] replaces the memoryless
//! exponential gap with a Weibull (shape < 1 clusters) or a two-state
//! Markov-modulated rate (calm/burst). Everything still draws from the
//! single seeded stream, so correlated runs stay bit-reproducible, and
//! the default spec is inert — with correlation off the stream is
//! byte-identical to the pre-correlation process.

use amjs_metrics::FaultDomain;
use amjs_sim::rng::Xoshiro256;
use amjs_sim::{SimDuration, SimTime};

/// Repair-time distribution for a failed node's quantum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RepairSpec {
    /// Every repair takes exactly this long.
    Deterministic(SimDuration),
    /// Log-normal repair time with the given mean and shape `sigma`
    /// (sigma of the underlying normal; the scale is solved from the
    /// mean). Captures the heavy tail of hardware replacement.
    LogNormal {
        /// Mean repair duration.
        mean: SimDuration,
        /// Shape parameter of the log-normal (≥ 0).
        sigma: f64,
    },
}

impl RepairSpec {
    /// A production-flavored default: four-hour deterministic repair
    /// (service action + reboot of a midplane).
    pub fn bgp_default() -> Self {
        RepairSpec::Deterministic(SimDuration::from_hours(4))
    }
}

/// Configuration of the failure process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureSpec {
    /// Mean time between failures of a *single node*. Machine-level
    /// failure rate is `total_nodes / node_mtbf`. Production BG/P
    /// observed node MTBFs on the order of years; tens of failures per
    /// month at Intrepid scale.
    pub node_mtbf: SimDuration,
    /// How long a failed quantum stays out of service.
    pub repair: RepairSpec,
    /// Seed of the failure process (independent of the workload seed).
    pub seed: u64,
}

impl FailureSpec {
    /// A production-flavored default: 50-year node MTBF → roughly one
    /// machine-level failure per 10.7 hours on 40,960 nodes, with
    /// four-hour deterministic repairs.
    pub fn bgp_production(seed: u64) -> Self {
        FailureSpec {
            node_mtbf: SimDuration::from_hours(50 * 365 * 24),
            repair: RepairSpec::bgp_default(),
            seed,
        }
    }

    /// Machine-level mean time between failures for `total_nodes`.
    ///
    /// # Panics
    /// Panics on `total_nodes == 0` or a non-positive node MTBF — both
    /// would otherwise poison the process with NaN rates or a
    /// modulo-by-zero victim draw far from the misconfiguration.
    pub fn machine_mtbf_secs(&self, total_nodes: u32) -> f64 {
        assert!(
            total_nodes > 0,
            "failure process needs at least one node (total_nodes = 0)"
        );
        assert!(
            self.node_mtbf.as_secs() > 0,
            "node MTBF must be positive, got {}s",
            self.node_mtbf.as_secs()
        );
        self.node_mtbf.as_secs() as f64 / total_nodes as f64
    }
}

/// Geometry of the correlated failure domains, as node-index spans.
///
/// The machine is viewed as a line of midplanes (the failure quantum on
/// Blue Gene/P) grouped into racks, racks into power domains, and
/// everything into the machine — mirroring Intrepid, where a rack holds
/// two midplanes and a row of racks shares bulk power and cooling.
/// Spans are aligned (a domain starts at a multiple of its width) and
/// clamped to the machine size, so partial trailing domains work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DomainSpec {
    /// Nodes per midplane (the base failure quantum; 512 on BG/P).
    pub midplane_nodes: u32,
    /// Midplanes per rack (2 on BG/P).
    pub midplanes_per_rack: u32,
    /// Racks per power domain (8 — one Intrepid rack row).
    pub racks_per_power_domain: u32,
}

impl DomainSpec {
    /// Intrepid's geometry: 512-node midplanes, 2 per rack, 8 racks per
    /// power domain (one rack row), i.e. 1024-node racks and 8192-node
    /// power domains.
    pub fn intrepid() -> Self {
        DomainSpec {
            midplane_nodes: 512,
            midplanes_per_rack: 2,
            racks_per_power_domain: 8,
        }
    }

    /// Width in nodes of one domain at `level` (`None` for the whole
    /// machine, whose width is the machine itself).
    fn width(&self, level: FaultDomain) -> Option<u32> {
        let midplane = self.midplane_nodes.max(1);
        match level {
            FaultDomain::Midplane => Some(midplane),
            FaultDomain::Rack => Some(midplane.saturating_mul(self.midplanes_per_rack.max(1))),
            FaultDomain::PowerDomain => Some(
                midplane
                    .saturating_mul(self.midplanes_per_rack.max(1))
                    .saturating_mul(self.racks_per_power_domain.max(1)),
            ),
            FaultDomain::Machine => None,
        }
    }

    /// Node-index span `[start, end)` of the `level` domain containing
    /// `node`, clamped to a machine of `total` nodes.
    pub fn span(&self, level: FaultDomain, node: u32, total: u32) -> (u32, u32) {
        match self.width(level) {
            None => (0, total),
            Some(width) => {
                let start = node / width * width;
                (start.min(total), start.saturating_add(width).min(total))
            }
        }
    }
}

impl Default for DomainSpec {
    fn default() -> Self {
        DomainSpec::intrepid()
    }
}

/// Temporal clustering of failure arrivals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BurstModel {
    /// Memoryless exponential gaps — the base Poisson process.
    None,
    /// Weibull inter-arrival gaps with the machine MTBF as mean. Shape
    /// < 1 gives a decreasing hazard — failures cluster right after
    /// failures, matching observed production failure logs; shape = 1
    /// is exactly the exponential.
    Weibull {
        /// Weibull shape parameter (> 0).
        shape: f64,
    },
    /// Two-state Markov-modulated Poisson process: long "calm" phases
    /// at the base rate alternate with short "burst" phases where the
    /// failure rate is multiplied by `rate_boost`.
    Markov {
        /// Rate multiplier while bursting (≥ 1).
        rate_boost: f64,
        /// Mean dwell time of the calm state.
        mean_calm: SimDuration,
        /// Mean dwell time of the burst state.
        mean_burst: SimDuration,
    },
}

/// Correlation layer over the base failure process: spatial escalation
/// across [`DomainSpec`] geometry plus a temporal [`BurstModel`]. The
/// default is fully inert (no cascades, exponential gaps) and leaves
/// the RNG stream byte-identical to the uncorrelated process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrelationSpec {
    /// Per-level escalation probability: a midplane fault becomes a
    /// rack fault with this probability, a rack fault a power-domain
    /// fault, and a power-domain fault a whole-machine outage. 0 = off.
    pub cascade_prob: f64,
    /// Domain geometry the cascade escalates across.
    pub domains: DomainSpec,
    /// Temporal clustering of arrivals.
    pub burst: BurstModel,
}

impl Default for CorrelationSpec {
    fn default() -> Self {
        CorrelationSpec {
            cascade_prob: 0.0,
            domains: DomainSpec::default(),
            burst: BurstModel::None,
        }
    }
}

impl CorrelationSpec {
    /// Whether this spec changes anything relative to the base process.
    pub fn is_active(&self) -> bool {
        self.cascade_prob > 0.0 || !matches!(self.burst, BurstModel::None)
    }
}

/// One drawn fault: the node the failure originated at and the domain
/// level it escalated to. The affected node span comes from
/// [`FailureProcess::fault_span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Uniformly drawn origin node index.
    pub origin: u32,
    /// Escalation level ([`FaultDomain::Midplane`] when no cascade).
    pub level: FaultDomain,
}

/// What happens to a job interrupted by a failure: how long it waits
/// before re-entering the queue and when it is given up on entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *execution attempts* per job (first run plus
    /// re-runs). `None` = retry forever (the pre-lifecycle behavior).
    pub max_attempts: Option<u32>,
    /// Base of the exponential re-submit backoff: after the `k`-th
    /// failure the job re-enters the queue `base * 2^(k-1)` later.
    /// [`SimDuration::ZERO`] re-queues immediately.
    pub backoff_base: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: None,
            backoff_base: SimDuration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// Whether a job that has now failed `failures` times is abandoned
    /// instead of re-queued.
    pub fn abandons_after(&self, failures: u32) -> bool {
        self.max_attempts.is_some_and(|cap| failures >= cap)
    }

    /// Delay before the `failures`-th failure's re-submission
    /// (`failures` ≥ 1). Doubling is capped at 2^20 to avoid overflow
    /// on absurd attempt counts.
    pub fn resubmit_delay(&self, failures: u32) -> SimDuration {
        if self.backoff_base == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let factor = 1i64 << (failures - 1).min(20);
        SimDuration::from_secs(self.backoff_base.as_secs().saturating_mul(factor))
    }
}

/// The runtime state of the failure process: draws inter-arrival gaps,
/// victim nodes, and repair durations deterministically from one
/// seeded stream.
#[derive(Clone, Debug)]
pub struct FailureProcess {
    rng: Xoshiro256,
    machine_mtbf_secs: f64,
    repair: RepairSpec,
    total_nodes: u32,
    correlation: CorrelationSpec,
    /// Markov burst-model state: whether we are in the burst phase and
    /// when the current phase's dwell ends (absolute seconds; negative
    /// until the first gap draw initializes the chain).
    in_burst: bool,
    state_until: f64,
}

impl FailureProcess {
    /// Start the process for a machine of `total_nodes`.
    ///
    /// # Panics
    /// Panics on `total_nodes == 0` or a non-positive node MTBF (see
    /// [`FailureSpec::machine_mtbf_secs`]).
    pub fn new(spec: FailureSpec, total_nodes: u32) -> Self {
        FailureProcess {
            rng: Xoshiro256::seed_from_u64(spec.seed),
            machine_mtbf_secs: spec.machine_mtbf_secs(total_nodes),
            repair: spec.repair,
            total_nodes,
            correlation: CorrelationSpec::default(),
            in_burst: false,
            state_until: -1.0,
        }
    }

    /// Start a correlated process: `new` plus cascade and burst layers.
    ///
    /// # Panics
    /// Panics on the same misconfigurations as [`FailureProcess::new`],
    /// on a cascade probability outside `[0, 1]`, and on degenerate
    /// burst parameters (Weibull shape ≤ 0; Markov boost < 1 or
    /// non-positive dwell means).
    pub fn with_correlation(spec: FailureSpec, corr: CorrelationSpec, total_nodes: u32) -> Self {
        assert!(
            (0.0..=1.0).contains(&corr.cascade_prob),
            "cascade probability must be in [0, 1], got {}",
            corr.cascade_prob
        );
        match corr.burst {
            BurstModel::None => {}
            BurstModel::Weibull { shape } => {
                assert!(shape > 0.0, "Weibull shape must be positive, got {shape}");
            }
            BurstModel::Markov {
                rate_boost,
                mean_calm,
                mean_burst,
            } => {
                assert!(
                    rate_boost >= 1.0,
                    "Markov burst boost must be ≥ 1, got {rate_boost}"
                );
                assert!(
                    mean_calm.as_secs() > 0 && mean_burst.as_secs() > 0,
                    "Markov dwell means must be positive"
                );
            }
        }
        let mut p = FailureProcess::new(spec, total_nodes);
        p.correlation = corr;
        p
    }

    /// The active correlation layer (the inert default for processes
    /// built with [`FailureProcess::new`]).
    pub fn correlation(&self) -> &CorrelationSpec {
        &self.correlation
    }

    /// Draw the next failure instant after `now` (at least one second
    /// later so event times stay distinct). The gap distribution comes
    /// from the [`BurstModel`]: exponential by default, Weibull or
    /// Markov-modulated when bursting is configured.
    pub fn next_failure_after(&mut self, now: SimTime) -> SimTime {
        let gap = match self.correlation.burst {
            BurstModel::None => self.rng.next_exponential(self.machine_mtbf_secs),
            BurstModel::Weibull { shape } => self.rng.next_weibull(shape, self.machine_mtbf_secs),
            BurstModel::Markov {
                rate_boost,
                mean_calm,
                mean_burst,
            } => {
                // Walk the two-state chain: draw an exponential gap at
                // the current state's rate; if it crosses the dwell
                // boundary, jump to the boundary, flip the state and
                // redraw (valid because the exponential is memoryless).
                let mut t = now.as_secs() as f64;
                loop {
                    if self.state_until < t {
                        // (Re)initialize an expired phase; the chain
                        // starts calm.
                        let dwell = if self.in_burst { mean_burst } else { mean_calm };
                        self.state_until =
                            t + self.rng.next_exponential(dwell.as_secs() as f64).max(1.0);
                    }
                    let mean = if self.in_burst {
                        self.machine_mtbf_secs / rate_boost
                    } else {
                        self.machine_mtbf_secs
                    };
                    let gap = self.rng.next_exponential(mean);
                    if t + gap <= self.state_until {
                        break t + gap - now.as_secs() as f64;
                    }
                    t = self.state_until;
                    self.in_burst = !self.in_burst;
                    let dwell = if self.in_burst { mean_burst } else { mean_calm };
                    self.state_until =
                        t + self.rng.next_exponential(dwell.as_secs() as f64).max(1.0);
                }
            }
        };
        now + SimDuration::from_secs((gap.max(1.0)) as i64)
    }

    /// Pick the failing node: uniform over the machine. The caller maps
    /// it onto the platform via `Platform::mark_down`; failures landing
    /// on already-down capacity are absorbed.
    pub fn victim_node(&mut self) -> u32 {
        assert!(
            self.total_nodes > 0,
            "victim_node on a machine with zero nodes"
        );
        self.rng.next_below(self.total_nodes as u64) as u32
    }

    /// Draw one fault: a uniform victim plus its cascade escalation.
    /// With `cascade_prob == 0` this draws exactly one victim from the
    /// stream — byte-identical to calling [`FailureProcess::victim_node`].
    pub fn draw_fault(&mut self) -> Fault {
        let origin = self.victim_node();
        let mut level = FaultDomain::Midplane;
        if self.correlation.cascade_prob > 0.0 {
            while let Some(next) = level.escalated() {
                if !self.rng.next_bool(self.correlation.cascade_prob) {
                    break;
                }
                level = next;
            }
        }
        Fault { origin, level }
    }

    /// Node-index span `[start, end)` affected by `fault` under the
    /// configured domain geometry, clamped to the machine.
    pub fn fault_span(&self, fault: Fault) -> (u32, u32) {
        self.correlation
            .domains
            .span(fault.level, fault.origin, self.total_nodes)
    }

    /// Draw the repair duration for a fresh failure (at least one
    /// second, so the repair event lands strictly after the failure).
    pub fn repair_duration(&mut self) -> SimDuration {
        let secs = match self.repair {
            RepairSpec::Deterministic(d) => d.as_secs() as f64,
            RepairSpec::LogNormal { mean, sigma } => {
                // Solve the scale from the mean: E[X] = exp(mu + s²/2).
                let mu = (mean.as_secs() as f64).max(1.0).ln() - sigma * sigma / 2.0;
                self.rng.next_lognormal(mu, sigma)
            }
        };
        SimDuration::from_secs((secs as i64).max(1))
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs — the failure process is live run state (its RNG
// cursor and Markov phase must survive a resume bit-exactly), the specs
// ride along inside it.
// ---------------------------------------------------------------------------

use amjs_sim::{SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for RepairSpec {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            RepairSpec::Deterministic(d) => {
                w.put_u8(0);
                d.encode(w);
            }
            RepairSpec::LogNormal { mean, sigma } => {
                w.put_u8(1);
                mean.encode(w);
                w.put_f64(sigma);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(RepairSpec::Deterministic(Snapshot::decode(r)?)),
            1 => Ok(RepairSpec::LogNormal {
                mean: Snapshot::decode(r)?,
                sigma: r.get_f64()?,
            }),
            tag => Err(SnapError::BadTag {
                context: "RepairSpec",
                tag: tag.into(),
            }),
        }
    }
}

impl Snapshot for DomainSpec {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u32(self.midplane_nodes);
        w.put_u32(self.midplanes_per_rack);
        w.put_u32(self.racks_per_power_domain);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(DomainSpec {
            midplane_nodes: r.get_u32()?,
            midplanes_per_rack: r.get_u32()?,
            racks_per_power_domain: r.get_u32()?,
        })
    }
}

impl Snapshot for BurstModel {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            BurstModel::None => w.put_u8(0),
            BurstModel::Weibull { shape } => {
                w.put_u8(1);
                w.put_f64(shape);
            }
            BurstModel::Markov {
                rate_boost,
                mean_calm,
                mean_burst,
            } => {
                w.put_u8(2);
                w.put_f64(rate_boost);
                mean_calm.encode(w);
                mean_burst.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(BurstModel::None),
            1 => Ok(BurstModel::Weibull {
                shape: r.get_f64()?,
            }),
            2 => Ok(BurstModel::Markov {
                rate_boost: r.get_f64()?,
                mean_calm: Snapshot::decode(r)?,
                mean_burst: Snapshot::decode(r)?,
            }),
            tag => Err(SnapError::BadTag {
                context: "BurstModel",
                tag: tag.into(),
            }),
        }
    }
}

impl Snapshot for CorrelationSpec {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_f64(self.cascade_prob);
        self.domains.encode(w);
        self.burst.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(CorrelationSpec {
            cascade_prob: r.get_f64()?,
            domains: Snapshot::decode(r)?,
            burst: Snapshot::decode(r)?,
        })
    }
}

impl Snapshot for RetryPolicy {
    fn encode(&self, w: &mut SnapWriter) {
        self.max_attempts.map(u64::from).encode(w);
        self.backoff_base.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let max_attempts: Option<u64> = Snapshot::decode(r)?;
        Ok(RetryPolicy {
            max_attempts: max_attempts.map(|v| v as u32),
            backoff_base: Snapshot::decode(r)?,
        })
    }
}

impl Snapshot for FailureProcess {
    fn encode(&self, w: &mut SnapWriter) {
        self.rng.encode(w);
        w.put_f64(self.machine_mtbf_secs);
        self.repair.encode(w);
        w.put_u32(self.total_nodes);
        self.correlation.encode(w);
        w.put_bool(self.in_burst);
        w.put_f64(self.state_until);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let proc = FailureProcess {
            rng: Snapshot::decode(r)?,
            machine_mtbf_secs: r.get_f64()?,
            repair: Snapshot::decode(r)?,
            total_nodes: r.get_u32()?,
            correlation: Snapshot::decode(r)?,
            in_burst: r.get_bool()?,
            state_until: r.get_f64()?,
        };
        // NaN must fail the check too, hence not `mtbf <= 0.0` alone.
        let mtbf_valid = proc.machine_mtbf_secs > 0.0;
        if proc.total_nodes == 0 || !mtbf_valid {
            return Err(SnapError::Malformed(format!(
                "failure process with {} nodes and machine MTBF {}s",
                proc.total_nodes, proc.machine_mtbf_secs
            )));
        }
        Ok(proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mtbf_hours: i64, seed: u64) -> FailureSpec {
        FailureSpec {
            node_mtbf: SimDuration::from_hours(mtbf_hours),
            repair: RepairSpec::bgp_default(),
            seed,
        }
    }

    #[test]
    fn machine_rate_scales_with_nodes() {
        let spec = spec(1000, 1);
        assert!((spec.machine_mtbf_secs(10) - 360_000.0).abs() < 1e-9);
        assert!((spec.machine_mtbf_secs(1000) - 3_600.0).abs() < 1e-9);
    }

    #[test]
    fn failure_instants_are_increasing_and_deterministic() {
        let spec = spec(100, 9);
        let mut a = FailureProcess::new(spec, 100);
        let mut b = FailureProcess::new(spec, 100);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let ta = a.next_failure_after(now);
            let tb = b.next_failure_after(now);
            assert_eq!(ta, tb);
            assert!(ta > now);
            now = ta;
        }
    }

    #[test]
    fn empirical_rate_matches_mtbf() {
        // 100 nodes at 100-hour node MTBF → machine MTBF = 1 hour.
        let spec = spec(100, 3);
        let mut p = FailureProcess::new(spec, 100);
        let mut now = SimTime::ZERO;
        let mut count = 0u32;
        let horizon = SimTime::from_hours(2000);
        loop {
            now = p.next_failure_after(now);
            if now > horizon {
                break;
            }
            count += 1;
        }
        // Expect ~2000 failures over 2000 machine-MTBF-hours.
        assert!((1800..=2200).contains(&count), "count={count}");
    }

    #[test]
    fn victims_cover_the_machine() {
        let spec = spec(1, 5);
        let mut p = FailureProcess::new(spec, 16);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            seen[p.victim_node() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn production_preset_rate() {
        let spec = FailureSpec::bgp_production(1);
        let mtbf_hours = spec.machine_mtbf_secs(40_960) / 3600.0;
        assert!((10.0..=11.5).contains(&mtbf_hours), "mtbf={mtbf_hours:.1}h");
    }

    #[test]
    fn deterministic_repair_is_exact() {
        let mut p = FailureProcess::new(
            FailureSpec {
                node_mtbf: SimDuration::from_hours(100),
                repair: RepairSpec::Deterministic(SimDuration::from_hours(2)),
                seed: 7,
            },
            64,
        );
        for _ in 0..10 {
            assert_eq!(p.repair_duration(), SimDuration::from_hours(2));
        }
    }

    #[test]
    fn lognormal_repair_matches_mean_and_is_deterministic() {
        let make = || {
            FailureProcess::new(
                FailureSpec {
                    node_mtbf: SimDuration::from_hours(100),
                    repair: RepairSpec::LogNormal {
                        mean: SimDuration::from_hours(4),
                        sigma: 0.8,
                    },
                    seed: 11,
                },
                64,
            )
        };
        let mut a = make();
        let mut b = make();
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let da = a.repair_duration();
            assert_eq!(da, b.repair_duration());
            assert!(da >= SimDuration::from_secs(1));
            sum += da.as_secs() as f64;
        }
        let mean_hours = sum / n as f64 / 3600.0;
        assert!((mean_hours - 4.0).abs() < 0.2, "mean={mean_hours:.2}h");
    }

    #[test]
    fn retry_policy_backoff_doubles() {
        let p = RetryPolicy {
            max_attempts: Some(3),
            backoff_base: SimDuration::from_secs(100),
        };
        assert_eq!(p.resubmit_delay(1), SimDuration::from_secs(100));
        assert_eq!(p.resubmit_delay(2), SimDuration::from_secs(200));
        assert_eq!(p.resubmit_delay(3), SimDuration::from_secs(400));
        assert!(!p.abandons_after(2));
        assert!(p.abandons_after(3));
        assert!(p.abandons_after(4));
    }

    #[test]
    fn default_retry_policy_is_pre_lifecycle_behavior() {
        let p = RetryPolicy::default();
        assert!(!p.abandons_after(1_000_000));
        assert_eq!(p.resubmit_delay(30), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_machine_is_rejected() {
        let _ = spec(100, 1).machine_mtbf_secs(0);
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn non_positive_mtbf_is_rejected() {
        let s = FailureSpec {
            node_mtbf: SimDuration::ZERO,
            repair: RepairSpec::bgp_default(),
            seed: 1,
        };
        let _ = s.machine_mtbf_secs(64);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn process_construction_rejects_zero_nodes() {
        let _ = FailureProcess::new(spec(100, 1), 0);
    }

    #[test]
    fn retry_backoff_saturates_instead_of_wrapping() {
        let p = RetryPolicy {
            max_attempts: None,
            backoff_base: SimDuration::from_secs(i64::MAX / 1000),
        };
        // 2^20 × (i64::MAX / 1000) overflows i64; the delay must pin at
        // the maximum representable duration, not wrap negative.
        let d = p.resubmit_delay(u32::MAX);
        assert_eq!(d.as_secs(), i64::MAX);
        // The doubling exponent itself is capped at 2^20: beyond that
        // every failure count maps to the same delay.
        let q = RetryPolicy {
            max_attempts: None,
            backoff_base: SimDuration::from_secs(1),
        };
        assert_eq!(q.resubmit_delay(21), q.resubmit_delay(4_000));
        assert_eq!(q.resubmit_delay(21).as_secs(), 1 << 20);
    }

    #[test]
    fn zero_max_attempts_abandons_on_first_failure() {
        // `Some(0)` cannot mean "zero executions" (the job already ran
        // when the policy is consulted); it degenerates to `Some(1)`:
        // the first failure abandons the job.
        let zero = RetryPolicy {
            max_attempts: Some(0),
            backoff_base: SimDuration::ZERO,
        };
        let one = RetryPolicy {
            max_attempts: Some(1),
            backoff_base: SimDuration::ZERO,
        };
        assert!(zero.abandons_after(1));
        assert!(one.abandons_after(1));
    }

    fn corr(cascade: f64, burst: BurstModel) -> CorrelationSpec {
        CorrelationSpec {
            cascade_prob: cascade,
            domains: DomainSpec::intrepid(),
            burst,
        }
    }

    #[test]
    fn default_correlation_is_inert_and_stream_compatible() {
        assert!(!CorrelationSpec::default().is_active());
        // Same seed: the plain process and an inert correlated one must
        // produce identical victims and identical gaps.
        let s = spec(100, 17);
        let mut plain = FailureProcess::new(s, 40_960);
        let mut layered = FailureProcess::with_correlation(s, CorrelationSpec::default(), 40_960);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let f = layered.draw_fault();
            assert_eq!(f.level, FaultDomain::Midplane);
            assert_eq!(f.origin, plain.victim_node());
            let t = plain.next_failure_after(now);
            assert_eq!(layered.next_failure_after(now), t);
            now = t;
        }
    }

    #[test]
    fn cascades_escalate_and_stay_deterministic() {
        let s = spec(100, 23);
        let c = corr(0.5, BurstModel::None);
        let mut a = FailureProcess::with_correlation(s, c, 40_960);
        let mut b = FailureProcess::with_correlation(s, c, 40_960);
        let mut counts = [0u32; 4];
        for _ in 0..2_000 {
            let f = a.draw_fault();
            assert_eq!(f, b.draw_fault());
            counts[match f.level {
                FaultDomain::Midplane => 0,
                FaultDomain::Rack => 1,
                FaultDomain::PowerDomain => 2,
                FaultDomain::Machine => 3,
            }] += 1;
        }
        // p = 0.5 → expected shares 50 / 25 / 12.5 / 12.5 %.
        assert!(counts.iter().all(|&c| c > 100), "counts={counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn fault_spans_follow_intrepid_geometry() {
        let d = DomainSpec::intrepid();
        let total = 40_960;
        // Node 5000 sits in midplane 9 (4608..5120), rack 4
        // (4096..5120), power domain 0 (0..8192).
        assert_eq!(d.span(FaultDomain::Midplane, 5000, total), (4608, 5120));
        assert_eq!(d.span(FaultDomain::Rack, 5000, total), (4096, 5120));
        assert_eq!(d.span(FaultDomain::PowerDomain, 5000, total), (0, 8192));
        assert_eq!(d.span(FaultDomain::Machine, 5000, total), (0, total));
        // Spans clamp to machines that end mid-domain.
        assert_eq!(d.span(FaultDomain::PowerDomain, 4000, 4096), (0, 4096));
        assert_eq!(d.span(FaultDomain::Rack, 4000, 4096), (3072, 4096));
    }

    #[test]
    fn weibull_shape_one_matches_exponential_gaps() {
        let s = spec(100, 31);
        let mut exp = FailureProcess::new(s, 1024);
        let mut wei = FailureProcess::with_correlation(
            s,
            corr(0.0, BurstModel::Weibull { shape: 1.0 }),
            1024,
        );
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            let t = exp.next_failure_after(now);
            assert_eq!(wei.next_failure_after(now), t);
            now = t;
        }
    }

    #[test]
    fn sub_one_weibull_shape_clusters_failures() {
        // Shape 0.5 keeps the mean but fattens both tails: many tiny
        // gaps (clusters) plus rare huge ones. Compare the count of
        // sub-(mean/10) gaps against the exponential baseline.
        let s = spec(1000, 41);
        let nodes = 100; // machine MTBF = 10 h
        let short = SimDuration::from_hours(1);
        let count_short = |p: &mut FailureProcess| {
            let mut now = SimTime::ZERO;
            let mut n = 0;
            for _ in 0..4_000 {
                let t = p.next_failure_after(now);
                if t - now <= short {
                    n += 1;
                }
                now = t;
            }
            n
        };
        let mut exp = FailureProcess::new(s, nodes);
        let mut wei = FailureProcess::with_correlation(
            s,
            corr(0.0, BurstModel::Weibull { shape: 0.5 }),
            nodes,
        );
        let base = count_short(&mut exp);
        let clustered = count_short(&mut wei);
        assert!(
            clustered > base * 3 / 2,
            "clustered={clustered} base={base}"
        );
    }

    #[test]
    fn markov_bursts_cluster_failures_and_stay_deterministic() {
        let s = spec(1000, 43);
        let nodes = 100; // machine MTBF = 10 h
        let burst = BurstModel::Markov {
            rate_boost: 20.0,
            mean_calm: SimDuration::from_hours(100),
            mean_burst: SimDuration::from_hours(10),
        };
        let mut a = FailureProcess::with_correlation(s, corr(0.0, burst), nodes);
        let mut b = FailureProcess::with_correlation(s, corr(0.0, burst), nodes);
        let mut now = SimTime::ZERO;
        let mut short = 0u32;
        for _ in 0..4_000 {
            let t = a.next_failure_after(now);
            assert_eq!(b.next_failure_after(now), t);
            assert!(t > now);
            if t - now <= SimDuration::from_hours(1) {
                short += 1;
            }
            now = t;
        }
        // Exponential at 10 h MTBF gives ~9.5% sub-hour gaps; bursts at
        // 20× the rate push well past that.
        assert!(short > 800, "short={short}");
    }

    #[test]
    #[should_panic(expected = "cascade probability")]
    fn cascade_probability_out_of_range_is_rejected() {
        let _ = FailureProcess::with_correlation(spec(100, 1), corr(1.5, BurstModel::None), 64);
    }

    #[test]
    #[should_panic(expected = "Weibull shape")]
    fn non_positive_weibull_shape_is_rejected() {
        let _ = FailureProcess::with_correlation(
            spec(100, 1),
            corr(0.0, BurstModel::Weibull { shape: 0.0 }),
            64,
        );
    }
}
