//! End-to-end simulation: trace in, Table-II numbers and figure series
//! out.
//!
//! This is the reproduction of Cobalt's event-driven simulator (ref. 21 of the paper) as
//! used by the paper: job submissions and terminations drive the event
//! loop; the scheduler runs at every event; a periodic check point
//! (default every 30 simulated minutes, the paper's `Ci`) samples the
//! monitored metrics and lets the adaptive tuners adjust the policy.
//!
//! Per event the runner:
//!
//! * **submission** — enqueues the job, computes its *fair start time*
//!   (no-later-arrivals drain, [`crate::fairshare`]), runs a scheduling
//!   pass, then records a Loss-of-Capacity event;
//! * **termination** — releases the partition, runs a pass, records LoC;
//! * **check point** — samples queue depth, instant and trailing
//!   utilization, and the current `(BF, W)`, runs Algorithm 1's tuner
//!   checks, and re-runs the scheduler if the policy changed.
//!
//! Everything is deterministic: the trace is fixed up front, the event
//! queue breaks ties deterministically, and the scheduler is a pure
//! function of `(now, queue, plan)`. The state the loop moves —
//! `LiveState`, `History`, `RunConfig` — and the one listing that
//! encodes, decodes and hashes it are in `state.rs`.

use amjs_metrics::report::MetricsSummary;
use amjs_metrics::{DomainDowntime, FaultDomain, TimeSeries, UtilizationTracker};
use amjs_obs::{
    LosingPerm, MetricsSampleEv, Observer, RetryOutcome, TraceEvent, TunerTransitionEv,
    WindowChoiceEv,
};
use amjs_platform::plan::Plan;
use amjs_platform::{AllocationId, DrainOutcome, Platform};
use amjs_sim::event::Priority;
use amjs_sim::{Engine, EventQueue, Oracle, RunStats, SimDuration, SimTime, World};
use amjs_workload::{Job, JobId};

use crate::adaptive::{AdaptiveScheme, MonitoredMetric, TunerStep};
use crate::estimates::{EstimateAdjuster, EstimatePolicy};
use crate::failures::{CorrelationSpec, FailureProcess, FailureSpec, RetryPolicy};
use crate::fairshare::{drain_sorted, fair_start_time, Drain};
use crate::passcache::{CacheOutcome, PassCache, PassCacheStats};
use crate::scheduler::{
    BackfillMode, PassScratch, PassTrace, ProtectionStyle, QueuedJob, Scheduler,
};
use crate::state::{History, JobMap, LiveState, Promise, RunConfig, RunMeta};
use crate::PolicyParams;

/// Simulation events (the paper's scheduling events plus the check
/// point). Crate-visible so the persistence layer can snapshot the
/// pending event queue alongside the world.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// Trace job at this index is submitted.
    Submit(usize),
    /// A running job terminates. The generation guards against stale
    /// events after a failure re-queued the job: only the matching
    /// attempt's finish is honored.
    Finish(JobId, u32),
    /// A node fails somewhere in the machine (failure injection).
    Fail,
    /// The failure quantum containing this node returns to service.
    Repair(u32),
    /// A killed job's retry backoff expired; it re-enters the queue.
    Resubmit(usize),
    /// Metric sampling / adaptive tuning check point.
    Tick,
}

/// A live job's bookkeeping.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Running {
    pub(crate) alloc: AllocationId,
    pub(crate) trace_idx: usize,
    /// When this attempt started.
    pub(crate) start: SimTime,
    /// `start + walltime` — what the scheduler believes.
    pub(crate) expected_end: SimTime,
    /// The start was a backfill admission.
    pub(crate) backfilled: bool,
    /// Attempt number; incremented when a failure re-queues the job.
    pub(crate) gen: u32,
}

/// Per-job outcome record (submit/start/end), for trace-level analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job.
    pub id: JobId,
    /// Submission time.
    pub submit: SimTime,
    /// Actual start time.
    pub start: SimTime,
    /// Actual end time (`start + runtime`).
    pub end: SimTime,
    /// Requested nodes.
    pub nodes: u32,
    /// Submitting user.
    pub user: u32,
    /// True if the start was a backfill admission.
    pub backfilled: bool,
}

/// Everything a simulation run produces.
#[derive(Clone, Debug)]
pub struct SimulationOutcome {
    /// Table-II-style summary numbers.
    pub summary: MetricsSummary,
    /// Queue depth (minutes), sampled every check interval — Fig. 4.
    pub queue_depth: TimeSeries,
    /// Instant utilization at each check point — Fig. 5 "instant".
    pub util_instant: TimeSeries,
    /// Trailing 1-hour utilization average — Fig. 5 "1H".
    pub util_1h: TimeSeries,
    /// Trailing 10-hour utilization average — Fig. 5 "10H".
    pub util_10h: TimeSeries,
    /// Trailing 24-hour utilization average — Fig. 5 "24H".
    pub util_24h: TimeSeries,
    /// Balance factor in effect at each check point (flat for static
    /// policies).
    pub bf_series: TimeSeries,
    /// Window size in effect at each check point.
    pub window_series: TimeSeries,
    /// In-service fraction of the machine at each check point (1.0
    /// everywhere when failure injection is off).
    pub availability: TimeSeries,
    /// Out-of-service node count at each check point — the
    /// capacity-collapse view of correlated outages (flat zero without
    /// failure injection).
    pub down_nodes: TimeSeries,
    /// Per-failure-domain accounting: faults, quanta downed, and
    /// injected node-hours at each escalation level (empty without
    /// failure injection).
    pub domain_downtime: DomainDowntime,
    /// Per-job submit/start/end records, in completion order.
    pub per_job: Vec<JobOutcome>,
    /// Jobs dropped at load because they exceed the machine.
    pub skipped_oversized: usize,
    /// Scheduling passes executed (cost accounting).
    pub scheduler_passes: u64,
    /// Jobs started via backfill.
    pub backfilled_starts: u64,
    /// Job interruptions caused by injected failures.
    pub interrupted_jobs: u64,
    /// Node-hours of progress destroyed by failures (work that must be
    /// redone).
    pub lost_node_hours: f64,
    /// How often each hot-path shortcut fired (cost accounting; all
    /// reuse counters are zero under
    /// [`SimulationBuilder::reference_hotpath`]).
    pub hotpath: PassCacheStats,
}

/// Builder for one simulation run.
///
/// ```
/// use amjs_core::runner::SimulationBuilder;
/// use amjs_core::PolicyParams;
/// use amjs_platform::FlatCluster;
/// use amjs_workload::WorkloadSpec;
///
/// let jobs = WorkloadSpec::small_test().generate(1);
/// let outcome = SimulationBuilder::new(FlatCluster::new(1024), jobs)
///     .policy(PolicyParams::new(0.5, 2))
///     .run();
/// assert!(outcome.summary.jobs_completed > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SimulationBuilder<P: Platform> {
    platform: P,
    jobs: Vec<Job>,
    policy: PolicyParams,
    backfill: BackfillMode,
    adaptive: AdaptiveScheme,
    sample_interval: SimDuration,
    plan_depth: usize,
    perm_windows: usize,
    max_permutations: usize,
    easy_protected: Option<usize>,
    backfill_depth: Option<usize>,
    protection: ProtectionStyle,
    failures: Option<FailureSpec>,
    correlation: Option<CorrelationSpec>,
    oracle: Option<bool>,
    retry: RetryPolicy,
    estimate_policy: EstimatePolicy,
    label: Option<String>,
    reference_hotpath: bool,
}

impl<P: Platform> SimulationBuilder<P> {
    /// A run of `jobs` on `platform` with the paper's base policy
    /// (`BF=1/W=1`, EASY backfilling, 30-minute check interval).
    pub fn new(platform: P, jobs: Vec<Job>) -> Self {
        SimulationBuilder {
            platform,
            jobs,
            policy: PolicyParams::fcfs(),
            backfill: BackfillMode::Easy,
            adaptive: AdaptiveScheme::none(),
            sample_interval: SimDuration::from_mins(30),
            plan_depth: 20,
            perm_windows: 2,
            max_permutations: 720,
            easy_protected: None,
            backfill_depth: None,
            protection: ProtectionStyle::PinnedBlocks,
            failures: None,
            correlation: None,
            oracle: None,
            retry: RetryPolicy::default(),
            estimate_policy: EstimatePolicy::Requested,
            label: None,
            reference_hotpath: false,
        }
    }

    /// Set the static policy `(BF, W)`.
    pub fn policy(mut self, policy: PolicyParams) -> Self {
        self.policy = policy;
        self
    }

    /// Set the backfilling mode (default EASY, the prevalent production
    /// configuration per Etsion & Tsafrir).
    pub fn backfill(mut self, mode: BackfillMode) -> Self {
        self.backfill = mode;
        self
    }

    /// Attach an adaptive tuning scheme (its `Ti` values override the
    /// static policy at start).
    pub fn adaptive(mut self, scheme: AdaptiveScheme) -> Self {
        self.adaptive = scheme;
        self
    }

    /// Metric sampling / tuning check interval (paper: 30 minutes).
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        assert!(interval.as_secs() > 0);
        self.sample_interval = interval;
        self
    }

    /// Scheduler pass bounds (see [`Scheduler`] docs).
    pub fn pass_bounds(
        mut self,
        plan_depth: usize,
        perm_windows: usize,
        max_permutations: usize,
    ) -> Self {
        self.plan_depth = plan_depth.max(1);
        self.perm_windows = perm_windows;
        self.max_permutations = max_permutations.max(1);
        self
    }

    /// Override how many leading reservations EASY protects (see
    /// [`Scheduler::easy_protected`]).
    pub fn easy_protected(mut self, k: Option<usize>) -> Self {
        self.easy_protected = k;
        self
    }

    /// Bound the backfill pass to the first `n` queued jobs in priority
    /// order (see [`Scheduler::backfill_depth`]); `None` = unlimited.
    pub fn backfill_depth(mut self, n: Option<usize>) -> Self {
        self.backfill_depth = n;
        self
    }

    /// How strictly backfill admission protects reservations (see
    /// [`ProtectionStyle`]).
    pub fn protection(mut self, style: ProtectionStyle) -> Self {
        self.protection = style;
        self
    }

    /// Inject node failures: a Poisson process over the machine; a
    /// failure inside a running job's partition kills the job, which
    /// loses its progress and returns to the queue (see
    /// [`crate::failures`]).
    pub fn failures(mut self, spec: Option<FailureSpec>) -> Self {
        self.failures = spec;
        self
    }

    /// Layer correlated failure domains over the injection process:
    /// faults escalate (midplane → rack → power domain → machine) with
    /// the spec's cascade probability and arrive in temporal bursts
    /// (see [`CorrelationSpec`]). Ignored unless
    /// [`SimulationBuilder::failures`] is also set. `None` (the
    /// default) keeps the uncorrelated process bit-for-bit.
    pub fn correlated_failures(mut self, spec: Option<CorrelationSpec>) -> Self {
        self.correlation = spec;
        self
    }

    /// Force the runtime invariant oracle on (`true`) or off (`false`).
    /// The oracle re-checks allocator consistency, the job-set
    /// partition, node conservation, and backfill protection after
    /// every event, panicking with a replayable `(failure seed, event
    /// index)` tag on violation. Default: on in debug builds, off in
    /// release.
    pub fn oracle(mut self, enabled: bool) -> Self {
        self.oracle = Some(enabled);
        self
    }

    /// How killed jobs are retried (see [`RetryPolicy`]). The default
    /// retries forever with no backoff — the historical behavior.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// How the scheduler derives planning walltimes from user requests
    /// (see [`crate::estimates`]). Jobs are still killed at their
    /// *requested* walltime regardless.
    pub fn estimate_policy(mut self, policy: EstimatePolicy) -> Self {
        self.estimate_policy = policy;
        self
    }

    /// Run every scheduling pass on the reference path: rebuild and
    /// re-sort the queue from scratch with no pass memo, and drain every
    /// fair start fresh ([`fair_start_time`]). Slower but
    /// structurally simpler — the differential baseline the incremental
    /// hot path must match byte-for-byte (see
    /// `tests/hotpath_identity.rs`).
    pub fn reference_hotpath(mut self, on: bool) -> Self {
        self.reference_hotpath = on;
        self
    }

    /// Label for the summary row (default: policy label, `+adapt` when
    /// tuning is active).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Run the simulation to completion.
    pub fn run(self) -> SimulationOutcome {
        self.run_observed(Observer::disabled()).0
    }

    /// Run the simulation with an attached [`Observer`] — decision
    /// tracing and/or span profiling per its configuration. A disabled
    /// observer makes this exactly [`SimulationBuilder::run`]: every
    /// hook is `Option`-gated, so the outcome is byte-identical and the
    /// hot path allocation-free.
    ///
    /// The observer is returned (flushed) so the caller can read back
    /// its ring buffer or profiler after the run.
    pub fn run_observed(self, mut obs: Observer) -> (SimulationOutcome, Observer) {
        let PreparedRun {
            mut world,
            mut queue,
            meta,
        } = self.prepare();
        let stats = world.run_engine(Engine::new(), &mut queue, &meta, &mut obs);
        obs.finish();
        (finish_run(world, stats.end_time, meta), obs)
    }

    /// Assemble the event-loop state without running it: the world, the
    /// seeded event queue, and the run-level facts the outcome tail
    /// needs. [`SimulationBuilder::run`] is exactly
    /// `prepare` → engine → [`finish_run`]; [`crate::LiveScheduler`]
    /// uses the same pieces, stepping the engine in slices.
    pub(crate) fn prepare(self) -> PreparedRun<P> {
        let label = self.label.clone().unwrap_or_else(|| {
            if self.adaptive.is_active() {
                format!("{}+adapt", self.policy.label())
            } else {
                self.policy.label()
            }
        });

        let total_nodes = self.platform.total_nodes();
        let (jobs, skipped): (Vec<Job>, Vec<Job>) = self
            .jobs
            .into_iter()
            .partition(|j| self.platform.rounded_size(j.nodes) <= total_nodes);
        let skipped_oversized = skipped.len();

        let mut policy = self.policy;
        self.adaptive.apply_initial(&mut policy);
        let mut scheduler = Scheduler::new(policy, self.backfill);
        scheduler.plan_depth = self.plan_depth;
        scheduler.perm_windows = self.perm_windows;
        scheduler.max_permutations = self.max_permutations;
        scheduler.easy_protected = self.easy_protected;
        scheduler.backfill_depth = self.backfill_depth;
        scheduler.protection = self.protection;

        let failure_seed = self.failures.map(|spec| spec.seed);
        let failure_process = self.failures.map(|spec| match self.correlation {
            Some(corr) => FailureProcess::with_correlation(spec, corr, total_nodes),
            None => FailureProcess::new(spec, total_nodes),
        });
        let oracle_enabled = self.oracle.unwrap_or(cfg!(debug_assertions));
        let live = LiveState {
            scheduler,
            queue: Vec::new(),
            running: JobMap::default(),
            promised: Vec::new(),
            last_pass_time: None,
            estimates: EstimateAdjuster::new(self.estimate_policy),
            failure_process,
            util: UtilizationTracker::new(total_nodes, SimTime::ZERO),
            down_track: UtilizationTracker::new(total_nodes, SimTime::ZERO),
            fair_starts: JobMap::default(),
            remaining_submits: jobs.len(),
            pending_resubmits: 0,
            abandoned_jobs: 0,
            finished: 0,
            scheduler_passes: 0,
            backfilled_starts: 0,
            interrupted_jobs: 0,
            lost_node_secs: 0.0,
            generations: JobMap::default(),
            failure_counts: JobMap::default(),
            last_end: SimTime::ZERO,
            platform: self.platform,
            jobs,
        };
        let config = RunConfig {
            adaptive: self.adaptive,
            sample_interval: self.sample_interval,
            retry: self.retry,
        };
        let history = History::new(total_nodes, live.jobs.len());
        let mut world = Runner::cold(live, history, config);
        world.reference_hotpath = self.reference_hotpath;

        let mut queue = EventQueue::with_capacity(world.live.jobs.len() * 2 + 64);
        for (i, job) in world.live.jobs.iter().enumerate() {
            queue.schedule_with(job.submit, Priority::Arrival, Ev::Submit(i));
        }
        if !world.live.jobs.is_empty() {
            queue.schedule_with(
                SimTime::ZERO + world.config.sample_interval,
                Priority::Tick,
                Ev::Tick,
            );
            if let Some(process) = &mut world.live.failure_process {
                let first = process.next_failure_after(SimTime::ZERO);
                queue.schedule_with(first, Priority::Release, Ev::Fail);
            }
        }

        PreparedRun {
            world,
            queue,
            meta: RunMeta {
                label,
                skipped_oversized,
                oracle_enabled,
                failure_seed,
            },
        }
    }
}

/// The assembled event-loop state [`SimulationBuilder::prepare`] hands
/// to the engine: the world, the seeded queue, and the run-level facts.
pub(crate) struct PreparedRun<P: Platform> {
    pub(crate) world: Runner<P>,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) meta: RunMeta,
}

/// Turn a drained world into the [`SimulationOutcome`] —
/// the back half of [`SimulationBuilder::run`], shared verbatim by the
/// resume path so an interrupted run reports byte-identical numbers.
pub(crate) fn finish_run<P: Platform>(
    world: Runner<P>,
    engine_end: SimTime,
    meta: RunMeta,
) -> SimulationOutcome {
    let Runner {
        live,
        history,
        pass_cache,
        ..
    } = world;
    // Abandoned jobs (retry budget exhausted) legitimately never
    // complete; everything else must have drained.
    assert!(
        live.queue.is_empty() && live.running.is_empty() && live.pending_resubmits == 0,
        "simulation ended with live jobs — event wiring bug \
         ({} abandoned jobs are accounted separately)",
        live.abandoned_jobs,
    );

    let total_nodes = live.platform.total_nodes();
    let end = live.last_end.max(engine_end);
    // Utilization and LoC are normalized against *available*
    // node-seconds: installed capacity minus the integral of the
    // out-of-service level, so outages don't read as scheduler
    // inefficiency. With failures off the down integral is exactly
    // zero and both reduce to the classic definitions.
    let busy_int = live.util.busy_node_secs(end);
    let down_int = live.down_track.busy_node_secs(end);
    let available_node_secs = total_nodes as f64 * live.util.elapsed_secs(end) - down_int;
    let loc_percent = match history.loc.event_span() {
        Some((first, last)) if last > first => {
            let span_down =
                live.down_track.busy_node_secs(last) - live.down_track.busy_node_secs(first);
            let denom = total_nodes as f64 * (last - first).as_secs() as f64 - span_down;
            if denom > 0.0 {
                history.loc.lost_node_secs() / denom * 100.0
            } else {
                0.0
            }
        }
        _ => 0.0,
    };
    let summary = MetricsSummary {
        label: meta.label,
        jobs_completed: history.per_job.len(),
        avg_wait_mins: history.wait.mean_mins(),
        max_wait_mins: history.wait.max_mins(),
        unfair_jobs: history.fairness.unfair_count(),
        loc_percent,
        avg_utilization: if available_node_secs > 0.0 {
            busy_int / available_node_secs
        } else {
            0.0
        },
        mean_bounded_slowdown: history.wait.mean_bounded_slowdown(),
        makespan: end - SimTime::ZERO,
        node_downtime_hours: down_int / 3600.0,
        abandoned_jobs: live.abandoned_jobs,
    };
    SimulationOutcome {
        summary,
        queue_depth: history.queue_depth,
        util_instant: history.util_instant,
        util_1h: history.util_1h,
        util_10h: history.util_10h,
        util_24h: history.util_24h,
        bf_series: history.bf_series,
        window_series: history.window_series,
        availability: history.availability,
        down_nodes: history.down_nodes,
        domain_downtime: history.domain_downtime,
        per_job: history.per_job,
        skipped_oversized: meta.skipped_oversized,
        scheduler_passes: live.scheduler_passes,
        backfilled_starts: live.backfilled_starts,
        interrupted_jobs: live.interrupted_jobs,
        lost_node_hours: live.lost_node_secs / 3600.0,
        hotpath: pass_cache.stats,
    }
}

/// The event-loop state. Crate-visible (not `pub`) so the persistence
/// layer can snapshot, hash, and resume it without exposing the loop's
/// internals in the public API. Everything outside `live`, `history`
/// and `config` is transient: in neither codec nor hash, cold after a
/// decode or a fork.
pub(crate) struct Runner<P: Platform> {
    pub(crate) live: LiveState<P>,
    pub(crate) history: History,
    pub(crate) config: RunConfig,
    /// Incremental sorted-queue cache for the scheduling hot path (see
    /// [`crate::passcache`]); a cold cache's first pass is a full
    /// rebuild producing the exact same sorted queue.
    pass_cache: PassCache,
    /// Bumped whenever a plan of the machine could come out different:
    /// an allocation, a release, a node going down or up, a planning
    /// walltime moving. Equal epochs mean "the same machine", the first
    /// precondition for reusing `drain` and `pass_memo` at a later
    /// instant (DESIGN.md §15).
    machine_epoch: u64,
    /// The previous submission's fair-start drain and the epoch it saw.
    drain: Option<(u64, Drain<P::Plan>)>,
    /// The last pass, if it started nothing: a pass with an equal key
    /// would decide the same again.
    pass_memo: PassMemo,
    /// What each pass rebuilds and works in, kept so that a pass
    /// allocates nothing in steady state: the release list and the base
    /// plan made from it, and the pass's own buffers.
    releases: Vec<(AllocationId, SimTime)>,
    base_plan: Option<P::Plan>,
    pass_scratch: PassScratch<P::Plan>,
    /// Bypass the incremental caches: rebuild and re-sort the queue from
    /// scratch every pass, and drain and plan from scratch. The
    /// differential oracle for the hot path — outputs must be
    /// byte-identical either way.
    reference_hotpath: bool,
}

/// Everything a scheduling pass that started nothing depended on.
#[derive(Default)]
struct PassMemo {
    /// The machine epoch and scheduler of that pass; `None` when there
    /// is no such pass to repeat.
    key: Option<(u64, Scheduler)>,
    /// The sorted queue as far as the pass looks at it (its buffer is
    /// kept while the key is `None`).
    head: Vec<QueuedJob>,
}

impl<P: Platform> LiveState<P> {
    /// The machine's short name tag, stored in snapshot metadata so
    /// resume can dispatch to the right concrete platform type.
    pub(crate) fn platform_name(&self) -> &'static str {
        self.platform.name()
    }

    /// The queue as the scheduler sees it. Jobs too large for the
    /// capacity currently in service are held back entirely — planning
    /// them would promise capacity that is down (and the permutation
    /// search treats an unplaceable job as a hard error).
    fn queued_jobs(&self) -> Vec<QueuedJob> {
        self.queue
            .iter()
            .filter(|&&i| self.platform.could_ever_allocate(self.jobs[i].nodes))
            .map(|&i| {
                let j = &self.jobs[i];
                QueuedJob {
                    id: j.id,
                    submit: j.submit,
                    nodes: j.nodes,
                    walltime: self.estimates.planning_walltime(j.user, j.walltime),
                }
            })
            .collect()
    }

    /// Snapshot the machine's future availability into `plan`, in place
    /// when there is one, with `releases` as the lookup's buffer. Jobs
    /// running past their walltime estimate are treated as releasing
    /// "imminently" (now + 1 s), the standard simulator convention.
    fn base_plan_into(
        &self,
        now: SimTime,
        releases: &mut Vec<(AllocationId, SimTime)>,
        plan: &mut Option<P::Plan>,
    ) {
        let soonest = now + SimDuration::from_secs(1);
        releases.clear();
        releases.extend((self.running.values()).map(|r| (r.alloc, r.expected_end.max(soonest))));
        releases.sort_unstable_by_key(|&(alloc, _)| alloc);
        let release = |alloc: AllocationId| -> SimTime {
            let i = releases
                .binary_search_by_key(&alloc, |&(a, _)| a)
                .expect("plan asked about an allocation the runner does not know");
            releases[i].1
        };
        self.platform.plan_into(now, &release, plan);
    }

    /// [`LiveState::base_plan_into`] a new plan.
    fn base_plan(&self, now: SimTime) -> P::Plan {
        let mut plan = None;
        self.base_plan_into(now, &mut Vec::new(), &mut plan);
        plan.expect("a plan was just built")
    }

    /// No running job is past its expected end at `now`, so every
    /// release a plan would see is the job's own `expected_end` rather
    /// than the moving `now + 1 s` clamp — the second precondition for
    /// reusing a plan made at an earlier instant.
    fn releases_are_fixed(&self, now: SimTime) -> bool {
        self.running.values().all(|r| r.expected_end > now)
    }

    /// The attempt number the next start of `job` should carry.
    fn generation_of(&self, job: JobId) -> u32 {
        self.generations.get(&job).copied().unwrap_or(0)
    }

    /// Record the machine's busy and out-of-service levels after any
    /// change to allocations or the down set. "Busy" is measured
    /// against in-service capacity (down nodes are neither busy nor
    /// idle).
    fn note_capacity(&mut self, now: SimTime) {
        let available = self.platform.available_nodes();
        self.util
            .set_busy(now, available - self.platform.idle_nodes());
        self.down_track
            .set_busy(now, self.platform.total_nodes() - available);
    }

    /// Queue depth in minutes: the sum of waiting time accrued so far by
    /// every queued job (paper §IV-A).
    fn queue_depth_mins(&self, now: SimTime) -> f64 {
        self.queue
            .iter()
            .map(|&i| (now - self.jobs[i].submit).max_zero().as_mins_f64())
            .sum()
    }

    /// Debug builds run the real pass behind every memoized one: it must
    /// start nothing and protect exactly what `promised` already holds.
    #[cfg(debug_assertions)]
    fn check_memoized_pass(&self, now: SimTime, sorted: &[QueuedJob]) {
        let base_plan = self.base_plan(now);
        let mut scratch = PassScratch::default();
        let real =
            self.scheduler
                .schedule_pass_sorted(now, sorted, &base_plan, &mut scratch, None, None);
        assert!(real.starts.is_empty(), "memoized pass would start a job");
        let protected: Vec<(JobId, SimTime)> = real
            .reservations
            .iter()
            .filter(|(id, _)| real.protected.contains(id))
            .copied()
            .collect();
        let promised: Vec<(JobId, SimTime)> =
            self.promised.iter().map(|p| (p.id, p.start)).collect();
        assert_eq!(protected, promised, "memoized pass changed a promise");
    }

    /// The oracle's invariant battery, run between events. Returns the
    /// first violated invariant as a diagnostic message.
    pub(crate) fn check_invariants(&self, now: SimTime) -> Result<(), String> {
        // (1) The allocator's own books: pairwise-disjoint live blocks
        // (no double allocation), busy/down/draining mask agreement.
        self.platform.check_consistency()?;

        // (2) No running job intersects a down failure quantum — kills
        // happen inside the same event as the fault, so between events
        // every live allocation runs on in-service capacity only.
        for (id, r) in &self.running {
            if self.platform.allocation_intersects_down(r.alloc) {
                return Err(format!(
                    "running job {id:?} holds an out-of-service quantum"
                ));
            }
        }

        // Runner and platform agree about what is live.
        let mut held: Vec<AllocationId> = self.running.values().map(|r| r.alloc).collect();
        held.sort();
        let live = self.platform.active_allocations();
        if live != held {
            return Err(format!(
                "allocation sets diverge: platform has {} live, runner tracks {}",
                live.len(),
                held.len()
            ));
        }

        // (3) Queued / running / finished (plus not-yet-submitted,
        // backoff-pending, and abandoned) partition the job set.
        let mut seen = std::collections::HashSet::new();
        for &i in &self.queue {
            let id = self.jobs[i].id;
            if !seen.insert(id) {
                return Err(format!("job {id:?} queued twice"));
            }
            if self.running.contains_key(&id) {
                return Err(format!("job {id:?} is both queued and running"));
            }
        }
        let accounted = self.remaining_submits
            + self.queue.len()
            + self.running.len()
            + self.pending_resubmits
            + self.finished
            + self.abandoned_jobs;
        if accounted != self.jobs.len() {
            return Err(format!(
                "job-set partition broken: {accounted} accounted of {} \
                 ({} unsubmitted, {} queued, {} running, {} in backoff, \
                 {} finished, {} abandoned)",
                self.jobs.len(),
                self.remaining_submits,
                self.queue.len(),
                self.running.len(),
                self.pending_resubmits,
                self.finished,
                self.abandoned_jobs,
            ));
        }

        // (4) Node conservation: the machine's busy level is exactly the
        // sum of the running jobs' (rounded) allocations.
        let busy = self.platform.available_nodes() - self.platform.idle_nodes();
        let sum: u64 = self
            .running
            .values()
            .map(|r| self.platform.allocation_size(r.alloc).unwrap_or(0) as u64)
            .sum();
        if busy as u64 != sum {
            return Err(format!(
                "node-seconds conservation broken: {busy} busy vs {sum} allocated"
            ));
        }

        // (5) Backfill never delays the EASY-protected head: right after
        // a scheduling pass, each protected reservation must still be
        // placeable at its promised start. (Checked only at the pass
        // instant — later events legitimately reshape the plan.)
        if self.last_pass_time == Some(now) && !self.promised.is_empty() {
            let plan = self.base_plan(now);
            for p in &self.promised {
                if !self.queue.iter().any(|&i| self.jobs[i].id == p.id) {
                    continue; // started or killed since the pass
                }
                let earliest = plan.earliest_start(p.nodes, p.walltime, now);
                if earliest > p.start {
                    return Err(format!(
                        "backfill delayed EASY-protected job {:?} past its reservation \
                         ({} nodes promised at t={}s, now earliest t={}s)",
                        p.id,
                        p.nodes,
                        p.start.as_secs(),
                        earliest.as_secs()
                    ));
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Live-mode surface (`crate::live`): the event loop is owned by an
    // external driver, so the runner must accept *injected* work — jobs
    // arriving from the outside, cancellations — and answer state
    // queries without draining. Everything below preserves the job-set
    // partition the oracle checks.
    // -----------------------------------------------------------------

    /// 0-based wait-queue position of `id`, if queued.
    pub(crate) fn queue_position(&self, id: JobId) -> Option<usize> {
        self.queue.iter().position(|&i| self.jobs[i].id == id)
    }

    /// `(start, expected_end)` of `id`, if running.
    pub(crate) fn running_span(&self, id: JobId) -> Option<(SimTime, SimTime)> {
        self.running.get(&id).map(|r| (r.start, r.expected_end))
    }

    /// Whether the machine could ever hold a job of this size (admission
    /// guard: an oversized submission would otherwise sit queued
    /// forever).
    pub(crate) fn fits_machine(&self, nodes: u32) -> bool {
        self.platform.rounded_size(nodes) <= self.platform.total_nodes()
    }

    /// Installed machine capacity in nodes.
    pub(crate) fn machine_capacity(&self) -> u32 {
        self.platform.total_nodes()
    }

    /// The full job trace (pre-seeded plus live-admitted).
    pub(crate) fn trace_jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The live policy currently in force.
    pub(crate) fn current_policy(&self) -> crate::PolicyParams {
        self.scheduler.policy
    }

    /// Live occupancy counters:
    /// `(queued, running, finished, abandoned, in_backoff, unsubmitted)`.
    pub(crate) fn occupancy(&self) -> (usize, usize, usize, usize, usize, usize) {
        (
            self.queue.len(),
            self.running.len(),
            self.finished,
            self.abandoned_jobs,
            self.pending_resubmits,
            self.remaining_submits,
        )
    }

    /// The monitored signals for the live dashboard:
    /// `(queue_depth_mins, util_instant, util_1h, util_10h, util_24h,
    /// down_nodes)`.
    pub(crate) fn live_signals(&self, now: SimTime) -> (f64, f64, f64, f64, f64, u64) {
        (
            self.queue_depth_mins(now),
            self.util.instant(now),
            self.util.trailing_avg(now, SimDuration::from_hours(1)),
            self.util.trailing_avg(now, SimDuration::from_hours(10)),
            self.util.trailing_avg(now, SimDuration::from_hours(24)),
            (self.platform.total_nodes() - self.platform.available_nodes()) as u64,
        )
    }
}

impl<P: Platform> Runner<P> {
    /// A runner over the given state with the observer off and every
    /// cache cold — what `prepare`, `decode` and a fork all start from.
    pub(crate) fn cold(live: LiveState<P>, history: History, config: RunConfig) -> Self {
        Runner {
            live,
            history,
            config,
            pass_cache: PassCache::default(),
            machine_epoch: 0,
            drain: None,
            pass_memo: PassMemo::default(),
            releases: Vec::new(),
            base_plan: None,
            pass_scratch: PassScratch::default(),
            reference_hotpath: false,
        }
    }

    /// The state a fork takes with it: a copy of what the next decision
    /// reads, and none of the history.
    pub(crate) fn fork_state(&self) -> (LiveState<P>, RunConfig) {
        (self.live.clone(), self.config.clone())
    }

    /// The runner a decode of this state would give, minus the history.
    pub(crate) fn from_fork(live: LiveState<P>, config: RunConfig) -> Self {
        let history = History::new(live.platform.total_nodes(), 0);
        Runner::cold(live, history, config)
    }

    /// Mirror a newly queued job into the pass cache (a no-op while the
    /// cache is cold). Applies the same too-big-for-current-capacity
    /// filter as [`Runner::queued_jobs`], so the cache's view stays
    /// aligned with a from-scratch rebuild.
    fn cache_push(&mut self, trace_idx: usize) {
        let j = &self.live.jobs[trace_idx];
        if self.live.platform.could_ever_allocate(j.nodes) {
            self.pass_cache.note_push(QueuedJob {
                id: j.id,
                submit: j.submit,
                nodes: j.nodes,
                walltime: self.live.estimates.planning_walltime(j.user, j.walltime),
            });
        }
    }

    /// `target`'s fair start on the hot path: drain over the pass cache's
    /// sorted queue (the pass that follows reuses this very resolve) and
    /// resume the previous submission's drain when the machine is the
    /// same and no release has come due (DESIGN.md §15).
    fn fair_start_resuming(&mut self, target: JobId, now: SimTime, gap_depth: usize) -> SimTime {
        let mut cache = std::mem::take(&mut self.pass_cache);
        cache.presort(now, self.live.scheduler.ordering(), || {
            self.live.queued_jobs()
        });
        let epoch = self.machine_epoch;
        let resumable = self.drain.as_ref().is_some_and(|&(e, _)| e == epoch)
            && self.live.releases_are_fixed(now);
        let mut kept = self.drain.take().map(|(_, d)| d);
        let (live, releases) = (&self.live, &mut self.releases);
        let rebuild = |plan: &mut Option<P::Plan>| live.base_plan_into(now, releases, plan);
        let (fair, reused) = drain_sorted(
            &mut kept,
            resumable,
            rebuild,
            cache.sorted(),
            target,
            now,
            gap_depth,
        );
        if reused > 0 {
            #[cfg(debug_assertions)]
            assert_eq!(
                fair,
                drain_sorted(
                    &mut None,
                    false,
                    |plan| *plan = Some(self.live.base_plan(now)),
                    cache.sorted(),
                    target,
                    now,
                    gap_depth
                )
                .0,
                "resumed drain diverged from a fresh one"
            );
            cache.stats.drains_resumed += 1;
            cache.stats.drain_placements_reused += reused as u64;
        } else {
            cache.stats.drains_fresh += 1;
        }
        self.drain = kept.map(|d| (epoch, d));
        self.pass_cache = cache;
        fair
    }

    /// Kill the running job hit by a node failure: release its
    /// partition, account the lost progress, and hand it to the retry
    /// policy (re-queue now, re-queue after backoff, or abandon).
    fn kill_job(
        &mut self,
        id: JobId,
        now: SimTime,
        events: &mut EventQueue<Ev>,
        obs: &mut Observer,
    ) {
        let running = self
            .live
            .running
            .remove(&id)
            .expect("kill_job victim must be running");
        let freed = self.live.platform.release(running.alloc);
        self.machine_epoch += 1;
        self.live.note_capacity(now);
        let lost = (now - running.start).max_zero();
        let lost_node_s = freed as i64 * lost.as_secs();
        self.live.lost_node_secs += freed as f64 * lost.as_secs() as f64;
        self.live.interrupted_jobs += 1;
        self.live.generations.insert(id, running.gen + 1);
        let failures = {
            let count = self.live.failure_counts.entry(id).or_insert(0);
            *count += 1;
            *count
        };
        let emit_kill = |obs: &mut Observer, outcome: RetryOutcome, delay_s: i64| {
            if obs.tracing() {
                obs.emit(
                    now,
                    TraceEvent::JobKilled {
                        job: id.0,
                        attempt: failures,
                        lost_node_s,
                        outcome,
                        delay_s,
                    },
                );
            }
        };
        if self.config.retry.abandons_after(failures) {
            self.live.abandoned_jobs += 1;
            emit_kill(obs, RetryOutcome::Abandoned, 0);
            return;
        }
        let delay = self.config.retry.resubmit_delay(failures);
        if delay.is_zero() {
            self.live.queue.push(running.trace_idx);
            // A kill only happens under a node fault, so the in-service
            // capacity (and with it the queue filter) just changed.
            self.pass_cache.invalidate();
            emit_kill(obs, RetryOutcome::Requeued, 0);
        } else {
            self.live.pending_resubmits += 1;
            events.schedule_with(
                now + delay,
                Priority::Arrival,
                Ev::Resubmit(running.trace_idx),
            );
            emit_kill(obs, RetryOutcome::Backoff, delay.as_secs());
        }
    }

    /// Run one scheduling pass and start the decided jobs.
    fn run_scheduler(&mut self, now: SimTime, events: &mut EventQueue<Ev>, obs: &mut Observer) {
        self.live.scheduler_passes += 1;
        self.live.last_pass_time = Some(now);
        if self.live.queue.is_empty() {
            self.live.promised.clear();
            self.pass_memo.key = None;
            return;
        }
        let span = obs.prof_enter("schedule_pass");
        let mut trace = if obs.tracing() {
            Some(PassTrace::default())
        } else {
            None
        };
        let decision = if self.reference_hotpath {
            // Differential baseline: rebuild + re-sort the queue from
            // scratch, with no pass memo.
            let queued = self.live.queued_jobs();
            let base_plan = self.live.base_plan(now);
            self.live.scheduler.schedule_pass_traced(
                now,
                &queued,
                &base_plan,
                &mut self.pass_scratch,
                trace.as_mut(),
                obs.profiler(),
            )
        } else {
            // Borrow dance: the cache's rebuild closure needs `&self`
            // (to list the queue), so take the cache out first.
            let mut cache = std::mem::take(&mut self.pass_cache);
            let sort_span = obs.prof_enter("score_sort");
            let outcome = cache.resolve(now, self.live.scheduler.ordering(), || {
                self.live.queued_jobs()
            });
            obs.prof_exit(sort_span);
            if obs.profiler().is_some() {
                // Zero-length marker span: counts cache outcomes in the
                // span table without a dedicated counter channel.
                let name = match outcome {
                    CacheOutcome::Hit => "score_cache_hit",
                    CacheOutcome::Repair => "score_cache_repair",
                    CacheOutcome::Miss => "score_cache_miss",
                };
                let marker = obs.prof_enter(name);
                obs.prof_exit(marker);
            }
            let head = &cache.sorted()[..self.live.scheduler.lookahead(cache.sorted().len())];
            // Pass memo: the previous pass started nothing, and nothing
            // it looked at has changed, so this one would decide the
            // same (DESIGN.md §15) — `promised` stands as it is. Tracing
            // needs the real pass: it emits every decision's reasons.
            let memoized = trace.is_none()
                && (self.pass_memo.key.as_ref())
                    .is_some_and(|(e, s)| *e == self.machine_epoch && *s == self.live.scheduler)
                && self.pass_memo.head == head
                && self.live.releases_are_fixed(now);
            if memoized {
                #[cfg(debug_assertions)]
                self.live.check_memoized_pass(now, cache.sorted());
                cache.stats.passes_memoized += 1;
                self.pass_cache = cache;
                obs.prof_exit(span);
                return;
            }
            let plan_span = obs.prof_enter("plan_build");
            self.live
                .base_plan_into(now, &mut self.releases, &mut self.base_plan);
            obs.prof_exit(plan_span);
            let decision = self.live.scheduler.schedule_pass_sorted(
                now,
                cache.sorted(),
                self.base_plan.as_ref().expect("just rebuilt"),
                &mut self.pass_scratch,
                trace.as_mut(),
                obs.profiler(),
            );
            // (`TimeFlexible` re-places its reservations greedily per
            // backfill candidate, and block choice is not monotone in
            // what is busy, so the lemma does not cover it.)
            let repeatable = decision.starts.is_empty()
                && self.live.scheduler.protection == ProtectionStyle::PinnedBlocks;
            let memo = &mut self.pass_memo;
            memo.key = repeatable.then(|| (self.machine_epoch, self.live.scheduler.clone()));
            if repeatable {
                memo.head.clear();
                memo.head.extend_from_slice(head);
            }
            self.pass_cache = cache;
            decision
        };
        obs.prof_exit(span);
        let stats = &mut self.pass_cache.stats;
        stats.window_searches += decision.window.searches;
        stats.window_placements += decision.window.placements;
        stats.window_bound_exits += decision.window.bound_exits;
        stats.windows_unplanned += decision.window.unplanned;
        if let Some(tr) = trace {
            Self::emit_pass_trace(obs, now, &tr);
        }
        self.live.promised.clear();

        for start in &decision.starts {
            let live = &mut self.live;
            let idx_in_queue = live
                .queue
                .iter()
                .position(|&i| live.jobs[i].id == start.id)
                .expect("scheduler started a job that is not queued");
            let trace_idx = live.queue.remove(idx_in_queue);
            self.pass_cache.note_remove(start.id);
            let job = &live.jobs[trace_idx];

            let alloc = live
                .platform
                .allocate_hinted(job.nodes, start.hint)
                .expect("plan-approved start must allocate on the machine");
            self.machine_epoch += 1;
            let gen = live.generation_of(job.id);
            let planning_walltime = live.estimates.planning_walltime(job.user, job.walltime);
            live.running.insert(
                job.id,
                Running {
                    alloc,
                    trace_idx,
                    start: now,
                    expected_end: now + planning_walltime,
                    backfilled: start.backfilled,
                    gen,
                },
            );
            let remaining = job.runtime.max(SimDuration::from_secs(1));
            events.schedule_with(now + remaining, Priority::Release, Ev::Finish(job.id, gen));

            // Wait and fairness are measured to the first start; a
            // failure re-run carries a later generation and does not
            // re-count — in a fork as well, whose history starts empty.
            if gen == 0 {
                let wait = (now - job.submit).max_zero();
                self.history.wait.record(job.id, wait);
                self.history.wait.record_slowdown(wait, job.runtime);
                let fair = live
                    .fair_starts
                    .remove(&job.id)
                    .unwrap_or_else(|| panic!("no fair start recorded for {}", job.id));
                self.history.fairness.record(job.id, fair, now);
            }
            if start.backfilled {
                live.backfilled_starts += 1;
            }
            if obs.tracing() {
                obs.emit(
                    now,
                    TraceEvent::JobStarted {
                        job: job.id.0,
                        nodes: job.nodes,
                        backfilled: start.backfilled,
                        wait_s: (now - job.submit).max_zero().as_secs(),
                    },
                );
            }
        }
        // Remember what the pass promised its protected queue heads, so
        // the oracle can verify backfill admissions did not steal the
        // reserved capacity.
        let live = &mut self.live;
        for &(id, start) in &decision.reservations {
            if !decision.protected.contains(&id) {
                continue;
            }
            // Reserved jobs necessarily passed the queued_jobs() filter
            // (the pass only saw filtered jobs), so the trace record plus
            // the current estimate model reproduce the QueuedJob fields.
            let Some(&trace_idx) = live.queue.iter().find(|&&i| live.jobs[i].id == id) else {
                continue;
            };
            let (nodes, walltime) = {
                let j = &live.jobs[trace_idx];
                (
                    j.nodes,
                    live.estimates.planning_walltime(j.user, j.walltime),
                )
            };
            live.promised.push(Promise {
                id,
                nodes,
                walltime,
                start,
            });
            if obs.tracing() {
                obs.emit(
                    now,
                    TraceEvent::JobReserved {
                        job: id.0,
                        start_s: start.as_secs(),
                    },
                );
            }
        }
        live.note_capacity(now);
    }

    /// Turn a captured [`PassTrace`] into trace events, in decision
    /// order: scores, window searches, backfill admissions.
    fn emit_pass_trace(obs: &mut Observer, now: SimTime, tr: &PassTrace) {
        for sc in &tr.scores {
            obs.emit(
                now,
                TraceEvent::JobScored {
                    job: sc.job.0,
                    s_w: sc.s_w,
                    s_r: sc.s_r,
                    bf: sc.bf,
                    priority: sc.priority,
                },
            );
        }
        for wt in &tr.windows {
            let ids =
                |order: &[usize]| -> Vec<u64> { order.iter().map(|&i| wt.jobs[i].0).collect() };
            obs.emit(
                now,
                TraceEvent::WindowChoice(Box::new(WindowChoiceEv {
                    window: wt.index as u64,
                    jobs: wt.jobs.iter().map(|j| j.0).collect(),
                    order: ids(&wt.search.chosen),
                    starts_now: wt.search.starts_now as u64,
                    makespan_s: wt.search.makespan.as_secs(),
                    searched: wt.search.searched as u64,
                    fast_path: wt.search.fast_path,
                    losers: wt
                        .search
                        .losers
                        .iter()
                        .map(|l| LosingPerm {
                            order: ids(&l.order),
                            starts_now: l.starts_now as u64,
                            makespan_s: l.makespan.map(|m| m.as_secs()),
                        })
                        .collect(),
                })),
            );
        }
        for &(id, accepted, reason) in &tr.backfill {
            obs.emit(
                now,
                TraceEvent::BackfillDecision {
                    job: id.0,
                    accepted,
                    reason,
                },
            );
        }
    }

    /// Record a Loss-of-Capacity scheduling event (after the pass).
    fn record_loc(&mut self, now: SimTime) {
        let live = &self.live;
        let idle = live.platform.idle_nodes();
        let has_fitting_waiter = live
            .queue
            .iter()
            .any(|&i| live.platform.rounded_size(live.jobs[i].nodes) <= idle);
        self.history.loc.record_event(now, idle, has_fitting_waiter);
    }

    fn sample_metrics(&mut self, now: SimTime, obs: &mut Observer) {
        let live = &self.live;
        let qd = live.queue_depth_mins(now);
        let util_instant = live.util.instant(now);
        let util_1h = live.util.trailing_avg(now, SimDuration::from_hours(1));
        let util_10h = live.util.trailing_avg(now, SimDuration::from_hours(10));
        let util_24h = live.util.trailing_avg(now, SimDuration::from_hours(24));
        let down = live.platform.total_nodes() - live.platform.available_nodes();
        self.history.queue_depth.push(now, qd);
        self.history.util_instant.push(now, util_instant);
        self.history.util_1h.push(now, util_1h);
        self.history.util_10h.push(now, util_10h);
        self.history.util_24h.push(now, util_24h);
        self.history
            .bf_series
            .push(now, live.scheduler.policy.balance_factor);
        self.history
            .window_series
            .push(now, live.scheduler.policy.window as f64);
        self.history.availability.push(
            now,
            live.platform.available_nodes() as f64 / live.platform.total_nodes() as f64,
        );
        self.history.down_nodes.push(now, down as f64);

        if obs.tracing() {
            obs.emit(
                now,
                TraceEvent::MetricsSample(Box::new(MetricsSampleEv {
                    queue_depth_mins: qd,
                    util_instant,
                    util_1h,
                    util_10h,
                    util_24h,
                    down_nodes: down as u64,
                    running: live.running.len() as u64,
                    waiting: live.queue.len() as u64,
                })),
            );
        }
    }

    /// Algorithm 1's check-point body. Returns true if the policy
    /// changed.
    fn run_tuners(&mut self, now: SimTime, obs: &mut Observer) -> bool {
        if !self.config.adaptive.is_active() {
            return false;
        }
        let qd = self.live.queue_depth_mins(now);
        let util = &self.live.util;
        let mut steps: Option<Vec<TunerStep>> = if obs.tracing() {
            Some(Vec::new())
        } else {
            None
        };
        let mut changed = self.config.adaptive.check_traced(
            &mut self.live.scheduler.policy,
            |metric| match *metric {
                MonitoredMetric::QueueDepthMins => qd,
                MonitoredMetric::UtilizationTrend { short, long } => {
                    util.trailing_avg(now, short) - util.trailing_avg(now, long)
                }
            },
            steps.as_mut(),
        );
        if let Some(steps) = steps {
            // Only actual transitions are worth a record; steady-state
            // checks re-fire every interval.
            for s in steps.iter().filter(|s| s.changed) {
                obs.emit(
                    now,
                    TraceEvent::TunerTransition(Box::new(TunerTransitionEv {
                        tunable: s.tunable.tag().to_string(),
                        metric: s.metric.tag().to_string(),
                        value: s.value,
                        threshold: s.threshold,
                        step: s.delta,
                        lo: s.min,
                        hi: s.max,
                        dir: s.dir.tag().to_string(),
                        bf_before: s.before.balance_factor,
                        bf_after: s.after.balance_factor,
                        window_before: s.before.window as u64,
                        window_after: s.after.window as u64,
                    })),
                );
            }
        }
        // dynP-style whole-policy switching, when configured.
        if let Some(ordering) = self
            .config
            .adaptive
            .switched_ordering(self.live.queue.len())
        {
            if self.live.scheduler.ordering_override != Some(ordering) {
                if obs.tracing() {
                    obs.emit(
                        now,
                        TraceEvent::OrderingSwitch {
                            queue_len: self.live.queue.len() as u64,
                            ordering: format!("{ordering:?}"),
                        },
                    );
                }
                self.live.scheduler.ordering_override = Some(ordering);
                changed = true;
            }
        }
        changed
    }

    /// Admit an externally-submitted job at `now`: append it to the
    /// trace, count it as a pending submission, and schedule its
    /// `Submit` event. When the system was idle the self-rescheduling
    /// tick (and failure) chains have died; revive whichever is not
    /// already pending so monitoring and fault injection stay live.
    pub(crate) fn admit_job(
        &mut self,
        now: SimTime,
        mut job: Job,
        events: &mut EventQueue<Ev>,
    ) -> usize {
        job.submit = now;
        let idx = self.live.jobs.len();
        self.live.jobs.push(job);
        self.live.remaining_submits += 1;
        events.schedule_with(now, Priority::Arrival, Ev::Submit(idx));
        if !events.iter().any(|e| matches!(e.payload, Ev::Tick)) {
            events.schedule_with(now + self.config.sample_interval, Priority::Tick, Ev::Tick);
        }
        if let Some(process) = &mut self.live.failure_process {
            if !events.iter().any(|e| matches!(e.payload, Ev::Fail)) {
                let next = process.next_failure_after(now);
                events.schedule_with(next, Priority::Release, Ev::Fail);
            }
        }
        idx
    }

    /// Cancel a *queued* job: remove it from the wait queue and account
    /// it as abandoned (the partition invariant's bucket for jobs that
    /// leave the system without finishing). Returns false when the job
    /// is not currently queued — running, finished, or unknown jobs are
    /// not cancelable through this path.
    pub(crate) fn cancel_queued(&mut self, id: JobId) -> bool {
        match self
            .live
            .queue
            .iter()
            .position(|&i| self.live.jobs[i].id == id)
        {
            Some(pos) => {
                self.live.queue.remove(pos);
                self.pass_cache.note_remove(id);
                self.live.fair_starts.remove(&id);
                self.live.abandoned_jobs += 1;
                true
            }
            None => false,
        }
    }

    /// The finished-job record of `id`, if completed.
    pub(crate) fn outcome_of(&self, id: JobId) -> Option<&JobOutcome> {
        self.history.per_job.iter().find(|o| o.id == id)
    }

    /// Pin the policy for a speculative fork: apply the overrides and
    /// switch adaptive tuning off, so a what-if question ("when would
    /// this start under BF=0.8?") is answered under exactly that policy.
    pub(crate) fn pin_policy(&mut self, bf: Option<f64>, window: Option<usize>) {
        if let Some(bf) = bf {
            self.live.scheduler.policy.balance_factor = bf;
        }
        if let Some(w) = window {
            self.live.scheduler.policy.window = w;
        }
        self.config.adaptive = AdaptiveScheme::none();
    }
}

/// The runtime invariant oracle over a simulation run (ISSUE 2): checks
/// [`Runner::check_invariants`] after every event and panics with a
/// replayable `(failure seed, event index)` tag on the first violation.
/// On by default in debug builds, opt-in via
/// [`SimulationBuilder::oracle`] (CLI `--oracle`) in release.
struct InvariantOracle {
    failure_seed: Option<u64>,
}

impl<P: Platform> Oracle<Observed<'_, P>> for InvariantOracle {
    fn after_event(&mut self, run: &Observed<'_, P>, now: SimTime, event_index: u64) {
        let span = run.obs.prof_enter("oracle_check");
        let verdict = run.world.live.check_invariants(now);
        run.obs.prof_exit(span);
        if let Err(msg) = verdict {
            panic!(
                "invariant violation (replay: failure-seed={}, event_index={event_index}): {msg}",
                self.failure_seed
                    .map_or_else(|| "none".to_string(), |s| s.to_string()),
            );
        }
    }
}

/// One engine run: the [`Runner`] and the [`Observer`] it borrows for
/// the run's length.
struct Observed<'a, P: Platform> {
    world: &'a mut Runner<P>,
    obs: &'a mut Observer,
}

impl<P: Platform> World for Observed<'_, P> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, events: &mut EventQueue<Ev>) {
        self.world.step(now, event, events, self.obs);
    }
}

impl<P: Platform> Runner<P> {
    /// Run `engine` over `queue` with `obs` watching, under the
    /// invariant oracle when `meta` enables it.
    pub(crate) fn run_engine(
        &mut self,
        engine: Engine,
        queue: &mut EventQueue<Ev>,
        meta: &RunMeta,
        obs: &mut Observer,
    ) -> RunStats {
        let mut run = Observed { world: self, obs };
        if meta.oracle_enabled {
            let mut oracle = InvariantOracle {
                failure_seed: meta.failure_seed,
            };
            engine.run_with_oracle(&mut run, queue, &mut oracle)
        } else {
            engine.run(&mut run, queue)
        }
    }

    /// Handle one event.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        event: Ev,
        events: &mut EventQueue<Ev>,
        obs: &mut Observer,
    ) {
        // Event-index bookkeeping: the observer's counter advances once
        // per handled event, so every record emitted below carries the
        // same index the engine reports to oracles.
        obs.begin_event();
        match event {
            Ev::Submit(trace_idx) => {
                self.live.remaining_submits -= 1;
                self.live.queue.push(trace_idx);
                self.cache_push(trace_idx);
                if obs.tracing() {
                    let job = &self.live.jobs[trace_idx];
                    let ev = TraceEvent::JobQueued {
                        job: job.id.0,
                        nodes: job.nodes,
                        walltime_s: job.walltime.as_secs(),
                        resubmit: false,
                    };
                    obs.emit(now, ev);
                }
                let fair_span = obs.prof_enter("fair_start");
                let job = &self.live.jobs[trace_idx];
                let job_id = job.id;
                // On a machine degraded below the job's size the
                // no-later-arrivals drain cannot place it at all;
                // use the submission instant as its fair start (any
                // wait on repairs then counts as unfair treatment).
                let gap_depth = self.live.scheduler.backfill_depth.unwrap_or(usize::MAX);
                let fair = if !self.live.platform.could_ever_allocate(job.nodes) {
                    now
                } else if self.reference_hotpath {
                    // Differential runs sort and drain from scratch
                    // (see `reference_hotpath`).
                    fair_start_time(
                        &self.live.base_plan(now),
                        &self.live.queued_jobs(),
                        job_id,
                        self.live.scheduler.ordering(),
                        now,
                        gap_depth,
                    )
                } else {
                    self.fair_start_resuming(job_id, now, gap_depth)
                };
                let prev = self.live.fair_starts.insert(job_id, fair);
                debug_assert!(prev.is_none(), "duplicate fair start for {job_id}");
                obs.prof_exit(fair_span);
                self.run_scheduler(now, events, obs);
                self.record_loc(now);
            }
            Ev::Finish(id, gen) => {
                // A stale finish (the attempt was killed by a failure)
                // is ignored; the job is queued or re-running by now.
                match self.live.running.get(&id) {
                    Some(r) if r.gen == gen => {}
                    _ => return,
                }
                let running = self
                    .live
                    .running
                    .remove(&id)
                    .expect("finish event for a job that is not running");
                self.live.platform.release(running.alloc);
                // Also covers the estimate update below: planning
                // walltimes may move with it.
                self.machine_epoch += 1;
                self.live.note_capacity(now);
                let job = &self.live.jobs[running.trace_idx];
                self.live
                    .estimates
                    .observe(job.user, job.walltime, job.runtime);
                if self.live.estimates.is_adaptive() {
                    // The completion may have moved the user's accuracy
                    // EMA, which changes queued jobs' planning walltimes.
                    self.pass_cache.invalidate();
                }
                if obs.tracing() {
                    let ev = TraceEvent::JobFinished {
                        job: id.0,
                        nodes: job.nodes,
                        ran_s: (now - running.start).as_secs(),
                    };
                    obs.emit(now, ev);
                }
                self.live.finished += 1;
                self.history.per_job.push(JobOutcome {
                    id,
                    submit: job.submit,
                    // The successful attempt's span.
                    start: running.start,
                    end: now,
                    nodes: job.nodes,
                    user: job.user,
                    backfilled: running.backfilled,
                });
                self.live.last_end = self.live.last_end.max(now);
                self.run_scheduler(now, events, obs);
                self.record_loc(now);
            }
            Ev::Fail => {
                let mut process = self
                    .live
                    .failure_process
                    .take()
                    .expect("Fail event without a failure process");
                // Draw the fault: a uniform victim, escalated across the
                // domain hierarchy when cascades are configured. A
                // midplane-level fault affects exactly the victim's
                // failure quantum (the platform expands the node to the
                // quantum), reproducing the uncorrelated process draw
                // for draw; higher levels sweep the whole domain span,
                // one quantum at a time.
                let fault = process.draw_fault();
                let quantum = self.live.platform.min_allocation().max(1);
                let targets: Vec<(u32, u32)> = if fault.level == FaultDomain::Midplane {
                    vec![(fault.origin, quantum)]
                } else {
                    let (start, end) = process.fault_span(fault);
                    // Top-down so whole-span outages collapse cleanly on
                    // index-fiction platforms (freed capacity compacts
                    // toward low indices as jobs die).
                    let mut t: Vec<(u32, u32)> = (start..end)
                        .step_by(quantum as usize)
                        .map(|n| (n, (end - n).min(quantum)))
                        .collect();
                    t.reverse();
                    t
                };
                // One repair crew visit per fault: every quantum the
                // fault newly takes down returns to service after the
                // same drawn delay (drawn once, on the first hit, which
                // keeps the uncorrelated RNG stream byte-identical).
                let mut repair: Option<SimDuration> = None;
                let mut any_change = false;
                for &(node, nodes_hit) in &targets {
                    let outcome = self.live.platform.mark_down(node);
                    if outcome == DrainOutcome::AlreadyDown {
                        // Already out of service with a repair pending;
                        // this part of the fault is absorbed.
                        continue;
                    }
                    self.machine_epoch += 1;
                    if obs.tracing() {
                        obs.emit(now, TraceEvent::NodeFailed { node: node.into() });
                    }
                    if let DrainOutcome::Draining(alloc) = outcome {
                        // The quantum sits inside a running job's
                        // partition: kill the job (its capacity leaves
                        // service at the release inside kill_job).
                        let id = self
                            .live
                            .running
                            .iter()
                            .find(|(_, r)| r.alloc == alloc)
                            .map(|(&id, _)| id)
                            .expect("draining allocation belongs to a running job");
                        self.kill_job(id, now, events, obs);
                    }
                    let d = *repair.get_or_insert_with(|| process.repair_duration());
                    events.schedule_with(now + d, Priority::Release, Ev::Repair(node));
                    self.history
                        .domain_downtime
                        .record_outage(fault.level, nodes_hit, d);
                    any_change = true;
                }
                self.history.domain_downtime.record_fault(fault.level);
                if any_change {
                    // The down mask grew: jobs previously plannable may
                    // now be held back entirely (and vice versa on
                    // repair), so the cached filtered queue is stale.
                    self.pass_cache.invalidate();
                    self.live.note_capacity(now);
                    self.run_scheduler(now, events, obs);
                    self.record_loc(now);
                }
                // Keep the process alive while there is anything left to
                // interrupt.
                if self.live.remaining_submits > 0
                    || !self.live.queue.is_empty()
                    || !self.live.running.is_empty()
                    || self.live.pending_resubmits > 0
                {
                    let next = process.next_failure_after(now);
                    events.schedule_with(next, Priority::Release, Ev::Fail);
                }
                self.live.failure_process = Some(process);
            }
            Ev::Repair(node) => {
                self.live.platform.mark_up(node);
                self.machine_epoch += 1;
                if obs.tracing() {
                    obs.emit(now, TraceEvent::NodeRepaired { node: node.into() });
                }
                self.pass_cache.invalidate();
                self.live.note_capacity(now);
                // Restored capacity may unblock held-back jobs.
                self.run_scheduler(now, events, obs);
                self.record_loc(now);
            }
            Ev::Resubmit(trace_idx) => {
                self.live.pending_resubmits -= 1;
                self.live.queue.push(trace_idx);
                self.cache_push(trace_idx);
                if obs.tracing() {
                    let job = &self.live.jobs[trace_idx];
                    let ev = TraceEvent::JobQueued {
                        job: job.id.0,
                        nodes: job.nodes,
                        walltime_s: job.walltime.as_secs(),
                        resubmit: true,
                    };
                    obs.emit(now, ev);
                }
                self.run_scheduler(now, events, obs);
                self.record_loc(now);
            }
            Ev::Tick => {
                self.sample_metrics(now, obs);
                if self.run_tuners(now, obs) {
                    self.run_scheduler(now, events, obs);
                }
                // Keep ticking while there is anything left to observe.
                if self.live.remaining_submits > 0
                    || !self.live.queue.is_empty()
                    || !self.live.running.is_empty()
                    || self.live.pending_resubmits > 0
                {
                    events.schedule_with(
                        now + self.config.sample_interval,
                        Priority::Tick,
                        Ev::Tick,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_platform::{BgpCluster, FlatCluster};
    use amjs_workload::WorkloadSpec;

    fn small_jobs(seed: u64) -> Vec<Job> {
        WorkloadSpec::small_test().generate(seed)
    }

    #[test]
    fn all_jobs_complete_on_flat_cluster() {
        let jobs = small_jobs(1);
        let n = jobs.len();
        let out = SimulationBuilder::new(FlatCluster::new(1024), jobs).run();
        assert_eq!(out.summary.jobs_completed, n);
        assert_eq!(out.skipped_oversized, 0);
        assert!(out.summary.avg_utilization > 0.0);
        assert!(out.summary.makespan.as_secs() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = SimulationBuilder::new(FlatCluster::new(1024), small_jobs(2))
            .policy(PolicyParams::new(0.5, 3))
            .run();
        let b = SimulationBuilder::new(FlatCluster::new(1024), small_jobs(2))
            .policy(PolicyParams::new(0.5, 3))
            .run();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.per_job, b.per_job);
        assert_eq!(a.queue_depth, b.queue_depth);
    }

    #[test]
    fn starts_never_precede_submission() {
        let out = SimulationBuilder::new(FlatCluster::new(512), small_jobs(3))
            .policy(PolicyParams::sjf())
            .run();
        for j in &out.per_job {
            assert!(j.start >= j.submit, "{:?}", j);
            assert!(j.end > j.start);
        }
    }

    #[test]
    fn node_conservation_via_utilization_bound() {
        let out = SimulationBuilder::new(FlatCluster::new(256), small_jobs(4)).run();
        for &(_, v) in out.util_instant.points() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn oversized_jobs_are_skipped_not_hung() {
        let mut jobs = small_jobs(5);
        let n = jobs.len();
        // Make one job bigger than the machine.
        jobs[3].nodes = 9999;
        let out = SimulationBuilder::new(FlatCluster::new(1024), jobs).run();
        assert_eq!(out.skipped_oversized, 1);
        assert_eq!(out.summary.jobs_completed, n - 1);
    }

    #[test]
    fn empty_trace_is_a_clean_noop() {
        let out = SimulationBuilder::new(FlatCluster::new(64), Vec::new()).run();
        assert_eq!(out.summary.jobs_completed, 0);
        assert_eq!(out.summary.avg_wait_mins, 0.0);
        assert!(out.queue_depth.is_empty());
    }

    #[test]
    fn bgp_cluster_completes_partition_sized_jobs() {
        // Scale the small-test workload onto a partitioned machine.
        let mut jobs = small_jobs(6);
        for j in &mut jobs {
            j.nodes = (j.nodes * 8).min(4096); // 128..4096 → partition sizes
        }
        let n = jobs.len();
        let out = SimulationBuilder::new(BgpCluster::new(8, 512), jobs).run();
        assert_eq!(out.summary.jobs_completed, n);
    }

    #[test]
    fn sjf_improves_average_wait_over_fcfs() {
        // The core premise of Fig. 3(a): BF=0 (SJF) must cut the average
        // wait vs. BF=1 (FCFS) on a congested machine.
        let jobs = small_jobs(7);
        let fcfs = SimulationBuilder::new(FlatCluster::new(384), jobs.clone())
            .policy(PolicyParams::fcfs())
            .run();
        let sjf = SimulationBuilder::new(FlatCluster::new(384), jobs)
            .policy(PolicyParams::sjf())
            .run();
        assert!(
            sjf.summary.avg_wait_mins < fcfs.summary.avg_wait_mins,
            "SJF {:.1} !< FCFS {:.1}",
            sjf.summary.avg_wait_mins,
            fcfs.summary.avg_wait_mins
        );
        // ...at a fairness cost.
        assert!(
            sjf.summary.unfair_jobs >= fcfs.summary.unfair_jobs,
            "SJF unfair {} < FCFS {}",
            sjf.summary.unfair_jobs,
            fcfs.summary.unfair_jobs
        );
    }

    #[test]
    fn adaptive_bf_tracks_queue_depth() {
        let jobs = small_jobs(8);
        let out = SimulationBuilder::new(FlatCluster::new(384), jobs)
            .adaptive(AdaptiveScheme::bf_adaptive(200.0))
            .run();
        // The tuner must have actually moved BF at some point.
        let bfs: Vec<f64> = out.bf_series.points().iter().map(|&(_, v)| v).collect();
        assert!(bfs.contains(&1.0));
        assert!(
            bfs.contains(&0.5),
            "queue never got deep enough to trigger tuning — bad test workload"
        );
    }

    #[test]
    fn series_share_the_sampling_grid() {
        let out = SimulationBuilder::new(FlatCluster::new(1024), small_jobs(9)).run();
        let n = out.queue_depth.len();
        assert!(n > 0);
        for s in [
            &out.util_instant,
            &out.util_1h,
            &out.util_10h,
            &out.util_24h,
            &out.bf_series,
            &out.window_series,
            &out.availability,
            &out.down_nodes,
        ] {
            assert_eq!(s.len(), n);
        }
    }

    #[test]
    fn failure_free_runs_have_full_availability_and_no_downtime() {
        let out = SimulationBuilder::new(FlatCluster::new(512), small_jobs(19)).run();
        assert_eq!(out.summary.node_downtime_hours, 0.0);
        assert_eq!(out.summary.abandoned_jobs, 0);
        for &(_, v) in out.availability.points() {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn repairs_restore_capacity_and_downtime_is_accounted() {
        use crate::failures::{FailureSpec, RepairSpec};
        let jobs = small_jobs(20);
        let n = jobs.len();
        // Low MTBF + long repairs: the machine must visibly degrade.
        let out = SimulationBuilder::new(FlatCluster::new(640), jobs)
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(120),
                repair: RepairSpec::Deterministic(SimDuration::from_hours(4)),
                seed: 21,
            }))
            .run();
        assert_eq!(out.summary.jobs_completed, n, "repairs must unblock reruns");
        assert!(out.summary.node_downtime_hours > 0.0);
        assert!(
            out.availability.points().iter().any(|&(_, v)| v < 1.0),
            "some sample must catch the machine degraded"
        );
        assert!(out.summary.avg_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn max_attempts_abandons_jobs_instead_of_retrying_forever() {
        use crate::failures::{FailureSpec, RepairSpec, RetryPolicy};
        let jobs = small_jobs(21);
        let n = jobs.len();
        let run = |retry: RetryPolicy| {
            SimulationBuilder::new(FlatCluster::new(640), small_jobs(21))
                .failures(Some(FailureSpec {
                    node_mtbf: SimDuration::from_hours(240),
                    repair: RepairSpec::Deterministic(SimDuration::from_mins(30)),
                    seed: 99,
                }))
                .retry_policy(retry)
                .run()
        };
        let strict = run(RetryPolicy {
            max_attempts: Some(1),
            backoff_base: SimDuration::ZERO,
        });
        assert!(strict.interrupted_jobs > 0);
        assert!(
            strict.summary.abandoned_jobs > 0,
            "first failure must abandon"
        );
        assert_eq!(
            strict.summary.jobs_completed + strict.summary.abandoned_jobs,
            jobs.len()
        );
        let lenient = run(RetryPolicy::default());
        assert_eq!(lenient.summary.jobs_completed, n);
        assert_eq!(lenient.summary.abandoned_jobs, 0);
    }

    #[test]
    fn retry_backoff_delays_reruns_but_everything_completes() {
        use crate::failures::{FailureSpec, RepairSpec, RetryPolicy};
        let jobs = small_jobs(22);
        let n = jobs.len();
        let spec = FailureSpec {
            node_mtbf: SimDuration::from_hours(240),
            repair: RepairSpec::Deterministic(SimDuration::from_mins(30)),
            seed: 13,
        };
        let run = |backoff| {
            SimulationBuilder::new(FlatCluster::new(640), small_jobs(22))
                .failures(Some(spec))
                .retry_policy(RetryPolicy {
                    max_attempts: None,
                    backoff_base: backoff,
                })
                .run()
        };
        let delayed = run(SimDuration::from_mins(20));
        assert_eq!(delayed.summary.jobs_completed, n);
        assert!(delayed.interrupted_jobs > 0);
        // Backoff holds reruns out of the queue, so it can only push the
        // makespan out relative to immediate re-queueing.
        let immediate = run(SimDuration::ZERO);
        assert_eq!(immediate.summary.jobs_completed, n);
        assert!(delayed.summary.makespan >= immediate.summary.makespan);
    }

    #[test]
    fn lifecycle_runs_are_byte_identical() {
        use crate::failures::{FailureSpec, RepairSpec, RetryPolicy};
        let run = || {
            SimulationBuilder::new(FlatCluster::new(512), small_jobs(23))
                .failures(Some(FailureSpec {
                    node_mtbf: SimDuration::from_hours(200),
                    repair: RepairSpec::LogNormal {
                        mean: SimDuration::from_hours(2),
                        sigma: 1.0,
                    },
                    seed: 31,
                }))
                .retry_policy(RetryPolicy {
                    max_attempts: Some(3),
                    backoff_base: SimDuration::from_mins(5),
                })
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary.csv_row(), b.summary.csv_row());
        assert_eq!(a.per_job, b.per_job);
        assert_eq!(a.availability, b.availability);
    }

    #[test]
    fn wait_stats_match_per_job_records() {
        let out = SimulationBuilder::new(FlatCluster::new(512), small_jobs(10)).run();
        let mean_from_records: f64 = out
            .per_job
            .iter()
            .map(|j| (j.start - j.submit).as_mins_f64())
            .sum::<f64>()
            / out.per_job.len() as f64;
        assert!((mean_from_records - out.summary.avg_wait_mins).abs() < 1e-6);
    }

    #[test]
    fn failures_interrupt_but_everything_still_completes() {
        use crate::failures::{FailureSpec, RepairSpec};
        let jobs = small_jobs(12);
        let n = jobs.len();
        // Aggressive failure rate so interruptions definitely occur on a
        // 12-hour trace: machine MTBF ≈ 22 minutes.
        let spec = FailureSpec {
            node_mtbf: SimDuration::from_hours(240),
            repair: RepairSpec::Deterministic(SimDuration::from_mins(30)),
            seed: 99,
        };
        let out = SimulationBuilder::new(FlatCluster::new(640), jobs)
            .failures(Some(spec))
            .run();
        assert_eq!(out.summary.jobs_completed, n, "re-runs must finish");
        assert!(out.interrupted_jobs > 0, "no interruptions at this rate?");
        assert!(out.lost_node_hours > 0.0);
        // Interruptions lengthen the makespan vs the failure-free run.
        let clean = SimulationBuilder::new(FlatCluster::new(640), small_jobs(12)).run();
        assert!(out.summary.makespan >= clean.summary.makespan);
        assert_eq!(clean.interrupted_jobs, 0);
        assert_eq!(clean.lost_node_hours, 0.0);
    }

    #[test]
    fn failure_runs_are_deterministic() {
        use crate::failures::{FailureSpec, RepairSpec};
        let spec = FailureSpec {
            node_mtbf: SimDuration::from_hours(300),
            repair: RepairSpec::LogNormal {
                mean: SimDuration::from_hours(1),
                sigma: 0.7,
            },
            seed: 7,
        };
        let run = || {
            SimulationBuilder::new(FlatCluster::new(512), small_jobs(13))
                .failures(Some(spec))
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.interrupted_jobs, b.interrupted_jobs);
        assert_eq!(a.per_job, b.per_job);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn estimate_adjustment_changes_schedule_but_completes_everything() {
        use crate::estimates::EstimatePolicy;
        let jobs = small_jobs(16);
        let n = jobs.len();
        // 640 nodes: congested but nothing oversized (max class is 512).
        let raw = SimulationBuilder::new(FlatCluster::new(640), jobs.clone()).run();
        let adjusted = SimulationBuilder::new(FlatCluster::new(640), jobs)
            .estimate_policy(EstimatePolicy::user_adaptive())
            .run();
        assert_eq!(raw.summary.jobs_completed, n);
        assert_eq!(adjusted.summary.jobs_completed, n);
        // Tighter estimates must change the schedule on a congested
        // machine (if they never did, the wiring would be dead).
        assert_ne!(raw.per_job, adjusted.per_job);
    }

    #[test]
    fn inert_correlation_reproduces_the_uncorrelated_run_exactly() {
        use crate::failures::{CorrelationSpec, FailureSpec, RepairSpec};
        let spec = FailureSpec {
            node_mtbf: SimDuration::from_hours(240),
            repair: RepairSpec::Deterministic(SimDuration::from_mins(30)),
            seed: 77,
        };
        let plain = SimulationBuilder::new(FlatCluster::new(640), small_jobs(25))
            .failures(Some(spec))
            .run();
        let layered = SimulationBuilder::new(FlatCluster::new(640), small_jobs(25))
            .failures(Some(spec))
            .correlated_failures(Some(CorrelationSpec::default()))
            .run();
        assert_eq!(plain.per_job, layered.per_job);
        assert_eq!(plain.summary, layered.summary);
        assert_eq!(plain.availability, layered.availability);
        // The uncorrelated process reports every fault at midplane level.
        assert_eq!(
            layered.domain_downtime.total_faults(),
            layered
                .domain_downtime
                .level(amjs_metrics::FaultDomain::Midplane)
                .faults
        );
    }

    #[test]
    fn cascades_take_whole_domains_down_and_everything_still_completes() {
        use crate::failures::{BurstModel, CorrelationSpec, DomainSpec, FailureSpec, RepairSpec};
        let mut jobs = small_jobs(26);
        for j in &mut jobs {
            j.nodes = (j.nodes * 8).min(2048);
        }
        let n = jobs.len();
        let corr = CorrelationSpec {
            cascade_prob: 0.4,
            domains: DomainSpec::intrepid(),
            burst: BurstModel::Weibull { shape: 0.7 },
        };
        let out = SimulationBuilder::new(BgpCluster::new(8, 512), jobs)
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(2000),
                repair: RepairSpec::Deterministic(SimDuration::from_mins(30)),
                seed: 11,
            }))
            .correlated_failures(Some(corr))
            .oracle(true)
            .run();
        assert_eq!(out.summary.jobs_completed, n, "reruns must finish");
        let dd = &out.domain_downtime;
        assert!(dd.total_faults() > 0);
        assert!(
            dd.total_faults() > dd.level(amjs_metrics::FaultDomain::Midplane).faults,
            "at cascade 0.4 some fault must escalate past midplane"
        );
        assert!(dd.total_node_hours() > 0.0);
        assert!(!dd.render_table().is_empty());
        // The capacity-collapse series must catch a multi-midplane dip.
        let worst = out.down_nodes.max_value().unwrap_or(0.0);
        assert!(worst >= 1024.0, "worst collapse {worst} < one rack");
    }

    #[test]
    fn cascaded_runs_are_byte_identical() {
        use crate::failures::{BurstModel, CorrelationSpec, DomainSpec, FailureSpec, RepairSpec};
        let run = || {
            let mut jobs = small_jobs(27);
            for j in &mut jobs {
                j.nodes = (j.nodes * 8).min(2048);
            }
            SimulationBuilder::new(BgpCluster::new(8, 512), jobs)
                .failures(Some(FailureSpec {
                    node_mtbf: SimDuration::from_hours(1500),
                    repair: RepairSpec::LogNormal {
                        mean: SimDuration::from_hours(1),
                        sigma: 0.6,
                    },
                    seed: 301,
                }))
                .correlated_failures(Some(CorrelationSpec {
                    cascade_prob: 0.3,
                    domains: DomainSpec::intrepid(),
                    burst: BurstModel::Markov {
                        rate_boost: 10.0,
                        mean_calm: SimDuration::from_hours(48),
                        mean_burst: SimDuration::from_hours(4),
                    },
                }))
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary.csv_row(), b.summary.csv_row());
        assert_eq!(a.per_job, b.per_job);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.down_nodes, b.down_nodes);
        assert_eq!(
            a.domain_downtime.render_table(),
            b.domain_downtime.render_table()
        );
    }

    /// A delegating platform that forges a duplicate live block after
    /// the N-th allocation — the seeded bug the oracle must catch.
    #[derive(Clone)]
    struct EvilPlatform {
        inner: BgpCluster,
        allocs: u32,
        corrupt_at: u32,
    }

    impl Platform for EvilPlatform {
        type Plan = <BgpCluster as Platform>::Plan;
        fn name(&self) -> &'static str {
            "evil-bgp"
        }
        fn total_nodes(&self) -> u32 {
            self.inner.total_nodes()
        }
        fn idle_nodes(&self) -> u32 {
            self.inner.idle_nodes()
        }
        fn min_allocation(&self) -> u32 {
            self.inner.min_allocation()
        }
        fn rounded_size(&self, nodes: u32) -> u32 {
            self.inner.rounded_size(nodes)
        }
        fn can_allocate(&self, nodes: u32) -> bool {
            self.inner.can_allocate(nodes)
        }
        fn allocate(&mut self, nodes: u32) -> Option<AllocationId> {
            let got = self.inner.allocate(nodes);
            self.sabotage(got)
        }
        fn allocate_hinted(
            &mut self,
            nodes: u32,
            hint: amjs_platform::PlacementHint,
        ) -> Option<AllocationId> {
            let got = self.inner.allocate_hinted(nodes, hint);
            self.sabotage(got)
        }
        fn release(&mut self, id: AllocationId) -> u32 {
            self.inner.release(id)
        }
        fn allocation_size(&self, id: AllocationId) -> Option<u32> {
            self.inner.allocation_size(id)
        }
        fn active_allocations(&self) -> Vec<AllocationId> {
            self.inner.active_allocations()
        }
        fn plan_into(
            &self,
            now: SimTime,
            rel: &dyn Fn(AllocationId) -> SimTime,
            plan: &mut Option<Self::Plan>,
        ) {
            self.inner.plan_into(now, rel, plan)
        }
        fn available_nodes(&self) -> u32 {
            self.inner.available_nodes()
        }
        fn mark_down(&mut self, node: u32) -> DrainOutcome {
            self.inner.mark_down(node)
        }
        fn mark_up(&mut self, node: u32) {
            self.inner.mark_up(node)
        }
        fn allocation_containing(&self, node: u32) -> Option<AllocationId> {
            self.inner.allocation_containing(node)
        }
        fn could_ever_allocate(&self, nodes: u32) -> bool {
            self.inner.could_ever_allocate(nodes)
        }
        fn check_consistency(&self) -> Result<(), String> {
            self.inner.check_consistency()
        }
        fn allocation_intersects_down(&self, id: AllocationId) -> bool {
            self.inner.allocation_intersects_down(id)
        }
    }

    impl EvilPlatform {
        fn sabotage(&mut self, got: Option<AllocationId>) -> Option<AllocationId> {
            if got.is_some() {
                self.allocs += 1;
                if self.allocs == self.corrupt_at {
                    self.inner.debug_corrupt_double_allocation();
                }
            }
            got
        }
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn oracle_catches_a_seeded_double_allocation() {
        let mut jobs = small_jobs(28);
        for j in &mut jobs {
            j.nodes = (j.nodes * 8).min(2048);
        }
        let evil = EvilPlatform {
            inner: BgpCluster::new(8, 512),
            allocs: 0,
            corrupt_at: 3,
        };
        let _ = SimulationBuilder::new(evil, jobs).oracle(true).run();
    }

    #[test]
    fn wait_counts_first_start_only_under_failures() {
        use crate::failures::{FailureSpec, RepairSpec};
        let jobs = small_jobs(15);
        let n = jobs.len();
        let out = SimulationBuilder::new(FlatCluster::new(640), jobs)
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(240),
                repair: RepairSpec::Deterministic(SimDuration::from_mins(30)),
                seed: 3,
            }))
            .run();
        assert!(out.interrupted_jobs > 0);
        // Even with re-runs, exactly one wait record per job.
        assert_eq!(out.summary.jobs_completed, n);
    }
}
