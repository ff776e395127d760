//! The full scheduling pass — paper §III-B, steps 1–6.
//!
//! One pass (run at every job arrival and termination, and after every
//! adaptive-tuning change):
//!
//! 1–4. Score every waiting job (eqs. 1–3) and sort by balanced priority
//!      ([`crate::policy::QueuePolicy::sort`]).
//! 5.   Chop the sorted queue into windows of `W` jobs and allocate each
//!      window as a group, choosing the least-makespan permutation
//!      ([`crate::window`]). Jobs whose chosen start is *now* start;
//!      the rest hold reservations.
//! 6.   Backfill pass over the remaining jobs, "conforming the original
//!      configuration of backfilling schemes": under EASY only the first
//!      window's reservations are inviolable; under conservative all
//!      reservations are.
//!
//! ## Engineering bounds (documented deviations)
//!
//! The paper's description implicitly windows the *entire* queue every
//! iteration. At production queue depths this is O(queue · |plan|²) per
//! event, so two configurable bounds keep full-trace simulation
//! tractable without changing behaviour where it matters:
//!
//! * [`Scheduler::plan_depth`] — only the first `plan_depth` jobs (in
//!   priority order) are window-placed; deeper jobs still participate in
//!   the backfill pass, so no start opportunity is lost — only *deep*
//!   reservations are elided (they are advisory under EASY anyway).
//! * [`Scheduler::perm_windows`] — only the first `perm_windows` windows
//!   get the full permutation search; later windows are placed greedily
//!   in priority order. Under EASY, later windows' placements don't bind
//!   anything, and under conservative they still produce reservations —
//!   just not permutation-optimized ones.
//!
//! Both bounds are sized so the experiments in `amjs-bench` keep the
//! paper's semantics for every window that can influence a start or a
//! protected reservation.

use amjs_obs::{BackfillReason, SharedProfiler, SpanToken};
use amjs_platform::plan::{PlacementHint, Plan, PlanToken};
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::JobId;

use crate::policy::{PolicyParams, QueuePolicy};
use crate::score::{waiting_score, walltime_score, QueueExtremes};
use crate::window::{
    place_best_permutation, place_in_order, SearchTrace, WindowScratch, WindowStats,
};

/// The scheduler's view of one waiting job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueuedJob {
    /// The job's id.
    pub id: JobId,
    /// When it was submitted (drives the waiting-time score).
    pub submit: SimTime,
    /// Requested node count.
    pub nodes: u32,
    /// Requested walltime (drives the walltime score and all planning).
    pub walltime: SimDuration,
}

/// Which backfilling discipline protects reservations (paper step 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackfillMode {
    /// No backfilling: strict in-order starts (ablation baseline).
    None,
    /// EASY: only the first window's reservations may not be delayed.
    Easy,
    /// Conservative: no reservation may be delayed.
    Conservative,
}

/// One job the pass decided to start right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobStart {
    /// The job to start.
    pub id: JobId,
    /// Requested nodes (convenience for the caller's allocation call).
    pub nodes: u32,
    /// The geometry the plan chose; pass to
    /// [`amjs_platform::Platform::allocate_hinted`].
    pub hint: PlacementHint,
    /// True if the job was admitted by the backfill pass rather than the
    /// window allocation (introspection / statistics).
    pub backfilled: bool,
}

/// Everything one scheduling pass decided.
#[derive(Clone, Debug, Default)]
pub struct ScheduleDecision {
    /// Jobs to start now, in allocation order.
    pub starts: Vec<JobStart>,
    /// Planned future starts in planning (commit) order, for
    /// introspection and tests. `(job, planned start)`. An untraced EASY
    /// pass lists only the reservations it placed before its window
    /// phase stopped (DESIGN.md §15): every protected one, and the
    /// advisory ones of the windows it planned.
    pub reservations: Vec<(JobId, SimTime)>,
    /// The subset of reservations that backfilling is forbidden to
    /// delay (all of them under conservative; the head / first window
    /// under EASY).
    pub protected: Vec<JobId>,
    /// Work the pass's window phase did (exact counts, for
    /// [`crate::PassCacheStats`]).
    pub window: WindowStats,
}

impl ScheduleDecision {
    /// Empty the lists, keeping their capacity.
    fn clear(&mut self) {
        self.starts.clear();
        self.reservations.clear();
        self.protected.clear();
        self.window = WindowStats::default();
    }
}

/// The buffers of a scheduling pass, kept by the caller from one pass to
/// the next: the working plan, the window phase's placements and search
/// vectors, the reservation and protection lists, and the decision
/// itself. A pass over a queue and machine no larger than earlier ones
/// allocates nothing (traced passes still allocate their trace). The
/// scratch carries no state between passes: whatever an earlier pass
/// left in it, a pass decides the same.
pub struct PassScratch<P> {
    plan: Option<P>,
    /// `(window index, index into sorted, planned start, token)`, in
    /// commit order.
    planned: Vec<(usize, usize, SimTime, PlanToken)>,
    window: WindowScratch,
    /// `(index into sorted, window index)` of each reservation, in step
    /// with `decision.reservations` and with `reserved_tokens`.
    reserved: Vec<(usize, usize)>,
    reserved_tokens: Vec<PlanToken>,
    /// `(nodes, start, walltime)` of each protected reservation.
    protected_res: Vec<(u32, SimTime, SimDuration)>,
    /// A `TimeFlexible` admission's trial re-placements.
    trial_tokens: Vec<PlanToken>,
    /// Indices into the sorted queue of the jobs started so far and of
    /// the protected reservations.
    started: Bits,
    protected: Bits,
    decision: ScheduleDecision,
}

impl<P> Default for PassScratch<P> {
    fn default() -> Self {
        PassScratch {
            plan: None,
            planned: Vec::new(),
            window: WindowScratch::default(),
            reserved: Vec::new(),
            reserved_tokens: Vec::new(),
            protected_res: Vec::new(),
            trial_tokens: Vec::new(),
            started: Bits::default(),
            protected: Bits::default(),
            decision: ScheduleDecision::default(),
        }
    }
}

/// A set of indices into the sorted queue.
#[derive(Default)]
struct Bits(Vec<u64>);

impl Bits {
    /// Empty the set and size it for indices `< len`.
    fn reset(&mut self, len: usize) {
        self.0.clear();
        self.0.resize(len.div_ceil(64), 0);
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Keep only the `k` smallest members.
    fn keep_first(&mut self, mut k: usize) {
        for word in &mut self.0 {
            let ones = word.count_ones() as usize;
            if ones <= k {
                k -= ones;
                continue;
            }
            let mut kept = 0;
            for _ in 0..k {
                let lowest = *word & word.wrapping_neg();
                kept |= lowest;
                *word ^= lowest;
            }
            *word = kept;
            k = 0;
        }
    }
}

/// One job's score breakdown (eqs. 1–3), captured for tracing.
#[derive(Clone, Copy, Debug)]
pub struct ScoreTrace {
    /// The scored job.
    pub job: JobId,
    /// Waiting-time score `S_w` (eq. 1, erratum-fixed).
    pub s_w: f64,
    /// Walltime score `S_r` (eq. 2).
    pub s_r: f64,
    /// The balance factor `BF` in effect.
    pub bf: f64,
    /// Balanced priority `S_p = BF*S_w + (1-BF)*S_r` (eq. 3).
    pub priority: f64,
}

/// One window's permutation search, captured for tracing.
#[derive(Clone, Debug)]
pub struct WindowTrace {
    /// Window index within the pass (0 = highest-priority window).
    pub index: usize,
    /// Job ids in the window, in priority order (the search permutes
    /// positions within this list).
    pub jobs: Vec<JobId>,
    /// What the search tried and chose.
    pub search: SearchTrace,
}

/// Everything one scheduling pass decided *and why* — filled only when a
/// trace sink is attached, so the untraced hot path pays nothing.
#[derive(Clone, Debug, Default)]
pub struct PassTrace {
    /// Score breakdown per queued job, in sorted (priority) order.
    /// Empty when the ordering override bypasses balanced scoring.
    pub scores: Vec<ScoreTrace>,
    /// Permutation-search traces for the leading `perm_windows` windows.
    pub windows: Vec<WindowTrace>,
    /// Backfill admission decisions in evaluation order:
    /// `(job, accepted, reason)`.
    pub backfill: Vec<(JobId, bool, BackfillReason)>,
}

#[inline]
fn span_enter(prof: Option<&SharedProfiler>, name: &'static str) -> Option<SpanToken> {
    prof.map(|p| p.borrow_mut().enter(name))
}

#[inline]
fn span_exit(prof: Option<&SharedProfiler>, token: Option<SpanToken>) {
    if let (Some(p), Some(t)) = (prof, token) {
        p.borrow_mut().exit(t);
    }
}

/// The metric-aware scheduler: policy parameters plus pass bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct Scheduler {
    /// The paper's tunables `(BF, W)`.
    pub policy: PolicyParams,
    /// Backfilling discipline for step 6.
    pub backfill: BackfillMode,
    /// Queue-ordering override; `None` uses the paper's balanced
    /// priority with `policy.balance_factor` (see module docs on
    /// baselines).
    pub ordering_override: Option<QueuePolicy>,
    /// How many jobs (priority order) are window-placed per pass.
    pub plan_depth: usize,
    /// How many leading windows get the permutation search.
    pub perm_windows: usize,
    /// Cap on permutations tried per window.
    pub max_permutations: usize,
    /// Under EASY, how many leading planned reservations are protected.
    /// `None` follows the paper ("the reservation of jobs in the first
    /// window will not be delayed"): the whole first window. `Some(k)`
    /// protects only the first `k` — `Some(1)` is classic EASY
    /// regardless of `W` (ablation knob).
    pub easy_protected: Option<usize>,
    /// How strictly backfill admission protects reservations (see
    /// [`ProtectionStyle`]).
    pub protection: ProtectionStyle,
    /// How many jobs (in priority order) the backfill pass considers.
    /// Production schedulers bound this (Cobalt and Maui both expose a
    /// backfill depth) because scanning thousands of queued jobs per
    /// iteration is wasted work — almost everything deep in the queue
    /// conflicts with what was already admitted. `None` = unlimited.
    pub backfill_depth: Option<usize>,
}

/// How backfill admission treats protected reservations.
///
/// On a partitioned machine these genuinely differ, and the difference
/// is measurable (the `ablation_backfill` experiment): pinning makes
/// backfilling stricter (closer to conservative), which on the Intrepid
/// model reproduces the paper's Table II orderings; the time-flexible
/// variant is the textbook EASY formulation and admits noticeably more
/// long backfills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtectionStyle {
    /// A reservation occupies the specific partition block the window
    /// pass placed it on; backfill candidates must fit alongside those
    /// pinned blocks.
    PinnedBlocks,
    /// A reservation only pins its *time*: a candidate is admissible if
    /// every protected reservation can still be placed on some block at
    /// its reserved instant afterwards (textbook EASY shadow-time
    /// semantics).
    TimeFlexible,
}

impl Scheduler {
    /// A scheduler with the paper's defaults for the given policy:
    /// EASY backfilling, 20-job planning depth, permutation search in
    /// the first two windows, 720-permutation cap.
    pub fn new(policy: PolicyParams, backfill: BackfillMode) -> Self {
        Scheduler {
            policy,
            backfill,
            ordering_override: None,
            plan_depth: 20,
            perm_windows: 2,
            max_permutations: 720,
            easy_protected: None,
            protection: ProtectionStyle::PinnedBlocks,
            backfill_depth: None,
        }
    }

    /// The queue ordering in effect.
    pub fn ordering(&self) -> QueuePolicy {
        self.ordering_override.unwrap_or(QueuePolicy::Balanced {
            balance_factor: self.policy.balance_factor,
        })
    }

    /// How many leading jobs of a sorted queue of `len` a pass can look
    /// at: the window-placed depth or the backfill candidates, whichever
    /// reaches further. Jobs beyond it cannot influence the decision.
    pub(crate) fn lookahead(&self, len: usize) -> usize {
        let planned = self.plan_depth.max(1);
        planned.max(self.backfill_depth.unwrap_or(len)).min(len)
    }

    /// Run one scheduling pass at `now` over the waiting `queue`, with
    /// `base_plan` describing the running jobs' expected releases, in
    /// the buffers of `scratch`. Returns the starts (with placement hints
    /// consistent with `base_plan`'s machine) and the planned
    /// reservations; the decision lives in `scratch` until its next pass.
    ///
    /// ```
    /// use amjs_core::scheduler::{BackfillMode, PassScratch, QueuedJob, Scheduler};
    /// use amjs_core::PolicyParams;
    /// use amjs_platform::plan::FlatPlan;
    /// use amjs_sim::{SimDuration, SimTime};
    /// use amjs_workload::JobId;
    ///
    /// // 100 nodes, 80 busy until t=100s; one job waiting.
    /// let plan = FlatPlan::new(SimTime::ZERO, 100, &[(80, SimTime::from_secs(100))]);
    /// let queue = vec![QueuedJob {
    ///     id: JobId(0),
    ///     submit: SimTime::ZERO,
    ///     nodes: 20,
    ///     walltime: SimDuration::from_mins(30),
    /// }];
    /// let scheduler = Scheduler::new(PolicyParams::fcfs(), BackfillMode::Easy);
    /// let mut scratch = PassScratch::default();
    /// let decision = scheduler.schedule_pass(SimTime::from_secs(10), &queue, &plan, &mut scratch);
    /// assert_eq!(decision.starts.len(), 1); // fits in the 20 idle nodes
    /// ```
    pub fn schedule_pass<'s, P: Plan>(
        &self,
        now: SimTime,
        queue: &[QueuedJob],
        base_plan: &P,
        scratch: &'s mut PassScratch<P>,
    ) -> &'s ScheduleDecision {
        self.schedule_pass_traced(now, queue, base_plan, scratch, None, None)
    }

    /// [`Scheduler::schedule_pass`] with observability hooks: when
    /// `trace` is given, records score breakdowns, window-search
    /// alternatives and backfill admission reasons into it; when `prof`
    /// is given, wraps the pass phases in profiling spans. Passing
    /// `None` for both is byte-for-byte the plain pass — the decision
    /// logic never branches on the hooks.
    pub fn schedule_pass_traced<'s, P: Plan>(
        &self,
        now: SimTime,
        queue: &[QueuedJob],
        base_plan: &P,
        scratch: &'s mut PassScratch<P>,
        trace: Option<&mut PassTrace>,
        prof: Option<&SharedProfiler>,
    ) -> &'s ScheduleDecision {
        // Steps 1–4: sort by balanced priority.
        let span = span_enter(prof, "score_sort");
        let mut sorted = queue.to_vec();
        self.ordering().sort(&mut sorted, now);
        span_exit(prof, span);
        self.schedule_pass_sorted(now, &sorted, base_plan, scratch, trace, prof)
    }

    /// [`Scheduler::schedule_pass_traced`] for a queue that is *already*
    /// in this scheduler's [`Scheduler::ordering`] order — the entry
    /// point for the incremental hot path, where the runner's
    /// [`crate::passcache::PassCache`] maintains the sorted queue across
    /// passes instead of re-sorting from scratch. Behaviorally identical
    /// to the sorting entry points given a correctly sorted input.
    pub fn schedule_pass_sorted<'s, P: Plan>(
        &self,
        now: SimTime,
        sorted: &[QueuedJob],
        base_plan: &P,
        scratch: &'s mut PassScratch<P>,
        mut trace: Option<&mut PassTrace>,
        prof: Option<&SharedProfiler>,
    ) -> &'s ScheduleDecision {
        let PassScratch {
            plan,
            planned,
            window,
            reserved,
            reserved_tokens,
            protected_res,
            trial_tokens,
            started,
            protected,
            decision,
        } = scratch;
        decision.clear();
        if sorted.is_empty() {
            return decision;
        }
        // Tracing: recompute the score components per job. The sort
        // above computes them internally but keeping the untraced path
        // allocation-free matters more than recomputing here.
        if let Some(tr) = trace.as_deref_mut() {
            if let QueuePolicy::Balanced { balance_factor } = self.ordering() {
                if let Some(ex) = QueueExtremes::of(sorted, now) {
                    tr.scores.reserve(sorted.len());
                    for job in sorted {
                        let s_w = waiting_score((now - job.submit).max_zero(), &ex);
                        let s_r = walltime_score(job.walltime, &ex);
                        tr.scores.push(ScoreTrace {
                            job: job.id,
                            s_w,
                            s_r,
                            bf: balance_factor,
                            priority: balance_factor * s_w + (1.0 - balance_factor) * s_r,
                        });
                    }
                }
            }
        }

        // Step 5: window allocation. The plan accumulates every
        // placement; advisory ones are voided afterwards.
        let depth = sorted.len().min(self.plan_depth.max(1));
        let window_size = self.policy.window.max(1);
        let plan = match plan {
            Some(plan) => {
                plan.clone_from(base_plan);
                plan
            }
            None => plan.insert(base_plan.clone()),
        };
        planned.clear();

        let span = span_enter(prof, "window_search");
        let mut window_stats = WindowStats::default();
        // The window stop (DESIGN.md §15): under EASY only the protected
        // reservations outlive this phase, so once they are fixed and no
        // remaining planned job can start now, the later windows could
        // only plan advisory reservations that are voided below. Traced
        // passes plan every window, so every `WindowChoice` repeats.
        let may_stop = trace.is_none() && self.backfill == BackfillMode::Easy;
        // Bit `i`: `sorted[i]` cannot start now. The plan only gains
        // commitments in this phase, so that never changes back.
        let mut blocked_now = 0u64;
        let mut reserved_count = 0;
        for (w_idx, chunk_start) in (0..depth).step_by(window_size).enumerate() {
            if may_stop
                && w_idx > 0
                && self.easy_protected.is_none_or(|k| reserved_count >= k)
                && none_starts_now(plan, sorted, chunk_start..depth, now, &mut blocked_now)
            {
                window_stats.unplanned += (depth - chunk_start).div_ceil(window_size) as u64;
                break;
            }
            let chunk_end = (chunk_start + window_size).min(depth);
            let chunk = &sorted[chunk_start..chunk_end];
            match self.backfill {
                // Strict no-backfill: monotone in-order placement, no
                // reordering.
                BackfillMode::None => {
                    let floor = planned.last().map_or(now, |&(_, _, s, _)| s.max(now));
                    window.placed.clear();
                    place_in_order(plan, chunk, floor, true, &mut window.placed);
                }
                _ if w_idx < self.perm_windows => {
                    let mut search = trace.is_some().then(SearchTrace::default);
                    place_best_permutation(
                        plan,
                        chunk,
                        now,
                        self.max_permutations,
                        window,
                        search.as_mut(),
                        &mut window_stats,
                    );
                    if let (Some(tr), Some(search)) = (trace.as_deref_mut(), search) {
                        tr.windows.push(WindowTrace {
                            index: w_idx,
                            jobs: chunk.iter().map(|j| j.id).collect(),
                            search,
                        });
                    }
                }
                _ => {
                    window.placed.clear();
                    place_in_order(plan, chunk, now, false, &mut window.placed);
                }
            }
            reserved_count += window.placed.iter().filter(|p| p.start != now).count();
            planned.extend(
                (window.placed.drain(..)).map(|p| (w_idx, chunk_start + p.slot, p.start, p.token)),
            );
        }
        span_exit(prof, span);

        // Sort out the plan: starts keep their commitments (their hints
        // drive the real allocation); protected reservations stay (as
        // pinned blocks, or as a separate re-place list under
        // `TimeFlexible`); advisory reservations are voided so they do
        // not constrain backfilling.
        // Which *reservations* are inviolable: under conservative, all
        // of them; under EASY, the first window's (paper semantics,
        // `easy_protected: None`) or the `k` highest-priority waiting
        // jobs' (`Some(k)`; `Some(1)` = classic EASY, which shields the
        // head of the queue — not whichever reservation the permutation
        // search happened to commit first). Starts never consume
        // protection slots.
        decision.window = window_stats;
        started.reset(sorted.len());
        reserved.clear();
        reserved_tokens.clear();
        for (w_idx, ji, start, token) in planned.drain(..) {
            let job = &sorted[ji];
            if start == now {
                decision.starts.push(JobStart {
                    id: job.id,
                    nodes: job.nodes,
                    hint: plan.hint_of(&token),
                    backfilled: false,
                });
                started.insert(ji);
            } else {
                decision.reservations.push((job.id, start));
                reserved.push((ji, w_idx));
                reserved_tokens.push(token);
            }
        }

        protected.reset(sorted.len());
        let all = self.backfill == BackfillMode::Conservative || self.easy_protected.is_some();
        for &(ji, w_idx) in reserved.iter() {
            if all || w_idx == 0 {
                protected.insert(ji);
            }
        }
        if let (false, Some(k)) = (
            self.backfill == BackfillMode::Conservative,
            self.easy_protected,
        ) {
            protected.keep_first(k);
        }

        protected_res.clear();
        for (&(ji, _), &(id, start)) in reserved.iter().zip(&decision.reservations) {
            if protected.contains(ji) {
                let job = &sorted[ji];
                protected_res.push((job.nodes, start, job.walltime));
                decision.protected.push(id);
            }
        }
        for (&(ji, _), token) in reserved.iter().zip(reserved_tokens.drain(..)) {
            if !protected.contains(ji) || self.protection == ProtectionStyle::TimeFlexible {
                plan.deactivate(token);
            }
        }

        // Step 6: backfill the remaining jobs in priority order. A
        // candidate is admitted iff it fits now and no protected
        // reservation is delayed (per the configured protection style).
        if self.backfill != BackfillMode::None {
            let span = span_enter(prof, "backfill_pass");
            let candidates = self
                .backfill_depth
                .unwrap_or(sorted.len())
                .min(sorted.len());
            for (i, job) in sorted[..candidates].iter().enumerate() {
                if started.contains(i) || protected.contains(i) {
                    continue;
                }
                let Some(cand_token) = plan.commit_at(job.nodes, now, job.walltime) else {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.backfill
                            .push((job.id, false, BackfillReason::NoStartNow));
                    }
                    continue;
                };
                let admissible = match self.protection {
                    // Protected reservations are still committed in the
                    // plan; the successful commit is the whole check.
                    ProtectionStyle::PinnedBlocks => true,
                    ProtectionStyle::TimeFlexible => {
                        let mut ok = true;
                        for &(nodes, start, walltime) in protected_res.iter() {
                            match plan.commit_at(nodes, start, walltime) {
                                Some(t) => trial_tokens.push(t),
                                None => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        while let Some(t) = trial_tokens.pop() {
                            plan.rollback(t);
                        }
                        ok
                    }
                };
                if admissible {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.backfill.push((job.id, true, BackfillReason::FitsNow));
                    }
                    decision.starts.push(JobStart {
                        id: job.id,
                        nodes: job.nodes,
                        hint: plan.hint_of(&cand_token),
                        backfilled: true,
                    });
                    started.insert(i);
                } else {
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.backfill
                            .push((job.id, false, BackfillReason::WouldDelayProtected));
                    }
                    plan.rollback(cand_token);
                }
            }
            span_exit(prof, span);
        }

        // Drop reservations for jobs that ended up starting via backfill
        // (advisory entries from later windows).
        let mut reserved_jobs = reserved.iter();
        decision.reservations.retain(|_| {
            let &(ji, _) = reserved_jobs.next().expect("one entry per reservation");
            !started.contains(ji)
        });
        decision
    }
}

/// Whether no job of `sorted[range]` fits at `now` on `plan`. Jobs whose
/// bit in `blocked` is set are known not to; each new failure sets its
/// bit (jobs past bit 63 are asked again every time).
fn none_starts_now<P: Plan>(
    plan: &P,
    sorted: &[QueuedJob],
    range: std::ops::Range<usize>,
    now: SimTime,
    blocked: &mut u64,
) -> bool {
    for i in range {
        let bit = 1u64.checked_shl(i as u32).unwrap_or(0);
        if *blocked & bit != 0 {
            continue;
        }
        let job = &sorted[i];
        if plan.can_place_at(job.nodes, now, job.walltime) {
            return false;
        }
        *blocked |= bit;
    }
    true
}

impl amjs_sim::Snapshot for BackfillMode {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        w.put_u8(match self {
            BackfillMode::None => 0,
            BackfillMode::Easy => 1,
            BackfillMode::Conservative => 2,
        });
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        match r.get_u8()? {
            0 => Ok(BackfillMode::None),
            1 => Ok(BackfillMode::Easy),
            2 => Ok(BackfillMode::Conservative),
            tag => Err(amjs_sim::SnapError::BadTag {
                context: "BackfillMode",
                tag: tag.into(),
            }),
        }
    }
}

impl amjs_sim::Snapshot for ProtectionStyle {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        w.put_u8(match self {
            ProtectionStyle::PinnedBlocks => 0,
            ProtectionStyle::TimeFlexible => 1,
        });
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        match r.get_u8()? {
            0 => Ok(ProtectionStyle::PinnedBlocks),
            1 => Ok(ProtectionStyle::TimeFlexible),
            tag => Err(amjs_sim::SnapError::BadTag {
                context: "ProtectionStyle",
                tag: tag.into(),
            }),
        }
    }
}

impl amjs_sim::Snapshot for Scheduler {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        self.policy.encode(w);
        self.backfill.encode(w);
        self.ordering_override.encode(w);
        w.put_usize(self.plan_depth);
        w.put_usize(self.perm_windows);
        w.put_usize(self.max_permutations);
        self.easy_protected.map(|v| v as u64).encode(w);
        self.protection.encode(w);
        self.backfill_depth.map(|v| v as u64).encode(w);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        use amjs_sim::Snapshot;
        let policy = Snapshot::decode(r)?;
        let backfill = Snapshot::decode(r)?;
        let ordering_override = Snapshot::decode(r)?;
        let plan_depth = r.get_usize()?;
        let perm_windows = r.get_usize()?;
        let max_permutations = r.get_usize()?;
        let easy_protected: Option<u64> = Snapshot::decode(r)?;
        let protection = Snapshot::decode(r)?;
        let backfill_depth: Option<u64> = Snapshot::decode(r)?;
        Ok(Scheduler {
            policy,
            backfill,
            ordering_override,
            plan_depth,
            perm_windows,
            max_permutations,
            easy_protected: easy_protected.map(|v| v as usize),
            protection,
            backfill_depth: backfill_depth.map(|v| v as usize),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_platform::plan::FlatPlan;

    fn qj(id: u64, submit: i64, nodes: u32, walltime_secs: i64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            nodes,
            walltime: SimDuration::from_secs(walltime_secs),
        }
    }

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn fcfs_easy() -> Scheduler {
        Scheduler::new(PolicyParams::fcfs(), BackfillMode::Easy)
    }

    /// A pass on a fresh scratch, its decision copied out.
    trait PassOnce {
        fn pass(&self, now: SimTime, queue: &[QueuedJob], plan: &FlatPlan) -> ScheduleDecision;
        fn pass_traced(
            &self,
            now: SimTime,
            queue: &[QueuedJob],
            plan: &FlatPlan,
            trace: &mut PassTrace,
        ) -> ScheduleDecision;
    }

    impl PassOnce for Scheduler {
        fn pass(&self, now: SimTime, queue: &[QueuedJob], plan: &FlatPlan) -> ScheduleDecision {
            let mut scratch = PassScratch::default();
            self.schedule_pass(now, queue, plan, &mut scratch).clone()
        }

        fn pass_traced(
            &self,
            now: SimTime,
            queue: &[QueuedJob],
            plan: &FlatPlan,
            trace: &mut PassTrace,
        ) -> ScheduleDecision {
            let mut scratch = PassScratch::default();
            (self.schedule_pass_traced(now, queue, plan, &mut scratch, Some(trace), None)).clone()
        }
    }

    fn start_ids(d: &ScheduleDecision) -> Vec<u64> {
        d.starts.iter().map(|s| s.id.0).collect()
    }

    #[test]
    fn empty_queue_decides_nothing() {
        let plan = FlatPlan::new(t(0), 100, &[]);
        let d = fcfs_easy().pass(t(0), &[], &plan);
        assert!(d.starts.is_empty());
        assert!(d.reservations.is_empty());
    }

    #[test]
    fn everything_fits_everything_starts() {
        let plan = FlatPlan::new(t(0), 100, &[]);
        let queue = vec![qj(0, 0, 30, 100), qj(1, 0, 30, 100), qj(2, 0, 40, 100)];
        let d = fcfs_easy().pass(t(0), &queue, &plan);
        assert_eq!(start_ids(&d), vec![0, 1, 2]);
        assert!(d.reservations.is_empty());
    }

    #[test]
    fn easy_backfill_respects_head_reservation() {
        // 100 nodes; 60 busy until t=100. Head job (oldest) needs 50 →
        // reserved at t=100. Two 20-node jobs fit the 40 idle nodes now;
        // the long one keeps running past t=100, but 50 + 20 <= 100 so
        // the head's reservation is not delayed — both may start.
        let plan = FlatPlan::new(t(0), 100, &[(60, t(100))]);
        let queue = vec![
            qj(0, 0, 50, 1000),  // head, reserved at 100
            qj(1, 10, 20, 50),   // ends at 100, before the reservation
            qj(2, 20, 20, 5000), // runs alongside the reserved head
        ];
        let d = fcfs_easy().pass(t(50), &queue, &plan);
        assert_eq!(start_ids(&d), vec![1, 2]);
        assert_eq!(d.reservations, vec![(JobId(0), t(100))]);
    }

    #[test]
    fn easy_backfill_rejects_delaying_job() {
        // Same machine; candidate needs 60 nodes for a long time: at
        // t=100 the head's 50 + 60 = 110 > 100 → would delay the head.
        let plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        let queue = vec![qj(0, 0, 50, 1000), qj(1, 10, 60, 5000)];
        let s = fcfs_easy();
        let mut trace = PassTrace::default();
        let d = s.pass_traced(t(50), &queue, &plan, &mut trace);
        assert!(d.starts.is_empty());
        assert_eq!(d.reservations.len(), 2);
        // The untraced pass stops after the protected head: job 1 cannot
        // start now, and its reservation would only be advisory.
        let plain = s.pass(t(50), &queue, &plan);
        assert_eq!(plain.starts, d.starts);
        assert_eq!(plain.protected, d.protected);
        assert_eq!(plain.window.unplanned, 1);
    }

    #[test]
    fn conservative_protects_all_reservations() {
        // Two reserved jobs; a backfill candidate that fits around the
        // first reservation but delays the second must be rejected under
        // conservative and accepted under EASY.
        //
        // 100 nodes; 100 busy until t=100.
        // r0: 100 nodes → [100, 200).
        // r1: 40 nodes → [200, 260).
        // candidate: 40 nodes, 150 s: at t=0 impossible (0 idle)…
        // use partial busy instead: 60 busy until 100.
        // r0: 100 nodes → [100,200). r1: 40 nodes → [200,260)?
        //   earliest for r1: t=0? 40 ≤ 40 idle → starts now! Bad.
        // Make r1 70 nodes → earliest after r0 at [200, 260).
        // candidate c: 40 nodes 150 s at t=0: [0,150) overlaps r0
        //   (needs 100 at 100, only 60 free → conflict) → c cannot
        //   start under either mode. Tricky to split modes on a flat
        //   machine with a full-width head; accept a simpler split:
        //   candidate ends exactly when r1 would start but delays r1
        //   via capacity. 40 idle now; c: 40 nodes to t=250 → at
        //   [200,250) c(40) + r1(70) = 110 > 100 → delays r1 only.
        //   Under EASY (r1 unprotected) c starts; under conservative it
        //   must not. But wait — r0 needs 100 at [100,200) and c holds
        //   40 until 250 → c delays r0 too! Choose r0 smaller: 60
        //   nodes. r0 earliest: t=0? 60 > 40 idle → [100, 200). c at
        //   [0,250): c(40)+r0(60) = 100 ≤ 100 at [100,200) ✓;
        //   at [200,250): c(40)+r1(70) = 110 ✗ delays only r1.
        let plan = FlatPlan::new(t(0), 100, &[(60, t(100))]);
        let queue = vec![
            qj(0, 0, 60, 100),  // r0 → [100, 200)
            qj(1, 10, 70, 60),  // r1 → [200, 260)
            qj(2, 20, 40, 250), // candidate
        ];
        let easy = fcfs_easy().pass(t(0), &queue, &plan);
        assert_eq!(start_ids(&easy), vec![2]);

        let cons = Scheduler::new(PolicyParams::fcfs(), BackfillMode::Conservative).pass(
            t(0),
            &queue,
            &plan,
        );
        assert!(cons.starts.is_empty());
        assert_eq!(
            cons.reservations,
            vec![(JobId(0), t(100)), (JobId(1), t(200)), (JobId(2), t(260))]
        );
    }

    #[test]
    fn no_backfill_is_strictly_in_order() {
        // Head can't start; followers that fit must NOT start.
        let plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        let queue = vec![qj(0, 0, 50, 100), qj(1, 10, 10, 10)];
        let d = Scheduler::new(PolicyParams::fcfs(), BackfillMode::None).pass(t(50), &queue, &plan);
        assert!(d.starts.is_empty());
    }

    #[test]
    fn sjf_orders_starts_by_walltime() {
        // One free slot of 50 nodes; three 50-node jobs, different
        // walltimes. Under BF=0 the shortest must start.
        let plan = FlatPlan::new(t(0), 100, &[(50, t(1000))]);
        let queue = vec![qj(0, 0, 50, 5000), qj(1, 10, 50, 100), qj(2, 20, 50, 900)];
        let d = Scheduler::new(PolicyParams::sjf(), BackfillMode::Easy).pass(t(30), &queue, &plan);
        assert_eq!(start_ids(&d), vec![1]);
    }

    #[test]
    fn window_groups_allocate_better_than_one_by_one() {
        // The Fig. 2 situation, end to end: with W=1 the priority order
        // wastes capacity that W=2's permutation search recovers.
        // Machine 10; 5 busy until t=20.
        // Priority order: A (10 nodes, 30 s) then B (5 nodes, 25 s).
        let plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let queue = vec![qj(0, 0, 10, 30), qj(1, 10, 5, 25)];

        // W=1 (EASY): A reserved at [20,50); B backfill at now? B [0,25)
        // overlaps A's reservation (5+10>10 during [20,25)) → rejected.
        let w1 =
            Scheduler::new(PolicyParams::new(1.0, 1), BackfillMode::Easy).pass(t(0), &queue, &plan);
        assert!(w1.starts.is_empty());

        // W=2: B-first permutation starts B now and reserves A at
        // [25,55) — shorter makespan, and B actually runs.
        let w2 =
            Scheduler::new(PolicyParams::new(1.0, 2), BackfillMode::Easy).pass(t(0), &queue, &plan);
        assert_eq!(start_ids(&w2), vec![1]);
        assert_eq!(w2.reservations, vec![(JobId(0), t(25))]);
    }

    #[test]
    fn plan_depth_bound_still_backfills_deep_jobs() {
        // plan_depth=1: only the head is window-placed, but a deep job
        // that fits must still start via the backfill pass.
        let mut s = fcfs_easy();
        s.plan_depth = 1;
        let plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        let queue = vec![
            qj(0, 0, 50, 1000), // head; reserved at 100
            qj(1, 10, 20, 50),  // deep job; fits now, ends before 100
        ];
        let d = s.pass(t(50), &queue, &plan);
        assert_eq!(start_ids(&d), vec![1]);
        assert!(d.starts[0].backfilled);
    }

    #[test]
    fn reservations_do_not_include_started_jobs() {
        let plan = FlatPlan::new(t(0), 100, &[]);
        let queue = vec![qj(0, 0, 100, 50), qj(1, 0, 100, 50)];
        let s = fcfs_easy();
        let mut trace = PassTrace::default();
        let d = s.pass_traced(t(0), &queue, &plan, &mut trace);
        assert_eq!(start_ids(&d), vec![0]);
        assert_eq!(d.reservations, vec![(JobId(1), t(50))]);
        // Untraced, the pass stops after window 0 (job 1's reservation
        // would be advisory) and decides the same.
        let plain = s.pass(t(0), &queue, &plan);
        assert_eq!(plain.starts, d.starts);
        assert_eq!(plain.protected, d.protected);
        assert!(plain.reservations.is_empty());
    }

    #[test]
    fn traced_pass_matches_untraced_and_records_decisions() {
        // The conservative-vs-easy scenario: under EASY job 2 starts
        // via the backfill pass (window placement puts it after r1).
        let plan = FlatPlan::new(t(0), 100, &[(60, t(100))]);
        let queue = vec![qj(0, 0, 60, 100), qj(1, 10, 70, 60), qj(2, 20, 40, 250)];

        let s = fcfs_easy();
        let mut trace = PassTrace::default();
        let traced = s.pass_traced(t(0), &queue, &plan, &mut trace);
        let plain = s.pass(t(0), &queue, &plan);
        assert_eq!(traced.starts, plain.starts);
        assert_eq!(traced.reservations, plain.reservations);
        assert_eq!(traced.protected, plain.protected);
        assert_eq!(start_ids(&traced), vec![2]);
        assert!(traced.starts[0].backfilled);

        // Scores recorded for every job, components summing to S_p.
        assert_eq!(trace.scores.len(), 3);
        for sc in &trace.scores {
            let expect = sc.bf * sc.s_w + (1.0 - sc.bf) * sc.s_r;
            assert!((sc.priority - expect).abs() < 1e-12);
            assert!((0.0..=100.0).contains(&sc.s_w));
            assert!((0.0..=100.0).contains(&sc.s_r));
        }
        // The leading perm_windows (2) windows were search-traced.
        assert_eq!(trace.windows.len(), 2);
        assert_eq!(trace.windows[0].jobs, vec![JobId(0)]);
        // Backfill: job 1 cannot start now; job 2 is admitted.
        assert_eq!(
            trace.backfill,
            vec![
                (JobId(1), false, BackfillReason::NoStartNow),
                (JobId(2), true, BackfillReason::FitsNow),
            ]
        );
    }

    #[test]
    fn traced_pass_records_protected_delay_rejection() {
        // TimeFlexible: the candidate fits *now* (commit succeeds once
        // reservation blocks are released) but re-placing the protected
        // head at its promised instant then fails → rejection reason is
        // "would delay protected".
        let plan = FlatPlan::new(t(0), 100, &[(40, t(100))]);
        let queue = vec![
            qj(0, 0, 70, 1000),  // head, reserved at t=100, protected
            qj(1, 10, 60, 5000), // fits the 60 idle now, runs past 100
        ];
        let mut s = fcfs_easy();
        s.protection = ProtectionStyle::TimeFlexible;
        let mut trace = PassTrace::default();
        let d = s.pass_traced(t(50), &queue, &plan, &mut trace);
        let plain = s.pass(t(50), &queue, &plan);
        assert_eq!(d.starts, plain.starts);
        assert!(d.starts.is_empty());
        assert_eq!(
            trace.backfill,
            vec![(JobId(1), false, BackfillReason::WouldDelayProtected)]
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let plan = FlatPlan::new(t(0), 100, &[(30, t(500)), (30, t(700))]);
        let queue: Vec<QueuedJob> = (0..12)
            .map(|i| {
                qj(
                    i,
                    (i as i64) * 7,
                    10 + (i as u32 % 5) * 13,
                    100 + (i as i64) * 37,
                )
            })
            .collect();
        let s = Scheduler::new(PolicyParams::new(0.5, 3), BackfillMode::Easy);
        let a = s.pass(t(100), &queue, &plan);
        // A scratch that an earlier pass left dirty decides the same.
        let mut scratch = PassScratch::default();
        s.schedule_pass(t(50), &queue[..7], &plan, &mut scratch);
        let b = s.schedule_pass(t(100), &queue, &plan, &mut scratch);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.reservations, b.reservations);
        assert_eq!(a.protected, b.protected);
    }
}
