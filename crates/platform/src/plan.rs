//! What-if availability plans.
//!
//! A [`Plan`] is a snapshot of a machine's *future* availability: the
//! running jobs' expected release times plus any tentative commitments the
//! scheduler has made while exploring a schedule (window permutations,
//! reservations). Plans answer two questions the paper's algorithm needs:
//!
//! * *step 5* — "find an earliest time that it can obtain enough nodes"
//!   ([`Plan::earliest_start`]), and
//! * *step 6* — "would starting this backfill job now delay a protected
//!   reservation?" ([`Plan::can_place_at`] against a plan holding the
//!   protected reservations).
//!
//! Speculative search uses [`Plan::commit_at`] / [`Plan::rollback`] in
//! strict LIFO order instead of cloning the profile per permutation —
//! the hot loop of window allocation does no heap allocation beyond the
//! commitment vector's amortized growth.
//!
//! Correctness note: the earliest feasible start of a rigid job on a
//! profile is always either the requested lower bound or the release time
//! of some commitment (capacity/shape only improves at releases), so
//! [`Plan::earliest_start`] scans exactly those candidate instants.
//!
//! ## Memoized base profiles (hot path)
//!
//! Every base commitment starts at the snapshot instant (they are the
//! *running* jobs), so the base load is a monotone step function of time:
//! capacity only returns at release instants. Each plan therefore builds,
//! once at construction, a sorted timeline of distinct base release
//! instants with the cumulative load (node level / busy-unit mask) still
//! held from each instant on, and keeps the *overlay* (the speculative
//! commitments added by `commit_at`) as its own load timeline. Both plans
//! answer `earliest_start` in one forward walk over the two timelines,
//! carrying a cursor into each; `PartitionPlan` keeps its busy-unit
//! sets as rows of only the words its machine uses. The overlay is
//! shared copy-free across all permutation candidates of a window
//! search: commit pushes, rollback pops, the base is never touched.
//! The differential suite `tests/hotpath_equivalence.rs` checks every
//! answer against a naive plan that rescans its commitment list.

use amjs_sim::{SimDuration, SimTime};

use crate::mask::{self, UnitMask, MAX_UNITS};
use crate::Nodes;

/// Words of the widest row: a [`UnitMask`]'s.
const MAX_WORDS: usize = MAX_UNITS / 64;

/// Proof of a speculative commitment; hand it back to [`Plan::rollback`]
/// in LIFO order to undo.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a committed placement must be rolled back or intentionally kept"]
pub struct PlanToken(pub(crate) usize);

/// Where a job was placed in a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Start time chosen for the job.
    pub start: SimTime,
    /// Token to undo the commitment.
    pub token: usize,
}

/// The geometry a plan chose for a commitment. The scheduler passes this
/// back to [`crate::Platform::allocate_hinted`] so the live machine boots
/// the *same* partition the plan reasoned about — without this, a
/// backfill admission proven safe against a reservation in the plan could
/// land on a different block on the machine and delay that reservation
/// after all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PlacementHint {
    /// First unit of the chosen block (0 on geometry-free machines).
    pub unit_start: u16,
    /// Unit length of the chosen block (0 = no geometry, machine's
    /// choice).
    pub unit_len: u16,
}

/// A cloneable what-if availability profile. See the module docs.
pub trait Plan: Clone {
    /// The instant the plan was snapshotted; commitments never begin
    /// before it.
    fn now(&self) -> SimTime;

    /// Total machine nodes.
    fn total_nodes(&self) -> Nodes;

    /// Rounded (allocatable) size of a request — matches the live
    /// machine's rounding.
    fn rounded_size(&self, nodes: Nodes) -> Nodes;

    /// Whether a job of `nodes` for `duration` could run over
    /// `[start, start + duration)` without conflicting with any
    /// commitment in the plan.
    fn can_place_at(&self, nodes: Nodes, start: SimTime, duration: SimDuration) -> bool;

    /// The earliest start `>= not_before` at which the job fits. Returns
    /// [`SimTime::MAX`] only for requests larger than the machine.
    fn earliest_start(&self, nodes: Nodes, duration: SimDuration, not_before: SimTime) -> SimTime;

    /// Commit the job at exactly `start`; `None` if it does not fit
    /// there.
    fn commit_at(
        &mut self,
        nodes: Nodes,
        start: SimTime,
        duration: SimDuration,
    ) -> Option<PlanToken>;

    /// Find the earliest feasible start `>= not_before` and commit there:
    /// the [`Plan::earliest_start`] answer, committed as [`Plan::commit_at`]
    /// would. Returns `None` only for requests larger than the machine.
    fn place_earliest(
        &mut self,
        nodes: Nodes,
        duration: SimDuration,
        not_before: SimTime,
    ) -> Option<(SimTime, PlanToken)>;

    /// Undo the most recent outstanding commitment. Must be called in
    /// strict LIFO order; panics otherwise, and panics on attempts to
    /// roll back the snapshot's base (running-job) commitments.
    fn rollback(&mut self, token: PlanToken);

    /// The geometry chosen for an outstanding commitment (the all-zero
    /// hint on geometry-free machines).
    fn hint_of(&self, token: &PlanToken) -> PlacementHint;

    /// Void a commitment in place (non-LIFO): it stops occupying any
    /// resources but keeps its slot, so other tokens stay valid. Used by
    /// the scheduler to drop *advisory* reservations from a plan while
    /// keeping the starts and protected reservations exactly where the
    /// window pass put them. Consumes the token; a deactivated
    /// commitment cannot be rolled back.
    fn deactivate(&mut self, token: PlanToken);

    /// Number of commitments, including the base running jobs. Exposed
    /// for cost accounting in benchmarks.
    fn commitment_count(&self) -> usize;
}

/// Ensure the overlay timeline has a breakpoint at `t`; return its
/// segment index. Segment `i` covers `[times[i], times[i+1])` (the last
/// one extends forever); `vals[i]` is the overlay load in that segment.
/// `t` must be at or after the timeline origin (`times[0]`, the plan's
/// `now`) — overlay commitments never start in the past.
fn timeline_split<V: Copy>(times: &mut Vec<SimTime>, vals: &mut Vec<V>, t: SimTime) -> usize {
    let i = times.partition_point(|&x| x < t);
    if times.get(i) == Some(&t) {
        return i;
    }
    debug_assert!(
        i > 0,
        "overlay commitments never start before the plan origin"
    );
    let carried = vals[i - 1];
    times.insert(i, t);
    vals.insert(i, carried);
    i
}

/// Apply `f` to every overlay timeline segment covering `[start, end)`,
/// splitting boundary segments as needed. Because concurrent placements
/// are disjoint (levels add, blocks never share units while live), the
/// inverse update applied over the same interval removes a commitment
/// exactly — rollback and deactivation need no undo journal. Stale
/// breakpoints left behind by removals are harmless (adjacent equal
/// segments) and go when the plan is next rebuilt or copied over.
fn timeline_apply<V: Copy>(
    times: &mut Vec<SimTime>,
    vals: &mut Vec<V>,
    start: SimTime,
    end: SimTime,
    mut f: impl FnMut(&mut V),
) {
    if start >= end {
        return;
    }
    let s = timeline_split(times, vals, start);
    let e = timeline_split(times, vals, end);
    for v in &mut vals[s..e] {
        f(v);
    }
}

/// One busy interval of the profile.
#[derive(Clone, Copy, Debug)]
struct Commitment {
    /// First unit of the block (partitioned) or 0 (flat).
    unit_start: u16,
    /// Unit length of the block (partitioned) or the raw node count (flat).
    unit_len: u32,
    start: SimTime,
    end: SimTime,
}

// ---------------------------------------------------------------------------
// FlatPlan
// ---------------------------------------------------------------------------

/// Availability profile of a [`crate::FlatCluster`]: only aggregate free
/// capacity matters.
#[derive(Debug)]
pub struct FlatPlan {
    now: SimTime,
    total: Nodes,
    /// Out-of-service nodes; never promised to any placement.
    down: Nodes,
    base_len: usize,
    commitments: Vec<Commitment>,
    /// Distinct base release instants, ascending (memoized profile).
    base_ends: Vec<SimTime>,
    /// `base_level[i]` = nodes still held by base commitments at any
    /// instant in `[base_ends[i-1], base_ends[i])`; one trailing 0 for
    /// "after the last release". (Base commitments all start at `now`,
    /// so the base load is non-increasing.)
    base_level: Vec<Nodes>,
    /// Overlay load timeline: `overlay_level[i]` nodes are held by
    /// overlay commitments during `[overlay_times[i], overlay_times[i+1])`
    /// (the last segment extends forever). Kept exact under commit,
    /// rollback, and deactivation, so every query costs the segments it
    /// touches instead of a scan over all overlay commitments.
    overlay_times: Vec<SimTime>,
    overlay_level: Vec<Nodes>,
}

impl FlatPlan {
    /// New plan with the given busy base load: `(nodes, release_time)`
    /// per running job.
    pub fn new(now: SimTime, total: Nodes, running: &[(Nodes, SimTime)]) -> Self {
        let mut plan = FlatPlan {
            now,
            total,
            down: 0,
            base_len: 0,
            commitments: Vec::new(),
            base_ends: Vec::new(),
            base_level: Vec::new(),
            overlay_times: Vec::new(),
            overlay_level: Vec::new(),
        };
        plan.rebuild(now, total, 0, running.iter().copied());
        plan
    }

    /// Rebuild in place into what [`FlatPlan::new`] and
    /// [`FlatPlan::with_down`] would make, keeping every buffer's
    /// capacity: a plan rebuilt at each event allocates nothing once its
    /// buffers have grown to the machine's busiest instant.
    pub fn rebuild(
        &mut self,
        now: SimTime,
        total: Nodes,
        down: Nodes,
        running: impl IntoIterator<Item = (Nodes, SimTime)>,
    ) {
        assert!(down <= total);
        let soonest = now + SimDuration::from_secs(1);
        self.now = now;
        self.total = total;
        self.down = down;
        self.commitments.clear();
        self.commitments
            .extend(running.into_iter().map(|(nodes, release)| Commitment {
                unit_start: 0,
                unit_len: nodes,
                start: now,
                end: release.max(soonest),
            }));
        self.base_len = self.commitments.len();
        // Memoize the base step profile: per distinct release instant,
        // the load still held from the *previous* instant up to it. No
        // token names a base commitment, so sorting them in place is
        // unobservable.
        self.commitments.sort_unstable_by_key(|c| c.end);
        self.base_ends.clear();
        self.base_level.clear();
        for c in &self.commitments {
            if self.base_ends.last() == Some(&c.end) {
                *self.base_level.last_mut().expect("paired with base_ends") += c.unit_len;
            } else {
                self.base_ends.push(c.end);
                self.base_level.push(c.unit_len);
            }
        }
        // Suffix-sum the per-instant releases into levels: the level
        // before instant i is everything releasing at i or later.
        self.base_level.push(0);
        for i in (0..self.base_ends.len()).rev() {
            self.base_level[i] += self.base_level[i + 1];
        }
        self.overlay_times.clear();
        self.overlay_times.push(now);
        self.overlay_level.clear();
        self.overlay_level.push(0);
    }

    /// Exclude `down` out-of-service nodes from every placement answer
    /// (the machine's failed capacity).
    pub fn with_down(mut self, down: Nodes) -> Self {
        assert!(down <= self.total);
        self.down = down;
        self
    }

    /// In-service capacity.
    fn in_service(&self) -> Nodes {
        self.total - self.down
    }

    /// Record a placement the caller has proven feasible.
    fn push_commitment(
        &mut self,
        nodes: Nodes,
        start: SimTime,
        duration: SimDuration,
    ) -> PlanToken {
        let nodes = self.rounded_size(nodes);
        let end = start + duration.max(SimDuration::from_secs(1));
        debug_assert!(start >= self.now, "placements never start in the past");
        self.commitments.push(Commitment {
            unit_start: 0,
            unit_len: nodes,
            start,
            end,
        });
        timeline_apply(
            &mut self.overlay_times,
            &mut self.overlay_level,
            start,
            end,
            |v| *v += nodes,
        );
        PlanToken(self.commitments.len() - 1)
    }

    /// The first start `>= start` whose window fits `nodes`, found in one
    /// forward walk over the merged profile: memoized base levels plus
    /// the overlay timeline, both cursors carried across jumps. A piece
    /// inside the window `[t, t + d)` that leaves fewer than `nodes` free
    /// rules out every start before its end, so `t` jumps there. Levels
    /// only drop where a live commitment ends, so the answer is `start`
    /// or such an end, and no earlier start fits.
    /// Without `jump`, the walk answers `None` at the first overloaded
    /// piece instead (the [`Plan::can_place_at`] question).
    fn first_fit(
        &self,
        nodes: Nodes,
        start: SimTime,
        duration: SimDuration,
        jump: bool,
    ) -> Option<SimTime> {
        let d = duration.max(SimDuration::from_secs(1));
        let cap = self.in_service();
        let mut t = start;
        // Nothing is held before `now`, where both profiles begin.
        let mut at = start.max(self.now);
        let mut bi = self.base_ends.partition_point(|&e| e <= at);
        let mut oi = self.overlay_times.partition_point(|&x| x <= at) - 1;
        while at < t + d {
            let base_end = self.base_ends.get(bi).copied().unwrap_or(SimTime::MAX);
            let overlay_end = self
                .overlay_times
                .get(oi + 1)
                .copied()
                .unwrap_or(SimTime::MAX);
            let after = base_end.min(overlay_end);
            if self.base_level[bi] + self.overlay_level[oi] + nodes > cap {
                if !jump {
                    return None;
                }
                t = after;
            }
            if after == SimTime::MAX {
                break;
            }
            at = after;
            bi += usize::from(base_end == after);
            oi += usize::from(overlay_end == after);
        }
        Some(t)
    }
}

/// `clone_from` keeps the target's buffers: a pass copies the base plan
/// into the plan it worked in last time without allocating.
impl Clone for FlatPlan {
    fn clone(&self) -> Self {
        let mut plan = FlatPlan::new(self.now, self.total, &[]);
        plan.clone_from(self);
        plan
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured so that a field added later cannot be missed.
        let FlatPlan {
            now,
            total,
            down,
            base_len,
            commitments,
            base_ends,
            base_level,
            overlay_times,
            overlay_level,
        } = source;
        self.now = *now;
        self.total = *total;
        self.down = *down;
        self.base_len = *base_len;
        self.commitments.clone_from(commitments);
        self.base_ends.clone_from(base_ends);
        self.base_level.clone_from(base_level);
        self.overlay_times.clone_from(overlay_times);
        self.overlay_level.clone_from(overlay_level);
    }
}

impl Plan for FlatPlan {
    fn now(&self) -> SimTime {
        self.now
    }

    fn total_nodes(&self) -> Nodes {
        self.total
    }

    fn rounded_size(&self, nodes: Nodes) -> Nodes {
        nodes.max(1)
    }

    fn can_place_at(&self, nodes: Nodes, start: SimTime, duration: SimDuration) -> bool {
        let nodes = self.rounded_size(nodes);
        if nodes > self.in_service() {
            return false;
        }
        self.first_fit(nodes, start, duration, false).is_some()
    }

    fn earliest_start(&self, nodes: Nodes, duration: SimDuration, not_before: SimTime) -> SimTime {
        let nodes = self.rounded_size(nodes);
        if nodes > self.in_service() {
            return SimTime::MAX;
        }
        self.first_fit(nodes, not_before.max(self.now), duration, true)
            .expect("the walk jumps past every overloaded piece")
    }

    fn commit_at(
        &mut self,
        nodes: Nodes,
        start: SimTime,
        duration: SimDuration,
    ) -> Option<PlanToken> {
        if !self.can_place_at(nodes, start, duration) {
            return None;
        }
        Some(self.push_commitment(nodes, start, duration))
    }

    fn place_earliest(
        &mut self,
        nodes: Nodes,
        duration: SimDuration,
        not_before: SimTime,
    ) -> Option<(SimTime, PlanToken)> {
        // The scan already proved `start` feasible: commit without
        // walking the window's load levels a second time.
        let start = self.earliest_start(nodes, duration, not_before);
        if start == SimTime::MAX {
            return None;
        }
        debug_assert!(self.can_place_at(nodes, start, duration));
        Some((start, self.push_commitment(nodes, start, duration)))
    }

    fn rollback(&mut self, token: PlanToken) {
        assert!(
            token.0 >= self.base_len,
            "cannot roll back a base (running-job) commitment"
        );
        assert_eq!(token.0, self.commitments.len() - 1, "rollback must be LIFO");
        let c = self.commitments.pop().expect("LIFO token checked above");
        timeline_apply(
            &mut self.overlay_times,
            &mut self.overlay_level,
            c.start,
            c.end,
            |v| *v -= c.unit_len,
        );
    }

    fn hint_of(&self, _token: &PlanToken) -> PlacementHint {
        PlacementHint::default()
    }

    fn deactivate(&mut self, token: PlanToken) {
        assert!(
            token.0 >= self.base_len,
            "cannot deactivate a base (running-job) commitment"
        );
        // The slot stays, so later tokens keep their indices; only the
        // load goes.
        let c = self.commitments[token.0];
        timeline_apply(
            &mut self.overlay_times,
            &mut self.overlay_level,
            c.start,
            c.end,
            |v| *v -= c.unit_len,
        );
    }

    fn commitment_count(&self) -> usize {
        self.commitments.len()
    }
}

// ---------------------------------------------------------------------------
// PartitionPlan
// ---------------------------------------------------------------------------

/// Availability profile of a [`crate::BgpCluster`]: jobs occupy aligned
/// power-of-two runs of midplane units (or the full machine), so
/// placement must find a *specific* free block, not just free capacity.
///
/// Busy-unit sets are *rows* of `mask_words` words (see
/// [`crate::mask`]): a machine of 80 midplanes stores and ORs 2 words
/// per set, not a [`UnitMask`]'s 16.
#[derive(Debug)]
pub struct PartitionPlan {
    now: SimTime,
    units: u16,
    nodes_per_unit: Nodes,
    max_block: u16,
    /// `units.div_ceil(64)`: the words of every row below.
    mask_words: usize,
    base_len: usize,
    commitments: Vec<Commitment>,
    /// Distinct base release instants, ascending (memoized profile).
    base_ends: Vec<SimTime>,
    /// Row `i` = the units out of service or held by a base block at any
    /// instant in `[base_ends[i-1], base_ends[i])`; one trailing row for
    /// "after the last release", which holds the out-of-service units
    /// alone (never promised to any placement). Base blocks all start at
    /// `now`, so the set only shrinks, at release instants.
    cum_masks: Vec<u64>,
    /// Overlay busy timeline: row `overlay_seg[i]` of `mask_pool` is the
    /// union of units held by overlay commitments during
    /// `[overlay_times[i], overlay_times[i+1])` (the last segment extends
    /// forever). Live overlay blocks never share units at overlapping
    /// instants (each commit checks the busy row first), so clearing a
    /// block's range removes it exactly — rollback and deactivation stay
    /// journal-free. Rows live in an append-only pool (one per segment)
    /// so splitting a segment shifts a time and an index, not a row.
    overlay_times: Vec<SimTime>,
    overlay_seg: Vec<u32>,
    mask_pool: Vec<u64>,
}

impl PartitionPlan {
    /// New plan for a machine of `units` midplanes of `nodes_per_unit`
    /// nodes, with running blocks `(unit_start, unit_len, release_time)`.
    pub fn new(
        now: SimTime,
        units: u16,
        nodes_per_unit: Nodes,
        running: &[(u16, u16, SimTime)],
    ) -> Self {
        let mut plan = PartitionPlan {
            now,
            units,
            nodes_per_unit,
            max_block: 1,
            mask_words: 0,
            base_len: 0,
            commitments: Vec::new(),
            base_ends: Vec::new(),
            cum_masks: Vec::new(),
            overlay_times: Vec::new(),
            overlay_seg: Vec::new(),
            mask_pool: Vec::new(),
        };
        plan.rebuild(
            now,
            units,
            nodes_per_unit,
            &UnitMask::empty(),
            running.iter().copied(),
        );
        plan
    }

    /// Rebuild in place into what [`PartitionPlan::new`] and
    /// [`PartitionPlan::with_down`] would make, keeping every buffer's
    /// capacity (see [`FlatPlan::rebuild`]).
    pub fn rebuild(
        &mut self,
        now: SimTime,
        units: u16,
        nodes_per_unit: Nodes,
        down: &UnitMask,
        running: impl IntoIterator<Item = (u16, u16, SimTime)>,
    ) {
        assert!(
            units >= 1 && (units as usize) <= crate::mask::MAX_UNITS,
            "unit count out of range"
        );
        let mw = (units as usize).div_ceil(64);
        let soonest = now + SimDuration::from_secs(1);
        self.now = now;
        self.units = units;
        self.nodes_per_unit = nodes_per_unit;
        self.max_block = prev_power_of_two(units);
        self.mask_words = mw;
        self.commitments.clear();
        self.commitments
            .extend(
                running
                    .into_iter()
                    .map(|(unit_start, unit_len, release)| Commitment {
                        unit_start,
                        unit_len: unit_len as u32,
                        start: now,
                        end: release.max(soonest),
                    }),
            );
        self.base_len = self.commitments.len();
        // Memoize the base mask profile: cumulative union of the blocks
        // still held before each distinct release instant. No token
        // names a base commitment, so sorting them in place is
        // unobservable, and it puts each block's row in step with it.
        self.commitments.sort_unstable_by_key(|c| c.end);
        self.base_ends.clear();
        for c in &self.commitments {
            if self.base_ends.last() != Some(&c.end) {
                self.base_ends.push(c.end);
            }
        }
        self.cum_masks.clear();
        self.cum_masks.resize((self.base_ends.len() + 1) * mw, 0);
        let mut slot = 0;
        for c in &self.commitments {
            while self.base_ends[slot] < c.end {
                slot += 1;
            }
            let start = c.unit_start as usize;
            mask::set_bits(
                &mut self.cum_masks[slot * mw..][..mw],
                start,
                start + c.unit_len as usize,
            );
        }
        // Suffix-OR: the row before instant i holds everything
        // releasing at i or later.
        for i in (0..self.base_ends.len()).rev() {
            let (row, next) = self.cum_masks[i * mw..].split_at_mut(mw);
            mask::or_bits(row, &next[..mw]);
        }
        let down = &down.words()[..mw];
        for row in self.cum_masks.chunks_exact_mut(mw) {
            mask::or_bits(row, down);
        }
        self.overlay_times.clear();
        self.overlay_times.push(now);
        self.overlay_seg.clear();
        self.overlay_seg.push(0);
        self.mask_pool.clear();
        self.mask_pool.resize(mw, 0);
    }

    /// Ensure the overlay timeline has a breakpoint at `t`; return its
    /// segment index. New segments get a fresh pool row (pool rows are
    /// never shared between segments, so in-place edits stay
    /// per-segment).
    fn tl_split(&mut self, t: SimTime) -> usize {
        let i = self.overlay_times.partition_point(|&x| x < t);
        if self.overlay_times.get(i) == Some(&t) {
            return i;
        }
        debug_assert!(
            i > 0,
            "overlay commitments never start before the plan origin"
        );
        let mw = self.mask_words;
        let carried = self.overlay_seg[i - 1] as usize * mw;
        self.mask_pool.extend_from_within(carried..carried + mw);
        self.overlay_times.insert(i, t);
        self.overlay_seg
            .insert(i, (self.mask_pool.len() / mw - 1) as u32);
        i
    }

    /// Apply `f` to the row of every overlay segment covering
    /// `[start, end)`, splitting boundary segments as needed.
    fn tl_apply(&mut self, start: SimTime, end: SimTime, f: impl Fn(&mut [u64])) {
        if start >= end {
            return;
        }
        let s = self.tl_split(start);
        let e = self.tl_split(end);
        let mw = self.mask_words;
        for &idx in &self.overlay_seg[s..e] {
            f(&mut self.mask_pool[idx as usize * mw..][..mw]);
        }
    }

    /// Exclude the units in `down` from every placement answer (the
    /// machine's failed midplanes).
    pub fn with_down(mut self, down: UnitMask) -> Self {
        let down = &down.words()[..self.mask_words];
        for row in self.cum_masks.chunks_exact_mut(self.mask_words) {
            mask::or_bits(row, down);
        }
        self
    }

    /// The out-of-service units: the base profile's trailing row.
    fn down(&self) -> &[u64] {
        &self.cum_masks[self.base_ends.len() * self.mask_words..]
    }

    /// Unit length a request rounds to, or `None` if larger than the
    /// machine. Power-of-two up to `max_block`, else the full machine.
    fn rounded_units(&self, nodes: Nodes) -> Option<u16> {
        let req = nodes.max(1).div_ceil(self.nodes_per_unit);
        if req > self.units as u32 {
            return None;
        }
        let k = (req as u16).next_power_of_two();
        if k > self.max_block {
            Some(self.units) // full-machine partition
        } else {
            Some(k)
        }
    }

    /// The query cursors of instant `t`: how many base ends and overlay
    /// breakpoints lie at or before it. Base row `bi` and overlay
    /// segment `oi - 1` (when `oi > 0`) are the ones holding at `t`.
    fn cursors(&self, t: SimTime) -> (usize, usize) {
        (
            self.base_ends.partition_point(|&e| e <= t),
            self.overlay_times.partition_point(|&x| x <= t),
        )
    }

    /// Write into `row` the units unusable at any point during
    /// `[start, end)`, given `start` as its [`Self::cursors`] `(bi, oi)`:
    /// base row `bi` (out of service, or held by a base block — those
    /// all run from `now`) and every overlay segment the window touches.
    fn busy_row(&self, (bi, oi): (usize, usize), end: SimTime, row: &mut [u64]) {
        if end <= self.now {
            // Nothing is held before `now`, where every commitment starts.
            row.copy_from_slice(self.down());
            return;
        }
        let mw = self.mask_words;
        // The segment holding at `max(start, now)` comes first; later
        // ones start inside the window while their breakpoint is before
        // `end`.
        let mut i = oi.max(1) - 1;
        let base = &self.cum_masks[bi * mw..][..mw];
        let seg = &self.mask_pool[self.overlay_seg[i] as usize * mw..][..mw];
        for ((r, &b), &s) in row.iter_mut().zip(base).zip(seg) {
            *r = b | s;
        }
        i += 1;
        while i < self.overlay_times.len() && self.overlay_times[i] < end {
            let seg = self.overlay_seg[i] as usize;
            mask::or_bits(row, &self.mask_pool[seg * mw..][..mw]);
            i += 1;
        }
    }

    /// The lowest aligned `k`-unit block free over `[start, start + d)`.
    fn block_at(&self, k: u16, start: SimTime, d: SimDuration) -> Option<u16> {
        let mut row = [0u64; MAX_WORDS];
        let row = &mut row[..self.mask_words];
        self.busy_row(self.cursors(start), start + d, row);
        self.find_free_block(k, row)
    }

    /// The earliest start `>= not_before` for a `k`-unit block that is
    /// in service somewhere, with the block free there, found in one
    /// forward walk (memoized path). Candidates are `not_before`, then
    /// the base ends merged with the overlay breakpoints after it, and
    /// the walk carries both cursors from one candidate to the next.
    /// Busy sets only shrink where a live commitment ends, so the first
    /// feasible start is `not_before` or such an end — a base end or an
    /// overlay breakpoint. The extra breakpoints (overlay starts, stale
    /// or deactivated ends) that come before it are infeasible like every
    /// instant before it, so the walk's first fit is the earliest start,
    /// with the lowest free block there.
    fn earliest_block(&self, k: u16, duration: SimDuration, not_before: SimTime) -> (SimTime, u16) {
        let d = duration.max(SimDuration::from_secs(1));
        let mut row = [0u64; MAX_WORDS];
        let row = &mut row[..self.mask_words];
        let (mut bi, mut oi) = self.cursors(not_before);
        let mut t = not_before;
        loop {
            self.busy_row((bi, oi), t + d, row);
            if let Some(block) = self.find_free_block(k, row) {
                return (t, block);
            }
            let base_end = self.base_ends.get(bi).copied().unwrap_or(SimTime::MAX);
            let overlay_end = self.overlay_times.get(oi).copied().unwrap_or(SimTime::MAX);
            t = base_end.min(overlay_end);
            assert!(
                t < SimTime::MAX,
                "a job no larger than the machine fits after all releases"
            );
            bi += usize::from(base_end == t);
            oi += usize::from(overlay_end == t);
        }
    }

    /// Record a placement on a block the caller has found free.
    fn push_commitment(&mut self, block: u16, k: u16, start: SimTime, end: SimTime) -> PlanToken {
        debug_assert!(start >= self.now, "placements never start in the past");
        self.commitments.push(Commitment {
            unit_start: block,
            unit_len: k as u32,
            start,
            end,
        });
        let first = block as usize;
        self.tl_apply(start, end, |row| {
            mask::set_bits(row, first, first + k as usize)
        });
        PlanToken(self.commitments.len() - 1)
    }

    /// Lowest-index aligned free block of `k` units under `busy`, if any.
    fn find_free_block(&self, k: u16, busy: &[u64]) -> Option<u16> {
        if k == self.units {
            // Also covers the non-power-of-two full-machine rounding.
            return busy.iter().all(|&w| w == 0).then_some(0);
        }
        mask::first_clear_aligned(busy, k, self.units)
    }
}

/// `clone_from` keeps the target's buffers (see [`FlatPlan`]'s).
impl Clone for PartitionPlan {
    fn clone(&self) -> Self {
        let mut plan = PartitionPlan::new(self.now, self.units, self.nodes_per_unit, &[]);
        plan.clone_from(self);
        plan
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured so that a field added later cannot be missed.
        let PartitionPlan {
            now,
            units,
            nodes_per_unit,
            max_block,
            mask_words,
            base_len,
            commitments,
            base_ends,
            cum_masks,
            overlay_times,
            overlay_seg,
            mask_pool,
        } = source;
        self.now = *now;
        self.units = *units;
        self.nodes_per_unit = *nodes_per_unit;
        self.max_block = *max_block;
        self.mask_words = *mask_words;
        self.base_len = *base_len;
        self.commitments.clone_from(commitments);
        self.base_ends.clone_from(base_ends);
        self.cum_masks.clone_from(cum_masks);
        self.overlay_times.clone_from(overlay_times);
        self.overlay_seg.clone_from(overlay_seg);
        self.mask_pool.clone_from(mask_pool);
    }
}

impl Plan for PartitionPlan {
    fn now(&self) -> SimTime {
        self.now
    }

    fn total_nodes(&self) -> Nodes {
        self.units as Nodes * self.nodes_per_unit
    }

    fn rounded_size(&self, nodes: Nodes) -> Nodes {
        match self.rounded_units(nodes) {
            Some(k) => k as Nodes * self.nodes_per_unit,
            None => Nodes::MAX,
        }
    }

    fn can_place_at(&self, nodes: Nodes, start: SimTime, duration: SimDuration) -> bool {
        let Some(k) = self.rounded_units(nodes) else {
            return false;
        };
        self.block_at(k, start, duration.max(SimDuration::from_secs(1)))
            .is_some()
    }

    fn earliest_start(&self, nodes: Nodes, duration: SimDuration, not_before: SimTime) -> SimTime {
        let Some(k) = self.rounded_units(nodes) else {
            return SimTime::MAX;
        };
        // With units out of service the request may not fit even on an
        // otherwise empty machine.
        if self.find_free_block(k, self.down()).is_none() {
            return SimTime::MAX;
        }
        self.earliest_block(k, duration, not_before.max(self.now)).0
    }

    fn commit_at(
        &mut self,
        nodes: Nodes,
        start: SimTime,
        duration: SimDuration,
    ) -> Option<PlanToken> {
        let k = self.rounded_units(nodes)?;
        let d = duration.max(SimDuration::from_secs(1));
        let block = self.block_at(k, start, d)?;
        Some(self.push_commitment(block, k, start, start + d))
    }

    fn place_earliest(
        &mut self,
        nodes: Nodes,
        duration: SimDuration,
        not_before: SimTime,
    ) -> Option<(SimTime, PlanToken)> {
        let k = self.rounded_units(nodes)?;
        self.find_free_block(k, self.down())?;
        // One search: commit the very block the scan found free instead
        // of rebuilding the winning instant's busy mask in `commit_at`.
        let (start, block) = self.earliest_block(k, duration, not_before.max(self.now));
        let end = start + duration.max(SimDuration::from_secs(1));
        Some((start, self.push_commitment(block, k, start, end)))
    }

    fn rollback(&mut self, token: PlanToken) {
        assert!(
            token.0 >= self.base_len,
            "cannot roll back a base (running-job) commitment"
        );
        assert_eq!(token.0, self.commitments.len() - 1, "rollback must be LIFO");
        let c = self.commitments.pop().expect("LIFO token checked above");
        let first = c.unit_start as usize;
        self.tl_apply(c.start, c.end, |row| {
            mask::clear_bits(row, first, first + c.unit_len as usize)
        });
    }

    fn hint_of(&self, token: &PlanToken) -> PlacementHint {
        let c = &self.commitments[token.0];
        PlacementHint {
            unit_start: c.unit_start,
            unit_len: c.unit_len as u16,
        }
    }

    fn deactivate(&mut self, token: PlanToken) {
        assert!(
            token.0 >= self.base_len,
            "cannot deactivate a base (running-job) commitment"
        );
        // The slot stays, so later tokens keep their indices; only the
        // block goes.
        let c = self.commitments[token.0];
        let first = c.unit_start as usize;
        self.tl_apply(c.start, c.end, |row| {
            mask::clear_bits(row, first, first + c.unit_len as usize)
        });
    }

    fn commitment_count(&self) -> usize {
        self.commitments.len()
    }
}

/// Largest power of two `<= n` (n >= 1).
fn prev_power_of_two(n: u16) -> u16 {
    debug_assert!(n >= 1);
    let npot = n.next_power_of_two();
    if npot == n {
        n
    } else {
        npot / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: i64) -> SimTime {
        SimTime::from_secs(secs)
    }
    fn d(secs: i64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    // ----- FlatPlan -----

    #[test]
    fn flat_empty_machine_starts_immediately() {
        let p = FlatPlan::new(t(0), 100, &[]);
        assert_eq!(p.earliest_start(100, d(60), t(0)), t(0));
        assert!(p.can_place_at(100, t(0), d(60)));
        assert!(!p.can_place_at(101, t(0), d(60)));
        assert_eq!(p.earliest_start(101, d(60), t(0)), SimTime::MAX);
    }

    #[test]
    fn flat_waits_for_release() {
        // 80 nodes busy until t=100; a 50-node job must wait.
        let p = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        assert_eq!(p.earliest_start(50, d(10), t(0)), t(100));
        assert_eq!(p.earliest_start(20, d(10), t(0)), t(0));
    }

    #[test]
    fn flat_future_reservation_blocks_long_jobs_only() {
        let mut p = FlatPlan::new(t(0), 100, &[]);
        // Reserve 100 nodes over [50, 150).
        let tok = p.commit_at(100, t(50), d(100)).unwrap();
        // A 30-second job fits before the reservation...
        assert!(p.can_place_at(10, t(0), d(30)));
        // ...a 60-second one does not.
        assert!(!p.can_place_at(10, t(0), d(60)));
        assert_eq!(p.earliest_start(10, d(60), t(0)), t(150));
        p.rollback(tok);
        assert!(p.can_place_at(10, t(0), d(60)));
    }

    #[test]
    fn flat_not_before_is_respected() {
        let p = FlatPlan::new(t(0), 100, &[]);
        assert_eq!(p.earliest_start(10, d(10), t(500)), t(500));
    }

    #[test]
    fn flat_not_before_clamped_to_now() {
        let p = FlatPlan::new(t(100), 100, &[]);
        assert_eq!(p.earliest_start(10, d(10), t(0)), t(100));
    }

    #[test]
    fn flat_zero_duration_treated_as_one_second() {
        let mut p = FlatPlan::new(t(0), 10, &[]);
        let tok = p.commit_at(10, t(0), d(0)).unwrap();
        assert!(!p.can_place_at(1, t(0), d(1)));
        assert_eq!(p.earliest_start(1, d(1), t(0)), t(1));
        p.rollback(tok);
    }

    #[test]
    fn flat_capacity_dip_in_window_is_detected() {
        // Free now, but 95 nodes start at t=20 for 100s. A 10-node,
        // 60-second job cannot start at t=0.
        let mut p = FlatPlan::new(t(0), 100, &[]);
        let _keep = p.commit_at(95, t(20), d(100)).unwrap();
        assert!(!p.can_place_at(10, t(0), d(60)));
        assert!(p.can_place_at(5, t(0), d(60)));
        assert_eq!(p.earliest_start(10, d(60), t(0)), t(120));
    }

    #[test]
    fn flat_place_earliest_commits() {
        let mut p = FlatPlan::new(t(0), 100, &[(100, t(50))]);
        let (start, tok) = p.place_earliest(60, d(10), t(0)).unwrap();
        assert_eq!(start, t(50));
        // Second identical job must queue behind the first.
        let (start2, tok2) = p.place_earliest(60, d(10), t(0)).unwrap();
        assert_eq!(start2, t(60));
        p.rollback(tok2);
        p.rollback(tok);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn flat_rollback_out_of_order_panics() {
        let mut p = FlatPlan::new(t(0), 100, &[]);
        let tok1 = p.commit_at(10, t(0), d(10)).unwrap();
        let _tok2 = p.commit_at(10, t(0), d(10)).unwrap();
        p.rollback(tok1);
    }

    #[test]
    #[should_panic(expected = "base")]
    fn flat_rollback_of_base_panics() {
        let mut p = FlatPlan::new(t(0), 100, &[(10, t(50))]);
        p.rollback(PlanToken(0));
    }

    #[test]
    fn flat_running_job_past_estimate_clamps_to_now() {
        // Release time in the past must not make nodes free "now".
        let p = FlatPlan::new(t(100), 100, &[(100, t(40))]);
        assert!(!p.can_place_at(10, t(100), d(10)));
        assert_eq!(p.earliest_start(10, d(10), t(100)), t(101));
    }

    // ----- PartitionPlan -----

    /// Intrepid-like geometry scaled down: 8 units of 512 nodes.
    fn small_bgp(running: &[(u16, u16, SimTime)]) -> PartitionPlan {
        PartitionPlan::new(t(0), 8, 512, running)
    }

    #[test]
    fn partition_rounds_to_power_of_two_units() {
        let p = small_bgp(&[]);
        assert_eq!(p.rounded_size(1), 512);
        assert_eq!(p.rounded_size(512), 512);
        assert_eq!(p.rounded_size(513), 1024);
        assert_eq!(p.rounded_size(1500), 2048);
        assert_eq!(p.rounded_size(4096), 4096);
        assert_eq!(p.rounded_size(4097), Nodes::MAX);
    }

    #[test]
    fn partition_full_machine_on_nonpow2_units() {
        // 10 units, max pow2 block = 8; an 9-unit request takes all 10.
        let p = PartitionPlan::new(t(0), 10, 512, &[]);
        assert_eq!(p.rounded_size(8 * 512 + 1), 10 * 512);
        assert_eq!(p.total_nodes(), 5120);
    }

    #[test]
    fn partition_alignment_causes_fragmentation() {
        // Units 1 and 2 busy: a 2-unit job needs an aligned pair
        // {0,1},{2,3},{4,5},{6,7}; pairs {4,5} and {6,7} are free.
        let p = small_bgp(&[(1, 2, t(1000))]);
        assert!(p.can_place_at(1024, t(0), d(10)));
        // Now block units 4..8 too: only units 0 and 3 are free — enough
        // capacity for 2 units, but no aligned free pair.
        let p = small_bgp(&[(1, 2, t(1000)), (4, 4, t(1000))]);
        assert!(!p.can_place_at(1024, t(0), d(10)));
        // A single-unit job still fits (unit 0).
        assert!(p.can_place_at(512, t(0), d(10)));
        // The 2-unit job can start when the pair releases at t=1000.
        assert_eq!(p.earliest_start(1024, d(10), t(0)), t(1000));
    }

    #[test]
    fn partition_commit_takes_lowest_block() {
        let mut p = small_bgp(&[]);
        let _a = p.commit_at(512, t(0), d(100)).unwrap();
        // Next single-unit job goes to unit 1, so a 4-unit job can still
        // use the upper half.
        let _b = p.commit_at(512, t(0), d(100)).unwrap();
        assert!(p.can_place_at(2048, t(0), d(100)));
    }

    #[test]
    fn partition_full_machine_needs_everything_free() {
        let mut p = small_bgp(&[]);
        assert!(p.can_place_at(4096, t(0), d(10)));
        let tok = p.commit_at(512, t(0), d(50)).unwrap();
        assert!(!p.can_place_at(4096, t(0), d(10)));
        assert_eq!(p.earliest_start(4096, d(10), t(0)), t(50));
        p.rollback(tok);
        assert!(p.can_place_at(4096, t(0), d(10)));
    }

    #[test]
    fn partition_earliest_start_respects_future_reservations() {
        let mut p = small_bgp(&[]);
        // Reserve the whole machine over [100, 200).
        let _keep = p.commit_at(4096, t(100), d(100)).unwrap();
        // A 90-second single-unit job fits before it; 150-second does not.
        assert_eq!(p.earliest_start(512, d(90), t(0)), t(0));
        assert_eq!(p.earliest_start(512, d(150), t(0)), t(200));
    }

    #[test]
    fn partition_place_earliest_round_trip() {
        let mut p = small_bgp(&[(0, 8, t(500))]);
        let (start, tok) = p.place_earliest(2048, d(60), t(0)).unwrap();
        assert_eq!(start, t(500));
        p.rollback(tok);
        assert_eq!(p.commitment_count(), 1);
    }

    #[test]
    fn partition_oversized_request_is_rejected() {
        let mut p = small_bgp(&[]);
        assert!(!p.can_place_at(4097, t(0), d(10)));
        assert_eq!(p.earliest_start(4097, d(10), t(0)), SimTime::MAX);
        assert!(p.commit_at(4097, t(0), d(10)).is_none());
        assert!(p.place_earliest(4097, d(10), t(0)).is_none());
    }

    #[test]
    fn power_of_two_helper() {
        assert_eq!(prev_power_of_two(80), 64);
        assert_eq!(prev_power_of_two(64), 64);
        assert_eq!(prev_power_of_two(1), 1);
    }

    #[test]
    fn intrepid_geometry_at_both_granularities() {
        let p = PartitionPlan::new(t(0), 80, 512, &[]);
        assert_eq!(p.total_nodes(), 40_960);
        assert_eq!(p.rounded_size(40_960), 40_960);
        assert_eq!(p.rounded_size(32_769), 40_960);
        assert!(p.can_place_at(40_960, t(0), d(10)));

        // Sub-midplane granularity: 640 units of 64 nodes.
        let p = PartitionPlan::new(t(0), 640, 64, &[]);
        assert_eq!(p.total_nodes(), 40_960);
        assert_eq!(p.rounded_size(64), 64);
        assert_eq!(p.rounded_size(65), 128);
        assert!(p.can_place_at(40_960, t(0), d(10)));
    }
}
