//! Window-based group allocation — paper §III-B, step 5.
//!
//! "Group jobs with window size W, for each job window, do job
//! allocation. The job allocation algorithm with window size W runs as
//! follows: based on the permutation of the jobs, do greedy job
//! allocation: if the job has enough idle nodes to run, start it;
//! otherwise, find an earliest time that it can obtain enough nodes to
//! reserve this job. Select one schedule with the least makespan, meaning
//! that the jobs in the window generate a schedule with highest
//! utilization rate."
//!
//! Implementation notes:
//!
//! * The search is one depth-first walk over the permutation tree, in
//!   lexicographic order from the identity (the priority order), on the
//!   plan's LIFO commit/rollback: siblings share their prefix's
//!   commitments, and the last job of a permutation is only *queried*
//!   (`earliest_start`) — nothing is placed after it. Ties keep the
//!   first candidate, so when the order doesn't matter the priority
//!   order wins deterministically.
//! * Before the walk, one `earliest_start` per job on the window-entry
//!   plan gives `floor[i]`. The plan only *gains* commitments during the
//!   search and a commitment never makes an instant feasible, so
//!   `floor[i]` bounds job `i`'s start from below in every permutation.
//!   It is passed as `not_before` (exact: nothing earlier fits) and gives
//!   the two bounds a prefix is pruned on — it cannot beat the best when
//!   * `starts_now + #{unplaced i : floor[i] == now}` (a job with a later
//!     floor cannot start now) is below the best's immediate starts, or
//!   * that count ties and `max(partial makespan, max over unplaced of
//!     floor[i] + walltime[i])` (makespan is a max over starts that only
//!     move later) already reaches the best's makespan.
//!
//!   Both are checked before each child of a prefix, the root included:
//!   an identity that meets them ends the search.
//! * A pruned prefix still *counts* every permutation under it:
//!   `searched` and the trace's losers are "permutations in lexicographic
//!   order up to `max_permutations`", whatever depth rejected them.
//! * If the identity permutation starts *every* window job immediately,
//!   the search is skipped: all orders then share the same makespan
//!   `max(now + walltime_i)`.
//! * `max_permutations` bounds the enumeration (5! = 120 covers the
//!   paper's largest window exactly; the default cap of 720 covers W=6).
//!   W! is the worst case, not the typical pass: most searches end at
//!   the root bound or prune at depth one.

use amjs_sim::SimTime;

use amjs_platform::plan::{Plan, PlanToken};

use crate::scheduler::QueuedJob;

/// One job placed by a window pass: which window slot, when it is
/// planned to start, and the plan token of its committed placement.
/// Returned in *commit order* (the chosen permutation's order). The
/// token lets the scheduler later read the placement's geometry
/// ([`Plan::hint_of`]) or void it ([`Plan::deactivate`]).
#[derive(Debug)]
pub struct WindowPlacement {
    /// Index of the job within the window slice passed in.
    pub slot: usize,
    /// Planned start time (`now` = starts immediately).
    pub start: SimTime,
    /// Token of the commitment left in the plan.
    pub token: PlanToken,
}

/// Place `window` jobs in the given order (no search), committing each at
/// its earliest feasible start `>= floor`, and append the placements to
/// `out`. With `monotone` set, each placement additionally may not start
/// before the previous one — strict in-order (no-backfill) semantics.
///
/// # Panics
/// Panics if a job is larger than the machine (callers filter oversized
/// jobs when loading the trace).
pub fn place_in_order<P: Plan>(
    plan: &mut P,
    window: &[QueuedJob],
    floor: SimTime,
    monotone: bool,
    out: &mut Vec<WindowPlacement>,
) {
    let mut not_before = floor;
    for (slot, job) in window.iter().enumerate() {
        let (start, token) = plan
            .place_earliest(job.nodes, job.walltime, not_before)
            .unwrap_or_else(|| panic!("{} exceeds the machine", job.id));
        if monotone {
            not_before = start;
        }
        out.push(WindowPlacement { slot, start, token });
    }
}

/// A permutation the search considered and did not choose.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoserTrace {
    /// Window-slot order of the losing permutation.
    pub order: Vec<usize>,
    /// Immediate starts it achieved (0 when pruned before completion).
    pub starts_now: usize,
    /// Its window makespan; `None` when the search pruned it (a prefix
    /// of it already could not beat the best). A permutation rejected
    /// with its whole subtree is still recorded here individually.
    pub makespan: Option<SimTime>,
}

/// What one permutation search saw — captured only when the
/// observability layer asks for it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchTrace {
    /// Window-slot order of the winning permutation.
    pub chosen: Vec<usize>,
    /// Immediate starts of the winner.
    pub starts_now: usize,
    /// Window makespan of the winner.
    pub makespan: SimTime,
    /// Permutations considered, in lexicographic order up to the cap:
    /// the identity, and every one pruned — alone or with its subtree.
    pub searched: usize,
    /// True when the identity started every job now and the search was
    /// skipped (or the window had ≤ 1 job).
    pub fast_path: bool,
    /// Every losing permutation, in enumeration order.
    pub losers: Vec<LoserTrace>,
}

/// How much work the permutation searches of a pass did. Plain counts
/// of what the algorithm decided to evaluate, so they repeat exactly
/// from run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Permutation searches run (windows of two or more jobs).
    pub searches: u64,
    /// Earliest-start evaluations they made: speculative commits, leaf
    /// queries and the per-job floor queries.
    pub placements: u64,
    /// Searches that ended at the root: the identity met both bounds
    /// (the all-start-now fast path included).
    pub bound_exits: u64,
    /// Windows an untraced EASY pass left unplanned: its protected
    /// reservations were fixed and nothing left could start now.
    pub unplanned: u64,
}

/// The buffers of a window placement, kept by the caller from one window
/// to the next so that a search in steady state allocates nothing.
#[derive(Debug, Default)]
pub struct WindowScratch {
    /// The placements of the last [`place_best_permutation`], in commit
    /// order. The caller may drain it or reuse it for
    /// [`place_in_order`].
    pub placed: Vec<WindowPlacement>,
    floor: Vec<SimTime>,
    perm: Vec<usize>,
    starts: Vec<SimTime>,
    best_perm: Vec<usize>,
    best_starts: Vec<SimTime>,
}

/// Place a window choosing the best permutation (paper step 5, guided by
/// its Fig. 2): the winning schedule **starts the most jobs now** and,
/// among those, has the **least makespan** ("highest utilization rate").
/// Commits the winning permutation into `plan` and leaves its placements
/// in `scratch.placed`, in commit order. Adds the search's work to
/// `stats`; with `capture` given, also records what it tried — the
/// decision is the same either way (the capture arms are never entered
/// without it).
///
/// A pure least-makespan objective would systematically start long jobs
/// ahead of short ones (the longest job dominates the window's makespan,
/// so scheduling it first always shrinks the max) — inverting the
/// short-job preference the balance factor just established. The paper's
/// own illustration of the window benefit (Fig. 2) is "(b) achieves
/// better system utilization" by running *three* waiting jobs instead of
/// two, which is the start-count criterion; makespan discriminates among
/// schedules that tie on it.
pub fn place_best_permutation<P: Plan>(
    plan: &mut P,
    window: &[QueuedJob],
    now: SimTime,
    max_permutations: usize,
    scratch: &mut WindowScratch,
    capture: Option<&mut SearchTrace>,
    stats: &mut WindowStats,
) {
    debug_assert!(max_permutations >= 1);
    let n = window.len();
    scratch.placed.clear();
    if n <= 1 {
        place_in_order(plan, window, now, false, &mut scratch.placed);
        if let Some(cap) = capture {
            let placements = &scratch.placed;
            cap.chosen = index_vec(n);
            cap.starts_now = placements.iter().filter(|p| p.start == now).count();
            cap.makespan = placements
                .iter()
                .map(|p| p.start + window[p.slot].walltime)
                .max()
                .unwrap_or(now);
            cap.fast_path = true;
        }
        return;
    }

    stats.searches += 1;
    stats.placements += n as u64;
    let WindowScratch {
        placed,
        floor,
        perm,
        starts,
        best_perm,
        best_starts,
    } = scratch;
    floor.clear();
    floor.extend(window.iter().map(|job| {
        let floor = plan.earliest_start(job.nodes, job.walltime, now);
        assert!(floor != SimTime::MAX, "{} exceeds the machine", job.id);
        floor
    }));
    perm.clear();
    perm.extend(0..n);
    starts.clear();
    starts.resize(n, now);
    best_perm.clear();
    best_starts.clear();
    let mut search = Search {
        plan,
        window,
        now,
        floor,
        cap: max_permutations.max(1),
        tried: 0,
        perm,
        starts,
        // Any complete permutation beats this: the identity always lands.
        best: Best {
            perm: best_perm,
            starts: best_starts,
            starts_now: 0,
            makespan: SimTime::MAX,
        },
        capture,
        stats,
    };
    search.walk(0, 0, now);
    let Search {
        plan,
        tried,
        best,
        capture,
        ..
    } = search;

    if let Some(cap) = capture {
        cap.chosen = best.perm.clone();
        cap.starts_now = best.starts_now;
        cap.makespan = best.makespan;
        cap.searched = tried;
        // Only the identity takes the fast path (it then stops the walk).
        cap.fast_path = tried == 1 && best.starts_now == n;
    }
    // Re-commit the winner for real: the plan is back in exactly the
    // state its speculative run saw, so each recorded start must hold.
    placed.extend(
        (best.perm.iter().zip(best.starts.iter())).map(|(&slot, &start)| {
            let job = &window[slot];
            let token = plan
                .commit_at(job.nodes, start, job.walltime)
                .unwrap_or_else(|| panic!("replay of {} at {} failed", job.id, start));
            WindowPlacement { slot, start, token }
        }),
    );
}

/// The best complete permutation so far: `perm[d]` starts at `starts[d]`.
struct Best<'a> {
    perm: &'a mut Vec<usize>,
    starts: &'a mut Vec<SimTime>,
    starts_now: usize,
    makespan: SimTime,
}

/// One depth-first walk over a window's permutation tree (module docs).
struct Search<'a, P: Plan> {
    plan: &'a mut P,
    window: &'a [QueuedJob],
    now: SimTime,
    /// `floor[slot]`: the job's earliest start on the window-entry plan.
    floor: &'a [SimTime],
    /// Permutations the search may consider, and how many it has —
    /// evaluated or pruned, in lexicographic order.
    cap: usize,
    tried: usize,
    /// `perm[..depth]` is the committed prefix in commit order;
    /// `perm[depth..]` holds the unplaced slots, ascending.
    perm: &'a mut [usize],
    /// `starts[d]`: where `perm[d]` was placed, for `d < depth`.
    starts: &'a mut [SimTime],
    best: Best<'a>,
    capture: Option<&'a mut SearchTrace>,
    stats: &'a mut WindowStats,
}

impl<P: Plan> Search<'_, P> {
    /// Visit, in lexicographic order, every permutation extending the
    /// prefix `perm[..depth]`, whose jobs are committed in the plan with
    /// `starts_now` immediate starts and a makespan of `makespan`.
    fn walk(&mut self, depth: usize, starts_now: usize, makespan: SimTime) {
        let n = self.window.len();
        if depth == n {
            if self.cannot_beat(n, starts_now, makespan) {
                // A subtree of one: `perm` itself.
                self.skip(n - 1, n - 1);
                return;
            }
            self.tried += 1;
            if let Some(cap) = self.capture.as_deref_mut() {
                if self.tried > 1 {
                    cap.losers.push(LoserTrace {
                        order: self.best.perm.clone(),
                        starts_now: self.best.starts_now,
                        makespan: Some(self.best.makespan),
                    });
                }
            }
            self.best.perm.clear();
            self.best.perm.extend_from_slice(self.perm);
            self.best.starts.clear();
            self.best.starts.extend_from_slice(self.starts);
            self.best.starts_now = starts_now;
            self.best.makespan = makespan;
            if starts_now == n && self.tried == 1 {
                // Fast path: the identity starts everything now, and
                // every order shares its makespan. Stop here.
                self.cap = 1;
            }
            return;
        }
        for i in depth..n {
            // Re-checked per child: the best may have improved under an
            // earlier sibling.
            if self.cannot_beat(depth, starts_now, makespan) {
                self.stats.bound_exits += u64::from(depth == 0);
                self.skip(depth, i);
                return;
            }
            if self.tried >= self.cap {
                return;
            }
            // Bring the i-th unplaced slot to the front; the rest stay
            // ascending, so children come in lexicographic order.
            self.perm[depth..=i].rotate_right(1);
            let slot = self.perm[depth];
            let job = &self.window[slot];
            self.stats.placements += 1;
            let (nodes, not_before) = (job.nodes, self.floor[slot]);
            let (start, token) = if depth + 1 == n {
                // Nothing is placed after the last job: query, don't commit.
                (
                    self.plan.earliest_start(nodes, job.walltime, not_before),
                    None,
                )
            } else {
                let (start, token) = self
                    .plan
                    .place_earliest(nodes, job.walltime, not_before)
                    .expect("a job with a floor fits the machine");
                (start, Some(token))
            };
            self.starts[depth] = start;
            self.walk(
                depth + 1,
                starts_now + usize::from(start == self.now),
                makespan.max(start + job.walltime),
            );
            if let Some(token) = token {
                self.plan.rollback(token);
            }
            self.perm[depth..=i].rotate_left(1);
        }
    }

    /// Whether no completion of the prefix `perm[..depth]` can beat the
    /// best. An unplaced job starts no earlier than its floor: only
    /// those whose floor is `now` can add an immediate start, and the
    /// makespan reaches at least every `floor + walltime`. Strict like
    /// the objective (more immediate starts, then smaller makespan), so
    /// earlier-enumerated permutations win ties.
    fn cannot_beat(&self, depth: usize, starts_now: usize, makespan: SimTime) -> bool {
        let (mut most_starts, mut least_makespan) = (starts_now, makespan);
        for &slot in &self.perm[depth..] {
            most_starts += usize::from(self.floor[slot] == self.now);
            least_makespan = least_makespan.max(self.floor[slot] + self.window[slot].walltime);
        }
        most_starts < self.best.starts_now
            || (most_starts == self.best.starts_now && least_makespan >= self.best.makespan)
    }

    /// Count as pruned — and list, when capturing — the permutations
    /// under the prefix `perm[..depth]` from the first one whose next
    /// slot is `perm[first]` on: `(n - first) * (n - depth - 1)!` of
    /// them, stopping at the cap exactly where a flat enumeration would.
    fn skip(&mut self, depth: usize, first: usize) {
        let n = self.perm.len();
        let leaves = (1..n - depth)
            .fold(n - first, |acc, k| acc.saturating_mul(k))
            .min(self.cap - self.tried);
        self.tried += leaves;
        if let Some(cap) = self.capture.as_deref_mut() {
            let mut order = self.perm.to_vec();
            order[depth..=first].rotate_right(1);
            for _ in 0..leaves {
                cap.losers.push(LoserTrace {
                    order: order.clone(),
                    starts_now: 0,
                    makespan: None,
                });
                next_permutation(&mut order[depth..]);
            }
        }
    }
}

fn index_vec(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Classic lexicographic next-permutation. Returns `false` after the last
/// permutation.
fn next_permutation(perm: &mut [usize]) -> bool {
    if perm.len() < 2 {
        return false;
    }
    // Find the longest non-increasing suffix.
    let mut i = perm.len() - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    // perm[i-1] is the pivot; swap with the rightmost element above it.
    let mut j = perm.len() - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_platform::mask::UnitMask;
    use amjs_platform::plan::{FlatPlan, PartitionPlan, PlacementHint};
    use amjs_sim::rng::Xoshiro256;
    use amjs_sim::SimDuration;
    use amjs_workload::JobId;

    fn qj(id: u64, nodes: u32, walltime_secs: i64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            submit: SimTime::ZERO,
            nodes,
            walltime: SimDuration::from_secs(walltime_secs),
        }
    }

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn in_order<P: Plan>(
        plan: &mut P,
        window: &[QueuedJob],
        floor: SimTime,
        monotone: bool,
    ) -> Vec<WindowPlacement> {
        let mut out = Vec::new();
        place_in_order(plan, window, floor, monotone, &mut out);
        out
    }

    /// The search on a fresh scratch; returns its placements.
    fn best_traced<P: Plan>(
        plan: &mut P,
        window: &[QueuedJob],
        now: SimTime,
        cap: usize,
        capture: Option<&mut SearchTrace>,
    ) -> Vec<WindowPlacement> {
        let mut scratch = WindowScratch::default();
        let mut stats = WindowStats::default();
        place_best_permutation(plan, window, now, cap, &mut scratch, capture, &mut stats);
        scratch.placed
    }

    fn best<P: Plan>(
        plan: &mut P,
        window: &[QueuedJob],
        now: SimTime,
        cap: usize,
    ) -> Vec<WindowPlacement> {
        best_traced(plan, window, now, cap, None)
    }

    #[test]
    fn next_permutation_enumerates_all() {
        let mut p = vec![0, 1, 2];
        let mut seen = vec![p.clone()];
        while next_permutation(&mut p) {
            seen.push(p.clone());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[5], vec![2, 1, 0]);
        // All distinct.
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn next_permutation_trivial_cases() {
        let mut empty: Vec<usize> = vec![];
        assert!(!next_permutation(&mut empty));
        let mut one = vec![0];
        assert!(!next_permutation(&mut one));
    }

    #[test]
    fn in_order_placement_fills_gaps() {
        // 100-node machine, 80 busy until t=100.
        let mut plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        let window = [qj(0, 50, 60), qj(1, 20, 30)];
        let placed = in_order(&mut plan, &window, t(0), false);
        // Job 0 must wait for the release; job 1 backfills immediately.
        assert_eq!((placed[0].slot, placed[0].start), (0, t(100)));
        assert_eq!((placed[1].slot, placed[1].start), (1, t(0)));
    }

    #[test]
    fn monotone_placement_never_reorders_starts() {
        let mut plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        let window = [qj(0, 50, 60), qj(1, 20, 30)];
        let placed = in_order(&mut plan, &window, t(0), true);
        assert_eq!(placed[0].start, t(100));
        // Strict FCFS: job 1 may not start before job 0 even though it
        // fits now.
        assert!(placed[1].start >= t(100));
    }

    #[test]
    fn permutation_search_beats_priority_order() {
        // The example of the paper's Fig. 2: allocating one-by-one in
        // priority order wastes nodes that a grouped allocation uses.
        //
        // Machine: 10 nodes, job0 (running) holds 6 until t=100.
        // Window: A needs 8 nodes for 100 s, B needs 4 nodes for 90 s.
        // Order A,B: A at t=100, B backfills at t=0 → makespan 200.
        // Order B,A: B at 0 (4 free now)… A still needs 8 → t=100.
        // Same here; use a case where order matters:
        //
        // Machine: 10 nodes, 5 busy until t=50.
        // A: 10 nodes, 10 s. B: 5 nodes, 60 s.
        // A,B: A waits till 50 (needs all 10), ends 60; B can't overlap A
        //      and needs 5: starts at 0? yes 5 free → B [0,60), then A
        //      needs 10: busy 5 till 50 and B till 60 → A at 60..70:
        //      makespan 70.
        // B,A: identical placements (greedy earliest): B [0,60), A [60,70).
        // Hmm — greedy earliest makes many orders equivalent. Use
        // reservations to create divergence:
        //
        // Machine 10 nodes, all free.
        // A: 10 nodes 100 s. B: 5 nodes 10 s.
        // A,B: A [0,100); B [100,110) → makespan 110.
        // B,A: B [0,10); A [10,110) → makespan 110. Equal again!
        //
        // Divergence needs a release in the middle:
        // Machine 10; 5 busy until t=20.
        // A: 10 nodes, 30 s → earliest 20 if placed first ([20,50)).
        // B: 5 nodes, 25 s → [0,25) if placed first.
        // A,B: A [20,50); B needs 5: free 5 at [0,20)? 25 s doesn't fit
        //      before A (only 20 s gap) → B [50,75): makespan 75.
        // B,A: B [0,25); A needs 10 → after busy(20) and B(25) → [25,55):
        //      makespan 55. B-first wins.
        let window = [qj(0, 10, 30), qj(1, 5, 25)];

        // Identity order (A first) for reference:
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let in_order = in_order(&mut plan, &window, t(0), false);
        assert_eq!(in_order[0].start, t(20));
        assert_eq!(in_order[1].start, t(50));

        // Permutation search must find the B-first schedule.
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let best = best(&mut plan, &window, t(0), 120);
        let starts: Vec<(usize, i64)> = best.iter().map(|p| (p.slot, p.start.as_secs())).collect();
        assert_eq!(starts, vec![(1, 0), (0, 25)]);
    }

    #[test]
    fn all_start_now_skips_search() {
        let mut plan = FlatPlan::new(t(0), 100, &[]);
        let window = [qj(0, 30, 100), qj(1, 30, 50), qj(2, 30, 10)];
        let placed = best(&mut plan, &window, t(0), 120);
        assert!(placed.iter().all(|p| p.start == t(0)));
        // Identity commit order preserved.
        let slots: Vec<usize> = placed.iter().map(|p| p.slot).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn ties_keep_identity_order() {
        // Two identical jobs that cannot both start now: either order has
        // the same makespan; the identity (priority order) must win.
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(30))]);
        let window = [qj(7, 10, 10), qj(8, 10, 10)];
        let placed = best(&mut plan, &window, t(0), 120);
        assert_eq!(placed[0].slot, 0);
        assert_eq!(placed[1].slot, 1);
        assert_eq!(placed[0].start, t(30));
        assert_eq!(placed[1].start, t(40));
    }

    #[test]
    fn plan_state_after_search_matches_placements() {
        // After the search, exactly the winning commitments remain.
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let base_count = plan.commitment_count();
        let window = [qj(0, 10, 30), qj(1, 5, 25)];
        let placed = best(&mut plan, &window, t(0), 120);
        assert_eq!(plan.commitment_count(), base_count + placed.len());
    }

    #[test]
    fn works_on_partition_plans() {
        // 8 midplanes of 512. Units 0..4 busy until t=60.
        let mut plan = PartitionPlan::new(t(0), 8, 512, &[(0, 4, t(60))]);
        // A: full machine 30 s; B: 2 units 25 s.
        let window = [qj(0, 4096, 30), qj(1, 1024, 25)];
        let placed = best(&mut plan, &window, t(0), 120);
        // B-first: B [0,25) on the free half; A [60,90) (needs unit 0..4
        // release — B is done by then). Makespan 90.
        // A-first: A [60,90); B [0,25)? B placed after A reservation:
        // free pair exists at [0,25) → same makespan 90. Identity wins
        // the tie; accept either equivalent outcome but require makespan
        // 90 overall.
        let makespan = placed
            .iter()
            .map(|p| p.start + window[p.slot].walltime)
            .max()
            .unwrap();
        assert_eq!(makespan, t(90));
    }

    #[test]
    fn traced_search_captures_winner_and_losers() {
        // Same setup as `permutation_search_beats_priority_order`:
        // B-first wins; identity (A-first) becomes a recorded loser.
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let window = [qj(0, 10, 30), qj(1, 5, 25)];
        let mut trace = SearchTrace::default();
        let placed = best_traced(&mut plan, &window, t(0), 120, Some(&mut trace));
        assert_eq!(trace.chosen, vec![1, 0]);
        assert_eq!(trace.starts_now, 1);
        assert_eq!(trace.makespan, t(55));
        assert_eq!(trace.searched, 2);
        assert!(!trace.fast_path);
        assert_eq!(trace.losers.len(), 1);
        assert_eq!(trace.losers[0].order, vec![0, 1]);
        assert_eq!(trace.losers[0].makespan, Some(t(75)));
        // The traced call commits the same schedule as the untraced one.
        let mut plan2 = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let untraced = best(&mut plan2, &window, t(0), 120);
        let a: Vec<(usize, SimTime)> = placed.iter().map(|p| (p.slot, p.start)).collect();
        let b: Vec<(usize, SimTime)> = untraced.iter().map(|p| (p.slot, p.start)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_fast_path_and_single_job_windows() {
        let mut plan = FlatPlan::new(t(0), 100, &[]);
        let window = [qj(0, 30, 100), qj(1, 30, 50)];
        let mut trace = SearchTrace::default();
        best_traced(&mut plan, &window, t(0), 120, Some(&mut trace));
        assert!(trace.fast_path);
        assert_eq!(trace.chosen, vec![0, 1]);
        assert_eq!(trace.starts_now, 2);
        assert!(trace.losers.is_empty());

        let mut plan = FlatPlan::new(t(0), 100, &[(80, t(40))]);
        let single = [qj(2, 50, 60)];
        let mut trace = SearchTrace::default();
        best_traced(&mut plan, &single, t(0), 120, Some(&mut trace));
        assert!(trace.fast_path);
        assert_eq!(trace.chosen, vec![0]);
        assert_eq!(trace.starts_now, 0); // waits for the release
        assert_eq!(trace.makespan, t(100));
    }

    // ---- The paper's step 5, read literally: the reference oracle ----

    /// A fully evaluated permutation: `(slot, start)` in commit order.
    struct Candidate {
        placements: Vec<(usize, SimTime)>,
        starts_now: usize,
        makespan: SimTime,
    }

    impl Candidate {
        fn beats(&self, other: &Candidate) -> bool {
            self.starts_now > other.starts_now
                || (self.starts_now == other.starts_now && self.makespan < other.makespan)
        }
    }

    /// Place `window` in `perm` order from `now`, commit and roll back
    /// every job; `None` once the partial schedule cannot beat
    /// `prune_against` even if every remaining job started now.
    fn try_permutation<P: Plan>(
        plan: &mut P,
        window: &[QueuedJob],
        perm: &[usize],
        now: SimTime,
        prune_against: Option<&Candidate>,
    ) -> Option<Candidate> {
        let mut tokens = Vec::new();
        let mut placements = Vec::new();
        let (mut starts_now, mut makespan, mut pruned) = (0usize, now, false);
        for (placed, &slot) in perm.iter().enumerate() {
            let job = &window[slot];
            let (start, token) = plan.place_earliest(job.nodes, job.walltime, now).unwrap();
            tokens.push(token);
            placements.push((slot, start));
            starts_now += usize::from(start == now);
            makespan = makespan.max(start + job.walltime);
            if let Some(best) = prune_against {
                let max_possible_starts = starts_now + perm.len() - placed - 1;
                if max_possible_starts < best.starts_now
                    || (max_possible_starts == best.starts_now && makespan >= best.makespan)
                {
                    pruned = true;
                    break;
                }
            }
        }
        for token in tokens.into_iter().rev() {
            plan.rollback(token);
        }
        (!pruned).then_some(Candidate {
            placements,
            starts_now,
            makespan,
        })
    }

    /// The flat enumeration the walk replaced: every permutation from
    /// scratch, in `next_permutation` order, up to `max_permutations`.
    fn oracle_place_best_permutation<P: Plan>(
        plan: &mut P,
        window: &[QueuedJob],
        now: SimTime,
        max_permutations: usize,
        cap: &mut SearchTrace,
    ) -> Vec<WindowPlacement> {
        let n = window.len();
        let pruned = |order: &[usize]| LoserTrace {
            order: order.to_vec(),
            starts_now: 0,
            makespan: None,
        };
        let mut best = try_permutation(plan, window, &index_vec(n), now, None).unwrap();
        let mut best_perm = index_vec(n);
        let mut tried = 1usize;
        cap.fast_path = best.starts_now == n;
        if !cap.fast_path {
            let mut perm = index_vec(n);
            while tried < max_permutations && next_permutation(&mut perm) {
                tried += 1;
                match try_permutation(plan, window, &perm, now, Some(&best)) {
                    Some(cand) => {
                        assert!(cand.beats(&best), "a completed permutation beats the best");
                        cap.losers.push(LoserTrace {
                            order: std::mem::replace(&mut best_perm, perm.clone()),
                            starts_now: best.starts_now,
                            makespan: Some(best.makespan),
                        });
                        best = cand;
                    }
                    None => cap.losers.push(pruned(&perm)),
                }
            }
        }
        cap.chosen = best_perm;
        cap.starts_now = best.starts_now;
        cap.makespan = best.makespan;
        cap.searched = tried;
        (best.placements.iter())
            .map(|&(slot, start)| {
                let job = &window[slot];
                let token = plan.commit_at(job.nodes, start, job.walltime).unwrap();
                WindowPlacement { slot, start, token }
            })
            .collect()
    }

    /// `(slot, start, hint)` of each placement plus the plan's
    /// commitment count: everything a caller can observe of a search.
    fn observed<P: Plan>(
        plan: &P,
        placed: &[WindowPlacement],
    ) -> (Vec<(usize, SimTime, PlacementHint)>, usize) {
        let placed = (placed.iter())
            .map(|p| (p.slot, p.start, plan.hint_of(&p.token)))
            .collect();
        (placed, plan.commitment_count())
    }

    /// Run the walk (capture on and off, both in `scratch`, which may
    /// hold an earlier search's buffers) and the oracle on clones of
    /// `plan`; assert they agree on placements, hints and the whole
    /// trace. Returns the walk's trace and stats.
    fn assert_matches_oracle<P: Plan>(
        plan: &P,
        window: &[QueuedJob],
        now: SimTime,
        cap: usize,
        scratch: &mut WindowScratch,
        label: &str,
    ) -> (SearchTrace, WindowStats) {
        let (mut expected_plan, mut expected_trace) = (plan.clone(), SearchTrace::default());
        let expected = oracle_place_best_permutation(
            &mut expected_plan,
            window,
            now,
            cap,
            &mut expected_trace,
        );
        let expected = observed(&expected_plan, &expected);

        let (mut traced_plan, mut trace) = (plan.clone(), SearchTrace::default());
        let mut stats = WindowStats::default();
        place_best_permutation(
            &mut traced_plan,
            window,
            now,
            cap,
            scratch,
            Some(&mut trace),
            &mut stats,
        );
        let traced = observed(&traced_plan, &scratch.placed);
        assert_eq!(traced, expected, "{label}: traced");
        assert_eq!(trace, expected_trace, "{label}: trace");

        let mut plain_plan = plan.clone();
        let mut plain_stats = WindowStats::default();
        place_best_permutation(
            &mut plain_plan,
            window,
            now,
            cap,
            scratch,
            None,
            &mut plain_stats,
        );
        let plain = observed(&plain_plan, &scratch.placed);
        assert_eq!(plain, expected, "{label}: untraced");
        assert_eq!(plain_stats, stats, "{label}: capture changed the work done");
        (trace, stats)
    }

    /// A random window of `w` jobs that fit `plan`'s in-service machine.
    fn random_window<P: Plan>(
        rng: &mut Xoshiro256,
        plan: &P,
        w: usize,
        max_nodes: u64,
    ) -> Vec<QueuedJob> {
        let mut window = Vec::with_capacity(w);
        while window.len() < w {
            // Few distinct sizes and walltimes: ties are where the
            // enumeration order shows.
            let nodes = (1 + rng.next_below(max_nodes)) as u32;
            let walltime = [1, 10, 10, 30, 60, 100][rng.next_below(6) as usize];
            let job = qj(window.len() as u64, nodes, walltime);
            if plan.earliest_start(job.nodes, job.walltime, plan.now()) != SimTime::MAX {
                window.push(job);
            }
        }
        window
    }

    /// Commit a few earlier-window placements into `plan` (the search
    /// usually runs on a plan that already holds some).
    fn preload<P: Plan>(rng: &mut Xoshiro256, plan: &mut P, max_nodes: u64) {
        let earlier = rng.next_below(4) as usize;
        for job in random_window(rng, plan, earlier, max_nodes) {
            let _ = plan.place_earliest(job.nodes, job.walltime, plan.now());
        }
    }

    fn differential_cases() -> u64 {
        if cfg!(debug_assertions) {
            1_000
        } else {
            10_000
        }
    }

    fn random_cap(rng: &mut Xoshiro256) -> usize {
        match rng.next_below(3) {
            0 => 720,
            1 => 1 + rng.next_below(30) as usize,
            _ => 1 + rng.next_below(720) as usize,
        }
    }

    #[test]
    fn walk_matches_flat_enumeration_on_flat_plans() {
        // One scratch throughout: each search starts on the last one's buffers.
        let mut scratch = WindowScratch::default();
        let mut rng = Xoshiro256::seed_from_u64(0x57A7_F1A7);
        for case in 0..differential_cases() {
            let now = t(rng.next_range_inclusive(0, 50));
            let total = 8 + rng.next_below(57) as u32;
            let mut running = Vec::new();
            let mut held = 0;
            for _ in 0..rng.next_below(6) {
                let nodes = 1 + rng.next_below(total as u64 / 3) as u32;
                if held + nodes <= total {
                    held += nodes;
                    // Some releases are overdue (clamped to now + 1 s).
                    running.push((
                        nodes,
                        now + SimDuration::from_secs(rng.next_range_inclusive(-5, 120)),
                    ));
                }
            }
            let down = rng.next_below((total - held) as u64 / 2 + 1) as u32;
            let mut plan = FlatPlan::new(now, total, &running).with_down(down);
            preload(&mut rng, &mut plan, (total - down) as u64);
            let w = 2 + rng.next_below(5) as usize;
            let window = random_window(&mut rng, &plan, w, (total - down) as u64);
            let cap = random_cap(&mut rng);
            let label = format!("flat case {case}");
            assert_matches_oracle(&plan, &window, now, cap, &mut scratch, &label);
        }
    }

    #[test]
    fn walk_matches_flat_enumeration_on_partition_plans() {
        // One scratch throughout: each search starts on the last one's buffers.
        let mut scratch = WindowScratch::default();
        let mut rng = Xoshiro256::seed_from_u64(0xB6_9A27);
        for case in 0..differential_cases() {
            let now = t(rng.next_range_inclusive(0, 50));
            let units = [8u16, 16, 20, 80][rng.next_below(4) as usize];
            // Running blocks: aligned, disjoint power-of-two runs.
            let mut running = Vec::new();
            let mut at = 0u16;
            while at < units {
                let k = 1u16 << rng.next_below(3);
                if at.is_multiple_of(k) && at + k <= units && rng.next_bool(0.5) {
                    running.push((
                        at,
                        k,
                        now + SimDuration::from_secs(rng.next_range_inclusive(-5, 120)),
                    ));
                }
                at += k;
            }
            let mut down = UnitMask::empty();
            if rng.next_bool(0.3) {
                let start = rng.next_below(units as u64) as u16;
                if !running.iter().any(|&(s, k, _)| s <= start && start < s + k) {
                    down.set_range(start, 1);
                }
            }
            let mut plan = PartitionPlan::new(now, units, 512, &running).with_down(down);
            let max_nodes = units as u64 * 512;
            preload(&mut rng, &mut plan, max_nodes);
            let w = 2 + rng.next_below(5) as usize;
            let window = random_window(&mut rng, &plan, w, max_nodes);
            let cap = random_cap(&mut rng);
            let label = format!("partition case {case}");
            assert_matches_oracle(&plan, &window, now, cap, &mut scratch, &label);
        }
    }

    #[test]
    fn pruned_subtrees_count_every_leaf_up_to_the_cap() {
        // One scratch throughout: each search starts on the last one's buffers.
        let mut scratch = WindowScratch::default();
        // W=7 (5040 > 720) and W=24 (24! overflows usize). Nothing fits
        // before t=20 and everything fits together then: the identity
        // meets both bounds, so the root rejects every other order —
        // still counted one by one, up to the cap.
        for w in [7usize, 24] {
            let plan = FlatPlan::new(t(0), 100, &[(99, t(20))]);
            let window: Vec<QueuedJob> = (0..w as u64).map(|i| qj(i, 2, 10 + i as i64)).collect();
            let (trace, stats) =
                assert_matches_oracle(&plan, &window, t(0), 720, &mut scratch, "root bound");
            assert_eq!((trace.searched, trace.losers.len()), (720, 719));
            assert_eq!(trace.chosen, index_vec(w));
            // Floor queries and the identity's path, nothing else.
            assert_eq!((stats.placements, stats.bound_exits), (2 * w as u64, 1));
        }
        // Caps inside, at the end of, and past the W=4 tree, on a window
        // whose orders differ (10 nodes, 5 busy until t=20).
        let plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let window = [qj(0, 10, 30), qj(1, 5, 25), qj(2, 4, 40), qj(3, 6, 5)];
        for cap in [1, 2, 23, 24, 25] {
            let (trace, _) =
                assert_matches_oracle(&plan, &window, t(0), cap, &mut scratch, "capped W=4");
            assert_eq!(trace.searched, cap.min(24));
            assert_eq!(trace.losers.len(), trace.searched - 1);
        }
    }

    #[test]
    fn worst_case_window_evaluates_every_permutation() {
        // One scratch throughout: each search starts on the last one's buffers.
        let mut scratch = WindowScratch::default();
        // Every job fits now alone (all floors are `now`) but each needs
        // the whole machine: one starts now whatever the order and the
        // makespan is always the sum, so no prefix can be ruled out and
        // every order falls to the identity only once complete.
        for (w, factorial, tree_nodes) in [
            (4u64, 24, 4 + 12 + 24 + 24),
            (5, 120, 5 + 20 + 60 + 120 + 120),
        ] {
            let plan = FlatPlan::new(t(0), 10, &[]);
            let window: Vec<QueuedJob> = (0..w).map(|i| qj(i, 10, 10 + i as i64)).collect();
            let (trace, stats) =
                assert_matches_oracle(&plan, &window, t(0), 720, &mut scratch, "worst case");
            assert_eq!(trace.searched, factorial);
            assert_eq!(stats.placements, w + tree_nodes);
            assert_eq!(stats.bound_exits, 0);
        }
    }

    #[test]
    fn max_permutations_caps_search() {
        // With the cap at 1 only the identity is evaluated.
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let window = [qj(0, 10, 30), qj(1, 5, 25)];
        let placed = best(&mut plan, &window, t(0), 1);
        assert_eq!(placed[0].slot, 0);
        assert_eq!(placed[0].start, t(20));
    }
}
