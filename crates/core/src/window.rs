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
//! * Permutations are enumerated in lexicographic order starting from the
//!   identity (the priority order), and ties on makespan keep the first
//!   candidate — so when the window order doesn't matter, the priority
//!   order wins deterministically.
//! * The search prunes a permutation as soon as its partial makespan
//!   reaches the best one found (makespan is a max, so it can only grow).
//! * Speculative placements use the plan's LIFO commit/rollback instead
//!   of cloning the availability profile per permutation.
//! * If the identity permutation starts *every* window job immediately,
//!   the search is skipped: all orders then share the same makespan
//!   `max(now + walltime_i)`.
//! * `max_permutations` bounds the enumeration (5! = 120 covers the
//!   paper's largest window exactly; the default cap of 720 covers W=6).

use amjs_sim::{SimDuration, SimTime};

use amjs_platform::plan::{Plan, PlanToken};

use crate::scheduler::QueuedJob;

/// Infeasibility intervals proven by earlier placements against a plan
/// that has only *gained* commitments since: `(nodes, walltime, lo, hi)`
/// records that an earliest-start scan for a `(nodes, walltime)` job
/// probed every candidate in `[lo, hi)` and found none feasible.
/// Feasibility is monotone componentwise — a bigger job can never fit
/// where a smaller one could not (a free aligned 2k-block contains free
/// k-blocks), and a longer window only accretes busy capacity — so a
/// later job dominating an entry in both coordinates may skip the
/// candidates it already disproved. Entries chain only while contiguous
/// (`lo <= probe_from`): the range an entry *itself* skipped was
/// justified by entries that may not dominate-apply to the current job.
/// Sound only while the plan accumulates commitments: a caller that rolls
/// placements back must [`PlacePruner::truncate`] to the
/// [`PlacePruner::mark`] it took before the first placement it undoes
/// (and never deactivate between recording and use).
#[derive(Debug, Default)]
pub struct PlacePruner {
    proven: Vec<(u32, SimDuration, SimTime, SimTime)>,
}

impl PlacePruner {
    /// Earliest candidate a `(nodes, walltime)` scan starting at
    /// `not_before` still has to probe, per the recorded intervals.
    pub(crate) fn advance(
        &self,
        nodes: u32,
        walltime: SimDuration,
        not_before: SimTime,
    ) -> SimTime {
        let mut probe_from = not_before;
        loop {
            let mut advanced = false;
            for &(n, w, lo, hi) in &self.proven {
                if n <= nodes && w <= walltime && lo <= probe_from && hi > probe_from {
                    probe_from = hi;
                    advanced = true;
                }
            }
            if !advanced {
                return probe_from;
            }
        }
    }

    /// Record that the scan probed `[lo, hi)` without success.
    pub(crate) fn note(&mut self, nodes: u32, walltime: SimDuration, lo: SimTime, hi: SimTime) {
        if hi > lo {
            self.proven.push((nodes, walltime, lo, hi));
        }
    }

    /// Watermark to take before a placement that may later be rolled
    /// back.
    pub(crate) fn mark(&self) -> usize {
        self.proven.len()
    }

    /// Forget every interval recorded since `mark`: those scans saw
    /// commitments the plan no longer holds.
    pub(crate) fn truncate(&mut self, mark: usize) {
        self.proven.truncate(mark);
    }
}

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
/// its earliest feasible start `>= floor`. With `monotone` set, each
/// placement additionally may not start before the previous one — strict
/// in-order (no-backfill) semantics.
///
/// # Panics
/// Panics if a job is larger than the machine (callers filter oversized
/// jobs when loading the trace).
pub fn place_in_order<P: Plan>(
    plan: &mut P,
    window: &[QueuedJob],
    floor: SimTime,
    monotone: bool,
) -> Vec<WindowPlacement> {
    place_in_order_pruned(plan, window, floor, monotone, &mut PlacePruner::default())
}

/// [`place_in_order`] sharing a [`PlacePruner`] across calls, so
/// successive chunks of one scheduling pass skip candidate ranges that
/// earlier placements already proved infeasible. Behaviorally identical
/// to [`place_in_order`]: every skipped candidate was probed (and
/// rejected) for a dominating request against a subset of the current
/// commitments.
pub fn place_in_order_pruned<P: Plan>(
    plan: &mut P,
    window: &[QueuedJob],
    floor: SimTime,
    monotone: bool,
    pruner: &mut PlacePruner,
) -> Vec<WindowPlacement> {
    let mut placements = Vec::with_capacity(window.len());
    let mut not_before = floor;
    for (slot, job) in window.iter().enumerate() {
        let probe_from = pruner.advance(job.nodes, job.walltime, not_before);
        let (start, token) = plan
            .place_earliest(job.nodes, job.walltime, probe_from)
            .unwrap_or_else(|| panic!("{} exceeds the machine", job.id));
        pruner.note(job.nodes, job.walltime, probe_from, start);
        if monotone {
            not_before = start;
        }
        placements.push(WindowPlacement { slot, start, token });
    }
    placements
}

/// A permutation the search considered and did not choose.
#[derive(Clone, Debug)]
pub struct LoserTrace {
    /// Window-slot order of the losing permutation.
    pub order: Vec<usize>,
    /// Immediate starts it achieved (0 when pruned before completion).
    pub starts_now: usize,
    /// Its window makespan; `None` when the search pruned it early
    /// (its partial makespan already could not beat the best).
    pub makespan: Option<SimTime>,
}

/// What one permutation search saw — captured only when the
/// observability layer asks for it.
#[derive(Clone, Debug, Default)]
pub struct SearchTrace {
    /// Window-slot order of the winning permutation.
    pub chosen: Vec<usize>,
    /// Immediate starts of the winner.
    pub starts_now: usize,
    /// Window makespan of the winner.
    pub makespan: SimTime,
    /// Permutations evaluated (identity included, pruned included).
    pub searched: usize,
    /// True when the identity started every job now and the search was
    /// skipped (or the window had ≤ 1 job).
    pub fast_path: bool,
    /// Every losing permutation, in enumeration order.
    pub losers: Vec<LoserTrace>,
}

/// Place a window choosing the best permutation (paper step 5, guided by
/// its Fig. 2): the winning schedule **starts the most jobs now** and,
/// among those, has the **least makespan** ("highest utilization rate").
/// Commits the winning permutation into `plan` and returns its
/// placements in commit order.
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
) -> Vec<WindowPlacement> {
    place_best_permutation_traced(plan, window, now, max_permutations, None)
}

/// [`place_best_permutation`] with an optional search capture. With
/// `capture: None` this is the exact same computation (the capture arms
/// are never entered), preserving the zero-cost guarantee.
pub fn place_best_permutation_traced<P: Plan>(
    plan: &mut P,
    window: &[QueuedJob],
    now: SimTime,
    max_permutations: usize,
    mut capture: Option<&mut SearchTrace>,
) -> Vec<WindowPlacement> {
    debug_assert!(max_permutations >= 1);
    if window.len() <= 1 {
        let placements = place_in_order(plan, window, now, false);
        if let Some(cap) = capture {
            cap.chosen = index_vec(window.len());
            cap.starts_now = placements.iter().filter(|p| p.start == now).count();
            cap.makespan = placements
                .iter()
                .map(|p| p.start + window[p.slot].walltime)
                .max()
                .unwrap_or(now);
            cap.fast_path = true;
        }
        return placements;
    }

    // Identity first: it doubles as the fast path (everything starts now
    // → order is irrelevant) and as the deterministic tie-winner.
    let identity = try_permutation(plan, window, &index_vec(window.len()), now, None)
        .expect("identity permutation is always feasible");
    if identity.starts_now == window.len() {
        if let Some(cap) = capture {
            cap.chosen = index_vec(window.len());
            cap.starts_now = identity.starts_now;
            cap.makespan = identity.makespan;
            cap.searched = 1;
            cap.fast_path = true;
        }
        return commit_placements(plan, window, &identity.placements);
    }

    let mut best = identity;
    let mut best_perm = index_vec(window.len());
    let mut perm = index_vec(window.len());
    let mut tried = 1usize;
    while tried < max_permutations && next_permutation(&mut perm) {
        tried += 1;
        match try_permutation(plan, window, &perm, now, Some(&best)) {
            Some(cand) => {
                if cand.beats(&best) {
                    if let Some(cap) = capture.as_deref_mut() {
                        cap.losers.push(LoserTrace {
                            order: best_perm.clone(),
                            starts_now: best.starts_now,
                            makespan: Some(best.makespan),
                        });
                        best_perm = perm.clone();
                    }
                    best = cand;
                } else if let Some(cap) = capture.as_deref_mut() {
                    cap.losers.push(LoserTrace {
                        order: perm.clone(),
                        starts_now: cand.starts_now,
                        makespan: Some(cand.makespan),
                    });
                }
            }
            None => {
                if let Some(cap) = capture.as_deref_mut() {
                    cap.losers.push(LoserTrace {
                        order: perm.clone(),
                        starts_now: 0,
                        makespan: None,
                    });
                }
            }
        }
    }

    if let Some(cap) = capture {
        cap.chosen = best_perm;
        cap.starts_now = best.starts_now;
        cap.makespan = best.makespan;
        cap.searched = tried;
        cap.fast_path = false;
    }
    commit_placements(plan, window, &best.placements)
}

/// A fully evaluated permutation: `(slot, start)` in commit order.
struct Candidate {
    placements: Vec<(usize, SimTime)>,
    starts_now: usize,
    makespan: SimTime,
}

impl Candidate {
    /// Lexicographic objective: more immediate starts, then smaller
    /// makespan. Strict, so earlier-enumerated permutations win ties.
    fn beats(&self, other: &Candidate) -> bool {
        self.starts_now > other.starts_now
            || (self.starts_now == other.starts_now && self.makespan < other.makespan)
    }
}

/// Speculatively place `window` in `perm` order; roll everything back
/// and report the candidate. Returns `None` when the partial schedule
/// provably cannot beat `prune_against`: even if every remaining job
/// started now, the start count would not exceed it while the partial
/// makespan (which only grows) already matches or exceeds it.
fn try_permutation<P: Plan>(
    plan: &mut P,
    window: &[QueuedJob],
    perm: &[usize],
    now: SimTime,
    prune_against: Option<&Candidate>,
) -> Option<Candidate> {
    let mut tokens = Vec::with_capacity(perm.len());
    let mut placements = Vec::with_capacity(perm.len());
    let mut starts_now = 0usize;
    let mut makespan = now;
    let mut pruned = false;

    for (placed, &slot) in perm.iter().enumerate() {
        let job = &window[slot];
        let (start, token) = plan
            .place_earliest(job.nodes, job.walltime, now)
            .unwrap_or_else(|| panic!("{} exceeds the machine", job.id));
        tokens.push(token);
        placements.push((slot, start));
        if start == now {
            starts_now += 1;
        }
        makespan = makespan.max(start + job.walltime);
        if let Some(best) = prune_against {
            let remaining = perm.len() - placed - 1;
            let max_possible_starts = starts_now + remaining;
            let cannot_beat_on_starts = max_possible_starts < best.starts_now
                || (max_possible_starts == best.starts_now && makespan >= best.makespan);
            if cannot_beat_on_starts {
                pruned = true;
                break;
            }
        }
    }

    for token in tokens.into_iter().rev() {
        plan.rollback(token);
    }
    if pruned {
        None
    } else {
        Some(Candidate {
            placements,
            starts_now,
            makespan,
        })
    }
}

/// Re-commit an already-evaluated permutation for real.
fn commit_placements<P: Plan>(
    plan: &mut P,
    window: &[QueuedJob],
    placements: &[(usize, SimTime)],
) -> Vec<WindowPlacement> {
    placements
        .iter()
        .map(|&(slot, start)| {
            let job = &window[slot];
            // Re-placing at the recorded earliest start must succeed:
            // the plan is in exactly the state the speculative run saw.
            let token = plan
                .commit_at(job.nodes, start, job.walltime)
                .unwrap_or_else(|| panic!("replay of {} at {} failed", job.id, start));
            WindowPlacement { slot, start, token }
        })
        .collect()
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
    use amjs_platform::plan::{FlatPlan, PartitionPlan};
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
        let placed = place_in_order(&mut plan, &window, t(0), false);
        // Job 0 must wait for the release; job 1 backfills immediately.
        assert_eq!((placed[0].slot, placed[0].start), (0, t(100)));
        assert_eq!((placed[1].slot, placed[1].start), (1, t(0)));
    }

    #[test]
    fn monotone_placement_never_reorders_starts() {
        let mut plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        let window = [qj(0, 50, 60), qj(1, 20, 30)];
        let placed = place_in_order(&mut plan, &window, t(0), true);
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
        let in_order = place_in_order(&mut plan, &window, t(0), false);
        assert_eq!(in_order[0].start, t(20));
        assert_eq!(in_order[1].start, t(50));

        // Permutation search must find the B-first schedule.
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let best = place_best_permutation(&mut plan, &window, t(0), 120);
        let starts: Vec<(usize, i64)> = best.iter().map(|p| (p.slot, p.start.as_secs())).collect();
        assert_eq!(starts, vec![(1, 0), (0, 25)]);
    }

    #[test]
    fn all_start_now_skips_search() {
        let mut plan = FlatPlan::new(t(0), 100, &[]);
        let window = [qj(0, 30, 100), qj(1, 30, 50), qj(2, 30, 10)];
        let placed = place_best_permutation(&mut plan, &window, t(0), 120);
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
        let placed = place_best_permutation(&mut plan, &window, t(0), 120);
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
        let placed = place_best_permutation(&mut plan, &window, t(0), 120);
        assert_eq!(plan.commitment_count(), base_count + placed.len());
    }

    #[test]
    fn works_on_partition_plans() {
        // 8 midplanes of 512. Units 0..4 busy until t=60.
        let mut plan = PartitionPlan::new(t(0), 8, 512, &[(0, 4, t(60))]);
        // A: full machine 30 s; B: 2 units 25 s.
        let window = [qj(0, 4096, 30), qj(1, 1024, 25)];
        let placed = place_best_permutation(&mut plan, &window, t(0), 120);
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
        let placed = place_best_permutation_traced(&mut plan, &window, t(0), 120, Some(&mut trace));
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
        let untraced = place_best_permutation(&mut plan2, &window, t(0), 120);
        let a: Vec<(usize, SimTime)> = placed.iter().map(|p| (p.slot, p.start)).collect();
        let b: Vec<(usize, SimTime)> = untraced.iter().map(|p| (p.slot, p.start)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_fast_path_and_single_job_windows() {
        let mut plan = FlatPlan::new(t(0), 100, &[]);
        let window = [qj(0, 30, 100), qj(1, 30, 50)];
        let mut trace = SearchTrace::default();
        place_best_permutation_traced(&mut plan, &window, t(0), 120, Some(&mut trace));
        assert!(trace.fast_path);
        assert_eq!(trace.chosen, vec![0, 1]);
        assert_eq!(trace.starts_now, 2);
        assert!(trace.losers.is_empty());

        let mut plan = FlatPlan::new(t(0), 100, &[(80, t(40))]);
        let single = [qj(2, 50, 60)];
        let mut trace = SearchTrace::default();
        place_best_permutation_traced(&mut plan, &single, t(0), 120, Some(&mut trace));
        assert!(trace.fast_path);
        assert_eq!(trace.chosen, vec![0]);
        assert_eq!(trace.starts_now, 0); // waits for the release
        assert_eq!(trace.makespan, t(100));
    }

    #[test]
    fn max_permutations_caps_search() {
        // With the cap at 1 only the identity is evaluated.
        let mut plan = FlatPlan::new(t(0), 10, &[(5, t(20))]);
        let window = [qj(0, 10, 30), qj(1, 5, 25)];
        let placed = place_best_permutation(&mut plan, &window, t(0), 1);
        assert_eq!(placed[0].slot, 0);
        assert_eq!(placed[0].start, t(20));
    }
}
