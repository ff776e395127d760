//! Fair start times — the no-later-arrivals drain simulation.
//!
//! Paper §IV-A: "assuming there is no later arrival jobs, we conducted a
//! simulation of scheduling under current scheduling policy and get when
//! the job will be started" — the fairness notion of Sabin et al.
//! (ICPP 2004).
//!
//! At the instant a job is submitted, the runner snapshots the machine
//! (running jobs with their expected releases) and the waiting queue
//! including the new job, then *drains* the queue: jobs are placed at
//! their earliest feasible starts in current-policy priority order, each
//! placement becoming a commitment the next one must respect. The target
//! job's placed start is its fair start time.
//!
//! This drain is a conservative-backfilling schedule of the frozen queue
//! (every earlier-priority job holds its reservation; later-priority
//! jobs may slot into gaps). It deliberately omits the window
//! permutation search — the drain is a *definition of entitlement*, not
//! a prediction, and must stay identical in shape across the policies
//! being compared so fairness counts are comparable. Only the queue
//! *ordering* (the balance factor) varies with policy, which is exactly
//! the sensitivity the paper's Fig. 3(b) measures.

use amjs_platform::plan::{Plan, PlanToken};
use amjs_sim::SimTime;
use amjs_workload::JobId;

use crate::policy::QueuePolicy;
use crate::scheduler::QueuedJob;

/// Compute the fair start time of `target` given the frozen `queue`
/// (which must contain it) and the machine snapshot `base_plan`.
///
/// ```
/// use amjs_core::fairshare::fair_start_time;
/// use amjs_core::scheduler::QueuedJob;
/// use amjs_core::QueuePolicy;
/// use amjs_platform::plan::FlatPlan;
/// use amjs_sim::{SimDuration, SimTime};
/// use amjs_workload::JobId;
///
/// // Empty 64-node machine: the only queued job is entitled to start now.
/// let plan = FlatPlan::new(SimTime::ZERO, 64, &[]);
/// let queue = vec![QueuedJob {
///     id: JobId(0),
///     submit: SimTime::ZERO,
///     nodes: 32,
///     walltime: SimDuration::from_mins(10),
/// }];
/// let fcfs = QueuePolicy::Balanced { balance_factor: 1.0 };
/// let fair = fair_start_time(&plan, &queue, JobId(0), fcfs, SimTime::ZERO, usize::MAX);
/// assert_eq!(fair, SimTime::ZERO);
/// ```
///
/// `gap_depth` mirrors the scheduler's backfill depth: the first
/// `gap_depth` jobs (in priority order) may slot into availability gaps;
/// deeper jobs are placed monotonically (no earlier than their
/// predecessor), because in the real scheduler a deep job cannot
/// backfill until it rises into the depth window. Pass `usize::MAX` when
/// the scheduler's backfill is unbounded.
///
/// # Panics
/// Panics if `target` is not in `queue` or if a job exceeds the machine
/// (oversized jobs are filtered at trace load).
pub fn fair_start_time<P: Plan>(
    base_plan: &P,
    queue: &[QueuedJob],
    target: JobId,
    ordering: QueuePolicy,
    now: SimTime,
    gap_depth: usize,
) -> SimTime {
    let mut sorted = queue.to_vec();
    ordering.sort(&mut sorted, now);
    let target_pos = position_of(&sorted, target);
    let mut plan = base_plan.clone();
    let mut start = now;
    for (i, job) in sorted[..=target_pos].iter().enumerate() {
        let not_before = if i > gap_depth { start } else { now };
        let (placed, _kept) = plan
            .place_earliest(job.nodes, job.walltime, not_before)
            .unwrap_or_else(|| panic!("{} exceeds the machine", job.id));
        start = placed;
    }
    start
}

fn position_of(sorted: &[QueuedJob], target: JobId) -> usize {
    sorted
        .iter()
        .position(|j| j.id == target)
        .unwrap_or_else(|| panic!("{target} is not in the queue"))
}

/// One drained job: what was placed, where, and how to undo it.
#[derive(Debug)]
struct Placed {
    job: QueuedJob,
    start: SimTime,
    token: PlanToken,
}

/// A finished drain kept for the next submission: the plan with every
/// placement up to the previous target still committed, in priority
/// order. Valid only while the machine is unchanged (the caller keys it
/// by its epoch) — see DESIGN.md §15 for the time-shift lemma that lets
/// a later instant resume it. A drain that cannot be resumed still lends
/// its buffers to the next fresh one.
#[derive(Debug)]
pub struct Drain<P: Plan> {
    plan: P,
    placed: Vec<Placed>,
}

/// The drain of [`fair_start_time`] over an already-`sorted` queue,
/// resuming `kept` when `resumable` and it can. Returns `target`'s start
/// and how many of `kept`'s placements were reused (0 = drained fresh:
/// `rebuild` turns the stale drain's plan, or `None` when there is none,
/// into the base plan, and the placements start from an empty list).
///
/// Resuming takes the longest common prefix of the kept placements and
/// `sorted` whose starts are `>= now`, rolls the rest back in LIFO order
/// and places only the remainder. `resumable` is the caller's word for
/// the lemma's other two preconditions: the machine has not changed
/// since `kept` was drained, and every running job's expected end is
/// after `now`. Once the buffers have grown, neither kind of drain
/// allocates.
///
/// # Panics
/// Panics if `target` is not in `sorted`, if a job exceeds the machine,
/// or if `rebuild` leaves no plan.
pub fn drain_sorted<P: Plan>(
    kept: &mut Option<Drain<P>>,
    resumable: bool,
    rebuild: impl FnOnce(&mut Option<P>),
    sorted: &[QueuedJob],
    target: JobId,
    now: SimTime,
    gap_depth: usize,
) -> (SimTime, usize) {
    let target_pos = position_of(sorted, target);
    let reused = match kept {
        Some(d) if resumable => {
            let common = d.placed.iter().zip(sorted);
            common
                .take_while(|(p, j)| p.job == **j && p.start >= now)
                .count()
        }
        _ => 0,
    };
    let d = if reused == 0 {
        let (mut plan, mut placed) = match kept.take() {
            Some(Drain { plan, placed }) => (Some(plan), placed),
            None => (None, Vec::new()),
        };
        placed.clear();
        rebuild(&mut plan);
        let plan = plan.expect("rebuild leaves a plan");
        kept.insert(Drain { plan, placed })
    } else {
        let d = kept.as_mut().expect("only a kept drain is reused");
        for undone in d.placed.drain(reused..).rev() {
            d.plan.rollback(undone.token);
        }
        d
    };
    let resume_at = d.placed.len();
    for (i, job) in sorted[..=target_pos].iter().enumerate().skip(resume_at) {
        // The first `gap_depth` jobs may slot into gaps; deeper ones
        // start no earlier than their predecessor.
        let not_before = if i > gap_depth {
            d.placed[i - 1].start
        } else {
            now
        };
        let (start, token) = d
            .plan
            .place_earliest(job.nodes, job.walltime, not_before)
            .unwrap_or_else(|| panic!("{} exceeds the machine", job.id));
        d.placed.push(Placed {
            job: job.clone(),
            start,
            token,
        });
    }
    (d.placed[target_pos].start, reused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_platform::plan::FlatPlan;
    use amjs_sim::SimDuration;

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

    fn fcfs() -> QueuePolicy {
        QueuePolicy::Balanced {
            balance_factor: 1.0,
        }
    }

    fn sjf() -> QueuePolicy {
        QueuePolicy::Balanced {
            balance_factor: 0.0,
        }
    }

    #[test]
    fn empty_machine_fair_start_is_now() {
        let plan = FlatPlan::new(t(100), 64, &[]);
        let q = vec![qj(0, 100, 32, 600)];
        assert_eq!(
            fair_start_time(&plan, &q, JobId(0), fcfs(), t(100), usize::MAX),
            t(100)
        );
    }

    #[test]
    fn fair_start_waits_behind_earlier_jobs() {
        // Machine 100, free. Queue (FCFS order): j0 100 nodes [now,
        // now+50); j1 100 nodes [50,100); target j2 100 nodes → 100.
        let plan = FlatPlan::new(t(0), 100, &[]);
        let q = vec![qj(0, 0, 100, 50), qj(1, 1, 100, 50), qj(2, 2, 100, 50)];
        assert_eq!(
            fair_start_time(&plan, &q, JobId(2), fcfs(), t(2), usize::MAX),
            t(102)
        );
        // The head's fair start is immediate.
        assert_eq!(
            fair_start_time(&plan, &q, JobId(0), fcfs(), t(2), usize::MAX),
            t(2)
        );
    }

    #[test]
    fn drain_backfills_small_jobs_into_gaps() {
        // 100 nodes; 80 busy until t=100. FCFS order: j0 needs 100 →
        // [100, 200). Target j1 (20 nodes, 50 s) fits the idle 20 before
        // j0's reservation → fair start = now.
        let plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
        let q = vec![qj(0, 0, 100, 100), qj(1, 5, 20, 50)];
        assert_eq!(
            fair_start_time(&plan, &q, JobId(1), fcfs(), t(10), usize::MAX),
            t(10)
        );
    }

    #[test]
    fn policy_changes_fair_start() {
        // One 50-node slot free; under FCFS the long older job is ahead
        // of the short newer one; under SJF the short one leapfrogs.
        let plan = FlatPlan::new(t(0), 100, &[(50, t(1000))]);
        let q = vec![qj(0, 0, 50, 5000), qj(1, 10, 50, 100)];
        // FCFS: j1 waits for j0's slot... j0 [now, now+5000); j1 can't
        // overlap (50+50+50 > 100) → j1 at 1000+... j0 takes the free 50
        // now; at t=1000 base releases → j1 at 1000.
        assert_eq!(
            fair_start_time(&plan, &q, JobId(1), fcfs(), t(20), usize::MAX),
            t(1000)
        );
        // SJF: j1 sorts first and takes the free slot immediately.
        assert_eq!(
            fair_start_time(&plan, &q, JobId(1), sjf(), t(20), usize::MAX),
            t(20)
        );
        // ...and j0 follows as soon as j1's 100 s slot frees at t=120.
        assert_eq!(
            fair_start_time(&plan, &q, JobId(0), sjf(), t(20), usize::MAX),
            t(120)
        );
    }

    #[test]
    #[should_panic(expected = "not in the queue")]
    fn missing_target_panics() {
        let plan = FlatPlan::new(t(0), 10, &[]);
        let q = vec![qj(0, 0, 1, 10)];
        fair_start_time(&plan, &q, JobId(9), fcfs(), t(0), usize::MAX);
    }
}
