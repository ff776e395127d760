//! Randomized property tests of the scheduling pass itself: for
//! arbitrary queues, machine states, and policies, one `schedule_pass`
//! must produce internally consistent decisions. Driven by a seeded
//! in-repo PRNG so every case is reproducible.

use amjs_core::scheduler::{BackfillMode, PassScratch, ProtectionStyle, QueuedJob, Scheduler};
use amjs_core::PolicyParams;
use amjs_platform::plan::Plan;
use amjs_platform::{AllocationId, BgpCluster, Platform};
use amjs_sim::rng::Xoshiro256;
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::JobId;

/// Random waiting queues of partition-sized jobs.
fn random_queue(rng: &mut Xoshiro256) -> Vec<QueuedJob> {
    let len = 1 + rng.next_below(39) as usize;
    (0..len)
        .map(|i| {
            let ago = rng.next_below(7200) as i64;
            let units = 1 + rng.next_below(8) as u32;
            let wall = 60 + rng.next_below(14_340) as i64;
            QueuedJob {
                id: JobId(i as u64),
                submit: SimTime::from_secs(7200 - ago),
                nodes: units * 512,
                walltime: SimDuration::from_secs(wall),
            }
        })
        .collect()
}

/// Random machine occupancy: some already-running blocks with release
/// times.
fn random_running(rng: &mut Xoshiro256) -> Vec<(u32, i64)> {
    let len = rng.next_below(6) as usize;
    (0..len)
        .map(|_| {
            (
                1 + rng.next_below(4) as u32,
                600 + rng.next_below(6600) as i64,
            )
        })
        .collect()
}

fn random_backfill(rng: &mut Xoshiro256) -> BackfillMode {
    match rng.next_below(3) {
        0 => BackfillMode::None,
        1 => BackfillMode::Easy,
        _ => BackfillMode::Conservative,
    }
}

fn occupy(
    machine: &mut BgpCluster,
    running: &[(u32, i64)],
    now: SimTime,
) -> Vec<(AllocationId, SimTime)> {
    let mut releases = Vec::new();
    for &(units, rel) in running {
        if let Some(id) = machine.allocate(units * 512) {
            releases.push((id, now + SimDuration::from_secs(rel)));
        }
    }
    releases
}

/// Core decision invariants: no duplicate starts, every started job
/// is from the queue, every start's hint allocates on the live
/// machine, reservations are in the future and never overlap starts.
#[test]
fn decisions_are_internally_consistent() {
    let mut rng = Xoshiro256::seed_from_u64(0xDEC1);
    // One scratch for every case, as the runner keeps one.
    let mut scratch = PassScratch::default();
    for _ in 0..64 {
        let queue = random_queue(&mut rng);
        let running = random_running(&mut rng);
        let bf = rng.next_below(5) as f64 * 0.25;
        let window = 1 + rng.next_below(5) as usize;
        let backfill = random_backfill(&mut rng);
        let protection = if rng.next_bool(0.5) {
            ProtectionStyle::PinnedBlocks
        } else {
            ProtectionStyle::TimeFlexible
        };

        let now = SimTime::from_secs(7200);
        let mut machine = BgpCluster::new(16, 512);
        let releases = occupy(&mut machine, &running, now);
        let rel_of = |id: AllocationId| releases.iter().find(|&&(i, _)| i == id).unwrap().1;
        let base_plan = machine.plan(now, &rel_of);

        let mut sched = Scheduler::new(PolicyParams::new(bf, window), backfill);
        sched.protection = protection;
        let decision = sched.schedule_pass(now, &queue, &base_plan, &mut scratch);

        // Starts are unique and come from the queue.
        let mut seen = std::collections::HashSet::new();
        for start in &decision.starts {
            assert!(seen.insert(start.id), "duplicate start {:?}", start.id);
            assert!(queue.iter().any(|j| j.id == start.id));
        }
        // Reservations: future, unique, and disjoint from starts.
        let mut res_seen = std::collections::HashSet::new();
        for &(id, at) in &decision.reservations {
            assert!(at > now, "reservation in the past");
            assert!(res_seen.insert(id));
            assert!(!seen.contains(&id), "job both started and reserved");
        }
        // Every start allocates on the real machine via its hint, in
        // decision order.
        for start in &decision.starts {
            let job = queue.iter().find(|j| j.id == start.id).unwrap();
            assert!(
                machine.allocate_hinted(job.nodes, start.hint).is_some(),
                "hinted allocation failed for {:?}",
                start.id
            );
        }
    }
}

/// EASY never starts a job that delays the protected head
/// reservation: after applying all starts, the head must still be
/// placeable at (or before) its promised time.
#[test]
fn easy_head_reservation_is_honored() {
    let mut rng = Xoshiro256::seed_from_u64(0xEA51);
    // One scratch for every case, as the runner keeps one.
    let mut scratch = PassScratch::default();
    for _ in 0..64 {
        let queue = random_queue(&mut rng);
        let running = random_running(&mut rng);
        let bf = rng.next_below(5) as f64 * 0.25;
        let window = 1 + rng.next_below(4) as usize;

        let now = SimTime::from_secs(7200);
        let mut machine = BgpCluster::new(16, 512);
        let releases = occupy(&mut machine, &running, now);
        let rel_of = |id: AllocationId| releases.iter().find(|&&(i, _)| i == id).unwrap().1;
        let base_plan = machine.plan(now, &rel_of);

        let mut sched = Scheduler::new(PolicyParams::new(bf, window), BackfillMode::Easy);
        sched.easy_protected = Some(1);
        let decision = sched.schedule_pass(now, &queue, &base_plan, &mut scratch);

        let Some(&head_id) = decision.protected.first() else {
            continue; // nothing protected, nothing to check
        };
        let promised = decision
            .reservations
            .iter()
            .find(|&&(id, _)| id == head_id)
            .expect("protected job must hold a reservation")
            .1;
        let head = queue.iter().find(|j| j.id == head_id).unwrap();

        // Apply the starts to the live machine exactly as the runner
        // would (hinted blocks), then ask the resulting availability
        // plan whether the head still fits at its promised time. Using
        // the hints matters: committing starts onto arbitrary blocks
        // could fragment differently from what the scheduler proved.
        let mut started: Vec<(AllocationId, SimTime)> = Vec::new();
        for start in &decision.starts {
            let job = queue.iter().find(|j| j.id == start.id).unwrap();
            let id = machine
                .allocate_hinted(job.nodes, start.hint)
                .expect("hinted start must allocate");
            started.push((id, now + job.walltime));
        }
        let combined_rel = |id: AllocationId| {
            started
                .iter()
                .chain(releases.iter())
                .find(|&&(i, _)| i == id)
                .unwrap()
                .1
        };
        let check = machine.plan(now, &combined_rel);
        assert!(
            check.can_place_at(head.nodes, promised, head.walltime),
            "head {head_id:?} can no longer run at its promised {promised:?}"
        );
    }
}

/// Monotonicity of no-backfill FCFS: the planned starts respect
/// priority order strictly.
#[test]
fn no_backfill_reservations_are_monotone() {
    let mut rng = Xoshiro256::seed_from_u64(0x4070);
    // One scratch for every case, as the runner keeps one.
    let mut scratch = PassScratch::default();
    for _ in 0..64 {
        let queue = random_queue(&mut rng);
        let running = random_running(&mut rng);

        let now = SimTime::from_secs(7200);
        let mut machine = BgpCluster::new(16, 512);
        let releases = occupy(&mut machine, &running, now);
        let rel_of = |id: AllocationId| releases.iter().find(|&&(i, _)| i == id).unwrap().1;
        let base_plan = machine.plan(now, &rel_of);

        let sched = Scheduler::new(PolicyParams::fcfs(), BackfillMode::None);
        let decision = sched.schedule_pass(now, &queue, &base_plan, &mut scratch);
        // Reservation list is in planning (priority) order; under
        // monotone placement the times must be non-decreasing.
        for pair in decision.reservations.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "{pair:?}");
        }
    }
}

/// The pass is a pure function: same inputs, same decision.
#[test]
fn pass_is_pure() {
    let mut rng = Xoshiro256::seed_from_u64(0x9u64);
    // One scratch for every case, as the runner keeps one.
    let mut scratch = PassScratch::default();
    for _ in 0..64 {
        let queue = random_queue(&mut rng);
        let window = 1 + rng.next_below(4) as usize;

        let now = SimTime::from_secs(7200);
        let machine = BgpCluster::new(16, 512);
        let base_plan = machine.plan(now, &|_| now);
        let sched = Scheduler::new(PolicyParams::new(0.5, window), BackfillMode::Easy);
        let a = (sched.schedule_pass(now, &queue, &base_plan, &mut PassScratch::default())).clone();
        // The shared scratch holds the previous case's pass.
        let b = sched.schedule_pass(now, &queue, &base_plan, &mut scratch);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.reservations, b.reservations);
        assert_eq!(a.protected, b.protected);
    }
}
