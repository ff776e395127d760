//! Differential suite for the window stop (DESIGN.md §15): an untraced
//! EASY pass ends its window phase once its protected reservations are
//! fixed and no remaining planned job can start now; a traced pass plans
//! every window. The two must decide the same: the same starts (id, hint,
//! `backfilled`), the same protected jobs at the same instants, and the
//! untraced pass's reservations a prefix of the traced pass's.
//!
//! Seeded random queues and running sets on a flat plan and on
//! partitioned plans of 80 and 640 units, at W = 1–4, plan depths 1, 5
//! and 20, `easy_protected` None, Some(1), Some(W) and Some(W + 1), under
//! both protection styles.

use amjs_core::scheduler::{
    BackfillMode, PassScratch, PassTrace, ProtectionStyle, QueuedJob, ScheduleDecision, Scheduler,
};
use amjs_core::PolicyParams;
use amjs_platform::plan::{FlatPlan, PartitionPlan, Plan};
use amjs_platform::Nodes;
use amjs_sim::rng::Xoshiro256;
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::JobId;

fn cases(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// The machine all three plan shapes model: 5 120 nodes.
const NODES: Nodes = 5_120;

/// The protected reservations, in reservation order, with their instants.
fn protected(d: &ScheduleDecision) -> Vec<(JobId, SimTime)> {
    (d.reservations.iter())
        .filter(|(id, _)| d.protected.contains(id))
        .copied()
        .collect()
}

/// Run `sched` on `plan` untraced and traced, in the two `scratches`
/// (which may hold earlier passes), and require one decision. Returns
/// how many windows the untraced pass left unplanned.
fn assert_stop_is_exact<P: Plan>(
    label: &str,
    sched: &Scheduler,
    now: SimTime,
    queue: &[QueuedJob],
    plan: &P,
    scratches: &mut [PassScratch<P>; 2],
) -> u64 {
    let [plain, full] = scratches;
    let plain = sched.schedule_pass(now, queue, plan, plain);
    let mut trace = PassTrace::default();
    let full = sched.schedule_pass_traced(now, queue, plan, full, Some(&mut trace), None);
    assert_eq!(plain.starts, full.starts, "{label}: starts");
    assert_eq!(plain.protected, full.protected, "{label}: protected jobs");
    assert_eq!(protected(plain), protected(full), "{label}: promises");
    assert!(
        full.reservations.starts_with(&plain.reservations),
        "{label}: the stopped pass's reservations are not the full pass's prefix"
    );
    assert_eq!(full.window.unplanned, 0, "{label}: a traced pass stopped");
    plain.window.unplanned
}

/// A duration of 1 to `max_steps` half hours, so that releases,
/// reservation starts and ends coincide.
fn grid(rng: &mut Xoshiro256, max_steps: u64) -> SimDuration {
    SimDuration::from_mins(30) * (1 + rng.next_below(max_steps) as i64)
}

/// A waiting queue: mostly small and mid-sized jobs, some of a quarter
/// to the whole machine.
fn random_queue(rng: &mut Xoshiro256, now: SimTime) -> Vec<QueuedJob> {
    let len = 1 + rng.next_below(30) as usize;
    (0..len)
        .map(|i| {
            let nodes = match rng.next_below(8) {
                0..=3 => 1 + rng.next_below(256) as Nodes,
                4..=6 => 1 + rng.next_below(NODES as u64 / 4) as Nodes,
                _ => NODES / (1 << rng.next_below(3)),
            };
            QueuedJob {
                id: JobId(i as u64),
                submit: now - SimDuration::from_secs(rng.next_below(36_000) as i64),
                nodes,
                walltime: grid(rng, 12),
            }
        })
        .collect()
}

/// Running blocks `(first unit, units, release)` on a line of `units`,
/// covering about `busy` of it.
fn random_running(
    rng: &mut Xoshiro256,
    now: SimTime,
    units: u16,
    busy: f64,
) -> Vec<(u16, u16, SimTime)> {
    let mut running = Vec::new();
    let mut cursor = 0u16;
    while cursor < units {
        let len = (1 + rng.next_below(units as u64 / 8) as u16).min(units - cursor);
        if rng.next_bool(busy) {
            running.push((cursor, len, now + grid(rng, 10)));
        }
        cursor += len;
    }
    running
}

/// Every configuration the stop's conditions distinguish.
fn schedulers() -> Vec<(String, Scheduler)> {
    let mut out = Vec::new();
    for window in 1..=4 {
        for plan_depth in [1, 5, 20] {
            for easy_protected in [None, Some(1), Some(window), Some(window + 1)] {
                for protection in [ProtectionStyle::PinnedBlocks, ProtectionStyle::TimeFlexible] {
                    let mut s = Scheduler::new(PolicyParams::new(0.5, window), BackfillMode::Easy);
                    s.plan_depth = plan_depth;
                    s.easy_protected = easy_protected;
                    s.protection = protection;
                    let label =
                        format!("W={window} depth={plan_depth} {easy_protected:?} {protection:?}");
                    out.push((label, s));
                }
            }
        }
    }
    out
}

/// Runs every configuration on `cases` seeded queues and plans built by
/// `plan_of` from a running set; requires the stop to have fired in at
/// least one pass in five.
fn differential<P: Plan>(
    seed: u64,
    cases: u64,
    units: u16,
    plan_of: impl Fn(SimTime, &[(u16, u16, SimTime)]) -> P,
) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let schedulers = schedulers();
    let (mut passes, mut stopped) = (0, 0);
    let mut scratches = [PassScratch::default(), PassScratch::default()];
    for case in 0..cases {
        let now = SimTime::from_secs(86_400 + rng.next_below(86_400) as i64);
        let busy = [0.3, 0.6, 0.9][case as usize % 3];
        let running = random_running(&mut rng, now, units, busy);
        let queue = random_queue(&mut rng, now);
        let plan = plan_of(now, &running);
        for (label, sched) in &schedulers {
            let label = format!("seed {seed:#x} case {case} {label}");
            passes += 1;
            stopped += u64::from(
                assert_stop_is_exact(&label, sched, now, &queue, &plan, &mut scratches) > 0,
            );
        }
    }
    assert!(
        stopped * 5 > passes,
        "the stop fired in only {stopped} of {passes} passes"
    );
}

#[test]
fn stopped_passes_decide_as_full_ones_on_a_flat_plan() {
    // Units of 64 nodes, so the running sets match the partitioned runs.
    differential(0x57_0F1A, cases(40, 2_000), 80, |now, running| {
        let base: Vec<(Nodes, SimTime)> = (running.iter())
            .map(|&(_, len, end)| (len as Nodes * 64, end))
            .collect();
        FlatPlan::new(now, NODES, &base)
    });
}

#[test]
fn stopped_passes_decide_as_full_ones_on_80_midplanes() {
    differential(0x57_0080, cases(40, 2_000), 80, |now, running| {
        PartitionPlan::new(now, 80, NODES / 80, running)
    });
}

#[test]
fn stopped_passes_decide_as_full_ones_on_640_units() {
    differential(0x57_0640, cases(40, 2_000), 640, |now, running| {
        PartitionPlan::new(now, 640, NODES / 640, running)
    });
}

/// Window 0 starts whole, so after it no reservation is placed yet and
/// `Some(k)` protection is not fixed: the pass must go on planning until
/// `k` reservations are, although nothing further can start now. (Counted
/// in windows instead, `Some(2)` at W = 2 would stop after window 0 and
/// protect nothing.)
#[test]
fn protection_is_fixed_by_reservations_not_windows() {
    let t = SimTime::from_secs;
    let job = |id: u64, nodes: Nodes, wall: i64| QueuedJob {
        id: JobId(id),
        submit: t(id as i64),
        nodes,
        walltime: SimDuration::from_secs(wall),
    };
    // 100 nodes, 80 busy until t=100. FCFS windows of two: jobs 0 and 1
    // start in the 20 idle nodes; 2, 3 and 4 can only be reserved.
    let plan = FlatPlan::new(t(0), 100, &[(80, t(100))]);
    let queue = [
        job(0, 10, 1_000),
        job(1, 10, 1_000),
        job(2, 50, 100),
        job(3, 50, 100),
        job(4, 50, 100),
    ];
    for (k, expect) in [(2, 2), (3, 3), (4, 3)] {
        let mut s = Scheduler::new(PolicyParams::new(1.0, 2), BackfillMode::Easy);
        s.easy_protected = Some(k);
        let label = format!("Some({k})");
        let mut scratches = [PassScratch::default(), PassScratch::default()];
        let unplanned = assert_stop_is_exact(&label, &s, t(10), &queue, &plan, &mut scratches);
        let d = s.schedule_pass(t(10), &queue, &plan, &mut scratches[0]);
        let started: Vec<u64> = d.starts.iter().map(|s| s.id.0).collect();
        assert_eq!(started, [0, 1], "{label}");
        assert!(d.starts.iter().all(|s| !s.backfilled), "{label}");
        assert_eq!(d.protected.len(), expect, "{label}: {:?}", d.protected);
        // With two reservations protected, window 2 is never planned.
        assert_eq!(unplanned, u64::from(k == 2), "{label}");
    }
}
