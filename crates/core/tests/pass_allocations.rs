//! The untraced scheduling pass and the fair-start drain allocate
//! nothing once their kept buffers have grown (DESIGN.md §15, "The
//! pass's kept buffers"): the base plan rebuilt in place, the pass
//! working in a reused [`PassScratch`], fresh drains rebuilding into the
//! stale drain's plan and resumed drains placing onto it.
//!
//! A counting global allocator counts this thread's allocations and
//! reallocations only (a `const` thread-local, so the harness's other
//! test threads do not add to it). Each test runs its script of machine
//! states and queues twice: the first round grows the buffers, the
//! second must allocate nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use amjs_core::fairshare::{drain_sorted, Drain};
use amjs_core::scheduler::{BackfillMode, PassScratch, ProtectionStyle, QueuedJob, Scheduler};
use amjs_core::{PolicyParams, QueuePolicy};
use amjs_platform::{AllocationId, BgpCluster, FlatCluster, Platform};
use amjs_sim::rng::Xoshiro256;
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::JobId;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocations so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One machine state and waiting queue: the machine, each live
/// allocation's release, `now`, and the queue in the schedulers' order.
struct Case<P> {
    machine: P,
    releases: Vec<(AllocationId, SimTime)>,
    now: SimTime,
    sorted: Vec<QueuedJob>,
}

/// `count` seeded cases: the machine filled by random jobs to 30–90 %,
/// releases within a day, and 1–80 waiting jobs no larger than the
/// machine, sorted as `order` sorts them.
fn cases<P: Platform>(
    seed: u64,
    count: usize,
    empty: impl Fn() -> P,
    order: QueuePolicy,
) -> Vec<Case<P>> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut machine = empty();
            let total = machine.total_nodes() as u64;
            let now = SimTime::from_secs(86_400 + rng.next_below(86_400) as i64);
            let busy = (3 + rng.next_below(7)) * total / 10;
            let mut releases = Vec::new();
            while ((total - machine.idle_nodes() as u64) < busy) && releases.len() < 200 {
                let nodes = 1 + rng.next_below(total / 8) as u32;
                if let Some(id) = machine.allocate(nodes) {
                    let left = SimDuration::from_mins(1 + rng.next_below(1_440) as i64);
                    releases.push((id, now + left));
                }
            }
            let mut sorted: Vec<QueuedJob> = (0..1 + rng.next_below(80))
                .map(|i| {
                    let largest = total / (1 + rng.next_below(8));
                    QueuedJob {
                        id: JobId(i),
                        submit: now - SimDuration::from_mins(rng.next_below(2_000) as i64),
                        nodes: 1 + rng.next_below(largest) as u32,
                        walltime: SimDuration::from_mins(5 + rng.next_below(720) as i64),
                    }
                })
                .collect();
            order.sort(&mut sorted, now);
            Case {
                machine,
                releases,
                now,
                sorted,
            }
        })
        .collect()
}

/// The schedulers a pass runs as: the benchmark's EASY with one
/// protected head, the paper's EASY protecting the first window,
/// time-flexible protection, conservative and no backfilling.
fn schedulers(window: usize) -> Vec<Scheduler> {
    let easy = |protected| {
        let mut s = Scheduler::new(PolicyParams::new(0.5, window), BackfillMode::Easy);
        s.easy_protected = protected;
        s
    };
    let mut flexible = easy(Some(1));
    flexible.protection = ProtectionStyle::TimeFlexible;
    vec![
        easy(Some(1)),
        easy(None),
        flexible,
        Scheduler::new(PolicyParams::new(0.5, window), BackfillMode::Conservative),
        Scheduler::new(PolicyParams::new(0.5, window), BackfillMode::None),
    ]
}

/// Rebuild `plan` into `case`'s base plan, in place when there is one.
fn rebuild<P: Platform>(case: &Case<P>, plan: &mut Option<P::Plan>) {
    let release = |id: AllocationId| {
        let i = (case.releases)
            .binary_search_by_key(&id, |&(a, _)| a)
            .expect("a live allocation");
        case.releases[i].1
    };
    case.machine.plan_into(case.now, &release, plan);
}

/// Every case's base plan and pass under every scheduler, twice, on one
/// kept base plan and one scratch; returns the second round's
/// allocations.
fn steady_pass_allocations<P: Platform>(cases: &[Case<P>], schedulers: &[Scheduler]) -> u64 {
    let mut base = None;
    let mut scratch = PassScratch::default();
    let mut starts = 0;
    let mut second_round = 0;
    for round in 0..2 {
        let before = allocations();
        for case in cases {
            rebuild(case, &mut base);
            let plan = base.as_ref().expect("just rebuilt");
            for s in schedulers {
                let decision =
                    s.schedule_pass_sorted(case.now, &case.sorted, plan, &mut scratch, None, None);
                starts += decision.starts.len();
            }
        }
        second_round = allocations() - before;
        assert!(round > 0 || starts > 0, "the cases start nothing");
    }
    second_round
}

#[test]
fn untraced_passes_allocate_nothing_on_a_flat_plan_at_w4() {
    let order = Scheduler::new(PolicyParams::new(0.5, 4), BackfillMode::Easy).ordering();
    let cases = cases(0xA110_F1A7, 40, || FlatCluster::new(40_960), order);
    assert_eq!(steady_pass_allocations(&cases, &schedulers(4)), 0);
}

#[test]
fn untraced_passes_allocate_nothing_on_a_partition_plan_at_w2() {
    let order = Scheduler::new(PolicyParams::new(0.5, 2), BackfillMode::Easy).ordering();
    let cases = cases(0xA110_0B69, 40, BgpCluster::intrepid, order);
    assert_eq!(steady_pass_allocations(&cases, &schedulers(2)), 0);
}

/// For every case, a fresh drain to a job part-way down the queue and a
/// resumed drain to a deeper one, twice, on one kept drain; returns the
/// second round's allocations and how many placements the resumed
/// drains reused.
fn steady_drain_allocations<P: Platform>(cases: &[Case<P>]) -> (u64, usize) {
    let mut kept: Option<Drain<P::Plan>> = None;
    let mut reused = 0;
    let mut second_round = 0;
    for _ in 0..2 {
        let before = allocations();
        for case in cases {
            let n = case.sorted.len();
            for (target, resumable) in [(n / 2, false), (n - 1, true)] {
                let target = case.sorted[target].id;
                let (_, r) = drain_sorted(
                    &mut kept,
                    resumable,
                    |plan| rebuild(case, plan),
                    &case.sorted,
                    target,
                    case.now,
                    usize::MAX,
                );
                reused += r;
            }
        }
        second_round = allocations() - before;
    }
    (second_round, reused)
}

#[test]
fn fresh_and_resumed_drains_allocate_nothing() {
    let fcfs = QueuePolicy::Balanced {
        balance_factor: 1.0,
    };
    let flat = cases(0xD2A1_F1A7, 40, || FlatCluster::new(40_960), fcfs);
    let (allocs, reused) = steady_drain_allocations(&flat);
    assert!(reused > 0, "no drain was resumed");
    assert_eq!(allocs, 0, "flat drains");
    let blocks = cases(0xD2A1_0B69, 40, BgpCluster::intrepid, fcfs);
    let (allocs, reused) = steady_drain_allocations(&blocks);
    assert!(reused > 0, "no drain was resumed");
    assert_eq!(allocs, 0, "partitioned drains");
}

/// The counter sees this thread's allocations: the zeros above are not
/// a counter that never moves.
#[test]
fn the_counter_counts() {
    let before = allocations();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(8));
    drop(v);
    assert_eq!(allocations() - before, 1);
}
