//! Differential suite for the in-memory what-if fork (ISSUE 21).
//!
//! [`LiveScheduler::fork`] copies the live half of the state and starts
//! from an empty history; the reference is the fork it replaced, a
//! scheduler decoded from the parent's snapshot. Both must give the same
//! answer to every what-if, and neither may touch the parent.
//!
//! Each case replays a seeded submit/advance/cancel script on a flat or
//! partitioned machine under EASY or conservative backfilling, with the
//! 2D tuner on and — in half of the cases — node failures with retry
//! backoff, so kills, re-queues and pending `Resubmit`s are in flight
//! when the forks are taken.

use amjs_core::failures::{FailureSpec, RepairSpec, RetryPolicy};
use amjs_core::live::{JobStatus, LiveScheduler, WhatIfAnswer};
use amjs_core::{AdaptiveScheme, BackfillMode, PolicyParams, SimulationBuilder};
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_sim::rng::Xoshiro256;
use amjs_sim::{SimDuration, Snapshot};
use amjs_workload::JobId;

fn cases(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

const STEPS: usize = 25;
const CHECK_EVERY: usize = 5;

fn live<P: Platform + Snapshot>(platform: P, rng: &mut Xoshiro256) -> LiveScheduler<P> {
    let mut builder = SimulationBuilder::new(platform, Vec::new())
        .policy(PolicyParams::new(0.5, 2))
        .backfill(if rng.next_bool(0.5) {
            BackfillMode::Easy
        } else {
            BackfillMode::Conservative
        })
        .adaptive(AdaptiveScheme::two_d(30.0))
        .sample_interval(SimDuration::from_mins(10));
    if rng.next_bool(0.5) {
        builder = builder
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(rng.next_range_inclusive(10, 200)),
                repair: RepairSpec::Deterministic(SimDuration::from_mins(20)),
                seed: rng.next_raw(),
            }))
            .retry_policy(RetryPolicy {
                max_attempts: Some(4),
                backoff_base: SimDuration::from_mins(rng.next_range_inclusive(0, 60)),
            });
    }
    LiveScheduler::from_builder(builder)
}

/// What one replay of a case saw.
struct Replay {
    final_hash: u64,
    final_bytes: Vec<u8>,
    /// Forks in which a job queued before the fork started inside it.
    queued_starts: usize,
}

/// Every what-if worth asking at this point, answered three ways.
fn check_forks<P: Platform + Snapshot>(
    sched: &LiveScheduler<P>,
    ids: u64,
    horizon: SimDuration,
    label: &str,
) -> usize {
    let bytes = sched.encode();
    let hash = sched.state_hash();
    let mut queued_starts = 0;
    // `ids` itself was never handed out: the unknown job.
    for id in (0..=ids).map(JobId) {
        for (bf, w) in [(None, None), (Some(0.9), Some(4))] {
            let reference = LiveScheduler::<P>::decode(&bytes)
                .unwrap()
                .speculate_start(id, bf, w, horizon);
            let asked = sched.whatif_start(id, bf, w, horizon).unwrap();
            assert_eq!(
                asked, reference,
                "{label}: whatif_start({id}, {bf:?}, {w:?})"
            );
            let status = sched.status(id);
            // A fork has no history: what finished before it is the
            // parent's to answer, and `whatif_start` just did.
            if !matches!(status, JobStatus::Finished { .. }) {
                let forked = sched.fork().speculate_start(id, bf, w, horizon);
                assert_eq!(forked, reference, "{label}: fork({id}, {bf:?}, {w:?})");
            }
            if matches!(status, JobStatus::Queued { .. })
                && matches!(reference, WhatIfAnswer::PredictedStart(_))
            {
                queued_starts += 1;
            }
        }
    }
    assert_eq!(sched.state_hash(), hash, "{label}: forks moved the hash");
    assert_eq!(sched.encode(), bytes, "{label}: forks moved the snapshot");
    queued_starts
}

/// Submit one job; returns how many ids have been handed out.
fn submit<P: Platform + Snapshot>(
    sched: &mut LiveScheduler<P>,
    nodes: u32,
    rng: &mut Xoshiro256,
) -> u64 {
    let wall = SimDuration::from_mins(rng.next_range_inclusive(5, 180));
    let run = SimDuration::from_secs(rng.next_range_inclusive(60, wall.as_secs()));
    let user = rng.next_below(5) as u32;
    sched.submit(nodes, wall, Some(run), user).unwrap().0 + 1
}

fn replay<P: Platform + Snapshot>(platform: P, seed: u64, with_forks: bool, label: &str) -> Replay {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let capacity = platform.total_nodes();
    let quantum = platform.min_allocation().max(1);
    let mut sched = live(platform, &mut rng);
    let mut ids = 0u64;
    let mut queued_starts = 0;
    for step in 1..=STEPS {
        match rng.next_below(10) {
            0..=5 => {
                let nodes = quantum * (1 + rng.next_below((capacity / quantum) as u64) as u32);
                ids = submit(&mut sched, nodes, &mut rng);
            }
            6..=8 => {
                let dt = SimDuration::from_mins(rng.next_range_inclusive(1, 45));
                sched.advance_to(sched.now() + dt);
            }
            _ => {
                sched.cancel(JobId(rng.next_below(ids + 1)));
            }
        }
        if step % CHECK_EVERY != 0 {
            continue;
        }
        // Make sure something is waiting: two machine-sized jobs cannot
        // both run.
        if sched.stats().queued == 0 {
            submit(&mut sched, capacity, &mut rng);
            ids = submit(&mut sched, capacity, &mut rng);
            sched.advance_to(sched.now() + SimDuration::from_secs(1));
        }
        // Mostly far enough for everything queued to start, sometimes not.
        let horizon = SimDuration::from_mins(if rng.next_bool(0.8) { 72 * 60 } else { 20 });
        if with_forks {
            let label = format!("{label} step {step}");
            queued_starts += check_forks(&sched, ids, horizon, &label);
        }
    }
    sched.advance_to(sched.now() + SimDuration::from_hours(6));
    Replay {
        final_hash: sched.state_hash(),
        final_bytes: sched.encode(),
        queued_starts,
    }
}

fn differential<P: Platform + Snapshot>(make: fn() -> P, master: u64, n: u64) {
    for case in 0..n {
        let seed = amjs_sim::rng::split_seed(master, case);
        let label = format!("{} case {case}", make().name());
        let forked = replay(make(), seed, true, &label);
        assert!(
            forked.queued_starts > 0,
            "{label}: no fork saw a queued job start"
        );
        let twin = replay(make(), seed, false, &label);
        assert_eq!(forked.final_hash, twin.final_hash, "{label}: final hash");
        assert_eq!(forked.final_bytes, twin.final_bytes, "{label}: final bytes");
    }
}

#[test]
fn fork_is_the_decoded_fork_on_a_flat_machine() {
    differential(|| FlatCluster::new(96), 0xF0_4B, cases(25, 1_000));
}

#[test]
fn fork_is_the_decoded_fork_on_a_partitioned_machine() {
    differential(|| BgpCluster::new(8, 32), 0xB6_F0_4B, cases(25, 1_000));
}

#[test]
fn a_fork_crosses_threads_and_is_dropped_there() {
    let mut rng = Xoshiro256::seed_from_u64(7);
    let mut sched = live(FlatCluster::new(64), &mut rng);
    for user in 0..3 {
        let wall = SimDuration::from_mins(30);
        sched.submit(64, wall, None, user).unwrap();
    }
    sched.advance_to(sched.now() + SimDuration::from_mins(1));
    let (queued, horizon) = (JobId(2), SimDuration::from_hours(2));
    assert!(matches!(sched.status(queued), JobStatus::Queued { .. }));
    let reference = LiveScheduler::<FlatCluster>::decode(&sched.encode())
        .unwrap()
        .speculate_start(queued, None, None, horizon);
    let (used, unused) = (sched.fork(), sched.fork());
    let answer = std::thread::spawn(move || {
        drop(unused);
        used.speculate_start(queued, None, None, horizon)
    });
    assert_eq!(answer.join().unwrap(), reference);
    assert!(matches!(reference, WhatIfAnswer::PredictedStart(_)));
}
