//! Differential suite for the split snapshot codec (ISSUE 23).
//!
//! [`LiveScheduler::encode_since`] writes a bounded head and a frame of
//! what the append-only columns gained since a cursor; the reference is
//! [`LiveScheduler::encode`], the self-contained form it is a delta of.
//! A head decoded with every frame taken since genesis must *be* the
//! live scheduler: re-encode to its bytes, hash to its hash, and drain
//! to the summary a scheduler that was never snapshotted drains to.
//!
//! Each case replays a seeded submit/advance/cancel script on a flat or
//! partitioned machine, with the 2D tuner on and — in half of the cases
//! — node failures with retry backoff, taking a delta every `k`
//! commands.

use amjs_core::failures::{FailureSpec, RepairSpec, RetryPolicy};
use amjs_core::live::{JobStatus, LiveScheduler, WhatIfAnswer};
use amjs_core::{AdaptiveScheme, PolicyParams, SimulationBuilder};
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_sim::rng::Xoshiro256;
use amjs_sim::{Columns, SimDuration, SnapError, Snapshot};
use amjs_workload::JobId;

fn cases(debug: u64, release: u64) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

const COMMANDS: usize = 192;
/// Both machines' size.
const NODES: u32 = 64;
/// Every delta point is decoded, re-encoded and hashed; every
/// `DRAIN_EVERY`th, and the last, is also drained against a twin.
const DRAIN_EVERY: usize = 8;

fn live<P: Platform + Snapshot>(platform: P, failures: bool, seed: u64) -> LiveScheduler<P> {
    let mut builder = SimulationBuilder::new(platform, Vec::new())
        .policy(PolicyParams::new(0.5, 2))
        .adaptive(AdaptiveScheme::two_d(30.0))
        .sample_interval(SimDuration::from_mins(10));
    if failures {
        builder = builder
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(60),
                repair: RepairSpec::Deterministic(SimDuration::from_mins(20)),
                seed,
            }))
            .retry_policy(RetryPolicy {
                max_attempts: Some(4),
                backoff_base: SimDuration::from_mins(5),
            });
    }
    LiveScheduler::from_builder(builder)
}

/// The next command of the case's script: mostly submissions, some
/// clock, the odd cancel.
fn apply<P: Platform + Snapshot>(sched: &mut LiveScheduler<P>, rng: &mut Xoshiro256) {
    match rng.next_below(10) {
        0..=5 => {
            let nodes = 1 + rng.next_below(NODES as u64 / 2) as u32;
            let wall = SimDuration::from_mins(rng.next_range_inclusive(5, 120));
            let run = SimDuration::from_secs(rng.next_range_inclusive(60, wall.as_secs()));
            let user = rng.next_below(5) as u32;
            sched.submit(nodes, wall, Some(run), user).unwrap();
        }
        6..=8 => {
            let dt = SimDuration::from_mins(rng.next_range_inclusive(1, 30));
            sched.advance_to(sched.now() + dt);
        }
        _ => {
            sched.cancel(JobId(rng.next_below(COMMANDS as u64)));
        }
    }
}

/// A scheduler that ran the first `commands` of the script and was
/// never encoded.
fn twin<P: Platform + Snapshot>(
    make: fn() -> P,
    failures: bool,
    seed: u64,
    commands: usize,
) -> LiveScheduler<P> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut sched = live(make(), failures, seed);
    for _ in 0..commands {
        apply(&mut sched, &mut rng);
    }
    sched
}

fn case<P: Platform + Snapshot>(make: fn() -> P, failures: bool, seed: u64, k: usize) {
    let label = format!("{} failures={failures} seed={seed:#x} k={k}", make().name());
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut sched = live(make(), failures, seed);
    let mut cursor = Columns::default();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for done in 1..=COMMANDS {
        apply(&mut sched, &mut rng);
        if !done.is_multiple_of(k) {
            continue;
        }
        let (head, frame, next) = sched.encode_since(&cursor);
        frames.push(frame);
        let so_far: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let (decoded, at) = LiveScheduler::<P>::decode_parts(&head, &so_far)
            .unwrap_or_else(|e| panic!("{label}: delta {done} does not decode: {e}"));
        assert_eq!(at, next, "{label}: cursor after delta {done}");
        assert_eq!(decoded.encode(), sched.encode(), "{label}: bytes at {done}");
        assert_eq!(
            decoded.state_hash(),
            sched.state_hash(),
            "{label}: hash at {done}"
        );
        // A head counts its own delta's frame, if the columns moved.
        if next != cursor {
            let short = LiveScheduler::<P>::decode_parts(&head, &so_far[..so_far.len() - 1]);
            assert!(
                matches!(short, Err(SnapError::Malformed(_))),
                "{label}: head {done} decoded without its own frame"
            );
        }
        let point = done / k;
        if point.is_multiple_of(DRAIN_EVERY) || done + k > COMMANDS {
            let reference = twin(make, failures, seed, done).drain_into_outcome();
            let drained = decoded.drain_into_outcome();
            assert_eq!(
                drained.summary.csv_row(),
                reference.summary.csv_row(),
                "{label}: drained summary at {done}"
            );
            assert_eq!(
                drained.per_job, reference.per_job,
                "{label}: jobs at {done}"
            );
        }
        cursor = next;
    }
    assert!(
        frames.len() >= 3,
        "{label}: a chain of at least three deltas"
    );
}

fn differential<P: Platform + Snapshot>(make: fn() -> P, master: u64, n: u64) {
    for i in 0..n {
        let seed = amjs_sim::rng::split_seed(master, i);
        for failures in [false, true] {
            for k in [1, 4, 64] {
                case(make, failures, seed, k);
            }
        }
    }
}

#[test]
fn deltas_are_the_full_encode_on_a_flat_machine() {
    differential(|| FlatCluster::new(NODES), 0xDE17A, cases(1, 40));
}

#[test]
fn deltas_are_the_full_encode_on_a_partitioned_machine() {
    differential(|| BgpCluster::new(8, NODES / 8), 0xB6DE_17A0, cases(1, 40));
}

/// A job's fair start leaves the live state at its first start. A fork
/// taken after that has an empty history, so when a failure *inside the
/// speculation* kills the job and it runs again, nothing there may
/// mistake the re-run for a first start and go looking for the fair
/// start: the generation says it is a re-run, in a fork as anywhere.
#[test]
fn a_fork_taken_after_a_first_start_survives_the_job_being_rerun_in_it() {
    let hours = SimDuration::from_hours;
    let builder = SimulationBuilder::new(FlatCluster::new(64), Vec::new())
        .policy(PolicyParams::new(0.5, 2))
        .failures(Some(FailureSpec {
            // A fault every six hours somewhere, one in eight of them
            // on the long job's nodes.
            node_mtbf: hours(6 * 64),
            repair: RepairSpec::Deterministic(SimDuration::from_mins(20)),
            seed: 11,
        }))
        .retry_policy(RetryPolicy {
            max_attempts: None,
            backoff_base: SimDuration::ZERO,
        });
    let mut sched = LiveScheduler::from_builder(builder);
    // The whole-machine job waits for the long one to finish, and is
    // held back while any node is down — so a killed long job is back
    // on the machine before the job behind it can start.
    let long = sched.submit(8, hours(40), Some(hours(40)), 1).unwrap();
    let behind = sched.submit(64, hours(1), None, 2).unwrap();
    sched.advance_to(sched.now() + SimDuration::from_secs(1));
    let JobStatus::Running { start, .. } = sched.status(long) else {
        panic!("the long job starts on the idle machine");
    };
    assert!(matches!(sched.status(behind), JobStatus::Queued { .. }));

    // The reference speculates on a decoded copy, which we can look at
    // afterwards: the long job was killed and started again in there.
    let horizon = hours(24 * 30);
    let mut copy = LiveScheduler::<FlatCluster>::decode(&sched.encode()).unwrap();
    let reference = copy.speculate_start(behind, None, None, horizon);
    assert!(matches!(reference, WhatIfAnswer::PredictedStart(_)));
    match copy.status(long) {
        JobStatus::Running { start: again, .. } | JobStatus::Finished { start: again, .. } => {
            assert!(again > start, "the speculation never re-ran the long job")
        }
        other => panic!("the long job is {other:?} at the end of the speculation"),
    }
    // The fork replays the same events from an empty history.
    let forked = sched.fork().speculate_start(behind, None, None, horizon);
    assert_eq!(forked, reference);
}
