//! Differential byte-identity suite for the incremental hot path.
//!
//! The dirty-score cache, the pass memo and drain resume are
//! *performance* structures: they must be behaviorally invisible.
//! Every test here runs the same configuration
//! twice — once on the optimized path and once with
//! [`SimulationBuilder::reference_hotpath`] rescoring, resorting and
//! draining from scratch at every pass and submission (the plans have one
//! query path, held to a naive plan by the platform crate's
//! `hotpath_equivalence`) — and requires the complete outcome to match:
//! the summary CSV row, every per-job record, and the scheduler's cost
//! counters. The debug-build invariant oracle rides along on both runs,
//! so a cache that let the scheduler act on stale state would also trip
//! a replayable invariant panic.

use amjs_core::failures::{FailureSpec, RepairSpec};
use amjs_core::runner::{SimulationBuilder, SimulationOutcome};
use amjs_core::{AdaptiveScheme, BackfillMode, PolicyParams};
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_sim::SimDuration;
use amjs_workload::{Job, WorkloadSpec};

/// How many of a test's seeds run: the first `debug` in debug builds
/// (the workspace's default test run), all `release` of them in release.
fn cases(debug: usize, release: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn jobs(seed: u64) -> Vec<Job> {
    WorkloadSpec::small_test().generate(seed)
}

/// Run `configure`'s build twice — optimized and reference — and
/// require identical outcomes.
fn assert_hotpath_identity<P, F>(label: &str, configure: F)
where
    P: Platform + amjs_sim::Snapshot,
    F: Fn() -> SimulationBuilder<P>,
{
    let optimized = configure().oracle(true).run();
    let reference = configure().oracle(true).reference_hotpath(true).run();
    assert_outcomes_match(label, &optimized, &reference);
}

fn assert_outcomes_match(label: &str, a: &SimulationOutcome, b: &SimulationOutcome) {
    assert_eq!(
        a.summary.csv_row(),
        b.summary.csv_row(),
        "{label}: summary CSV row diverged"
    );
    assert_eq!(a.per_job, b.per_job, "{label}: per-job records diverged");
    assert_eq!(
        a.scheduler_passes, b.scheduler_passes,
        "{label}: pass count diverged"
    );
    assert_eq!(
        a.backfilled_starts, b.backfilled_starts,
        "{label}: backfill accounting diverged"
    );
    assert_eq!(
        a.interrupted_jobs, b.interrupted_jobs,
        "{label}: failure accounting diverged"
    );
    assert!(a.summary.jobs_completed > 0, "{label}: degenerate run");
}

#[test]
fn flat_fcfs_identity_across_seeds() {
    for seed in [1u64, 7, 42].into_iter().take(cases(1, 3)) {
        assert_hotpath_identity(&format!("flat/fcfs/seed{seed}"), || {
            SimulationBuilder::new(FlatCluster::new(1024), jobs(seed))
                .policy(PolicyParams::new(1.0, 1))
        });
    }
}

#[test]
fn flat_balanced_windowed_identity_across_seeds() {
    for seed in [2u64, 11, 42].into_iter().take(cases(1, 3)) {
        assert_hotpath_identity(&format!("flat/balanced/seed{seed}"), || {
            SimulationBuilder::new(FlatCluster::new(1024), jobs(seed))
                .policy(PolicyParams::new(0.5, 2))
                .backfill_depth(Some(16))
        });
    }
}

#[test]
fn bgp_identity_across_seeds() {
    for seed in [3u64, 42].into_iter().take(cases(1, 2)) {
        assert_hotpath_identity(&format!("bgp/balanced/seed{seed}"), || {
            SimulationBuilder::new(BgpCluster::new(16, 64), jobs(seed))
                .policy(PolicyParams::new(0.5, 2))
                .backfill_depth(Some(16))
        });
    }
}

#[test]
fn adaptive_policy_identity() {
    assert_hotpath_identity("flat/adaptive", || {
        SimulationBuilder::new(FlatCluster::new(1024), jobs(5))
            .policy(PolicyParams::new(0.5, 2))
            .adaptive(AdaptiveScheme::bf_adaptive(200.0))
    });
}

#[test]
fn no_backfill_identity() {
    assert_hotpath_identity("flat/fcfs-strict", || {
        SimulationBuilder::new(FlatCluster::new(1024), jobs(6))
            .policy(PolicyParams::new(1.0, 1))
            .backfill(BackfillMode::None)
    });
}

/// Failure injection exercises the cache-invalidation edges: mark_down
/// cascades shrink the machine mid-run, kill running jobs, and force
/// resubmits — all of which must dirty the cached scores and the
/// memoized availability profiles on both platform shapes.
#[test]
fn failure_injection_identity_flat() {
    for seed in [21u64, 99].into_iter().take(cases(1, 2)) {
        assert_hotpath_identity(&format!("flat/failures/seed{seed}"), || {
            SimulationBuilder::new(FlatCluster::new(640), jobs(20))
                .policy(PolicyParams::new(0.5, 2))
                .failures(Some(FailureSpec {
                    node_mtbf: SimDuration::from_hours(120),
                    repair: RepairSpec::Deterministic(SimDuration::from_hours(4)),
                    seed,
                }))
        });
    }
}

/// Regression: a correlated mark_down *cascade* (midplane → rack →
/// power domain) yanks whole swaths of the machine mid-run. Before the
/// runner dirtied the score cache and the memoized availability
/// profiles on failure events, a stale cache could keep scheduling onto
/// capacity that no longer exists — the invariant oracle would trip and
/// the reference run would diverge. The test requires the machine to
/// *visibly* degrade (so the cascade really fired) and the outcome to
/// stay byte-identical with the oracle silent on both paths.
#[test]
fn mark_down_cascade_dirties_caches() {
    use amjs_core::failures::CorrelationSpec;
    let build = || {
        SimulationBuilder::new(BgpCluster::new(16, 64), jobs(31))
            .policy(PolicyParams::new(0.5, 2))
            .backfill_depth(Some(16))
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(2_000),
                repair: RepairSpec::Deterministic(SimDuration::from_hours(1)),
                seed: 4,
            }))
            .correlated_failures(Some(CorrelationSpec {
                cascade_prob: 0.5,
                ..CorrelationSpec::default()
            }))
    };
    let optimized = build().oracle(true).run();
    assert!(
        optimized.down_nodes.points().iter().any(|&(_, v)| v > 0.0),
        "cascade never degraded the machine — the regression is untested"
    );
    let reference = build().oracle(true).reference_hotpath(true).run();
    assert_outcomes_match("bgp/cascade", &optimized, &reference);
}

#[test]
fn failure_injection_identity_bgp() {
    assert_hotpath_identity("bgp/failures", || {
        SimulationBuilder::new(BgpCluster::new(16, 64), jobs(23))
            .policy(PolicyParams::new(0.5, 2))
            .failures(Some(FailureSpec {
                node_mtbf: SimDuration::from_hours(120),
                repair: RepairSpec::Deterministic(SimDuration::from_hours(2)),
                seed: 17,
            }))
    });
}

// ---------------------------------------------------------------------
// Plan reuse across events (ISSUE 15): the resumed fair-start drain, the
// pass memo and the same-instant resolve are all keyed on "the machine
// has not changed". A scripted live session walks the edges of that key
// on the optimized and the reference path side by side; the complete
// encoded state (fair starts included) must match after every step. In
// debug builds each resumed drain and memoized pass is additionally
// checked against a from-scratch one inside the runner.
// ---------------------------------------------------------------------

use amjs_core::estimates::EstimatePolicy;
use amjs_core::{LiveScheduler, PassCacheStats};
use amjs_sim::SimTime;
use amjs_workload::JobId;

type Live<P> = LiveScheduler<P>;

/// Advance to `t`, admit `jobs` (`(nodes, walltime s, runtime s, user)`)
/// all at that instant, and handle their `Submit` events.
fn submit_at<P: Platform + amjs_sim::Snapshot>(
    live: &mut Live<P>,
    t: i64,
    jobs: &[(u32, i64, i64, u32)],
) -> Vec<JobId> {
    live.advance_to(SimTime::from_secs(t));
    let secs = SimDuration::from_secs;
    let ids = jobs
        .iter()
        .map(|&(n, wall, run, user)| live.submit(n, secs(wall), Some(secs(run)), user).unwrap())
        .collect();
    live.advance_to(SimTime::from_secs(t));
    ids
}

/// First half: fill the machine, then grow a queue behind it while
/// nothing starts or ends (one epoch), with cancels in between.
fn reuse_script_open<P: Platform + amjs_sim::Snapshot>(live: &mut Live<P>, unit: u32) -> JobId {
    // User 7 overestimates five-fold: under adaptive estimates its
    // planning walltimes shrink as these finish.
    submit_at(live, 0, &[(unit / 2, 100, 20, 7), (unit / 2, 100, 20, 7)]);
    let fill = submit_at(
        live,
        50,
        &[
            (unit, 4000, 3000, 1),
            (unit, 4000, 3500, 2),
            (unit, 4000, 4000, 3),
            (unit, 2000, 1900, 7),
        ],
    );
    // Two submits at one instant, then a full-machine job.
    let pair = submit_at(
        live,
        100,
        &[(2 * unit, 1800, 900, 4), (unit / 2, 600, 300, 5)],
    );
    submit_at(live, 200, &[(4 * unit, 1200, 600, 6)]);
    submit_at(live, 300, &[(unit, 300, 100, 7)]);
    // Cancel a queued job (it leaves the sorted queue) and try a running
    // one (refused, nothing changes) between same-epoch submits.
    assert!(live.cancel(pair[1]) || live.cancel(pair[0]));
    assert!(!live.cancel(fill[0]));
    submit_at(live, 400, &[(unit, 900, 800, 4), (3 * unit, 700, 650, 5)]);
    for step in 0..8 {
        let nodes = [unit / 2, unit, 2 * unit, unit][step % 4];
        let wall = [500, 2500, 800, 1500, 300][step % 5];
        submit_at(
            live,
            450 + 50 * step as i64,
            &[(nodes, wall, wall - 40, step as u32)],
        );
    }
    fill[3]
}

/// Second half: a submit at the exact `expected_end` of a running job
/// (overdue under adaptive estimates: its release is the moving
/// `now + 1 s`), then more arrivals while the first jobs finish.
fn reuse_script_close<P: Platform + amjs_sim::Snapshot>(
    live: &mut Live<P>,
    unit: u32,
    watched: JobId,
) {
    if let amjs_core::JobStatus::Running { expected_end, .. } = live.status(watched) {
        let t = expected_end.as_secs().max(live.now().as_secs());
        submit_at(live, t, &[(unit, 400, 350, 2)]);
        submit_at(live, t + 1, &[(unit / 2, 400, 350, 3)]);
    }
    for step in 0..10i64 {
        let t = live.now().as_secs().max(1900) + 150 * (step + 1);
        let last = submit_at(live, t, &[(unit, 600, 500, 7), (2 * unit, 900, 700, 1)]);
        if step % 3 == 0 {
            live.cancel(last[1]);
        }
    }
}

/// Run the script on both paths in lockstep; returns the optimized
/// run's reuse counters.
fn assert_reuse_identity<P, F>(label: &str, unit: u32, configure: F) -> PassCacheStats
where
    P: Platform + amjs_sim::Snapshot,
    F: Fn() -> SimulationBuilder<P>,
{
    let mut opt = Live::from_builder(configure().oracle(true));
    let mut naive = Live::from_builder(configure().oracle(true).reference_hotpath(true));
    let (w1, w2) = (
        reuse_script_open(&mut opt, unit),
        reuse_script_open(&mut naive, unit),
    );
    assert_eq!(w1, w2);
    assert_eq!(opt.encode(), naive.encode(), "{label}: diverged mid-script");

    // A decoded fork (WHATIF, --resume) starts with cold drain/memo
    // state and must evolve exactly like the warm original.
    let mut fork = Live::<P>::decode(&opt.encode()).unwrap();
    for live in [&mut opt, &mut naive, &mut fork] {
        reuse_script_close(live, unit, w1);
    }
    assert_eq!(opt.encode(), naive.encode(), "{label}: diverged at the end");
    assert_eq!(opt.encode(), fork.encode(), "{label}: cold fork diverged");

    let (opt, naive) = (opt.drain_into_outcome(), naive.drain_into_outcome());
    assert_outcomes_match(label, &opt, &naive);
    assert_eq!(
        (naive.hotpath.drains_resumed, naive.hotpath.passes_memoized),
        (0, 0),
        "{label}: the reference path must not reuse plans"
    );
    opt.hotpath
}

#[test]
fn plan_reuse_identity_flat_easy() {
    // A pass that looks at four jobs: later arrivals that sort behind
    // them leave its memo key alone.
    let stats = assert_reuse_identity("reuse/flat", 16, || {
        SimulationBuilder::new(FlatCluster::new(64), Vec::new())
            .policy(PolicyParams::new(0.5, 2))
            .pass_bounds(4, 2, 720)
            .backfill_depth(Some(4))
    });
    assert!(
        stats.drains_resumed > 0 && stats.drain_placements_reused > 0,
        "script never resumed a drain: {stats:?}"
    );
    assert!(stats.passes_memoized > 0, "script never memoized a pass");
    assert!(
        stats.hits > 0,
        "no pass reused the submit handler's resolve"
    );
}

#[test]
fn plan_reuse_identity_bgp_bounded_backfill() {
    let stats = assert_reuse_identity("reuse/bgp", 128, || {
        SimulationBuilder::new(BgpCluster::new(8, 64), Vec::new())
            .policy(PolicyParams::new(0.5, 2))
            .pass_bounds(4, 2, 720)
            .easy_protected(Some(1))
            .backfill_depth(Some(4))
    });
    assert!(
        stats.drains_resumed > 0 && stats.passes_memoized > 0,
        "{stats:?}"
    );
}

/// Conservative backfill with unbounded depth: every reservation is
/// protected and the memo head is the whole queue.
#[test]
fn plan_reuse_identity_conservative() {
    let stats = assert_reuse_identity("reuse/conservative", 16, || {
        SimulationBuilder::new(FlatCluster::new(64), Vec::new())
            .policy(PolicyParams::new(0.5, 2))
            .backfill(BackfillMode::Conservative)
            .backfill_depth(None)
    });
    assert!(stats.drains_resumed > 0, "{stats:?}");
}

/// Adaptive estimates: planning walltimes move on every completion (an
/// epoch bump) and running jobs outlive their planned end.
#[test]
fn plan_reuse_identity_adaptive_estimates() {
    let stats = assert_reuse_identity("reuse/estimates", 16, || {
        SimulationBuilder::new(FlatCluster::new(64), Vec::new())
            .policy(PolicyParams::new(0.5, 2))
            .estimate_policy(EstimatePolicy::user_adaptive())
    });
    assert!(stats.drains_resumed > 0, "{stats:?}");
}

/// Strict in-order starts: the drain still backfills small jobs into
/// gaps *now* that the scheduler then leaves waiting, so a kept drain
/// holds placements that start before the next submission's instant.
#[test]
fn plan_reuse_identity_no_backfill() {
    let stats = assert_reuse_identity("reuse/strict", 16, || {
        SimulationBuilder::new(FlatCluster::new(72), Vec::new())
            .policy(PolicyParams::new(0.5, 2))
            .backfill(BackfillMode::None)
    });
    assert!(stats.drains_fresh > 0, "{stats:?}");
}

// ---------------------------------------------------------------------
// Window search (ISSUE 16): the depth-first walk with floor bounds runs
// on both paths, so these runs pit it on the memoized plans against the
// same walk on the naive plan queries — at the window sizes where it
// prunes and shares prefixes (the W=2 runs above never do either).
// ---------------------------------------------------------------------

/// A day of the Intrepid preset, loaded enough that windows fill up.
fn intrepid_day(seed: u64) -> Vec<Job> {
    let spec = WorkloadSpec {
        span: SimDuration::from_hours(24),
        ..WorkloadSpec::intrepid_month().with_load_factor(1.5)
    };
    spec.generate(seed)
}

#[test]
fn window4_identity_flat() {
    for seed in [4u64, 42].into_iter().take(cases(1, 2)) {
        assert_hotpath_identity(&format!("flat/w4/seed{seed}"), || {
            SimulationBuilder::new(FlatCluster::new(1024), jobs(seed))
                .policy(PolicyParams::new(0.5, 4))
        });
    }
}

#[test]
fn window5_identity_intrepid() {
    let build = || {
        SimulationBuilder::new(BgpCluster::intrepid(), intrepid_day(5))
            .policy(PolicyParams::new(0.5, 5))
    };
    assert_hotpath_identity("intrepid/w5", build);
    let stats = build().run().hotpath;
    assert!(
        stats.window_searches > 0 && stats.window_bound_exits < stats.window_searches,
        "no search went past its root: {stats:?}"
    );
}

/// Algorithm 1's W-tuner moves the run into the W=4 regime and back.
#[test]
fn adaptive_window_identity_crosses_w4() {
    let build = || {
        let spec = WorkloadSpec {
            span: SimDuration::from_hours(72),
            ..WorkloadSpec::small_test()
        };
        SimulationBuilder::new(FlatCluster::new(1024), spec.generate(8))
            .policy(PolicyParams::new(0.5, 1))
            .adaptive(AdaptiveScheme::window_adaptive())
    };
    assert_hotpath_identity("flat/adaptive-w", build);
    let mut windows: Vec<f64> = (build().run().window_series.points().iter())
        .map(|&(_, w)| w)
        .collect();
    windows.dedup();
    assert!(
        windows.starts_with(&[1.0, 4.0, 1.0]),
        "W never crossed 1 -> 4 -> 1: {windows:?}"
    );
}

/// FNV-1a over the JSONL a run would write, line by line: a month of
/// trace is too much to keep.
struct HashSink {
    records: u64,
    hash: u64,
}

impl amjs_obs::TraceSink for HashSink {
    fn record(&mut self, rec: &amjs_obs::TraceRecord) {
        self.records += 1;
        for b in rec.to_json_line().bytes().chain([b'\n']) {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The whole decision trace of a W=4 month — every `WindowChoice` with
/// its `searched` count and each loser — hashes to what the flat
/// enumeration of the commit before ISSUE 16 wrote.
#[test]
fn traced_month_matches_the_flat_enumeration() {
    use std::{cell::RefCell, rc::Rc};

    let jobs = WorkloadSpec::intrepid_month()
        .with_load_factor(1.5)
        .generate(42);
    let sink = Rc::new(RefCell::new(HashSink {
        records: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    }));
    let obs = amjs_obs::Observer::disabled().with_sink(sink.clone());
    let (out, _obs) = SimulationBuilder::new(FlatCluster::new(40_960), jobs)
        .policy(PolicyParams::new(0.5, 4))
        .run_observed(obs);
    assert!(out.hotpath.window_searches > 1_000, "{:?}", out.hotpath);
    let sink = sink.borrow();
    assert_eq!(
        (sink.records, sink.hash),
        (914_981, 0x0fb4_69e8_757b_9425),
        "trace diverged from the parent commit's"
    );
}
