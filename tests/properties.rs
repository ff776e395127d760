//! Randomized property tests across the whole stack: random workload
//! specs and policies must always yield complete, capacity-respecting,
//! deterministic simulations. Driven by a seeded in-repo PRNG so every
//! case is reproducible.

use amjs::prelude::*;
use amjs_sim::rng::Xoshiro256;

/// Debug builds run the short count (half of each release count);
/// release runs the long one. The short counts leave out
/// `node_seconds_conserved_under_failures`' twelfth case, which alone
/// runs ~30 s in release and minutes in debug.
fn cases(debug: u32, release: u32) -> u32 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// Small random workloads: handful of size classes, random load.
fn random_spec(rng: &mut Xoshiro256) -> (WorkloadSpec, u64) {
    let mut spec = WorkloadSpec::small_test();
    spec.span = SimDuration::from_hours(6);
    spec.mean_interarrival = SimDuration::from_secs(60 + rng.next_below(540) as i64);
    spec.walltime_median_mins = 10.0 + rng.next_f64() * 80.0;
    spec.walltime_sigma = 0.5 + rng.next_f64();
    (spec, rng.next_raw())
}

fn random_policy(rng: &mut Xoshiro256) -> PolicyParams {
    PolicyParams::new(
        rng.next_below(5) as f64 * 0.25,
        1 + rng.next_below(4) as usize,
    )
}

fn random_backfill(rng: &mut Xoshiro256) -> BackfillMode {
    match rng.next_below(3) {
        0 => BackfillMode::None,
        1 => BackfillMode::Easy,
        _ => BackfillMode::Conservative,
    }
}

/// Any (workload, policy, backfill) combination completes every job
/// with consistent per-job records and bounded utilization.
#[test]
fn simulations_always_complete() {
    let mut rng = Xoshiro256::seed_from_u64(0x51AC);
    let mut done = 0;
    while done < cases(12, 24) {
        let (spec, seed) = random_spec(&mut rng);
        let policy = random_policy(&mut rng);
        let backfill = random_backfill(&mut rng);
        let jobs = spec.generate(seed);
        if jobs.is_empty() {
            continue;
        }
        done += 1;
        let n = jobs.len();
        let out = SimulationBuilder::new(FlatCluster::new(512), jobs)
            .policy(policy)
            .backfill(backfill)
            .run();
        assert_eq!(out.summary.jobs_completed, n);
        for rec in &out.per_job {
            assert!(rec.start >= rec.submit);
            assert!(rec.end > rec.start);
        }
        assert!(out.summary.avg_utilization <= 1.0 + 1e-9);
        assert!(out.summary.loc_percent <= 100.0 + 1e-9);
    }
}

/// Capacity is never exceeded, reconstructed from per-job records.
#[test]
fn capacity_respected_under_random_policies() {
    let mut rng = Xoshiro256::seed_from_u64(0xCA9A);
    let mut done = 0;
    while done < cases(12, 24) {
        let (spec, seed) = random_spec(&mut rng);
        let policy = random_policy(&mut rng);
        let total = 320u32;
        let jobs = spec.generate(seed);
        if jobs.is_empty() {
            continue;
        }
        done += 1;
        let out = SimulationBuilder::new(FlatCluster::new(total), jobs)
            .policy(policy)
            .run();
        let mut events: Vec<(i64, i64)> = Vec::new();
        for rec in &out.per_job {
            events.push((rec.start.as_secs(), rec.nodes as i64));
            events.push((rec.end.as_secs(), -(rec.nodes as i64)));
        }
        events.sort();
        let mut busy = 0i64;
        for (_, delta) in events {
            busy += delta;
            assert!(busy <= total as i64);
        }
    }
}

/// Determinism holds for arbitrary seeds and policies.
#[test]
fn determinism_under_random_configs() {
    let mut rng = Xoshiro256::seed_from_u64(0xDE7E);
    let mut done = 0;
    while done < cases(12, 24) {
        let (spec, seed) = random_spec(&mut rng);
        let policy = random_policy(&mut rng);
        let jobs = spec.generate(seed);
        if jobs.is_empty() {
            continue;
        }
        done += 1;
        let run = || {
            SimulationBuilder::new(FlatCluster::new(256), jobs.clone())
                .policy(policy)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.per_job, b.per_job);
        assert_eq!(a.summary, b.summary);
    }
}

fn random_failures(rng: &mut Xoshiro256) -> amjs::core::failures::FailureSpec {
    use amjs::core::failures::{FailureSpec, RepairSpec};
    let repair_mins = 10 + rng.next_below(110) as i64;
    let repair = if rng.next_bool(0.5) {
        RepairSpec::Deterministic(SimDuration::from_mins(repair_mins))
    } else {
        RepairSpec::LogNormal {
            mean: SimDuration::from_mins(repair_mins),
            sigma: 0.3 + rng.next_f64(),
        }
    };
    FailureSpec {
        // Machine MTBF on 512 nodes: roughly 25–85 minutes — brutal,
        // so every case exercises kills, drains, and repairs.
        node_mtbf: SimDuration::from_hours(200 + rng.next_below(500) as i64),
        repair,
        seed: rng.next_raw(),
    }
}

/// Node-seconds are conserved under the failure lifecycle: the busy
/// integral (utilization × available node-time, from the summary) must
/// equal the node-time of completed attempts plus the progress
/// destroyed by kills. Nothing leaks when jobs drain, retry, or are
/// abandoned.
#[test]
fn node_seconds_conserved_under_failures() {
    use amjs::core::failures::RetryPolicy;
    let mut rng = Xoshiro256::seed_from_u64(0xC04E);
    let mut done = 0;
    while done < cases(6, 12) {
        let (spec, seed) = random_spec(&mut rng);
        let failures = random_failures(&mut rng);
        let retry = RetryPolicy {
            max_attempts: if rng.next_bool(0.5) {
                Some(1 + rng.next_below(4) as u32)
            } else {
                None
            },
            backoff_base: SimDuration::from_mins(rng.next_below(30) as i64),
        };
        let jobs = spec.generate(seed);
        if jobs.is_empty() {
            continue;
        }
        done += 1;
        let out = SimulationBuilder::new(FlatCluster::new(512), jobs)
            .policy(random_policy(&mut rng))
            .failures(Some(failures))
            .retry_policy(retry)
            .run();
        let completed_node_hours: f64 = out
            .per_job
            .iter()
            .map(|r| r.nodes as f64 * (r.end - r.start).as_secs() as f64 / 3600.0)
            .sum();
        let s = &out.summary;
        let available_node_secs =
            512.0 * s.makespan.as_secs() as f64 - s.node_downtime_hours * 3600.0;
        let delivered = s.avg_utilization * available_node_secs / 3600.0;
        let accounted = completed_node_hours + out.lost_node_hours;
        assert!(
            (delivered - accounted).abs() <= 1e-6 * delivered.max(1.0),
            "busy integral {delivered:.3} != completed {completed_node_hours:.3} \
             + lost {:.3}",
            out.lost_node_hours
        );
        // Every job is either completed or abandoned — none lost track of.
        assert_eq!(out.summary.jobs_completed, out.per_job.len());
    }
}

/// The full lifecycle (failures, drains, repairs, backoff retries,
/// abandonment) is a pure function of the configuration: two identical
/// runs produce byte-identical summary rows and identical series.
#[test]
fn lifecycle_determinism_is_byte_identical() {
    use amjs::core::failures::RetryPolicy;
    let mut rng = Xoshiro256::seed_from_u64(0xB17E);
    let mut done = 0;
    while done < cases(4, 8) {
        let (spec, seed) = random_spec(&mut rng);
        let failures = random_failures(&mut rng);
        let policy = random_policy(&mut rng);
        let retry = RetryPolicy {
            max_attempts: Some(1 + rng.next_below(5) as u32),
            backoff_base: SimDuration::from_mins(rng.next_below(20) as i64),
        };
        let jobs = spec.generate(seed);
        if jobs.is_empty() {
            continue;
        }
        done += 1;
        let run = || {
            SimulationBuilder::new(FlatCluster::new(384), jobs.clone())
                .policy(policy)
                .failures(Some(failures))
                .retry_policy(retry)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary.csv_row(), b.summary.csv_row());
        assert_eq!(a.per_job, b.per_job);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.queue_depth, b.queue_depth);
    }
}

fn random_correlation(rng: &mut Xoshiro256) -> amjs::core::failures::CorrelationSpec {
    use amjs::core::failures::{BurstModel, CorrelationSpec, DomainSpec};
    let burst = match rng.next_below(3) {
        0 => BurstModel::None,
        1 => BurstModel::Weibull {
            shape: 0.5 + rng.next_f64(),
        },
        _ => BurstModel::Markov {
            rate_boost: 2.0 + rng.next_f64() * 18.0,
            mean_calm: SimDuration::from_hours(4 + rng.next_below(200) as i64),
            mean_burst: SimDuration::from_hours(1 + rng.next_below(12) as i64),
        },
    };
    CorrelationSpec {
        cascade_prob: rng.next_f64() * 0.6,
        // Small domains relative to the 384-node test machine so
        // escalation actually spans multiple quanta.
        domains: DomainSpec {
            midplane_nodes: 32,
            midplanes_per_rack: 2,
            racks_per_power_domain: 3,
        },
        burst,
    }
}

/// Correlated cascades and bursty arrivals stay a pure function of the
/// failure seed: two identical runs are byte-identical, every job is
/// accounted for, and the whole run passes the invariant oracle.
#[test]
fn cascaded_lifecycle_is_byte_identical_and_complete() {
    use amjs::core::failures::RetryPolicy;
    let mut rng = Xoshiro256::seed_from_u64(0xCA5C);
    let mut done = 0;
    while done < cases(3, 6) {
        let (spec, seed) = random_spec(&mut rng);
        let failures = random_failures(&mut rng);
        let corr = random_correlation(&mut rng);
        let policy = random_policy(&mut rng);
        let retry = RetryPolicy {
            max_attempts: Some(1 + rng.next_below(5) as u32),
            backoff_base: SimDuration::from_mins(rng.next_below(20) as i64),
        };
        let jobs = spec.generate(seed);
        if jobs.is_empty() {
            continue;
        }
        done += 1;
        let run = || {
            SimulationBuilder::new(FlatCluster::new(384), jobs.clone())
                .policy(policy)
                .failures(Some(failures))
                .correlated_failures(Some(corr))
                .retry_policy(retry)
                .oracle(true)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary.csv_row(), b.summary.csv_row());
        assert_eq!(a.per_job, b.per_job);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.down_nodes, b.down_nodes);
        assert_eq!(
            a.domain_downtime.render_table(),
            b.domain_downtime.render_table()
        );
        // Every job is either completed or abandoned — none lost.
        assert_eq!(a.summary.jobs_completed, a.per_job.len());
    }
}

/// FCFS + no backfill yields non-decreasing start times in
/// submission order (strict seniority) — the defining property of
/// the ablation baseline.
#[test]
fn no_backfill_fcfs_is_seniority_ordered() {
    let mut rng = Xoshiro256::seed_from_u64(0x5E41);
    let mut done = 0;
    while done < cases(12, 24) {
        let (spec, seed) = random_spec(&mut rng);
        let jobs = spec.generate(seed);
        if jobs.len() <= 2 {
            continue;
        }
        done += 1;
        let out = SimulationBuilder::new(FlatCluster::new(256), jobs)
            .policy(PolicyParams::fcfs())
            .backfill(BackfillMode::None)
            .run();
        let mut recs = out.per_job.clone();
        recs.sort_by_key(|r| r.id);
        for pair in recs.windows(2) {
            // Submission order == id order for generated traces.
            assert!(
                pair[1].start >= pair[0].start,
                "{:?} started before its senior {:?}",
                pair[1],
                pair[0]
            );
        }
    }
}
