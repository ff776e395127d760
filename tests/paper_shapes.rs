//! Regression tests for the paper's qualitative findings — the shapes of
//! Table II and Figures 3–6 — on a scaled-down workload so the suite
//! stays fast. Absolute numbers are workload-dependent; these tests pin
//! the *orderings* the reproduction must preserve.

use amjs::core::adaptive::AdaptiveScheme;
use amjs::prelude::*;
use amjs::workload::synth::BurstSpec;

/// A 1/10th-scale Intrepid scenario: 8 midplanes, bursty, short-heavy —
/// the same regime as the full experiments but ~100x faster.
fn scenario(seed: u64) -> (BgpCluster, Vec<Job>) {
    let mut spec = WorkloadSpec::small_test();
    spec.span = SimDuration::from_hours(48);
    spec.mean_interarrival = SimDuration::from_secs(700);
    spec.walltime_sigma = 1.5;
    spec.walltime_median_mins = 45.0;
    spec.size_classes = vec![
        amjs::workload::synth::SizeClass {
            nodes: 512,
            weight: 30.0,
        },
        amjs::workload::synth::SizeClass {
            nodes: 1024,
            weight: 30.0,
        },
        amjs::workload::synth::SizeClass {
            nodes: 2048,
            weight: 25.0,
        },
        amjs::workload::synth::SizeClass {
            nodes: 4096,
            weight: 15.0,
        },
    ];
    spec.bursts = vec![BurstSpec {
        start: SimTime::from_hours(10),
        duration: SimDuration::from_hours(4),
        rate_multiplier: 15.0,
        walltime_scale: 0.4,
        size_cap: Some(1024),
    }];
    (BgpCluster::new(8, 512), spec.generate(seed))
}

fn run(policy: PolicyParams, adaptive: AdaptiveScheme, seed: u64) -> SimulationOutcome {
    let (machine, jobs) = scenario(seed);
    SimulationBuilder::new(machine, jobs)
        .policy(policy)
        .adaptive(adaptive)
        .easy_protected(Some(1))
        .backfill_depth(Some(16))
        .run()
}

/// Fig. 3(a) / Table II: moving the balance factor from FCFS toward SJF
/// must cut the average wait substantially on a congested machine.
#[test]
fn bf_toward_sjf_cuts_wait() {
    let fcfs = run(PolicyParams::fcfs(), AdaptiveScheme::none(), 42);
    let bf05 = run(PolicyParams::new(0.5, 1), AdaptiveScheme::none(), 42);
    assert!(
        bf05.summary.avg_wait_mins < 0.85 * fcfs.summary.avg_wait_mins,
        "BF=0.5 wait {:.1} must be well below FCFS {:.1}",
        bf05.summary.avg_wait_mins,
        fcfs.summary.avg_wait_mins
    );
}

/// Fig. 3(b): unfairness grows as the policy approaches SJF.
#[test]
fn unfairness_grows_toward_sjf() {
    let fcfs = run(PolicyParams::fcfs(), AdaptiveScheme::none(), 42);
    let sjf = run(PolicyParams::sjf(), AdaptiveScheme::none(), 42);
    assert!(
        sjf.summary.unfair_jobs > fcfs.summary.unfair_jobs,
        "SJF unfair {} must exceed FCFS {}",
        sjf.summary.unfair_jobs,
        fcfs.summary.unfair_jobs
    );
}

/// Fig. 3(c): enlarging the allocation window reduces loss of capacity
/// at FCFS-like balance factors.
#[test]
fn window_reduces_loss_of_capacity() {
    let w1 = run(PolicyParams::fcfs(), AdaptiveScheme::none(), 42);
    let w4 = run(PolicyParams::new(1.0, 4), AdaptiveScheme::none(), 42);
    assert!(
        w4.summary.loc_percent < w1.summary.loc_percent,
        "W=4 LoC {:.1} must be below W=1 LoC {:.1}",
        w4.summary.loc_percent,
        w1.summary.loc_percent
    );
}

/// Fig. 4: the adaptive balance factor keeps the burst's peak queue
/// depth well below FCFS's, and its unfair count below static BF=0.5's.
#[test]
fn adaptive_bf_tames_burst_and_limits_unfairness() {
    let fcfs = run(PolicyParams::fcfs(), AdaptiveScheme::none(), 42);
    let threshold = fcfs.queue_depth.mean_value().unwrap();
    let bf05 = run(PolicyParams::new(0.5, 1), AdaptiveScheme::none(), 42);
    let adaptive = run(
        PolicyParams::fcfs(),
        AdaptiveScheme::bf_adaptive(threshold),
        42,
    );
    let peak = |o: &SimulationOutcome| o.queue_depth.max_value().unwrap();
    assert!(
        peak(&adaptive) < peak(&fcfs),
        "adaptive peak {:.0} !< FCFS peak {:.0}",
        peak(&adaptive),
        peak(&fcfs)
    );
    assert!(
        adaptive.summary.unfair_jobs <= bf05.summary.unfair_jobs,
        "adaptive unfair {} must not exceed static BF=0.5 {}",
        adaptive.summary.unfair_jobs,
        bf05.summary.unfair_jobs
    );
    // The tuner really toggled.
    let bfs: Vec<f64> = adaptive
        .bf_series
        .points()
        .iter()
        .map(|&(_, v)| v)
        .collect();
    assert!(bfs.contains(&1.0) && bfs.contains(&0.5));
}

/// Table II's integrated claim: the 2D adaptive scheme improves the
/// average wait over the base policy while staying fairer than the most
/// aggressive static configuration.
#[test]
fn two_d_balances_wait_and_fairness() {
    let fcfs = run(PolicyParams::fcfs(), AdaptiveScheme::none(), 42);
    let threshold = fcfs.queue_depth.mean_value().unwrap();
    let aggressive = run(PolicyParams::new(0.5, 4), AdaptiveScheme::none(), 42);
    let twod = run(PolicyParams::fcfs(), AdaptiveScheme::two_d(threshold), 42);

    assert!(
        twod.summary.avg_wait_mins < fcfs.summary.avg_wait_mins,
        "2D wait {:.1} !< base {:.1}",
        twod.summary.avg_wait_mins,
        fcfs.summary.avg_wait_mins
    );
    assert!(
        twod.summary.unfair_jobs <= aggressive.summary.unfair_jobs,
        "2D unfair {} must not exceed BF=0.5/W=4's {}",
        twod.summary.unfair_jobs,
        aggressive.summary.unfair_jobs
    );
}

/// Table III's practicality claim, in spirit: a scheduling pass on a
/// deep queue stays far under Cobalt's 10-second cadence even at W=5.
#[test]
fn scheduling_pass_is_fast_enough_at_w5() {
    use amjs::core::scheduler::{PassScratch, QueuedJob, Scheduler};
    use amjs::platform::Platform;

    let (mut machine, jobs) = scenario(7);
    let now = SimTime::from_hours(12);
    let mut releases = Vec::new();
    for job in jobs.iter().take(40) {
        if let Some(id) = machine.allocate(job.nodes) {
            releases.push((id, now + job.walltime));
        }
    }
    let release_of =
        |id: amjs::platform::AllocationId| releases.iter().find(|&&(i, _)| i == id).unwrap().1;
    let plan = machine.plan(now, &release_of);
    let queue: Vec<QueuedJob> = jobs
        .iter()
        .take(120)
        .map(|j| QueuedJob {
            id: j.id,
            submit: j.submit,
            nodes: j.nodes,
            walltime: j.walltime,
        })
        .collect();

    let sched = Scheduler::new(PolicyParams::new(0.5, 5), BackfillMode::Easy);
    let begin = std::time::Instant::now();
    let mut scratch = PassScratch::default();
    let decision = sched.schedule_pass(now, &queue, &plan, &mut scratch);
    let elapsed = begin.elapsed();
    assert!(
        elapsed.as_secs_f64() < 1.0,
        "one W=5 pass took {elapsed:?} (must stay far below the 10 s cadence)"
    );
    // And it actually scheduled something sensible.
    assert!(decision.starts.len() + decision.reservations.len() > 0);
}
