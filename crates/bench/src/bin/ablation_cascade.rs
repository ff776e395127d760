//! Extension experiment: correlated failure domains — cascade
//! probability × scheduling policy.
//!
//! `ablation_failures` injects independent node failures;
//! `ablation_repair` sweeps the machine's serviceability. This
//! experiment turns on the *correlation* layer: each midplane fault
//! escalates into its rack, power domain, or the whole machine with
//! probability `cascade-prob` per level, and arrivals cluster under a
//! sub-exponential Weibull gap (shape 0.7, matching production failure
//! logs). The question: does adaptive metric-aware tuning still help
//! when capacity collapses in correlated chunks rather than leaking one
//! midplane at a time?
//!
//! Every run executes under the runtime invariant oracle, so a month of
//! cascading faults doubles as a soak test of the allocator and
//! scheduler invariants. The grid runs on `--jobs` worker threads;
//! `--jobs 1` keeps the old sequential order.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_cascade
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::failures::{BurstModel, CorrelationSpec, DomainSpec, FailureSpec, RetryPolicy};
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, RunSpec};
use amjs_sim::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut seed = harness::DEFAULT_SEED;
    let mut fast = false;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args[i + 1].parse().expect("--seed N");
                i += 2;
            }
            "--jobs" => {
                jobs = args[i + 1].parse().expect("--jobs N");
                i += 2;
            }
            "--fast" => {
                fast = true;
                i += 1;
            }
            other => panic!("unknown argument {other:?} (supported: --seed N, --fast, --jobs N)"),
        }
    }

    // Degraded machine (10-year node MTBF → one base fault per ~2.1 h at
    // Intrepid scale) so a month exercises the cascade machinery; the
    // 50-year production rate produces too few faults to compare
    // escalation levels.
    let failures = FailureSpec {
        node_mtbf: SimDuration::from_hours(10 * 365 * 24),
        repair: amjs_core::failures::RepairSpec::LogNormal {
            mean: SimDuration::from_hours(2),
            sigma: 0.6,
        },
        seed: seed ^ 0xCA5C,
    };
    let retry = RetryPolicy {
        max_attempts: Some(10),
        backoff_base: SimDuration::from_mins(5),
    };
    let cascade_probs = [0.0, 0.1, 0.3, 0.5];
    let configs: [(&str, &str, PolicyParams, AdaptiveKind); 2] = [
        (
            "bf0.5-w4",
            "BF=0.5/W=4",
            PolicyParams::new(0.5, 4),
            AdaptiveKind::None,
        ),
        (
            "2d",
            "2D Adapt.",
            PolicyParams::fcfs(),
            AdaptiveKind::TwoD { threshold: 1000.0 },
        ),
    ];
    let workload = &harness::experiment_workload(seed, fast);

    let specs: Vec<RunSpec> = cascade_probs
        .iter()
        .flat_map(|&p| {
            configs.iter().map(move |(stem, label, policy, adaptive)| {
                let mut s = RunSpec::new(
                    format!("p{p}-{stem}"),
                    MachineSpec::intrepid(),
                    workload.clone(),
                    *policy,
                )
                .labeled(format!("p={p}/{label}"));
                s.adaptive = *adaptive;
                s.failures = Some(failures);
                s.retry = retry;
                s.correlation = Some(CorrelationSpec {
                    cascade_prob: p,
                    domains: DomainSpec::intrepid(),
                    burst: BurstModel::Weibull { shape: 0.7 },
                });
                s.oracle = true;
                s
            })
        })
        .collect();
    let n_jobs = specs[0].jobs().len();
    eprintln!(
        "ablation_cascade: {} runs of {n_jobs} jobs, {jobs} workers",
        specs.len()
    );
    let digests = harness::run_sweep(&specs, jobs);

    let header = [
        "config",
        "wait(min)",
        "interrupts",
        "aband#",
        "worst fault",
        "down node-h",
        "min avail",
        "util",
    ];
    let rows: Vec<Vec<String>> = digests
        .iter()
        .map(|d| {
            vec![
                d.summary.label.clone(),
                table::num(d.summary.avg_wait_mins, 1),
                d.interrupted_jobs.to_string(),
                d.summary.abandoned_jobs.to_string(),
                d.worst_domain.clone(),
                table::num(d.summary.node_downtime_hours, 0),
                table::num(d.min_availability, 4),
                table::num(d.summary.avg_utilization, 3),
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "Extension — cascade probability \u{00d7} adaptive scheme (correlated failures)\n\
         ({n_jobs} jobs, seed {seed}, 10y node MTBF, log-normal 2h repairs \u{03c3}=0.6,\n\
          Weibull-0.7 bursts, Intrepid domains 512,2,8, oracle on,\n\
          retry: \u{2264}10 attempts, 5-min exponential backoff)\n\n",
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\nReading: escalation converts many small capacity leaks into a few\n\
         large collapses — down node-hours grow with cascade probability while\n\
         interruption counts stay in the same band, because one rack- or\n\
         power-domain fault kills at most a handful of resident jobs but takes\n\
         out 2-16 midplanes for the whole repair window. Adaptive 2D tuning\n\
         keeps its waiting-time edge at low cascade levels; under heavy\n\
         cascades both policies converge because the binding constraint is\n\
         surviving capacity, not queue ordering. Every cell ran with the\n\
         runtime invariant oracle checking allocator consistency, queue/run\n\
         partitioning, and EASY protection after every event.\n",
    );
    print!("{out}");
    results::write_result("ablation_cascade.txt", &out);
}
