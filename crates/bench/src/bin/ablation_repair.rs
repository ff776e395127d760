//! Extension experiment: the node lifecycle — repair time × failure
//! rate. `ablation_failures` asks which *policies* lose the least work
//! to failures; this experiment asks what the *machine's* serviceability
//! parameters cost, holding the policy fixed at the paper's balanced
//! configuration (BF=0.5/W=4, EASY).
//!
//! Failures follow a Poisson process over the machine; each failure
//! takes its quantum out of service until a repair completes, and kills
//! the resident job, which retries under an exponential-backoff policy
//! with an attempt cap. Sweeping mean repair time against node MTBF
//! separates two regimes: when repairs are fast the cost of a failure is
//! the lost in-flight work (MTBF-bound); when repairs are slow the cost
//! shifts to standing capacity loss — availability sags and waiting
//! times inflate even though no extra work is destroyed.
//!
//! The grid runs on `--jobs` worker threads, digests in spec order. `--jobs 1`
//! reproduces the old sequential output byte-for-byte.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_repair
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::failures::{FailureSpec, RepairSpec, RetryPolicy};
use amjs_core::{MachineSpec, PolicyParams, RunSpec};
use amjs_sim::SimDuration;

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());

    // Node MTBFs: the production-flavored 50 years, and a degraded
    // machine at 10 years (~1 machine failure / 2.1 h at Intrepid
    // scale). Repair means: quick service action vs. full-day part
    // replacement.
    let mtbf_years: [i64; 2] = [50, 10];
    let repair_hours: [i64; 3] = [1, 4, 24];
    let retry = RetryPolicy {
        max_attempts: Some(10),
        backoff_base: SimDuration::from_mins(5),
    };
    let workload = &harness::experiment_workload(seed, fast);

    let specs: Vec<RunSpec> = mtbf_years
        .iter()
        .flat_map(|&years| {
            repair_hours.iter().map(move |&hours| {
                let mut s = RunSpec::new(
                    format!("mtbf{years}y-fix{hours}h"),
                    MachineSpec::intrepid(),
                    workload.clone(),
                    PolicyParams::new(0.5, 4),
                )
                .labeled(format!("mtbf{years}y/fix{hours}h"));
                s.failures = Some(FailureSpec {
                    node_mtbf: SimDuration::from_hours(years * 365 * 24),
                    repair: RepairSpec::LogNormal {
                        mean: SimDuration::from_hours(hours),
                        sigma: 0.6,
                    },
                    seed: seed ^ 0x4E9A,
                });
                s.retry = retry;
                s
            })
        })
        .collect();
    let n_jobs = specs[0].jobs().len();
    eprintln!(
        "ablation_repair: {} runs of {n_jobs} jobs, {workers} workers",
        specs.len()
    );
    let digests = harness::run_sweep(&specs, workers);

    let header = [
        "config",
        "wait(min)",
        "interrupts",
        "aband#",
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
                table::num(d.summary.node_downtime_hours, 0),
                table::num(d.min_availability, 4),
                table::num(d.summary.avg_utilization, 3),
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "Extension — repair time \u{00d7} failure rate (node lifecycle)\n\
         ({n_jobs} jobs, seed {seed}, BF=0.5/W=4, log-normal repairs \u{03c3}=0.6,\n\
          retry: \u{2264}10 attempts, 5-min exponential backoff)\n\n",
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\nReading: at a fixed failure rate, longer repairs convert failure cost\n\
         from lost in-flight work into standing capacity loss — down node-hours\n\
         scale with the repair mean while interruption counts barely move.\n\
         Utilization here is measured against *available* capacity, so a sagging\n\
         'min avail' with steady util means the scheduler is keeping what is\n\
         left of the machine busy. The blow-up in the worst cell is starvation,\n\
         not livelock: a full-machine job can only start when *every* midplane\n\
         is simultaneously up, which at high failure rates and day-long repairs\n\
         almost never happens — the motivation for fault-aware scheduling\n\
         (the authors' ref. 21) and for draining policies that spare big jobs.\n",
    );
    print!("{out}");
    results::write_result("ablation_repair.txt", &out);
}
