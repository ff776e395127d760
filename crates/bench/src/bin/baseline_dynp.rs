//! Related-work baseline: the dynP self-tuning scheduler vs. the
//! paper's adaptive metric-aware tuning.
//!
//! §II of the paper distinguishes its approach from Streit's dynP,
//! which "switches policy between FCFS, SJF, and LJF based on the
//! number of jobs in the queue", arguing that fine-grained tuning of
//! BF/W on monitored metrics is superior to coarse whole-policy
//! switching. This experiment puts that claim to the test on the same
//! trace: dynP (two threshold settings) against the paper's BF-adaptive
//! and 2D-adaptive schemes.
//!
//! Usage: `cargo run -p amjs-bench --release --bin baseline_dynp [--seed N] [--fast]`

use amjs_bench::harness::{self, RunConfig};
use amjs_bench::{results, table};
use amjs_core::adaptive::AdaptiveScheme;

fn main() {
    let (seed, fast) = harness::parse_args();
    let jobs = harness::experiment_jobs(seed, fast);
    eprintln!("baseline_dynp: {} jobs", jobs.len());

    let base = harness::run_one(harness::intrepid(), jobs.clone(), &RunConfig::fixed(1.0, 1));
    let threshold = base.queue_depth.mean_value().unwrap_or(1000.0);

    let mut dynp_sensitive = RunConfig::bf_adaptive(threshold).named("dynP (10/80)");
    dynp_sensitive.adaptive = AdaptiveScheme::dynp(10, 80);
    let mut dynp_tolerant = RunConfig::bf_adaptive(threshold).named("dynP (30/150)");
    dynp_tolerant.adaptive = AdaptiveScheme::dynp(30, 150);

    let configs = [
        dynp_sensitive,
        dynp_tolerant,
        RunConfig::bf_adaptive(threshold),
        RunConfig::two_d_adaptive(threshold),
    ];
    let mut outcomes = vec![base];
    outcomes.extend(
        configs
            .iter()
            .map(|c| harness::run_one(harness::intrepid(), jobs.clone(), c)),
    );

    let header = ["scheme", "wait(min)", "unfair#", "LoC(%)", "peak QD(min)"];
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.summary.label.clone(),
                table::num(o.summary.avg_wait_mins, 1),
                o.summary.unfair_jobs.to_string(),
                table::num(o.summary.loc_percent, 1),
                table::num(o.queue_depth.max_value().unwrap_or(0.0), 0),
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "Baseline — dynP policy switching vs metric-aware adaptive tuning\n\
         ({} jobs, seed {seed}, threshold {threshold:.0} min)\n\n",
        jobs.len()
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\ndynP switches the whole queue ordering (FCFS -> SJF -> LJF) on queue\n\
         length; the paper's schemes tune BF/W continuously on monitored\n\
         metrics. The paper's §II claim is that fine-grained metric-aware\n\
         tuning balances wait and fairness better than coarse switching.\n",
    );
    print!("{out}");
    results::write_result("baseline_dynp.txt", &out);
}
