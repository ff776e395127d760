//! Ablation: sensitivity of BF tuning to the queue-depth threshold.
//!
//! The paper sets the threshold "based on the whole month's average" and
//! notes it could come from any recent period. This experiment sweeps
//! the threshold across multiples of the base run's average queue depth
//! to show how sensitive the adaptive scheme's balance (wait vs.
//! fairness) is to that operator-chosen constant — and to locate the
//! regime where tuning degenerates into static FCFS (threshold → ∞) or
//! static BF=0.5 (threshold → 0).
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_threshold [--seed N] [--fast]`

use amjs_bench::harness::{self, RunConfig};
use amjs_bench::{results, table};

fn main() {
    let (seed, fast) = harness::parse_args();
    let jobs = harness::experiment_jobs(seed, fast);
    eprintln!("ablation_threshold: {} jobs", jobs.len());

    let base = harness::run_one(harness::intrepid(), jobs.clone(), &RunConfig::fixed(1.0, 1));
    let avg_qd = base.queue_depth.mean_value().unwrap_or(1000.0);

    let multiples = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, f64::INFINITY];
    let configs: Vec<RunConfig> = multiples
        .iter()
        .map(|&m| {
            let th = if m.is_infinite() {
                f64::MAX
            } else {
                avg_qd * m
            };
            RunConfig::bf_adaptive(th).named(if m.is_infinite() {
                "th=inf (≈FCFS)".to_string()
            } else {
                format!("th={m}x avg")
            })
        })
        .collect();
    let outcomes: Vec<_> = configs
        .iter()
        .map(|c| harness::run_one(harness::intrepid(), jobs.clone(), c))
        .collect();

    let header = [
        "threshold",
        "wait(min)",
        "unfair#",
        "LoC(%)",
        "time at BF=0.5 (%)",
    ];
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            let at_low = o
                .bf_series
                .points()
                .iter()
                .filter(|&&(_, v)| v < 0.75)
                .count() as f64
                / o.bf_series.len().max(1) as f64
                * 100.0;
            vec![
                o.summary.label.clone(),
                table::num(o.summary.avg_wait_mins, 1),
                o.summary.unfair_jobs.to_string(),
                table::num(o.summary.loc_percent, 1),
                table::num(at_low, 0),
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "Ablation — BF-tuner threshold sensitivity ({} jobs, seed {seed}, avg QD {avg_qd:.0} min)\n\n",
        jobs.len()
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(&format!(
        "\nstatic endpoints for reference: BF=1 wait {:.1} / unfair {}, threshold 0 ≈ static BF=0.5\n",
        base.summary.avg_wait_mins, base.summary.unfair_jobs
    ));
    print!("{out}");
    results::write_result("ablation_threshold.txt", &out);
}
