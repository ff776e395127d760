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
//! Usage: `cargo run -p amjs-bench --release --bin ablation_threshold
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, RunSpec};

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);
    let spec = |key: &str| {
        RunSpec::new(
            key,
            MachineSpec::intrepid(),
            workload.clone(),
            PolicyParams::new(1.0, 1),
        )
    };
    let base = spec("bf1-w1");
    let n_jobs = base.jobs().len();
    eprintln!("ablation_threshold: {n_jobs} jobs");

    let base = base.execute();
    let avg_qd = base.queue_depth.mean_value().unwrap_or(1000.0);

    let multiples = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, f64::INFINITY];
    let specs: Vec<RunSpec> = multiples
        .iter()
        .map(|&m| {
            let (threshold, label) = if m.is_infinite() {
                (f64::MAX, "th=inf (≈FCFS)".to_string())
            } else {
                (avg_qd * m, format!("th={m}x avg"))
            };
            let mut s = spec(&label).labeled(label);
            s.adaptive = AdaptiveKind::Bf { threshold };
            s
        })
        .collect();
    let outcomes = harness::run_outcomes(&specs, workers);

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
        "Ablation — BF-tuner threshold sensitivity ({n_jobs} jobs, seed {seed}, avg QD {avg_qd:.0} min)\n\n"
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(&format!(
        "\nstatic endpoints for reference: BF=1 wait {:.1} / unfair {}, threshold 0 ≈ static BF=0.5\n",
        base.summary.avg_wait_mins, base.summary.unfair_jobs
    ));
    print!("{out}");
    results::write_result("ablation_threshold.txt", &out);
}
