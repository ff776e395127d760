//! Figure 5 — monitoring of system utilization under window tuning.
//!
//! Two runs (BF fixed at 1):
//!
//! * **(a)** static W = 1 — the base setting;
//! * **(b)** adaptive W — toggled 1 ↔ 4 whenever the 10-hour trailing
//!   utilization average drops below the 24-hour one ("similar to the
//!   monitoring of a stock price", paper §IV-C.2).
//!
//! Each panel shows the instant utilization plus the 1H/10H/24H trailing
//! averages over the first 200 hours. The paper's observation: adaptive
//! window tuning lifts and stabilizes the 24H line during the stable
//! period (hours ~50–150).
//!
//! Both runs go through the parallel sweep runner; `--jobs 1`
//! reproduces the old sequential output byte-for-byte.
//!
//! Usage: `cargo run -p amjs-bench --release --bin fig5
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{chart, results};
use amjs_core::runner::SimulationOutcome;
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, RunSpec};
use amjs_sim::SimTime;

fn panel(out: &mut String, title: &str, o: &SimulationOutcome, until: SimTime) {
    let inst = o.util_instant.truncated(until);
    let h1 = o.util_1h.truncated(until);
    let h10 = o.util_10h.truncated(until);
    let h24 = o.util_24h.truncated(until);
    out.push_str(title);
    out.push('\n');
    out.push_str(&chart::ascii_chart(
        &[
            ("instant", &inst),
            ("1H", &h1),
            ("10H", &h10),
            ("24H", &h24),
        ],
        100,
        16,
        false,
    ));
    // The paper reads stability off the 24H line: quote its mean and
    // spread over the stable window (hours 50–150).
    let stable: Vec<f64> = o
        .util_24h
        .points()
        .iter()
        .filter(|&&(t, _)| t >= SimTime::from_hours(50) && t <= SimTime::from_hours(150))
        .map(|&(_, v)| v)
        .collect();
    if !stable.is_empty() {
        let mean = stable.iter().sum::<f64>() / stable.len() as f64;
        let var = stable.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / stable.len() as f64;
        out.push_str(&format!(
            "24H line over hours 50–150: mean {:.3}, stddev {:.4}\n\n",
            mean,
            var.sqrt()
        ));
    }
}

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);
    let mut adaptive_spec = RunSpec::new(
        "w-adaptive",
        MachineSpec::intrepid(),
        workload.clone(),
        PolicyParams::fcfs(),
    )
    .labeled("W adaptive");
    adaptive_spec.adaptive = AdaptiveKind::Window;
    let specs = vec![
        RunSpec::new(
            "bf1-w1",
            MachineSpec::intrepid(),
            workload,
            PolicyParams::new(1.0, 1),
        ),
        adaptive_spec,
    ];
    let n_jobs = specs[0].jobs().len();
    eprintln!("fig5: {n_jobs} jobs, {workers} workers");
    let outcomes = harness::run_outcomes(&specs, workers);
    let until = SimTime::from_hours(200);

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 5 — system utilization, first 200 h ({n_jobs} jobs, seed {seed})\n\n"
    ));
    panel(&mut out, "(a) static window, W=1", &outcomes[0], until);
    panel(
        &mut out,
        "(b) adaptive window tuning (W 1↔4 on 10H/24H crossover)",
        &outcomes[1],
        until,
    );
    out.push_str(&format!(
        "whole-run average utilization: static {:.3}, adaptive {:.3}\n",
        outcomes[0].summary.avg_utilization, outcomes[1].summary.avg_utilization
    ));
    out.push_str(&format!(
        "window size under tuning: min {:.0}, max {:.0} (toggles 1↔4)\n",
        outcomes[1]
            .window_series
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min),
        outcomes[1].window_series.max_value().unwrap_or(1.0),
    ));

    print!("{out}");
    results::write_result("fig5.txt", &out);

    // CSV: both runs' utilization series on the shared grid.
    let min_len = outcomes.iter().map(|o| o.util_instant.len()).min().unwrap();
    let mut cols: Vec<amjs_metrics::TimeSeries> = Vec::new();
    for (tag, o) in [("static", &outcomes[0]), ("adaptive", &outcomes[1])] {
        for (name, s) in [
            ("instant", &o.util_instant),
            ("1h", &o.util_1h),
            ("10h", &o.util_10h),
            ("24h", &o.util_24h),
        ] {
            let mut t = amjs_metrics::TimeSeries::new(format!("{tag}_{name}"));
            for &(st, v) in s.points().iter().take(min_len) {
                t.push(st, v);
            }
            cols.push(t);
        }
    }
    let refs: Vec<&amjs_metrics::TimeSeries> = cols.iter().collect();
    let p = results::write_result("fig5.csv", &amjs_metrics::series::to_csv(&refs));
    eprintln!("fig5: wrote results/fig5.txt and {}", p.display());
}
