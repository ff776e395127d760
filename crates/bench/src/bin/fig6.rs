//! Figure 6 — two-dimensional policy tuning.
//!
//! Runs the 2D adaptive scheme (BF tuned on queue depth *and* W tuned on
//! the utilization trend, each by its own rule) and compares:
//!
//! * **(a)** queue depth (log scale, as in the paper's figure) against
//!   static FCFS, static BF=0.5, and BF-only tuning — 2D should avoid
//!   the burst spike *and* do well when the queue is shallow (the paper
//!   highlights hours 150–200);
//! * **(b)** the 2D run's utilization lines — 10H/24H more stable than
//!   the static panels of Fig. 5.
//!
//! The three post-threshold runs go through the parallel sweep
//! runner; the base run stays sequential because the adaptive
//! threshold is computed from it. `--jobs 1` reproduces the
//! old sequential output byte-for-byte.
//!
//! Usage: `cargo run -p amjs-bench --release --bin fig6
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{chart, results};
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, RunSpec};
use amjs_sim::SimTime;

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);
    let spec = |key: &str, policy: PolicyParams| {
        RunSpec::new(key, MachineSpec::intrepid(), workload.clone(), policy)
    };
    let base = spec("bf1-w1", PolicyParams::new(1.0, 1));
    let jobs = base.jobs();
    eprintln!("fig6: {} jobs, {workers} workers", jobs.len());

    let base = base.execute();
    let threshold = base.queue_depth.mean_value().unwrap_or(1000.0);

    let adaptive = |key: &str, label: &str, kind: AdaptiveKind| {
        let mut s = spec(key, PolicyParams::fcfs()).labeled(label);
        s.adaptive = kind;
        s
    };
    let specs = vec![
        spec("bf0.5-w1", PolicyParams::new(0.5, 1)),
        adaptive("bf-adaptive", "BF adaptive", AdaptiveKind::Bf { threshold }),
        adaptive(
            "2d-adaptive",
            "2D adaptive",
            AdaptiveKind::TwoD { threshold },
        ),
    ];
    let rest = harness::run_outcomes(&specs, workers);
    let (bf05, bf_ad, twod) = (&rest[0], &rest[1], &rest[2]);

    let until = SimTime::from_hours(200);
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 6 — 2D policy tuning ({} jobs, seed {seed}, threshold {threshold:.0} min)\n\n",
        jobs.len()
    ));

    out.push_str("(a) queue depth, log scale, first 200 h\n");
    out.push_str(&chart::ascii_chart(
        &[
            ("BF=1 static", &base.queue_depth.truncated(until)),
            ("BF=0.5 static", &bf05.queue_depth.truncated(until)),
            ("BF adaptive", &bf_ad.queue_depth.truncated(until)),
            ("2D adaptive", &twod.queue_depth.truncated(until)),
        ],
        100,
        20,
        true,
    ));

    // The paper's claim: 2D outperforms the others between hours 150 and
    // 200 (shallow-queue regime) and avoids the burst spike.
    let window_mean = |s: &amjs_metrics::TimeSeries, lo: i64, hi: i64| -> f64 {
        let vals: Vec<f64> = s
            .points()
            .iter()
            .filter(|&&(t, _)| t >= SimTime::from_hours(lo) && t <= SimTime::from_hours(hi))
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    out.push_str("\nmean queue depth (minutes) by regime:\n");
    out.push_str(&format!(
        "  {:<16} {:>12} {:>12} {:>12}\n",
        "config", "burst 88-130h", "calm 150-200h", "full trace"
    ));
    for (name, o) in [
        ("BF=1 static", &base),
        ("BF=0.5 static", bf05),
        ("BF adaptive", bf_ad),
        ("2D adaptive", twod),
    ] {
        out.push_str(&format!(
            "  {:<16} {:>12.0} {:>12.0} {:>12.0}\n",
            name,
            window_mean(&o.queue_depth, 88, 130),
            window_mean(&o.queue_depth, 150, 200),
            o.queue_depth.mean_value().unwrap_or(0.0),
        ));
    }

    out.push_str("\n(b) 2D run: utilization lines, first 200 h\n");
    out.push_str(&chart::ascii_chart(
        &[
            ("instant", &twod.util_instant.truncated(until)),
            ("1H", &twod.util_1h.truncated(until)),
            ("10H", &twod.util_10h.truncated(until)),
            ("24H", &twod.util_24h.truncated(until)),
        ],
        100,
        16,
        false,
    ));
    // Stability comparison: stddev of the 10H line, static base vs 2D.
    let stddev = |s: &amjs_metrics::TimeSeries| -> f64 {
        let vals: Vec<f64> = s
            .truncated(until)
            .points()
            .iter()
            .map(|&(_, v)| v)
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len().max(1) as f64).sqrt()
    };
    out.push_str(&format!(
        "\n10H-line stddev (first 200 h): static {:.4} vs 2D {:.4} (paper: 2D more stable)\n",
        stddev(&base.util_10h),
        stddev(&twod.util_10h),
    ));
    out.push_str(&format!(
        "24H-line stddev (first 200 h): static {:.4} vs 2D {:.4}\n",
        stddev(&base.util_24h),
        stddev(&twod.util_24h),
    ));

    print!("{out}");
    results::write_result("fig6.txt", &out);

    let min_len = [&base, bf05, bf_ad, twod]
        .iter()
        .map(|o| o.queue_depth.len())
        .min()
        .unwrap();
    let mut cols: Vec<amjs_metrics::TimeSeries> = Vec::new();
    for (name, o) in [
        ("qd_bf1", &base),
        ("qd_bf05", bf05),
        ("qd_bf_adaptive", bf_ad),
        ("qd_2d", twod),
    ] {
        let mut t = amjs_metrics::TimeSeries::new(name);
        for &(st, v) in o.queue_depth.points().iter().take(min_len) {
            t.push(st, v);
        }
        cols.push(t);
    }
    for (name, s) in [
        ("util2d_10h", &twod.util_10h),
        ("util2d_24h", &twod.util_24h),
        ("bf_2d", &twod.bf_series),
        ("w_2d", &twod.window_series),
    ] {
        let mut t = amjs_metrics::TimeSeries::new(name);
        for &(st, v) in s.points().iter().take(min_len) {
            t.push(st, v);
        }
        cols.push(t);
    }
    let refs: Vec<&amjs_metrics::TimeSeries> = cols.iter().collect();
    let p = results::write_result("fig6.csv", &amjs_metrics::series::to_csv(&refs));
    eprintln!("fig6: wrote results/fig6.txt and {}", p.display());
}
