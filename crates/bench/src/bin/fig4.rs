//! Figure 4 — adaptively tuning the balance factor.
//!
//! Plots queue depth (aggregate waiting minutes of queued jobs, sampled
//! every 30 minutes) over the first 200 hours for four runs, all W=1:
//!
//! * static BF = 1 (FCFS) — deepest queue, worst at the hour-~100 burst;
//! * static BF = 0.75;
//! * static BF = 0.5;
//! * **adaptive**: BF tuned 1 ↔ 0.5 on the queue-depth threshold (the
//!   whole-month average of the base run, per the paper).
//!
//! Output: 4(a) linear-scale ASCII chart, 4(b) log-scale chart (the
//! paper's device for seeing the shallow-queue regime where FCFS is
//! fine), the peak-depth ratios the paper quotes (BF=0.75 peak ≈ 1/4 of
//! FCFS, BF=0.5 ≈ 1/8), and a CSV of all series.
//!
//! The three post-threshold runs go through the parallel sweep
//! runner; the base run stays sequential because the adaptive
//! threshold is computed from it. `--jobs 1` reproduces the
//! old sequential output byte-for-byte.
//!
//! Usage: `cargo run -p amjs-bench --release --bin fig4
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{chart, results};
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, RunSpec};
use amjs_sim::SimTime;

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);
    let fixed = |key: &str, bf: f64| {
        RunSpec::new(
            key,
            MachineSpec::intrepid(),
            workload.clone(),
            PolicyParams::new(bf, 1),
        )
    };
    let base = fixed("bf1-w1", 1.0);
    let jobs = base.jobs();
    eprintln!("fig4: {} jobs, {workers} workers", jobs.len());

    // Threshold from the base run's whole-trace average (paper §IV-C.1).
    let base = base.execute();
    let threshold = base.queue_depth.mean_value().unwrap_or(1000.0);

    let mut adaptive_spec = RunSpec::new(
        "adaptive",
        MachineSpec::intrepid(),
        workload.clone(),
        PolicyParams::fcfs(),
    )
    .labeled("adaptive");
    adaptive_spec.adaptive = AdaptiveKind::Bf { threshold };
    let specs = vec![
        fixed("bf0.75-w1", 0.75),
        fixed("bf0.5-w1", 0.5),
        adaptive_spec,
    ];
    let rest = harness::run_outcomes(&specs, workers);
    let (bf075, bf05, adaptive) = (&rest[0], &rest[1], &rest[2]);

    let until = SimTime::from_hours(200);
    let s_base = base.queue_depth.truncated(until);
    let s_075 = bf075.queue_depth.truncated(until);
    let s_05 = bf05.queue_depth.truncated(until);
    let s_ad = adaptive.queue_depth.truncated(until);

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 4 — adaptive BF tuning; queue depth over the first 200 h\n\
         ({} jobs, seed {seed}, threshold {threshold:.0} min)\n\n",
        jobs.len()
    ));
    out.push_str("(a) queue depth, linear scale\n");
    out.push_str(&chart::ascii_chart(
        &[
            ("BF=1", &s_base),
            ("BF=0.75", &s_075),
            ("BF=0.5", &s_05),
            ("adaptive", &s_ad),
        ],
        100,
        20,
        false,
    ));
    out.push_str("\n(b) queue depth, log scale\n");
    out.push_str(&chart::ascii_chart(
        &[
            ("BF=1", &s_base),
            ("BF=0.75", &s_075),
            ("BF=0.5", &s_05),
            ("adaptive", &s_ad),
        ],
        100,
        20,
        true,
    ));

    let peak = |s: &amjs_metrics::TimeSeries| s.max_value().unwrap_or(0.0);
    out.push_str(&format!(
        "\npeak queue depth (first 200 h, minutes):\n  BF=1      {:>10.0}\n  BF=0.75   {:>10.0}  ({:.2}x of FCFS; paper ~1/4)\n  BF=0.5    {:>10.0}  ({:.2}x of FCFS; paper <1/8)\n  adaptive  {:>10.0}  ({:.2}x of FCFS; paper: best overall)\n",
        peak(&s_base),
        peak(&s_075),
        peak(&s_075) / peak(&s_base),
        peak(&s_05),
        peak(&s_05) / peak(&s_base),
        peak(&s_ad),
        peak(&s_ad) / peak(&s_base),
    ));
    out.push_str(&format!(
        "mean queue depth over full trace: BF=1 {:.0}, BF=0.75 {:.0}, BF=0.5 {:.0}, adaptive {:.0}\n",
        base.queue_depth.mean_value().unwrap(),
        bf075.queue_depth.mean_value().unwrap(),
        bf05.queue_depth.mean_value().unwrap(),
        adaptive.queue_depth.mean_value().unwrap(),
    ));

    print!("{out}");
    results::write_result("fig4.txt", &out);

    let named = [
        ("bf_1", &base.queue_depth),
        ("bf_075", &bf075.queue_depth),
        ("bf_05", &bf05.queue_depth),
        ("adaptive", &adaptive.queue_depth),
    ];
    // Series may differ in length (different makespans); pad by
    // truncating to the shortest for the shared-grid CSV.
    let min_len = named.iter().map(|(_, s)| s.len()).min().unwrap();
    let cut: Vec<amjs_metrics::TimeSeries> = named
        .iter()
        .map(|(name, s)| {
            let mut t = amjs_metrics::TimeSeries::new(*name);
            for &(st, v) in s.points().iter().take(min_len) {
                t.push(st, v);
            }
            t
        })
        .collect();
    let refs: Vec<&amjs_metrics::TimeSeries> = cut.iter().collect();
    let csv = amjs_metrics::series::to_csv(&refs);
    let p = results::write_result("fig4.csv", &csv);
    eprintln!("fig4: wrote results/fig4.txt and {}", p.display());
}
