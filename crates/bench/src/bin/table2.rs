//! Table II — overall improvement of adaptive tuning.
//!
//! Reproduces the paper's central comparison: seven configurations over
//! the same month-long trace on the Intrepid machine, reporting average
//! waiting time (minutes), number of unfair jobs, and loss of capacity
//! (percent):
//!
//! ```text
//! BF=1/W=1   (the base: FCFS + EASY backfilling)
//! BF=1/W=4
//! BF=0.5/W=1
//! BF=0.5/W=4
//! BF Adapt.  (queue-depth-triggered BF 1 ↔ 0.5)
//! W  Adapt.  (utilization-trend-triggered W 1 ↔ 4)
//! 2D Adapt.  (both)
//! ```
//!
//! The BF tuner's queue-depth threshold follows the paper: "this is set
//! based on the whole month's average" — we pre-run the base
//! configuration and use its mean queue depth.
//!
//! The six post-threshold runs go through the parallel sweep
//! runner; the base run stays sequential because the adaptive
//! threshold is computed from it. `--jobs 1` reproduces the
//! old sequential output byte-for-byte.
//!
//! Usage: `cargo run -p amjs-bench --release --bin table2
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, RunSpec};
use amjs_metrics::report::improvement_percent;

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);
    let fixed = |bf: f64, w: usize| {
        RunSpec::new(
            format!("bf{bf}-w{w}"),
            MachineSpec::intrepid(),
            workload.clone(),
            PolicyParams::new(bf, w),
        )
    };
    let adaptive = |key: &str, label: &str, kind: AdaptiveKind| {
        let mut s = RunSpec::new(
            key,
            MachineSpec::intrepid(),
            workload.clone(),
            PolicyParams::fcfs(),
        )
        .labeled(label);
        s.adaptive = kind;
        s
    };
    let base = fixed(1.0, 1);
    let jobs = base.jobs();
    eprintln!(
        "table2: {} jobs over {:.0} h (seed {seed}, {workers} workers)",
        jobs.len(),
        jobs.last().map(|j| j.submit.as_hours_f64()).unwrap_or(0.0)
    );

    // Base pre-run for the adaptive threshold (also Table II row 1).
    let base = base.execute();
    let threshold = base.queue_depth.mean_value().unwrap_or(1000.0);
    eprintln!("table2: base mean queue depth {threshold:.0} min → adaptive threshold");

    let specs = vec![
        fixed(1.0, 4),
        fixed(0.5, 1),
        fixed(0.5, 4),
        adaptive("bf-adaptive", "BF Adapt.", AdaptiveKind::Bf { threshold }),
        adaptive("w-adaptive", "W Adapt.", AdaptiveKind::Window),
        adaptive("2d-adaptive", "2D Adapt.", AdaptiveKind::TwoD { threshold }),
    ];
    let mut outcomes = vec![base];
    outcomes.extend(harness::run_outcomes(&specs, workers));

    let header = [
        "configuration",
        "avg. wait (min)",
        "unfair #",
        "LoC (%)",
        "util",
        "backfills",
    ];
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.summary.label.clone(),
                table::num(o.summary.avg_wait_mins, 1),
                o.summary.unfair_jobs.to_string(),
                table::num(o.summary.loc_percent, 1),
                table::num(o.summary.avg_utilization, 3),
                o.backfilled_starts.to_string(),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str("Table II — improvement of adaptive tuning\n");
    out.push_str(&format!(
        "(workload: {} jobs, seed {seed}{}; threshold {threshold:.0} min)\n\n",
        jobs.len(),
        if fast { ", --fast week trace" } else { "" }
    ));
    out.push_str(&table::render(&header, &rows));

    // The paper's headline: 2D adaptive vs. base.
    let base_s = &outcomes[0].summary;
    let twod = &outcomes.last().unwrap().summary;
    out.push_str(&format!(
        "\n2D Adapt. vs base: wait {:+.0}%, LoC {:+.0}%, unfair x{:.1}\n",
        -improvement_percent(base_s.avg_wait_mins, twod.avg_wait_mins),
        -improvement_percent(base_s.loc_percent, twod.loc_percent),
        twod.unfair_jobs as f64 / base_s.unfair_jobs.max(1) as f64,
    ));
    out.push_str("(paper: wait -71%, LoC -23%, unfair x2 — shape target, not absolute values)\n");

    print!("{out}");
    let mut csv = String::from(amjs_metrics::report::csv_header());
    csv.push('\n');
    for o in &outcomes {
        csv.push_str(&o.summary.csv_row());
        csv.push('\n');
    }
    let txt = results::write_result("table2.txt", &out);
    let csvp = results::write_result("table2.csv", &csv);
    eprintln!("table2: wrote {} and {}", txt.display(), csvp.display());
}
