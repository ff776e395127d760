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
//! Usage: `cargo run -p amjs-bench --release --bin baseline_dynp
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::adaptive::AdaptiveScheme;
use amjs_core::{par_map, AdaptiveKind, MachineSpec, PolicyParams, RunSpec};
use amjs_platform::BgpCluster;

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);
    let spec = |key: &str, policy: PolicyParams| {
        RunSpec::new(key, MachineSpec::intrepid(), workload.clone(), policy)
    };
    let base = spec("bf1-w1", PolicyParams::new(1.0, 1));
    let jobs = base.jobs();
    eprintln!("baseline_dynp: {} jobs", jobs.len());

    let base = base.execute();
    let threshold = base.queue_depth.mean_value().unwrap_or(1000.0);

    let adaptive = |label: &str, kind: AdaptiveKind| {
        let mut s = spec(label, PolicyParams::fcfs()).labeled(label);
        s.adaptive = kind;
        s
    };
    // dynP is a tuning scheme `AdaptiveKind` does not name, so its two
    // rows put it on the spec's builder.
    let dynp = |low, high| Some(AdaptiveScheme::dynp(low, high));
    let runs = [
        (adaptive("dynP (10/80)", AdaptiveKind::None), dynp(10, 80)),
        (adaptive("dynP (30/150)", AdaptiveKind::None), dynp(30, 150)),
        (adaptive("BF Adapt.", AdaptiveKind::Bf { threshold }), None),
        (
            adaptive("2D Adapt.", AdaptiveKind::TwoD { threshold }),
            None,
        ),
    ];
    let mut outcomes = vec![base];
    outcomes.extend(par_map(&runs, workers, |(spec, scheme)| {
        let builder = spec.builder(BgpCluster::intrepid(), jobs.clone());
        match scheme {
            Some(scheme) => builder.adaptive(scheme.clone()).run(),
            None => builder.run(),
        }
    }));

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
