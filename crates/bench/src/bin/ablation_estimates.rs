//! Extension experiment: walltime-estimate adjustment (the authors'
//! IPDPS 2010 companion work, ref. 20 of the paper).
//!
//! Users over-request walltime (~0.6 mean accuracy in the calibrated
//! workload), making every plan pessimistic. This experiment compares
//! planning with raw requests against a per-user online accuracy model
//! (EMA of runtime/request), across the base and balanced policies.
//! Expected shape, per the companion paper: tighter estimates improve
//! backfilling and waits — unless they under-shoot often enough that
//! broken reservations cost more than the tighter packing gains, which
//! is the classic risk the literature flags (and worth measuring, not
//! assuming).
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_estimates
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::estimates::EstimatePolicy;
use amjs_core::{MachineSpec, PolicyParams, RunSpec};

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);

    let policies = [
        ("raw requests", EstimatePolicy::Requested),
        ("user-adaptive", EstimatePolicy::user_adaptive()),
    ];
    let mut specs = Vec::new();
    for policy in [PolicyParams::new(1.0, 1), PolicyParams::new(0.5, 4)] {
        for (tag, est) in &policies {
            let label = format!("{} / {tag}", policy.label());
            let mut s = RunSpec::new(&label, MachineSpec::intrepid(), workload.clone(), policy)
                .labeled(label);
            s.estimates = *est;
            specs.push(s);
        }
    }
    let n_jobs = specs[0].jobs().len();
    eprintln!("ablation_estimates: {n_jobs} jobs");
    let outcomes = harness::run_outcomes(&specs, workers);

    let header = [
        "config / estimates",
        "wait(min)",
        "slowdown",
        "unfair#",
        "LoC(%)",
        "backfills",
    ];
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.summary.label.clone(),
                table::num(o.summary.avg_wait_mins, 1),
                table::num(o.summary.mean_bounded_slowdown, 1),
                o.summary.unfair_jobs.to_string(),
                table::num(o.summary.loc_percent, 1),
                o.backfilled_starts.to_string(),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "Extension — walltime-estimate adjustment (ref. 20) ({n_jobs} jobs, seed {seed})\n\n"
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\nA rise in backfills with user-adaptive estimates means the tighter\n\
         plans opened holes that raw requests hid; a simultaneous rise in wait\n\
         means under-estimates broke reservations more than the holes paid.\n",
    );
    print!("{out}");
    results::write_result("ablation_estimates.txt", &out);
}
