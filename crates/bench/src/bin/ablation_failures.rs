//! Extension experiment: scheduling under node failures — the "system
//! cost" the paper's §V names as future work.
//!
//! Failures arrive as a Poisson process over the machine; a failure
//! inside a running partition kills the job, which loses its progress
//! and reruns. The question the paper's framework would ask: *which
//! policies limit the work lost to failures?* Long jobs carry more
//! exposure (probability of interruption grows with nodes × residence
//! time), so short-job-leaning policies might be expected to lose less.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_failures
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::failures::FailureSpec;
use amjs_core::{MachineSpec, PolicyParams, RunSpec};

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);

    // Production-flavored failure rate: 50-year node MTBF → about one
    // machine-level failure per 10.7 h at Intrepid scale (~65 over the
    // month). Much higher rates livelock the largest jobs — a
    // full-machine 12-hour run cannot finish if its partition fails
    // more than once per attempt on average — which is the classic
    // motivation for checkpointing, not a scheduling-policy question.
    let spec = FailureSpec::bgp_production(seed ^ 0xFA11);

    let specs: Vec<RunSpec> = [(1.0, 1), (0.5, 1), (0.5, 4)]
        .into_iter()
        .map(|(bf, w)| {
            let mut s = RunSpec::new(
                format!("bf{bf}-w{w}"),
                MachineSpec::intrepid(),
                workload.clone(),
                PolicyParams::new(bf, w),
            );
            s.failures = Some(spec);
            s
        })
        .collect();
    let n_jobs = specs[0].jobs().len();
    eprintln!("ablation_failures: {n_jobs} jobs");
    let outcomes = harness::run_outcomes(&specs, workers);

    let header = ["config", "wait(min)", "interrupts", "lost node-h"];
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.summary.label.clone(),
                table::num(o.summary.avg_wait_mins, 1),
                o.interrupted_jobs.to_string(),
                table::num(o.lost_node_hours, 0),
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "Extension — failures (\u{00a7}V future work)\n\
         ({n_jobs} jobs, seed {seed}, machine MTBF {:.1} h)\n\n",
        spec.machine_mtbf_secs(40_960) / 3600.0,
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\nReading: interruption counts are similar across policies (the failure\n\
         process does not care who is running), but *lost node-hours* track how\n\
         much exposed in-flight work each policy keeps, which need not follow\n\
         the wait column.\n",
    );
    print!("{out}");
    results::write_result("ablation_failures.txt", &out);
}
