//! Ablation: partitioned vs. idealized machine.
//!
//! Loss of Capacity has two sources: *fragmentation* (idle nodes exist
//! but no free partition of the right shape) and *admission holdback*
//! (a fitting job is kept waiting to protect a reservation). The flat
//! machine has no geometry, so it isolates the second source; the gap
//! between the two machines is the fragmentation cost of the Blue
//! Gene/P partition discipline — the phenomenon eq. (4) was designed to
//! expose.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_platform
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::{MachineSpec, PolicyParams, RunSpec};
use amjs_platform::BgpCluster;
use amjs_workload::synth::SizeClass;
use amjs_workload::WorkloadSpec;

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);

    let mut specs = Vec::new();
    for policy in [
        PolicyParams::new(1.0, 1),
        PolicyParams::new(0.5, 1),
        PolicyParams::new(0.5, 4),
    ] {
        for (tag, machine) in [
            ("bgp", MachineSpec::intrepid()),
            ("flat", MachineSpec::Flat { nodes: 40_960 }),
        ] {
            let label = format!("{} {tag}", policy.label());
            specs.push(RunSpec::new(&label, machine, workload.clone(), policy).labeled(label));
        }
    }
    let n_jobs = specs[0].jobs().len();
    eprintln!("ablation_platform: {n_jobs} jobs");
    let rows: Vec<Vec<String>> = harness::run_outcomes(&specs, workers)
        .iter()
        .map(|o| {
            vec![
                o.summary.label.clone(),
                table::num(o.summary.avg_wait_mins, 1),
                table::num(o.summary.loc_percent, 1),
                table::num(o.summary.avg_utilization, 3),
            ]
        })
        .collect();

    let header = ["config/machine", "wait(min)", "LoC(%)", "util"];
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation — partitioned (bgp) vs idealized (flat) machine ({n_jobs} jobs, seed {seed})\n\n"
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\nThe bgp-minus-flat LoC gap is the fragmentation cost of aligned\n\
         power-of-two partitions (plus partition round-up inflating demand);\n\
         the flat machine's residual LoC is pure reservation holdback.\n",
    );

    // Second panel: partition granularity. A workload with a dev-job
    // tail (64-256 nodes, ~1/3 of submissions) on the midplane-grained
    // machine (everything rounds up to 512) vs the sub-midplane machine
    // (64-node partitions allocate exactly).
    let mut spec = WorkloadSpec::intrepid_month();
    spec.size_classes.extend([
        SizeClass {
            nodes: 64,
            weight: 20.0,
        },
        SizeClass {
            nodes: 128,
            weight: 15.0,
        },
        SizeClass {
            nodes: 256,
            weight: 10.0,
        },
    ]);
    let dev_jobs = spec.generate(seed);
    // Neither the dev-job trace nor sub-midplane partitions have a spec
    // field, so both go to the spec's builder directly.
    let fcfs = RunSpec::new(
        "bf1-w1",
        MachineSpec::intrepid(),
        workload,
        PolicyParams::new(1.0, 1),
    );
    let coarse = fcfs.builder(BgpCluster::intrepid(), dev_jobs.clone()).run();
    let fine = fcfs
        .builder(BgpCluster::intrepid_fine(), dev_jobs.clone())
        .run();
    out.push_str(&format!(
        "\npartition granularity (same trace + dev-job tail, {} jobs, FCFS):\n",
        dev_jobs.len()
    ));
    out.push_str(&table::render(
        &["granularity", "wait(min)", "LoC(%)", "util"],
        &[
            vec![
                "midplane (512)".into(),
                table::num(coarse.summary.avg_wait_mins, 1),
                table::num(coarse.summary.loc_percent, 1),
                table::num(coarse.summary.avg_utilization, 3),
            ],
            vec![
                "sub-midplane (64)".into(),
                table::num(fine.summary.avg_wait_mins, 1),
                table::num(fine.summary.loc_percent, 1),
                table::num(fine.summary.avg_utilization, 3),
            ],
        ],
    ));
    out.push_str(
        "\nCoarse granularity rounds every 64-256-node dev job up to a full\n\
         midplane — internal fragmentation the sub-midplane machine avoids.\n",
    );
    print!("{out}");
    results::write_result("ablation_platform.txt", &out);
}
