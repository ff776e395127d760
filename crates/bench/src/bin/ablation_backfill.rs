//! Ablation: backfilling discipline and reservation-protection style.
//!
//! DESIGN.md calls out two design choices the paper leaves open and this
//! reproduction had to make concrete:
//!
//! 1. **Backfill mode** — none / EASY / conservative (paper step 6 says
//!    "conforming the original configuration of backfilling schemes").
//! 2. **Protection style** — whether a protected reservation pins the
//!    specific partition block the window pass chose
//!    (`ProtectionStyle::PinnedBlocks`) or only its start time
//!    (`TimeFlexible`, textbook EASY shadow semantics), and whether EASY
//!    protects the head reservation only (`easy_protected = Some(1)`,
//!    the production default used by all experiments) or the whole
//!    first window (`None`, the paper's literal wording).
//!
//! This binary quantifies all of it on the standard month trace.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_backfill
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::scheduler::{BackfillMode, ProtectionStyle};
use amjs_core::{par_map, MachineSpec, PolicyParams, RunSpec};
use amjs_platform::BgpCluster;

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = harness::experiment_workload(seed, fast);
    let variant = |label: &str,
                   policy: PolicyParams,
                   backfill: BackfillMode,
                   protection: ProtectionStyle,
                   easy_protected: Option<usize>| {
        let mut s =
            RunSpec::new(label, MachineSpec::intrepid(), workload.clone(), policy).labeled(label);
        s.backfill = backfill;
        s.easy_protected = easy_protected;
        (s, protection)
    };

    let fcfs = PolicyParams::fcfs();
    let w4 = PolicyParams::new(1.0, 4);
    let (easy, pinned) = (BackfillMode::Easy, ProtectionStyle::PinnedBlocks);
    let variants = [
        variant("no-backfill", fcfs, BackfillMode::None, pinned, Some(1)),
        variant("easy/head/pinned", fcfs, easy, pinned, Some(1)),
        variant(
            "easy/head/flexible",
            fcfs,
            easy,
            ProtectionStyle::TimeFlexible,
            Some(1),
        ),
        variant("easy/window/pinned W=4", w4, easy, pinned, None),
        variant("easy/head/pinned W=4", w4, easy, pinned, Some(1)),
        variant(
            "conservative",
            fcfs,
            BackfillMode::Conservative,
            pinned,
            Some(1),
        ),
    ];
    let jobs = variants[0].0.jobs();
    eprintln!("ablation_backfill: {} jobs", jobs.len());

    // The protection style is the one setting here no spec field names.
    let outcomes = par_map(&variants, workers, |(spec, protection)| {
        spec.builder(BgpCluster::intrepid(), jobs.clone())
            .protection(*protection)
            .run()
    });

    let header = ["variant", "wait(min)", "unfair#", "LoC(%)", "backfills"];
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.summary.label.clone(),
                table::num(o.summary.avg_wait_mins, 1),
                o.summary.unfair_jobs.to_string(),
                table::num(o.summary.loc_percent, 1),
                o.backfilled_starts.to_string(),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation — backfilling discipline and protection style ({} jobs, seed {seed})\n\n",
        jobs.len()
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\nReading: no-backfill shows what EASY buys; pinned-vs-flexible shows\n\
         the cost of block-level protection on a partitioned machine;\n\
         window-vs-head protection isolates the `easy_protected` default; and\n\
         conservative bounds the strictest discipline.\n",
    );
    print!("{out}");
    results::write_result("ablation_backfill.txt", &out);
}
