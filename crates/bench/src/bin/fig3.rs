//! Figure 3 — the effect of balance factor and window size.
//!
//! Sweeps BF ∈ {1, 0.75, 0.5, 0.25, 0} × W ∈ {1..5} (25 simulations, run
//! in parallel) over the month trace and reports:
//!
//! * **(a)** average waiting time vs. BF, one series per W — the paper
//!   finds a steep drop from BF=1 to BF=0.5 and little further change;
//! * **(b)** unfair job count vs. BF, one series per W — unfairness
//!   grows toward SJF and with larger windows;
//! * **(c)** loss of capacity vs. W, one series per BF — LoC falls with
//!   W while BF ≥ 0.5 and the effect disappears toward SJF.
//!
//! The 25-point grid runs on `--jobs` worker threads, digests in grid
//! order. `--jobs 1` reproduces the old sequential output
//! byte-for-byte.
//!
//! Usage: `cargo run -p amjs-bench --release --bin fig3
//!         [--seed N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::{MachineSpec, PolicyParams, RunSpec};

const BFS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];
const WINDOWS: [usize; 5] = [1, 2, 3, 4, 5];

fn main() {
    let (seed, fast, workers) = harness::parse_args_with_jobs(harness::default_workers());
    let workload = &harness::experiment_workload(seed, fast);
    let specs: Vec<RunSpec> = BFS
        .iter()
        .flat_map(|&bf| {
            WINDOWS.iter().map(move |&w| {
                RunSpec::new(
                    format!("bf{bf}-w{w}"),
                    MachineSpec::intrepid(),
                    workload.clone(),
                    PolicyParams::new(bf, w),
                )
            })
        })
        .collect();
    let n_jobs = specs[0].jobs().len();
    eprintln!(
        "fig3: {n_jobs} jobs, {} configurations, {workers} workers",
        specs.len()
    );
    let digests = harness::run_sweep(&specs, workers);
    let get = |bf_i: usize, w_i: usize| &digests[bf_i * WINDOWS.len() + w_i].summary;

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 3 — metric-aware scheduling sweep ({n_jobs} jobs, seed {seed})\n\n"
    ));

    // (a) average waiting time: rows = BF, columns = W.
    out.push_str("(a) average waiting time (min) — rows BF, columns W\n");
    let header: Vec<String> = std::iter::once("BF".to_string())
        .chain(WINDOWS.iter().map(|w| format!("W={w}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = BFS
        .iter()
        .enumerate()
        .map(|(bi, bf)| {
            std::iter::once(format!("{bf}"))
                .chain((0..WINDOWS.len()).map(|wi| table::num(get(bi, wi).avg_wait_mins, 1)))
                .collect()
        })
        .collect();
    out.push_str(&table::render(&header_refs, &rows));

    // (b) unfair jobs.
    out.push_str("\n(b) unfair jobs (count) — rows BF, columns W\n");
    let rows: Vec<Vec<String>> = BFS
        .iter()
        .enumerate()
        .map(|(bi, bf)| {
            std::iter::once(format!("{bf}"))
                .chain((0..WINDOWS.len()).map(|wi| get(bi, wi).unfair_jobs.to_string()))
                .collect()
        })
        .collect();
    out.push_str(&table::render(&header_refs, &rows));

    // (c) loss of capacity: rows = W (the paper swaps the axes here),
    // columns = BF.
    out.push_str("\n(c) loss of capacity (%) — rows W, columns BF\n");
    let header_c: Vec<String> = std::iter::once("W".to_string())
        .chain(BFS.iter().map(|bf| format!("BF={bf}")))
        .collect();
    let header_c_refs: Vec<&str> = header_c.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = WINDOWS
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            std::iter::once(format!("{w}"))
                .chain((0..BFS.len()).map(|bi| table::num(get(bi, wi).loc_percent, 1)))
                .collect()
        })
        .collect();
    out.push_str(&table::render(&header_c_refs, &rows));

    // Shape checks mirroring the paper's findings.
    let drop_1_to_05 = get(0, 0).avg_wait_mins - get(2, 0).avg_wait_mins;
    let drop_05_to_0 = get(2, 0).avg_wait_mins - get(4, 0).avg_wait_mins;
    out.push_str(&format!(
        "\nwait drop BF 1→0.5 (W=1): {:.1} min; BF 0.5→0: {:.1} min (paper: steep, then flat)\n",
        drop_1_to_05, drop_05_to_0
    ));
    out.push_str(&format!(
        "unfair at BF=1/W=1: {} vs BF=0/W=5: {} (paper: grows toward SJF and with W)\n",
        get(0, 0).unfair_jobs,
        get(4, 4).unfair_jobs
    ));

    print!("{out}");
    results::write_result("fig3.txt", &out);

    // Full CSV for replotting.
    let mut csv = String::from("bf,window,avg_wait_mins,unfair_jobs,loc_percent,utilization\n");
    for (bi, bf) in BFS.iter().enumerate() {
        for (wi, w) in WINDOWS.iter().enumerate() {
            let s = get(bi, wi);
            csv.push_str(&format!(
                "{bf},{w},{:.3},{},{:.4},{:.5}\n",
                s.avg_wait_mins, s.unfair_jobs, s.loc_percent, s.avg_utilization
            ));
        }
    }
    let p = results::write_result("fig3.csv", &csv);
    eprintln!("fig3: wrote results/fig3.txt and {}", p.display());
}
