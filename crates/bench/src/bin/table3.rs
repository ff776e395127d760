//! Table III — runtime per scheduling iteration vs. window size.
//!
//! The paper times its Python implementation on a 2.4 GHz desktop:
//! 0.021 s at W=1 growing superlinearly to 0.584 s at W=5, and argues
//! this is affordable against Cobalt's 10-second scheduling cadence.
//! Our Rust implementation is orders of magnitude faster in absolute
//! terms, and since ISSUE 16 the W! growth is its *worst case*, not the
//! typical pass: the search is one depth-first walk that shares prefix
//! placements and prunes on per-job floor bounds (`amjs_core::window`),
//! so on this snapshot W<=4 costs what W=1 does and only W=5 shows the
//! search at all. The reproducible claims are that cost rises with W
//! once the bounds stop ending the search at the root, and that every W
//! stays orders of magnitude under Cobalt's 10-second cadence.
//!
//! Method: build a congested scheduler state (a deep queue snapshot on a
//! busy Intrepid machine, captured mid-burst), then time
//! `Scheduler::schedule_pass` at W = 1..=5 over many iterations.
//!
//! The five window sizes are timed on `--jobs` worker threads
//! ([`amjs_core::par_map`]), which hands the times back in W order.
//! `--jobs` defaults to 1 because this is a *timing* experiment —
//! parallel cells contend for cores and contaminate each other's
//! wall-clock numbers; raise it only for a structural smoke run.
//!
//! Usage: `cargo run -p amjs-bench --release --bin table3
//!         [--seed N] [--jobs N]`

use std::time::Instant;

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::scheduler::{PassScratch, QueuedJob, Scheduler};
use amjs_core::{par_map, MachineSpec, PolicyParams, RunSpec};
use amjs_platform::{BgpCluster, Platform};
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::synth::WorkloadSpec;

/// Build a congested snapshot: a busy machine plus a deep queue, taken
/// from the burst region of the month workload.
pub fn congested_snapshot(
    seed: u64,
) -> (
    BgpCluster,
    Vec<(amjs_platform::AllocationId, SimTime)>,
    Vec<QueuedJob>,
    SimTime,
) {
    let jobs = WorkloadSpec::intrepid_month().generate(seed);
    let now = SimTime::from_hours(100); // mid-burst
    let mut machine = BgpCluster::intrepid();

    // Fill ~85% of the machine with synthetic running jobs whose
    // releases are spread over the next 12 hours.
    let mut releases = Vec::new();
    let mut i = 0usize;
    while machine.idle_nodes() > machine.total_nodes() / 8 && i < jobs.len() {
        let j = &jobs[i];
        i += 1;
        if let Some(id) = machine.allocate(j.nodes) {
            let release = now + SimDuration::from_mins(30 + (i as i64 * 37) % 720);
            releases.push((id, release));
        }
    }

    // Queue: the burst-era jobs, all "waiting" as of `now`.
    let queue: Vec<QueuedJob> = jobs
        .iter()
        .filter(|j| j.submit >= SimTime::from_hours(88) && j.submit < now)
        .map(|j| QueuedJob {
            id: j.id,
            submit: j.submit,
            nodes: j.nodes,
            walltime: j.walltime,
        })
        .collect();
    (machine, releases, queue, now)
}

fn main() {
    let (seed, _fast, workers) = harness::parse_args_with_jobs(1);
    let (machine, releases, queue, now) = congested_snapshot(seed);
    eprintln!(
        "table3: queue depth {} jobs, machine {:.0}% busy, {workers} worker{}",
        queue.len(),
        100.0 * (1.0 - machine.idle_nodes() as f64 / machine.total_nodes() as f64),
        if workers == 1 { "" } else { "s" }
    );

    let release_of = |id: amjs_platform::AllocationId| -> SimTime {
        releases.iter().find(|&&(i, _)| i == id).unwrap().1
    };
    let base_plan = machine.plan(now, &release_of);

    let windows: Vec<usize> = (1..=5).collect();
    let times = par_map(&windows, workers, |&w| {
        // The experiments' scheduler configuration at this window size.
        let spec = RunSpec::new(
            format!("w{w}"),
            MachineSpec::intrepid(),
            harness::experiment_workload(seed, false),
            PolicyParams::new(0.5, w),
        );
        let mut sched = Scheduler::new(spec.policy, spec.backfill);
        sched.easy_protected = spec.easy_protected;
        sched.backfill_depth = spec.backfill_depth;
        // Match the paper's setting: permutation search active in the
        // windows that matter (see Scheduler docs).
        let iterations: u32 = if w <= 2 { 400 } else { 100 };
        // Warm-up.
        let mut sink = 0usize;
        let mut scratch = PassScratch::default();
        sink += (sched.schedule_pass(now, &queue, &base_plan, &mut scratch))
            .starts
            .len();
        let begin = Instant::now();
        for _ in 0..iterations {
            sink += (sched.schedule_pass(now, &queue, &base_plan, &mut scratch))
                .starts
                .len();
        }
        std::hint::black_box(sink);
        begin.elapsed().as_secs_f64() / iterations as f64
    });

    let mut out = String::new();
    out.push_str(&format!(
        "Table III — runtime per scheduling iteration (queue depth {}, seed {seed})\n\n",
        queue.len()
    ));
    let header = ["window size", "time per iteration", "vs W=1", "paper (s)"];
    let paper = [0.021, 0.034, 0.069, 0.117, 0.584];
    let mut rows = Vec::new();
    let w1_time = times[0];
    let mut csv = String::from("window,secs_per_iteration,paper_secs\n");

    for (wi, (&w, &secs)) in windows.iter().zip(&times).enumerate() {
        rows.push(vec![
            format!("W={w}"),
            format!("{:.3} ms", secs * 1e3),
            format!("{:.1}x", secs / w1_time),
            format!("{:.3}", paper[wi]),
        ]);
        csv.push_str(&format!("{w},{secs:.6},{}\n", paper[wi]));
    }
    out.push_str(&table::render(&header, &rows));
    out.push_str(
        "\npaper column: Python on a 2.4 GHz desktop; ours: Rust, release build.\n\
         The paper's W! growth is our worst case, not the typical pass: the\n\
         search shares prefix placements and prunes on per-job floor bounds,\n\
         so cost rises only where the bounds stop ending it at the root. Every\n\
         W stays far below Cobalt's 10 s cadence.\n",
    );
    print!("{out}");
    results::write_result("table3.txt", &out);
    let p = results::write_result("table3.csv", &csv);
    eprintln!("table3: wrote results/table3.txt and {}", p.display());
}
