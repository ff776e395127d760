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
//! The five window sizes run as cells on the fault-tolerant fleet
//! engine (`amjs-fleet`) with a custom executor that times each one;
//! measurements come back through a side channel keyed by spec, so the
//! table is assembled in W order regardless of completion order.
//! `--jobs` defaults to 1 because this is a *timing* experiment —
//! parallel cells contend for cores and contaminate each other's
//! wall-clock numbers; raise it only for a structural smoke run.
//!
//! Usage: `cargo run -p amjs-bench --release --bin table3
//!         [--seed N] [--jobs N]`

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::scheduler::{BackfillMode, QueuedJob, Scheduler};
use amjs_core::{MachineSpec, PolicyParams, PresetName, RunSpec, WorkloadSource};
use amjs_fleet::RunDigest;
use amjs_metrics::MetricsSummary;
use amjs_platform::Platform;
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::synth::WorkloadSpec;

/// Build a congested snapshot: a busy machine plus a deep queue, taken
/// from the burst region of the month workload.
pub fn congested_snapshot(
    seed: u64,
) -> (
    amjs_platform::bgp::BgpCluster,
    Vec<(amjs_platform::AllocationId, SimTime)>,
    Vec<QueuedJob>,
    SimTime,
) {
    let jobs = WorkloadSpec::intrepid_month().generate(seed);
    let now = SimTime::from_hours(100); // mid-burst
    let mut machine = harness::intrepid();

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

    // One cell per window size. The spec's workload field is nominal —
    // the executor times `schedule_pass` over the shared congested
    // snapshot instead of running a simulation — but W rides in the key
    // so the fleet journal and progress lines stay meaningful.
    let specs: Vec<RunSpec> = (1..=5usize)
        .map(|w| {
            RunSpec::new(
                format!("w{w}"),
                MachineSpec::intrepid(),
                WorkloadSource::Preset {
                    name: PresetName::Month,
                    seed,
                    load_factor: 1.0,
                },
                PolicyParams::new(0.5, w),
            )
        })
        .collect();

    let side: Arc<Mutex<BTreeMap<String, f64>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let shared = Arc::new((queue, base_plan, now));
    let exec: amjs_fleet::Exec = {
        let side = side.clone();
        let shared = shared.clone();
        Arc::new(move |spec| {
            let (queue, base_plan, now) = &*shared;
            let w = spec.policy.window;
            let mut sched = Scheduler::new(spec.policy, BackfillMode::Easy);
            sched.easy_protected = Some(harness::EASY_PROTECTED);
            sched.backfill_depth = Some(harness::BACKFILL_DEPTH);
            // Match the paper's setting: permutation search active in the
            // windows that matter (see Scheduler docs).
            let iterations: u32 = if w <= 2 { 400 } else { 100 };
            // Warm-up.
            let mut sink = 0usize;
            sink += sched.schedule_pass(*now, queue, base_plan).starts.len();
            let begin = Instant::now();
            for _ in 0..iterations {
                sink += sched.schedule_pass(*now, queue, base_plan).starts.len();
            }
            let secs = begin.elapsed().as_secs_f64() / iterations as f64;
            std::hint::black_box(sink);
            side.lock().unwrap().insert(spec.key.clone(), secs);
            // Placeholder digest: the measurement is the side-channel
            // value; no simulation ran, so the summary is empty.
            RunDigest {
                summary: MetricsSummary {
                    label: format!("W={w}"),
                    jobs_completed: 0,
                    avg_wait_mins: 0.0,
                    max_wait_mins: 0.0,
                    unfair_jobs: 0,
                    loc_percent: 0.0,
                    avg_utilization: 0.0,
                    mean_bounded_slowdown: 0.0,
                    makespan: SimDuration::from_secs(0),
                    node_downtime_hours: 0.0,
                    abandoned_jobs: 0,
                },
                queue_depth_mean: 0.0,
                interrupted_jobs: 0,
                lost_node_hours: 0.0,
                min_availability: 1.0,
                worst_domain: "-".to_string(),
                scheduler_passes: iterations as u64 + 1,
                backfilled_starts: 0,
            }
        })
    };
    let cfg = amjs_fleet::FleetConfig {
        workers: workers.max(1),
        heartbeat: Some(std::time::Duration::from_secs(10)),
        ..amjs_fleet::FleetConfig::default()
    };
    let report = amjs_fleet::run_fleet(&specs, &cfg, exec).expect("fleet sweep failed");
    for rec in &report.records {
        assert!(
            rec.digest.is_some(),
            "cell {} ended {}: {}",
            rec.key,
            rec.status.as_str(),
            rec.error.as_deref().unwrap_or("no error recorded")
        );
    }
    let side = side.lock().unwrap();
    let (queue, ..) = &*shared;

    let mut out = String::new();
    out.push_str(&format!(
        "Table III — runtime per scheduling iteration (queue depth {}, seed {seed})\n\n",
        queue.len()
    ));
    let header = ["window size", "time per iteration", "vs W=1", "paper (s)"];
    let paper = [0.021, 0.034, 0.069, 0.117, 0.584];
    let mut rows = Vec::new();
    let w1_time = side["w1"];
    let mut csv = String::from("window,secs_per_iteration,paper_secs\n");

    for (wi, w) in (1..=5usize).enumerate() {
        let secs = side[&format!("w{w}")];
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
