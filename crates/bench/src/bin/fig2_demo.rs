//! Figure 2, live — the paper's motivating example for window-based
//! group allocation.
//!
//! "An example showing the limitation of scheduling and allocating jobs
//! one by one. Job 0 is running, Jobs 1, 2, and 3 are waiting. (a)
//! schedule and allocate job one by one in priority order; (b) schedule
//! and allocate in a group as a whole. Apparently (b) achieves better
//! system utilization."
//!
//! This binary reconstructs that situation concretely, runs both
//! schedulers (`W=1` vs `W=3`), and prints the resulting schedules as
//! Gantt charts so the effect is visible rather than asserted.
//!
//! Usage: `cargo run -p amjs-bench --release --bin fig2_demo`

use amjs_bench::chart::gantt;
use amjs_bench::results;
use amjs_core::scheduler::{BackfillMode, PassScratch, PassTrace, QueuedJob, Scheduler};
use amjs_core::PolicyParams;
use amjs_platform::{FlatCluster, Platform};
use amjs_sim::{SimDuration, SimTime};
use amjs_workload::JobId;

fn main() {
    // A 10-node machine. Job 0 runs on 5 nodes until t = 1 h.
    // Waiting (priority order): job 1 needs all 10 nodes for 2 h;
    // job 2 needs 5 nodes for 50 min; job 3 needs 5 nodes for 55 min.
    //
    // One-by-one: job 1 reserves the whole machine at t=1h; job 2
    // backfills (it ends before the reservation) but job 3 cannot (it
    // would run 5 minutes into it), so job 3 is pushed all the way
    // behind job 1 — it finishes last, near 3.9 h. Grouped (W=3): the
    // permutation search slots job 3 in *before* job 1 (job 1 slides by
    // ~50 minutes, the window's least-makespan choice), total makespan
    // shrinks, and the pocket of idle nodes in hour 1–3 disappears.
    let now = SimTime::ZERO;
    let mut machine = FlatCluster::new(10);
    let running = machine.allocate(5).expect("job 0");
    let release = |_id| SimTime::from_mins(60);
    let queue = vec![
        QueuedJob {
            id: JobId(1),
            submit: SimTime::from_mins(-30),
            nodes: 10,
            walltime: SimDuration::from_mins(120),
        },
        QueuedJob {
            id: JobId(2),
            submit: SimTime::from_mins(-20),
            nodes: 5,
            walltime: SimDuration::from_mins(50),
        },
        QueuedJob {
            id: JobId(3),
            submit: SimTime::from_mins(-10),
            nodes: 5,
            walltime: SimDuration::from_mins(55),
        },
    ];

    let mut out = String::new();
    out.push_str("Figure 2 demo — one-by-one vs grouped allocation\n\n");
    out.push_str("machine: 10 nodes; job#0 runs on 5 nodes until 1.0h\n");
    out.push_str("queue (priority order): job#1 10n/2h, job#2 5n/50m, job#3 5n/55m\n");

    for (panel, window) in [("(a) one-by-one, W=1", 1usize), ("(b) grouped, W=3", 3)] {
        let scheduler = Scheduler::new(PolicyParams::new(1.0, window), BackfillMode::Easy);
        let plan = machine.plan(now, &release);
        // The traced pass plans every window, so the chart shows the
        // whole tentative schedule, advisory reservations included.
        let mut trace = PassTrace::default();
        let mut scratch = PassScratch::default();
        let decision = scheduler.schedule_pass_traced(
            now,
            &queue,
            &plan,
            &mut scratch,
            Some(&mut trace),
            None,
        );

        // Assemble the tentative schedule: running job + starts +
        // reservations.
        let mut rows = vec![("job#0 (running)".to_string(), now, SimTime::from_mins(60))];
        for s in &decision.starts {
            let j = queue.iter().find(|j| j.id == s.id).unwrap();
            rows.push((format!("{} start", j.id), now, now + j.walltime));
        }
        for &(id, at) in &decision.reservations {
            let j = queue.iter().find(|j| j.id == id).unwrap();
            rows.push((format!("{} resv", j.id), at, at + j.walltime));
        }
        out.push_str(&format!(
            "\n{panel}: {} started now, {} reserved\n",
            decision.starts.len(),
            decision.reservations.len()
        ));
        out.push_str(&gantt(&rows, 72));
    }

    machine.release(running);
    print!("{out}");
    results::write_result("fig2_demo.txt", &out);
}
