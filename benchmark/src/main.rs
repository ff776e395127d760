//! The repository's benchmark. One invocation runs one workload in its own
//! process:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload lib-month [--seed 42] [--seconds 24] [--trace 0|1] [--quick]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --check [--seed N]
//! ```
//!
//! It prints one `metric <name> <value> <unit> n=<samples>` line per
//! metric, the correctness verdict, and as the last line of standard
//! output one JSON object for the driver. See `README.md`.

mod check;
mod drive;
mod host;
mod layers;
mod report;
mod script;
mod trace;

use std::time::Instant;

use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_sim::snapshot::fnv1a;
use amjs_sim::Snapshot;

use drive::{lib_rep, restore_lib, restore_serve, serve_rep, Floors};
use layers::replay_rows;
use report::{defs, metric, min_of, pct, pct_ns, Metric};
use script::{Machine, Script, Workload, WORKLOADS};
use trace::Tracer;

/// Digests of what seed 42 must produce, one line per workload.
const EXPECTED: &str = include_str!("../expected.txt");

pub struct Args {
    workload: Option<String>,
    seed: u64,
    /// How long the repetition loop measures.
    seconds: f64,
    trace: bool,
    /// Two repetitions of one measured month: the smoke test's size.
    quick: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 24.0,
        trace: false,
        quick: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if args.check {
        std::process::exit(check::run(&args));
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let Some(w) = WORKLOADS
        .iter()
        .find(|w| Some(w.name) == args.workload.as_deref())
    else {
        eprintln!("error: --workload must be one of {}", names.join(", "));
        std::process::exit(2);
    };
    let correct = match w.machine {
        Machine::Bgp => run(w, &args, BgpCluster::intrepid),
        Machine::Flat => run(w, &args, || FlatCluster::new(40_960)),
    };
    std::process::exit(if correct { 0 } else { 1 });
}

/// What a script must reproduce, in the form `expected.txt` pins it.
fn digest_line(w: &Workload, script: &Script) -> String {
    format!(
        "{} cmds={} events={} final_hash={:016x} summary={:016x}",
        w.name,
        script.cmds.len(),
        script.events_end,
        script.final_hash,
        fnv1a(script.summary_row.as_bytes())
    )
}

fn run<P: Platform + Snapshot + 'static>(w: &Workload, args: &Args, make: fn() -> P) -> bool {
    let pinned = host::pin_to_current_cpu();
    let out = host::out_dir();
    let tmpfs = host::on_tmpfs(&out);
    // Scratch space of this process alone, so that runs can overlap.
    let scratch = out.join(format!("run-{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create a directory under benchmark/out");
    let w = &Workload {
        months: if args.quick { 1 } else { w.months },
        ..*w
    };
    let (seed, quick) = (args.seed, args.quick);
    let script = script::build(w, seed, make());
    let state_dir = scratch.join("state");

    // ----- untraced repetitions: the end-to-end numbers -----
    let budget = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds
    };
    let mut floors = Floors::new(&script);
    let mut restore = Vec::new();
    let (wall0, cpu0) = (Instant::now(), host::cpu_seconds());
    let end_state = loop {
        // One restore sample after every repetition, not a batch after the
        // last: a slow stretch of the host lasts seconds and would cover
        // samples taken together.
        let (rep, sched) = if w.serve {
            let rep = serve_rep(w, &script, seed, make, &state_dir, None, &mut None);
            let (s, _, recovered) = restore_serve::<P>(&state_dir);
            restore.push(s);
            (rep, recovered)
        } else {
            let (rep, sched) = lib_rep(w, &script, seed, make, &mut None);
            // A few milliseconds each: five, so that some land in a quiet
            // moment even when a run has only a dozen repetitions.
            restore.extend((0..5).map(|_| restore_lib(&sched)));
            (rep, sched)
        };
        floors.add(&rep);
        let reps = floors.rep_wall.len();
        let done = if quick {
            reps >= 2
        } else {
            reps >= 3 && wall0.elapsed().as_secs_f64() >= budget
        };
        if done {
            break sched;
        }
    };
    let cpu_share = (host::cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    let reps = floors.rep_wall.len();

    let restored_hash = end_state.state_hash();
    let summary_row = end_state.drain_into_outcome().summary.csv_row();

    let steps = floors.of_verb("ADVANCE");
    let worst = &steps[steps.len() - steps.len().div_ceil(100)..];
    let worst_us = worst.iter().sum::<u64>() as f64 / worst.len() as f64 / 1e3;
    let measured_cmds = script.cmds.len() - script.warm;
    let measured_s = floors.measured_s();
    let mut metrics = vec![
        metric(
            "setup_s",
            floors.generate_s + floors.start_s + floors.warm_s(),
            reps,
        ),
        metric(
            "ops_per_s",
            measured_cmds as f64 / measured_s,
            measured_cmds,
        ),
        metric("step_us_p50", pct_ns(&steps, 0.50) / 1e3, steps.len()),
        // The mean of the slowest 1 %, not the p99 order statistic: which
        // rank the p99 lands on within the few dozen snapshot-rotation
        // stalls of a `serve-*` month depends on the seed (±15 %); their
        // mean does not (±3 %).
        metric("step_us_worst1pct", worst_us, worst.len()),
        metric("restore_s", min_of(&restore), restore.len()),
        // Exact counts: `--check` wants them identical between runs.
        metric("workload.script_cmds", script.cmds.len() as f64, 1),
        metric(
            "sim.events",
            (script.events_end - script.events_warm) as f64,
            1,
        ),
    ];

    // ----- correctness -----
    let mut correct = floors.failed == 0 && floors.identical;
    if restored_hash != script.final_hash {
        println!(
            "MISMATCH restored state hash {restored_hash:016x}, live {:016x}",
            script.final_hash
        );
        correct = false;
    }
    if summary_row != script.summary_row {
        println!(
            "MISMATCH drained summary row {summary_row:?}, reference replay {:?}",
            script.summary_row
        );
        correct = false;
    }
    let digest = digest_line(w, &script);
    println!("digest {digest}");
    if seed == 42 && !quick {
        let pinned_line = EXPECTED
            .lines()
            .find(|l| l.split(' ').next() == Some(w.name));
        if pinned_line != Some(digest.as_str()) {
            println!(
                "MISMATCH digest for seed 42: pinned {:?}, got {digest:?}",
                pinned_line.unwrap_or("<none>")
            );
            correct = false;
        }
    }

    // ----- the traced repetition and the per-layer probes -----
    let mut sorted_wall = floors.rep_wall.clone();
    sorted_wall.sort_by(f64::total_cmp);
    let [wall_p25, wall_p50, wall_p75] = [0.25, 0.50, 0.75].map(|q| pct(&sorted_wall, q));
    if args.trace {
        let mut tracer = Some(Tracer::new(script.cmds.len() * 5));
        let traced = if w.serve {
            serve_rep(w, &script, seed, make, &state_dir, None, &mut tracer)
        } else {
            lib_rep(w, &script, seed, make, &mut tracer).0
        };
        let tracer = tracer.expect("tracer was on");
        let path = out.join(format!("trace-{}.jsonl", w.name));
        tracer.write_jsonl(&path).expect("write the trace file");
        println!("trace written to {}", path.display());
        for (name, s) in tracer.self_times() {
            println!("self-time {name} {s:.6} s");
        }
        let traced_s = traced.lat_ns[script.warm..].iter().sum::<u64>() as f64 / 1e9;
        correct &= traced.failed == 0 && traced.final_hash == script.final_hash;

        let reads_ns: u64 = ["STATUS", "STATS", "WHATIF", "HASH"]
            .iter()
            .flat_map(|v| floors.of_verb(v))
            .sum();
        metrics.extend([
            metric("workload.generate_ms", floors.generate_s * 1e3, reps),
            metric(
                "serve.reads_share_pct",
                reads_ns as f64 / 1e9 / measured_s * 100.0,
                measured_cmds,
            ),
            metric("host.pinned", f64::from(u8::from(pinned)), 1),
            metric("host.state_dir_tmpfs", f64::from(u8::from(tmpfs)), 1),
            metric("host.reps", reps as f64, 1),
            metric("host.rep_wall_p25", wall_p25, reps),
            metric("host.rep_wall_p50", wall_p50, reps),
            metric("host.rep_wall_p75", wall_p75, reps),
            metric(
                "host.best_rep_ops_per_s",
                measured_cmds as f64 / sorted_wall[0],
                reps,
            ),
            metric("host.cpu_share", cpu_share, 1),
            // Against the median untraced repetition: against the floor
            // it would mostly show how far one repetition sits above it.
            metric(
                "host.trace_overhead_pct",
                (traced_s / wall_p50 - 1.0) * 100.0,
                1,
            ),
        ]);
        metrics.extend(replay_rows(w, seed, make, &scratch, quick));
        metrics.extend(layers::micro(&script, &scratch, quick));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // Last, so that it covers everything this process did.
    metrics.push(metric("peak_rss_mb", host::peak_rss_mb(), 1));

    // ----- output -----
    println!(
        "workload {} seed {seed} reps {reps} script {} commands ({} measured) pinned {} state dir on tmpfs {}",
        w.name,
        script.cmds.len(),
        measured_cmds,
        u8::from(pinned),
        u8::from(tmpfs),
    );
    report::print_metrics(&metrics);
    if wall_p75 / wall_p25 > 1.5 || (!w.serve && cpu_share < 0.9) {
        println!(
            "warning: {}: the host was busy during this run (repetition wall p75/p25 {:.2}, cpu share {:.2}); numbers are reported as measured",
            w.name,
            wall_p75 / wall_p25,
            cpu_share
        );
    }
    println!(
        "correctness {} (attempted {} failed {})",
        if correct { "PASS" } else { "FAIL" },
        floors.attempted,
        floors.failed
    );
    let wanted = if args.trace {
        &defs().per_layer
    } else {
        &defs().end_to_end
    };
    let reported: Vec<&Metric> = wanted
        .iter()
        .map(|def| {
            let mut found = metrics.iter().filter(|m| m.def.name == def.name);
            let m = found
                .next()
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            assert!(found.next().is_none(), "{} was measured twice", def.name);
            m
        })
        .collect();
    println!(
        "{}",
        report::result_json(correct, floors.attempted, floors.failed, &reported)
    );
    correct
}
