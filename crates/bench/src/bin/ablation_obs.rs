//! Observability experiment: what does watching the scheduler cost?
//!
//! The observability layer promises "pay for what you use": a disabled
//! `Observer` compiles down to a handful of `Option::is_some` checks,
//! and an attached sink only ever clones small value structs. This
//! experiment runs the same month-long trace under each mode —
//! baseline (`run()`), disabled observer, in-memory ring sink, JSONL
//! file sink, and span profiling — reporting wall time, events/sec,
//! overhead, and records captured. The ring-buffer path — the mode
//! meant to be left on in production runs — is budgeted in absolute
//! terms (500 ns/record, plus a 25% relative ceiling), because its
//! cost is fixed per record while the baseline keeps getting faster.
//!
//! Measured shape (see EXPERIMENTS.md): the disabled observer is
//! indistinguishable from the baseline; the ring sink costs a few
//! percent (struct clones into a preallocated ring); the JSONL sink is
//! dominated by serialization + buffered file writes; profiling costs
//! two `Instant::now()` calls per span and sits near the ring sink.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_obs [--seed N] [--fast]`

use std::cell::RefCell;
use std::fs;
use std::io::BufWriter;
use std::rc::Rc;
use std::time::Instant;

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::{MachineSpec, PolicyParams, RunSpec};
use amjs_obs::{JsonlSink, Observer, Profiler, RingSink};

/// Ring capacity used for the always-on mode; generous enough that the
/// tail of a month run survives, small enough to stay cache-friendly.
const RING_CAPACITY: usize = 8 * 1024;

/// Probe returning how many records a mode captured in the last rep.
type RecordProbe = Box<dyn Fn() -> u64>;
/// Builds a fresh observer (and its probe) for one timed rep.
type ModeFactory = Box<dyn Fn() -> (Observer, RecordProbe)>;

fn main() {
    let (seed, fast) = harness::parse_args();
    let spec = RunSpec::new(
        "bf0.5-w2",
        MachineSpec::intrepid(),
        harness::experiment_workload(seed, fast),
        PolicyParams::new(0.5, 2),
    );
    let jobs = spec.jobs();
    let run = |obs| spec.run(jobs.clone(), obs);
    eprintln!("ablation_obs: {} jobs, config {}", jobs.len(), spec.label);

    // Best-of-7, with reps interleaved round-robin across all modes:
    // a run is around half a second, so measuring each mode in its own
    // contiguous block would let slow machine drift (thermal, page
    // cache, a background task) masquerade as per-mode overhead.
    const REPS: usize = 7;
    let baseline = run(Observer::disabled()).0;
    let baseline_row = baseline.summary.csv_row();
    let events = baseline.scheduler_passes;

    // Each mode builds a fresh Observer per rep and reports the records
    // it captured; every mode must reproduce the baseline outcome.
    let trace_path =
        std::env::temp_dir().join(format!("amjs-ablation-obs-{}.jsonl", std::process::id()));
    let modes: Vec<(&str, ModeFactory)> = vec![
        (
            "observer disabled",
            Box::new(|| (Observer::disabled(), Box::new(|| 0u64) as RecordProbe)),
        ),
        (
            "ring sink (8k)",
            Box::new(|| {
                let sink = Rc::new(RefCell::new(RingSink::new(RING_CAPACITY)));
                let probe = sink.clone();
                (
                    Observer::disabled().with_sink(sink),
                    Box::new(move || probe.borrow().total_recorded()) as RecordProbe,
                )
            }),
        ),
        (
            "jsonl file sink",
            Box::new({
                let trace_path = trace_path.clone();
                move || {
                    let file = fs::File::create(&trace_path).unwrap();
                    let sink = Rc::new(RefCell::new(JsonlSink::new(BufWriter::new(file))));
                    let probe = sink.clone();
                    let path = trace_path.clone();
                    let written = move || {
                        let sink = probe.borrow();
                        if let Some(e) = sink.error() {
                            panic!("cannot write {}: {e}", path.display());
                        }
                        sink.written()
                    };
                    (
                        Observer::disabled().with_sink(sink),
                        Box::new(written) as RecordProbe,
                    )
                }
            }),
        ),
        (
            "span profiling",
            Box::new(|| {
                let prof = Rc::new(RefCell::new(Profiler::new()));
                let probe = prof.clone();
                (
                    Observer::disabled().with_profiler(prof),
                    Box::new(move || {
                        probe
                            .borrow()
                            .spans()
                            .values()
                            .map(|s| s.count)
                            .sum::<u64>()
                    }) as RecordProbe,
                )
            }),
        ),
    ];

    let mut base_secs = f64::INFINITY;
    let mut mode_secs = vec![f64::INFINITY; modes.len()];
    let mut mode_records = vec![0u64; modes.len()];
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = run(Observer::disabled()).0;
        base_secs = base_secs.min(t0.elapsed().as_secs_f64());
        assert_eq!(out.summary.csv_row(), baseline_row);

        for (i, (name, make)) in modes.iter().enumerate() {
            let (obs, count) = make();
            let t0 = Instant::now();
            let (out, mut obs) = run(obs);
            mode_secs[i] = mode_secs[i].min(t0.elapsed().as_secs_f64());
            obs.finish();
            mode_records[i] = count();
            assert_eq!(
                out.summary.csv_row(),
                baseline_row,
                "{name}: observability must not change the outcome"
            );
            // Unlink the JSONL file immediately: dropping its dirty
            // pages keeps the kernel's async writeback from taxing
            // whichever mode happens to be timed next.
            let _ = fs::remove_file(&trace_path);
        }
    }

    let mut rows = vec![vec![
        "baseline (run)".to_string(),
        table::num(base_secs, 3),
        table::num(events as f64 / base_secs / 1_000.0, 1),
        "-".to_string(),
        "-".to_string(),
    ]];
    let mut ring_overhead = None;
    for (i, (name, _)) in modes.iter().enumerate() {
        let secs = mode_secs[i];
        let overhead = (secs / base_secs - 1.0) * 100.0;
        if *name == "ring sink (8k)" {
            ring_overhead = Some(overhead);
        }
        rows.push(vec![
            name.to_string(),
            table::num(secs, 3),
            table::num(events as f64 / secs / 1_000.0, 1),
            table::num(overhead, 1),
            if mode_records[i] == 0 {
                "-".to_string()
            } else {
                mode_records[i].to_string()
            },
        ]);
    }

    let header = [
        "observability",
        "wall(s)",
        "kpass/s",
        "overhead(%)",
        "records",
    ];
    let rendered = table::render(&header, &rows);
    print!("{rendered}");
    let path = results::write_result("ablation_obs.txt", &rendered);
    eprintln!("wrote {}", path.display());

    // The always-on mode must stay cheap. Allow slack in --fast smoke
    // runs, where sub-100ms walls make percentages pure noise. The
    // budget is 25%, not the original 5%: the ring's cost is a fixed
    // amount of work per event, and the incremental-scheduler work
    // (dirty-score cache + overlay timelines) more than halved the
    // baseline wall, so the same absolute cost now reads as a larger
    // fraction. Guard the absolute cost too, so a genuinely slower
    // sink cannot hide behind a faster scheduler.
    let ring = ring_overhead.expect("ring mode ran");
    if !fast {
        assert!(
            ring < 25.0,
            "ring-buffer tracing overhead {ring:.1}% breaches the 25% budget"
        );
        let ring_idx = modes
            .iter()
            .position(|(n, _)| *n == "ring sink (8k)")
            .unwrap();
        let ns_per_record =
            (mode_secs[ring_idx] - base_secs).max(0.0) * 1e9 / mode_records[ring_idx] as f64;
        assert!(
            ns_per_record < 500.0,
            "ring-buffer tracing costs {ns_per_record:.0} ns/record (budget 500 ns)"
        );
        eprintln!("ring-buffer overhead: {ring:.1}% ({ns_per_record:.0} ns/record)");
    } else {
        eprintln!("ring-buffer overhead: {ring:.1}% (budget 25%)");
    }
}
