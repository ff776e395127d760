//! Hot-path perf trajectory: how fast is the incremental scheduler,
//! and is it still byte-identical to the from-scratch one?
//!
//! Runs the month-long Intrepid trace on the optimized hot path and on
//! the reference path ([`RunSpec::builder`] with
//! [`reference_hotpath`](amjs_core::runner::SimulationBuilder::reference_hotpath):
//! a full rescore and resort every pass, no pass memo, and fresh
//! fair-start drains — on the same plans, which have one query path),
//! asserting the two produce the same summary row, then records the
//! trajectory in `results/BENCH_hotpath.json`:
//!
//! * wall-clock quartiles over best-of-N interleaved reps, passes/s and
//!   derived events/s for both paths, and their speedup;
//! * a per-span breakdown of one profiled optimized run;
//! * an allocator microbench: word-parallel [`UnitMask`] range ops and
//!   buddy scans vs their naive bit-loop counterparts.
//!
//! The run is gated: optimized passes/s must stay above the
//! `floor_passes_per_s` stored in the checked-in artefact — 0.85 × the
//! optimized passes/s of the run that last regenerated it, so losing
//! any one hot-path layer trips it (override with
//! `AMJS_HOTPATH_FLOOR=<passes/s>` on a slower host; `--fast` skips the
//! gate and leaves the floor as it found it). Without `--fast`, a run
//! with no floor to gate on (the artefact missing, unparseable or
//! without one, and no override) stops with an `error:` line before it
//! starts. The artefact is the repository's, located at build time,
//! whatever directory the binary runs in. The reference path must also
//! report zero resumed drains and zero memoized passes, and the
//! window-search work counters (`window_searches`, `window_placements`,
//! `window_bound_exits`, and `windows_unplanned`, the windows the window
//! stop skipped — exact counts, on this trace and on a W=4 flat month
//! where the search dominates) must equal the artefact's: losing the
//! walk's prefix sharing, either bound or the stop moves them, and a
//! count cannot be noisy. The heap allocations of the `reuse` month and
//! of the W=4 flat month (`heap_allocations`, counted by this binary's
//! global allocator on the running thread) are gated the same way: the
//! pass and the drain allocate nothing in steady state, so a buffer that
//! stops being reused moves the count. CI runs all three checks in the
//! perf-trajectory job.
//!
//! Usage: `cargo run -p amjs-bench --release --bin ablation_hotpath [--seed N] [--fast]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::{MachineSpec, PassCacheStats, PolicyParams, RunSpec, WorkloadSource};
use amjs_obs::json::Json;
use amjs_obs::{Observer, Profiler};
use amjs_platform::mask::UnitMask;
use amjs_platform::BgpCluster;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation made
/// on the thread that asks.
struct Counting;

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap allocations it made on this thread.
fn counting_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The artefact this binary regenerates — and reads its own gate from.
const ARTEFACT: &str = "BENCH_hotpath.json";

/// Each regeneration sets the next floor to this share of its own
/// optimized passes/s.
const FLOOR_SHARE: f64 = 0.85;

/// The artefact as the run that last regenerated it left it.
fn recorded(path: &std::path::Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    amjs_obs::json::parse(&text).ok()
}

/// The exact counters of a month under the names the artefact gives
/// them: the window search's work and the run's heap allocations.
fn exact_counters(stats: &PassCacheStats, allocations: u64) -> [(&'static str, u64); 5] {
    [
        ("window_searches", stats.window_searches),
        ("window_placements", stats.window_placements),
        ("window_bound_exits", stats.window_bound_exits),
        ("windows_unplanned", stats.windows_unplanned),
        ("heap_allocations", allocations),
    ]
}

fn json_fields(fields: &[(&str, u64)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    fields.join(", ")
}

/// Quartiles of a sorted sample, in milliseconds.
fn quartiles_ms(sorted: &[f64]) -> (f64, f64, f64, f64, f64) {
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize] * 1e3;
    (q(0.0), q(0.25), q(0.5), q(0.75), q(1.0))
}

fn json_quartiles(sorted: &[f64]) -> String {
    let (min, p25, p50, p75, max) = quartiles_ms(sorted);
    format!(
        "{{ \"min\": {min:.1}, \"p25\": {p25:.1}, \"p50\": {p50:.1}, \"p75\": {p75:.1}, \"max\": {max:.1} }}"
    )
}

/// ~1M-op microbench of one mask routine; returns Mops/s.
fn mops(mut op: impl FnMut(u64)) -> f64 {
    const OPS: u64 = 1_000_000;
    let t0 = Instant::now();
    for i in 0..OPS {
        op(i);
    }
    OPS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

fn main() {
    let (seed, fast) = harness::parse_args();
    let artefact = results::results_dir().join(ARTEFACT);
    let recorded = recorded(&artefact);
    let floor = std::env::var("AMJS_HOTPATH_FLOOR")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .or_else(|| recorded.as_ref()?.get("floor_passes_per_s")?.as_f64());
    if !fast && floor.is_none() {
        eprintln!(
            "error: no floor_passes_per_s in {} (missing or unparseable) and no AMJS_HOTPATH_FLOOR set",
            artefact.display()
        );
        std::process::exit(1);
    }
    let spec = RunSpec::new(
        "bf0.5-w2",
        MachineSpec::intrepid(),
        harness::experiment_workload(seed, fast),
        PolicyParams::new(0.5, 2),
    );
    let jobs = spec.jobs();
    let run = |obs| spec.run(jobs.clone(), obs).0;
    eprintln!(
        "ablation_hotpath: {} jobs, config {}",
        jobs.len(),
        spec.label
    );

    let reps_opt = if fast { 3 } else { 7 };
    let reps_ref = if fast { 1 } else { 3 };

    // Interleave optimized and reference reps so slow machine drift
    // cannot masquerade as a path difference; take best-of-N walls.
    let (probe, probe_allocations) = counting_allocations(|| run(Observer::disabled()));
    let baseline_row = probe.summary.csv_row();
    let passes = probe.scheduler_passes;
    // Derived event count: one submit/start/end per completed job plus
    // one event per scheduling pass (the outcome does not expose the
    // raw engine event counter).
    let events = 3 * probe.per_job.len() as u64 + passes;

    let mut opt_walls = Vec::new();
    let mut ref_walls = Vec::new();
    let reuse = probe.hotpath;
    for rep in 0..reps_opt {
        let t0 = Instant::now();
        let (out, allocations) = counting_allocations(|| run(Observer::disabled()));
        opt_walls.push(t0.elapsed().as_secs_f64());
        assert_eq!(out.summary.csv_row(), baseline_row, "optimized run drifted");
        assert_eq!(
            allocations, probe_allocations,
            "optimized run allocated differently"
        );
        if rep < reps_ref {
            let t0 = Instant::now();
            let out = spec
                .builder(BgpCluster::intrepid(), jobs.clone())
                .reference_hotpath(true)
                .run();
            ref_walls.push(t0.elapsed().as_secs_f64());
            assert_eq!(
                out.summary.csv_row(),
                baseline_row,
                "reference path must be byte-identical to the optimized path"
            );
            assert_eq!(
                (out.hotpath.drains_resumed, out.hotpath.passes_memoized),
                (0, 0),
                "reference path must drain and pass from scratch"
            );
        }
    }
    opt_walls.sort_by(f64::total_cmp);
    ref_walls.sort_by(f64::total_cmp);
    let opt_best = opt_walls[0];
    let ref_best = ref_walls[0];
    let opt_pps = passes as f64 / opt_best;
    let ref_pps = passes as f64 / ref_best;

    // Where the window search dominates: a flat machine of Intrepid's
    // size at 1.5x load with W=4 (24 permutations a window), with every
    // reservation protected and unlimited backfill depth.
    let mut workload = harness::experiment_workload(seed, fast);
    if let WorkloadSource::Preset { load_factor, .. } = &mut workload {
        *load_factor = 1.5;
    }
    let mut w4_spec = RunSpec::new(
        "w4-flat",
        MachineSpec::Flat { nodes: 40_960 },
        workload,
        PolicyParams::new(0.5, 4),
    );
    w4_spec.easy_protected = None;
    w4_spec.backfill_depth = None;
    let w4_jobs = w4_spec.jobs();
    let w4_runs: Vec<_> = (0..reps_ref)
        .map(|_| {
            let t0 = Instant::now();
            let (out, allocations) =
                counting_allocations(|| w4_spec.run(w4_jobs.clone(), Observer::disabled()).0);
            (t0.elapsed().as_secs_f64(), out, allocations)
        })
        .collect();
    let w4_best = w4_runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let (_, w4, w4_allocations) = &w4_runs[0];
    assert!(
        w4_runs.iter().all(|r| r.2 == *w4_allocations),
        "W=4 flat runs allocated differently"
    );

    // Per-span breakdown of one profiled optimized run.
    let prof = Rc::new(RefCell::new(Profiler::new()));
    let (out, mut obs) = spec.run(
        jobs.clone(),
        Observer::disabled().with_profiler(prof.clone()),
    );
    obs.finish();
    assert_eq!(out.summary.csv_row(), baseline_row);
    let span_json: Vec<String> = prof
        .borrow()
        .spans()
        .iter()
        .map(|(name, s)| {
            format!(
                "    {{ \"span\": \"{name}\", \"count\": {}, \"total_ms\": {:.2} }}",
                s.count,
                s.total.as_secs_f64() * 1e3
            )
        })
        .collect();

    // Allocator microbench: the word-parallel primitives vs the naive
    // bit loops, on the Intrepid-shaped 80-unit mask.
    let units: u16 = 80;
    let mut m = UnitMask::empty();
    let word_set = mops(|i| m.set_range((i % 73) as u16, 8));
    let mut m = UnitMask::empty();
    let naive_set = mops(|i| m.set_range_naive((i % 73) as u16, 8));
    let mut m = UnitMask::empty();
    m.set_range(0, 40);
    let word_scan = mops(|i| {
        let k = 1 << (i % 4);
        std::hint::black_box(m.first_clear_aligned_block(k, units));
    });
    let naive_scan = mops(|i| {
        let k = 1 << (i % 4);
        std::hint::black_box(m.first_clear_aligned_block_naive(k, units));
    });

    let rows = vec![
        vec![
            "optimized".to_string(),
            table::num(opt_best, 3),
            table::num(opt_pps / 1e3, 1),
            table::num(events as f64 / opt_best / 1e3, 1),
        ],
        vec![
            "reference".to_string(),
            table::num(ref_best, 3),
            table::num(ref_pps / 1e3, 1),
            table::num(events as f64 / ref_best / 1e3, 1),
        ],
    ];
    print!(
        "{}",
        table::render(&["hot path", "wall(s)", "kpass/s", "kevent/s"], &rows)
    );
    eprintln!(
        "speedup: {:.2}x  (allocator: set {word_set:.0} vs {naive_set:.0} Mops/s, scan {word_scan:.1} vs {naive_scan:.1} Mops/s)",
        ref_best / opt_best
    );

    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"jobs\": {},\n  \"scheduler_passes\": {},\n  \"events\": {},\n  \"reuse\": {{ \"cache_hits\": {}, \"cache_repairs\": {}, \"cache_misses\": {}, \"drains_fresh\": {}, \"drains_resumed\": {}, \"drain_placements_reused\": {}, \"passes_memoized\": {}, {} }},\n  \"window4_flat\": {{ \"jobs\": {}, \"scheduler_passes\": {}, \"passes_per_s\": {:.1}, {} }},\n  \"optimized\": {{\n    \"reps\": {},\n    \"passes_per_s\": {:.1},\n    \"events_per_s\": {:.1},\n    \"run_wall_ms\": {}\n  }},\n  \"reference\": {{\n    \"reps\": {},\n    \"passes_per_s\": {:.1},\n    \"events_per_s\": {:.1},\n    \"run_wall_ms\": {}\n  }},\n  \"speedup\": {:.2},\n  \"floor_passes_per_s\": {:.0},\n  \"spans\": [\n{}\n  ]\n}}\n",
        if fast { "intrepid-week" } else { "intrepid-month" },
        jobs.len(),
        passes,
        events,
        reuse.hits,
        reuse.repairs,
        reuse.misses,
        reuse.drains_fresh,
        reuse.drains_resumed,
        reuse.drain_placements_reused,
        reuse.passes_memoized,
        json_fields(&exact_counters(&reuse, probe_allocations)),
        w4_jobs.len(),
        w4.scheduler_passes,
        w4.scheduler_passes as f64 / w4_best,
        json_fields(&exact_counters(&w4.hotpath, *w4_allocations)),
        reps_opt,
        opt_pps,
        events as f64 / opt_best,
        json_quartiles(&opt_walls),
        reps_ref,
        ref_pps,
        events as f64 / ref_best,
        json_quartiles(&ref_walls),
        ref_best / opt_best,
        // A week-sized run is no basis for the month's floor.
        if fast {
            floor.unwrap_or(0.0)
        } else {
            FLOOR_SHARE * opt_pps
        },
        span_json.join(",\n")
    );
    let path = results::write_result(ARTEFACT, &json);
    eprintln!("wrote {}", path.display());

    // The perf gate: the month-trace trajectory must not slide back
    // past what the last regeneration recorded.
    if let (false, Some(floor)) = (fast, floor) {
        assert!(
            opt_pps >= floor,
            "hot path ran at {opt_pps:.0} passes/s, below the recorded floor {floor:.0}"
        );
        eprintln!("perf gate: {opt_pps:.0} passes/s >= {floor:.0} OK");
    }

    // The count gate: same trace, same seed => the same search work.
    let field = |path: &[&str]| {
        let mut at = recorded.as_ref()?;
        for key in path {
            at = at.get(key)?;
        }
        at.as_f64()
    };
    if field(&["seed"]) == Some(seed as f64) && field(&["jobs"]) == Some(jobs.len() as f64) {
        for (block, stats, allocations) in [
            ("reuse", &reuse, probe_allocations),
            ("window4_flat", &w4.hotpath, *w4_allocations),
        ] {
            for (name, now) in exact_counters(stats, allocations) {
                assert_eq!(
                    Some(now as f64),
                    field(&[block, name]),
                    "{block}.{name} moved from the recorded value"
                );
            }
        }
        eprintln!("count gate: window-search and allocation counts match the artefact OK");
    } else {
        eprintln!("count gate: skipped, the artefact records another seed or trace");
    }
}
