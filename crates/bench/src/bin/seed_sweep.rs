//! Robustness: Table II across many workload seeds.
//!
//! The paper evaluates on one fixed production trace; a synthetic
//! reproduction can do better and ask whether the conclusions survive
//! workload resampling. This experiment reruns the Table II
//! configurations over N seeds and reports mean ± stddev per cell, plus
//! how often each qualitative ordering held.
//!
//! The grid runs on the parallel sweep runner in two phases, because
//! the adaptive thresholds are calibrated from each seed's base run. `--jobs 1` reproduces the old sequential sweep;
//! higher worker counts change only the wall clock, never the numbers.
//!
//! Usage: `cargo run -p amjs-bench --release --bin seed_sweep
//!         [--seeds N] [--fast] [--jobs N]`

use amjs_bench::harness;
use amjs_bench::{results, table};
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, RunDigest, RunSpec};

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn spec(
    key: String,
    label: &str,
    seed: u64,
    fast: bool,
    policy: PolicyParams,
    adaptive: AdaptiveKind,
) -> RunSpec {
    let mut s = RunSpec::new(
        key,
        MachineSpec::intrepid(),
        harness::experiment_workload(seed, fast),
        policy,
    )
    .labeled(label);
    s.adaptive = adaptive;
    s
}

fn main() {
    // Local argument handling: --seeds N (count), --fast, --jobs N.
    let args: Vec<String> = std::env::args().collect();
    let mut n_seeds = 8usize;
    let mut fast = false;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                n_seeds = args[i + 1].parse().expect("--seeds N");
                i += 2;
            }
            "--jobs" => {
                jobs = args[i + 1].parse().expect("--jobs N");
                i += 2;
            }
            "--fast" => {
                fast = true;
                i += 1;
            }
            other => {
                panic!("unknown argument {other:?} (supported: --seeds N, --fast, --jobs N)")
            }
        }
    }

    let seeds: Vec<u64> = (0..n_seeds).map(|i| 1000 + i as u64 * 77).collect();

    // Phase 1: the base configuration per seed, whose mean queue depth
    // calibrates that seed's adaptive thresholds.
    let base_specs: Vec<RunSpec> = seeds
        .iter()
        .map(|&seed| {
            spec(
                format!("base-s{seed}"),
                "BF=1/W=1",
                seed,
                fast,
                PolicyParams::new(1.0, 1),
                AdaptiveKind::None,
            )
        })
        .collect();
    let base_digests = harness::run_sweep(&base_specs, jobs);

    // Phase 2: the remaining five Table II rows per seed.
    let labels = [
        "BF=1/W=1",
        "BF=1/W=4",
        "BF=0.5/W=1",
        "BF=0.5/W=4",
        "BF Adapt.",
        "2D Adapt.",
    ];
    let mut rest_specs = Vec::new();
    for (&seed, base) in seeds.iter().zip(&base_digests) {
        let threshold = if base.queue_depth_mean > 0.0 {
            base.queue_depth_mean
        } else {
            1000.0
        };
        eprintln!(
            "seed {seed}: base wait {:.0} min, threshold {threshold:.0} min",
            base.summary.avg_wait_mins
        );
        let rows: [(&str, &str, PolicyParams, AdaptiveKind); 5] = [
            (
                "bf1-w4",
                labels[1],
                PolicyParams::new(1.0, 4),
                AdaptiveKind::None,
            ),
            (
                "bf0.5-w1",
                labels[2],
                PolicyParams::new(0.5, 1),
                AdaptiveKind::None,
            ),
            (
                "bf0.5-w4",
                labels[3],
                PolicyParams::new(0.5, 4),
                AdaptiveKind::None,
            ),
            (
                "bf-adapt",
                labels[4],
                PolicyParams::fcfs(),
                AdaptiveKind::Bf { threshold },
            ),
            (
                "2d-adapt",
                labels[5],
                PolicyParams::fcfs(),
                AdaptiveKind::TwoD { threshold },
            ),
        ];
        for (stem, label, policy, adaptive) in rows {
            rest_specs.push(spec(
                format!("{stem}-s{seed}"),
                label,
                seed,
                fast,
                policy,
                adaptive,
            ));
        }
    }
    let rest_digests = harness::run_sweep(&rest_specs, jobs);

    // Regroup: per-seed rows [base, bf1-w4, bf0.5-w1, bf0.5-w4, bf, 2d].
    let mut waits: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut unfairs: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut locs: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut orderings_held = [0usize; 3];
    for (idx, base) in base_digests.iter().enumerate() {
        let per_seed: Vec<&RunDigest> = std::iter::once(base)
            .chain(rest_digests[idx * 5..idx * 5 + 5].iter())
            .collect();
        for (k, d) in per_seed.iter().enumerate() {
            waits[k].push(d.summary.avg_wait_mins);
            unfairs[k].push(d.summary.unfair_jobs as f64);
            locs[k].push(d.summary.loc_percent);
        }
        // Orderings the reproduction pins (see tests/paper_shapes.rs):
        // (1) BF=0.5/W=1 beats the base on wait;
        // (2) unfairness grows from base to BF=0.5/W=4;
        // (3) 2D stays fairer than BF=0.5/W=4.
        let s = |k: usize| &per_seed[k].summary;
        if s(2).avg_wait_mins < s(0).avg_wait_mins {
            orderings_held[0] += 1;
        }
        if s(3).unfair_jobs > s(0).unfair_jobs {
            orderings_held[1] += 1;
        }
        if s(5).unfair_jobs <= s(3).unfair_jobs {
            orderings_held[2] += 1;
        }
    }

    let header = [
        "configuration",
        "wait (mean±sd)",
        "unfair (mean±sd)",
        "LoC% (mean±sd)",
    ];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .enumerate()
        .map(|(k, label)| {
            let (wm, ws) = mean_std(&waits[k]);
            let (um, us) = mean_std(&unfairs[k]);
            let (lm, ls) = mean_std(&locs[k]);
            vec![
                label.to_string(),
                format!("{wm:.0}±{ws:.0}"),
                format!("{um:.0}±{us:.0}"),
                format!("{lm:.1}±{ls:.1}"),
            ]
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "Seed robustness — Table II configurations over {n_seeds} workload seeds\n\n"
    ));
    out.push_str(&table::render(&header, &rows));
    out.push_str(&format!(
        "\norderings held across seeds:\n\
         \x20 BF=0.5 cuts wait vs base:          {}/{n_seeds}\n\
         \x20 unfairness grows toward BF=0.5/W=4: {}/{n_seeds}\n\
         \x20 2D fairer than BF=0.5/W=4:          {}/{n_seeds}\n",
        orderings_held[0], orderings_held[1], orderings_held[2]
    ));
    print!("{out}");
    results::write_result("seed_sweep.txt", &out);
}
