//! `simulate` and `sweep` output, pinned byte for byte.
//!
//! Every digest below was recorded from the binary of the commit before
//! `RunSpec::run` became the only path from flags to a run (this same
//! file, run at that commit), so the flag → spec → simulator plumbing
//! cannot drift without this test saying which command moved
//! (`estimates-adaptive` and `cascades-bgp-report` were recorded the
//! same way at the commit before energy, `--users` and job
//! checkpointing were removed; `sweep-2x2x2` by cutting the `attempts`
//! column out of that commit's per-run rows when the column was
//! removed, and the `status` column the same way when a panicking grid
//! point began to fail the sweep instead of leaving a row). A change that alters scheduling on purpose re-pins them,
//! like `benchmark/expected.txt`.

use std::path::Path;
use std::process::Command;

use amjs_sim::snapshot::fnv1a;

/// Run `amjs <args>` (whitespace-separated) in `dir` and return its
/// stdout; it must succeed.
fn amjs(dir: &Path, args: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("spawn amjs");
    assert!(out.status.success(), "amjs {args} failed: {out:?}");
    out.stdout
}

/// FNV-1a over `--quiet` stdout, the `--series` file and the
/// `--jobs-csv` file of one `simulate` invocation.
fn run_digest(dir: &Path, args: &str) -> u64 {
    let files = "--quiet --series series.csv --jobs-csv jobs.csv";
    let mut bytes = amjs(dir, &format!("{args} {files}"));
    bytes.extend(std::fs::read(dir.join("series.csv")).unwrap());
    bytes.extend(std::fs::read(dir.join("jobs.csv")).unwrap());
    fnv1a(&bytes)
}

const SMALL_FLAT: &str = "--workload small --machine flat --nodes 640";
/// Capped retries and short repairs: at this fault rate an unbounded
/// retry loop runs for simulated years.
const CASCADES_BGP: &str = "simulate --workload small --machine bgp --nodes 4096 \
     --node-mtbf 240 --repair-time 0.5 --max-attempts 5 --cascade-prob 0.4 \
     --burst-model weibull:0.7 --oracle";

#[test]
fn simulate_and_sweep_outputs_are_pinned() {
    let dir = std::env::temp_dir().join(format!("amjs-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let static_run = format!("simulate {SMALL_FLAT} --bf 0.5 --window 2");
    amjs(&dir, "workload --preset small --seed 5 --out trace.swf");

    let found = [
        ("static", run_digest(&dir, &static_run)),
        // No --threshold: exercises the base pre-run.
        (
            "adaptive-2d",
            run_digest(&dir, &format!("simulate {SMALL_FLAT} --adaptive 2d")),
        ),
        (
            "estimates-adaptive",
            run_digest(&dir, &format!("{static_run} --estimates adaptive")),
        ),
        ("cascades-bgp", run_digest(&dir, CASCADES_BGP)),
        // Without --quiet: the stdout carries the failure-domain table.
        ("cascades-bgp-report", fnv1a(&amjs(&dir, CASCADES_BGP))),
        (
            "replay-swf",
            run_digest(
                &dir,
                "simulate --workload trace.swf --machine flat --nodes 1024 --bf 0.5 --window 2",
            ),
        ),
        (
            "sweep-2x2x2",
            fnv1a(&amjs(
                &dir,
                &format!("sweep {SMALL_FLAT} --bf 1,0.5 --window 1,2 --seeds 1,2 --jobs 2 --quiet"),
            )),
        ),
    ];

    let _ = std::fs::remove_dir_all(&dir);
    let found: Vec<String> = found
        .iter()
        .map(|(name, digest)| format!("{name} {digest:016x}"))
        .collect();
    assert_eq!(found, PINNED, "found:\n{}", found.join("\n"));
}

const PINNED: &[&str] = &[
    "static 4189decfecfee5f9",
    "adaptive-2d 97ae465925c0c6b9",
    "estimates-adaptive a67a7c4acba6572f",
    "cascades-bgp f0519ed1a2abd1c7",
    "cascades-bgp-report 0981afc023b8f6ae",
    "replay-swf 14f3d95bc308ecd1",
    "sweep-2x2x2 b7b4ccd095a38d8e",
];
