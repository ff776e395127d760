//! `amjs sweep` through the real binary:
//!
//! - the aggregated CSV is byte-identical across `--jobs 1/2/8`;
//! - an unreadable SWF trace is one `error:` line, before any grid
//!   point runs.
//!
//! A panicking grid point is the executor's business: `sweep.rs`'s own
//! tests hand `run_sweep` a failing executor.

use std::process::{Command, Output};

fn amjs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_amjs"))
        .args(args)
        .output()
        .expect("spawn amjs")
}

/// A 12-run grid over the small preset: 3 BF × 2 W × 2 seeds.
const GRID: &[&str] = &[
    "sweep",
    "--workload",
    "small",
    "--machine",
    "flat",
    "--nodes",
    "1024",
    "--bf",
    "1,0.5,0",
    "--window",
    "1,2",
    "--seeds",
    "42,43",
    "--quiet",
];

fn grid_with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = GRID.to_vec();
    v.extend(extra);
    v
}

fn run_ok(args: &[&str]) -> String {
    let out = amjs(args);
    assert!(
        out.status.success(),
        "amjs {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is utf-8")
}

#[test]
fn aggregated_csv_is_byte_identical_across_worker_counts() {
    let csv1 = run_ok(&grid_with(&["--jobs", "1"]));
    let csv2 = run_ok(&grid_with(&["--jobs", "2"]));
    let csv8 = run_ok(&grid_with(&["--jobs", "8"]));
    assert_eq!(csv1, csv2, "--jobs 2 changed the aggregated CSV");
    assert_eq!(csv1, csv8, "--jobs 8 changed the aggregated CSV");
    // Sanity: per-run rows in grid order, then the aggregate section.
    assert!(csv1.starts_with("key,config,"), "{csv1}");
    assert!(csv1.contains("none-bf1-w1-s42,BF=1/W=1,"), "{csv1}");
    assert!(csv1.contains("avg_wait_mins_mean"), "{csv1}");
}

#[test]
fn an_unreadable_trace_is_one_error_line() {
    let out = amjs(&[
        "sweep",
        "--workload",
        "/no/such/trace.swf",
        "--machine",
        "flat",
        "--nodes",
        "64",
        "--bf",
        "1",
        "--window",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: cannot read workload \"/no/such/trace.swf\": "),
        "{err}"
    );
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        !err.contains("panicked") && !err.contains("sweeping"),
        "{err}"
    );
}
