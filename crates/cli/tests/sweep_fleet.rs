//! `amjs sweep` fleet contract, driven through the real binary:
//!
//! - the aggregated CSV is byte-identical across `--jobs 1/2/8`;
//! - runs that overrun the per-run deadline degrade to `timeout`
//!   instead of wedging the sweep.
//!
//! Panicking and flaky runs are the executor's business: `amjs-fleet`'s
//! engine tests and `sweep.rs`'s own hand the fleet a failing `Exec`.

use std::process::{Command, Output};
use std::time::Instant;

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
    assert!(csv1.starts_with("key,status,config,"), "{csv1}");
    assert!(csv1.contains("none-bf1-w1-s42,ok,"), "{csv1}");
    assert!(csv1.contains("avg_wait_mins_mean"), "{csv1}");
}

/// One month run on the default machine: ~0.17 s in a release build,
/// 17x the 10 ms deadline below, and longer still in debug.
const MONTH: &[&str] = &[
    "sweep",
    "--workload",
    "month",
    "--bf",
    "1",
    "--window",
    "1",
    "--quiet",
];

#[test]
fn overrunning_runs_time_out_instead_of_wedging() {
    let started = Instant::now();
    run_ok(MONTH);
    let one_run = started.elapsed();

    let deadline = [
        MONTH,
        &["--seeds", "42,43", "--jobs", "2", "--run-timeout", "0.01"],
    ]
    .concat();
    let started = Instant::now();
    let csv = run_ok(&[&deadline[..], &["--keep-going"]].concat());
    let swept = started.elapsed();
    assert_eq!(csv.matches(",timeout,").count(), 2, "{csv}");
    assert_eq!(csv.matches(",ok,").count(), 0, "{csv}");
    assert!(
        swept * 2 < one_run,
        "two timed-out runs took {swept:?}; one whole run takes {one_run:?}"
    );

    // Without --keep-going the same sweep reports failure via the exit
    // code.
    let out = amjs(&deadline);
    assert!(!out.status.success(), "degraded sweep must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degraded"), "{err}");
}
