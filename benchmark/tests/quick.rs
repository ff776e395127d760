//! Smoke test: every workload runs in `--quick` size, prints every metric
//! `BENCHMARK.json` lists exactly once, fails no operation, and repeats
//! its exact counts from one run to the next.

use std::collections::BTreeMap;
use std::process::Command;

use amjs_obs::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Run {
    /// `metric <name> <value> <unit> n=<samples>` lines, in print order.
    lines: Vec<(String, f64, String)>,
    /// The result object on the last line of standard output.
    result: Json,
}

fn run(workload: &str, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_amjs-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--quick"])
        .args(["--trace", trace])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}",
        out.status
    );
    let lines = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 4, "malformed metric line {l:?}");
            assert!(f[3].starts_with("n="), "no sample count in {l:?}");
            let value = f[1].parse().expect("metric value is a number");
            (f[0].to_string(), value, f[2].to_string())
        })
        .collect();
    let last = stdout.lines().last().expect("some output");
    Run {
        lines,
        result: json::parse(last).expect("the last line is one JSON object"),
    }
}

/// `(name, unit)` of every metric under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let rows = root.get(key).and_then(Json::as_arr).expect("metric list");
    rows.iter()
        .map(|row| {
            let text = |k| row.get(k).and_then(Json::as_str).expect("string field");
            (text("name").to_string(), text("unit").to_string())
        })
        .collect()
}

fn result_names(run: &Run) -> Vec<String> {
    match run.result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn check_workload(workload: &str) {
    let all: Vec<(String, String)> = [listed("end_to_end"), listed("per_layer")].concat();
    let first = run(workload, "1");
    let second = run(workload, "1");

    let mut seen = BTreeMap::new();
    for (name, _, unit) in &first.lines {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        assert!(!unit.is_empty(), "{name} has no unit");
        assert!(
            seen.insert(name.clone(), unit.clone()).is_none(),
            "{name} is printed twice"
        );
    }
    for (name, unit) in &all {
        assert_eq!(seen.get(name), Some(unit), "{workload}: {name} [{unit}]");
    }
    assert_eq!(
        seen.len(),
        all.len(),
        "a printed metric is not in BENCHMARK.json"
    );

    for ((name, a, unit), (_, b, _)) in first.lines.iter().zip(&second.lines) {
        if unit == "count" {
            assert_eq!(a, b, "{workload}: count {name} differs between two runs");
        }
    }

    for r in [&first, &second] {
        assert_eq!(r.result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(r.result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(r.result.get("attempted").and_then(Json::as_u64) >= Some(1));
    }
    let layer_names: Vec<String> = listed("per_layer").into_iter().map(|d| d.0).collect();
    assert_eq!(result_names(&first), layer_names);
    let e2e_names: Vec<String> = listed("end_to_end").into_iter().map(|d| d.0).collect();
    assert_eq!(result_names(&run(workload, "0")), e2e_names);
}

#[test]
fn lib_month() {
    check_workload("lib-month");
}

#[test]
fn lib_window() {
    check_workload("lib-window");
}

#[test]
fn serve_write() {
    check_workload("serve-write");
}

#[test]
fn serve_readmix() {
    check_workload("serve-readmix");
}
