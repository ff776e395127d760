//! Deterministic sweep aggregation: the per-run + per-config CSV, the
//! sweep benchmark JSON, and the stdout table.
//!
//! Everything here is a pure function of the grid and its records,
//! iterated **in grid order** — never in completion order — so the
//! artifacts are byte-identical across worker counts and work-stealing
//! schedules. Wall-clock numbers
//! are deliberately kept out of the CSV (they live in the benchmark
//! JSON), because they are the one thing that legitimately differs
//! between two runs of the same grid.

use amjs_core::RunSpec;
use amjs_metrics::report;

use crate::engine::{FleetReport, RunRecord, RunStatus};

/// Pulls one aggregable metric out of a (successful) run record.
type MetricFn = fn(&RunRecord) -> f64;

/// One metric column aggregated per config: label + accessor.
const AGG_METRICS: &[(&str, MetricFn)] = &[
    ("avg_wait_mins", |r| digest(r).summary.avg_wait_mins),
    ("unfair_jobs", |r| digest(r).summary.unfair_jobs as f64),
    ("loc_percent", |r| digest(r).summary.loc_percent),
    ("avg_utilization", |r| digest(r).summary.avg_utilization),
    ("mean_bounded_slowdown", |r| {
        digest(r).summary.mean_bounded_slowdown
    }),
];

fn digest(r: &RunRecord) -> &crate::digest::RunDigest {
    r.digest
        .as_ref()
        .expect("aggregation over successful runs only")
}

/// The aggregated sweep CSV: a per-run section (one row per grid point,
/// with a status column) and a per-config aggregate section (mean ±
/// 95% confidence interval over that config's successful runs).
pub fn aggregate_csv(specs: &[RunSpec], records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("key,status,");
    out.push_str(report::csv_header());
    out.push('\n');
    for (spec, rec) in specs.iter().zip(records) {
        out.push_str(&format!("{},{},", rec.key, rec.status.as_str()));
        match &rec.digest {
            Some(d) => out.push_str(&d.summary.csv_row()),
            // Degraded run: label only, metric cells empty.
            None => {
                out.push_str(&spec.label);
                out.push_str(&",".repeat(report::csv_header().matches(',').count()));
            }
        }
        out.push('\n');
    }

    out.push('\n');
    out.push_str("config,n");
    for (name, _) in AGG_METRICS {
        out.push_str(&format!(",{name}_mean,{name}_ci95"));
    }
    out.push('\n');
    for (label, group) in group_by_label(specs, records) {
        out.push_str(&format!("{label},{}", group.len()));
        for (_, get) in AGG_METRICS {
            let values: Vec<f64> = group.iter().map(|r| get(r)).collect();
            let (mean, ci) = mean_ci95(&values);
            out.push_str(&format!(",{mean:.4},{ci:.4}"));
        }
        out.push('\n');
    }
    out
}

/// Successful records grouped by config label, labels in grid
/// (first-appearance) order.
fn group_by_label<'a>(
    specs: &[RunSpec],
    records: &'a [RunRecord],
) -> Vec<(String, Vec<&'a RunRecord>)> {
    let mut groups: Vec<(String, Vec<&RunRecord>)> = Vec::new();
    for (spec, rec) in specs.iter().zip(records) {
        if !rec.status.succeeded() {
            continue;
        }
        match groups.iter_mut().find(|(l, _)| *l == spec.label) {
            Some((_, g)) => g.push(rec),
            None => groups.push((spec.label.clone(), vec![rec])),
        }
    }
    groups
}

/// Sample mean and 95% confidence half-width (`1.96·s/√n`; zero for
/// fewer than two samples).
pub fn mean_ci95(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    (mean, 1.96 * var.sqrt() / (n as f64).sqrt())
}

/// The sweep throughput benchmark artifact (`BENCH_sweep.json`):
/// run counts by status, worker count, wall clock, runs/s, aggregate
/// simulated scheduler passes/s, and per-run wall-clock quartiles.
pub fn bench_json(report: &FleetReport) -> String {
    let recs = &report.records;
    let count = |s: RunStatus| recs.iter().filter(|r| r.status == s).count();
    let wall_s = report.wall.as_secs_f64();
    let total_passes: u64 = recs
        .iter()
        .filter_map(|r| r.digest.as_ref())
        .map(|d| d.scheduler_passes)
        .sum();
    let mut walls: Vec<u64> = recs.iter().map(|r| r.wall_ms).collect();
    walls.sort_unstable();
    let q = |f: f64| -> u64 {
        if walls.is_empty() {
            return 0;
        }
        walls[((walls.len() - 1) as f64 * f).round() as usize]
    };
    format!(
        concat!(
            "{{\n",
            "  \"runs\": {},\n",
            "  \"ok\": {},\n",
            "  \"timeout\": {},\n",
            "  \"failed\": {},\n",
            "  \"workers\": {},\n",
            "  \"wall_s\": {:.3},\n",
            "  \"runs_per_s\": {:.3},\n",
            "  \"aggregate_passes_per_s\": {:.1},\n",
            "  \"run_wall_ms\": {{ \"min\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}, \"max\": {} }}\n",
            "}}\n"
        ),
        recs.len(),
        count(RunStatus::Ok),
        count(RunStatus::Timeout),
        count(RunStatus::Failed),
        report.workers,
        wall_s,
        recs.len() as f64 / wall_s.max(1e-9),
        total_passes as f64 / wall_s.max(1e-9),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
    )
}

/// Human-readable sweep table for stdout: status + the standard
/// metrics table, one row per grid point in grid order.
pub fn render_table(specs: &[RunSpec], records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:<8}  {}\n",
        "key",
        "status",
        report::table_header()
    ));
    for (spec, rec) in specs.iter().zip(records) {
        let tail = match &rec.digest {
            Some(d) => d.summary.table_row(),
            None => format!(
                "{:<14} {}",
                spec.label,
                rec.error.as_deref().unwrap_or("no result")
            ),
        };
        out.push_str(&format!(
            "{:<22} {:<8}  {}\n",
            rec.key,
            rec.status.as_str(),
            tail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_core::{MachineSpec, PolicyParams, PresetName, WorkloadSource};
    use std::time::Duration;

    fn spec(key: &str, label: &str, seed: u64) -> RunSpec {
        RunSpec::new(
            key,
            MachineSpec::Flat { nodes: 64 },
            WorkloadSource::Preset {
                name: PresetName::Small,
                seed,
                load_factor: 1.0,
            },
            PolicyParams::fcfs(),
        )
        .labeled(label)
    }

    fn record(key: &str, label: &str, status: RunStatus, wait: f64) -> RunRecord {
        let digest = status.succeeded().then(|| {
            let mut d = crate::digest::tests::sample(label);
            d.summary.avg_wait_mins = wait;
            d
        });
        RunRecord {
            key: key.to_string(),
            status,
            wall_ms: 100,
            digest,
            error: (!status.succeeded()).then(|| "boom".to_string()),
        }
    }

    fn fixture() -> (Vec<RunSpec>, Vec<RunRecord>) {
        let specs = vec![
            spec("a-s1", "cfgA", 1),
            spec("a-s2", "cfgA", 2),
            spec("b-s1", "cfgB", 1),
            spec("b-s2", "cfgB", 2),
        ];
        let records = vec![
            record("a-s1", "cfgA", RunStatus::Ok, 100.0),
            record("a-s2", "cfgA", RunStatus::Ok, 200.0),
            record("b-s1", "cfgB", RunStatus::Ok, 50.0),
            record("b-s2", "cfgB", RunStatus::Failed, 0.0),
        ];
        (specs, records)
    }

    #[test]
    fn csv_has_status_column_and_grid_order() {
        let (specs, records) = fixture();
        let csv = aggregate_csv(&specs, &records);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("key,status,config,"));
        assert!(lines[1].starts_with("a-s1,ok,cfgA,"));
        assert!(lines[2].starts_with("a-s2,ok,cfgA,"));
        assert!(lines[3].starts_with("b-s1,ok,cfgB,"));
        // The failed run keeps its row — label present, metrics empty.
        assert!(lines[4].starts_with("b-s2,failed,cfgB,"));
        assert!(lines[4].ends_with(",,"));
        // Every per-run line has the same column count as the header.
        let cols = lines[0].matches(',').count();
        for line in &lines[1..5] {
            assert_eq!(line.matches(',').count(), cols, "{line}");
        }
    }

    #[test]
    fn aggregates_mean_and_ci_over_successful_runs_only() {
        let (specs, records) = fixture();
        let csv = aggregate_csv(&specs, &records);
        let agg: Vec<&str> = csv.split("\n\n").nth(1).unwrap().lines().collect();
        assert!(agg[0].starts_with("config,n,avg_wait_mins_mean,avg_wait_mins_ci95"));
        // cfgA: two successes, waits 100 and 200 → mean 150, ci 1.96*sd/√2.
        let a: Vec<&str> = agg[1].split(',').collect();
        assert_eq!(a[0], "cfgA");
        assert_eq!(a[1], "2");
        assert_eq!(a[2], "150.0000");
        let sd = 70.710_678_118_654_76_f64; // sample sd of {100, 200}
        let ci: f64 = a[3].parse().unwrap();
        assert!((ci - 1.96 * sd / 2f64.sqrt()).abs() < 1e-3);
        // cfgB: the failed run is excluded → n = 1, ci 0.
        let b: Vec<&str> = agg[2].split(',').collect();
        assert_eq!(b[0], "cfgB");
        assert_eq!(b[1], "1");
        assert_eq!(b[2], "50.0000");
        assert_eq!(b[3], "0.0000");
    }

    #[test]
    fn mean_ci_edge_cases() {
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[7.0]), (7.0, 0.0));
        let (m, ci) = mean_ci95(&[1.0, 1.0, 1.0]);
        assert_eq!(m, 1.0);
        assert_eq!(ci, 0.0);
    }

    #[test]
    fn bench_json_counts_statuses_and_quartiles() {
        let (_, records) = fixture();
        let report = FleetReport {
            records,
            wall: Duration::from_secs(2),
            workers: 4,
        };
        let json = bench_json(&report);
        assert!(json.contains("\"runs\": 4"));
        assert!(json.contains("\"ok\": 3"));
        assert!(json.contains("\"failed\": 1"));
        assert!(json.contains("\"timeout\": 0"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"runs_per_s\": 2.000"));
        assert!(json.contains("\"p50\": 100"));
    }

    #[test]
    fn table_marks_degraded_rows() {
        let (specs, records) = fixture();
        let table = render_table(&specs, &records);
        assert!(table.contains("failed"));
        assert!(table.contains("boom"));
    }
}
