//! Deterministic sweep aggregation: the per-run + per-config CSV and
//! the stdout table.
//!
//! Everything here is a pure function of the grid and its digests,
//! iterated **in grid order** — never in completion order — so the
//! output is byte-identical across worker counts. Wall-clock numbers
//! are kept out of it, because they are the one thing that
//! legitimately differs between two runs of the same grid.

use amjs_core::{RunDigest, RunSpec};
use amjs_metrics::report;

/// Pulls one aggregable metric out of a run's digest.
type MetricFn = fn(&RunDigest) -> f64;

/// One metric column aggregated per config: label + accessor.
const AGG_METRICS: &[(&str, MetricFn)] = &[
    ("avg_wait_mins", |d| d.summary.avg_wait_mins),
    ("unfair_jobs", |d| d.summary.unfair_jobs as f64),
    ("loc_percent", |d| d.summary.loc_percent),
    ("avg_utilization", |d| d.summary.avg_utilization),
    ("mean_bounded_slowdown", |d| d.summary.mean_bounded_slowdown),
];

/// The aggregated sweep CSV: a per-run section (one row per grid point)
/// and a per-config aggregate section (mean ± 95% confidence interval
/// over that config's runs). `digests` is aligned with `specs`.
pub fn aggregate_csv(specs: &[RunSpec], digests: &[RunDigest]) -> String {
    let mut out = String::new();
    out.push_str("key,");
    out.push_str(report::csv_header());
    out.push('\n');
    for (spec, d) in specs.iter().zip(digests) {
        out.push_str(&format!("{},{}\n", spec.key, d.summary.csv_row()));
    }

    out.push('\n');
    out.push_str("config,n");
    for (name, _) in AGG_METRICS {
        out.push_str(&format!(",{name}_mean,{name}_ci95"));
    }
    out.push('\n');
    for (label, group) in group_by_label(specs, digests) {
        out.push_str(&format!("{label},{}", group.len()));
        for (_, get) in AGG_METRICS {
            let values: Vec<f64> = group.iter().map(|d| get(d)).collect();
            let (mean, ci) = mean_ci95(&values);
            out.push_str(&format!(",{mean:.4},{ci:.4}"));
        }
        out.push('\n');
    }
    out
}

/// Digests grouped by config label, labels in grid (first-appearance)
/// order.
fn group_by_label<'a>(
    specs: &'a [RunSpec],
    digests: &'a [RunDigest],
) -> Vec<(&'a str, Vec<&'a RunDigest>)> {
    let mut groups: Vec<(&str, Vec<&RunDigest>)> = Vec::new();
    for (spec, d) in specs.iter().zip(digests) {
        match groups.iter_mut().find(|(l, _)| *l == spec.label) {
            Some((_, g)) => g.push(d),
            None => groups.push((&spec.label, vec![d])),
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

/// Human-readable sweep table for stdout: the key + the standard
/// metrics table, one row per grid point in grid order.
pub fn render_table(specs: &[RunSpec], digests: &[RunDigest]) -> String {
    let mut out = format!("{:<22}  {}\n", "key", report::table_header());
    for (spec, d) in specs.iter().zip(digests) {
        out.push_str(&format!("{:<22}  {}\n", spec.key, d.summary.table_row()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_core::{MachineSpec, PolicyParams, PresetName, WorkloadSource};
    use amjs_sim::SimDuration;

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

    fn digest(label: &str, wait: f64) -> RunDigest {
        RunDigest {
            summary: amjs_metrics::MetricsSummary {
                label: label.to_string(),
                jobs_completed: 100,
                avg_wait_mins: wait,
                max_wait_mins: 900.0,
                unfair_jobs: 10,
                loc_percent: 15.7,
                avg_utilization: 0.81,
                mean_bounded_slowdown: 4.2,
                makespan: SimDuration::from_hours(720),
                node_downtime_hours: 12.5,
                abandoned_jobs: 2,
            },
            queue_depth_mean: 1034.0,
            interrupted_jobs: 3,
            lost_node_hours: 44.5,
            min_availability: 0.975,
            worst_domain: "rack".to_string(),
            scheduler_passes: 15_000,
            backfilled_starts: 800,
        }
    }

    fn fixture() -> (Vec<RunSpec>, Vec<RunDigest>) {
        let specs = vec![
            spec("a-s1", "cfgA", 1),
            spec("a-s2", "cfgA", 2),
            spec("b-s1", "cfgB", 1),
        ];
        let digests = vec![
            digest("cfgA", 100.0),
            digest("cfgA", 200.0),
            digest("cfgB", 50.0),
        ];
        (specs, digests)
    }

    #[test]
    fn csv_rows_come_in_grid_order() {
        let (specs, digests) = fixture();
        let csv = aggregate_csv(&specs, &digests);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("key,config,"));
        assert!(lines[1].starts_with("a-s1,cfgA,"));
        assert!(lines[2].starts_with("a-s2,cfgA,"));
        assert!(lines[3].starts_with("b-s1,cfgB,"));
        assert_eq!(lines[4], "");
        // Every per-run line has the same column count as the header.
        let cols = lines[0].matches(',').count();
        for line in &lines[1..4] {
            assert_eq!(line.matches(',').count(), cols, "{line}");
        }
    }

    #[test]
    fn aggregates_mean_and_ci_per_config() {
        let (specs, digests) = fixture();
        let csv = aggregate_csv(&specs, &digests);
        let agg: Vec<&str> = csv.split("\n\n").nth(1).unwrap().lines().collect();
        assert!(agg[0].starts_with("config,n,avg_wait_mins_mean,avg_wait_mins_ci95"));
        // cfgA: waits 100 and 200 → mean 150, ci 1.96*sd/√2.
        let a: Vec<&str> = agg[1].split(',').collect();
        assert_eq!(a[0], "cfgA");
        assert_eq!(a[1], "2");
        assert_eq!(a[2], "150.0000");
        let sd = 70.710_678_118_654_76_f64; // sample sd of {100, 200}
        let ci: f64 = a[3].parse().unwrap();
        assert!((ci - 1.96 * sd / 2f64.sqrt()).abs() < 1e-3);
        // cfgB: one run → n = 1, ci 0.
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
    fn table_has_one_row_per_grid_point() {
        let (specs, digests) = fixture();
        let table = render_table(&specs, &digests);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].starts_with("key "));
        assert!(rows[3].starts_with("b-s1 "));
        assert!(rows[3].contains("cfgB"));
    }
}
