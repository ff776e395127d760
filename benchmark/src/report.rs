//! The metric tables, read from `BENCHMARK.json` so that names, units and
//! bounds are written down once, and the run's printed and JSON output.

use std::sync::OnceLock;

use amjs_obs::json::{self, push_f64, push_str_escaped, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named metric of the benchmark.
pub struct Def {
    pub name: String,
    pub unit: String,
    /// Share of the median by which the metric may worsen before a change
    /// is a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Defs {
    pub end_to_end: Vec<Def>,
    pub per_layer: Vec<Def>,
}

pub fn defs() -> &'static Defs {
    static DEFS: OnceLock<Defs> = OnceLock::new();
    DEFS.get_or_init(|| {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let table = |key: &str| -> Vec<Def> {
            let rows = root.get(key).and_then(Json::as_arr);
            rows.unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .map(|row| {
                    let text = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
                    Def {
                        name: text("name").expect("every metric has a name"),
                        unit: text("unit").expect("every metric has a unit"),
                        bound: row.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        Defs {
            end_to_end: table("end_to_end"),
            per_layer: table("per_layer"),
        }
    })
}

/// A measured value of one defined metric.
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    /// Samples the value was estimated from.
    pub n: usize,
}

/// A value for the metric `BENCHMARK.json` calls `name`; a name it does
/// not list is a bug in the benchmark.
pub fn metric(name: &str, value: f64, n: usize) -> Metric {
    let defs = defs();
    let def = (defs.end_to_end.iter().chain(&defs.per_layer))
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not listed in BENCHMARK.json"));
    Metric { def, value, n }
}

/// Nearest-rank percentile of a sorted sample of seconds.
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Nearest-rank percentile of a sorted sample of nanoseconds; 0 when the
/// script had no position of that kind.
pub fn pct_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

pub fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::MAX, f64::min)
}

/// One printed line per metric: `metric <name> <value> <unit> n=<samples>`.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} {} {} n={}", m.def.name, m.value, m.def.unit, m.n);
    }
}

/// The result line the driver reads: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_escaped(&mut out, &m.def.name);
        out.push_str(": {\"value\": ");
        push_f64(&mut out, m.value);
        out.push_str(", \"unit\": ");
        push_str_escaped(&mut out, &m.def.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}
