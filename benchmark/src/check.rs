//! `--check`: run the whole benchmark twice with this same binary and
//! compare the two sets of numbers against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::process::Command;

use crate::report::defs;
use crate::script::WORKLOADS;
use crate::Args;

/// `metric <name> <value> <unit> n=<samples>` lines of one run, by name.
fn run_workload(name: &str, args: &Args) -> Result<BTreeMap<String, (f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{name} exited with {}:\n{text}", out.status));
    }
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("metric ")?.split(' ');
            let (name, value, unit) = (f.next()?, f.next()?, f.next()?);
            Some((name.to_string(), (value.parse().ok()?, unit.to_string())))
        })
        .collect())
}

/// Returns the process exit code: 0 when every pair agrees.
pub fn run(args: &Args) -> i32 {
    let mut sets = Vec::new();
    for label in ["A", "B"] {
        let mut set = BTreeMap::new();
        for w in &WORKLOADS {
            eprintln!("check: run {label} of {}", w.name);
            match run_workload(w.name, args) {
                Ok(metrics) => set.insert(w.name, metrics),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
        }
        sets.push(set);
    }
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut disagreements = 0;
    for w in &WORKLOADS {
        for (name, (a, unit)) in &sets[0][w.name] {
            let Some((b, _)) = sets[1][w.name].get(name) else {
                continue;
            };
            let diff = (b - a) / a;
            // Counts must repeat exactly; end-to-end metrics within their
            // bound; the remaining rows are shown for the reader.
            let bound = if unit == "count" {
                Some(0.0)
            } else {
                (defs().end_to_end.iter())
                    .find(|d| d.name == *name)
                    .and_then(|d| d.bound)
            };
            let verdict = match bound {
                Some(bound) if diff.abs() > bound => {
                    disagreements += 1;
                    "  DISAGREE"
                }
                _ => "",
            };
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6}{verdict}",
                w.name,
                name,
                a,
                b,
                diff * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    if disagreements > 0 {
        println!("check FAIL: {disagreements} pair(s) differ by more than their bound");
        1
    } else {
        println!("check PASS: two runs of the same binary agree within every bound");
        0
    }
}
