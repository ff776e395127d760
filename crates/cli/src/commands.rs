//! The CLI subcommands.

use amjs_core::{MachineSpec, PolicyParams, PresetName, RunSpec};
use amjs_metrics::report;
use amjs_obs::Observer;
use amjs_workload::stats::WorkloadStats;
use amjs_workload::swf;

use crate::args::{parse, render_flags, ArgError, FlagSpec, ParsedArgs};
use crate::config::{adaptive_kind, load_workload, machine_spec, template_spec};
use crate::obs::{obs_flag_specs, ObsFlags};

/// Every command and its one-line summary: the source of both the
/// command list in `amjs --help` and each `amjs <cmd> --help` title.
const COMMANDS: &[(&str, &str)] = &[
    ("simulate", "run one policy over a workload"),
    ("serve", "crash-safe live scheduler daemon"),
    ("doctor", "postmortem of a daemon state directory"),
    ("sweep", "parallel grid sweep (scheme x BF x W x seed)"),
    ("workload", "generate a synthetic trace"),
    (
        "trace",
        "inspect decision traces written by simulate --trace",
    ),
];

/// The first line of `amjs <command> --help`.
pub(crate) fn title(command: &str) -> String {
    let (_, summary) = COMMANDS
        .iter()
        .find(|(name, _)| *name == command)
        .expect("every command has a summary");
    format!("amjs {command} — {summary}")
}

/// Top-level usage text.
pub fn top_level_help() -> String {
    let mut out = String::from(
        "amjs — adaptive metric-aware job scheduling simulator (ICPP 2012 reproduction)\n\n\
         usage: amjs <command> [flags]\n\n\
         commands:\n",
    );
    for (name, summary) in COMMANDS {
        out.push_str(&format!("{name:<20} {summary}\n"));
    }
    out.push_str("\nrun `amjs <command> --help` for each command's flags");
    out
}

pub(crate) fn common_flags() -> Vec<FlagSpec> {
    vec![
        FlagSpec::switch("help", "show this help"),
        FlagSpec::with_default("machine", "bgp", "machine model: bgp|flat"),
        FlagSpec::with_default(
            "nodes",
            MachineSpec::intrepid().nodes(),
            "machine size in nodes (bgp: multiple of 512)",
        ),
        FlagSpec::with_default("workload", "month", "month|week|small or an SWF file path"),
        FlagSpec::with_default("seed", 42, "workload generation seed"),
        FlagSpec::with_default("backfill", "easy", "easy|conservative|none"),
        FlagSpec::optional(
            "backfill-depth",
            "unlimited",
            "max queued jobs the backfill pass considers",
        ),
        FlagSpec::value(
            "node-mtbf",
            "per-node MTBF in hours; enables failure injection",
        ),
        FlagSpec::with_default("repair-time", 4, "mean repair time in hours"),
        FlagSpec::with_default(
            "repair-sigma",
            0,
            "log-normal repair shape (0 = deterministic)",
        ),
        FlagSpec::with_default("failure-seed", 64017, "failure process seed"),
        FlagSpec::optional(
            "max-attempts",
            "unlimited",
            "abandon a job after this many failed attempts",
        ),
        FlagSpec::with_default(
            "retry-backoff",
            0,
            "re-submit backoff base in minutes (doubles per failure)",
        ),
        FlagSpec::with_default(
            "cascade-prob",
            0,
            "per-level fault escalation probability in [0,1]",
        ),
        FlagSpec::with_default(
            "failure-domains",
            "512,2,8",
            "domain geometry: nodes-per-midplane,midplanes-per-rack,racks-per-power",
        ),
        FlagSpec::with_default(
            "burst-model",
            "none",
            "failure clustering: none|weibull:<shape>|markov:<boost>,<calm-h>,<burst-h>",
        ),
        FlagSpec::switch(
            "oracle",
            "check runtime invariants after every event (always on in debug builds)",
        ),
    ]
}

// ---------------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------------

pub(crate) fn simulate_flags() -> Vec<FlagSpec> {
    let mut flags = common_flags();
    flags.extend([
        FlagSpec::with_default("bf", 1, "balance factor in [0,1]"),
        FlagSpec::with_default("window", 1, "allocation window size W"),
        FlagSpec::with_default("adaptive", "none", "adaptive scheme: none|bf|w|2d"),
        FlagSpec::optional(
            "threshold",
            "base-run average",
            "queue-depth threshold (min) for bf/2d tuning",
        ),
        FlagSpec::value("series", "write sampled time series CSV to this path"),
        FlagSpec::value("jobs-csv", "write per-job records CSV to this path"),
        FlagSpec::with_default("estimates", "raw", "planning walltimes: raw|adaptive"),
    ]);
    flags.extend(obs_flag_specs());
    flags
}

/// `amjs simulate`.
pub fn simulate(argv: &[String]) -> Result<(), ArgError> {
    let flags = simulate_flags();
    let parsed = parse(argv, &flags)?;
    if parsed.get_bool("help") {
        println!("{}\n\n{}", title("simulate"), render_flags(&flags));
        return Ok(());
    }
    run_simulate(&parsed)
}

fn run_simulate(parsed: &ParsedArgs) -> Result<(), ArgError> {
    let obs_flags = ObsFlags::from_args(parsed)?;
    let machine = machine_spec(parsed)?;
    let (workload, jobs, workload_label) = load_workload(parsed)?;
    let template = template_spec(parsed, machine, workload)?;
    let bf: f64 = parsed.get_parsed("bf")?;
    let window: usize = parsed.get_parsed("window")?;
    if !(0.0..=1.0).contains(&bf) {
        return Err(ArgError(format!("--bf must be in [0,1], got {bf}")));
    }
    if window == 0 {
        return Err(ArgError("--window must be at least 1".to_string()));
    }
    let policy = PolicyParams::new(bf, window);
    let mut spec = RunSpec {
        key: "simulate".to_string(),
        label: policy.label(),
        policy,
        ..template
    };
    // Adaptive threshold default: a base pre-run's average queue depth.
    spec.adaptive = adaptive_kind(parsed, || {
        eprintln!("amjs: pre-running the base policy to calibrate the tuning threshold...");
        let base = RunSpec {
            policy: PolicyParams::fcfs(),
            ..spec.clone()
        }
        .labeled("base");
        let (outcome, _) = base.run(jobs.clone(), Observer::disabled());
        let th = outcome.queue_depth.mean_value().unwrap_or(1000.0);
        eprintln!("amjs: threshold = {th:.0} queued minutes");
        th
    })?;

    let (kind, nodes) = match machine {
        MachineSpec::Bgp { nodes } => ("Bgp", nodes),
        MachineSpec::Flat { nodes } => ("Flat", nodes),
    };
    eprintln!(
        "amjs: {} jobs from {workload_label} on {kind}/{nodes} nodes",
        jobs.len()
    );
    let (observer, session) = obs_flags.build()?;
    let (outcome, _observer) = spec.run(jobs, observer);
    session.finalize()?;
    print_outcome(parsed, &outcome)
}

fn print_outcome(
    parsed: &ParsedArgs,
    outcome: &amjs_core::SimulationOutcome,
) -> Result<(), ArgError> {
    if parsed.get_bool("quiet") {
        // Machine-readable mode: stdout carries nothing but the CSV.
        println!("{}", report::csv_header());
        println!("{}", outcome.summary.csv_row());
        return write_outcome_files(parsed, outcome);
    }
    println!("{}", report::table_header());
    println!("{}", outcome.summary.table_row());
    if outcome.skipped_oversized > 0 {
        println!("({} oversized jobs skipped)", outcome.skipped_oversized);
    }
    println!(
        "scheduler passes: {}; backfilled starts: {}",
        outcome.scheduler_passes, outcome.backfilled_starts
    );
    if outcome.interrupted_jobs > 0 || outcome.summary.abandoned_jobs > 0 {
        println!(
            "failures: {} interruptions, {:.0} node-hours lost, {} jobs abandoned",
            outcome.interrupted_jobs, outcome.lost_node_hours, outcome.summary.abandoned_jobs
        );
    }
    if !outcome.domain_downtime.is_empty() {
        print!("{}", outcome.domain_downtime.render_table());
    }

    write_outcome_files(parsed, outcome)
}

/// The `--series` / `--jobs-csv` file outputs, shared by the normal and
/// `--quiet` paths.
fn write_outcome_files(
    parsed: &ParsedArgs,
    outcome: &amjs_core::SimulationOutcome,
) -> Result<(), ArgError> {
    if let Some(path) = parsed.get("series") {
        let series = [
            &outcome.queue_depth,
            &outcome.util_instant,
            &outcome.util_1h,
            &outcome.util_10h,
            &outcome.util_24h,
            &outcome.bf_series,
            &outcome.window_series,
            &outcome.availability,
            &outcome.down_nodes,
        ];
        let csv = amjs_metrics::series::to_csv(&series);
        std::fs::write(path, csv).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("amjs: wrote series to {path}");
    }
    if let Some(path) = parsed.get("jobs-csv") {
        let mut csv = String::from("job,submit_s,start_s,end_s,nodes,wait_mins,backfilled\n");
        for r in &outcome.per_job {
            csv.push_str(&format!(
                "{},{},{},{},{},{:.2},{}\n",
                r.id.0,
                r.submit.as_secs(),
                r.start.as_secs(),
                r.end.as_secs(),
                r.nodes,
                (r.start - r.submit).as_mins_f64(),
                r.backfilled
            ));
        }
        std::fs::write(path, csv).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("amjs: wrote per-job records to {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// workload
// ---------------------------------------------------------------------------

fn workload_flags() -> Vec<FlagSpec> {
    vec![
        FlagSpec::switch("help", "show this help"),
        FlagSpec::with_default("preset", "month", "month|week|small"),
        FlagSpec::with_default("seed", 42, "generation seed"),
        FlagSpec::with_default("load-factor", "1.0", "scale the arrival rate"),
        FlagSpec::value("out", "write the trace as SWF to this path"),
        FlagSpec::switch("stats", "print workload statistics"),
        FlagSpec::switch("analyze", "print the distribution characterization"),
    ]
}

/// `amjs workload`.
pub fn workload(argv: &[String]) -> Result<(), ArgError> {
    let flags = workload_flags();
    let parsed = parse(argv, &flags)?;
    if parsed.get_bool("help") {
        println!("{}\n\n{}", title("workload"), render_flags(&flags));
        return Ok(());
    }
    let seed: u64 = parsed.get_parsed("seed")?;
    let load = parsed.get_f64("load-factor")?;
    if load <= 0.0 {
        return Err(ArgError("--load-factor must be positive".to_string()));
    }
    let preset = parsed.get_or_default("preset");
    let spec = PresetName::parse(preset)
        .ok_or_else(|| ArgError(format!("--preset: unknown preset {preset:?}")))?
        .spec()
        .with_load_factor(load);

    let jobs = spec.generate(seed);
    println!(
        "generated {} jobs ({}, seed {seed}, load x{load})",
        jobs.len(),
        spec.name
    );
    if parsed.get_bool("stats") {
        print!("{}", WorkloadStats::compute(&jobs).render(Some(40_960)));
    }
    if parsed.get_bool("analyze") {
        print!("{}", amjs_workload::analysis::render_report(&jobs));
    }
    if let Some(path) = parsed.get("out") {
        let header = format!(
            "generated by amjs workload: preset {}, seed {seed}, load x{load}",
            spec.name
        );
        let text = swf::write(&jobs, &[&header]);
        std::fs::write(path, text).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

fn trace_usage() -> String {
    format!(
        "{}\n\n\
         usage:\n  \
         amjs trace explain <trace.jsonl> <job-id>    reconstruct one job's decision chain",
        title("trace")
    )
}

/// `amjs trace explain <trace.jsonl> <job-id>` — reconstruct a job's
/// full decision chain (queued → scored → windowed → placed/backfilled
/// → killed/retried → finished) from a JSONL trace file.
pub fn trace(argv: &[String]) -> Result<(), ArgError> {
    let flags = vec![FlagSpec::switch("help", "show this help")];
    let parsed = parse(argv, &flags)?;
    if parsed.get_bool("help") {
        println!("{}", trace_usage());
        return Ok(());
    }
    match parsed.positionals.first().map(String::as_str) {
        Some("explain") => {
            let [_, file, job] = &parsed.positionals[..] else {
                return Err(ArgError(format!(
                    "trace explain needs <trace.jsonl> <job-id>\n\n{}",
                    trace_usage()
                )));
            };
            let job: u64 = job
                .parse()
                .map_err(|_| ArgError(format!("job id must be an integer, got {job:?}")))?;
            let records = amjs_obs::read_trace(std::path::Path::new(file)).map_err(ArgError)?;
            let timeline = amjs_obs::explain_job(&records, job).map_err(ArgError)?;
            print!("{timeline}");
            Ok(())
        }
        Some(other) => Err(ArgError(format!(
            "unknown trace subcommand {other:?}\n\n{}",
            trace_usage()
        ))),
        None => Err(ArgError(format!(
            "trace needs a subcommand\n\n{}",
            trace_usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::tests::argv;

    #[test]
    fn helps_do_not_error() {
        assert!(simulate(&argv(&["--help"])).is_ok());
        assert!(workload(&argv(&["--help"])).is_ok());
        assert!(top_level_help().contains("simulate"));
    }

    #[test]
    fn simulate_runs_a_small_workload() {
        simulate(&argv(&[
            "--workload",
            "small",
            "--machine",
            "flat",
            "--nodes",
            "1024",
            "--bf",
            "0.5",
            "--window",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_rejects_bad_policy() {
        assert!(simulate(&argv(&[
            "--bf",
            "1.5",
            "--workload",
            "small",
            "--machine",
            "flat",
            "--nodes",
            "64"
        ]))
        .is_err());
        assert!(simulate(&argv(&[
            "--window",
            "0",
            "--workload",
            "small",
            "--machine",
            "flat",
            "--nodes",
            "64"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_with_failure_injection_runs() {
        simulate(&argv(&[
            "--workload",
            "small",
            "--machine",
            "flat",
            "--nodes",
            "640",
            "--node-mtbf",
            "240",
            "--repair-time",
            "0.5",
            "--max-attempts",
            "5",
            "--retry-backoff",
            "5",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_with_cascading_failures_runs() {
        simulate(&argv(&[
            "--workload",
            "small",
            "--machine",
            "bgp",
            "--nodes",
            "4096",
            "--node-mtbf",
            "120",
            "--repair-time",
            "0.5",
            "--max-attempts",
            "5",
            "--cascade-prob",
            "0.4",
            "--burst-model",
            "weibull:0.7",
            "--oracle",
        ]))
        .unwrap();
    }

    #[test]
    fn workload_generates_and_writes_swf() {
        let dir = std::env::temp_dir().join("amjs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.swf");
        let path_str = path.to_str().unwrap();
        workload(&argv(&[
            "--preset",
            "small",
            "--seed",
            "5",
            "--stats",
            "--analyze",
            "--out",
            path_str,
        ]))
        .unwrap();
        // The written trace simulates.
        simulate(&argv(&[
            "--workload",
            path_str,
            "--machine",
            "flat",
            "--nodes",
            "1024",
        ]))
        .unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_preset_is_rejected() {
        assert!(workload(&argv(&["--preset", "galaxy"])).is_err());
    }
}
