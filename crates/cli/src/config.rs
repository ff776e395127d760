//! Shared CLI configuration: turning flags into the pieces of a
//! [`RunSpec`] — machine, workload, policy and failures.

use amjs_core::estimates::EstimatePolicy;
use amjs_core::failures::{
    BurstModel, CorrelationSpec, DomainSpec, FailureSpec, RepairSpec, RetryPolicy,
};
use amjs_core::scheduler::BackfillMode;
use amjs_core::{AdaptiveKind, MachineSpec, PolicyParams, PresetName, RunSpec, WorkloadSource};
use amjs_sim::SimDuration;
use amjs_workload::Job;

use crate::args::{finite_f64, ArgError, ParsedArgs};

/// Parse `--machine bgp|flat` and `--nodes N` (defaults: Intrepid).
pub fn machine_spec(args: &ParsedArgs) -> Result<MachineSpec, ArgError> {
    let bgp = match args.get_or_default("machine") {
        "bgp" => true,
        "flat" => false,
        other => return Err(ArgError(format!("--machine: unknown machine {other:?}"))),
    };
    let nodes: u32 = args.get_parsed("nodes")?;
    if !bgp {
        if nodes == 0 {
            return Err(ArgError(
                "--nodes: a flat machine needs at least 1 node".to_string(),
            ));
        }
        return Ok(MachineSpec::Flat { nodes });
    }
    if !nodes.is_multiple_of(512) || nodes == 0 || nodes / 512 > 128 {
        return Err(ArgError(format!(
            "--nodes: a bgp machine needs a multiple of 512 up to 65536, got {nodes}"
        )));
    }
    Ok(MachineSpec::Bgp { nodes })
}

/// `--workload` as a spec source: a preset regenerated from `seed`, or
/// an SWF file path.
pub fn workload_source(args: &ParsedArgs, seed: u64) -> WorkloadSource {
    let raw = args.get_or_default("workload");
    match PresetName::parse(raw) {
        Some(name) => WorkloadSource::Preset {
            name,
            seed,
            load_factor: 1.0,
        },
        None => WorkloadSource::Swf {
            path: raw.to_string(),
        },
    }
}

/// Resolve and load `--workload`/`--seed`: the source, its jobs, and a
/// label for the log line.
pub fn load_workload(args: &ParsedArgs) -> Result<(WorkloadSource, Vec<Job>, String), ArgError> {
    let seed: u64 = args.get_parsed("seed")?;
    let source = workload_source(args, seed);
    let label = match &source {
        WorkloadSource::Preset { name, .. } => format!("{}(seed {seed})", name.spec().name),
        WorkloadSource::Swf { path } => path.clone(),
    };
    let jobs = source.load().map_err(ArgError)?;
    Ok((source, jobs, label))
}

/// Parse `--node-mtbf`/`--repair-time`/`--repair-sigma`/`--failure-seed`
/// into a failure spec (`None` when failure injection is off).
fn failure_flags(args: &ParsedArgs) -> Result<Option<FailureSpec>, ArgError> {
    let Some(mtbf_hours) = args.get_opt_f64("node-mtbf")? else {
        return Ok(None);
    };
    if mtbf_hours <= 0.0 {
        return Err(ArgError(format!(
            "--node-mtbf: must be positive hours, got {mtbf_hours}"
        )));
    }
    let repair_hours = args.get_f64("repair-time")?;
    if repair_hours <= 0.0 {
        return Err(ArgError(format!(
            "--repair-time: must be positive hours, got {repair_hours}"
        )));
    }
    let sigma = args.get_f64("repair-sigma")?;
    if sigma < 0.0 {
        return Err(ArgError(format!(
            "--repair-sigma: must be >= 0, got {sigma}"
        )));
    }
    let mean = SimDuration::from_secs((repair_hours * 3600.0) as i64);
    let repair = if sigma == 0.0 {
        RepairSpec::Deterministic(mean)
    } else {
        RepairSpec::LogNormal { mean, sigma }
    };
    Ok(Some(FailureSpec {
        node_mtbf: SimDuration::from_secs((mtbf_hours * 3600.0) as i64),
        repair,
        seed: args.get_parsed("failure-seed")?,
    }))
}

/// Parse `--cascade-prob`/`--failure-domains`/`--burst-model` into a
/// correlation spec (`None` when none of the flags are given).
fn correlation_flags(args: &ParsedArgs) -> Result<Option<CorrelationSpec>, ArgError> {
    let flags = ["cascade-prob", "failure-domains", "burst-model"];
    if !flags.iter().any(|flag| args.is_given(flag)) {
        return Ok(None);
    }
    let cascade_prob = args.get_f64("cascade-prob")?;
    if !(0.0..=1.0).contains(&cascade_prob) {
        return Err(ArgError(format!(
            "--cascade-prob: must be in [0, 1], got {cascade_prob}"
        )));
    }
    let parts: Vec<u32> = args.get_list("failure-domains")?;
    let [midplane_nodes, midplanes_per_rack, racks_per_power_domain] = parts[..] else {
        return Err(ArgError(format!(
            "--failure-domains: expected \
             <nodes-per-midplane>,<midplanes-per-rack>,<racks-per-power>, got {:?}",
            args.get_or_default("failure-domains")
        )));
    };
    if midplane_nodes == 0 || midplanes_per_rack == 0 || racks_per_power_domain == 0 {
        return Err(ArgError(
            "--failure-domains: all three counts must be positive".to_string(),
        ));
    }
    let domains = DomainSpec {
        midplane_nodes,
        midplanes_per_rack,
        racks_per_power_domain,
    };
    let burst = match args.get_or_default("burst-model") {
        "none" => BurstModel::None,
        raw => match raw.split_once(':') {
            Some(("weibull", shape)) => {
                let shape = finite_f64(shape).ok_or_else(|| {
                    ArgError(format!("--burst-model: bad weibull shape {shape:?}"))
                })?;
                if shape <= 0.0 {
                    return Err(ArgError(format!(
                        "--burst-model: weibull shape must be positive, got {shape}"
                    )));
                }
                BurstModel::Weibull { shape }
            }
            Some(("markov", params)) => {
                let parts: Vec<f64> = params
                    .split(',')
                    .map(|tok| {
                        finite_f64(tok.trim())
                            .ok_or_else(|| ArgError(format!("--burst-model: cannot parse {tok:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                let [boost, calm_h, burst_h] = parts[..] else {
                    return Err(ArgError(format!(
                        "--burst-model: markov needs <boost>,<calm-hours>,<burst-hours>, \
                         got {raw:?}"
                    )));
                };
                if boost < 1.0 {
                    return Err(ArgError(format!(
                        "--burst-model: markov boost must be >= 1, got {boost}"
                    )));
                }
                if calm_h <= 0.0 || burst_h <= 0.0 {
                    return Err(ArgError(
                        "--burst-model: markov dwell times must be positive hours".to_string(),
                    ));
                }
                BurstModel::Markov {
                    rate_boost: boost,
                    mean_calm: SimDuration::from_secs((calm_h * 3600.0) as i64),
                    mean_burst: SimDuration::from_secs((burst_h * 3600.0) as i64),
                }
            }
            _ => {
                return Err(ArgError(format!(
                    "--burst-model: expected none, weibull:<shape>, or \
                     markov:<boost>,<calm-hours>,<burst-hours>, got {raw:?}"
                )))
            }
        },
    };
    Ok(Some(CorrelationSpec {
        cascade_prob,
        domains,
        burst,
    }))
}

/// Parse `--max-attempts`/`--retry-backoff` into a retry policy.
fn retry_flags(args: &ParsedArgs) -> Result<RetryPolicy, ArgError> {
    let max_attempts = args.get_opt::<u32>("max-attempts")?;
    if max_attempts == Some(0) {
        return Err(ArgError("--max-attempts: must be at least 1".to_string()));
    }
    let backoff_mins = args.get_f64("retry-backoff")?;
    if backoff_mins < 0.0 {
        return Err(ArgError(format!(
            "--retry-backoff: must be >= 0 minutes, got {backoff_mins}"
        )));
    }
    Ok(RetryPolicy {
        max_attempts,
        backoff_base: SimDuration::from_secs((backoff_mins * 60.0) as i64),
    })
}

/// The shared run-config flags parsed onto one spec: `simulate` runs
/// it, `sweep` clones it per grid point. Key, label, policy and the
/// adaptive scheme are the caller's.
pub fn template_spec(
    args: &ParsedArgs,
    machine: MachineSpec,
    workload: WorkloadSource,
) -> Result<RunSpec, ArgError> {
    let mut spec = RunSpec::new("", machine, workload, PolicyParams::fcfs());
    spec.backfill = match args.get_or_default("backfill") {
        "easy" => BackfillMode::Easy,
        "conservative" => BackfillMode::Conservative,
        "none" => BackfillMode::None,
        other => return Err(ArgError(format!("--backfill: unknown mode {other:?}"))),
    };
    spec.backfill_depth = args.get_opt("backfill-depth")?;
    spec.estimates = match args.get_or_default("estimates") {
        "raw" => EstimatePolicy::Requested,
        "adaptive" => EstimatePolicy::user_adaptive(),
        other => {
            return Err(ArgError(format!(
                "--estimates: expected raw|adaptive, got {other:?}"
            )))
        }
    };
    spec.failures = failure_flags(args)?;
    spec.retry = retry_flags(args)?;
    spec.correlation = correlation_flags(args)?;
    spec.oracle = args.get_bool("oracle");
    Ok(spec)
}

/// `simulate`'s `--adaptive`/`--threshold` as a scheme; `default_threshold`
/// (a base run) is asked only when bf/2d tuning was requested without
/// `--threshold`.
pub fn adaptive_kind(
    args: &ParsedArgs,
    default_threshold: impl FnOnce() -> f64,
) -> Result<AdaptiveKind, ArgError> {
    let threshold = args.get_opt_f64("threshold")?;
    Ok(match args.get_or_default("adaptive") {
        "none" => AdaptiveKind::None,
        "w" => AdaptiveKind::Window,
        "bf" => AdaptiveKind::Bf {
            threshold: threshold.unwrap_or_else(default_threshold),
        },
        "2d" => AdaptiveKind::TwoD {
            threshold: threshold.unwrap_or_else(default_threshold),
        },
        other => {
            return Err(ArgError(format!(
                "--adaptive: expected bf|w|2d|none, got {other:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse, tests::argv};
    use crate::commands::simulate_flags;
    use amjs_obs::Observer;

    fn parsed(parts: &[&str]) -> ParsedArgs {
        parse(&argv(parts), &simulate_flags()).unwrap()
    }

    /// The shared flags (one line) parsed the way `simulate` and `sweep`
    /// do, over the small preset on a flat machine.
    fn template(line: &str) -> Result<RunSpec, ArgError> {
        let flags: Vec<&str> = line.split_whitespace().collect();
        let workload = workload_source(&parsed(&["--workload", "small"]), 42);
        template_spec(&parsed(&flags), MachineSpec::Flat { nodes: 640 }, workload)
    }

    /// `simulate`'s own path from flags to an outcome, minus the
    /// threshold pre-run: shared flags onto a spec, `RunSpec::run`.
    fn run_small(flags: &[&str], nodes: u32, label: &str) -> amjs_core::SimulationOutcome {
        let mut spec = template(&flags.join(" ")).unwrap().labeled(label);
        spec.machine = MachineSpec::Flat { nodes };
        spec.run(spec.jobs(), Observer::disabled()).0
    }

    #[test]
    fn machine_defaults_to_intrepid() {
        assert_eq!(machine_spec(&parsed(&[])).unwrap(), MachineSpec::intrepid());
    }

    /// An absent flag parses the string `--help` prints, and reading a
    /// flag that declares no default panics: run every path that reads
    /// flags, with nothing given and with the two switches on that
    /// guard the rest of the reads.
    #[test]
    fn every_default_is_readable() {
        let on = ["--node-mtbf", "1000", "--cascade-prob", "0.1"];
        for flags in [&[][..], &on] {
            let args = parsed(flags);
            let machine = machine_spec(&args).unwrap();
            let spec = template_spec(&args, machine, workload_source(&args, 42)).unwrap();
            assert_eq!(spec.failures.is_some(), !flags.is_empty());
            assert_eq!(spec.backfill_depth, None);
            let tuning = adaptive_kind(&args, || unreachable!("no tuning asked for"));
            assert_eq!(tuning, Ok(AdaptiveKind::None));
        }
    }

    #[test]
    fn machine_validation() {
        assert_eq!(
            machine_spec(&parsed(&["--machine", "flat", "--nodes", "1000"])).unwrap(),
            MachineSpec::Flat { nodes: 1000 }
        );
        assert!(machine_spec(&parsed(&["--nodes", "1000"])).is_err()); // bgp needs x512
        assert!(machine_spec(&parsed(&["--machine", "flat", "--nodes", "0"])).is_err());
        assert!(machine_spec(&parsed(&["--machine", "torus"])).is_err());
    }

    #[test]
    fn workload_presets_load() {
        let (source, jobs, label) =
            load_workload(&parsed(&["--workload", "small", "--seed", "3"])).unwrap();
        assert_eq!(
            source,
            WorkloadSource::Preset {
                name: PresetName::Small,
                seed: 3,
                load_factor: 1.0
            }
        );
        assert!(!jobs.is_empty());
        assert!(label.contains("small-test"));
        assert!(load_workload(&parsed(&["--workload", "/no/such/file.swf"])).is_err());
    }

    #[test]
    fn policy_flags_parse() {
        let spec = template("--backfill conservative").unwrap();
        assert_eq!(spec.backfill, BackfillMode::Conservative);
        assert_eq!(
            adaptive_kind(&parsed(&["--adaptive", "2d", "--threshold", "500"]), || {
                unreachable!("threshold given")
            }),
            Ok(AdaptiveKind::TwoD { threshold: 500.0 })
        );
        assert!(adaptive_kind(&parsed(&["--adaptive", "zzz"]), || 0.0).is_err());
    }

    #[test]
    fn failure_flags_parse_and_validate() {
        let f = template("").unwrap();
        assert!(f.failures.is_none());
        assert_eq!(f.retry, amjs_core::failures::RetryPolicy::default());

        let f = template(
            "--node-mtbf 87600 --repair-time 2 --repair-sigma 0.8 --failure-seed 7 \
             --max-attempts 3 --retry-backoff 10",
        )
        .unwrap();
        let spec = f.failures.unwrap();
        assert_eq!(spec.node_mtbf, amjs_sim::SimDuration::from_hours(87_600));
        assert_eq!(
            spec.repair,
            amjs_core::failures::RepairSpec::LogNormal {
                mean: amjs_sim::SimDuration::from_hours(2),
                sigma: 0.8
            }
        );
        assert_eq!(spec.seed, 7);
        assert_eq!(f.retry.max_attempts, Some(3));
        assert_eq!(f.retry.backoff_base, amjs_sim::SimDuration::from_mins(10));

        // Sigma 0 means deterministic repair.
        let f = template("--node-mtbf 1000").unwrap();
        assert_eq!(
            f.failures.unwrap().repair,
            amjs_core::failures::RepairSpec::Deterministic(amjs_sim::SimDuration::from_hours(4))
        );

        assert!(template("--node-mtbf 0").is_err());
        assert!(template("--node-mtbf 10 --repair-time -1").is_err());
        assert!(template("--max-attempts 0").is_err());
        assert!(template("--retry-backoff -5").is_err());
    }

    #[test]
    fn correlation_flags_parse_and_validate() {
        // No flags → no correlation layer, oracle off.
        let f = template("").unwrap();
        assert!(f.correlation.is_none());
        assert!(!f.oracle);

        let f = template(
            "--cascade-prob 0.3 --failure-domains 256,4,2 --burst-model markov:10,168,6 --oracle",
        )
        .unwrap();
        let corr = f.correlation.unwrap();
        assert_eq!(corr.cascade_prob, 0.3);
        assert_eq!(
            corr.domains,
            DomainSpec {
                midplane_nodes: 256,
                midplanes_per_rack: 4,
                racks_per_power_domain: 2,
            }
        );
        assert_eq!(
            corr.burst,
            BurstModel::Markov {
                rate_boost: 10.0,
                mean_calm: SimDuration::from_hours(168),
                mean_burst: SimDuration::from_hours(6),
            }
        );
        assert!(f.oracle);

        // A single correlation flag is enough; the rest default.
        let f = template("--burst-model weibull:0.7").unwrap();
        let corr = f.correlation.unwrap();
        assert_eq!(corr.cascade_prob, 0.0);
        assert_eq!(corr.domains, DomainSpec::intrepid());
        assert_eq!(corr.burst, BurstModel::Weibull { shape: 0.7 });

        let f = template("--burst-model none").unwrap();
        assert_eq!(f.correlation.unwrap().burst, BurstModel::None);

        for bad in [
            "--cascade-prob 1.5",
            "--cascade-prob -0.1",
            "--failure-domains 512,2",
            "--failure-domains 512,0,8",
            "--failure-domains a,b,c",
            "--burst-model weibull:0",
            "--burst-model weibull:x",
            "--burst-model markov:0.5,168,6",
            "--burst-model markov:10,0,6",
            "--burst-model markov:10,168",
            "--burst-model gamma:2",
        ] {
            assert!(template(bad).is_err(), "expected rejection of {bad:?}");
        }
    }

    #[test]
    fn cascaded_simulation_reports_domain_downtime() {
        let out = run_small(
            &[
                "--node-mtbf",
                "300",
                "--repair-time",
                "1",
                "--max-attempts",
                "4",
                "--cascade-prob",
                "0.5",
                "--failure-domains",
                "64,2,2",
                "--burst-model",
                "weibull:0.7",
                "--oracle",
            ],
            640,
            "cascaded",
        );
        assert!(out.summary.node_downtime_hours > 0.0);
        assert!(!out.domain_downtime.is_empty());
        assert!(!out.down_nodes.points().is_empty());
    }

    #[test]
    fn degraded_simulation_reports_downtime() {
        let out = run_small(
            &[
                "--node-mtbf",
                "200",
                "--repair-time",
                "1",
                "--max-attempts",
                "4",
            ],
            640,
            "degraded",
        );
        assert!(out.summary.node_downtime_hours > 0.0);
        assert!(out.availability.points().iter().any(|&(_, v)| v < 1.0));
    }

    #[test]
    fn end_to_end_small_simulation() {
        let (_, jobs, _) = load_workload(&parsed(&["--workload", "small"])).unwrap();
        let out = run_small(&[], 1024, "cli-test");
        assert_eq!(out.summary.jobs_completed, jobs.len());
        assert_eq!(out.summary.label, "cli-test");
    }
}
