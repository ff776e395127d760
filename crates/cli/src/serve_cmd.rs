//! `amjs serve` — run the live scheduler daemon.
//!
//! Thin flag-to-config mapping over [`amjs_serve::run_daemon`]: parse
//! the address, state directory, machine/policy shape (fresh starts) or
//! dispatch on the recovered snapshot's platform tag (`--resume`), bind
//! the listener and optional metrics endpoint up front so bad addresses
//! fail with a diagnostic instead of after the daemon is half-up, then
//! hand the calling thread to the engine loop.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use amjs_core::live::peek_platform;
use amjs_core::{LiveScheduler, MachineSpec, PolicyParams, SimulationBuilder};
use amjs_obs::{shared_stats, MetricsServer};
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_serve::{
    fetch_snapshot, run_daemon, snapshot_platform, ClockMode, FollowSpec, ReplChaos, ServeConfig,
};
use amjs_sim::Snapshot;

use crate::args::{self, ArgError, FlagSpec};
use crate::config::machine_spec;

fn flag_specs() -> Vec<FlagSpec> {
    vec![
        FlagSpec {
            name: "help",
            is_bool: true,
            help: "show this help",
            default: None,
        },
        FlagSpec {
            name: "serve-addr",
            is_bool: false,
            help: "TCP address to listen on (e.g. 127.0.0.1:7621; port 0 picks one)",
            default: Some("127.0.0.1:7621"),
        },
        FlagSpec {
            name: "serve-dir",
            is_bool: false,
            help: "state directory for the command journal and snapshots (required)",
            default: None,
        },
        FlagSpec {
            name: "resume",
            is_bool: true,
            help: "recover state from --serve-dir instead of starting fresh",
            default: None,
        },
        FlagSpec {
            name: "clock",
            is_bool: false,
            help: "virtual (time moves via ADVANCE) or wall[:scale] (e.g. wall:60)",
            default: Some("virtual"),
        },
        FlagSpec {
            name: "machine",
            is_bool: false,
            help: "machine model for a fresh start: bgp|flat",
            default: Some("bgp"),
        },
        FlagSpec {
            name: "nodes",
            is_bool: false,
            help: "machine size in nodes (fresh start)",
            default: Some("40960"),
        },
        FlagSpec {
            name: "bf",
            is_bool: false,
            help: "balance factor of the starting policy (fresh start)",
            default: Some("0.5"),
        },
        FlagSpec {
            name: "window",
            is_bool: false,
            help: "queue window of the starting policy (fresh start)",
            default: Some("4"),
        },
        FlagSpec {
            name: "snapshot-every",
            is_bool: false,
            help: "write a rotating snapshot every N accepted commands",
            default: Some("64"),
        },
        FlagSpec {
            name: "snapshot-keep",
            is_bool: false,
            help: "rotated snapshots to retain (genesis is always kept)",
            default: Some("3"),
        },
        FlagSpec {
            name: "max-conns",
            is_bool: false,
            help: "concurrent connection cap; excess clients get BUSY",
            default: Some("64"),
        },
        FlagSpec {
            name: "admission-cap",
            is_bool: false,
            help: "bounded admission queue depth; when full, clients get BUSY",
            default: Some("128"),
        },
        FlagSpec {
            name: "read-timeout-ms",
            is_bool: false,
            help: "per-connection read deadline; idle clients are culled",
            default: Some("30000"),
        },
        FlagSpec {
            name: "whatif-cap",
            is_bool: false,
            help: "concurrent WHATIF worker cap (0 sheds every query)",
            default: Some("4"),
        },
        FlagSpec {
            name: "whatif-deadline-ms",
            is_bool: false,
            help: "per-query WHATIF deadline",
            default: Some("5000"),
        },
        FlagSpec {
            name: "whatif-horizon",
            is_bool: false,
            help: "default WHATIF speculation horizon, seconds",
            default: Some("604800"),
        },
        FlagSpec {
            name: "oracle-every",
            is_bool: false,
            help: "run the invariant suite every N accepted commands (0 = off)",
            default: Some("64"),
        },
        FlagSpec {
            name: "flightrec",
            is_bool: false,
            help: "crash flight recorder capacity in events (0 disables it)",
            default: Some("512"),
        },
        FlagSpec {
            name: "slow-ms",
            is_bool: false,
            help: "log ops slower than this to stderr (0 = off)",
            default: Some("0"),
        },
        FlagSpec {
            name: "metrics-addr",
            is_bool: false,
            help: "also serve Prometheus metrics on this address",
            default: None,
        },
        FlagSpec {
            name: "follow",
            is_bool: false,
            help: "run as a hot-standby follower of this primary (host:port)",
            default: None,
        },
        FlagSpec {
            name: "lease-ms",
            is_bool: false,
            help: "failover lease: promote after this long without primary contact",
            default: Some("3000"),
        },
        FlagSpec {
            name: "repl-heartbeat-ms",
            is_bool: false,
            help: "heartbeat cadence on follower streams (primary side)",
            default: Some("500"),
        },
        FlagSpec {
            name: "repl-fault",
            is_bool: false,
            help: "deterministic link faults on follower streams: \
                   drop=<p>,delay-ms=<n>,disconnect=<p>,seed=<n>,diverge-at=<seq>",
            default: None,
        },
    ]
}

fn help() -> String {
    format!(
        "amjs serve — crash-safe live scheduler daemon\n\n\
         usage: amjs serve --serve-dir <dir> [flags]\n\n\
         Speaks a length-prefixed line protocol: frame = `<len>:<payload>\\n`.\n\
         Verbs: SUBMIT NODES=n WALL=s [RUN=s] [USER=u], STATUS <job>,\n\
         CANCEL <job>, WHATIF <job> [BF=f] [W=n] [HORIZON=s], ADVANCE <s>,\n\
         STATS, HASH, ROLE, PING, DRAIN, SHUTDOWN.\n\n\
         Every accepted mutation is journaled and flushed before it is\n\
         acknowledged; `--resume` restarts into byte-identical state.\n\
         With `--follow <primary>` the daemon runs as a hot standby: it\n\
         bootstraps from the primary's snapshot, mirrors its journal\n\
         (cross-checking every record's state hash), refuses writes, and\n\
         promotes itself into a new fenced epoch if the primary goes\n\
         silent past the lease.\n\n\
         flags:\n{}",
        args::render_flags(&flag_specs())
    )
}

/// Flags that shape a *fresh* daemon; a resumed snapshot already
/// carries all of them.
const FRESH_ONLY_FLAGS: &[&str] = &["machine", "nodes", "bf", "window"];

fn parse_clock(raw: &str) -> Result<ClockMode, ArgError> {
    match raw {
        "virtual" => Ok(ClockMode::Virtual),
        "wall" => Ok(ClockMode::Wall { scale: 1.0 }),
        other => match other.strip_prefix("wall:") {
            Some(scale) => {
                let scale: f64 = scale
                    .parse()
                    .map_err(|_| ArgError(format!("--clock: cannot parse wall scale {scale:?}")))?;
                if scale <= 0.0 {
                    return Err(ArgError(format!(
                        "--clock: wall scale must be positive, got {scale}"
                    )));
                }
                Ok(ClockMode::Wall { scale })
            }
            None => Err(ArgError(format!(
                "--clock: expected virtual or wall[:scale], got {other:?}"
            ))),
        },
    }
}

pub fn serve(argv: &[String]) -> Result<(), ArgError> {
    let parsed = args::parse(argv, &flag_specs())?;
    if parsed.get_bool("help") {
        println!("{}", help());
        return Ok(());
    }
    if let Some(pos) = parsed.positionals.first() {
        return Err(ArgError(format!(
            "serve takes no positional arguments, got {pos:?}"
        )));
    }
    let dir =
        PathBuf::from(parsed.get("serve-dir").ok_or_else(|| {
            ArgError("--serve-dir is required (durable state needs a home)".into())
        })?);
    let resume = parsed.get_bool("resume");
    if resume {
        let offending: Vec<String> = FRESH_ONLY_FLAGS
            .iter()
            .filter(|f| parsed.is_given(f))
            .map(|f| format!("--{f}"))
            .collect();
        if !offending.is_empty() {
            return Err(ArgError(format!(
                "--resume cannot be combined with {}: the recovered snapshot \
                 already carries the machine and policy",
                offending.join(", ")
            )));
        }
    }

    let mut cfg = ServeConfig::new(&dir);
    cfg.clock = parse_clock(parsed.get("clock").unwrap_or("virtual"))?;
    cfg.snapshot_every = parsed.get_parsed("snapshot-every", 64u64)?;
    if cfg.snapshot_every == 0 {
        return Err(ArgError(
            "--snapshot-every: a cadence of 0 would snapshot never".into(),
        ));
    }
    cfg.keep_snapshots = parsed.get_parsed("snapshot-keep", 3usize)?;
    if cfg.keep_snapshots == 0 {
        return Err(ArgError(
            "--snapshot-keep: must retain at least 1 snapshot".into(),
        ));
    }
    cfg.max_conns = parsed.get_parsed("max-conns", 64usize)?;
    if cfg.max_conns == 0 {
        return Err(ArgError(
            "--max-conns: a cap of 0 would shed every client".into(),
        ));
    }
    cfg.admission_cap = parsed.get_parsed("admission-cap", 128usize)?;
    if cfg.admission_cap == 0 {
        return Err(ArgError(
            "--admission-cap: a depth of 0 would shed every command".into(),
        ));
    }
    cfg.read_timeout = Duration::from_millis(parsed.get_parsed("read-timeout-ms", 30_000u64)?);
    if cfg.read_timeout.is_zero() {
        return Err(ArgError("--read-timeout-ms: must be positive".into()));
    }
    cfg.whatif_cap = parsed.get_parsed("whatif-cap", 4usize)?;
    cfg.whatif_deadline = Duration::from_millis(parsed.get_parsed("whatif-deadline-ms", 5_000u64)?);
    if cfg.whatif_deadline.is_zero() {
        return Err(ArgError("--whatif-deadline-ms: must be positive".into()));
    }
    cfg.whatif_horizon_secs = parsed.get_parsed("whatif-horizon", 604_800i64)?;
    if cfg.whatif_horizon_secs <= 0 {
        return Err(ArgError(
            "--whatif-horizon: must be positive seconds".into(),
        ));
    }
    cfg.oracle_every = parsed.get_parsed("oracle-every", 64u64)?;
    cfg.flightrec = parsed.get_parsed("flightrec", 512usize)?;
    cfg.slow_ms = parsed.get_parsed("slow-ms", 0u64)?;

    // ----- replication flags -----
    let follow = parsed.get("follow").map(str::to_string);
    let lease = Duration::from_millis(parsed.get_parsed("lease-ms", 3_000u64)?);
    cfg.repl_heartbeat = Duration::from_millis(parsed.get_parsed("repl-heartbeat-ms", 500u64)?);
    if cfg.repl_heartbeat.is_zero() {
        return Err(ArgError("--repl-heartbeat-ms: must be positive".into()));
    }
    if let Some(spec) = parsed.get("repl-fault") {
        cfg.repl_chaos =
            Some(ReplChaos::parse_spec(spec).map_err(|e| ArgError(format!("--repl-fault: {e}")))?);
    }
    if follow.is_some() {
        if lease.is_zero() {
            return Err(ArgError("--lease-ms: must be positive".into()));
        }
        if lease <= cfg.repl_heartbeat {
            return Err(ArgError(format!(
                "--lease-ms ({}) must exceed --repl-heartbeat-ms ({}): a lease shorter \
                 than the heartbeat promotes on every quiet tick",
                lease.as_millis(),
                cfg.repl_heartbeat.as_millis()
            )));
        }
        if matches!(cfg.clock, ClockMode::Wall { .. }) {
            return Err(ArgError(
                "--follow: a follower's clock is driven by the primary's records; \
                 --clock wall is not allowed"
                    .into(),
            ));
        }
        if !resume {
            let offending: Vec<String> = FRESH_ONLY_FLAGS
                .iter()
                .filter(|f| parsed.is_given(f))
                .map(|f| format!("--{f}"))
                .collect();
            if !offending.is_empty() {
                return Err(ArgError(format!(
                    "--follow cannot be combined with {}: the bootstrap snapshot \
                     already carries the machine and policy",
                    offending.join(", ")
                )));
            }
        }
    } else if parsed.is_given("lease-ms") {
        return Err(ArgError(
            "--lease-ms only makes sense with --follow (it is the follower's \
             promotion timer)"
                .into(),
        ));
    }

    // Bind both listeners before touching durable state so a bad or
    // in-use address is a clean diagnostic, not a half-started daemon.
    let addr = parsed.get("serve-addr").unwrap_or("127.0.0.1:7621");
    let listener = TcpListener::bind(addr)
        .map_err(|e| ArgError(format!("--serve-addr: cannot bind {addr}: {e}")))?;
    let metrics_server = match parsed.get("metrics-addr") {
        Some(maddr) => {
            let stats = shared_stats();
            let server = MetricsServer::bind(maddr, stats.clone())
                .map_err(|e| ArgError(format!("--metrics-addr: cannot bind {maddr}: {e}")))?;
            eprintln!(
                "amjs serve: serving Prometheus metrics on http://{}/metrics",
                server.local_addr()
            );
            cfg.stats = Some(stats);
            Some(server)
        }
        None => None,
    };

    amjs_serve::signal::install();

    let report = if resume {
        // The snapshot knows which platform it holds; dispatch on its
        // tag. A resumed follower tails from its own recovered state, so
        // no bootstrap fetch is needed (the primary fences it if the
        // state turns out to be from another world or epoch).
        if let Some(primary) = &follow {
            cfg.follow = Some(FollowSpec {
                primary: primary.clone(),
                lease,
                bootstrap: None,
            });
        }
        let platform = snapshot_platform(&dir)
            .map_err(|e| ArgError(format!("--resume: cannot read {}: {e}", dir.display())))?;
        match platform.as_str() {
            "flat" => run_typed::<FlatCluster>(listener, None, true, cfg),
            "bgp" => run_typed::<BgpCluster>(listener, None, true, cfg),
            other => Err(ArgError(format!(
                "--resume: snapshot holds unknown platform {other:?}"
            ))),
        }
    } else if let Some(primary) = &follow {
        // Fresh follower: the primary's live snapshot says which
        // platform to instantiate — fetch it up front (it doubles as
        // the daemon's bootstrap, so nothing is transferred twice).
        let boot = fetch_snapshot(primary, lease.max(Duration::from_millis(500)))
            .map_err(|e| ArgError(format!("--follow: {e}")))?;
        let platform = peek_platform(&boot.payload)
            .map_err(|e| ArgError(format!("--follow: bootstrap snapshot: {e:?}")))?;
        cfg.follow = Some(FollowSpec {
            primary: primary.clone(),
            lease,
            bootstrap: Some(boot),
        });
        match platform.as_str() {
            "flat" => run_typed::<FlatCluster>(listener, None, false, cfg),
            "bgp" => run_typed::<BgpCluster>(listener, None, false, cfg),
            other => Err(ArgError(format!(
                "--follow: primary snapshot holds unknown platform {other:?}"
            ))),
        }
    } else {
        let machine = machine_spec(&parsed)?;
        let bf: f64 = parsed.get_parsed("bf", 0.5)?;
        let window: usize = parsed.get_parsed("window", 4)?;
        if !(0.0..=1.0).contains(&bf) {
            return Err(ArgError(format!("--bf must be in [0,1], got {bf}")));
        }
        if window == 0 {
            return Err(ArgError("--window: must be at least 1".into()));
        }
        let policy = PolicyParams::new(bf, window);
        match machine {
            MachineSpec::Flat { nodes } => run_typed(
                listener,
                Some(
                    SimulationBuilder::new(FlatCluster::new(nodes), Vec::new())
                        .policy(policy)
                        .label("serve".to_string()),
                ),
                false,
                cfg,
            ),
            MachineSpec::Bgp { nodes } => run_typed(
                listener,
                Some(
                    SimulationBuilder::new(BgpCluster::new((nodes / 512) as u16, 512), Vec::new())
                        .policy(policy)
                        .label("serve".to_string()),
                ),
                false,
                cfg,
            ),
        }
    }?;

    if let Some(server) = metrics_server {
        server.shutdown();
    }
    eprintln!(
        "amjs serve: {} commands applied, {} replicated, {} snapshots written, \
         {} requests shed, epoch {}",
        report.commands_applied,
        report.replicated,
        report.snapshots_written,
        report.sheds,
        report.final_epoch
    );
    Ok(())
}

fn run_typed<P: Platform + Snapshot + 'static>(
    listener: TcpListener,
    builder: Option<SimulationBuilder<P>>,
    resume: bool,
    cfg: ServeConfig,
) -> Result<amjs_serve::ServeReport, ArgError> {
    run_daemon(
        listener,
        move || {
            LiveScheduler::from_builder(
                builder.expect("non-follower fresh start always carries a builder"),
            )
        },
        resume,
        cfg,
    )
    .map_err(|e| ArgError(format!("serve: {e}")))
}
