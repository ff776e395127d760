//! `amjs serve` — run the live scheduler daemon.
//!
//! Thin flag-to-config mapping over [`amjs_serve::run_daemon`]: parse
//! the address, state directory, machine/policy shape (fresh starts) or
//! dispatch on the recovered snapshot's platform tag (`--resume`), bind
//! the listener and optional metrics endpoint up front so bad addresses
//! fail with a diagnostic instead of after the daemon is half-up, then
//! hand the calling thread to the daemon as its ticker.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Duration;

use amjs_core::live::peek_platform;
use amjs_core::{LiveScheduler, MachineSpec, PolicyParams, SimulationBuilder};
use amjs_obs::{shared_stats, MetricsServer};
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_serve::{
    fetch_snapshot, run_daemon, snapshot_platform, ClockMode, FollowSpec, ServeConfig,
};
use amjs_sim::Snapshot;

use crate::args::{self, ArgError, FlagSpec, ParsedArgs};
use crate::config::machine_spec;

fn flag_specs() -> Vec<FlagSpec> {
    // The daemon's numbers are `ServeConfig::new`'s and `FollowSpec::new`'s
    // — the configuration the pinned benchmark drives.
    let d = ServeConfig::new("");
    vec![
        FlagSpec::switch("help", "show this help"),
        FlagSpec::with_default(
            "serve-addr",
            "127.0.0.1:7621",
            "TCP address to listen on (e.g. 127.0.0.1:7621; port 0 picks one)",
        ),
        FlagSpec::value(
            "serve-dir",
            "state directory for the command journal and snapshots (required)",
        ),
        FlagSpec::switch(
            "resume",
            "recover state from --serve-dir instead of starting fresh",
        ),
        FlagSpec::with_default(
            "clock",
            "virtual",
            "virtual (time moves via ADVANCE) or wall[:scale] (e.g. wall:60)",
        ),
        FlagSpec::with_default(
            "machine",
            "bgp",
            "machine model for a fresh start: bgp|flat",
        ),
        FlagSpec::with_default(
            "nodes",
            MachineSpec::intrepid().nodes(),
            "machine size in nodes (fresh start)",
        ),
        FlagSpec::with_default(
            "bf",
            0.5,
            "balance factor of the starting policy (fresh start)",
        ),
        FlagSpec::with_default(
            "window",
            4,
            "queue window of the starting policy (fresh start)",
        ),
        FlagSpec::with_default(
            "snapshot-every",
            d.snapshot_every,
            "write a rotating snapshot every N accepted commands",
        ),
        FlagSpec::with_default(
            "snapshot-keep",
            d.keep_snapshots,
            "rotated snapshots to retain (genesis is always kept)",
        ),
        FlagSpec::with_default(
            "max-conns",
            d.max_conns,
            "concurrent connection cap; excess clients get BUSY",
        ),
        FlagSpec::with_default(
            "admission-cap",
            d.admission_cap,
            "bounded admission queue depth; when full, clients get BUSY",
        ),
        FlagSpec::with_default(
            "read-timeout-ms",
            d.read_timeout.as_millis(),
            "per-connection read deadline; idle clients are culled",
        ),
        FlagSpec::with_default(
            "whatif-cap",
            d.whatif_cap,
            "concurrent WHATIF worker cap (0 sheds every query)",
        ),
        FlagSpec::with_default(
            "whatif-deadline-ms",
            d.whatif_deadline.as_millis(),
            "per-query WHATIF deadline",
        ),
        FlagSpec::with_default(
            "whatif-horizon",
            d.whatif_horizon_secs,
            "default WHATIF speculation horizon, seconds",
        ),
        FlagSpec::with_default(
            "oracle-every",
            d.oracle_every,
            "run the invariant suite every N accepted commands (0 = off)",
        ),
        FlagSpec::with_default(
            "flightrec",
            d.flightrec,
            "crash flight recorder capacity in events (0 disables it)",
        ),
        FlagSpec::value(
            "metrics-addr",
            "also serve Prometheus metrics on this address",
        ),
        FlagSpec::value(
            "follow",
            "run as a hot-standby follower of this primary (host:port)",
        ),
        FlagSpec::with_default(
            "lease-ms",
            FollowSpec::new("").lease.as_millis(),
            "failover lease: promote after this long without primary contact",
        ),
        FlagSpec::with_default(
            "repl-heartbeat-ms",
            d.repl_heartbeat.as_millis(),
            "heartbeat cadence on follower streams (primary side)",
        ),
    ]
}

fn help() -> String {
    format!(
        "{}\n\n\
         usage: amjs serve --serve-dir <dir> [flags]\n\n\
         Speaks a length-prefixed line protocol: frame = `<len>:<payload>\\n`.\n\
         Verbs: SUBMIT NODES=n WALL=s [RUN=s] [USER=u], STATUS <job>,\n\
         CANCEL <job>, WHATIF <job> [BF=f] [W=n] [HORIZON=s], ADVANCE <s>,\n\
         STATS, HASH, ROLE, PING, DRAIN, SHUTDOWN.\n\n\
         Every accepted mutation is written to the OS, not synced, before\n\
         it is acknowledged; `--resume` restarts into byte-identical state.\n\
         With `--follow <primary>` the daemon runs as a hot standby: it\n\
         bootstraps from the primary's snapshot, mirrors its journal\n\
         (cross-checking every record's state hash), refuses writes, and\n\
         promotes itself into a new fenced epoch if the primary goes\n\
         silent past the lease.\n\n\
         flags:\n{}",
        crate::commands::title("serve"),
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
                let scale = args::finite_f64(scale).ok_or_else(|| {
                    ArgError(format!("--clock: cannot parse wall scale {scale:?}"))
                })?;
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

/// Everything `amjs serve` configures from flags, validated — no
/// socket bound and no state touched yet.
fn serve_config(parsed: &ParsedArgs, dir: &Path) -> Result<ServeConfig, ArgError> {
    let resume = parsed.get_bool("resume");
    let fresh_only = parsed.given_among(FRESH_ONLY_FLAGS).join(", ");
    if resume && !fresh_only.is_empty() {
        return Err(ArgError(format!(
            "--resume cannot be combined with {fresh_only}: the recovered snapshot \
             already carries the machine and policy"
        )));
    }

    let mut cfg = ServeConfig::new(dir);
    cfg.clock = parse_clock(parsed.get_or_default("clock"))?;
    cfg.snapshot_every = parsed.get_parsed("snapshot-every")?;
    if cfg.snapshot_every == 0 {
        return Err(ArgError(
            "--snapshot-every: a cadence of 0 would snapshot never".into(),
        ));
    }
    cfg.keep_snapshots = parsed.get_parsed("snapshot-keep")?;
    if cfg.keep_snapshots == 0 {
        return Err(ArgError(
            "--snapshot-keep: must retain at least 1 snapshot".into(),
        ));
    }
    cfg.max_conns = parsed.get_parsed("max-conns")?;
    if cfg.max_conns == 0 {
        return Err(ArgError(
            "--max-conns: a cap of 0 would shed every client".into(),
        ));
    }
    cfg.admission_cap = parsed.get_parsed("admission-cap")?;
    if cfg.admission_cap == 0 {
        return Err(ArgError(
            "--admission-cap: a depth of 0 would shed every command".into(),
        ));
    }
    cfg.read_timeout = Duration::from_millis(parsed.get_parsed("read-timeout-ms")?);
    if cfg.read_timeout.is_zero() {
        return Err(ArgError("--read-timeout-ms: must be positive".into()));
    }
    cfg.whatif_cap = parsed.get_parsed("whatif-cap")?;
    cfg.whatif_deadline = Duration::from_millis(parsed.get_parsed("whatif-deadline-ms")?);
    if cfg.whatif_deadline.is_zero() {
        return Err(ArgError("--whatif-deadline-ms: must be positive".into()));
    }
    cfg.whatif_horizon_secs = parsed.get_parsed("whatif-horizon")?;
    if cfg.whatif_horizon_secs <= 0 {
        return Err(ArgError(
            "--whatif-horizon: must be positive seconds".into(),
        ));
    }
    cfg.oracle_every = parsed.get_parsed("oracle-every")?;
    cfg.flightrec = parsed.get_parsed("flightrec")?;

    // ----- replication flags -----
    let lease = Duration::from_millis(parsed.get_parsed("lease-ms")?);
    cfg.repl_heartbeat = Duration::from_millis(parsed.get_parsed("repl-heartbeat-ms")?);
    if cfg.repl_heartbeat.is_zero() {
        return Err(ArgError("--repl-heartbeat-ms: must be positive".into()));
    }
    if let Some(primary) = parsed.get("follow") {
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
        if !resume && !fresh_only.is_empty() {
            return Err(ArgError(format!(
                "--follow cannot be combined with {fresh_only}: the bootstrap snapshot \
                 already carries the machine and policy"
            )));
        }
        cfg.follow = Some(FollowSpec {
            lease,
            ..FollowSpec::new(primary)
        });
    } else if parsed.is_given("lease-ms") {
        return Err(ArgError(
            "--lease-ms only makes sense with --follow (it is the follower's \
             promotion timer)"
                .into(),
        ));
    }
    Ok(cfg)
}

/// The machine and starting policy of a fresh daemon.
fn fresh_start(parsed: &ParsedArgs) -> Result<(MachineSpec, PolicyParams), ArgError> {
    let machine = machine_spec(parsed)?;
    let bf: f64 = parsed.get_parsed("bf")?;
    let window: usize = parsed.get_parsed("window")?;
    if !(0.0..=1.0).contains(&bf) {
        return Err(ArgError(format!("--bf must be in [0,1], got {bf}")));
    }
    if window == 0 {
        return Err(ArgError("--window: must be at least 1".into()));
    }
    Ok((machine, PolicyParams::new(bf, window)))
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
    let mut cfg = serve_config(&parsed, &dir)?;
    let resume = parsed.get_bool("resume");
    let fresh = if resume || cfg.follow.is_some() {
        None
    } else {
        Some(fresh_start(&parsed)?)
    };

    // Bind both listeners before touching durable state so a bad or
    // in-use address is a clean diagnostic, not a half-started daemon.
    let addr = parsed.get_or_default("serve-addr");
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

    let report = if let Some((machine, policy)) = fresh {
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
    } else if resume {
        // The snapshot knows which platform it holds; dispatch on its
        // tag. A resumed follower tails from its own recovered state, so
        // no bootstrap fetch is needed (the primary fences it if the
        // state turns out to be from another world or epoch).
        let platform = snapshot_platform(&dir)
            .map_err(|e| ArgError(format!("--resume: cannot read {}: {e}", dir.display())))?;
        match platform.as_str() {
            "flat" => run_typed::<FlatCluster>(listener, None, true, cfg),
            "bgp" => run_typed::<BgpCluster>(listener, None, true, cfg),
            other => Err(ArgError(format!(
                "--resume: snapshot holds unknown platform {other:?}"
            ))),
        }
    } else {
        // Fresh follower: the primary's live snapshot says which
        // platform to instantiate — fetch it up front (it doubles as
        // the daemon's bootstrap, so nothing is transferred twice).
        let follow = cfg.follow.as_mut().expect("neither fresh nor resumed");
        let boot = fetch_snapshot(
            &follow.primary,
            follow.lease.max(Duration::from_millis(500)),
        )
        .map_err(|e| ArgError(format!("--follow: {e}")))?;
        let platform = peek_platform(&boot.payload)
            .map_err(|e| ArgError(format!("--follow: bootstrap snapshot: {e:?}")))?;
        follow.bootstrap = Some(boot);
        match platform.as_str() {
            "flat" => run_typed::<FlatCluster>(listener, None, false, cfg),
            "bgp" => run_typed::<BgpCluster>(listener, None, false, cfg),
            other => Err(ArgError(format!(
                "--follow: primary snapshot holds unknown platform {other:?}"
            ))),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field a flag sets (`follow` apart).
    fn knobs(c: &ServeConfig) -> impl PartialEq + std::fmt::Debug + '_ {
        let sizes = (c.keep_snapshots, c.max_conns, c.admission_cap, c.whatif_cap);
        let times = (c.read_timeout, c.whatif_deadline, c.repl_heartbeat);
        let every = (c.snapshot_every, c.oracle_every, c.whatif_horizon_secs);
        (&c.dir, c.clock, sizes, times, every, c.flightrec)
    }

    /// The table renders `ServeConfig::new`, so an empty argv parses
    /// back to it: the CLI's default daemon is the library's (and the
    /// pinned benchmark's).
    #[test]
    fn an_empty_argv_is_serve_config_new() {
        let parsed = args::parse(&[], &flag_specs()).unwrap();
        let (cfg, d) = (
            serve_config(&parsed, Path::new("state")).unwrap(),
            ServeConfig::new("state"),
        );
        assert_eq!(knobs(&cfg), knobs(&d));
        assert!(cfg.follow.is_none() && cfg.stats.is_none());
        let fresh = (MachineSpec::intrepid(), PolicyParams::new(0.5, 4));
        assert_eq!(fresh_start(&parsed).unwrap(), fresh);

        let argv = ["--follow".to_string(), "primary:1".to_string()];
        let parsed = args::parse(&argv, &flag_specs()).unwrap();
        let follow = serve_config(&parsed, Path::new("state")).unwrap().follow;
        assert_eq!(follow.unwrap().lease, FollowSpec::new("").lease);
    }
}
