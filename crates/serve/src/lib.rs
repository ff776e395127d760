//! # amjs-serve — the live scheduler daemon
//!
//! Batch simulation answers "what would this policy have done"; this
//! crate answers "what is the scheduler doing *right now*". It wraps
//! the live-mode core (`amjs_core::live`) in a `std::net` TCP service
//! speaking a small length-prefixed line protocol, and layers on the
//! robustness machinery every earlier PR built for the batch path:
//!
//! - **[`proto`]** — `<len>:<payload>\n` framing plus the command
//!   codec (`SUBMIT`, `STATUS`, `CANCEL`, `WHATIF`, `ADVANCE`,
//!   `STATS`, `HASH`, `DRAIN`, `SHUTDOWN`, `PING`). Hard frame-size
//!   cap; malformed input is a clean `ERR`, never a panic.
//! - **[`wal`]** — checksummed append-only command journal. Accepted
//!   mutations are applied, journaled, flushed, *then* acknowledged,
//!   so a SIGKILL can never lose an acknowledged submission.
//! - **[`collog`]** — the column log: the append-only part of the run
//!   state, written once. A snapshot appends a frame of what the
//!   columns gained and rotates only a few-KB head.
//! - **[`daemon`]** — the service itself: one engine behind one lock,
//!   stepped on the connection thread that read each request, bounded
//!   admission with `BUSY` load-shedding, per-connection
//!   read deadlines, supervised what-if workers, snapshot rotation,
//!   and crash recovery (snapshot + WAL-tail replay through the same
//!   apply path as live service).
//! - **[`repl`]** — hot-standby replication: snapshot bootstrap, WAL
//!   tailing with per-record `state_hash` cross-checks, and epoch-fenced
//!   automatic failover.
//! - **[`signal`]** — SIGTERM/SIGINT → graceful drain via one atomic
//!   flag, no signal crate.
//! - **[`telemetry`]** — serving-layer latency distributions (per-verb
//!   request, WAL append, snapshot write, replication lag) published
//!   as Prometheus histograms through the metrics endpoint.
//! - **[`flight`]** — crash flight recorder: a bounded ring of recent
//!   request/apply/repl events flushed to `flightrec.jsonl` by a panic
//!   hook and the shutdown path, for `amjs doctor` postmortems.
//!
//! Like the rest of the workspace, this crate uses no external
//! dependencies: sockets, threads, and channels all come from `std`.

pub mod collog;
pub mod daemon;
pub mod flight;
pub mod proto;
pub mod repl;
pub mod signal;
pub mod telemetry;
pub mod wal;

pub use collog::{column_log_path, read_column_log, split_head};
pub use daemon::{
    recover, run_daemon, snapshot_platform, ClockMode, FollowSpec, ServeConfig, ServeError,
    ServeReport,
};
pub use flight::{read_flightrec, FlightEvent, FlightKind, FlightRecorder};
pub use proto::{read_frame, write_frame, Command, FrameError, MAX_FRAME};
pub use repl::{fetch_snapshot, Bootstrap};
pub use telemetry::{shared_telemetry, SharedTelemetry, Telemetry, TRACKED_VERBS};
pub use wal::{read_wal, WalError, WalRecord, WalWriter};
