//! # amjs-fleet — the fault-tolerant parallel sweep orchestrator
//!
//! Every experiment is a *grid* of independent, deterministic
//! simulations ([`amjs_core::RunSpec`] grid points). This crate fans a
//! grid across all cores and makes the sweep robust by construction:
//!
//! * **supervised workers** — each run executes once, under
//!   `catch_unwind`, so a panicking simulation (an oracle trip, a
//!   workload that cannot load) becomes a `failed` record instead of
//!   poisoning the sweep;
//! * **deadlines** — a per-run wall-clock timeout is enforced by the
//!   supervising worker (the run executes on its own thread, which is
//!   abandoned when it overruns) and recorded as `timeout`; a shared
//!   inflight table lets the heartbeat name overdue runs;
//! * **deterministic aggregation** — per-run rows and per-config
//!   mean ± 95% CI aggregates are emitted in grid order, so the
//!   aggregated CSV is byte-identical across worker counts and
//!   work-stealing schedules (see [`aggregate`]).
//!
//! A sweep keeps no state on disk: each grid point is a pure function
//! of its spec, so a sweep that was killed is simply run again.

#![warn(missing_docs)]

pub mod aggregate;
pub mod digest;
pub mod engine;

pub use aggregate::{aggregate_csv, bench_json, render_table};
pub use digest::RunDigest;
pub use engine::{
    default_exec, run_fleet, validate_grid, Exec, FleetConfig, FleetError, FleetReport, RunRecord,
    RunStatus,
};
