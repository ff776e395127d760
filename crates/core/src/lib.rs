//! # amjs-core — adaptive metric-aware job scheduling
//!
//! The paper's contribution (Tang, Ren, Lan, Desai — ICPP 2012),
//! organized along its Fig. 1 architecture:
//!
//! * **metrics balancer** — [`score`] implements eqs. (1)–(3): each
//!   waiting job gets a waiting-time score `S_w` and a requested-walltime
//!   score `S_r`, blended by the *balance factor* `BF` into the priority
//!   `S_p = BF*S_w + (1-BF)*S_r`. `BF = 1` reproduces FCFS ordering,
//!   `BF = 0` reproduces SJF. [`policy`] carries the `(BF, W)` pair and
//!   the classic baseline orderings;
//! * **scheduling algorithm** — [`window`] implements step 5 (allocate a
//!   *window* of `W` jobs as a group, choosing the permutation with the
//!   least makespan) and [`scheduler`] assembles the full pass including
//!   step 6's backfill (EASY or conservative) on top of any
//!   `amjs-platform` machine;
//! * **metrics monitor + adaptive tuning** — [`adaptive`] implements the
//!   `<T, Ti, Δ, M, Th, Ep, Em, Ci>` tuple of Table I and Algorithm 1:
//!   checked every `Ci`, a monitored metric crossing its threshold steps
//!   the tunable (BF or W) up or down;
//! * **simulation runner** — [`runner`] binds a machine, a workload, the
//!   scheduler, the tuners and the `amjs-metrics` trackers onto the
//!   `amjs-sim` event engine, producing a [`runner::SimulationOutcome`]
//!   with Table-II-style summary numbers and the sampled series behind
//!   the paper's figures. [`fairshare`] computes per-job *fair start
//!   times* (the no-later-arrivals drain simulation used by the fairness
//!   metric);
//! * **live mode** — [`live`] inverts the event-loop ownership: a
//!   [`live::LiveScheduler`] is the same world stepped by *injected*
//!   events (external submissions, an external clock), the core of the
//!   `amjs serve` digital-twin daemon.

#![warn(missing_docs)]

pub mod adaptive;
pub mod estimates;
pub mod failures;
pub mod fairshare;
pub mod live;
pub mod passcache;
pub(crate) mod persist;
pub mod policy;
pub mod runner;
pub mod scheduler;
pub mod score;
pub mod spec;
pub(crate) mod state;
pub mod window;

pub use adaptive::{AdaptiveScheme, TunerConfig};
pub use live::{JobStatus, LiveScheduler, LiveStateStats, SubmitError, WhatIfAnswer};
pub use passcache::{CacheOutcome, PassCache, PassCacheStats};
pub use policy::{PolicyParams, QueuePolicy};
pub use runner::{SimulationBuilder, SimulationOutcome};
pub use scheduler::{BackfillMode, QueuedJob, ScheduleDecision, Scheduler};
pub use spec::{
    par_map, AdaptiveKind, MachineSpec, PresetName, RunDigest, RunSpec, WorkloadSource,
};
