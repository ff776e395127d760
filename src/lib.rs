//! # amjs — Adaptive Metric-Aware Job Scheduling
//!
//! Umbrella crate for the reproduction of *"Adaptive Metric-Aware Job
//! Scheduling for Production Supercomputers"* (Tang, Ren, Lan, Desai —
//! ICPP 2012). It re-exports the workspace crates under stable module
//! names so downstream users depend on a single crate:
//!
//! * [`sim`] — deterministic discrete-event engine (`amjs-sim`);
//! * [`platform`] — machine models incl. the Blue Gene/P partitioned
//!   torus (`amjs-platform`);
//! * [`workload`] — job model, SWF traces, synthetic Intrepid-like
//!   generator (`amjs-workload`);
//! * [`metrics`] — wait / queue depth / fairness / utilization / loss of
//!   capacity (`amjs-metrics`);
//! * [`obs`] — observability: decision tracing, span profiling, live
//!   Prometheus exposition (`amjs-obs`);
//! * [`core`] — the paper's contribution: metric-aware scheduling and
//!   adaptive policy tuning (`amjs-core`).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use amjs::prelude::*;
//!
//! // A small machine and a small synthetic workload.
//! let platform = FlatCluster::new(1024);
//! let workload = WorkloadSpec::small_test().generate(42);
//!
//! // The paper's scheduler: balance factor 0.5, window size 4, EASY.
//! let policy = PolicyParams::new(0.5, 4);
//! let outcome = SimulationBuilder::new(platform, workload)
//!     .policy(policy)
//!     .run();
//!
//! assert!(outcome.summary.jobs_completed > 0);
//! ```

pub use amjs_core as core;
pub use amjs_metrics as metrics;
pub use amjs_obs as obs;
pub use amjs_platform as platform;
pub use amjs_sim as sim;
pub use amjs_workload as workload;

/// One-stop imports for examples and downstream applications.
pub mod prelude {
    pub use amjs_core::adaptive::{
        AdaptiveScheme, BfTuner, MonitoredMetric, TunerConfig, TwoDTuner, WindowTuner,
    };
    pub use amjs_core::policy::PolicyParams;
    pub use amjs_core::runner::{SimulationBuilder, SimulationOutcome};
    pub use amjs_core::scheduler::{BackfillMode, Scheduler};
    pub use amjs_metrics::report::MetricsSummary;
    pub use amjs_obs::{Observer, Profiler, RingSink, TraceEvent, TraceRecord, VecSink};
    pub use amjs_platform::bgp::BgpCluster;
    pub use amjs_platform::flat::FlatCluster;
    pub use amjs_platform::Platform;
    pub use amjs_sim::{SimDuration, SimTime};
    pub use amjs_workload::job::{Job, JobId};
    pub use amjs_workload::swf;
    pub use amjs_workload::synth::WorkloadSpec;
}
