//! Observability for `amjs`: decision tracing, span-based
//! self-profiling, and the metrics exposition the serve daemon
//! answers scrapes with.
//!
//! The layer is hand-rolled (zero external dependencies, like the rest
//! of the workspace) and strictly pay-for-what-you-use:
//!
//! * **Decision tracing** ([`event`], [`sink`]) — structured records of
//!   every scheduling decision: per-job score breakdowns (paper
//!   eqs. 1–3), window-permutation choices with the losing
//!   permutations' makespans, backfill accept/reject reasons, adaptive
//!   tuner transitions, and the failure/repair/retry lifecycle. Each
//!   record carries the engine event index, so traces line up exactly
//!   with oracle tags and with each other.
//! * **Explain** ([`explain`]) — reconstruct one job's decision chain
//!   from a JSONL trace into a human-readable timeline
//!   (`amjs trace explain`).
//! * **Self-profiling** ([`profile`]) — hierarchical wall-clock spans
//!   around the hot paths, aggregated into a table and JSON.
//! * **Exposition** ([`expo`]) — a `std::net` HTTP listener serving
//!   Prometheus text format; `amjs serve --metrics-addr` starts it.
//!
//! Tracing and profiling funnel through one [`Observer`] handle; with nothing
//! attached it costs a counter increment per event and guarantees
//! byte-identical simulation outputs.

#![warn(missing_docs)]

pub mod event;
pub mod explain;
pub mod expo;
pub mod hist;
pub mod json;
pub mod observer;
pub mod profile;
pub mod sink;

pub use event::{
    BackfillReason, LosingPerm, MetricsSampleEv, RetryOutcome, TraceEvent, TraceRecord,
    TunerTransitionEv, WindowChoiceEv,
};
pub use explain::{explain_job, parse_trace, read_trace};
pub use expo::{prometheus_text, shared_stats, HistEntry, LiveStats, MetricsServer, SharedStats};
pub use hist::Histogram;
pub use observer::{Observer, SharedProfiler, SharedSink};
pub use profile::{Profiler, SpanStats, SpanToken};
pub use sink::{JsonlSink, Ring, RingSink, TraceSink, VecSink};
