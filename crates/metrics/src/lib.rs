//! # amjs-metrics — the paper's evaluation metrics
//!
//! Section IV-A of the paper defines five metrics; each has a module
//! here:
//!
//! * **waiting time** ([`wait`]) — submit→start delay per job; the paper
//!   reports the average in minutes (Table II, Fig. 3a);
//! * **queue depth** ([`series`] + the runner) — the sum of waiting time
//!   accrued so far by all *currently queued* jobs, sampled every 30
//!   minutes (Figs. 4, 6a). A monitoring metric, so it lives as a
//!   [`series::TimeSeries`] fed by the simulation runner;
//! * **fairness** ([`fairness`]) — each job gets a *fair start time* (its
//!   start if no later job had ever arrived, under the current policy);
//!   jobs starting later than that are counted as unfairly treated
//!   (Table II, Fig. 3b);
//! * **system utilization** ([`utilization`]) — delivered/available
//!   node-time, instant and trailing 1 H/10 H/24 H averages (Figs. 5,
//!   6b);
//! * **loss of capacity** ([`loc`]) — eq. (4): idle node-time accumulated
//!   while some waiting job is small enough to fit in the idle capacity,
//!   normalized by total node-time (Table II, Fig. 3c).
//!
//! [`report::MetricsSummary`] bundles the end-of-run numbers into one
//! comparable row (the shape of Table II).

#![warn(missing_docs)]

pub mod domains;
pub mod fairness;
pub mod loc;
pub mod report;
pub mod series;
pub mod utilization;
pub mod wait;

pub use domains::{DomainDowntime, DomainOutage, FaultDomain};
pub use fairness::FairnessTracker;
pub use loc::LossOfCapacity;
pub use report::MetricsSummary;
pub use series::TimeSeries;
pub use utilization::UtilizationTracker;
pub use wait::WaitStats;
