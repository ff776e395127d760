//! The per-run result a sweep keeps: a compact digest of one
//! [`SimulationOutcome`].
//!
//! A full outcome carries every sampled time series and per-job record
//! — far too heavy to keep for thousands of runs. The digest keeps
//! the Table-II summary plus the handful of whole-run numbers the
//! experiment binaries aggregate (queue-depth mean for threshold
//! calibration, failure/downtime accounting, pass counts for the
//! runs/s trajectory).

use amjs_core::runner::SimulationOutcome;
use amjs_metrics::{FaultDomain, MetricsSummary};

/// Whole-run numbers distilled from one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDigest {
    /// The Table-II-style summary.
    pub summary: MetricsSummary,
    /// Mean sampled queue depth in minutes (threshold calibration).
    pub queue_depth_mean: f64,
    /// Job interruptions caused by injected failures.
    pub interrupted_jobs: u64,
    /// Node-hours of progress destroyed by failures.
    pub lost_node_hours: f64,
    /// Smallest sampled in-service fraction of the machine (1.0 on a
    /// reliable machine).
    pub min_availability: f64,
    /// Label of the widest failure domain that actually faulted
    /// (`"-"` without failure injection).
    pub worst_domain: String,
    /// Scheduling passes executed (cost accounting, passes/s).
    pub scheduler_passes: u64,
    /// Jobs started via backfill.
    pub backfilled_starts: u64,
}

impl RunDigest {
    /// Distill an outcome.
    pub fn from_outcome(o: &SimulationOutcome) -> Self {
        let min_availability = o
            .availability
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(1.0f64, f64::min);
        let worst_domain = FaultDomain::ALL
            .iter()
            .rev()
            .find(|&&l| o.domain_downtime.level(l).faults > 0)
            .map(|l| l.label().to_string())
            .unwrap_or_else(|| "-".to_string());
        RunDigest {
            summary: o.summary.clone(),
            queue_depth_mean: o.queue_depth.mean_value().unwrap_or(0.0),
            interrupted_jobs: o.interrupted_jobs,
            lost_node_hours: o.lost_node_hours,
            min_availability,
            worst_domain,
            scheduler_passes: o.scheduler_passes,
            backfilled_starts: o.backfilled_starts,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use amjs_sim::SimDuration;

    pub(crate) fn sample(label: &str) -> RunDigest {
        RunDigest {
            summary: MetricsSummary {
                label: label.to_string(),
                jobs_completed: 100,
                avg_wait_mins: 245.2,
                max_wait_mins: 900.0,
                unfair_jobs: 10,
                loc_percent: 15.7,
                avg_utilization: 0.81,
                mean_bounded_slowdown: 4.2,
                makespan: SimDuration::from_hours(720),
                node_downtime_hours: 12.5,
                abandoned_jobs: 2,
            },
            queue_depth_mean: 1034.0,
            interrupted_jobs: 3,
            lost_node_hours: 44.5,
            min_availability: 0.975,
            worst_domain: "rack".to_string(),
            scheduler_passes: 15_000,
            backfilled_starts: 800,
        }
    }

    #[test]
    fn digest_from_a_real_outcome() {
        let spec = amjs_core::RunSpec::new(
            "d",
            amjs_core::MachineSpec::Flat { nodes: 1024 },
            amjs_core::WorkloadSource::Preset {
                name: amjs_core::PresetName::Small,
                seed: 5,
                load_factor: 1.0,
            },
            amjs_core::PolicyParams::fcfs(),
        );
        let out = spec.execute();
        let d = RunDigest::from_outcome(&out);
        assert_eq!(d.summary, out.summary);
        assert_eq!(d.worst_domain, "-");
        assert_eq!(d.min_availability, 1.0);
        assert!(d.scheduler_passes > 0);
    }
}
