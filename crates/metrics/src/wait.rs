//! Per-job waiting time accounting.
//!
//! "A job's waiting time refers to the time period between when the job
//! is submitted and when it is started. The average waiting time among
//! all finished jobs in a workload is usually measured to reflect the
//! 'efficiency' of a scheduling policy." (paper §IV-A). Reported in
//! minutes throughout, matching Table II.

use amjs_sim::SimDuration;
use amjs_workload::JobId;

/// Accumulates per-job waits as jobs start.
#[derive(Clone, Debug, Default)]
pub struct WaitStats {
    waits: Vec<(JobId, SimDuration)>,
    /// `(wait, runtime)` pairs for slowdown computation (recorded when
    /// the caller knows the runtime).
    slowdowns: Vec<(SimDuration, SimDuration)>,
}

impl WaitStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `job` waited `wait` before starting.
    ///
    /// # Panics
    /// Panics on a negative wait — a job cannot start before it is
    /// submitted.
    pub fn record(&mut self, job: JobId, wait: SimDuration) {
        assert!(!wait.is_negative(), "{job} has negative wait {wait}");
        self.waits.push((job, wait));
    }

    /// Number of recorded jobs.
    pub fn count(&self) -> usize {
        self.waits.len()
    }

    /// Average wait in minutes (0 for an empty record, matching how an
    /// idle system would be reported).
    pub fn mean_mins(&self) -> f64 {
        if self.waits.is_empty() {
            return 0.0;
        }
        let total: i64 = self.waits.iter().map(|&(_, w)| w.as_secs()).sum();
        total as f64 / 60.0 / self.waits.len() as f64
    }

    /// Maximum wait in minutes.
    pub fn max_mins(&self) -> f64 {
        self.waits
            .iter()
            .map(|&(_, w)| w.as_mins_f64())
            .fold(0.0, f64::max)
    }

    /// Median wait in minutes (0 for empty).
    pub fn median_mins(&self) -> f64 {
        if self.waits.is_empty() {
            return 0.0;
        }
        let mut secs: Vec<i64> = self.waits.iter().map(|&(_, w)| w.as_secs()).collect();
        secs.sort_unstable();
        let n = secs.len();
        let median_secs = if n % 2 == 1 {
            secs[n / 2] as f64
        } else {
            (secs[n / 2 - 1] + secs[n / 2]) as f64 / 2.0
        };
        median_secs / 60.0
    }

    /// The p-th percentile wait (0 < p <= 100) in minutes, by
    /// nearest-rank.
    pub fn percentile_mins(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0);
        if self.waits.is_empty() {
            return 0.0;
        }
        let mut secs: Vec<i64> = self.waits.iter().map(|&(_, w)| w.as_secs()).collect();
        secs.sort_unstable();
        let rank = ((p / 100.0 * secs.len() as f64).ceil() as usize).clamp(1, secs.len());
        secs[rank - 1] as f64 / 60.0
    }

    /// Per-job records, in recording (start) order.
    pub fn records(&self) -> &[(JobId, SimDuration)] {
        &self.waits
    }

    /// Record a `(wait, runtime)` pair for slowdown accounting.
    pub fn record_slowdown(&mut self, wait: SimDuration, runtime: SimDuration) {
        assert!(!wait.is_negative() && runtime.as_secs() > 0);
        self.slowdowns.push((wait, runtime));
    }

    /// Mean *bounded slowdown* (Feitelson's standard responsiveness
    /// metric): `max(1, (wait + runtime) / max(runtime, bound))`, with
    /// the 10-second bound preventing tiny jobs from dominating.
    pub fn mean_bounded_slowdown(&self) -> f64 {
        const BOUND_SECS: f64 = 10.0;
        if self.slowdowns.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .slowdowns
            .iter()
            .map(|&(wait, runtime)| {
                let w = wait.as_secs() as f64;
                let r = runtime.as_secs() as f64;
                ((w + r) / r.max(BOUND_SECS)).max(1.0)
            })
            .sum();
        total / self.slowdowns.len() as f64
    }
}

/// Both vectors are columns of the run state: only ever pushed to.
impl WaitStats {
    /// Write the two columns.
    pub fn encode_columns(&self, w: &mut amjs_sim::ColumnWriter<'_>) {
        w.column(&self.waits);
        w.column(&self.slowdowns);
    }

    /// Read back what [`WaitStats::encode_columns`] wrote.
    pub fn decode_columns(r: &mut amjs_sim::ColumnReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        Ok(WaitStats {
            waits: r.column()?,
            slowdowns: r.column()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(mins: i64) -> SimDuration {
        SimDuration::from_mins(mins)
    }

    #[test]
    fn mean_median_max() {
        let mut w = WaitStats::new();
        for (i, mins) in [0, 10, 20, 30, 100].iter().enumerate() {
            w.record(JobId(i as u64), d(*mins));
        }
        assert_eq!(w.count(), 5);
        assert!((w.mean_mins() - 32.0).abs() < 1e-9);
        assert_eq!(w.median_mins(), 20.0);
        assert_eq!(w.max_mins(), 100.0);
    }

    #[test]
    fn even_count_median_averages() {
        let mut w = WaitStats::new();
        w.record(JobId(0), d(10));
        w.record(JobId(1), d(20));
        assert_eq!(w.median_mins(), 15.0);
    }

    #[test]
    fn percentiles() {
        let mut w = WaitStats::new();
        for i in 1..=100 {
            w.record(JobId(i as u64), d(i));
        }
        assert_eq!(w.percentile_mins(50.0), 50.0);
        assert_eq!(w.percentile_mins(95.0), 95.0);
        assert_eq!(w.percentile_mins(100.0), 100.0);
        assert_eq!(w.percentile_mins(1.0), 1.0);
    }

    #[test]
    fn empty_is_zero() {
        let w = WaitStats::new();
        assert_eq!(w.mean_mins(), 0.0);
        assert_eq!(w.median_mins(), 0.0);
        assert_eq!(w.max_mins(), 0.0);
        assert_eq!(w.percentile_mins(99.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative wait")]
    fn negative_wait_panics() {
        let mut w = WaitStats::new();
        w.record(JobId(0), SimDuration::from_secs(-1));
    }

    #[test]
    fn bounded_slowdown_hand_computed() {
        let mut w = WaitStats::new();
        // No wait → slowdown exactly 1.
        w.record_slowdown(SimDuration::ZERO, SimDuration::from_secs(100));
        // Wait == runtime → slowdown 2.
        w.record_slowdown(SimDuration::from_secs(300), SimDuration::from_secs(300));
        // Tiny job: bound kicks in. wait 100 s, runtime 1 s →
        // (100+1)/max(1,10) = 10.1, not 101.
        w.record_slowdown(SimDuration::from_secs(100), SimDuration::from_secs(1));
        let mean = w.mean_bounded_slowdown();
        assert!((mean - (1.0 + 2.0 + 10.1) / 3.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn bounded_slowdown_empty_is_zero() {
        assert_eq!(WaitStats::new().mean_bounded_slowdown(), 0.0);
    }
}
