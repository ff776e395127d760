//! Fairness via fair start times.
//!
//! Paper §IV-A: "we assign a 'fair start time' to each job at its
//! submission. Any job started after its 'fair start time' is considered
//! to have been treated unfairly. The 'fair start time' is calculated as
//! follows: assuming there is no later arrival jobs, we conduct a
//! simulation of scheduling under current scheduling policy and get when
//! the job will be started." (The approach of Sabin et al., ICPP 2004.)
//!
//! The drain simulation itself lives in `amjs-core` (it needs the
//! scheduler), and so does the fair start of a job that has not started
//! yet — the runner's live state. This tracker stores the completed
//! (fair, actual) pairs and counts violations. A small tolerance absorbs
//! the one-second rounding of the event engine — a job is *unfair* only
//! if it started more than [`FairnessTracker::tolerance`] after its fair
//! start time.

use amjs_sim::{SimDuration, SimTime, Snapshot};
use amjs_workload::JobId;

/// Record of one job's fairness outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FairnessRecord {
    /// The job.
    pub job: JobId,
    /// Start the job would have had with no later arrivals.
    pub fair_start: SimTime,
    /// Start the job actually got.
    pub actual_start: SimTime,
}

impl FairnessRecord {
    /// How far past its fair start the job began (clamped at zero).
    pub fn delay(&self) -> SimDuration {
        (self.actual_start - self.fair_start).max_zero()
    }
}

/// Collects fair/actual start pairs and summarizes unfairness.
#[derive(Clone, Debug)]
pub struct FairnessTracker {
    tolerance: SimDuration,
    records: Vec<FairnessRecord>,
}

impl Default for FairnessTracker {
    fn default() -> Self {
        Self::new(SimDuration::from_secs(60))
    }
}

impl FairnessTracker {
    /// Tracker with the given unfairness tolerance (default 60 s).
    pub fn new(tolerance: SimDuration) -> Self {
        assert!(!tolerance.is_negative());
        FairnessTracker {
            tolerance,
            records: Vec::new(),
        }
    }

    /// The tolerance in use.
    pub fn tolerance(&self) -> SimDuration {
        self.tolerance
    }

    /// Record that `job`, whose fair start was computed at submission,
    /// actually started at `actual_start`.
    pub fn record(&mut self, job: JobId, fair_start: SimTime, actual_start: SimTime) {
        self.records.push(FairnessRecord {
            job,
            fair_start,
            actual_start,
        });
    }

    /// Jobs started more than the tolerance after their fair start.
    pub fn unfair_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.actual_start > r.fair_start + self.tolerance)
            .count()
    }

    /// Number of completed (fair, actual) pairs.
    pub fn total_count(&self) -> usize {
        self.records.len()
    }

    /// Mean unfair delay in minutes over *unfair* jobs (0 if none) —
    /// a magnitude companion to the paper's count.
    pub fn mean_unfair_delay_mins(&self) -> f64 {
        let unfair: Vec<&FairnessRecord> = self
            .records
            .iter()
            .filter(|r| r.actual_start > r.fair_start + self.tolerance)
            .collect();
        if unfair.is_empty() {
            return 0.0;
        }
        unfair.iter().map(|r| r.delay().as_mins_f64()).sum::<f64>() / unfair.len() as f64
    }

    /// All completed records, in start order.
    pub fn records(&self) -> &[FairnessRecord] {
        &self.records
    }
}

impl Snapshot for FairnessRecord {
    fn encode(&self, w: &mut amjs_sim::SnapWriter) {
        self.job.encode(w);
        self.fair_start.encode(w);
        self.actual_start.encode(w);
    }
    fn decode(r: &mut amjs_sim::SnapReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        Ok(FairnessRecord {
            job: Snapshot::decode(r)?,
            fair_start: Snapshot::decode(r)?,
            actual_start: Snapshot::decode(r)?,
        })
    }
}

/// The tolerance is bounded state; the records are a column.
impl FairnessTracker {
    /// Write the tolerance to the head and the records as a column.
    pub fn encode_columns(&self, w: &mut amjs_sim::ColumnWriter<'_>) {
        self.tolerance.encode(w.head);
        w.column(&self.records);
    }

    /// Read back what [`FairnessTracker::encode_columns`] wrote.
    pub fn decode_columns(r: &mut amjs_sim::ColumnReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        Ok(FairnessTracker {
            tolerance: Snapshot::decode(&mut r.head)?,
            records: r.column()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn counts_only_beyond_tolerance() {
        let mut f = FairnessTracker::new(SimDuration::from_secs(60));
        f.record(JobId(0), t(100), t(100)); // exactly fair
        f.record(JobId(1), t(100), t(160)); // within tolerance
        f.record(JobId(2), t(100), t(161)); // unfair
        assert_eq!(f.total_count(), 3);
        assert_eq!(f.unfair_count(), 1);
    }

    #[test]
    fn early_start_is_fair() {
        let mut f = FairnessTracker::default();
        f.record(JobId(0), t(500), t(100)); // started early (e.g. backfilled)
        assert_eq!(f.unfair_count(), 0);
        assert_eq!(f.records()[0].delay(), SimDuration::ZERO);
    }

    #[test]
    fn mean_unfair_delay() {
        let mut f = FairnessTracker::new(SimDuration::ZERO);
        f.record(JobId(0), t(0), t(120)); // 2 min late
        f.record(JobId(1), t(0), t(240)); // 4 min late
        assert_eq!(f.unfair_count(), 2);
        assert!((f.mean_unfair_delay_mins() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_records_is_zero() {
        let f = FairnessTracker::default();
        assert_eq!(f.unfair_count(), 0);
        assert_eq!(f.mean_unfair_delay_mins(), 0.0);
    }
}
