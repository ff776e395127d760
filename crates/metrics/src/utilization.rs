//! System utilization: instant and trailing-window averages.
//!
//! Paper §IV-A: "This metric represents the ratio of utilized (or
//! delivered) node-hours to total available node-hours during the
//! checked period of time. Sometimes when we refer to the instant system
//! utilization rate we count the ratio of the number of busy nodes to
//! the total number of nodes."
//!
//! The tracker is fed a step function of busy nodes (every job start and
//! end changes it) and answers:
//!
//! * [`UtilizationTracker::instant`] — busy/total right now;
//! * [`UtilizationTracker::trailing_avg`] — average utilization over the
//!   past `H` (the paper's 1H / 10H / 24H lines in Figs. 5 and 6b), via
//!   an exact integral of the step function;
//! * [`UtilizationTracker::overall_avg`] — average from a given time to
//!   now (Table-II-style whole-run numbers).
//!
//! The 10H-below-24H crossover of these trailing averages is the
//! triggering event of the paper's window-size tuner, so this tracker is
//! also a *scheduler input*, not just a reporting device.

use amjs_sim::{SimDuration, SimTime};

/// Exact integrator of the busy-nodes step function.
#[derive(Clone, Debug)]
pub struct UtilizationTracker {
    total_nodes: u32,
    /// Breakpoints: (time, busy level from this time on, integral of
    /// busy·dt from epoch up to this time). Non-decreasing times.
    steps: Vec<(SimTime, u32, f64)>,
}

impl UtilizationTracker {
    /// New tracker for a machine of `total_nodes`, idle at `start`.
    pub fn new(total_nodes: u32, start: SimTime) -> Self {
        assert!(total_nodes > 0);
        UtilizationTracker {
            total_nodes,
            steps: vec![(start, 0, 0.0)],
        }
    }

    /// Record that from `t` on, `busy` nodes are in use.
    ///
    /// # Panics
    /// Panics if `t` precedes the previous step or `busy` exceeds the
    /// machine.
    pub fn set_busy(&mut self, t: SimTime, busy: u32) {
        assert!(
            busy <= self.total_nodes,
            "busy {busy} > total {}",
            self.total_nodes
        );
        let &(last_t, last_busy, last_int) = self.steps.last().unwrap();
        assert!(t >= last_t, "utilization steps must be time-ordered");
        if busy == last_busy {
            return; // no level change; skip redundant breakpoints
        }
        let integral = last_int + last_busy as f64 * (t - last_t).as_secs() as f64;
        self.steps.push((t, busy, integral));
    }

    /// Busy nodes at time `t` (clamped to the last known level after the
    /// final step; the level before the first step is 0).
    pub fn busy_at(&self, t: SimTime) -> u32 {
        match self.steps.binary_search_by_key(&t, |&(st, ..)| st) {
            Ok(mut i) => {
                // Multiple steps can share a timestamp; the last one wins.
                while i + 1 < self.steps.len() && self.steps[i + 1].0 == t {
                    i += 1;
                }
                self.steps[i].1
            }
            Err(0) => 0,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Instant utilization at `t`: busy/total.
    pub fn instant(&self, t: SimTime) -> f64 {
        self.busy_at(t) as f64 / self.total_nodes as f64
    }

    /// Integral of busy·dt over `[epoch, t]`.
    fn integral_to(&self, t: SimTime) -> f64 {
        let i = match self.steps.binary_search_by_key(&t, |&(st, ..)| st) {
            Ok(mut i) => {
                while i + 1 < self.steps.len() && self.steps[i + 1].0 == t {
                    i += 1;
                }
                i
            }
            Err(0) => return 0.0,
            Err(i) => i - 1,
        };
        let (st, busy, int) = self.steps[i];
        int + busy as f64 * (t - st).as_secs() as f64
    }

    /// Average utilization over `[from, to]`; `from` is clamped to the
    /// tracker's start. Returns the instant value for a degenerate
    /// window.
    pub fn avg_over(&self, from: SimTime, to: SimTime) -> f64 {
        let start = self.steps[0].0;
        let from = from.max(start);
        assert!(to >= from, "avg_over window is reversed");
        let span = (to - from).as_secs();
        if span == 0 {
            return self.instant(to);
        }
        let node_secs = self.integral_to(to) - self.integral_to(from);
        node_secs / (self.total_nodes as f64 * span as f64)
    }

    /// Average utilization over the trailing `window` ending at `now`
    /// (the paper's 1H/10H/24H lines). Windows reaching before the
    /// tracker start are clamped, so early samples average over the
    /// elapsed time only.
    pub fn trailing_avg(&self, now: SimTime, window: SimDuration) -> f64 {
        assert!(!window.is_negative());
        self.avg_over(now - window, now)
    }

    /// Whole-run average from the tracker start to `now`.
    pub fn overall_avg(&self, now: SimTime) -> f64 {
        self.avg_over(self.steps[0].0, now)
    }

    /// Busy node-seconds accumulated over `[start, until]` (the exact
    /// integral of the busy step function) — the "delivered node-hours"
    /// numerator of the paper's utilization definition.
    pub fn busy_node_secs(&self, until: SimTime) -> f64 {
        self.integral_to(until.max(self.steps[0].0))
    }

    /// Seconds elapsed from the tracker start to `until` (clamped at 0).
    pub fn elapsed_secs(&self, until: SimTime) -> f64 {
        (until - self.steps[0].0).max_zero().as_secs() as f64
    }
}

/// The machine size is bounded state; the steps are a column.
impl UtilizationTracker {
    /// Write the machine size to the head and the steps as a column.
    pub fn encode_columns(&self, w: &mut amjs_sim::ColumnWriter<'_>) {
        w.head.put_u32(self.total_nodes);
        w.column(&self.steps);
    }

    /// Read back what [`UtilizationTracker::encode_columns`] wrote.
    pub fn decode_columns(r: &mut amjs_sim::ColumnReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        let total_nodes = r.head.get_u32()?;
        let steps: Vec<(SimTime, u32, f64)> = r.column()?;
        if steps.is_empty() {
            return Err(amjs_sim::SnapError::Malformed(
                "utilization tracker with no initial step".into(),
            ));
        }
        Ok(UtilizationTracker { total_nodes, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: i64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn instant_tracks_steps() {
        let mut u = UtilizationTracker::new(100, t(0));
        u.set_busy(t(10), 50);
        u.set_busy(t(20), 80);
        assert_eq!(u.instant(t(0)), 0.0);
        assert_eq!(u.instant(t(10)), 0.5);
        assert_eq!(u.instant(t(15)), 0.5);
        assert_eq!(u.instant(t(20)), 0.8);
        assert_eq!(u.instant(t(1000)), 0.8);
    }

    #[test]
    fn averages_are_exact_integrals() {
        let mut u = UtilizationTracker::new(100, t(0));
        u.set_busy(t(0), 100); // busy 100 over [0, 50)
        u.set_busy(t(50), 0); //  idle over [50, 100)
        assert!((u.avg_over(t(0), t(100)) - 0.5).abs() < 1e-12);
        assert!((u.avg_over(t(0), t(50)) - 1.0).abs() < 1e-12);
        assert!((u.avg_over(t(50), t(100)) - 0.0).abs() < 1e-12);
        assert!((u.avg_over(t(25), t(75)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trailing_window_clamps_to_start() {
        let mut u = UtilizationTracker::new(10, t(0));
        u.set_busy(t(0), 10);
        // At t=50 a 100-second window only has 50 seconds of history,
        // fully busy.
        assert!((u.trailing_avg(t(50), d(100)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_timestamp_steps_last_wins() {
        let mut u = UtilizationTracker::new(10, t(0));
        u.set_busy(t(5), 4);
        u.set_busy(t(5), 7);
        assert_eq!(u.busy_at(t(5)), 7);
        assert_eq!(u.busy_at(t(6)), 7);
        // The zero-length 4-level interval contributes nothing.
        assert!((u.avg_over(t(0), t(10)) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn redundant_levels_are_coalesced() {
        let mut u = UtilizationTracker::new(10, t(0));
        u.set_busy(t(5), 4);
        u.set_busy(t(9), 4);
        assert_eq!(u.steps.len(), 2); // initial + one change
    }

    #[test]
    fn overall_average() {
        let mut u = UtilizationTracker::new(4, t(0));
        u.set_busy(t(0), 2);
        u.set_busy(t(100), 4);
        // [0,100): 0.5; [100,200): 1.0 → overall over [0,200] = 0.75
        assert!((u.overall_avg(t(200)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_window_returns_instant() {
        let mut u = UtilizationTracker::new(10, t(0));
        u.set_busy(t(0), 5);
        assert_eq!(u.avg_over(t(0), t(0)), 0.5);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_step_panics() {
        let mut u = UtilizationTracker::new(10, t(0));
        u.set_busy(t(10), 2);
        u.set_busy(t(5), 3);
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn busy_above_total_panics() {
        let mut u = UtilizationTracker::new(10, t(0));
        u.set_busy(t(1), 11);
    }

    #[test]
    fn nonzero_start_time() {
        let mut u = UtilizationTracker::new(10, t(1000));
        u.set_busy(t(1000), 10);
        assert!((u.trailing_avg(t(1100), d(1_000_000)) - 1.0).abs() < 1e-12);
    }
}
