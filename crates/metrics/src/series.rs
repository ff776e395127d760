//! Time-series storage for monitored metrics.
//!
//! The adaptive tuner and the figure experiments both consume sampled
//! series (queue depth every 30 minutes, utilization averages, ...).
//! A [`TimeSeries`] is an append-only `(SimTime, f64)` sequence with the
//! handful of queries those consumers need, plus CSV export for the
//! experiment harness.

use amjs_sim::SimTime;

/// An append-only sampled metric: strictly non-decreasing timestamps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// New empty series with a display name (used as the CSV column
    /// header).
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `t` precedes the last sample (series are sampled in
    /// simulation order by construction; violation is a logic error).
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be appended in order");
        }
        self.points.push((t, value));
    }

    /// All samples, in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last sample value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Value of the most recent sample at or before `t` (step
    /// interpolation), if any.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Maximum sample value (NaN-free by construction of the feeders).
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Arithmetic mean of sample values.
    pub fn mean_value(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Samples restricted to `t <= until` (used to plot "first 200 hours"
    /// views as in the paper's figures).
    pub fn truncated(&self, until: SimTime) -> TimeSeries {
        TimeSeries {
            name: self.name.clone(),
            points: self
                .points
                .iter()
                .copied()
                .take_while(|&(t, _)| t <= until)
                .collect(),
        }
    }
}

/// The name is bounded state; the points are a column.
impl TimeSeries {
    /// Write the name to the head and the points as a column.
    pub fn encode_columns(&self, w: &mut amjs_sim::ColumnWriter<'_>) {
        w.head.put_str(&self.name);
        w.column(&self.points);
    }

    /// Read back what [`TimeSeries::encode_columns`] wrote.
    pub fn decode_columns(r: &mut amjs_sim::ColumnReader<'_>) -> Result<Self, amjs_sim::SnapError> {
        Ok(TimeSeries {
            name: r.head.get_str()?,
            points: r.column()?,
        })
    }
}

/// Render several series sharing a sampling grid as CSV. The first column
/// is the sample time in hours; series are matched up by index, so they
/// must have identical sampling instants (the runner samples all metrics
/// on the same 30-minute grid). Panics on mismatched grids.
pub fn to_csv(series: &[&TimeSeries]) -> String {
    let mut out = String::from("hours");
    for s in series {
        out.push(',');
        out.push_str(s.name());
    }
    out.push('\n');
    if series.is_empty() {
        return out;
    }
    let n = series[0].len();
    for s in series {
        assert_eq!(s.len(), n, "series {:?} is on a different grid", s.name());
    }
    for i in 0..n {
        let (t, _) = series[0].points()[i];
        out.push_str(&format!("{:.3}", t.as_hours_f64()));
        for s in series {
            let (st, v) = s.points()[i];
            assert_eq!(st, t, "series {:?} is on a different grid", s.name());
            out.push_str(&format!(",{v:.4}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("qd");
        s.push(t(0), 1.0);
        s.push(t(60), 2.0);
        s.push(t(120), 0.5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last_value(), Some(0.5));
        assert_eq!(s.max_value(), Some(2.0));
        assert!((s.mean_value().unwrap() - (3.5 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn value_at_is_step_interpolated() {
        let mut s = TimeSeries::new("x");
        s.push(t(10), 1.0);
        s.push(t(20), 2.0);
        assert_eq!(s.value_at(t(5)), None);
        assert_eq!(s.value_at(t(10)), Some(1.0));
        assert_eq!(s.value_at(t(15)), Some(1.0));
        assert_eq!(s.value_at(t(20)), Some(2.0));
        assert_eq!(s.value_at(t(99)), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new("x");
        s.push(t(10), 1.0);
        s.push(t(5), 1.0);
    }

    #[test]
    fn equal_time_pushes_are_allowed() {
        let mut s = TimeSeries::new("x");
        s.push(t(10), 1.0);
        s.push(t(10), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let mut s = TimeSeries::new("x");
        for i in 0..10 {
            s.push(t(i * 100), i as f64);
        }
        let cut = s.truncated(t(450));
        assert_eq!(cut.len(), 5);
        assert_eq!(cut.name(), "x");
    }

    #[test]
    fn empty_series_queries() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.last_value(), None);
        assert_eq!(s.max_value(), None);
        assert_eq!(s.mean_value(), None);
        assert_eq!(s.value_at(t(0)), None);
    }

    #[test]
    fn csv_renders_shared_grid() {
        let mut a = TimeSeries::new("a");
        let mut b = TimeSeries::new("b");
        a.push(t(0), 1.0);
        a.push(t(3600), 2.0);
        b.push(t(0), 3.0);
        b.push(t(3600), 4.0);
        let csv = to_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "hours,a,b");
        assert_eq!(lines[1], "0.000,1.0000,3.0000");
        assert_eq!(lines[2], "1.000,2.0000,4.0000");
    }

    #[test]
    #[should_panic(expected = "different grid")]
    fn csv_rejects_mismatched_grids() {
        let mut a = TimeSeries::new("a");
        let b = TimeSeries::new("b");
        a.push(t(0), 1.0);
        let _ = to_csv(&[&a, &b]);
    }
}
