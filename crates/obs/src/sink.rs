//! Trace sinks: where decision records go.
//!
//! The runner never knows which sink is attached — it hands each
//! [`TraceRecord`] to a `dyn TraceSink`. Three sinks ship:
//!
//! * [`RingSink`] — a fixed-capacity wrap-around buffer. Records
//!   overwrite the oldest once full, so memory stays bounded no matter
//!   how long the run is; the tail is dumped as JSONL at the end. The
//!   buffer is preallocated once, giving the cheapest enabled-tracing
//!   path (the `ablation_obs` bench holds it under 5% overhead).
//! * [`JsonlSink`] — serializes every record to a buffered writer as it
//!   happens. Complete, durable, and the input format of
//!   `trace explain`.
//! * [`VecSink`] — collects records in memory for tests.

use std::io::{self, Write};

use crate::event::TraceRecord;

/// Receives every emitted trace record.
pub trait TraceSink {
    /// Accept one record. Called on the simulation hot path — sinks
    /// should defer expensive work where possible.
    fn record(&mut self, rec: &TraceRecord);

    /// Flush any buffered output (end of run, or before inspection).
    /// A sink that can fail keeps its first error for its owner to
    /// read; the run it observes goes on.
    fn flush(&mut self) {}
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// Fixed-capacity wrap-around buffer of the most recent items.
///
/// Single-writer and allocation-free after the initial reserve (item
/// payloads may still own heap data, but the slot array never grows).
/// This is the machinery under both [`RingSink`] (simulation decision
/// traces) and the daemon's crash flight recorder in `amjs-serve`:
/// keep it attached for the whole run, dump the tail only when
/// something needs explaining.
pub struct Ring<T> {
    slots: Vec<Option<T>>,
    /// Next slot to write (monotonically increasing; slot = head % cap).
    head: u64,
}

impl<T> Ring<T> {
    /// A ring holding the last `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Ring { slots, head: 0 }
    }

    /// Append one item, overwriting the oldest once full.
    pub fn push(&mut self, item: T) {
        let cap = self.slots.len() as u64;
        self.slots[(self.head % cap) as usize] = Some(item);
        self.head += 1;
    }

    /// Total items ever written (not just retained).
    pub fn total_recorded(&self) -> u64 {
        self.head
    }

    /// Items overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.head.saturating_sub(self.slots.len() as u64)
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> Vec<&T> {
        let cap = self.slots.len() as u64;
        let len = self.head.min(cap);
        let start = self.head - len;
        (start..self.head)
            .filter_map(|i| self.slots[(i % cap) as usize].as_ref())
            .collect()
    }
}

/// Fixed-capacity wrap-around buffer of the most recent trace records —
/// [`Ring`] specialised to the decision-trace sink interface.
pub struct RingSink {
    ring: Ring<TraceRecord>,
}

impl RingSink {
    /// A ring holding the last `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            ring: Ring::new(capacity),
        }
    }

    /// Total records ever written (not just retained).
    pub fn total_recorded(&self) -> u64 {
        self.ring.total_recorded()
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> Vec<&TraceRecord> {
        self.ring.tail()
    }

    /// Serialize the retained tail as JSONL (oldest first).
    pub fn tail_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.tail() {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.ring.push(rec.clone());
    }
}

// ---------------------------------------------------------------------------
// JSONL writer
// ---------------------------------------------------------------------------

/// Serializes every record as one JSON object per line.
///
/// The first write or flush error is kept and ends the output: later
/// records are dropped, and [`JsonlSink::error`] tells the owner that
/// the trace is incomplete, so it can fail the run instead of
/// reporting a truncated trace as written.
pub struct JsonlSink<W: Write> {
    out: W,
    /// Records written so far.
    written: u64,
    /// Reused line buffer (avoids one allocation per record).
    buf: String,
    /// The first I/O error; nothing is written after it.
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer (pass a `BufWriter` for file output).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            written: 0,
            buf: String::new(),
            error: None,
        }
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write or flush error, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        self.buf.push_str(&rec.to_json_line());
        self.buf.push('\n');
        match self.out.write_all(self.buf.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
    }
}

// ---------------------------------------------------------------------------
// Test sink
// ---------------------------------------------------------------------------

/// Collects every record in memory; for tests and `explain` pipelines.
#[derive(Default)]
pub struct VecSink {
    /// All records, in emission order.
    pub records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            index: i,
            t: i as i64,
            event: TraceEvent::NodeFailed { node: i },
        }
    }

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(&rec(i));
        }
        assert_eq!(ring.total_recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let tail: Vec<u64> = ring.tail().iter().map(|r| r.index).collect();
        assert_eq!(tail, vec![2, 3, 4]);
        let jsonl = ring.tail_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.lines().next().unwrap().contains("\"i\":2"));
    }

    #[test]
    fn ring_partial_fill() {
        let mut ring = RingSink::new(8);
        ring.record(&rec(0));
        ring.record(&rec(1));
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.tail().len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(7));
        sink.record(&rec(8));
        sink.flush();
        assert!(sink.error().is_none());
        assert_eq!(sink.written(), 2);
        let text = String::from_utf8(sink.out).unwrap();
        let parsed: Vec<TraceRecord> = text
            .lines()
            .map(|l| TraceRecord::from_json_line(l).unwrap())
            .collect();
        assert_eq!(parsed, vec![rec(7), rec(8)]);
    }

    #[test]
    fn jsonl_sink_keeps_its_first_error_and_stops_writing() {
        // Accepts `room` bytes, then fails every write like a full disk.
        struct Full {
            room: usize,
            calls: usize,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.room == 0 {
                    return Err(io::Error::from_raw_os_error(28));
                }
                let n = buf.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let line = rec(0).to_json_line().len() + 1;
        let mut sink = JsonlSink::new(Full {
            room: 2 * line,
            calls: 0,
        });
        for i in 0..5 {
            sink.record(&rec(i));
        }
        sink.flush();
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.error().unwrap().raw_os_error(), Some(28));
        assert_eq!(sink.out.calls, 3, "nothing is written after the error");
    }

    #[test]
    fn generic_ring_wraps_like_the_sink() {
        let mut ring: Ring<u32> = Ring::new(2);
        for i in 0..5u32 {
            ring.push(i);
        }
        assert_eq!(ring.total_recorded(), 5);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.tail(), vec![&3, &4]);
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink = VecSink::new();
        sink.record(&rec(1));
        assert_eq!(sink.records.len(), 1);
    }
}
