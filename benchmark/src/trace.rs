//! Spans recorded in the benchmark's own memory around each call into a
//! layer, written out as JSON lines when the run ends.
//!
//! One line per span: `{"id":7,"parent":6,"op":3,"name":"core.submit",
//! "start_ns":1200,"end_ns":1950}`. `op` is the script position the span
//! belongs to (the identifier all spans of one command share), `parent`
//! the `id` of the enclosing span or -1. A span's self time is its
//! duration minus the durations of the spans that name it as parent.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u32,
    parent: i32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, op: usize) {
        let parent = self.open.last().map_or(-1, |&p| p as i32);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: op as u32,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Total self time per span name, in seconds, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if s.parent >= 0 {
                own[s.parent as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut by_name = std::collections::BTreeMap::<&'static str, i64>::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_default() += ns;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e9))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span when tracing is on, bare otherwise.
pub fn span<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    op: usize,
    f: impl FnOnce(&mut Option<Tracer>) -> T,
) -> T {
    if let Some(t) = tracer {
        t.enter(name, op);
    }
    let out = f(tracer);
    if let Some(t) = tracer {
        t.exit();
    }
    out
}
