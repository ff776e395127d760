//! The [`Observer`]: the one handle the simulation runner carries.
//!
//! Bundles an optional trace sink and an optional shared profiler. Each
//! is `Option`-gated so the disabled observer is free: no sink ⇒ no
//! event is ever constructed (call sites gate on [`Observer::tracing`]),
//! no profiler ⇒ span calls return immediately. The observer is
//! deliberately *not* part of any snapshot or state hash — it observes
//! the run, it is not the run.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use amjs_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};
use crate::profile::{Profiler, SpanToken};
use crate::sink::TraceSink;

/// A sink shared between the runner and whoever wants to inspect it
/// after the run (e.g. the CLI dumping a ring buffer's tail).
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// A profiler shared between the runner and the scheduler pass (both
/// on the simulation thread).
pub type SharedProfiler = Rc<RefCell<Profiler>>;

/// Observation capabilities attached to one simulation run.
#[derive(Default)]
pub struct Observer {
    sink: Option<SharedSink>,
    profiler: Option<SharedProfiler>,
    /// Engine event index of the event currently being handled.
    current: u64,
    /// Total events begun (the next `begin_event` gets this index).
    next: u64,
}

impl Observer {
    /// An observer with every capability off — the zero-cost default.
    pub fn disabled() -> Self {
        Observer::default()
    }

    /// Attach a trace sink.
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a shared profiler.
    pub fn with_profiler(mut self, profiler: SharedProfiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// True when decision events should be constructed and emitted.
    /// Call sites gate on this so a disabled run never allocates.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Mark the start of the next engine event; subsequent emissions
    /// carry its index. Mirrors the engine's own numbering: the first
    /// event of a fresh run is index 0.
    #[inline]
    pub fn begin_event(&mut self) {
        self.current = self.next;
        self.next += 1;
    }

    /// Index of the event currently being handled.
    pub fn current_index(&self) -> u64 {
        self.current
    }

    /// Emit one decision event at simulated time `t`. No-op (and the
    /// event argument should not even be built — gate on
    /// [`Observer::tracing`]) when no sink is attached.
    pub fn emit(&mut self, t: SimTime, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(&TraceRecord {
                index: self.current,
                t: t.as_secs(),
                event,
            });
        }
    }

    /// Open a profiling span (`None` when profiling is off).
    #[inline]
    pub fn prof_enter(&self, name: &'static str) -> Option<SpanToken> {
        self.profiler.as_ref().map(|p| p.borrow_mut().enter(name))
    }

    /// Close a span opened by [`Observer::prof_enter`].
    #[inline]
    pub fn prof_exit(&self, token: Option<SpanToken>) {
        if let Some(token) = token {
            if let Some(p) = &self.profiler {
                p.borrow_mut().exit(token);
            }
        }
    }

    /// The shared profiler, for handing into deeper layers.
    pub fn profiler(&self) -> Option<&SharedProfiler> {
        self.profiler.as_ref()
    }

    /// End-of-run housekeeping: flush the sink. A sink that can fail
    /// keeps its first error for its owner to report
    /// ([`crate::JsonlSink::error`]); the run itself never panics on it.
    pub fn finish(&mut self) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().flush();
        }
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("tracing", &self.sink.is_some())
            .field("profiling", &self.profiler.is_some())
            .field("events", &self.next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;

    fn shared_vec_sink() -> (Rc<RefCell<VecSink>>, SharedSink) {
        let sink = Rc::new(RefCell::new(VecSink::new()));
        let shared: SharedSink = sink.clone();
        (sink, shared)
    }

    #[test]
    fn disabled_observer_reports_everything_off() {
        let obs = Observer::disabled();
        assert!(!obs.tracing());
        assert!(obs.profiler().is_none());
        assert!(obs.prof_enter("x").is_none());
        obs.prof_exit(None);
    }

    #[test]
    fn emit_carries_the_current_event_index() {
        let (sink, shared) = shared_vec_sink();
        let mut obs = Observer::disabled().with_sink(shared);
        obs.begin_event(); // index 0
        obs.begin_event(); // index 1
        obs.emit(SimTime::from_secs(5), TraceEvent::NodeFailed { node: 3 });
        let records = &sink.borrow().records;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].index, 1);
        assert_eq!(records[0].t, 5);
    }

    #[test]
    fn profiling_spans_go_to_the_shared_profiler() {
        let prof: SharedProfiler = Rc::new(RefCell::new(Profiler::new()));
        let obs = Observer::disabled().with_profiler(prof.clone());
        let t = obs.prof_enter("hot");
        obs.prof_exit(t);
        assert_eq!(prof.borrow().spans()["hot"].count, 1);
    }
}
