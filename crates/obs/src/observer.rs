//! The [`Observer`]: the one handle the simulation runner carries.
//!
//! Bundles an optional trace sink, an optional shared profiler, and an
//! optional live-stats publisher. Every capability is independently
//! `Option`-gated so the disabled observer is free: no sink ⇒ no event
//! is ever constructed (call sites gate on [`Observer::tracing`]), no
//! profiler ⇒ span calls return immediately, no publisher ⇒ nothing is
//! locked. The observer is deliberately *not* part of any snapshot or
//! state hash — it observes the run, it is not the run.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use amjs_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};
use crate::expo::{Heartbeat, LiveStats, SharedStats};
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
    live: Option<SharedStats>,
    heartbeat: Option<Heartbeat>,
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

    /// Attach a live-stats publisher (the metrics endpoint reads it).
    pub fn with_live(mut self, stats: SharedStats) -> Self {
        self.live = Some(stats);
        self
    }

    /// Attach a throttled stderr heartbeat.
    pub fn with_heartbeat(mut self, heartbeat: Heartbeat) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// True when any capability is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
            || self.profiler.is_some()
            || self.live.is_some()
            || self.heartbeat.is_some()
    }

    /// True when decision events should be constructed and emitted.
    /// Call sites gate on this so a disabled run never allocates.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// True when live stats should be published.
    #[inline]
    pub fn live_enabled(&self) -> bool {
        self.live.is_some() || self.heartbeat.is_some()
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

    /// Events begun so far.
    pub fn events_begun(&self) -> u64 {
        self.next
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

    /// Publish a fresh live sample (and maybe heartbeat to stderr).
    pub fn publish(&mut self, mut stats: LiveStats) {
        stats.events = self.next;
        if let Some(live) = &self.live {
            if let Ok(mut guard) = live.lock() {
                *guard = stats.clone();
            }
        }
        if let Some(hb) = &mut self.heartbeat {
            hb.maybe_beat(&stats);
        }
    }

    /// End-of-run housekeeping: flush the sink and mark the live stats
    /// done so scrapers can see completion.
    pub fn finish(&mut self) {
        if let Some(sink) = &self.sink {
            if let Err(e) = sink.borrow_mut().flush() {
                panic!("trace flush failed: {e}");
            }
        }
        if let Some(live) = &self.live {
            if let Ok(mut guard) = live.lock() {
                guard.done = true;
            }
        }
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("tracing", &self.sink.is_some())
            .field("profiling", &self.profiler.is_some())
            .field("live", &self.live.is_some())
            .field("heartbeat", &self.heartbeat.is_some())
            .field("events_begun", &self.next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::shared_stats;
    use crate::sink::VecSink;

    fn shared_vec_sink() -> (Rc<RefCell<VecSink>>, SharedSink) {
        let sink = Rc::new(RefCell::new(VecSink::new()));
        let shared: SharedSink = sink.clone();
        (sink, shared)
    }

    #[test]
    fn disabled_observer_reports_everything_off() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.tracing());
        assert!(!obs.live_enabled());
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

    #[test]
    fn publish_updates_live_stats_and_finish_marks_done() {
        let stats = shared_stats();
        let mut obs = Observer::disabled().with_live(stats.clone());
        obs.begin_event();
        obs.publish(LiveStats {
            running: 7,
            ..LiveStats::default()
        });
        {
            let guard = stats.lock().unwrap();
            assert_eq!(guard.running, 7);
            assert_eq!(guard.events, 1);
            assert!(!guard.done);
        }
        obs.finish();
        assert!(stats.lock().unwrap().done);
    }
}
