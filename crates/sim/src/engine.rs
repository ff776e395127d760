//! The run loop: pop events in order, hand them to the world.
//!
//! The engine owns nothing but the loop. The *world* (in `amjs-core`, the
//! `SimulationRunner` holding the machine, the queue of jobs and the
//! scheduler) implements [`World::handle`] and may schedule further events.

use crate::event::{EventEntry, EventQueue};
use crate::oracle::{NoOracle, Oracle};
use crate::time::SimTime;

/// A simulated world that reacts to events.
pub trait World {
    /// The event payload type this world understands.
    type Event;

    /// Handle one event at simulated time `now`, possibly scheduling more
    /// events on `queue`. Events must never be scheduled in the past; the
    /// engine panics on time regression to surface logic errors early.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Statistics about one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events handled *by this run* (counted from zero; add
    /// [`Engine::starting_at`]'s index for the global total).
    pub events_processed: u64,
    /// Timestamp of the last handled event (epoch if none).
    pub end_time: SimTime,
}

/// The discrete-event run loop.
///
/// Construction is trivial; the struct exists so run-scoped options
/// (horizon, index offset) have a home without breaking the call sites.
#[derive(Clone, Copy, Debug, Default)]
pub struct Engine {
    horizon: Option<SimTime>,
    first_index: u64,
}

impl Engine {
    /// An engine that runs until the queue drains.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Stop after handling every event at or before `horizon`. Events
    /// scheduled later stay in the queue untouched.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Set the global index of the first event this run will handle.
    ///
    /// A live scheduler stepped in slices (or decoded from a snapshot
    /// taken after `n` events) passes its running count here, so oracle
    /// panics keep one numbering from genesis — `(seed, event_index)`
    /// tags stay valid across steps and restarts.
    pub fn starting_at(mut self, first_index: u64) -> Self {
        self.first_index = first_index;
        self
    }

    /// Run `world` against `queue` until the queue drains or the horizon
    /// is passed.
    ///
    /// # Panics
    ///
    /// Panics if the queue yields an event earlier than one already
    /// handled — that means the world scheduled into the past, which is a
    /// logic error worth failing loudly on.
    pub fn run<W: World>(&self, world: &mut W, queue: &mut EventQueue<W::Event>) -> RunStats {
        self.run_with_oracle(world, queue, &mut NoOracle)
    }

    /// Like [`Engine::run`], but invoke `oracle` after every handled
    /// event with the world's post-event state and the event's global
    /// index (see [`crate::oracle::Oracle`]). The oracle is expected to
    /// panic on an invariant violation; the engine adds no handling of
    /// its own.
    pub fn run_with_oracle<W: World, O: Oracle<W>>(
        &self,
        world: &mut W,
        queue: &mut EventQueue<W::Event>,
        oracle: &mut O,
    ) -> RunStats {
        let mut stats = RunStats::default();
        let mut last_time: Option<SimTime> = None;

        while let Some(EventEntry { time, payload, .. }) = pop_due(queue, self.horizon) {
            if let Some(prev) = last_time {
                assert!(
                    time >= prev,
                    "event time regression: {time:?} after {prev:?}"
                );
            }
            last_time = Some(time);
            world.handle(time, payload, queue);
            oracle.after_event(world, time, self.first_index + stats.events_processed);
            stats.events_processed += 1;
            stats.end_time = time;
        }
        stats
    }
}

/// Pop the next event if it is due (at or before the horizon, when set).
fn pop_due<E>(queue: &mut EventQueue<E>, horizon: Option<SimTime>) -> Option<EventEntry<E>> {
    match (queue.peek_time(), horizon) {
        (Some(t), Some(h)) if t > h => None,
        (Some(_), _) => queue.pop(),
        (None, _) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A world that echoes each event and schedules a follow-up until a
    /// countdown expires.
    struct Chain {
        seen: Vec<(i64, u32)>,
    }

    impl World for Chain {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.seen.push((now.as_secs(), ev));
            if ev > 0 {
                q.schedule(now + SimDuration::from_secs(5), ev - 1);
            }
        }
    }

    #[test]
    fn runs_to_quiescence() {
        let mut w = Chain { seen: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 3u32);
        let stats = Engine::new().run(&mut w, &mut q);
        assert_eq!(w.seen, vec![(0, 3), (5, 2), (10, 1), (15, 0)]);
        assert_eq!(stats.events_processed, 4);
        assert_eq!(stats.end_time, SimTime::from_secs(15));
        assert!(q.is_empty());
    }

    #[test]
    fn horizon_leaves_future_events_queued() {
        let mut w = Chain { seen: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 3u32);
        let stats = Engine::new()
            .with_horizon(SimTime::from_secs(7))
            .run(&mut w, &mut q);
        assert_eq!(stats.events_processed, 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let mut w = Chain { seen: Vec::new() };
        let mut q: EventQueue<u32> = EventQueue::new();
        let stats = Engine::new().run(&mut w, &mut q);
        assert_eq!(stats, RunStats::default());
    }

    struct PastScheduler;
    impl World for PastScheduler {
        type Event = bool;
        fn handle(&mut self, now: SimTime, first: bool, q: &mut EventQueue<bool>) {
            if first {
                q.schedule(now - SimDuration::from_secs(10), false);
            }
        }
    }

    #[test]
    #[should_panic(expected = "time regression")]
    fn scheduling_into_the_past_panics() {
        let mut w = PastScheduler;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), true);
        Engine::new().run(&mut w, &mut q);
    }

    /// Records (global index, time) of every event the oracle sees.
    struct Tape(Vec<(u64, i64)>);
    impl Oracle<Chain> for Tape {
        fn after_event(&mut self, _world: &Chain, now: SimTime, event_index: u64) {
            self.0.push((event_index, now.as_secs()));
        }
    }

    #[test]
    fn oracle_sees_indices_from_the_starting_point() {
        let mut w = Chain { seen: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 2u32);
        let mut tape = Tape(Vec::new());
        let stats = Engine::new()
            .starting_at(100)
            .run_with_oracle(&mut w, &mut q, &mut tape);
        // Indices continue the numbering the caller passed in; the
        // per-run count starts from zero.
        assert_eq!(tape.0, vec![(100, 0), (101, 5), (102, 10)]);
        assert_eq!(stats.events_processed, 3);
    }
}
