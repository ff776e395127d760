//! # amjs-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate standing in for Cobalt's event-driven job
//! scheduling simulator (Tang et al., *Fault-aware, utility-based job
//! scheduling on Blue Gene/P systems*, Cluster 2009), on top of which the
//! ICPP 2012 adaptive metric-aware scheduler is evaluated.
//!
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer (seconds) simulated time, so
//!   event ordering never suffers floating-point drift;
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic tie-breaking (time, priority class, insertion sequence);
//! * [`Engine`] + [`World`] — a minimal run loop: the world handles one
//!   event at a time and may schedule more;
//! * [`rng`] — seedable, cheaply splittable random-number utilities so that
//!   every simulation is a pure function of its configuration and one seed.
//!
//! The engine is intentionally small: all scheduling semantics live in
//! `amjs-core`, all machine semantics in `amjs-platform`. What this crate
//! guarantees is *determinism*: two runs with the same inputs produce the
//! same event order, bit for bit.
//!
//! ## Example
//!
//! ```
//! use amjs_sim::{Engine, EventQueue, SimTime, SimDuration, World};
//!
//! struct Counter { fired: Vec<i64> }
//! impl World for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
//!         self.fired.push(now.as_secs());
//!         if ev < 3 {
//!             q.schedule(now + SimDuration::from_secs(10), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: Vec::new() };
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, 0u32);
//! let stats = Engine::new().run(&mut world, &mut queue);
//! assert_eq!(world.fired, vec![0, 10, 20, 30]);
//! assert_eq!(stats.events_processed, 4);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod oracle;
pub mod rng;
pub mod snapshot;
pub mod time;

pub use engine::{Engine, RunStats, World};
pub use event::{EventEntry, EventQueue, Priority};
pub use oracle::{NoOracle, Oracle};
pub use snapshot::{
    ColumnReader, ColumnWriter, Columns, SnapError, SnapReader, SnapWriter, Snapshot,
    SnapshotStore, StateHash,
};
pub use time::{SimDuration, SimTime};
