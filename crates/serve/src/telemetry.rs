//! Serving-layer telemetry: the daemon's latency distributions,
//! aggregated into the PR-10 [`amjs_obs::Histogram`] type and
//! published through the PR-4 metrics endpoint as Prometheus
//! histograms.
//!
//! What is measured, and why:
//!
//! * **Per-verb request latency** (`SUBMIT`, `STATUS`, `CANCEL`,
//!   `WHATIF`, `ADVANCE`, `STATS`) — queue-inclusive: the clock starts
//!   when the connection thread enqueues the request, so admission
//!   backlog is visible in the tail, not hidden in front of it.
//! * **WAL append latency** — the write-to-the-OS cost paid before
//!   every ACK (`WalWriter::append` never syncs).
//! * **Snapshot write latency** — checksum, write, `sync_all`, rename
//!   and prune of one snapshot file, measured on the
//!   `amjs-snap-writer` thread; a degrading disk shows up here first.
//! * **Snapshot stall** — what a snapshot cost the step that took it:
//!   the encode, plus any wait for the previous write to finish (and
//!   for its own, where the caller needs the file on disk).
//! * **Replication lag** (records behind the primary, sampled each
//!   engine pass) and **promotion time-to-takeover**.
//!
//! The engine, the snapshot writer and the connection threads (each
//! supervises the `WHATIF` speculations it asked for) share one
//! [`SharedTelemetry`] handle; recording is a mutex lock plus a
//! histogram bucket increment, a fraction of the WAL append every
//! mutation already pays.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use amjs_obs::expo::HistEntry;
use amjs_obs::Histogram;

use crate::proto::Command;

/// The verbs tracked with their own latency series.
pub const TRACKED_VERBS: [&str; 6] = ["SUBMIT", "STATUS", "CANCEL", "WHATIF", "ADVANCE", "STATS"];

/// The daemon's latency distributions. See the module docs for what
/// each field measures.
pub struct Telemetry {
    /// Per-verb request latency, indexed like [`TRACKED_VERBS`].
    pub verbs: [Histogram; TRACKED_VERBS.len()],
    /// WAL append+flush latency (seconds).
    pub wal_append: Histogram,
    /// Snapshot file write latency on the writer thread: checksum,
    /// write, sync, rename, prune (seconds).
    pub snapshot_write: Histogram,
    /// Engine-thread time per snapshot: encode + waiting on the writer
    /// (seconds).
    pub snapshot_stall: Histogram,
    /// Replication lag in records behind the primary (follower side).
    pub repl_lag: Histogram,
    /// Promotion time-to-takeover, seconds (set once, on promotion).
    pub promotion_secs: Option<f64>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Fresh, empty distributions.
    pub fn new() -> Telemetry {
        Telemetry {
            verbs: std::array::from_fn(|_| Histogram::latency()),
            wal_append: Histogram::latency(),
            snapshot_write: Histogram::latency(),
            snapshot_stall: Histogram::latency(),
            repl_lag: Histogram::lag_records(),
            promotion_secs: None,
        }
    }

    /// Record one request latency under `verb` (untracked verbs —
    /// `PING`, `HASH`, `ROLE`, ... — are deliberately not series of
    /// their own; they are free and would only dilute the dashboard).
    pub fn observe_verb(&mut self, verb: &str, elapsed: Duration) {
        if let Some(i) = TRACKED_VERBS.iter().position(|v| *v == verb) {
            self.verbs[i].observe_duration(elapsed);
        }
    }

    /// The what-if latency histogram.
    pub fn whatif(&self) -> &Histogram {
        let i = TRACKED_VERBS
            .iter()
            .position(|v| *v == "WHATIF")
            .expect("WHATIF is tracked");
        &self.verbs[i]
    }

    /// Render every distribution into exposition entries. Per-verb
    /// series share the `serve_request_latency_seconds` family under a
    /// `verb` label — except `WHATIF`, which keeps its own
    /// `serve_whatif_latency_seconds` family (a forking one is finished
    /// off the engine lock, by the connection that supervises it).
    pub fn hist_entries(&self) -> Vec<HistEntry> {
        let mut out = Vec::new();
        for (verb, hist) in TRACKED_VERBS.iter().zip(&self.verbs) {
            if *verb == "WHATIF" {
                continue;
            }
            if !hist.is_empty() {
                out.push(HistEntry::labeled(
                    "serve_request_latency_seconds",
                    "Queue-inclusive request latency by verb.",
                    "verb",
                    verb.to_lowercase(),
                    hist.clone(),
                ));
            }
        }
        if !self.whatif().is_empty() {
            out.push(HistEntry::plain(
                "serve_whatif_latency_seconds",
                "Queue-inclusive WHATIF latency (supervised worker).",
                self.whatif().clone(),
            ));
        }
        if !self.wal_append.is_empty() {
            out.push(HistEntry::plain(
                "serve_wal_append_seconds",
                "Command WAL append+flush latency.",
                self.wal_append.clone(),
            ));
        }
        if !self.snapshot_write.is_empty() {
            out.push(HistEntry::plain(
                "serve_snapshot_write_seconds",
                "Snapshot checksum+write+sync+rename+prune latency (writer thread).",
                self.snapshot_write.clone(),
            ));
        }
        if !self.snapshot_stall.is_empty() {
            out.push(HistEntry::plain(
                "serve_snapshot_stall_seconds",
                "Engine-thread time per snapshot: encode + waiting on the writer.",
                self.snapshot_stall.clone(),
            ));
        }
        if !self.repl_lag.is_empty() {
            out.push(HistEntry::plain(
                "serve_repl_lag_records",
                "Replication lag in records behind the primary (sampled).",
                self.repl_lag.clone(),
            ));
        }
        out
    }
}

/// Shared handle: engine, snapshot writer and connections all record.
pub type SharedTelemetry = Arc<Mutex<Telemetry>>;

/// A fresh shared telemetry handle.
pub fn shared_telemetry() -> SharedTelemetry {
    Arc::new(Mutex::new(Telemetry::new()))
}

/// The protocol verb name of a command, as tracked by telemetry and
/// the flight recorder.
pub fn verb_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::Ping => "PING",
        Command::Submit { .. } => "SUBMIT",
        Command::Status(_) => "STATUS",
        Command::Cancel(_) => "CANCEL",
        Command::WhatIf { .. } => "WHATIF",
        Command::Stats => "STATS",
        Command::Hash => "HASH",
        Command::Advance(_) => "ADVANCE",
        Command::Role => "ROLE",
        Command::Drain => "DRAIN",
        Command::Shutdown => "SHUTDOWN",
        Command::ReplSnapshot => "REPL-SNAPSHOT",
        Command::ReplTail { .. } => "REPL-TAIL",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_verbs_accumulate_untracked_are_dropped() {
        let mut t = Telemetry::new();
        t.observe_verb("SUBMIT", Duration::from_micros(50));
        t.observe_verb("PING", Duration::from_micros(50));
        t.observe_verb("WHATIF", Duration::from_millis(2));
        let total: u64 = t.verbs.iter().map(Histogram::count).sum();
        assert_eq!(total, 2);
        assert_eq!(t.whatif().count(), 1);
    }

    #[test]
    fn entries_split_whatif_into_its_own_family() {
        let mut t = Telemetry::new();
        t.observe_verb("SUBMIT", Duration::from_micros(50));
        t.observe_verb("WHATIF", Duration::from_millis(2));
        t.wal_append.observe(0.001);
        let entries = t.hist_entries();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "serve_request_latency_seconds",
                "serve_whatif_latency_seconds",
                "serve_wal_append_seconds",
            ]
        );
        assert_eq!(
            entries[0].label,
            Some(("verb".to_string(), "submit".to_string()))
        );
        assert_eq!(entries[1].label, None);
    }

    #[test]
    fn empty_distributions_publish_nothing() {
        assert!(Telemetry::new().hist_entries().is_empty());
    }
}
