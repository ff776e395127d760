//! Crash flight recorder: a bounded in-memory ring of the daemon's
//! most recent request/apply/replication events, flushed to
//! `<state-dir>/flightrec.jsonl` by a panic hook, the termination
//! path, and fatal shutdowns — so a postmortem (`amjs doctor`) can see
//! *what the daemon was doing* in its final moments even after a
//! SIGKILL lost the in-memory state.
//!
//! The ring reuses the PR-4 [`amjs_obs::sink::Ring`] machinery
//! (fixed-capacity, wrap-around, allocation-free after the initial
//! reserve), so recording one event is a mutex lock plus a slot write.
//! With capacity 0 the recorder is fully disabled: `record` is a
//! no-op, no file is ever written, and the daemon's externally visible
//! state is byte-identical (asserted in tests and the
//! `ablation_serve_load` bench).
//!
//! Flushes are atomic (write to `flightrec.jsonl.tmp`, then rename):
//! a crash mid-flush can never leave a torn postmortem next to the
//! WAL it is supposed to explain.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, Once};
use std::time::{SystemTime, UNIX_EPOCH};

use amjs_obs::json::{self, Json, ObjWriter};
use amjs_obs::sink::Ring;

/// One recorded daemon event, stamped with wall-clock time (the only
/// place the daemon cares about wall time: postmortems correlate with
/// operator logs, not simulated time).
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Milliseconds since the Unix epoch at record time.
    pub unix_ms: u64,
    /// What happened.
    pub kind: FlightKind,
}

/// The event taxonomy the postmortem timeline is built from.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightKind {
    /// A client request ran to completion on the engine (or, a forking
    /// `WHATIF`, under the connection thread that supervised it): verb,
    /// reply status word, latency, and the WAL sequence it logged
    /// (mutations only).
    Request {
        /// Protocol verb (`SUBMIT`, `WHATIF`, ...).
        verb: String,
        /// First word of the reply (`OK`, `ERR`, `BUSY`, `PANIC`...).
        status: String,
        /// Queue-inclusive latency in microseconds.
        dur_us: u64,
        /// WAL sequence assigned, for accepted mutations.
        seq: Option<u64>,
    },
    /// A request was shed with `BUSY` (`what` names the limit hit).
    Shed {
        /// Which limit shed it (`whatif-cap`, `admission`, ...).
        what: String,
    },
    /// A record was applied off the replication stream.
    ReplApply {
        /// WAL sequence of the applied record.
        seq: u64,
        /// Epoch it carried.
        epoch: u64,
    },
    /// A snapshot file is in place (recorded by the writer thread when
    /// the write completes).
    Snapshot {
        /// Command sequence the snapshot covers.
        seq: u64,
        /// Checksum+write+sync+rename+prune latency in microseconds.
        dur_us: u64,
    },
    /// A follower promoted itself to primary.
    Promotion {
        /// The new (fenced) epoch.
        epoch: u64,
        /// Lease-expiry-to-serving takeover time in microseconds.
        dur_us: u64,
    },
    /// A panic was caught (supervised worker) or is unwinding the
    /// process (the hook records it before the flush).
    Panic {
        /// Best-effort description of what panicked.
        what: String,
    },
}

impl FlightEvent {
    fn kind_name(&self) -> &'static str {
        match self.kind {
            FlightKind::Request { .. } => "request",
            FlightKind::Shed { .. } => "shed",
            FlightKind::ReplApply { .. } => "repl_apply",
            FlightKind::Snapshot { .. } => "snapshot",
            FlightKind::Promotion { .. } => "promotion",
            FlightKind::Panic { .. } => "panic",
        }
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjWriter::new();
        w.u64("t_ms", self.unix_ms).str("kind", self.kind_name());
        match &self.kind {
            FlightKind::Request {
                verb,
                status,
                dur_us,
                seq,
            } => {
                w.str("verb", verb)
                    .str("status", status)
                    .u64("dur_us", *dur_us);
                if let Some(seq) = seq {
                    w.u64("seq", *seq);
                }
            }
            FlightKind::Shed { what } => {
                w.str("what", what);
            }
            FlightKind::ReplApply { seq, epoch } => {
                w.u64("seq", *seq).u64("epoch", *epoch);
            }
            FlightKind::Snapshot { seq, dur_us } => {
                w.u64("seq", *seq).u64("dur_us", *dur_us);
            }
            FlightKind::Promotion { epoch, dur_us } => {
                w.u64("epoch", *epoch).u64("dur_us", *dur_us);
            }
            FlightKind::Panic { what } => {
                w.str("what", what);
            }
        }
        w.finish()
    }

    /// Parse one JSONL line back (the doctor's input path).
    pub fn from_json_line(line: &str) -> Result<FlightEvent, String> {
        let v = json::parse(line)?;
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing field {key:?} in {line}"))
        };
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field {key:?} in {line}"))
        };
        let kind = match s("kind")?.as_str() {
            "request" => FlightKind::Request {
                verb: s("verb")?,
                status: s("status")?,
                dur_us: u("dur_us")?,
                seq: v.get("seq").and_then(Json::as_u64),
            },
            "shed" => FlightKind::Shed { what: s("what")? },
            "repl_apply" => FlightKind::ReplApply {
                seq: u("seq")?,
                epoch: u("epoch")?,
            },
            "snapshot" => FlightKind::Snapshot {
                seq: u("seq")?,
                dur_us: u("dur_us")?,
            },
            "promotion" => FlightKind::Promotion {
                epoch: u("epoch")?,
                dur_us: u("dur_us")?,
            },
            "panic" => FlightKind::Panic { what: s("what")? },
            other => return Err(format!("unknown flight event kind {other:?}")),
        };
        Ok(FlightEvent {
            unix_ms: u("t_ms")?,
            kind,
        })
    }
}

fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

struct Inner {
    ring: Mutex<Ring<FlightEvent>>,
    path: PathBuf,
}

/// Shared handle to the daemon's flight recorder. Cloning is cheap
/// (one `Arc`); a capacity of 0 disables recording entirely.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events, flushed to
    /// `path`. `capacity == 0` returns a disabled recorder that never
    /// touches the filesystem.
    pub fn new(capacity: usize, path: PathBuf) -> FlightRecorder {
        FlightRecorder {
            inner: (capacity > 0).then(|| {
                Arc::new(Inner {
                    ring: Mutex::new(Ring::new(capacity)),
                    path,
                })
            }),
        }
    }

    /// Whether events are actually being kept.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event (no-op when disabled).
    pub fn record(&self, kind: FlightKind) {
        let Some(inner) = &self.inner else { return };
        inner.ring.lock().unwrap().push(FlightEvent {
            unix_ms: unix_ms_now(),
            kind,
        });
    }

    /// Events ever recorded / overwritten (0 when disabled).
    pub fn totals(&self) -> (u64, u64) {
        match &self.inner {
            None => (0, 0),
            Some(inner) => {
                let g = inner.ring.lock().unwrap();
                (g.total_recorded(), g.dropped())
            }
        }
    }

    /// Flush the retained tail atomically to `flightrec.jsonl`
    /// (tmp + rename). Best-effort: a postmortem artifact must never
    /// turn a shutdown into a panic. No-op when disabled or empty.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        let body = {
            let g = inner.ring.lock().unwrap();
            if g.total_recorded() == 0 {
                return;
            }
            let mut out = String::new();
            for ev in g.tail() {
                out.push_str(&ev.to_json_line());
                out.push('\n');
            }
            out
        };
        let tmp = inner.path.with_extension("jsonl.tmp");
        if std::fs::write(&tmp, &body).is_ok() {
            let _ = std::fs::rename(&tmp, &inner.path);
        }
    }

    /// Register this recorder with the process-wide panic hook: any
    /// panic (including ones a supervisor will catch) records a
    /// [`FlightKind::Panic`] event and flushes the tail to disk before
    /// unwinding continues. The previous hook is chained, so backtraces
    /// and test-harness reporting are unaffected. Call
    /// [`FlightRecorder::deregister`] at daemon shutdown.
    pub fn register_panic_hook(&self) {
        if self.inner.is_none() {
            return;
        }
        hook_registry().lock().unwrap().push(self.clone());
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let what = info.to_string();
                for rec in hook_registry().lock().unwrap().iter() {
                    rec.record(FlightKind::Panic { what: what.clone() });
                    rec.flush();
                }
                previous(info);
            }));
        });
    }

    /// Remove this recorder from the panic hook registry (the hook
    /// itself stays installed — it is process-global — but stops
    /// touching this recorder's file).
    pub fn deregister(&self) {
        let Some(inner) = &self.inner else { return };
        hook_registry().lock().unwrap().retain(|r| match &r.inner {
            Some(other) => !Arc::ptr_eq(other, inner),
            None => false,
        });
    }
}

/// Recorders the process-wide panic hook flushes. One registry for the
/// whole process: tests run many daemons side by side and each must
/// get its own `flightrec.jsonl` on a panic.
fn hook_registry() -> &'static Mutex<Vec<FlightRecorder>> {
    static REGISTRY: Mutex<Vec<FlightRecorder>> = Mutex::new(Vec::new());
    &REGISTRY
}

/// Read a `flightrec.jsonl` file back into events (the doctor's
/// loader). Unparseable lines are returned as errors with their line
/// number — a torn artifact should be visible, not silently skipped.
pub fn read_flightrec(path: &std::path::Path) -> Result<Vec<FlightEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            FlightEvent::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("amjs-flight-{tag}-{}.jsonl", std::process::id()))
    }

    fn sample_events() -> Vec<FlightKind> {
        vec![
            FlightKind::Request {
                verb: "SUBMIT".into(),
                status: "OK".into(),
                dur_us: 120,
                seq: Some(0),
            },
            FlightKind::Shed {
                what: "whatif-cap".into(),
            },
            FlightKind::ReplApply { seq: 5, epoch: 1 },
            FlightKind::Snapshot {
                seq: 6,
                dur_us: 900,
            },
            FlightKind::Promotion {
                epoch: 2,
                dur_us: 4000,
            },
            FlightKind::Panic {
                what: "worker died".into(),
            },
        ]
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        for kind in sample_events() {
            let ev = FlightEvent { unix_ms: 17, kind };
            let line = ev.to_json_line();
            assert_eq!(FlightEvent::from_json_line(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn recorder_keeps_a_bounded_tail_and_flushes_atomically() {
        let path = tmp_path("bounded");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new(3, path.clone());
        for i in 0..5 {
            rec.record(FlightKind::ReplApply { seq: i, epoch: 0 });
        }
        assert_eq!(rec.totals(), (5, 2));
        rec.flush();
        let events = read_flightrec(&path).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].kind, FlightKind::ReplApply { seq: 4, epoch: 0 });
        assert!(!path.with_extension("jsonl.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_recorder_never_writes() {
        let path = tmp_path("disabled");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new(0, path.clone());
        assert!(!rec.enabled());
        rec.record(FlightKind::Shed {
            what: "admission".into(),
        });
        rec.flush();
        assert_eq!(rec.totals(), (0, 0));
        assert!(!path.exists());
    }

    #[test]
    fn empty_recorder_does_not_flush_a_file() {
        let path = tmp_path("empty");
        let _ = std::fs::remove_file(&path);
        let rec = FlightRecorder::new(8, path.clone());
        rec.flush();
        assert!(!path.exists());
    }
}
