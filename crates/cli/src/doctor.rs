//! `amjs doctor` — postmortem analysis of a daemon state directory.
//!
//! Correlates the durable artifacts a (possibly dead) daemon leaves
//! behind — the command WAL, the snapshot heads and the column log
//! they count on, and the crash flight recorder — into one timeline an
//! operator can read at
//! 3am: what the last acknowledged command was, whether the exit was
//! clean, what recovery will replay, which epoch fences fired, and
//! what the daemon was doing in its final moments (slowest ops, shed
//! windows, panics). `--json` emits the same report for machines.
//!
//! The doctor only *reads*: it never truncates a torn tail or prunes
//! a snapshot — that is recovery's job, and a postmortem tool that
//! mutates the evidence would be worse than none.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use amjs_obs::json::ObjWriter;
use amjs_serve::{
    column_log_path, read_column_log, read_flightrec, read_wal, split_head, FlightEvent, FlightKind,
};
use amjs_sim::snapshot::{read_snapshot_file, SnapshotStore};

use crate::args::{self, ArgError, FlagSpec};

fn flag_specs() -> Vec<FlagSpec> {
    vec![
        FlagSpec::switch("help", "show this help"),
        FlagSpec::switch("json", "emit the report as one JSON object instead of text"),
        FlagSpec::with_default("slowest", 5, "how many slowest recorded ops to list"),
        FlagSpec::with_default("tail", 10, "how many final flight-recorder events to show"),
    ]
}

fn help() -> String {
    format!(
        "{}\n\n\
         usage: amjs doctor <state-dir> [flags]\n\n\
         Reads the command WAL, the snapshot rotation, and the crash\n\
         flight recorder (`flightrec.jsonl`), and prints a correlated\n\
         timeline: last applied sequence, clean-vs-crash verdict, torn\n\
         tail diagnosis, the recovery plan, epoch transitions, slowest\n\
         ops, BUSY-shed windows, and any recorded panics. Never writes.\n\n\
         flags:\n{}",
        crate::commands::title("doctor"),
        args::render_flags(&flag_specs())
    )
}

/// One epoch fence observed in the journal.
struct EpochTransition {
    seq: u64,
    from: u64,
    to: u64,
}

/// A cluster of BUSY sheds close together in time.
struct ShedWindow {
    start_ms: u64,
    end_ms: u64,
    by_what: BTreeMap<String, u64>,
}

impl ShedWindow {
    fn count(&self) -> u64 {
        self.by_what.values().sum()
    }
}

/// The column log beside the snapshot heads, against the newest head.
struct ColumnLogReport {
    bytes: u64,
    /// Whole, checksummed frames from the start of the file.
    frames: u64,
    /// Bytes those frames and the header take up.
    intact: u64,
    /// Log length the newest head was sealed with, if it reads.
    covered: Option<u64>,
    /// Whole frames past `covered`.
    uncovered_frames: u64,
}

/// One snapshot head on disk, and why recovery would pass it over.
struct Head {
    seq: u64,
    path: PathBuf,
    /// Log length the head was sealed with, if it reads.
    sealed: Option<u64>,
    /// Why recovery rejects it: a read/verify error, or a log prefix
    /// that `columns.log` does not hold.
    rejected: Option<String>,
}

/// Everything the doctor concluded, ready to render either way.
struct Report {
    dir: PathBuf,
    // journal
    fingerprint: u64,
    record_count: usize,
    first_seq: Option<u64>,
    last_seq: Option<u64>,
    current_epoch: u64,
    torn_tail: bool,
    dropped_bytes: u64,
    transitions: Vec<EpochTransition>,
    // snapshots
    snapshots: Vec<Head>,
    column_log: Result<ColumnLogReport, String>,
    clean_shutdown: bool,
    /// The recovery plan: the snapshot seq it loads and the records it
    /// replays, or why it refuses to start.
    plan: Result<(u64, u64), String>,
    // flight recorder
    flightrec: Option<Vec<FlightEvent>>,
    flightrec_error: Option<String>,
}

fn build_report(dir: &Path) -> Result<Report, ArgError> {
    let wal_path = dir.join("commands.wal");
    let wal = read_wal(&wal_path, None).map_err(|e| {
        ArgError(format!(
            "{}: {e} (is this a daemon state directory?)",
            wal_path.display()
        ))
    })?;
    let wal_len = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);

    let mut transitions = Vec::new();
    let mut prev_epoch = wal.header_epoch;
    for r in &wal.records {
        if r.epoch != prev_epoch {
            transitions.push(EpochTransition {
                seq: r.seq,
                from: prev_epoch,
                to: r.epoch,
            });
            prev_epoch = r.epoch;
        }
    }

    let store = SnapshotStore::new(dir, 1);
    let mut snapshots = store
        .list()
        .map_err(|e| ArgError(format!("{}: cannot list snapshots: {e}", dir.display())))?;
    snapshots.sort();

    // What each head was sealed with, and which of them the log still
    // backs: recovery takes the newest that it does.
    let log = read_column_log(&column_log_path(dir));
    let boundaries: Vec<u64> = log.iter().flat_map(|log| log.boundaries()).collect();
    let snapshots: Vec<Head> = snapshots
        .into_iter()
        .map(|(seq, path)| {
            let sealed = read_snapshot_file(&path).and_then(|p| Ok(split_head(&p)?.1));
            let rejected = match &sealed {
                Err(e) => Some(e.to_string()),
                Ok(c) if !boundaries.contains(c) => {
                    Some(format!("its log prefix ({c} bytes) is not in columns.log"))
                }
                Ok(_) => None,
            };
            Head {
                seq,
                path,
                sealed: sealed.ok(),
                rejected,
            }
        })
        .collect();
    let covered = snapshots.last().and_then(|h| h.sealed);
    let usable_snap = snapshots
        .iter()
        .rev()
        .find(|h| h.rejected.is_none())
        .map(|h| h.seq);
    let column_log = log
        .map(|log| ColumnLogReport {
            bytes: log.bytes(),
            frames: boundaries.len() as u64 - 1,
            intact: boundaries[boundaries.len() - 1],
            covered,
            uncovered_frames: match covered {
                Some(c) => boundaries.iter().filter(|&&end| end > c).count() as u64,
                None => 0,
            },
        })
        .map_err(|e| e.to_string());

    // Clean-shutdown heuristic: the engine's last act is a snapshot at
    // `next_seq` (one past the final record), so a newest snapshot
    // covering the whole journal means the daemon said goodbye.
    let next_seq = wal.records.last().map(|r| r.seq + 1).unwrap_or(0);
    let clean_shutdown = !wal.torn_tail
        && usable_snap.is_some_and(|s| s >= next_seq)
        && usable_snap == snapshots.last().map(|h| h.seq);
    let plan = match usable_snap {
        Some(s) => {
            let from = s.min(next_seq);
            Ok((
                from,
                wal.records.iter().filter(|r| r.seq >= from).count() as u64,
            ))
        }
        None if column_log.is_err() => Err("columns.log does not read".to_string()),
        None if snapshots.is_empty() => Err("there is no snapshot to load".to_string()),
        None => Err(format!(
            "all {} snapshot head(s) are rejected",
            snapshots.len()
        )),
    };

    let fr_path = dir.join("flightrec.jsonl");
    let (flightrec, flightrec_error) = if fr_path.exists() {
        match read_flightrec(&fr_path) {
            Ok(evs) => (Some(evs), None),
            Err(e) => (None, Some(e)),
        }
    } else {
        (None, None)
    };

    Ok(Report {
        dir: dir.to_path_buf(),
        fingerprint: wal.fingerprint,
        record_count: wal.records.len(),
        first_seq: wal.records.first().map(|r| r.seq),
        last_seq: wal.records.last().map(|r| r.seq),
        current_epoch: wal.current_epoch(),
        torn_tail: wal.torn_tail,
        dropped_bytes: wal_len.saturating_sub(wal.valid_len),
        transitions,
        snapshots,
        column_log,
        clean_shutdown,
        plan,
        flightrec,
        flightrec_error,
    })
}

/// Group shed events into windows: sheds less than a second apart are
/// one overload episode, not many.
fn shed_windows(events: &[FlightEvent]) -> Vec<ShedWindow> {
    const GAP_MS: u64 = 1_000;
    let mut out: Vec<ShedWindow> = Vec::new();
    for ev in events {
        let FlightKind::Shed { what } = &ev.kind else {
            continue;
        };
        match out.last_mut() {
            Some(w) if ev.unix_ms.saturating_sub(w.end_ms) <= GAP_MS => {
                w.end_ms = ev.unix_ms.max(w.end_ms);
                *w.by_what.entry(what.clone()).or_insert(0) += 1;
            }
            _ => {
                let mut by_what = BTreeMap::new();
                by_what.insert(what.clone(), 1);
                out.push(ShedWindow {
                    start_ms: ev.unix_ms,
                    end_ms: ev.unix_ms,
                    by_what,
                });
            }
        }
    }
    out
}

/// Recorded requests, slowest first.
fn slowest_ops(events: &[FlightEvent], n: usize) -> Vec<&FlightEvent> {
    let mut reqs: Vec<&FlightEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, FlightKind::Request { .. }))
        .collect();
    reqs.sort_by_key(|e| match e.kind {
        FlightKind::Request { dur_us, .. } => std::cmp::Reverse(dur_us),
        _ => std::cmp::Reverse(0),
    });
    reqs.truncate(n);
    reqs
}

/// `YYYY-MM-DD HH:MM:SS.mmm` in UTC from Unix milliseconds
/// (days-from-civil inverse; no date crate, like everything here).
fn fmt_unix_ms(unix_ms: u64) -> String {
    let secs = (unix_ms / 1000) as i64;
    let ms = unix_ms % 1000;
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400);
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe as i64 + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}.{ms:03}",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60
    )
}

fn describe_event(ev: &FlightEvent) -> String {
    match &ev.kind {
        FlightKind::Request {
            verb,
            status,
            dur_us,
            seq,
        } => {
            let seq = seq.map(|s| format!(" seq={s}")).unwrap_or_default();
            format!(
                "request    {verb} -> {status} ({:.1}ms){seq}",
                *dur_us as f64 / 1000.0
            )
        }
        FlightKind::Shed { what } => format!("shed       BUSY ({what})"),
        FlightKind::ReplApply { seq, epoch } => {
            format!("repl-apply seq={seq} epoch={epoch}")
        }
        FlightKind::Snapshot { seq, dur_us } => {
            format!("snapshot   seq={seq} ({:.1}ms)", *dur_us as f64 / 1000.0)
        }
        FlightKind::Promotion { epoch, dur_us } => format!(
            "promotion  -> epoch {epoch} (takeover {:.1}ms)",
            *dur_us as f64 / 1000.0
        ),
        FlightKind::Panic { what } => {
            let mut what = what.replace('\n', " | ");
            if what.len() > 120 {
                what.truncate(117);
                what.push_str("...");
            }
            format!("panic      {what}")
        }
    }
}

fn file_name(path: &Path) -> std::borrow::Cow<'_, str> {
    path.file_name().unwrap_or_default().to_string_lossy()
}

fn render_text(r: &Report, slowest: usize, tail: usize) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "amjs doctor — postmortem of {}\n", r.dir.display());

    let _ = writeln!(w, "journal (commands.wal):");
    let _ = writeln!(w, "  fingerprint       {:016x}", r.fingerprint);
    match (r.first_seq, r.last_seq) {
        (Some(a), Some(b)) => {
            let _ = writeln!(w, "  records           {} (seq {a}..={b})", r.record_count);
            let _ = writeln!(w, "  last applied seq  {b}");
        }
        _ => {
            let _ = writeln!(w, "  records           0 (no command was ever accepted)");
        }
    }
    let _ = writeln!(w, "  current epoch     {}", r.current_epoch);
    if r.torn_tail {
        let _ = writeln!(
            w,
            "  torn tail         YES — {} trailing byte(s) from an append cut \
             short by the crash; recovery will truncate them",
            r.dropped_bytes
        );
    } else {
        let _ = writeln!(w, "  torn tail         no");
    }
    for t in &r.transitions {
        let _ = writeln!(
            w,
            "  epoch fence       {} -> {} at seq {} (failover promotion)",
            t.from, t.to, t.seq
        );
    }

    let _ = writeln!(w, "\nsnapshots:");
    if let Some(newest) = r.snapshots.last() {
        let _ = writeln!(
            w,
            "  {} on disk; newest covers seq {} ({})",
            r.snapshots.len(),
            newest.seq,
            file_name(&newest.path)
        );
    } else {
        let _ = writeln!(w, "  none on disk");
    }
    for head in r.snapshots.iter().rev() {
        if let Some(why) = &head.rejected {
            let _ = writeln!(w, "  rejected          {}: {why}", file_name(&head.path));
        }
    }
    match &r.column_log {
        Err(e) => {
            let _ = writeln!(w, "  column log        UNREADABLE: {e}");
        }
        Ok(log) => {
            let _ = writeln!(
                w,
                "  column log        {} bytes, {} frame(s); the newest head counts on {}",
                log.bytes,
                log.frames,
                match log.covered {
                    Some(c) => format!("the first {c} bytes"),
                    None => "nothing that reads".to_string(),
                }
            );
            if log.covered.is_some_and(|c| c > log.intact) {
                let _ = writeln!(
                    w,
                    "  DAMAGED PREFIX    only {} bytes of the log are whole frames: \
                     recovery rejects the newest head and falls back to the one before",
                    log.intact
                );
            }
            if log.uncovered_frames > 0 {
                let _ = writeln!(
                    w,
                    "  frame past the newest head: {} — the crash fell between log \
                     append and head rename; recovery drops it",
                    log.uncovered_frames
                );
            }
            if log.bytes > log.intact {
                let _ = writeln!(
                    w,
                    "  torn log tail     {} bytes that are no whole frame — the crash \
                     fell inside a log append; recovery drops it",
                    log.bytes - log.intact
                );
            }
        }
    }
    match &r.plan {
        _ if r.clean_shutdown => {
            let _ = writeln!(
                w,
                "  verdict: CLEAN SHUTDOWN — the final snapshot covers the whole \
                 journal; recovery replays nothing"
            );
        }
        Ok((from, records)) => {
            let _ = writeln!(
                w,
                "  verdict: UNCLEAN EXIT — recovery will load the seq-{from} snapshot \
                 and replay {records} journal record(s)"
            );
        }
        Err(why) => {
            let _ = writeln!(
                w,
                "  verdict: UNRECOVERABLE — recovery will refuse to start: {why}"
            );
        }
    }

    let _ = writeln!(w, "\nflight recorder (flightrec.jsonl):");
    match (&r.flightrec, &r.flightrec_error) {
        (None, Some(e)) => {
            let _ = writeln!(w, "  UNREADABLE: {e}");
        }
        (None, None) => {
            let _ = writeln!(
                w,
                "  absent (recorder disabled, or the daemon was killed before \
                 any panic/shutdown flush)"
            );
        }
        (Some(events), _) => {
            let _ = writeln!(w, "  {} event(s) retained", events.len());
            if let (Some(first), Some(last)) = (events.first(), events.last()) {
                let _ = writeln!(
                    w,
                    "  covering {} .. {} UTC",
                    fmt_unix_ms(first.unix_ms),
                    fmt_unix_ms(last.unix_ms)
                );
            }
            let panics: Vec<&FlightEvent> = events
                .iter()
                .filter(|e| matches!(e.kind, FlightKind::Panic { .. }))
                .collect();
            for p in &panics {
                let _ = writeln!(w, "  {}  {}", fmt_unix_ms(p.unix_ms), describe_event(p));
            }
            let windows = shed_windows(events);
            for win in &windows {
                let parts: Vec<String> = win
                    .by_what
                    .iter()
                    .map(|(what, n)| format!("{what} x{n}"))
                    .collect();
                let _ = writeln!(
                    w,
                    "  shed window       {} UTC, {:.1}s: {} BUSY ({})",
                    fmt_unix_ms(win.start_ms),
                    (win.end_ms - win.start_ms) as f64 / 1000.0,
                    win.count(),
                    parts.join(", ")
                );
            }
            let slow = slowest_ops(events, slowest);
            if !slow.is_empty() {
                let _ = writeln!(w, "\n  slowest recorded ops:");
                for ev in slow {
                    let _ = writeln!(w, "    {}  {}", fmt_unix_ms(ev.unix_ms), describe_event(ev));
                }
            }
            let _ = writeln!(
                w,
                "\n  final moments (last {} events):",
                tail.min(events.len())
            );
            for ev in events.iter().rev().take(tail).rev() {
                let _ = writeln!(w, "    {}  {}", fmt_unix_ms(ev.unix_ms), describe_event(ev));
            }
        }
    }
    out
}

fn render_json(r: &Report, slowest: usize) -> String {
    let mut wal = ObjWriter::new();
    wal.str("fingerprint", &format!("{:016x}", r.fingerprint))
        .u64("records", r.record_count as u64);
    if let (Some(a), Some(b)) = (r.first_seq, r.last_seq) {
        wal.u64("first_seq", a).u64("last_seq", b);
    }
    wal.u64("current_epoch", r.current_epoch)
        .bool("torn_tail", r.torn_tail)
        .u64("dropped_bytes", r.dropped_bytes);
    let transitions: Vec<String> = r
        .transitions
        .iter()
        .map(|t| {
            let mut o = ObjWriter::new();
            o.u64("seq", t.seq).u64("from", t.from).u64("to", t.to);
            o.finish()
        })
        .collect();
    wal.raw("epoch_transitions", &format!("[{}]", transitions.join(",")));

    let snaps: Vec<String> = r
        .snapshots
        .iter()
        .map(|head| {
            let mut o = ObjWriter::new();
            o.u64("seq", head.seq).str("file", &file_name(&head.path));
            if let Some(why) = &head.rejected {
                o.str("rejected", why);
            }
            o.finish()
        })
        .collect();

    let mut recovery = ObjWriter::new();
    recovery.bool("clean_shutdown", r.clean_shutdown);
    match &r.plan {
        Ok((from, records)) => {
            recovery
                .u64("snapshot_seq", *from)
                .u64("replay_records", *records);
        }
        Err(why) => {
            recovery.str("refused", why);
        }
    }

    let mut column_log = ObjWriter::new();
    match &r.column_log {
        Err(e) => {
            column_log.str("error", e);
        }
        Ok(log) => {
            column_log
                .u64("bytes", log.bytes)
                .u64("frames", log.frames)
                .u64("intact_bytes", log.intact)
                .u64("uncovered_frames", log.uncovered_frames);
            if let Some(covered) = log.covered {
                column_log.u64("newest_head_covers", covered);
            }
        }
    }

    let mut root = ObjWriter::new();
    root.str("dir", &r.dir.display().to_string())
        .raw("wal", &wal.finish())
        .raw("snapshots", &format!("[{}]", snaps.join(",")))
        .raw("column_log", &column_log.finish())
        .raw("recovery", &recovery.finish());

    match (&r.flightrec, &r.flightrec_error) {
        (Some(events), _) => {
            let slow: Vec<String> = slowest_ops(events, slowest)
                .iter()
                .map(|e| e.to_json_line())
                .collect();
            let windows: Vec<String> = shed_windows(events)
                .iter()
                .map(|win| {
                    let mut o = ObjWriter::new();
                    o.u64("start_ms", win.start_ms)
                        .u64("end_ms", win.end_ms)
                        .u64("sheds", win.count());
                    o.finish()
                })
                .collect();
            let panics = events
                .iter()
                .filter(|e| matches!(e.kind, FlightKind::Panic { .. }))
                .count() as u64;
            let mut fr = ObjWriter::new();
            fr.u64("events", events.len() as u64)
                .u64("panics", panics)
                .raw("slowest", &format!("[{}]", slow.join(",")))
                .raw("shed_windows", &format!("[{}]", windows.join(",")));
            root.raw("flightrec", &fr.finish());
        }
        (None, Some(e)) => {
            let mut fr = ObjWriter::new();
            fr.str("error", e);
            root.raw("flightrec", &fr.finish());
        }
        (None, None) => {
            root.raw("flightrec", "null");
        }
    }
    root.finish()
}

pub fn doctor(argv: &[String]) -> Result<(), ArgError> {
    let parsed = args::parse(argv, &flag_specs())?;
    if parsed.get_bool("help") {
        println!("{}", help());
        return Ok(());
    }
    let dir = match parsed.positionals.as_slice() {
        [d] => PathBuf::from(d),
        [] => return Err(ArgError("doctor needs a state directory to examine".into())),
        more => {
            return Err(ArgError(format!(
                "doctor takes exactly one state directory, got {more:?}"
            )))
        }
    };
    let slowest: usize = parsed.get_parsed("slowest")?;
    let tail: usize = parsed.get_parsed("tail")?;
    let report = build_report(&dir)?;
    if parsed.get_bool("json") {
        println!("{}", render_json(&report, slowest));
    } else {
        print!("{}", render_text(&report, slowest, tail));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_serve::FlightEvent;

    fn ev(unix_ms: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent { unix_ms, kind }
    }

    #[test]
    fn defaults_are_read_before_the_directory_is() {
        let err = doctor(&["/no/such/state-dir".to_string()]).unwrap_err();
        assert!(err.0.contains("is this a daemon state directory?"), "{err}");
    }

    #[test]
    fn shed_events_cluster_into_windows_by_gap() {
        let events = vec![
            ev(
                1_000,
                FlightKind::Shed {
                    what: "admission".into(),
                },
            ),
            ev(
                1_400,
                FlightKind::Shed {
                    what: "whatif-cap".into(),
                },
            ),
            ev(
                1_900,
                FlightKind::Shed {
                    what: "admission".into(),
                },
            ),
            // 5s of calm, then a second episode
            ev(
                7_000,
                FlightKind::Shed {
                    what: "admission".into(),
                },
            ),
        ];
        let windows = shed_windows(&events);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].count(), 3);
        assert_eq!(windows[0].by_what["admission"], 2);
        assert_eq!(windows[1].count(), 1);
        assert_eq!(windows[1].start_ms, 7_000);
    }

    #[test]
    fn slowest_ops_rank_requests_only() {
        let events = vec![
            ev(
                1,
                FlightKind::Snapshot {
                    seq: 0,
                    dur_us: 9_999_999,
                },
            ),
            ev(
                2,
                FlightKind::Request {
                    verb: "SUBMIT".into(),
                    status: "OK".into(),
                    dur_us: 100,
                    seq: Some(0),
                },
            ),
            ev(
                3,
                FlightKind::Request {
                    verb: "WHATIF".into(),
                    status: "OK".into(),
                    dur_us: 90_000,
                    seq: None,
                },
            ),
        ];
        let slow = slowest_ops(&events, 5);
        assert_eq!(slow.len(), 2);
        assert!(matches!(
            &slow[0].kind,
            FlightKind::Request { verb, .. } if verb == "WHATIF"
        ));
    }

    #[test]
    fn unix_ms_formats_as_utc_civil_time() {
        // `date -u -d @1786406400` says Tue Aug 11 00:00:00 UTC 2026.
        assert_eq!(fmt_unix_ms(1_786_406_400_000), "2026-08-11 00:00:00.000");
        assert_eq!(fmt_unix_ms(0), "1970-01-01 00:00:00.000");
        assert_eq!(
            fmt_unix_ms(1_786_406_400_123 + 3_661_000),
            "2026-08-11 01:01:01.123"
        );
    }
}
