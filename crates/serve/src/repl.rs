//! Hot-standby replication: the protocol pieces shared by primary and
//! follower.
//!
//! A follower (`amjs serve --follow <primary-addr>`) holds a warm copy
//! of the primary's entire scheduler state and takes over — in a new,
//! fenced epoch — when the primary dies. The design leans on machinery
//! earlier PRs already proved out:
//!
//! - **Bootstrap** is a snapshot transfer: `REPL SNAPSHOT` returns the
//!   primary's live state through the run-state snapshot codec, chunked into
//!   netstring frames (the frame cap is 4 KiB; a snapshot is not).
//! - **Tailing** is WAL shipping: `REPL TAIL SEQ=n EPOCH=e FP=h` is
//!   admitted and answered like any other command — refused, it is an
//!   ordinary `ERR` on a connection that stays open; accepted, it turns
//!   the connection into a one-way stream of WAL records. Each record
//!   carries the primary's post-apply `state_hash`, and the follower
//!   applies it through the *identical* apply path, so divergence is
//!   detected at the exact sequence number — the same contract crash
//!   recovery's WAL replay gives.
//! - **Failover** is epoch-fenced: the follower promotes itself into
//!   `epoch + 1` once the lease expires, and any stale ex-primary that
//!   later asks to tail with an old epoch (or a foreign fingerprint) is
//!   refused before a single record moves — split-brain writes can
//!   never reach a WAL.
//!
//! Stream frame grammar (one text frame each, after `OK TAILING`):
//!
//! ```text
//! R <seq> <epoch> <time-secs> <state-hash:016x> <command text>
//! HB <epoch> <next-seq>
//! ```

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::proto::{read_frame, write_frame, Command, FrameError};
use crate::wal::WalRecord;

/// Snapshot payload bytes per transfer frame — comfortably under
/// [`MAX_FRAME`] so the framing layer never refuses a chunk.
pub const SNAPSHOT_CHUNK: usize = 3072;

/// One record on the replication stream — exactly a WAL record; the
/// follower appends what it hears (after cross-checking) so its log
/// converges on a byte-equivalent copy of the primary's.
pub type ReplRecord = WalRecord;

/// Render a record stream frame.
pub fn render_record(r: &ReplRecord) -> String {
    format!(
        "R {} {} {} {:016x} {}",
        r.seq, r.epoch, r.time_secs, r.state_hash, r.cmd
    )
}

/// Render a heartbeat stream frame.
pub fn render_heartbeat(epoch: u64, next_seq: u64) -> String {
    format!("HB {epoch} {next_seq}")
}

/// One parsed frame off the replication stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamFrame {
    /// A WAL record to apply and append.
    Record(ReplRecord),
    /// Primary liveness + its current head sequence (lag gauge input).
    Heartbeat {
        /// Primary's current epoch.
        epoch: u64,
        /// Sequence the primary's next append will get.
        next_seq: u64,
    },
}

/// Parse one stream frame (the text after `OK TAILING`).
pub fn parse_stream_frame(line: &str) -> Result<StreamFrame, String> {
    if let Some(rest) = line.strip_prefix("HB ") {
        let mut it = rest.split_ascii_whitespace();
        let epoch = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad HB epoch")?;
        let next_seq = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad HB next_seq")?;
        if it.next().is_some() {
            return Err("trailing HB tokens".into());
        }
        return Ok(StreamFrame::Heartbeat { epoch, next_seq });
    }
    let rest = line.strip_prefix("R ").ok_or("unknown stream frame")?;
    let mut it = rest.splitn(5, ' ');
    let seq = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad record seq")?;
    let epoch = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad record epoch")?;
    let time_secs = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad record time")?;
    let state_hash = it
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("bad record hash")?;
    let cmd = it.next().ok_or("record missing command")?.to_string();
    Ok(StreamFrame::Record(ReplRecord {
        seq,
        epoch,
        time_secs,
        state_hash,
        cmd,
    }))
}

/// Everything a follower needs to start life as a warm copy: the
/// primary's encoded state plus where in the log that state sits.
#[derive(Clone, Debug)]
pub struct Bootstrap {
    /// Encoded live-scheduler state (`LiveScheduler::encode`).
    pub payload: Vec<u8>,
    /// WAL sequence the payload corresponds to (tail from here).
    pub seq: u64,
    /// Primary's current epoch — adopted wholesale.
    pub epoch: u64,
    /// Primary's run fingerprint.
    pub fingerprint: u64,
}

/// Fetch the primary's current snapshot over one short-lived
/// connection — the follower's bootstrap (and the CLI's platform
/// dispatch hook: [`amjs_core::live::peek_platform`] on the payload).
pub fn fetch_snapshot(primary: &str, timeout: Duration) -> Result<Bootstrap, String> {
    let stream = connect(primary, timeout)?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    write_frame(&mut writer, Command::ReplSnapshot.render().as_bytes())
        .map_err(|e| format!("cannot request snapshot: {e}"))?;
    let head = read_reply(&mut reader)?;
    let head = head
        .strip_prefix("OK SNAPSHOT ")
        .ok_or_else(|| format!("primary refused snapshot: {head}"))?;
    let (mut seq, mut epoch, mut fp, mut size) = (None, None, None, None);
    for tok in head.split_ascii_whitespace() {
        if let Some(v) = tok.strip_prefix("SEQ=") {
            seq = v.parse::<u64>().ok();
        } else if let Some(v) = tok.strip_prefix("EPOCH=") {
            epoch = v.parse::<u64>().ok();
        } else if let Some(v) = tok.strip_prefix("FP=") {
            fp = u64::from_str_radix(v, 16).ok();
        } else if let Some(v) = tok.strip_prefix("SIZE=") {
            size = v.parse::<usize>().ok();
        }
    }
    let (seq, epoch, fingerprint, size) = match (seq, epoch, fp, size) {
        (Some(s), Some(e), Some(f), Some(z)) => (s, e, f, z),
        _ => return Err(format!("malformed snapshot header: {head}")),
    };
    // `size` is the primary's word: hold only what has arrived.
    let mut payload = Vec::new();
    while payload.len() < size {
        let chunk = read_frame(&mut reader).map_err(|e| {
            format!(
                "snapshot transfer interrupted at {} bytes: {e}",
                payload.len()
            )
        })?;
        payload.extend_from_slice(&chunk);
    }
    if payload.len() != size {
        return Err(format!(
            "snapshot transfer overran: got {} bytes, expected {size}",
            payload.len()
        ));
    }
    Ok(Bootstrap {
        payload,
        seq,
        epoch,
        fingerprint,
    })
}

/// Write the chunked snapshot reply (primary side, connection thread).
pub fn send_snapshot(writer: &mut impl std::io::Write, boot: &Bootstrap) -> std::io::Result<()> {
    let head = format!(
        "OK SNAPSHOT SEQ={} EPOCH={} FP={:016x} SIZE={}",
        boot.seq,
        boot.epoch,
        boot.fingerprint,
        boot.payload.len()
    );
    write_frame(writer, head.as_bytes())?;
    for chunk in boot.payload.chunks(SNAPSHOT_CHUNK) {
        write_frame(writer, chunk)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The follower's tail loop
// ---------------------------------------------------------------------------

/// What the tail thread reports up to the engine loop.
#[derive(Clone, Debug)]
pub enum FollowEvent {
    /// A contiguous record to apply (gaps are healed by reconnecting
    /// before anything is delivered).
    Record(ReplRecord),
    /// The primary refused us or the stream is unusable — the daemon
    /// must stop with this diagnostic (fencing, foreign fingerprint).
    Fatal(String),
    /// No contact within the lease window: time to promote.
    PrimaryLost,
}

/// Shared state between the engine loop and the tail thread.
#[derive(Default)]
pub struct FollowShared {
    /// Last sequence the engine has applied + 1 (i.e. the next record
    /// it needs). The tail thread re-tails from here after a reconnect.
    pub applied_seq: AtomicU64,
    /// The follower's current epoch (engine bumps it on promotion).
    pub epoch: AtomicU64,
    /// Primary's head sequence as of the last heartbeat (lag gauge).
    pub primary_next_seq: AtomicU64,
    /// Set by the daemon on shutdown; the tail thread exits promptly.
    pub stop: AtomicBool,
}

fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let mut last = String::from("no addresses resolved");
    for sockaddr in addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
    {
        match TcpStream::connect_timeout(&sockaddr, timeout) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("cannot connect to {addr}: {last}"))
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let payload = read_frame(reader).map_err(|e| e.to_string())?;
    String::from_utf8(payload).map_err(|_| "reply is not utf-8".to_string())
}

/// Tail the primary's WAL until told to stop, delivering contiguous
/// records to `deliver` (return `false` to stop the loop). Transient
/// faults — disconnects, dropped frames (sequence gaps), handshake
/// timeouts — are healed by reconnecting and re-tailing from the
/// engine's applied sequence; only once the primary stays unreachable
/// past `lease` does the loop report [`FollowEvent::PrimaryLost`].
pub fn follow_loop(
    primary: &str,
    fingerprint: u64,
    lease: Duration,
    shared: &FollowShared,
    mut deliver: impl FnMut(FollowEvent) -> bool,
) {
    let connect_timeout = lease
        .min(Duration::from_millis(250))
        .max(Duration::from_millis(10));
    let read_timeout = connect_timeout;
    let mut last_contact = Instant::now();
    // Highest sequence already handed to the engine + 1; the re-tail
    // point must wait for the engine to catch up to it so a sequence is
    // never delivered twice.
    let mut forwarded: Option<u64> = None;
    'outer: loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if last_contact.elapsed() > lease {
            let _ = deliver(FollowEvent::PrimaryLost);
            return;
        }
        let stream = match connect(primary, connect_timeout) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue 'outer;
            }
        };
        let _ = stream.set_read_timeout(Some(read_timeout));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue 'outer,
        };
        let mut reader = BufReader::new(stream);

        // Drain barrier: records already delivered may still be queued
        // at the engine; wait for it to catch up before re-tailing.
        if let Some(f) = forwarded {
            let deadline = Instant::now() + lease;
            while shared.applied_seq.load(Ordering::SeqCst) < f && Instant::now() < deadline {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let resume_from = shared.applied_seq.load(Ordering::SeqCst);

        let hello = Command::ReplTail {
            seq: resume_from,
            epoch: shared.epoch.load(Ordering::SeqCst),
            fingerprint,
        };
        if write_frame(&mut writer, hello.render().as_bytes()).is_err() {
            continue 'outer;
        }
        match read_reply(&mut reader) {
            Ok(reply) if reply.starts_with("OK TAILING") => {
                last_contact = Instant::now();
            }
            Ok(reply) if reply.starts_with("ERR ") => {
                let _ = deliver(FollowEvent::Fatal(reply[4..].to_string()));
                return;
            }
            _ => continue 'outer, // retry within the lease
        }

        let mut expected_seq = resume_from;
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match read_frame(&mut reader) {
                Ok(payload) => {
                    let line = match std::str::from_utf8(&payload) {
                        Ok(s) => s,
                        Err(_) => continue 'outer, // corrupt stream: resync
                    };
                    match parse_stream_frame(line) {
                        Ok(StreamFrame::Heartbeat { next_seq, .. }) => {
                            last_contact = Instant::now();
                            shared.primary_next_seq.store(next_seq, Ordering::SeqCst);
                        }
                        Ok(StreamFrame::Record(rec)) => {
                            last_contact = Instant::now();
                            if rec.seq != expected_seq {
                                // The link dropped a frame; heal by
                                // re-tailing from the applied sequence.
                                continue 'outer;
                            }
                            expected_seq = rec.seq + 1;
                            shared
                                .primary_next_seq
                                .fetch_max(expected_seq, Ordering::SeqCst);
                            if !deliver(FollowEvent::Record(rec)) {
                                return;
                            }
                            forwarded = Some(expected_seq);
                        }
                        Err(_) => continue 'outer, // corrupt stream: resync
                    }
                }
                Err(FrameError::Io(_)) => {
                    // Read timeout (or transport hiccup): the lease is
                    // the judge of whether the primary is gone.
                    if last_contact.elapsed() > lease {
                        let _ = deliver(FollowEvent::PrimaryLost);
                        return;
                    }
                }
                Err(_) => continue 'outer, // EOF / framing: reconnect
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_FRAME;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn record_frame_round_trip() {
        let rec = ReplRecord {
            seq: 42,
            epoch: 3,
            time_secs: -7,
            state_hash: 0xDEAD_BEEF_0123_4567,
            cmd: "SUBMIT NODES=4 WALL=60 USER=9".into(),
        };
        let frame = render_record(&rec);
        assert!(frame.len() <= MAX_FRAME);
        assert_eq!(parse_stream_frame(&frame), Ok(StreamFrame::Record(rec)));
    }

    #[test]
    fn heartbeat_frame_round_trip() {
        let frame = render_heartbeat(5, 120);
        assert_eq!(
            parse_stream_frame(&frame),
            Ok(StreamFrame::Heartbeat {
                epoch: 5,
                next_seq: 120
            })
        );
    }

    #[test]
    fn malformed_stream_frames_are_rejected() {
        for bad in [
            "",
            "R",
            "R 1 2",
            "R x 2 3 0a CMD",
            "HB 1",
            "Q 1 2 3",
            "R 1 2 3 zz CMD",
        ] {
            assert!(parse_stream_frame(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn snapshot_chunking_round_trips_through_frames() {
        let boot = Bootstrap {
            payload: (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect(),
            seq: 17,
            epoch: 2,
            fingerprint: 0xFACE,
        };
        let mut wire = Vec::new();
        send_snapshot(&mut wire, &boot).unwrap();
        let mut r = &wire[..];
        let head = String::from_utf8(read_frame(&mut r).unwrap()).unwrap();
        assert_eq!(
            head,
            format!(
                "OK SNAPSHOT SEQ=17 EPOCH=2 FP=000000000000face SIZE={}",
                boot.payload.len()
            )
        );
        let mut payload = Vec::new();
        while payload.len() < boot.payload.len() {
            payload.extend_from_slice(&read_frame(&mut r).unwrap());
        }
        assert_eq!(payload, boot.payload);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    // ----- a scripted primary on a loopback port -----

    /// What the scripted primary does with one connection: these
    /// frames, then close — or, `hold`, stay open and silent.
    type Script = (Vec<String>, bool);

    /// A primary that plays one [`Script`] per accepted connection, in
    /// order, after reading the client's first frame (sent on the
    /// returned receiver). Held sockets close when the returned sender
    /// drops.
    fn fake_primary(scripts: Vec<Script>) -> (String, mpsc::Receiver<String>, mpsc::Sender<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (heard, hellos) = mpsc::channel();
        let (done, finished) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for (frames, hold) in scripts {
                let (mut stream, _) = listener.accept().unwrap();
                let hello = read_frame(&mut BufReader::new(&stream)).unwrap();
                let _ = heard.send(String::from_utf8(hello).unwrap());
                for frame in frames {
                    write_frame(&mut stream, frame.as_bytes()).unwrap();
                }
                if hold {
                    held.push(stream);
                }
            }
            let _ = finished.recv();
        });
        (addr, hellos, done)
    }

    #[test]
    fn fetch_snapshot_holds_only_what_arrived() {
        let huge = format!("OK SNAPSHOT SEQ=0 EPOCH=0 FP=0 SIZE={}", usize::MAX);
        let (addr, hellos, _done) = fake_primary(vec![(vec![huge], false)]);
        let err = fetch_snapshot(&addr, Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("interrupted at 0 bytes"), "{err}");
        assert_eq!(hellos.recv().unwrap(), "REPL SNAPSHOT");

        let short = "OK SNAPSHOT SEQ=0 EPOCH=0 FP=0 SIZE=4".to_string();
        let (addr, _, _done) = fake_primary(vec![(vec![short, "12345678".into()], false)]);
        let err = fetch_snapshot(&addr, Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("overran: got 8 bytes, expected 4"), "{err}");
    }

    /// `follow_loop` against `addr` until it returns, with a `deliver`
    /// that applies each record as the engine would: every event, in
    /// order.
    fn follow(addr: &str, lease: Duration) -> Vec<FollowEvent> {
        let shared = FollowShared::default();
        let mut events = Vec::new();
        follow_loop(addr, 0xF00D, lease, &shared, |event| {
            if let FollowEvent::Record(rec) = &event {
                shared.applied_seq.store(rec.seq + 1, Ordering::SeqCst);
            }
            events.push(event);
            true
        });
        events
    }

    fn hello(seq: u64) -> String {
        format!("REPL TAIL SEQ={seq} EPOCH=0 FP=000000000000f00d")
    }

    #[test]
    fn a_refused_handshake_is_one_fatal_event() {
        let refusal = "ERR FENCED: stale epoch 0 (current epoch 1)";
        let (addr, hellos, _done) = fake_primary(vec![(vec![refusal.into()], false)]);
        let events = follow(&addr, Duration::from_secs(5));
        let fatal = |m: &str| m == &refusal[4..];
        assert!(
            matches!(&events[..], [FollowEvent::Fatal(m)] if fatal(m)),
            "{events:?}"
        );
        assert_eq!(hellos.recv().unwrap(), hello(0));
    }

    #[test]
    fn a_gap_re_tails_from_the_applied_sequence() {
        let record = |seq| {
            let cmd = "ADVANCE 60".to_string();
            render_record(&ReplRecord {
                seq,
                epoch: 0,
                time_secs: 60,
                state_hash: 0,
                cmd,
            })
        };
        let (addr, hellos, _done) = fake_primary(vec![
            (
                vec!["OK TAILING FROM=0".into(), record(0), record(2)],
                false,
            ),
            (vec!["ERR enough".into()], false),
        ]);
        let events = follow(&addr, Duration::from_secs(5));
        assert!(
            matches!(&events[..], [FollowEvent::Record(r), FollowEvent::Fatal(m)]
                if r.seq == 0 && m == "enough"),
            "{events:?}"
        );
        assert_eq!(hellos.try_iter().collect::<Vec<_>>(), [hello(0), hello(1)]);
    }

    #[test]
    fn a_silent_primary_is_lost_once_the_lease_runs_out() {
        let (addr, _, _done) = fake_primary(vec![(vec!["OK TAILING FROM=0".into()], true)]);
        let lease = Duration::from_millis(300);
        let started = Instant::now();
        let events = follow(&addr, lease);
        assert!(
            matches!(&events[..], [FollowEvent::PrimaryLost]),
            "{events:?}"
        );
        assert!(
            started.elapsed() >= lease,
            "lost after {:?}",
            started.elapsed()
        );
    }
}
