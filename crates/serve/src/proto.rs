//! The wire protocol: length-prefixed text frames and the command set.
//!
//! Framing is a netstring variant chosen so both sides can be written
//! with nothing but a shell: `<decimal byte length>:<payload>\n`. The
//! payload is one UTF-8 command line; replies use the same framing.
//! A declared length above [`MAX_FRAME`] is refused *before* reading
//! the body — a hostile or broken client cannot make the daemon buffer
//! unbounded input — and since the stream is then unsynchronizable the
//! connection is closed after the `ERR` reply.
//!
//! Command grammar (verbs are case-sensitive, fields space-separated,
//! `KEY=VALUE` options may appear in any order):
//!
//! ```text
//! PING
//! SUBMIT NODES=<u32> WALL=<secs> [RUN=<secs>] [USER=<u32>]
//! STATUS <job-id>
//! CANCEL <job-id>
//! WHATIF <job-id> [BF=<f64>] [W=<usize>] [HORIZON=<secs>]
//! STATS
//! HASH
//! ROLE
//! ADVANCE <secs>
//! DRAIN
//! SHUTDOWN
//! REPL SNAPSHOT
//! REPL TAIL SEQ=<u64> EPOCH=<u64> FP=<hex u64>
//! ```
//!
//! Replies are `OK ...`, `ERR <reason>`, or `BUSY <reason>` (load
//! shed: the request was *not* accepted and may be retried).
//!
//! The two `REPL` verbs are the replication extension (PR 7): a
//! follower daemon bootstraps with `REPL SNAPSHOT` (the reply header
//! is followed by raw binary payload frames) and then switches its
//! connection into a one-way record stream with `REPL TAIL`. See
//! [`crate::repl`] for the stream frame grammar.

use std::io::{self, Read, Write};

/// Hard ceiling on frame payload size, both directions.
pub const MAX_FRAME: usize = 4096;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream between frames (client hung up).
    Eof,
    /// Declared length exceeds [`MAX_FRAME`]; the stream cannot be
    /// resynchronized.
    TooLarge(usize),
    /// Header or terminator violated the grammar, or the stream ended
    /// mid-frame.
    Malformed(String),
    /// Underlying transport error (includes read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds max {MAX_FRAME}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Write one frame: `<len>:<payload>\n`. Assembled into one buffer and
/// written with a single `write_all`: three small writes straight to a
/// TCP stream would emit three packets — and on a socket without
/// `TCP_NODELAY`, park the payload behind the peer's delayed ACK for
/// tens of milliseconds per request.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut buf = Vec::with_capacity(payload.len() + 10);
    write!(buf, "{}:", payload.len())?;
    buf.extend_from_slice(payload);
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame. Reads byte-at-a-time through the header (callers
/// wrap the stream in a `BufReader`), refuses oversized declarations
/// before touching the body, and distinguishes a clean EOF between
/// frames from a truncation inside one. A read interrupted by a signal
/// (`EINTR`) is retried, as `read_exact` retries the payload's.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    // Header: up to 7 digits, then ':'.
    let mut len: usize = 0;
    let mut digits = 0usize;
    loop {
        let Some(byte) = read_byte(r).map_err(FrameError::Io)? else {
            return if digits == 0 {
                Err(FrameError::Eof)
            } else {
                Err(FrameError::Malformed("stream ended inside header".into()))
            };
        };
        match byte {
            b'0'..=b'9' => {
                digits += 1;
                if digits > 7 {
                    return Err(FrameError::Malformed("length header too long".into()));
                }
                len = len * 10 + (byte - b'0') as usize;
            }
            b':' if digits > 0 => break,
            other => {
                return Err(FrameError::Malformed(format!(
                    "unexpected byte 0x{other:02x} in length header"
                )));
            }
        }
    }
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Malformed("stream ended inside payload".into())
        } else {
            FrameError::Io(e)
        });
    }
    match read_byte(r).map_err(FrameError::Io)? {
        Some(b'\n') => Ok(payload),
        Some(_) => Err(FrameError::Malformed("missing frame terminator".into())),
        None => Err(FrameError::Malformed("stream ended at terminator".into())),
    }
}

/// The next byte, or `None` at the end of the stream; an interrupted
/// read is retried.
fn read_byte(r: &mut impl Read) -> io::Result<Option<u8>> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A parsed client command. [`Command::render`] is the canonical text
/// encoding — what the write-ahead log stores — and
/// `parse(render(c)) == c` for every command (property-tested).
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Submit a job.
    Submit {
        /// Requested nodes.
        nodes: u32,
        /// Requested walltime, seconds.
        wall_secs: i64,
        /// Actual runtime, seconds (None: plan with the estimate).
        run_secs: Option<i64>,
        /// Submitting user id.
        user: u32,
    },
    /// Query a job's lifecycle state.
    Status(u64),
    /// Cancel a queued job.
    Cancel(u64),
    /// Speculative start-time query.
    WhatIf {
        /// The job asked about.
        job: u64,
        /// Pinned balance factor for the speculation.
        bf: Option<f64>,
        /// Pinned window size for the speculation.
        window: Option<usize>,
        /// How far ahead to speculate, seconds (None: server default).
        horizon_secs: Option<i64>,
    },
    /// Live counters and signals.
    Stats,
    /// State digest + event index (the recovery-proof probe).
    Hash,
    /// Advance the virtual clock (virtual-clock daemons only).
    Advance(i64),
    /// Replication role and epoch (single/primary/follower).
    Role,
    /// Stop admitting work; keep answering queries.
    Drain,
    /// Graceful shutdown: final snapshot, then exit.
    Shutdown,
    /// Replication: request the current state snapshot (chunked reply).
    ReplSnapshot,
    /// Replication: subscribe to the WAL record stream from `seq`.
    ReplTail {
        /// First sequence number the subscriber still needs.
        seq: u64,
        /// Subscriber's current epoch — fenced against the primary's.
        epoch: u64,
        /// Subscriber's run fingerprint — must match the primary's.
        fingerprint: u64,
    },
}

fn parse_kv<'a>(tok: &'a str, key: &str) -> Option<&'a str> {
    tok.strip_prefix(key).and_then(|r| r.strip_prefix('='))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

impl Command {
    /// Parse one command line. Errors name the offending token — they
    /// travel back to the client verbatim in an `ERR` reply.
    pub fn parse(line: &str) -> Result<Command, String> {
        let mut toks = line.split_ascii_whitespace();
        let verb = toks.next().ok_or_else(|| "empty command".to_string())?;
        let rest: Vec<&str> = toks.collect();
        let no_args = |cmd: Command| {
            if rest.is_empty() {
                Ok(cmd)
            } else {
                Err(format!("{verb} takes no arguments"))
            }
        };
        match verb {
            "PING" => no_args(Command::Ping),
            "STATS" => no_args(Command::Stats),
            "HASH" => no_args(Command::Hash),
            "ROLE" => no_args(Command::Role),
            "DRAIN" => no_args(Command::Drain),
            "SHUTDOWN" => no_args(Command::Shutdown),
            "REPL" => match rest.as_slice() {
                ["SNAPSHOT"] => Ok(Command::ReplSnapshot),
                ["TAIL", opts @ ..] => {
                    let (mut seq, mut epoch, mut fp) = (None, None, None);
                    for tok in opts {
                        if let Some(v) = parse_kv(tok, "SEQ") {
                            seq = Some(num::<u64>(v, "SEQ")?);
                        } else if let Some(v) = parse_kv(tok, "EPOCH") {
                            epoch = Some(num::<u64>(v, "EPOCH")?);
                        } else if let Some(v) = parse_kv(tok, "FP") {
                            fp = Some(
                                u64::from_str_radix(v, 16).map_err(|_| format!("bad FP: {v:?}"))?,
                            );
                        } else {
                            return Err(format!("unknown REPL TAIL option {tok:?}"));
                        }
                    }
                    Ok(Command::ReplTail {
                        seq: seq.ok_or("REPL TAIL requires SEQ=<n>")?,
                        epoch: epoch.ok_or("REPL TAIL requires EPOCH=<n>")?,
                        fingerprint: fp.ok_or("REPL TAIL requires FP=<hex>")?,
                    })
                }
                _ => Err("usage: REPL SNAPSHOT | REPL TAIL SEQ=n EPOCH=n FP=hex".into()),
            },
            "ADVANCE" => match rest.as_slice() {
                [secs] => {
                    let s: i64 = num(secs, "seconds")?;
                    if s <= 0 {
                        return Err("ADVANCE needs a positive number of seconds".into());
                    }
                    Ok(Command::Advance(s))
                }
                _ => Err("usage: ADVANCE <secs>".into()),
            },
            "STATUS" | "CANCEL" => match rest.as_slice() {
                [id] => {
                    let id: u64 = num(id, "job id")?;
                    Ok(if verb == "STATUS" {
                        Command::Status(id)
                    } else {
                        Command::Cancel(id)
                    })
                }
                _ => Err(format!("usage: {verb} <job-id>")),
            },
            "SUBMIT" => {
                let (mut nodes, mut wall, mut run, mut user) = (None, None, None, 0u32);
                for tok in &rest {
                    if let Some(v) = parse_kv(tok, "NODES") {
                        nodes = Some(num::<u32>(v, "NODES")?);
                    } else if let Some(v) = parse_kv(tok, "WALL") {
                        wall = Some(num::<i64>(v, "WALL")?);
                    } else if let Some(v) = parse_kv(tok, "RUN") {
                        run = Some(num::<i64>(v, "RUN")?);
                    } else if let Some(v) = parse_kv(tok, "USER") {
                        user = num::<u32>(v, "USER")?;
                    } else {
                        return Err(format!("unknown SUBMIT option {tok:?}"));
                    }
                }
                let nodes = nodes.ok_or("SUBMIT requires NODES=<n>")?;
                let wall_secs = wall.ok_or("SUBMIT requires WALL=<secs>")?;
                if nodes == 0 {
                    return Err("NODES must be positive".into());
                }
                if wall_secs <= 0 || run.is_some_and(|r| r <= 0) {
                    return Err("WALL/RUN must be positive".into());
                }
                Ok(Command::Submit {
                    nodes,
                    wall_secs,
                    run_secs: run,
                    user,
                })
            }
            "WHATIF" => {
                let mut it = rest.iter();
                let job = num::<u64>(it.next().ok_or("usage: WHATIF <job-id> [..]")?, "job id")?;
                let (mut bf, mut window, mut horizon) = (None, None, None);
                for tok in it {
                    if let Some(v) = parse_kv(tok, "BF") {
                        let f: f64 = num(v, "BF")?;
                        if !(0.0..=1.0).contains(&f) {
                            return Err("BF must be in [0,1]".into());
                        }
                        bf = Some(f);
                    } else if let Some(v) = parse_kv(tok, "W") {
                        let w: usize = num(v, "W")?;
                        if w == 0 {
                            return Err("W must be positive".into());
                        }
                        window = Some(w);
                    } else if let Some(v) = parse_kv(tok, "HORIZON") {
                        let h: i64 = num(v, "HORIZON")?;
                        if h <= 0 {
                            return Err("HORIZON must be positive".into());
                        }
                        horizon = Some(h);
                    } else {
                        return Err(format!("unknown WHATIF option {tok:?}"));
                    }
                }
                Ok(Command::WhatIf {
                    job,
                    bf,
                    window,
                    horizon_secs: horizon,
                })
            }
            other => Err(format!("unknown verb {other:?}")),
        }
    }

    /// The canonical text encoding (what the WAL stores). Round-trips
    /// through [`Command::parse`].
    pub fn render(&self) -> String {
        match self {
            Command::Ping => "PING".into(),
            Command::Stats => "STATS".into(),
            Command::Hash => "HASH".into(),
            Command::Role => "ROLE".into(),
            Command::Drain => "DRAIN".into(),
            Command::Shutdown => "SHUTDOWN".into(),
            Command::ReplSnapshot => "REPL SNAPSHOT".into(),
            Command::ReplTail {
                seq,
                epoch,
                fingerprint,
            } => format!("REPL TAIL SEQ={seq} EPOCH={epoch} FP={fingerprint:016x}"),
            Command::Advance(s) => format!("ADVANCE {s}"),
            Command::Status(id) => format!("STATUS {id}"),
            Command::Cancel(id) => format!("CANCEL {id}"),
            Command::Submit {
                nodes,
                wall_secs,
                run_secs,
                user,
            } => {
                let mut s = format!("SUBMIT NODES={nodes} WALL={wall_secs}");
                if let Some(r) = run_secs {
                    s.push_str(&format!(" RUN={r}"));
                }
                if *user != 0 {
                    s.push_str(&format!(" USER={user}"));
                }
                s
            }
            Command::WhatIf {
                job,
                bf,
                window,
                horizon_secs,
            } => {
                let mut s = format!("WHATIF {job}");
                if let Some(f) = bf {
                    s.push_str(&format!(" BF={f}"));
                }
                if let Some(w) = window {
                    s.push_str(&format!(" W={w}"));
                }
                if let Some(h) = horizon_secs {
                    s.push_str(&format!(" HORIZON={h}"));
                }
                s
            }
        }
    }

    /// True for commands that change scheduler state (and therefore get
    /// write-ahead logged when accepted).
    pub fn is_mutating(&self) -> bool {
        matches!(
            self,
            Command::Submit { .. } | Command::Cancel(_) | Command::Advance(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amjs_sim::rng::Xoshiro256;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"PING").unwrap();
        assert_eq!(buf, b"4:PING\n");
        let got = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got, b"PING");
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut buf = Vec::new();
        for payload in ["PING", "STATS", "STATUS 42"] {
            write_frame(&mut buf, payload.as_bytes()).unwrap();
        }
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"PING");
        assert_eq!(read_frame(&mut r).unwrap(), b"STATS");
        assert_eq!(read_frame(&mut r).unwrap(), b"STATUS 42");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    #[test]
    fn interrupted_reads_are_retried() {
        // Yields its bytes one at a time, and fails with `EINTR` once
        // before the byte at `interrupt_at`.
        struct Interrupting {
            bytes: &'static [u8],
            at: usize,
            interrupt_at: usize,
        }
        impl Read for Interrupting {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.at == self.interrupt_at {
                    self.interrupt_at = usize::MAX;
                    return Err(io::ErrorKind::Interrupted.into());
                }
                let Some(&byte) = self.bytes.get(self.at) else {
                    return Ok(0);
                };
                buf[0] = byte;
                self.at += 1;
                Ok(1)
            }
        }
        let frame = b"10:STATUS 420\n";
        // Inside the header, at the payload's first byte, and at the
        // terminator.
        for interrupt_at in [1, 3, frame.len() - 1] {
            let mut r = Interrupting {
                bytes: frame,
                at: 0,
                interrupt_at,
            };
            assert_eq!(
                read_frame(&mut r).unwrap(),
                b"STATUS 420",
                "EINTR at byte {interrupt_at}"
            );
            assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
        }
    }

    #[test]
    fn oversized_declaration_is_refused_without_reading_body() {
        let hdr = format!("{}:", MAX_FRAME + 1);
        match read_frame(&mut hdr.as_bytes()) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_malformed_not_eof() {
        // Ends inside the header.
        assert!(matches!(
            read_frame(&mut &b"12"[..]),
            Err(FrameError::Malformed(_))
        ));
        // Ends inside the payload.
        assert!(matches!(
            read_frame(&mut &b"10:PING"[..]),
            Err(FrameError::Malformed(_))
        ));
        // Missing terminator.
        assert!(matches!(
            read_frame(&mut &b"4:PINGX"[..]),
            Err(FrameError::Malformed(_))
        ));
        // Garbage header byte.
        assert!(matches!(
            read_frame(&mut &b"xx:PING\n"[..]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn parse_rejects_unknown_verbs_and_bad_args() {
        assert!(Command::parse("FROB 1").is_err());
        assert!(Command::parse("").is_err());
        assert!(Command::parse("SUBMIT WALL=60").is_err()); // missing NODES
        assert!(Command::parse("SUBMIT NODES=4").is_err()); // missing WALL
        assert!(Command::parse("SUBMIT NODES=0 WALL=60").is_err());
        assert!(Command::parse("SUBMIT NODES=4 WALL=-5").is_err());
        assert!(Command::parse("STATUS").is_err());
        assert!(Command::parse("STATUS one").is_err());
        assert!(Command::parse("WHATIF 3 BF=1.5").is_err());
        assert!(Command::parse("WHATIF 3 W=0").is_err());
        assert!(Command::parse("ADVANCE 0").is_err());
        assert!(Command::parse("PING extra").is_err());
        assert!(Command::parse("REPL").is_err());
        assert!(Command::parse("REPL FROB").is_err());
        assert!(Command::parse("REPL TAIL SEQ=1 EPOCH=0").is_err()); // missing FP
        assert!(Command::parse("REPL TAIL SEQ=1 EPOCH=0 FP=zz").is_err());
        assert!(Command::parse("ROLE extra").is_err());
    }

    /// Seeded-PRNG property test: render → parse is the identity over
    /// the whole command space.
    #[test]
    fn render_parse_round_trip_property() {
        let mut rng = Xoshiro256::seed_from_u64(0x5EED_EDC0DE);
        for _ in 0..2000 {
            let cmd = random_command(&mut rng);
            let text = cmd.render();
            assert!(text.len() <= MAX_FRAME, "render exceeds MAX_FRAME");
            let back =
                Command::parse(&text).unwrap_or_else(|e| panic!("parse({text:?}) failed: {e}"));
            assert_eq!(back, cmd, "round trip diverged for {text:?}");

            // And the framing layer preserves the bytes.
            let mut buf = Vec::new();
            write_frame(&mut buf, text.as_bytes()).unwrap();
            assert_eq!(read_frame(&mut &buf[..]).unwrap(), text.as_bytes());
        }
    }

    fn random_command(rng: &mut Xoshiro256) -> Command {
        match rng.next_below(13) {
            0 => Command::Ping,
            1 => Command::Stats,
            2 => Command::Hash,
            3 => Command::Drain,
            4 => Command::Shutdown,
            10 => Command::Role,
            11 => Command::ReplSnapshot,
            12 => Command::ReplTail {
                seq: rng.next_raw(),
                epoch: rng.next_raw(),
                fingerprint: rng.next_raw(),
            },
            5 => Command::Advance(rng.next_range_inclusive(1, 1 << 40)),
            6 => Command::Status(rng.next_raw()),
            7 => Command::Cancel(rng.next_raw()),
            8 => Command::Submit {
                nodes: rng.next_range_inclusive(1, u32::MAX as i64) as u32,
                wall_secs: rng.next_range_inclusive(1, 1 << 40),
                run_secs: rng
                    .next_bool(0.5)
                    .then(|| rng.next_range_inclusive(1, 1 << 40)),
                user: rng.next_range_inclusive(0, u32::MAX as i64) as u32,
            },
            _ => Command::WhatIf {
                job: rng.next_raw(),
                bf: rng.next_bool(0.5).then(|| {
                    // Quantize so the rendered decimal is exact.
                    (rng.next_below(101) as f64) / 100.0
                }),
                window: rng
                    .next_bool(0.5)
                    .then(|| rng.next_range_inclusive(1, 64) as usize),
                horizon_secs: rng
                    .next_bool(0.5)
                    .then(|| rng.next_range_inclusive(1, 1 << 40)),
            },
        }
    }

    /// The first word of every backticked span in `text`, when that word
    /// is two or more uppercase ASCII letters and nothing else. A span
    /// opens at a run of backticks and closes at the next run of the same
    /// length (so fenced blocks are spans too).
    fn upper_span_heads(text: &str) -> Vec<&str> {
        let run_len = |s: &str| s.len() - s.trim_start_matches('`').len();
        let mut heads = Vec::new();
        let mut rest = text;
        while let Some(open) = rest.find('`') {
            let n = run_len(&rest[open..]);
            let body = &rest[open + n..];
            let mut from = 0;
            let close = loop {
                let Some(at) = body[from..].find('`').map(|at| from + at) else {
                    return heads;
                };
                let run = run_len(&body[at..]);
                if run == n {
                    break at;
                }
                from = at + run;
            };
            let word = body[..close].split_whitespace().next().unwrap_or("");
            if word.len() >= 2 && word.bytes().all(|b| b.is_ascii_uppercase()) {
                heads.push(word);
            }
            rest = &body[close + n..];
        }
        heads
    }

    /// Reply heads the docs quote beside the request verbs.
    const REPLY_HEADS: &[&str] = &["OK", "ERR", "BUSY", "HB"];

    /// Uppercase words the docs quote that are neither request verbs nor
    /// reply heads, each with the reason.
    const NOT_VERBS: &[(&str, &str)] = &[
        ("BF", "the balance-factor policy parameter"),
        ("TAIL", "the `REPL TAIL` sub-verb"),
    ];

    #[test]
    fn the_docs_name_only_protocol_verbs_that_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let (mut verbs, mut unknown) = (0, Vec::new());
        for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
            for word in upper_span_heads(&text) {
                let is_verb =
                    !matches!(Command::parse(word), Err(e) if e.starts_with("unknown verb"));
                verbs += usize::from(is_verb);
                let listed =
                    REPLY_HEADS.contains(&word) || NOT_VERBS.iter().any(|&(w, _)| w == word);
                if !is_verb && !listed {
                    unknown.push(format!("{doc}: `{word}`"));
                }
            }
        }
        assert!(verbs > 0, "the scan found no request verb at all");
        assert!(
            unknown.is_empty(),
            "neither a request verb `Command::parse` knows nor a reply head:\n{}",
            unknown.join("\n")
        );
    }
}
