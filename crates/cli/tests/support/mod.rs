//! What the process-level `amjs serve` suites share: a daemon child
//! with its announced address and captured stderr, a framed client,
//! the scripted load and the replies that fingerprint visible state.
//! Each suite uses a subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use amjs_serve::{read_frame, write_frame};

pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amjs-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `amjs serve` child, the address it announced, and a
/// channel carrying the rest of its stderr (for post-mortem asserts).
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr_rx: mpsc::Receiver<String>,
}

impl Daemon {
    /// Spawn `amjs serve <args>` and wait for the listener announcement
    /// on stderr; the other stderr lines are collected for
    /// [`Daemon::wait_exit`].
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_amjs"))
            .arg("serve")
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn amjs serve");
        let stderr = child.stderr.take().unwrap();
        let mut lines = BufReader::new(stderr).lines();
        let (tx, stderr_rx) = mpsc::channel();
        let mut addr = None;
        for line in &mut lines {
            let line = line.expect("daemon stderr");
            if let Some(rest) = line.strip_prefix("amjs serve: listening on ") {
                addr = Some(rest.trim().to_string());
                break;
            }
            let _ = tx.send(line);
        }
        // Keep draining stderr so the daemon never blocks on the pipe.
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        Daemon {
            child,
            addr: addr.expect("daemon announced its listener"),
            stderr_rx,
        }
    }

    /// Run a daemon that may die before announcing a listener (e.g. a
    /// fenced stale primary); returns `(status, stderr)` after exit.
    pub fn spawn_expect_exit(args: &[&str]) -> (ExitStatus, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
            .arg("serve")
            .args(args)
            .stdout(Stdio::null())
            .output()
            .expect("spawn amjs serve");
        (
            out.status,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }

    /// `amjs serve` on an ephemeral port over `dir`.
    fn over(dir: &Path, flags: &[&str], extra: &[&str]) -> Daemon {
        let dir = dir.to_str().unwrap();
        let mut args = vec!["--serve-addr", "127.0.0.1:0", "--serve-dir", dir];
        args.extend_from_slice(flags);
        args.extend_from_slice(extra);
        Daemon::spawn(&args)
    }

    /// A fresh start needs the machine shape; `--resume` must not
    /// repeat it.
    pub fn fresh(dir: &Path, extra: &[&str]) -> Daemon {
        let shape = ["--machine", "flat", "--nodes", "64", "--clock", "virtual"];
        Daemon::over(dir, &shape, extra)
    }

    pub fn resume(dir: &Path, extra: &[&str]) -> Daemon {
        Daemon::over(dir, &["--resume", "--clock", "virtual"], extra)
    }

    /// A fresh hot standby of `primary` with a short promotion lease
    /// (the machine shape rides in the bootstrap snapshot, so no
    /// `--machine` flags are allowed here).
    pub fn follower(dir: &Path, primary: &str) -> Daemon {
        let pace = ["--lease-ms", "800", "--repl-heartbeat-ms", "100"];
        Daemon::over(dir, &["--follow", primary], &pace)
    }

    pub fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL daemon");
        self.child.wait().expect("reap daemon");
    }

    pub fn wait_clean_exit(&mut self) {
        let status = self.child.wait().expect("reap daemon");
        assert!(status.success(), "daemon exited {status}");
    }

    /// Wait for the process to exit and return `(status, stderr)`.
    pub fn wait_exit(&mut self) -> (ExitStatus, String) {
        let status = self.child.wait().expect("reap daemon");
        let mut err = String::new();
        while let Ok(line) = self.stderr_rx.recv_timeout(Duration::from_secs(5)) {
            err.push_str(&line);
            err.push('\n');
        }
        (status, err)
    }
}

/// A test that panics, or ends with its daemon still up, must not
/// leave `amjs serve` running: kill and reap a child not yet reaped.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    pub fn ask(&mut self, cmd: &str) -> String {
        write_frame(&mut self.writer, cmd.as_bytes()).expect("send frame");
        self.read_reply()
    }

    pub fn read_reply(&mut self) -> String {
        let payload = read_frame(&mut self.reader).expect("read reply frame");
        String::from_utf8(payload).expect("utf-8 reply")
    }
}

/// Poll `probe` until it returns true or the deadline passes.
pub fn wait_until(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
    let begin = Instant::now();
    while begin.elapsed() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

/// The scripted load the crash-recovery and failover suites (and their
/// CI twins) run: three 32-node jobs on the 64-node machine (two
/// start, one queues), a clock step, a small backfill candidate, a
/// cancel, another step. Every command is acknowledged before the next
/// is sent.
pub const SCRIPT: &[&str] = &[
    "SUBMIT NODES=32 WALL=7200 RUN=3600 USER=1",
    "SUBMIT NODES=32 WALL=7200 RUN=3600 USER=2",
    "SUBMIT NODES=32 WALL=7200 USER=3",
    "ADVANCE 1800",
    "SUBMIT NODES=16 WALL=3600 RUN=1800 USER=4",
    "CANCEL 2",
    "ADVANCE 1800",
];

/// Replies that together fingerprint the daemon's externally visible
/// state: the structural hash, every job's status and the stats row.
/// None of them mention role or epoch, so a promoted follower must
/// answer byte-identically to a daemon that never failed over.
pub fn observe(c: &mut Client) -> Vec<String> {
    let mut seen = vec![c.ask("HASH")];
    for id in 0..5 {
        seen.push(c.ask(&format!("STATUS {id}")));
    }
    seen.push(c.ask("STATS"));
    seen
}
