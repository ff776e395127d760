//! Chaos and crash-recovery suite for `amjs serve`, driven over real
//! TCP against the real binary. The daemon must stay live through
//! protocol abuse, shed overload with `BUSY` rather than stalling, and
//! — the headline property — restart after SIGKILL into byte-identical
//! state via snapshot + WAL replay, losing no acknowledged submission.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use amjs_serve::{read_frame, FrameError};

mod support;
use support::{observe, tmp_dir, Client, Daemon, SCRIPT};

#[test]
fn daemon_survives_protocol_chaos() {
    let dir = tmp_dir("chaos");
    let mut daemon = Daemon::fresh(&dir, &[]);
    let addr = daemon.addr.clone();

    // 1. Garbage bytes where a length header belongs: ERR, then the
    //    connection is closed (the stream cannot be resynchronized).
    let mut garbage = TcpStream::connect(&addr).unwrap();
    garbage
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    garbage.write_all(b"zzzz\n").unwrap();
    let mut r = BufReader::new(garbage.try_clone().unwrap());
    let reply = String::from_utf8(read_frame(&mut r).unwrap()).unwrap();
    assert!(reply.starts_with("ERR "), "unexpected: {reply}");
    assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));

    // 2. An oversized declared length is refused before the body is read.
    let mut oversized = TcpStream::connect(&addr).unwrap();
    oversized
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    oversized.write_all(b"999999:").unwrap();
    let mut r = BufReader::new(oversized.try_clone().unwrap());
    let reply = String::from_utf8(read_frame(&mut r).unwrap()).unwrap();
    assert!(reply.contains("exceeds limit"), "unexpected: {reply}");

    // 3. A frame truncated mid-payload (client dies mid-request).
    let trunc = TcpStream::connect(&addr).unwrap();
    (&trunc).write_all(b"10:PING").unwrap();
    trunc.shutdown(Shutdown::Write).unwrap();
    drop(trunc);

    // 4. A half-open connection that never says anything.
    drop(TcpStream::connect(&addr).unwrap());

    // 5. An unknown verb is an ERR but keeps the connection usable.
    let mut c = Client::connect(&addr);
    let reply = c.ask("FROB");
    assert!(reply.starts_with("ERR unknown verb"), "unexpected: {reply}");

    // Through all of it the daemon keeps answering and scheduling.
    assert_eq!(c.ask("PING"), "OK PONG");
    assert_eq!(c.ask("SUBMIT NODES=16 WALL=3600"), "OK ID=0");
    assert_eq!(c.ask("ADVANCE 60"), "OK T=60");
    assert_eq!(c.ask("STATUS 0"), "OK RUNNING START=0 END=3600");
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    daemon.wait_clean_exit();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_shed_with_busy() {
    // Connection cap: with --max-conns 1, the first client (proven
    // registered by its PING round-trip) holds the only slot, so the
    // second connection is deterministically shed.
    let dir = tmp_dir("shed-conn");
    let mut daemon = Daemon::fresh(&dir, &["--max-conns", "1"]);
    let mut first = Client::connect(&daemon.addr);
    assert_eq!(first.ask("PING"), "OK PONG");
    let second = TcpStream::connect(&daemon.addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut r = BufReader::new(second);
    let reply = String::from_utf8(read_frame(&mut r).unwrap()).unwrap();
    assert_eq!(reply, "BUSY connection limit");
    assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    assert_eq!(first.ask("PING"), "OK PONG");
    assert_eq!(first.ask("SHUTDOWN"), "OK BYE");
    daemon.wait_clean_exit();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn whatif_overload_is_shed_with_busy() {
    // With --whatif-cap 0 every speculative query sheds; the scheduling
    // path is unaffected.
    let dir = tmp_dir("shed-whatif");
    let mut daemon = Daemon::fresh(&dir, &["--whatif-cap", "0"]);
    let mut c = Client::connect(&daemon.addr);
    assert_eq!(c.ask("SUBMIT NODES=16 WALL=3600"), "OK ID=0");
    assert_eq!(c.ask("WHATIF 0"), "BUSY what-if capacity");
    assert_eq!(c.ask("PING"), "OK PONG");
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    daemon.wait_clean_exit();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_recovery_loses_no_acknowledged_command() {
    // `--snapshot-every 1000` means only the genesis snapshot exists at
    // kill time: recovery must rebuild the entire state by replaying
    // the WAL through the identical apply path.
    let dir = tmp_dir("sigkill");
    let mut daemon = Daemon::fresh(&dir, &["--snapshot-every", "1000"]);
    let mut c = Client::connect(&daemon.addr);
    for cmd in SCRIPT {
        let reply = c.ask(cmd);
        assert!(reply.starts_with("OK "), "{cmd} -> {reply}");
    }
    let reference = observe(&mut c);

    // No DRAIN, no SHUTDOWN, no final snapshot: the process dies with
    // connections open and only the flushed WAL to show for its work.
    daemon.sigkill();

    let mut revived = Daemon::resume(&dir, &["--snapshot-every", "1000"]);
    let mut c = Client::connect(&revived.addr);
    let recovered = observe(&mut c);
    assert_eq!(
        recovered, reference,
        "recovered state diverges from the acknowledged pre-kill state"
    );

    // The revived daemon is fully live: it accepts new work with the
    // job-id counter intact (ids 0-3 were used before the kill).
    assert_eq!(c.ask("SUBMIT NODES=16 WALL=3600"), "OK ID=4");
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    revived.wait_clean_exit();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_then_sigkill_recovery_holds_too() {
    // DRAIN mid-life then SIGKILL: recovery replays to the drained
    // state's schedule (DRAIN itself is connection-plane, not journaled
    // state, so a resumed daemon admits work again — by design).
    let dir = tmp_dir("drain-kill");
    let mut daemon = Daemon::fresh(&dir, &["--snapshot-every", "2"]);
    let mut c = Client::connect(&daemon.addr);
    assert_eq!(c.ask("SUBMIT NODES=32 WALL=7200 RUN=3600"), "OK ID=0");
    assert_eq!(c.ask("ADVANCE 600"), "OK T=600");
    assert_eq!(c.ask("SUBMIT NODES=32 WALL=7200"), "OK ID=1");
    assert_eq!(c.ask("DRAIN"), "OK DRAINING");
    let reply = c.ask("SUBMIT NODES=16 WALL=600");
    assert!(reply.starts_with("ERR draining"), "unexpected: {reply}");
    let reference = observe(&mut c);
    daemon.sigkill();

    // This run crossed the --snapshot-every 2 cadence, so recovery here
    // exercises the snapshot-plus-WAL-tail path rather than pure replay.
    let mut revived = Daemon::resume(&dir, &[]);
    let mut c = Client::connect(&revived.addr);
    assert_eq!(observe(&mut c), reference);
    assert_eq!(c.ask("SUBMIT NODES=16 WALL=600"), "OK ID=2");
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    revived.wait_clean_exit();
    let _ = std::fs::remove_dir_all(&dir);
}
