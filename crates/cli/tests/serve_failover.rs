//! Hot-standby failover suite for `amjs serve`, driven over real TCP
//! against real binaries. A primary/follower pair must survive a
//! SIGKILL of the primary: the follower promotes itself within the
//! lease and answers `HASH`/`STATUS`/`STATS` byte-identically to an
//! uninterrupted reference daemon fed the same script. A stale
//! ex-primary that comes back is fenced by epoch and exits nonzero
//! with the refusal on stderr. (A forged record hash is detected at
//! its WAL sequence by `amjs-serve`'s stepped
//! `injected_divergence_is_reported_at_its_sequence`.)

use std::time::Duration;

mod support;
use support::{observe, tmp_dir, wait_until, Client, Daemon, SCRIPT};

#[test]
fn follower_promotes_after_sigkill_and_matches_an_uninterrupted_daemon() {
    let p_dir = tmp_dir("promo-primary");
    let f_dir = tmp_dir("promo-follower");
    let r_dir = tmp_dir("promo-reference");

    let mut primary = Daemon::fresh(&p_dir, &[]);
    let mut follower = Daemon::follower(&f_dir, &primary.addr);

    // Drive the scripted load through the primary.
    let mut pc = Client::connect(&primary.addr);
    for cmd in SCRIPT {
        let reply = pc.ask(cmd);
        assert!(reply.starts_with("OK "), "{cmd} -> {reply}");
    }

    // The follower serves reads but refuses writes while following.
    let mut fc = Client::connect(&follower.addr);
    let refused = fc.ask("SUBMIT NODES=16 WALL=600");
    assert!(
        refused.starts_with("ERR follower is read-only"),
        "unexpected: {refused}"
    );

    // Replication is asynchronous (post-ACK): wait for convergence
    // before killing the primary, or the comparison would race the tail.
    let p_hash = pc.ask("HASH");
    wait_until(
        "follower to mirror the primary",
        Duration::from_secs(15),
        || fc.ask("HASH") == p_hash,
    );

    // The uninterrupted control group: a daemon that runs the same
    // script and never crashes.
    let mut reference = Daemon::fresh(&r_dir, &[]);
    let mut rc = Client::connect(&reference.addr);
    for cmd in SCRIPT {
        let reply = rc.ask(cmd);
        assert!(reply.starts_with("OK "), "{cmd} -> {reply}");
    }
    let expected = observe(&mut rc);

    // Kill the primary without ceremony; the follower must notice the
    // silence and promote itself within the lease.
    primary.sigkill();
    wait_until("follower promotion", Duration::from_secs(15), || {
        fc.ask("ROLE").starts_with("OK ROLE=primary")
    });
    assert_eq!(fc.ask("ROLE"), "OK ROLE=primary EPOCH=1 FOLLOWERS=0");

    // The promoted follower is byte-identical to the control daemon.
    assert_eq!(
        observe(&mut fc),
        expected,
        "promoted follower diverges from the uninterrupted reference"
    );

    // And it is fully live: it accepts writes with the id counter
    // intact (ids 0-3 were acknowledged before the kill).
    assert_eq!(fc.ask("SUBMIT NODES=16 WALL=3600"), "OK ID=4");
    assert_eq!(fc.ask("SHUTDOWN"), "OK BYE");
    follower.wait_clean_exit();
    assert_eq!(rc.ask("SHUTDOWN"), "OK BYE");
    reference.wait_clean_exit();
    for dir in [p_dir, f_dir, r_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stale_primary_is_fenced_out_of_the_new_epoch() {
    let p_dir = tmp_dir("fence-primary");
    let f_dir = tmp_dir("fence-follower");

    let mut primary = Daemon::fresh(&p_dir, &[]);
    let mut follower = Daemon::follower(&f_dir, &primary.addr);

    let mut pc = Client::connect(&primary.addr);
    assert_eq!(pc.ask("SUBMIT NODES=32 WALL=7200 RUN=3600"), "OK ID=0");
    assert_eq!(pc.ask("ADVANCE 600"), "OK T=600");
    let p_hash = pc.ask("HASH");
    let mut fc = Client::connect(&follower.addr);
    wait_until(
        "follower to mirror the primary",
        Duration::from_secs(15),
        || fc.ask("HASH") == p_hash,
    );

    primary.sigkill();
    wait_until("follower promotion", Duration::from_secs(15), || {
        fc.ask("ROLE").starts_with("OK ROLE=primary")
    });

    // The ex-primary comes back from its own state dir and tries to
    // tail the new epoch-1 primary with its epoch-0 history: the
    // handshake must refuse it, and the process must exit nonzero with
    // a diagnostic that names the stale epoch.
    let (status, err) = Daemon::spawn_expect_exit(&[
        "--serve-addr",
        "127.0.0.1:0",
        "--serve-dir",
        p_dir.to_str().unwrap(),
        "--resume",
        "--follow",
        &follower.addr,
        "--lease-ms",
        "800",
        "--repl-heartbeat-ms",
        "100",
    ]);
    assert!(!status.success(), "stale primary must not keep running");
    assert!(err.contains("FENCED"), "missing fence diagnostic:\n{err}");
    assert!(err.contains("stale epoch 0"), "missing epoch:\n{err}");

    // The promoted follower is unharmed by the fencing attempt.
    assert_eq!(fc.ask("PING"), "OK PONG");
    assert_eq!(fc.ask("SHUTDOWN"), "OK BYE");
    follower.wait_clean_exit();
    for dir in [p_dir, f_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
