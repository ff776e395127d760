//! Regression tests for the address-binding contract: pointing the
//! daemon's `--metrics-addr` or `--serve-addr` at a port that is
//! already in use (or at a nonsense address) must exit nonzero with a
//! clean `error: --<flag>: cannot bind ...` diagnostic on stderr —
//! never a panic, never a half-started process. The same contract
//! covers a fresh daemon's policy flags, which are validated on that
//! path, every float flag and machine size on every command, a trace
//! file the disk refuses, and the flags the CLI no longer has.

use std::net::TcpListener;
use std::process::Command;

/// Run `amjs` with `args` and return (exit-success, stderr).
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .args(args)
        .output()
        .expect("spawn amjs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn occupied_port() -> (TcpListener, String) {
    let guard = TcpListener::bind("127.0.0.1:0").expect("bind guard port");
    let addr = guard.local_addr().unwrap().to_string();
    (guard, addr)
}

#[test]
fn metrics_addr_in_use_is_a_clean_error() {
    let (_guard, addr) = occupied_port();
    let dir = std::env::temp_dir().join(format!("amjs-bind-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, stderr) = run(&[
        "serve",
        "--serve-addr",
        "127.0.0.1:0",
        "--serve-dir",
        dir.to_str().unwrap(),
        "--metrics-addr",
        &addr,
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!ok, "in-use metrics address must exit nonzero");
    assert!(
        stderr.contains(&format!("error: --metrics-addr: cannot bind {addr}")),
        "expected a clean bind diagnostic, got:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "bind failure must not panic:\n{stderr}"
    );
}

#[test]
fn serve_addr_in_use_is_a_clean_error() {
    let (_guard, addr) = occupied_port();
    let dir = std::env::temp_dir().join(format!("amjs-bind-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, stderr) = run(&[
        "serve",
        "--serve-addr",
        &addr,
        "--serve-dir",
        dir.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!ok, "in-use serve address must exit nonzero");
    assert!(
        stderr.contains(&format!("error: --serve-addr: cannot bind {addr}")),
        "expected a clean bind diagnostic, got:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "bind failure must not panic:\n{stderr}"
    );
}

#[test]
fn unparseable_addresses_are_clean_errors_too() {
    let dir = std::env::temp_dir().join(format!("amjs-bind-junk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (args, flag) in [
        (
            vec![
                "serve",
                "--serve-addr",
                "127.0.0.1:0",
                "--serve-dir",
                dir.to_str().unwrap(),
                "--metrics-addr",
                "not-an-address",
            ],
            "--metrics-addr",
        ),
        (
            vec![
                "serve",
                "--serve-addr",
                "not-an-address",
                "--serve-dir",
                dir.to_str().unwrap(),
            ],
            "--serve-addr",
        ),
    ] {
        let (ok, stderr) = run(&args);
        assert!(!ok, "{flag}: junk address must exit nonzero");
        assert!(
            stderr.contains(&format!("error: {flag}: cannot bind not-an-address")),
            "{flag}: expected a clean diagnostic, got:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} panicked:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_daemon_binds_before_touching_durable_state() {
    // A failed bind must leave the state directory untouched: binding
    // happens before the WAL or genesis snapshot are created, so a
    // retry after freeing the port starts from a genuinely fresh dir.
    let (_guard, addr) = occupied_port();
    let dir = std::env::temp_dir().join(format!("amjs-bind-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, _) = run(&[
        "serve",
        "--serve-addr",
        &addr,
        "--serve-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(!ok);
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "failed bind must not create durable state: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_an_out_of_range_bf_without_panicking() {
    // `PolicyParams::new` asserts its range; the flag must be refused
    // before it gets there, and before any durable state exists.
    for bf in ["1.5", "nan"] {
        let dir = std::env::temp_dir().join(format!("amjs-serve-bf-{bf}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (ok, stderr) = run(&[
            "serve",
            "--serve-addr",
            "127.0.0.1:0",
            "--serve-dir",
            dir.to_str().unwrap(),
            "--bf",
            bf,
        ]);
        assert!(!ok, "--bf {bf} must exit nonzero");
        assert!(
            stderr.starts_with("error: --bf must be in [0,1], got ") && stderr.lines().count() == 1,
            "--bf {bf}: expected a one-line diagnostic, got:\n{stderr}"
        );
        assert!(!dir.exists(), "--bf {bf} left a state directory behind");
    }
}

#[test]
fn non_finite_floats_and_an_empty_flat_machine_are_one_line_errors() {
    // NaN passes every `x <= 0.0` range check and `nan as i64` is 0; a
    // zero-node flat cluster is an assertion in the platform. Each must
    // be refused at the flag, before anything runs: `sweep` before it
    // dispatches (its stderr would gain an `amjs: sweeping` line),
    // `serve` before it binds (the port is taken, and that is not the
    // error) or creates its state directory.
    let (_guard, addr) = occupied_port();
    let dir = std::env::temp_dir().join(format!("amjs-serve-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve = format!("serve --serve-addr {addr} --serve-dir {}", dir.display());
    const FLAT: &str = "--workload small --machine flat";
    for (command, flag, bad) in [
        (format!("simulate {FLAT} --nodes 64"), "--node-mtbf", "nan"),
        (
            format!("simulate {FLAT} --nodes 64 --node-mtbf 100"),
            "--repair-time",
            "nan",
        ),
        (
            format!("simulate {FLAT} --nodes 64 --node-mtbf 100"),
            "--repair-sigma",
            "nan",
        ),
        (
            format!("simulate {FLAT} --nodes 64"),
            "--retry-backoff",
            "nan",
        ),
        (format!("simulate {FLAT} --nodes 64"), "--threshold", "nan"),
        (
            format!("sweep {FLAT} --nodes 64 --bf 1 --window 1"),
            "--threshold",
            "nan",
        ),
        ("workload".to_string(), "--load-factor", "nan"),
        (format!("simulate {FLAT}"), "--nodes", "0"),
        (format!("sweep {FLAT} --bf 1 --window 1"), "--nodes", "0"),
        (format!("{serve} --machine flat"), "--nodes", "0"),
    ] {
        let line = format!("{command} {flag} {bad}");
        let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
            .args(line.split_whitespace())
            .output()
            .expect("spawn amjs");
        assert_eq!(out.status.code(), Some(1), "amjs {line}: {out:?}");
        let want = match bad {
            "nan" => format!("error: {flag}: expected a finite number, got \"nan\"\n"),
            _ => "error: --nodes: a flat machine needs at least 1 node\n".to_string(),
        };
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "amjs {line}");
    }
    assert!(!dir.exists(), "serve left a state directory behind");
}

#[test]
fn removed_flags_are_unknown_flags() {
    // Tests inject link and executor faults on their own side now, the
    // per-user service table left with the unpinned extensions, a
    // batch run or a sweep is re-run rather than checkpointed or
    // resumed, and slow ops are read from the flight recorder. A batch
    // run is observed through its artefacts; the live endpoint belongs
    // to the daemon. A sweep is a plain parallel map: a grid point that
    // panics fails the command, so it has no deadline, no degraded
    // exit to forgive, no progress line and no throughput artefact.
    const SIM: &str = "simulate --workload small --machine flat --nodes 64";
    for (command, flag) in [
        ("serve --repl-fault drop=0.1", "--repl-fault"),
        ("sweep --inject-panic x", "--inject-panic"),
        ("sweep --inject-flaky x", "--inject-flaky"),
        ("sweep --inject-hang x", "--inject-hang"),
        ("sweep --run-retries 2", "--run-retries"),
        ("sweep --run-backoff 1", "--run-backoff"),
        ("sweep --sweep-dir d", "--sweep-dir"),
        ("sweep --resume d", "--resume"),
        ("sweep --stop-after 3", "--stop-after"),
        ("sweep --run-timeout 1", "--run-timeout"),
        ("sweep --keep-going", "--keep-going"),
        ("sweep --heartbeat 5", "--heartbeat"),
        ("sweep --bench-json x", "--bench-json"),
        ("serve --slow-ms 50", "--slow-ms"),
        (&format!("{SIM} --users"), "--users"),
        (
            &format!("{SIM} --snapshot-every 500 --snapshot-dir d"),
            "--snapshot-every",
        ),
        (&format!("{SIM} --snapshot-keep 2"), "--snapshot-keep"),
        (&format!("{SIM} --resume-from d"), "--resume-from"),
        (
            &format!("{SIM} --metrics-addr 127.0.0.1:0"),
            "--metrics-addr",
        ),
        (&format!("{SIM} --metrics-linger 5"), "--metrics-linger"),
        (&format!("{SIM} --heartbeat 5"), "--heartbeat"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
            .args(command.split_whitespace())
            .output()
            .expect("spawn amjs");
        assert_eq!(out.status.code(), Some(1), "amjs {command}: {out:?}");
        let want = format!("error: unknown flag {flag} (try --help)\n");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "amjs {command}");
    }
}

#[test]
fn a_trace_the_disk_refuses_is_a_clean_error() {
    // A full disk truncates the trace: the run must say so and fail,
    // like every other output file, not panic or report success.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .args("simulate --workload small --machine flat --nodes 1024 --quiet".split(' '))
        .args(["--trace", "/dev/full"])
        .output()
        .expect("spawn amjs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --trace: cannot write /dev/full after "),
        "expected a clean write diagnostic, got:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn replay_is_an_unknown_command() {
    // There is no `replay`: an SWF trace runs as `simulate --workload`.
    let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .args(["replay", "x.swf"])
        .output()
        .expect("spawn amjs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.lines().next(),
        Some("error: unknown command \"replay\""),
        "{stderr}"
    );
}

#[test]
fn replay_of_an_event_journal_is_a_one_line_error() {
    // `--workload` takes SWF traces only; a file in the retired
    // event-journal format (magic, version, fingerprint, start index,
    // then 24-byte records) is an unreadable trace, not a crash.
    let path = std::env::temp_dir().join(format!("amjs-journal-{}.jrnl", std::process::id()));
    let mut journal = b"AMJSJRN\0".to_vec();
    journal.extend_from_slice(&1u32.to_le_bytes());
    journal.extend_from_slice(&0x9e37_79b9_7f4a_7c15u64.to_le_bytes());
    journal.extend_from_slice(&0u64.to_le_bytes());
    for i in 0..3u64 {
        journal.extend_from_slice(&i.to_le_bytes());
        journal.extend_from_slice(&(60 * i as i64).to_le_bytes());
        journal.extend_from_slice(&(i ^ 0xfeed_f00d_dead_beef).to_le_bytes());
    }
    std::fs::write(&path, &journal).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .arg("simulate")
        .arg("--workload")
        .arg(&path)
        .output()
        .expect("spawn amjs");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
