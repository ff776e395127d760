//! End-to-end postmortem suite: run the real `amjs serve` binary, kill
//! it (or let it say goodbye), then run the real `amjs doctor` on the
//! state directory and check the story it tells — last acknowledged
//! sequence, clean-vs-crash verdict, recovery plan, and the flight
//! recorder tail.

use std::path::Path;
use std::process::Command;

use amjs_obs::json;

mod support;
use support::{tmp_dir, Client, Daemon};

/// Run `amjs doctor` on a state directory and return its stdout.
fn doctor(dir: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .arg("doctor")
        .arg(dir)
        .args(extra)
        .output()
        .expect("run amjs doctor");
    assert!(
        out.status.success(),
        "doctor failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 doctor output")
}

#[test]
fn doctor_diagnoses_a_sigkilled_daemon() {
    // Only the genesis snapshot exists at kill time, so the correct
    // recovery plan is "replay everything" — the doctor must say so and
    // must report the exact last acknowledged sequence.
    let dir = tmp_dir("sigkill");
    let mut daemon = Daemon::fresh(&dir, &["--snapshot-every", "1000"]);
    let mut c = Client::connect(&daemon.addr);
    assert_eq!(c.ask("SUBMIT NODES=32 WALL=7200 RUN=3600"), "OK ID=0");
    assert_eq!(c.ask("SUBMIT NODES=32 WALL=7200"), "OK ID=1");
    assert_eq!(c.ask("ADVANCE 600"), "OK T=600");
    daemon.sigkill();

    let text = doctor(&dir, &[]);
    assert!(text.contains("last applied seq  2"), "{text}");
    assert!(text.contains("UNCLEAN EXIT"), "{text}");
    assert!(text.contains("replay 3 journal record(s)"), "{text}");
    // SIGKILL gave the recorder no chance to flush: the doctor says so
    // instead of inventing a tail.
    assert!(text.contains("absent"), "{text}");
    // Genesis laid one frame, and the genesis head counts on all of it.
    assert!(
        text.contains("1 frame(s); the newest head counts"),
        "{text}"
    );
    assert!(!text.contains("frame past the newest head"), "{text}");

    // Machine-readable mode agrees, field for field.
    let parsed = json::parse(doctor(&dir, &["--json"]).trim()).expect("doctor --json parses");
    let wal = parsed.get("wal").expect("wal object");
    assert_eq!(wal.get("last_seq").and_then(json::Json::as_u64), Some(2));
    assert_eq!(
        wal.get("torn_tail").and_then(json::Json::as_bool),
        Some(false)
    );
    let recovery = parsed.get("recovery").expect("recovery object");
    assert_eq!(
        recovery.get("clean_shutdown").and_then(json::Json::as_bool),
        Some(false)
    );
    assert_eq!(
        recovery.get("replay_records").and_then(json::Json::as_u64),
        Some(3)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_reads_the_flightrec_tail_after_a_clean_shutdown() {
    // A graceful SHUTDOWN flushes the flight recorder and writes a
    // final snapshot: the doctor should report a clean exit and show
    // the request/shed events in its timeline.
    let dir = tmp_dir("clean");
    let mut daemon = Daemon::fresh(&dir, &["--flightrec", "64", "--whatif-cap", "0"]);
    let mut c = Client::connect(&daemon.addr);
    assert_eq!(c.ask("SUBMIT NODES=16 WALL=3600"), "OK ID=0");
    assert_eq!(c.ask("WHATIF 0"), "BUSY what-if capacity");
    assert_eq!(c.ask("ADVANCE 60"), "OK T=60");
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    daemon.wait_clean_exit();

    let text = doctor(&dir, &[]);
    assert!(text.contains("CLEAN SHUTDOWN"), "{text}");
    assert!(text.contains("last applied seq  1"), "{text}");
    assert!(text.contains("event(s) retained"), "{text}");
    assert!(text.contains("SUBMIT -> OK"), "{text}");
    assert!(text.contains("shed window"), "{text}");
    assert!(text.contains("whatif-cap x1"), "{text}");
    assert!(text.contains("slowest recorded ops:"), "{text}");

    let parsed = json::parse(doctor(&dir, &["--json"]).trim()).expect("doctor --json parses");
    let recovery = parsed.get("recovery").expect("recovery object");
    assert_eq!(
        recovery.get("clean_shutdown").and_then(json::Json::as_bool),
        Some(true)
    );
    let fr = parsed.get("flightrec").expect("flightrec object");
    assert!(fr.get("events").and_then(json::Json::as_u64).unwrap_or(0) >= 3);
    assert_eq!(fr.get("panics").and_then(json::Json::as_u64), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_explains_what_a_crash_left_in_the_column_log() {
    // Six mutations at a cadence of two and a clean goodbye: heads at
    // 0, 2, 4 and 6, the last one written twice (rotation, then final).
    let dir = tmp_dir("column-log");
    let mut daemon = Daemon::fresh(&dir, &["--snapshot-every", "2"]);
    let mut c = Client::connect(&daemon.addr);
    for user in 0..5 {
        let submit = format!("SUBMIT NODES=8 WALL=3600 USER={user}");
        assert!(c.ask(&submit).starts_with("OK ID="));
    }
    assert_eq!(c.ask("ADVANCE 60"), "OK T=60");
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    daemon.wait_clean_exit();
    let text = doctor(&dir, &[]);
    assert!(text.contains("CLEAN SHUTDOWN"), "{text}");
    assert!(
        text.contains("5 frame(s); the newest head counts"),
        "{text}"
    );

    // What a kill between the log append and the head's rename leaves —
    // the seq-6 frames with no head — and, behind them, half an append.
    std::fs::remove_file(dir.join("snapshot-000000000006.snap")).unwrap();
    let log_path = dir.join("columns.log");
    let mut log = std::fs::read(&log_path).unwrap();
    log.extend_from_slice(b"half a frame");
    std::fs::write(&log_path, &log).unwrap();

    let text = doctor(&dir, &[]);
    assert!(text.contains("UNCLEAN EXIT"), "{text}");
    assert!(text.contains("frame past the newest head: 2"), "{text}");
    assert!(
        text.contains("between log append and head rename"),
        "{text}"
    );
    assert!(text.contains("torn log tail     12 bytes"), "{text}");
    assert!(
        text.contains("load the seq-4 snapshot and replay 2"),
        "{text}"
    );
    let parsed = json::parse(doctor(&dir, &["--json"]).trim()).expect("doctor --json parses");
    let log = parsed.get("column_log").expect("column_log object");
    let field = |name: &str| log.get(name).and_then(json::Json::as_u64);
    assert_eq!(
        (field("frames"), field("uncovered_frames")),
        (Some(5), Some(2))
    );
    assert_eq!(field("bytes"), field("intact_bytes").map(|b| b + 12));

    // A head whose own frame is damaged is a head recovery will not
    // take: the plan names the one before.
    let intact = field("intact_bytes").unwrap() as usize;
    let covered = field("newest_head_covers").unwrap() as usize;
    assert!(covered < intact);
    log_flip(&log_path, covered - 12);
    let text = doctor(&dir, &[]);
    assert!(text.contains("DAMAGED PREFIX"), "{text}");
    assert!(
        text.contains("load the seq-2 snapshot and replay 4"),
        "{text}"
    );

    // And recovery does what the doctor said it would.
    let mut revived = Daemon::resume(&dir, &[]);
    let mut c = Client::connect(&revived.addr);
    assert!(c.ask("STATS").contains("T=60"));
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    let (status, stderr) = revived.wait_exit();
    assert!(status.success(), "{stderr}");
    assert!(stderr.contains("rejecting snapshot"), "{stderr}");
    assert!(
        stderr.contains("000000000002.snap (command seq 2)"),
        "{stderr}"
    );
    assert!(stderr.contains("replayed 4 wal records"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_and_recovery_agree_when_every_head_is_damaged() {
    // A stopped daemon with heads at 0, 2 and 4, each then damaged
    // mid-file: no head reads, so recovery has nothing to load.
    let dir = tmp_dir("all-heads-damaged");
    let mut daemon = Daemon::fresh(&dir, &["--snapshot-every", "2"]);
    let mut c = Client::connect(&daemon.addr);
    for _ in 0..4 {
        assert!(c.ask("SUBMIT NODES=8 WALL=3600").starts_with("OK ID="));
    }
    assert_eq!(c.ask("SHUTDOWN"), "OK BYE");
    daemon.wait_clean_exit();
    let mut heads: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".snap"))
        .collect();
    heads.sort();
    assert_eq!(heads.len(), 3, "{heads:?}");
    for head in &heads {
        let path = dir.join(head);
        log_flip(&path, std::fs::metadata(&path).unwrap().len() as usize / 2);
    }

    // The doctor names each rejection and says recovery will refuse.
    let text = doctor(&dir, &[]);
    for head in &heads {
        assert!(
            text.contains(&format!("rejected          {head}: checksum mismatch")),
            "{text}"
        );
    }
    assert!(!text.contains("load nothing"), "{text}");
    assert!(
        text.contains("UNRECOVERABLE — recovery will refuse to start: all 3 snapshot head(s)"),
        "{text}"
    );
    let parsed = json::parse(doctor(&dir, &["--json"]).trim()).expect("doctor --json parses");
    let recovery = parsed.get("recovery").expect("recovery object");
    assert!(recovery.get("refused").is_some(), "{recovery:?}");
    assert!(recovery.get("replay_records").is_none(), "{recovery:?}");
    let Some(json::Json::Arr(snaps)) = parsed.get("snapshots") else {
        panic!("snapshots array");
    };
    assert!(
        snaps.iter().all(|s| s.get("rejected").is_some()),
        "{snaps:?}"
    );

    // And recovery does refuse.
    let (status, stderr) =
        Daemon::spawn_expect_exit(&["--serve-dir", dir.to_str().unwrap(), "--resume"]);
    assert!(!status.success(), "{stderr}");
    assert!(
        stderr.contains("every candidate snapshot failed verification"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one bit of the file at `path`.
fn log_flip(path: &Path, at: usize) {
    let mut raw = std::fs::read(path).unwrap();
    raw[at] ^= 0x10;
    std::fs::write(path, raw).unwrap();
}
