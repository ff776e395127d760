//! The command write-ahead log: the daemon's durability spine.
//!
//! Every *accepted* state-mutating command is appended — written to the
//! OS, not synced — before the client sees its `OK`, so an acknowledged
//! submission survives a SIGKILL by construction. Recovery replays the
//! log through the same apply path the live daemon uses: load the
//! newest valid snapshot, then for each later record advance the
//! scheduler clock to the recorded apply time and re-apply the command.
//! Because every apply is deterministic (seeded streams, deterministic
//! event ordering), the recovered state is byte-identical to the
//! pre-crash state as of the last acknowledged command.
//!
//! File format (all integers little-endian):
//!
//! ```text
//! header:  "AMJSWAL2"  fingerprint:u64  epoch:u64
//! record:  len:u32  seq:u64  epoch:u64  time_secs:i64
//!          state_hash:u64  cmd:[u8; len]  check:u64
//! ```
//!
//! Two fields exist for the replication layer (PR 7): `epoch` fences
//! failover generations — a promoted follower starts a new epoch, and
//! records from a stale ex-primary can never mix into a newer log —
//! and `state_hash` is the scheduler digest *after* the command
//! applied, letting both recovery replay and a tailing follower detect
//! divergence at the exact sequence number rather than discovering it
//! later.
//!
//! `check` is FNV-1a over the record's preceding bytes. A torn tail —
//! the partial record a crash mid-write leaves behind — fails the
//! length or checksum test and is dropped; everything before it is
//! intact because records are append-only and written whole. This is
//! written-to-the-OS durability: nothing calls `sync_data`, so a record
//! survives process death (the SIGKILL contract CI proves), not an OS
//! crash or power failure.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use amjs_sim::snapshot::Fnv1a;

const MAGIC: &[u8; 8] = b"AMJSWAL2";
const HEADER_LEN: usize = 24;
const RECORD_OVERHEAD: usize = 44; // len + seq + epoch + time + hash + check

/// One recovered log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic command sequence number (0-based).
    pub seq: u64,
    /// Failover generation the command was accepted in.
    pub epoch: u64,
    /// Simulated time at which the command was applied.
    pub time_secs: i64,
    /// Scheduler state digest *after* the command applied.
    pub state_hash: u64,
    /// The command, in [`crate::proto::Command::render`] canonical text.
    pub cmd: String,
}

/// Why a WAL could not be opened or read.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a WAL file, or header truncated.
    BadHeader,
    /// The file belongs to a different run.
    FingerprintMismatch {
        /// Fingerprint in the file header.
        found: u64,
        /// Fingerprint the caller expected.
        expected: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadHeader => write!(f, "not a wal file (bad header)"),
            WalError::FingerprintMismatch { found, expected } => write!(
                f,
                "wal belongs to a different run \
                 (fingerprint {found:016x}, expected {expected:016x})"
            ),
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

fn record_checksum(
    len: u32,
    seq: u64,
    epoch: u64,
    time_secs: i64,
    state_hash: u64,
    cmd: &[u8],
) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&len.to_le_bytes());
    h.write(&seq.to_le_bytes());
    h.write(&epoch.to_le_bytes());
    h.write(&time_secs.to_le_bytes());
    h.write(&state_hash.to_le_bytes());
    h.write(cmd);
    h.finish()
}

/// Append-only WAL writer. Each [`append`](WalWriter::append) writes
/// one whole record to the OS (unsynced) before returning — the caller
/// may ACK as soon as it returns.
pub struct WalWriter {
    file: File,
    next_seq: u64,
}

impl WalWriter {
    /// Create a fresh WAL at `path` (truncating any existing file) with
    /// the run fingerprint and starting epoch stamped in the header.
    pub fn create(path: &Path, fingerprint: u64, epoch: u64) -> io::Result<WalWriter> {
        Self::create_at(path, fingerprint, epoch, 0)
    }

    /// Create a WAL whose first append will get sequence `next_seq` —
    /// the follower-bootstrap case: state was adopted from a primary
    /// snapshot at `next_seq`, so the local log legitimately starts
    /// mid-sequence (recovery replays from that snapshot).
    pub fn create_at(
        path: &Path,
        fingerprint: u64,
        epoch: u64,
        next_seq: u64,
    ) -> io::Result<WalWriter> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&fingerprint.to_le_bytes())?;
        file.write_all(&epoch.to_le_bytes())?;
        file.flush()?;
        Ok(WalWriter { file, next_seq })
    }

    /// Reopen an existing WAL for appending after recovery. The caller
    /// has already validated the header and replayed `next_seq` records;
    /// writing continues from there. The file is truncated to the end
    /// of the last *valid* record (`valid_len`), amputating any torn
    /// tail so the next append starts on a record boundary.
    pub fn reopen(path: &Path, next_seq: u64, valid_len: u64) -> io::Result<WalWriter> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek_end()?;
        Ok(WalWriter { file, next_seq })
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rewrite the header epoch in place and flush — the promotion
    /// fence. The header epoch is a *floor* on the log's current epoch
    /// ([`WalContents::current_epoch`] takes the max of header and
    /// records), so a promoted follower that crashes before its first
    /// post-promotion append still recovers into the new epoch instead
    /// of regressing into the one it was fenced out of.
    pub fn set_epoch(&mut self, epoch: u64) -> io::Result<()> {
        use std::io::Seek;
        self.file.seek(io::SeekFrom::Start(16))?;
        self.file.write_all(&epoch.to_le_bytes())?;
        self.file.flush()?;
        self.file.seek_end()
    }

    /// Append one record and write it to the OS, unsynced. Returns the
    /// record's sequence number.
    pub fn append(
        &mut self,
        epoch: u64,
        time_secs: i64,
        state_hash: u64,
        cmd: &str,
    ) -> io::Result<u64> {
        let seq = self.next_seq;
        let bytes = cmd.as_bytes();
        let len = bytes.len() as u32;
        let check = record_checksum(len, seq, epoch, time_secs, state_hash, bytes);
        let mut buf = Vec::with_capacity(RECORD_OVERHEAD + bytes.len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&epoch.to_le_bytes());
        buf.extend_from_slice(&time_secs.to_le_bytes());
        buf.extend_from_slice(&state_hash.to_le_bytes());
        buf.extend_from_slice(bytes);
        buf.extend_from_slice(&check.to_le_bytes());
        self.file.write_all(&buf)?;
        self.file.flush()?;
        self.next_seq = seq + 1;
        Ok(seq)
    }
}

trait SeekEnd {
    fn seek_end(&mut self) -> io::Result<()>;
}
impl SeekEnd for File {
    fn seek_end(&mut self) -> io::Result<()> {
        use std::io::Seek;
        self.seek(io::SeekFrom::End(0)).map(|_| ())
    }
}

/// The result of reading a WAL back.
#[derive(Debug)]
pub struct WalContents {
    /// Run fingerprint from the header.
    pub fingerprint: u64,
    /// Epoch the log was created in (records may carry later epochs
    /// after a promotion).
    pub header_epoch: u64,
    /// All intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the intact prefix (header + whole records) —
    /// [`WalWriter::reopen`] truncates to this to drop a torn tail.
    pub valid_len: u64,
    /// True when trailing bytes were dropped (torn tail from a crash
    /// mid-append, or corruption).
    pub torn_tail: bool,
}

impl WalContents {
    /// The newest epoch present: the daemon's current epoch after
    /// recovery (promotions bump record epochs past the header's).
    pub fn current_epoch(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.epoch)
            .max()
            .unwrap_or(self.header_epoch)
            .max(self.header_epoch)
    }
}

/// Read a WAL, tolerating a torn tail: parsing stops at the first
/// incomplete or checksum-failing record and reports everything before
/// it. When `expect_fingerprint` is `Some`, a header mismatch is an
/// error (refuse to replay a foreign log).
pub fn read_wal(path: &Path, expect_fingerprint: Option<u64>) -> Result<WalContents, WalError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < HEADER_LEN || &data[..8] != MAGIC {
        return Err(WalError::BadHeader);
    }
    let fingerprint = u64::from_le_bytes(data[8..16].try_into().unwrap());
    let header_epoch = u64::from_le_bytes(data[16..24].try_into().unwrap());
    if let Some(expected) = expect_fingerprint {
        if fingerprint != expected {
            return Err(WalError::FingerprintMismatch {
                found: fingerprint,
                expected,
            });
        }
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut torn_tail = false;
    while pos < data.len() {
        if data.len() - pos < RECORD_OVERHEAD {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().unwrap());
        let epoch = u64::from_le_bytes(data[pos + 12..pos + 20].try_into().unwrap());
        let time_secs = i64::from_le_bytes(data[pos + 20..pos + 28].try_into().unwrap());
        let state_hash = u64::from_le_bytes(data[pos + 28..pos + 36].try_into().unwrap());
        let body_end = pos + 36 + len;
        if len > crate::proto::MAX_FRAME || body_end + 8 > data.len() {
            torn_tail = true;
            break;
        }
        let cmd_bytes = &data[pos + 36..body_end];
        let check = u64::from_le_bytes(data[body_end..body_end + 8].try_into().unwrap());
        if check != record_checksum(len as u32, seq, epoch, time_secs, state_hash, cmd_bytes) {
            torn_tail = true;
            break;
        }
        let cmd = match std::str::from_utf8(cmd_bytes) {
            Ok(s) => s.to_string(),
            Err(_) => {
                torn_tail = true;
                break;
            }
        };
        records.push(WalRecord {
            seq,
            epoch,
            time_secs,
            state_hash,
            cmd,
        });
        pos = body_end + 8;
    }
    Ok(WalContents {
        fingerprint,
        header_epoch,
        records,
        valid_len: pos as u64,
        torn_tail,
    })
}

#[cfg(test)]
impl WalWriter {
    /// A writer whose every append fails: the handle is read-only.
    pub(crate) fn broken(path: &Path, next_seq: u64) -> WalWriter {
        let file = File::open(path).unwrap();
        WalWriter { file, next_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("amjs-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_read_round_trip() {
        let dir = tmp_dir("rt");
        let path = dir.join("cmd.wal");
        let mut w = WalWriter::create(&path, 0xFEED, 3).unwrap();
        assert_eq!(w.append(3, 10, 0xA1, "SUBMIT NODES=4 WALL=60").unwrap(), 0);
        assert_eq!(w.append(3, 20, 0xA2, "CANCEL 0").unwrap(), 1);
        assert_eq!(w.append(4, 30, 0xA3, "ADVANCE 600").unwrap(), 2);
        drop(w);

        let got = read_wal(&path, Some(0xFEED)).unwrap();
        assert!(!got.torn_tail);
        assert_eq!(got.fingerprint, 0xFEED);
        assert_eq!(got.header_epoch, 3);
        assert_eq!(got.current_epoch(), 4); // the promotion record wins
        assert_eq!(
            got.records,
            vec![
                WalRecord {
                    seq: 0,
                    epoch: 3,
                    time_secs: 10,
                    state_hash: 0xA1,
                    cmd: "SUBMIT NODES=4 WALL=60".into()
                },
                WalRecord {
                    seq: 1,
                    epoch: 3,
                    time_secs: 20,
                    state_hash: 0xA2,
                    cmd: "CANCEL 0".into()
                },
                WalRecord {
                    seq: 2,
                    epoch: 4,
                    time_secs: 30,
                    state_hash: 0xA3,
                    cmd: "ADVANCE 600".into()
                },
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_reopen_resumes() {
        let dir = tmp_dir("torn");
        let path = dir.join("cmd.wal");
        let mut w = WalWriter::create(&path, 7, 0).unwrap();
        w.append(0, 5, 1, "PINGLIKE A").unwrap();
        w.append(0, 6, 2, "PINGLIKE B").unwrap();
        drop(w);

        // Simulate a crash mid-append: append half a record by hand.
        let intact = fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);

        let got = read_wal(&path, Some(7)).unwrap();
        assert!(got.torn_tail);
        assert_eq!(got.records.len(), 2);
        assert_eq!(got.valid_len, intact);

        // Reopen truncates the tail and continues the sequence.
        let mut w = WalWriter::reopen(&path, 2, got.valid_len).unwrap();
        assert_eq!(w.append(0, 7, 3, "PINGLIKE C").unwrap(), 2);
        drop(w);
        let again = read_wal(&path, Some(7)).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.records[2].cmd, "PINGLIKE C");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_truncates_from_there() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("cmd.wal");
        let mut w = WalWriter::create(&path, 1, 0).unwrap();
        w.append(0, 1, 10, "AAA").unwrap();
        w.append(0, 2, 11, "BBB").unwrap();
        drop(w);
        // Flip a byte inside the second record's payload.
        let mut data = fs::read(&path).unwrap();
        let len = data.len();
        data[len - 10] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let got = read_wal(&path, Some(1)).unwrap();
        assert!(got.torn_tail);
        assert_eq!(got.records.len(), 1);
        assert_eq!(got.records[0].cmd, "AAA");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_sequence_creation_for_follower_bootstrap() {
        let dir = tmp_dir("midseq");
        let path = dir.join("cmd.wal");
        let mut w = WalWriter::create_at(&path, 0xC0FFEE, 2, 40).unwrap();
        assert_eq!(w.next_seq(), 40);
        assert_eq!(w.append(2, 100, 5, "ADVANCE 60").unwrap(), 40);
        drop(w);
        let got = read_wal(&path, Some(0xC0FFEE)).unwrap();
        assert_eq!(got.header_epoch, 2);
        assert_eq!(got.records[0].seq, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_epoch_persists_promotion_without_an_append() {
        let dir = tmp_dir("epoch");
        let path = dir.join("cmd.wal");
        let mut w = WalWriter::create(&path, 5, 0).unwrap();
        w.append(0, 1, 0xE1, "ADVANCE 60").unwrap();
        w.set_epoch(1).unwrap();
        // Appends after the in-place header write still land at the end.
        w.append(1, 2, 0xE2, "ADVANCE 60").unwrap();
        drop(w);
        let got = read_wal(&path, Some(5)).unwrap();
        assert!(!got.torn_tail);
        assert_eq!(got.header_epoch, 1);
        assert_eq!(got.current_epoch(), 1);
        assert_eq!(got.records.len(), 2);
        assert_eq!(got.records[1].epoch, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let dir = tmp_dir("foreign");
        let path = dir.join("cmd.wal");
        WalWriter::create(&path, 0xAAAA, 0).unwrap();
        assert!(matches!(
            read_wal(&path, Some(0xBBBB)),
            Err(WalError::FingerprintMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let dir = tmp_dir("notwal");
        let path = dir.join("cmd.wal");
        fs::write(&path, b"hello").unwrap();
        assert!(matches!(read_wal(&path, None), Err(WalError::BadHeader)));
        let _ = fs::remove_dir_all(&dir);
    }
}
