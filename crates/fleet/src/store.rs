//! Durable sweep progress: the manifest + append-only result journal
//! behind `amjs sweep --resume`.
//!
//! A sweep directory holds two files, both using the workspace snapshot
//! codec conventions (magic, version, FNV-1a checksums, atomic
//! tmp+rename for the manifest):
//!
//! * `sweep.manifest` — a snapshot file whose payload is the grid
//!   fingerprint plus the *full encoded grid* ([`amjs_core::RunSpec`]
//!   list). Resume therefore needs no flags: the manifest alone
//!   reconstructs the sweep.
//! * `sweep.journal` — an append-only record stream, one record per
//!   completed (or degraded) run: a fixed header stamped with the grid
//!   fingerprint, then `[u32 len][record payload][u64 FNV-1a of
//!   payload]` per record. Each record is flushed the moment its run
//!   finishes, so a crash loses at most the runs in flight.
//!
//! A key's last record wins: a degraded run that `--resume` runs again
//! appends a second record for its key, and that one supersedes the
//! first.
//!
//! The reader tolerates a truncated or corrupt tail (the crash case):
//! good records up to that point are kept, the bad tail is truncated
//! away before the journal is reopened for append, and the resumed
//! sweep simply re-runs whatever was lost.

use std::collections::HashMap;
use std::fs;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use amjs_core::{grid_fingerprint, RunSpec};
use amjs_sim::snapshot::{fnv1a, read_snapshot_file, write_snapshot_file, SnapReader, SnapWriter};

use crate::engine::{FleetError, RunRecord};

/// Magic bytes opening a sweep result journal.
pub const SWEEP_JOURNAL_MAGIC: [u8; 8] = *b"AMJSFLT\0";
/// Journal format version this build writes and the only one it reads:
/// a record of another version has another layout.
pub const SWEEP_JOURNAL_VERSION: u32 = 2;
/// Header: magic(8) + version(4) + grid fingerprint(8).
const JOURNAL_HEADER_LEN: usize = 20;

/// Manifest file name inside a sweep directory.
pub const MANIFEST_NAME: &str = "sweep.manifest";
/// Journal file name inside a sweep directory.
pub const JOURNAL_NAME: &str = "sweep.journal";

fn store_err(msg: impl Into<String>) -> FleetError {
    FleetError::Store(msg.into())
}

/// The durable side of a sweep: manifest + open result journal.
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    fingerprint: u64,
    completed: HashMap<String, RunRecord>,
    journal: Mutex<BufWriter<fs::File>>,
}

impl SweepStore {
    /// Start a fresh sweep in `dir`: write the manifest (grid
    /// fingerprint + full encoded grid) and create an empty journal.
    ///
    /// Refuses to overwrite an existing sweep — a directory that
    /// already holds a manifest belongs to `--resume`.
    pub fn create(dir: &Path, specs: &[RunSpec]) -> Result<SweepStore, FleetError> {
        let manifest = dir.join(MANIFEST_NAME);
        if manifest.exists() {
            return Err(store_err(format!(
                "{} already holds a sweep manifest; use --resume to continue it \
                 or point --sweep-dir at a fresh directory",
                dir.display()
            )));
        }
        fs::create_dir_all(dir)
            .map_err(|e| store_err(format!("cannot create {}: {e}", dir.display())))?;

        let fingerprint = grid_fingerprint(specs);
        let mut w = SnapWriter::new();
        w.put_u64(fingerprint);
        w.put_usize(specs.len());
        for spec in specs {
            spec.encode(&mut w);
        }
        write_snapshot_file(&manifest, w.as_bytes())
            .map_err(|e| store_err(format!("cannot write manifest: {e}")))?;

        let journal_path = dir.join(JOURNAL_NAME);
        let mut file = fs::File::create(&journal_path)
            .map_err(|e| store_err(format!("cannot create journal: {e}")))?;
        file.write_all(&SWEEP_JOURNAL_MAGIC)
            .and_then(|_| file.write_all(&SWEEP_JOURNAL_VERSION.to_le_bytes()))
            .and_then(|_| file.write_all(&fingerprint.to_le_bytes()))
            .and_then(|_| file.sync_all())
            .map_err(|e| store_err(format!("cannot write journal header: {e}")))?;

        Ok(SweepStore {
            dir: dir.to_path_buf(),
            fingerprint,
            completed: HashMap::new(),
            journal: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Resume the sweep in `dir`: decode the grid from the manifest,
    /// replay the journal's good prefix into the completed-run table,
    /// truncate any crash-damaged tail, and reopen the journal for
    /// append.
    pub fn resume(dir: &Path) -> Result<(Vec<RunSpec>, SweepStore), FleetError> {
        let manifest = dir.join(MANIFEST_NAME);
        let payload = read_snapshot_file(&manifest)
            .map_err(|e| store_err(format!("cannot read manifest {}: {e}", manifest.display())))?;
        let mut r = SnapReader::new(&payload);
        let parse = |e| store_err(format!("manifest {} is malformed: {e}", manifest.display()));
        let fingerprint = r.get_u64().map_err(parse)?;
        let count = r.get_usize().map_err(parse)?;
        let mut specs = Vec::with_capacity(count);
        for _ in 0..count {
            specs.push(RunSpec::decode(&mut r).map_err(parse)?);
        }
        if grid_fingerprint(&specs) != fingerprint {
            return Err(store_err(format!(
                "manifest {} fingerprint does not match its own grid (corrupt manifest)",
                manifest.display()
            )));
        }

        let journal_path = dir.join(JOURNAL_NAME);
        let (completed, good_len) = read_journal(&journal_path, fingerprint)?;

        let mut file = fs::OpenOptions::new()
            .write(true)
            .open(&journal_path)
            .map_err(|e| store_err(format!("cannot reopen journal: {e}")))?;
        // Drop a crash-truncated tail so the next append starts on a
        // clean record boundary.
        file.set_len(good_len)
            .and_then(|_| file.seek(SeekFrom::End(0)))
            .map_err(|e| store_err(format!("cannot truncate journal tail: {e}")))?;

        Ok((
            specs,
            SweepStore {
                dir: dir.to_path_buf(),
                fingerprint,
                completed,
                journal: Mutex::new(BufWriter::new(file)),
            },
        ))
    }

    /// The sweep directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The grid fingerprint stamped into manifest and journal.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Records recovered from the journal, by run key (the last record
    /// journaled for a key).
    pub fn completed(&self) -> &HashMap<String, RunRecord> {
        &self.completed
    }

    /// Journal one finished run: length-prefixed, checksummed, flushed
    /// immediately so a crash right after still finds it on resume.
    pub fn append(&self, rec: &RunRecord) -> Result<(), FleetError> {
        let mut w = SnapWriter::new();
        rec.encode(&mut w);
        let payload = w.into_bytes();
        let checksum = fnv1a(&payload);

        let mut journal = self.journal.lock().unwrap();
        journal
            .write_all(&(payload.len() as u32).to_le_bytes())
            .and_then(|_| journal.write_all(&payload))
            .and_then(|_| journal.write_all(&checksum.to_le_bytes()))
            .and_then(|_| journal.flush())
            .map_err(|e| store_err(format!("journal append failed: {e}")))
    }
}

/// Read a sweep journal, returning the recovered records and the byte
/// length of the good prefix (everything after it is crash damage to
/// truncate). Header problems are hard errors; record-level damage is
/// tolerated.
fn read_journal(
    path: &Path,
    expected_fingerprint: u64,
) -> Result<(HashMap<String, RunRecord>, u64), FleetError> {
    let content = fs::read(path)
        .map_err(|e| store_err(format!("cannot read journal {}: {e}", path.display())))?;
    if content.len() < JOURNAL_HEADER_LEN {
        return Err(store_err(format!(
            "journal {} is shorter than its header",
            path.display()
        )));
    }
    if content[..8] != SWEEP_JOURNAL_MAGIC {
        return Err(store_err(format!(
            "{} is not a sweep journal (bad magic)",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(content[8..12].try_into().unwrap());
    if version != SWEEP_JOURNAL_VERSION {
        return Err(store_err(format!(
            "journal {} has format version {version}; this build reads only version \
             {SWEEP_JOURNAL_VERSION}",
            path.display()
        )));
    }
    let fingerprint = u64::from_le_bytes(content[12..20].try_into().unwrap());
    if fingerprint != expected_fingerprint {
        return Err(store_err(format!(
            "journal fingerprint {fingerprint:#018x} does not match the manifest \
             ({expected_fingerprint:#018x}); the journal belongs to a different grid"
        )));
    }

    let mut completed = HashMap::new();
    let mut pos = JOURNAL_HEADER_LEN;
    loop {
        let rest = &content[pos..];
        if rest.len() < 4 {
            break; // truncated length prefix
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if rest.len() < 4 + len + 8 {
            break; // truncated payload or checksum
        }
        let payload = &rest[4..4 + len];
        let stored = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().unwrap());
        if fnv1a(payload) != stored {
            break; // corrupt record: drop it and everything after
        }
        let Ok(rec) = RunRecord::decode(&mut SnapReader::new(payload)) else {
            break;
        };
        completed.insert(rec.key.clone(), rec);
        pos += 4 + len + 8;
    }
    Ok((completed, pos as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunStatus;
    use amjs_core::{MachineSpec, PolicyParams, PresetName, WorkloadSource};

    fn spec(key: &str, seed: u64) -> RunSpec {
        RunSpec::new(
            key,
            MachineSpec::Flat { nodes: 64 },
            WorkloadSource::Preset {
                name: PresetName::Small,
                seed,
                load_factor: 1.0,
            },
            PolicyParams::fcfs(),
        )
    }

    fn record(key: &str, status: RunStatus) -> RunRecord {
        RunRecord {
            key: key.to_string(),
            status,
            wall_ms: 42,
            digest: status
                .succeeded()
                .then(|| crate::digest::tests::sample(key)),
            error: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("amjs-fleet-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_then_resume_recovers_records_and_grid() {
        let dir = tmp_dir("roundtrip");
        let specs = vec![spec("a", 1), spec("b", 2), spec("c", 3)];
        let store = SweepStore::create(&dir, &specs).unwrap();
        store.append(&record("a", RunStatus::Ok)).unwrap();
        store.append(&record("c", RunStatus::Failed)).unwrap();
        drop(store);

        let (resumed_specs, resumed) = SweepStore::resume(&dir).unwrap();
        assert_eq!(resumed_specs, specs);
        assert_eq!(resumed.completed().len(), 2);
        assert_eq!(resumed.completed()["a"].status, RunStatus::Ok);
        assert_eq!(resumed.completed()["c"].status, RunStatus::Failed);
        assert!(!resumed.completed().contains_key("b"));

        // Appending after resume keeps the journal readable.
        resumed.append(&record("b", RunStatus::Timeout)).unwrap();
        drop(resumed);
        let (_, again) = SweepStore::resume(&dir).unwrap();
        assert_eq!(again.completed().len(), 3);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_an_existing_sweep() {
        let dir = tmp_dir("exists");
        let specs = vec![spec("a", 1)];
        SweepStore::create(&dir, &specs).unwrap();
        let err = SweepStore::create(&dir, &specs).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_journal_tail_is_dropped_not_fatal() {
        let dir = tmp_dir("truncated");
        let specs = vec![spec("a", 1), spec("b", 2)];
        let store = SweepStore::create(&dir, &specs).unwrap();
        store.append(&record("a", RunStatus::Ok)).unwrap();
        store.append(&record("b", RunStatus::Ok)).unwrap();
        drop(store);

        // Simulate a crash mid-append: chop bytes off the second record.
        let journal = dir.join(JOURNAL_NAME);
        let raw = fs::read(&journal).unwrap();
        fs::write(&journal, &raw[..raw.len() - 5]).unwrap();

        let (_, resumed) = SweepStore::resume(&dir).unwrap();
        assert_eq!(
            resumed.completed().len(),
            1,
            "only the intact record survives"
        );
        assert!(resumed.completed().contains_key("a"));

        // The damaged tail was truncated away: appends land cleanly.
        resumed.append(&record("b", RunStatus::Ok)).unwrap();
        drop(resumed);
        let (_, again) = SweepStore::resume(&dir).unwrap();
        assert_eq!(again.completed().len(), 2);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_checksum_stops_recovery_at_the_damage() {
        let dir = tmp_dir("corrupt");
        let specs = vec![spec("a", 1)];
        let store = SweepStore::create(&dir, &specs).unwrap();
        store.append(&record("a", RunStatus::Ok)).unwrap();
        drop(store);

        let journal = dir.join(JOURNAL_NAME);
        let mut raw = fs::read(&journal).unwrap();
        // Flip a bit inside the record payload (past header + length).
        let idx = JOURNAL_HEADER_LEN + 4 + 2;
        raw[idx] ^= 0x10;
        fs::write(&journal, &raw).unwrap();

        let (_, resumed) = SweepStore::resume(&dir).unwrap();
        assert!(
            resumed.completed().is_empty(),
            "the damaged record is not trusted"
        );

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_from_a_different_grid_is_rejected() {
        let dir = tmp_dir("mismatch");
        let store = SweepStore::create(&dir, &[spec("a", 1)]).unwrap();
        drop(store);

        // Overwrite the manifest with a different grid; the journal's
        // fingerprint no longer matches.
        fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        let other = vec![spec("z", 9)];
        let mut w = SnapWriter::new();
        w.put_u64(grid_fingerprint(&other));
        w.put_usize(other.len());
        other[0].encode(&mut w);
        write_snapshot_file(&dir.join(MANIFEST_NAME), w.as_bytes()).unwrap();

        let err = SweepStore::resume(&dir).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_last_record_for_a_key_wins() {
        let dir = tmp_dir("supersede");
        let specs = vec![spec("a", 1)];
        let store = SweepStore::create(&dir, &specs).unwrap();
        store.append(&record("a", RunStatus::Failed)).unwrap();
        store.append(&record("a", RunStatus::Ok)).unwrap();
        drop(store);

        let (_, resumed) = SweepStore::resume(&dir).unwrap();
        assert_eq!(resumed.completed().len(), 1);
        assert_eq!(resumed.completed()["a"], record("a", RunStatus::Ok));

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_journal_of_another_version_is_refused_by_name() {
        let dir = tmp_dir("version");
        let store = SweepStore::create(&dir, &[spec("a", 1)]).unwrap();
        store.append(&record("a", RunStatus::Ok)).unwrap();
        drop(store);

        // Stamp the header with the retired version 1.
        let journal = dir.join(JOURNAL_NAME);
        let mut raw = fs::read(&journal).unwrap();
        raw[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&journal, &raw).unwrap();

        let err = SweepStore::resume(&dir).unwrap_err().to_string();
        assert!(err.contains("format version 1;"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");

        fs::remove_dir_all(&dir).unwrap();
    }
}
