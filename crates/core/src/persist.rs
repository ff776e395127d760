//! Durable run state: snapshots, write-ahead journal, crash recovery,
//! and deterministic replay.
//!
//! Everything in a simulation is a pure function of `(configuration,
//! seed)`, so the whole run state — platform occupancy, runner
//! bookkeeping, RNG cursors, and the pending event queue — can be
//! captured at any event boundary and re-driven to a byte-identical
//! [`SimulationOutcome`]. This module wires the `amjs-sim` persistence
//! substrate ([`Snapshot`], [`SnapshotStore`], the event journal) onto
//! the concrete runner:
//!
//! * [`SimulationBuilder::run_persistent`] runs like
//!   [`SimulationBuilder::run`] but writes a *genesis* snapshot before
//!   the first event, appends one journal record (event index, sim
//!   time, world-state hash) after every event, and snapshots
//!   world + queue every N events and/or every simulated interval;
//! * [`resume_simulation`] loads a snapshot (falling back past corrupt
//!   files with a diagnostic), reconstructs the world and queue, and
//!   drives the run to completion — the outcome is byte-identical to
//!   the uninterrupted run because snapshots are *self-contained*: no
//!   workload or policy flags are consulted on resume;
//! * [`replay_journal`] re-executes a run from the newest snapshot at
//!   or before a journal segment's first record and verifies every
//!   recorded hash, pinpointing the exact event index of the first
//!   divergence (nondeterminism, corruption, or a semantics-changing
//!   code edit).
//!
//! ## Snapshot payload layout
//!
//! The file envelope (magic, version, checksum, atomic rename) is
//! [`amjs_sim::snapshot`]'s. The run state is split by growth (format
//! v4): a *head* of three tagged, length-prefixed sections — META (run
//! fingerprint, event index, sim time, platform name tag, run-level
//! facts), WORLD (every bounded field of the runner, and the length of
//! each append-only vector) and QUEUE (the pending event queue) — and
//! COLUMNS *frames* holding those vectors' elements, each frame from
//! where the one before stopped. A payload is the frames, oldest first,
//! then the head that counts them; a batch snapshot is self-contained,
//! one frame from zero. The platform name tag lets
//! [`resume_simulation`] dispatch to the right concrete machine type
//! without the caller restating it.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use amjs_obs::Observer;
use amjs_platform::{BgpCluster, FlatCluster, Platform};
use amjs_sim::journal::{journal_path, read_journal, JournalFile};
use amjs_sim::snapshot::{read_snapshot_file, Fnv1a};
use amjs_sim::{
    ColumnReader, ColumnWriter, Columns, Engine, EventQueue, JournalRecord, JournalWriter,
    NoOracle, Recorder, RunStats, SimDuration, SimTime, SnapError, SnapReader, SnapWriter,
    Snapshot, SnapshotStore, StateHash,
};

use crate::runner::{
    finish_run, Ev, InvariantOracle, PreparedRun, Runner, SimulationBuilder, SimulationOutcome,
};
use crate::state::RunMeta;

/// Section tag for run metadata inside a snapshot payload.
const SEC_META: u32 = 1;
/// Section tag for the serialized world (runner) state.
const SEC_WORLD: u32 = 2;
/// Section tag for the pending event queue.
const SEC_QUEUE: u32 = 3;
/// Section tag for a frame of column elements (4 is `crate::live`'s).
const SEC_COLUMNS: u32 = 5;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a persistent run, resume, or replay failed.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// A snapshot or journal failed to decode (corruption, truncation,
    /// wrong format).
    Snap(SnapError),
    /// The pieces do not fit together (journal from a different run,
    /// unknown platform tag, missing cadence, ...).
    Config(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Snap(e) => write!(f, "{e}"),
            PersistError::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<SnapError> for PersistError {
    fn from(e: SnapError) -> Self {
        PersistError::Snap(e)
    }
}

// ---------------------------------------------------------------------------
// Persistence spec
// ---------------------------------------------------------------------------

/// Where and how often a persistent run checkpoints itself.
#[derive(Clone, Debug)]
pub struct PersistSpec {
    /// Directory for snapshots and journal segments.
    pub dir: PathBuf,
    /// Snapshot every N handled events (`None` = no event cadence).
    pub every_events: Option<u64>,
    /// Snapshot every simulated interval (`None` = no time cadence).
    pub every_sim: Option<SimDuration>,
    /// Rotation: keep the genesis snapshot plus this many most-recent
    /// ones (minimum 1).
    pub keep: usize,
}

impl PersistSpec {
    /// A spec writing into `dir` with the default rotation (keep 2) and
    /// no cadence yet — set at least one of
    /// [`PersistSpec::snapshot_every_events`] /
    /// [`PersistSpec::snapshot_every_sim`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistSpec {
            dir: dir.into(),
            every_events: None,
            every_sim: None,
            keep: 2,
        }
    }

    /// Snapshot every `n` handled events.
    ///
    /// # Panics
    /// Panics on `n == 0` — "snapshot after every zero events" is
    /// meaningless; the CLI rejects it before getting here.
    pub fn snapshot_every_events(mut self, n: u64) -> Self {
        assert!(n > 0, "snapshot cadence must be at least one event");
        self.every_events = Some(n);
        self
    }

    /// Snapshot every simulated `interval`.
    ///
    /// # Panics
    /// Panics on a non-positive interval.
    pub fn snapshot_every_sim(mut self, interval: SimDuration) -> Self {
        assert!(interval.as_secs() > 0, "snapshot interval must be positive");
        self.every_sim = Some(interval);
        self
    }

    /// How many recent snapshots to retain besides genesis.
    pub fn keep(mut self, k: usize) -> Self {
        self.keep = k.max(1);
        self
    }
}

// ---------------------------------------------------------------------------
// Snapshot payload: encode / decode
// ---------------------------------------------------------------------------

/// The META section: everything needed to interpret the WORLD/QUEUE
/// sections and to finish the run identically.
pub(crate) struct SnapshotHeader {
    /// Run fingerprint (FNV-1a over the genesis state), shared with the
    /// journal headers of the same run.
    pub(crate) fingerprint: u64,
    /// The state captured here is "after this many events".
    pub(crate) event_index: u64,
    /// Simulated time of the last handled event (epoch at genesis).
    pub(crate) time: SimTime,
    /// Platform name tag (`"flat"`, `"bgp"`), for typed dispatch.
    pub(crate) platform: String,
    /// Run-level facts (label, oracle, energy model, ...).
    pub(crate) meta: RunMeta,
}

/// Write the run state split by growth: the META, WORLD and QUEUE
/// sections to `w`'s head, the column elements past its cursor to its
/// frame.
pub(crate) fn encode_state<P: Platform + Snapshot>(
    world: &Runner<P>,
    queue: &EventQueue<Ev>,
    fingerprint: u64,
    event_index: u64,
    time: SimTime,
    meta: &RunMeta,
    w: &mut ColumnWriter<'_>,
) {
    w.head.section(SEC_META, |w| {
        w.put_u64(fingerprint);
        w.put_u64(event_index);
        time.encode(w);
        w.put_str(world.live.platform_name());
        meta.encode(w);
    });
    let world_section = w.head.begin_section(SEC_WORLD);
    world.encode_columns(w);
    w.head.end_section(world_section);
    w.head.section(SEC_QUEUE, |w| queue.encode(w));
}

/// A self-contained payload: `write` encodes from cursor zero, and the
/// one frame goes in front of the head — written in place, it is the
/// megabyte; the head is the few KB copied behind it.
pub(crate) fn full_payload(write: impl FnOnce(&mut ColumnWriter<'_>)) -> Vec<u8> {
    let (mut head, mut payload) = (SnapWriter::new(), SnapWriter::new());
    let since = Columns::default();
    payload.section(SEC_COLUMNS, |frame| {
        write(&mut ColumnWriter::new(&mut head, frame, &since))
    });
    let mut payload = payload.into_bytes();
    payload.extend_from_slice(head.as_bytes());
    payload
}

/// A payload's leading frames, and the head behind them.
pub(crate) fn split_payload(payload: &[u8]) -> Result<(Vec<&[u8]>, &[u8]), SnapError> {
    let mut r = SnapReader::new(payload);
    let mut frames = Vec::new();
    while let Some(frame) = r.section_if(SEC_COLUMNS)? {
        frames.push(frame);
    }
    Ok((frames, r.rest()))
}

fn decode_header_section(r: &mut SnapReader<'_>) -> Result<SnapshotHeader, SnapError> {
    r.section(SEC_META, |r| {
        Ok(SnapshotHeader {
            fingerprint: r.get_u64()?,
            event_index: r.get_u64()?,
            time: Snapshot::decode(r)?,
            platform: r.get_str()?,
            meta: Snapshot::decode(r)?,
        })
    })
}

/// Read just the META section of a snapshot payload (cheap: frames are
/// stepped over, the WORLD and QUEUE sections not touched).
pub(crate) fn peek_header(payload: &[u8]) -> Result<SnapshotHeader, SnapError> {
    let (_, head) = split_payload(payload)?;
    decode_header_section(&mut SnapReader::new(head))
}

/// Decode a full snapshot payload for a known platform type.
pub(crate) fn decode_state<P: Platform + Snapshot>(
    payload: &[u8],
) -> Result<(SnapshotHeader, Runner<P>, EventQueue<Ev>), SnapError> {
    let (frames, head) = split_payload(payload)?;
    let (header, world, queue, _) = decode_state_from(&mut SnapReader::new(head), &frames)?;
    Ok((header, world, queue))
}

/// Decode a head's META, WORLD and QUEUE sections from `r`, the columns
/// from `frames`, and leave `r` positioned after the QUEUE section —
/// the live-mode codec appends its own trailing section
/// (`crate::live`). Also returns the cursor of the decoded state.
pub(crate) fn decode_state_from<P: Platform + Snapshot>(
    r: &mut SnapReader<'_>,
    frames: &[&[u8]],
) -> Result<(SnapshotHeader, Runner<P>, EventQueue<Ev>, Columns), SnapError> {
    let header = decode_header_section(r)?;
    let mut columns = ColumnReader::new(r.section_bytes(SEC_WORLD)?, frames);
    let world = Runner::<P>::decode_columns(&mut columns)?;
    let columns = columns.finish()?;
    let queue = r.section(SEC_QUEUE, EventQueue::<Ev>::decode)?;
    Ok((header, world, queue, columns))
}

/// The run fingerprint: FNV-1a over the *genesis* state (world, queue,
/// meta). Stamped into every snapshot META and journal header of the
/// run, so replay can refuse to verify a journal against snapshots of a
/// different run.
pub(crate) fn run_fingerprint<P: Platform + Snapshot>(
    world: &Runner<P>,
    queue: &EventQueue<Ev>,
    meta: &RunMeta,
) -> u64 {
    let (mut head, mut frame) = (SnapWriter::new(), SnapWriter::new());
    let since = Columns::default();
    world.encode_columns(&mut ColumnWriter::new(&mut head, &mut frame, &since));
    queue.encode(&mut head);
    meta.encode(&mut head);
    let mut h = Fnv1a::new();
    h.write(frame.as_bytes());
    h.write(head.as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// The persistent recorder
// ---------------------------------------------------------------------------

/// Journals every event and snapshots on cadence. Persistence I/O
/// failures panic with the failing path — a checkpointing run that can
/// no longer checkpoint must not silently continue as a normal run.
struct PersistentRecorder<'m> {
    store: SnapshotStore,
    journal: JournalWriter,
    fingerprint: u64,
    meta: &'m RunMeta,
    every_events: Option<u64>,
    every_sim: Option<SimDuration>,
    /// Event index of the newest snapshot ("state after N events").
    last_snap_event: u64,
    /// Sim time at the newest snapshot.
    last_snap_time: SimTime,
}

impl<'m, P: Platform + Snapshot> Recorder<Runner<P>> for PersistentRecorder<'m> {
    fn after_event(
        &mut self,
        world: &Runner<P>,
        queue: &EventQueue<Ev>,
        now: SimTime,
        event_index: u64,
    ) {
        let span = world.obs.prof_enter("state_hash");
        let world_hash = world.state_hash();
        world.obs.prof_exit(span);
        self.journal
            .append(JournalRecord {
                event_index,
                time: now,
                world_hash,
            })
            .unwrap_or_else(|e| panic!("journal append failed at event {event_index}: {e}"));

        let snap_index = event_index + 1; // state is now "after index+1 events"
        let due_events = self
            .every_events
            .is_some_and(|n| snap_index - self.last_snap_event >= n);
        let due_sim = self
            .every_sim
            .is_some_and(|d| now - self.last_snap_time >= d);
        if !(due_events || due_sim) {
            return;
        }
        let span = world.obs.prof_enter("snapshot_encode");
        let payload = full_payload(|w| {
            encode_state(
                world,
                queue,
                self.fingerprint,
                snap_index,
                now,
                self.meta,
                w,
            )
        });
        world.obs.prof_exit(span);
        self.store
            .write(snap_index, &payload)
            .unwrap_or_else(|e| panic!("snapshot write failed at event {event_index}: {e}"));
        // The journal must never be behind the newest snapshot, or a
        // crash right after the snapshot would leave replay blind.
        self.journal
            .flush()
            .unwrap_or_else(|e| panic!("journal flush failed at event {event_index}: {e}"));
        self.last_snap_event = snap_index;
        self.last_snap_time = now;
    }
}

/// Drive the engine with the run's oracle setting and an optional
/// persistent recorder.
fn drive<P: Platform + Snapshot>(
    engine: &Engine,
    world: &mut Runner<P>,
    queue: &mut EventQueue<Ev>,
    meta: &RunMeta,
    recorder: Option<&mut PersistentRecorder<'_>>,
) -> RunStats {
    match (meta.oracle_enabled, recorder) {
        (true, Some(rec)) => {
            let mut oracle = InvariantOracle {
                failure_seed: meta.failure_seed,
            };
            engine.run_resumable(world, queue, &mut oracle, rec)
        }
        (true, None) => {
            let mut oracle = InvariantOracle {
                failure_seed: meta.failure_seed,
            };
            engine.run_resumable(world, queue, &mut oracle, &mut ())
        }
        (false, Some(rec)) => engine.run_resumable(world, queue, &mut NoOracle, rec),
        (false, None) => engine.run_resumable(world, queue, &mut NoOracle, &mut ()),
    }
}

// ---------------------------------------------------------------------------
// run_persistent
// ---------------------------------------------------------------------------

impl<P: Platform + Snapshot> SimulationBuilder<P> {
    /// Run to completion with durable state: a genesis snapshot before
    /// the first event, a journal record after every event, and a
    /// snapshot at the spec's cadence. The outcome is byte-identical to
    /// [`SimulationBuilder::run`] — persistence only observes the run.
    ///
    /// # Errors
    /// Fails if the spec has no cadence or the directory cannot be
    /// created/written.
    ///
    /// # Panics
    /// Panics if persistence I/O fails *mid-run* (see
    /// [`PersistentRecorder`] — a checkpointing run that cannot
    /// checkpoint must not silently continue).
    pub fn run_persistent(self, spec: &PersistSpec) -> Result<SimulationOutcome, PersistError> {
        self.run_persistent_observed(spec, Observer::disabled()).0
    }

    /// [`SimulationBuilder::run_persistent`] with an [`Observer`]
    /// attached for the duration of the run. The observer is returned
    /// (flushed) alongside the result so the caller can inspect its
    /// sinks and profiler; it never influences the persisted state.
    pub fn run_persistent_observed(
        self,
        spec: &PersistSpec,
        obs: Observer,
    ) -> (Result<SimulationOutcome, PersistError>, Observer) {
        if spec.every_events.is_none() && spec.every_sim.is_none() {
            return (
                Err(PersistError::Config(
                    "persistence needs a snapshot cadence: set every_events and/or every_sim \
                     (CLI: --snapshot-every)"
                        .into(),
                )),
                obs,
            );
        }
        if let Err(e) = fs::create_dir_all(&spec.dir) {
            return (Err(e.into()), obs);
        }
        let PreparedRun {
            mut world,
            mut queue,
            meta,
        } = self.prepare();
        world.obs = obs;
        let result = persistent_drive(&mut world, &mut queue, &meta, spec);
        let mut obs = std::mem::take(&mut world.obs);
        obs.finish();
        (
            result.map(|stats| finish_run(world, stats.end_time, meta)),
            obs,
        )
    }
}

/// The fallible middle of a persistent run: genesis snapshot, journal,
/// recorder, drive. Split out so [`SimulationBuilder::run_persistent_observed`]
/// can recover its observer on any early error.
fn persistent_drive<P: Platform + Snapshot>(
    world: &mut Runner<P>,
    queue: &mut EventQueue<Ev>,
    meta: &RunMeta,
    spec: &PersistSpec,
) -> Result<RunStats, PersistError> {
    let fingerprint = run_fingerprint(world, queue, meta);
    let store = SnapshotStore::new(&spec.dir, spec.keep);
    let genesis =
        full_payload(|w| encode_state(world, queue, fingerprint, 0, SimTime::ZERO, meta, w));
    store.write(0, &genesis)?;
    let journal = JournalWriter::create(&journal_path(&spec.dir, 0), fingerprint, 0)?;

    let mut recorder = PersistentRecorder {
        store,
        journal,
        fingerprint,
        meta,
        every_events: spec.every_events,
        every_sim: spec.every_sim,
        last_snap_event: 0,
        last_snap_time: SimTime::ZERO,
    };
    let stats = drive(&Engine::new(), world, queue, meta, Some(&mut recorder));
    recorder.journal.flush()?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

/// Resume an interrupted run from a snapshot file (or the newest valid
/// snapshot in a directory) and drive it to completion.
///
/// The snapshot is self-contained — platform, jobs, policy, RNG
/// cursors, and pending events are all inside — so no configuration is
/// taken here and none can contradict the original run. When `persist`
/// is given, the resumed run keeps checkpointing: a new journal segment
/// starts at the snapshot's event index and snapshots continue on
/// cadence (global event numbering continues, so replay tags stay
/// valid).
///
/// A corrupted snapshot file (checksum, truncation) is skipped with a
/// line through `diag`, falling back to the previous snapshot in the
/// same directory.
pub fn resume_simulation(
    snapshot: &Path,
    persist: Option<&PersistSpec>,
    mut diag: impl FnMut(&str),
) -> Result<SimulationOutcome, PersistError> {
    let (payload, dir) = load_snapshot_payload(snapshot, &mut diag)?;
    let header = peek_header(&payload)?;
    match header.platform.as_str() {
        "flat" => resume_typed::<FlatCluster>(&payload, &dir, persist),
        "bgp" => resume_typed::<BgpCluster>(&payload, &dir, persist),
        other => Err(PersistError::Config(format!(
            "snapshot was written for unknown platform {other:?}; \
             this build knows \"flat\" and \"bgp\""
        ))),
    }
}

/// Load the payload for `snapshot` (file or directory), falling back
/// past corrupt files. Returns the payload and the snapshot directory.
fn load_snapshot_payload(
    snapshot: &Path,
    diag: &mut impl FnMut(&str),
) -> Result<(Vec<u8>, PathBuf), PersistError> {
    if snapshot.is_dir() {
        let store = SnapshotStore::new(snapshot, 1);
        let (_, payload, _) = store.load_latest(u64::MAX, |m| diag(m))?;
        return Ok((payload, snapshot.to_path_buf()));
    }
    let dir = snapshot
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .to_path_buf();
    match read_snapshot_file(snapshot) {
        Ok(payload) => Ok((payload, dir)),
        Err(e) => {
            // A named-but-corrupt snapshot falls back to earlier ones in
            // the same directory — but only if the name parses as one of
            // ours; a foreign path is the caller's mistake.
            let name = snapshot.file_name().and_then(|n| n.to_str());
            let Some(idx) = name.and_then(SnapshotStore::parse_index) else {
                return Err(e.into());
            };
            diag(&format!(
                "snapshot {} is unreadable ({e}); falling back",
                snapshot.display()
            ));
            let store = SnapshotStore::new(&dir, 1);
            let (_, payload, _) = store.load_latest(idx, |m| diag(m))?;
            Ok((payload, dir))
        }
    }
}

fn resume_typed<P: Platform + Snapshot>(
    payload: &[u8],
    snapshot_dir: &Path,
    persist: Option<&PersistSpec>,
) -> Result<SimulationOutcome, PersistError> {
    let (header, mut world, mut queue) = decode_state::<P>(payload)?;
    let engine = Engine::new().starting_at(header.event_index);
    let meta = header.meta;

    let stats = match persist {
        None => drive(&engine, &mut world, &mut queue, &meta, None),
        Some(spec) => {
            let dir = if spec.dir.as_os_str().is_empty() {
                snapshot_dir
            } else {
                spec.dir.as_path()
            };
            fs::create_dir_all(dir)?;
            let journal = JournalWriter::create(
                &journal_path(dir, header.event_index),
                header.fingerprint,
                header.event_index,
            )?;
            let mut recorder = PersistentRecorder {
                store: SnapshotStore::new(dir, spec.keep),
                journal,
                fingerprint: header.fingerprint,
                meta: &meta,
                every_events: spec.every_events,
                every_sim: spec.every_sim,
                last_snap_event: header.event_index,
                last_snap_time: header.time,
            };
            let stats = drive(&engine, &mut world, &mut queue, &meta, Some(&mut recorder));
            recorder.journal.flush()?;
            stats
        }
    };
    Ok(finish_run(world, stats.end_time, meta))
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What [`replay_journal`] found.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// The journal segment that was verified.
    pub journal: PathBuf,
    /// Event index of the snapshot replay started from.
    pub snapshot_index: u64,
    /// Records in the journal segment.
    pub records: u64,
    /// Records whose hash was recomputed and compared.
    pub checked: u64,
    /// Global event index of the first mismatching record, if any.
    pub first_divergence: Option<u64>,
    /// The journal ended mid-record (crash truncation; not an error).
    pub truncated_tail: bool,
}

impl ReplayReport {
    /// True iff every record verified.
    pub fn is_clean(&self) -> bool {
        self.first_divergence.is_none() && self.checked == self.records
    }
}

/// Re-execute a run from the newest snapshot at or before `journal`'s
/// first record and verify every journal hash against the recomputed
/// world state.
///
/// `snapshot_dir` defaults to the journal's own directory. The journal
/// and snapshot must carry the same run fingerprint — verifying a
/// journal against a different run's snapshots is refused, not
/// reported as divergence.
pub fn replay_journal(
    journal: &Path,
    snapshot_dir: Option<&Path>,
    mut diag: impl FnMut(&str),
) -> Result<ReplayReport, PersistError> {
    let j = read_journal(journal)?;
    if j.records.is_empty() {
        return Ok(ReplayReport {
            journal: journal.to_path_buf(),
            snapshot_index: j.start_index,
            records: 0,
            checked: 0,
            first_divergence: None,
            truncated_tail: j.truncated_tail > 0,
        });
    }
    let dir = snapshot_dir
        .map(Path::to_path_buf)
        .or_else(|| journal.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let store = SnapshotStore::new(&dir, 1);
    let (snap_index, payload, snap_path) = store.load_latest(j.start_index, |m| diag(m))?;
    let header = peek_header(&payload)?;
    if header.fingerprint != j.fingerprint {
        return Err(PersistError::Config(format!(
            "journal {} (fingerprint {:016x}) does not belong to the run of snapshot {} \
             (fingerprint {:016x})",
            journal.display(),
            j.fingerprint,
            snap_path.display(),
            header.fingerprint,
        )));
    }
    debug_assert_eq!(header.event_index, snap_index);
    match header.platform.as_str() {
        "flat" => replay_typed::<FlatCluster>(&payload, &j, journal),
        "bgp" => replay_typed::<BgpCluster>(&payload, &j, journal),
        other => Err(PersistError::Config(format!(
            "snapshot was written for unknown platform {other:?}; \
             this build knows \"flat\" and \"bgp\""
        ))),
    }
}

/// Compares recomputed per-event hashes against the journal records.
struct Verifier<'a> {
    records: &'a [JournalRecord],
    /// Global index of `records[0]`.
    base: u64,
    checked: u64,
    first_divergence: Option<u64>,
}

impl<'a, P: Platform + Snapshot> Recorder<Runner<P>> for Verifier<'a> {
    fn after_event(
        &mut self,
        world: &Runner<P>,
        _queue: &EventQueue<Ev>,
        now: SimTime,
        event_index: u64,
    ) {
        // Events between the snapshot and the journal's first record are
        // re-executed but have nothing to verify against.
        let Some(offset) = event_index.checked_sub(self.base) else {
            return;
        };
        let Some(rec) = self.records.get(offset as usize) else {
            return;
        };
        self.checked += 1;
        let matches = rec.event_index == event_index
            && rec.time == now
            && rec.world_hash == world.state_hash();
        if !matches && self.first_divergence.is_none() {
            self.first_divergence = Some(event_index);
        }
    }
}

fn replay_typed<P: Platform + Snapshot>(
    payload: &[u8],
    journal: &JournalFile,
    journal_file: &Path,
) -> Result<ReplayReport, PersistError> {
    let (header, mut world, mut queue) = decode_state::<P>(payload)?;
    let start = header.event_index;
    let last = journal
        .records
        .last()
        .expect("caller checked records is non-empty")
        .event_index;
    if last < start {
        return Err(PersistError::Config(format!(
            "journal {} ends at event {last}, before snapshot index {start} — \
             nothing left to verify (use an earlier snapshot)",
            journal_file.display(),
        )));
    }
    let mut verifier = Verifier {
        records: &journal.records,
        base: journal.start_index,
        checked: 0,
        first_divergence: None,
    };
    let engine = Engine::new()
        .starting_at(start)
        .with_max_events(last - start + 1);
    engine.run_resumable(&mut world, &mut queue, &mut NoOracle, &mut verifier);
    // A replay that drained early produced fewer events than the journal
    // records — that *is* a divergence, at the first unproduced index.
    if verifier.first_divergence.is_none() && verifier.checked < journal.records.len() as u64 {
        verifier.first_divergence = Some(journal.start_index + verifier.checked);
    }
    Ok(ReplayReport {
        journal: journal_file.to_path_buf(),
        snapshot_index: start,
        records: journal.records.len() as u64,
        checked: verifier.checked,
        first_divergence: verifier.first_divergence,
        truncated_tail: journal.truncated_tail > 0,
    })
}
