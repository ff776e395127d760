//! The run-state snapshot codec: the one encoding of a runner, its
//! pending event queue and the run-level facts, shared by
//! [`crate::LiveScheduler`]'s `encode`/`decode` and, through them, the
//! serve daemon's rotating snapshots and crash recovery. Everything
//! here is crate-private; the public surface is `LiveScheduler`'s.
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
//! then the head that counts them; a self-contained payload is one
//! frame from zero. The platform name tag lets a caller pick the
//! concrete machine type before decoding the world.

use amjs_platform::Platform;
use amjs_sim::snapshot::Fnv1a;
use amjs_sim::{
    ColumnReader, ColumnWriter, Columns, EventQueue, SimTime, SnapError, SnapReader, SnapWriter,
    Snapshot,
};

use crate::runner::{Ev, Runner};
use crate::state::RunMeta;

/// Section tag for run metadata inside a snapshot payload.
const SEC_META: u32 = 1;
/// Section tag for the serialized world (runner) state.
const SEC_WORLD: u32 = 2;
/// Section tag for the pending event queue.
const SEC_QUEUE: u32 = 3;
/// Section tag for a frame of column elements (4 is `crate::live`'s).
const SEC_COLUMNS: u32 = 5;

/// The META section: everything needed to interpret the WORLD/QUEUE
/// sections. Its sim time is written (format v4 has it) and read past:
/// the LIVE trailer carries the clock a decode restores.
pub(crate) struct SnapshotHeader {
    /// Run fingerprint (FNV-1a over the genesis state).
    pub(crate) fingerprint: u64,
    /// The state captured here is "after this many events".
    pub(crate) event_index: u64,
    /// Platform name tag (`"flat"`, `"bgp"`), for typed dispatch.
    pub(crate) platform: String,
    /// Run-level facts (label, oracle, ...).
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
        let fingerprint = r.get_u64()?;
        let event_index = r.get_u64()?;
        let _time: SimTime = Snapshot::decode(r)?;
        Ok(SnapshotHeader {
            fingerprint,
            event_index,
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
/// meta). Stamped into every snapshot META and daemon WAL header of the
/// run, so recovery can refuse state from a different run.
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
