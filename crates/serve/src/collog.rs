//! The column log: the append-only part of the run state, on disk once.
//!
//! Most of a long-running scheduler's state is vectors that are only
//! ever pushed to — the job trace, the utilization steps, the metric
//! series, the per-job records. A snapshot that re-wrote them would
//! grow with the script; instead every snapshot appends one *frame*
//! here — what those columns gained since the previous snapshot
//! ([`amjs_core::LiveScheduler::encode_since`]) — and the snapshot file
//! itself is only the bounded *head*, sealed with the length of this
//! log it counts on ([`seal_head`]).
//!
//! File format (all integers little-endian):
//!
//! ```text
//! header:  "AMJSCOL1"
//! frame:   len:u64  body:[u8; len]  check:u64
//! ```
//!
//! `check` is the snapshot file checksum over the frame's length field
//! and its body; frames are consumed by position. The writer appends
//! and `sync_data`s a frame *before* it writes the head that counts it,
//! so a head never names bytes that were not durable first. What a
//! crash can leave is a tail no head covers — a whole frame whose head
//! never got its name, or a torn append — and recovery truncates it
//! away, as it does the WAL's.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use amjs_sim::snapshot::file_checksum;
use amjs_sim::SnapError;

const MAGIC: &[u8; 8] = b"AMJSCOL1";
/// The length field before a frame's body and the checksum behind it.
const FRAME_OVERHEAD: usize = 16;

/// Where a state directory keeps its column log.
pub fn column_log_path(dir: &Path) -> PathBuf {
    dir.join("columns.log")
}

/// Append-only writer of the column log.
pub struct ColumnLog {
    file: File,
    len: u64,
}

impl ColumnLog {
    /// Create an empty log at `path`, truncating any existing file.
    pub fn create(path: &Path) -> io::Result<ColumnLog> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        Ok(ColumnLog {
            file,
            len: MAGIC.len() as u64,
        })
    }

    /// Reopen the log after recovery, cut back to the `covered` bytes
    /// the recovered head counts: whatever lay past them is gone, and
    /// the next frame continues from that head's cursor.
    pub fn reopen(path: &Path, covered: u64) -> io::Result<ColumnLog> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(covered)?;
        file.seek(io::SeekFrom::End(0))?;
        Ok(ColumnLog { file, len: covered })
    }

    /// Append one frame and sync it. Returns the length of the log with
    /// the frame in it: what a head written now covers. A failed append
    /// is cut back off, so a later frame never sits behind garbage.
    pub fn append(&mut self, body: &[u8]) -> io::Result<u64> {
        let len = (body.len() as u64).to_le_bytes();
        let mut buf = Vec::with_capacity(FRAME_OVERHEAD + body.len());
        buf.extend_from_slice(&len);
        buf.extend_from_slice(body);
        buf.extend_from_slice(&file_checksum(&len, body).to_le_bytes());
        let written = self
            .file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(io::SeekFrom::Start(self.len));
            return Err(e);
        }
        self.len += buf.len() as u64;
        Ok(self.len)
    }
}

/// A column log read back: the bytes, and the bodies of the whole,
/// checksummed frames they start with.
pub struct LogContents {
    data: Vec<u8>,
    frames: Vec<Range<usize>>,
}

impl LogContents {
    /// Size of the file.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Every length a head can have been sealed with: the header's, then
    /// the end of each intact frame. Past the last one the file holds
    /// nothing but a torn tail.
    pub fn boundaries(&self) -> impl Iterator<Item = u64> + '_ {
        let ends = self.frames.iter().map(|body| (body.end + 8) as u64);
        std::iter::once(MAGIC.len() as u64).chain(ends)
    }

    /// The frame bodies in the first `covered` bytes, which must end on
    /// a boundary — what a head sealed with `covered` decodes with.
    pub fn covered_by(&self, covered: u64) -> Result<Vec<&[u8]>, SnapError> {
        let within: Vec<u64> = self
            .boundaries()
            .take_while(|&end| end <= covered)
            .collect();
        let (frames, boundary) = (within.len().saturating_sub(1), within.last());
        if boundary != Some(&covered) {
            return Err(SnapError::Malformed(format!(
                "it counts on {covered} bytes of column log, \
                 which is intact for {} bytes of them",
                boundary.unwrap_or(&0)
            )));
        }
        let bodies = self.frames[..frames].iter();
        Ok(bodies.map(|body| &self.data[body.clone()]).collect())
    }
}

/// Read the column log at `path`, tolerating a torn tail: parsing stops
/// at the first incomplete or checksum-failing frame.
pub fn read_column_log(path: &Path) -> io::Result<LogContents> {
    let data = std::fs::read(path)?;
    if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a column log (bad header)", path.display()),
        ));
    }
    let mut frames = Vec::new();
    let mut pos = MAGIC.len();
    while data.len() - pos >= FRAME_OVERHEAD {
        let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        // The length is outside input: bound it before adding to it.
        let (len, start) = (word(pos), pos + 8);
        if len > (data.len() - start - 8) as u64 {
            break;
        }
        let body = start..start + len as usize;
        if word(body.end) != file_checksum(&data[pos..start], &data[body.clone()]) {
            break;
        }
        pos = body.end + 8;
        frames.push(body);
    }
    Ok(LogContents { data, frames })
}

/// A snapshot file's payload: the head, then the length of column log
/// it counts on.
pub fn seal_head(mut head: Vec<u8>, covered: u64) -> Vec<u8> {
    head.extend_from_slice(&covered.to_le_bytes());
    head
}

/// Take a [`seal_head`] payload apart.
pub fn split_head(payload: &[u8]) -> Result<(&[u8], u64), SnapError> {
    let Some(at) = payload.len().checked_sub(8) else {
        return Err(SnapError::Truncated {
            wanted: 8,
            available: payload.len(),
        });
    };
    let (head, covered) = payload.split_at(at);
    Ok((head, u64::from_le_bytes(covered.try_into().unwrap())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amjs-collog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        column_log_path(&dir)
    }

    #[test]
    fn frames_round_trip_and_a_head_covers_a_prefix_of_them() {
        let path = tmp("prefix");
        let mut log = ColumnLog::create(&path).unwrap();
        let bodies: [&[u8]; 3] = [b"first", b"", b"third frame"];
        let ends: Vec<u64> = bodies.iter().map(|b| log.append(b).unwrap()).collect();
        let read = read_column_log(&path).unwrap();
        assert_eq!(read.bytes(), ends[2]);
        let boundaries: Vec<u64> = read.boundaries().collect();
        assert_eq!(boundaries, [8, ends[0], ends[1], ends[2]]);
        assert_eq!(read.covered_by(8).unwrap(), Vec::<&[u8]>::new());
        assert_eq!(read.covered_by(ends[1]).unwrap(), &bodies[..2]);
        // Between two boundaries is no prefix a head was sealed with.
        for off in [ends[1] + 1, 7, ends[2] + 1] {
            let err = read.covered_by(off).unwrap_err().to_string();
            assert!(err.contains("intact for"), "{err}");
        }
    }

    #[test]
    fn a_torn_or_flipped_frame_ends_the_intact_prefix() {
        let path = tmp("torn");
        let mut log = ColumnLog::create(&path).unwrap();
        let first = log.append(b"kept").unwrap();
        let second = log.append(b"damaged").unwrap();
        drop(log);
        let raw = std::fs::read(&path).unwrap();
        let mut flipped = raw.clone();
        flipped[first as usize + 8] ^= 1; // first byte of the second body
        for damaged in [&raw[..raw.len() - 3], &flipped[..]] {
            std::fs::write(&path, damaged).unwrap();
            let read = read_column_log(&path).unwrap();
            assert_eq!(read.boundaries().last(), Some(first));
            assert!(read.bytes() > first, "a torn tail");
            assert!(read.covered_by(first).is_ok());
            assert!(read.covered_by(second).is_err());
        }
        // Reopening at the covered length amputates the tail; the next
        // frame lands on the boundary.
        let mut log = ColumnLog::reopen(&path, first).unwrap();
        let end = log.append(b"again").unwrap();
        let read = read_column_log(&path).unwrap();
        assert_eq!((read.bytes(), read.boundaries().last()), (end, Some(end)));
        assert_eq!(read.covered_by(end).unwrap(), [&b"kept"[..], b"again"]);
    }

    #[test]
    fn a_frame_length_past_the_file_is_a_torn_tail_not_a_panic() {
        let path = tmp("len");
        let mut log = ColumnLog::create(&path).unwrap();
        log.append(b"body").unwrap();
        drop(log);
        let mut raw = std::fs::read(&path).unwrap();
        raw[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let read = read_column_log(&path).unwrap();
        assert_eq!(read.boundaries().collect::<Vec<_>>(), [8]);
    }
}
