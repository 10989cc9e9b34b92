//! The write-ahead log: an fsync'd, CRC-guarded journal of accepted
//! `/v1/rate` batches and `/v1/feedback` events.
//!
//! A WAL is a directory of segment files named `wal-<first_seq>.log`.
//! Each segment starts with a 16-byte header (`GFWL` magic, format
//! version, the sequence number of its first record) followed by
//! length-prefixed records:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload (format 2) = [u64 seq][u8 kind][kind-specific body]
//!   kind 0 (ratings)  = [u32 count] count x ([u32 user][u32 item][u64 score_bits])
//!   kind 1 (feedback) = [u32 user][u32 item][u8 has_scope]([u32 len][len bytes])?
//! ```
//!
//! Format 2 is the only format read or written. A segment whose header
//! names any other version is refused with
//! [`PersistError::UnsupportedVersion`] and left untouched on disk.
//!
//! Sequence numbers are contiguous across segments — record `seq` is the
//! global append index, starting at 1 — which is what makes checkpoint
//! truncation sound: a checkpoint that covers `wal_seq` proves every
//! record `<= wal_seq` is baked into its state, so whole segments below
//! that frontier can be deleted.
//!
//! **Torn tails.** A crash mid-append can leave a half-written record at
//! the end of the *last* segment. [`scan`] stops at the first byte that
//! fails the length/CRC/sequence checks; [`Wal::open`] then truncates
//! that tail in place (reporting how many bytes were dropped) and
//! appends after the last complete record. The same damage in a
//! *non-last* segment cannot come from a crash (rotation syncs before a
//! new segment opens) — that is real corruption, and `open` refuses to
//! proceed rather than silently drop acknowledged records that later
//! segments still hold (see `docs/OPERATIONS.md` for the recovery
//! procedure).

use crate::codec::{Reader, Writer};
use crate::crc32::crc32;
use crate::error::{PersistError, Result};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Format version written into, and required of, every segment header.
pub const WAL_FORMAT_VERSION: u32 = 2;

/// Record-kind byte of a ratings batch.
const KIND_RATINGS: u8 = 0;

/// Record-kind byte of a feedback (consumption) event.
const KIND_FEEDBACK: u8 = 1;

/// Segment header magic.
pub const WAL_MAGIC: [u8; 4] = *b"GFWL";

/// Bytes of segment header before the first record.
pub const WAL_HEADER_BYTES: usize = 16;

/// Upper bound on one record's payload — far above any real batch
/// (`max_updates_per_pass` is ~1k), so an insane on-disk length is
/// recognized as corruption instead of an allocation attempt.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// When appended records are pushed to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync` after every append — an acknowledged rating survives an
    /// immediate power cut. The durable default.
    Always,
    /// `fsync` at most once per interval — group commit. A crash can lose
    /// up to one interval of *acknowledged* ratings; the trade-off table
    /// lives in `docs/OPERATIONS.md`.
    Interval(Duration),
}

/// What one WAL record carries.
#[derive(Debug, Clone, PartialEq)]
pub enum WalPayload {
    /// A batch of accepted `(user, item, score)` rating updates.
    Ratings(Vec<(u32, u32, f64)>),
    /// One observed consumption (`/v1/feedback`): `user` consumed `item`,
    /// optionally scoped to a named grouping.
    Feedback {
        /// The consuming user (dense index).
        user: u32,
        /// The consumed item (dense index).
        item: u32,
        /// Grouping name the event is scoped to, if any.
        scope: Option<String>,
    },
}

/// One decoded WAL record under a single sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Global append index (1-based, contiguous).
    pub seq: u64,
    /// The record's payload.
    pub payload: WalPayload,
}

impl WalRecord {
    /// The rating updates, when this is a ratings record.
    pub fn ratings(&self) -> Option<&[(u32, u32, f64)]> {
        match &self.payload {
            WalPayload::Ratings(updates) => Some(updates),
            WalPayload::Feedback { .. } => None,
        }
    }
}

/// Where and why a scan stopped early.
#[derive(Debug, Clone)]
pub struct TornTail {
    /// The segment holding the first undecodable byte.
    pub segment: PathBuf,
    /// Offset of that byte within the segment.
    pub offset: u64,
    /// `true` when the damage is *not* at the log's end (a later segment
    /// holds records) — real corruption, not a crash artifact.
    pub mid_log: bool,
}

/// The result of reading a WAL directory end to end.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every complete record, in sequence order.
    pub records: Vec<WalRecord>,
    /// The last complete record's sequence number (0 when none).
    pub last_seq: u64,
    /// Bytes past the last complete record that could not be decoded.
    pub dropped_bytes: u64,
    /// Details of the stop point, when the log did not end cleanly.
    pub torn: Option<TornTail>,
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.log"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(PersistError::io(format!("list {}", dir.display()))(e)),
    };
    for entry in entries {
        let entry = entry.map_err(PersistError::io(format!("list {}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|n| n.strip_suffix(".log"))
        {
            if let Ok(first_seq) = stem.parse::<u64>() {
                out.push((first_seq, entry.path()));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut record = Writer::new();
    record.u32(payload.len() as u32);
    record.u32(crc32(&payload));
    record.bytes(&payload);
    record.into_bytes()
}

fn encode_record(seq: u64, updates: &[(u32, u32, f64)]) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.u64(seq);
    payload.u8(KIND_RATINGS);
    payload.u32(updates.len() as u32);
    for &(u, i, s) in updates {
        payload.u32(u);
        payload.u32(i);
        payload.f64(s);
    }
    frame(payload.into_bytes())
}

fn encode_feedback_record(seq: u64, user: u32, item: u32, scope: Option<&str>) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.u64(seq);
    payload.u8(KIND_FEEDBACK);
    payload.u32(user);
    payload.u32(item);
    match scope {
        Some(s) => {
            payload.u8(1);
            payload.u32(s.len() as u32);
            payload.bytes(s.as_bytes());
        }
        None => payload.u8(0),
    }
    frame(payload.into_bytes())
}

/// Decodes one record payload (seq already read). Returns `None` on any
/// malformation — the caller treats that exactly like a CRC failure.
fn parse_payload(p: &mut Reader<'_>) -> Option<WalPayload> {
    match p.u8("kind").ok()? {
        KIND_RATINGS => {
            let count = p.u32("count").ok()?;
            if p.remaining() != count as usize * 16 {
                return None;
            }
            let mut updates = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let u = p.u32("user").expect("length checked");
                let i = p.u32("item").expect("length checked");
                let s = p.f64("score").expect("length checked");
                updates.push((u, i, s));
            }
            Some(WalPayload::Ratings(updates))
        }
        KIND_FEEDBACK => {
            let user = p.u32("user").ok()?;
            let item = p.u32("item").ok()?;
            let scope = match p.u8("has_scope").ok()? {
                0 => None,
                1 => {
                    let len = p.u32("scope length").ok()?;
                    let bytes = p.take(len as usize, "scope").ok()?;
                    Some(String::from_utf8(bytes.to_vec()).ok()?)
                }
                _ => return None,
            };
            if !p.is_empty() {
                return None;
            }
            Some(WalPayload::Feedback { user, item, scope })
        }
        _ => None,
    }
}

/// Refuses a segment whose header is not a [`WAL_FORMAT_VERSION`] header:
/// a full-length header without the magic is [`PersistError::Corrupt`], a
/// magic followed by another version is
/// [`PersistError::UnsupportedVersion`]. Only a file too short to hold the
/// header can be a crash artifact (the process died while creating the
/// segment); it is left to [`parse_segment`], which reports it torn.
fn check_header(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut r = Reader::new(bytes);
    match (r.take(4, "magic"), r.u32("version")) {
        (Ok(magic), _) if magic != WAL_MAGIC && bytes.len() >= WAL_HEADER_BYTES => {
            Err(PersistError::Corrupt(format!(
                "segment {} has a full-length header without the WAL magic; \
                 refusing to treat it as torn",
                path.display()
            )))
        }
        (Ok(magic), Ok(found)) if magic == WAL_MAGIC && found != WAL_FORMAT_VERSION => {
            Err(PersistError::UnsupportedVersion {
                found,
                supported: WAL_FORMAT_VERSION,
            })
        }
        _ => Ok(()),
    }
}

/// Parses one segment's records starting at `expect_seq`, appending to
/// `records`. Returns `Ok(())` on a clean end, or `Err(offset)` of the
/// first undecodable byte. The header was already vetted by
/// [`check_header`], so an offset below [`WAL_HEADER_BYTES`] means the
/// file is shorter than a header.
fn parse_segment(
    bytes: &[u8],
    expect_first: Option<u64>,
    records: &mut Vec<WalRecord>,
) -> std::result::Result<(), u64> {
    let mut r = Reader::new(bytes);
    let Ok(magic) = r.take(4, "magic") else {
        return Err(0);
    };
    if magic != WAL_MAGIC {
        return Err(0);
    }
    if r.u32("version").is_err() {
        return Err(0);
    }
    let Ok(first_seq) = r.u64("first_seq") else {
        return Err(0);
    };
    if let Some(expect) = expect_first {
        if first_seq != expect {
            return Err(WAL_HEADER_BYTES as u64);
        }
    }
    let mut expect_seq = first_seq;
    loop {
        let at = r.position() as u64;
        if r.is_empty() {
            return Ok(());
        }
        let Ok(len) = r.u32("record length") else {
            return Err(at);
        };
        let len = len as usize;
        // Every payload starts with seq + kind (9 bytes); `parse_payload`
        // checks the kind-specific body.
        if !(9..=MAX_RECORD_BYTES).contains(&len) {
            return Err(at);
        }
        let Ok(crc) = r.u32("record crc") else {
            return Err(at);
        };
        let Ok(payload) = r.take(len, "record payload") else {
            return Err(at);
        };
        if crc32(payload) != crc {
            return Err(at);
        }
        let mut p = Reader::new(payload);
        let Ok(seq) = p.u64("seq") else {
            return Err(at);
        };
        if seq != expect_seq {
            return Err(at);
        }
        let Some(payload) = parse_payload(&mut p) else {
            return Err(at);
        };
        records.push(WalRecord { seq, payload });
        expect_seq += 1;
    }
}

/// Reads every record the WAL directory holds, stopping gracefully at the
/// first undecodable byte. Read-only: nothing on disk changes (the crash
/// harness uses this to reconstruct a reference run; [`Wal::open`] uses it
/// and then repairs the tail).
///
/// Fails with [`PersistError::UnsupportedVersion`] when any segment's
/// header names a format other than [`WAL_FORMAT_VERSION`], and with
/// [`PersistError::Corrupt`] when a segment at least a header long lacks
/// the magic.
pub fn scan(dir: &Path) -> Result<WalScan> {
    let segments = list_segments(dir)?;
    let mut out = WalScan::default();
    for (idx, (first_seq, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path).map_err(PersistError::io(format!("read {}", path.display())))?;
        check_header(path, &bytes)?;
        // The first segment anchors the sequence; later ones must continue
        // exactly where the previous left off.
        let expect = if out.records.is_empty() && idx == 0 {
            Some(*first_seq)
        } else {
            Some(out.last_seq + 1)
        };
        let parsed = parse_segment(&bytes, expect, &mut out.records);
        out.last_seq = out.records.last().map_or(out.last_seq, |r| r.seq);
        if let Err(offset) = parsed {
            let later_bytes: u64 = segments[idx + 1..]
                .iter()
                .map(|(_, p)| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
                .sum();
            out.dropped_bytes = bytes.len() as u64 - offset + later_bytes;
            out.torn = Some(TornTail {
                segment: path.clone(),
                offset,
                mid_log: idx + 1 < segments.len(),
            });
            return Ok(out);
        }
    }
    // A freshly rotated (header-only) tail segment promises its first
    // record's sequence even before any record lands: appends must resume
    // there, not at the last decoded record.
    if let Some((first, _)) = segments.last() {
        out.last_seq = out.last_seq.max(first.saturating_sub(1));
    }
    Ok(out)
}

fn fsync_dir(dir: &Path) -> Result<()> {
    let d = File::open(dir).map_err(PersistError::io(format!("open dir {}", dir.display())))?;
    d.sync_all()
        .map_err(PersistError::io(format!("fsync dir {}", dir.display())))
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    /// Current segment, positioned at its end.
    file: File,
    /// All live segments `(first_seq, path)`, sorted; the last is current.
    segments: Vec<(u64, PathBuf)>,
    next_seq: u64,
    sync: SyncMode,
    last_sync: Instant,
    unsynced: bool,
}

impl Wal {
    /// Opens (or creates) the WAL in `dir`: scans every segment, truncates
    /// a torn tail in place, and positions for appending after the last
    /// complete record. Returns the scan so the caller can replay.
    ///
    /// Fails with [`PersistError::Corrupt`] if undecodable bytes sit
    /// *before* intact later segments (`mid_log` damage) — truncating
    /// there would silently drop acknowledged records — or if a segment
    /// at least a header long lacks the magic, and with
    /// [`PersistError::UnsupportedVersion`] if any segment is in another
    /// format; either way nothing on disk changes.
    pub fn open(dir: &Path, sync: SyncMode) -> Result<(Wal, WalScan)> {
        fs::create_dir_all(dir).map_err(PersistError::io(format!("mkdir {}", dir.display())))?;
        let scan_result = scan(dir)?;
        if let Some(torn) = &scan_result.torn {
            if torn.mid_log {
                return Err(PersistError::Corrupt(format!(
                    "segment {} is damaged at offset {} but later segments hold records; \
                     refusing to truncate acknowledged history",
                    torn.segment.display(),
                    torn.offset
                )));
            }
            // Crash artifact at the log's end: drop the torn bytes. A tail
            // torn inside the header (a file shorter than the header; a
            // full-length one was vetted by `check_header`) leaves nothing
            // worth keeping — remove the file and let the append path
            // start a fresh segment.
            if torn.offset < WAL_HEADER_BYTES as u64 {
                fs::remove_file(&torn.segment).map_err(PersistError::io(format!(
                    "remove {}",
                    torn.segment.display()
                )))?;
            } else {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&torn.segment)
                    .map_err(PersistError::io(format!("open {}", torn.segment.display())))?;
                f.set_len(torn.offset).map_err(PersistError::io(format!(
                    "truncate {}",
                    torn.segment.display()
                )))?;
                f.sync_all().map_err(PersistError::io(format!(
                    "fsync {}",
                    torn.segment.display()
                )))?;
            }
            fsync_dir(dir)?;
        }
        let next_seq = scan_result.last_seq + 1;
        let mut segments = list_segments(dir)?;
        let file = match segments.last() {
            Some((_, path)) => OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(PersistError::io(format!("open {}", path.display())))?,
            None => {
                let (first, path) = (next_seq, segment_path(dir, next_seq));
                let file = Self::create_segment(&path, first)?;
                fsync_dir(dir)?;
                segments.push((first, path));
                file
            }
        };
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                file,
                segments,
                next_seq,
                sync,
                last_sync: Instant::now(),
                unsynced: false,
            },
            scan_result,
        ))
    }

    /// Discards any existing segments and starts a brand-new log whose
    /// first record will take `first_seq`. Recovery uses this when a
    /// checkpoint's `wal_seq` is *ahead* of the log on disk (the log was
    /// lost or deleted while checkpoints survived): appending at a lower
    /// sequence would shadow records a future replay must consider baked,
    /// so the log restarts exactly past the checkpoint frontier.
    pub fn create_at(dir: &Path, sync: SyncMode, first_seq: u64) -> Result<Wal> {
        fs::create_dir_all(dir).map_err(PersistError::io(format!("mkdir {}", dir.display())))?;
        for (_, path) in list_segments(dir)? {
            fs::remove_file(&path)
                .map_err(PersistError::io(format!("remove {}", path.display())))?;
        }
        let path = segment_path(dir, first_seq);
        let file = Self::create_segment(&path, first_seq)?;
        fsync_dir(dir)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            segments: vec![(first_seq, path)],
            next_seq: first_seq,
            sync,
            last_sync: Instant::now(),
            unsynced: false,
        })
    }

    fn create_segment(path: &Path, first_seq: u64) -> Result<File> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(path)
            .map_err(PersistError::io(format!("create {}", path.display())))?;
        let mut header = Writer::new();
        header.bytes(&WAL_MAGIC);
        header.u32(WAL_FORMAT_VERSION);
        header.u64(first_seq);
        file.write_all(&header.into_bytes())
            .map_err(PersistError::io(format!("write header {}", path.display())))?;
        file.sync_all()
            .map_err(PersistError::io(format!("fsync {}", path.display())))?;
        Ok(file)
    }

    /// The sequence number the next append will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Paths of every live segment, oldest first.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.segments.iter().map(|(_, p)| p.clone()).collect()
    }

    /// Appends one ratings batch as a record and applies the sync policy.
    /// Returns the record's sequence number — once this returns under
    /// [`SyncMode::Always`], the batch is on disk.
    pub fn append(&mut self, updates: &[(u32, u32, f64)]) -> Result<u64> {
        let record = encode_record(self.next_seq, updates);
        self.append_framed(record)
    }

    /// Appends one feedback (consumption) event as a record and applies
    /// the sync policy, like [`Wal::append`].
    pub fn append_feedback(&mut self, user: u32, item: u32, scope: Option<&str>) -> Result<u64> {
        let record = encode_feedback_record(self.next_seq, user, item, scope);
        self.append_framed(record)
    }

    fn append_framed(&mut self, record: Vec<u8>) -> Result<u64> {
        let seq = self.next_seq;
        self.file
            .write_all(&record)
            .map_err(PersistError::io("append wal record"))?;
        self.next_seq += 1;
        self.unsynced = true;
        match self.sync {
            SyncMode::Always => self.sync()?,
            SyncMode::Interval(every) => {
                if self.last_sync.elapsed() >= every {
                    self.sync()?;
                }
            }
        }
        Ok(seq)
    }

    /// Forces buffered records to disk now (a no-op when already clean).
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced {
            self.file
                .sync_data()
                .map_err(PersistError::io("fsync wal segment"))?;
            self.unsynced = false;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Closes the current segment and starts a new one at `next_seq`.
    pub fn rotate(&mut self) -> Result<()> {
        self.sync()?;
        let (first, path) = (self.next_seq, segment_path(&self.dir, self.next_seq));
        self.file = Self::create_segment(&path, first)?;
        fsync_dir(&self.dir)?;
        self.segments.push((first, path));
        Ok(())
    }

    /// Deletes every segment whose records are all `<= seq` (rotating
    /// first if the current segment qualifies), keeping the log's tail
    /// intact. Called after a checkpoint covering `seq` lands. Returns how
    /// many segment files were removed.
    pub fn prune_through(&mut self, seq: u64) -> Result<usize> {
        let current_first = self.segments.last().map_or(self.next_seq, |(f, _)| *f);
        if current_first < self.next_seq && self.next_seq - 1 <= seq {
            // The current segment holds records and they are all covered.
            self.rotate()?;
        }
        let mut removed = 0;
        // A segment's records end where the next segment begins.
        while self.segments.len() > 1 && self.segments[1].0 - 1 <= seq {
            let (_, path) = self.segments.remove(0);
            fs::remove_file(&path)
                .map_err(PersistError::io(format!("remove {}", path.display())))?;
            removed += 1;
        }
        if removed > 0 {
            fsync_dir(&self.dir)?;
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gf-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmpdir("round");
        let (mut wal, scan0) = Wal::open(&dir, SyncMode::Always).unwrap();
        assert_eq!(scan0.records.len(), 0);
        assert_eq!(wal.append(&[(0, 1, 4.5)]).unwrap(), 1);
        assert_eq!(wal.append(&[(2, 3, 1.0), (4, 5, 2.5)]).unwrap(), 2);
        drop(wal);
        let s = scan(&dir).unwrap();
        assert!(s.torn.is_none());
        assert_eq!(s.last_seq, 2);
        assert_eq!(s.records[0].ratings().unwrap(), &[(0, 1, 4.5)]);
        assert_eq!(s.records[1].ratings().unwrap(), &[(2, 3, 1.0), (4, 5, 2.5)]);
        // Reopen continues the sequence.
        let (mut wal, s) = Wal::open(&dir, SyncMode::Always).unwrap();
        assert_eq!(s.last_seq, 2);
        assert_eq!(wal.append(&[]).unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmpdir("torn");
        let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        wal.append(&[(0, 0, 3.0)]).unwrap();
        wal.append(&[(1, 1, 4.0)]).unwrap();
        let path = wal.segment_paths().pop().unwrap();
        drop(wal);
        // Chop the last record in half.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        let s = scan(&dir).unwrap();
        assert_eq!(s.last_seq, 1);
        assert_eq!(
            s.dropped_bytes,
            (full.len() - 7) as u64 - s.torn.as_ref().unwrap().offset
        );
        assert!(!s.torn.as_ref().unwrap().mid_log);
        // Open repairs and appends after record 1 with seq 2 again.
        let (mut wal, s) = Wal::open(&dir, SyncMode::Always).unwrap();
        assert_eq!(s.last_seq, 1);
        assert_eq!(wal.append(&[(9, 9, 5.0)]).unwrap(), 2);
        drop(wal);
        let s = scan(&dir).unwrap();
        assert!(s.torn.is_none());
        assert_eq!(s.records[1].ratings().unwrap(), &[(9, 9, 5.0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn feedback_records_round_trip_interleaved() {
        let dir = tmpdir("feedback");
        let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        assert_eq!(wal.append(&[(0, 1, 4.5)]).unwrap(), 1);
        assert_eq!(wal.append_feedback(0, 1, None).unwrap(), 2);
        assert_eq!(wal.append_feedback(3, 2, Some("cons")).unwrap(), 3);
        assert_eq!(wal.append(&[(3, 2, 2.0)]).unwrap(), 4);
        drop(wal);
        let s = scan(&dir).unwrap();
        assert!(s.torn.is_none());
        assert_eq!(s.last_seq, 4);
        assert_eq!(s.records[0].payload, WalPayload::Ratings(vec![(0, 1, 4.5)]));
        assert_eq!(
            s.records[1].payload,
            WalPayload::Feedback {
                user: 0,
                item: 1,
                scope: None
            }
        );
        assert_eq!(
            s.records[2].payload,
            WalPayload::Feedback {
                user: 3,
                item: 2,
                scope: Some("cons".to_string())
            }
        );
        assert!(s.records[2].ratings().is_none());
        // Reopen continues the sequence past both kinds.
        let (wal, s) = Wal::open(&dir, SyncMode::Always).unwrap();
        assert_eq!(s.last_seq, 4);
        assert_eq!(wal.next_seq(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_format_segment_is_refused_and_left_untouched() {
        let dir = tmpdir("v3");
        let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        wal.append(&[(7, 3, 4.0)]).unwrap();
        let path = wal.segment_paths().pop().unwrap();
        drop(wal);
        // Relabel the (otherwise intact) segment as format 3.
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let unsupported = |r: Result<()>| {
            matches!(
                r,
                Err(PersistError::UnsupportedVersion {
                    found: 3,
                    supported: WAL_FORMAT_VERSION
                })
            )
        };
        assert!(unsupported(scan(&dir).map(drop)));
        assert!(unsupported(Wal::open(&dir, SyncMode::Always).map(drop)));
        assert_eq!(fs::read(&path).unwrap(), bytes, "segment must be untouched");
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_stops_the_scan() {
        let dir = tmpdir("flip");
        let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        wal.append(&[(0, 0, 3.0)]).unwrap();
        wal.append(&[(1, 1, 4.0)]).unwrap();
        let path = wal.segment_paths().pop().unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        let mid = WAL_HEADER_BYTES + 10; // inside record 1's payload
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let s = scan(&dir).unwrap();
        assert_eq!(s.last_seq, 0); // record 1's crc fails; nothing survives
        assert!(s.torn.is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_header_torn_files_recover() {
        let dir = tmpdir("empty");
        fs::write(segment_path(&dir, 1), b"GF").unwrap(); // torn header
        let (mut wal, s) = Wal::open(&dir, SyncMode::Always).unwrap();
        assert_eq!(s.records.len(), 0);
        assert_eq!(wal.append(&[(0, 0, 1.0)]).unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_a_file_shorter_than_the_header_counts_as_torn() {
        let dir = tmpdir("badmagic");
        let (wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        let path = wal.segment_paths().pop().unwrap();
        drop(wal);
        let mut header = fs::read(&path).unwrap();
        assert_eq!(header.len(), WAL_HEADER_BYTES);
        header[0] ^= 0xFF;
        // A full-length header with a damaged magic is refused in place.
        fs::write(&path, &header).unwrap();
        assert!(matches!(scan(&dir), Err(PersistError::Corrupt(_))));
        assert!(matches!(
            Wal::open(&dir, SyncMode::Always),
            Err(PersistError::Corrupt(_))
        ));
        assert_eq!(
            fs::read(&path).unwrap(),
            header,
            "segment must be untouched"
        );
        // One byte shorter, the same bytes are a header torn mid-write:
        // dropped, and the log starts afresh.
        fs::write(&path, &header[..WAL_HEADER_BYTES - 1]).unwrap();
        let (mut wal, s) = Wal::open(&dir, SyncMode::Always).unwrap();
        assert!(s.torn.is_some());
        assert_eq!(s.records.len(), 0);
        assert_eq!(wal.append(&[(0, 0, 1.0)]).unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_damage_refuses_open() {
        let dir = tmpdir("midlog");
        let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        wal.append(&[(0, 0, 3.0)]).unwrap();
        wal.rotate().unwrap();
        wal.append(&[(1, 1, 4.0)]).unwrap();
        let first = wal.segment_paths().remove(0);
        drop(wal);
        let mut bytes = fs::read(&first).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&first, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&dir, SyncMode::Always),
            Err(PersistError::Corrupt(_))
        ));
        // The read-only scan still reports what it could recover.
        let s = scan(&dir).unwrap();
        assert_eq!(s.last_seq, 0);
        assert!(s.torn.as_ref().unwrap().mid_log);
        assert!(s.dropped_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_at_restarts_past_a_checkpoint_frontier() {
        let dir = tmpdir("createat");
        let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        wal.append(&[(0, 0, 1.0)]).unwrap();
        drop(wal);
        // Checkpoint claims seq 40 is baked but the log only reaches 1:
        // restart the log at 41 rather than re-issuing covered sequences.
        let mut wal = Wal::create_at(&dir, SyncMode::Always, 41).unwrap();
        assert_eq!(wal.next_seq(), 41);
        assert_eq!(wal.append(&[(5, 5, 2.0)]).unwrap(), 41);
        drop(wal);
        let s = scan(&dir).unwrap();
        assert!(s.torn.is_none());
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].seq, 41);
        assert_eq!(s.last_seq, 41);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_pruning_keep_the_tail() {
        let dir = tmpdir("prune");
        let (mut wal, _) = Wal::open(&dir, SyncMode::Always).unwrap();
        for seq in 1..=3u64 {
            wal.append(&[(seq as u32, 0, 2.0)]).unwrap();
        }
        wal.rotate().unwrap();
        for seq in 4..=5u64 {
            wal.append(&[(seq as u32, 0, 2.0)]).unwrap();
        }
        // A checkpoint through seq 3 removes exactly the first segment.
        assert_eq!(wal.prune_through(3).unwrap(), 1);
        let s = scan(&dir).unwrap();
        assert_eq!(s.records.first().unwrap().seq, 4);
        assert_eq!(s.last_seq, 5);
        // A checkpoint through 5 rotates the live segment out and prunes it.
        assert_eq!(wal.prune_through(5).unwrap(), 1);
        let s = scan(&dir).unwrap();
        assert_eq!(s.records.len(), 0);
        // Appends still continue the global sequence.
        assert_eq!(wal.append(&[(0, 0, 1.0)]).unwrap(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }
}
