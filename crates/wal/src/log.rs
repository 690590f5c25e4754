//! The log itself: segment rotation, fsync policy, torn-tail repair on
//! open, and retention keyed to the newest durable checkpoint.
//!
//! Single-writer by construction: the serving write loop owns the `Wal`
//! exclusively, so no internal locking is needed. Appends go to the
//! *active* segment; when it outgrows `segment_bytes` it is sealed
//! (fsynced) and a fresh segment starts. [`Wal::prune_through`] deletes
//! sealed segments whose every record is at or below the durable
//! checkpoint epoch — the active segment is never deleted.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::fault;
use crate::record::WalRecord;
use crate::segment::{frame, scan, SEGMENT_MAGIC};

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append. Maximum durability, pays one
    /// device flush per slide.
    PerBatch,
    /// `fdatasync` at most once per interval; a crash can lose the
    /// batches acknowledged since the last flush.
    Interval(Duration),
    /// Never fsync on append (only on seal/shutdown). Fastest; a crash
    /// loses whatever the kernel had not written back.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `batch`, `off`, or `interval:<ms>`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "batch" => Ok(FsyncPolicy::PerBatch),
            "off" => Ok(FsyncPolicy::Off),
            other => {
                let ms = other
                    .strip_prefix("interval:")
                    .and_then(|ms| ms.parse::<u64>().ok())
                    .ok_or_else(|| {
                        format!("bad fsync policy `{other}` (want batch, off, or interval:<ms>)")
                    })?;
                Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::PerBatch => write!(f, "batch"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Tuning knobs for [`Wal::open`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Seal the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Flush discipline for appends.
    pub fsync: FsyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
        }
    }
}

/// Counters surfaced in `/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended this process lifetime.
    pub appends: u64,
    /// Device flushes issued.
    pub syncs: u64,
    /// Payload + framing bytes written this process lifetime.
    pub bytes_written: u64,
    /// Segments deleted by retention.
    pub pruned_segments: u64,
    /// Wall time spent inside device flushes, total. Together with
    /// `syncs`, lets callers derive per-fsync latency deltas.
    pub sync_nanos: u64,
}

impl std::ops::Add for WalStats {
    type Output = WalStats;

    /// Field-wise sum, for merging the stats of several logs.
    fn add(self, rhs: WalStats) -> WalStats {
        WalStats {
            appends: self.appends + rhs.appends,
            syncs: self.syncs + rhs.syncs,
            bytes_written: self.bytes_written + rhs.bytes_written,
            pruned_segments: self.pruned_segments + rhs.pruned_segments,
            sync_nanos: self.sync_nanos + rhs.sync_nanos,
        }
    }
}

struct Segment {
    seq: u64,
    path: PathBuf,
    /// Highest record epoch in the segment; 0 if it has none.
    max_epoch: u64,
    len: u64,
}

/// A write-ahead log rooted at one directory.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    /// All live segments in sequence order; the last one is active.
    segments: Vec<Segment>,
    active: File,
    last_sync: Instant,
    dirty: bool,
    stats: WalStats,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.seg"))
}

fn parse_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".seg")?.parse().ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn create_segment(dir: &Path, seq: u64) -> io::Result<(File, Segment)> {
    let path = segment_path(dir, seq);
    let mut f = OpenOptions::new().create_new(true).append(true).open(&path)?;
    f.write_all(SEGMENT_MAGIC)?;
    f.sync_data()?;
    sync_dir(dir)?;
    let seg = Segment { seq, path, max_epoch: 0, len: SEGMENT_MAGIC.len() as u64 };
    Ok((f, seg))
}

impl Wal {
    /// Opens (or creates) the log under `dir`, repairing any torn tail:
    /// the first invalid frame truncates its segment to the valid prefix
    /// and discards every later segment. Returns the log plus all
    /// surviving records in append order — the caller replays the ones
    /// past its checkpoint.
    pub fn open(dir: &Path, opts: WalOptions) -> io::Result<(Wal, Vec<WalRecord>)> {
        fs::create_dir_all(dir)?;
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_seq) {
                found.push((seq, entry.path()));
            }
        }
        found.sort_by_key(|&(seq, _)| seq);
        let max_seen_seq = found.last().map_or(0, |&(seq, _)| seq);

        let mut records = Vec::new();
        let mut segments = Vec::new();
        let mut repaired = false;
        for (i, (seq, path)) in found.iter().enumerate() {
            let out = scan(path)?;
            let max_epoch = out.records.iter().map(WalRecord::epoch).max().unwrap_or(0);
            records.extend(out.records);
            if out.clean {
                segments.push(Segment {
                    seq: *seq,
                    path: path.clone(),
                    max_epoch,
                    len: out.valid_len,
                });
                continue;
            }
            // Torn or corrupt: keep the valid prefix of this segment (if
            // any) and drop everything after it in log order.
            repaired = true;
            if out.valid_len == 0 {
                fs::remove_file(path)?;
            } else {
                OpenOptions::new().write(true).open(path)?.set_len(out.valid_len)?;
                segments.push(Segment {
                    seq: *seq,
                    path: path.clone(),
                    max_epoch,
                    len: out.valid_len,
                });
            }
            for (_, later) in &found[i + 1..] {
                fs::remove_file(later)?;
            }
            break;
        }

        let active = match segments.last() {
            Some(last) => OpenOptions::new().append(true).open(&last.path)?,
            None => {
                let (f, seg) = create_segment(dir, max_seen_seq + 1)?;
                segments.push(seg);
                f
            }
        };
        if repaired {
            sync_dir(dir)?;
        }
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                opts,
                segments,
                active,
                last_sync: Instant::now(),
                dirty: false,
                stats: WalStats::default(),
            },
            records,
        ))
    }

    /// Appends one record, rotating and flushing per policy.
    ///
    /// Crash-injection sites: `append-partial` (dies after writing half
    /// the frame — the torn-tail case repair must handle) and
    /// `append-done` (dies after the full write, before any ack).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let bytes = frame(&rec.encode());
        let seg = self.segments.last_mut().expect("wal always has an active segment");
        if seg.len > SEGMENT_MAGIC.len() as u64
            && seg.len + bytes.len() as u64 > self.opts.segment_bytes
        {
            self.rotate()?;
        }
        if fault::crash_hit("append-partial") {
            let cut = bytes.len() / 2;
            let _ = self.active.write_all(&bytes[..cut]);
            let _ = self.active.sync_data();
            fault::die("append-partial");
        }
        self.active.write_all(&bytes)?;
        self.dirty = true;
        let seg = self.segments.last_mut().expect("wal always has an active segment");
        seg.len += bytes.len() as u64;
        seg.max_epoch = seg.max_epoch.max(rec.epoch());
        self.stats.appends += 1;
        self.stats.bytes_written += bytes.len() as u64;
        match self.opts.fsync {
            FsyncPolicy::PerBatch => self.sync()?,
            FsyncPolicy::Interval(d) => {
                if self.last_sync.elapsed() >= d {
                    self.sync()?;
                }
            }
            FsyncPolicy::Off => {}
        }
        fault::maybe_crash("append-done");
        Ok(())
    }

    /// Seals the active segment and starts the next one.
    fn rotate(&mut self) -> io::Result<()> {
        self.active.sync_data()?;
        self.dirty = false;
        let next_seq = self.segments.last().expect("active segment").seq + 1;
        let (f, seg) = create_segment(&self.dir, next_seq)?;
        self.active = f;
        self.segments.push(seg);
        fault::maybe_crash("rotate");
        Ok(())
    }

    /// Flushes the active segment to the device if it has unflushed
    /// appends.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            let t = Instant::now();
            self.active.sync_data()?;
            self.dirty = false;
            self.stats.syncs += 1;
            self.stats.sync_nanos += t.elapsed().as_nanos() as u64;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Deletes sealed segments whose newest record epoch is at or below
    /// `durable_epoch` (the newest durable checkpoint). Returns how many
    /// were removed.
    pub fn prune_through(&mut self, durable_epoch: u64) -> io::Result<usize> {
        let mut removed = 0;
        while self.segments.len() > 1 && self.segments[0].max_epoch <= durable_epoch {
            let seg = self.segments.remove(0);
            fs::remove_file(&seg.path)?;
            removed += 1;
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
            self.stats.pruned_segments += removed as u64;
        }
        Ok(removed)
    }

    /// Live segment count (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Lifetime counters for stats reporting.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_graph::EdgeUpdate;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_ID: AtomicU32 = AtomicU32::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir()
            .join(format!("dppr-wal-log-{}-{tag}-{id}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        d
    }

    fn batch(epoch: u64, n: usize) -> WalRecord {
        WalRecord::Batch {
            epoch,
            window_start: epoch,
            window_end: epoch + n as u64,
            updates: (0..n as u32).map(|i| EdgeUpdate::insert(i, i + 1)).collect(),
        }
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = test_dir("roundtrip");
        let recs: Vec<WalRecord> =
            (1..=5).map(|e| batch(e, e as usize)).chain([WalRecord::Checkpoint { epoch: 3 }]).collect();
        {
            let (mut wal, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
            assert!(replay.is_empty());
            for r in &recs {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(replay, recs);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_and_replay_spans_segments() {
        let dir = test_dir("rotate");
        let opts = WalOptions { segment_bytes: 256, fsync: FsyncPolicy::Off };
        let recs: Vec<WalRecord> = (1..=20).map(|e| batch(e, 8)).collect();
        {
            let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
            assert!(wal.segment_count() > 2, "expected rotation, got {}", wal.segment_count());
            wal.sync().unwrap();
        }
        let (wal, replay) = Wal::open(&dir, opts).unwrap();
        assert_eq!(replay, recs);
        assert!(wal.segment_count() > 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_active_and_post_checkpoint_segments() {
        let dir = test_dir("prune");
        let opts = WalOptions { segment_bytes: 256, fsync: FsyncPolicy::Off };
        let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
        for e in 1..=20 {
            wal.append(&batch(e, 8)).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.segment_count();
        assert!(before > 2);
        // Nothing durable yet below epoch 1 → nothing prunable.
        assert_eq!(wal.prune_through(0).unwrap(), 0);
        let removed = wal.prune_through(10).unwrap();
        assert!(removed > 0);
        assert_eq!(wal.segment_count(), before - removed);
        // Replay after pruning still has every record past epoch 10.
        drop(wal);
        let (_, replay) = Wal::open(&dir, opts).unwrap();
        let epochs: Vec<u64> = replay.iter().map(WalRecord::epoch).collect();
        assert!(epochs.contains(&20));
        assert!(epochs.windows(2).all(|w| w[0] < w[1]));
        assert!(*epochs.first().unwrap() <= 11, "pruned past the checkpoint: {epochs:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn never_prunes_everything() {
        let dir = test_dir("prune-all");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&batch(1, 2)).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.prune_through(u64::MAX).unwrap(), 0);
        assert_eq!(wal.segment_count(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = test_dir("torn");
        let opts = WalOptions { segment_bytes: 1 << 20, fsync: FsyncPolicy::Off };
        {
            let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
            for e in 1..=3 {
                wal.append(&batch(e, 4)).unwrap();
            }
            wal.sync().unwrap();
        }
        // Tear the final record.
        let path = segment_path(&dir, 1);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 5).unwrap();

        let (mut wal, replay) = Wal::open(&dir, opts.clone()).unwrap();
        assert_eq!(replay, vec![batch(1, 4), batch(2, 4)]);
        // The log is usable again after repair.
        wal.append(&batch(3, 4)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&dir, opts).unwrap();
        assert_eq!(replay, vec![batch(1, 4), batch(2, 4), batch(3, 4)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_drops_later_segments_too() {
        let dir = test_dir("cascade");
        let opts = WalOptions { segment_bytes: 256, fsync: FsyncPolicy::Off };
        {
            let (mut wal, _) = Wal::open(&dir, opts.clone()).unwrap();
            for e in 1..=20 {
                wal.append(&batch(e, 8)).unwrap();
            }
            assert!(wal.segment_count() >= 3);
            wal.sync().unwrap();
        }
        // Flip a bit in the FIRST segment's second frame: everything from
        // there on — including whole later segments — must be discarded,
        // because replay order would otherwise have a hole.
        let first = segment_path(&dir, 1);
        let mut bytes = fs::read(&first).unwrap();
        let one = batch(1, 8).encode().len() + crate::segment::FRAME_HEADER;
        let at = SEGMENT_MAGIC.len() + one + 12; // inside the second frame's payload
        bytes[at] ^= 0x01;
        fs::write(&first, &bytes).unwrap();

        let (wal, replay) = Wal::open(&dir, opts).unwrap();
        assert_eq!(replay, vec![batch(1, 8)]);
        assert_eq!(wal.segment_count(), 1, "later segments must be gone");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fully_corrupt_single_segment_resets_log() {
        let dir = test_dir("reset");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 7), b"garbage, not a segment").unwrap();
        let (mut wal, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(replay.is_empty());
        assert_eq!(wal.segment_count(), 1);
        wal.append(&batch(1, 1)).unwrap();
        wal.sync().unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("batch").unwrap(), FsyncPolicy::PerBatch);
        assert_eq!(FsyncPolicy::parse("off").unwrap(), FsyncPolicy::Off);
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("interval:abc").is_err());
        assert_eq!(FsyncPolicy::parse("interval:250").unwrap().to_string(), "interval:250");
    }
}
