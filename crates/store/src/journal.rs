//! The group-commit write journal: batches of pushed records land as
//! **one checksummed segment append with one fsync**, become readable
//! the instant that fsync returns, and drain into the content-addressed
//! record files asynchronously.
//!
//! ## Why
//!
//! The store's own write path ([`ResultStore::save`]) is per-record
//! durable: temp file, `sync_data`, rename — one fsync *per record*.
//! That is the right trade for a worker healing its local cache, but it
//! caps a central server absorbing whole campaign sweeps: a 7-record
//! `batch-put` pays 7 fsyncs. The journal flips the cost model: the
//! entire batch is encoded into a single frame, appended to the active
//! segment, and fsynced **once**; the caller acks only after that fsync
//! returns, so *acked implies durable* with one disk barrier per batch
//! no matter how many records it carries.
//!
//! ## Layout and frame format
//!
//! Segments live under `<store_root>/journal/` as
//! `seg-<seq:016x>.wal`, strictly ordered by `seq`. Each frame is one
//! committed batch:
//!
//! ```text
//! [magic "DRIJ"][entry count u32][flags u8 = 0][body len u64][body][fnv64]
//! ```
//!
//! with the body a concatenation of
//! `[kind len u8][kind][schema u32][key u128][payload len u32][payload]`
//! entries (all little-endian). The checksum covers everything before
//! it, so a torn append — the crash case — invalidates the *entire*
//! batch: a frame is all-or-nothing, and an unacked batch can never
//! surface a subset of its records after recovery.
//!
//! ## Recovery
//!
//! [`Journal::open`] replays every segment in sequence order into an
//! in-memory index, stopping a segment's scan at the first invalid
//! frame (torn tail, bit flip, short header — anything the checksum or
//! bounds checks reject). A frame that passes its checksum but sets a
//! flag bit is no torn tail: it is an acked batch in a shape this
//! version cannot read (older versions set bit 0 on compressed
//! bodies), so open fails with `InvalidData` rather than drop it and
//! every acked frame after it. Recovered segments are immediately
//! eligible for compaction, so a crashed server's journal drains into
//! ordinary record files shortly after restart.
//!
//! ## Compaction
//!
//! [`Journal::compact`] seals the active segment, snapshots the index,
//! writes every entry through the store's atomic per-record path (off
//! the ack path, where per-record fsyncs are harmless), then removes
//! exactly the entries whose payload `Arc` is still the snapshotted one
//! — a record re-pushed with different bytes *during* compaction keeps
//! its newer journal entry. Drained segments are renamed to
//! `seg-<seq>.wal.compacted` and unlinked; a crash between the two
//! leaves debris the GC walker classifies and sweeps ([`crate::gc`]),
//! while a crash *before* the rename merely re-compacts identical bytes
//! on the next pass — every step is idempotent.
//!
//! ## One journal per root
//!
//! A second journal on a live root would adopt the first one's active
//! segment as sealed during recovery and compact it away while the first
//! still acks into it. So [`Journal::open`] takes an exclusive lock on
//! `<store_root>/journal/LOCK` and fails, naming the root, while another
//! journal holds it. Dropping the journal, or the holding process dying, releases it.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dri_telemetry::{Histogram, Registry, Span};

use crate::hash::fnv64;
use crate::store::ResultStore;

/// Directory under the store root holding journal segments.
pub const JOURNAL_DIR: &str = "journal";
/// Suffix of a live (unsealed or sealed-but-undrained) segment. The GC
/// walker spares these: they may hold the only durable copy of an
/// acked record.
pub const SEGMENT_SUFFIX: &str = ".wal";
/// Suffix of a drained segment awaiting unlink. A crash between the
/// compactor's rename and unlink leaves one behind; the GC walker
/// sweeps it as debris.
pub const COMPACTED_SUFFIX: &str = ".wal.compacted";
/// File under [`JOURNAL_DIR`] whose lock marks the root's one live
/// journal. The GC walker spares it like a live segment.
pub(crate) const LOCK_FILE: &str = "LOCK";

/// First bytes of every journal frame.
const FRAME_MAGIC: [u8; 4] = *b"DRIJ";
/// magic + entry count(u32) + flags(u8) + body length(u64).
const FRAME_HEAD: usize = 4 + 4 + 1 + 8;
/// FNV-1a 64 over head + body, appended after the body.
const FRAME_CHECKSUM: usize = 8;
/// Hard ceiling on a frame body (matches the HTTP layer's body cap):
/// recovery treats anything claiming to be larger as torn.
const MAX_FRAME_BODY: usize = 64 * 1024 * 1024;

/// One record bound for the journal: the same (kind, schema, key,
/// payload) tuple [`ResultStore::save`] takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Record kind (`"dri"`, `"baseline"`, …).
    pub kind: String,
    /// Payload schema version.
    pub schema: u32,
    /// Content-address key.
    pub key: u128,
    /// The record payload (the store re-frames and checksums it).
    pub payload: Vec<u8>,
}

/// Tuning for a [`Journal`].
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// Rotate to a fresh segment once the active one exceeds this.
    pub max_segment_bytes: u64,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            max_segment_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Monotonic counters plus point-in-time depth for one journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records currently readable from the journal index (not yet
    /// compacted into the store).
    pub depth: u64,
    /// Live `.wal` segments on disk (active + sealed).
    pub segments: u64,
    /// Batches appended (each one fsync).
    pub batches: u64,
    /// Records appended across all batches.
    pub appended: u64,
    /// fsyncs issued by appends (== `batches` + torn-write simulations).
    pub fsyncs: u64,
    /// Compaction passes that drained at least one record or segment.
    pub compactions: u64,
    /// Records drained into the store by compaction.
    pub compacted: u64,
    /// Records replayed from segments at open.
    pub recovered: u64,
}

#[derive(Debug, Default)]
struct AtomicJournalStats {
    batches: AtomicU64,
    appended: AtomicU64,
    fsyncs: AtomicU64,
    compactions: AtomicU64,
    compacted: AtomicU64,
    recovered: AtomicU64,
}

/// The segment currently receiving appends.
#[derive(Debug)]
struct ActiveSegment {
    path: PathBuf,
    file: File,
    bytes: u64,
}

/// One indexed record: its `(kind, schema, key)` identity plus payload
/// (the shape compaction snapshots out of the index).
type IndexedRecord = ((String, u32, u128), Arc<Vec<u8>>);

#[derive(Debug, Default)]
struct Inner {
    /// Every record acked-but-not-compacted, newest payload per key.
    /// `Arc` so compaction can snapshot without copying payloads and
    /// later prove (by pointer identity) an entry was not re-pushed
    /// while it drained.
    index: HashMap<(String, u32, u128), Arc<Vec<u8>>>,
    active: Option<ActiveSegment>,
    /// Sealed segments (rotation, append errors, recovery) awaiting
    /// compaction, oldest first.
    sealed: Vec<PathBuf>,
    next_seq: u64,
}

/// A group-commit write journal over one store root. See the module
/// docs for the format and the durability argument.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    /// Holds the root's exclusive lock for the journal's lifetime.
    _lock: File,
    options: JournalOptions,
    inner: Mutex<Inner>,
    stats: AtomicJournalStats,
    fsync_latency: Histogram,
    compact_latency: Histogram,
}

impl Journal {
    /// Opens the journal under `store_root`, replaying every existing
    /// segment (in sequence order, stopping each at its first invalid
    /// frame) into the read index. Fails with `ResourceBusy`, naming the
    /// root, while another journal holds the root's lock, and with
    /// `InvalidData`, naming the segment and offset, on a checksum-valid
    /// frame with unknown flags (see the module docs).
    pub fn open(store_root: &Path, options: JournalOptions) -> io::Result<Journal> {
        let dir = store_root.join(JOURNAL_DIR);
        fs::create_dir_all(&dir)?;
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        lock.try_lock().map_err(|err| match err {
            fs::TryLockError::WouldBlock => io::Error::new(
                io::ErrorKind::ResourceBusy,
                format!(
                    "store root {} is locked by another live journal",
                    store_root.display()
                ),
            ),
            fs::TryLockError::Error(err) => err,
        })?;
        let registry = Registry::global();
        let journal = Journal {
            dir,
            _lock: lock,
            options,
            inner: Mutex::new(Inner::default()),
            stats: AtomicJournalStats::default(),
            fsync_latency: registry.histogram(
                "dri_journal_fsync_ns",
                "group-commit journal append latency (encode + write + fsync)",
            ),
            compact_latency: registry.histogram(
                "dri_journal_compact_ns",
                "journal compaction pass latency (seal + drain + unlink)",
            ),
        };
        journal.recover()?;
        Ok(journal)
    }

    /// Replays existing segments into the index. Only called from
    /// [`Journal::open`], before the journal is shared.
    fn recover(&self) -> io::Result<()> {
        let mut segments = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(name) => name,
                None => continue,
            };
            if let Some(seq) = segment_seq(name) {
                segments.push((seq, path));
            }
        }
        if segments.is_empty() {
            return Ok(());
        }
        segments.sort();
        let span = Span::begin("journal", "recover");
        let mut inner = self.inner.lock().expect("journal lock");
        let mut recovered = 0u64;
        for (seq, path) in segments {
            let bytes = fs::read(&path)?;
            let mut at = 0usize;
            loop {
                let (entries, frame_len) = match decode_frame(&bytes, at) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(flags) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "journal segment {} offset {at}: checksum-valid frame \
                                 carries unknown flags {flags:#04x} (a compressed frame \
                                 from an older server?); refusing to drop acked records",
                                path.display()
                            ),
                        ));
                    }
                };
                for entry in entries {
                    inner.index.insert(
                        (entry.kind, entry.schema, entry.key),
                        Arc::new(entry.payload),
                    );
                    recovered += 1;
                }
                at += frame_len;
            }
            // A valid prefix was replayed; anything after `at` is a torn
            // or corrupt tail and is dropped when compaction drains the
            // segment. Never append after a torn tail: the segment is
            // sealed as-is and a fresh one takes the writes.
            inner.sealed.push(path);
            inner.next_seq = inner.next_seq.max(seq + 1);
        }
        self.stats.recovered.store(recovered, Ordering::Relaxed);
        let segments = inner.sealed.len();
        drop(inner);
        span.label("records", &recovered.to_string())
            .label("segments", &segments.to_string())
            .finish("replayed");
        Ok(())
    }

    /// Appends `entries` as one frame with **one fsync**, then indexes
    /// them. When this returns `Ok`, every entry is durable and
    /// immediately readable via [`Journal::lookup`] — the caller may
    /// ack. On an error the frame may be torn on disk; the segment is
    /// sealed (recovery and compaction drop torn tails) and nothing is
    /// indexed, so a failed append never surfaces a partial batch.
    pub fn append_batch(&self, entries: Vec<JournalEntry>) -> io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(&entries);
        let started = Instant::now();
        let mut inner = self.inner.lock().expect("journal lock");
        let result: io::Result<()> = (|| {
            let active = self.active_segment(&mut inner, frame.len() as u64)?;
            active.file.write_all(&frame)?;
            active.file.sync_data()?;
            active.bytes += frame.len() as u64;
            Ok(())
        })();
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Err(err) = result {
            if let Some(active) = inner.active.take() {
                inner.sealed.push(active.path);
            }
            return Err(err);
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .appended
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        for entry in entries {
            inner.index.insert(
                (entry.kind, entry.schema, entry.key),
                Arc::new(entry.payload),
            );
        }
        drop(inner);
        self.fsync_latency.record_duration(started.elapsed());
        Ok(())
    }

    /// Writes only the first `keep` bytes of the frame `entries` would
    /// produce — a deterministic torn write, exactly what a crash
    /// mid-append leaves behind — then seals the segment. Nothing is
    /// indexed and no ack should follow; the `DRI_FAULT` crash clause
    /// and the torn-write tests use this to prove recovery drops the
    /// whole batch.
    pub fn simulate_torn_append(&self, entries: &[JournalEntry], keep: usize) -> io::Result<()> {
        let frame = encode_frame(entries);
        let keep = keep.min(frame.len().saturating_sub(1)).max(1);
        let mut inner = self.inner.lock().expect("journal lock");
        let active = self.active_segment(&mut inner, frame.len() as u64)?;
        active.file.write_all(&frame[..keep])?;
        active.file.sync_data()?;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Some(active) = inner.active.take() {
            inner.sealed.push(active.path);
        }
        Ok(())
    }

    /// The active segment, rotating (seal + create) when the incoming
    /// frame would push it past the size budget.
    fn active_segment<'a>(
        &self,
        inner: &'a mut Inner,
        incoming: u64,
    ) -> io::Result<&'a mut ActiveSegment> {
        let rotate = match &inner.active {
            Some(active) => {
                active.bytes > 0 && active.bytes + incoming > self.options.max_segment_bytes
            }
            None => true,
        };
        if rotate {
            if let Some(active) = inner.active.take() {
                inner.sealed.push(active.path);
            }
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let path = self.dir.join(format!("seg-{seq:016x}{SEGMENT_SUFFIX}"));
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            inner.active = Some(ActiveSegment {
                path,
                file,
                bytes: 0,
            });
        }
        Ok(inner.active.as_mut().expect("active segment after rotate"))
    }

    /// The payload for `(kind, schema, key)` if the journal still holds
    /// it — the read tier in front of the store: a record is visible
    /// here from the moment its batch's fsync returned until compaction
    /// lands it in a record file.
    pub fn lookup(&self, kind: &str, schema: u32, key: u128) -> Option<Arc<Vec<u8>>> {
        let inner = self.inner.lock().expect("journal lock");
        // A borrowed-tuple probe would need `Borrow` gymnastics; the
        // index is small (it drains every compaction interval), so an
        // owned key probe is fine on this path.
        inner.index.get(&(kind.to_owned(), schema, key)).cloned()
    }

    /// Records currently readable from the journal (acked, not yet
    /// compacted).
    pub fn depth(&self) -> u64 {
        self.inner.lock().expect("journal lock").index.len() as u64
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> JournalStats {
        let inner = self.inner.lock().expect("journal lock");
        let segments = inner.sealed.len() as u64 + u64::from(inner.active.is_some());
        JournalStats {
            depth: inner.index.len() as u64,
            segments,
            batches: self.stats.batches.load(Ordering::Relaxed),
            appended: self.stats.appended.load(Ordering::Relaxed),
            fsyncs: self.stats.fsyncs.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            compacted: self.stats.compacted.load(Ordering::Relaxed),
            recovered: self.stats.recovered.load(Ordering::Relaxed),
        }
    }

    /// Drains the journal into `store`: seals the active segment,
    /// writes every indexed record through the store's atomic
    /// per-record path, removes the entries that were not re-pushed
    /// meanwhile, and unlinks the drained segments (via a `.compacted`
    /// rename, so a crash mid-sweep leaves classifiable debris).
    /// Returns the number of records drained. On a store write error
    /// nothing is forgotten: index and segments stay put and the next
    /// pass retries idempotently.
    pub fn compact(&self, store: &ResultStore) -> io::Result<u64> {
        let mut inner = self.inner.lock().expect("journal lock");
        if inner.active.is_none() && inner.sealed.is_empty() {
            return Ok(0);
        }
        let started = Instant::now();
        let span = Span::begin("journal", "compact");
        if let Some(active) = inner.active.take() {
            inner.sealed.push(active.path);
        }
        let snapshot: Vec<IndexedRecord> = inner
            .index
            .iter()
            .map(|(key, payload)| (key.clone(), Arc::clone(payload)))
            .collect();
        let segments: Vec<PathBuf> = inner.sealed.clone();
        drop(inner);

        // Per-record fsyncs happen here, off the ack path, one writer.
        for ((kind, schema, key), payload) in &snapshot {
            store.try_save(kind, *schema, *key, payload)?;
        }

        let mut inner = self.inner.lock().expect("journal lock");
        for (key, payload) in &snapshot {
            // Pointer identity proves the indexed value is the one we
            // just persisted; a concurrent re-push swapped the Arc and
            // must stay visible until the *next* compaction.
            if inner
                .index
                .get(key)
                .is_some_and(|held| Arc::ptr_eq(held, payload))
            {
                inner.index.remove(key);
            }
        }
        inner.sealed.retain(|path| !segments.contains(path));
        drop(inner);

        for path in &segments {
            let tomb = path.with_extension("wal.compacted");
            // Best-effort: a failure at either step leaves a file the
            // GC walker classifies (live `.wal` or `.compacted` debris).
            if fs::rename(path, &tomb).is_ok() {
                let _ = fs::remove_file(&tomb);
            }
        }

        self.stats.compactions.fetch_add(1, Ordering::Relaxed);
        self.stats
            .compacted
            .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        self.compact_latency.record_duration(started.elapsed());
        span.label("records", &snapshot.len().to_string())
            .label("segments", &segments.len().to_string())
            .finish("drained");
        Ok(snapshot.len() as u64)
    }
}

/// Parses `seg-<seq:016x>.wal` names, ignoring everything else (in
/// particular `.wal.compacted` debris, which is dead by definition).
fn segment_seq(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(SEGMENT_SUFFIX)?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

/// Encodes one batch as a self-validating frame (see the module docs).
fn encode_frame(entries: &[JournalEntry]) -> Vec<u8> {
    let mut body = Vec::new();
    for entry in entries {
        debug_assert!(entry.kind.len() <= u8::MAX as usize, "kind fits u8 length");
        body.push(entry.kind.len() as u8);
        body.extend_from_slice(entry.kind.as_bytes());
        body.extend_from_slice(&entry.schema.to_le_bytes());
        body.extend_from_slice(&entry.key.to_le_bytes());
        body.extend_from_slice(&(entry.payload.len() as u32).to_le_bytes());
        body.extend_from_slice(&entry.payload);
    }
    let mut frame = Vec::with_capacity(FRAME_HEAD + body.len() + FRAME_CHECKSUM);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    frame.push(0); // flags: none defined
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(&body);
    let checksum = fnv64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// Decodes the frame starting at `bytes[at..]`, returning its entries
/// and its total length. `Ok(None)` means torn, corrupt, or absent —
/// recovery stops the segment scan there. `Err(flags)` is a frame that
/// passed its checksum but sets flag bits this version does not know.
fn decode_frame(bytes: &[u8], at: usize) -> Result<Option<(Vec<JournalEntry>, usize)>, u8> {
    let Some(head) = bytes.get(at..at + FRAME_HEAD) else {
        return Ok(None);
    };
    let body_len = u64::from_le_bytes(head[9..17].try_into().expect("8 bytes"));
    if head[0..4] != FRAME_MAGIC || body_len > MAX_FRAME_BODY as u64 {
        return Ok(None);
    }
    let body_start = at + FRAME_HEAD;
    let body_end = body_start + body_len as usize;
    let frame_end = body_end + FRAME_CHECKSUM;
    let Some(trailer) = bytes.get(body_end..frame_end) else {
        return Ok(None);
    };
    if fnv64(&bytes[at..body_end]) != u64::from_le_bytes(trailer.try_into().expect("8 bytes")) {
        return Ok(None);
    }
    let flags = head[8];
    if flags != 0 {
        return Err(flags);
    }
    let count = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) as usize;
    Ok(decode_body(&bytes[body_start..body_end], count).map(|entries| (entries, frame_end - at)))
}

/// Decodes exactly `count` entries consuming the whole `body`.
fn decode_body(body: &[u8], count: usize) -> Option<Vec<JournalEntry>> {
    let mut entries = Vec::with_capacity(count.min(1024));
    let mut at = 0usize;
    for _ in 0..count {
        let kind_len = *body.get(at)? as usize;
        at += 1;
        let kind = std::str::from_utf8(body.get(at..at + kind_len)?).ok()?;
        at += kind_len;
        let schema = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?);
        at += 4;
        let key = u128::from_le_bytes(body.get(at..at + 16)?.try_into().ok()?);
        at += 16;
        let payload_len = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        let payload = body.get(at..at + payload_len)?.to_vec();
        at += payload_len;
        entries.push(JournalEntry {
            kind: kind.to_owned(),
            schema,
            key,
            payload,
        });
    }
    (at == body.len()).then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dri-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("temp root");
        root
    }

    fn entry(kind: &str, key: u128, payload: &[u8]) -> JournalEntry {
        JournalEntry {
            kind: kind.to_owned(),
            schema: 1,
            key,
            payload: payload.to_vec(),
        }
    }

    fn segment_files(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(root.join(JOURNAL_DIR))
            .map(|dir| {
                dir.filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .filter(|name| name != LOCK_FILE)
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    #[test]
    fn appended_batches_are_readable_and_survive_reopen() {
        let root = temp_root("reopen");
        let journal = Journal::open(&root, JournalOptions::default()).expect("open");
        journal
            .append_batch(vec![entry("dri", 1, b"one"), entry("dri", 2, b"two")])
            .expect("append");
        journal
            .append_batch(vec![entry("decay", 1, b"other kind")])
            .expect("append");
        assert_eq!(
            journal.lookup("dri", 1, 1).as_deref().map(|p| &p[..]),
            Some(&b"one"[..])
        );
        assert_eq!(journal.lookup("dri", 1, 9), None);
        assert_eq!(journal.depth(), 3);
        let stats = journal.stats();
        assert_eq!((stats.batches, stats.appended, stats.fsyncs), (2, 3, 2));
        drop(journal);

        let reopened = Journal::open(&root, JournalOptions::default()).expect("reopen");
        assert_eq!(reopened.depth(), 3);
        assert_eq!(reopened.stats().recovered, 3);
        assert_eq!(
            reopened.lookup("decay", 1, 1).as_deref().map(|p| &p[..]),
            Some(&b"other kind"[..])
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_second_journal_on_a_live_root_fails_until_the_first_drops() {
        let root = temp_root("lock");
        let journal = Journal::open(&root, JournalOptions::default()).expect("open");
        journal
            .append_batch(vec![entry("dri", 1, b"live")])
            .unwrap();
        let err = Journal::open(&root, JournalOptions::default())
            .expect_err("a second journal on a live root must not open");
        assert_eq!(err.kind(), io::ErrorKind::ResourceBusy);
        assert!(
            err.to_string().contains(&root.display().to_string()),
            "the error names the root: {err}"
        );
        drop(journal);
        let reopened = Journal::open(&root, JournalOptions::default()).expect("reopen after drop");
        assert_eq!(reopened.stats().recovered, 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_rewrite_of_the_same_key_serves_the_newest_payload() {
        let root = temp_root("rewrite");
        let journal = Journal::open(&root, JournalOptions::default()).expect("open");
        journal.append_batch(vec![entry("dri", 5, b"old")]).unwrap();
        journal.append_batch(vec![entry("dri", 5, b"new")]).unwrap();
        assert_eq!(journal.depth(), 1, "one key, one entry");
        assert_eq!(
            journal.lookup("dri", 1, 5).as_deref().map(|p| &p[..]),
            Some(&b"new"[..])
        );
        // Recovery replays in order, so the newest payload still wins.
        drop(journal);
        let reopened = Journal::open(&root, JournalOptions::default()).expect("reopen");
        assert_eq!(
            reopened.lookup("dri", 1, 5).as_deref().map(|p| &p[..]),
            Some(&b"new"[..])
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn segments_rotate_at_the_size_budget() {
        let root = temp_root("rotate");
        let options = JournalOptions {
            max_segment_bytes: 256,
        };
        let journal = Journal::open(&root, options).expect("open");
        for key in 0..6u128 {
            journal
                .append_batch(vec![entry("dri", key, &[key as u8; 100])])
                .expect("append");
        }
        let segments = segment_files(&root);
        assert!(
            segments.len() >= 3,
            "6 x ~130-byte frames under a 256-byte budget rotate: {segments:?}"
        );
        assert_eq!(journal.stats().segments, segments.len() as u64);
        // Rotation loses nothing.
        drop(journal);
        let reopened = Journal::open(&root, options).expect("reopen");
        assert_eq!(reopened.depth(), 6);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn compaction_drains_into_the_store_and_unlinks_segments() {
        let root = temp_root("compact");
        let store = ResultStore::open(&root).expect("store");
        let journal = Journal::open(&root, JournalOptions::default()).expect("open");
        journal
            .append_batch(vec![
                entry("dri", 7, b"drained payload"),
                entry("dri", 8, b"second"),
            ])
            .expect("append");
        assert_eq!(store.load("dri", 1, 7), None, "not in the store yet");
        let drained = journal.compact(&store).expect("compact");
        assert_eq!(drained, 2);
        assert_eq!(journal.depth(), 0);
        assert_eq!(
            store.load("dri", 1, 7).as_deref(),
            Some(&b"drained payload"[..]),
            "the store serves the drained record"
        );
        assert_eq!(
            segment_files(&root),
            Vec::<String>::new(),
            "segments unlinked"
        );
        assert_eq!(journal.compact(&store).expect("idle compact"), 0);
        let stats = journal.stats();
        assert_eq!((stats.compactions, stats.compacted), (1, 2));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_torn_tail_recovers_the_acked_prefix_and_only_that() {
        let root = temp_root("torn");
        let journal = Journal::open(&root, JournalOptions::default()).expect("open");
        journal
            .append_batch(vec![entry("dri", 1, b"acked one")])
            .unwrap();
        journal
            .append_batch(vec![entry("dri", 2, b"acked two")])
            .unwrap();
        journal
            .simulate_torn_append(
                &[
                    entry("dri", 3, b"never acked"),
                    entry("dri", 4, b"also lost"),
                ],
                21,
            )
            .expect("torn append");
        assert_eq!(
            journal.lookup("dri", 1, 3),
            None,
            "torn batch never indexed"
        );
        drop(journal);

        let reopened = Journal::open(&root, JournalOptions::default()).expect("recover");
        assert_eq!(
            reopened.stats().recovered,
            2,
            "both acked records, nothing else"
        );
        assert_eq!(
            reopened.lookup("dri", 1, 2).as_deref().map(|p| &p[..]),
            Some(&b"acked two"[..])
        );
        assert_eq!(reopened.lookup("dri", 1, 3), None);
        assert_eq!(reopened.lookup("dri", 1, 4), None);
        // Appends after recovery go to a fresh segment, never after the
        // torn tail, and compaction then discards the garbage.
        reopened
            .append_batch(vec![entry("dri", 5, b"post crash")])
            .unwrap();
        drop(reopened);
        let again = Journal::open(&root, JournalOptions::default()).expect("recover again");
        assert_eq!(again.stats().recovered, 3);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn compaction_persists_the_newest_payload_for_a_rewritten_key() {
        let root = temp_root("repush");
        let store = ResultStore::open(&root).expect("store");
        let journal = Journal::open(&root, JournalOptions::default()).expect("open");
        journal
            .append_batch(vec![entry("dri", 9, b"first")])
            .unwrap();
        // A rewrite swaps the indexed Arc — the identity the compaction
        // sweep uses to decide whether an entry may be dropped.
        let held = journal.lookup("dri", 1, 9).expect("indexed");
        journal
            .append_batch(vec![entry("dri", 9, b"second")])
            .unwrap();
        assert!(!Arc::ptr_eq(&held, &journal.lookup("dri", 1, 9).unwrap()));
        journal.compact(&store).expect("compact");
        assert_eq!(journal.lookup("dri", 1, 9), None, "drained");
        assert_eq!(store.load("dri", 1, 9).as_deref(), Some(&b"second"[..]));
        let _ = fs::remove_dir_all(root);
    }
}
