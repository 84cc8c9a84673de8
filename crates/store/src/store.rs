//! The on-disk store proper: sharded record files with validated headers,
//! atomic publication, and best-effort semantics (I/O failures degrade to
//! cache misses, never to errors the simulation pipeline must handle).

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dri_telemetry::{Histogram, Registry};

use crate::hash::fnv64;

/// First bytes of every record file.
const MAGIC: [u8; 4] = *b"DRIS";
/// magic + schema(u32) + key(u128) + payload length(u64).
const HEADER_LEN: usize = 4 + 4 + 16 + 8;
/// FNV-1a 64 over header + payload, appended after the payload.
const CHECKSUM_LEN: usize = 8;

/// File at the store root holding the current GC generation (ASCII u64).
pub(crate) const GENERATION_FILE: &str = "generation";

/// Validates one raw record (as read from disk or received over the
/// wire) against the expected `schema` and `key`, returning the payload
/// slice on success.
///
/// This is the exact check [`ResultStore::load`] applies: magic, schema,
/// embedded key, declared payload length, and the trailing FNV-1a 64
/// checksum all have to match. It is exposed so a *remote* reader (the
/// `dri-serve` client) can apply the same end-to-end validation to bytes
/// that crossed a network instead of a filesystem.
pub fn validate_record(bytes: &[u8], schema: u32, key: u128) -> Option<&[u8]> {
    let body = bytes.len().checked_sub(CHECKSUM_LEN)?;
    let payload_len = body.checked_sub(HEADER_LEN)?;
    if bytes[0..4] != MAGIC {
        return None;
    }
    if u32::from_le_bytes(bytes[4..8].try_into().ok()?) != schema {
        return None;
    }
    if u128::from_le_bytes(bytes[8..24].try_into().ok()?) != key {
        return None;
    }
    if u64::from_le_bytes(bytes[24..32].try_into().ok()?) != payload_len as u64 {
        return None;
    }
    let declared = u64::from_le_bytes(bytes[body..].try_into().ok()?);
    if fnv64(&bytes[..body]) != declared {
        return None;
    }
    Some(&bytes[HEADER_LEN..body])
}

/// Builds the complete on-disk/wire record for `(schema, key, payload)`:
/// magic, schema, key, payload length, payload, trailing FNV-1a 64
/// checksum — exactly the bytes [`ResultStore::save`] persists and
/// [`validate_record`] accepts.
///
/// Exposed so a *pushing* client (the `dri-serve` write path) can frame a
/// locally computed payload into the same self-validating record the
/// serving host would have written itself; the receiver re-validates
/// before a byte lands on its disk.
///
/// ```
/// use dri_store::{frame_record, validate_record};
///
/// let record = frame_record(1, 0xabcd, b"counters");
/// assert_eq!(validate_record(&record, 1, 0xabcd), Some(&b"counters"[..]));
/// assert_eq!(validate_record(&record, 2, 0xabcd), None, "wrong schema");
/// ```
pub fn frame_record(schema: u32, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    record.extend_from_slice(&MAGIC);
    record.extend_from_slice(&schema.to_le_bytes());
    record.extend_from_slice(&key.to_le_bytes());
    record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    record.extend_from_slice(payload);
    let checksum = fnv64(&record);
    record.extend_from_slice(&checksum.to_le_bytes());
    record
}

/// Monotonic counters describing one store's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records loaded and validated successfully.
    pub hits: u64,
    /// Lookups that found no file.
    pub misses: u64,
    /// Lookups that found a file but rejected it (bad magic, wrong
    /// schema, key mismatch, truncation, or checksum failure).
    pub corrupt: u64,
    /// Records written (published via rename).
    pub writes: u64,
    /// Writes abandoned due to I/O errors (disk full, permissions, …).
    pub write_errors: u64,
    /// Payload bytes returned by successful loads.
    pub bytes_read: u64,
    /// Total file bytes written by successful saves.
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A content-addressed store rooted at one directory (see the crate docs
/// for the layout and durability rules).
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    stats: AtomicStats,
    /// GC generation read from `<root>/generation` at open (0 when the
    /// file is missing). Access stamps use this value; a GC running in
    /// another process may bump the file without this handle noticing,
    /// which only makes this handle's stamps look slightly older —
    /// stamps are advisory eviction hints, never correctness inputs.
    generation: AtomicU64,
    /// Disk-tier load latency (read + validate + decode), process-wide:
    /// every handle shares the global-registry histogram, so a server's
    /// `/metrics` scrape sees its store's disk behaviour.
    load_latency: Histogram,
    /// Disk-tier save latency (frame + temp write + fsync + rename).
    save_latency: Histogram,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let generation = read_generation(&root);
        let registry = Registry::global();
        Ok(ResultStore {
            root,
            stats: AtomicStats::default(),
            generation: AtomicU64::new(generation),
            load_latency: registry.histogram(
                "dri_store_load_ns",
                "disk-tier record load latency (read + validate + decode)",
            ),
            save_latency: registry.histogram(
                "dri_store_save_ns",
                "disk-tier record save latency (frame + write + fsync + rename)",
            ),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The GC generation this handle stamps accesses with (the value of
    /// `<root>/generation` when the store was opened, later bumped by
    /// [`ResultStore::gc`] runs through this same handle).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Persists `generation` to `<root>/generation` (best-effort) and
    /// adopts it for subsequent access stamps.
    pub(crate) fn set_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::Relaxed);
        let _ = fs::write(self.root.join(GENERATION_FILE), generation.to_string());
    }

    /// Best-effort last-access stamp: writes the current generation into
    /// the record's `.gen` sidecar (skipped when already current, so warm
    /// traffic within one generation costs a single 8-byte read). A torn
    /// or missing sidecar only makes the record *look* old to GC — the
    /// worst outcome is an early eviction and a recompute.
    fn stamp(&self, record_path: &Path) {
        let generation = self.generation();
        let sidecar = record_path.with_extension("gen");
        if let Ok(bytes) = fs::read(&sidecar) {
            if let Ok(current) = <[u8; 8]>::try_from(bytes.as_slice()) {
                if u64::from_le_bytes(current) == generation {
                    return;
                }
            }
        }
        let _ = fs::write(&sidecar, generation.to_le_bytes());
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            write_errors: self.stats.write_errors.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// The file a record lives at: `<root>/<kind>/v<schema>/<hh>/<key>.bin`.
    pub fn entry_path(&self, kind: &str, schema: u32, key: u128) -> PathBuf {
        let shard = (key >> 120) as u8;
        self.root
            .join(kind)
            .join(format!("v{schema}"))
            .join(format!("{shard:02x}"))
            .join(format!("{key:032x}.bin"))
    }

    /// Loads and validates the payload stored for `(kind, schema, key)`.
    ///
    /// Returns `None` — counting a miss or a corruption, never erroring —
    /// unless the file exists, carries the expected magic/schema/key,
    /// declares exactly the payload length present, and checksums clean.
    pub fn load(&self, kind: &str, schema: u32, key: u128) -> Option<Vec<u8>> {
        self.load_decoded(kind, schema, key, |payload| Some(payload.to_vec()))
    }

    /// [`Self::load`] with the caller's payload decoder inside the
    /// accounting boundary: a record is a `hit` only if the *decoded*
    /// value is served. A payload that passes the file-level checks but
    /// fails `decode` (a layout change shipped without a schema bump)
    /// counts as `corrupt` — never as a hit — so `--store-stats` cannot
    /// report a store as warm while every point re-simulates.
    pub fn load_decoded<T>(
        &self,
        kind: &str,
        schema: u32,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let started = std::time::Instant::now();
        let path = self.entry_path(kind, schema, key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match validate_record(&bytes, schema, key).and_then(|payload| {
            let len = payload.len() as u64;
            decode(payload).map(|value| (value, len))
        }) {
            Some((value, payload_len)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_read
                    .fetch_add(payload_len, Ordering::Relaxed);
                self.stamp(&path);
                self.load_latency.record_duration(started.elapsed());
                Some(value)
            }
            None => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Loads the **raw record bytes** (header + payload + checksum) for
    /// `(kind, schema, key)`, validating them exactly like [`Self::load`]
    /// and with the same accounting. This is the serving path of the
    /// `dri-serve` result service: the full record travels over the wire
    /// so the remote reader can re-run [`validate_record`] end-to-end.
    pub fn load_record_bytes(&self, kind: &str, schema: u32, key: u128) -> Option<Vec<u8>> {
        let started = std::time::Instant::now();
        let path = self.entry_path(kind, schema, key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match validate_record(&bytes, schema, key) {
            Some(payload) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.stamp(&path);
                self.load_latency.record_duration(started.elapsed());
                // The file is already the wire frame.
                Some(bytes)
            }
            None => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Writes `payload` for `(kind, schema, key)`, atomically replacing
    /// any existing record. Failures are absorbed into `write_errors`:
    /// the store is best-effort and a failed save only costs a future
    /// recompute.
    pub fn save(&self, kind: &str, schema: u32, key: u128, payload: &[u8]) {
        let started = std::time::Instant::now();
        match self.try_save(kind, schema, key, payload) {
            Ok(total) => {
                self.stats.writes.fetch_add(1, Ordering::Relaxed);
                self.stats.bytes_written.fetch_add(total, Ordering::Relaxed);
                self.save_latency.record_duration(started.elapsed());
            }
            Err(_) => {
                self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn try_save(
        &self,
        kind: &str,
        schema: u32,
        key: u128,
        payload: &[u8],
    ) -> io::Result<u64> {
        let path = self.entry_path(kind, schema, key);
        let dir = path.parent().expect("entry path has a shard directory");
        fs::create_dir_all(dir)?;

        let record = frame_record(schema, key, payload);

        // Unique temp name per (process, write): concurrent writers never
        // share a temp file, and the final rename is atomic on POSIX.
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".tmp-{}-{}-{:032x}", std::process::id(), seq, key));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&record)?;
            file.sync_data()?;
            fs::rename(&tmp, &path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        } else {
            // A fresh record starts life stamped with the current
            // generation, so an age-budget GC never evicts what a running
            // campaign just computed.
            self.stamp(&path);
        }
        result.map(|()| record.len() as u64)
    }
}

/// Reads `<root>/generation`, defaulting to 0 on a missing or mangled
/// file (a mangled counter restarts aging from scratch — safe, since
/// stamps only ever influence eviction order).
fn read_generation(root: &Path) -> u64 {
    fs::read_to_string(root.join(GENERATION_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!(
            "dri-store-test-{tag}-{}-{:p}",
            std::process::id(),
            &MAGIC
        ));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("temp store")
    }

    #[test]
    fn roundtrip_hits_and_counts() {
        let store = temp_store("roundtrip");
        let key = 0xfeed_face_u128;
        assert_eq!(store.load("baseline", 1, key), None);
        assert_eq!(store.stats().misses, 1);
        store.save("baseline", 1, key, b"payload bytes");
        assert_eq!(
            store.load("baseline", 1, key).as_deref(),
            Some(b"payload bytes".as_slice())
        );
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.bytes_read, 13);
        assert!(stats.bytes_written > 13, "header + checksum overhead");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn kinds_schemas_and_keys_are_disjoint() {
        let store = temp_store("disjoint");
        store.save("baseline", 1, 1, b"a");
        assert_eq!(store.load("dri", 1, 1), None, "other kind");
        assert_eq!(store.load("baseline", 2, 1), None, "other schema");
        assert_eq!(store.load("baseline", 1, 2), None, "other key");
        assert_eq!(store.load("baseline", 1, 1).as_deref(), Some(&b"a"[..]));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_record_is_corrupt_not_a_hit() {
        let store = temp_store("truncate");
        let key = 7u128;
        store.save("dri", 1, key, b"0123456789");
        let path = store.entry_path("dri", 1, key);
        let full = fs::read(&path).expect("written record");
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN + 3, full.len() - 1] {
            fs::write(&path, &full[..cut]).expect("truncate");
            assert_eq!(store.load("dri", 1, key), None, "cut at {cut}");
        }
        // A checksum-valid `DRIZ` file, the compressed shape older
        // versions wrote for this payload: the header plus a packed-length
        // field, then the varint-delta stream. Loads treat it as ordinary
        // corruption.
        let packed = [
            0x0a, 0xe0, 0xc4, 0x91, 0xb3, 0x86, 0xcd, 0x9a, 0xb6, 0x6e, b'8', b'9',
        ];
        let mut old = b"DRIZ".to_vec();
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&key.to_le_bytes());
        old.extend_from_slice(&10u64.to_le_bytes());
        old.extend_from_slice(&(packed.len() as u64).to_le_bytes());
        old.extend_from_slice(&packed);
        old.extend_from_slice(&fnv64(&old).to_le_bytes());
        fs::write(&path, &old).expect("old compressed record");
        assert_eq!(store.load("dri", 1, key), None, "DRIZ file");
        assert_eq!(store.load_record_bytes("dri", 1, key), None, "DRIZ file");
        assert_eq!(store.stats().corrupt, 7);
        assert_eq!(store.stats().hits, 0);
        // The recompute-and-heal path: the next save replaces it.
        store.save("dri", 1, key, b"0123456789");
        assert_eq!(fs::read(&path).expect("healed record"), full);
        assert_eq!(
            store.load("dri", 1, key).as_deref(),
            Some(&b"0123456789"[..])
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn bitflips_anywhere_are_rejected() {
        let store = temp_store("bitflip");
        let key = 0xabcd_u128;
        store.save("dri", 3, key, b"counter payload");
        let path = store.entry_path("dri", 3, key);
        let full = fs::read(&path).expect("written record");
        for pos in 0..full.len() {
            let mut bad = full.clone();
            bad[pos] ^= 0x40;
            fs::write(&path, &bad).expect("tamper");
            assert_eq!(store.load("dri", 3, key), None, "flip at byte {pos}");
        }
        // Restoring the original bytes restores the hit.
        fs::write(&path, &full).expect("restore");
        assert!(store.load("dri", 3, key).is_some());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn caller_decode_failure_is_corrupt_not_a_hit() {
        let store = temp_store("decode-reject");
        store.save("dri", 1, 5, b"well-formed but wrong layout");
        let decoded: Option<()> =
            store.load_decoded("dri", 1, 5, |payload| (payload.len() == 3).then_some(()));
        assert_eq!(decoded, None);
        let stats = store.stats();
        assert_eq!(stats.hits, 0, "a rejected payload is not a served hit");
        assert_eq!(stats.bytes_read, 0);
        assert_eq!(stats.corrupt, 1);
        // The same record decodes fine for a compatible reader.
        assert!(store.load("dri", 1, 5).is_some());
        assert_eq!(store.stats().hits, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let store = temp_store("overwrite");
        store.save("baseline", 1, 9, b"old");
        store.save("baseline", 1, 9, b"new");
        assert_eq!(store.load("baseline", 1, 9).as_deref(), Some(&b"new"[..]));
        // No temp files left behind.
        let shard = store
            .entry_path("baseline", 1, 9)
            .parent()
            .expect("shard dir")
            .to_path_buf();
        let leftovers: Vec<_> = fs::read_dir(shard)
            .expect("shard dir listing")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_writers_leave_a_valid_record() {
        let store = temp_store("concurrent");
        let key = 0x1234_5678_u128;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.save("dri", 1, key, b"deterministic identical payload");
                    }
                });
            }
        });
        assert_eq!(
            store.load("dri", 1, key).as_deref(),
            Some(b"deterministic identical payload".as_slice())
        );
        assert_eq!(store.stats().write_errors, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn raw_record_bytes_roundtrip_and_validate() {
        let store = temp_store("raw-bytes");
        let key = 0xc0ffee_u128;
        assert_eq!(store.load_record_bytes("dri", 2, key), None);
        assert_eq!(store.stats().misses, 1);
        store.save("dri", 2, key, b"wire payload");
        let raw = store.load_record_bytes("dri", 2, key).expect("raw record");
        assert_eq!(raw, fs::read(store.entry_path("dri", 2, key)).unwrap());
        assert_eq!(
            raw,
            frame_record(2, key, b"wire payload"),
            "a client-framed record is byte-identical to what save() persists"
        );
        // The exported validator accepts the exact on-disk bytes and
        // rejects any other (schema, key) claim about them.
        assert_eq!(validate_record(&raw, 2, key), Some(&b"wire payload"[..]));
        assert_eq!(validate_record(&raw, 3, key), None);
        assert_eq!(validate_record(&raw, 2, key + 1), None);
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.bytes_read, 12, "payload bytes, not file bytes");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn accesses_are_generation_stamped() {
        let store = temp_store("stamps");
        assert_eq!(store.generation(), 0);
        store.save("dri", 1, 11, b"x");
        let sidecar = store.entry_path("dri", 1, 11).with_extension("gen");
        assert_eq!(fs::read(&sidecar).unwrap(), 0u64.to_le_bytes());
        store.set_generation(5);
        assert!(store.load("dri", 1, 11).is_some());
        assert_eq!(fs::read(&sidecar).unwrap(), 5u64.to_le_bytes());
        // A re-opened handle adopts the persisted generation.
        let reopened = ResultStore::open(store.root()).expect("reopen");
        assert_eq!(reopened.generation(), 5);
        let _ = fs::remove_dir_all(store.root());
    }
}
