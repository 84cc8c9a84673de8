//! Garbage collection and compaction for multi-gigabyte campaign roots.
//!
//! A store that absorbs every sweep point of every campaign grows without
//! bound; this module bounds it. Eviction is driven by two independent
//! budgets — an **age budget** in GC generations and a **size budget** in
//! bytes — and is always safe to run concurrently with readers:
//!
//! * Every successful load (and every save) stamps the record's `.gen`
//!   sidecar with the store's current generation
//!   ([`ResultStore::generation`]); each GC run bumps the generation, so
//!   a stamp is "how recently was this record useful" in campaign-run
//!   units, not wall-clock units (a store can sit idle for a month
//!   without aging at all).
//! * Eviction is **tombstone-then-unlink**: the record is atomically
//!   renamed to a `.tomb` name first, then both the tombstone and the
//!   `.gen` sidecar are unlinked. A racing reader therefore observes
//!   either the complete record (its `open` won the race — POSIX keeps
//!   the data alive until the descriptor closes) or no file at all, which
//!   is an ordinary miss: it recomputes and heals, exactly the corruption
//!   path. A **torn read is impossible**.
//! * A `dry_run` pass reports what a real pass would do without renaming,
//!   unlinking, or bumping the generation.
//!
//! Leftover `.tomb` files (a GC process killed between rename and
//! unlink), orphaned `.gen` sidecars (their record was evicted while a
//! reader re-stamped it), stale `.tmp-` files (a writer killed
//! between create and rename; "stale" = older than [`STALE_TMP_AGE`],
//! so an in-flight publication — a matter of milliseconds — is never
//! touched), and drained `.wal.compacted` journal segments (a compactor
//! killed between its rename and unlink; every record inside already
//! lives in an ordinary `.bin` file) are swept opportunistically by
//! every pass, including dry runs' accounting.
//!
//! Campaign lease state ([`crate::lease`]) lives under the same root but
//! is **not** the GC's to manage: `.lease` files match none of the
//! walker's classes, so a pass never counts, evicts, or sweeps a live
//! lease — `suite gc` can run mid-campaign. A lease *write* crashed
//! between create and rename leaves ordinary `.tmp-` debris, which the
//! stale-temp sweep reclaims like any other.
//!
//! Group-commit journal segments ([`crate::journal`]) get the same
//! treatment as leases: a live `seg-*.wal` file may hold the only
//! durable copy of an acked-but-uncompacted record, matches none of the
//! walker's classes, and is never counted, evicted, or swept — `suite
//! gc` can run while a journaling server is mid-campaign. The journal's
//! `LOCK` file matches none of them either.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, SystemTime};

use crate::store::ResultStore;

/// A `.tmp-` file this old is a leak from a crashed writer, not an
/// in-flight publication (publications complete in milliseconds).
pub const STALE_TMP_AGE: Duration = Duration::from_secs(10 * 60);

/// What a GC pass is allowed to evict. With both budgets `None` a pass
/// only sweeps tombstone/sidecar debris and reports usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Evict least-recently-stamped records until the store's record
    /// bytes fit this budget.
    pub max_bytes: Option<u64>,
    /// Evict records whose stamp is more than this many generations
    /// behind the post-bump generation (0 = everything not stamped in
    /// the generation being created now, i.e. everything).
    pub max_age: Option<u64>,
    /// Report what would be evicted without deleting anything (the
    /// generation is not bumped either).
    pub dry_run: bool,
}

/// Outcome of one GC pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// The generation the pass ran as (current + 1; persisted unless
    /// `dry_run`).
    pub generation: u64,
    /// Records examined.
    pub scanned_records: u64,
    /// Their total size in bytes.
    pub scanned_bytes: u64,
    /// Records evicted (or that would be, under `dry_run`).
    pub evicted_records: u64,
    /// Bytes reclaimed, counting records, sidecars, and swept debris.
    pub reclaimed_bytes: u64,
    /// Records surviving the pass.
    pub remaining_records: u64,
    /// Their total size in bytes.
    pub remaining_bytes: u64,
    /// Whether this was a report-only pass.
    pub dry_run: bool,
}

/// Size of the store's record files on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskUsage {
    /// Number of `.bin` record files.
    pub records: u64,
    /// Their total size in bytes (sidecars and debris excluded — this is
    /// the number GC size budgets are checked against).
    pub bytes: u64,
}

/// One record file found by the walker.
struct RecordEntry {
    path: PathBuf,
    bytes: u64,
    /// Last-access generation from the `.gen` sidecar (0 when missing or
    /// torn — the record then merely looks maximally old).
    stamp: u64,
}

/// Everything a walk of the store tree finds.
struct Walk {
    records: Vec<RecordEntry>,
    /// Leftover `.tomb` files and orphaned `.gen` sidecars: (path, bytes).
    debris: Vec<(PathBuf, u64)>,
}

impl ResultStore {
    /// Counts the record files under the store root (the figure
    /// `suite --store-stats` reports, and the one GC size budgets bound).
    pub fn disk_usage(&self) -> DiskUsage {
        let walk = self.walk();
        DiskUsage {
            records: walk.records.len() as u64,
            bytes: walk.records.iter().map(|r| r.bytes).sum(),
        }
    }

    /// Runs one GC pass under `policy` (see the module docs for the
    /// eviction and concurrency rules).
    pub fn gc(&self, policy: &GcPolicy) -> GcReport {
        let span = dri_telemetry::Span::begin("gc", "pass");
        let report = self.gc_inner(policy);
        let span = span
            .label("scanned", &report.scanned_records.to_string())
            .label("evicted", &report.evicted_records.to_string())
            .label("reclaimed_bytes", &report.reclaimed_bytes.to_string());
        span.finish(if report.dry_run { "dry-run" } else { "swept" });
        report
    }

    fn gc_inner(&self, policy: &GcPolicy) -> GcReport {
        let generation = self.generation() + 1;
        if !policy.dry_run {
            self.set_generation(generation);
        }

        let mut walk = self.walk();
        // Deterministic eviction order: least-recently-stamped first,
        // path as the tie-break.
        walk.records
            .sort_by(|a, b| a.stamp.cmp(&b.stamp).then_with(|| a.path.cmp(&b.path)));
        let scanned_records = walk.records.len() as u64;
        let scanned_bytes: u64 = walk.records.iter().map(|r| r.bytes).sum();

        let mut report = GcReport {
            generation,
            scanned_records,
            scanned_bytes,
            remaining_records: scanned_records,
            remaining_bytes: scanned_bytes,
            dry_run: policy.dry_run,
            ..GcReport::default()
        };

        // Debris costs nothing to sweep and never races anyone: a .tomb
        // is already dead and an orphaned .gen has no record left.
        for (path, bytes) in &walk.debris {
            if !policy.dry_run {
                let _ = fs::remove_file(path);
            }
            report.reclaimed_bytes += bytes;
        }

        let over_age = |stamp: u64| -> bool {
            policy
                .max_age
                .is_some_and(|max| generation.saturating_sub(stamp) > max)
        };
        for record in &walk.records {
            let over_budget = policy
                .max_bytes
                .is_some_and(|max| report.remaining_bytes > max);
            if !over_age(record.stamp) && !over_budget {
                continue;
            }
            report.evicted_records += 1;
            report.remaining_records -= 1;
            report.remaining_bytes -= record.bytes;
            report.reclaimed_bytes += record.bytes + self.evict(record, policy.dry_run);
        }
        report
    }

    /// Tombstone-then-unlink eviction of one record; returns the sidecar
    /// bytes additionally reclaimed. Under `dry_run`, touches nothing.
    fn evict(&self, record: &RecordEntry, dry_run: bool) -> u64 {
        let sidecar = record.path.with_extension("gen");
        let sidecar_bytes = fs::metadata(&sidecar).map(|m| m.len()).unwrap_or(0);
        if dry_run {
            return sidecar_bytes;
        }
        // Unique tombstone name per (process, eviction): two GC passes
        // racing over the same record must not rename onto each other.
        static TOMB_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TOMB_SEQ.fetch_add(1, Ordering::Relaxed);
        let tomb = record
            .path
            .with_extension(format!("tomb-{}-{}", std::process::id(), seq));
        if fs::rename(&record.path, &tomb).is_ok() {
            let _ = fs::remove_file(&tomb);
        }
        let _ = fs::remove_file(&sidecar);
        sidecar_bytes
    }

    /// Walks `<root>/<kind>/v<schema>/<shard>/` collecting records and
    /// debris. Unreadable directories are skipped: GC is best-effort,
    /// like every other store operation.
    fn walk(&self) -> Walk {
        let mut walk = Walk {
            records: Vec::new(),
            debris: Vec::new(),
        };
        let mut stack = vec![self.root().to_path_buf()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.filter_map(Result::ok) {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                let size = || entry.metadata().map(|m| m.len()).unwrap_or(0);
                if name.ends_with(".bin") {
                    walk.records.push(RecordEntry {
                        stamp: read_stamp(&path.with_extension("gen")),
                        bytes: size(),
                        path,
                    });
                } else if name.contains(".tomb")
                    || (name.ends_with(".gen") && !path.with_extension("bin").exists())
                    || name.ends_with(crate::journal::COMPACTED_SUFFIX)
                    || (name.starts_with(".tmp-")
                        && tmp_is_stale(
                            entry.metadata().ok().and_then(|m| m.modified().ok()),
                            SystemTime::now(),
                        ))
                {
                    // Journal note: a live `seg-*.wal` segment matches
                    // *none* of these classes and is spared — it may hold
                    // the only durable copy of an acked record. Only the
                    // `.wal.compacted` rename left by a compactor crash
                    // (its records already live in ordinary `.bin` files)
                    // is debris.
                    walk.debris.push((path, size()));
                }
            }
        }
        walk
    }
}

/// Whether a `.tmp-` file's age marks it as leaked by a crashed writer.
/// Unreadable or future timestamps are treated as fresh — never delete
/// what cannot be assessed (a racing writer is about to rename it away
/// anyway).
fn tmp_is_stale(modified: Option<SystemTime>, now: SystemTime) -> bool {
    modified.is_some_and(|m| {
        now.duration_since(m)
            .map(|age| age > STALE_TMP_AGE)
            .unwrap_or(false)
    })
}

/// Reads a `.gen` sidecar; 0 on anything unexpected.
fn read_stamp(sidecar: &std::path::Path) -> u64 {
    fs::read(sidecar)
        .ok()
        .and_then(|bytes| <[u8; 8]>::try_from(bytes.as_slice()).ok())
        .map(u64::from_le_bytes)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("dri-store-gc-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("temp store")
    }

    fn fill(store: &ResultStore, n: u128) {
        for key in 0..n {
            store.save("dri", 1, key, &[0xab; 100]);
        }
    }

    #[test]
    fn unbounded_pass_only_reports() {
        let store = temp_store("report");
        fill(&store, 5);
        let usage = store.disk_usage();
        assert_eq!(usage.records, 5);
        let report = store.gc(&GcPolicy::default());
        assert_eq!(report.scanned_records, 5);
        assert_eq!(report.evicted_records, 0);
        assert_eq!(report.remaining_bytes, usage.bytes);
        assert_eq!(store.disk_usage().records, 5);
        assert_eq!(report.generation, 1, "each pass is a new generation");
        assert_eq!(store.gc(&GcPolicy::default()).generation, 2);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn size_budget_evicts_cold_records_first() {
        let store = temp_store("size-budget");
        fill(&store, 4);
        // Age the store one generation, then touch two records: they are
        // now warmer than the untouched pair.
        store.gc(&GcPolicy::default());
        assert!(store.load("dri", 1, 2).is_some());
        assert!(store.load("dri", 1, 3).is_some());
        let per_record = store.disk_usage().bytes / 4;
        let report = store.gc(&GcPolicy {
            max_bytes: Some(per_record * 2),
            ..GcPolicy::default()
        });
        assert_eq!(report.evicted_records, 2);
        assert!(report.reclaimed_bytes >= per_record * 2);
        assert!(report.remaining_bytes <= per_record * 2);
        // The warm pair survived; the cold pair is an ordinary miss now.
        assert!(store.load("dri", 1, 2).is_some());
        assert!(store.load("dri", 1, 3).is_some());
        assert_eq!(store.load("dri", 1, 0), None);
        assert_eq!(store.load("dri", 1, 1), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn age_budget_evicts_only_stale_generations() {
        let store = temp_store("age-budget");
        fill(&store, 2);
        // Three campaign runs pass; only record 0 stays in use.
        for _ in 0..3 {
            store.gc(&GcPolicy::default());
            assert!(store.load("dri", 1, 0).is_some());
        }
        let report = store.gc(&GcPolicy {
            max_age: Some(2),
            ..GcPolicy::default()
        });
        assert_eq!(report.evicted_records, 1);
        assert!(store.load("dri", 1, 0).is_some());
        assert_eq!(store.load("dri", 1, 1), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn dry_run_deletes_nothing_and_keeps_the_generation() {
        let store = temp_store("dry-run");
        fill(&store, 3);
        let report = store.gc(&GcPolicy {
            max_bytes: Some(0),
            dry_run: true,
            ..GcPolicy::default()
        });
        assert!(report.dry_run);
        assert_eq!(report.evicted_records, 3);
        assert!(report.reclaimed_bytes > 0);
        assert_eq!(store.disk_usage().records, 3, "nothing actually deleted");
        assert_eq!(store.generation(), 0, "dry run must not age the store");
        for key in 0..3 {
            assert!(store.load("dri", 1, key).is_some());
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn stale_tmp_files_are_swept_and_fresh_ones_spared() {
        let store = temp_store("tmp-leak");
        fill(&store, 1);
        let shard = store
            .entry_path("dri", 1, 0)
            .parent()
            .unwrap()
            .to_path_buf();
        let fresh = shard.join(".tmp-1-0-00");
        let leaked = shard.join(".tmp-2-0-01");
        fs::write(&fresh, b"in flight").unwrap();
        fs::write(&leaked, b"crashed writer").unwrap();
        // Age the leaked temp past the staleness threshold.
        fs::File::options()
            .write(true)
            .open(&leaked)
            .unwrap()
            .set_modified(SystemTime::now() - STALE_TMP_AGE - Duration::from_secs(60))
            .unwrap();
        let report = store.gc(&GcPolicy::default());
        assert!(report.reclaimed_bytes >= 14, "leaked temp counted");
        assert!(!leaked.exists(), "stale temp swept");
        assert!(fresh.exists(), "in-flight temp untouched");
        assert!(store.load("dri", 1, 0).is_some());

        // The pure classifier, over synthetic clocks.
        let now = SystemTime::now();
        assert!(!tmp_is_stale(None, now), "unreadable metadata is spared");
        assert!(!tmp_is_stale(Some(now + Duration::from_secs(60)), now));
        assert!(!tmp_is_stale(Some(now - STALE_TMP_AGE / 2), now));
        assert!(tmp_is_stale(
            Some(now - STALE_TMP_AGE - Duration::from_secs(1)),
            now
        ));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_spares_live_lease_state_and_sweeps_lease_debris() {
        use crate::lease::{ClaimOutcome, LeaseBroker, LeaseState};

        let store = temp_store("lease-coexist");
        fill(&store, 3);
        let broker = LeaseBroker::open(store.root()).unwrap();
        broker
            .seed("figure3-quick", &["compress".to_owned(), "gcc".to_owned()])
            .unwrap();
        let ClaimOutcome::Granted(grant) =
            broker.claim("figure3-quick", "w1", 60_000, 1_000).unwrap()
        else {
            panic!("expected a grant");
        };
        // A lease writer crashed mid-publication, long enough ago to be
        // classified as a leak.
        let campaign_dir = store.root().join("leases").join("figure3-quick");
        let leaked = campaign_dir.join(".tmp-9-9-compress");
        fs::write(&leaked, b"crashed lease write").unwrap();
        fs::File::options()
            .write(true)
            .open(&leaked)
            .unwrap()
            .set_modified(SystemTime::now() - STALE_TMP_AGE - Duration::from_secs(60))
            .unwrap();

        // The most aggressive possible pass: evict every record.
        let report = store.gc(&GcPolicy {
            max_bytes: Some(0),
            ..GcPolicy::default()
        });
        assert_eq!(report.evicted_records, 3, "records all evicted");
        assert!(!leaked.exists(), "orphaned lease temp swept");
        // Live lease state is untouched mid-campaign: the claim is still
        // held and the unclaimed unit is still available.
        let lease = broker.lease("figure3-quick", grant.unit.as_str()).unwrap();
        let lease = lease.expect("claimed lease survived gc");
        assert_eq!(lease.state, LeaseState::Claimed);
        assert_eq!(lease.generation, grant.generation);
        assert_eq!(
            broker
                .lease(
                    "figure3-quick",
                    if grant.unit == "compress" {
                        "gcc"
                    } else {
                        "compress"
                    }
                )
                .unwrap()
                .expect("available lease survived gc")
                .state,
            LeaseState::Available
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_spares_live_journal_segments_and_sweeps_compacted_ones() {
        use crate::journal::{Journal, JournalEntry, JournalOptions, JOURNAL_DIR, LOCK_FILE};

        let store = temp_store("journal-coexist");
        fill(&store, 2);
        let journal = Journal::open(store.root(), JournalOptions::default()).unwrap();
        journal
            .append_batch(vec![JournalEntry {
                kind: "dri".to_owned(),
                schema: 1,
                key: 0xacc,
                payload: b"acked, not yet compacted".to_vec(),
            }])
            .unwrap();
        // A compactor crashed between its rename and unlink.
        let leftover = store
            .root()
            .join(crate::journal::JOURNAL_DIR)
            .join("seg-00000000000000aa.wal.compacted");
        fs::write(&leftover, b"already drained into .bin files").unwrap();

        // The most aggressive possible pass: evict every record.
        let report = store.gc(&GcPolicy {
            max_bytes: Some(0),
            ..GcPolicy::default()
        });
        assert_eq!(report.evicted_records, 2, "records all evicted");
        assert!(!leftover.exists(), "compacted segment debris swept");
        let lock = store.root().join(JOURNAL_DIR).join(LOCK_FILE);
        assert!(lock.exists(), "the live journal's lock file is spared");
        // The unsealed segment — the only durable copy of the acked
        // record — is untouched: a reopen still recovers the batch.
        drop(journal);
        let reopened = Journal::open(store.root(), JournalOptions::default()).unwrap();
        assert_eq!(
            reopened.lookup("dri", 1, 0xacc).as_deref().map(|p| &p[..]),
            Some(&b"acked, not yet compacted"[..]),
            "gc never disturbs a live journal segment"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn debris_is_swept() {
        let store = temp_store("debris");
        fill(&store, 1);
        let record = store.entry_path("dri", 1, 0);
        // A crashed GC left a tombstone; an evicted record left a sidecar.
        fs::write(record.with_extension("tomb-99-0"), b"dead").unwrap();
        // Key 77 shares key 0's shard directory, so the path exists.
        fs::write(
            store.entry_path("dri", 1, 77).with_extension("gen"),
            0u64.to_le_bytes(),
        )
        .unwrap();
        let report = store.gc(&GcPolicy::default());
        assert_eq!(report.evicted_records, 0);
        assert!(report.reclaimed_bytes >= 4 + 8, "tomb + orphan sidecar");
        assert!(store.load("dri", 1, 0).is_some(), "live record untouched");
        let _ = fs::remove_dir_all(store.root());
    }
}
