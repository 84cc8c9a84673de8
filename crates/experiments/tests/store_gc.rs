//! GC/compaction against *real simulation records*: budgets reclaim
//! space, survivors stay bit-identical to fresh simulations, and a
//! reader racing a compaction pass never sees a torn record — at worst
//! it misses, recomputes, and heals, exactly like the corruption path.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use dri_experiments::runner::run_policy_uncached;
use dri_experiments::{DriRun, ResultStore, RunConfig, SimSession};
use dri_store::GcPolicy;
use synth_workload::suite::Benchmark;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-store-gc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn open_store(root: &Path) -> ResultStore {
    ResultStore::open(root).expect("open store")
}

fn test_config() -> RunConfig {
    let mut cfg = RunConfig::quick(Benchmark::Compress);
    cfg.instruction_budget = Some(120_000);
    cfg.dri.size_bound_bytes = 8 * 1024;
    cfg
}

fn assert_dri_identical(a: &DriRun, b: &DriRun, what: &str) {
    assert_eq!(a.timing, b.timing, "{what}: timing");
    assert_eq!(a.icache, b.icache, "{what}: icache");
    assert_eq!(
        a.dri.avg_size_bytes.to_bits(),
        b.dri.avg_size_bytes.to_bits(),
        "{what}: avg_size_bytes"
    );
    assert_eq!(a.dri.resizes, b.dri.resizes, "{what}: resizes");
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy"
    );
}

/// Simulates several sweep points into `root`, returning the configs.
fn warm_grid(root: &Path, points: u64) -> Vec<RunConfig> {
    let session = SimSession::builder().store(open_store(root)).build();
    let mut cfgs = Vec::new();
    for i in 0..points {
        let mut cfg = test_config();
        cfg.dri.miss_bound = 100 + i * 50;
        let _ = session.policy_run(&cfg);
        cfgs.push(cfg);
    }
    cfgs
}

#[test]
fn over_budget_store_reclaims_and_survivors_stay_bit_identical() {
    let root = temp_root("budget");
    let cfgs = warm_grid(&root, 4);
    let store = open_store(&root);
    let usage = store.disk_usage();
    assert_eq!(usage.records, 4);

    // Touch the last config's record so it is the warmest, then keep
    // only ~half the bytes.
    let warm_session = SimSession::builder().store(open_store(&root)).build();
    store.gc(&GcPolicy::default()); // age everything one generation
    let _ = warm_session.policy_run(&cfgs[3]);
    // warm_session's handle predates the bump, so re-stamp through a
    // fresh handle that carries the new generation.
    let fresh = SimSession::builder().store(open_store(&root)).build();
    let _ = fresh.policy_run(&cfgs[3]);

    let budget = usage.bytes / 2;
    let report = open_store(&root).gc(&GcPolicy {
        max_bytes: Some(budget),
        ..GcPolicy::default()
    });
    assert!(report.evicted_records >= 2, "{report:?}");
    assert!(report.reclaimed_bytes > 0, "{report:?}");
    assert!(report.remaining_bytes <= budget, "{report:?}");
    assert_eq!(
        open_store(&root).disk_usage().bytes,
        report.remaining_bytes,
        "report matches the disk"
    );

    // The warmest record survived and still loads bit-identically to a
    // fresh simulation; evicted points recompute bit-identically too.
    for (i, cfg) in cfgs.iter().enumerate() {
        let session = SimSession::builder().store(open_store(&root)).build();
        let dri = session.policy_run(cfg);
        assert_dri_identical(&run_policy_uncached(cfg), &dri, "post-gc point");
        if i == 3 {
            assert_eq!(session.stats().dri_disk_hits, 1, "warm record survived");
        }
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn dry_run_reports_without_touching_records() {
    let root = temp_root("dry");
    let cfgs = warm_grid(&root, 3);
    let store = open_store(&root);
    let before = store.disk_usage();
    let report = store.gc(&GcPolicy {
        max_bytes: Some(0),
        dry_run: true,
        ..GcPolicy::default()
    });
    assert!(report.dry_run);
    assert_eq!(report.evicted_records, 3);
    assert!(report.reclaimed_bytes >= before.bytes);
    assert_eq!(store.disk_usage(), before, "nothing deleted");
    // Every record still serves from disk.
    let session = SimSession::builder().store(open_store(&root)).build();
    for cfg in &cfgs {
        let _ = session.policy_run(cfg);
    }
    assert_eq!(session.stats().simulations(), 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn age_budget_keeps_records_recent_campaigns_used() {
    let root = temp_root("age");
    let cfgs = warm_grid(&root, 3);
    // Three campaign generations pass; only cfgs[0] stays in use.
    for _ in 0..3 {
        open_store(&root).gc(&GcPolicy::default());
        let session = SimSession::builder().store(open_store(&root)).build();
        let _ = session.policy_run(&cfgs[0]);
        assert_eq!(session.stats().dri_disk_hits, 1);
    }
    let report = open_store(&root).gc(&GcPolicy {
        max_age: Some(2),
        ..GcPolicy::default()
    });
    assert_eq!(report.evicted_records, 2, "{report:?}");
    assert_eq!(report.remaining_records, 1);

    let session = SimSession::builder().store(open_store(&root)).build();
    let _ = session.policy_run(&cfgs[0]);
    assert_eq!(session.stats().dri_disk_hits, 1, "hot record survived");
    let _ = session.policy_run(&cfgs[1]);
    assert_eq!(session.stats().dri_misses, 1, "cold record was evicted");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn gc_spares_undrained_journal_segments_and_sweeps_compacted_debris() {
    use dri_store::{Journal, JournalEntry, JournalOptions};

    let root = temp_root("journal");
    let store = open_store(&root);
    let entry = |i: u64| JournalEntry {
        kind: "dri".to_owned(),
        schema: 1,
        key: 0x0dd0u128.wrapping_add(i as u128),
        payload: (0..4u64).flat_map(|w| (i * 31 + w).to_le_bytes()).collect(),
    };

    // One compacted batch and one still-journaled batch (its `.wal`
    // segment is the only durable copy of those records).
    let journal = Journal::open(&root, JournalOptions::default()).expect("open journal");
    journal
        .append_batch((0..3).map(entry).collect())
        .expect("batch 1");
    assert_eq!(journal.compact(&store).expect("compact"), 3);
    journal
        .append_batch((3..6).map(entry).collect())
        .expect("batch 2");

    let journal_dir = root.join("journal");
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("journal dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    // Compaction normally removes its `.wal.compacted` tomb right after
    // the rename; a crash between the two steps strands it. Fabricate
    // exactly that debris.
    fs::write(
        journal_dir.join("seg-00000000000000aa.wal.compacted"),
        b"drained segment stranded by a crash mid-sweep",
    )
    .expect("fabricate debris");

    // An aggressive GC pass (evict everything) must sweep the compacted
    // debris but never a live `.wal` segment — those records are not in
    // record files yet.
    let report = store.gc(&GcPolicy {
        max_bytes: Some(0),
        ..GcPolicy::default()
    });
    assert!(report.reclaimed_bytes > 0, "{report:?}");
    let after = names(&journal_dir);
    assert!(
        after.iter().all(|n| !n.ends_with(".wal.compacted")),
        "compacted debris swept: {after:?}"
    );
    assert!(
        after.iter().any(|n| n.ends_with(".wal")),
        "live segment spared: {after:?}"
    );

    // Recovery over the post-GC root still serves the journaled batch,
    // and draining it lands every payload bit-identically. (A root has
    // one live journal at a time: the writer goes first.)
    drop(journal);
    let recovered = Journal::open(&root, JournalOptions::default()).expect("reopen");
    assert_eq!(recovered.stats().recovered, 3, "journaled batch survived");
    assert_eq!(recovered.compact(&store).expect("drain"), 3);
    for i in 3..6 {
        let want = entry(i);
        assert_eq!(
            store.load("dri", 1, want.key).as_deref(),
            Some(want.payload.as_slice()),
            "journaled entry {i} after GC + drain"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn readers_racing_compaction_recompute_and_heal_never_tear() {
    let root = temp_root("race");
    let cfg = test_config();
    let reference = run_policy_uncached(&cfg);
    {
        let session = SimSession::builder().store(open_store(&root)).build();
        let _ = session.policy_run(&cfg);
    }

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Readers: fresh sessions (cold memory, like new processes)
        // hammering the record while GC repeatedly tombstones it.
        let reader = |iterations: usize| {
            let done = &done;
            let root = &root;
            let cfg = &cfg;
            let reference = &reference;
            move || {
                for _ in 0..iterations {
                    let session = SimSession::builder().store(open_store(root)).build();
                    let dri = session.policy_run(cfg);
                    assert_dri_identical(reference, &dri, "mid-compaction read");
                    let store = session.store_stats().expect("store attached");
                    // Every lookup is a clean hit or a clean miss —
                    // never a checksum-rejected torn record.
                    assert_eq!(store.corrupt, 0, "GC must never expose a torn read");
                }
                done.store(true, Ordering::SeqCst);
            }
        };
        scope.spawn(reader(6));
        scope.spawn(reader(6));
        // Compactor: evict everything, as fast as possible, until the
        // readers finish. Each eviction forces the next reader into the
        // recompute-and-heal path.
        scope.spawn(|| {
            let store = open_store(&root);
            while !done.load(Ordering::SeqCst) {
                let report = store.gc(&GcPolicy {
                    max_bytes: Some(0),
                    ..GcPolicy::default()
                });
                assert_eq!(report.remaining_records, 0);
                std::thread::yield_now();
            }
        });
    });

    // Post-race: the store is in a consistent state and one more
    // round-trip works (heal, then hit).
    let session = SimSession::builder().store(open_store(&root)).build();
    assert_dri_identical(&reference, &session.policy_run(&cfg), "post-race heal");
    let verify = SimSession::builder().store(open_store(&root)).build();
    assert_dri_identical(&reference, &verify.policy_run(&cfg), "post-race hit");
    assert_eq!(verify.stats().simulations(), 0);
    let _ = fs::remove_dir_all(&root);
}
