//! The disk tier's contract, extending the `session_identity` pattern to
//! cross-process warm starts: a store-loaded result is **bit-identical**
//! to a fresh simulation, a warmed store eliminates *all* re-simulation
//! (and even workload regeneration) in a new session, and every
//! corruption mode — truncation, wrong schema version, racing writers —
//! degrades to a recompute that again matches the cold run field by
//! field.
//!
//! Each test uses private `SimSession::builder().store(…)` scopes over its own
//! temp directory, so nothing here depends on (or pollutes) the `DRI_STORE`
//! environment; a fresh `SimSession` per phase models a fresh process
//! (the in-memory tier starts empty, exactly like a new `figure4` run).

use std::fs;
use std::path::{Path, PathBuf};

use dri_experiments::runner::{run_conventional_uncached, run_policy_uncached, ConventionalRun};
use dri_experiments::{DriRun, ResultStore, RunConfig, SimSession};
use synth_workload::suite::Benchmark;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "dri-store-persistence-{tag}-{}",
        std::process::id()
    ));
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

fn assert_conventional_identical(a: &ConventionalRun, b: &ConventionalRun, what: &str) {
    assert_eq!(a.timing, b.timing, "{what}: timing");
    assert_eq!(a.icache, b.icache, "{what}: icache");
    assert_eq!(
        a.l2_inst_accesses, b.l2_inst_accesses,
        "{what}: l2_inst_accesses"
    );
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy {} vs {}",
        a.bpred_accuracy,
        b.bpred_accuracy
    );
}

fn assert_dri_identical(a: &DriRun, b: &DriRun, what: &str) {
    assert_eq!(a.timing, b.timing, "{what}: timing");
    assert_eq!(a.icache, b.icache, "{what}: icache");
    assert_eq!(
        a.dri.avg_active_fraction.to_bits(),
        b.dri.avg_active_fraction.to_bits(),
        "{what}: avg_active_fraction"
    );
    assert_eq!(
        a.dri.avg_size_bytes.to_bits(),
        b.dri.avg_size_bytes.to_bits(),
        "{what}: avg_size_bytes"
    );
    assert_eq!(
        a.dri.final_size_bytes, b.dri.final_size_bytes,
        "{what}: final_size_bytes"
    );
    assert_eq!(a.dri.resizes, b.dri.resizes, "{what}: resizes");
    assert_eq!(a.dri.intervals, b.dri.intervals, "{what}: intervals");
    assert_eq!(
        a.dri.resizing_bits, b.dri.resizing_bits,
        "{what}: resizing_bits"
    );
    assert_eq!(
        a.l2_inst_accesses, b.l2_inst_accesses,
        "{what}: l2_inst_accesses"
    );
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy"
    );
}

/// All record files under `root`, recursively.
fn record_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "bin") {
                found.push(path);
            }
        }
    }
    found
}

/// Populates `root` with the baseline + DRI records for `cfg` and returns
/// the uncached reference pair.
fn warm_store(root: &Path, cfg: &RunConfig) -> (ConventionalRun, DriRun) {
    let session = SimSession::builder().store(open_store(root)).build();
    let baseline = session.conventional(cfg);
    let dri = session.policy_run(cfg);
    let stats = session.stats();
    assert_eq!(stats.baseline_misses, 1, "cold store must simulate");
    assert_eq!(stats.dri_misses, 1, "cold store must simulate");
    assert_eq!(
        session.store_stats().expect("store attached").writes,
        2,
        "both runs must be published to disk"
    );
    // The cold, store-backed results themselves match a no-cache run.
    let reference = (run_conventional_uncached(cfg), run_policy_uncached(cfg));
    assert_conventional_identical(&reference.0, &baseline, "cold baseline");
    assert_dri_identical(&reference.1, &dri, "cold dri");
    (reference.0, reference.1)
}

#[test]
fn second_process_warm_starts_with_zero_resimulation() {
    let root = temp_root("warm-start");
    let cfg = test_config();
    let (ref_baseline, ref_dri) = warm_store(&root, &cfg);

    // A fresh session over the same root models a second process: the
    // memory tier is cold, the disk tier is warm.
    let session = SimSession::builder().store(open_store(&root)).build();
    let baseline = session.conventional(&cfg);
    let dri = session.policy_run(&cfg);
    assert_conventional_identical(&ref_baseline, &baseline, "disk-loaded baseline");
    assert_dri_identical(&ref_dri, &dri, "disk-loaded dri");

    let stats = session.stats();
    assert_eq!(stats.baseline_misses, 0, "no baseline re-simulation");
    assert_eq!(stats.dri_misses, 0, "no DRI re-simulation");
    assert_eq!(stats.baseline_disk_hits, 1);
    assert_eq!(stats.dri_disk_hits, 1);
    assert_eq!(
        stats.workload_misses, 0,
        "a full disk hit must not even regenerate the workload"
    );
    let store = session.store_stats().expect("store attached");
    assert_eq!(store.hits, 2);
    assert_eq!(store.corrupt, 0);

    // Within the same session the memory tier now absorbs repeats.
    let again = session.policy_run(&cfg);
    assert_dri_identical(&ref_dri, &again, "memory re-hit");
    assert_eq!(session.stats().dri_hits, 1);
    assert_eq!(
        session.store_stats().expect("store attached").hits,
        2,
        "memory hit must not touch the disk again"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn truncated_entries_fall_back_to_an_identical_recompute() {
    let root = temp_root("truncated");
    let cfg = test_config();
    let (ref_baseline, ref_dri) = warm_store(&root, &cfg);

    let files = record_files(&root);
    assert_eq!(files.len(), 2, "one baseline + one DRI record: {files:?}");
    for file in &files {
        let bytes = fs::read(file).expect("record bytes");
        fs::write(file, &bytes[..bytes.len() * 3 / 5]).expect("truncate record");
    }

    let session = SimSession::builder().store(open_store(&root)).build();
    let baseline = session.conventional(&cfg);
    let dri = session.policy_run(&cfg);
    assert_conventional_identical(&ref_baseline, &baseline, "recompute after truncation");
    assert_dri_identical(&ref_dri, &dri, "recompute after truncation");
    let stats = session.stats();
    assert_eq!(stats.baseline_misses, 1, "truncated entry must re-simulate");
    assert_eq!(stats.dri_misses, 1, "truncated entry must re-simulate");
    let store = session.store_stats().expect("store attached");
    assert_eq!(store.corrupt, 2, "both truncations detected");
    assert_eq!(store.hits, 0);
    assert_eq!(store.writes, 2, "recomputed results must heal the store");

    // The healed entries serve the next "process" from disk again.
    let healed = SimSession::builder().store(open_store(&root)).build();
    assert_dri_identical(&ref_dri, &healed.policy_run(&cfg), "healed entry");
    assert_eq!(healed.stats().dri_misses, 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn wrong_schema_version_is_ignored_and_recomputed() {
    let root = temp_root("schema");
    let cfg = test_config();
    let (ref_baseline, ref_dri) = warm_store(&root, &cfg);

    // Rewrite each record's embedded schema-version field (bytes 4..8,
    // after the 4-byte magic). The checksum still matches a *well-formed*
    // file of the wrong version only if recomputed, so corrupt the field
    // alone: the header check must reject it before any payload use.
    for file in record_files(&root) {
        let mut bytes = fs::read(&file).expect("record bytes");
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&file, &bytes).expect("tamper version");
    }

    let session = SimSession::builder().store(open_store(&root)).build();
    let baseline = session.conventional(&cfg);
    let dri = session.policy_run(&cfg);
    assert_conventional_identical(&ref_baseline, &baseline, "recompute after schema drift");
    assert_dri_identical(&ref_dri, &dri, "recompute after schema drift");
    let stats = session.stats();
    assert_eq!(stats.baseline_misses, 1);
    assert_eq!(stats.dri_misses, 1);
    assert_eq!(session.store_stats().expect("store attached").hits, 0);
    assert!(session.store_stats().expect("store attached").corrupt >= 2);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_journal_tail_recovers_the_synced_prefix_and_compacts_bit_identically() {
    use dri_store::{Journal, JournalEntry, JournalOptions};

    let root = temp_root("journal-tail");
    let store = open_store(&root);

    let entry = |tag: u64, i: u64| JournalEntry {
        kind: "dri".to_owned(),
        schema: 1,
        key: ((tag as u128) << 64) | i as u128,
        payload: (0..6u64)
            .flat_map(|w| (tag * 7_919 + i * 13 + w).to_le_bytes())
            .collect(),
    };
    let batch = |tag: u64| (0..4).map(|i| entry(tag, i)).collect::<Vec<_>>();

    // Two batches land durably; the third tears mid-frame — the on-disk
    // shape a power cut leaves between `write` and `fsync`.
    let journal = Journal::open(&root, JournalOptions::default()).expect("open journal");
    journal.append_batch(batch(1)).expect("batch 1");
    journal.append_batch(batch(2)).expect("batch 2");
    journal
        .simulate_torn_append(&batch(3), 11)
        .expect("torn batch 3");
    drop(journal);

    // Recovery over the same root: the synced prefix is fully visible,
    // the torn frame is dropped whole.
    let recovered = Journal::open(&root, JournalOptions::default()).expect("reopen journal");
    assert_eq!(recovered.stats().recovered, 8, "both synced batches");
    assert_eq!(recovered.depth(), 8);
    for tag in [1, 2] {
        for i in 0..4 {
            let want = entry(tag, i);
            assert_eq!(
                recovered.lookup("dri", 1, want.key).as_deref(),
                Some(&want.payload),
                "recovered batch {tag} entry {i}"
            );
        }
    }
    for i in 0..4 {
        assert_eq!(
            recovered.lookup("dri", 1, entry(3, i).key),
            None,
            "torn batch entry {i} never becomes visible"
        );
    }

    // Compaction drains the prefix into record files bit-identically,
    // and the store itself (no journal in front) serves them.
    assert_eq!(recovered.compact(&store).expect("compact"), 8);
    assert_eq!(recovered.depth(), 0);
    for tag in [1, 2] {
        for i in 0..4 {
            let want = entry(tag, i);
            assert_eq!(
                store.load("dri", 1, want.key).as_deref(),
                Some(want.payload.as_slice()),
                "compacted batch {tag} entry {i}"
            );
        }
    }
    for i in 0..4 {
        assert_eq!(store.load("dri", 1, entry(3, i).key), None);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn concurrent_writers_converge_to_identical_results() {
    let root = temp_root("concurrent");
    let cfg = test_config();
    let reference = run_policy_uncached(&cfg);

    // Several "processes" (independent sessions over the same root) race
    // to simulate and publish the same point.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let session = SimSession::builder().store(open_store(&root)).build();
                let dri = session.policy_run(&cfg);
                assert_dri_identical(&reference, &dri, "racing writer");
            });
        }
    });

    // Whatever interleaving happened, the store holds one valid record
    // and a later session loads it without simulating.
    let session = SimSession::builder().store(open_store(&root)).build();
    let dri = session.policy_run(&cfg);
    assert_dri_identical(&reference, &dri, "after the race");
    let stats = session.stats();
    assert_eq!(stats.dri_misses, 0, "the surviving record must be valid");
    assert_eq!(stats.dri_disk_hits, 1);
    assert_eq!(session.store_stats().expect("store attached").corrupt, 0);
    let _ = fs::remove_dir_all(&root);
}
