//! The remote tier's contract, extending `store_persistence.rs` across a
//! (loopback) network hop: a cold, disk-less worker pointed at a warm
//! `dri-serve` instance replays previously simulated grids with **zero
//! local simulations**, every served record is **bit-identical** to a
//! fresh simulation, a remote hit **heals the local disk tier**, and
//! every remote failure mode (miss, corruption, dead server) degrades to
//! an ordinary recompute.
//!
//! Each test runs its own server on an ephemeral port over its own temp
//! store, so nothing depends on (or pollutes) `DRI_SHARDS`/`DRI_STORE`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dri_experiments::runner::{run_conventional_uncached, run_policy_uncached, ConventionalRun};
use dri_experiments::search::SearchSpace;
use dri_experiments::{DriRun, RemoteStore, ResultStore, RunConfig, ShardedStore, SimSession};
use dri_serve::Server;
use synth_workload::suite::Benchmark;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-remote-tier-{tag}-{}", std::process::id()));
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
        "{what}: bpred_accuracy"
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

/// Serves `root` on an ephemeral loopback port.
fn serve(root: &Path) -> Server {
    Server::bind(Arc::new(open_store(root)), "127.0.0.1:0", 4).expect("bind server")
}

#[test]
fn cold_disk_less_worker_warm_starts_from_the_wire() {
    let central = temp_root("wire-warm");
    let cfg = test_config();

    // The central host simulates once and keeps the records.
    let writer = SimSession::builder().store(open_store(&central)).build();
    let ref_baseline = writer.conventional(&cfg);
    let ref_dri = writer.policy_run(&cfg);
    assert_eq!(writer.stats().simulations(), 2);

    let server = serve(&central);
    // A cold worker with no disk store at all: memory → remote → simulate.
    let worker = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    let baseline = worker.conventional(&cfg);
    let dri = worker.policy_run(&cfg);
    assert_conventional_identical(&ref_baseline, &baseline, "remote baseline");
    assert_dri_identical(&ref_dri, &dri, "remote dri");

    let stats = worker.stats();
    assert_eq!(stats.simulations(), 0, "nothing simulated locally");
    assert_eq!(stats.baseline_remote_hits, 1);
    assert_eq!(stats.dri_remote_hits, 1);
    assert_eq!(
        stats.workload_misses, 0,
        "a remote hit must not even generate the workload"
    );
    let remote = worker.remote_stats().expect("remote attached");
    assert_eq!(remote.hits, 2);
    assert_eq!(remote.errors, 0);

    // Within the session the memory tier absorbs repeats — no new
    // network traffic.
    let again = worker.policy_run(&cfg);
    assert_dri_identical(&ref_dri, &again, "memory re-hit");
    assert_eq!(worker.remote_stats().expect("remote attached").hits, 2);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn remote_replays_the_figure3_grid_with_zero_local_simulations() {
    let central = temp_root("figure3-grid");
    // The exact per-benchmark grid figure3's parameter search visits
    // (quick space), shrunk to a test-sized instruction budget.
    let mut base = test_config();
    base.benchmark = Benchmark::Li;
    let space = SearchSpace::quick();
    let mut grid: Vec<RunConfig> = Vec::new();
    for &size_bound in &space.size_bounds {
        for &miss_bound in &space.miss_bounds {
            let mut cfg = base.clone();
            cfg.dri.size_bound_bytes = size_bound;
            cfg.dri.miss_bound = miss_bound;
            grid.push(cfg);
        }
    }

    // Campaign host: simulate the whole grid into the central store.
    let writer = SimSession::builder().store(open_store(&central)).build();
    let reference: Vec<(ConventionalRun, DriRun)> = grid
        .iter()
        .map(|cfg| (writer.conventional(cfg), writer.policy_run(cfg)))
        .collect();
    assert!(writer.stats().simulations() > 0);

    // Cold worker: replays the same grid purely over the wire.
    let server = serve(&central);
    let worker = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    for (cfg, (ref_baseline, ref_dri)) in grid.iter().zip(&reference) {
        let baseline = worker.conventional(cfg);
        let dri = worker.policy_run(cfg);
        assert_conventional_identical(ref_baseline, &baseline, "grid baseline");
        assert_dri_identical(ref_dri, &dri, "grid dri");
    }
    let stats = worker.stats();
    assert_eq!(
        stats.simulations(),
        0,
        "the full grid must replay without local simulation"
    );
    // The baseline is shared across the grid (one record); every DRI
    // point is distinct.
    assert_eq!(stats.baseline_remote_hits, 1);
    assert_eq!(stats.dri_remote_hits, grid.len() as u64);
    assert_eq!(stats.baseline_hits, grid.len() as u64 - 1);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn remote_hits_heal_the_local_disk_tier() {
    let central = temp_root("heal-central");
    let local = temp_root("heal-local");
    let cfg = test_config();

    let writer = SimSession::builder().store(open_store(&central)).build();
    let ref_dri = writer.policy_run(&cfg);
    let ref_baseline = writer.conventional(&cfg);

    let server = serve(&central);
    // Worker with both tiers: remote hits must be written through to
    // the local store.
    let worker = SimSession::builder()
        .store(open_store(&local))
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    assert_dri_identical(&ref_dri, &worker.policy_run(&cfg), "healing fetch");
    assert_eq!(worker.stats().dri_remote_hits, 1);
    assert_eq!(
        worker.store_stats().expect("local store").writes,
        1,
        "the remote hit must be persisted locally"
    );
    server.shutdown();

    // With the server gone, a fresh process on this machine is served
    // entirely by the healed local store.
    let offline = SimSession::builder().store(open_store(&local)).build();
    assert_dri_identical(&ref_dri, &offline.policy_run(&cfg), "healed local record");
    let stats = offline.stats();
    assert_eq!(stats.dri_disk_hits, 1);
    assert_eq!(stats.simulations(), 0);

    // And the record the worker never fetched still simulates cleanly.
    assert_conventional_identical(
        &ref_baseline,
        &offline.conventional(&cfg),
        "unfetched baseline recompute",
    );
    let _ = fs::remove_dir_all(&central);
    let _ = fs::remove_dir_all(&local);
}

#[test]
fn corrupt_served_records_degrade_to_identical_recompute() {
    let central = temp_root("corrupt-remote");
    let cfg = test_config();
    let writer = SimSession::builder().store(open_store(&central)).build();
    let _ = writer.policy_run(&cfg);

    // Flip one payload byte in the stored record. The server validates
    // before serving, so the worker sees a 404 (miss), recomputes, and
    // the result still matches an uncached reference bit for bit.
    let store = open_store(&central);
    let key = dri_experiments::persist::dri_key(&cfg);
    let path = store.entry_path(
        dri_experiments::persist::DRI_KIND,
        dri_experiments::persist::SCHEMA_VERSION,
        key,
    );
    let mut bytes = fs::read(&path).expect("record");
    bytes[40] ^= 0x20;
    fs::write(&path, &bytes).expect("tamper");

    let server = serve(&central);
    let worker = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    let dri = worker.policy_run(&cfg);
    assert_dri_identical(
        &run_policy_uncached(&cfg),
        &dri,
        "recompute after corruption",
    );
    let stats = worker.stats();
    assert_eq!(stats.dri_misses, 1, "corrupt remote record re-simulates");
    assert_eq!(stats.dri_remote_hits, 0);
    let remote = worker.remote_stats().expect("remote attached");
    assert_eq!(remote.hits, 0);
    assert_eq!(
        remote.misses, 1,
        "server refuses to serve the corrupt record"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn dead_server_degrades_to_local_simulation() {
    let cfg = test_config();
    // Nothing listens here; connects fail fast.
    let worker = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new("127.0.0.1:1")))
        .build();
    let dri = worker.policy_run(&cfg);
    assert_dri_identical(
        &run_policy_uncached(&cfg),
        &dri,
        "simulated despite dead remote",
    );
    let baseline = worker.conventional(&cfg);
    assert_conventional_identical(
        &run_conventional_uncached(&cfg),
        &baseline,
        "simulated despite dead remote",
    );
    let stats = worker.stats();
    assert_eq!(stats.simulations(), 2);
    assert_eq!(stats.remote_hits(), 0);
    assert!(worker.remote_stats().expect("remote attached").errors >= 1);
}
