//! The batch-prefetch contract, end to end: a sweep-shaped grid resolves
//! through the cache tiers **in bulk** — local disk first, then one
//! chunked `POST /batch` round-trip for the remainder, remote arrivals
//! healed into the local store — with every served record bit-identical
//! to a fresh simulation, and only true misses left to simulate.
//!
//! The headline proof mirrors figure3's parameter search exactly: a cold
//! `DRI_SHARDS`-style worker replays the full 15-benchmark quick-space
//! grid — 105 unique records — with **exactly one** batch round-trip,
//! **zero** local simulations, and **zero** workload generations (CI's
//! `service-smoke` job asserts the same single-round-trip property on
//! the real `suite`-driven figure3, end to end over processes).
//!
//! Like `remote_tier.rs`, every test runs its own ephemeral server over
//! its own temp store — nothing reads or pollutes `DRI_*` variables.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dri_experiments::runner::{run_dri_uncached, ConventionalRun};
use dri_experiments::search::{grid_configs, SearchSpace};
use dri_experiments::{DriRun, RemoteStore, ResultStore, RunConfig, ShardedStore, SimSession};
use dri_serve::Server;
use synth_workload::suite::Benchmark;

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("dri-batch-prefetch-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn open_store(root: &Path) -> ResultStore {
    ResultStore::open(root).expect("open store")
}

fn serve(root: &Path) -> Server {
    Server::bind(Arc::new(open_store(root)), "127.0.0.1:0", 4).expect("bind server")
}

/// A figure3-shaped campaign grid: each benchmark's full quick-space
/// (miss-bound × size-bound) search grid, at a test-sized budget.
fn figure3_like_grid(benchmarks: &[Benchmark]) -> Vec<RunConfig> {
    let space = SearchSpace::quick();
    benchmarks
        .iter()
        .flat_map(|&b| {
            let mut base = RunConfig::quick(b);
            base.instruction_budget = Some(60_000);
            grid_configs(&base, &space)
        })
        .collect()
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
        a.l2_inst_accesses, b.l2_inst_accesses,
        "{what}: l2_inst_accesses"
    );
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy"
    );
}

#[test]
fn cold_worker_prefetches_a_figure3_grid_in_one_round_trip() {
    let central = temp_root("one-trip-central");
    let local = temp_root("one-trip-local");
    let benchmarks = Benchmark::all();
    let grid = figure3_like_grid(&benchmarks);
    // 6 quick-space points per benchmark, sharing one baseline each.
    assert_eq!(grid.len(), benchmarks.len() * 6);
    let unique_records = benchmarks.len() * (6 + 1);
    assert_eq!(unique_records, 105, "the full quick figure3 record grid");

    // Campaign host: simulate the whole grid into the central store.
    let writer = SimSession::builder().store(open_store(&central)).build();
    let reference: Vec<(ConventionalRun, DriRun)> = grid
        .iter()
        .map(|cfg| (writer.conventional(cfg), writer.policy_run(cfg)))
        .collect();
    assert_eq!(writer.stats().simulations() as usize, unique_records);

    // Cold worker, disk-less memory, empty local store: the whole grid
    // must arrive in one POST /batch.
    let server = serve(&central);
    let worker = SimSession::builder()
        .store(open_store(&local))
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    let report = worker.prefetch(&grid);
    assert_eq!(
        report.planned as usize,
        unique_records,
        "the plan dedups shared baselines ({} refs enumerated)",
        grid.len() * 2
    );
    assert_eq!(report.batch_round_trips, 1, "exactly one POST /batch");
    assert_eq!(report.remote_hits as usize, unique_records);
    assert_eq!(report.memory_hits, 0);
    assert_eq!(report.disk_hits, 0);
    assert_eq!(report.misses, 0);

    // Replaying the grid is now pure memory traffic, bit-identical to
    // the writer's fresh simulations.
    for (cfg, (ref_baseline, ref_dri)) in grid.iter().zip(&reference) {
        assert_conventional_identical(ref_baseline, &worker.conventional(cfg), "grid baseline");
        assert_dri_identical(ref_dri, &worker.policy_run(cfg), "grid dri");
    }
    let stats = worker.stats();
    assert_eq!(stats.simulations(), 0, "nothing simulated locally");
    assert_eq!(
        stats.workload_misses, 0,
        "a prefetched grid never even generates a workload"
    );
    assert_eq!(stats.remote_hits() as usize, unique_records);
    let remote = worker.remote_stats().expect("remote attached");
    assert_eq!(remote.batch_round_trips, 1);
    assert_eq!(remote.requests, 1, "one HTTP exchange for the whole grid");
    assert_eq!(remote.hits as usize, unique_records);
    assert_eq!(server.stats().batch_requests, 1);

    // Every remote arrival was healed into the local store: with the
    // server gone, a fresh process prefetches the same grid from disk
    // alone — zero round trips, zero simulations, same bits.
    assert_eq!(
        worker.store_stats().expect("local store").writes as usize,
        unique_records
    );
    server.shutdown();
    let offline = SimSession::builder().store(open_store(&local)).build();
    let report = offline.prefetch(&grid);
    assert_eq!(report.disk_hits as usize, unique_records);
    assert_eq!(report.batch_round_trips, 0);
    assert_eq!(report.misses, 0);
    for (cfg, (ref_baseline, ref_dri)) in grid.iter().zip(&reference) {
        assert_conventional_identical(ref_baseline, &offline.conventional(cfg), "healed baseline");
        assert_dri_identical(ref_dri, &offline.policy_run(cfg), "healed dri");
    }
    assert_eq!(offline.stats().simulations(), 0);

    let _ = fs::remove_dir_all(&central);
    let _ = fs::remove_dir_all(&local);
}

#[test]
fn empty_and_memory_warm_plans_are_no_ops() {
    let session = SimSession::builder().build();
    let report = session.prefetch(&[]);
    assert_eq!(report.plans, 1);
    assert_eq!(report.planned, 0);
    assert_eq!(report.batch_round_trips, 0);
    assert_eq!(report.misses, 0);

    // With no tiers attached, a plan's records are all left to simulate.
    let mut cfg = RunConfig::quick(Benchmark::Li);
    cfg.instruction_budget = Some(60_000);
    let report = session.prefetch(std::slice::from_ref(&cfg));
    assert_eq!(report.planned, 2, "baseline + dri");
    assert_eq!(report.misses, 2);

    // Once the session is warm, the same plan is pure memory hits —
    // even through a breaker-protected remote that must not be touched.
    let _ = session.conventional(&cfg);
    let _ = session.policy_run(&cfg);
    let warm = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new("127.0.0.1:1")))
        .build();
    let _ = warm.prefetch(std::slice::from_ref(&cfg)); // cold: all misses
    let sims = warm.stats();
    assert_eq!(sims.simulations(), 0, "prefetch never simulates");
    let report = session.prefetch(std::slice::from_ref(&cfg));
    assert_eq!(report.memory_hits, 2);
    assert_eq!(report.misses, 0);
    assert_eq!(report.batch_round_trips, 0);
    // Aggregated totals accumulate across the three passes.
    let totals = session.prefetch_stats();
    assert_eq!(totals.plans, 3);
    assert_eq!(totals.planned, 4);
    assert_eq!(totals.memory_hits, 2);
}

#[test]
fn partial_miss_prefetch_recomputes_and_heals_only_the_misses() {
    let central = temp_root("partial-central");
    let local = temp_root("partial-local");
    let mut base = RunConfig::quick(Benchmark::Compress);
    base.instruction_budget = Some(60_000);
    let grid = grid_configs(&base, &SearchSpace::quick());
    assert_eq!(grid.len(), 6);

    // The central store only ever saw half the grid.
    let writer = SimSession::builder().store(open_store(&central)).build();
    for cfg in &grid[..3] {
        let _ = writer.conventional(cfg);
        let _ = writer.policy_run(cfg);
    }

    let server = serve(&central);
    let worker = SimSession::builder()
        .store(open_store(&local))
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    let report = worker.prefetch(&grid);
    assert_eq!(report.planned, 7, "6 DRI points + 1 shared baseline");
    assert_eq!(report.batch_round_trips, 1);
    assert_eq!(report.remote_hits, 4, "baseline + 3 stored DRI points");
    assert_eq!(report.misses, 3, "the unseeded half");

    // A nested grid re-planning the same points (a per-benchmark search
    // inside an already-planned campaign) must not re-ask the server
    // for the definitive misses: zero further round-trips.
    let nested = worker.prefetch(&grid);
    assert_eq!(nested.memory_hits, 4);
    assert_eq!(nested.misses, 3, "known-missing records skip the wire");
    assert_eq!(nested.batch_round_trips, 0);

    // The sweep replays: only the misses simulate, and they match an
    // uncached reference bit for bit.
    for cfg in &grid {
        assert_dri_identical(
            &run_dri_uncached(cfg),
            &worker.policy_run(cfg),
            "partial grid",
        );
    }
    assert_eq!(worker.stats().simulations(), 3);
    // Neither the nested plan nor the per-point lookups that preceded
    // the three simulations touched the network again: the whole
    // campaign cost one HTTP exchange.
    let remote = worker.remote_stats().expect("remote attached");
    assert_eq!(remote.requests, 1, "one batch exchange, no per-point GETs");
    assert_eq!(remote.batch_round_trips, 1);
    // Healed fetches + recomputed misses both landed in the local store:
    // the same grid now prefetches entirely from disk.
    server.shutdown();
    let offline = SimSession::builder().store(open_store(&local)).build();
    let report = offline.prefetch(&grid);
    assert_eq!(report.disk_hits, 7);
    assert_eq!(report.misses, 0);

    let _ = fs::remove_dir_all(&central);
    let _ = fs::remove_dir_all(&local);
}

#[test]
fn corrupt_central_record_degrades_to_recompute_and_heal() {
    let central = temp_root("corrupt-central");
    let local = temp_root("corrupt-local");
    let mut cfg = RunConfig::quick(Benchmark::Li);
    cfg.instruction_budget = Some(60_000);

    let writer = SimSession::builder().store(open_store(&central)).build();
    let ref_dri = writer.policy_run(&cfg);
    let _ = writer.conventional(&cfg);

    // Damage the stored DRI record. The server validates before it
    // serves, so the batch answer carries a miss frame for this entry
    // and a genuine record for the baseline.
    let store = open_store(&central);
    let key = dri_experiments::persist::dri_key(&cfg);
    let path = store.entry_path(
        dri_experiments::persist::DRI_KIND,
        dri_experiments::persist::SCHEMA_VERSION,
        key,
    );
    let mut bytes = fs::read(&path).expect("record");
    bytes[40] ^= 0x08;
    fs::write(&path, &bytes).expect("tamper");

    let server = serve(&central);
    let worker = SimSession::builder()
        .store(open_store(&local))
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    let report = worker.prefetch(std::slice::from_ref(&cfg));
    assert_eq!(report.batch_round_trips, 1);
    assert_eq!(report.remote_hits, 1, "the baseline still arrives");
    assert_eq!(report.misses, 1, "the corrupt record is a clean miss");

    let recomputed = worker.policy_run(&cfg);
    assert_dri_identical(&ref_dri, &recomputed, "recompute after corruption");
    assert_eq!(worker.stats().dri_misses, 1);
    // The recompute healed the local tier; the grid is whole again here.
    server.shutdown();
    let offline = SimSession::builder().store(open_store(&local)).build();
    let report = offline.prefetch(std::slice::from_ref(&cfg));
    assert_eq!(report.disk_hits, 2);
    assert_eq!(report.misses, 0);

    let _ = fs::remove_dir_all(&central);
    let _ = fs::remove_dir_all(&local);
}
