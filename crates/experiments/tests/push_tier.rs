//! The authenticated write path, end to end: a fleet of workers fills
//! **one** central store, and cold replayers then get the whole campaign
//! for free.
//!
//! The headline proof is the distributed figure3 scenario (CI's
//! `distributed-smoke` job asserts the same thing over real `suite` and
//! `dri-serve` processes): two cold workers split the full 15-benchmark
//! quick-space grid — 105 unique records — simulate their own halves,
//! and push them to a single token-authenticated `dri-serve` store. A
//! third cold worker then replays the *entire* grid in one `POST /batch`
//! round-trip with **zero** local simulations, bit-identical to the
//! pushing workers' fresh runs; a server restart over the same root
//! changes nothing, because pushes land through the store's atomic
//! temp+rename writes.
//!
//! Degradation is proven alongside: a wrong-token worker is rejected
//! (`401`) and its results simply stay local; a corrupt frame inside a
//! push batch fails only its own entry; replayers missing a record
//! recompute locally, exactly as they would for any other miss.
//!
//! Like the other tier tests, every test runs its own ephemeral server
//! over its own temp store — nothing reads or pollutes `DRI_*` variables
//! (sessions get their push flag via `SessionBuilder::push`, not the
//! environment).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dri_experiments::runner::ConventionalRun;
use dri_experiments::search::{grid_configs, SearchSpace};
use dri_experiments::{DriRun, RemoteStore, ResultStore, RunConfig, ShardedStore, SimSession};
use dri_serve::{PushOutcome, Server};
use synth_workload::suite::Benchmark;

const TOKEN: &str = "push-tier-test-secret";

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-push-tier-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn open_store(root: &Path) -> ResultStore {
    ResultStore::open(root).expect("open store")
}

/// A token-authenticated server over `root` on an ephemeral port.
fn serve_writable(root: &Path) -> Server {
    Server::bind_with_token(
        Arc::new(open_store(root)),
        "127.0.0.1:0",
        4,
        Some(TOKEN.to_owned()),
    )
    .expect("bind server")
}

/// A cold worker that simulates what it must and pushes it upward.
fn pushing_worker(addr: &str, token: &str) -> SimSession {
    SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::with_token(
            addr.to_owned(),
            Some(token.to_owned()),
        )))
        .push(true)
        .build()
}

/// Each benchmark's full quick-space search grid at a test-sized budget
/// (the same shape `tests/batch_prefetch.rs` replays).
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
fn two_pushing_workers_fill_the_store_and_a_cold_third_replays_everything() {
    let central = temp_root("fleet-central");
    let benchmarks = Benchmark::all();
    let grid = figure3_like_grid(&benchmarks);
    let unique_records = benchmarks.len() * (6 + 1);
    assert_eq!(unique_records, 105, "the full quick figure3 record grid");

    // One empty, token-authenticated central store. Nothing seeds it.
    let server = serve_writable(&central);
    let addr = server.addr().to_string();

    // Two cold workers, each owning a disjoint half of the benchmark
    // suite. They simulate their halves (nothing can serve them) and
    // push what they computed.
    let mut reference: Vec<(ConventionalRun, DriRun)> = Vec::new();
    let mut pushed_total = 0;
    for half in [&benchmarks[..8], &benchmarks[8..]] {
        let worker = pushing_worker(&addr, TOKEN);
        let half_grid = figure3_like_grid(half);
        let half_records = half.len() * (6 + 1);
        // Prefetch answers with definitive misses (the store is cold) so
        // the per-point lookups below never re-ask the server.
        let report = worker.prefetch(&half_grid);
        assert_eq!(report.misses as usize, half_records, "cold store");
        for cfg in &half_grid {
            reference.push((worker.conventional(cfg), worker.policy_run(cfg)));
        }
        assert_eq!(worker.stats().simulations() as usize, half_records);
        let push = worker.push_pending();
        assert_eq!(push.batches, 1);
        assert_eq!(push.attempted as usize, half_records);
        assert_eq!(push.pushed as usize, half_records, "every record landed");
        assert_eq!(push.rejected, 0);
        assert_eq!(push.failed, 0);
        assert_eq!(push.round_trips, 1, "one chunked POST /batch-put");
        let remote = worker.remote_stats().expect("remote attached");
        assert_eq!(remote.records_accepted as usize, half_records);
        assert_eq!(remote.push_round_trips, 1);
        pushed_total += half_records;
    }
    assert_eq!(pushed_total, unique_records);
    let stats = server.stats();
    assert_eq!(stats.records_accepted as usize, unique_records);
    assert_eq!(stats.writes_rejected, 0);
    assert_eq!(stats.push_round_trips, 2, "one per pushing worker");

    // A third, completely cold worker replays the full grid: one batch
    // round-trip, zero simulations, zero workload generations, and every
    // counter bit-identical to the workers' fresh runs.
    let replayer = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(addr.clone())))
        .build();
    let report = replayer.prefetch(&grid);
    assert_eq!(report.planned as usize, unique_records);
    assert_eq!(
        report.remote_hits as usize, unique_records,
        "105/105 served"
    );
    assert_eq!(report.misses, 0);
    assert_eq!(report.batch_round_trips, 1, "exactly one POST /batch");
    for (cfg, (ref_baseline, ref_dri)) in grid.iter().zip(&reference) {
        assert_conventional_identical(ref_baseline, &replayer.conventional(cfg), "replay baseline");
        assert_dri_identical(ref_dri, &replayer.policy_run(cfg), "replay dri");
    }
    let stats = replayer.stats();
    assert_eq!(stats.simulations(), 0, "nothing simulated on replay");
    assert_eq!(stats.workload_misses, 0, "no workload even generated");

    // Restart the service over the same root: shutdown drained the
    // journal into ordinary record files, so a fresh (read-only) server
    // serves the healed store identically.
    server.shutdown();
    let server = Server::bind(Arc::new(open_store(&central)), "127.0.0.1:0", 4).expect("rebind");
    let late = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    let report = late.prefetch(&grid);
    assert_eq!(report.remote_hits as usize, unique_records);
    assert_eq!(report.misses, 0);
    for (cfg, (ref_baseline, ref_dri)) in grid.iter().zip(&reference) {
        assert_conventional_identical(ref_baseline, &late.conventional(cfg), "restart baseline");
        assert_dri_identical(ref_dri, &late.policy_run(cfg), "restart dri");
    }
    assert_eq!(late.stats().simulations(), 0);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn wrong_token_pushes_are_rejected_and_replayers_recompute_locally() {
    let central = temp_root("bad-token-central");
    let mut cfg = RunConfig::quick(Benchmark::Compress);
    cfg.instruction_budget = Some(60_000);

    let server = serve_writable(&central);
    let addr = server.addr().to_string();

    // The worker holds the wrong secret: it simulates fine, but its
    // pushes bounce with 401 and its results stay local.
    let worker = pushing_worker(&addr, "not-the-secret");
    let ref_baseline = worker.conventional(&cfg);
    let ref_dri = worker.policy_run(&cfg);
    let push = worker.push_pending();
    assert_eq!(push.attempted, 2);
    assert_eq!(push.pushed, 0);
    assert_eq!(push.rejected, 2, "definitive 401, not a transport failure");
    assert_eq!(push.failed, 0);
    let remote = worker.remote_stats().expect("remote attached");
    assert_eq!(remote.writes_rejected, 2);
    assert_eq!(remote.errors, 0, "auth rejection never trips the breaker");
    assert!(remote.push_round_trips >= 1);
    // Pushes latch off after a definitive rejection; reads still work.
    let _ = worker.policy_run(&cfg);
    let server_stats = server.stats();
    assert_eq!(server_stats.records_accepted, 0, "nothing landed");
    assert!(server_stats.writes_rejected >= 1);

    // A replayer finds nothing remote and degrades to local recompute —
    // bit-identical, just not free.
    let replayer = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(addr)))
        .build();
    assert_conventional_identical(
        &ref_baseline,
        &replayer.conventional(&cfg),
        "recomputed baseline",
    );
    assert_dri_identical(&ref_dri, &replayer.policy_run(&cfg), "recomputed dri");
    assert_eq!(replayer.stats().simulations(), 2, "nothing was served");

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn a_corrupt_frame_fails_only_its_own_entry() {
    let central = temp_root("corrupt-frame-central");
    let mut cfg = RunConfig::quick(Benchmark::Li);
    cfg.instruction_budget = Some(60_000);

    let server = serve_writable(&central);
    let remote = RemoteStore::with_token(server.addr().to_string(), Some(TOKEN.to_owned()));

    // Build two genuine records and push them with a tampered frame in
    // between (right shape, damaged bytes — it fails server-side
    // validation).
    let baseline_key = dri_experiments::persist::baseline_key(&cfg);
    let dri_key = dri_experiments::persist::dri_key(&cfg);
    let schema = dri_experiments::persist::SCHEMA_VERSION;
    let session = SimSession::builder().build();
    let baseline_payload =
        dri_experiments::persist::encode_conventional(&session.conventional(&cfg));
    let dri_payload = dri_experiments::persist::encode_dri(&session.policy_run(&cfg));
    let baseline_record = dri_store::frame_record(schema, baseline_key, &baseline_payload);
    let dri_record = dri_store::frame_record(schema, dri_key, &dri_payload);
    let mut tampered = dri_store::frame_record(schema, 0x1234, b"tampered payload");
    tampered[10] ^= 0x40;

    let (outcomes, round_trips) = remote.push_batch(&[
        ("baseline", schema, baseline_key, &baseline_record),
        ("dri", schema, 0x1234, &tampered),
        ("dri", schema, dri_key, &dri_record),
    ]);
    assert_eq!(round_trips, 1);
    assert_eq!(
        outcomes,
        vec![
            PushOutcome::Accepted,
            PushOutcome::Rejected,
            PushOutcome::Accepted,
        ],
        "the corrupt frame fails alone"
    );
    // A key-mismatched frame (bytes valid, wrong address) also fails
    // alone: the server never trusts the claimed location.
    let (outcomes, _) = remote.push_batch(&[("dri", schema, dri_key + 1, &dri_record)]);
    assert_eq!(outcomes, vec![PushOutcome::Rejected]);
    let stats = server.stats();
    assert_eq!(stats.records_accepted, 2);
    assert_eq!(stats.writes_rejected, 2);

    // The two good records serve a cold replayer; the grid point the
    // corrupt frame would have covered recomputes locally.
    let replayer = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    assert_dri_identical(
        &session.policy_run(&cfg),
        &replayer.policy_run(&cfg),
        "served dri",
    );
    assert_conventional_identical(
        &session.conventional(&cfg),
        &replayer.conventional(&cfg),
        "served baseline",
    );
    assert_eq!(replayer.stats().simulations(), 0);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn pushes_to_a_read_only_server_degrade_cleanly() {
    let central = temp_root("read-only-central");
    let mut cfg = RunConfig::quick(Benchmark::Mgrid);
    cfg.instruction_budget = Some(60_000);

    // The server has no token: the write path is disabled outright.
    let server = Server::bind(Arc::new(open_store(&central)), "127.0.0.1:0", 4).expect("bind");
    let worker = pushing_worker(&server.addr().to_string(), TOKEN);
    let _ = worker.policy_run(&cfg);
    let push = worker.push_pending();
    assert_eq!(push.attempted, 1);
    assert_eq!(push.rejected, 1, "405: writes disabled");
    assert_eq!(push.pushed, 0);
    assert_eq!(server.stats().records_accepted, 0);
    assert!(server.stats().writes_rejected >= 1);
    // The worker's results still exist in its own memory tier.
    assert_eq!(worker.stats().dri_hits, 0);
    let _ = worker.policy_run(&cfg);
    assert_eq!(worker.stats().dri_hits, 1);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn oversized_push_batches_split_into_chunks_under_the_server_cap() {
    let central = temp_root("chunked-central");
    let server = serve_writable(&central);
    let remote = RemoteStore::with_token(server.addr().to_string(), Some(TOKEN.to_owned()));

    // 10 tiny records pushed at a chunk size of 3 → 4 round-trips, all
    // accepted, all served back afterwards.
    let schema = 1u32;
    let records: Vec<(u128, Vec<u8>)> = (0..10u128)
        .map(|k| {
            let payload = format!("payload-{k}").into_bytes();
            (k, dri_store::frame_record(schema, k, &payload))
        })
        .collect();
    let entries: Vec<(&str, u32, u128, &[u8])> = records
        .iter()
        .map(|(k, record)| ("dri", schema, *k, record.as_slice()))
        .collect();
    let (outcomes, round_trips) = remote.push_batch_chunked(&entries, 3);
    assert_eq!(round_trips, 4, "ceil(10 / 3) chunks");
    assert!(outcomes.iter().all(|o| *o == PushOutcome::Accepted));
    assert_eq!(server.stats().records_accepted, 10);
    assert_eq!(server.stats().push_round_trips, 4);
    for (k, record) in &records {
        assert_eq!(
            remote.fetch("dri", schema, *k),
            dri_store::validate_record(record, schema, *k).map(<[u8]>::to_vec),
            "record {k} round-trips"
        );
    }

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}
