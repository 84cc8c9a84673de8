//! End-to-end engine throughput: simulated (committed) instructions per
//! second for a full `RunConfig::quick` pair, the trajectory baseline for
//! future perf PRs.
//!
//! Three flavours per benchmark:
//!
//! * `cold/*` — `run_*_uncached`: regenerates the workload and always
//!   simulates. This is the honest simulator-throughput number.
//! * `warm/*` — the session-memoized default path after a first run: a
//!   key build plus a hash lookup, showing what repeated sweep points
//!   cost once the `SimSession` layer absorbs them.
//! * `telemetry/*` — the same warm hit on a timed session
//!   (`SimSession::builder().timed(true).build()`): the span + per-tier histogram
//!   overhead a `DRI_TIMING`/`DRI_TRACE` run adds to the hot path.
//! * `store/*` — the disk tier: a fresh session per iteration (a cold
//!   memory cache, as in a new process) loading the point from a warmed
//!   `ResultStore` — key hash + file read + checksum + decode, the cost
//!   every figure binary pays per point after another process ran first.
//! * `remote/*` — the service tier: the same cold-memory session fetching
//!   the point from a loopback `dri-serve` instance — key hash + HTTP
//!   round-trip + end-to-end record validation + decode, the cost a
//!   disk-less worker pays per point when a central store is warm.
//! * `remote/grid_*` — a whole sweep grid (6 quick-space points + the
//!   shared baseline) resolved by a cold session: one HTTP round-trip
//!   **per record** versus one chunked `POST /batch` for the entire
//!   plan (`SimSession::prefetch`) — the amortization the suite's
//!   `--prefetch` default buys every campaign replay.
//! * `push/*` — the authenticated write path: one signed `PUT` per
//!   record versus one chunked `POST /batch-put` for a whole grid's
//!   worth — what a `DRI_PUSH=1` worker pays to heal its simulations
//!   into the central store after a sweep.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dri_experiments::runner::{run_conventional_uncached, run_dri_uncached};
use dri_experiments::{
    compare, run_conventional, run_dri, RemoteStore, ResultStore, RunConfig, SimSession,
};
use std::hint::black_box;
use std::sync::Arc;
use synth_workload::suite::Benchmark;

fn bench_engine(c: &mut Criterion) {
    let cfg = RunConfig::quick(Benchmark::Compress);
    let budget = cfg.instruction_budget.expect("quick sets a budget");

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(budget));
    group.bench_function("cold/run_conventional/compress_quick", |b| {
        b.iter(|| black_box(run_conventional_uncached(black_box(&cfg))))
    });
    group.bench_function("cold/run_dri/compress_quick", |b| {
        b.iter(|| black_box(run_dri_uncached(black_box(&cfg))))
    });
    group.bench_function("warm/run_conventional/compress_quick", |b| {
        b.iter(|| black_box(run_conventional(black_box(&cfg))))
    });
    group.bench_function("warm/run_dri/compress_quick", |b| {
        b.iter(|| black_box(run_dri(black_box(&cfg))))
    });
    // The same warm hit on a *timed* session (what `suite` and any
    // DRI_TRACE/DRI_TIMING run pay): two clock reads + a histogram
    // record per lookup, the whole telemetry overhead on the hot path.
    let timed = SimSession::builder().timed(true).build();
    timed.policy_run(&cfg);
    group.bench_function("telemetry/run_dri_warm_timed/compress_quick", |b| {
        b.iter(|| black_box(timed.policy_run(black_box(&cfg))))
    });
    // Both sides plus the §5.2 energy comparison — the unit of work every
    // figure is assembled from (warm: both runs come from the session).
    group.throughput(Throughput::Elements(2 * budget));
    group.bench_function("warm/compare/compress_quick", |b| {
        b.iter(|| black_box(compare(black_box(&cfg))))
    });

    // Disk tier: warm the store once, then measure a cold-memory session
    // loading the DRI point from disk each iteration.
    let root = std::env::temp_dir().join(format!("dri-engine-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    SimSession::builder()
        .store(ResultStore::open(&root).expect("bench store"))
        .build()
        .policy_run(&cfg);
    group.throughput(Throughput::Elements(budget));
    group.bench_function("store/run_dri_disk_hit/compress_quick", |b| {
        b.iter(|| {
            let session = SimSession::builder()
                .store(ResultStore::open(&root).expect("bench store"))
                .build();
            black_box(session.policy_run(black_box(&cfg)))
        })
    });

    // Remote tier: serve the same warmed store over loopback HTTP and
    // measure a cold-memory, disk-less worker fetching the point over
    // the wire each iteration.
    let server = dri_serve::Server::bind(
        Arc::new(ResultStore::open(&root).expect("bench store")),
        "127.0.0.1:0",
        2,
    )
    .expect("bench server");
    let addr = server.addr().to_string();
    group.bench_function("remote/run_dri_remote_hit/compress_quick", |b| {
        b.iter(|| {
            let session = SimSession::builder()
                .remote(RemoteStore::new(addr.clone()))
                .build();
            black_box(session.policy_run(black_box(&cfg)))
        })
    });

    // Grid resolution: warm the full quick-space sweep grid into the
    // same served store, then compare a cold worker replaying it with
    // per-record round-trips vs one batch-prefetch round-trip.
    let grid = dri_experiments::grid_configs(&cfg, &dri_experiments::SearchSpace::quick());
    {
        let warmer = SimSession::builder()
            .store(ResultStore::open(&root).expect("bench store"))
            .build();
        for point in &grid {
            warmer.conventional(point);
            warmer.policy_run(point);
        }
    }
    // 7 unique records per replay: 6 DRI points + the shared baseline.
    group.throughput(Throughput::Elements(grid.len() as u64 + 1));
    group.bench_function("remote/grid_per_record_hits/compress_quick", |b| {
        b.iter(|| {
            let session = SimSession::builder()
                .remote(RemoteStore::new(addr.clone()))
                .build();
            for point in &grid {
                black_box(session.conventional(black_box(point)));
                black_box(session.policy_run(black_box(point)));
            }
        })
    });
    group.bench_function("remote/grid_prefetch_batch/compress_quick", |b| {
        b.iter(|| {
            let session = SimSession::builder()
                .remote(RemoteStore::new(addr.clone()))
                .build();
            black_box(session.prefetch(&grid));
            for point in &grid {
                black_box(session.conventional(black_box(point)));
                black_box(session.policy_run(black_box(point)));
            }
        })
    });
    server.shutdown();

    // Write path: a token-authenticated server over a scratch root, fed
    // by a client holding the matching secret. Per-record signed PUTs
    // (each waits out the journal's commit window) versus one chunked
    // batch-put of a grid's worth of records, which lands as one
    // checksummed segment append with **one fsync**.
    let push_root =
        std::env::temp_dir().join(format!("dri-engine-bench-push-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&push_root);
    let token = "engine-bench-token";
    let push_server = dri_serve::Server::bind_with_token(
        Arc::new(ResultStore::open(&push_root).expect("push store")),
        "127.0.0.1:0",
        2,
        Some(token.to_owned()),
    )
    .expect("push server");
    let pusher =
        dri_serve::RemoteStore::with_token(push_server.addr().to_string(), Some(token.to_owned()));
    let payload = dri_experiments::persist::encode_dri(&run_dri(&cfg));
    let record = dri_store::frame_record(1, 0xb1e5, &payload);
    group.throughput(Throughput::Elements(1));
    group.bench_function("push/put_record/compress_quick", |b| {
        b.iter(|| black_box(pusher.push("dri", 1, 0xb1e5, black_box(&record))))
    });
    let grid_records: Vec<(u128, Vec<u8>)> = (0..7u128)
        .map(|k| (k, dri_store::frame_record(1, k, &payload)))
        .collect();
    let entries: Vec<(&str, u32, u128, &[u8])> = grid_records
        .iter()
        .map(|(k, r)| ("dri", 1u32, *k, r.as_slice()))
        .collect();
    group.throughput(Throughput::Elements(entries.len() as u64));
    group.bench_function("push/batch_put_grid_journaled/compress_quick", |b| {
        b.iter(|| black_box(pusher.push_batch(black_box(&entries))))
    });
    push_server.shutdown();
    let _ = std::fs::remove_dir_all(&push_root);

    let _ = std::fs::remove_dir_all(&root);
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
