//! Tracing must observe, never perturb: with `DRI_TRACE` live (which
//! also switches lookup timing on), memoized results stay bit-identical
//! to fresh uncached runs, and every line the session writes to the
//! trace file parses back under the strict schema with the tier spans
//! the run actually exercised — one per record, including each record a
//! batch exchange with a server answered.
//!
//! One `#[test]` on purpose: `DRI_TRACE` is resolved once per process
//! (the sink is a `OnceLock`), so the whole scenario — set the
//! variable, run, inspect the file — must happen in a single order.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use dri_experiments::runner::{run_conventional_uncached, run_policy_uncached};
use dri_experiments::search::{grid_configs, SearchSpace};
use dri_experiments::{RemoteStore, ResultStore, RunConfig, ShardedStore, SimSession};
use dri_serve::Server;
use dri_telemetry::{trace, TraceEvent};
use synth_workload::suite::Benchmark;

fn temp_trace() -> PathBuf {
    std::env::temp_dir().join(format!("dri-trace-identity-{}.jsonl", std::process::id()))
}

#[test]
fn tracing_never_perturbs_results_and_emits_parsable_tier_spans() {
    let trace_path = temp_trace();
    let _ = std::fs::remove_file(&trace_path);
    std::env::set_var(dri_telemetry::TRACE_ENV, &trace_path);
    assert!(trace::enabled(), "the sink must open the temp file");

    let mut cfg = RunConfig::quick(Benchmark::Compress);
    cfg.instruction_budget = Some(80_000);

    // Timed + traced session: first lookups simulate, replays hit memory.
    let session = SimSession::builder().build();
    assert!(
        session.is_timed(),
        "an open trace switches lookup timing on"
    );
    let baseline = session.conventional(&cfg);
    let dri = session.policy_run(&cfg);
    let baseline_replay = session.conventional(&cfg);
    let dri_replay = session.policy_run(&cfg);

    // Bit-identity, traced vs fresh-and-uncached (which also runs under
    // the live trace — instrumentation is on for both sides).
    let fresh_baseline = run_conventional_uncached(&cfg);
    let fresh_dri = run_policy_uncached(&cfg);
    assert_eq!(baseline.timing.cycles, fresh_baseline.timing.cycles);
    assert_eq!(baseline.icache, fresh_baseline.icache);
    assert_eq!(baseline.timing.cycles, baseline_replay.timing.cycles);
    assert_eq!(dri.timing.cycles, fresh_dri.timing.cycles);
    assert_eq!(dri.timing.cycles, dri_replay.timing.cycles);
    assert_eq!(dri.icache, fresh_dri.icache);
    assert_eq!(dri.dri.final_size_bytes, fresh_dri.dri.final_size_bytes);
    assert_eq!(dri.dri.resizes, fresh_dri.dri.resizes);

    // The timed session attributed every lookup to a tier.
    let tiers = session.tier_latency();
    assert_eq!(tiers.simulate.count(), 2, "baseline + dri simulated once");
    assert_eq!(tiers.memory.count(), 2, "both replays hit memory");
    for (_, hist) in tiers.rows() {
        if hist.count() > 0 {
            let (p50, _, _, max) = hist.percentiles();
            assert!(p50 > 0 && max >= p50);
        }
    }

    // Every emitted line parses back, and the tier spans cover both
    // outcomes this run exercised.
    let text = std::fs::read_to_string(&trace_path).expect("trace file exists");
    let mut outcomes: HashSet<String> = HashSet::new();
    let mut lines = 0;
    for line in text.lines() {
        let event = TraceEvent::parse(line)
            .unwrap_or_else(|err| panic!("unparsable trace line {line:?}: {err}"));
        lines += 1;
        if event.kind == "tier" {
            assert!(event.dur_us.is_some(), "tier events are spans: {line:?}");
            assert!(
                event
                    .labels
                    .iter()
                    .any(|(k, v)| k == "benchmark" && v == "compress"),
                "tier spans carry the benchmark label: {line:?}"
            );
            outcomes.insert(event.outcome.expect("tier spans carry an outcome"));
        }
    }
    assert!(lines >= 4, "at least the four session lookups traced");
    assert!(outcomes.contains("simulate"), "{outcomes:?}");
    assert!(outcomes.contains("memory"), "{outcomes:?}");

    // A traced grid replay over a server: the grid's seven records
    // arrive in one exchange, each gets its own `remote` tier span, and
    // they match the untimed writer's records bit for bit.
    let central =
        std::env::temp_dir().join(format!("dri-trace-identity-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&central);
    let points = grid_configs(&cfg, &SearchSpace::quick());
    let writer = SimSession::builder()
        .store(ResultStore::open(&central).expect("open store"))
        .timed(false)
        .build();
    let written = writer.resolve_grid(std::slice::from_ref(&cfg), &points);
    let server = Server::bind(
        Arc::new(ResultStore::open(&central).expect("reopen store")),
        "127.0.0.1:0",
        2,
    )
    .expect("bind server");
    let replayer = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(
            server.addr().to_string(),
        )))
        .build();
    let replayed = replayer.resolve_grid(std::slice::from_ref(&cfg), &points);
    server.shutdown();
    assert_eq!(replayer.stats().simulations(), 0);
    assert_eq!(
        replayer.stats().remote_hits(),
        7,
        "one baseline + six points"
    );
    assert_eq!(
        replayer.remote_stats().expect("remote").batch_round_trips,
        1
    );
    assert_eq!(replayer.tier_latency().remote.count(), 7);
    let (a, b) = (&written.baselines[0], &replayed.baselines[0]);
    assert_eq!((a.timing, a.icache), (b.timing, b.icache), "baseline");
    assert_eq!(a.bpred_accuracy.to_bits(), b.bpred_accuracy.to_bits());
    for (a, b) in written.points.iter().zip(&replayed.points) {
        assert_eq!((a.timing, a.icache), (b.timing, b.icache), "point");
        assert_eq!(a.dri.resizes, b.dri.resizes);
        assert_eq!(
            a.dri.avg_size_bytes.to_bits(),
            b.dri.avg_size_bytes.to_bits()
        );
        assert_eq!(a.bpred_accuracy.to_bits(), b.bpred_accuracy.to_bits());
    }
    let remote_spans = std::fs::read_to_string(&trace_path)
        .expect("trace file exists")
        .lines()
        .map(|line| TraceEvent::parse(line).expect("parsable trace line"))
        .filter(|e| e.kind == "tier" && e.outcome.as_deref() == Some("remote"))
        .count();
    assert_eq!(remote_spans, 7, "one remote span per record");

    let _ = std::fs::remove_dir_all(&central);
    let _ = std::fs::remove_file(&trace_path);
}
