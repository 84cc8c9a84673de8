//! Tracing must observe, never perturb: with `DRI_TRACE` live (which
//! also switches lookup timing on), memoized results stay bit-identical
//! to fresh uncached runs, and every line the session writes to the
//! trace file parses back under the strict schema with the tier spans
//! the run actually exercised.
//!
//! One `#[test]` on purpose: `DRI_TRACE` is resolved once per process
//! (the sink is a `OnceLock`), so the whole scenario — set the
//! variable, run, inspect the file — must happen in a single order.

use std::collections::HashSet;
use std::path::PathBuf;

use dri_experiments::runner::{run_conventional_uncached, run_policy_uncached};
use dri_experiments::{RunConfig, SimSession};
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

    let _ = std::fs::remove_file(&trace_path);
}
