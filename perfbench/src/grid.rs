//! `grid_cold`: the paper's §5.3 parameter search, simulated cold.
//!
//! Each op is one `search_benchmark(base, &SearchSpace::quick())` on a
//! key set no earlier op touched: one baseline, six DRI points, the
//! §5.2 comparisons and the two picks. Ops walk the fifteen benchmarks
//! in paper order and the seed advances after each pass, so every
//! fifteen ops are one whole quick Figure 3 campaign. The fleet does no
//! work here; the simulator layers do nearly all of it.

use std::time::Instant;

use dri_experiments::harness::{base_config, parallel_map, space, threads};
use dri_experiments::persist::encode_dri;
use dri_experiments::runner::{compare_with_baseline, run_conventional, run_dri};
use dri_experiments::search::{grid_configs, search_benchmark};
use dri_experiments::session::{prefetch_grid, SimSession};
use dri_experiments::{run_policy_uncached, Comparison, RunConfig, SearchResult};
use synth_workload::suite::Benchmark;

use crate::calib::{CacheWork, Scale};
use crate::spans::{self, Tracer};
use crate::stats::{median, minst_per_s, percentile};
use crate::{layers, seeds, setup_reps, Args, Outcome};

/// Host seconds one pass of fifteen ops takes on the reference host
/// (2 CPUs); `--seconds` buys this many whole passes, so the benchmark
/// mix is fixed by the arguments alone.
pub const PASS_SECONDS: f64 = 2.0;

/// One [`CacheWork`] sample on the reference host in its usual (slower)
/// mode; op times, and the rates made from them, are reported at this
/// speed. On that host the cache work's time tracked a simulated point's
/// time within 10–12% in 2 s stretches while both moved by ~40%.
pub const REFERENCE_MS: f64 = 1.6;

/// Records one op simulates: the baseline plus six DRI points.
pub const RECORDS_PER_OP: u64 = 7;

/// FNV-1a digest of the fifteen quick Figure 3 `SearchResult`s at the
/// paper's seeds (the default seed's first pass).
pub const QUICK_FIGURE3_DIGEST: u64 = 0xa934_f2e4_0519_c17b;

/// Whole passes a run makes: `--seconds` worth, and for an untraced run
/// at least enough ops for a p90 with ten samples beyond it.
pub fn passes_for(args: &Args) -> u64 {
    let passes = ((args.seconds as f64 / PASS_SECONDS).round() as u64).max(1);
    let min_ops = (100 + crate::stats::MIN_TAIL) as u64;
    if args.trace {
        passes
    } else {
        passes.max(min_ops.div_ceil(OPS_PER_PASS))
    }
}

/// Ops in one pass: one per benchmark.
const OPS_PER_PASS: u64 = 15;

/// The op's search base: quick Figure 3's configuration with this
/// pass's generator seed.
pub fn base(seed: u64, pass: u64, benchmark: Benchmark) -> RunConfig {
    let mut cfg = base_config(benchmark);
    cfg.seed_override = seeds::seed_override(seed, pass, benchmark);
    cfg
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fnv_comparison(hash: &mut u64, c: &Comparison) {
    fnv(hash, c.benchmark.name().as_bytes());
    for v in [c.miss_bound, c.size_bound_bytes, c.extra_l2_accesses] {
        fnv(hash, &v.to_le_bytes());
    }
    for v in [
        c.relative_energy_delay,
        c.leakage_component,
        c.dynamic_component,
        c.slowdown,
        c.avg_size_fraction,
        c.dri_miss_rate,
        c.conventional_miss_rate,
    ] {
        fnv(hash, &v.to_bits().to_le_bytes());
    }
}

/// Digest of a campaign's search results, bit for bit.
pub fn digest(results: &[SearchResult]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for r in results {
        fnv_comparison(&mut hash, &r.constrained);
        fnv_comparison(&mut hash, &r.unconstrained);
    }
    hash
}

/// Exact simulated counts of one op, summed over its seven runs.
#[derive(Debug, Clone, Copy, Default)]
struct SimCounts {
    instructions: u64,
    icache_misses: u64,
    resizes: u64,
}

fn sim_counts(base: &RunConfig) -> SimCounts {
    let baseline = run_conventional(base);
    let mut counts = SimCounts {
        instructions: baseline.timing.instructions,
        icache_misses: baseline.icache.misses,
        resizes: 0,
    };
    for cfg in grid_configs(base, &space()) {
        let run = run_dri(&cfg);
        counts.instructions += run.timing.instructions;
        counts.icache_misses += run.icache.misses;
        counts.resizes += run.dri.resizes as u64;
    }
    counts
}

/// `search_benchmark`'s steps made one call at a time, so each layer
/// gets a span; the picks come from the real `search_benchmark`
/// afterwards, which finds every run in memory.
fn traced_search(tracer: &Tracer, op: u64, base: &RunConfig) {
    spans::span(Some(tracer), "experiments.search", op, None, |root| {
        let cfgs = grid_configs(base, &space());
        spans::span(Some(tracer), "experiments.prefetch", op, root, |_| {
            prefetch_grid(&cfgs)
        });
        let baseline = spans::span(Some(tracer), "experiments.baseline", op, root, |_| {
            run_conventional(base)
        });
        let runs = spans::span(Some(tracer), "experiments.grid", op, root, |grid| {
            parallel_map(&cfgs, |cfg| {
                spans::span(Some(tracer), "experiments.point", op, grid, |_| {
                    run_dri(cfg)
                })
            })
        });
        for (cfg, run) in cfgs.iter().zip(&runs) {
            spans::span(Some(tracer), "energy.compare", op, root, |_| {
                compare_with_baseline(cfg, &baseline, run)
            });
        }
    });
}

fn sims_so_far() -> u64 {
    SimSession::global().stats().simulations()
}

/// Set-up: generate every workload the run will use, then one untimed
/// warm-up op on a key set of its own. The first repetitions generate
/// into a throwaway session so each one does the same work; the last
/// fills the global session the ops use.
fn setup(args: &Args, passes: u64, tracer: Option<&Tracer>) -> Vec<f64> {
    let bases: Vec<RunConfig> = (0..passes)
        .flat_map(|pass| Benchmark::all().map(|b| base(args.seed, pass, b)))
        .collect();
    let setup_op = u64::MAX;
    let reps = setup_reps(args);
    (0..reps)
        .map(|rep| {
            let start = Instant::now();
            let scratch = SimSession::builder().timed(false).build();
            let session = if rep + 1 == reps {
                SimSession::global()
            } else {
                &scratch
            };
            parallel_map(&bases, |cfg| {
                spans::span(tracer, "workload.generate", setup_op, None, |_| {
                    session.workload(cfg)
                })
            });
            let warmup = base(args.seed, seeds::WARMUP_PASS + rep as u64, Benchmark::Gcc);
            search_benchmark(&warmup, &space());
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Outcome {
    let passes = passes_for(args);
    let tracer = args.trace.then(Tracer::default);
    let tracer = tracer.as_ref();
    let mut outcome = Outcome::default();
    let setup_times = setup(args, passes, tracer);
    eprintln!("perfbench: set-up repetitions took {setup_times:.3?} s");

    let mut scale = Scale::new(CacheWork::new(threads()), 1, REFERENCE_MS);
    let mut raw_ms = Vec::new();
    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut instructions = 0u64;
    let mut totals = SimCounts::default();
    let mut sims = 0u64;
    let mut dup_sims = 0u64;
    let mut op = 0u64;
    for pass in 0..passes {
        let mut results = Vec::with_capacity(15);
        for benchmark in Benchmark::all() {
            let base = base(args.seed, pass, benchmark);
            let sims_before = sims_so_far();
            // In the traced run every other op carries spans, so traced
            // and untraced ops share the host's speed drift.
            let traced = tracer.filter(|_| op.is_multiple_of(2));
            if let Err(err) = scale.tick() {
                outcome.fatal = Some(format!("cache-work calibration: {err}"));
                return outcome;
            }
            let start = Instant::now();
            let result = match traced {
                Some(tracer) => {
                    traced_search(tracer, op, &base);
                    let elapsed = start.elapsed();
                    (search_benchmark(&base, &space()), elapsed)
                }
                None => {
                    let r = search_benchmark(&base, &space());
                    (r, start.elapsed())
                }
            };
            let (result, elapsed) = result;
            raw_ms.push(elapsed.as_secs_f64() * 1e3);
            let ms = scale.scale(elapsed.as_secs_f64() * 1e3);
            op_ms.push(ms);
            if tracer.is_some() {
                if traced.is_some() {
                    traced_ms.push(ms);
                } else {
                    untraced_ms.push(ms);
                }
            }
            outcome.attempted += 1;
            let op_sims = sims_so_far() - sims_before;
            sims += op_sims;
            dup_sims += op_sims.saturating_sub(RECORDS_PER_OP);
            if op_sims < RECORDS_PER_OP {
                outcome.fail(format!(
                    "op {op} ({}) simulated {op_sims} runs, not a cold {RECORDS_PER_OP}",
                    benchmark.name()
                ));
            }
            let counts = sim_counts(&base);
            instructions += counts.instructions;
            totals.instructions += counts.instructions;
            totals.icache_misses += counts.icache_misses;
            totals.resizes += counts.resizes;
            results.push(result);
            op += 1;
        }
        // One point per pass, re-simulated with no caching at all.
        let benchmark = Benchmark::all()[(pass % 15) as usize];
        let cfgs = grid_configs(&base(args.seed, pass, benchmark), &space());
        let cfg = &cfgs[(pass as usize) % cfgs.len()];
        if encode_dri(&run_dri(cfg)) != encode_dri(&run_policy_uncached(cfg)) {
            outcome.fail(format!(
                "pass {pass}: {} point differs from an uncached run",
                benchmark.name()
            ));
        }
        if args.seed == seeds::DEFAULT_SEED && pass == 0 {
            let got = digest(&results);
            if got != QUICK_FIGURE3_DIGEST {
                outcome.fatal = Some(format!(
                    "quick figure3 digest {got:016x} != committed {QUICK_FIGURE3_DIGEST:016x}"
                ));
            }
        }
    }

    eprintln!(
        "perfbench: grid ops as measured: p50 {:?} ms, p90 {:?} ms; cache work {:.4} ms",
        percentile(&raw_ms, 0.5),
        percentile(&raw_ms, 0.9),
        scale.sample_ms()
    );
    let n = op_ms.len();
    let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    if let Some(tracer) = tracer {
        layer_metrics(args, tracer, &mut outcome, &traced_ms, &untraced_ms);
        let ops = n as f64;
        outcome.metric(
            "experiments.session_sims_per_op",
            Some(sims as f64 / ops),
            n,
        );
        outcome.metric("experiments.session_dup_sims", Some(dup_sims as f64), n);
        outcome.metric(
            "sim.instructions_per_op",
            Some(totals.instructions as f64 / ops),
            n,
        );
        outcome.metric(
            "sim.icache_misses_per_op",
            Some(totals.icache_misses as f64 / ops),
            n,
        );
        outcome.metric("sim.resizes_per_op", Some(totals.resizes as f64 / ops), n);
    } else {
        outcome.metric("setup_s", median(&setup_times), setup_times.len());
        outcome.metric("op_ms_p50", percentile(&op_ms, 0.5), n);
        outcome.metric("op_ms_p90", percentile(&op_ms, 0.9), n);
        outcome.metric(
            "records_per_s",
            Some((RECORDS_PER_OP * n as u64) as f64 / busy_s),
            n,
        );
        outcome.metric(
            "sim_minst_per_s",
            Some(minst_per_s(instructions, busy_s)),
            n,
        );
        outcome.metric("peak_rss_mb", crate::peak_rss_mb(), 1);
    }
    outcome
}

/// The simulator layers' per-layer metrics from the traced ops and the
/// isolation replays.
fn layer_metrics(
    args: &Args,
    tracer: &Tracer,
    outcome: &mut Outcome,
    traced_ms: &[f64],
    untraced_ms: &[f64],
) {
    let spans = tracer.spans();
    let mean_of = |name: &str| -> (Option<f64>, usize) {
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect();
        let n = durations.len();
        ((n > 0).then(|| durations.iter().sum::<f64>() / n as f64), n)
    };
    let (generate_ns, generated) = mean_of("workload.generate");
    outcome.metric(
        "workload.generate_ms",
        generate_ns.map(|ns| ns / 1e6),
        generated,
    );

    let base = base(args.seed, 0, Benchmark::Gcc);
    let generated = SimSession::global().workload(&base);
    let budget = base.instruction_budget.expect("quick runs carry a budget");
    let streams = layers::record(&base, &generated, budget);
    let costs = layers::measure(&base, &generated, &streams, 5);
    for (name, value) in [
        ("workload.interp_ns_per_inst", costs.interp_ns_per_inst),
        ("cpu.bpred_ns_per_branch", costs.bpred_ns_per_branch),
        ("cache.icache_ns_per_fetch", costs.icache_ns_per_fetch),
        ("core.dri_ns_per_fetch", costs.dri_ns_per_fetch),
        (
            "cache.hierarchy_ns_per_access",
            costs.hierarchy_ns_per_access,
        ),
        (
            "cpu.core_run_conv_ns_per_inst",
            costs.core_run_conv_ns_per_inst,
        ),
        (
            "cpu.core_run_dri_ns_per_inst",
            costs.core_run_dri_ns_per_inst,
        ),
        ("cpu.ooo_self_ns_per_inst", costs.ooo_self_ns_per_inst),
    ] {
        outcome.metric(name, Some(value), 5);
    }

    let (compare_ns, compares) = mean_of("energy.compare");
    outcome.metric("energy.compare_us", compare_ns.map(|ns| ns / 1e3), compares);

    // Parallel efficiency and the serial baseline's share, per op.
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "experiments.search")
        .collect();
    let mut eff = Vec::new();
    let mut share = Vec::new();
    for root in &roots {
        let child = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name && s.parent == Some(root.id))
        };
        let (Some(baseline), Some(grid)) =
            (child("experiments.baseline"), child("experiments.grid"))
        else {
            continue;
        };
        let points: u64 = spans
            .iter()
            .filter(|s| s.name == "experiments.point" && s.parent == Some(grid.id))
            .map(|s| s.duration_ns())
            .sum();
        eff.push(points as f64 / (threads() as f64 * grid.duration_ns() as f64));
        share.push(baseline.duration_ns() as f64 / root.duration_ns() as f64);
    }
    outcome.metric("experiments.parallel_eff", median(&eff), eff.len());
    outcome.metric("experiments.baseline_share", median(&share), share.len());
    spans::trace_overhead(outcome, traced_ms, untraced_ms);
    spans::write_spans(args, tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seconds: u64, trace: bool) -> Args {
        Args {
            workload: "grid_cold".to_owned(),
            seed: 0,
            seconds,
            trace,
        }
    }

    #[test]
    fn passes_are_whole_and_cover_a_p90() {
        assert_eq!(passes_for(&args(25, false)), 13);
        // A short untraced run still times 120 ops: ten beyond rank 99
        // of a p90 needs 110.
        assert_eq!(passes_for(&args(1, false)), 8);
        assert!(passes_for(&args(1, false)) * OPS_PER_PASS >= 110);
        // A traced section needs no p90.
        assert_eq!(passes_for(&args(3, true)), 2);
    }
}
