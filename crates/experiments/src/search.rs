//! The per-benchmark parameter search of §5.3.
//!
//! The paper reports *best-case* energy-delay "under various combinations
//! of [miss-bound and size-bound] … determined via simulation by
//! empirically searching the combination space", in two flavours:
//! **performance-constrained** (best energy-delay with slowdown under 4%)
//! and **performance-unconstrained** (best energy-delay outright). This
//! module reproduces that search.

use crate::runner::{compare_with_baseline, Comparison, RunConfig};
use synth_workload::suite::Benchmark;

/// The paper's performance-degradation cap for the constrained search.
pub const SLOWDOWN_CONSTRAINT: f64 = 0.04;

/// The (miss-bound × size-bound) grid to explore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    /// Candidate miss-bounds (misses per sense interval).
    pub miss_bounds: Vec<u64>,
    /// Candidate size-bounds in bytes.
    pub size_bounds: Vec<u64>,
}

impl SearchSpace {
    /// The standard grid: miss-bounds spanning roughly one to two orders
    /// of magnitude above typical conventional miss counts (as in the
    /// paper), size-bounds covering every power of two from 1K to the full
    /// 64K.
    pub fn standard() -> Self {
        SearchSpace {
            miss_bounds: vec![50, 100, 200, 800],
            size_bounds: vec![1, 2, 4, 8, 16, 32, 64]
                .into_iter()
                .map(|k| k * 1024)
                .collect(),
        }
    }

    /// A reduced grid for smoke tests and benches.
    pub fn quick() -> Self {
        SearchSpace {
            miss_bounds: vec![100, 400],
            size_bounds: vec![2 * 1024, 8 * 1024, 32 * 1024],
        }
    }
}

/// Search outcome for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SearchResult {
    /// The benchmark searched.
    pub benchmark: Benchmark,
    /// Best energy-delay with slowdown ≤ 4%.
    pub constrained: Comparison,
    /// Best energy-delay regardless of slowdown.
    pub unconstrained: Comparison,
}

/// The full (miss-bound × size-bound) grid for one benchmark as run
/// configurations, in the canonical search order (size-bounds outer,
/// miss-bounds inner; bounds over the cache size skipped). This is both
/// what [`search_benchmark`] simulates and what the batch-prefetch pass
/// ([`crate::session::SimSession::prefetch`]) enumerates up front.
pub fn grid_configs(base: &RunConfig, space: &SearchSpace) -> Vec<RunConfig> {
    let mut cfgs: Vec<RunConfig> = Vec::new();
    for &size_bound in &space.size_bounds {
        if size_bound > base.dri.max_size_bytes {
            continue;
        }
        for &miss_bound in &space.miss_bounds {
            let mut cfg = base.clone();
            cfg.dri.miss_bound = miss_bound;
            cfg.dri.size_bound_bytes = size_bound;
            cfgs.push(cfg);
        }
    }
    cfgs
}

/// Exhaustively searches the grid for one benchmark against a single
/// shared baseline run. `base` supplies everything but the two searched
/// parameters. The baseline and every point resolve through
/// [`crate::session::SimSession::resolve_grid`]: cached records come from
/// the tiers, and the misses simulate in lockstep groups that interpret
/// the benchmark's stream once per group, spread over
/// [`crate::harness::parallel_map`]'s workers.
///
/// The best-point selection folds over the grid in its canonical order
/// (size-bounds outer, miss-bounds inner), so ties resolve exactly as the
/// original serial search resolved them.
pub fn search_benchmark(base: &RunConfig, space: &SearchSpace) -> SearchResult {
    let cfgs = grid_configs(base, space);
    let grid = crate::session::SimSession::global().resolve_grid(std::slice::from_ref(base), &cfgs);
    let baseline = grid.baselines[0];
    let runs = grid.points;
    let mut best_constrained: Option<Comparison> = None;
    let mut best_unconstrained: Option<Comparison> = None;
    for (cfg, dri) in cfgs.iter().zip(&runs) {
        let c = compare_with_baseline(cfg, &baseline, dri);
        if c.slowdown <= SLOWDOWN_CONSTRAINT
            && best_constrained.is_none_or(|b| c.relative_energy_delay < b.relative_energy_delay)
        {
            best_constrained = Some(c);
        }
        if best_unconstrained.is_none_or(|b| c.relative_energy_delay < b.relative_energy_delay) {
            best_unconstrained = Some(c);
        }
    }
    let unconstrained = best_unconstrained.expect("non-empty search space");
    // The constrained set can be empty. The standard space's full-size
    // bound never resizes, so it times exactly like the baseline and
    // meets the cap; the quick space has no full-size point, and when
    // every quick point slows down past the cap, the constrained pick
    // silently falls back to the unconstrained one (ROADMAP item 1).
    let constrained = best_constrained.unwrap_or(unconstrained);
    SearchResult {
        benchmark: base.benchmark,
        constrained,
        unconstrained,
    }
}

/// Searches every benchmark of `benchmarks` (all fifteen unless
/// `DRI_BENCHMARKS` restricts the campaign — the fleet-splitting knob),
/// spreading the work over [`crate::harness::parallel_map`]'s workers
/// (the same process-wide budget the per-benchmark grids draw from, so
/// the fan-out never multiplies past the machine).
///
/// The **entire cross-benchmark grid** is enumerated and prefetched
/// before the fan-out, so a cold worker pointed at a warm `dri-serve`
/// instance resolves the whole campaign — every benchmark's baseline and
/// every (miss-bound × size-bound) point — in **one** batch round-trip,
/// not one per benchmark (the per-benchmark prefetch inside
/// [`search_benchmark`] then finds everything memory-resident and stays
/// off the network). Inside this fan-out each benchmark's misses form
/// one lockstep group, unfanned, since the enclosing map already holds
/// the workers. With push mode on, whatever the campaign
/// had to simulate is pushed upward after the fan-out too (each
/// per-benchmark grid pushes as it finishes; the final
/// [`crate::session::push_grid`] drains stragglers).
pub fn search_all(
    benchmarks: &[Benchmark],
    make_base: impl Fn(Benchmark) -> RunConfig + Sync,
    space: &SearchSpace,
) -> Vec<SearchResult> {
    let campaign: Vec<RunConfig> = benchmarks
        .iter()
        .flat_map(|&b| grid_configs(&make_base(b), space))
        .collect();
    crate::session::prefetch_grid(&campaign);
    let results =
        crate::harness::parallel_map(benchmarks, |&b| search_benchmark(&make_base(b), space));
    crate::session::push_grid();
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_prefers_lower_energy_delay() {
        let mut base = RunConfig::quick(Benchmark::Compress);
        base.instruction_budget = Some(300_000);
        let r = search_benchmark(&base, &SearchSpace::quick());
        // compress is class 1: big savings within the constraint.
        assert!(r.constrained.slowdown <= SLOWDOWN_CONSTRAINT);
        assert!(
            r.constrained.relative_energy_delay < 0.7,
            "constrained ED {}",
            r.constrained.relative_energy_delay
        );
        // Unconstrained can only be at least as good.
        assert!(
            r.unconstrained.relative_energy_delay <= r.constrained.relative_energy_delay + 1e-12
        );
    }

    #[test]
    fn oversized_bounds_are_skipped() {
        let mut base = RunConfig::quick(Benchmark::Li);
        base.instruction_budget = Some(200_000);
        let space = SearchSpace {
            miss_bounds: vec![100],
            size_bounds: vec![4 * 1024, 128 * 1024], // 128K > 64K max: skipped
        };
        let r = search_benchmark(&base, &space);
        assert_eq!(r.unconstrained.size_bound_bytes, 4 * 1024);
    }
}
