//! Parameter and geometry sweeps: Figures 4–6 and §5.6.
//!
//! Every sweep resolves its whole point grid — one baseline run per
//! geometry plus the DRI points — in one
//! [`crate::session::SimSession::resolve_grid`] call on the global
//! session: cached records come from the tiers, and the misses simulate
//! in lockstep groups that share one interpretation of the benchmark's
//! stream. Points come back in sweep order, so outputs are identical to
//! a serial sweep.

use crate::runner::{compare_with_baseline, Comparison, RunConfig};
use crate::session::SimSession;
use dri_core::DriConfig;

/// Resolves `base`'s baseline and the DRI side of every config as one
/// grid, and compares each point against that shared baseline. The grid
/// walks the session tiers in one batch and — with push mode on —
/// whatever it had to simulate is pushed upward afterwards.
fn compare_points(base: &RunConfig, cfgs: &[RunConfig]) -> Vec<Comparison> {
    compare_variants(std::slice::from_ref(base), |_| cfgs.to_vec())
        .pop()
        .expect("one row per base")
}

/// Resolves the baseline of every base and the policy side of each
/// base's `variants` as **one** grid, and compares every variant with
/// its own base's baseline: one row per base, in order, and one
/// comparison per variant. Spanning several bases (benchmarks or seeds),
/// the grid's misses form one lockstep group per stream, spread over
/// the worker budget.
pub fn compare_variants(
    bases: &[RunConfig],
    variants: impl Fn(&RunConfig) -> Vec<RunConfig>,
) -> Vec<Vec<Comparison>> {
    let rows: Vec<Vec<RunConfig>> = bases.iter().map(variants).collect();
    let points: Vec<RunConfig> = rows.iter().flatten().cloned().collect();
    let grid = SimSession::global().resolve_grid(bases, &points);
    let mut runs = grid.points.iter();
    rows.iter()
        .zip(&grid.baselines)
        .map(|(cfgs, baseline)| {
            cfgs.iter()
                .zip(runs.by_ref())
                .map(|(cfg, run)| compare_with_baseline(cfg, baseline, run))
                .collect()
        })
        .collect()
}

/// Figure 4: the miss-bound varied to 0.5×, 1×, and 2× of the base
/// (performance-constrained) value, size-bound held.
#[derive(Debug, Clone, Copy)]
pub struct MissBoundSweep {
    /// 0.5× the base miss-bound.
    pub half: Comparison,
    /// The base setting.
    pub base: Comparison,
    /// 2× the base miss-bound.
    pub double: Comparison,
}

/// The Figure 4 sweep's point grid around `base`, in sweep order
/// (half, base, double). Enumerating the grid without running it is
/// what lets a campaign batch-prefetch every sweep point up front (see
/// [`crate::figures`]); [`miss_bound_sweep`] runs exactly these configs.
pub fn miss_bound_grid(base: &RunConfig) -> Vec<RunConfig> {
    [
        base.dri.miss_bound / 2,
        base.dri.miss_bound,
        base.dri.miss_bound * 2,
    ]
    .into_iter()
    .map(|mb| {
        let mut cfg = base.clone();
        cfg.dri.miss_bound = mb.max(1);
        cfg
    })
    .collect()
}

/// Runs the Figure 4 sweep around `base` (whose `dri.miss_bound` is the
/// benchmark's constrained-best value). The baseline run is shared and the
/// three points resolve as one grid.
pub fn miss_bound_sweep(base: &RunConfig) -> MissBoundSweep {
    let cfgs = miss_bound_grid(base);
    let mut points = compare_points(base, &cfgs);
    let double = points.pop().expect("three points");
    let base_point = points.pop().expect("three points");
    let half = points.pop().expect("three points");
    MissBoundSweep {
        half,
        base: base_point,
        double,
    }
}

/// Figure 5: the size-bound varied to 2×, 1×, and 0.5× of the base value
/// (the paper's ordering), miss-bound held. `double` is `None` when the
/// base bound is already the full cache (fpppp's "NOT APPLICABLE" column).
#[derive(Debug, Clone, Copy)]
pub struct SizeBoundSweep {
    /// 2× the base size-bound (None when it would exceed the cache).
    pub double: Option<Comparison>,
    /// The base setting.
    pub base: Comparison,
    /// 0.5× the base size-bound (None when it would drop below one row).
    pub half: Option<Comparison>,
}

/// The Figure 5 sweep's point grid around `base`: the base bound first,
/// then the applicable 2× and 0.5× points (the inapplicable ends are
/// simply absent, mirroring the paper's "NOT APPLICABLE" cells).
/// [`size_bound_sweep`] runs exactly these configs.
pub fn size_bound_grid(base: &RunConfig) -> Vec<RunConfig> {
    let row_bytes = base.dri.block_bytes * u64::from(base.dri.associativity);
    let mut bounds = vec![base.dri.size_bound_bytes];
    if base.dri.size_bound_bytes * 2 <= base.dri.max_size_bytes {
        bounds.push(base.dri.size_bound_bytes * 2);
    }
    if base.dri.size_bound_bytes / 2 >= row_bytes {
        bounds.push(base.dri.size_bound_bytes / 2);
    }
    bounds
        .into_iter()
        .map(|sb| {
            let mut cfg = base.clone();
            cfg.dri.size_bound_bytes = sb;
            cfg
        })
        .collect()
}

/// Runs the Figure 5 sweep around `base`: applicable points as one grid
/// against the shared baseline.
pub fn size_bound_sweep(base: &RunConfig) -> SizeBoundSweep {
    let has_double = base.dri.size_bound_bytes * 2 <= base.dri.max_size_bytes;
    let has_half =
        base.dri.size_bound_bytes / 2 >= base.dri.block_bytes * u64::from(base.dri.associativity);
    let cfgs = size_bound_grid(base);
    let mut points = compare_points(base, &cfgs).into_iter();
    let base_point = points.next().expect("base point");
    let double = has_double.then(|| points.next().expect("double point"));
    let half = has_half.then(|| points.next().expect("half point"));
    SizeBoundSweep {
        double,
        base: base_point,
        half,
    }
}

/// Figure 6: conventional cache parameters varied — 64K 4-way, 64K
/// direct-mapped, and 128K direct-mapped — each compared against a
/// conventional i-cache of *equivalent* geometry, all using the base 64K
/// direct-mapped miss-/size-bounds (paper §5.5).
#[derive(Debug, Clone, Copy)]
pub struct GeometrySweep {
    /// 64K four-way associative.
    pub assoc_4way: Comparison,
    /// 64K direct-mapped (the base design point).
    pub dm_64k: Comparison,
    /// 128K direct-mapped (one extra resizing tag bit).
    pub dm_128k: Comparison,
}

/// The Figure 6 sweep's point grid around `base`, in sweep order (64K
/// 4-way, 64K DM, 128K DM), each point carrying the base miss-/size-
/// bounds capped to its geometry. [`geometry_sweep`] runs exactly these
/// configs.
pub fn geometry_grid(base: &RunConfig) -> Vec<RunConfig> {
    [
        DriConfig::hpca01_64k_4way(),
        DriConfig::hpca01_64k_dm(),
        DriConfig::hpca01_128k_dm(),
    ]
    .into_iter()
    .map(|dri| {
        let mut cfg = base.clone();
        cfg.dri = DriConfig {
            miss_bound: base.dri.miss_bound,
            size_bound_bytes: base.dri.size_bound_bytes.min(dri.max_size_bytes),
            sense_interval: base.dri.sense_interval,
            divisibility: base.dri.divisibility,
            throttle: base.dri.throttle,
            ..dri
        };
        cfg
    })
    .collect()
}

/// Runs the Figure 6 sweep. `base` carries the benchmark's constrained
/// 64K-DM parameters. Each geometry pairs with a baseline of its own
/// geometry; all six records share one stream, so the misses among them
/// simulate in lockstep.
pub fn geometry_sweep(base: &RunConfig) -> GeometrySweep {
    let cfgs = geometry_grid(base);
    let grid = SimSession::global().resolve_grid(&cfgs, &cfgs);
    let mut points = cfgs
        .iter()
        .zip(grid.baselines.iter().zip(&grid.points))
        .map(|(cfg, (baseline, dri))| compare_with_baseline(cfg, baseline, dri));
    GeometrySweep {
        assoc_4way: points.next().expect("three geometries"),
        dm_64k: points.next().expect("three geometries"),
        dm_128k: points.next().expect("three geometries"),
    }
}

/// The §5.6 sense-interval grid around `base`, one config per swept
/// length; [`interval_sweep`] runs exactly these configs.
pub fn interval_grid(base: &RunConfig, intervals: &[u64]) -> Vec<RunConfig> {
    intervals
        .iter()
        .map(|&si| {
            let mut cfg = base.clone();
            cfg.dri.sense_interval = si;
            cfg
        })
        .collect()
}

/// §5.6: sense-interval robustness. Returns `(interval, comparison)` per
/// swept length, all points as one grid against the shared baseline.
pub fn interval_sweep(base: &RunConfig, intervals: &[u64]) -> Vec<(u64, Comparison)> {
    let cfgs = interval_grid(base, intervals);
    intervals
        .iter()
        .copied()
        .zip(compare_points(base, &cfgs))
        .collect()
}

/// The §5.6 divisibility grid around `base`, one config per factor;
/// [`divisibility_sweep`] runs exactly these configs.
pub fn divisibility_grid(base: &RunConfig, divs: &[u32]) -> Vec<RunConfig> {
    divs.iter()
        .map(|&d| {
            let mut cfg = base.clone();
            cfg.dri.divisibility = d;
            cfg
        })
        .collect()
}

/// §5.6: divisibility. Returns `(divisibility, comparison)` per factor,
/// all points as one grid against the shared baseline.
pub fn divisibility_sweep(base: &RunConfig, divs: &[u32]) -> Vec<(u32, Comparison)> {
    let cfgs = divisibility_grid(base, divs);
    divs.iter()
        .copied()
        .zip(compare_points(base, &cfgs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth_workload::suite::Benchmark;

    fn quick_base() -> RunConfig {
        let mut cfg = RunConfig::quick(Benchmark::Compress);
        cfg.instruction_budget = Some(250_000);
        cfg.dri.size_bound_bytes = 4 * 1024;
        cfg.dri.miss_bound = 100;
        cfg
    }

    #[test]
    fn miss_bound_sweep_produces_three_points() {
        let s = miss_bound_sweep(&quick_base());
        assert_eq!(s.half.miss_bound, 50);
        assert_eq!(s.base.miss_bound, 100);
        assert_eq!(s.double.miss_bound, 200);
    }

    #[test]
    fn size_bound_sweep_handles_full_cache_bound() {
        let mut cfg = quick_base();
        cfg.dri.size_bound_bytes = cfg.dri.max_size_bytes;
        let s = size_bound_sweep(&cfg);
        assert!(s.double.is_none(), "fpppp-style: no 2x column");
        assert!(s.half.is_some());
    }

    #[test]
    fn geometry_sweep_covers_three_designs() {
        let s = geometry_sweep(&quick_base());
        assert_eq!(s.dm_64k.size_bound_bytes, 4 * 1024);
        // The 128K cache keeps the same absolute size-bound (one more
        // resizing bit), per §5.5.
        assert_eq!(s.dm_128k.size_bound_bytes, 4 * 1024);
        assert!(s.assoc_4way.relative_energy_delay.is_finite());
    }

    #[test]
    fn interval_sweep_is_robust_for_class1() {
        // Paper: energy-delay varies by <1% (go <5%) across 250K..4M.
        // Our quick check uses a narrower claim: same order of magnitude.
        let base = quick_base();
        let rows = interval_sweep(&base, &[10_000, 20_000, 40_000]);
        let eds: Vec<f64> = rows.iter().map(|(_, c)| c.relative_energy_delay).collect();
        let spread = (eds.iter().cloned().fold(f64::MIN, f64::max)
            - eds.iter().cloned().fold(f64::MAX, f64::min))
        .abs();
        assert!(spread < 0.3, "interval spread {spread} too wide: {eds:?}");
    }

    #[test]
    fn grids_enumerate_exactly_what_the_sweeps_run() {
        // The campaign-level prefetch plans these grids *instead of*
        // running the sweeps, so each must mirror its sweep's points.
        let base = quick_base();
        let mb = miss_bound_grid(&base);
        assert_eq!(
            mb.iter().map(|c| c.dri.miss_bound).collect::<Vec<_>>(),
            vec![50, 100, 200]
        );
        let sb = size_bound_grid(&base);
        assert_eq!(
            sb.iter()
                .map(|c| c.dri.size_bound_bytes)
                .collect::<Vec<_>>(),
            vec![4 * 1024, 8 * 1024, 2 * 1024]
        );
        let mut full = quick_base();
        full.dri.size_bound_bytes = full.dri.max_size_bytes;
        assert_eq!(size_bound_grid(&full).len(), 2, "no 2x point at the cap");
        let geo = geometry_grid(&base);
        assert_eq!(geo.len(), 3);
        assert_eq!(geo[0].dri.associativity, 4);
        assert_eq!(geo[2].dri.max_size_bytes, 128 * 1024);
        assert!(geo.iter().all(|c| c.dri.miss_bound == 100));
        assert_eq!(interval_grid(&base, &[10_000, 20_000]).len(), 2);
        assert_eq!(
            divisibility_grid(&base, &[2, 4, 8])
                .iter()
                .map(|c| c.dri.divisibility)
                .collect::<Vec<_>>(),
            vec![2, 4, 8]
        );
    }

    #[test]
    fn divisibility_sweep_runs() {
        let rows = divisibility_sweep(&quick_base(), &[2, 4, 8]);
        assert_eq!(rows.len(), 3);
        for (d, c) in rows {
            assert!(c.relative_energy_delay.is_finite(), "div {d}");
        }
    }
}
