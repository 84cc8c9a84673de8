//! Cross-crate integration tests: the whole stack — workload generation,
//! OoO timing, cache hierarchy, DRI adaptation, and energy accounting —
//! exercised together the way the experiment harness uses it.

use dri::cache::icache::{ConventionalICache, InstCache};
use dri::cpu::config::CpuConfig;
use dri::cpu::core::Core;
use dri::dri::{DriConfig, DriICache};
use dri::energy::params::EnergyParams;
use dri::experiments::runner::compare_with_baseline;
use dri::experiments::search::{search_benchmark, SearchSpace};
use dri::experiments::sweeps::{geometry_sweep, miss_bound_sweep, size_bound_sweep};
use dri::experiments::{run_conventional, run_dri, RunConfig};
use dri::workload::suite::Benchmark;

fn quick(b: Benchmark) -> RunConfig {
    let mut cfg = RunConfig::quick(b);
    cfg.dri.size_bound_bytes = 4 * 1024;
    cfg.dri.miss_bound = 100;
    cfg
}

#[test]
fn dri_and_conventional_execute_identical_instruction_streams() {
    // The i-cache only affects *timing*; both runs must commit the same
    // number of instructions and the same loads/stores/branches.
    let cfg = quick(Benchmark::Li);
    let conv = run_conventional(&cfg);
    let dri = run_dri(&cfg);
    assert_eq!(conv.timing.instructions, dri.timing.instructions);
    assert_eq!(conv.timing.loads, dri.timing.loads);
    assert_eq!(conv.timing.stores, dri.timing.stores);
    assert_eq!(conv.timing.branches, dri.timing.branches);
}

#[test]
fn dri_never_beats_conventional_on_pure_timing() {
    // Resizing can only add misses, so a DRI run is never faster than the
    // baseline of the same geometry.
    for b in [Benchmark::Compress, Benchmark::Mgrid, Benchmark::Perl] {
        let cfg = quick(b);
        let conv = run_conventional(&cfg);
        let dri = run_dri(&cfg);
        assert!(
            dri.timing.cycles >= conv.timing.cycles,
            "{}: DRI {} cycles vs conventional {}",
            b.name(),
            dri.timing.cycles,
            conv.timing.cycles
        );
    }
}

#[test]
fn class1_benchmark_saves_energy_end_to_end() {
    let cfg = quick(Benchmark::Compress);
    let baseline = run_conventional(&cfg);
    let dri = run_dri(&cfg);
    let c = compare_with_baseline(&cfg, &baseline, &dri);
    assert!(
        c.relative_energy_delay < 0.7,
        "ED {}",
        c.relative_energy_delay
    );
    assert!(c.avg_size_fraction < 0.5);
    // Components must sum to the total.
    let sum = c.leakage_component + c.dynamic_component;
    assert!((sum - c.relative_energy_delay).abs() < 1e-9);
}

#[test]
fn full_size_bound_is_exactly_the_baseline() {
    // With the size-bound pinned at the full size the DRI cache can never
    // resize, so timing and misses must match the conventional run
    // exactly, and the relative energy-delay must be 1.
    let mut cfg = quick(Benchmark::M88ksim);
    cfg.dri.size_bound_bytes = cfg.dri.max_size_bytes;
    let baseline = run_conventional(&cfg);
    let dri = run_dri(&cfg);
    assert_eq!(dri.timing.cycles, baseline.timing.cycles);
    assert_eq!(dri.icache.misses, baseline.icache.misses);
    let c = compare_with_baseline(&cfg, &baseline, &dri);
    assert!((c.relative_energy_delay - 1.0).abs() < 1e-9);
    assert_eq!(c.extra_l2_accesses, 0);
}

#[test]
fn figure_pipelines_price_every_point_finitely() {
    // One quick search per benchmark class (Figure 3) and the Figure 4-6
    // sweeps around a fixed operating point: every relative energy-delay
    // they report must be a number.
    let point = |b: Benchmark, budget: u64, size_bound: u64| {
        let mut cfg = quick(b);
        cfg.instruction_budget = Some(budget);
        cfg.dri.size_bound_bytes = size_bound;
        cfg
    };
    let mut eds = Vec::new();
    for b in [Benchmark::Compress, Benchmark::Perl, Benchmark::Ijpeg] {
        let mut base = RunConfig::quick(b);
        base.instruction_budget = Some(250_000);
        let r = search_benchmark(&base, &SearchSpace::quick());
        eds.push((format!("figure3 {}", b.name()), r.constrained));
    }
    let s = miss_bound_sweep(&point(Benchmark::Compress, 250_000, 4 * 1024));
    for (what, c) in [("half", s.half), ("base", s.base), ("double", s.double)] {
        eds.push((format!("figure4 {what}"), c));
    }
    let s = size_bound_sweep(&point(Benchmark::Li, 250_000, 8 * 1024));
    for (what, c) in [
        ("double", s.double),
        ("base", Some(s.base)),
        ("half", s.half),
    ] {
        eds.extend(c.map(|c| (format!("figure5 {what}"), c)));
    }
    let s = geometry_sweep(&point(Benchmark::Mgrid, 200_000, 2 * 1024));
    for (what, c) in [
        ("64K 4-way", s.assoc_4way),
        ("64K DM", s.dm_64k),
        ("128K DM", s.dm_128k),
    ] {
        eds.push((format!("figure6 {what}"), c));
    }
    for (what, c) in eds {
        assert!(
            c.relative_energy_delay.is_finite(),
            "{what}: rel-ED {}",
            c.relative_energy_delay
        );
    }
}

#[test]
fn energy_params_derived_and_published_agree_end_to_end() {
    // Swapping the published constants for the circuit-derived ones moves
    // the relative energy-delay only slightly (the derived constants match
    // within a few percent).
    let cfg = quick(Benchmark::Applu);
    let baseline = run_conventional(&cfg);
    let dri = run_dri(&cfg);
    let published = compare_with_baseline(&cfg, &baseline, &dri);
    let mut derived_cfg = cfg.clone();
    derived_cfg.energy = EnergyParams::hpca01_derived();
    let derived = compare_with_baseline(&derived_cfg, &baseline, &dri);
    // The derived parameters carry the ~3% residual standby leakage the
    // paper rounds to zero; on a mostly-gated run that raises the
    // energy-delay by ~10-15%, and the derived result must be the larger.
    assert!(derived.relative_energy_delay > published.relative_energy_delay);
    let delta = derived.relative_energy_delay - published.relative_energy_delay;
    assert!(
        delta / published.relative_energy_delay < 0.2,
        "published {} vs derived {}",
        published.relative_energy_delay,
        derived.relative_energy_delay
    );
}

#[test]
fn geometry_variants_run_and_report_consistent_bits() {
    for dri_cfg in [
        DriConfig::hpca01_64k_dm(),
        DriConfig::hpca01_64k_4way(),
        DriConfig::hpca01_128k_dm(),
    ] {
        let mut cfg = quick(Benchmark::Swim);
        let bound = cfg.dri.size_bound_bytes;
        cfg.dri = DriConfig {
            size_bound_bytes: bound,
            miss_bound: 100,
            sense_interval: 20_000,
            ..dri_cfg
        };
        let dri = run_dri(&cfg);
        assert_eq!(
            dri.dri.resizing_bits,
            (dri_cfg.max_size_bytes / bound).trailing_zeros(),
        );
        assert!(dri.timing.instructions > 0);
    }
}

#[test]
fn alias_invalidation_is_visible_through_the_whole_stack() {
    // Run a core, then unmap a hot code page: every alias must be gone.
    let generated = Benchmark::Li.build();
    let mut cfg = DriConfig::hpca01_64k_dm();
    cfg.sense_interval = 20_000;
    cfg.size_bound_bytes = 4 * 1024;
    let mut core = Core::new(&generated.program, CpuConfig::hpca01(), DriICache::new(cfg));
    core.run(300_000);
    // (Core has no mutable icache access by design; construct a fresh DRI
    // cache and replay a prefix to exercise invalidate_all_aliases here.)
    let mut dri = DriICache::new(cfg);
    let base = generated.program.base_addr();
    for i in 0..50_000u64 {
        let _ = dri.access(base + (i % 4096) * 4, i);
        dri.retire_instructions(1, i);
    }
    let dropped = dri.invalidate_all_aliases(base);
    assert!(dropped >= 1, "hot entry block must have at least one copy");
    assert!(!dri.probe(base));
}

#[test]
fn conventional_baseline_miss_rates_stay_low() {
    // Paper §5.3: conventional 64K miss rates below ~1% (per cycle).
    for b in Benchmark::all() {
        let mut cfg = RunConfig::hpca01(b);
        cfg.instruction_budget = Some(1_500_000);
        let conv = run_conventional(&cfg);
        let mr = conv.icache.misses as f64 / conv.timing.cycles as f64;
        assert!(
            mr < 0.025,
            "{}: conventional per-cycle miss rate {mr}",
            b.name()
        );
    }
}

#[test]
fn conventional_icache_trait_object_compatibility() {
    // InstCache implementations are interchangeable behind the trait.
    fn misses_with<IC: InstCache>(ic: IC, budget: u64) -> u64 {
        let generated = Benchmark::Mgrid.build();
        let mut core = Core::new(&generated.program, CpuConfig::hpca01(), ic);
        core.run(budget);
        core.icache().stats().misses
    }
    let conv = misses_with(ConventionalICache::hpca01(), 100_000);
    let dri = misses_with(DriICache::new(DriConfig::hpca01_64k_dm()), 100_000);
    // Before any resize happens, a full-size DRI cache behaves like the
    // conventional one.
    assert!(dri >= conv);
}
