//! The session layer's contract: memoized (and parallel-swept) results
//! are *bit-identical* to fresh, uncached, serial runs.
//!
//! `run_conventional`/`run_policy` route through the global
//! [`dri_experiments::SimSession`]; `run_conventional_uncached`/
//! `run_policy_uncached` regenerate the workload and always simulate.
//! Every counter and every derived f64 must match to the last bit — for
//! the paper's DRI cache and for every other [`PolicyConfig`] model.
//!
//! The FNV-128 store keys are part of the same contract: a key names a
//! record in every store a fleet has ever written, so the golden-key
//! fixtures below pin one key per record kind forever. A key change is
//! a silent full-store invalidation and must be a deliberate
//! `SCHEMA_VERSION` bump, never a refactor side-effect.

use dri_experiments::persist::{baseline_key, policy_key, policy_kind};
use dri_experiments::runner::{
    compare_with_baseline, run_conventional, run_conventional_uncached, run_dri, run_dri_uncached,
    run_policy, run_policy_uncached,
};
use dri_experiments::sweeps::miss_bound_sweep;
use dri_experiments::{Comparison, PolicyConfig, RunConfig, SimSession};
use synth_workload::suite::Benchmark;

mod common;
use common::{assert_comparisons_bit_identical, assert_runs_bit_identical};

fn uncached_comparison(cfg: &RunConfig) -> Comparison {
    let baseline = run_conventional_uncached(cfg);
    let dri = run_dri_uncached(cfg);
    compare_with_baseline(cfg, &baseline, &dri)
}

fn cached_comparison(cfg: &RunConfig) -> Comparison {
    let baseline = run_conventional(cfg);
    let dri = run_dri(cfg);
    compare_with_baseline(cfg, &baseline, &dri)
}

#[test]
fn cached_runs_are_bit_identical_to_fresh_uncached_runs() {
    for (benchmark, size_bound) in [
        (Benchmark::Compress, 8 * 1024),
        (Benchmark::Li, 4 * 1024),
        (Benchmark::Gcc, 16 * 1024),
    ] {
        let mut cfg = RunConfig::quick(benchmark);
        cfg.instruction_budget = Some(200_000);
        cfg.dri.size_bound_bytes = size_bound;
        let fresh = uncached_comparison(&cfg);
        // First session pass populates the cache, second hits it; both
        // must equal the uncached reference bit for bit.
        let first = cached_comparison(&cfg);
        let second = cached_comparison(&cfg);
        let name = benchmark.name();
        assert_comparisons_bit_identical(&fresh, &first, &format!("{name} (cold cache)"));
        assert_comparisons_bit_identical(&fresh, &second, &format!("{name} (warm cache)"));
    }
}

#[test]
fn seed_overrides_key_the_cache_correctly() {
    let mut cfg = RunConfig::quick(Benchmark::Perl);
    cfg.instruction_budget = Some(150_000);
    cfg.seed_override = Some(42);
    let fresh = uncached_comparison(&cfg);
    let cached = cached_comparison(&cfg);
    assert_comparisons_bit_identical(&fresh, &cached, "perl seed 42");

    // A different seed must not alias to the cached seed-42 results.
    let mut other = cfg.clone();
    other.seed_override = Some(43);
    let other_fresh = uncached_comparison(&other);
    let other_cached = cached_comparison(&other);
    assert_comparisons_bit_identical(&other_fresh, &other_cached, "perl seed 43");
    assert_ne!(
        cached.relative_energy_delay.to_bits(),
        other_cached.relative_energy_delay.to_bits(),
        "different seeds should produce different runs (sanity check)"
    );
}

#[test]
fn parallel_sweep_matches_serial_uncached_points() {
    let mut base = RunConfig::quick(Benchmark::Mgrid);
    base.instruction_budget = Some(150_000);
    base.dri.size_bound_bytes = 4 * 1024;
    base.dri.miss_bound = 100;

    let sweep = miss_bound_sweep(&base);

    let point = |mb: u64| {
        let mut cfg = base.clone();
        cfg.dri.miss_bound = mb.max(1);
        let baseline = run_conventional_uncached(&base);
        let dri = run_dri_uncached(&cfg);
        compare_with_baseline(&cfg, &baseline, &dri)
    };
    assert_comparisons_bit_identical(&point(50), &sweep.half, "mgrid half");
    assert_comparisons_bit_identical(&point(100), &sweep.base, "mgrid base");
    assert_comparisons_bit_identical(&point(200), &sweep.double, "mgrid double");
}

/// The four policy variants of one config, keyed off its DRI parameters
/// (the same derivation `figures::policies` sweeps).
fn policy_variants(cfg: &RunConfig) -> Vec<RunConfig> {
    [
        PolicyConfig::Dri(cfg.dri),
        PolicyConfig::Decay(PolicyConfig::decay_from(&cfg.dri)),
        PolicyConfig::WayResize(PolicyConfig::way_resize_from(&cfg.dri)),
        PolicyConfig::WayMemo(PolicyConfig::way_memo_from(&cfg.dri)),
    ]
    .into_iter()
    .map(|p| {
        let mut c = cfg.clone();
        c.policy = Some(p);
        c
    })
    .collect()
}

#[test]
fn golden_store_keys_never_change() {
    // One frozen key per record kind, computed from the unmodified
    // `RunConfig::quick(Compress)` fixture when the policy layer landed.
    // These constants are the on-disk/remote compatibility contract: a
    // mismatch means every store a fleet has ever written silently went
    // cold. If a key derivation must change, bump
    // `persist::SCHEMA_VERSION` and recompute — never just update the
    // constant to make the test pass.
    let cfg = RunConfig::quick(Benchmark::Compress);
    assert_eq!(
        baseline_key(&cfg),
        0x8826_86a6_511d_8176_5b58_9cab_fcf8_daa6,
        "baseline key drifted"
    );
    let golden: [(&str, u128); 4] = [
        ("dri", 0xaaca_7c75_35d3_abfc_2762_5db1_5f00_96db),
        ("decay", 0x1620_3629_2ec6_1b32_e615_7b62_34ca_af95),
        ("way_resize", 0xaec2_6e4b_44a8_0f9d_65bf_8695_78d3_7c0c),
        ("way_memo", 0x5068_1e61_d58e_cb7a_e5f2_d137_e7b4_1d5a),
    ];
    for (cfg, (kind, key)) in policy_variants(&cfg).iter().zip(golden) {
        assert_eq!(policy_kind(cfg), kind);
        assert_eq!(policy_key(cfg), key, "{kind} key drifted");
    }
    // `policy: None` is the original pre-policy-layer DRI path and must
    // still produce the very same bytes-derived key.
    assert_eq!(
        policy_key(&cfg),
        0xaaca_7c75_35d3_abfc_2762_5db1_5f00_96db,
        "default-policy key drifted from the frozen dri key"
    );
}

#[test]
fn every_policy_is_bit_identical_cached_and_uncached() {
    let mut base = RunConfig::quick(Benchmark::Li);
    base.instruction_budget = Some(120_000);
    for cfg in policy_variants(&base) {
        let kind = policy_kind(&cfg);
        let fresh = run_policy_uncached(&cfg);
        let first = run_policy(&cfg);
        let second = run_policy(&cfg);
        assert_runs_bit_identical(&fresh, &first, &format!("{kind} (cold cache)"));
        assert_runs_bit_identical(&fresh, &second, &format!("{kind} (warm cache)"));
    }
}

#[test]
fn global_session_reports_cache_traffic() {
    let mut cfg = RunConfig::quick(Benchmark::Swim);
    cfg.instruction_budget = Some(120_000);
    let before = SimSession::global().stats();
    let _ = cached_comparison(&cfg);
    let _ = cached_comparison(&cfg);
    let after = SimSession::global().stats();
    assert!(
        after.baseline_hits > before.baseline_hits,
        "second pass must hit the baseline cache"
    );
    assert!(
        after.dri_hits > before.dri_hits,
        "second pass must hit the DRI-run cache"
    );
    // The global session honours an ambient `DRI_STORE`: on a warmed
    // store the first pass is a disk hit (no workload generation), so
    // accept either origin — what matters is that the point was produced
    // exactly once outside the memory tier.
    let simulated = after.workload_misses > before.workload_misses;
    let disk_served = after.disk_hits() > before.disk_hits();
    assert!(
        simulated || disk_served,
        "first pass must simulate or warm-start from the disk store"
    );
}
