//! `SimSession::resolve_grid`'s contract: a grid resolved in lockstep
//! groups — one interpretation of the stream driving every missing
//! record's back half — is bit-identical to simulating each record
//! alone with no caching at all, whatever the group sizes and however
//! the group mixes CPU, i-cache geometry and leakage policy. The tier
//! accounting matches the per-point path record for record: one
//! simulation per miss, none for a hit, a disk save and a push entry for
//! each simulated record.

use std::path::PathBuf;

use dri_core::DriConfig;
use dri_experiments::harness::{parallel_map, threads};
use dri_experiments::runner::{run_conventional_uncached, run_policy_uncached};
use dri_experiments::{
    grid_configs, GridRuns, PolicyConfig, RemoteStore, ResultStore, RunConfig, SearchSpace,
    ShardedStore, SimSession,
};
use synth_workload::suite::Benchmark;

mod common;
use common::{assert_conventional_bit_identical, assert_runs_bit_identical};

fn base(benchmark: Benchmark, budget: u64) -> RunConfig {
    let mut cfg = RunConfig::quick(benchmark);
    cfg.instruction_budget = Some(budget);
    cfg
}

/// Checks every record of `grid` against an uncached simulation.
fn assert_matches_uncached(baselines: &[RunConfig], points: &[RunConfig], grid: &GridRuns) {
    assert_eq!(grid.baselines.len(), baselines.len());
    assert_eq!(grid.points.len(), points.len());
    for (i, (cfg, run)) in baselines.iter().zip(&grid.baselines).enumerate() {
        let what = format!("baseline {i} ({})", cfg.benchmark.name());
        assert_conventional_bit_identical(&run_conventional_uncached(cfg), run, &what);
    }
    for (i, (cfg, run)) in points.iter().zip(&grid.points).enumerate() {
        let what = format!(
            "point {i} ({} {})",
            cfg.benchmark.name(),
            dri_experiments::persist::policy_kind(cfg)
        );
        assert_runs_bit_identical(&run_policy_uncached(cfg), run, &what);
    }
}

/// Runs `f` while every other worker of the process budget is held, so
/// `resolve_grid` inside it is granted one worker and simulates its
/// misses as few groups as the cap allows.
fn with_one_worker<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let slots: Vec<usize> = (0..threads()).collect();
    parallel_map(&slots, |&i| (i == 0).then(&f))
        .into_iter()
        .next()
        .flatten()
        .expect("slot 0 ran the closure")
}

#[test]
fn group_sizes_from_one_to_over_the_cap_match_uncached_runs() {
    let base = base(Benchmark::Li, 40_000);
    let quick = grid_configs(&base, &SearchSpace::quick());
    let standard = grid_configs(&base, &SearchSpace::standard());
    assert_eq!(standard.len(), 28, "28 points + the baseline: over the cap");
    for points in [&[][..], &quick[..1], &quick[..], &standard[..]] {
        let records = points.len() as u64 + 1;
        let resolve_cold = |serial: bool| {
            let session = SimSession::builder().build();
            let resolve = || session.resolve_grid(std::slice::from_ref(&base), points);
            let grid = if serial {
                with_one_worker(resolve)
            } else {
                resolve()
            };
            assert_eq!(
                session.stats().simulations(),
                records,
                "{records} cold records"
            );
            grid
        };
        let split = resolve_cold(false);
        assert_matches_uncached(std::slice::from_ref(&base), points, &split);
        // The fewest groups the cap allows: the same records.
        let serial = resolve_cold(true);
        assert_conventional_bit_identical(&split.baselines[0], &serial.baselines[0], "serial");
        for (a, b) in split.points.iter().zip(&serial.points) {
            assert_runs_bit_identical(a, b, "serial point");
        }
    }
}

#[test]
fn one_group_mixes_baselines_policies_and_geometries() {
    let mut four_way = base(Benchmark::Gcc, 50_000);
    four_way.dri = DriConfig {
        size_bound_bytes: 8 * 1024,
        sense_interval: 10_000,
        ..DriConfig::hpca01_64k_4way()
    };
    let mut big_dm = four_way.clone();
    big_dm.dri = DriConfig {
        size_bound_bytes: 8 * 1024,
        sense_interval: 10_000,
        ..DriConfig::hpca01_128k_dm()
    };
    let policies = |cfg: &RunConfig, ids: &[&str]| -> Vec<RunConfig> {
        ids.iter()
            .map(|id| {
                let mut c = cfg.clone();
                c.policy = PolicyConfig::from_id(id, &cfg.dri);
                c
            })
            .collect()
    };
    let mut points = policies(&four_way, &PolicyConfig::all_ids());
    points.extend(policies(&big_dm, &["dri", "decay"]));
    let baselines = [four_way, big_dm];
    assert_eq!(
        baselines.len() + points.len(),
        8,
        "exactly one capped group"
    );
    let session = SimSession::builder().build();
    let grid = with_one_worker(|| session.resolve_grid(&baselines, &points));
    assert_eq!(session.stats().simulations(), 8);
    assert_matches_uncached(&baselines, &points, &grid);
}

#[test]
fn a_whole_schedule_pass_without_a_budget_matches() {
    let mut base = RunConfig::quick(Benchmark::Compress);
    base.instruction_budget = None;
    let points = grid_configs(&base, &SearchSpace::quick())[..2].to_vec();
    let session = SimSession::builder().build();
    let grid = session.resolve_grid(std::slice::from_ref(&base), &points);
    assert_eq!(
        grid.baselines[0].timing.instructions,
        session.workload(&base).cycle_instructions,
        "one pass of the phase schedule"
    );
    assert_matches_uncached(std::slice::from_ref(&base), &points, &grid);
}

#[test]
fn a_partly_warm_session_simulates_only_its_misses_once() {
    let base = base(Benchmark::Perl, 40_000);
    let grid_cfgs = grid_configs(&base, &SearchSpace::quick());
    let session = SimSession::builder().timed(true).build();
    let _ = session.conventional(&base);
    for cfg in &grid_cfgs[..3] {
        let _ = session.policy_run(cfg);
    }
    let warm = session.stats();
    assert_eq!(warm.simulations(), 4);
    assert_eq!(session.tier_latency().simulate.count(), 4);

    // Repeats of a cold point resolve once, like a point-by-point walk.
    let mut points = grid_cfgs.clone();
    points.push(grid_cfgs[5].clone());
    points.push(grid_cfgs[0].clone());
    let grid = session.resolve_grid(std::slice::from_ref(&base), &points);
    let after = session.stats();
    assert_eq!(after.baseline_misses, warm.baseline_misses, "warm baseline");
    assert_eq!(
        after.dri_misses - warm.dri_misses,
        3,
        "one simulation per miss"
    );
    assert_eq!(after.baseline_hits - warm.baseline_hits, 1);
    assert_eq!(
        after.dri_hits - warm.dri_hits,
        5,
        "3 warm points + 2 repeats"
    );
    assert_eq!(
        session.tier_latency().simulate.count(),
        7,
        "one simulate span per simulated record"
    );
    assert_matches_uncached(std::slice::from_ref(&base), &points, &grid);

    // A second pass is all memory hits: no duplicate simulations.
    let again = session.resolve_grid(std::slice::from_ref(&base), &points);
    assert_eq!(session.stats().simulations(), after.simulations());
    for (a, b) in grid.points.iter().zip(&again.points) {
        assert_runs_bit_identical(a, b, "memory replay");
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-grid-identity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn simulated_records_persist_and_reload_bit_identically() {
    let root = temp_root("store");
    let base = base(Benchmark::Swim, 40_000);
    let points = grid_configs(&base, &SearchSpace::quick());
    let writer = SimSession::builder()
        .store(ResultStore::open(&root).expect("open store"))
        .build();
    let written = writer.resolve_grid(std::slice::from_ref(&base), &points);
    assert_eq!(writer.stats().simulations(), 7);

    // A fresh session over the same store models a new process.
    let reader = SimSession::builder()
        .store(ResultStore::open(&root).expect("reopen store"))
        .build();
    let read = reader.resolve_grid(std::slice::from_ref(&base), &points);
    assert_eq!(
        reader.stats().simulations(),
        0,
        "every record came from disk"
    );
    assert_eq!(reader.stats().disk_hits(), 7);
    assert_conventional_bit_identical(&written.baselines[0], &read.baselines[0], "reloaded");
    for (a, b) in written.points.iter().zip(&read.points) {
        assert_runs_bit_identical(a, b, "reloaded point");
    }
    assert_matches_uncached(std::slice::from_ref(&base), &points, &read);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_simulated_record_is_offered_for_push() {
    let base = base(Benchmark::Li, 30_000);
    let points = grid_configs(&base, &SearchSpace::quick());
    // Nothing listens on port 1: the push fails fast and never blocks.
    let session = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new("127.0.0.1:1")))
        .push(true)
        .build();
    let _ = session.resolve_grid(std::slice::from_ref(&base), &points);
    let pushed = session.push_stats();
    assert_eq!(pushed.batches, 1, "pushed once, after the grid");
    assert_eq!(pushed.attempted, 7, "one entry per simulated record");
    let _ = session.resolve_grid(std::slice::from_ref(&base), &points);
    assert_eq!(
        session.push_stats().attempted,
        7,
        "memory hits are never pushed"
    );
}
