//! Record golden: the encoded bytes of quick `li`'s baseline and of one
//! record per leakage-policy kind are pinned by their FNV-1a digest.
//! Every record must come out the same whether the five are simulated in
//! one lockstep group (one timing class that splits as the i-caches
//! disagree) or each alone (a class of one).
//!
//! The pins are record bytes, not search picks: a change to how the
//! search selects a point leaves them alone, while any change to how a
//! record is simulated — timing, i-cache accounting, interval
//! bookkeeping — shows here first.

use dri_core::DriConfig;
use dri_experiments::persist::{encode_conventional, encode_dri};
use dri_experiments::runner::{run_conventional_uncached, run_policy_uncached};
use dri_experiments::{PolicyConfig, RunConfig, SimSession};
use dri_store::hash::fnv64;
use synth_workload::suite::Benchmark;

/// FNV-1a of the encoded baseline record, then of each policy record in
/// [`PolicyConfig::all_ids`] order.
/// (On this stream decay and way-memoization gate the same lines at the
/// same cycles, and their records share every encoded field.)
const GOLDEN: [(&str, u64); 5] = [
    ("baseline", 0xd238_0504_5dda_bca5),
    ("dri", 0xecef_486a_c646_0512),
    ("decay", 0xd56a_82a2_0b1e_b8ec),
    ("way_resize", 0x2f2f_7c60_bb03_86c7),
    ("way_memo", 0xd56a_82a2_0b1e_b8ec),
];

/// Quick `li` on Figure 6's 64K four-way geometry, so that way-resizing
/// has ways to shed (a direct-mapped cache has one) and every policy's
/// interval or gating machinery acts within the 400K-instruction budget.
fn base() -> RunConfig {
    let mut cfg = RunConfig::quick(Benchmark::Li);
    cfg.dri = DriConfig {
        sense_interval: cfg.dri.sense_interval,
        ..DriConfig::hpca01_64k_4way()
    };
    cfg
}

fn points(base: &RunConfig) -> Vec<RunConfig> {
    PolicyConfig::all_ids()
        .iter()
        .map(|id| {
            let mut cfg = base.clone();
            cfg.policy = PolicyConfig::from_id(id, &base.dri);
            cfg
        })
        .collect()
}

fn assert_golden(digests: &[(&str, u64)], how: &str) {
    let listed: Vec<String> = digests
        .iter()
        .map(|(name, d)| format!("(\"{name}\", {d:#018x})"))
        .collect();
    assert_eq!(digests, GOLDEN, "{how}: [{}]", listed.join(", "));
}

#[test]
fn one_lockstep_group_reproduces_the_pinned_records() {
    let base = base();
    let points = points(&base);
    let session = SimSession::builder().build();
    let grid = session.resolve_grid(std::slice::from_ref(&base), &points);
    assert_eq!(session.stats().simulations(), 5, "five cold records");
    for (id, run) in PolicyConfig::all_ids().iter().zip(&grid.points) {
        assert!(run.dri.avg_active_fraction < 1.0, "{id} powers lines down");
        if matches!(*id, "dri" | "way_resize") {
            assert!(run.dri.resizes > 0, "{id} resizes at interval ends");
        }
    }
    let mut digests = vec![("baseline", fnv64(&encode_conventional(&grid.baselines[0])))];
    for (id, run) in PolicyConfig::all_ids().iter().zip(&grid.points) {
        digests.push((id, fnv64(&encode_dri(run))));
    }
    assert_golden(&digests, "one group");
}

#[test]
fn each_record_alone_reproduces_the_pinned_records() {
    let base = base();
    let mut digests = vec![(
        "baseline",
        fnv64(&encode_conventional(&run_conventional_uncached(&base))),
    )];
    for (id, cfg) in PolicyConfig::all_ids().iter().zip(points(&base)) {
        digests.push((id, fnv64(&encode_dri(&run_policy_uncached(&cfg)))));
    }
    assert_golden(&digests, "alone");
}
