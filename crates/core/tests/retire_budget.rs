//! The retire budget is exact: retirements handed to a resizing i-cache
//! in budget-sized chunks, each chunk at the commit cycle of the
//! instruction that fills it, leave the cache exactly as one-at-a-time
//! delivery does — the same access stats, the same leakage accounting
//! (floats compared as bits) and the same resizes. A chunk that stops
//! short of the budget crosses no interval boundary, so only the count
//! it carries matters, not its cycle.

use cache_sim::icache::InstCache;
use cache_sim::policy::LeakagePolicy;
use cache_sim::replacement::ReplacementPolicy;
use cache_sim::stats::CacheStats;
use dri_core::{DriConfig, DriICache, ThrottleConfig, WayConfig, WayResizableICache};
use proptest::prelude::*;

/// One committed instruction: the block it fetches from (if it starts a
/// fetch group) and the cycles between the previous commit and its own.
type Inst = (Option<u64>, u64);

fn dri(sense_interval: u64) -> DriICache {
    DriICache::new(DriConfig {
        max_size_bytes: 8192,
        block_bytes: 32,
        associativity: 1,
        latency: 1,
        size_bound_bytes: 512,
        miss_bound: 4,
        sense_interval,
        divisibility: 2,
        throttle: ThrottleConfig::default(),
        replacement: ReplacementPolicy::Lru,
    })
}

fn way_resize(sense_interval: u64) -> WayResizableICache {
    WayResizableICache::new(WayConfig {
        size_bytes: 8192,
        block_bytes: 32,
        associativity: 4,
        latency: 1,
        min_ways: 1,
        miss_bound: 4,
        sense_interval,
        throttle: ThrottleConfig::default(),
        replacement: ReplacementPolicy::Lru,
    })
}

/// Everything a record reads of the cache, floats as bits.
fn accounting(c: &(impl InstCache + LeakagePolicy)) -> (CacheStats, [u64; 6]) {
    (
        *c.stats(),
        [
            c.avg_active_fraction().to_bits(),
            c.avg_size_bytes().to_bits(),
            c.active_size_bytes(),
            c.resizes(),
            c.intervals(),
            u64::from(c.resizing_tag_bits()),
        ],
    )
}

/// Runs `stream` retiring every instruction as it commits.
fn one_at_a_time<C: InstCache>(mut c: C, stream: &[Inst]) -> C {
    let mut cycle = 0;
    for &(fetch, dt) in stream {
        if let Some(block) = fetch {
            let _ = c.access(block * 32, cycle);
        }
        cycle += dt;
        c.retire_instructions(1, cycle);
    }
    c.finish(cycle);
    c
}

/// Runs `stream` holding retirements back until they fill the cache's
/// budget, then flushing the remainder before `finish`.
fn budgeted<C: InstCache>(mut c: C, stream: &[Inst], chunks: &mut u64) -> C {
    let mut cycle = 0;
    let mut pending = 0;
    let mut due = c.retire_budget();
    for &(fetch, dt) in stream {
        if let Some(block) = fetch {
            let _ = c.access(block * 32, cycle);
        }
        cycle += dt;
        pending += 1;
        if pending == due {
            c.retire_instructions(pending, cycle);
            *chunks += 1;
            pending = 0;
            due = c.retire_budget();
            assert!(due >= 1, "a budget is at least one instruction");
        }
    }
    if pending > 0 {
        c.retire_instructions(pending, cycle);
    }
    c.finish(cycle);
    c
}

/// A stream alternating loops over a small footprint (few misses: the
/// caches shrink) with sweeps over a large one (many misses: they grow).
fn stream() -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(
        (any::<bool>(), 0u64..64, 0u64..1024, any::<bool>(), 0u64..4),
        200..3000,
    )
    .prop_map(|insts| {
        insts
            .into_iter()
            .enumerate()
            .map(|(i, (fetch, hot, cold, sweep, dt))| {
                let phase_sweeps = (i / 400) % 2 == 1;
                let block = if phase_sweeps && sweep { cold } else { hot };
                (fetch.then_some(block), dt)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dri_budgeted_delivery_equals_one_at_a_time(
        stream in stream(),
        sense_interval in 1u64..160,
    ) {
        let each = one_at_a_time(dri(sense_interval), &stream);
        let mut chunks = 0;
        let chunked = budgeted(dri(sense_interval), &stream, &mut chunks);
        prop_assert_eq!(accounting(&each), accounting(&chunked));
        prop_assert_eq!(each.active_sets(), chunked.active_sets());
        prop_assert_eq!(each.resize_events(), chunked.resize_events());
        prop_assert_eq!(chunks, stream.len() as u64 / sense_interval);
    }

    #[test]
    fn way_resize_budgeted_delivery_equals_one_at_a_time(
        stream in stream(),
        sense_interval in 1u64..160,
    ) {
        let each = one_at_a_time(way_resize(sense_interval), &stream);
        let mut chunks = 0;
        let chunked = budgeted(way_resize(sense_interval), &stream, &mut chunks);
        prop_assert_eq!(accounting(&each), accounting(&chunked));
        prop_assert_eq!(each.active_ways(), chunked.active_ways());
        prop_assert_eq!(chunks, stream.len() as u64 / sense_interval);
    }
}

#[test]
fn the_streams_really_resize() {
    // Guards the properties above against vacuity: a fixed stream of the
    // generated shape drives both caches through several resizes.
    let stream: Vec<Inst> = (0..4000u64)
        .map(|i| {
            let block = if (i / 400) % 2 == 1 {
                i * 7 % 1024
            } else {
                i % 64
            };
            (Some(block), 1)
        })
        .collect();
    let mut chunks = 0;
    let d = budgeted(dri(50), &stream, &mut chunks);
    assert!(d.resizes() >= 4, "dri resized {} times", d.resizes());
    let w = budgeted(way_resize(50), &stream, &mut chunks);
    assert!(w.resizes() >= 4, "way-resize resized {} times", w.resizes());
}
