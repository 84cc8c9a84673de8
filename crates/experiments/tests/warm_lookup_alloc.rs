//! A point lookup the memory tier answers allocates nothing: a replay
//! worker resolves every prefetched record point by point, so the warm
//! path of the tier walk must stay free of heap traffic.
//!
//! The binary counts allocations per thread with a wrapping global
//! allocator, so only the test thread's own allocations are seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dri_experiments::{RunConfig, SimSession};
use synth_workload::suite::Benchmark;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_point_lookup_allocates_nothing() {
    let session = SimSession::builder().timed(false).build();
    let mut cfg = RunConfig::quick(Benchmark::Li);
    cfg.instruction_budget = Some(30_000);
    let baseline = session.conventional(&cfg);
    let dri = session.policy_run(&cfg);

    let before = allocations();
    for _ in 0..90 {
        assert_eq!(session.conventional(&cfg).timing, baseline.timing);
        assert_eq!(session.policy_run(&cfg).timing, dri.timing);
    }
    assert_eq!(allocations() - before, 0, "180 memory hits allocated");
    assert_eq!(
        session.stats().baseline_hits + session.stats().dri_hits,
        180
    );
}
