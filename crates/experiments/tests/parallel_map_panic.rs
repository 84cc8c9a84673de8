//! A panicking `parallel_map` must hand its workers back to the
//! process-wide budget: otherwise every later fan-out in the process is
//! granted fewer workers, or silently runs inline on the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::{self, ThreadId};

use dri_experiments::harness::parallel_map;

#[test]
fn a_panicking_map_returns_its_workers_to_the_budget() {
    // Before the first configuration read, so the budget is two workers.
    std::env::set_var("DRI_THREADS", "2");
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        parallel_map(&[1u32, 2], |&i| -> u32 { panic!("worker {i} fails") })
    }));
    assert!(panicked.is_err(), "the worker panic reaches the caller");

    let caller = thread::current().id();
    let ran_on: Vec<ThreadId> = parallel_map(&[1u32, 2, 3, 4], |_| thread::current().id());
    assert_eq!(ran_on.len(), 4);
    assert!(
        ran_on.iter().all(|&id| id != caller),
        "after a panic the map ran inline: its budget leaked"
    );
}
