//! A panicking fan-out must hand its workers back to the process-wide
//! budget: otherwise every later fan-out in the process is granted fewer
//! workers, or silently runs inline on the caller. That holds for a
//! `parallel_map` and for a lockstep group fanned across back-half
//! threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, Once};
use std::thread::{self, ThreadId};

use dri_experiments::config::{install, Config};
use dri_experiments::harness::{granted_workers, parallel_map, threads};
use dri_experiments::{grid_configs, RunConfig, SearchSpace, SimSession};
use synth_workload::suite::Benchmark;

/// Both tests move the budget; they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// A three-worker budget, installed before anything reads the settings.
fn settings() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| install(Config::from_vars([("DRI_THREADS", "3")]).0));
    assert_eq!(threads(), 3);
}

#[test]
fn a_panicking_map_returns_its_workers_to_the_budget() {
    settings();
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
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

#[test]
fn a_panic_inside_a_fanned_group_returns_every_reserved_worker() {
    settings();
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut base = RunConfig::quick(Benchmark::Li);
    base.instruction_budget = Some(20_000);
    let points = grid_configs(&base, &SearchSpace::quick());
    // Seven records, one group, three workers. A record with a broken
    // CPU (`rob_entries = 0`) is a timing class of its own: the front
    // thread keeps the six-record class and the broken one goes to a
    // back-half thread, which panics building it. With every record
    // broken, they are one class, which the front thread keeps and
    // panics building while both back-half threads wait.
    for every in [false, true] {
        let place = if every {
            "on the front thread"
        } else {
            "on a back-half thread"
        };
        let (mut base, mut points) = (base.clone(), points.clone());
        points[0].cpu.rob_entries = 0;
        if every {
            base.cpu.rob_entries = 0;
            for point in &mut points {
                point.cpu.rob_entries = 0;
            }
        }
        let session = SimSession::builder().build();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            session.resolve_grid(std::slice::from_ref(&base), &points)
        }));
        assert!(panicked.is_err(), "{place}: the panic reaches the caller");
        assert_eq!(
            granted_workers(usize::MAX),
            threads(),
            "{place}: a worker of the fanned group leaked"
        );
    }
}
