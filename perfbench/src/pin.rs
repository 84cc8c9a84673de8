//! Pins every thread of the process to one CPU for the fleet workloads'
//! timed phases.
//!
//! On a virtual machine, a request that hops between threads on
//! different CPUs pays a cross-CPU wake-up whose cost depends on what
//! the rest of the host is doing. With the client and all three shards
//! on one CPU, an op costs what its code costs: on the reference host
//! the `replay_sharded` p90 stayed within 2.3–2.5 ms across pinned runs,
//! against 2.5–9.3 ms unpinned.

use std::mem::size_of_val;

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While alive, every thread of the process runs on one CPU; dropping
/// it restores the mask the process had.
#[derive(Debug)]
pub struct OneCpu {
    saved: CpuSet,
}

impl OneCpu {
    /// Moves every thread onto the highest-numbered CPU the process may
    /// use. Threads spawned later inherit the pin from their parent.
    /// `None` when the affinity mask cannot be read.
    pub fn pin() -> Option<OneCpu> {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a writable buffer of the size passed.
        let read = unsafe { sched_getaffinity(0, size_of_val(&saved), saved.as_mut_ptr()) };
        if read != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_every_thread(&one);
        Some(OneCpu { saved })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        set_every_thread(&self.saved);
    }
}

fn set_every_thread(mask: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        if let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        {
            // SAFETY: `mask` is a readable buffer of the size passed. A
            // thread that exited since the listing makes the call fail
            // harmlessly.
            unsafe { sched_setaffinity(tid, size_of_val(mask), mask.as_ptr()) };
        }
    }
}
