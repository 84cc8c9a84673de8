//! Shared plumbing for the experiment binaries.

use crate::config::config;
use crate::runner::RunConfig;
use crate::search::SearchSpace;
use dri_core::PolicyConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use synth_workload::suite::Benchmark;

/// Worker threads to use for benchmark- and sweep-level parallelism:
/// `DRI_THREADS`, else the machine's available parallelism
/// (`DRI_THREADS=1` forces fully serial execution, which is also the
/// automatic behaviour on single-core hosts).
pub fn threads() -> usize {
    config().fleet.threads
}

/// Workers currently spawned by [`parallel_map`] across the process, so
/// nested maps (a per-benchmark fan-out whose body runs a per-point
/// fan-out) share one budget instead of multiplying to `threads()²`
/// CPU-bound threads.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Workers taken from the [`threads`] budget — by a [`parallel_map`] or
/// by a lockstep group's back-half threads — and returned when dropped,
/// whether the scope that used them returned or re-raised a worker's
/// panic.
#[derive(Debug)]
pub(crate) struct Reserved(usize);

impl Reserved {
    /// Reserves up to `want` workers: as many as the budget has left
    /// (possibly none).
    pub(crate) fn up_to(want: usize) -> Self {
        let mut got = 0;
        let _ = ACTIVE_WORKERS.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
            got = threads().saturating_sub(active).min(want);
            Some(active + got)
        });
        Reserved(got)
    }

    /// How many workers were reserved.
    pub(crate) fn count(&self) -> usize {
        self.0
    }
}

/// Holds up to `n` workers of the [`threads`] budget until the returned
/// guard drops, so fan-outs under it are granted fewer. Tests pin grant
/// widths with it.
#[doc(hidden)]
pub fn hold_workers(n: usize) -> impl Drop {
    Reserved::up_to(n)
}

impl Drop for Reserved {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// The workers a [`parallel_map`] over `items` items would be granted
/// right now: what is left of the [`threads`] budget, at most one per
/// item and at least one (the calling thread, running inline). Grid
/// simulation shares this grant among its lockstep groups.
pub fn granted_workers(items: usize) -> usize {
    threads()
        .saturating_sub(ACTIVE_WORKERS.load(Ordering::SeqCst))
        .min(items)
        .max(1)
}

/// Applies `f` to every item across scoped workers (at most [`threads`]
/// process-wide, shared with any enclosing `parallel_map`), returning
/// results in input order. Runs inline when one worker (or one item)
/// suffices, so single-core hosts — and the innermost level of a nested
/// fan-out — pay no thread overhead.
///
/// Work is claimed from a shared atomic cursor, so uneven item costs
/// (a thrashing sweep point next to a quiet one) still pack tightly.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let reserved = Reserved::up_to(items.len());
    let workers = reserved.count();
    if workers <= 1 {
        // Inline on the caller: leave the worker to fan-outs under `f`.
        drop(reserved);
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                results.lock().expect("parallel_map results").push((i, out));
            });
        }
    });
    let mut indexed = results.into_inner().expect("parallel_map results");
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// The base run configuration for a benchmark, honouring quick mode and
/// the `DRI_POLICY` selection.
pub fn base_config(benchmark: Benchmark) -> RunConfig {
    let mut cfg = if config().quick {
        let mut cfg = RunConfig::quick(benchmark);
        cfg.instruction_budget = Some(600_000);
        cfg
    } else {
        RunConfig::hpca01(benchmark)
    };
    cfg.policy = config()
        .policy
        .and_then(|id| PolicyConfig::from_id(id, &cfg.dri));
    cfg
}

/// The search space, honouring quick mode.
pub fn space() -> SearchSpace {
    if config().quick {
        SearchSpace::quick()
    } else {
        SearchSpace::standard()
    }
}

/// Runs one closure per benchmark across [`threads`] workers,
/// preserving the order of `benchmarks` in the output.
pub fn for_each_benchmark<T: Send>(
    benchmarks: &[Benchmark],
    f: impl Fn(Benchmark) -> T + Sync,
) -> Vec<(Benchmark, T)> {
    parallel_map(benchmarks, |&b| (b, f(b)))
}

/// Standard banner for every experiment binary. A `paper_ref` beginning
/// with `~` is printed verbatim (for artifacts that have no direct
/// counterpart in the paper).
pub fn banner(title: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{title}");
    match paper_ref.strip_prefix('~') {
        Some(verbatim) => println!("({verbatim})"),
        None => println!("(reproduces {paper_ref} of Yang et al., HPCA 2001)"),
    }
    if config().quick {
        println!("[quick mode: reduced grids and budgets — shapes only]");
    }
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_benchmark_preserves_order() {
        let rows = for_each_benchmark(&Benchmark::all(), |b| b.name().len());
        assert_eq!(rows.len(), 15);
        for ((b, len), expect) in rows.iter().zip(Benchmark::all()) {
            assert_eq!(*b, expect);
            assert_eq!(*len, expect.name().len());
        }
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn policy_defaults_to_dri() {
        // Only the ambient case is observable here; the selection itself
        // is covered by `config`'s parser tests and the two-policy
        // distributed CI job.
        if config().policy.is_none() {
            let cfg = base_config(Benchmark::Li);
            assert_eq!(cfg.policy, None);
            assert_eq!(cfg.resolved_policy(), PolicyConfig::Dri(cfg.dri));
        }
    }
}
