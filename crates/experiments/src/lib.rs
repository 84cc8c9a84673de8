//! # dri-experiments — the figure/table regeneration harness
//!
//! One module (and one binary) per published artifact of the HPCA 2001 DRI
//! i-cache paper:
//!
//! | Artifact | Module / binary |
//! |---|---|
//! | Table 1 (system configuration) | `table1` binary |
//! | Table 2 (gated-Vdd circuit trade-offs) | `table2` binary (over `sram_circuit::table2`) |
//! | Figure 3 (base energy-delay + average size) | [`search`] + `figure3` binary |
//! | Figure 4 (miss-bound sensitivity) | [`sweeps::miss_bound_sweep`] + `figure4` binary |
//! | Figure 5 (size-bound sensitivity) | [`sweeps::size_bound_sweep`] + `figure5` binary |
//! | Figure 6 (size/associativity) | [`sweeps::geometry_sweep`] + `figure6` binary |
//! | §5.6 (interval & divisibility) | [`sweeps::interval_sweep`] / [`sweeps::divisibility_sweep`] + `section5_6` binary |
//! | §5.2.1 (analytic bounds) | `tradeoff` binary (over `energy_model::tradeoff`) |
//! | policy shoot-out (DRI vs decay vs way-resize vs way-memo) | [`figures::policies`] + `policies` binary |
//! | any subset of the above, one process | [`manifest`] + `suite` binary |
//!
//! Every figure runs under any [`PolicyConfig`] — set `DRI_POLICY`
//! (or a manifest's `policy =`) to swap the leakage-control model on
//! the fetch path while baselines, energy accounting, and store keys
//! adjust to match. Every setting is parsed once, into [`Config`].
//!
//! Set `DRI_QUICK=1` to run any binary with reduced grids/budgets, and
//! `DRI_STORE=<dir>` to persist every simulated point in a
//! content-addressed on-disk store ([`dri_store`], wired in by
//! [`session`] + [`persist`]) so later processes warm-start from disk.
//!
//! With `DRI_SHARDS` pointing at one or more `dri-serve` hosts, a fleet
//! shares one memoization domain; `suite --steal` ([`steal`]) goes
//! further and shares the *scheduling* too — workers claim
//! benchmark-sized work units from the server's durable lease table,
//! push what they simulate, and re-claim anything a dead worker left
//! behind.
//!
//! ## Example
//!
//! ```
//! use dri_experiments::{compare, RunConfig};
//! use synth_workload::suite::Benchmark;
//!
//! let mut cfg = RunConfig::quick(Benchmark::Li);
//! cfg.dri.size_bound_bytes = 4 * 1024;
//! let c = compare(&cfg);
//! assert!(c.relative_energy_delay < 1.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod figures;
pub mod harness;
pub mod manifest;
pub mod persist;
pub mod published;
pub mod report;
pub mod runner;
pub mod search;
pub mod session;
pub mod steal;
pub mod sweeps;

pub use config::{config, Config};
pub use dri_core::PolicyConfig;
pub use dri_serve::{RemoteStats, RemoteStore, ShardedStore};
pub use dri_store::{KeyPlan, ResultStore, StoreStats};
pub use runner::{
    compare, run_conventional, run_dri, run_policy, run_policy_uncached, Comparison, DriRun,
    RunConfig,
};
pub use search::{
    grid_configs, search_all, search_benchmark, SearchResult, SearchSpace, SLOWDOWN_CONSTRAINT,
};
pub use session::{
    prefetch_grid, push_grid, GridRuns, PrefetchStats, PushStats, SessionBuilder, SessionStats,
    SimSession, TierLatency,
};
pub use steal::{campaign_id, drain, DrainOutcome};
