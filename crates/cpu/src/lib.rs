//! # ooo-cpu — a cycle-level out-of-order processor timing model
//!
//! The architectural simulation substrate of the HPCA 2001 DRI i-cache
//! reproduction, standing in for SimpleScalar-2.0's `sim-outorder`
//! (paper §4, Table 1):
//!
//! * [`config`] — structural parameters (8-wide, 128-entry ROB/LSQ,
//!   functional-unit pools, latencies) with the Table 1 preset;
//! * [`bpred`] — the 2-level hybrid branch predictor (bimodal + gshare +
//!   chooser, BTB, return-address stack);
//! * [`core`] — the dataflow-scheduling timing model, generic over the
//!   [`cache_sim::icache::InstCache`] on its fetch path — which is exactly
//!   where the conventional baseline and the DRI i-cache swap in. It is
//!   split into a [`FrontHalf`] (interpreter + predictor) that fills
//!   batches of committed-instruction [`Event`]s and per-configuration
//!   [`BackHalf`]s that time them, so one interpretation of a stream can
//!   drive many configurations; [`Core`] is one front half driving one
//!   back half;
//! * [`stats`] — run counters (cycles, IPC, stalls, redirects).
//!
//! ## Example
//!
//! ```
//! use cache_sim::icache::ConventionalICache;
//! use ooo_cpu::config::CpuConfig;
//! use ooo_cpu::core::Core;
//! use synth_workload::suite::Benchmark;
//!
//! let generated = Benchmark::Compress.build();
//! let mut core = Core::new(
//!     &generated.program,
//!     CpuConfig::hpca01(),
//!     ConventionalICache::hpca01(),
//! );
//! let result = core.run(100_000);
//! assert!(result.stats.ipc() > 0.5);
//! ```

#![warn(missing_docs)]

pub mod bpred;
pub mod config;
pub mod core;
pub mod stats;

pub use bpred::{HybridPredictor, PredictorConfig, PredictorStats};
pub use config::{CpuConfig, FuPools};
pub use core::{BackHalf, Core, Event, FrontHalf, RunResult};
pub use stats::CpuStats;
