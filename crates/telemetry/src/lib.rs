//! # dri-telemetry — the observability layer
//!
//! The paper's DRI cache is a feedback loop driven by counters (a
//! miss-count monitor decides every resize); this crate gives the
//! *reproduction's runtime* the same kind of self-measurement, with no
//! dependencies beyond `std` (the build environment is offline):
//!
//! * [`metrics`] — a registry of atomic [`Counter`]s, [`Gauge`]s, and
//!   log-linear [`Histogram`]s (p50/p90/p99/max export), rendered as
//!   Prometheus text by `dri-serve`'s `GET /metrics` and read by
//!   `/stats` and the suite summary — one set of atomics behind all
//!   three reporters.
//! * [`trace`] — span-based structured tracing gated by
//!   `DRI_TRACE=<path.jsonl>`: monotonic-clocked JSONL events at every
//!   interesting edge (tier resolutions, prefetch phases, lease
//!   round-trips, retries, breaker trips, per-request server records,
//!   fault injections), with ambient worker/campaign/unit labels.
//!   [`TraceEvent::parse`] is the strict inverse of the emitter; the
//!   `trace-check` binary validates a trace file and asserts required
//!   event kinds for CI.
//!
//! Instrumentation must never perturb simulation results — emit sites
//! read clocks and bump atomics, nothing else, and the bit-identity
//! tests run with `DRI_TRACE` enabled to hold that line.
//!
//! ## Timing granularity
//!
//! Microsecond-and-up edges (disk, network, simulation) are always
//! timed. The *memory-tier* lookup path is ~300 ns hot — two clock
//! reads would be visible — so sub-microsecond timing is opt-in: on
//! when tracing is on ([`trace::enabled`]), or when a session is built
//! with timing forced (the `suite` binary does, for its per-tier
//! latency table).

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{Span, TraceEvent, TRACE_ENV};
