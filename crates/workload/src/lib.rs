//! # synth-workload — synthetic SPEC95 proxy benchmarks
//!
//! The HPCA 2001 DRI i-cache paper evaluates on SPEC95 binaries under
//! SimpleScalar. This crate substitutes *generated programs* over a small
//! RISC ISA whose instruction-footprint schedules encode the published
//! per-benchmark behaviour (see `DESIGN.md` §5 for the substitution
//! argument):
//!
//! * [`isa`] — the instruction set (integer/FP ALU, loads/stores,
//!   branches, calls);
//! * [`program`] — code images with data-segment metadata, decoded once
//!   when built (each instruction carries its timing [`Template`] and
//!   resolved branch target);
//! * [`machine`] — the functional interpreter producing the committed
//!   instruction stream (execution-driven, fully deterministic), a batch
//!   at a time into a [`Sink`];
//! * [`builder`] — a tiny assembler with labels;
//! * [`generator`] — phase/routine-structured program generation with
//!   control over footprint, phases, branch predictability, layout
//!   sparsity, and memory mix;
//! * [`suite`] — the fifteen SPEC95 proxies in the paper's three classes.
//!
//! ## Example
//!
//! ```
//! use synth_workload::machine::Machine;
//! use synth_workload::suite::Benchmark;
//!
//! let generated = Benchmark::Ijpeg.build();
//! let mut machine = Machine::new(&generated.program);
//! let summary = machine.run(10_000);
//! assert_eq!(summary.retired, 10_000);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod generator;
pub mod isa;
pub mod machine;
pub mod program;
pub mod suite;

pub use generator::{Generated, GeneratorSpec, PhaseSpec, ScheduleEntry};
pub use isa::{Inst, Op, OpClass, Template};
pub use machine::{Commit, Control, Machine, Retired, RunSummary, Sink};
pub use program::{Decoded, Program};
pub use suite::{BenchClass, Benchmark};
