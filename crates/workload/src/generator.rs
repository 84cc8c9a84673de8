//! Synthetic program generation.
//!
//! Programs are structured as a set of **phases**, each owning a region of
//! **routines** (straight-line code bodies with embedded loads/stores,
//! floating-point work, and conditional branches). A per-phase **driver**
//! loop calls the phase's routines round-robin; **main** walks a schedule
//! of (phase, instruction-budget) entries and wraps around forever, so the
//! run length is bounded by the simulator's instruction budget.
//!
//! The design gives direct control over exactly the properties the paper's
//! results depend on:
//!
//! * the *instruction footprint* per phase (routine count × routine size)
//!   — what the DRI i-cache must adapt to;
//! * the *phase schedule* — when the footprint changes and how crisply;
//! * *branch predictability* — a mix of pattern-based branches (learnable
//!   by a 2-level predictor) and LCG-derived branches (effectively random),
//!   set by [`GeneratorSpec::random_branch_fraction`];
//! * the *code layout* — optional inter-routine gaps place hot code at
//!   congruent addresses so direct-mapped conflicts appear when the cache
//!   is small (Figure 6's DM vs 4-way comparison);
//! * the *data-access mix* — loads/stores into per-routine slices of the
//!   data segment, exercising the L1d/L2 hierarchy.

use crate::builder::CodeBuilder;
use crate::isa::{Inst, Op, Reg};
use crate::program::Program;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Register conventions used by generated code.
mod regs {
    /// Data-segment base pointer.
    pub const DATA: u8 = 4;
    /// Driver loop counter.
    pub const ITER: u8 = 5;
    /// Cold-pool iteration counter (selects the cold routine to call).
    pub const COLD_CNT: u8 = 6;
    /// Constant mask for the cold-pool selector.
    pub const MASK15: u8 = 25;
    /// First/last integer scratch register (dependence chains rotate here).
    pub const SCRATCH_LO: u8 = 8;
    /// One past the last integer scratch register.
    pub const SCRATCH_HI: u8 = 22;
    /// Branch temporary.
    pub const T1: u8 = 22;
    /// Per-site comparison constant.
    pub const CMP: u8 = 23;
    /// Routine call counter (drives pattern branches).
    pub const CALL_CNT: u8 = 24;
    /// Pattern value (`CALL_CNT & 3`).
    pub const PAT: u8 = 26;
    /// Constant 3.
    pub const MASK3: u8 = 27;
    /// LCG state (drives random branches).
    pub const LCG: u8 = 29;
    /// LCG multiplier constant.
    pub const LCG_MUL: u8 = 30;
    /// Bit mask constant for LCG-derived branch outcomes.
    pub const BITMASK: u8 = 31;
}

/// One code region with a fixed instruction footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Routine code in this phase, in bytes (rounded up to whole routines).
    pub footprint_bytes: u64,
}

/// One entry of the dynamic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Index into [`GeneratorSpec::phases`].
    pub phase: usize,
    /// Dynamic instructions to spend in this entry (approximate; rounded
    /// to whole driver iterations).
    pub instructions: u64,
}

/// Everything needed to generate a program.
#[derive(Debug, Clone)]
pub struct GeneratorSpec {
    /// Program name.
    pub name: String,
    /// Code regions.
    pub phases: Vec<PhaseSpec>,
    /// Dynamic schedule (one outer cycle; main wraps around forever).
    pub schedule: Vec<ScheduleEntry>,
    /// Code bytes per routine (multiple of 4, at least 64).
    pub routine_bytes: u64,
    /// Padding inserted after each routine (sparse layouts for conflict
    /// engineering; 0 = dense).
    pub gap_bytes: u64,
    /// Emit a memory operation every `mem_every` body slots (0 = never).
    pub mem_every: usize,
    /// Emit a floating-point operation every `fp_every` slots (0 = never).
    pub fp_every: usize,
    /// Emit a conditional-branch site every `branch_every` slots (0 =
    /// never).
    pub branch_every: usize,
    /// Fraction of branch sites whose outcome is LCG-derived (effectively
    /// unpredictable), the rest follow a short learnable pattern.
    pub random_branch_fraction: f64,
    /// Cold-code pool per phase, as a fraction of the phase footprint.
    ///
    /// Real programs' large phases are never miss-free at the required
    /// cache size: initialization and compilation code streams through
    /// rarely-reused routines, producing a steady miss trickle that keeps
    /// the DRI miss counter above small miss-bounds and so *defends* the
    /// phase against downsizing (paper §5.3: hydro2d/ijpeg's init phases
    /// "require the full size"). A non-zero fraction adds a pool of cold
    /// routines, one of which is called per driver iteration round-robin.
    /// Pools smaller than 2 KiB are omitted (they would stay resident and
    /// produce no trickle — exactly the small-loop behaviour).
    pub cold_fraction: f64,
    /// Seed for all generation-time choices and data-memory contents.
    pub seed: u64,
}

impl GeneratorSpec {
    /// A reasonable default mix: quarter memory ops, no FP, a branch site
    /// every 12 slots, fully predictable.
    pub fn basic(name: impl Into<String>, footprint_bytes: u64, instructions: u64) -> Self {
        GeneratorSpec {
            name: name.into(),
            phases: vec![PhaseSpec { footprint_bytes }],
            schedule: vec![ScheduleEntry {
                phase: 0,
                instructions,
            }],
            routine_bytes: 1024,
            gap_bytes: 0,
            mem_every: 4,
            fp_every: 0,
            branch_every: 12,
            random_branch_fraction: 0.0,
            cold_fraction: 0.0,
            seed: 1,
        }
    }

    /// Validates the specification.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (empty phases/schedule, bad
    /// routine size, out-of-range phase indices or fractions).
    pub fn validate(&self) {
        assert!(!self.phases.is_empty(), "need at least one phase");
        assert!(
            !self.schedule.is_empty(),
            "need at least one schedule entry"
        );
        assert!(
            self.routine_bytes >= 64 && self.routine_bytes.is_multiple_of(4),
            "routine_bytes must be a multiple of 4 >= 64, got {}",
            self.routine_bytes
        );
        assert!(
            self.gap_bytes.is_multiple_of(4),
            "gap must be instruction-aligned"
        );
        for e in &self.schedule {
            assert!(
                e.phase < self.phases.len(),
                "schedule references phase {} of {}",
                e.phase,
                self.phases.len()
            );
            assert!(e.instructions > 0, "schedule entry with zero instructions");
        }
        assert!(
            (0.0..=1.0).contains(&self.random_branch_fraction),
            "random branch fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.cold_fraction),
            "cold fraction out of range"
        );
    }
}

/// A generated workload: the program plus budgeting metadata.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The executable program.
    pub program: Program,
    /// Dynamic instructions in one full pass over the schedule (main wraps
    /// after this many; run budgets are usually set to a multiple).
    pub cycle_instructions: u64,
    /// Per-phase code footprints actually laid out, in bytes (routines
    /// only, excluding drivers).
    pub phase_footprints: Vec<u64>,
}

const CODE_BASE: u64 = 0x0001_0000;
const DATA_BASE: u64 = 0x4000_0000;
const SLICE_BYTES: u64 = 2048;
/// MMIX LCG multiplier (Knuth).
const LCG_MUL_CONST: i64 = 0x27BB_2EE6_87B0_B0FD;
/// Routines per cold pool (the driver's dispatch chain cycles over them).
const COLD_POOL_ROUTINES: u64 = 16;
/// Pools below this size are omitted (only phases of ~24K and up need
/// defending; smaller phases are *supposed* to let the cache shrink).
const MIN_POOL_BYTES: u64 = 4096;
/// Distance between the two halves of a cold pool. Each routine in the
/// first half has a partner at exactly this distance; since the L1 i-cache
/// is at most this big, the pair aliases to the same set at *every* cache
/// size, so alternating calls between halves always miss — a steady,
/// size-independent miss trickle, like real cold code streaming through.
const COLD_ALIAS_STRIDE: u64 = 64 * 1024;

struct RoutineCtx<'a> {
    rng: &'a mut SmallRng,
    spec: &'a GeneratorSpec,
    slice_off: i64,
    mem_cursor: i64,
    scratch_cursor: u8,
    fp_cursor: u8,
    mem_emitted: u64,
}

/// Generates the program for `spec`.
///
/// # Panics
///
/// Panics if the spec is invalid (see [`GeneratorSpec::validate`]) or an
/// internal layout invariant is violated (always a bug).
pub fn generate(spec: &GeneratorSpec) -> Generated {
    spec.validate();
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut b = CodeBuilder::new(CODE_BASE);

    let routine_insts = (spec.routine_bytes / 4) as usize;
    let routines_per_phase: Vec<usize> = spec
        .phases
        .iter()
        .map(|p| (p.footprint_bytes.div_ceil(spec.routine_bytes)).max(1) as usize)
        .collect();
    // Cold pool per phase: footprint × cold_fraction, split over 16
    // routines; omitted when too small to ever leave the cache.
    let cold_insts_per_phase: Vec<usize> = spec
        .phases
        .iter()
        .map(|p| {
            let pool = (p.footprint_bytes as f64 * spec.cold_fraction) as u64;
            if pool < MIN_POOL_BYTES {
                0
            } else {
                // Per-routine instruction count, at least 16 (64 bytes).
                ((pool / COLD_POOL_ROUTINES / 4) as usize).max(16)
            }
        })
        .collect();
    let total_routines: usize = routines_per_phase.iter().sum::<usize>()
        + cold_insts_per_phase
            .iter()
            .map(|&c| {
                if c > 0 {
                    COLD_POOL_ROUTINES as usize
                } else {
                    0
                }
            })
            .sum::<usize>();
    let data_bytes = (total_routines as u64 * SLICE_BYTES)
        .max(64 * 1024)
        .next_power_of_two();

    // --- main prologue -------------------------------------------------
    b.addi(regs::DATA, 0, DATA_BASE as i64);
    b.addi(regs::MASK3, 0, 3);
    b.addi(regs::LCG, 0, (spec.seed | 1) as i64 & 0x7FFF_FFFF);
    b.addi(regs::LCG_MUL, 0, LCG_MUL_CONST);
    b.addi(regs::BITMASK, 0, 8192);
    b.addi(regs::MASK15, 0, COLD_POOL_ROUTINES as i64 - 1);

    // Dynamic cost of one driver iteration, per phase: the hot calls and
    // loop overhead, plus (if a pool exists) the cold dispatch chain and
    // one cold routine body (the chain averages half its compares; we use
    // the expectation).
    let iter_cost: Vec<u64> = routines_per_phase
        .iter()
        .zip(&cold_insts_per_phase)
        .map(|(&k, &cold)| {
            let hot = (k as u64 + 2) + k as u64 * routine_insts as u64;
            let dispatch = if cold > 0 {
                2 + COLD_POOL_ROUTINES + 4 + cold as u64
            } else {
                0
            };
            hot + dispatch
        })
        .collect();

    // Schedule body: set iteration count, call the phase driver.
    let driver_labels: Vec<_> = (0..spec.phases.len()).map(|_| b.label()).collect();
    let restart = b.label();
    b.bind(restart);
    let mut cycle_instructions = 6u64; // prologue counted once; negligible
    for entry in &spec.schedule {
        let iters = (entry.instructions / iter_cost[entry.phase]).max(1);
        b.addi(regs::ITER, 0, iters as i64);
        b.call(driver_labels[entry.phase]);
        // main: addi + call + driver ret; driver loop cost per iter.
        cycle_instructions += 2 + iters * iter_cost[entry.phase] + 1;
    }
    b.jump(restart);
    cycle_instructions += 1;

    // --- drivers --------------------------------------------------------
    let mut routine_labels: Vec<Vec<crate::builder::Label>> = Vec::new();
    let mut cold_labels: Vec<Vec<crate::builder::Label>> = Vec::new();
    for (p, &k) in routines_per_phase.iter().enumerate() {
        let labels: Vec<_> = (0..k).map(|_| b.label()).collect();
        let colds: Vec<_> = if cold_insts_per_phase[p] > 0 {
            (0..COLD_POOL_ROUTINES).map(|_| b.label()).collect()
        } else {
            Vec::new()
        };
        b.bind(driver_labels[p]);
        let top = b.label();
        b.bind(top);
        for l in &labels {
            b.call(*l);
        }
        if !colds.is_empty() {
            // Cold dispatch: select cold routine (cold_cnt & 15) via a
            // compare chain; exactly one is called per iteration.
            b.addi(regs::COLD_CNT, regs::COLD_CNT, 1);
            b.alu(Op::And, regs::T1, regs::COLD_CNT, regs::MASK15);
            let done = b.label();
            for (j, cl) in colds.iter().enumerate() {
                let next = b.label();
                b.addi(regs::CMP, 0, j as i64);
                b.branch(Op::Bne, regs::T1, regs::CMP, next);
                b.call(*cl);
                b.jump(done);
                b.bind(next);
            }
            b.bind(done);
        }
        b.addi(regs::ITER, regs::ITER, -1);
        b.branch(Op::Bne, regs::ITER, 0, top);
        b.ret();
        routine_labels.push(labels);
        cold_labels.push(colds);
    }

    // --- routines -------------------------------------------------------
    // Each phase's hot region starts 4 KiB past a 64 KiB frame boundary:
    // the first 4 KiB of every frame aliases main and the drivers (which
    // are hot in *every* phase), so keeping routine regions out of that
    // strip avoids pathological driver-vs-routine conflicts that real
    // linkers would also avoid. Distinct phases still alias each other
    // (they occupy the same frame offsets), so phase transitions refill
    // the cache exactly as the paper describes. Regions are laid out in
    // order of increasing footprint, mirroring hot loops sitting low in
    // real text segments.
    let frame = COLD_ALIAS_STRIDE;
    let round_up = |x: u64, a: u64| (x + a - 1) & !(a - 1);
    let mut order: Vec<usize> = (0..spec.phases.len()).collect();
    order.sort_by_key(|&p| spec.phases[p].footprint_bytes);
    let mut slice_idx = 0u64;
    let mut phase_footprints = vec![0u64; spec.phases.len()];
    for &p in &order {
        let k = routines_per_phase[p];
        b.pad_to(round_up(b.here() - 4096, frame) + 4096);
        for (r, &label) in routine_labels[p].iter().enumerate().take(k) {
            if r > 0 && spec.gap_bytes > 0 {
                b.pad_to(b.here() + spec.gap_bytes);
            }
            b.bind(label);
            let slice_off = ((slice_idx * SLICE_BYTES) % data_bytes) as i64;
            let mut ctx = RoutineCtx {
                rng: &mut rng,
                spec,
                slice_off,
                mem_cursor: 0,
                scratch_cursor: regs::SCRATCH_LO,
                fp_cursor: 0,
                mem_emitted: 0,
            };
            emit_routine_body(&mut b, &mut ctx, routine_insts);
            slice_idx += 1;
        }
        phase_footprints[p] = k as u64 * spec.routine_bytes;
    }

    // --- cold pools -------------------------------------------------------
    // Each pool is split in two halves one COLD_ALIAS_STRIDE apart; the
    // dispatch chain's call order (0, 1, 2, …) alternates halves so that
    // call c+1 always evicts the blocks call c's partner will need — every
    // cold call misses, at every cache size.
    for &p in &order {
        if cold_insts_per_phase[p] == 0 {
            continue;
        }
        let half = (COLD_POOL_ROUTINES / 2) as usize;
        let mut emit_cold = |b: &mut CodeBuilder, label: crate::builder::Label, idx: &mut u64| {
            b.bind(label);
            let slice_off = ((*idx * SLICE_BYTES) % data_bytes) as i64;
            let mut ctx = RoutineCtx {
                rng: &mut rng,
                spec,
                slice_off,
                mem_cursor: 0,
                scratch_cursor: regs::SCRATCH_LO,
                fp_cursor: 0,
                mem_emitted: 0,
            };
            emit_routine_body(b, &mut ctx, cold_insts_per_phase[p]);
            *idx += 1;
        };
        // Pools anchor 8 KiB past a frame boundary: clear of the driver
        // strip, and pairwise aliased between the two halves.
        let pool_a = round_up(b.here() - 8192, frame) + 8192;
        b.pad_to(pool_a);
        // First half: even-numbered call slots.
        for j in 0..half {
            emit_cold(&mut b, cold_labels[p][2 * j], &mut slice_idx);
        }
        let half_bytes = half as u64 * cold_insts_per_phase[p] as u64 * 4;
        assert!(
            half_bytes < COLD_ALIAS_STRIDE,
            "cold pool half ({half_bytes} bytes) must fit under the alias stride"
        );
        // Second half: odd-numbered call slots, each exactly one stride
        // above its partner.
        b.pad_to(pool_a + COLD_ALIAS_STRIDE);
        for j in 0..half {
            emit_cold(&mut b, cold_labels[p][2 * j + 1], &mut slice_idx);
        }
    }

    // Decoding checks every control-flow target.
    let program = Program::new(
        spec.name.clone(),
        CODE_BASE,
        b.finish(),
        DATA_BASE,
        data_bytes,
        spec.seed ^ 0xDA7A,
    );
    Generated {
        program,
        cycle_instructions,
        phase_footprints,
    }
}

fn next_scratch(ctx: &mut RoutineCtx<'_>) -> Reg {
    let r = ctx.scratch_cursor;
    ctx.scratch_cursor += 1;
    if ctx.scratch_cursor >= regs::SCRATCH_HI {
        ctx.scratch_cursor = regs::SCRATCH_LO;
    }
    r
}

fn prev_scratch(ctx: &RoutineCtx<'_>) -> Reg {
    if ctx.scratch_cursor == regs::SCRATCH_LO {
        regs::SCRATCH_HI - 1
    } else {
        ctx.scratch_cursor - 1
    }
}

fn emit_int_alu(b: &mut CodeBuilder, ctx: &mut RoutineCtx<'_>) {
    let rs1 = prev_scratch(ctx);
    let rs2 = ctx.rng.gen_range(regs::SCRATCH_LO..regs::SCRATCH_HI);
    let rd = next_scratch(ctx);
    let op = match ctx.rng.gen_range(0..20) {
        0 => Op::Mul,
        1..=4 => Op::Sub,
        5..=7 => Op::And,
        8..=10 => Op::Or,
        11..=12 => Op::Xor,
        13 => Op::Slt,
        _ => Op::Add,
    };
    b.alu(op, rd, rs1, rs2);
}

fn emit_fp(b: &mut CodeBuilder, ctx: &mut RoutineCtx<'_>) {
    let fs1 = ctx.fp_cursor;
    let fs2 = ctx.rng.gen_range(0..8);
    ctx.fp_cursor = (ctx.fp_cursor + 1) % 8;
    let fd = ctx.fp_cursor;
    let op = match ctx.rng.gen_range(0..10) {
        0 => Op::FDiv,
        1..=4 => Op::FMul,
        _ => Op::FAdd,
    };
    b.push(Inst::new(op, fd, fs1, fs2, 0));
}

fn emit_mem(b: &mut CodeBuilder, ctx: &mut RoutineCtx<'_>) {
    let off = ctx.slice_off + ctx.mem_cursor;
    ctx.mem_cursor = (ctx.mem_cursor + 8) % (SLICE_BYTES as i64 - 8);
    // Keep 8-byte alignment after the wrap.
    ctx.mem_cursor &= !7;
    ctx.mem_emitted += 1;
    let use_fp = ctx.spec.fp_every > 0 && ctx.mem_emitted.is_multiple_of(4);
    if ctx.mem_emitted.is_multiple_of(3) {
        // Store.
        if use_fp {
            b.push(Inst::new(Op::FStore, 0, regs::DATA, ctx.fp_cursor, off));
        } else {
            b.store(regs::DATA, prev_scratch(ctx), off);
        }
    } else {
        // Load.
        if use_fp {
            let fd = ctx.fp_cursor;
            b.push(Inst::new(Op::FLoad, fd, regs::DATA, 0, off));
        } else {
            let rd = next_scratch(ctx);
            b.load(rd, regs::DATA, off);
        }
    }
}

/// Emits a 4-instruction branch site: condition computation, the branch
/// (skipping one instruction), the skippable instruction, and the join.
fn emit_branch_site(b: &mut CodeBuilder, ctx: &mut RoutineCtx<'_>) {
    let skip = b.label();
    if ctx.rng.gen_bool(ctx.spec.random_branch_fraction) {
        // LCG-derived outcome: effectively unpredictable.
        b.alu(Op::Mul, regs::LCG, regs::LCG, regs::LCG_MUL);
        b.alu(Op::And, regs::T1, regs::LCG, regs::BITMASK);
        b.branch(Op::Bne, regs::T1, 0, skip);
    } else {
        // Pattern outcome: taken when (call_count & 3) matches/misses a
        // per-site constant — learnable by a 2-level predictor.
        let c = ctx.rng.gen_range(0..4);
        b.addi(regs::CMP, 0, c);
        let op = if ctx.rng.gen_bool(0.5) {
            Op::Beq
        } else {
            Op::Bne
        };
        b.branch(op, regs::PAT, regs::CMP, skip);
    }
    emit_int_alu(b, ctx); // the skippable instruction
    b.bind(skip);
}

fn emit_routine_body(b: &mut CodeBuilder, ctx: &mut RoutineCtx<'_>, routine_insts: usize) {
    let start = b.here();
    let end_insts = routine_insts - 1; // reserve the final Ret slot
                                       // Entry: advance the call counter and derive the branch pattern value.
    b.addi(regs::CALL_CNT, regs::CALL_CNT, 1);
    b.alu(Op::And, regs::PAT, regs::CALL_CNT, regs::MASK3);

    let mut since_branch = 0usize;
    let mut since_mem = 0usize;
    let mut since_fp = 0usize;
    loop {
        let emitted = ((b.here() - start) / 4) as usize;
        let remaining = end_insts - emitted;
        if remaining == 0 {
            break;
        }
        since_branch += 1;
        since_mem += 1;
        since_fp += 1;
        let spec = ctx.spec;
        if spec.branch_every > 0 && since_branch >= spec.branch_every && remaining >= 4 {
            emit_branch_site(b, ctx);
            since_branch = 0;
        } else if spec.mem_every > 0 && since_mem >= spec.mem_every {
            emit_mem(b, ctx);
            since_mem = 0;
        } else if spec.fp_every > 0 && since_fp >= spec.fp_every {
            emit_fp(b, ctx);
            since_fp = 0;
        } else {
            emit_int_alu(b, ctx);
        }
    }
    b.ret();
    debug_assert_eq!((b.here() - start) / 4, routine_insts as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn basic_program_runs_and_respects_budget() {
        let spec = GeneratorSpec::basic("t", 4 * 1024, 100_000);
        let g = generate(&spec);
        let mut m = Machine::new(&g.program);
        let s = m.run(200_000);
        assert_eq!(s.retired, 200_000, "program must never halt (outer wrap)");
        assert!(!s.halted);
    }

    #[test]
    fn footprint_matches_request() {
        let spec = GeneratorSpec::basic("t", 8 * 1024, 50_000);
        let g = generate(&spec);
        assert_eq!(g.phase_footprints, vec![8 * 1024]);
        // 8 routines of 1 KiB.
        assert!(g.program.code_bytes() >= 8 * 1024);
    }

    #[test]
    fn cycle_instruction_estimate_is_close() {
        let spec = GeneratorSpec::basic("t", 4 * 1024, 500_000);
        let g = generate(&spec);
        // One full schedule pass should be within 20% of the request.
        let err = (g.cycle_instructions as f64 - 500_000.0).abs() / 500_000.0;
        assert!(err < 0.2, "cycle {} vs 500000", g.cycle_instructions);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = GeneratorSpec::basic("t", 4 * 1024, 100_000);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.program.decoded(), b.program.decoded());
        assert_eq!(a.cycle_instructions, b.cycle_instructions);
    }

    #[test]
    fn executed_footprint_stays_within_phase_region() {
        // Track the PCs the machine actually visits in a flat program: the
        // touched code span should be close to the requested footprint
        // (plus main/driver overhead).
        let spec = GeneratorSpec::basic("t", 4 * 1024, 100_000);
        let g = generate(&spec);
        let mut m = Machine::new(&g.program);
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for _ in 0..200_000 {
            let e = m.step().unwrap();
            lo = lo.min(e.pc);
            hi = hi.max(e.pc);
        }
        let span = hi - lo;
        assert!(
            span <= 4 * 1024 + 8 * 1024,
            "span {span} far exceeds footprint"
        );
    }

    #[test]
    fn phased_program_moves_between_regions() {
        let spec = GeneratorSpec {
            name: "phased".into(),
            phases: vec![
                PhaseSpec {
                    footprint_bytes: 16 * 1024,
                },
                PhaseSpec {
                    footprint_bytes: 2 * 1024,
                },
            ],
            schedule: vec![
                ScheduleEntry {
                    phase: 0,
                    instructions: 100_000,
                },
                ScheduleEntry {
                    phase: 1,
                    instructions: 100_000,
                },
            ],
            ..GeneratorSpec::basic("x", 0, 1)
        };
        let g = generate(&spec);
        let mut m = Machine::new(&g.program);
        // Run the first entry; PCs should concentrate in region A, then
        // region B afterwards.
        let mut max_pc_first = 0u64;
        for _ in 0..80_000 {
            max_pc_first = max_pc_first.max(m.step().unwrap().pc);
        }
        for _ in 0..60_000 {
            m.step();
        }
        let mut min_pc_second = u64::MAX;
        for _ in 0..40_000 {
            min_pc_second = min_pc_second.min(m.step().unwrap().pc);
        }
        // Phase 1's routines are laid out after phase 0's.
        assert!(min_pc_second >= CODE_BASE, "sanity: {min_pc_second:#x}");
    }

    #[test]
    fn gapped_layout_spreads_routines() {
        let mut spec = GeneratorSpec::basic("gap", 2 * 1024, 10_000);
        spec.gap_bytes = 3 * 1024;
        let g = generate(&spec);
        // 2 routines with 3K gaps: code spans at least 1K + 3K + 1K.
        assert!(g.program.code_bytes() >= 5 * 1024);
    }

    #[test]
    fn branch_sites_mix_outcomes() {
        let mut spec = GeneratorSpec::basic("br", 4 * 1024, 50_000);
        spec.random_branch_fraction = 0.5;
        spec.seed = 42;
        let g = generate(&spec);
        let mut m = Machine::new(&g.program);
        let mut taken = 0u64;
        let mut total = 0u64;
        for _ in 0..100_000 {
            let e = m.step().unwrap();
            if e.inst.op.is_conditional_branch() && e.pc > CODE_BASE + 4096 {
                total += 1;
                if e.taken {
                    taken += 1;
                }
            }
        }
        assert!(total > 1000, "should execute many branch sites");
        let rate = taken as f64 / total as f64;
        assert!(
            rate > 0.1 && rate < 0.9,
            "taken rate {rate} should be mixed"
        );
    }

    #[test]
    #[should_panic(expected = "schedule references phase")]
    fn validate_rejects_bad_phase_index() {
        let mut spec = GeneratorSpec::basic("bad", 1024, 1000);
        spec.schedule[0].phase = 5;
        let _ = generate(&spec);
    }
}
