//! The front half against a reference: [`Machine::step`] one instruction
//! at a time, the [`HybridPredictor`] called per control op, and the
//! event packing that worked each instruction's template out again per
//! dynamic instruction. The front half's fused pass must hand the back
//! halves the same events, batch for batch, and leave the predictor in
//! the same state.

use super::*;
use synth_workload::generator::generate;
use synth_workload::isa::{Inst, Op};
use synth_workload::machine::Retired;
use synth_workload::suite::Benchmark;

/// Instructions per quick-scale record.
const QUICK_BUDGET: u64 = 600_000;

fn src_indices(inst: &Inst) -> (u8, u8) {
    match inst.op {
        Op::FAdd | Op::FMul | Op::FDiv => (32 + inst.rs1, 32 + inst.rs2),
        Op::FStore => (inst.rs1, 32 + inst.rs2),
        _ => (inst.rs1, inst.rs2),
    }
}

fn dst_index(inst: &Inst) -> u8 {
    match inst.op {
        Op::FAdd | Op::FMul | Op::FDiv | Op::FLoad => 32 + inst.rd,
        Op::Add
        | Op::Sub
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Slt
        | Op::Addi
        | Op::Mul
        | Op::Div
        | Op::Load => {
            if inst.rd == 0 {
                NO_DST
            } else {
                inst.rd
            }
        }
        _ => NO_DST,
    }
}

fn reference_event(predictor: &mut HybridPredictor, r: &Retired) -> Event {
    let op = r.inst.op;
    let (src1, src2) = src_indices(&r.inst);
    let mut flags = 0;
    if op.is_control() {
        let (correct, bubble_free) = match op {
            Op::Beq | Op::Bne | Op::Blt | Op::Bge => {
                let o = predictor.conditional(r.pc, r.taken, r.next_pc);
                (o.correct, o.btb_hit)
            }
            Op::Jump => (true, predictor.unconditional(r.pc, r.next_pc)),
            Op::Call => (true, predictor.call(r.pc, r.next_pc)),
            Op::Ret => (predictor.ret(r.next_pc), true),
            _ => unreachable!("control op"),
        };
        flags = CONTROL
            | if r.taken { TAKEN } else { 0 }
            | if correct { CORRECT } else { 0 }
            | if bubble_free { BUBBLE_FREE } else { 0 };
    }
    Event {
        pc: r.pc,
        mem_addr: r.mem_addr.unwrap_or(0),
        template: Template {
            class: op.class() as u8,
            src1,
            src2,
            dst: dst_index(&r.inst),
        },
        flags,
    }
}

/// Drives `budget` instructions of `program` through the front half and
/// through the reference, and asserts they agree event by event.
/// Returns the instructions driven.
fn assert_stream_matches(program: &Program, budget: u64) -> u64 {
    let mut front = FrontHalf::new(program);
    let mut machine = Machine::new(program);
    let mut predictor = HybridPredictor::new(PredictorConfig::default());
    let mut seen = 0u64;
    let mut batches = 0;
    let driven = front.drive(budget, |batch| {
        batches += 1;
        for (k, e) in batch.iter().enumerate() {
            let r = machine.step().expect("the reference halts no earlier");
            assert_eq!(
                *e,
                reference_event(&mut predictor, &r),
                "{} event {}",
                program.name(),
                seen + k as u64
            );
        }
        seen += batch.len() as u64;
    });
    assert_eq!(driven, seen);
    assert_eq!(batches as u64, driven.div_ceil(BATCH as u64));
    if driven < budget {
        assert!(
            machine.step().is_none(),
            "both halted at the same instruction"
        );
    }
    assert_eq!(
        front.predictor().stats(),
        predictor.stats(),
        "{}",
        program.name()
    );
    driven
}

#[test]
fn every_quick_benchmark_streams_like_the_reference_at_two_seeds() {
    for b in Benchmark::all() {
        for seed in [None, Some(7919)] {
            let g = match seed {
                None => b.build(),
                Some(seed) => {
                    let mut spec = b.spec();
                    spec.seed = seed;
                    generate(&spec)
                }
            };
            assert_eq!(
                assert_stream_matches(&g.program, QUICK_BUDGET),
                QUICK_BUDGET
            );
        }
    }
}

#[test]
fn a_program_halting_mid_batch_streams_like_the_reference() {
    // Three calls of a routine that loads, stores and loops 1,500 times,
    // then a halt: 2.6 batches, every control kind, ending mid-batch.
    let base = 0x10_0000;
    let insts = vec![
        Inst::new(Op::Addi, 8, 0, 0, base),   // 0x1000
        Inst::new(Op::Addi, 9, 0, 0, 3),      // 0x1004
        Inst::new(Op::Call, 0, 0, 0, 0x1018), // 0x1008
        Inst::new(Op::Addi, 9, 9, 0, -1),     // 0x100c
        Inst::new(Op::Bne, 0, 9, 0, 0x1008),  // 0x1010
        Inst::new(Op::Halt, 0, 0, 0, 0),      // 0x1014
        Inst::new(Op::Addi, 10, 0, 0, 500),   // 0x1018: routine
        Inst::new(Op::Load, 11, 8, 0, 8),     // 0x101c
        Inst::new(Op::FLoad, 1, 8, 0, 16),    // 0x1020
        Inst::new(Op::FAdd, 2, 1, 2, 0),      // 0x1024
        Inst::new(Op::FStore, 0, 8, 2, 24),   // 0x1028
        Inst::new(Op::Store, 0, 8, 11, 32),   // 0x102c
        Inst::new(Op::Addi, 10, 10, 0, -1),   // 0x1030
        Inst::new(Op::Blt, 0, 0, 10, 0x101c), // 0x1034
        Inst::new(Op::Jump, 0, 0, 0, 0x103c), // 0x1038
        Inst::new(Op::Ret, 0, 0, 0, 0),       // 0x103c
    ];
    let program = Program::new("halts", 0x1000, insts, base as u64, 4096, 3);
    let driven = assert_stream_matches(&program, 1_000_000);
    assert_eq!(driven, 2 + 3 * (1 + 1 + 500 * 7 + 2 + 2) + 1);
    assert!(
        !driven.is_multiple_of(BATCH as u64),
        "the halt lands mid-batch"
    );
    // A halted front half drives nothing more.
    let mut front = FrontHalf::new(&program);
    assert_eq!(front.drive(1_000_000, |_| {}), driven);
    assert_eq!(front.drive(10, |_| panic!("nothing to drive")), 0);
}

fn drive_all(insts: Vec<Inst>) {
    let program = Program::new("malformed", 0x1000, insts, 0x10_0000, 4096, 1);
    FrontHalf::new(&program).drive(100_000, |_| {});
}

#[test]
#[should_panic(expected = "outside data segment")]
fn a_wild_memory_access_panics_in_the_front_half() {
    drive_all(vec![
        Inst::new(Op::Addi, 8, 0, 0, 0x20_0000),
        Inst::new(Op::Load, 9, 8, 0, 0),
    ]);
}

#[test]
#[should_panic(expected = "unaligned memory access")]
fn an_unaligned_access_panics_in_the_front_half() {
    drive_all(vec![
        Inst::new(Op::Addi, 8, 0, 0, 0x10_0003),
        Inst::new(Op::FStore, 0, 8, 1, 0),
    ]);
}

#[test]
#[should_panic(expected = "call stack overflow")]
fn runaway_recursion_panics_in_the_front_half() {
    drive_all(vec![Inst::new(Op::Call, 0, 0, 0, 0x1000)]);
}

#[test]
#[should_panic(expected = "outside code")]
fn an_out_of_range_branch_target_panics_when_the_program_is_built() {
    drive_all(vec![
        Inst::new(Op::Beq, 0, 0, 0, 0x1008),
        Inst::new(Op::Halt, 0, 0, 0, 0),
    ]);
}
