//! The architectural (functional) machine: executes programs and yields
//! the committed instruction stream.
//!
//! The CPU timing model consumes this stream — an *execution-driven*
//! arrangement: instruction addresses, branch outcomes, and memory
//! addresses all come from actually running the generated code, not from a
//! statistical trace. Everything is deterministic given the program (data
//! memory is initialised from the program's seed).
//!
//! There is one interpreter, [`Machine::fill`]: it runs the program's
//! [`Decoded`] instructions by index and hands each committed one to a
//! [`Sink`], calling the sink's [`Sink::control`] hook inline for control
//! transfers. [`Machine::step`] and [`Machine::run`] are fills of one
//! instruction and of a budget.

use crate::isa::{Inst, Op, OpClass, Template, INST_BYTES, NO_DST};
use crate::program::{Decoded, Program};

/// Maximum call depth before the machine declares a generator bug.
const MAX_CALL_DEPTH: usize = 4096;

/// One committed instruction, as observed by a timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// Address of the instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Address of the next committed instruction.
    pub next_pc: u64,
    /// For control instructions: whether the transfer was taken
    /// (conditional branches may fall through; jumps/calls/returns are
    /// always taken).
    pub taken: bool,
    /// For loads/stores: the effective address.
    pub mem_addr: Option<u64>,
}

/// Result of [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Instructions retired by this call.
    pub retired: u64,
    /// Whether the program halted (vs exhausting the budget).
    pub halted: bool,
}

/// The kind of a control transfer, as [`Sink::control`] hears of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// A conditional branch (`Beq`, `Bne`, `Blt`, `Bge`).
    Conditional,
    /// An unconditional jump.
    Jump,
    /// A call (the return address is the next instruction's).
    Call,
    /// A return; on an empty call stack it halts, not taken, with
    /// `next_pc` equal to its own pc.
    Return,
}

/// One committed instruction as [`Machine::fill`] hands it to a [`Sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// Address of the instruction.
    pub pc: u64,
    /// Its timing template.
    pub template: Template,
    /// Effective address of a load or store (0 otherwise).
    pub mem_addr: u64,
    /// Whether a control transfer was taken.
    pub taken: bool,
    /// Address of the next committed instruction.
    pub next_pc: u64,
}

/// What [`Machine::fill`] hands the committed stream to.
pub trait Sink {
    /// Hears of a control transfer of `kind` at `pc`, just before it
    /// commits. By default it does nothing.
    #[inline]
    fn control(&mut self, kind: Control, pc: u64, taken: bool, next_pc: u64) {
        let _ = (kind, pc, taken, next_pc);
    }

    /// Takes one committed instruction.
    fn commit(&mut self, c: Commit);
}

/// A sink that keeps nothing ([`Machine::run`]).
struct Discard;

impl Sink for Discard {
    #[inline]
    fn commit(&mut self, _: Commit) {}
}

/// A sink that keeps the one instruction of a [`Machine::step`].
struct One(Option<Commit>);

impl Sink for One {
    #[inline]
    fn commit(&mut self, c: Commit) {
        self.0 = Some(c);
    }
}

/// Architectural state + interpreter.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    /// Index of the next instruction.
    at: usize,
    /// Both register files at their unified indices ([`Template`]): the
    /// integer registers, the FP registers as `f64` bits, and the slot
    /// [`NO_DST`] that writes of no register (or of `r0`) land in.
    regs: [i64; NO_DST as usize + 1],
    data: Vec<i64>,
    /// Return addresses, as instruction indices.
    call_stack: Vec<usize>,
    retired: u64,
    halted: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fp(bits: i64) -> f64 {
    f64::from_bits(bits as u64)
}

fn bits(v: f64) -> i64 {
    v.to_bits() as i64
}

/// The result of an integer ALU op (`Add` through `Mul`, declared in
/// that order): every candidate is computed and one is picked by the
/// op's index, so these ops share one arm of the interpreter's dispatch
/// with no branch per op.
#[inline(always)]
fn alu(op: Op, a: i64, b: i64, imm: i64) -> i64 {
    let b = if op == Op::Addi { imm } else { b };
    let results = [
        a.wrapping_add(b),
        a.wrapping_sub(b),
        a & b,
        a | b,
        a ^ b,
        i64::from(a < b),
        a.wrapping_add(b),
        a.wrapping_mul(b),
    ];
    results[(op as usize - Op::Add as usize) & 7]
}

/// Whether a conditional branch (`Beq` through `Bge`, declared in that
/// order) is taken, picked without a branch per op like [`alu`].
#[inline(always)]
fn condition(op: Op, a: i64, b: i64) -> bool {
    let (eq, lt) = (a == b, a < b);
    [eq, !eq, lt, !lt][(op as usize - Op::Beq as usize) & 3]
}

impl<'p> Machine<'p> {
    /// Boots a machine at the program entry with seeded data memory.
    pub fn new(program: &'p Program) -> Self {
        let words = (program.data_bytes() / 8) as usize;
        let mut seed = program.data_seed();
        let data = (0..words)
            .map(|_| (splitmix64(&mut seed) & 0xFFFF) as i64)
            .collect();
        Machine {
            program,
            at: 0,
            regs: [0; NO_DST as usize + 1],
            data,
            call_stack: Vec::new(),
            retired: 0,
            halted: false,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.program.addr_of(self.at)
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Total instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an integer register (tests/debugging).
    pub fn int_reg(&self, r: u8) -> i64 {
        assert!(r < 32, "integer register {r} out of range");
        self.regs[r as usize]
    }

    #[inline]
    fn mem_index(&self, addr: u64) -> usize {
        let base = self.program.data_base();
        assert!(
            addr >= base && addr + 8 <= base + self.program.data_bytes(),
            "memory access {addr:#x} outside data segment [{base:#x}, {:#x})",
            base + self.program.data_bytes()
        );
        assert!(addr.is_multiple_of(8), "unaligned memory access {addr:#x}");
        ((addr - base) / 8) as usize
    }

    /// The interpreter: executes up to `n` instructions, handing each
    /// committed one to `sink` (and each control transfer to
    /// [`Sink::control`] first). Returns how many committed — fewer than
    /// `n` only once the program halts; the halting instruction commits.
    ///
    /// # Panics
    ///
    /// Panics on malformed programs (out-of-segment or unaligned memory
    /// accesses, runaway recursion, running off the end of the code) —
    /// generator bugs, not workload events. Branch targets were checked
    /// when the program was built.
    #[inline]
    pub fn fill<S: Sink>(&mut self, n: usize, sink: &mut S) -> usize {
        let code: &[Decoded] = self.program.decoded();
        let base = self.program.base_addr();
        let mut done = 0;
        while done < n && !self.halted {
            let at = self.at;
            let d = code[at];
            let t = d.template;
            let pc = base + at as u64 * INST_BYTES;
            let s1 = self.regs[usize::from(t.src1)];
            let s2 = self.regs[usize::from(t.src2)];
            let dst = usize::from(t.dst);
            let mut next = at + 1;
            let mut taken = false;
            let mut mem_addr = 0;
            let target = |i: usize| base + i as u64 * INST_BYTES;
            macro_rules! branch {
                ($taken:expr) => {{
                    taken = $taken;
                    if taken {
                        next = d.arg as usize;
                    }
                    sink.control(Control::Conditional, pc, taken, target(next));
                }};
            }

            match d.op {
                Op::Add | Op::Sub | Op::And | Op::Or | Op::Xor | Op::Slt | Op::Addi | Op::Mul => {
                    self.regs[dst] = alu(d.op, s1, s2, d.arg)
                }
                Op::Div => self.regs[dst] = if s2 == 0 { 0 } else { s1.wrapping_div(s2) },
                Op::FAdd => self.regs[dst] = bits(fp(s1) + fp(s2)),
                Op::FMul => self.regs[dst] = bits(fp(s1) * fp(s2)),
                Op::FDiv => {
                    let (a, b) = (fp(s1), fp(s2));
                    self.regs[dst] = bits(if b == 0.0 { 0.0 } else { a / b });
                }
                // An FP load or store moves the register's bits unchanged.
                Op::Load | Op::FLoad => {
                    let addr = (s1 + d.arg) as u64;
                    let idx = self.mem_index(addr);
                    mem_addr = addr;
                    self.regs[dst] = self.data[idx];
                }
                Op::Store | Op::FStore => {
                    let addr = (s1 + d.arg) as u64;
                    let idx = self.mem_index(addr);
                    mem_addr = addr;
                    self.data[idx] = s2;
                }
                Op::Beq | Op::Bne | Op::Blt | Op::Bge => branch!(condition(d.op, s1, s2)),
                Op::Jump => {
                    next = d.arg as usize;
                    taken = true;
                    sink.control(Control::Jump, pc, taken, target(next));
                }
                Op::Call => {
                    assert!(
                        self.call_stack.len() < MAX_CALL_DEPTH,
                        "call stack overflow at {pc:#x} (generator bug)"
                    );
                    self.call_stack.push(at + 1);
                    next = d.arg as usize;
                    taken = true;
                    sink.control(Control::Call, pc, taken, target(next));
                }
                Op::Ret => {
                    match self.call_stack.pop() {
                        Some(ra) => {
                            next = ra;
                            taken = true;
                        }
                        None => {
                            self.halted = true;
                            next = at;
                        }
                    }
                    sink.control(Control::Return, pc, taken, target(next));
                }
                Op::Nop => {}
                Op::Halt => {
                    self.halted = true;
                    next = at;
                }
            }

            sink.commit(Commit {
                pc,
                template: t,
                mem_addr,
                taken,
                next_pc: target(next),
            });
            self.at = next;
            done += 1;
        }
        self.retired += done as u64;
        done
    }

    /// Executes one instruction; returns `None` once halted.
    ///
    /// # Panics
    ///
    /// As [`Self::fill`].
    pub fn step(&mut self) -> Option<Retired> {
        let at = self.at;
        let mut one = One(None);
        self.fill(1, &mut one);
        let c = one.0?;
        let class = c.template.class;
        let is_mem = class == OpClass::Load as u8 || class == OpClass::Store as u8;
        Some(Retired {
            pc: c.pc,
            inst: self.program.inst(at),
            next_pc: c.next_pc,
            taken: c.taken,
            mem_addr: is_mem.then_some(c.mem_addr),
        })
    }

    /// Runs up to `budget` instructions (or until halt).
    pub fn run(&mut self, budget: u64) -> RunSummary {
        let start = self.retired;
        let mut left = budget;
        while left > 0 && !self.halted {
            let n = usize::try_from(left).unwrap_or(usize::MAX);
            left -= self.fill(n, &mut Discard) as u64;
        }
        RunSummary {
            retired: self.retired - start,
            halted: self.halted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Inst;

    fn prog(insts: Vec<Inst>) -> Program {
        Program::new("t", 0x1000, insts, 0x10_0000, 4096, 99)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // r8 = 0; r9 = 5; loop: r8 += r9; r9 -= 1; bne r9, r0, loop; halt
        let p = prog(vec![
            Inst::new(Op::Addi, 8, 0, 0, 0),
            Inst::new(Op::Addi, 9, 0, 0, 5),
            Inst::new(Op::Add, 8, 8, 9, 0),
            Inst::new(Op::Addi, 9, 9, 0, -1),
            Inst::new(Op::Bne, 0, 9, 0, 0x1008),
            Inst::new(Op::Halt, 0, 0, 0, 0),
        ]);
        let mut m = Machine::new(&p);
        let s = m.run(1000);
        assert!(s.halted);
        assert_eq!(m.int_reg(8), 5 + 4 + 3 + 2 + 1);
        assert_eq!(s.retired, 2 + 5 * 3 + 1);
    }

    #[test]
    fn store_load_round_trip() {
        let base = 0x10_0000i64;
        let p = prog(vec![
            Inst::new(Op::Addi, 8, 0, 0, base),
            Inst::new(Op::Addi, 9, 0, 0, 1234),
            Inst::new(Op::Store, 0, 8, 9, 16),
            Inst::new(Op::Load, 10, 8, 0, 16),
            Inst::new(Op::Halt, 0, 0, 0, 0),
        ]);
        let mut m = Machine::new(&p);
        m.run(10);
        assert_eq!(m.int_reg(10), 1234);
        let events: Vec<_> = {
            let mut m2 = Machine::new(&p);
            std::iter::from_fn(move || m2.step()).collect()
        };
        assert_eq!(events[2].mem_addr, Some(0x10_0010));
        assert_eq!(events[3].mem_addr, Some(0x10_0010));
    }

    #[test]
    fn call_and_ret() {
        // main: call f; halt   f: addi r8, r0, 7; ret
        let p = prog(vec![
            Inst::new(Op::Call, 0, 0, 0, 0x1008),
            Inst::new(Op::Halt, 0, 0, 0, 0),
            Inst::new(Op::Addi, 8, 0, 0, 7),
            Inst::new(Op::Ret, 0, 0, 0, 0),
        ]);
        let mut m = Machine::new(&p);
        let s = m.run(10);
        assert!(s.halted);
        assert_eq!(m.int_reg(8), 7);
        assert_eq!(s.retired, 4);
    }

    #[test]
    fn ret_on_empty_stack_halts() {
        let p = prog(vec![Inst::new(Op::Ret, 0, 0, 0, 0)]);
        let mut m = Machine::new(&p);
        let s = m.run(10);
        assert!(s.halted);
        assert_eq!(s.retired, 1);
    }

    #[test]
    fn r0_stays_zero() {
        let p = prog(vec![
            Inst::new(Op::Addi, 0, 0, 0, 55),
            Inst::new(Op::Halt, 0, 0, 0, 0),
        ]);
        let mut m = Machine::new(&p);
        m.run(10);
        assert_eq!(m.int_reg(0), 0);
    }

    #[test]
    fn data_memory_is_seed_deterministic() {
        let p = prog(vec![
            Inst::new(Op::Addi, 8, 0, 0, 0x10_0000),
            Inst::new(Op::Load, 9, 8, 0, 0),
            Inst::new(Op::Halt, 0, 0, 0, 0),
        ]);
        let mut a = Machine::new(&p);
        let mut b = Machine::new(&p);
        a.run(10);
        b.run(10);
        assert_eq!(a.int_reg(9), b.int_reg(9));
    }

    #[test]
    fn retired_stream_reports_taken_flags() {
        let p = prog(vec![
            Inst::new(Op::Beq, 0, 0, 0, 0x1008), // r0 == r0: taken
            Inst::new(Op::Nop, 0, 0, 0, 0),      // skipped
            Inst::new(Op::Bne, 0, 0, 0, 0x1000), // r0 != r0: not taken
            Inst::new(Op::Halt, 0, 0, 0, 0),
        ]);
        let mut m = Machine::new(&p);
        let e1 = m.step().unwrap();
        assert!(e1.taken);
        assert_eq!(e1.next_pc, 0x1008);
        let e2 = m.step().unwrap();
        assert!(!e2.taken);
        assert_eq!(e2.next_pc, 0x100c);
    }

    #[test]
    #[should_panic(expected = "outside data segment")]
    fn wild_memory_access_panics() {
        let p = prog(vec![Inst::new(Op::Load, 8, 0, 0, 64)]);
        let mut m = Machine::new(&p);
        m.run(1);
    }

    #[test]
    #[should_panic(expected = "unaligned memory access")]
    fn unaligned_memory_access_panics() {
        let p = prog(vec![
            Inst::new(Op::Addi, 8, 0, 0, 0x10_0004),
            Inst::new(Op::Store, 0, 8, 0, 0),
        ]);
        Machine::new(&p).run(2);
    }

    #[test]
    #[should_panic(expected = "call stack overflow")]
    fn runaway_recursion_panics() {
        let p = prog(vec![Inst::new(Op::Call, 0, 0, 0, 0x1000)]);
        Machine::new(&p).run(u64::MAX);
    }

    #[test]
    fn fill_hands_over_what_step_returns() {
        // A loop with loads, stores, a call and a return, then a halt.
        let p = prog(vec![
            Inst::new(Op::Addi, 8, 0, 0, 0x10_0000),
            Inst::new(Op::Addi, 9, 0, 0, 3),
            Inst::new(Op::Call, 0, 0, 0, 0x1018),
            Inst::new(Op::Addi, 9, 9, 0, -1),
            Inst::new(Op::Bne, 0, 9, 0, 0x1008),
            Inst::new(Op::Halt, 0, 0, 0, 0),
            Inst::new(Op::FLoad, 2, 8, 0, 8),
            Inst::new(Op::FStore, 0, 8, 2, 16),
            Inst::new(Op::Ret, 0, 0, 0, 0),
        ]);
        /// Each commit, with whether the control hook heard of it first.
        struct Keep(Vec<(Commit, bool)>, bool);
        impl Sink for Keep {
            fn control(&mut self, _: Control, _: u64, _: bool, _: u64) {
                self.1 = true;
            }
            fn commit(&mut self, c: Commit) {
                self.0.push((c, std::mem::take(&mut self.1)));
            }
        }
        let mut batched = Machine::new(&p);
        let mut keep = Keep(Vec::new(), false);
        assert_eq!(batched.fill(100, &mut keep), 21, "the halt commits");
        assert!(batched.is_halted());
        assert_eq!(batched.fill(100, &mut keep), 0);
        let mut stepped = Machine::new(&p);
        for (c, heard) in &keep.0 {
            let r = stepped.step().expect("not yet halted");
            assert_eq!((r.pc, r.next_pc, r.taken), (c.pc, c.next_pc, c.taken));
            assert_eq!(r.mem_addr.unwrap_or(0), c.mem_addr);
            assert_eq!(c.template, Template::of(&r.inst));
            assert_eq!(*heard, r.inst.op.is_control());
        }
        assert!(stepped.step().is_none());
    }

    #[test]
    fn shared_arms_compute_each_op() {
        let values = [0, 1, -1, 7, -7, i64::MAX, i64::MIN, 0x5555];
        for a in values {
            for b in values {
                let imm = b.wrapping_mul(3);
                let expect = [
                    (Op::Add, a.wrapping_add(b)),
                    (Op::Sub, a.wrapping_sub(b)),
                    (Op::And, a & b),
                    (Op::Or, a | b),
                    (Op::Xor, a ^ b),
                    (Op::Slt, i64::from(a < b)),
                    (Op::Addi, a.wrapping_add(imm)),
                    (Op::Mul, a.wrapping_mul(b)),
                ];
                for (op, v) in expect {
                    assert_eq!(alu(op, a, b, imm), v, "{op:?} {a} {b}");
                }
                let taken = [
                    (Op::Beq, a == b),
                    (Op::Bne, a != b),
                    (Op::Blt, a < b),
                    (Op::Bge, a >= b),
                ];
                for (op, t) in taken {
                    assert_eq!(condition(op, a, b), t, "{op:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn budget_stops_infinite_loops() {
        let p = prog(vec![Inst::new(Op::Jump, 0, 0, 0, 0x1000)]);
        let mut m = Machine::new(&p);
        let s = m.run(1000);
        assert!(!s.halted);
        assert_eq!(s.retired, 1000);
        assert_eq!(m.retired(), 1000);
    }

    #[test]
    fn div_by_zero_yields_zero() {
        let p = prog(vec![
            Inst::new(Op::Addi, 8, 0, 0, 10),
            Inst::new(Op::Div, 9, 8, 0, 0),
            Inst::new(Op::Halt, 0, 0, 0, 0),
        ]);
        let mut m = Machine::new(&p);
        m.run(10);
        assert_eq!(m.int_reg(9), 0);
    }
}
