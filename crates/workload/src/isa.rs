//! A small RISC instruction set for the synthetic benchmark programs.
//!
//! The suite needs just enough ISA to exercise a realistic out-of-order
//! pipeline: integer/floating-point arithmetic with register dependences,
//! loads/stores with computed addresses, conditional branches with
//! data-dependent outcomes, and calls/returns. Instructions are 4 bytes,
//! so instruction *footprint* (what the i-cache sees) is `4 × count`.

/// Architectural register index (32 integer + 32 floating-point).
pub type Reg = u8;

/// Number of integer registers (`r0` reads as zero).
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point registers.
pub const NUM_FP_REGS: usize = 32;
/// Bytes per encoded instruction.
pub const INST_BYTES: u64 = 4;

/// Operations. Register fields live in [`Inst`]; `imm` carries immediates,
/// load/store displacements, and branch/call targets (absolute instruction
/// addresses, resolved by the program builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `rd = rs1 + rs2`.
    Add,
    /// `rd = rs1 - rs2`.
    Sub,
    /// `rd = rs1 & rs2`.
    And,
    /// `rd = rs1 | rs2`.
    Or,
    /// `rd = rs1 ^ rs2`.
    Xor,
    /// `rd = (rs1 < rs2) as i64`.
    Slt,
    /// `rd = rs1 + imm`.
    Addi,
    /// `rd = rs1 * rs2` (longer latency).
    Mul,
    /// `rd = rs1 / rs2` (long latency; divide-by-zero yields 0).
    Div,
    /// `fd = fs1 + fs2`.
    FAdd,
    /// `fd = fs1 * fs2`.
    FMul,
    /// `fd = fs1 / fs2` (long latency).
    FDiv,
    /// `rd = mem[rs1 + imm]` (64-bit).
    Load,
    /// `mem[rs1 + imm] = rs2` (64-bit).
    Store,
    /// `fd = mem[rs1 + imm]` interpreted as f64 bits.
    FLoad,
    /// `mem[rs1 + imm] = fs2` bits.
    FStore,
    /// Branch to `imm` if `rs1 == rs2`.
    Beq,
    /// Branch to `imm` if `rs1 != rs2`.
    Bne,
    /// Branch to `imm` if `rs1 < rs2`.
    Blt,
    /// Branch to `imm` if `rs1 >= rs2`.
    Bge,
    /// Unconditional jump to `imm`.
    Jump,
    /// Call the routine at `imm` (pushes the return address).
    Call,
    /// Return to the caller (pops the return address; halts on empty stack).
    Ret,
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
}

/// Functional-unit class, used by the CPU timing model to assign latencies
/// and pick execution resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/compare.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Control transfer (branches, jumps, calls, returns).
    Control,
    /// No-op / halt.
    Other,
}

impl Op {
    /// Functional-unit class of this operation.
    pub fn class(self) -> OpClass {
        match self {
            Op::Add | Op::Sub | Op::And | Op::Or | Op::Xor | Op::Slt | Op::Addi => OpClass::IntAlu,
            Op::Mul => OpClass::IntMul,
            Op::Div => OpClass::IntDiv,
            Op::FAdd => OpClass::FpAlu,
            Op::FMul => OpClass::FpMul,
            Op::FDiv => OpClass::FpDiv,
            Op::Load | Op::FLoad => OpClass::Load,
            Op::Store | Op::FStore => OpClass::Store,
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Jump | Op::Call | Op::Ret => {
                OpClass::Control
            }
            Op::Nop | Op::Halt => OpClass::Other,
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_conditional_branch(self) -> bool {
        matches!(self, Op::Beq | Op::Bne | Op::Blt | Op::Bge)
    }

    /// Whether this transfers control at all.
    pub fn is_control(self) -> bool {
        self.class() == OpClass::Control
    }

    /// Whether the destination register is a floating-point register.
    pub fn writes_fp(self) -> bool {
        matches!(self, Op::FAdd | Op::FMul | Op::FDiv | Op::FLoad)
    }

    /// Whether the source registers are floating-point registers.
    pub fn reads_fp(self) -> bool {
        matches!(self, Op::FAdd | Op::FMul | Op::FDiv | Op::FStore)
    }
}

/// Unified register index of an instruction that writes no register (or
/// writes the hardwired `r0`): one past the 32 integer (0..32) and 32
/// floating-point (32..64) registers.
pub const NO_DST: u8 = 64;

/// What a timing model reads of a static instruction: its functional-unit
/// class and its registers as *unified* indices (integer `r` at `r`, FP
/// `f` at `32 + f`, no destination at [`NO_DST`]). Worked out once per
/// instruction when a [`crate::program::Program`] is built; the
/// interpreter reads and writes its registers through the same indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Template {
    /// `OpClass as u8`.
    pub class: u8,
    /// First source register.
    pub src1: u8,
    /// Second source register.
    pub src2: u8,
    /// Destination register, or [`NO_DST`].
    pub dst: u8,
}

impl Template {
    /// The template of `inst`. `FStore` mixes the files: an integer
    /// address base and an FP data source. (Written as flag tests, not
    /// as a match per field: a program is decoded in one pass over
    /// instructions of every kind, where per-op branches mispredict;
    /// the match form decoded 30% slower.)
    pub fn of(inst: &Inst) -> Self {
        let op = inst.op;
        let fp_arith = matches!(op, Op::FAdd | Op::FMul | Op::FDiv);
        let src1 = inst.rs1 + 32 * u8::from(fp_arith);
        let src2 = inst.rs2 + 32 * u8::from(fp_arith || op == Op::FStore);
        let writes_int = matches!(
            op,
            Op::Add
                | Op::Sub
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Slt
                | Op::Addi
                | Op::Mul
                | Op::Div
                | Op::Load
        );
        // `r0` is hardwired: writing it writes nothing.
        let dst = if op.writes_fp() {
            32 + inst.rd
        } else if writes_int && inst.rd != 0 {
            inst.rd
        } else {
            NO_DST
        };
        Template {
            class: op.class() as u8,
            src1,
            src2,
            dst,
        }
    }
}

/// One instruction as written (see [`crate::program::Decoded`] for the
/// form a program stores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inst {
    /// Operation.
    pub op: Op,
    /// Destination register (integer or FP per [`Op::writes_fp`]).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate / displacement / absolute target address.
    pub imm: i64,
}

impl Inst {
    /// A shorthand constructor.
    pub fn new(op: Op, rd: Reg, rs1: Reg, rs2: Reg, imm: i64) -> Self {
        Inst {
            op,
            rd,
            rs1,
            rs2,
            imm,
        }
    }

    /// A no-op.
    pub fn nop() -> Self {
        Inst::new(Op::Nop, 0, 0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classes_cover_all_ops() {
        let ops = [
            Op::Add,
            Op::Sub,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Slt,
            Op::Addi,
            Op::Mul,
            Op::Div,
            Op::FAdd,
            Op::FMul,
            Op::FDiv,
            Op::Load,
            Op::Store,
            Op::FLoad,
            Op::FStore,
            Op::Beq,
            Op::Bne,
            Op::Blt,
            Op::Bge,
            Op::Jump,
            Op::Call,
            Op::Ret,
            Op::Nop,
            Op::Halt,
        ];
        for op in ops {
            let _ = op.class(); // must not panic; exhaustiveness by match
        }
    }

    #[test]
    fn branch_classification() {
        assert!(Op::Beq.is_conditional_branch());
        assert!(Op::Bge.is_conditional_branch());
        assert!(!Op::Jump.is_conditional_branch());
        assert!(Op::Jump.is_control());
        assert!(Op::Ret.is_control());
        assert!(!Op::Add.is_control());
    }

    #[test]
    fn templates_map_registers_into_one_file() {
        let t = Template::of(&Inst::new(Op::FAdd, 1, 2, 3, 0));
        assert_eq!(
            (t.class, t.src1, t.src2, t.dst),
            (OpClass::FpAlu as u8, 34, 35, 33)
        );
        let t = Template::of(&Inst::new(Op::FStore, 9, 4, 5, 8));
        assert_eq!((t.src1, t.src2, t.dst), (4, 37, NO_DST));
        let t = Template::of(&Inst::new(Op::Load, 6, 7, 0, 0));
        assert_eq!((t.class, t.src1, t.dst), (OpClass::Load as u8, 7, 6));
        // r0 is hardwired: writing it writes nothing.
        assert_eq!(Template::of(&Inst::new(Op::Add, 0, 1, 2, 0)).dst, NO_DST);
        assert_eq!(Template::of(&Inst::new(Op::Bne, 5, 1, 2, 0)).dst, NO_DST);
    }

    #[test]
    fn fp_register_file_selection() {
        assert!(Op::FAdd.writes_fp() && Op::FAdd.reads_fp());
        assert!(Op::FLoad.writes_fp() && !Op::FLoad.reads_fp());
        assert!(!Op::FStore.writes_fp() && Op::FStore.reads_fp());
        assert!(!Op::Load.writes_fp());
    }
}
