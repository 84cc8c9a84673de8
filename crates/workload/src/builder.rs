//! A tiny assembler: emits instructions with labels and forward references.

use crate::isa::{Inst, Op, Reg, INST_BYTES};

/// An opaque label handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incremental program builder with label fixup.
#[derive(Debug, Default)]
pub struct CodeBuilder {
    base: u64,
    insts: Vec<Inst>,
    /// Each label's address once bound, by label number.
    bound: Vec<Option<u64>>,
    fixups: Vec<(usize, Label)>,
}

impl CodeBuilder {
    /// Starts a builder whose first instruction lands at `base`.
    pub fn new(base: u64) -> Self {
        CodeBuilder {
            base,
            ..Default::default()
        }
    }

    /// Address the next emitted instruction will occupy.
    pub fn here(&self) -> u64 {
        self.base + self.insts.len() as u64 * INST_BYTES
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let here = self.here();
        let slot = &mut self.bound[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(here);
    }

    /// Emits a raw instruction.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Emits `op rd, rs1, rs2`.
    pub fn alu(&mut self, op: Op, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Inst::new(op, rd, rs1, rs2, 0));
    }

    /// Emits `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.push(Inst::new(Op::Addi, rd, rs1, 0, imm));
    }

    /// Emits a load `rd = mem[rs1 + imm]`.
    pub fn load(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.push(Inst::new(Op::Load, rd, rs1, 0, imm));
    }

    /// Emits a store `mem[rs1 + imm] = rs2`.
    pub fn store(&mut self, rs1: Reg, rs2: Reg, imm: i64) {
        self.push(Inst::new(Op::Store, 0, rs1, rs2, imm));
    }

    /// Emits a conditional branch to `label`.
    pub fn branch(&mut self, op: Op, rs1: Reg, rs2: Reg, label: Label) {
        assert!(op.is_conditional_branch(), "{op:?} is not a branch");
        self.fixups.push((self.insts.len(), label));
        self.push(Inst::new(op, 0, rs1, rs2, 0));
    }

    /// Emits an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) {
        self.fixups.push((self.insts.len(), label));
        self.push(Inst::new(Op::Jump, 0, 0, 0, 0));
    }

    /// Emits a call to `label`.
    pub fn call(&mut self, label: Label) {
        self.fixups.push((self.insts.len(), label));
        self.push(Inst::new(Op::Call, 0, 0, 0, 0));
    }

    /// Emits a return.
    pub fn ret(&mut self) {
        self.push(Inst::new(Op::Ret, 0, 0, 0, 0));
    }

    /// Emits a halt.
    pub fn halt(&mut self) {
        self.push(Inst::new(Op::Halt, 0, 0, 0, 0));
    }

    /// Pads with unreachable no-ops until the next instruction would sit at
    /// `addr` (used for sparse, conflict-engineered layouts).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is behind the current position or unaligned.
    pub fn pad_to(&mut self, addr: u64) {
        assert!(addr >= self.here(), "cannot pad backwards to {addr:#x}");
        assert!(
            addr.is_multiple_of(INST_BYTES),
            "unaligned pad target {addr:#x}"
        );
        let len = ((addr - self.base) / INST_BYTES) as usize;
        self.insts.resize(len, Inst::nop());
    }

    /// Resolves all fixups and returns the instruction vector.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Vec<Inst> {
        for (idx, label) in &self.fixups {
            let addr = self.bound[label.0].unwrap_or_else(|| panic!("label {label:?} never bound"));
            self.insts[*idx].imm = addr as i64;
        }
        self.insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::program::Program;

    #[test]
    fn builds_a_working_loop() {
        let mut b = CodeBuilder::new(0x1000);
        let top = b.label();
        b.addi(8, 0, 3);
        b.bind(top);
        b.addi(9, 9, 1);
        b.addi(8, 8, -1);
        b.branch(Op::Bne, 8, 0, top);
        b.halt();
        let p = Program::new("loop", 0x1000, b.finish(), 0x10_0000, 64, 0);
        let mut m = Machine::new(&p);
        m.run(100);
        assert_eq!(m.int_reg(9), 3);
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = CodeBuilder::new(0x1000);
        let skip = b.label();
        b.jump(skip);
        b.addi(8, 0, 111); // skipped
        b.bind(skip);
        b.addi(9, 0, 222);
        b.halt();
        let p = Program::new("fwd", 0x1000, b.finish(), 0x10_0000, 64, 0);
        let mut m = Machine::new(&p);
        m.run(100);
        assert_eq!(m.int_reg(8), 0);
        assert_eq!(m.int_reg(9), 222);
    }

    #[test]
    fn pad_to_fills_nops() {
        let mut b = CodeBuilder::new(0x1000);
        b.addi(8, 0, 1);
        b.pad_to(0x1000 + 64);
        assert_eq!(b.here(), 0x1040);
        let insts = b.finish();
        assert_eq!(insts.len(), 16);
        assert_eq!(insts[5].op, Op::Nop);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = CodeBuilder::new(0x1000);
        let l = b.label();
        b.jump(l);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = CodeBuilder::new(0x1000);
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }
}
