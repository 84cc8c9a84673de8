//! Programs: code images with a data segment description.

use crate::isa::{Inst, Op, Reg, Template, INST_BYTES, NUM_INT_REGS};

/// One instruction as a [`Program`] stores it: decoded once, when the
/// program is built. It keeps the ISA fields and adds the instruction's
/// timing [`Template`], in the 16 bytes an [`Inst`] takes (the template
/// fills what is padding there). A branch, jump or call keeps its target
/// as an instruction index, checked at decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The immediate, or a control transfer's target instruction index.
    pub(crate) arg: i64,
    pub(crate) op: Op,
    rd: Reg,
    rs1: Reg,
    rs2: Reg,
    pub(crate) template: Template,
}

const _: () = assert!(std::mem::size_of::<Decoded>() == std::mem::size_of::<Inst>());

/// Whether `op` carries a static target in its immediate.
fn has_target(op: Op) -> bool {
    matches!(
        op,
        Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Jump | Op::Call
    )
}

impl Decoded {
    /// The timing template.
    pub fn template(&self) -> Template {
        self.template
    }
}

/// A complete synthetic program.
///
/// Instructions are laid out contiguously from [`Program::base_addr`];
/// instruction `i` lives at `base_addr + 4 i`. Sparse layouts (used to
/// engineer direct-mapped conflicts) are realised by padding with
/// unreachable [`Inst::nop`]s — exactly like real linkers padding sections.
///
/// The program is decoded once, in [`Program::new`]: every instruction is
/// stored as a [`Decoded`], and every branch, jump and call target is
/// checked there (in range, on an instruction boundary) and resolved to
/// an instruction index. What stays dynamic — memory addresses and call
/// depth — the [`crate::machine::Machine`] checks on every access.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    base_addr: u64,
    code: Vec<Decoded>,
    data_base: u64,
    data_bytes: u64,
    data_seed: u64,
}

impl Program {
    /// Assembles and decodes a program.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty, the code and data segments overlap, a
    /// register index is out of range, or a branch, jump or call targets
    /// an address outside the code or off an instruction boundary.
    pub fn new(
        name: impl Into<String>,
        base_addr: u64,
        insts: Vec<Inst>,
        data_base: u64,
        data_bytes: u64,
        data_seed: u64,
    ) -> Self {
        assert!(
            !insts.is_empty(),
            "a program needs at least one instruction"
        );
        let code_end = base_addr + insts.len() as u64 * INST_BYTES;
        assert!(
            code_end <= data_base || data_base + data_bytes <= base_addr,
            "code [{base_addr:#x}, {code_end:#x}) overlaps data [{data_base:#x}, {:#x})",
            data_base + data_bytes
        );
        // Decoded in place: an `Inst` and a `Decoded` have one layout, so
        // the collect reuses the allocation instead of faulting in a copy.
        let code = insts
            .into_iter()
            .enumerate()
            .map(|(i, inst)| {
                assert!(
                    (inst.rd | inst.rs1 | inst.rs2) < NUM_INT_REGS as u8,
                    "instruction {i} ({:?}) names a register out of range",
                    inst.op
                );
                // Branch-free but for the assert, which never fires on a
                // well-formed program: a decode pass sees every op kind.
                let jumps = has_target(inst.op);
                let offset = (inst.imm as u64).wrapping_sub(base_addr);
                assert!(
                    !jumps || (offset < code_end - base_addr && offset.is_multiple_of(INST_BYTES)),
                    "instruction {i} ({:?}) targets {:#x} outside code",
                    inst.op,
                    inst.imm as u64
                );
                let arg = if jumps {
                    (offset / INST_BYTES) as i64
                } else {
                    inst.imm
                };
                Decoded {
                    arg,
                    op: inst.op,
                    rd: inst.rd,
                    rs1: inst.rs1,
                    rs2: inst.rs2,
                    template: Template::of(&inst),
                }
            })
            .collect();
        Program {
            name: name.into(),
            base_addr,
            code,
            data_base,
            data_bytes,
            data_seed,
        }
    }

    /// Program name (the benchmark it proxies).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Address of the first instruction (also the entry point).
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Entry-point address.
    pub fn entry(&self) -> u64 {
        self.base_addr
    }

    /// Number of instructions (including padding).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program is empty (never true: [`Program::new`] rejects
    /// an empty one).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Code footprint in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code.len() as u64 * INST_BYTES
    }

    /// Start of the data segment.
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// Size of the data segment in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Seed used to initialise data memory (drives data-dependent branch
    /// behaviour deterministically).
    pub fn data_seed(&self) -> u64 {
        self.data_seed
    }

    /// Address of instruction index `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.base_addr + i as u64 * INST_BYTES
    }

    /// The decoded instructions, by index.
    #[inline]
    pub fn decoded(&self) -> &[Decoded] {
        &self.code
    }

    /// Instruction index `i` as written.
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the end of the program.
    pub fn inst(&self, i: usize) -> Inst {
        let d = self.code[i];
        let imm = if has_target(d.op) {
            self.addr_of(d.arg as usize) as i64
        } else {
            d.arg
        };
        Inst::new(d.op, d.rd, d.rs1, d.rs2, imm)
    }

    /// Instruction at address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or outside the code segment.
    pub fn inst_at(&self, addr: u64) -> Inst {
        assert!(
            addr >= self.base_addr && (addr - self.base_addr).is_multiple_of(INST_BYTES),
            "bad instruction address {addr:#x}"
        );
        let idx = ((addr - self.base_addr) / INST_BYTES) as usize;
        assert!(
            idx < self.code.len(),
            "instruction address {addr:#x} past end of program"
        );
        self.inst(idx)
    }

    /// All instructions as written, in order (for analysis and tests).
    pub fn insts(&self) -> impl ExactSizeIterator<Item = Inst> + '_ {
        (0..self.code.len()).map(|i| self.inst(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        Program::new(
            "tiny",
            0x1000,
            vec![
                Inst::new(Op::Addi, 8, 0, 0, 42),
                Inst::new(Op::Jump, 0, 0, 0, 0x1000),
            ],
            0x10_0000,
            4096,
            7,
        )
    }

    #[test]
    fn addressing_round_trips() {
        let p = tiny();
        assert_eq!(p.addr_of(0), 0x1000);
        assert_eq!(p.addr_of(1), 0x1004);
        assert_eq!(p.inst_at(0x1004).op, Op::Jump);
        assert_eq!(p.code_bytes(), 8);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn decode_resolves_targets_and_round_trips() {
        let p = tiny();
        assert_eq!(p.decoded()[1].arg, 0, "the jump targets index 0");
        assert_eq!(p.inst(1), Inst::new(Op::Jump, 0, 0, 0, 0x1000));
        let written = vec![
            Inst::new(Op::Addi, 8, 0, 0, 42),
            Inst::new(Op::Jump, 0, 0, 0, 0x1000),
        ];
        assert!(p.insts().eq(written));
        assert_eq!(p.decoded()[0].template(), Template::of(&p.inst(0)));
    }

    #[test]
    fn every_suite_instruction_decodes_to_its_template() {
        for b in crate::suite::Benchmark::all() {
            let p = b.build().program;
            for (i, (d, inst)) in p.decoded().iter().zip(p.insts()).enumerate() {
                assert_eq!(d.template(), Template::of(&inst), "{} {i}", b.name());
            }
        }
        let nop = Inst::new(Op::Nop, 3, 4, 5, 6);
        let p = Program::new("nop", 0x1000, vec![nop], 0x10_0000, 64, 0);
        assert_eq!(p.decoded()[0].template(), Template::of(&nop));
        assert_eq!(p.inst(0), nop);
    }

    #[test]
    #[should_panic(expected = "outside code")]
    fn decode_rejects_a_target_off_an_instruction_boundary() {
        let _ = Program::new(
            "bad",
            0x1000,
            vec![Inst::new(Op::Beq, 0, 0, 0, 0x1002), Inst::nop()],
            0x10_0000,
            64,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "register out of range")]
    fn decode_rejects_a_register_out_of_range() {
        let _ = Program::new(
            "bad",
            0x1000,
            vec![Inst::new(Op::Add, 1, 40, 2, 0)],
            0x10_0000,
            64,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "outside code")]
    fn decode_rejects_a_wild_jump() {
        let _ = Program::new(
            "bad",
            0x1000,
            vec![Inst::new(Op::Jump, 0, 0, 0, 0x9999_0000)],
            0x10_0000,
            64,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "overlaps data")]
    fn rejects_overlapping_segments() {
        let _ = Program::new("overlap", 0x1000, vec![Inst::nop(); 1024], 0x1100, 64, 0);
    }

    #[test]
    #[should_panic(expected = "bad instruction address")]
    fn inst_at_rejects_unaligned() {
        let _ = tiny().inst_at(0x1002);
    }
}
