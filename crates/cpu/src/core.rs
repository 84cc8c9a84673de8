//! The out-of-order timing model.
//!
//! A *dataflow-scheduling* simulator in the spirit of trace-driven
//! out-of-order models: the committed instruction stream comes from the
//! functional [`Machine`] (execution-driven), and each instruction's fetch,
//! issue, completion, and commit cycles are computed analytically under the
//! machine's structural constraints:
//!
//! * **fetch**: `fetch_width` per cycle from the L1 i-cache, one block per
//!   group; groups end at block boundaries and taken branches; i-cache
//!   misses stall fetch for the L2/memory fill; mispredicted branches
//!   redirect fetch after the branch resolves (plus a fixed penalty);
//!   taken branches that miss the BTB cost a one-cycle bubble;
//! * **dispatch**: bounded by ROB occupancy (an instruction cannot fetch
//!   until the entry it reuses has committed);
//! * **issue**: at most `issue_width` per cycle, gated by register
//!   dependences (renaming assumed perfect — only RAW matters), functional
//!   unit pools, and LSQ occupancy for memory operations;
//! * **complete**: issue + latency, with loads taking their latency from
//!   the data-side hierarchy (L1d/L2/memory);
//! * **commit**: in order, `commit_width` per cycle.
//!
//! Wrong-path fetch is not modelled (mispredicted work neither pollutes the
//! i-cache nor consumes L2 bandwidth); the paper's own energy equations
//! approximate L1 accesses ≈ cycles, so this simplification is consistent
//! with its accounting.
//!
//! ## Front half and back halves
//!
//! Nothing the interpreter or the branch predictor computes depends on
//! timing: the committed stream is a function of the program, and the
//! predictor sees control transfers in program order. So the simulator is
//! split in two:
//!
//! * the [`FrontHalf`] — [`Machine::step`] plus the [`HybridPredictor`] —
//!   fills a packed batch of [`Event`]s, each carrying what timing needs
//!   (pc, memory address, op class, scoreboard indices, control flags and
//!   the prediction outcome) and nothing else;
//! * a [`BackHalf`] — one configuration's i-cache, data hierarchy, fetch
//!   state, scheduling rings and counters — consumes a batch.
//!
//! [`FrontHalf::drive`] is the one simulation loop. [`Core::run`] drives a
//! single back half through it; a parameter grid drives several back
//! halves (differing in CPU, hierarchy, i-cache geometry or policy) from
//! one front half, so the stream is interpreted and predicted once per
//! group instead of once per configuration. Each back half's counters
//! depend only on its own configuration and the stream, so a record is
//! bit-identical whichever group it runs in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::bpred::{HybridPredictor, PredictorConfig};
use crate::config::CpuConfig;
use crate::stats::CpuStats;
use cache_sim::cache::AccessKind;
use cache_sim::hierarchy::{Hierarchy, HierarchyConfig};
use cache_sim::icache::InstCache;
use synth_workload::isa::{Inst, Op, OpClass};
use synth_workload::machine::Machine;
use synth_workload::program::Program;

/// Committed instructions per [`FrontHalf::drive`] batch. Large enough
/// that the per-batch dispatch to each back half is noise, small enough
/// that a batch (24 bytes an event) stays in the host's L2 while every
/// back half of a group reads it.
pub const BATCH: usize = 4096;

/// Most back halves one front half drives. Each back half holds six
/// 512 KiB booking rings (3 MiB), so a paper-scale search (28 points
/// plus its baseline) runs as four groups rather than one 29-wide group.
pub const MAX_BACK_HALVES: usize = 8;

/// Size of the booking rings (cycles of look-ahead for issue slots). The
/// maximum useful skew is bounded by ROB size × worst-case latency, well
/// under this.
const RING: usize = 1 << 16;

/// Per-cycle resource booking with a fixed-size ring.
///
/// Each entry packs `(key << COUNT_BITS) | count` into one word, where
/// `key = (generation << CYCLE_BITS) | cycle`, so a probe touches one
/// cache line instead of two parallel arrays. Counts are bounded by the
/// machine widths (≤ issue width / pool size, far below 2^COUNT_BITS).
///
/// The *generation* tag is what makes ring reuse cheap: rings are checked
/// out of a process-wide pool, and because every entry's key embeds the
/// generation of the checkout that wrote it — and the pool never issues a
/// generation twice — entries left over from a previous simulation, on
/// this thread or any other, can never match a probe from the current
/// one. A fresh back half therefore pays neither the 512 KiB-per-ring
/// zeroing nor the page faults of a cold allocation — construction cost
/// that dominated short runs, and that a per-thread pool paid again on
/// every freshly spawned worker.
#[derive(Debug)]
struct SlotRing {
    slots: Vec<u64>,
    generation: u64,
}

/// Low bits of a slot entry reserved for the booking count.
const COUNT_BITS: u32 = 8;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;
/// Bits of the entry key holding the cycle; the rest hold the generation.
/// 2^32 cycles is orders of magnitude beyond any simulated budget, and
/// 2^24 generations (ring checkouts) beyond any campaign; a checkout
/// falls back to clearing if generations ever wrap.
const CYCLE_BITS: u32 = 32;
const MAX_GENERATION: u64 = 1 << (64 - COUNT_BITS - CYCLE_BITS);

/// Free ring storage plus the generation counter that keeps it sound.
struct RingPool {
    free: Mutex<Vec<Vec<u64>>>,
    checkouts: AtomicU64,
}

impl RingPool {
    const fn new(checkouts: u64) -> Self {
        RingPool {
            free: Mutex::new(Vec::new()),
            checkouts: AtomicU64::new(checkouts),
        }
    }

    fn checkout(&self) -> SlotRing {
        let n = self.checkouts.fetch_add(1, Ordering::Relaxed);
        let pooled = self.free.lock().expect("ring pool lock").pop();
        let mut slots = pooled.unwrap_or_else(|| vec![u64::MAX; RING]);
        if n >= MAX_GENERATION {
            // Generations have lapped: a pooled ring may hold entries
            // whose (reissued) generation matches a future probe, so
            // from here on every checkout pays the clearing pass the
            // tagging scheme normally avoids.
            slots.fill(u64::MAX);
        }
        SlotRing {
            slots,
            generation: n % MAX_GENERATION,
        }
    }

    fn give_back(&self, ring: &mut SlotRing) {
        let slots = std::mem::take(&mut ring.slots);
        if slots.len() == RING {
            self.free.lock().expect("ring pool lock").push(slots);
        }
    }
}

static RING_POOL: RingPool = RingPool::new(0);

impl SlotRing {
    fn new() -> Self {
        RING_POOL.checkout()
    }

    #[inline]
    fn key(&self, cycle: u64) -> u64 {
        debug_assert!(cycle < 1 << CYCLE_BITS, "cycle {cycle} overflows ring key");
        (self.generation << CYCLE_BITS) | cycle
    }

    #[inline]
    fn count_at(&self, cycle: u64) -> u32 {
        let e = self.slots[cycle as usize & (RING - 1)];
        if e >> COUNT_BITS == self.key(cycle) {
            (e & COUNT_MASK) as u32
        } else {
            0
        }
    }

    #[inline]
    fn book(&mut self, cycle: u64) {
        let key = self.key(cycle);
        let slot = &mut self.slots[cycle as usize & (RING - 1)];
        if *slot >> COUNT_BITS == key {
            *slot += 1;
        } else {
            *slot = (key << COUNT_BITS) | 1;
        }
    }
}

impl Drop for SlotRing {
    fn drop(&mut self) {
        RING_POOL.give_back(self);
    }
}

/// Result of a completed simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Timing counters.
    pub stats: CpuStats,
    /// Branch predictor accuracy over conditional branches.
    pub bpred_accuracy: f64,
}

/// [`Event::flags`] bit: the instruction transfers control.
const CONTROL: u8 = 1;
/// [`Event::flags`] bit: the control transfer was taken.
const TAKEN: u8 = 1 << 1;
/// [`Event::flags`] bit: the predictor got the transfer right.
const CORRECT: u8 = 1 << 2;
/// [`Event::flags`] bit: a taken transfer's target was known at fetch.
const BUBBLE_FREE: u8 = 1 << 3;
/// Scoreboard slot for instructions that write no register: one past the
/// 64 architectural ones, written but never read.
const NO_DST: u8 = 64;

/// One committed instruction as a back half sees it: everything timing
/// reads, already interpreted and predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pc: u64,
    /// Effective address of a load or store (0 otherwise).
    mem_addr: u64,
    /// `OpClass as u8`: the index into a back half's per-class tables.
    class: u8,
    src1: u8,
    src2: u8,
    dst: u8,
    flags: u8,
}

/// Maps the two source registers to scoreboard indices (integer regs
/// occupy 0..32, FP regs 32..64). `FStore` mixes the files: an integer
/// address base and an FP data source.
fn src_indices(inst: &Inst) -> (u8, u8) {
    match inst.op {
        Op::FAdd | Op::FMul | Op::FDiv => (32 + inst.rs1, 32 + inst.rs2),
        Op::FStore => (inst.rs1, 32 + inst.rs2),
        _ => (inst.rs1, inst.rs2),
    }
}

/// Maps the destination register to a scoreboard index ([`NO_DST`] when
/// the instruction writes none).
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
                NO_DST // r0 is hardwired
            } else {
                inst.rd
            }
        }
        _ => NO_DST,
    }
}

/// The timing-independent half of a simulation: the functional machine
/// and the branch predictor, feeding [`Event`] batches to back halves.
#[derive(Debug)]
pub struct FrontHalf<'p> {
    machine: Machine<'p>,
    predictor: HybridPredictor,
    batch: Vec<Event>,
}

impl<'p> FrontHalf<'p> {
    /// Boots the machine at the program entry with the standard
    /// predictor.
    pub fn new(program: &'p Program) -> Self {
        FrontHalf {
            machine: Machine::new(program),
            predictor: HybridPredictor::new(PredictorConfig::default()),
            batch: Vec::with_capacity(BATCH),
        }
    }

    /// The branch predictor.
    pub fn predictor(&self) -> &HybridPredictor {
        &self.predictor
    }

    /// Interprets and predicts up to `n` more instructions into the batch
    /// (fewer once the program halts).
    fn fill(&mut self, n: usize) {
        self.batch.clear();
        for _ in 0..n {
            let Some(r) = self.machine.step() else {
                break;
            };
            let op = r.inst.op;
            let (src1, src2) = src_indices(&r.inst);
            let mut flags = 0;
            if op.is_control() {
                let (correct, bubble_free) = match op {
                    Op::Beq | Op::Bne | Op::Blt | Op::Bge => {
                        let o = self.predictor.conditional(r.pc, r.taken, r.next_pc);
                        (o.correct, o.btb_hit)
                    }
                    Op::Jump => (true, self.predictor.unconditional(r.pc, r.next_pc)),
                    Op::Call => (true, self.predictor.call(r.pc, r.next_pc)),
                    Op::Ret => (self.predictor.ret(r.next_pc), true),
                    _ => unreachable!("control op"),
                };
                flags = CONTROL
                    | if r.taken { TAKEN } else { 0 }
                    | if correct { CORRECT } else { 0 }
                    | if bubble_free { BUBBLE_FREE } else { 0 };
            }
            self.batch.push(Event {
                pc: r.pc,
                mem_addr: r.mem_addr.unwrap_or(0),
                class: op.class() as u8,
                src1,
                src2,
                dst: dst_index(&r.inst),
                flags,
            });
        }
    }

    /// The simulation loop: feeds up to `budget` committed instructions,
    /// a batch at a time, to `consume` (which hands each batch to every
    /// back half of the group). Returns the instructions driven — fewer
    /// than `budget` only when the program halted. Calling it again
    /// resumes where the last call stopped.
    pub fn drive(&mut self, budget: u64, mut consume: impl FnMut(&[Event])) -> u64 {
        let mut driven = 0;
        while driven < budget {
            let want = usize::try_from(budget - driven).map_or(BATCH, |left| left.min(BATCH));
            self.fill(want);
            if self.batch.is_empty() {
                break;
            }
            consume(&self.batch);
            driven += self.batch.len() as u64;
            if self.batch.len() < want {
                break;
            }
        }
        driven
    }
}

/// Every functional-unit class, in `OpClass as u8` order.
const CLASSES: [OpClass; 10] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::FpAlu,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::Load,
    OpClass::Store,
    OpClass::Control,
    OpClass::Other,
];
const LOAD: u8 = OpClass::Load as u8;
const STORE: u8 = OpClass::Store as u8;

/// Per-class scheduling constants, looked up by `OpClass as u8`.
#[derive(Debug, Clone, Copy, Default)]
struct ClassInfo {
    pool: usize,
    cap: u32,
    latency: u64,
    /// Pools at least as wide as the issue width can never be the binding
    /// constraint (every pool booking also books an issue slot), so their
    /// per-cycle probe is skipped in the issue loop.
    unconstrained: bool,
}

/// The timing half of one configuration: i-cache (the experimental
/// variable), data hierarchy, fetch state, scheduling state and counters.
#[derive(Debug)]
pub struct BackHalf<IC: InstCache> {
    cfg: CpuConfig,
    icache: IC,
    hierarchy: Hierarchy,
    // Fetch state.
    cur_cycle: u64,
    group_count: u32,
    cur_block: u64,
    force_new_group: bool,
    next_fetch_floor: u64,
    // Scheduling state.
    reg_ready: [u64; NO_DST as usize + 1],
    rob_ring: Vec<u64>,
    lsq_ring: Vec<u64>,
    commit_ring: Vec<u64>,
    last_commit: u64,
    issue_slots: SlotRing,
    fu_slots: Vec<SlotRing>,
    // Rolling ring cursors (the instruction/mem-op index modulo each
    // ring's length, maintained incrementally: three u64 modulos per
    // committed instruction are measurable at simulation rates).
    rob_cursor: usize,
    commit_cursor: usize,
    lsq_cursor: usize,
    // Per-run constants hoisted out of the fetch loop.
    block_bits: u32,
    hit_latency: u64,
    classes: [ClassInfo; CLASSES.len()],
    stats: CpuStats,
}

impl<IC: InstCache> BackHalf<IC> {
    /// Builds the timing state for one configuration.
    pub fn new(cfg: CpuConfig, icache: IC, hierarchy: HierarchyConfig) -> Self {
        cfg.validate();
        let block_bits = icache.block_bytes().trailing_zeros();
        let hit_latency = icache.hit_latency();
        let mut classes = [ClassInfo::default(); CLASSES.len()];
        for class in CLASSES {
            classes[class as usize] = ClassInfo {
                pool: cfg.pool_index(class),
                cap: cfg.pool_size(class),
                latency: cfg.latency(class),
                unconstrained: cfg.pool_size(class) >= cfg.issue_width,
            };
        }
        BackHalf {
            icache,
            hierarchy: Hierarchy::new(hierarchy),
            cur_cycle: 0,
            group_count: cfg.fetch_width, // force a fresh group immediately
            cur_block: u64::MAX,
            force_new_group: true,
            next_fetch_floor: 0,
            reg_ready: [0; NO_DST as usize + 1],
            rob_ring: vec![0; cfg.rob_entries as usize],
            lsq_ring: vec![0; cfg.lsq_entries as usize],
            commit_ring: vec![0; cfg.commit_width as usize],
            last_commit: 0,
            issue_slots: SlotRing::new(),
            fu_slots: (0..CpuConfig::NUM_POOLS).map(|_| SlotRing::new()).collect(),
            rob_cursor: 0,
            commit_cursor: 0,
            lsq_cursor: 0,
            block_bits,
            hit_latency,
            classes,
            cfg,
            stats: CpuStats::default(),
        }
    }

    /// The i-cache under test.
    pub fn icache(&self) -> &IC {
        &self.icache
    }

    /// The data-side hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Timing counters accumulated so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Times every instruction of `batch`, in order.
    pub fn consume(&mut self, batch: &[Event]) {
        for e in batch {
            self.time(e);
        }
    }

    /// Closes out the run so far: the cycle count is the last commit, and
    /// the i-cache settles its time-integrated accounting.
    pub fn finish(&mut self) -> CpuStats {
        self.stats.cycles = self.last_commit;
        self.icache.finish(self.last_commit);
        self.stats
    }

    /// Times one committed instruction.
    #[inline]
    fn time(&mut self, e: &Event) {
        // --- Fetch -----------------------------------------------------
        let block = e.pc >> self.block_bits;
        if self.force_new_group
            || self.group_count >= self.cfg.fetch_width
            || block != self.cur_block
        {
            // ROB backpressure: the entry instruction i reuses frees when
            // instruction i - rob_entries commits.
            let rob_free = self.rob_ring[self.rob_cursor];
            let mut c = (self.cur_cycle + 1)
                .max(self.next_fetch_floor)
                .max(rob_free);
            let hit = self.icache.access(e.pc, c);
            if !hit {
                let fill = self.hierarchy.inst_fill(e.pc);
                self.stats.icache_stall_cycles += fill;
                c += fill;
            }
            self.cur_cycle = c;
            self.group_count = 0;
            self.cur_block = block;
            self.force_new_group = false;
            self.stats.fetch_groups += 1;
        }
        self.group_count += 1;
        let fetch_cycle = self.cur_cycle;
        let dispatch_ready = fetch_cycle + self.hit_latency + self.cfg.frontend_latency;

        // --- Schedule ---------------------------------------------------
        let class = self.classes[usize::from(e.class)];
        let mut ready = dispatch_ready
            .max(self.reg_ready[usize::from(e.src1)])
            .max(self.reg_ready[usize::from(e.src2)]);
        let is_mem = e.class == LOAD || e.class == STORE;
        if is_mem {
            ready = ready.max(self.lsq_ring[self.lsq_cursor]);
        }
        let mut issue = ready;
        loop {
            if self.issue_slots.count_at(issue) < self.cfg.issue_width
                && (class.unconstrained || self.fu_slots[class.pool].count_at(issue) < class.cap)
            {
                break;
            }
            issue += 1;
        }
        self.issue_slots.book(issue);
        self.fu_slots[class.pool].book(issue);

        let latency = match e.class {
            LOAD => {
                self.stats.loads += 1;
                self.hierarchy.data_access(e.mem_addr, AccessKind::Read)
            }
            STORE => {
                self.stats.stores += 1;
                let _ = self.hierarchy.data_access(e.mem_addr, AccessKind::Write);
                1 // stores complete at issue; write happens at commit
            }
            _ => class.latency,
        };
        let complete = issue + latency;
        self.reg_ready[usize::from(e.dst)] = complete;

        // --- Control ----------------------------------------------------
        if e.flags & CONTROL != 0 {
            self.stats.branches += 1;
            if e.flags & CORRECT == 0 {
                self.stats.mispredict_redirects += 1;
                self.next_fetch_floor = complete + self.cfg.mispredict_redirect;
                self.force_new_group = true;
            } else if e.flags & TAKEN != 0 {
                self.force_new_group = true;
                if e.flags & BUBBLE_FREE == 0 {
                    // Target unknown at fetch: one bubble before the next
                    // group (on top of the natural group turnover).
                    self.next_fetch_floor = fetch_cycle + 2;
                }
            }
        }

        // --- Commit -----------------------------------------------------
        let commit = (complete + 1)
            .max(self.last_commit)
            .max(self.commit_ring[self.commit_cursor] + 1);
        self.last_commit = commit;
        self.commit_ring[self.commit_cursor] = commit;
        self.rob_ring[self.rob_cursor] = commit;
        self.commit_cursor += 1;
        if self.commit_cursor == self.commit_ring.len() {
            self.commit_cursor = 0;
        }
        self.rob_cursor += 1;
        if self.rob_cursor == self.rob_ring.len() {
            self.rob_cursor = 0;
        }
        if is_mem {
            self.lsq_ring[self.lsq_cursor] = commit;
            self.lsq_cursor += 1;
            if self.lsq_cursor == self.lsq_ring.len() {
                self.lsq_cursor = 0;
            }
        }
        self.icache.retire_instructions(1, commit);
        self.stats.instructions += 1;
    }
}

/// The core: one front half driving one back half — the single-
/// configuration case of the lockstep loop.
#[derive(Debug)]
pub struct Core<'p, IC: InstCache> {
    front: FrontHalf<'p>,
    back: BackHalf<IC>,
}

impl<'p, IC: InstCache> Core<'p, IC> {
    /// Builds a core around a program, an i-cache implementation, and the
    /// standard Table 1 hierarchy/predictor.
    pub fn new(program: &'p Program, cfg: CpuConfig, icache: IC) -> Self {
        Self::with_hierarchy(program, cfg, icache, HierarchyConfig::hpca01())
    }

    /// Builds a core with an explicit hierarchy configuration.
    pub fn with_hierarchy(
        program: &'p Program,
        cfg: CpuConfig,
        icache: IC,
        hierarchy: HierarchyConfig,
    ) -> Self {
        Core {
            front: FrontHalf::new(program),
            back: BackHalf::new(cfg, icache, hierarchy),
        }
    }

    /// The i-cache under test.
    pub fn icache(&self) -> &IC {
        self.back.icache()
    }

    /// The data-side hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.back.hierarchy()
    }

    /// The branch predictor.
    pub fn predictor(&self) -> &HybridPredictor {
        self.front.predictor()
    }

    /// Timing counters accumulated so far.
    pub fn stats(&self) -> &CpuStats {
        self.back.stats()
    }

    /// Runs until `budget` more instructions commit (or the program halts)
    /// and closes out the run. Returns the result; the core can be
    /// inspected afterwards for cache/predictor detail.
    pub fn run(&mut self, budget: u64) -> RunResult {
        let back = &mut self.back;
        self.front.drive(budget, |batch| back.consume(batch));
        RunResult {
            stats: self.back.finish(),
            bpred_accuracy: self.front.predictor().stats().accuracy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::icache::ConventionalICache;
    use synth_workload::generator::{generate, GeneratorSpec};
    use synth_workload::suite::Benchmark;

    fn run_bench(spec: &GeneratorSpec, budget: u64) -> (RunResult, CpuStats) {
        let g = generate(spec);
        let mut core = Core::new(
            &g.program,
            CpuConfig::hpca01(),
            ConventionalICache::hpca01(),
        );
        let r = core.run(budget);
        (r, *core.stats())
    }

    #[test]
    fn ipc_is_plausible_for_an_8_wide_core() {
        let spec = GeneratorSpec::basic("t", 4 * 1024, 100_000);
        let (r, _) = run_bench(&spec, 200_000);
        let ipc = r.stats.ipc();
        assert!(ipc > 0.5 && ipc <= 8.0, "IPC {ipc} outside plausible range");
    }

    #[test]
    fn cycles_grow_monotonically_with_instructions() {
        let spec = GeneratorSpec::basic("t", 4 * 1024, 100_000);
        let g = generate(&spec);
        let mut core = Core::new(
            &g.program,
            CpuConfig::hpca01(),
            ConventionalICache::hpca01(),
        );
        let a = core.run(50_000).stats.cycles;
        let b = core.run(50_000).stats.cycles;
        assert!(b > a);
    }

    #[test]
    fn small_kernel_has_tiny_icache_miss_rate() {
        let spec = GeneratorSpec::basic("t", 2 * 1024, 100_000);
        let g = generate(&spec);
        let mut core = Core::new(
            &g.program,
            CpuConfig::hpca01(),
            ConventionalICache::hpca01(),
        );
        core.run(500_000);
        let st = core.icache().stats();
        assert!(
            st.miss_rate() < 0.01,
            "2K kernel in 64K cache: miss rate {}",
            st.miss_rate()
        );
    }

    #[test]
    fn narrower_machine_is_slower() {
        let spec = GeneratorSpec::basic("t", 4 * 1024, 100_000);
        let g = generate(&spec);
        let mut wide = Core::new(
            &g.program,
            CpuConfig::hpca01(),
            ConventionalICache::hpca01(),
        );
        let narrow_cfg = CpuConfig {
            fetch_width: 2,
            issue_width: 2,
            commit_width: 2,
            ..CpuConfig::hpca01()
        };
        let mut narrow = Core::new(&g.program, narrow_cfg, ConventionalICache::hpca01());
        let w = wide.run(100_000).stats;
        let n = narrow.run(100_000).stats;
        assert!(
            n.cycles > w.cycles,
            "2-wide ({}) should be slower than 8-wide ({})",
            n.cycles,
            w.cycles
        );
    }

    #[test]
    fn random_branches_cost_performance() {
        let mut predictable = GeneratorSpec::basic("p", 4 * 1024, 100_000);
        predictable.seed = 7;
        let mut random = predictable.clone();
        random.random_branch_fraction = 0.8;
        random.name = "r".into();
        let (rp, _) = run_bench(&predictable, 150_000);
        let (rr, _) = run_bench(&random, 150_000);
        assert!(
            rr.bpred_accuracy < rp.bpred_accuracy,
            "random {} vs predictable {}",
            rr.bpred_accuracy,
            rp.bpred_accuracy
        );
        assert!(rr.stats.cycles > rp.stats.cycles);
    }

    #[test]
    fn bpred_accuracy_is_high_on_patterned_code() {
        let spec = GeneratorSpec::basic("t", 4 * 1024, 100_000);
        let (r, _) = run_bench(&spec, 200_000);
        assert!(
            r.bpred_accuracy > 0.9,
            "accuracy {} on learnable patterns",
            r.bpred_accuracy
        );
    }

    #[test]
    fn benchmarks_drive_the_full_hierarchy() {
        let g = Benchmark::Gcc.build();
        let mut core = Core::new(
            &g.program,
            CpuConfig::hpca01(),
            ConventionalICache::hpca01(),
        );
        core.run(300_000);
        assert!(core.hierarchy().l1d_stats().accesses > 10_000);
        assert!(core.stats().loads > 0);
        assert!(core.stats().stores > 0);
        assert!(core.stats().branches > 0);
    }

    #[test]
    fn a_ring_handed_between_threads_forgets_its_old_owner() {
        let pool = RingPool::new(0);
        let booked: Vec<u64> = (0..5_000).map(|c| c * 13).collect();
        let (storage, old_generation) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut ring = pool.checkout();
                for &cycle in &booked {
                    ring.book(cycle);
                    ring.book(cycle);
                }
                assert_eq!(ring.count_at(booked[7]), 2);
                let id = (ring.slots.as_ptr() as usize, ring.generation);
                pool.give_back(&mut ring);
                id
            })
            .join()
            .expect("owner thread")
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut ring = pool.checkout();
                assert_eq!(
                    ring.slots.as_ptr() as usize,
                    storage,
                    "pooled storage reused"
                );
                assert_ne!(ring.generation, old_generation);
                for &cycle in &booked {
                    assert_eq!(ring.count_at(cycle), 0, "cycle {cycle} leaked");
                }
                pool.give_back(&mut ring);
            });
        });
    }

    #[test]
    fn lapped_generations_clear_pooled_rings() {
        let pool = RingPool::new(MAX_GENERATION - 1);
        let mut ring = pool.checkout();
        assert_eq!(ring.generation, MAX_GENERATION - 1);
        ring.book(3);
        pool.give_back(&mut ring);
        // Checkout MAX_GENERATION reissues generation 0: only clearing
        // keeps an old entry from matching.
        let mut wrapped = pool.checkout();
        assert_eq!(wrapped.generation, 0);
        assert!(wrapped.slots.iter().all(|&e| e == u64::MAX));
        assert_eq!(wrapped.count_at(3), 0);
        pool.give_back(&mut wrapped);
    }

    fn resumed_equals_whole<IC: InstCache>(make: impl Fn() -> IC) {
        let g = Benchmark::Li.build();
        let cfg = CpuConfig::hpca01();
        // Splits on and off batch boundaries.
        for split in [1, BATCH as u64, 3 * BATCH as u64 + 17, 70_001] {
            let mut whole = Core::new(&g.program, cfg, make());
            let one = whole.run(150_000);
            let mut resumed = Core::new(&g.program, cfg, make());
            resumed.run(split);
            let two = resumed.run(150_000 - split);
            assert_eq!(one.stats, two.stats, "split at {split}");
            assert_eq!(one.bpred_accuracy.to_bits(), two.bpred_accuracy.to_bits());
            assert_eq!(whole.icache().stats(), resumed.icache().stats());
            assert_eq!(
                whole.hierarchy().l2_inst_accesses(),
                resumed.hierarchy().l2_inst_accesses()
            );
            assert_eq!(whole.predictor().stats(), resumed.predictor().stats());
        }
    }

    #[test]
    fn resumed_run_equals_one_run_of_the_sum() {
        resumed_equals_whole(ConventionalICache::hpca01);
    }

    #[test]
    fn resumed_run_equals_one_run_of_the_sum_on_a_small_cache() {
        // A 4K cache misses constantly, so the fetch and fill paths carry
        // state across the split too.
        resumed_equals_whole(|| {
            ConventionalICache::new(cache_sim::config::CacheConfig::new(
                4 * 1024,
                32,
                1,
                1,
                cache_sim::replacement::ReplacementPolicy::Lru,
            ))
        });
    }

    #[test]
    fn lockstep_back_halves_match_independent_cores() {
        let g = Benchmark::Gcc.build();
        let narrow = CpuConfig {
            issue_width: 4,
            ..CpuConfig::hpca01()
        };
        let budget = 120_000;
        let mut front = FrontHalf::new(&g.program);
        let mut wide = BackHalf::new(
            CpuConfig::hpca01(),
            ConventionalICache::hpca01(),
            HierarchyConfig::hpca01(),
        );
        let mut thin = BackHalf::new(
            narrow,
            ConventionalICache::hpca01(),
            HierarchyConfig::hpca01(),
        );
        let driven = front.drive(budget, |batch| {
            wide.consume(batch);
            thin.consume(batch);
        });
        assert_eq!(driven, budget);
        for (back, cfg) in [(&mut wide, CpuConfig::hpca01()), (&mut thin, narrow)] {
            let mut alone = Core::new(&g.program, cfg, ConventionalICache::hpca01());
            let r = alone.run(budget);
            assert_eq!(back.finish(), r.stats);
            assert_eq!(back.icache().stats(), alone.icache().stats());
            assert_eq!(
                front.predictor().stats().accuracy().to_bits(),
                r.bpred_accuracy.to_bits()
            );
        }
    }

    #[test]
    fn drive_stops_at_halt() {
        // 5,000 adds then a halt: more than one batch, ending mid-batch.
        let mut insts = vec![Inst::new(Op::Add, 1, 1, 2, 0); 5_000];
        insts.push(Inst::new(Op::Halt, 0, 0, 0, 0));
        let program = Program::new("halt", 0x1000, insts, 0x10_0000, 4096, 1);
        let mut core = Core::new(&program, CpuConfig::hpca01(), ConventionalICache::hpca01());
        let r = core.run(1_000_000);
        assert_eq!(r.stats.instructions, 5_001, "the halt itself commits");
        // A halted program drives nothing more.
        assert_eq!(core.run(10).stats, r.stats);
    }

    #[test]
    fn giant_footprint_stresses_icache() {
        // fpppp's 60K footprint in the 64K cache: misses happen on phase
        // wrap but stay modest.
        let g = Benchmark::Fpppp.build();
        let mut core = Core::new(
            &g.program,
            CpuConfig::hpca01(),
            ConventionalICache::hpca01(),
        );
        core.run(300_000);
        let st = core.icache().stats();
        assert!(st.accesses > 0);
        assert!(st.misses > 100, "cold misses at least");
    }
}
