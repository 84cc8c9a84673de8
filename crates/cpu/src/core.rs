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
//! * the [`FrontHalf`] — the interpreter plus the [`HybridPredictor`] —
//!   fills a packed batch of [`Event`]s, each carrying what timing needs
//!   (pc, memory address, the instruction's [`Template`] of op class and
//!   scoreboard indices, control flags and the prediction outcome) and
//!   nothing else. It is one pass of [`Machine::fill`] over the
//!   program's predecoded instructions: the machine hands each committed
//!   instruction's pc, template and memory address to the front half's
//!   sink and calls the sink's predictor hook inline for control
//!   transfers, so nothing that depends only on the static instruction
//!   is worked out again per dynamic one ([`Machine::step`] is the same
//!   code, one instruction at a time);
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
//!
//! ## Timing classes
//!
//! A back half's timing state depends on the i-cache only through its
//! block size, its hit latency and the outcomes of its accesses, and
//! every call into the i-cache takes its arguments from the stream and
//! the timing state. So i-caches that have answered alike so far share
//! one timing state exactly: a [`BackHalf`] times one i-cache and
//! carries *followers* that see the same calls, and splits them off at
//! their first disagreeing access (see [`BackHalf`]).
//!
//! ## Deferred retirement
//!
//! An adaptive i-cache acts on committed instructions only when a sense
//! interval ends (paper §2.1); between ends, retiring one just counts.
//! So a back half counts its committed instructions itself and hands
//! them to every i-cache of its class in one
//! [`InstCache::retire_instructions`] call when the smallest
//! [`InstCache::retire_budget`] among them runs out. That call carries
//! the commit cycle of the instruction that ends the interval, as a
//! call per instruction would have; every other instruction's cycle
//! goes unread, so deferring changes no record. A back half times each
//! batch in runs that end at the retire point, so the per-instruction
//! loop carries no check; [`BackHalf::finish`] flushes the remainder. A
//! class whose i-caches retire nothing (budget `u64::MAX`: conventional,
//! decay, way-memo) never calls.

use crate::bpred::{HybridPredictor, PredictorConfig};
use crate::config::CpuConfig;
use crate::stats::CpuStats;
use cache_sim::cache::AccessKind;
use cache_sim::hierarchy::{Hierarchy, HierarchyConfig};
use cache_sim::icache::InstCache;
use synth_workload::isa::{OpClass, Template, NO_DST};
use synth_workload::machine::{Commit, Control, Machine, Sink};
use synth_workload::program::Program;

/// Committed instructions per [`FrontHalf::drive`] batch. Large enough
/// that the per-batch dispatch to each back half is noise, small enough
/// that a batch (24 bytes an event) stays in the host's L2 while every
/// back half of a group reads it.
pub const BATCH: usize = 4096;

/// Initial length of the booking rings, in cycles. The live window of a
/// booking — from the instruction's dispatch floor to its issue cycle —
/// never exceeded ~134 cycles on any quick benchmark, so a ring this
/// size (8 KiB) rarely grows; when a window reaches the length, every
/// ring of the back half doubles (see [`Timing::grow_rings`]).
const RING: usize = 1 << 10;

/// Per-cycle resource booking in a power-of-two ring.
///
/// Each entry packs `(cycle << COUNT_BITS) | count` into one word, so a
/// probe touches one cache line and an entry left by an older cycle that
/// shares the slot reads as empty. Counts are bounded by the machine
/// widths (≤ issue width / pool size, far below 2^COUNT_BITS).
///
/// Keying by the whole cycle makes every probe exact; only a booking can
/// lose information, by overwriting a *live* entry whose cycle shares
/// the slot. [`Timing::time`] rules that out by keeping every booking
/// within one ring length of the dispatch floor.
#[derive(Debug, Clone)]
struct SlotRing {
    slots: Vec<u64>,
    mask: usize,
}

/// Low bits of a slot entry reserved for the booking count.
const COUNT_BITS: u32 = 8;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;
/// A slot no booking has written.
const EMPTY: u64 = u64::MAX;

impl SlotRing {
    fn new(len: usize) -> Self {
        debug_assert!(len.is_power_of_two());
        SlotRing {
            slots: vec![EMPTY; len],
            mask: len - 1,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn count_at(&self, cycle: u64) -> u32 {
        let e = self.slots[cycle as usize & self.mask];
        if e >> COUNT_BITS == cycle {
            (e & COUNT_MASK) as u32
        } else {
            0
        }
    }

    #[inline]
    fn book(&mut self, cycle: u64) {
        let slot = &mut self.slots[cycle as usize & self.mask];
        if *slot >> COUNT_BITS == cycle {
            *slot += 1;
        } else {
            *slot = (cycle << COUNT_BITS) | 1;
        }
    }

    /// This ring rebuilt at `len` slots, keeping the entries of cycles at
    /// or after `floor` (no later probe reaches an earlier cycle).
    fn grown(&self, len: usize, floor: u64) -> SlotRing {
        let mut ring = SlotRing::new(len);
        for &e in &self.slots {
            if e != EMPTY && e >> COUNT_BITS >= floor {
                ring.slots[(e >> COUNT_BITS) as usize & ring.mask] = e;
            }
        }
        ring
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

/// One committed instruction as a back half sees it: everything timing
/// reads, already interpreted and predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pc: u64,
    /// Effective address of a load or store (0 otherwise).
    mem_addr: u64,
    /// The instruction's template: its class (the index into a back
    /// half's per-class tables) and scoreboard indices. The scoreboard
    /// slot [`NO_DST`] is written but never read.
    template: Template,
    flags: u8,
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

    /// Interprets and predicts up to `n` more instructions into `batch`
    /// (fewer once the program halts): one pass of [`Machine::fill`]
    /// that predicts each control transfer as it executes and copies
    /// each instruction's template into its event.
    fn fill(&mut self, batch: &mut Vec<Event>, n: usize) {
        batch.clear();
        batch.reserve(n);
        self.machine.fill(
            n,
            &mut Packer {
                predictor: &mut self.predictor,
                batch,
                flags: 0,
            },
        );
    }

    /// The simulation loop: feeds up to `budget` committed instructions,
    /// a batch at a time, to `consume` (which hands each batch to every
    /// back half of the group). Returns the instructions driven — fewer
    /// than `budget` only when the program halted. Calling it again
    /// resumes where the last call stopped.
    pub fn drive(&mut self, budget: u64, mut consume: impl FnMut(&[Event])) -> u64 {
        self.drive_owned(budget, |batch| {
            consume(&batch);
            batch
        })
    }

    /// [`Self::drive`], handing each filled batch to `consume` by value:
    /// the closure may pass the batch on to other threads and returns
    /// the (possibly recycled) buffer the next batch is filled into.
    pub fn drive_owned(
        &mut self,
        budget: u64,
        mut consume: impl FnMut(Vec<Event>) -> Vec<Event>,
    ) -> u64 {
        let mut driven = 0;
        while driven < budget {
            let want = usize::try_from(budget - driven).map_or(BATCH, |left| left.min(BATCH));
            let mut batch = std::mem::take(&mut self.batch);
            self.fill(&mut batch, want);
            let filled = batch.len();
            if filled == 0 {
                self.batch = batch;
                break;
            }
            self.batch = consume(batch);
            driven += filled as u64;
            if filled < want {
                break;
            }
        }
        driven
    }
}

/// The [`FrontHalf`]'s sink: predicts control transfers and packs events.
struct Packer<'a> {
    predictor: &'a mut HybridPredictor,
    batch: &'a mut Vec<Event>,
    /// The flags of the control transfer about to commit (0 otherwise).
    flags: u8,
}

impl Sink for Packer<'_> {
    #[inline(always)]
    fn control(&mut self, kind: Control, pc: u64, taken: bool, next_pc: u64) {
        let (correct, bubble_free) = match kind {
            Control::Conditional => {
                let o = self.predictor.conditional(pc, taken, next_pc);
                (o.correct, o.btb_hit)
            }
            Control::Jump => (true, self.predictor.unconditional(pc, next_pc)),
            Control::Call => (true, self.predictor.call(pc, next_pc)),
            Control::Return => (self.predictor.ret(next_pc), true),
        };
        self.flags = CONTROL
            | if taken { TAKEN } else { 0 }
            | if correct { CORRECT } else { 0 }
            | if bubble_free { BUBBLE_FREE } else { 0 };
    }

    #[inline(always)]
    fn commit(&mut self, c: Commit) {
        self.batch.push(Event {
            pc: c.pc,
            mem_addr: c.mem_addr,
            template: c.template,
            flags: std::mem::take(&mut self.flags),
        });
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

/// The timing state of a back half: everything but its i-caches. It
/// depends only on the event stream, the CPU and hierarchy
/// configurations, the i-cache's block size and hit latency, and the
/// outcomes of the i-cache's accesses, so i-caches that have answered
/// alike so far can share one.
#[derive(Debug, Clone)]
struct Timing {
    cfg: CpuConfig,
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
    // Deferred retirement: the instructions already handed to the
    // i-caches, and the instruction count at which the smallest retire
    // budget among them runs out.
    retired: u64,
    retire_at: u64,
    // Per-run constants hoisted out of the fetch loop.
    block_bits: u32,
    hit_latency: u64,
    classes: [ClassInfo; CLASSES.len()],
    stats: CpuStats,
}

/// The timing half of a class of configurations that share a CPU, a
/// data hierarchy, an i-cache block size and hit latency: one timing
/// state, the i-cache it times (the experimental variable) and its
/// *followers*, the i-caches that have agreed with it on every access so
/// far.
///
/// Every call a back half makes into an i-cache — `access(pc, cycle)`,
/// `retire_instructions(n, commit)` when the class's smallest retire
/// budget runs out (see the module docs), `finish(last_commit)` — takes
/// its arguments from the stream and the timing state, so i-caches that
/// have answered alike receive identical calls and the shared timing
/// state is exactly each one's own. Each follower is probed with the
/// same arguments as the leader; at the first access where some answer
/// differently, those followers (who agree with each other: the outcome
/// is a boolean) leave with a copy of the timing state taken before the
/// access's effects, as a new back half that [`Self::consume`] returns.
/// The copy carries the instructions not yet handed over and the
/// class's retire point, which is no later than any leaver's own
/// budget allows. A back half without followers is the
/// single-configuration case [`Core::run`] drives.
#[derive(Debug)]
pub struct BackHalf<IC: InstCache> {
    timing: Timing,
    icache: IC,
    followers: Vec<IC>,
}

/// A class split off mid-batch: its timing state, its i-caches (the
/// first leads), the batch index of the event it resumes at, and that
/// event's fetch outcome.
struct Fork<IC> {
    timing: Timing,
    icaches: Vec<IC>,
    at: usize,
    hit: bool,
}

impl<IC: InstCache> BackHalf<IC> {
    /// Builds the timing state for one configuration.
    pub fn new(cfg: CpuConfig, icache: IC, hierarchy: HierarchyConfig) -> Self {
        Self::with_followers(cfg, icache, Vec::new(), hierarchy)
    }

    /// Builds one timing state shared by `icache` and `followers`, which
    /// must all have `icache`'s block size and hit latency.
    pub fn with_followers(
        cfg: CpuConfig,
        icache: IC,
        followers: Vec<IC>,
        hierarchy: HierarchyConfig,
    ) -> Self {
        Self::with_ring_len(cfg, icache, followers, hierarchy, RING)
    }

    /// [`Self::with_followers`] with booking rings that start at
    /// `ring_len` slots.
    fn with_ring_len(
        cfg: CpuConfig,
        icache: IC,
        followers: Vec<IC>,
        hierarchy: HierarchyConfig,
        ring_len: usize,
    ) -> Self {
        for f in &followers {
            assert!(
                f.block_bytes() == icache.block_bytes() && f.hit_latency() == icache.hit_latency(),
                "a follower shares its leader's block size and hit latency"
            );
        }
        let mut timing = Timing::new(cfg, &icache, hierarchy, ring_len);
        timing.plan_retire(&icache, &followers);
        BackHalf {
            timing,
            icache,
            followers,
        }
    }

    /// The i-cache under test (the leader of the class).
    pub fn icache(&self) -> &IC {
        &self.icache
    }

    /// The i-caches that have agreed with [`Self::icache`] on every
    /// access so far.
    pub fn followers(&self) -> &[IC] {
        &self.followers
    }

    /// The data-side hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.timing.hierarchy
    }

    /// Timing counters accumulated so far.
    pub fn stats(&self) -> &CpuStats {
        &self.timing.stats
    }

    /// Times every instruction of `batch`, in order, and returns the
    /// classes that split off during it (each has timed the whole batch
    /// too). A back half without followers never splits.
    #[must_use = "a split-off class carries the records of its i-caches"]
    pub fn consume(&mut self, batch: &[Event]) -> Vec<BackHalf<IC>> {
        let mut pending = Vec::new();
        self.time_from(batch, 0, None, &mut pending);
        let mut forks = Vec::new();
        while let Some(fork) = pending.pop() {
            let mut icaches = fork.icaches.into_iter();
            let mut back = BackHalf {
                timing: fork.timing,
                icache: icaches.next().expect("a fork has an i-cache"),
                followers: icaches.collect(),
            };
            back.time_from(batch, fork.at, Some(fork.hit), &mut pending);
            forks.push(back);
        }
        forks
    }

    /// Times `batch[start..]`; the first event's fetch outcome is
    /// `forced` when the class resumes from a split. The batch is timed
    /// in runs that end where the class's retire point falls, so the
    /// per-instruction loop carries no retire check.
    fn time_from(
        &mut self,
        batch: &[Event],
        start: usize,
        forced: Option<bool>,
        pending: &mut Vec<Fork<IC>>,
    ) {
        let (t, icache, followers) = (&mut self.timing, &mut self.icache, &mut self.followers);
        let mut at = start;
        if forced.is_some() {
            t.time(&batch[at], icache, followers, forced, at, pending);
            at += 1;
            t.retire_if_due(icache, followers);
        }
        while at < batch.len() {
            let end = at + t.until_retire().min(batch.len() - at);
            for (e, i) in batch[at..end].iter().zip(at..) {
                t.time(e, icache, followers, None, i, pending);
            }
            at = end;
            t.retire_if_due(icache, followers);
        }
    }

    /// Closes out the run so far: the cycle count is the last commit,
    /// every i-cache of the class hears of the instructions not yet
    /// handed over, and each settles its time-integrated accounting.
    pub fn finish(&mut self) -> CpuStats {
        let t = &mut self.timing;
        if t.stats.instructions > t.retired {
            t.retire(&mut self.icache, &mut self.followers, t.last_commit);
        }
        t.stats.cycles = t.last_commit;
        self.icache.finish(t.last_commit);
        for f in &mut self.followers {
            f.finish(t.last_commit);
        }
        t.stats
    }
}

impl Timing {
    fn new<IC: InstCache>(
        cfg: CpuConfig,
        icache: &IC,
        hierarchy: HierarchyConfig,
        ring_len: usize,
    ) -> Self {
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
        Timing {
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
            issue_slots: SlotRing::new(ring_len),
            fu_slots: (0..CpuConfig::NUM_POOLS)
                .map(|_| SlotRing::new(ring_len))
                .collect(),
            rob_cursor: 0,
            commit_cursor: 0,
            lsq_cursor: 0,
            retired: 0,
            retire_at: u64::MAX,
            block_bits,
            hit_latency,
            classes,
            cfg,
            stats: CpuStats::default(),
        }
    }

    /// Rebuilds every booking ring at the smallest power-of-two length
    /// above `window`, keeping the entries at or after `floor`.
    ///
    /// Exact: `floor` is the booking instruction's dispatch floor, which
    /// never decreases and which no later probe can undercut, and every
    /// earlier booking was within one (then smaller) ring length of an
    /// earlier floor. So the live entries and the new booking span less
    /// than the new length, and no two of them share a slot.
    #[cold]
    fn grow_rings(&mut self, window: u64, floor: u64) {
        let len = usize::try_from(window + 1)
            .expect("booking window fits the address space")
            .next_power_of_two();
        self.issue_slots = self.issue_slots.grown(len, floor);
        for ring in &mut self.fu_slots {
            *ring = ring.grown(len, floor);
        }
    }

    /// Sets the next hand-over to where the smallest retire budget among
    /// `icache` and `followers` runs out.
    fn plan_retire<IC: InstCache>(&mut self, icache: &IC, followers: &[IC]) {
        let budget = followers.iter().fold(icache.retire_budget(), |least, f| {
            least.min(f.retire_budget())
        });
        assert!(budget > 0, "a retire budget is at least one instruction");
        self.retire_at = self.retired.saturating_add(budget);
    }

    /// Instructions left to time before the class's retire point (at
    /// least one).
    fn until_retire(&self) -> usize {
        usize::try_from(self.retire_at - self.stats.instructions).unwrap_or(usize::MAX)
    }

    /// Hands the class's i-caches their instructions if the count has
    /// reached the retire point; the last instruction timed ended the
    /// interval, and `last_commit` is its commit cycle.
    #[inline]
    fn retire_if_due<IC: InstCache>(&mut self, icache: &mut IC, followers: &mut [IC]) {
        if self.stats.instructions == self.retire_at {
            self.retire(icache, followers, self.last_commit);
        }
    }

    /// Hands every i-cache of the class the instructions committed since
    /// the last hand-over, the last of them at `commit`, and plans the
    /// next one. Out of line: it runs once per sense interval at most.
    #[cold]
    #[inline(never)]
    fn retire<IC: InstCache>(&mut self, icache: &mut IC, followers: &mut [IC], commit: u64) {
        let n = self.stats.instructions - self.retired;
        icache.retire_instructions(n, commit);
        for f in followers.iter_mut() {
            f.retire_instructions(n, commit);
        }
        self.retired = self.stats.instructions;
        self.plan_retire(icache, followers);
    }

    /// Probes every follower with the leader's access `(pc, cycle)`.
    /// Followers whose outcome differs from the leader's `hit` leave for
    /// `pending` as one class with a copy of this state, which is still
    /// the state from before the access's effects. Kept out of line so a
    /// class without followers pays one branch per fetch group.
    #[inline(never)]
    fn probe<IC: InstCache>(
        &self,
        followers: &mut Vec<IC>,
        pc: u64,
        cycle: u64,
        hit: bool,
        at: usize,
        pending: &mut Vec<Fork<IC>>,
    ) {
        let mut split = Vec::new();
        let mut i = 0;
        while i < followers.len() {
            if followers[i].access(pc, cycle) == hit {
                i += 1;
            } else {
                split.push(followers.remove(i));
            }
        }
        if !split.is_empty() {
            pending.push(Fork {
                timing: self.clone(),
                icaches: split,
                at,
                hit: !hit,
            });
        }
    }

    /// Times one committed instruction, event `at` of its batch, for
    /// `icache` and its `followers`. `forced` is the outcome of the
    /// instruction's fetch access when the class resumes from a split
    /// (every one of its i-caches made that access already). Followers
    /// that answer the access differently from `icache` are removed and
    /// pushed onto `pending` with a copy of the state before the
    /// access's effects. The instruction retires into the class's count;
    /// the i-caches hear of it only when the count reaches the retire
    /// point, which [`BackHalf::time_from`] checks between runs of
    /// instructions, never inside one.
    ///
    /// Always inlined: [`BackHalf::time_from`] calls it from two sites,
    /// and left to the inliner a single-configuration `Core::run`
    /// measured 4–10% slower than with the body inlined into its loop.
    #[inline(always)]
    fn time<IC: InstCache>(
        &mut self,
        e: &Event,
        icache: &mut IC,
        followers: &mut Vec<IC>,
        forced: Option<bool>,
        at: usize,
        pending: &mut Vec<Fork<IC>>,
    ) {
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
            let hit = match forced {
                Some(hit) => hit,
                None => {
                    let hit = icache.access(e.pc, c);
                    if !followers.is_empty() {
                        self.probe(followers, e.pc, c, hit, at, pending);
                    }
                    hit
                }
            };
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
        let t = e.template;
        let class = self.classes[usize::from(t.class)];
        let mut ready = dispatch_ready
            .max(self.reg_ready[usize::from(t.src1)])
            .max(self.reg_ready[usize::from(t.src2)]);
        let is_mem = t.class == LOAD || t.class == STORE;
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
        if issue - dispatch_ready >= self.issue_slots.len() as u64 {
            self.grow_rings(issue - dispatch_ready, dispatch_ready);
        }
        self.issue_slots.book(issue);
        self.fu_slots[class.pool].book(issue);

        let latency = match t.class {
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
        self.reg_ready[usize::from(t.dst)] = complete;

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
        self.front.drive(budget, |batch| {
            let forks = back.consume(batch);
            debug_assert!(forks.is_empty(), "a class of one never splits");
        });
        RunResult {
            stats: self.back.finish(),
            bpred_accuracy: self.front.predictor().stats().accuracy(),
        }
    }
}

#[cfg(test)]
mod stream_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::icache::ConventionalICache;
    use synth_workload::generator::{generate, GeneratorSpec};
    use synth_workload::isa::{Inst, Op};
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
            assert!(wide.consume(batch).is_empty());
            assert!(thin.consume(batch).is_empty());
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

    /// A cache-resident loop of independent work on a narrow, deep
    /// machine: 2-wide issue and one FP multiplier behind a 4096-entry
    /// ROB. Issue slots are the bottleneck, so every cycle from the
    /// dispatch floor to the latest booking is full and the window grows
    /// to ~ROB / issue width cycles. A lost booking count anywhere in it
    /// lets a later instruction issue into a full cycle.
    fn wide_window() -> (Program, CpuConfig) {
        let mut body = Vec::new();
        for i in 0..4 {
            body.push(Inst::new(Op::FMul, 10 + i, 20, 21, 0));
            body.push(Inst::new(Op::Add, 10 + i, 20, 21, 0));
            body.push(Inst::new(Op::Add, 14 + i, 20, 21, 0));
        }
        body.push(Inst::new(Op::Addi, 1, 1, 0, -1));
        let top = 0x1000 + 4;
        body.push(Inst::new(Op::Bne, 0, 1, 0, top));
        let mut insts = vec![Inst::new(Op::Addi, 1, 0, 0, 1_000_000)];
        insts.extend(body);
        insts.push(Inst::new(Op::Halt, 0, 0, 0, 0));
        let program = Program::new("wide-window", 0x1000, insts, 0x10_0000, 4096, 1);
        let cfg = CpuConfig {
            issue_width: 2,
            rob_entries: 4096,
            fu: crate::config::FuPools {
                fp_mul: 1,
                ..CpuConfig::hpca01().fu
            },
            ..CpuConfig::hpca01()
        };
        (program, cfg)
    }

    #[test]
    fn rings_grow_past_a_kilobyte_window_and_stay_exact() {
        let (program, cfg) = wide_window();
        let run = |ring_len: usize| {
            let mut front = FrontHalf::new(&program);
            let mut back = BackHalf::with_ring_len(
                cfg,
                ConventionalICache::hpca01(),
                Vec::new(),
                HierarchyConfig::hpca01(),
                ring_len,
            );
            front.drive(30_000, |batch| assert!(back.consume(batch).is_empty()));
            (back.finish(), back.timing.issue_slots.len())
        };
        let (grown, grown_len) = run(RING);
        assert!(grown_len > RING, "the window outgrew {RING} slots");
        assert!(
            grown.cycles > 10_000,
            "issue-bound: ~2 instructions a cycle"
        );
        // Rings wide enough never to grow: no booking ever collides.
        let (wide, wide_len) = run(1 << 16);
        assert_eq!(wide_len, 1 << 16);
        assert_eq!(grown, wide, "growing rings lose no booking");
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
