//! Simulator layers in isolation.
//!
//! The traced `grid_cold` run records one op's committed instruction
//! stream (`Machine::step`) and replays it through each layer on its
//! own: the branch predictor sees the control transfers, the i-caches
//! see the fetch groups, the data hierarchy sees the loads and stores.
//! The replays measure host cost only; their simulated counts need not
//! match a real `Core::run`, which interleaves all of them with the
//! out-of-order scheduler. What the full core costs beyond the sum of
//! the isolated layers is the scheduler's own time.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::icache::{ConventionalICache, InstCache};
use cache_sim::{AccessKind, Hierarchy};
use dri_core::DriICache;
use dri_experiments::RunConfig;
use ooo_cpu::core::Core;
use ooo_cpu::{HybridPredictor, PredictorConfig};
use synth_workload::isa::{Op, OpClass};
use synth_workload::{Generated, Machine};

/// Control transfer as the predictor sees it.
#[derive(Debug, Clone, Copy)]
struct Branch {
    op: Op,
    pc: u64,
    taken: bool,
    next_pc: u64,
}

/// The streams one recorded instruction window feeds each layer.
#[derive(Debug, Default)]
pub struct Streams {
    /// Instructions committed.
    pub instructions: u64,
    branches: Vec<Branch>,
    /// Fetch-group start address and the instructions the group holds.
    fetches: Vec<(u64, u64)>,
    mem: Vec<(u64, AccessKind)>,
}

/// Splits the first `budget` committed instructions of `generated` into
/// per-layer streams. Fetch groups follow the core's rule: a new group
/// starts at a new cache block, after `fetch_width` instructions, or
/// after a taken control transfer.
pub fn record(cfg: &RunConfig, generated: &Generated, budget: u64) -> Streams {
    let block_bits = cfg.dri.block_bytes.trailing_zeros();
    let fetch_width = u64::from(cfg.cpu.fetch_width);
    let mut machine = Machine::new(&generated.program);
    let mut s = Streams::default();
    let mut cur_block = u64::MAX;
    let mut force_new = true;
    while s.instructions < budget {
        let Some(e) = machine.step() else { break };
        s.instructions += 1;
        let block = e.pc >> block_bits;
        let group_full = s.fetches.last().is_some_and(|&(_, n)| n >= fetch_width);
        if force_new || group_full || block != cur_block {
            s.fetches.push((e.pc, 0));
            cur_block = block;
            force_new = false;
        }
        if let Some(group) = s.fetches.last_mut() {
            group.1 += 1;
        }
        match e.inst.op.class() {
            OpClass::Load => s
                .mem
                .push((e.mem_addr.expect("load address"), AccessKind::Read)),
            OpClass::Store => s
                .mem
                .push((e.mem_addr.expect("store address"), AccessKind::Write)),
            _ => {}
        }
        if e.inst.op.is_control() {
            s.branches.push(Branch {
                op: e.inst.op,
                pc: e.pc,
                taken: e.taken,
                next_pc: e.next_pc,
            });
            force_new |= e.taken;
        }
    }
    s
}

/// Host cost of each simulator layer, from the isolated replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// Functional interpreter (`Machine::step`), per instruction.
    pub interp_ns_per_inst: f64,
    /// Hybrid branch predictor, per control transfer.
    pub bpred_ns_per_branch: f64,
    /// Conventional i-cache, per fetch-group access.
    pub icache_ns_per_fetch: f64,
    /// DRI i-cache (access plus interval accounting), per fetch group.
    pub dri_ns_per_fetch: f64,
    /// L1d/L2 data hierarchy, per load or store.
    pub hierarchy_ns_per_access: f64,
    /// Whole `Core::run` with the conventional i-cache, per instruction.
    pub core_run_conv_ns_per_inst: f64,
    /// Whole `Core::run` with the DRI i-cache, per instruction.
    pub core_run_dri_ns_per_inst: f64,
    /// `core_run_conv` minus the isolated layers it contains.
    pub ooo_self_ns_per_inst: f64,
}

/// The median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&times).expect("at least one repetition")
}

fn per(total_ns: f64, count: usize) -> f64 {
    total_ns / count.max(1) as f64
}

/// Replays `streams` through every layer `reps` times and reports the
/// median cost of each.
pub fn measure(
    cfg: &RunConfig,
    generated: &Generated,
    streams: &Streams,
    reps: usize,
) -> LayerCosts {
    let budget = streams.instructions;
    let interp = median_ns(reps, || {
        let mut machine = Machine::new(&generated.program);
        for _ in 0..budget {
            black_box(machine.step());
        }
    });
    let bpred = median_ns(reps, || {
        let mut predictor = HybridPredictor::new(PredictorConfig::default());
        for b in &streams.branches {
            let correct = match b.op {
                Op::Jump => predictor.unconditional(b.pc, b.next_pc),
                Op::Call => predictor.call(b.pc, b.next_pc),
                Op::Ret => predictor.ret(b.next_pc),
                _ => predictor.conditional(b.pc, b.taken, b.next_pc).correct,
            };
            black_box(correct);
        }
    });
    let icache = median_ns(reps, || {
        let mut cache = ConventionalICache::new(cfg.baseline_icache());
        for (cycle, &(addr, _)) in streams.fetches.iter().enumerate() {
            black_box(cache.access(addr, cycle as u64));
        }
    });
    let dri = median_ns(reps, || {
        let mut cache = DriICache::new(cfg.dri);
        for (cycle, &(addr, insts)) in streams.fetches.iter().enumerate() {
            black_box(cache.access(addr, cycle as u64));
            cache.retire_instructions(insts, cycle as u64);
        }
    });
    let hierarchy = median_ns(reps, || {
        let mut h = Hierarchy::new(cfg.hierarchy);
        for &(addr, kind) in &streams.mem {
            black_box(h.data_access(addr, kind));
        }
    });
    let core_run = |dri_cache: bool| {
        median_ns(reps, || {
            let stats = if dri_cache {
                let icache = DriICache::new(cfg.dri);
                Core::with_hierarchy(&generated.program, cfg.cpu, icache, cfg.hierarchy).run(budget)
            } else {
                let icache = ConventionalICache::new(cfg.baseline_icache());
                Core::with_hierarchy(&generated.program, cfg.cpu, icache, cfg.hierarchy).run(budget)
            };
            black_box(stats);
        })
    };
    let core_conv = core_run(false);
    let core_dri = core_run(true);
    let n = usize::try_from(budget).expect("instruction budget fits in usize");
    LayerCosts {
        interp_ns_per_inst: per(interp, n),
        bpred_ns_per_branch: per(bpred, streams.branches.len()),
        icache_ns_per_fetch: per(icache, streams.fetches.len()),
        dri_ns_per_fetch: per(dri, streams.fetches.len()),
        hierarchy_ns_per_access: per(hierarchy, streams.mem.len()),
        core_run_conv_ns_per_inst: per(core_conv, n),
        core_run_dri_ns_per_inst: per(core_dri, n),
        ooo_self_ns_per_inst: per(core_conv - interp - bpred - icache - hierarchy, n),
    }
}
