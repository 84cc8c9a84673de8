//! Deferred retirement is exact in timing classes whose i-caches really
//! resize. A class hands its i-caches their committed instructions only
//! when the smallest retire budget among them runs out, so a class mixes
//! caches whose sense intervals end at different instructions, and a
//! split hands the pending count to the class that leaves. Every i-cache
//! of every class must end with the counters an independent `Core` gives
//! it: `CpuStats`, i-cache stats, the `LeakagePolicy` accounting (floats
//! as bits) and the L2 traffic. The independent core's copy reports a
//! retire budget of one, so it hears of every instruction as it commits.
//!
//! With a fetch width of one every instruction starts a fetch group, so
//! access `n` is event `n` of the stream. A sense interval of 1024
//! instructions ends exactly at every batch boundary, so the last event
//! of a batch is also an interval's last instruction.

use cache_sim::hierarchy::HierarchyConfig;
use cache_sim::icache::{ConventionalICache, InstCache};
use cache_sim::policy::LeakagePolicy;
use cache_sim::stats::CacheStats;
use dri_core::{DecayConfig, DecayICache, DriConfig, DriICache, WayConfig, WayResizableICache};
use ooo_cpu::config::CpuConfig;
use ooo_cpu::core::{BackHalf, Core, FrontHalf, BATCH};
use synth_workload::suite::Benchmark;

/// Committed instructions each run times: four batches.
const BUDGET: u64 = 4 * BATCH as u64;
/// Batch 1, event 1000.
const MID: u64 = BATCH as u64 + 1_000;
/// Batch 2, event 0.
const BOUNDARY: u64 = 2 * BATCH as u64;

fn cpu() -> CpuConfig {
    CpuConfig {
        fetch_width: 1,
        ..CpuConfig::hpca01()
    }
}

#[derive(Debug, Clone)]
enum Model {
    Conventional(ConventionalICache),
    Dri(DriICache),
    WayResize(WayResizableICache),
    Decay(DecayICache),
}

/// A real i-cache, numbered within its test, that answers the accesses
/// numbered in `flips` the other way. An `eager` probe asks for every
/// committed instruction at once (a retire budget of one).
#[derive(Debug, Clone)]
struct Probe {
    id: usize,
    model: Model,
    flips: Vec<u64>,
    accesses: u64,
    eager: bool,
}

/// A 64K direct-mapped DRI cache that resizes on gcc every few
/// intervals: an 8K size-bound and a miss-bound of 8 per interval.
fn dri(sense_interval: u64) -> Model {
    Model::Dri(DriICache::new(DriConfig {
        size_bound_bytes: 8 * 1024,
        miss_bound: 8,
        sense_interval,
        ..DriConfig::hpca01_64k_dm()
    }))
}

/// A 64K four-way way-resizing cache on the same feedback loop.
fn way_resize(sense_interval: u64) -> Model {
    Model::WayResize(WayResizableICache::new(WayConfig {
        miss_bound: 8,
        sense_interval,
        ..WayConfig::hpca01_64k_4way()
    }))
}

/// Numbers `models`, each with the accesses it answers the other way.
fn probes(models: Vec<(Model, &[u64])>) -> Vec<Probe> {
    models
        .into_iter()
        .enumerate()
        .map(|(id, (model, flips))| Probe {
            id,
            model,
            flips: flips.to_vec(),
            accesses: 0,
            eager: false,
        })
        .collect()
}

impl Probe {
    /// What a record reads of the i-cache, floats as bits.
    fn accounting(&self) -> (CacheStats, [u64; 6]) {
        fn of(c: &(impl InstCache + LeakagePolicy)) -> (CacheStats, [u64; 6]) {
            (
                *c.stats(),
                [
                    c.avg_active_fraction().to_bits(),
                    c.avg_size_bytes().to_bits(),
                    c.active_size_bytes(),
                    c.resizes(),
                    c.intervals(),
                    u64::from(c.resizing_tag_bits()),
                ],
            )
        }
        match &self.model {
            Model::Conventional(c) => of(c),
            Model::Dri(c) => of(c),
            Model::WayResize(c) => of(c),
            Model::Decay(c) => of(c),
        }
    }

    fn resizes(&self) -> u64 {
        self.accounting().1[3]
    }

    fn get(&self) -> &dyn InstCache {
        match &self.model {
            Model::Conventional(c) => c,
            Model::Dri(c) => c,
            Model::WayResize(c) => c,
            Model::Decay(c) => c,
        }
    }

    fn get_mut(&mut self) -> &mut dyn InstCache {
        match &mut self.model {
            Model::Conventional(c) => c,
            Model::Dri(c) => c,
            Model::WayResize(c) => c,
            Model::Decay(c) => c,
        }
    }
}

impl InstCache for Probe {
    fn access(&mut self, addr: u64, cycle: u64) -> bool {
        let hit = self.get_mut().access(addr, cycle);
        let n = self.accesses;
        self.accesses += 1;
        hit != self.flips.contains(&n)
    }

    fn hit_latency(&self) -> u64 {
        self.get().hit_latency()
    }

    fn block_bytes(&self) -> u64 {
        self.get().block_bytes()
    }

    fn retire_budget(&self) -> u64 {
        if self.eager {
            1
        } else {
            self.get().retire_budget()
        }
    }

    fn retire_instructions(&mut self, n: u64, cycle: u64) {
        self.get_mut().retire_instructions(n, cycle);
    }

    fn finish(&mut self, cycle: u64) {
        self.get_mut().finish(cycle);
    }

    fn stats(&self) -> &CacheStats {
        self.get().stats()
    }
}

/// Drives one class led by `probes[0]` over gcc for [`BUDGET`]
/// instructions, checks every i-cache against an independent core
/// running a fresh, eager copy of it, and returns how many classes split
/// off in each batch.
fn run_and_check(probes: &[Probe]) -> Vec<usize> {
    let g = Benchmark::Gcc.build();
    let mut front = FrontHalf::new(&g.program);
    let mut rest = probes.iter().cloned();
    let leader = rest.next().expect("a leader");
    let mut classes = vec![BackHalf::with_followers(
        cpu(),
        leader,
        rest.collect(),
        HierarchyConfig::hpca01(),
    )];
    let mut splits_per_batch = Vec::new();
    let driven = front.drive(BUDGET, |batch| {
        let mut splits = Vec::new();
        for class in &mut classes {
            splits.extend(class.consume(batch));
        }
        splits_per_batch.push(splits.len());
        classes.extend(splits);
    });
    assert_eq!(driven, BUDGET);

    let mut checked = vec![false; probes.len()];
    for class in &mut classes {
        let timing = class.finish();
        let l2 = class.hierarchy().l2_inst_accesses();
        for cache in std::iter::once(class.icache()).chain(class.followers()) {
            let eager = Probe {
                eager: true,
                ..probes[cache.id].clone()
            };
            let mut alone = Core::new(&g.program, cpu(), eager);
            let run = alone.run(BUDGET);
            let what = format!("probe {} flips {:?}", cache.id, cache.flips);
            assert_eq!(timing, run.stats, "{what}: timing");
            assert_eq!(
                cache.accounting(),
                alone.icache().accounting(),
                "{what}: accounting"
            );
            assert_eq!(l2, alone.hierarchy().l2_inst_accesses(), "{what}: L2");
            assert_eq!(
                cache.get().retire_budget(),
                alone.icache().get().retire_budget(),
                "{what}: finish hands over every instruction"
            );
            assert!(!checked[cache.id], "{what} is in two classes");
            checked[cache.id] = true;
            if !matches!(cache.model, Model::Conventional(_) | Model::Decay(_)) {
                assert!(cache.resizes() > 0, "{what} resized");
            }
        }
    }
    assert!(checked.iter().all(|&c| c), "no i-cache lost");
    splits_per_batch
}

/// A resizing leader and same-configuration followers that leave mid-
/// batch, on the last event of a batch (an interval's last instruction,
/// so the class that leaves carries a nearly full pending count), on
/// the first event of the next (just after a delivery), and inside a
/// class that just split.
fn known_splits(model: impl Fn() -> Model) -> Vec<Probe> {
    probes(vec![
        (model(), &[]),
        (model(), &[MID]),
        (model(), &[BOUNDARY - 1]),
        (model(), &[BOUNDARY]),
        (model(), &[BOUNDARY, BOUNDARY + 5]),
    ])
}

#[test]
fn resizing_dri_followers_split_at_known_accesses_and_match_independent_cores() {
    let splits = run_and_check(&known_splits(|| dri(1024)));
    assert_eq!(splits, [0, 2, 2, 0], "splits per batch");
}

#[test]
fn resizing_way_followers_split_at_known_accesses_and_match_independent_cores() {
    let splits = run_and_check(&known_splits(|| way_resize(1024)));
    assert_eq!(splits, [0, 2, 2, 0], "splits per batch");
}

#[test]
fn caches_of_different_intervals_share_a_class_until_they_disagree() {
    // Five different retire budgets in one class: the class hands over
    // at the smallest, and each split takes the pending count along.
    let mut decay = DecayConfig::hpca01_64k_dm();
    decay.decay_interval_cycles = 1 << 40;
    let probes = probes(vec![
        (dri(1024), &[]),
        (dri(1000), &[]),
        (dri(1536), &[MID]),
        (way_resize(1024), &[]),
        (way_resize(700), &[BOUNDARY]),
        (Model::Conventional(ConventionalICache::hpca01()), &[]),
        (Model::Decay(DecayICache::new(decay)), &[BOUNDARY - 1]),
    ]);
    let splits = run_and_check(&probes);
    assert!(
        splits.iter().sum::<usize>() >= 4,
        "splits per batch {splits:?}"
    );
}
