//! Timing classes are exact: i-caches that follow a leader share its
//! timing state until their first disagreeing access, then split off
//! with a copy of the state from before that access. Every i-cache of a
//! class must end with the counters an independent `Core` gives it:
//! `CpuStats`, i-cache stats and the `LeakagePolicy` accounting.
//!
//! The followers below are real conventional, DRI and decay caches,
//! configured to agree with the conventional leader (a full size-bound
//! DRI cache never resizes; a decay interval of 2^40 cycles never
//! decays). Each answers one chosen access the other way, so it
//! diverges at a known access. With a fetch width of one, every
//! instruction starts a fetch group, so access `n` is event `n` of the
//! stream and the split lands at a known batch position.

use cache_sim::hierarchy::HierarchyConfig;
use cache_sim::icache::{ConventionalICache, InstCache};
use cache_sim::policy::LeakagePolicy;
use cache_sim::stats::CacheStats;
use dri_core::{DecayConfig, DecayICache, DriConfig, DriICache};
use ooo_cpu::config::CpuConfig;
use ooo_cpu::core::{BackHalf, Core, FrontHalf, BATCH};
use ooo_cpu::stats::CpuStats;
use synth_workload::suite::Benchmark;

/// Committed instructions each run times: four batches.
const BUDGET: u64 = 4 * BATCH as u64;

/// Access `n` of a probe (0-based) is event `n` of the stream.
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
    Decay(DecayICache),
}

/// A real i-cache that answers the accesses numbered in `flips` the
/// other way (its own state still takes the real access).
#[derive(Debug, Clone)]
struct Probe {
    model: Model,
    flips: Vec<u64>,
    accesses: u64,
}

impl Probe {
    fn conventional(flips: &[u64]) -> Self {
        Self::new(Model::Conventional(ConventionalICache::hpca01()), flips)
    }

    fn dri(flips: &[u64]) -> Self {
        let mut cfg = DriConfig::hpca01_64k_dm();
        cfg.size_bound_bytes = cfg.max_size_bytes;
        // Eight sense intervals in the budget: every retire counts.
        cfg.sense_interval = 2_000;
        Self::new(Model::Dri(DriICache::new(cfg)), flips)
    }

    fn decay(flips: &[u64]) -> Self {
        let mut cfg = DecayConfig::hpca01_64k_dm();
        cfg.decay_interval_cycles = 1 << 40;
        Self::new(Model::Decay(DecayICache::new(cfg)), flips)
    }

    fn new(model: Model, flips: &[u64]) -> Self {
        Probe {
            model,
            flips: flips.to_vec(),
            accesses: 0,
        }
    }

    /// What a record reads of the i-cache: its stats and its leakage
    /// accounting, floats as bits.
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
            Model::Decay(c) => of(c),
        }
    }

    fn inner(&mut self) -> &mut dyn InstCache {
        match &mut self.model {
            Model::Conventional(c) => c,
            Model::Dri(c) => c,
            Model::Decay(c) => c,
        }
    }
}

impl InstCache for Probe {
    fn access(&mut self, addr: u64, cycle: u64) -> bool {
        let hit = self.inner().access(addr, cycle);
        let n = self.accesses;
        self.accesses += 1;
        hit != self.flips.contains(&n)
    }

    fn hit_latency(&self) -> u64 {
        1
    }

    fn block_bytes(&self) -> u64 {
        32
    }

    fn retire_budget(&self) -> u64 {
        match &self.model {
            Model::Conventional(c) => c.retire_budget(),
            Model::Dri(c) => c.retire_budget(),
            Model::Decay(c) => c.retire_budget(),
        }
    }

    fn retire_instructions(&mut self, n: u64, cycle: u64) {
        self.inner().retire_instructions(n, cycle);
    }

    fn finish(&mut self, cycle: u64) {
        self.inner().finish(cycle);
    }

    fn stats(&self) -> &CacheStats {
        match &self.model {
            Model::Conventional(c) => c.stats(),
            Model::Dri(c) => c.stats(),
            Model::Decay(c) => c.stats(),
        }
    }
}

/// Drives one class of `leader` and `followers` over gcc for
/// [`BUDGET`] instructions. Returns every finished class and, per
/// batch, how many classes split off during it.
fn run_class(leader: Probe, followers: Vec<Probe>) -> (Vec<BackHalf<Probe>>, Vec<usize>) {
    let g = Benchmark::Gcc.build();
    let mut front = FrontHalf::new(&g.program);
    let mut classes = vec![BackHalf::with_followers(
        cpu(),
        leader,
        followers,
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
    (classes, splits_per_batch)
}

/// Every i-cache of every class, checked against an independent core
/// running a fresh copy of it.
fn assert_each_matches_an_independent_core(classes: &mut [BackHalf<Probe>], fresh: &[Probe]) {
    let g = Benchmark::Gcc.build();
    let mut checked = 0;
    for class in classes {
        let timing: CpuStats = class.finish();
        let l2 = class.hierarchy().l2_inst_accesses();
        for cache in std::iter::once(class.icache()).chain(class.followers()) {
            let start = fresh
                .iter()
                .find(|p| p.flips == cache.flips && same_kind(p, cache))
                .expect("every cache has a fresh twin")
                .clone();
            let mut alone = Core::new(&g.program, cpu(), start);
            let run = alone.run(BUDGET);
            assert_eq!(
                timing, run.stats,
                "{:?} flips {:?}",
                cache.model, cache.flips
            );
            assert_eq!(cache.accounting(), alone.icache().accounting());
            assert_eq!(l2, alone.hierarchy().l2_inst_accesses());
            checked += 1;
        }
    }
    assert_eq!(checked, fresh.len(), "no i-cache lost or duplicated");
}

fn same_kind(a: &Probe, b: &Probe) -> bool {
    std::mem::discriminant(&a.model) == std::mem::discriminant(&b.model)
}

#[test]
fn followers_split_at_known_accesses_and_match_independent_cores() {
    let mid = BATCH as u64 + 1_000; // batch 1, event 1000
    let boundary = 2 * BATCH as u64; // batch 2, event 0
    let probes = vec![
        Probe::conventional(&[]),
        Probe::conventional(&[mid]),
        Probe::dri(&[boundary]),
        // Leaves with the DRI cache at the boundary, then splits from it
        // five events later, inside the class that split off.
        Probe::decay(&[boundary, boundary + 5]),
    ];
    let mut rest = probes.clone().into_iter();
    let leader = rest.next().expect("a leader");
    let (mut classes, splits) = run_class(leader, rest.collect());
    assert_eq!(splits, [0, 1, 2, 0], "splits per batch");
    assert_eq!(classes.len(), 4, "one timing state per i-cache");
    assert_each_matches_an_independent_core(&mut classes, &probes);
}

#[test]
fn agreeing_followers_never_split_and_match_independent_cores() {
    let probes = vec![
        Probe::conventional(&[]),
        Probe::dri(&[]),
        Probe::decay(&[]),
        Probe::conventional(&[]),
    ];
    let mut rest = probes.clone().into_iter();
    let leader = rest.next().expect("a leader");
    let (mut classes, splits) = run_class(leader, rest.collect());
    assert_eq!(splits, [0, 0, 0, 0]);
    assert_eq!(classes.len(), 1);
    assert_eq!(classes[0].followers().len(), 3);
    assert_each_matches_an_independent_core(&mut classes, &probes);
}
