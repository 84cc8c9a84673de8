//! Property-based tests over the core data structures and invariants,
//! spanning crates (cache model, DRI resizing semantics, circuit
//! monotonicity, workload generation).

use cache_sim::cache::{AccessKind, Cache};
use cache_sim::config::CacheConfig;
use cache_sim::icache::InstCache;
use cache_sim::replacement::ReplacementPolicy;
use dri_core::{DriConfig, DriICache, ThrottleConfig};
use proptest::prelude::*;
use sram_circuit::cell::SramCell;
use sram_circuit::gating::GatedVddConfig;
use sram_circuit::process::Process;
use sram_circuit::units::{Celsius, Volts};

fn arb_cache_config() -> impl Strategy<Value = CacheConfig> {
    (0u32..=4, 0u32..=2, 0u32..=2).prop_map(|(size_pow, block_pow, assoc_pow)| {
        CacheConfig::new(
            1024 << size_pow,
            32 << block_pow,
            1 << assoc_pow,
            1,
            ReplacementPolicy::Lru,
        )
    })
}

proptest! {
    #[test]
    fn cache_access_after_fill_always_hits(
        cfg in arb_cache_config(),
        addrs in prop::collection::vec(0u64..1 << 20, 1..200),
    ) {
        let mut cache = Cache::new(cfg);
        for &a in &addrs {
            let _ = cache.access(a, AccessKind::Read);
            // Immediately after an access the block must be resident.
            prop_assert!(cache.probe(a));
            prop_assert!(cache.access(a, AccessKind::Read).hit);
        }
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        cfg in arb_cache_config(),
        addrs in prop::collection::vec(0u64..1 << 22, 1..300),
    ) {
        let mut cache = Cache::new(cfg);
        for &a in &addrs {
            let _ = cache.access(a, AccessKind::Read);
        }
        let capacity = (cfg.size_bytes / cfg.block_bytes) as usize;
        prop_assert!(cache.occupancy() <= capacity);
        // Hits + misses must equal accesses.
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
    }

    #[test]
    fn cache_eviction_reports_exactly_the_displaced_block(
        addrs in prop::collection::vec(0u64..1 << 22, 1..200),
    ) {
        // Direct-mapped: any eviction must name a block that conflicts
        // (same set) with the incoming one.
        let cfg = CacheConfig::new(4096, 32, 1, 1, ReplacementPolicy::Lru);
        let mut cache = Cache::new(cfg);
        for &a in &addrs {
            let out = cache.access(a, AccessKind::Read);
            if let Some(ev) = out.evicted {
                let sets = cfg.num_sets();
                prop_assert_eq!(
                    ev.block_addr & (sets - 1),
                    cfg.block_addr(a) & (sets - 1),
                    "victim must share the set"
                );
                prop_assert!(!cache.probe(ev.block_addr << cfg.offset_bits()));
            }
        }
    }

    #[test]
    fn dri_blocks_in_surviving_sets_survive_downsizing(
        set_idx in 0u64..32,
        tag_bits in 0u64..16,
    ) {
        // Any block whose (smallest-size) set index is below the new size
        // must still hit after a downsize — the resizing-tag-bit argument
        // of paper §2.2.
        let cfg = DriConfig {
            max_size_bytes: 8192,
            block_bytes: 32,
            associativity: 1,
            latency: 1,
            size_bound_bytes: 1024,
            miss_bound: 5,
            sense_interval: 1000,
            divisibility: 2,
            throttle: ThrottleConfig::default(),
            replacement: ReplacementPolicy::Lru,
        };
        let mut dri = DriICache::new(cfg);
        // Block index within the bound region (32 sets): always survives.
        let block = set_idx | (tag_bits << 5);
        let addr = block * 32;
        let _ = dri.access(addr, 0);
        prop_assert!(dri.probe(addr));
        // Quiet interval: downsize by one step.
        dri.retire_instructions(1000, 1000);
        prop_assert!(dri.active_sets() < cfg.max_sets());
        if (block & (dri.active_sets() - 1)) == (block & (cfg.max_sets() - 1)) {
            prop_assert!(
                dri.probe(addr),
                "block in set {} must survive at {} sets",
                block & (cfg.max_sets() - 1),
                dri.active_sets()
            );
        }
    }

    #[test]
    fn dri_active_sets_always_within_bounds_and_power_of_two(
        accesses in prop::collection::vec((0u64..1 << 18, 0u64..3), 10..150),
    ) {
        let cfg = DriConfig {
            max_size_bytes: 16 * 1024,
            block_bytes: 32,
            associativity: 2,
            latency: 1,
            size_bound_bytes: 1024,
            miss_bound: 10,
            sense_interval: 500,
            divisibility: 2,
            throttle: ThrottleConfig::default(),
            replacement: ReplacementPolicy::Lru,
        };
        let mut dri = DriICache::new(cfg);
        let mut cycle = 0;
        for &(addr, burst) in &accesses {
            for i in 0..=burst {
                let _ = dri.access(addr.wrapping_add(i * 32), cycle);
            }
            cycle += 400 + burst;
            dri.retire_instructions(400 + burst, cycle);
            prop_assert!(dri.active_sets().is_power_of_two());
            prop_assert!(dri.active_sets() >= cfg.bound_sets());
            prop_assert!(dri.active_sets() <= cfg.max_sets());
        }
        dri.finish(cycle.max(1));
        let f = dri.avg_active_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "fraction {}", f);
    }

    #[test]
    fn dri_invalidate_all_aliases_leaves_no_copy(
        addr in 0u64..1 << 20,
        quiet_intervals in 1u64..4,
        noise in prop::collection::vec(0u64..1 << 20, 0..50),
    ) {
        let cfg = DriConfig {
            max_size_bytes: 8192,
            block_bytes: 32,
            associativity: 1,
            latency: 1,
            size_bound_bytes: 512,
            miss_bound: 3,
            sense_interval: 100,
            divisibility: 2,
            throttle: ThrottleConfig { enabled: false, ..Default::default() },
            replacement: ReplacementPolicy::Lru,
        };
        let mut dri = DriICache::new(cfg);
        let mut cycle = 0u64;
        // Touch the block at several sizes to plant aliases.
        for _ in 0..quiet_intervals {
            let _ = dri.access(addr, cycle);
            cycle += 100;
            dri.retire_instructions(100, cycle);
        }
        for &n in &noise {
            let _ = dri.access(n, cycle);
        }
        let _ = dri.access(addr, cycle);
        let _ = dri.invalidate_all_aliases(addr);
        prop_assert!(!dri.probe(addr));
        // No copy under any mask either: re-access must miss.
        prop_assert!(!dri.access(addr, cycle));
    }

    #[test]
    fn leakage_is_monotone_in_vt(
        vt_lo_mv in 150u32..400,
        delta_mv in 1u32..100,
    ) {
        let process = Process::tsmc180();
        let t = Celsius::new(110.0);
        let lo = SramCell::standard(&process, Volts::new(f64::from(vt_lo_mv) / 1000.0));
        let hi = SramCell::standard(
            &process,
            Volts::new(f64::from(vt_lo_mv + delta_mv) / 1000.0),
        );
        prop_assert!(
            lo.leakage_current(&process, t).value() > hi.leakage_current(&process, t).value()
        );
    }

    #[test]
    fn gating_always_saves_energy_and_costs_read_time(
        width_scale in 0.25f64..4.0,
    ) {
        let process = Process::tsmc180();
        let t = Celsius::new(110.0);
        let cell = SramCell::standard(&process, Volts::new(0.2));
        let base = GatedVddConfig::hpca01(&process);
        let cfg = base.clone().with_gate_width(base.gate_width() * width_scale);
        let savings = cfg.energy_savings(&cell, &process, t);
        prop_assert!(savings > 0.5, "savings {}", savings);
        prop_assert!(savings < 1.0);
        let penalty = cfg.read_time_penalty(&cell, &process);
        prop_assert!(penalty >= 1.0);
    }

    #[test]
    fn generated_programs_are_well_formed_and_deterministic(
        footprint_kb in 1u64..32,
        seed in 0u64..1000,
    ) {
        use synth_workload::generator::{generate, GeneratorSpec};
        use synth_workload::machine::Machine;
        let mut spec = GeneratorSpec::basic("prop", footprint_kb * 1024, 50_000);
        spec.seed = seed;
        let a = generate(&spec);
        let b = generate(&spec);
        prop_assert_eq!(a.program.insts().len(), b.program.insts().len());
        // Programs build (`Program::new` checks every target) and never
        // halt within a modest budget (the outer wrap).
        let mut m = Machine::new(&a.program);
        let s = m.run(20_000);
        prop_assert_eq!(s.retired, 20_000);
        prop_assert!(!s.halted);
    }
}
