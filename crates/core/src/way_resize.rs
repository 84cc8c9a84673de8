//! A way-resizing i-cache: the design alternative the paper argues against.
//!
//! Paper §2: "Alternatively, we could increase/decrease associativity, as
//! is proposed for reducing dynamic energy in [Albonesi's selective cache
//! ways]. This alternative, however, has several key shortcomings. First,
//! it … is not applicable to direct-mapped caches … Second, reducing
//! associativity may increase both capacity and conflict miss rates."
//!
//! To let the repository *measure* that argument rather than assert it,
//! this module implements an adaptive way-resizing cache driven by the same
//! miss-bound feedback loop as the DRI i-cache, so the two differ only in
//! the resizing dimension:
//!
//! * capacity moves in coarse steps of `size/associativity` (a 64K 4-way
//!   cache can only offer 64/48/32/16K — never the 2K a class-1 benchmark
//!   wants);
//! * the set-index function never changes, so no resizing tag bits are
//!   needed (its one advantage);
//! * disabling ways increases conflict pressure in every set.

use crate::config::ThrottleConfig;
use cache_sim::icache::InstCache;
use cache_sim::policy::LeakagePolicy;
use cache_sim::replacement::ReplacementPolicy;
use cache_sim::stats::CacheStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration for [`WayResizableICache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayConfig {
    /// Total capacity in bytes at full associativity.
    pub size_bytes: u64,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Maximum (and physical) associativity.
    pub associativity: u32,
    /// Hit latency in cycles.
    pub latency: u64,
    /// Minimum number of ways that stay powered.
    pub min_ways: u32,
    /// Miss count per sense interval steered toward.
    pub miss_bound: u64,
    /// Sense-interval length in committed instructions.
    pub sense_interval: u64,
    /// Throttle parameters (shared shape with the DRI cache).
    pub throttle: ThrottleConfig,
    /// Replacement policy among the *active* ways.
    pub replacement: ReplacementPolicy,
}

impl WayConfig {
    /// A 64K four-way way-resizable cache matching the Figure 6 "A"
    /// geometry, with the same default feedback parameters as
    /// [`crate::DriConfig::hpca01_64k_dm`].
    pub fn hpca01_64k_4way() -> Self {
        WayConfig {
            size_bytes: 64 * 1024,
            block_bytes: 32,
            associativity: 4,
            latency: 1,
            min_ways: 1,
            miss_bound: 100,
            sense_interval: 100_000,
            throttle: ThrottleConfig::default(),
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Checks the invariants.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two geometry or `min_ways` out of range.
    pub fn validate(&self) {
        assert!(self.size_bytes.is_power_of_two(), "size must be 2^n");
        assert!(self.block_bytes.is_power_of_two(), "block must be 2^n");
        assert!(
            self.associativity >= 1,
            "way resizing needs at least one way"
        );
        assert!(
            self.min_ways >= 1 && self.min_ways <= self.associativity,
            "min_ways {} out of range 1..={}",
            self.min_ways,
            self.associativity
        );
        let blocks = self.size_bytes / self.block_bytes;
        assert!(
            blocks.is_multiple_of(u64::from(self.associativity))
                && (blocks / u64::from(self.associativity)).is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(self.sense_interval > 0, "sense interval must be positive");
    }

    /// Number of sets (fixed — this design never changes the index).
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / self.block_bytes / u64::from(self.associativity)
    }

    fn offset_bits(&self) -> u32 {
        self.block_bytes.trailing_zeros()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    block_addr: u64,
    last_used: u64,
    filled_at: u64,
}

/// The adaptive way-resizing i-cache.
#[derive(Debug, Clone)]
pub struct WayResizableICache {
    cfg: WayConfig,
    lines: Vec<Line>,
    active_ways: u32,
    stats: CacheStats,
    clock: u64,
    rng: SmallRng,
    // Precomputed geometry: the index function never changes in this
    // design, so shift and mask are fixed for the cache's lifetime.
    offset_bits: u32,
    index_mask: u64,
    ways: usize,
    interval_misses: u64,
    insts_into_interval: u64,
    intervals_elapsed: u64,
    resizes: u64,
    lockout_remaining: u32,
    throttle_counter: u32,
    last_resize_grew: Option<bool>,
    last_mark_cycle: u64,
    weighted_way_cycles: f64,
    finished_at: Option<u64>,
}

impl WayResizableICache {
    /// Builds the cache at full associativity.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: WayConfig) -> Self {
        cfg.validate();
        let total = (cfg.num_sets() * u64::from(cfg.associativity)) as usize;
        WayResizableICache {
            lines: vec![Line::default(); total],
            active_ways: cfg.associativity,
            stats: CacheStats::default(),
            clock: 0,
            rng: SmallRng::seed_from_u64(0x3A93_517E),
            offset_bits: cfg.offset_bits(),
            index_mask: cfg.num_sets() - 1,
            ways: cfg.associativity as usize,
            cfg,
            interval_misses: 0,
            insts_into_interval: 0,
            intervals_elapsed: 0,
            resizes: 0,
            lockout_remaining: 0,
            throttle_counter: 0,
            last_resize_grew: None,
            last_mark_cycle: 0,
            weighted_way_cycles: 0.0,
            finished_at: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WayConfig {
        &self.cfg
    }

    /// Currently powered ways.
    pub fn active_ways(&self) -> u32 {
        self.active_ways
    }

    /// Currently powered capacity in bytes.
    pub fn active_size_bytes(&self) -> u64 {
        self.cfg.size_bytes * u64::from(self.active_ways) / u64::from(self.cfg.associativity)
    }

    /// Resizes performed.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Completed sense intervals.
    pub fn intervals_elapsed(&self) -> u64 {
        self.intervals_elapsed
    }

    /// Average active fraction (powered ways over physical ways),
    /// integrated over cycles.
    pub fn avg_active_fraction(&self) -> f64 {
        let end = self.finished_at.unwrap_or(self.last_mark_cycle);
        if end == 0 {
            return 1.0;
        }
        (self.weighted_way_cycles / end as f64) / f64::from(self.cfg.associativity)
    }

    fn advance_integration(&mut self, cycle: u64) {
        let cycle = cycle.max(self.last_mark_cycle);
        let span = (cycle - self.last_mark_cycle) as f64;
        self.weighted_way_cycles += span * f64::from(self.active_ways);
        self.last_mark_cycle = cycle;
    }

    #[inline]
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = set as usize * self.ways;
        start..start + self.ways
    }

    fn apply_ways(&mut self, new_ways: u32, cycle: u64) {
        if new_ways == self.active_ways {
            return;
        }
        self.advance_integration(cycle);
        if new_ways < self.active_ways {
            // Gate off the highest ways in every set.
            let sets = self.cfg.num_sets();
            for set in 0..sets {
                let range = self.set_range(set);
                for way in new_ways as usize..self.active_ways as usize {
                    let line = &mut self.lines[range.start + way];
                    if line.valid {
                        line.valid = false;
                        self.stats.invalidations += 1;
                    }
                }
            }
        }
        self.active_ways = new_ways;
        self.resizes += 1;
    }

    fn end_interval(&mut self, cycle: u64) {
        self.intervals_elapsed += 1;
        if self.lockout_remaining > 0 {
            self.lockout_remaining -= 1;
        }
        let misses = self.interval_misses;
        self.interval_misses = 0;
        let grew = if misses > self.cfg.miss_bound && self.active_ways < self.cfg.associativity {
            self.apply_ways(self.active_ways + 1, cycle);
            Some(true)
        } else if misses < self.cfg.miss_bound
            && self.active_ways > self.cfg.min_ways
            && self.lockout_remaining == 0
        {
            self.apply_ways(self.active_ways - 1, cycle);
            Some(false)
        } else {
            None
        };
        if let Some(grew) = grew {
            if self.cfg.throttle.enabled {
                if self.last_resize_grew == Some(!grew) {
                    self.throttle_counter =
                        (self.throttle_counter + 1).min(self.cfg.throttle.saturation());
                    if self.throttle_counter == self.cfg.throttle.saturation() {
                        self.lockout_remaining = self.cfg.throttle.lockout_intervals;
                        self.throttle_counter = 0;
                    }
                } else {
                    self.throttle_counter = 0;
                }
            }
            self.last_resize_grew = Some(grew);
        }
    }
}

impl InstCache for WayResizableICache {
    #[inline]
    fn access(&mut self, addr: u64, _cycle: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        self.stats.reads += 1;
        let block = addr >> self.offset_bits;
        let set = block & self.index_mask;
        let range = self.set_range(set);
        let active = self.active_ways as usize;
        let lines = &mut self.lines[range.start..range.start + active];

        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.block_addr == block) {
            line.last_used = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        self.interval_misses += 1;
        if let Some(line) = lines.iter_mut().find(|l| !l.valid) {
            *line = Line {
                valid: true,
                block_addr: block,
                last_used: self.clock,
                filled_at: self.clock,
            };
            return false;
        }
        let victim = self.cfg.replacement.pick_victim_with(
            lines.len(),
            |i| lines[i].last_used,
            |i| lines[i].filled_at,
            &mut self.rng,
        );
        self.stats.evictions += 1;
        lines[victim] = Line {
            valid: true,
            block_addr: block,
            last_used: self.clock,
            filled_at: self.clock,
        };
        false
    }

    fn hit_latency(&self) -> u64 {
        self.cfg.latency
    }

    fn block_bytes(&self) -> u64 {
        self.cfg.block_bytes
    }

    fn retire_budget(&self) -> u64 {
        self.cfg.sense_interval - self.insts_into_interval
    }

    fn retire_instructions(&mut self, n: u64, cycle: u64) {
        self.insts_into_interval += n;
        while self.insts_into_interval >= self.cfg.sense_interval {
            self.insts_into_interval -= self.cfg.sense_interval;
            self.end_interval(cycle);
        }
    }

    fn finish(&mut self, cycle: u64) {
        self.advance_integration(cycle);
        self.finished_at = Some(cycle.max(1));
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

impl LeakagePolicy for WayResizableICache {
    fn policy_id(&self) -> &'static str {
        "way_resize"
    }

    fn active_size_bytes(&self) -> u64 {
        WayResizableICache::active_size_bytes(self)
    }

    fn avg_active_fraction(&self) -> f64 {
        WayResizableICache::avg_active_fraction(self)
    }

    fn avg_size_bytes(&self) -> f64 {
        WayResizableICache::avg_active_fraction(self) * self.cfg.size_bytes as f64
    }

    fn resizes(&self) -> u64 {
        WayResizableICache::resizes(self)
    }

    fn intervals(&self) -> u64 {
        self.intervals_elapsed
    }
    // No resizing tag bits: the index function never changes (the one
    // advantage of this design, module docs).
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WayConfig {
        WayConfig {
            size_bytes: 4096,
            block_bytes: 32,
            associativity: 4,
            latency: 1,
            min_ways: 1,
            miss_bound: 10,
            sense_interval: 1000,
            throttle: ThrottleConfig::default(),
            replacement: ReplacementPolicy::Lru,
        }
    }

    #[test]
    fn starts_fully_associative() {
        let c = WayResizableICache::new(small());
        assert_eq!(c.active_ways(), 4);
        assert_eq!(c.active_size_bytes(), 4096);
    }

    #[test]
    fn retire_budget_counts_down_to_the_interval_end() {
        let mut c = WayResizableICache::new(small());
        assert_eq!(c.retire_budget(), 1000);
        c.retire_instructions(400, 400);
        assert_eq!(c.retire_budget(), 600);
        c.retire_instructions(600, 1000);
        assert_eq!(c.retire_budget(), 1000);
        assert_eq!(c.active_ways(), 3, "the boundary call sheds a way");
    }

    #[test]
    fn quiet_intervals_shed_ways_down_to_min() {
        let mut c = WayResizableICache::new(small());
        let mut cycle = 0;
        for expected in [3, 2, 1, 1] {
            cycle += 1000;
            c.retire_instructions(1000, cycle);
            assert_eq!(c.active_ways(), expected);
        }
        assert_eq!(c.active_size_bytes(), 1024);
    }

    #[test]
    fn misses_grow_ways_back() {
        let mut c = WayResizableICache::new(small());
        let mut cycle = 1000;
        c.retire_instructions(1000, cycle);
        assert_eq!(c.active_ways(), 3);
        for i in 0..20u64 {
            let _ = c.access(i * 4096, cycle);
        }
        cycle += 1000;
        c.retire_instructions(1000, cycle);
        assert_eq!(c.active_ways(), 4);
    }

    #[test]
    fn capacity_granularity_is_coarse() {
        // The key §2 argument: the smallest reachable size is
        // size/associativity, far above a small working set.
        let c = WayResizableICache::new(WayConfig::hpca01_64k_4way());
        let min = c.config().size_bytes / u64::from(c.config().associativity);
        assert_eq!(min, 16 * 1024, "cannot go below 16K of a 64K 4-way");
    }

    #[test]
    fn index_function_never_changes() {
        // Blocks keep hitting across resizes if they sit in a surviving way.
        let mut c = WayResizableICache::new(small());
        let _ = c.access(0x40, 0); // fills way 0
        let mut cycle = 1000;
        c.retire_instructions(1000, cycle); // 3 ways
        cycle += 1000;
        c.retire_instructions(1000, cycle); // 2 ways
        assert!(c.access(0x40, cycle), "way-0 resident block still hits");
    }

    #[test]
    fn dropping_ways_invalidates_their_contents() {
        let mut c = WayResizableICache::new(small());
        // Fill all four ways of set 2.
        for w in 0..4u64 {
            let _ = c.access(2 * 32 + w * 4096, 0);
        }
        let before = c.stats().invalidations;
        c.retire_instructions(1000, 1000); // shed one way
        assert_eq!(c.active_ways(), 3);
        assert!(c.stats().invalidations > before);
    }

    #[test]
    fn active_fraction_integrates() {
        let mut c = WayResizableICache::new(small());
        c.retire_instructions(1000, 1000); // 4 ways for 1000 cycles -> 3
        c.finish(2000); // 3 ways for another 1000
        let f = c.avg_active_fraction();
        assert!((f - (4.0 + 3.0) / 2.0 / 4.0).abs() < 1e-9, "fraction {f}");
    }

    #[test]
    #[should_panic(expected = "min_ways")]
    fn rejects_zero_min_ways() {
        let cfg = WayConfig {
            min_ways: 0,
            ..small()
        };
        cfg.validate();
    }
}
