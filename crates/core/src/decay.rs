//! Cache decay: the per-line leakage policy the DRI line of work led to.
//!
//! The DRI i-cache gates *sets* under global miss-rate feedback. The
//! successor idea (Kaxiras, Hu, Martonosi, "Cache Decay", ISCA 2001) gates
//! *individual lines* that have not been referenced for a fixed *decay
//! interval* — exploiting the observation (cited by this paper via Peir et
//! al.) that at any instant over half the block frames are "dead", waiting
//! to miss. Implementing decay here lets the repository compare the two
//! policies under identical substrates:
//!
//! * decay adapts at line granularity with no global controller, but every
//!   decayed line that was *not* dead costs a full miss;
//! * DRI resizing preserves the surviving sets' contents and bounds the
//!   miss rate explicitly, but gates at coarse power-of-two granularity.
//!
//! The decay timer is modelled in cycles (the hardware uses a cascaded
//! global + 2-bit per-line counter scheme; we keep exact last-use cycles,
//! which the 2-bit scheme approximates within one global tick).

use cache_sim::icache::InstCache;
use cache_sim::policy::LeakagePolicy;
use cache_sim::replacement::ReplacementPolicy;
use cache_sim::stats::CacheStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration for [`DecayICache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecayConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Hit latency in cycles.
    pub latency: u64,
    /// A line unreferenced for this many cycles is gated off.
    pub decay_interval_cycles: u64,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl DecayConfig {
    /// A 64K direct-mapped decaying i-cache with a 64K-cycle decay
    /// interval (mid-range of the decay paper's 8K–512K sweep).
    pub fn hpca01_64k_dm() -> Self {
        DecayConfig {
            size_bytes: 64 * 1024,
            block_bytes: 32,
            associativity: 1,
            latency: 1,
            decay_interval_cycles: 64 * 1024,
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Checks the invariants.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two geometry or a zero decay interval.
    pub fn validate(&self) {
        assert!(self.size_bytes.is_power_of_two(), "size must be 2^n");
        assert!(self.block_bytes.is_power_of_two(), "block must be 2^n");
        assert!(self.associativity >= 1, "need at least one way");
        assert!(
            self.decay_interval_cycles > 0,
            "decay interval must be positive"
        );
        let blocks = self.size_bytes / self.block_bytes;
        assert!(
            blocks.is_multiple_of(u64::from(self.associativity))
                && (blocks / u64::from(self.associativity)).is_power_of_two(),
            "set count must be a power of two"
        );
    }

    /// Number of sets.
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
    /// Cycle of the last reference (drives decay). A line whose last use
    /// is older than the decay interval is *dead*: gated off, but its tag
    /// is retained by the model so decay-induced misses can be classified.
    last_used_cycle: u64,
    /// Monotonic counter for LRU among live lines.
    lru: u64,
    filled_at: u64,
    /// Whether this line's current death has been tallied by a sweep.
    dead_counted: bool,
}

/// Decay statistics beyond the common cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecayStats {
    /// Misses caused by decay (the line was present but gated off) — the
    /// policy's "premature decay" cost.
    pub decay_induced_misses: u64,
    /// Lines gated off by the sweeps.
    pub lines_decayed: u64,
}

/// The decaying i-cache.
#[derive(Debug, Clone)]
pub struct DecayICache {
    cfg: DecayConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    decay_stats: DecayStats,
    clock: u64,
    rng: SmallRng,
    // Precomputed geometry: shift/mask indexing instead of per-access
    // division through `DecayConfig::num_sets`.
    offset_bits: u32,
    index_mask: u64,
    ways: usize,
    // Active-fraction integration: swept periodically.
    next_sweep_cycle: u64,
    last_mark_cycle: u64,
    weighted_live_cycles: f64,
    live_at_mark: u64,
    finished_at: Option<u64>,
}

impl DecayICache {
    /// Builds an empty decaying cache (empty lines count as gated).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: DecayConfig) -> Self {
        cfg.validate();
        let total = (cfg.num_sets() * u64::from(cfg.associativity)) as usize;
        let sweep = (cfg.decay_interval_cycles / 4).max(1);
        DecayICache {
            lines: vec![Line::default(); total],
            stats: CacheStats::default(),
            decay_stats: DecayStats::default(),
            clock: 0,
            rng: SmallRng::seed_from_u64(0xDECA_4DE0),
            offset_bits: cfg.offset_bits(),
            index_mask: cfg.num_sets() - 1,
            ways: cfg.associativity as usize,
            cfg,
            next_sweep_cycle: sweep,
            last_mark_cycle: 0,
            weighted_live_cycles: 0.0,
            live_at_mark: 0,
            finished_at: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DecayConfig {
        &self.cfg
    }

    /// Decay-specific statistics.
    pub fn decay_stats(&self) -> &DecayStats {
        &self.decay_stats
    }

    fn is_live(&self, line: &Line, cycle: u64) -> bool {
        line.valid && cycle.saturating_sub(line.last_used_cycle) < self.cfg.decay_interval_cycles
    }

    /// Number of lines currently live (powered) at `cycle`.
    pub fn live_lines(&self, cycle: u64) -> u64 {
        self.lines.iter().filter(|l| self.is_live(l, cycle)).count() as u64
    }

    /// Average powered fraction of the array over the run (integrated at
    /// sweep granularity: decay_interval / 4).
    pub fn avg_active_fraction(&self) -> f64 {
        let end = self.finished_at.unwrap_or(self.last_mark_cycle);
        if end == 0 {
            return 1.0;
        }
        (self.weighted_live_cycles / end as f64) / self.lines.len() as f64
    }

    fn sweep(&mut self, cycle: u64) {
        // Integrate the previous segment at its live count, then re-count.
        let span = (cycle.max(self.last_mark_cycle) - self.last_mark_cycle) as f64;
        self.weighted_live_cycles += span * self.live_at_mark as f64;
        self.last_mark_cycle = cycle.max(self.last_mark_cycle);
        let interval = self.cfg.decay_interval_cycles;
        let mut live = 0u64;
        for line in &mut self.lines {
            if !line.valid {
                continue;
            }
            if cycle.saturating_sub(line.last_used_cycle) >= interval {
                if !line.dead_counted {
                    line.dead_counted = true;
                    self.decay_stats.lines_decayed += 1;
                }
            } else {
                live += 1;
            }
        }
        self.live_at_mark = live;
        let step = (self.cfg.decay_interval_cycles / 4).max(1);
        while self.next_sweep_cycle <= cycle {
            self.next_sweep_cycle += step;
        }
    }

    fn maybe_sweep(&mut self, cycle: u64) {
        if cycle >= self.next_sweep_cycle {
            self.sweep(cycle);
        }
    }

    #[inline]
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = set as usize * self.ways;
        start..start + self.ways
    }
}

impl InstCache for DecayICache {
    #[inline]
    fn access(&mut self, addr: u64, cycle: u64) -> bool {
        self.maybe_sweep(cycle);
        self.clock += 1;
        self.stats.accesses += 1;
        self.stats.reads += 1;
        let block = addr >> self.offset_bits;
        let set = block & self.index_mask;
        let range = self.set_range(set);
        let interval = self.cfg.decay_interval_cycles;

        // Hit: line valid *and* not decayed (dead lines keep their tags in
        // the model purely so this classification is possible).
        let mut decayed_match = false;
        for line in &mut self.lines[range.clone()] {
            if line.valid && line.block_addr == block {
                if cycle.saturating_sub(line.last_used_cycle) < interval {
                    line.last_used_cycle = cycle;
                    line.lru = self.clock;
                    self.stats.hits += 1;
                    return true;
                }
                // Present but gated: the decay was premature.
                line.valid = false;
                decayed_match = true;
                break;
            }
        }
        self.stats.misses += 1;
        if decayed_match {
            self.decay_stats.decay_induced_misses += 1;
        }

        // Allocate: prefer an invalid/decayed way, else evict.
        let clock = self.clock;
        let lines = &mut self.lines[range];
        let victim = if let Some(i) = lines
            .iter()
            .position(|l| !l.valid || cycle.saturating_sub(l.last_used_cycle) >= interval)
        {
            i
        } else {
            self.stats.evictions += 1;
            self.cfg.replacement.pick_victim_with(
                lines.len(),
                |i| lines[i].lru,
                |i| lines[i].filled_at,
                &mut self.rng,
            )
        };
        lines[victim] = Line {
            valid: true,
            block_addr: block,
            last_used_cycle: cycle,
            lru: clock,
            filled_at: clock,
            dead_counted: false,
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
        u64::MAX // cycle-driven: retirement does nothing
    }

    fn finish(&mut self, cycle: u64) {
        self.sweep(cycle);
        self.finished_at = Some(cycle.max(1));
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

impl LeakagePolicy for DecayICache {
    fn policy_id(&self) -> &'static str {
        "decay"
    }

    fn active_size_bytes(&self) -> u64 {
        // Live-line count as of the last sweep mark: decay has no single
        // "current size" between sweeps, so the mark is the honest answer.
        self.live_at_mark * self.cfg.block_bytes
    }

    fn avg_active_fraction(&self) -> f64 {
        DecayICache::avg_active_fraction(self)
    }

    fn avg_size_bytes(&self) -> f64 {
        DecayICache::avg_active_fraction(self) * self.cfg.size_bytes as f64
    }

    fn resizes(&self) -> u64 {
        self.decay_stats.lines_decayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(interval: u64) -> DecayConfig {
        DecayConfig {
            size_bytes: 2048,
            block_bytes: 32,
            associativity: 1,
            latency: 1,
            decay_interval_cycles: interval,
            replacement: ReplacementPolicy::Lru,
        }
    }

    #[test]
    fn recently_used_lines_hit() {
        let mut c = DecayICache::new(small(1000));
        assert!(!c.access(0x100, 10));
        assert!(c.access(0x100, 20));
        assert!(c.access(0x100, 900));
    }

    #[test]
    fn stale_lines_decay_and_miss() {
        let mut c = DecayICache::new(small(1000));
        let _ = c.access(0x100, 0);
        // Next touch at cycle 1500: past the decay interval — a miss, and
        // specifically a decay-induced one.
        assert!(!c.access(0x100, 1500));
        assert_eq!(c.decay_stats().decay_induced_misses, 1);
        // Refilled: hits again.
        assert!(c.access(0x100, 1510));
    }

    #[test]
    fn touching_resets_the_decay_timer() {
        let mut c = DecayICache::new(small(1000));
        let _ = c.access(0x100, 0);
        assert!(c.access(0x100, 900));
        // 900 + 999 < 900 + 1000: still live because the timer restarted.
        assert!(c.access(0x100, 1899));
    }

    #[test]
    fn live_lines_reflect_decay() {
        let mut c = DecayICache::new(small(1000));
        for i in 0..8u64 {
            let _ = c.access(i * 32, 0);
        }
        assert_eq!(c.live_lines(10), 8);
        assert_eq!(c.live_lines(2000), 0, "all decayed");
    }

    #[test]
    fn active_fraction_falls_for_idle_caches() {
        let mut c = DecayICache::new(small(1000));
        for i in 0..32u64 {
            let _ = c.access(i * 32, 0);
        }
        // Idle for a long time: sweeps run on finish.
        c.finish(100_000);
        assert!(
            c.avg_active_fraction() < 0.1,
            "fraction {}",
            c.avg_active_fraction()
        );
    }

    #[test]
    fn hot_loop_keeps_its_lines_live() {
        let mut c = DecayICache::new(small(1000));
        let mut cycle = 0;
        for _ in 0..1000 {
            for i in 0..8u64 {
                cycle += 10;
                let _ = c.access(i * 32, cycle);
            }
        }
        c.finish(cycle);
        // 8 of 64 lines stay live: fraction near 8/64 after warmup.
        let f = c.avg_active_fraction();
        assert!(f > 0.05 && f < 0.3, "fraction {f}");
        assert_eq!(c.decay_stats().decay_induced_misses, 0);
    }

    #[test]
    fn shorter_intervals_decay_more_aggressively() {
        let run = |interval: u64| {
            let mut c = DecayICache::new(small(interval));
            let mut cycle = 0;
            // Re-touch each line every ~640 cycles.
            for _ in 0..200 {
                for i in 0..8u64 {
                    cycle += 80;
                    let _ = c.access(i * 32, cycle);
                }
            }
            c.finish(cycle);
            (
                c.decay_stats().decay_induced_misses,
                c.avg_active_fraction(),
            )
        };
        let (short_misses, short_frac) = run(500); // reuse distance 640 > 500
        let (long_misses, long_frac) = run(5000);
        assert!(short_misses > long_misses);
        assert!(short_frac < long_frac);
    }

    #[test]
    fn associative_decay_prefers_dead_ways_for_allocation() {
        let mut cfg = small(1000);
        cfg.associativity = 2;
        let mut c = DecayICache::new(cfg);
        let s = 32 * 32; // same-set stride (32 sets of 32B)
        let _ = c.access(0, 0);
        let _ = c.access(s, 10);
        // Let way holding block 0 decay, then allocate a third block: it
        // must take the dead way, leaving the live line resident.
        let _ = c.access(2 * s, 1500);
        assert!(c.access(2 * s, 1510));
        assert_eq!(c.stats().evictions, 0, "dead way reused, no eviction");
    }

    #[test]
    #[should_panic(expected = "decay interval")]
    fn rejects_zero_interval() {
        let _ = DecayICache::new(small(0));
    }
}
