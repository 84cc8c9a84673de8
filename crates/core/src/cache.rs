//! The Dynamically ResIzable i-cache (paper §2, Figure 1).
//!
//! A DRI i-cache is a set-associative cache whose *active set count* moves
//! between a size-bound and the full size under miss-rate feedback:
//!
//! * a **miss counter** accumulates misses over each **sense interval**
//!   (measured in committed instructions);
//! * at each interval end the cache **upsizes** (misses > miss-bound) or
//!   **downsizes** (misses < miss-bound) by the **divisibility** factor;
//! * the **size mask** selects index bits for the current size; tags always
//!   carry enough bits (the *resizing tag bits*) for the smallest size, so
//!   surviving blocks stay correct across downsizing without flushes;
//! * a **throttle** counter detects repeated resizing between two adjacent
//!   sizes and locks out downsizing for a fixed number of intervals;
//! * disabled sets are **gated off** (their contents are lost and their
//!   leakage collapses to the standby level — see `sram-circuit`).
//!
//! Upsizing can leave *aliases*: a block fetched at the new, larger index
//! may coexist with a stale copy at the old index. For a read-only i-cache
//! this is harmless (paper §2.2); [`DriICache::invalidate_all_aliases`]
//! provides the page-unmap escape hatch.

use crate::config::DriConfig;
use cache_sim::icache::InstCache;
use cache_sim::policy::LeakagePolicy;
use cache_sim::stats::CacheStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Direction of a resize step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResizeDirection {
    /// The miss counter exceeded the miss-bound: more sets powered on.
    Upsize,
    /// The miss counter was below the miss-bound: sets gated off.
    Downsize,
}

/// A recorded size change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Simulation cycle of the decision.
    pub cycle: u64,
    /// Sense interval index (0-based) whose end triggered the change.
    pub interval: u64,
    /// Active sets before.
    pub from_sets: u64,
    /// Active sets after.
    pub to_sets: u64,
}

impl ResizeEvent {
    /// Direction of this event.
    pub fn direction(&self) -> ResizeDirection {
        if self.to_sets > self.from_sets {
            ResizeDirection::Upsize
        } else {
            ResizeDirection::Downsize
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    block_addr: u64,
    last_used: u64,
    filled_at: u64,
}

/// The DRI i-cache.
#[derive(Debug, Clone)]
pub struct DriICache {
    cfg: DriConfig,
    lines: Vec<Line>,
    active_sets: u64,
    stats: CacheStats,
    clock: u64,
    rng: SmallRng,
    // Precomputed per-access geometry: the offset shift and the size mask
    // of Figure 1 (`active_sets - 1`), maintained across resizes so the
    // fetch path performs no division.
    offset_bits: u32,
    index_mask: u64,
    ways: usize,
    // Sense-interval machinery.
    interval_misses: u64,
    insts_into_interval: u64,
    intervals_elapsed: u64,
    resize_events: Vec<ResizeEvent>,
    // Throttle.
    throttle_counter: u32,
    lockout_remaining: u32,
    last_resize_pair: Option<(u64, u64)>,
    // Active-fraction integration over cycles.
    last_mark_cycle: u64,
    weighted_set_cycles: f64,
    finished_at: Option<u64>,
}

impl DriICache {
    /// Builds a DRI i-cache, initially at full size.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`DriConfig::validate`]).
    pub fn new(cfg: DriConfig) -> Self {
        cfg.validate();
        let total = (cfg.max_sets() * u64::from(cfg.associativity)) as usize;
        DriICache {
            lines: vec![Line::default(); total],
            active_sets: cfg.max_sets(),
            stats: CacheStats::default(),
            clock: 0,
            rng: SmallRng::seed_from_u64(0xD121_1CAC),
            offset_bits: cfg.offset_bits(),
            index_mask: cfg.max_sets() - 1,
            ways: cfg.associativity as usize,
            cfg,
            interval_misses: 0,
            insts_into_interval: 0,
            intervals_elapsed: 0,
            resize_events: Vec::new(),
            throttle_counter: 0,
            lockout_remaining: 0,
            last_resize_pair: None,
            last_mark_cycle: 0,
            weighted_set_cycles: 0.0,
            finished_at: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DriConfig {
        &self.cfg
    }

    /// Currently powered sets.
    pub fn active_sets(&self) -> u64 {
        self.active_sets
    }

    /// Currently powered capacity in bytes.
    pub fn active_size_bytes(&self) -> u64 {
        self.active_sets * self.cfg.block_bytes * u64::from(self.cfg.associativity)
    }

    /// Misses accumulated in the current sense interval.
    pub fn interval_misses(&self) -> u64 {
        self.interval_misses
    }

    /// Completed sense intervals.
    pub fn intervals_elapsed(&self) -> u64 {
        self.intervals_elapsed
    }

    /// Every resize that has occurred.
    pub fn resize_events(&self) -> &[ResizeEvent] {
        &self.resize_events
    }

    /// Whether downsizing is currently locked out by the throttle.
    pub fn is_throttled(&self) -> bool {
        self.lockout_remaining > 0
    }

    /// Average active fraction (powered sets over maximum sets), integrated
    /// over cycles up to `finish` (or the last event if not yet finished).
    pub fn avg_active_fraction(&self) -> f64 {
        let end = self.finished_at.unwrap_or(self.last_mark_cycle);
        if end == 0 {
            return 1.0;
        }
        // Integration is closed at each mark, so nothing is pending here.
        (self.weighted_set_cycles / end as f64) / self.cfg.max_sets() as f64
    }

    /// Average powered capacity in bytes over the run.
    pub fn avg_size_bytes(&self) -> f64 {
        self.avg_active_fraction() * self.cfg.max_size_bytes as f64
    }

    #[inline]
    fn row(&self, set: u64) -> std::ops::Range<usize> {
        let start = set as usize * self.ways;
        start..start + self.ways
    }

    /// Looks up the block containing `addr` under the current size mask
    /// without modifying state.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.offset_bits;
        let set = block & self.index_mask;
        self.lines[self.row(set)]
            .iter()
            .any(|l| l.valid && l.block_addr == block)
    }

    /// Invalidates every copy of the block containing `addr`, at every
    /// set it may map to under any size — the page-unmap / i-d-coherence
    /// escape hatch of paper §2.2. Returns how many aliases were dropped.
    pub fn invalidate_all_aliases(&mut self, addr: u64) -> usize {
        let block = self.cfg.block_addr(addr);
        let mut dropped = 0;
        for line in &mut self.lines {
            if line.valid && line.block_addr == block {
                line.valid = false;
                dropped += 1;
            }
        }
        self.stats.invalidations += dropped as u64;
        dropped
    }

    fn advance_integration(&mut self, cycle: u64) {
        let cycle = cycle.max(self.last_mark_cycle);
        let span = (cycle - self.last_mark_cycle) as f64;
        self.weighted_set_cycles += span * self.active_sets as f64;
        self.last_mark_cycle = cycle;
    }

    fn apply_size(&mut self, new_sets: u64, cycle: u64) {
        debug_assert!(new_sets.is_power_of_two());
        debug_assert!(new_sets >= self.cfg.bound_sets() && new_sets <= self.cfg.max_sets());
        if new_sets == self.active_sets {
            return;
        }
        self.advance_integration(cycle);
        self.resize_events.push(ResizeEvent {
            cycle,
            interval: self.intervals_elapsed,
            from_sets: self.active_sets,
            to_sets: new_sets,
        });
        if new_sets < self.active_sets {
            // Gate off the removed (highest-numbered) sets: contents lost.
            // Blocks resident in surviving sets keep indexing to the same
            // set because tags retain full size-bound resolution (§2.2).
            let ways = self.cfg.associativity as usize;
            let start = new_sets as usize * ways;
            let end = self.active_sets as usize * ways;
            for line in &mut self.lines[start..end] {
                if line.valid {
                    line.valid = false;
                    self.stats.invalidations += 1;
                }
            }
        }
        self.active_sets = new_sets;
        self.index_mask = new_sets - 1;
    }

    fn throttle_note_resize(&mut self, from: u64, to: u64) {
        if !self.cfg.throttle.enabled {
            return;
        }
        let reversal = self.last_resize_pair == Some((to, from));
        if reversal {
            self.throttle_counter = (self.throttle_counter + 1).min(self.cfg.throttle.saturation());
            if self.throttle_counter == self.cfg.throttle.saturation() {
                self.lockout_remaining = self.cfg.throttle.lockout_intervals;
                self.throttle_counter = 0;
            }
        } else {
            self.throttle_counter = 0;
        }
        self.last_resize_pair = Some((from, to));
    }

    fn end_interval(&mut self, cycle: u64) {
        self.intervals_elapsed += 1;
        if self.lockout_remaining > 0 {
            self.lockout_remaining -= 1;
        }
        let misses = self.interval_misses;
        self.interval_misses = 0;
        let from = self.active_sets;
        if misses > self.cfg.miss_bound {
            let to = (from * u64::from(self.cfg.divisibility)).min(self.cfg.max_sets());
            if to != from {
                self.apply_size(to, cycle);
                self.throttle_note_resize(from, to);
            }
        } else if misses < self.cfg.miss_bound && self.lockout_remaining == 0 {
            let to = (from / u64::from(self.cfg.divisibility)).max(self.cfg.bound_sets());
            if to != from {
                self.apply_size(to, cycle);
                self.throttle_note_resize(from, to);
            }
        }
    }
}

impl InstCache for DriICache {
    #[inline]
    fn access(&mut self, addr: u64, _cycle: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        self.stats.reads += 1;
        let block = addr >> self.offset_bits;
        let set = block & self.index_mask;
        let row = self.row(set);

        if let Some(line) = self.lines[row.clone()]
            .iter_mut()
            .find(|l| l.valid && l.block_addr == block)
        {
            line.last_used = self.clock;
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        self.interval_misses += 1;

        // Allocate: prefer an invalid way, else evict per policy.
        let lines = &mut self.lines[row];
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

impl LeakagePolicy for DriICache {
    fn policy_id(&self) -> &'static str {
        "dri"
    }

    fn active_size_bytes(&self) -> u64 {
        DriICache::active_size_bytes(self)
    }

    fn avg_active_fraction(&self) -> f64 {
        DriICache::avg_active_fraction(self)
    }

    fn avg_size_bytes(&self) -> f64 {
        // Delegates to the exact inherent computation so trait-driven
        // runners replay bit-identical to pre-trait records.
        DriICache::avg_size_bytes(self)
    }

    fn resizes(&self) -> u64 {
        self.resize_events.len() as u64
    }

    fn intervals(&self) -> u64 {
        self.intervals_elapsed
    }

    fn resizing_tag_bits(&self) -> u32 {
        self.cfg.resizing_tag_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThrottleConfig;

    fn small_cfg() -> DriConfig {
        // 4K max, 32B blocks, DM -> 128 sets; bound 512B -> 16 sets.
        DriConfig {
            max_size_bytes: 4096,
            block_bytes: 32,
            associativity: 1,
            latency: 1,
            size_bound_bytes: 512,
            miss_bound: 10,
            sense_interval: 1000,
            divisibility: 2,
            throttle: ThrottleConfig::default(),
            replacement: cache_sim::replacement::ReplacementPolicy::Lru,
        }
    }

    /// Runs `n` committed instructions with zero i-cache activity, at one
    /// instruction per cycle starting from `cycle`.
    fn idle_interval(c: &mut DriICache, cycle: &mut u64, n: u64) {
        c.retire_instructions(n, *cycle + n);
        *cycle += n;
    }

    #[test]
    fn starts_at_full_size() {
        let c = DriICache::new(small_cfg());
        assert_eq!(c.active_sets(), 128);
        assert_eq!(c.active_size_bytes(), 4096);
    }

    #[test]
    fn downsizes_when_quiet_and_stops_at_bound() {
        let mut c = DriICache::new(small_cfg());
        let mut cycle = 0;
        // Each quiet interval halves the size: 128->64->32->16, then stays.
        for expected in [64, 32, 16, 16, 16] {
            idle_interval(&mut c, &mut cycle, 1000);
            assert_eq!(c.active_sets(), expected);
        }
        assert_eq!(c.active_size_bytes(), 512);
    }

    #[test]
    fn upsizes_when_missing_and_stops_at_max() {
        let mut c = DriICache::new(small_cfg());
        let mut cycle = 0;
        idle_interval(&mut c, &mut cycle, 1000); // 64 sets
        idle_interval(&mut c, &mut cycle, 1000); // 32 sets
        assert_eq!(c.active_sets(), 32);
        // Generate > miss_bound misses, then close the interval.
        for i in 0..20u64 {
            let _ = c.access(i * 32 * 1024, cycle);
        }
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), 64, "should upsize after missing");
    }

    #[test]
    fn exact_miss_bound_holds_size() {
        let mut c = DriICache::new(small_cfg());
        let mut cycle = 0;
        // Exactly miss_bound misses: neither upsize nor downsize.
        for i in 0..10u64 {
            let _ = c.access(i * 32 * 1024, cycle);
        }
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), 128);
    }

    #[test]
    fn surviving_blocks_stay_visible_across_downsize() {
        let mut c = DriICache::new(small_cfg());
        // Fill set 3 (addr block index 3) — survives a 128->64 downsize.
        let low_addr = 3 * 32;
        let _ = c.access(low_addr, 0);
        assert!(c.probe(low_addr));
        let mut cycle = 0;
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), 64);
        assert!(c.probe(low_addr), "set 3 < 64 survives");
        assert!(c.access(low_addr, cycle), "still a hit");
    }

    #[test]
    fn gated_sets_lose_contents_on_downsize() {
        let mut c = DriICache::new(small_cfg());
        // Set 100 (>= 64) is gated off by the first downsize.
        let high_addr = 100 * 32;
        let _ = c.access(high_addr, 0);
        assert!(c.probe(high_addr));
        let mut cycle = 0;
        idle_interval(&mut c, &mut cycle, 1000);
        assert!(!c.probe(high_addr), "set 100 was gated off");
        // Re-access misses and reallocates at the new index (100 & 63 = 36).
        assert!(!c.access(high_addr, cycle));
        assert!(c.probe(high_addr));
    }

    #[test]
    fn upsize_can_create_aliases_and_invalidate_clears_them() {
        let mut c = DriICache::new(small_cfg());
        let mut cycle = 0;
        idle_interval(&mut c, &mut cycle, 1000); // 64 sets
                                                 // Block index 100: at 64 sets it maps to set 36.
        let addr = 100 * 32;
        let _ = c.access(addr, cycle);
        assert!(c.probe(addr));
        // Force an upsize back to 128 sets.
        for i in 0..20u64 {
            let _ = c.access(i * 32 * 1024 + 7 * 32, cycle);
        }
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), 128);
        // Under 128 sets the block maps to set 100, where it is absent:
        // the stale alias sits in set 36.
        assert!(!c.probe(addr));
        let _ = c.access(addr, cycle); // refetch -> two copies now
        assert_eq!(c.invalidate_all_aliases(addr), 2);
        assert!(!c.probe(addr));
    }

    #[test]
    fn throttle_locks_out_downsizing_after_repeated_reversals() {
        let mut cfg = small_cfg();
        cfg.size_bound_bytes = 2048; // adjacent pair: 128 <-> 64
        let mut c = DriICache::new(cfg);
        let mut cycle = 0;
        // Alternate quiet (downsize) and missing (upsize) intervals to
        // thrash between 64 and 128 sets. Each direction change is a
        // reversal; the 3-bit counter saturates at 7.
        let mut saw_throttle = false;
        for _ in 0..12 {
            idle_interval(&mut c, &mut cycle, 1000); // try downsize
            for i in 0..20u64 {
                let _ = c.access(i * 32 * 1024, cycle);
            }
            idle_interval(&mut c, &mut cycle, 1000); // try upsize
            if c.is_throttled() {
                saw_throttle = true;
                break;
            }
        }
        assert!(saw_throttle, "thrashing should engage the throttle");
        // While locked out, quiet intervals do not downsize.
        let before = c.active_sets();
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), before);
    }

    #[test]
    fn throttle_lockout_expires() {
        let mut cfg = small_cfg();
        cfg.size_bound_bytes = 2048;
        cfg.throttle.lockout_intervals = 2;
        let mut c = DriICache::new(cfg);
        let mut cycle = 0;
        for _ in 0..16 {
            idle_interval(&mut c, &mut cycle, 1000);
            for i in 0..20u64 {
                let _ = c.access(i * 32 * 1024, cycle);
            }
            idle_interval(&mut c, &mut cycle, 1000);
            if c.is_throttled() {
                break;
            }
        }
        assert!(c.is_throttled());
        idle_interval(&mut c, &mut cycle, 1000);
        idle_interval(&mut c, &mut cycle, 1000);
        assert!(!c.is_throttled(), "lockout should expire");
    }

    #[test]
    fn disabled_throttle_never_locks_out() {
        let mut cfg = small_cfg();
        cfg.size_bound_bytes = 2048;
        cfg.throttle.enabled = false;
        let mut c = DriICache::new(cfg);
        let mut cycle = 0;
        for _ in 0..20 {
            idle_interval(&mut c, &mut cycle, 1000);
            for i in 0..20u64 {
                let _ = c.access(i * 32 * 1024, cycle);
            }
            idle_interval(&mut c, &mut cycle, 1000);
        }
        assert!(!c.is_throttled());
    }

    #[test]
    fn active_fraction_integrates_over_cycles() {
        let mut c = DriICache::new(small_cfg());
        let mut cycle = 0;
        // 1000 cycles at full size, then downsize to half for 1000 cycles.
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), 64);
        c.finish(2000);
        // First 1000 cycles at 128/128, next 1000 at 64/128: avg 0.75.
        let f = c.avg_active_fraction();
        assert!((f - 0.75).abs() < 1e-9, "fraction {f}");
        assert!((c.avg_size_bytes() - 3072.0).abs() < 1e-6);
    }

    #[test]
    fn resize_events_record_direction() {
        let mut c = DriICache::new(small_cfg());
        let mut cycle = 0;
        idle_interval(&mut c, &mut cycle, 1000);
        for i in 0..20u64 {
            let _ = c.access(i * 32 * 1024, cycle);
        }
        idle_interval(&mut c, &mut cycle, 1000);
        let events = c.resize_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].direction(), ResizeDirection::Downsize);
        assert_eq!(events[1].direction(), ResizeDirection::Upsize);
        assert_eq!(events[0].from_sets, 128);
        assert_eq!(events[0].to_sets, 64);
    }

    #[test]
    fn divisibility_four_takes_bigger_steps() {
        let mut cfg = small_cfg();
        cfg.divisibility = 4;
        let mut c = DriICache::new(cfg);
        let mut cycle = 0;
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), 32, "128/4");
        idle_interval(&mut c, &mut cycle, 1000);
        assert_eq!(c.active_sets(), 16, "clamped at the bound");
    }

    #[test]
    fn set_associative_dri_uses_lru_within_sets() {
        let mut cfg = small_cfg();
        cfg.associativity = 2; // 64 sets max
        cfg.size_bound_bytes = 1024;
        let mut c = DriICache::new(cfg);
        let s = 64 * 32; // stride that keeps the same set index
        let _ = c.access(0, 0);
        let _ = c.access(s, 0);
        assert!(c.probe(0) && c.probe(s));
        let _ = c.access(2 * s, 0); // evicts LRU (block 0)
        assert!(!c.probe(0));
        assert!(c.probe(s) && c.probe(2 * s));
    }

    #[test]
    fn fpppp_style_full_size_bound_never_resizes() {
        let mut cfg = small_cfg();
        cfg.size_bound_bytes = cfg.max_size_bytes;
        let mut c = DriICache::new(cfg);
        assert_eq!(c.config().resizing_tag_bits(), 0);
        let mut cycle = 0;
        for _ in 0..5 {
            idle_interval(&mut c, &mut cycle, 1000);
        }
        assert_eq!(c.active_sets(), 128);
        assert!(c.resize_events().is_empty());
    }

    #[test]
    fn instruction_counts_accumulate_across_calls() {
        let mut c = DriICache::new(small_cfg());
        // 4 calls of 250 instructions cross one 1000-inst interval.
        for i in 1..=4u64 {
            c.retire_instructions(250, i * 250);
        }
        assert_eq!(c.intervals_elapsed(), 1);
        assert_eq!(c.active_sets(), 64);
    }

    #[test]
    fn retire_budget_counts_down_to_the_interval_end() {
        let mut c = DriICache::new(small_cfg());
        assert_eq!(c.retire_budget(), 1000);
        c.retire_instructions(999, 999);
        assert_eq!(c.retire_budget(), 1);
        assert_eq!(c.intervals_elapsed(), 0, "short of the budget: no boundary");
        c.retire_instructions(1, 1000);
        assert_eq!(c.retire_budget(), 1000, "a new interval starts");
        assert_eq!(c.intervals_elapsed(), 1);
    }
}
