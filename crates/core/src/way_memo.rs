//! A way-memoizing i-cache: links between consecutively fetched lines
//! steer both the probe and the leakage gating.
//!
//! Ishihara & Fallah's *way memoization* stores, with each cache line, a
//! link to the line fetched next, so the following access can probe a
//! single way instead of all ways (their goal was dynamic energy). This
//! module adapts the idea into a *leakage* policy, so it can be swept
//! side by side with the DRI i-cache, cache decay, and way-resizing:
//!
//! * each line carries a **link** to the line (set × ways + way) that was
//!   fetched after it; a matching link turns the next access into a
//!   single-way *memo probe*;
//! * the links double as a liveness oracle: a line that is the target of
//!   a link is probably about to be fetched again, so the gating sweep
//!   only powers off **unlinked** lines after one *gate interval* of
//!   idleness — linked lines get four intervals before they are gated
//!   regardless;
//! * a gated line keeps its tag (like cache decay), so an access to it is
//!   classified as a *gate-induced miss* and the line is refilled and
//!   re-powered.
//!
//! The leakage accounting (time-weighted live-line integration at
//! `gate_interval / 4` sweep granularity) mirrors [`crate::decay`], so
//! head-to-head energy numbers differ only by policy, not by bookkeeping.

use cache_sim::icache::InstCache;
use cache_sim::policy::LeakagePolicy;
use cache_sim::replacement::ReplacementPolicy;
use cache_sim::stats::CacheStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration for [`WayMemoICache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMemoConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Hit latency in cycles.
    pub latency: u64,
    /// An *unlinked* line idle for this many cycles is gated off; linked
    /// lines survive four intervals before gating.
    pub gate_interval_cycles: u64,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl WayMemoConfig {
    /// A 64K four-way way-memoizing i-cache (way memoization needs
    /// associativity to have something to memoize) with a 64K-cycle gate
    /// interval, matching the decay preset's mid-range interval.
    pub fn hpca01_64k_4way() -> Self {
        WayMemoConfig {
            size_bytes: 64 * 1024,
            block_bytes: 32,
            associativity: 4,
            latency: 1,
            gate_interval_cycles: 64 * 1024,
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Checks the invariants.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two geometry or a zero gate interval.
    pub fn validate(&self) {
        assert!(self.size_bytes.is_power_of_two(), "size must be 2^n");
        assert!(self.block_bytes.is_power_of_two(), "block must be 2^n");
        assert!(self.associativity >= 1, "need at least one way");
        assert!(
            self.gate_interval_cycles > 0,
            "gate interval must be positive"
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
    /// A valid line may still be *gated*: powered off with its tag
    /// retained, so gate-induced misses can be classified.
    gated: bool,
    block_addr: u64,
    last_used_cycle: u64,
    lru: u64,
    filled_at: u64,
    /// Line index (set × ways + way) fetched right after this line, if
    /// any — the memoized way.
    link: Option<u32>,
}

/// Way-memoization statistics beyond the common cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WayMemoStats {
    /// Hits resolved by the single-way memo probe alone.
    pub memo_hits: u64,
    /// Accesses that fell back to probing every powered way.
    pub full_probes: u64,
    /// Misses caused by gating (the line was present but powered off).
    pub gate_induced_misses: u64,
    /// Lines gated off by the sweeps.
    pub lines_gated: u64,
}

/// The way-memoizing i-cache.
#[derive(Debug, Clone)]
pub struct WayMemoICache {
    cfg: WayMemoConfig,
    lines: Vec<Line>,
    /// Incoming-link count per line frame: how many lines' `link` point
    /// here. A nonzero count defers gating (the frame is predicted to be
    /// fetched soon).
    link_refs: Vec<u32>,
    /// The line accessed (hit or filled) most recently, whose `link` the
    /// next access updates — and follows for its memo probe.
    prev_line: Option<usize>,
    stats: CacheStats,
    memo_stats: WayMemoStats,
    clock: u64,
    rng: SmallRng,
    // Precomputed geometry (shift/mask indexing, as in the sibling models).
    offset_bits: u32,
    index_mask: u64,
    ways: usize,
    // Active-fraction integration: swept periodically like cache decay.
    next_sweep_cycle: u64,
    last_mark_cycle: u64,
    weighted_live_cycles: f64,
    live_at_mark: u64,
    finished_at: Option<u64>,
}

impl WayMemoICache {
    /// Builds an empty way-memoizing cache (empty lines count as gated).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: WayMemoConfig) -> Self {
        cfg.validate();
        let total = (cfg.num_sets() * u64::from(cfg.associativity)) as usize;
        let sweep = (cfg.gate_interval_cycles / 4).max(1);
        WayMemoICache {
            lines: vec![Line::default(); total],
            link_refs: vec![0; total],
            prev_line: None,
            stats: CacheStats::default(),
            memo_stats: WayMemoStats::default(),
            clock: 0,
            rng: SmallRng::seed_from_u64(0x3A31_0C8E),
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
    pub fn config(&self) -> &WayMemoConfig {
        &self.cfg
    }

    /// Way-memoization statistics.
    pub fn memo_stats(&self) -> &WayMemoStats {
        &self.memo_stats
    }

    /// Number of lines currently powered (valid and not gated).
    pub fn live_lines(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid && !l.gated).count() as u64
    }

    /// Average powered fraction of the array over the run (integrated at
    /// sweep granularity: gate_interval / 4).
    pub fn avg_active_fraction(&self) -> f64 {
        let end = self.finished_at.unwrap_or(self.last_mark_cycle);
        if end == 0 {
            return 1.0;
        }
        (self.weighted_live_cycles / end as f64) / self.lines.len() as f64
    }

    /// Points `from`'s link at `to`, maintaining the incoming-link
    /// refcounts that steer the gating sweep.
    fn relink(&mut self, from: usize, to: usize) {
        if let Some(old) = self.lines[from].link {
            if old as usize == to {
                return;
            }
            self.link_refs[old as usize] = self.link_refs[old as usize].saturating_sub(1);
        }
        self.lines[from].link = Some(to as u32);
        self.link_refs[to] += 1;
    }

    /// Clears `at`'s outgoing link (used when its frame is refilled with
    /// a new block, whose successor is not yet known).
    fn unlink(&mut self, at: usize) {
        if let Some(old) = self.lines[at].link.take() {
            self.link_refs[old as usize] = self.link_refs[old as usize].saturating_sub(1);
        }
    }

    fn sweep(&mut self, cycle: u64) {
        // Integrate the previous segment at its live count, then re-count.
        let span = (cycle.max(self.last_mark_cycle) - self.last_mark_cycle) as f64;
        self.weighted_live_cycles += span * self.live_at_mark as f64;
        self.last_mark_cycle = cycle.max(self.last_mark_cycle);
        let interval = self.cfg.gate_interval_cycles;
        let mut live = 0u64;
        for (i, line) in self.lines.iter_mut().enumerate() {
            if !line.valid || line.gated {
                continue;
            }
            let idle = cycle.saturating_sub(line.last_used_cycle);
            let unlinked = self.link_refs[i] == 0;
            if idle >= 4 * interval || (idle >= interval && unlinked) {
                line.gated = true;
                self.memo_stats.lines_gated += 1;
            } else {
                live += 1;
            }
        }
        self.live_at_mark = live;
        let step = (interval / 4).max(1);
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

impl InstCache for WayMemoICache {
    fn access(&mut self, addr: u64, cycle: u64) -> bool {
        self.maybe_sweep(cycle);
        self.clock += 1;
        self.stats.accesses += 1;
        self.stats.reads += 1;
        let block = addr >> self.offset_bits;
        let set = block & self.index_mask;
        let range = self.set_range(set);

        // Memo probe: follow the previously accessed line's link. A match
        // costs a single way; anything else falls back to a full probe.
        let memo_target = self.prev_line.and_then(|p| self.lines[p].link);
        let mut hit_at = None;
        if let Some(t) = memo_target {
            let t = t as usize;
            if range.contains(&t) {
                let line = &self.lines[t];
                if line.valid && !line.gated && line.block_addr == block {
                    hit_at = Some(t);
                    self.memo_stats.memo_hits += 1;
                }
            }
        }

        let mut gated_match = false;
        if hit_at.is_none() {
            self.memo_stats.full_probes += 1;
            for i in range.clone() {
                let line = &mut self.lines[i];
                if line.valid && line.block_addr == block {
                    if line.gated {
                        // Present but powered off: the gating was premature.
                        line.valid = false;
                        gated_match = true;
                    } else {
                        hit_at = Some(i);
                    }
                    break;
                }
            }
        }

        if let Some(i) = hit_at {
            let clock = self.clock;
            let line = &mut self.lines[i];
            line.last_used_cycle = cycle;
            line.lru = clock;
            self.stats.hits += 1;
            if let Some(p) = self.prev_line {
                self.relink(p, i);
            }
            self.prev_line = Some(i);
            return true;
        }

        self.stats.misses += 1;
        if gated_match {
            self.memo_stats.gate_induced_misses += 1;
        }

        // Allocate: prefer an invalid or gated way, else evict.
        let lines = &mut self.lines[range.clone()];
        let victim_way = if let Some(i) = lines.iter().position(|l| !l.valid || l.gated) {
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
        let victim = range.start + victim_way;
        // The frame's old successor link dies with its old block; incoming
        // links to the frame stay (they now mispredict and self-correct).
        self.unlink(victim);
        self.lines[victim] = Line {
            valid: true,
            gated: false,
            block_addr: block,
            last_used_cycle: cycle,
            lru: self.clock,
            filled_at: self.clock,
            link: None,
        };
        if let Some(p) = self.prev_line {
            if p != victim {
                self.relink(p, victim);
            }
        }
        self.prev_line = Some(victim);
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

impl LeakagePolicy for WayMemoICache {
    fn policy_id(&self) -> &'static str {
        "way_memo"
    }

    fn active_size_bytes(&self) -> u64 {
        self.live_lines() * self.cfg.block_bytes
    }

    fn avg_active_fraction(&self) -> f64 {
        WayMemoICache::avg_active_fraction(self)
    }

    fn avg_size_bytes(&self) -> f64 {
        WayMemoICache::avg_active_fraction(self) * self.cfg.size_bytes as f64
    }

    fn resizes(&self) -> u64 {
        self.memo_stats.lines_gated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(interval: u64) -> WayMemoConfig {
        WayMemoConfig {
            size_bytes: 2048,
            block_bytes: 32,
            associativity: 2,
            latency: 1,
            gate_interval_cycles: interval,
            replacement: ReplacementPolicy::Lru,
        }
    }

    #[test]
    fn repeated_loops_hit_through_the_memo_links() {
        let mut c = WayMemoICache::new(small(1_000_000));
        let mut cycle = 0;
        // First pass builds the links; later passes follow them.
        for _ in 0..10 {
            for i in 0..8u64 {
                cycle += 1;
                let _ = c.access(i * 32, cycle);
            }
        }
        assert_eq!(c.stats().misses, 8, "one cold miss per block");
        assert!(
            c.memo_stats().memo_hits >= 8 * 8,
            "steady-state passes ride the links: {:?}",
            c.memo_stats()
        );
    }

    #[test]
    fn unlinked_idle_lines_gate_after_one_interval() {
        let mut c = WayMemoICache::new(small(1000));
        for i in 0..8u64 {
            let _ = c.access(i * 32, 0);
        }
        // Break the chain into line 0 so its frame is unlinked, then idle.
        assert_eq!(c.live_lines(), 8);
        let _ = c.access(9000 * 32, 10); // park prev elsewhere
        c.finish(5000);
        assert!(c.live_lines() < 9, "idle lines were gated");
        assert!(c.memo_stats().lines_gated >= 1);
    }

    #[test]
    fn gated_lines_miss_and_refill() {
        let mut c = WayMemoICache::new(small(1000));
        let _ = c.access(0x100, 0);
        // Idle far past 4x the interval: gated even though linked-ness
        // may linger.
        assert!(!c.access(0x100, 10_000), "gate-induced miss");
        assert_eq!(c.memo_stats().gate_induced_misses, 1);
        assert!(c.access(0x100, 10_010), "refilled and re-powered");
    }

    #[test]
    fn linked_lines_survive_longer_than_unlinked_ones() {
        let mut c = WayMemoICache::new(small(1000));
        // A->B->A loop: both frames end up link targets.
        for n in 0..6u64 {
            let _ = c.access(0x100 + (n % 2) * 0x20, n);
        }
        let linked_live_at = |cycle| {
            let mut probe = c.clone();
            probe.finish(cycle);
            probe.live_lines()
        };
        // After one interval the linked pair is still powered...
        assert_eq!(linked_live_at(1500), 2, "linked lines deferred");
        // ...but past four intervals everything idle is gated.
        assert_eq!(linked_live_at(5000), 0);
    }

    #[test]
    fn active_fraction_falls_for_idle_caches() {
        let mut c = WayMemoICache::new(small(1000));
        for i in 0..32u64 {
            let _ = c.access(i * 32, 0);
        }
        c.finish(100_000);
        assert!(
            WayMemoICache::avg_active_fraction(&c) < 0.1,
            "fraction {}",
            WayMemoICache::avg_active_fraction(&c)
        );
    }

    #[test]
    fn leakage_policy_surface_is_consistent() {
        let mut c = WayMemoICache::new(small(1000));
        let _ = c.access(0x40, 0);
        let _ = c.access(0x60, 1);
        c.finish(100);
        assert_eq!(LeakagePolicy::policy_id(&c), "way_memo");
        assert_eq!(c.active_size_bytes(), 2 * 32);
        let cfg_bytes = c.config().size_bytes as f64;
        let via_trait = LeakagePolicy::avg_size_bytes(&c);
        let direct = WayMemoICache::avg_active_fraction(&c) * cfg_bytes;
        assert_eq!(via_trait.to_bits(), direct.to_bits());
        assert_eq!(c.resizing_tag_bits(), 0);
    }

    #[test]
    fn evicting_a_frame_clears_its_outgoing_link() {
        let mut cfg = small(1_000_000);
        cfg.associativity = 1; // 64 sets, DM: easy conflicts
        let mut c = WayMemoICache::new(cfg);
        let stride = 64 * 32; // same-set stride
        let _ = c.access(0, 0);
        let _ = c.access(32, 1); // line 0 -> line 1 link
        let _ = c.access(stride, 2); // evicts block 0's frame

        // The refcount bookkeeping must stay balanced: re-walking the
        // chain rebuilds links without underflow or double counts.
        for n in 0..6u64 {
            let _ = c.access((n % 3) * 32, 10 + n);
        }
        let total_refs: u32 = c.link_refs.iter().sum();
        let total_links = c.lines.iter().filter(|l| l.link.is_some()).count() as u32;
        assert_eq!(total_refs, total_links, "refcounts track links exactly");
    }

    #[test]
    #[should_panic(expected = "gate interval")]
    fn rejects_zero_interval() {
        let _ = WayMemoICache::new(small(0));
    }
}
