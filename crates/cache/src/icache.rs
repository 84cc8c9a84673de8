//! The instruction-cache abstraction the CPU fetches through.
//!
//! The i-cache is the experimental variable of the whole reproduction: every
//! experiment is a pair of runs that differ only in which implementation of
//! [`InstCache`] sits on the fetch path — [`ConventionalICache`] (the
//! baseline) or `dri_core::DriICache` (the paper's contribution).

use crate::cache::{AccessKind, Cache};
use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// An L1 instruction cache, as seen by the fetch stage.
///
/// Implementations allocate on miss internally (blocking fetch); the caller
/// models the miss latency by consulting the hierarchy. `cycle` is the
/// current simulation cycle, which adaptive implementations use to
/// integrate their active-size history; `retire_instructions` drives
/// sense-interval boundaries (the DRI i-cache measures intervals in dynamic
/// instructions, paper §2.1).
///
/// # Deferred retirement
///
/// A caller need not report every committed instruction as it commits.
/// [`retire_budget`](Self::retire_budget) says how many more instructions
/// may retire before one must be reported with its own commit cycle; the
/// timing model holds committed instructions back and reports them in
/// one `retire_instructions(n, commit)` call when `n` reaches the budget,
/// `commit` being the cycle at which the budget's last instruction
/// committed (and it flushes any remainder before [`finish`](Self::finish)).
/// Implementations must make that exact: a call whose `n` stays below
/// the budget may change nothing but the budget itself (nothing that
/// `access`, `finish` or an accounting accessor observes), so its
/// `cycle` goes unread.
pub trait InstCache {
    /// Fetch access for the block containing `addr`; returns `true` on hit.
    /// On a miss the block is allocated (the caller adds fill latency).
    fn access(&mut self, addr: u64, cycle: u64) -> bool;

    /// Hit latency in cycles.
    fn hit_latency(&self) -> u64;

    /// Block (line) size in bytes — fetch groups stop at block boundaries.
    fn block_bytes(&self) -> u64;

    /// How many more committed instructions may retire up to and
    /// including the one that ends the current sense interval, or
    /// `u64::MAX` for a cache whose retirement does nothing. Always at
    /// least 1. It changes only in [`Self::retire_instructions`].
    ///
    /// Required, not defaulted: a wrapper that forwards
    /// `retire_instructions` must forward this too, or its inner cache
    /// would hear of its interval ends late.
    fn retire_budget(&self) -> u64;

    /// Informs the cache that `n` instructions committed, the last of
    /// them at `cycle`, for interval accounting. The timing model never
    /// passes more than [`Self::retire_budget`]; a larger `n` ends every
    /// interval it completes at `cycle`. The default does nothing
    /// (conventional caches are not adaptive).
    fn retire_instructions(&mut self, n: u64, cycle: u64) {
        let _ = (n, cycle);
    }

    /// Closes out any time-integrated accounting at the end of a run.
    fn finish(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Access statistics.
    fn stats(&self) -> &CacheStats;
}

/// A fixed-size i-cache: the paper's baseline ("conventional i-cache using
/// an aggressively-scaled threshold voltage").
#[derive(Debug, Clone)]
pub struct ConventionalICache {
    cache: Cache,
}

impl ConventionalICache {
    /// Builds the baseline i-cache.
    pub fn new(cfg: CacheConfig) -> Self {
        ConventionalICache {
            cache: Cache::new(cfg),
        }
    }

    /// Table 1's 64K direct-mapped L1 i-cache.
    pub fn hpca01() -> Self {
        Self::new(CacheConfig::hpca01_l1i())
    }

    /// The underlying cache model.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Geometry.
    pub fn config(&self) -> &CacheConfig {
        self.cache.config()
    }
}

impl InstCache for ConventionalICache {
    #[inline]
    fn access(&mut self, addr: u64, _cycle: u64) -> bool {
        self.cache.access(addr, AccessKind::Read).hit
    }

    fn hit_latency(&self) -> u64 {
        self.cache.config().latency
    }

    fn block_bytes(&self) -> u64 {
        self.cache.config().block_bytes
    }

    fn retire_budget(&self) -> u64 {
        u64::MAX
    }

    fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_icache_hits_after_fill() {
        let mut ic = ConventionalICache::hpca01();
        assert!(!ic.access(0x1000, 0));
        assert!(ic.access(0x1000, 1));
        assert_eq!(ic.hit_latency(), 1);
        assert_eq!(ic.stats().accesses, 2);
        assert_eq!(ic.stats().misses, 1);
    }

    #[test]
    fn default_trait_hooks_are_noops() {
        let mut ic = ConventionalICache::hpca01();
        assert_eq!(ic.retire_budget(), u64::MAX);
        ic.retire_instructions(1_000_000, 123);
        ic.finish(456);
        assert_eq!(ic.stats().accesses, 0);
    }
}
