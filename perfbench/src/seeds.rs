//! Seed plumbing: the benchmark's `--seed` becomes per-benchmark
//! generator seeds (`RunConfig::seed_override`); the program under test
//! only ever sees the generated workloads.
//!
//! [`DEFAULT_SEED`] keeps the paper's per-benchmark seeds for its first
//! campaign (pass 0), which is what the `grid_cold` digest pins. Every
//! other (seed, pass) pair derives fresh seeds, so each pass of a run is
//! a cold key set. [`HELD_OUT_SEED`] was never run while the benchmark
//! was tuned; a later speed claim must also hold on it.

use synth_workload::suite::Benchmark;

/// Reproduces the paper's per-benchmark seeds on pass 0.
pub const DEFAULT_SEED: u64 = 0;

/// The seed reserved for checking claims on inputs nobody tuned against.
pub const HELD_OUT_SEED: u64 = 7919;

/// Pass numbers at and above this are set-up warm-ups, never timed ops.
pub const WARMUP_PASS: u64 = 1 << 32;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed for `benchmark` in `pass` of a run seeded `seed`:
/// `None` (the paper's seed) for the default seed's first pass.
pub fn seed_override(seed: u64, pass: u64, benchmark: Benchmark) -> Option<u64> {
    if seed == DEFAULT_SEED && pass == 0 {
        return None;
    }
    let index = Benchmark::all()
        .iter()
        .position(|&b| b == benchmark)
        .expect("every benchmark is in the suite") as u64;
    Some(splitmix64(splitmix64(splitmix64(seed) ^ pass) ^ index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_the_paper_seeds_on_its_first_pass_only() {
        for b in Benchmark::all() {
            assert_eq!(seed_override(DEFAULT_SEED, 0, b), None);
            assert!(seed_override(DEFAULT_SEED, 1, b).is_some());
            assert!(seed_override(HELD_OUT_SEED, 0, b).is_some());
        }
    }

    #[test]
    fn derived_seeds_are_distinct_and_repeatable() {
        let mut seen = std::collections::HashSet::new();
        for seed in [1, 2, HELD_OUT_SEED] {
            for pass in [0, 1, 2, WARMUP_PASS] {
                for b in Benchmark::all() {
                    let s = seed_override(seed, pass, b);
                    assert_eq!(s, seed_override(seed, pass, b));
                    assert!(seen.insert(s), "collision at {seed}/{pass}/{b:?}");
                }
            }
        }
    }
}
