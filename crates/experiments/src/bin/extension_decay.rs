//! Extension: DRI set-resizing vs per-line cache decay.
//!
//! The DRI paper spawned a line of leakage-control work whose next step
//! was cache decay (per-line gating after a fixed idle interval). This
//! harness runs both policies over the suite under identical substrates
//! and energy accounting, sweeping the decay interval.

use dri_core::{DecayConfig, PolicyConfig};
use dri_experiments::harness::{banner, base_config, parallel_map, space};
use dri_experiments::report::{pct, Table};
use dri_experiments::runner::RunConfig;
use dri_experiments::search::search_benchmark;
use dri_experiments::sweeps::compare_variants;

/// A decaying i-cache under the same system configuration, through the
/// policy path: the run is session-memoized and store-persisted under
/// the decay key (and honours `seed_override`/`instruction_budget` like
/// every other policy).
fn decay(cfg: &RunConfig, interval_cycles: u64) -> RunConfig {
    let mut cfg = cfg.clone();
    cfg.policy = Some(PolicyConfig::Decay(DecayConfig {
        decay_interval_cycles: interval_cycles,
        ..PolicyConfig::decay_from(&cfg.dri)
    }));
    cfg
}

fn main() {
    banner(
        "Extension: DRI set-resizing vs per-line cache decay",
        "~extends the paper: the successor policy its related-work line led to",
    );
    let grid = space();
    let decay_intervals: [u64; 2] = [32 * 1024, 256 * 1024];
    let benchmarks = &dri_experiments::config().benchmarks;
    let tuned = parallel_map(benchmarks, |&b| {
        let base = base_config(b);
        let sr = search_benchmark(&base, &grid);
        let mut tuned = base.clone();
        tuned.dri.miss_bound = sr.constrained.miss_bound;
        tuned.dri.size_bound_bytes = sr.constrained.size_bound_bytes;
        tuned
    });
    // Per benchmark: DRI, then decay at each interval.
    let rows: Vec<_> = benchmarks
        .iter()
        .zip(compare_variants(&tuned, |tuned| {
            let mut cfgs = vec![tuned.clone()];
            cfgs.extend(decay_intervals.iter().map(|&d| decay(tuned, d)));
            cfgs
        }))
        .map(|(b, cmps)| (b, (cmps[0], cmps[1..].to_vec())))
        .collect();

    let mut t = Table::new([
        "benchmark",
        "DRI: rel-ED (slow)",
        "decay 32K: rel-ED (slow)",
        "decay 256K: rel-ED (slow)",
        "DRI size",
        "decay32K size",
    ]);
    let mut sums = [0.0f64; 3];
    for (b, (dri_cmp, decays)) in &rows {
        t.row([
            b.name().to_owned(),
            format!(
                "{:.2} ({})",
                dri_cmp.relative_energy_delay,
                pct(dri_cmp.slowdown)
            ),
            format!(
                "{:.2} ({})",
                decays[0].relative_energy_delay,
                pct(decays[0].slowdown)
            ),
            format!(
                "{:.2} ({})",
                decays[1].relative_energy_delay,
                pct(decays[1].slowdown)
            ),
            pct(dri_cmp.avg_size_fraction),
            pct(decays[0].avg_size_fraction),
        ]);
        sums[0] += dri_cmp.relative_energy_delay;
        sums[1] += decays[0].relative_energy_delay;
        sums[2] += decays[1].relative_energy_delay;
    }
    print!("{}", t.render());
    let n = rows.len() as f64;
    println!();
    println!(
        "mean relative energy-delay: DRI {:.2}, decay-32K {:.2}, decay-256K {:.2}",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
    println!(
        "decay adapts per line with no parameter search and shines on large \
         working sets with dead blocks (gcc, go); DRI's explicit miss-rate \
         control bounds the slowdown, which decay cannot promise at short \
         intervals."
    );
}
