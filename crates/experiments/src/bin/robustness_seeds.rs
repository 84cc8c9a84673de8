//! Robustness check: do the headline results depend on the particular
//! synthetic code bodies? Re-runs a representative benchmark per class
//! with several generator seeds (same footprint/phase structure,
//! different instruction mix, data, and layout jitter) at fixed DRI
//! parameters, and reports the spread.

use dri_experiments::harness::{banner, base_config};
use dri_experiments::report::{pct, Table};
use dri_experiments::sweeps::compare_variants;
use synth_workload::suite::Benchmark;

fn main() {
    banner(
        "Robustness: generator-seed sensitivity of the headline metrics",
        "~a validity check of this reproduction; no corresponding artifact in the paper",
    );
    let cases = [
        (Benchmark::Compress, 100u64, 4 * 1024u64),
        (Benchmark::Perl, 800, 32 * 1024),
        (Benchmark::Hydro2d, 50, 8 * 1024),
    ];
    let seeds = [1u64, 7, 42, 1234];
    let cfgs: Vec<_> = cases
        .iter()
        .flat_map(|&(bench, mb, sb)| {
            seeds.iter().map(move |&seed| {
                let mut cfg = base_config(bench);
                cfg.dri.miss_bound = mb;
                cfg.dri.size_bound_bytes = sb;
                cfg.seed_override = Some(seed);
                cfg
            })
        })
        .collect();
    // Every (case, seed) is its own stream: one grid resolves them all.
    let comparisons = compare_variants(&cfgs, |cfg| vec![cfg.clone()]);

    let mut t = Table::new([
        "benchmark",
        "seed",
        "rel-ED",
        "avg size",
        "slowdown",
        "conv miss/cyc",
    ]);
    for ((bench, _, _), rows) in cases.iter().zip(comparisons.chunks(seeds.len())) {
        let mut eds = Vec::new();
        for (&seed, row) in seeds.iter().zip(rows) {
            let c = row[0];
            t.row([
                bench.name().to_owned(),
                seed.to_string(),
                format!("{:.3}", c.relative_energy_delay),
                pct(c.avg_size_fraction),
                pct(c.slowdown),
                format!("{:.3}%", c.conventional_miss_rate * 100.0),
            ]);
            eds.push(c.relative_energy_delay);
        }
        let min = eds.iter().cloned().fold(f64::MAX, f64::min);
        let max = eds.iter().cloned().fold(f64::MIN, f64::max);
        t.row([
            format!("{} spread", bench.name()),
            "-".to_owned(),
            format!("{:.3}", max - min),
            "-".to_owned(),
            "-".to_owned(),
            "-".to_owned(),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!(
        "a small spread means the reproduction's conclusions rest on the \
         *structure* (footprints, phases) rather than on any particular \
         generated instruction sequence."
    );
}
