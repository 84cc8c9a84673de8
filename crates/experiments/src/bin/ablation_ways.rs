//! Ablation: set-resizing (the DRI i-cache) vs way-resizing (the
//! Albonesi-style alternative paper §2 argues against), on the 64K 4-way
//! geometry, using the same miss-bound feedback loop for both.

use dri_core::{DriConfig, WayConfig};
use dri_experiments::harness::{banner, base_config, for_each_benchmark, space};
use dri_experiments::report::{pct, Table};
use dri_experiments::runner::{
    compare_with_baseline, run_conventional, run_dri, run_way_resizable,
};
use dri_experiments::search::search_benchmark;

fn main() {
    banner(
        "Ablation: set-resizing (DRI) vs way-resizing (selective ways)",
        "~quantifies the design argument of section 2 of Yang et al., HPCA 2001",
    );
    let grid = space();
    let rows = for_each_benchmark(&dri_experiments::config().benchmarks, |b| {
        // Tune on the 4-way geometry, then run both resizing styles with
        // the same feedback parameters against the same 4-way baseline.
        let mut base = base_config(b);
        base.dri = DriConfig {
            miss_bound: base.dri.miss_bound,
            size_bound_bytes: base.dri.size_bound_bytes,
            sense_interval: base.dri.sense_interval,
            ..DriConfig::hpca01_64k_4way()
        };
        let sr = search_benchmark(&base, &grid);
        let mut tuned = base.clone();
        tuned.dri.miss_bound = sr.constrained.miss_bound;
        tuned.dri.size_bound_bytes = sr.constrained.size_bound_bytes;

        let baseline = run_conventional(&tuned);
        let dri = run_dri(&tuned);
        let set_cmp = compare_with_baseline(&tuned, &baseline, &dri);

        let way_cfg = WayConfig {
            miss_bound: tuned.dri.miss_bound,
            sense_interval: tuned.dri.sense_interval,
            ..WayConfig::hpca01_64k_4way()
        };
        let way = run_way_resizable(&tuned, way_cfg);
        let way_cmp = compare_with_baseline(&tuned, &baseline, &way);
        (set_cmp, way_cmp)
    });

    let mut t = Table::new([
        "benchmark",
        "set: rel-ED",
        "set: avg size",
        "set: slowdown",
        "way: rel-ED",
        "way: avg size",
        "way: slowdown",
    ]);
    let mut set_sum = 0.0;
    let mut way_sum = 0.0;
    for (b, (set_cmp, way_cmp)) in &rows {
        t.row([
            b.name().to_owned(),
            format!("{:.2}", set_cmp.relative_energy_delay),
            pct(set_cmp.avg_size_fraction),
            pct(set_cmp.slowdown),
            format!("{:.2}", way_cmp.relative_energy_delay),
            pct(way_cmp.avg_size_fraction),
            pct(way_cmp.slowdown),
        ]);
        set_sum += set_cmp.relative_energy_delay;
        way_sum += way_cmp.relative_energy_delay;
    }
    print!("{}", t.render());
    let n = rows.len() as f64;
    println!();
    println!(
        "mean relative energy-delay: set-resizing {:.2}, way-resizing {:.2}",
        set_sum / n,
        way_sum / n
    );
    println!(
        "expected: way-resizing bottoms out at size/associativity (16K of 64K), \
         so small-working-set benchmarks cannot reach their required size — \
         the granularity argument of paper section 2."
    );
}
