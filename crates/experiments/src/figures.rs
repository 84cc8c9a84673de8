//! The figure/table suites as library functions.
//!
//! Each published artifact of the paper used to live only inside its
//! binary's `main`; hoisting the bodies here lets the `suite` batch
//! runner execute any subset of them **in one process**, where they share
//! the global [`crate::session::SimSession`] (and, when `DRI_STORE` is
//! set, the on-disk result store): the Figure 4–6 sweeps reuse the
//! parameter-search points Figure 3 already simulated instead of paying
//! for them again. The per-artifact binaries (`figure3`, `table2`, …)
//! are now one-line wrappers over these functions, so `cargo run --bin
//! figure4` output is byte-identical to the `figure4` job of a suite run.
//!
//! Every search and sweep grid below batch-prefetches its key plan
//! through the session's cache tiers before fanning out (see
//! [`crate::session::SimSession::prefetch`]): on a worker with
//! `DRI_SHARDS` set, Figure 3's entire cross-benchmark grid arrives in
//! one `POST /batch` round-trip, and Figures 4–6/§5.6 plan each sweep's
//! points the same way.
//!
//! Every simulating suite covers the `benchmarks` it is given, in that
//! order: the binaries pass [`crate::config::Config::benchmarks`], and a
//! `suite --steal` worker passes the one benchmark it claimed.

use crate::harness::{banner, base_config, for_each_benchmark, space, threads};
use crate::published;
use crate::report::{kbytes, pct, Table};
use crate::search::{grid_configs, search_all, search_benchmark};
use crate::sweeps::{
    compare_variants, divisibility_grid, divisibility_sweep, geometry_grid, geometry_sweep,
    interval_grid, interval_sweep, miss_bound_grid, miss_bound_sweep, size_bound_grid,
    size_bound_sweep, GeometrySweep, MissBoundSweep, SizeBoundSweep,
};
use crate::Comparison;
use dri_core::{DriConfig, PolicyConfig};
use synth_workload::suite::Benchmark;

fn sweep_cell(c: &Comparison) -> String {
    let mark = if c.slowdown > 0.04 { "!" } else { "" };
    format!("{:.2} ({}{mark})", c.relative_energy_delay, pct(c.slowdown))
}

/// Tunes `base` to its performance-constrained best (miss-bound,
/// size-bound) — from [`base_config`], the starting point of every
/// Figure 4–6 sweep.
fn tuned(mut base: crate::RunConfig) -> crate::RunConfig {
    let sr = search_benchmark(&base, &space());
    base.dri.miss_bound = sr.constrained.miss_bound;
    base.dri.size_bound_bytes = sr.constrained.size_bound_bytes;
    base
}

/// Batch-prefetches everything a Figure 4–6/§5.6 sweep campaign (or the
/// policy shoot-out) will touch, before the per-benchmark fan-out
/// starts. Until this hook existed, only figure3's `search_all` planned
/// its whole campaign in one pass — the sweep figures prefetched per
/// benchmark, costing a cold worker one batch round-trip per benchmark
/// instead of one per campaign (and a `--steal` worker one per claimed
/// unit per sweep).
///
/// Two phases, because the sweep points are only known once the search
/// is resolved:
///
/// 1. the search grids around every benchmark's `base` that determine
///    its tuned base are planned as **one** cross-benchmark pass (for
///    [`base_config`], the same records figure3's `search_all` plans, so
///    an in-process or fleet-warm campaign resolves them from memory or
///    one round-trip);
/// 2. the tuned bases are computed (pure replay after phase 1 when the
///    store is warm) and every sweep point around them — enumerated by
///    `points`, e.g. [`miss_bound_grid`] — is planned as one more pass.
///
/// A no-op when prefetch is disabled (`DRI_PREFETCH=0`): the per-point
/// lookups inside the sweeps then behave exactly as before.
fn prefetch_sweep_campaign(
    benchmarks: &[Benchmark],
    base: impl Fn(Benchmark) -> crate::RunConfig + Sync,
    points: impl Fn(&crate::RunConfig) -> Vec<crate::RunConfig> + Sync,
) {
    if !crate::config::config().prefetch {
        return;
    }
    let search_grid: Vec<crate::RunConfig> = benchmarks
        .iter()
        .flat_map(|&b| grid_configs(&base(b), &space()))
        .collect();
    crate::session::prefetch_grid(&search_grid);
    let bases = crate::harness::parallel_map(benchmarks, |&b| tuned(base(b)));
    let sweep_grid: Vec<crate::RunConfig> = bases.iter().flat_map(&points).collect();
    crate::session::prefetch_grid(&sweep_grid);
}

/// Figure 3: base energy-delay and average cache size, performance-
/// constrained (≤4% slowdown) and performance-unconstrained, for all
/// fifteen benchmarks.
pub fn figure3(benchmarks: &[Benchmark]) {
    banner(
        "Figure 3: base energy-delay and average cache size measurements",
        "Figure 3 and section 5.3",
    );
    eprintln!(
        "searching miss-bound x size-bound per benchmark on {} threads...",
        threads()
    );
    let results = search_all(benchmarks, base_config, &space());
    let paper = published::figure3();

    let case_cells = |c: &Comparison| -> [String; 6] {
        [
            format!("{:.2}", c.relative_energy_delay),
            format!("{:.2}+{:.2}", c.leakage_component, c.dynamic_component),
            pct(c.avg_size_fraction),
            if c.slowdown > 0.04 {
                format!("{}!", pct(c.slowdown))
            } else {
                pct(c.slowdown)
            },
            format!("{:.2}%", c.dri_miss_rate * 100.0),
            format!("mb={} sb={}", c.miss_bound, kbytes(c.size_bound_bytes)),
        ]
    };

    let mut t = Table::new([
        "benchmark",
        "C:rel-ED",
        "C:leak+dyn",
        "C:avg-size",
        "C:slowdown",
        "C:missrate",
        "C:params",
        "U:rel-ED",
        "U:slowdown",
        "paper C:ED",
        "paper C:size",
    ]);
    let mut sum_c = 0.0;
    let mut sum_u = 0.0;
    let mut sum_size = 0.0;
    for r in &results {
        // Looked up by name rather than zipped: a `DRI_BENCHMARKS`-split
        // worker runs a subset of the campaign, and each row must still
        // sit next to its own published numbers.
        let p = paper
            .iter()
            .find(|p| p.benchmark == r.benchmark)
            .expect("every benchmark has published figure-3 numbers");
        let c = case_cells(&r.constrained);
        let mut cells: Vec<String> = vec![r.benchmark.name().to_owned()];
        cells.extend(c);
        cells.push(format!("{:.2}", r.unconstrained.relative_energy_delay));
        cells.push(pct(r.unconstrained.slowdown));
        cells.push(format!("{:.2}", p.relative_energy_delay));
        cells.push(pct(p.avg_size_fraction));
        t.row(cells);
        sum_c += r.constrained.relative_energy_delay;
        sum_u += r.unconstrained.relative_energy_delay;
        sum_size += r.constrained.avg_size_fraction;
    }
    print!("{}", t.render());
    let n = results.len() as f64;
    // A fleet-split worker (`DRI_BENCHMARKS`) covers a subset: its means
    // are labelled as partial so they are never read against the
    // paper's full-suite headlines.
    let partial = if results.len() == paper.len() {
        String::new()
    } else {
        format!(" [over {} of {} benchmarks]", results.len(), paper.len())
    };
    println!();
    println!(
        "mean constrained energy-delay reduction: {}{partial} (paper headline: {})",
        pct(1.0 - sum_c / n),
        pct(published::HEADLINE_CONSTRAINED_REDUCTION)
    );
    println!(
        "mean unconstrained energy-delay reduction: {}{partial} (paper headline: {})",
        pct(1.0 - sum_u / n),
        pct(published::HEADLINE_UNCONSTRAINED_REDUCTION)
    );
    println!(
        "mean constrained cache-size reduction: {}{partial} (paper: ~62%)",
        pct(1.0 - sum_size / n)
    );
    println!();
    println!("legend: C = performance-constrained (slowdown <= 4%), U = unconstrained;");
    println!("        leak+dyn are the stacked components of the relative energy-delay;");
    println!("        '!' marks slowdown above the 4% constraint.");
}

/// Figure 4: impact of varying the miss-bound (0.5x, 1x, 2x of each
/// benchmark's performance-constrained base value).
pub fn figure4(benchmarks: &[Benchmark]) {
    banner("Figure 4: impact of varying the miss-bound", "Figure 4");
    prefetch_sweep_campaign(benchmarks, base_config, miss_bound_grid);
    let rows: Vec<(Benchmark, MissBoundSweep)> =
        for_each_benchmark(benchmarks, |b| miss_bound_sweep(&tuned(base_config(b))));

    let mut t = Table::new([
        "benchmark",
        "0.5x miss-bound",
        "base miss-bound",
        "2x miss-bound",
        "base mb",
    ]);
    for (b, s) in &rows {
        t.row([
            b.name().to_owned(),
            sweep_cell(&s.half),
            sweep_cell(&s.base),
            sweep_cell(&s.double),
            s.base.miss_bound.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!("cells are relative energy-delay (slowdown); '!' = above the 4% constraint.");
    println!(
        "paper: \"despite varying the miss-bound over a factor of four range, most \
         of the energy-delay products do not change significantly\" — exceptions \
         gcc, go, perl, tomcatv (5-8% slowdown at 2x)."
    );
}

/// Figure 5: impact of varying the size-bound (2x, 1x, 0.5x of each
/// benchmark's performance-constrained base value).
pub fn figure5(benchmarks: &[Benchmark]) {
    banner("Figure 5: impact of varying the size-bound", "Figure 5");
    let opt_cell = |c: &Option<Comparison>| c.as_ref().map_or("N/A".to_owned(), sweep_cell);
    prefetch_sweep_campaign(benchmarks, base_config, size_bound_grid);
    let rows: Vec<(Benchmark, SizeBoundSweep)> =
        for_each_benchmark(benchmarks, |b| size_bound_sweep(&tuned(base_config(b))));

    let mut t = Table::new([
        "benchmark",
        "2x size-bound",
        "base size-bound",
        "0.5x size-bound",
        "base sb",
    ]);
    for (b, s) in &rows {
        t.row([
            b.name().to_owned(),
            opt_cell(&s.double),
            sweep_cell(&s.base),
            opt_cell(&s.half),
            kbytes(s.base.size_bound_bytes),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!("cells are relative energy-delay (slowdown); '!' = above the 4% constraint;");
    println!("N/A mirrors the paper's 'NOT APPLICABLE' column (bound at the cache size).");
    println!(
        "paper: a smaller size-bound shrinks the cache further, but class-1 \
         benchmarks thrash below their working set and class-3 benchmarks pay \
         extra dynamic energy — the energy-delay can worsen in both directions."
    );
}

/// Figure 6: varying conventional cache parameters — 64K 4-way vs 64K
/// direct-mapped vs 128K direct-mapped (each normalized to a conventional
/// cache of equivalent geometry).
pub fn figure6(benchmarks: &[Benchmark]) {
    banner(
        "Figure 6: varying conventional cache parameters (A: 64K 4-way, B: 64K DM, C: 128K DM)",
        "Figure 6 and section 5.5",
    );
    prefetch_sweep_campaign(benchmarks, base_config, geometry_grid);
    let rows: Vec<(Benchmark, GeometrySweep)> =
        for_each_benchmark(benchmarks, |b| geometry_sweep(&tuned(base_config(b))));

    let mut t = Table::new([
        "benchmark",
        "A: 64K 4-way",
        "B: 64K DM",
        "C: 128K DM",
        "A avg-size",
        "B avg-size",
        "C avg-size",
    ]);
    let mut sums = [0.0f64; 3];
    for (b, s) in &rows {
        t.row([
            b.name().to_owned(),
            sweep_cell(&s.assoc_4way),
            sweep_cell(&s.dm_64k),
            sweep_cell(&s.dm_128k),
            pct(s.assoc_4way.avg_size_fraction),
            pct(s.dm_64k.avg_size_fraction),
            pct(s.dm_128k.avg_size_fraction),
        ]);
        sums[0] += s.assoc_4way.relative_energy_delay;
        sums[1] += s.dm_64k.relative_energy_delay;
        sums[2] += s.dm_128k.relative_energy_delay;
    }
    print!("{}", t.render());
    let n = rows.len() as f64;
    println!();
    println!(
        "mean relative energy-delay: 4-way {:.2}, 64K DM {:.2}, 128K DM {:.2}",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
    println!(
        "paper: higher associativity absorbs conflicts and encourages downsizing; \
         larger caches gain more because a bigger fraction can be put in standby — \
         both variants should (on average) match or beat the 64K DM design point."
    );
}

/// Table 1: the system configuration actually simulated.
pub fn table1() {
    banner("Table 1: system configuration parameters", "Table 1");
    let cpu = ooo_cpu::config::CpuConfig::hpca01();
    let hier = cache_sim::hierarchy::HierarchyConfig::hpca01();
    let dri = dri_core::DriConfig::hpca01_64k_dm();

    let mut t = Table::new(["parameter", "paper", "simulated"]);
    t.row([
        "instruction issue & decode bandwidth",
        "8 issues per cycle",
        &format!("{} issues per cycle", cpu.issue_width),
    ]);
    t.row([
        "L1 i-cache / L1 DRI i-cache",
        "64K, direct-mapped, 1 cycle latency",
        &format!(
            "{}, {}-way, {} cycle latency, {}B blocks",
            kbytes(dri.max_size_bytes),
            dri.associativity,
            dri.latency,
            dri.block_bytes
        ),
    ]);
    t.row([
        "L1 d-cache",
        "64K, 2-way (LRU), 1 cycle latency",
        &format!(
            "{}, {}-way (LRU), {} cycle latency",
            kbytes(hier.l1d.size_bytes),
            hier.l1d.associativity,
            hier.l1d.latency
        ),
    ]);
    t.row([
        "L2 cache",
        "1M, 4-way, unified, 12 cycle latency",
        &format!(
            "{}, {}-way, unified, {} cycle latency",
            kbytes(hier.l2.size_bytes),
            hier.l2.associativity,
            hier.l2.latency
        ),
    ]);
    t.row([
        "memory access latency",
        "80 cycles + 4 cycles per 8 bytes",
        &format!(
            "{} cycles + {} cycles per 8 bytes",
            hier.memory.base_latency, hier.memory.per_8_bytes
        ),
    ]);
    t.row(["reorder buffer size", "128", &cpu.rob_entries.to_string()]);
    t.row(["LSQ size", "128", &cpu.lsq_entries.to_string()]);
    t.row([
        "branch predictor",
        "2-level hybrid",
        "2-level hybrid (bimodal 4K + gshare 4K + chooser 4K, 512-entry BTB, 8-deep RAS)",
    ]);
    print!("{}", t.render());

    println!();
    println!(
        "DRI defaults: sense interval {} instructions (paper example: 1M; \
         scaled with the shorter synthetic runs), divisibility {}, throttle \
         {}-bit counter / {}-interval lockout.",
        dri.sense_interval,
        dri.divisibility,
        dri.throttle.counter_bits,
        dri.throttle.lockout_intervals
    );
}

/// Table 2: energy, speed, and area trade-off of varying threshold voltage
/// and gated-Vdd — model output next to the published numbers.
pub fn table2() {
    use sram_circuit::process::Process;
    use sram_circuit::table2::{generate, generate_extended, published, OperatingPoint};

    let fmt_e = |e: Option<f64>| e.map_or("N/A".to_owned(), |v| format!("{:.0}", v * 1e9));

    banner(
        "Table 2: threshold voltage and gated-Vdd trade-offs (0.18um, 1.0V, 110C)",
        "Table 2",
    );
    let process = Process::tsmc180();
    let op = OperatingPoint::default();
    let rows = generate(&process, op);

    let mut t = Table::new([
        "technique",
        "gated-Vdd Vt",
        "SRAM Vt",
        "rel. read time (model/paper)",
        "active leak e-9 nJ (model/paper)",
        "standby leak e-9 nJ (model/paper)",
        "savings % (model/paper)",
        "area % (model/paper)",
    ]);
    for (row, (_, p_read, p_active, p_standby, p_savings, p_area)) in
        rows.iter().zip(published::TABLE2)
    {
        t.row([
            row.technique.clone(),
            row.gate_vt
                .map_or("N/A".to_owned(), |v| format!("{:.2}V", v.value())),
            format!("{:.2}V", row.sram_vt.value()),
            format!("{:.2} / {:.2}", row.relative_read_time, p_read),
            format!(
                "{:.0} / {:.0}",
                row.active_leakage.value() * 1e9,
                p_active * 1e9
            ),
            format!(
                "{} / {}",
                fmt_e(row.standby_leakage.map(|e| e.value())),
                fmt_e(p_standby)
            ),
            format!(
                "{} / {}",
                row.energy_savings_pct
                    .map_or("N/A".to_owned(), |v| format!("{v:.0}")),
                p_savings.map_or("N/A".to_owned(), |v| format!("{v:.0}"))
            ),
            format!(
                "{} / {}",
                row.area_increase_pct
                    .map_or("N/A".to_owned(), |v| format!("{v:.1}")),
                p_area.map_or("N/A".to_owned(), |v| format!("{v:.1}"))
            ),
        ]);
    }
    print!("{}", t.render());

    println!();
    println!("Extended trade-off table (ablations beyond the paper's columns):");
    for row in generate_extended(&process, op).iter().skip(3) {
        println!("  {row}");
    }
}

/// §5.6: sense-interval length and divisibility robustness.
pub fn section5_6(benchmarks: &[Benchmark]) {
    banner(
        "Section 5.6: varying sense-interval length and divisibility",
        "section 5.6",
    );
    prefetch_sweep_campaign(benchmarks, base_config, |tuned| {
        let base_si = tuned.dri.sense_interval;
        let mut grid = interval_grid(
            tuned,
            &[base_si / 4, base_si / 2, base_si, base_si * 2, base_si * 4],
        );
        grid.extend(divisibility_grid(tuned, &[2, 4, 8]));
        grid
    });
    type Rows = (Vec<(u64, Comparison)>, Vec<(u32, Comparison)>);
    let rows: Vec<(Benchmark, Rows)> = for_each_benchmark(benchmarks, |b| {
        let tuned = tuned(base_config(b));
        let base_si = tuned.dri.sense_interval;
        let intervals = interval_sweep(
            &tuned,
            &[base_si / 4, base_si / 2, base_si, base_si * 2, base_si * 4],
        );
        let divs = divisibility_sweep(&tuned, &[2, 4, 8]);
        (intervals, divs)
    });

    println!("\n-- sense-interval sweep (relative energy-delay per interval length) --");
    let mut t = Table::new(["benchmark", "1/4x", "1/2x", "1x", "2x", "4x", "max |dED|"]);
    for (b, (intervals, _)) in &rows {
        let base_ed = intervals[2].1.relative_energy_delay;
        let spread = intervals
            .iter()
            .map(|(_, c)| (c.relative_energy_delay - base_ed).abs())
            .fold(0.0f64, f64::max);
        let mut cells = vec![b.name().to_owned()];
        cells.extend(
            intervals
                .iter()
                .map(|(_, c)| format!("{:.3}", c.relative_energy_delay)),
        );
        cells.push(format!("{spread:.3}"));
        t.row(cells);
    }
    print!("{}", t.render());

    println!("\n-- divisibility sweep (relative energy-delay / slowdown) --");
    let mut t = Table::new(["benchmark", "div 2", "div 4", "div 8"]);
    for (b, (_, divs)) in &rows {
        let mut cells = vec![b.name().to_owned()];
        cells.extend(
            divs.iter()
                .map(|(_, c)| format!("{:.2} ({})", c.relative_energy_delay, pct(c.slowdown))),
        );
        t.row(cells);
    }
    print!("{}", t.render());
    println!();
    println!(
        "paper: interval-length robustness (<1% change, go <5%); divisibility 4/8 \
         \"prohibitively increases the resizing granularity\"."
    );
}

/// The paper's base on the 64K 4-way geometry — the one geometry every
/// leakage policy can exercise (way-granular policies need ways to gate;
/// the DRI cache resizes sets either way). It is tuned under the DRI
/// feedback loop regardless of any ambient `DRI_POLICY`, so all four
/// policies below start from the *same* tuned (miss-bound, size-bound)
/// point and the comparison isolates the policy itself.
fn four_way_base(b: Benchmark) -> crate::RunConfig {
    let mut base = base_config(b);
    base.policy = None;
    base.dri = DriConfig {
        miss_bound: base.dri.miss_bound,
        size_bound_bytes: base.dri.size_bound_bytes,
        sense_interval: base.dri.sense_interval,
        ..DriConfig::hpca01_64k_4way()
    };
    base
}

/// The four policy variants of one tuned configuration, in
/// [`PolicyConfig::all_ids`] order. Each derives its knobs from the
/// tuned DRI parameters (see the `PolicyConfig::*_from` constructors),
/// so the sweep compares mechanisms, not tuning budgets.
fn policy_variants(tuned: &crate::RunConfig) -> Vec<crate::RunConfig> {
    [
        PolicyConfig::Dri(tuned.dri),
        PolicyConfig::Decay(PolicyConfig::decay_from(&tuned.dri)),
        PolicyConfig::WayResize(PolicyConfig::way_resize_from(&tuned.dri)),
        PolicyConfig::WayMemo(PolicyConfig::way_memo_from(&tuned.dri)),
    ]
    .into_iter()
    .map(|p| {
        let mut cfg = tuned.clone();
        cfg.policy = Some(p);
        cfg
    })
    .collect()
}

/// Policy shoot-out: the paper's gated-Vdd DRI cache against cache decay,
/// Albonesi-style way resizing, and way memoization, side by side on the
/// 64K 4-way geometry from one tuned starting point per benchmark.
pub fn policies(benchmarks: &[Benchmark]) {
    banner(
        "Policy shoot-out: DRI vs decay vs way-resizing vs way-memoization",
        "~sweeps the leakage policies of section 2's design space side by side",
    );
    prefetch_sweep_campaign(benchmarks, four_way_base, policy_variants);

    let bases = crate::harness::parallel_map(benchmarks, |&b| tuned(four_way_base(b)));
    let rows: Vec<(Benchmark, Vec<Comparison>)> = benchmarks
        .iter()
        .copied()
        .zip(compare_variants(&bases, policy_variants))
        .collect();

    let ids = PolicyConfig::all_ids();
    let mut header: Vec<String> = vec!["benchmark".to_owned()];
    header.extend(ids.iter().map(|id| format!("{id}: rel-ED")));
    header.extend(ids.iter().map(|id| format!("{id}: avg-size")));
    let mut t = Table::new(header);
    let mut sums = vec![0.0f64; ids.len()];
    for (b, cmps) in &rows {
        let mut cells = vec![b.name().to_owned()];
        cells.extend(cmps.iter().map(sweep_cell));
        cells.extend(cmps.iter().map(|c| pct(c.avg_size_fraction)));
        t.row(cells);
        for (sum, c) in sums.iter_mut().zip(cmps) {
            *sum += c.relative_energy_delay;
        }
    }
    print!("{}", t.render());
    let n = rows.len() as f64;
    println!();
    println!(
        "mean relative energy-delay: {}",
        ids.iter()
            .zip(&sums)
            .map(|(id, s)| format!("{id} {:.2}", s / n))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();
    println!("cells are relative energy-delay (slowdown); '!' = above the 4% constraint.");
    println!(
        "expected: set-resizing (dri) tracks the working set but only at \
         set granularity; decay and way-memo gate individual idle lines, so \
         their powered fraction can fall further (way-memo keeps linked \
         lines powered longer); way-resizing bottoms out at \
         size/associativity — the granularity argument of paper section 2."
    );
}

/// §5.2.1: the analytic leakage/dynamic trade-off bounds.
pub fn tradeoff() {
    use energy_model::params::EnergyParams;
    use energy_model::tradeoff::{extra_l1_over_leakage, extra_l2_over_leakage};

    banner(
        "Section 5.2.1: leakage vs dynamic energy trade-off bounds",
        "section 5.2.1",
    );
    let published = EnergyParams::hpca01_published();
    let derived = EnergyParams::hpca01_derived();

    println!("constants (published / derived-from-circuit-model):");
    println!(
        "  L1 leakage per cycle: {:.3} / {:.3} nJ",
        published.l1_leak_per_cycle.value(),
        derived.l1_leak_per_cycle.value()
    );
    println!(
        "  resizing bitline:     {:.4} / {:.4} nJ",
        published.resizing_bitline_energy.value(),
        derived.resizing_bitline_energy.value()
    );
    println!(
        "  L2 access:            {:.2} / {:.2} nJ",
        published.l2_access_energy.value(),
        derived.l2_access_energy.value()
    );
    println!();

    println!("extra-L1-dynamic / L1-leakage (paper's example: 0.024 at 5 bits, active 0.5):");
    let mut t = Table::new(["resizing bits", "active 0.25", "active 0.50", "active 1.00"]);
    for bits in [3u32, 5, 6] {
        t.row([
            bits.to_string(),
            format!("{:.3}", extra_l1_over_leakage(&published, bits, 0.25)),
            format!("{:.3}", extra_l1_over_leakage(&published, bits, 0.50)),
            format!("{:.3}", extra_l1_over_leakage(&published, bits, 1.00)),
        ]);
    }
    print!("{}", t.render());
    println!();

    println!("extra-L2-dynamic / L1-leakage (paper's example: 0.08 at +1% misses, active 0.5):");
    let mut t = Table::new([
        "extra miss rate",
        "active 0.25",
        "active 0.50",
        "active 1.00",
    ]);
    for mr in [0.001f64, 0.005, 0.01] {
        t.row([
            format!("{:.1}%", mr * 100.0),
            format!("{:.3}", extra_l2_over_leakage(&published, 0.25, mr)),
            format!("{:.3}", extra_l2_over_leakage(&published, 0.50, mr)),
            format!("{:.3}", extra_l2_over_leakage(&published, 1.00, mr)),
        ]);
    }
    print!("{}", t.render());
    println!();
    println!(
        "conclusion (paper): even under extreme assumptions the dynamic overheads \
         are a few percent of the leakage energy, so sizable leakage savings survive."
    );
}
