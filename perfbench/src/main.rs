//! The DRI reproduction's benchmark: three workloads, each timing many
//! short ops in one long run, reported end to end (untraced) or per
//! layer (traced). See `perfbench/README.md` for why each workload
//! exists and which layer metric should move which end-to-end metric.
//!
//! ```text
//! perfbench --workload <grid_cold|replay_sharded|steal_push>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! repeats the metrics with sample counts and the host's provenance.

mod calib;
mod fleet;
mod grid;
mod layers;
mod pin;
mod seeds;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where a run keeps its fleet stores and writes its span file: inside
/// the directory the benchmark runs from, never outside it.
pub const STATE_DIR: &str = ".perfbench";

/// Set-up repetitions per untraced run; `setup_s` is their median. A
/// traced run reports no `setup_s` and sets up once.
pub const SETUP_REPS: usize = 5;

/// Seconds a traced run spends in each of the other workloads.
pub const SECTION_SECONDS: u64 = 3;

/// Set-up repetitions a run makes.
pub fn setup_reps(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUP_REPS
    }
}

/// The workloads, in the order the README describes them.
pub const WORKLOADS: [&str; 3] = ["grid_cold", "replay_sharded", "steal_push"];

/// End-to-end metrics and their units, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("records_per_s", "1/s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workload.generate_ms", "ms"),
    ("workload.interp_ns_per_inst", "ns"),
    ("cpu.bpred_ns_per_branch", "ns"),
    ("cache.icache_ns_per_fetch", "ns"),
    ("core.dri_ns_per_fetch", "ns"),
    ("cache.hierarchy_ns_per_access", "ns"),
    ("cpu.core_run_conv_ns_per_inst", "ns"),
    ("cpu.core_run_dri_ns_per_inst", "ns"),
    ("cpu.ooo_self_ns_per_inst", "ns"),
    ("energy.compare_us", "us"),
    ("experiments.parallel_eff", "ratio"),
    ("experiments.baseline_share", "ratio"),
    ("experiments.session_sims_per_op", "count"),
    ("experiments.session_dup_sims", "count"),
    ("sim.instructions_per_op", "count"),
    ("sim.icache_misses_per_op", "count"),
    ("sim.resizes_per_op", "count"),
    ("experiments.prefetch_ms", "ms"),
    ("experiments.resolve_ns_per_record", "ns"),
    ("experiments.decode_us_per_record", "us"),
    ("store.plan_us", "us"),
    ("store.ring_owner_ns", "ns"),
    ("store.load_us_per_record", "us"),
    ("serve.exchange_ms_p50", "ms"),
    ("serve.round_trips_per_op", "count"),
    ("serve.bytes_per_op", "bytes"),
    ("serve.retries_per_op", "count"),
    ("serve.errors_per_op", "count"),
    ("serve.lease_claim_ms", "ms"),
    ("serve.lease_complete_ms", "ms"),
    ("serve.push_batch_ms", "ms"),
    ("serve.readback_ms", "ms"),
    ("store.journal_appends_per_op", "count"),
    ("store.journal_fsyncs_per_op", "count"),
    ("store.compacted_records_per_s", "1/s"),
    ("experiments.drain_self_ms", "ms"),
    ("telemetry.bench_trace_overhead_frac", "ratio"),
];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed; [`seeds::DEFAULT_SEED`] reproduces the paper's.
    pub seed: u64,
    /// Timed-phase length in seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = seeds::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric. `value` is `None` when the run had too few
/// samples to support it (see [`stats::MIN_TAIL`]).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: Option<f64>,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric summarising `samples` samples.
    pub fn new(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// A check that voids the whole run failed (for instance the
    /// default seed's digest); the process exits nonzero.
    pub fatal: Option<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Why individual ops failed, for the human summary.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Adds a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(listed, _)| *listed == name)
            .map(|&(_, unit)| unit)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// Folds in a traced section of another workload: its checks count
    /// toward this run, and its metrics fill in the layers this
    /// workload does not exercise (metrics already measured here win).
    fn absorb(&mut self, section: Outcome) {
        self.attempted += section.attempted;
        self.failed += section.failed;
        self.failures.extend(section.failures);
        self.fatal = self.fatal.take().or(section.fatal);
        for m in section.metrics {
            if !self.metrics.iter().any(|have| have.name == m.name) {
                self.metrics.push(m);
            }
        }
    }

    /// Puts the metrics in listed order. A listed metric the run did
    /// not measure, or measured without a value, voids the run.
    fn complete(&mut self, listed: &[(&'static str, &'static str)]) {
        let mut ordered = Vec::with_capacity(listed.len());
        let mut missing = Vec::new();
        for &(name, _) in listed {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => {
                    let metric = self.metrics.swap_remove(i);
                    if metric.value.is_none() {
                        missing.push(name);
                    }
                    ordered.push(metric);
                }
                None => missing.push(name),
            }
        }
        assert!(
            self.metrics.is_empty(),
            "unlisted metrics {:?}",
            self.metrics
        );
        self.metrics = ordered;
        if !missing.is_empty() {
            self.fatal = Some(format!("no value for {}", missing.join(", ")));
        }
    }
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit the tree was checked out at, read from `.git` without
/// running git (the benchmark reads nothing outside its directory).
/// `None` outside a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// FNV-1a digest of the workspace sources (`crates/**`, the root
/// manifests, and this benchmark), so rows from checkouts without git
/// history still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for byte in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_owned(),
    }
}

/// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.fatal.is_none() && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The full result: provenance, arguments, and every metric with its
/// sample count.
fn detail_line(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    format!(
        "{{\"perfbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"held_out_seed\": {}, \
         \"host\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"commit\": {}, \
         \"source_digest\": {}, \"rustc\": {}}}, \"attempted\": {}, \"failed\": {}, \
         \"fail_frac\": {fail_frac}, \"metrics\": {{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        seeds::HELD_OUT_SEED,
        json_str(&cpu_model()),
        commit().map_or_else(|| "null".to_owned(), |c| json_str(&c)),
        json_str(&source_digest()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn summary(args: &Args, outcome: &Outcome) {
    eprintln!(
        "perfbench {} seed={} seconds={} trace={}: {} ops, {} failed (fail_frac {:.4})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        eprintln!(
            "  {:<40} {:>14} {:<6} (n={})",
            m.name,
            m.value
                .map_or_else(|| "-".to_owned(), |v| format!("{v:.4}")),
            m.unit,
            m.samples
        );
    }
    for why in &outcome.failures {
        eprintln!("  FAILED: {why}");
    }
    if let Some(why) = &outcome.fatal {
        eprintln!("  FATAL: {why}");
    }
}

/// Removes every `DRI_*` variable before any thread starts, so the
/// caller's environment cannot attach stores, remotes, tracing or
/// faults to the program under test; then selects the quick campaign.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DRI_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("DRI_QUICK", "1");
}

fn run_workload(args: &Args, run_dir: &Path) -> Outcome {
    match args.workload.as_str() {
        "grid_cold" => grid::run(args),
        "replay_sharded" => fleet::run_replay(args, run_dir),
        "steal_push" => fleet::run_steal(args, run_dir),
        _ => unreachable!("parse_args validated the workload"),
    }
}

/// glibc's `mallopt` parameter that caps the number of malloc arenas.
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Puts every thread's allocations in one malloc arena. With glibc's
/// default of one arena per thread (up to 8 per CPU), the peak resident
/// memory of the same `replay_sharded` run read anywhere from 26 to
/// 40 MiB, depending on which arenas the set-up's short-lived threads
/// landed in; with one arena, 23.6 to 24.3 MiB.
fn one_malloc_arena() {
    // SAFETY: called first in `main`, before any other thread exists;
    // `mallopt` only changes a limit of the allocator.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

fn main() -> ExitCode {
    one_malloc_arena();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let run_dir = Path::new(STATE_DIR).join(format!("run-{}", std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {err}", run_dir.display());
        return ExitCode::from(2);
    }
    let mut outcome = run_workload(&args, &run_dir);
    if args.trace {
        // Every traced run reports every layer: the layers this workload
        // leaves idle are measured in short sections of the others.
        for other in WORKLOADS.iter().filter(|&&w| w != args.workload) {
            let section = Args {
                workload: (*other).to_owned(),
                seconds: SECTION_SECONDS,
                ..args.clone()
            };
            outcome.absorb(run_workload(&section, &run_dir));
        }
    }
    if outcome.fatal.is_none() {
        outcome.complete(if args.trace { &PER_LAYER } else { &END_TO_END });
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    summary(&args, &outcome);
    println!("{}", detail_line(&args, &outcome));
    println!("{}", result_line(&outcome));
    if outcome.fatal.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "steal_push",
            "--seed",
            "42",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "steal_push");
        assert_eq!((a.seed, a.seconds, a.trace), (42, 30, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "grid_cold", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metric("op_ms_p90", Some(2.25), 3);
        outcome.metric("op_ms_p50", Some(1.5), 3);
        outcome.complete(&END_TO_END[1..3]);
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"op_ms_p90\": {\"value\": 2.25, \"unit\": \"ms\"}}}"
        );
        outcome.fail("x".to_owned());
        assert!(result_line(&outcome).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_metric_without_a_value_voids_the_run() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metric("op_ms_p50", Some(1.5), 3);
        outcome.metric("op_ms_p90", None, 3);
        outcome.complete(&END_TO_END[1..4]);
        let fatal = outcome.fatal.as_deref().expect("fatal");
        assert_eq!(fatal, "no value for op_ms_p90, records_per_s");
        assert!(result_line(&outcome).starts_with("{\"correct\": false"));
    }

    #[test]
    fn sections_fill_in_only_what_the_run_did_not_measure() {
        let mut run = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        run.metric("serve.round_trips_per_op", Some(3.0), 10);
        let mut section = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        section.metric("serve.round_trips_per_op", Some(86.0), 4);
        section.metric("serve.push_batch_ms", Some(3.1), 4);
        section.fail("read-back differs".to_owned());
        run.absorb(section);
        assert_eq!((run.attempted, run.failed), (14, 1));
        run.complete(&[
            ("serve.round_trips_per_op", "count"),
            ("serve.push_batch_ms", "ms"),
        ]);
        let values: Vec<_> = run.metrics.iter().map(|m| (m.name, m.value)).collect();
        assert_eq!(
            values,
            [
                ("serve.round_trips_per_op", Some(3.0)),
                ("serve.push_batch_ms", Some(3.1))
            ]
        );
        assert!(run.fatal.is_none());
    }
}
