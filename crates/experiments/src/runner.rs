//! Paired simulation runs: conventional baseline vs a leakage policy.
//!
//! Every figure in the paper is built from pairs of runs that differ only
//! in the i-cache on the fetch path. The baseline is "a conventional
//! i-cache using an aggressively-scaled threshold voltage" of the same
//! geometry; the policy run swaps in one of the leakage-controlled models
//! — the paper's [`DriICache`] by default, or any other
//! [`PolicyConfig`] selection — and the §5.2 energy equations combine
//! the two (extra L2 accesses are measured against the baseline run).
//!
//! The policy side is generic over `InstCache + LeakagePolicy`
//! ([`cache_sim::policy::LeakagePolicy`]): the run summary reads only
//! that surface, so every model produces the same [`DriRun`] shape and
//! flows through the same memoization, persistence, and energy
//! accounting.
//!
//! Every simulation goes through `simulate_group`: one front half
//! (interpreter + branch predictor) drives the back halves of any number
//! of records that share a committed stream. A single run is the group of
//! one; [`crate::session::SimSession::resolve_grid`] groups a grid's
//! misses so each stream is interpreted once per group, not once per
//! record. [`run_policy`] is the generic entry point; [`run_dri`]
//! remains as the DRI-flavoured alias the original figures call.

use cache_sim::config::CacheConfig;
use cache_sim::hierarchy::HierarchyConfig;
use cache_sim::icache::{ConventionalICache, InstCache};
use cache_sim::policy::LeakagePolicy;
use cache_sim::stats::CacheStats;
use dri_core::{DriConfig, DriICache, PolicyConfig};
use energy_model::accounting::{breakdown, energy_delay, EnergyBreakdown, RunCounts};
use energy_model::params::EnergyParams;
use ooo_cpu::config::CpuConfig;
use ooo_cpu::core::{BackHalf, Event, FrontHalf};
use ooo_cpu::stats::CpuStats;
use synth_workload::suite::Benchmark;

/// Everything needed to simulate one benchmark on one DRI configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which SPEC95 proxy to run.
    pub benchmark: Benchmark,
    /// Core parameters (Table 1 defaults).
    pub cpu: CpuConfig,
    /// L1d/L2/memory parameters (Table 1 defaults).
    pub hierarchy: HierarchyConfig,
    /// The DRI i-cache under test; the baseline i-cache copies its
    /// geometry (size, associativity, block, latency).
    pub dri: DriConfig,
    /// Committed-instruction budget; `None` runs exactly one pass of the
    /// benchmark's phase schedule.
    pub instruction_budget: Option<u64>,
    /// Energy constants (§5.2); scaled automatically if the DRI geometry
    /// is not the 64K base.
    pub energy: EnergyParams,
    /// Overrides the benchmark's generator seed (different code bodies and
    /// data contents with the same footprint/phase structure); used by the
    /// seed-robustness experiment.
    pub seed_override: Option<u64>,
    /// Which leakage policy the non-baseline run uses. `None` (the
    /// default everywhere) means the paper's DRI i-cache built from
    /// [`Self::dri`] — see [`Self::resolved_policy`]. Setting
    /// `Some(PolicyConfig::…)` swaps the model on the fetch path while
    /// the baseline, energy accounting, and store keys adjust to match.
    pub policy: Option<PolicyConfig>,
}

impl RunConfig {
    /// The paper's base configuration for `benchmark`: Table 1 system,
    /// 64K direct-mapped DRI, published energy constants, one schedule
    /// pass.
    pub fn hpca01(benchmark: Benchmark) -> Self {
        RunConfig {
            benchmark,
            cpu: CpuConfig::hpca01(),
            hierarchy: HierarchyConfig::hpca01(),
            dri: DriConfig::hpca01_64k_dm(),
            instruction_budget: None,
            energy: EnergyParams::hpca01_published(),
            seed_override: None,
            policy: None,
        }
    }

    /// A fast configuration for examples, doctests, and benches: a short
    /// instruction budget and a proportionally shorter sense interval.
    pub fn quick(benchmark: Benchmark) -> Self {
        let mut cfg = Self::hpca01(benchmark);
        cfg.instruction_budget = Some(400_000);
        cfg.dri.sense_interval = 20_000;
        cfg
    }

    /// The leakage policy this configuration actually runs: the explicit
    /// [`Self::policy`] selection, or the paper's gated-Vdd DRI cache
    /// built from [`Self::dri`] when none is set. Everything downstream —
    /// the simulation dispatch, the memoization key, the store key — keys
    /// on this resolved value, so `policy: None` and
    /// `policy: Some(PolicyConfig::Dri(cfg.dri))` are the same run.
    pub fn resolved_policy(&self) -> PolicyConfig {
        self.policy.unwrap_or(PolicyConfig::Dri(self.dri))
    }

    /// The baseline i-cache geometry implied by the DRI configuration.
    pub fn baseline_icache(&self) -> CacheConfig {
        CacheConfig::new(
            self.dri.max_size_bytes,
            self.dri.block_bytes,
            self.dri.associativity,
            self.dri.latency,
            self.dri.replacement,
        )
    }

    /// Energy parameters rescaled to the DRI geometry (leakage scales with
    /// capacity; Figure 6's 128K runs double the 0.91 nJ/cycle).
    pub fn scaled_energy(&self) -> EnergyParams {
        self.energy.scaled_l1(64 * 1024, self.dri.max_size_bytes)
    }
}

/// Outcome of one baseline (conventional i-cache) run.
#[derive(Debug, Clone, Copy)]
pub struct ConventionalRun {
    /// Timing counters.
    pub timing: CpuStats,
    /// L1 i-cache counters.
    pub icache: CacheStats,
    /// L2 accesses caused by i-cache misses.
    pub l2_inst_accesses: u64,
    /// Conditional-branch prediction accuracy.
    pub bpred_accuracy: f64,
}

/// DRI-specific outcome summary.
#[derive(Debug, Clone, Copy)]
pub struct DriSummary {
    /// Average powered fraction of the cache over the run.
    pub avg_active_fraction: f64,
    /// Average powered capacity in bytes.
    pub avg_size_bytes: f64,
    /// Capacity at the end of the run.
    pub final_size_bytes: u64,
    /// Number of resizes performed.
    pub resizes: usize,
    /// Sense intervals elapsed.
    pub intervals: u64,
    /// Resizing tag bits carried by the tag array.
    pub resizing_bits: u32,
}

/// Outcome of one DRI run.
#[derive(Debug, Clone, Copy)]
pub struct DriRun {
    /// Timing counters.
    pub timing: CpuStats,
    /// L1 i-cache counters.
    pub icache: CacheStats,
    /// Resizing summary.
    pub dri: DriSummary,
    /// L2 accesses caused by i-cache misses.
    pub l2_inst_accesses: u64,
    /// Conditional-branch prediction accuracy.
    pub bpred_accuracy: f64,
}

fn budget_for(cfg: &RunConfig, cycle_instructions: u64) -> u64 {
    cfg.instruction_budget.unwrap_or(cycle_instructions)
}

/// Generates `cfg`'s workload from scratch (no session cache). Generation
/// is deterministic in `(benchmark, seed_override)`, which is what makes
/// the session's workload memoization sound.
pub(crate) fn generate_workload(cfg: &RunConfig) -> synth_workload::Generated {
    match cfg.seed_override {
        None => cfg.benchmark.build(),
        Some(seed) => {
            let mut spec = cfg.benchmark.spec();
            spec.seed = seed;
            synth_workload::generator::generate(&spec)
        }
    }
}

/// One record a lockstep group simulates: the conventional baseline or
/// the leakage-policy run of a configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Job<'a> {
    /// The conventional baseline of the configuration's geometry.
    Baseline(&'a RunConfig),
    /// The configuration's resolved leakage policy.
    Policy(&'a RunConfig),
}

impl<'a> Job<'a> {
    /// The configuration the record belongs to.
    pub(crate) fn cfg(self) -> &'a RunConfig {
        match self {
            Job::Baseline(cfg) | Job::Policy(cfg) => cfg,
        }
    }
}

/// What a simulation's front half reads: the workload and the
/// instruction budget (the predictor configuration is fixed). Records
/// with equal keys see the very same committed stream, so they can share
/// one front half however else they differ.
pub(crate) type StreamKey = (Benchmark, Option<u64>, Option<u64>);

/// The [`StreamKey`] of `cfg`.
pub(crate) fn stream_key(cfg: &RunConfig) -> StreamKey {
    (cfg.benchmark, cfg.seed_override, cfg.instruction_budget)
}

/// A simulated record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Record {
    /// From a [`Job::Baseline`].
    Baseline(ConventionalRun),
    /// From a [`Job::Policy`].
    Policy(DriRun),
}

impl Record {
    fn baseline(self) -> ConventionalRun {
        match self {
            Record::Baseline(run) => run,
            Record::Policy(_) => unreachable!("a baseline job yields a baseline record"),
        }
    }

    fn policy(self) -> DriRun {
        match self {
            Record::Policy(run) => run,
            Record::Baseline(_) => unreachable!("a policy job yields a policy record"),
        }
    }
}

/// One back half of a lockstep group, behind the one dynamic call per
/// batch that lets a group mix i-cache types.
trait Member {
    fn consume(&mut self, batch: &[Event]);
    /// Closes out the run and reads its record.
    fn record(&mut self, bpred_accuracy: f64) -> Record;
}

struct BaselineMember(BackHalf<ConventionalICache>);

impl Member for BaselineMember {
    fn consume(&mut self, batch: &[Event]) {
        self.0.consume(batch);
    }

    fn record(&mut self, bpred_accuracy: f64) -> Record {
        let timing = self.0.finish();
        Record::Baseline(ConventionalRun {
            timing,
            icache: *self.0.icache().stats(),
            l2_inst_accesses: self.0.hierarchy().l2_inst_accesses(),
            bpred_accuracy,
        })
    }
}

/// Every leakage policy's back half: the run summary is read through the
/// [`LeakagePolicy`] accounting surface, so every model produces the same
/// [`DriRun`] shape.
struct PolicyMember<IC: InstCache>(BackHalf<IC>);

impl<IC: InstCache + LeakagePolicy> Member for PolicyMember<IC> {
    fn consume(&mut self, batch: &[Event]) {
        self.0.consume(batch);
    }

    fn record(&mut self, bpred_accuracy: f64) -> Record {
        let timing = self.0.finish();
        let cache = self.0.icache();
        Record::Policy(DriRun {
            timing,
            icache: *cache.stats(),
            dri: DriSummary {
                avg_active_fraction: cache.avg_active_fraction(),
                avg_size_bytes: cache.avg_size_bytes(),
                final_size_bytes: cache.active_size_bytes(),
                resizes: cache.resizes() as usize,
                intervals: cache.intervals(),
                resizing_bits: cache.resizing_tag_bits(),
            },
            l2_inst_accesses: self.0.hierarchy().l2_inst_accesses(),
            bpred_accuracy,
        })
    }
}

fn policy_member<IC: InstCache + LeakagePolicy + 'static>(
    cfg: &RunConfig,
    icache: IC,
) -> Box<dyn Member> {
    Box::new(PolicyMember(BackHalf::new(cfg.cpu, icache, cfg.hierarchy)))
}

/// Builds the back half a job times: the baseline geometry, or the
/// i-cache `cfg`'s resolved policy selects.
fn member(job: Job<'_>) -> Box<dyn Member> {
    match job {
        Job::Baseline(cfg) => Box::new(BaselineMember(BackHalf::new(
            cfg.cpu,
            ConventionalICache::new(cfg.baseline_icache()),
            cfg.hierarchy,
        ))),
        Job::Policy(cfg) => match cfg.resolved_policy() {
            PolicyConfig::Dri(dri) => policy_member(cfg, DriICache::new(dri)),
            PolicyConfig::Decay(decay) => policy_member(cfg, dri_core::DecayICache::new(decay)),
            PolicyConfig::WayResize(way) => {
                policy_member(cfg, dri_core::WayResizableICache::new(way))
            }
            PolicyConfig::WayMemo(memo) => policy_member(cfg, dri_core::WayMemoICache::new(memo)),
        },
    }
}

/// Simulates every job over one committed stream in lockstep: one front
/// half interprets and predicts `generated` once, and each job's back
/// half times every batch. All jobs must share a [`StreamKey`]; records
/// come back in job order, each bit-identical to simulating its job
/// alone.
pub(crate) fn simulate_group(
    generated: &synth_workload::Generated,
    jobs: &[Job<'_>],
) -> Vec<Record> {
    let Some(first) = jobs.first() else {
        return Vec::new();
    };
    debug_assert!(
        jobs.iter()
            .all(|job| stream_key(job.cfg()) == stream_key(first.cfg())),
        "a lockstep group shares one stream"
    );
    let mut members: Vec<Box<dyn Member>> = jobs.iter().map(|&job| member(job)).collect();
    let mut front = FrontHalf::new(&generated.program);
    front.drive(
        budget_for(first.cfg(), generated.cycle_instructions),
        |batch| {
            for m in &mut members {
                m.consume(batch);
            }
        },
    );
    let accuracy = front.predictor().stats().accuracy();
    members.iter_mut().map(|m| m.record(accuracy)).collect()
}

fn simulate_conventional(
    cfg: &RunConfig,
    generated: &synth_workload::Generated,
) -> ConventionalRun {
    simulate_group(generated, &[Job::Baseline(cfg)])[0].baseline()
}

/// Simulates the baseline with a session-cached workload but no run
/// memoization (the session calls this on a cache miss).
pub(crate) fn run_conventional_fresh_in(
    session: &crate::session::SimSession,
    cfg: &RunConfig,
) -> ConventionalRun {
    simulate_conventional(cfg, &session.workload(cfg))
}

/// Runs the conventional baseline for `cfg` with no caching at all: the
/// workload is regenerated and the simulation always executes. This is
/// the reference the session's bit-identity contract is tested against;
/// prefer [`run_conventional`] everywhere else.
pub fn run_conventional_uncached(cfg: &RunConfig) -> ConventionalRun {
    simulate_conventional(cfg, &generate_workload(cfg))
}

/// Runs the conventional baseline for `cfg`.
///
/// Workloads and completed runs are memoized in the global
/// [`crate::session::SimSession`]; simulations are deterministic, so a
/// cache hit returns counters bit-identical to a fresh run.
pub fn run_conventional(cfg: &RunConfig) -> ConventionalRun {
    crate::session::SimSession::global().conventional(cfg)
}

/// Simulates the i-cache `cfg`'s resolved policy selects.
fn simulate_policy(cfg: &RunConfig, generated: &synth_workload::Generated) -> DriRun {
    simulate_group(generated, &[Job::Policy(cfg)])[0].policy()
}

/// Simulates `cfg`'s resolved policy with a session-cached workload but
/// no run memoization (the session calls this on a cache miss).
pub(crate) fn run_policy_fresh_in(session: &crate::session::SimSession, cfg: &RunConfig) -> DriRun {
    simulate_policy(cfg, &session.workload(cfg))
}

/// Runs `cfg`'s resolved leakage policy with no caching at all (see
/// [`run_conventional_uncached`]).
pub fn run_policy_uncached(cfg: &RunConfig) -> DriRun {
    simulate_policy(cfg, &generate_workload(cfg))
}

/// Runs `cfg`'s resolved leakage policy — the DRI i-cache unless
/// [`RunConfig::policy`] selects another model.
///
/// Workloads and completed runs are memoized in the global
/// [`crate::session::SimSession`] (see [`run_conventional`]); each policy
/// memoizes and persists under its own key, so sweeping several policies
/// over one grid never aliases records.
pub fn run_policy(cfg: &RunConfig) -> DriRun {
    crate::session::SimSession::global().policy_run(cfg)
}

/// Runs the DRI i-cache for `cfg` with no caching at all (see
/// [`run_conventional_uncached`]). Alias of [`run_policy_uncached`] kept
/// for the original figures; with `policy: None` they are the same run.
pub fn run_dri_uncached(cfg: &RunConfig) -> DriRun {
    run_policy_uncached(cfg)
}

/// Runs the DRI i-cache for `cfg` (alias of [`run_policy`]; see there).
pub fn run_dri(cfg: &RunConfig) -> DriRun {
    run_policy(cfg)
}

/// Runs the Albonesi-style way-resizing ablation cache (see
/// `dri_core::way_resize`) under the same system configuration — now a
/// thin wrapper that pins [`RunConfig::policy`] to
/// [`PolicyConfig::WayResize`] and goes through [`run_policy`], so
/// ablation runs share the session memoization and store keys like every
/// other policy. Way resizing needs no resizing tag bits, so
/// `resizing_bits` is 0.
pub fn run_way_resizable(cfg: &RunConfig, way: dri_core::WayConfig) -> DriRun {
    let mut cfg = cfg.clone();
    cfg.policy = Some(PolicyConfig::WayResize(way));
    run_policy(&cfg)
}

/// A paired DRI-vs-conventional comparison with the §5.2 energy metrics.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The DRI parameters used (miss-bound, size-bound are the headline).
    pub miss_bound: u64,
    /// Size-bound in bytes.
    pub size_bound_bytes: u64,
    /// Relative leakage energy-delay (DRI effective over conventional).
    pub relative_energy_delay: f64,
    /// Leakage component of the relative energy-delay (the light segment
    /// of the paper's stacked bars).
    pub leakage_component: f64,
    /// Extra-dynamic component (the dark segment).
    pub dynamic_component: f64,
    /// Execution-time increase vs the baseline (0.04 = 4% slowdown).
    pub slowdown: f64,
    /// Average DRI size as a fraction of the conventional size.
    pub avg_size_fraction: f64,
    /// DRI i-cache miss rate, normalized to cycles (the paper's §5.2
    /// convention approximates one L1 access per cycle, so its miss rates
    /// are per-cycle figures; our fetch fires roughly once per fetch group,
    /// so misses-per-access would overstate the rate ~6×).
    pub dri_miss_rate: f64,
    /// Conventional i-cache miss rate, normalized to cycles.
    pub conventional_miss_rate: f64,
    /// Extra L2 accesses charged to the DRI run.
    pub extra_l2_accesses: u64,
    /// Energy breakdown in absolute nanojoules.
    pub energy: EnergyBreakdown,
}

/// Compares a DRI run against an already-computed baseline (reusing the
/// baseline across a parameter search).
pub fn compare_with_baseline(
    cfg: &RunConfig,
    baseline: &ConventionalRun,
    dri: &DriRun,
) -> Comparison {
    let params = cfg.scaled_energy();
    let extra_l2 = dri
        .l2_inst_accesses
        .saturating_sub(baseline.l2_inst_accesses);
    let counts = RunCounts {
        cycles: dri.timing.cycles,
        avg_active_fraction: dri.dri.avg_active_fraction,
        l1_accesses: dri.icache.accesses,
        resizing_bits: dri.dri.resizing_bits,
        extra_l2_accesses: extra_l2,
    };
    let b = breakdown(&params, &counts);
    let conv_ed = energy_delay(
        energy_model::accounting::conventional_leakage(&params, baseline.timing.cycles),
        baseline.timing.cycles,
    );
    let rel = |e: sram_circuit::units::NanoJoules| energy_delay(e, dri.timing.cycles) / conv_ed;
    Comparison {
        benchmark: cfg.benchmark,
        miss_bound: cfg.dri.miss_bound,
        size_bound_bytes: cfg.dri.size_bound_bytes,
        relative_energy_delay: rel(b.effective()),
        leakage_component: rel(b.l1_leakage),
        dynamic_component: rel(b.extra_l1_dynamic + b.extra_l2_dynamic),
        slowdown: dri.timing.cycles as f64 / baseline.timing.cycles as f64 - 1.0,
        avg_size_fraction: dri.dri.avg_active_fraction,
        dri_miss_rate: dri.icache.misses as f64 / dri.timing.cycles.max(1) as f64,
        conventional_miss_rate: baseline.icache.misses as f64
            / baseline.timing.cycles.max(1) as f64,
        extra_l2_accesses: extra_l2,
        energy: b,
    }
}

/// Runs both sides and compares them.
pub fn compare(cfg: &RunConfig) -> Comparison {
    let baseline = run_conventional(cfg);
    let dri = run_dri(cfg);
    compare_with_baseline(cfg, &baseline, &dri)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_compress_downsizes_and_saves_energy() {
        // compress is class 1: tiny working set, lives at the size-bound.
        // An 8K size-bound comfortably holds its hot code plus the driver
        // dispatch chain (~6K as laid out); smaller bounds thrash (the
        // §2.3.1 failure mode the parameter search exists to avoid).
        let mut cfg = RunConfig::quick(Benchmark::Compress);
        cfg.dri.size_bound_bytes = 8 * 1024;
        let c = compare(&cfg);
        assert!(
            c.avg_size_fraction < 0.6,
            "avg size fraction {}",
            c.avg_size_fraction
        );
        assert!(
            c.relative_energy_delay < 0.7,
            "relative energy-delay {}",
            c.relative_energy_delay
        );
        assert!(c.slowdown < 0.10, "slowdown {}", c.slowdown);
    }

    #[test]
    fn components_sum_to_total() {
        let cfg = RunConfig::quick(Benchmark::Li);
        let c = compare(&cfg);
        let sum = c.leakage_component + c.dynamic_component;
        assert!(
            (sum - c.relative_energy_delay).abs() < 1e-9,
            "components {sum} vs total {}",
            c.relative_energy_delay
        );
    }

    #[test]
    fn baseline_miss_rate_is_below_one_percent() {
        // Paper: "the conventional i-cache miss rate is less than 1% for
        // all the benchmarks".
        let cfg = RunConfig::quick(Benchmark::M88ksim);
        let base = run_conventional(&cfg);
        assert!(
            base.icache.miss_rate() < 0.01,
            "miss rate {}",
            base.icache.miss_rate()
        );
    }

    #[test]
    fn fpppp_like_full_bound_never_shrinks() {
        let mut cfg = RunConfig::quick(Benchmark::Fpppp);
        cfg.dri.size_bound_bytes = cfg.dri.max_size_bytes;
        let dri = run_dri(&cfg);
        assert_eq!(dri.dri.resizes, 0);
        assert!((dri.dri.avg_active_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_energy_doubles_for_128k() {
        let mut cfg = RunConfig::hpca01(Benchmark::Gcc);
        cfg.dri = DriConfig::hpca01_128k_dm();
        let p = cfg.scaled_energy();
        assert!((p.l1_leak_per_cycle.value() - 1.82).abs() < 1e-9);
    }

    #[test]
    fn deterministic_runs() {
        let cfg = RunConfig::quick(Benchmark::Mgrid);
        let a = compare(&cfg);
        let b = compare(&cfg);
        assert_eq!(a.relative_energy_delay, b.relative_energy_delay);
        assert_eq!(a.slowdown, b.slowdown);
    }
}
