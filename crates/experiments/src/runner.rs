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
//! Every simulation goes through `simulate_jobs`: one front half
//! (interpreter + branch predictor) drives the timing classes of any
//! number of records that share a committed stream — records whose
//! i-caches have answered alike so far share one timing state. The
//! session's one record path groups every miss it resolves, a single
//! point's or a grid's, so each stream is interpreted once per group,
//! not once per record; a group of one times its i-cache as the model's
//! own type, with no per-access dispatch. [`run_policy`] is the generic
//! entry point; [`run_dri`] remains as the DRI-flavoured alias the
//! original figures call.

use cache_sim::config::CacheConfig;
use cache_sim::hierarchy::HierarchyConfig;
use cache_sim::icache::{ConventionalICache, InstCache};
use cache_sim::policy::LeakagePolicy;
use cache_sim::stats::CacheStats;
use dri_core::{
    DecayICache, DriConfig, DriICache, PolicyConfig, WayMemoICache, WayResizableICache,
};
use energy_model::accounting::{breakdown, energy_delay, EnergyBreakdown, RunCounts};
use energy_model::params::EnergyParams;
use ooo_cpu::config::CpuConfig;
use ooo_cpu::core::{BackHalf, Event, FrontHalf};
use ooo_cpu::stats::CpuStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use synth_workload::suite::Benchmark;

use crate::harness::Reserved;

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
    pub(crate) fn baseline(self) -> ConventionalRun {
        match self {
            Record::Baseline(run) => run,
            Record::Policy(_) => unreachable!("a baseline job yields a baseline record"),
        }
    }

    pub(crate) fn policy(self) -> DriRun {
        match self {
            Record::Policy(run) => run,
            Record::Baseline(_) => unreachable!("a policy job yields a policy record"),
        }
    }
}

/// The i-cache models a lockstep group can time, behind static
/// dispatch so that a baseline and any policy can share a timing class.
enum Model {
    Conventional(ConventionalICache),
    Dri(DriICache),
    Decay(DecayICache),
    WayResize(WayResizableICache),
    WayMemo(WayMemoICache),
}

/// Evaluates `$call` with `$cache` bound to whichever model `$model`
/// holds.
macro_rules! dispatch {
    ($model:expr, $cache:ident => $call:expr) => {
        match $model {
            Model::Conventional($cache) => $call,
            Model::Dri($cache) => $call,
            Model::Decay($cache) => $call,
            Model::WayResize($cache) => $call,
            Model::WayMemo($cache) => $call,
        }
    };
}

impl Model {
    /// The i-cache `job` times: the baseline geometry, or the i-cache
    /// the configuration's resolved policy selects.
    fn new(job: Job<'_>) -> Self {
        match job {
            Job::Baseline(cfg) => {
                Model::Conventional(ConventionalICache::new(cfg.baseline_icache()))
            }
            Job::Policy(cfg) => match cfg.resolved_policy() {
                PolicyConfig::Dri(dri) => Model::Dri(DriICache::new(dri)),
                PolicyConfig::Decay(decay) => Model::Decay(DecayICache::new(decay)),
                PolicyConfig::WayResize(way) => Model::WayResize(WayResizableICache::new(way)),
                PolicyConfig::WayMemo(memo) => Model::WayMemo(WayMemoICache::new(memo)),
            },
        }
    }
}

impl InstCache for Model {
    #[inline]
    fn access(&mut self, addr: u64, cycle: u64) -> bool {
        dispatch!(self, cache => cache.access(addr, cycle))
    }

    fn hit_latency(&self) -> u64 {
        dispatch!(self, cache => cache.hit_latency())
    }

    fn block_bytes(&self) -> u64 {
        dispatch!(self, cache => cache.block_bytes())
    }

    fn retire_budget(&self) -> u64 {
        dispatch!(self, cache => cache.retire_budget())
    }

    fn retire_instructions(&mut self, n: u64, cycle: u64) {
        dispatch!(self, cache => cache.retire_instructions(n, cycle))
    }

    fn finish(&mut self, cycle: u64) {
        dispatch!(self, cache => cache.finish(cycle))
    }

    fn stats(&self) -> &CacheStats {
        dispatch!(self, cache => cache.stats())
    }
}

/// An i-cache a lockstep group can time: it reads its record out of a
/// finished run.
trait Recorded: InstCache + Send {
    /// The record of a finished run this cache took part in.
    fn record(&self, timing: CpuStats, l2_inst_accesses: u64, bpred_accuracy: f64) -> Record;
}

impl Recorded for ConventionalICache {
    fn record(&self, timing: CpuStats, l2_inst_accesses: u64, bpred_accuracy: f64) -> Record {
        Record::Baseline(ConventionalRun {
            timing,
            icache: *self.stats(),
            l2_inst_accesses,
            bpred_accuracy,
        })
    }
}

/// Every leakage policy's record is read through the [`LeakagePolicy`]
/// accounting surface, so every model produces the same [`DriRun`]
/// shape.
macro_rules! policy_recorded {
    ($($policy:ty),*) => {$(
        impl Recorded for $policy {
            fn record(
                &self,
                timing: CpuStats,
                l2_inst_accesses: u64,
                bpred_accuracy: f64,
            ) -> Record {
                Record::Policy(DriRun {
                    timing,
                    icache: *self.stats(),
                    dri: DriSummary {
                        avg_active_fraction: self.avg_active_fraction(),
                        avg_size_bytes: self.avg_size_bytes(),
                        final_size_bytes: self.active_size_bytes(),
                        resizes: self.resizes() as usize,
                        intervals: self.intervals(),
                        resizing_bits: self.resizing_tag_bits(),
                    },
                    l2_inst_accesses,
                    bpred_accuracy,
                })
            }
        }
    )*};
}

policy_recorded!(DriICache, DecayICache, WayResizableICache, WayMemoICache);

impl Recorded for Model {
    fn record(&self, timing: CpuStats, l2_inst_accesses: u64, bpred_accuracy: f64) -> Record {
        dispatch!(self, cache => cache.record(timing, l2_inst_accesses, bpred_accuracy))
    }
}

/// One record's i-cache in a timing class, with its job's index in the
/// group.
struct Tagged<C> {
    job: usize,
    cache: C,
}

impl<C: InstCache> InstCache for Tagged<C> {
    #[inline]
    fn access(&mut self, addr: u64, cycle: u64) -> bool {
        self.cache.access(addr, cycle)
    }

    fn hit_latency(&self) -> u64 {
        self.cache.hit_latency()
    }

    fn block_bytes(&self) -> u64 {
        self.cache.block_bytes()
    }

    fn retire_budget(&self) -> u64 {
        self.cache.retire_budget()
    }

    fn retire_instructions(&mut self, n: u64, cycle: u64) {
        self.cache.retire_instructions(n, cycle);
    }

    fn finish(&mut self, cycle: u64) {
        self.cache.finish(cycle);
    }

    fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }
}

/// A timing class before its timing state is built: the CPU and
/// hierarchy it times under and its i-caches (the first leads).
struct ClassSpec<C> {
    cpu: CpuConfig,
    hierarchy: HierarchyConfig,
    icaches: Vec<Tagged<C>>,
}

impl<C: InstCache> ClassSpec<C> {
    fn build(self) -> BackHalf<Tagged<C>> {
        let mut icaches = self.icaches.into_iter();
        let leader = icaches.next().expect("a class has an i-cache");
        BackHalf::with_followers(self.cpu, leader, icaches.collect(), self.hierarchy)
    }
}

/// The initial timing classes of `jobs`: jobs whose i-caches share a
/// CPU, a hierarchy, a block size and a hit latency, in first-seen
/// order. Those are the inputs of a back half's timing state besides
/// the stream and the access outcomes.
fn classes<C: InstCache>(jobs: Vec<(&RunConfig, C)>) -> Vec<ClassSpec<C>> {
    let mut classes: Vec<ClassSpec<C>> = Vec::new();
    for (job, (cfg, cache)) in jobs.into_iter().enumerate() {
        let (block, latency) = (cache.block_bytes(), cache.hit_latency());
        let shares = |class: &&mut ClassSpec<C>| {
            let lead = &class.icaches[0];
            class.cpu == cfg.cpu
                && class.hierarchy == cfg.hierarchy
                && lead.block_bytes() == block
                && lead.hit_latency() == latency
        };
        let cache = Tagged { job, cache };
        match classes.iter_mut().find(shares) {
            Some(class) => class.icaches.push(cache),
            None => classes.push(ClassSpec {
                cpu: cfg.cpu,
                hierarchy: cfg.hierarchy,
                icaches: vec![cache],
            }),
        }
    }
    classes
}

/// What placement weighs a thread's work by, per batch, in hundredths
/// of one timing state's cost. Measured over the 15 quick benchmarks
/// (600K instructions, median of 5 runs each, 2-CPU Xeon KVM guest): a
/// DRI follower probed alongside its leader, which hears of its
/// retirements once per sense interval, costs 3–8% of the timing state
/// (median 5.5%), and the front half, which interprets a predecoded
/// program, 39–52% (medians 45% and 47% in two runs).
const TIMING_LOAD: usize = 100;
const FOLLOWER_LOAD: usize = 5;
const FRONT_LOAD: usize = 45;

/// The load a class of `icaches` i-caches puts on its thread.
fn class_load(icaches: usize) -> usize {
    TIMING_LOAD + icaches.saturating_sub(1) * FOLLOWER_LOAD
}

/// What the front half's thread sends a back-half thread, in stream
/// order: a batch to time, or a class that split off on the front
/// thread and has timed every batch sent before it.
enum Handoff<C: InstCache> {
    Batch(Arc<Vec<Event>>),
    Adopt(Box<BackHalf<C>>),
}

/// What [`simulate_group`] returns.
pub(crate) struct GroupRun {
    /// One record per job, in job order.
    pub(crate) records: Vec<Record>,
    /// Timing states run: the initial classes plus every split.
    pub(crate) timing_runs: usize,
}

/// Simulates every job over one committed stream in lockstep: one front
/// half interprets and predicts `generated` once, and each batch is
/// timed once per *timing class* — the jobs whose i-caches have answered
/// every access alike so far ([`BackHalf`]). All jobs must share a
/// [`StreamKey`]; records come back in job order, each bit-identical to
/// simulating its job alone.
///
/// The jobs start in [`classes`], which split at their first
/// disagreeing access. With `workers > 1`, up to `workers − 1` more
/// workers are reserved from the [`crate::harness`] budget as back-half
/// threads, and the front half's thread hands each batch to them as an
/// [`Arc`] over a bounded channel. The front thread keeps the class with
/// the most i-caches (only its splits can move); the other initial
/// classes go, heaviest first, to the least-loaded thread. A class that
/// splits off on the front thread goes, after the batch it split in, to
/// the least-loaded back-half thread when that lowers the front
/// thread's load; splits on back-half threads stay there.
fn simulate_group<C: Recorded>(
    generated: &synth_workload::Generated,
    jobs: Vec<(&RunConfig, C)>,
    workers: usize,
) -> GroupRun {
    let Some(&(first, _)) = jobs.first() else {
        return GroupRun {
            records: Vec::new(),
            timing_runs: 0,
        };
    };
    debug_assert!(
        jobs.iter()
            .all(|(cfg, _)| stream_key(cfg) == stream_key(first)),
        "a lockstep group shares one stream"
    );
    let mut front = FrontHalf::new(&generated.program);
    let budget = budget_for(first, generated.cycle_instructions);
    let n = jobs.len();
    let reserved = Reserved::up_to(workers.min(n).saturating_sub(1));

    let mut specs = classes(jobs);
    specs.sort_by_key(|class| std::cmp::Reverse(class.icaches.len()));
    let loads: Vec<AtomicUsize> = (0..reserved.count()).map(|_| AtomicUsize::new(0)).collect();
    let mut placed: Vec<Vec<ClassSpec<C>>> = (0..reserved.count()).map(|_| Vec::new()).collect();
    let mut own = Vec::new();
    let mut front_load = FRONT_LOAD;
    for (i, spec) in specs.into_iter().enumerate() {
        let load = class_load(spec.icaches.len());
        match least_loaded(&loads) {
            Some((t, least)) if i > 0 && least < front_load => {
                loads[t].fetch_add(load, Ordering::Relaxed);
                placed[t].push(spec);
            }
            _ => {
                front_load += load;
                own.push(spec);
            }
        }
    }

    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(placed.len());
        let mut handles = Vec::with_capacity(placed.len());
        for (specs, load) in placed.into_iter().zip(&loads) {
            let (tx, rx) = mpsc::sync_channel::<Handoff<Tagged<C>>>(FAN_DEPTH);
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut classes: Vec<_> = specs.into_iter().map(ClassSpec::build).collect();
                for handoff in rx {
                    match handoff {
                        Handoff::Batch(batch) => {
                            let splits = consume(&mut classes, &batch);
                            load.fetch_add(splits.len() * SPLIT_LOAD, Ordering::Relaxed);
                            classes.extend(splits);
                        }
                        Handoff::Adopt(class) => classes.push(*class),
                    }
                }
                classes
            }));
        }
        let mut classes: Vec<_> = own.into_iter().map(ClassSpec::build).collect();
        front.drive_owned(budget, |batch| {
            let batch = Arc::new(batch);
            for tx in &senders {
                tx.send(Handoff::Batch(Arc::clone(&batch)))
                    .expect("a back-half thread hung up");
            }
            for split in consume(&mut classes, &batch) {
                front_load += SPLIT_LOAD;
                let load = class_load(split.followers().len() + 1);
                match least_loaded(&loads) {
                    Some((t, least)) if least + load < front_load => {
                        front_load -= load;
                        loads[t].fetch_add(load, Ordering::Relaxed);
                        senders[t]
                            .send(Handoff::Adopt(Box::new(split)))
                            .expect("a back-half thread hung up");
                    }
                    _ => classes.push(split),
                }
            }
            // A buffer no other thread still holds (always so at one
            // worker) is refilled; otherwise the next batch gets a
            // fresh one.
            Arc::try_unwrap(batch).unwrap_or_default()
        });
        drop(senders);
        for handle in handles {
            classes.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        let accuracy = front.predictor().stats().accuracy();
        let mut records: Vec<Option<Record>> = vec![None; n];
        for class in &mut classes {
            let timing = class.finish();
            let l2 = class.hierarchy().l2_inst_accesses();
            for cache in std::iter::once(class.icache()).chain(class.followers()) {
                records[cache.job] = Some(cache.cache.record(timing, l2, accuracy));
            }
        }
        GroupRun {
            records: records
                .into_iter()
                .map(|record| record.expect("every job belongs to one class"))
                .collect(),
            timing_runs: classes.len(),
        }
    })
}

/// The load a split adds: one more timing state, one fewer follower.
const SPLIT_LOAD: usize = TIMING_LOAD - FOLLOWER_LOAD;

/// Times `batch` for every class and returns the classes that split
/// off.
fn consume<C: InstCache>(classes: &mut [BackHalf<C>], batch: &[Event]) -> Vec<BackHalf<C>> {
    let mut splits = Vec::new();
    for class in classes {
        splits.extend(class.consume(batch));
    }
    splits
}

/// The back-half thread with the least load, and that load (the first
/// of a tie).
fn least_loaded(loads: &[AtomicUsize]) -> Option<(usize, usize)> {
    loads
        .iter()
        .map(|load| load.load(Ordering::Relaxed))
        .enumerate()
        .min_by_key(|&(t, load)| (load, t))
}

/// Batches a fanned-out lockstep group lets queue per back-half thread
/// before the front half waits for it.
const FAN_DEPTH: usize = 2;

/// Simulates the jobs of one stream in lockstep (see
/// [`simulate_group`]). Several jobs time their i-caches behind
/// [`Model`]'s static dispatch, so that a baseline and its policies can
/// share timing classes; one job is a class of one whose i-cache is its
/// model's own type (no per-access dispatch).
pub(crate) fn simulate_jobs(
    generated: &synth_workload::Generated,
    jobs: &[Job<'_>],
    workers: usize,
) -> GroupRun {
    if let &[job] = jobs {
        let (cfg, model) = (job.cfg(), Model::new(job));
        return dispatch!(model, cache => simulate_group(generated, vec![(cfg, cache)], 1));
    }
    let jobs = jobs
        .iter()
        .map(|&job| (job.cfg(), Model::new(job)))
        .collect();
    simulate_group(generated, jobs, workers)
}

/// Runs the conventional baseline for `cfg` with no caching at all: the
/// workload is regenerated and the simulation always executes. This is
/// the reference the session's bit-identity contract is tested against;
/// prefer [`run_conventional`] everywhere else.
pub fn run_conventional_uncached(cfg: &RunConfig) -> ConventionalRun {
    let job = Job::Baseline(cfg);
    simulate_jobs(&generate_workload(cfg), &[job], 1).records[0].baseline()
}

/// Runs the conventional baseline for `cfg`.
///
/// Workloads and completed runs are memoized in the global
/// [`crate::session::SimSession`]; simulations are deterministic, so a
/// cache hit returns counters bit-identical to a fresh run.
pub fn run_conventional(cfg: &RunConfig) -> ConventionalRun {
    crate::session::SimSession::global().conventional(cfg)
}

/// Runs `cfg`'s resolved leakage policy with no caching at all (see
/// [`run_conventional_uncached`]).
pub fn run_policy_uncached(cfg: &RunConfig) -> DriRun {
    let job = Job::Policy(cfg);
    simulate_jobs(&generate_workload(cfg), &[job], 1).records[0].policy()
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

/// Runs the DRI i-cache for `cfg` (alias of [`run_policy`]; see there).
pub fn run_dri(cfg: &RunConfig) -> DriRun {
    run_policy(cfg)
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
