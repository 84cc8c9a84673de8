//! The simulation session: process-wide memoization of workloads and runs.
//!
//! Every figure in the paper is assembled from *hundreds* of paired
//! baseline-vs-DRI simulations, and before this layer existed each
//! `run_conventional`/`run_dri` call regenerated its synthetic workload
//! from scratch and every sweep point re-simulated the baseline. A
//! [`SimSession`] eliminates that redundancy without changing a single
//! counter:
//!
//! * **Workloads** are memoized behind [`Arc`], keyed by
//!   `(Benchmark, seed override)`. Generation is deterministic in that
//!   key (see `synth_workload::generator`), so the cached program is the
//!   program a fresh generation would produce, and each workload is built
//!   exactly once per process no matter how many sweep points touch it.
//! * **Baseline (conventional) runs** are memoized by everything that can
//!   influence their counters: benchmark, seed, CPU configuration,
//!   hierarchy configuration, baseline i-cache geometry, and instruction
//!   budget. A parameter search over `n` (miss-bound × size-bound) points
//!   simulates the baseline once, not `n` times — and the search and the
//!   Figure 4–6 sweeps that follow it share that one run too.
//! * **Policy runs** (the DRI i-cache by default, or whichever model
//!   [`crate::runner::RunConfig::policy`] selects) are memoized by the
//!   same key plus the resolved [`PolicyConfig`], so a sweep whose base
//!   point was already visited by the parameter search reuses it instead
//!   of re-simulating — and two policies over one grid never alias.
//!
//! Simulations are deterministic (seeded RNGs, no wall-clock input), so a
//! cache hit is *bit-identical* to a fresh run — the regression tests in
//! `tests/session_identity.rs` assert this field by field. Results are
//! small `Copy` structs; workloads are the only cached values of any size.
//!
//! The global session is shared across threads (guarded by mutexes that
//! are held only for lookup/insert, never during a simulation), so
//! concurrent lookups of one point fall back to at most one redundant
//! simulation per race, and typically none.
//!
//! ## Grid resolution
//!
//! Searches and sweeps resolve a whole grid at once through
//! [`SimSession::resolve_grid`]; [`SimSession::conventional`] and
//! [`SimSession::policy_run`] resolve a grid of one record. All three
//! go through one private resolver: each distinct record is looked up
//! through the tiers once, and the misses that share a committed stream
//! simulate in lockstep groups — the stream is interpreted and predicted
//! once per group, and records whose i-caches answer alike share one
//! timing state until their first disagreement. Every tier step (memory
//! key, store kind and key, decode, encode, stats counter) is written
//! once for both record kinds, so the tiers cannot tell a baseline from
//! a policy run, or a point-by-point walk from a grid.
//!
//! ## The disk tier
//!
//! A session can additionally carry a [`dri_store::ResultStore`], making
//! the lookup order **memory → disk → simulate**. The global session
//! attaches one automatically when `DRI_STORE` names a directory (unset
//! = memory-only, so tests stay hermetic by default). Disk entries are
//! keyed by a stable content hash of everything that can influence the
//! counters (see [`crate::persist`]) and carry checksummed payloads, so
//! a loaded result is bit-identical to the simulation that produced it —
//! across processes, not just within one — and a corrupt or truncated
//! entry is silently recomputed and overwritten, never trusted.
//!
//! ## The remote tier
//!
//! A session can further carry a [`dri_serve::ShardedStore`] client,
//! making the full lookup order **memory → disk → remote → simulate**.
//! The global session attaches one when `DRI_SHARDS` names a
//! `dri-serve` instance or a whole fleet (again, unset = off) —
//! in a fleet, every record key is consistent-hashed to its owning
//! shards, batch traffic is split per shard, and reads fail over to
//! replicas when a shard dies. A remote hit is validated end-to-end
//! (the full checksummed record crosses the wire) and is immediately
//! **healed into the local disk tier** when one is attached, so a record
//! crosses the network at most once per worker; the remote service
//! itself is never written to. Remote failures of any kind — the server
//! is down, a response is truncated, a record is corrupt — degrade to
//! the next tier (a local simulation), exactly like disk corruption.
//!
//! ## Batch prefetch
//!
//! Sweeps and manifest-driven suites know their full configuration grid
//! before they run a point, so [`SimSession::prefetch`] resolves the
//! whole grid through the tiers **in bulk** before the per-point fan-out
//! starts: the grid's store keys are enumerated into a deduplicated
//! [`dri_store::KeyPlan`], records already in memory are skipped, the
//! local disk tier is swept once, and everything still missing is
//! fetched from the remote tier in a single chunked `POST /batch`
//! round-trip (healed into the local store on arrival). Only true misses
//! are left for the grid's lockstep groups to simulate. The pass
//! is purely a cache-warming step — every record it installs is the same
//! validated, bit-identical record the per-point lookup path would have
//! loaded — and it is on by default; `DRI_PREFETCH=0` (or `suite
//! --no-prefetch` / a manifest's `prefetch = off`) restores per-point
//! lookups. See `tests/batch_prefetch.rs` for the round-trip and
//! bit-identity proofs.
//!
//! ## Write-through push
//!
//! Prefetch heals records *downward* (remote → local disk); push mode
//! heals them **upward**. With `DRI_PUSH=1` (or `suite --push` / a
//! manifest's `push = on`) and a remote tier attached, every record this
//! session *simulates* — a true miss nothing could serve — is buffered,
//! and [`SimSession::push_pending`] sends the batch to the central
//! server after each sweep's fan-out, chunked exactly like prefetch's
//! `POST /batch` (one `POST /batch-put` per [`dri_serve::BATCH_CHUNK`]
//! records). Pushes are signed with the `DRI_TOKEN` shared secret (see
//! `dri_serve::auth`); a server that rejects them — wrong token,
//! read-only — costs one warning and the records simply stay local.
//! This is what turns a fleet of workers into one shared memoization
//! domain: each grid point is simulated once *fleet-wide*, by whichever
//! worker reaches it first (`tests/push_tier.rs` proves the full
//! two-pushers-one-cold-replayer scenario bit-identically).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dri_serve::{BatchEntry, PushOutcome, RemoteStats, ShardedStore};
use dri_store::{KeyPlan, ResultStore, StoreStats};
use dri_telemetry::{trace, Histogram, Span, TraceEvent};

use cache_sim::config::CacheConfig;
use cache_sim::hierarchy::HierarchyConfig;
use dri_core::PolicyConfig;
use ooo_cpu::config::CpuConfig;
use synth_workload::suite::Benchmark;
use synth_workload::Generated;

use crate::config::config;
use crate::persist::SCHEMA_VERSION;
use crate::runner::{stream_key, ConventionalRun, DriRun, Job, Record, RunConfig, StreamKey};

/// Identifies a generated workload: the benchmark plus the optional seed
/// override (`None` = the benchmark's canonical seed).
pub type WorkloadKey = (Benchmark, Option<u64>);

/// Everything that can influence a record's counters: its stream, its
/// timing configuration, and the i-cache on its fetch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RecordKey {
    benchmark: Benchmark,
    seed_override: Option<u64>,
    cpu: CpuConfig,
    hierarchy: HierarchyConfig,
    instruction_budget: Option<u64>,
    icache: ICacheKey,
}

/// The i-cache half of a [`RecordKey`]. A policy travels *resolved*
/// ([`RunConfig::resolved_policy`]), so a config with `policy: None`
/// and one with an explicit identical DRI selection share an entry,
/// exactly as they share a store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ICacheKey {
    Baseline(CacheConfig),
    Policy(PolicyConfig),
}

/// What each tier step needs to know about a record, for both kinds.
impl Job<'_> {
    /// The record's memory-tier key.
    fn memory_key(self) -> RecordKey {
        let cfg = self.cfg();
        RecordKey {
            benchmark: cfg.benchmark,
            seed_override: cfg.seed_override,
            cpu: cfg.cpu,
            hierarchy: cfg.hierarchy,
            instruction_budget: cfg.instruction_budget,
            icache: match self {
                Job::Baseline(_) => ICacheKey::Baseline(cfg.baseline_icache()),
                Job::Policy(_) => ICacheKey::Policy(cfg.resolved_policy()),
            },
        }
    }

    /// The record's store kind (its directory on disk and its kind on
    /// the wire).
    fn kind(self) -> &'static str {
        match self {
            Job::Baseline(_) => crate::persist::BASELINE_KIND,
            Job::Policy(cfg) => crate::persist::policy_kind(cfg),
        }
    }

    /// The record's store key.
    fn store_key(self) -> u128 {
        match self {
            Job::Baseline(cfg) => crate::persist::baseline_key(cfg),
            Job::Policy(cfg) => crate::persist::policy_key(cfg),
        }
    }

    /// Decodes a stored payload of this record's kind. Every policy kind
    /// shares the [`crate::persist::decode_dri`] payload layout.
    fn decode(self, payload: &[u8]) -> Option<Record> {
        match self {
            Job::Baseline(_) => crate::persist::decode_conventional(payload).map(Record::Baseline),
            Job::Policy(_) => crate::persist::decode_dri(payload).map(Record::Policy),
        }
    }

    /// The name of the record's `tier` trace spans: `conventional` for a
    /// baseline, the policy kind otherwise, so a trace distinguishes the
    /// models at a glance.
    fn span_name(self) -> &'static str {
        match self {
            Job::Baseline(_) => "conventional",
            Job::Policy(cfg) => crate::persist::policy_kind(cfg),
        }
    }
}

/// The store payload of a record.
fn encode(record: &Record) -> Vec<u8> {
    match record {
        Record::Baseline(run) => crate::persist::encode_conventional(run),
        Record::Policy(run) => crate::persist::encode_dri(run),
    }
}

/// Cache-hit/miss counters, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Workload cache hits.
    pub workload_hits: u64,
    /// Workloads generated (cache misses).
    pub workload_misses: u64,
    /// Baseline-run memory-cache hits.
    pub baseline_hits: u64,
    /// Baseline simulations executed (missed memory *and* disk).
    pub baseline_misses: u64,
    /// Baseline runs loaded from the disk store (no simulation ran).
    pub baseline_disk_hits: u64,
    /// Baseline runs fetched from the remote service (no simulation ran).
    pub baseline_remote_hits: u64,
    /// Policy-run memory-cache hits (the `dri_` prefix is historical:
    /// these count the non-baseline side of every pair, whichever
    /// leakage policy it runs).
    pub dri_hits: u64,
    /// Policy simulations executed (missed memory *and* disk).
    pub dri_misses: u64,
    /// Policy runs loaded from the disk store (no simulation ran).
    pub dri_disk_hits: u64,
    /// Policy runs fetched from the remote service (no simulation ran).
    pub dri_remote_hits: u64,
    /// Timing states actually run: one per simulated record alone, and
    /// in a lockstep group one per timing class, initial or split off
    /// (see [`SimSession::resolve_grid`]). At most [`Self::simulations`].
    pub timing_runs: u64,
}

impl SessionStats {
    /// Total simulations this session actually executed.
    pub fn simulations(&self) -> u64 {
        self.baseline_misses + self.dri_misses
    }

    /// Total runs served from the disk tier.
    pub fn disk_hits(&self) -> u64 {
        self.baseline_disk_hits + self.dri_disk_hits
    }

    /// Total runs served from the remote tier.
    pub fn remote_hits(&self) -> u64 {
        self.baseline_remote_hits + self.dri_remote_hits
    }

    /// The counter a record of `job`'s kind bumps when `tier` answers it
    /// (`simulate` counts a miss).
    fn counter(&mut self, job: Job<'_>, tier: &str) -> &mut u64 {
        let baseline = matches!(job, Job::Baseline(_));
        match (tier, baseline) {
            ("memory", true) => &mut self.baseline_hits,
            ("memory", false) => &mut self.dri_hits,
            ("disk", true) => &mut self.baseline_disk_hits,
            ("disk", false) => &mut self.dri_disk_hits,
            ("remote", true) => &mut self.baseline_remote_hits,
            ("remote", false) => &mut self.dri_remote_hits,
            (_, true) => &mut self.baseline_misses,
            (_, false) => &mut self.dri_misses,
        }
    }
}

/// Bulk-prefetches `cfgs` through the **global** session's tiers when
/// prefetch is enabled — the hook a campaign calls before its
/// per-benchmark fan-out ([`SimSession::resolve_grid`] runs the same pass
/// for its own grid). Returns the per-plan outcome (`None` when prefetch
/// is disabled).
pub fn prefetch_grid(cfgs: &[RunConfig]) -> Option<PrefetchStats> {
    config()
        .prefetch
        .then(|| SimSession::global().prefetch(cfgs))
}

/// Pushes the **global** session's pending simulated records upward when
/// push mode is enabled — the hook a campaign calls after its fan-out
/// completes (the post-campaign mirror of [`prefetch_grid`];
/// [`SimSession::resolve_grid`] pushes after each grid itself). Returns
/// the per-batch outcome (`None` when push is disabled).
pub fn push_grid() -> Option<PushStats> {
    let session = SimSession::global();
    session.push.then(|| session.push_pending())
}

/// Outcome counters of one (or, aggregated, every) write-through push.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushStats {
    /// Push passes that had at least one pending record (empty passes —
    /// a fully warm sweep — cost nothing and count nothing).
    pub batches: u64,
    /// Records drained from the pending buffer and offered to the server.
    pub attempted: u64,
    /// Records the server validated and landed in its store.
    pub pushed: u64,
    /// Records the server definitively rejected (bad token, read-only
    /// server, or a frame that failed validation).
    pub rejected: u64,
    /// Records whose fate is unknown (transport failure mid-batch).
    pub failed: u64,
    /// `POST /batch-put` exchanges that reached the server
    /// (⌈attempted ∕ [`dri_serve::BATCH_CHUNK`]⌉ when all goes well).
    pub round_trips: u64,
}

/// Outcome counters of one (or, aggregated, every) bulk-prefetch pass.
///
/// Every planned record lands in exactly one of the four outcome
/// buckets: `memory_hits + disk_hits + remote_hits + misses == planned`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch passes executed.
    pub plans: u64,
    /// Records enumerated, summed over plans. Each plan dedups
    /// internally (a parameter search reuses one baseline across its
    /// whole grid, so a plan holds well under two records per grid
    /// point), but a record re-planned by a nested grid — a
    /// per-benchmark search inside an already-prefetched campaign —
    /// counts once per plan (it shows up again as a memory hit).
    pub planned: u64,
    /// Planned records already resident in the memory tier.
    pub memory_hits: u64,
    /// Planned records loaded from the local disk tier.
    pub disk_hits: u64,
    /// Planned records fetched from the remote tier (and healed into the
    /// local disk tier when one is attached).
    pub remote_hits: u64,
    /// Planned records no tier could serve — the simulations the sweep's
    /// workers will actually run.
    pub misses: u64,
    /// `POST /batch` round-trips the remote pass cost (0 for a plan the
    /// local tiers fully absorbed; ⌈remainder / `BATCH_CHUNK`⌉ otherwise).
    pub batch_round_trips: u64,
}

/// Per-tier lookup-resolution latency: each histogram holds the
/// wall-times of the [`SimSession::conventional`]/
/// [`SimSession::policy_run`]/[`SimSession::resolve_grid`] lookups
/// *answered by that tier* — so `memory` is the warm-path cost, `disk`
/// the load+decode cost, and `remote` the round-trip cost. Only
/// populated on a **timed** session (tracing on at construction, or
/// [`SessionBuilder::timed`]): the warm memory path runs in hundreds of
/// nanoseconds, where even two clock reads are visible, so untimed
/// sessions skip the clocks entirely.
///
/// `simulate` holds one sample per simulated record, measuring the
/// simulation only — not the lookups that missed before it, nor the
/// workload's generation. Records simulated together in one lockstep
/// group each contribute the group's wall time divided by its size; a
/// lone miss is a group of one.
#[derive(Debug, Default)]
pub struct TierLatency {
    /// Lookups the memory tier answered.
    pub memory: Histogram,
    /// Lookups the disk tier answered.
    pub disk: Histogram,
    /// Lookups the remote tier answered.
    pub remote: Histogram,
    /// Records that fell through to a fresh simulation.
    pub simulate: Histogram,
}

impl TierLatency {
    /// The histogram for a tier's outcome name.
    fn of(&self, tier: &str) -> &Histogram {
        match tier {
            "memory" => &self.memory,
            "disk" => &self.disk,
            "remote" => &self.remote,
            _ => &self.simulate,
        }
    }

    /// `(tier, histogram)` rows in lookup order — the suite's summary
    /// table iterates these.
    pub fn rows(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("memory", &self.memory),
            ("disk", &self.disk),
            ("remote", &self.remote),
            ("simulate", &self.simulate),
        ]
    }
}

/// Memoization scope for workloads and runs (see the module docs).
///
/// Most callers use [`SimSession::global`] through the `runner` free
/// functions; a fresh `SimSession::builder().build()` gives tests and
/// long-lived servers an isolated scope they can drop to release memory.
#[derive(Debug, Default)]
pub struct SimSession {
    workloads: Mutex<HashMap<WorkloadKey, Arc<Generated>>>,
    /// The memory tier: baseline and policy records under one map.
    records: Mutex<HashMap<RecordKey, Record>>,
    stats: Mutex<SessionStats>,
    prefetch_totals: Mutex<PrefetchStats>,
    /// Store keys a successful remote exchange has definitively answered
    /// with a miss frame: the serving store does not hold them, so
    /// re-asking — from a nested grid's prefetch or from the per-point
    /// lookup that precedes a simulation — is pure wasted traffic. Never
    /// consulted for anything but skipping the remote tier; the disk and
    /// memory tiers still see every lookup.
    known_missing: Mutex<HashSet<u128>>,
    /// Encoded payloads of records this session *simulated* while push
    /// mode was active, awaiting the next [`Self::push_pending`] drain.
    /// Simulated-only by construction: disk/remote hits already exist
    /// upstream or arrived from there, so pushing them back would be
    /// redundant traffic.
    pending_push: Mutex<Vec<(&'static str, u128, Vec<u8>)>>,
    push_totals: Mutex<PushStats>,
    /// Whether simulated records are buffered for upward push (the
    /// global session takes it from [`crate::config::Config::push`]).
    push: bool,
    /// Whether lookups are wall-clocked into [`Self::tier_latency`] (and
    /// traced). Resolved once at construction — see [`TierLatency`] for
    /// why the warm path must not read clocks by default. A session
    /// built by `Default::default()` is untimed.
    timed: bool,
    tier_latency: TierLatency,
    store: Option<ResultStore>,
    remote: Option<ShardedStore>,
}

/// Builds a [`SimSession`] from any combination of optional tiers and
/// switches — the one construction path (the former `new` /
/// `with_store` / `with_remote` / `with_tiers` / `with_tiers_push` /
/// `with_timing` constructor family kept drifting apart: PR 7 fixed a
/// flag one of them silently dropped).
///
/// Defaults: memory-only, push off, timed exactly when tracing is on
/// ([`trace::enabled`]) unless [`Self::timed`] pins it.
///
/// ```
/// use dri_experiments::session::SimSession;
///
/// let session = SimSession::builder().build(); // memory-only
/// assert!(session.store().is_none() && session.remote().is_none());
/// ```
#[derive(Debug, Default)]
pub struct SessionBuilder {
    store: Option<ResultStore>,
    remote: Option<ShardedStore>,
    push: bool,
    timed: Option<bool>,
}

impl SessionBuilder {
    /// Attaches (or, with `None`, omits) the disk tier.
    pub fn store(mut self, store: impl Into<Option<ResultStore>>) -> Self {
        self.store = store.into();
        self
    }

    /// Attaches (or, with `None`, omits) the remote tier: a fleet
    /// client, where batch traffic splits per owning shard and reads
    /// fail over to replicas, or one server as
    /// [`ShardedStore::single`].
    pub fn sharded(mut self, remote: impl Into<Option<ShardedStore>>) -> Self {
        self.remote = remote.into();
        self
    }

    /// Sets write-through push mode.
    pub fn push(mut self, push: bool) -> Self {
        self.push = push;
        self
    }

    /// Pins lookup timing instead of following tracing — the bench
    /// harness uses `.timed(true)` to measure the timed warm path.
    pub fn timed(mut self, timed: bool) -> Self {
        self.timed = Some(timed);
        self
    }

    /// Finishes the session.
    pub fn build(self) -> SimSession {
        SimSession {
            store: self.store,
            remote: self.remote,
            push: self.push,
            timed: self.timed.unwrap_or_else(trace::enabled),
            ..SimSession::default()
        }
    }
}

impl SimSession {
    /// Starts building a session; see [`SessionBuilder`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The process-wide session every default-path run shares, built at
    /// first use from [`config`]: the disk tier when `DRI_STORE` names a
    /// usable directory, the remote tier when `DRI_SHARDS` names a
    /// fleet, and the push and timing switches.
    pub fn global() -> &'static SimSession {
        static GLOBAL: OnceLock<SimSession> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let config = config();
            SimSession::builder()
                .store(config.fleet.open_store())
                .sharded(config.fleet.remote())
                .push(config.push())
                .timed(config.timed || trace::enabled())
                .build()
        })
    }

    /// The disk tier, if one is attached.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Snapshot of the disk tier's counters, if one is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(ResultStore::stats)
    }

    /// The remote tier, if one is attached: a fleet client that is a
    /// plain pass-through when it holds a single shard.
    pub fn remote(&self) -> Option<&ShardedStore> {
        self.remote.as_ref()
    }

    /// Snapshot of the remote tier's counters (summed over shards), if
    /// one is attached.
    pub fn remote_stats(&self) -> Option<RemoteStats> {
        self.remote.as_ref().map(ShardedStore::stats)
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> SessionStats {
        *self.stats.lock().expect("session stats lock")
    }

    /// Per-tier lookup-resolution latency histograms (empty unless the
    /// session is timed — see [`TierLatency`]).
    pub fn tier_latency(&self) -> &TierLatency {
        &self.tier_latency
    }

    /// Whether lookups are wall-clocked (and traced) on this session.
    pub fn is_timed(&self) -> bool {
        self.timed
    }

    /// Aggregate of every [`Self::prefetch`] pass this session ran.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        *self.prefetch_totals.lock().expect("prefetch totals lock")
    }

    /// Aggregate of every [`Self::push_pending`] drain this session ran.
    pub fn push_stats(&self) -> PushStats {
        *self.push_totals.lock().expect("push totals lock")
    }

    /// Drains the pending-push buffer to the remote service in one
    /// chunked `POST /batch-put` pass — the post-sweep mirror of
    /// [`Self::prefetch`]. Every buffered payload is framed into the
    /// same self-validating record the local store persists
    /// ([`dri_store::frame_record`]), so the server re-validates
    /// end-to-end before a byte lands. Best-effort by design: rejected
    /// and failed records are dropped from the buffer (they live on in
    /// this worker's local tiers), counted, and never retried — a dead
    /// or read-only server must not add latency to every sweep.
    ///
    /// No-op (and no exchange) when the buffer is empty or no remote
    /// tier is attached.
    pub fn push_pending(&self) -> PushStats {
        let pending: Vec<(&'static str, u128, Vec<u8>)> = {
            let mut buffer = self.pending_push.lock().expect("pending push lock");
            std::mem::take(&mut *buffer)
        };
        let mut report = PushStats::default();
        let Some(remote) = &self.remote else {
            return report;
        };
        if pending.is_empty() {
            return report;
        }
        report.batches = 1;
        report.attempted = pending.len() as u64;
        let records: Vec<(&'static str, u128, Vec<u8>)> = pending
            .into_iter()
            .map(|(kind, key, payload)| {
                (
                    kind,
                    key,
                    dri_store::frame_record(SCHEMA_VERSION, key, &payload),
                )
            })
            .collect();
        let entries: Vec<(&str, u32, u128, &[u8])> = records
            .iter()
            .map(|(kind, key, record)| (*kind, SCHEMA_VERSION, *key, record.as_slice()))
            .collect();
        let (outcomes, round_trips) = remote.push_batch_chunked(&entries, dri_serve::BATCH_CHUNK);
        report.round_trips = round_trips;
        for outcome in outcomes {
            match outcome {
                PushOutcome::Accepted => report.pushed += 1,
                PushOutcome::Rejected => report.rejected += 1,
                PushOutcome::Failed => report.failed += 1,
            }
        }
        let mut totals = self.push_totals.lock().expect("push totals lock");
        totals.batches += report.batches;
        totals.attempted += report.attempted;
        totals.pushed += report.pushed;
        totals.rejected += report.rejected;
        totals.failed += report.failed;
        totals.round_trips += report.round_trips;
        report
    }

    /// Resolves the whole configuration grid through the cache tiers in
    /// bulk, before any per-point lookup runs (see the module docs):
    ///
    /// 1. every grid point's baseline and DRI store keys are enumerated
    ///    into one deduplicated [`KeyPlan`];
    /// 2. records already in the memory tier are skipped;
    /// 3. the local disk tier is swept for the remainder;
    /// 4. what is still missing is fetched from the remote tier in one
    ///    chunked `POST /batch` pass, each arrival healed into the local
    ///    disk tier;
    /// 5. true misses are left for the caller's fan-out to simulate —
    ///    and the ones a successful exchange *definitively* reported
    ///    absent are remembered, so nested plans and the per-point
    ///    lookups that precede those simulations never re-ask the
    ///    server for records it is known not to hold.
    ///
    /// Disk and remote arrivals are installed into the memory tier and
    /// counted in [`SessionStats`] exactly as per-point lookups would
    /// have counted them, so a prefetched grid replays with the same
    /// observable tier accounting — just fewer round-trips. The pass
    /// never simulates; an empty (or fully memory-warm) plan touches
    /// neither the disk nor the network.
    pub fn prefetch(&self, cfgs: &[RunConfig]) -> PrefetchStats {
        let jobs: Vec<Job<'_>> = cfgs
            .iter()
            .map(Job::Baseline)
            .chain(cfgs.iter().map(Job::Policy))
            .collect();
        self.prefetch_jobs(&jobs)
    }

    /// [`Self::prefetch`] over an explicit record list (what
    /// [`Self::resolve_grid`] is about to resolve). The batch request
    /// lists the records in `jobs` order.
    fn prefetch_jobs(&self, jobs: &[Job<'_>]) -> PrefetchStats {
        // Traced as one `kind:"prefetch"` span covering the whole plan;
        // the outcome labels carry the per-tier split so a trace alone
        // reconstructs the bulk pass without the stderr summary.
        let trace_start = trace::enabled().then(|| (trace::now_us(), Instant::now()));
        let mut report = PrefetchStats {
            plans: 1,
            ..PrefetchStats::default()
        };

        // 1–2. Enumerate the deduplicated key grid, skipping records the
        // memory tier already holds. The map lock is held only for the
        // membership probes, never across I/O.
        let mut plan = KeyPlan::new();
        let mut pending: Vec<(u128, Job<'_>)> = Vec::new();
        {
            let records = self.records.lock().expect("record lock");
            for &job in jobs {
                let store_key = job.store_key();
                if plan.push(job.kind(), SCHEMA_VERSION, store_key) {
                    report.planned += 1;
                    if records.contains_key(&job.memory_key()) {
                        report.memory_hits += 1;
                    } else {
                        pending.push((store_key, job));
                    }
                }
            }
        }

        // 3. One pass over the local disk tier.
        if self.store.is_some() {
            pending.retain(|&(store_key, job)| match self.disk(job, store_key) {
                Some(record) => {
                    self.install(job, record, "disk");
                    report.disk_hits += 1;
                    false
                }
                None => true,
            });
        }

        // Records a prior exchange definitively reported missing from
        // the serving store go straight to the simulate bucket — a
        // nested grid (a per-benchmark search inside an already-planned
        // campaign) must not re-ask for guaranteed misses.
        {
            let missing = self.known_missing.lock().expect("known-missing lock");
            if !missing.is_empty() {
                pending.retain(|(store_key, _)| {
                    let skip = missing.contains(store_key);
                    report.misses += u64::from(skip);
                    !skip
                });
            }
        }

        // 4. One chunked batch fetch for everything still missing.
        match (&self.remote, pending.len()) {
            (Some(remote), 1..) => {
                let entries: Vec<(&str, u32, u128)> = pending
                    .iter()
                    .map(|&(store_key, job)| (job.kind(), SCHEMA_VERSION, store_key))
                    .collect();
                let (outcomes, round_trips) =
                    remote.fetch_batch_outcomes(&entries, dri_serve::BATCH_CHUNK);
                report.batch_round_trips = round_trips;
                let mut outcomes = outcomes.into_iter();
                let mut definitive_misses: Vec<u128> = Vec::new();
                for (store_key, job) in pending {
                    match outcomes.next() {
                        Some(BatchEntry::Hit(payload)) => match job.decode(&payload) {
                            Some(record) => {
                                self.save(job.kind(), store_key, &payload);
                                self.install(job, record, "remote");
                                report.remote_hits += 1;
                            }
                            None => report.misses += 1,
                        },
                        Some(BatchEntry::Miss) => {
                            definitive_misses.push(store_key);
                            report.misses += 1;
                        }
                        _ => report.misses += 1,
                    }
                }
                if !definitive_misses.is_empty() {
                    self.known_missing
                        .lock()
                        .expect("known-missing lock")
                        .extend(definitive_misses);
                }
            }
            // 5. No remote tier (or nothing left): the rest simulates.
            (_, remainder) => report.misses += remainder as u64,
        }

        let mut totals = self.prefetch_totals.lock().expect("prefetch totals lock");
        totals.plans += report.plans;
        totals.planned += report.planned;
        totals.memory_hits += report.memory_hits;
        totals.disk_hits += report.disk_hits;
        totals.remote_hits += report.remote_hits;
        totals.misses += report.misses;
        totals.batch_round_trips += report.batch_round_trips;
        drop(totals);
        if let Some((ts_us, started)) = trace_start {
            let mut event = TraceEvent::new("prefetch", "plan")
                .outcome("resolved")
                .label("planned", &report.planned.to_string())
                .label("memory", &report.memory_hits.to_string())
                .label("disk", &report.disk_hits.to_string())
                .label("remote", &report.remote_hits.to_string())
                .label("misses", &report.misses.to_string())
                .label("round_trips", &report.batch_round_trips.to_string());
            event.ts_us = ts_us;
            event.dur_us = Some(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
            event.emit();
        }
        report
    }

    /// The memoized workload for `cfg` (generated on first use).
    pub fn workload(&self, cfg: &RunConfig) -> Arc<Generated> {
        let key = (cfg.benchmark, cfg.seed_override);
        if let Some(found) = self.workloads.lock().expect("workload lock").get(&key) {
            self.stats.lock().expect("session stats lock").workload_hits += 1;
            return Arc::clone(found);
        }
        // Generate outside the lock: concurrent first uses may race and
        // both generate, but generation is deterministic so either result
        // is the canonical one.
        let generated = Arc::new(crate::runner::generate_workload(cfg));
        self.stats
            .lock()
            .expect("session stats lock")
            .workload_misses += 1;
        Arc::clone(
            self.workloads
                .lock()
                .expect("workload lock")
                .entry(key)
                .or_insert(generated),
        )
    }

    /// The memoized baseline run for `cfg`: memory, then disk, then the
    /// remote service, then a fresh simulation (whose result is
    /// published to the local tiers). On a timed session the resolution
    /// is wall-clocked into [`Self::tier_latency`] (bucketed by the tier
    /// that answered) and emitted as a `kind:"tier"` trace span; the
    /// resolution itself — and therefore every counter in the result —
    /// is identical either way.
    pub fn conventional(&self, cfg: &RunConfig) -> ConventionalRun {
        self.resolve_one(Job::Baseline(cfg)).baseline()
    }

    /// The memoized leakage-policy run for `cfg` (DRI unless
    /// [`RunConfig::policy`] selects another model): memory, then disk,
    /// then the remote service, then a fresh simulation (whose result is
    /// published to the local tiers). Timed exactly like
    /// [`Self::conventional`]; the trace span is named after the policy
    /// kind, so a trace distinguishes the models at a glance.
    pub fn policy_run(&self, cfg: &RunConfig) -> DriRun {
        self.resolve_one(Job::Policy(cfg)).policy()
    }

    /// Resolves a whole grid: the baseline records of `baselines` and
    /// the policy records of `points`, returned in request order.
    ///
    /// 1. With prefetch on, the records are planned and bulk-fetched
    ///    through the tiers first ([`Self::prefetch`]).
    /// 2. Every record is looked up through memory → disk → remote,
    ///    exactly as [`Self::conventional`]/[`Self::policy_run`] look it
    ///    up (a repeated record is looked up once; its repeats are
    ///    memory hits afterwards, as they would be point by point).
    /// 3. The misses are grouped by what the front half reads
    ///    (benchmark, seed override, instruction budget), one group per
    ///    stream, and each group is simulated in lockstep: one
    ///    interpretation of the stream feeds the group's *timing
    ///    classes*. A class is the records whose i-caches have answered
    ///    every access alike so far; it shares one timing state and
    ///    splits at its first disagreeing access. The records start in
    ///    classes by CPU, hierarchy, i-cache block size and hit latency.
    ///    The groups run across [`crate::harness::parallel_map`]; when
    ///    there are fewer groups than granted workers, each group also
    ///    gets a share of the leftover grant and spreads its classes
    ///    over that many threads, still interpreting the stream once.
    /// 4. Each simulated record is published as a single point's miss
    ///    is, by the same code: one `baseline_misses`/`dri_misses`, a
    ///    disk save, a push buffer entry, and a first-wins memory
    ///    install. Each timing state run counts one
    ///    [`SessionStats::timing_runs`].
    /// 5. With push mode on, whatever was simulated is pushed upward.
    ///
    /// A record depends only on its own configuration and the stream,
    /// so the results do not depend on how the misses were grouped. On a
    /// timed session every lookup is traced as [`Self::conventional`]
    /// traces it, and every simulated record gets one `tier` span with
    /// outcome `simulate` whose duration is its group's wall time
    /// divided by the group's size.
    pub fn resolve_grid(&self, baselines: &[RunConfig], points: &[RunConfig]) -> GridRuns {
        let jobs: Vec<Job<'_>> = baselines
            .iter()
            .map(Job::Baseline)
            .chain(points.iter().map(Job::Policy))
            .collect();
        if config().prefetch {
            self.prefetch_jobs(&jobs);
        }
        let mut records = vec![None; jobs.len()];
        self.resolve(&jobs, |i, record| records[i] = Some(record));
        let mut records = records
            .into_iter()
            .map(|record| record.expect("every job resolves"));
        let grid = GridRuns {
            baselines: records
                .by_ref()
                .take(baselines.len())
                .map(Record::baseline)
                .collect(),
            points: records.map(Record::policy).collect(),
        };
        if self.push {
            self.push_pending();
        }
        grid
    }

    /// [`Self::resolve`] for one record.
    fn resolve_one(&self, job: Job<'_>) -> Record {
        let mut answer = None;
        self.resolve(&[job], |_, record| answer = Some(record));
        answer.expect("a simulation always answers")
    }

    /// The one record path: calls `answer(i, record)` once for each
    /// `jobs[i]`.
    ///
    /// 1. The first occurrence of each distinct record is looked up
    ///    through memory → disk → remote ([`Self::lookup`]).
    /// 2. The misses simulate in lockstep groups, one per stream
    ///    ([`Self::simulate_jobs`]), and each is published
    ///    ([`Self::publish`]) and traced in job order.
    /// 3. Repeats are looked up last, so they hit memory.
    fn resolve(&self, jobs: &[Job<'_>], mut answer: impl FnMut(usize, Record)) {
        let mut seen: HashSet<RecordKey> = HashSet::new();
        let (mut misses, mut repeats): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for (i, &job) in jobs.iter().enumerate() {
            // One job cannot repeat: the warm single-record path skips
            // the set, and with it every allocation.
            if jobs.len() > 1 && !seen.insert(job.memory_key()) {
                repeats.push(i);
                continue;
            }
            match self.timed(job, || self.lookup(job)) {
                Some(record) => answer(i, record),
                None => misses.push(i),
            }
        }
        if !misses.is_empty() {
            let missed: Vec<Job<'_>> = misses.iter().map(|&i| jobs[i]).collect();
            for (i, simulated) in misses.into_iter().zip(self.simulate_jobs(&missed)) {
                let job = jobs[i];
                answer(i, self.publish(job, simulated.record));
                if self.timed {
                    self.tier_latency.simulate.record_duration(simulated.share);
                    let mut event = TraceEvent::new("tier", job.span_name())
                        .outcome("simulate")
                        .label("benchmark", job.cfg().benchmark.name());
                    event.ts_us = simulated.ts_us;
                    event.dur_us =
                        Some(u64::try_from(simulated.share.as_micros()).unwrap_or(u64::MAX));
                    event.emit();
                }
            }
        }
        for i in repeats {
            let job = jobs[i];
            let record = self.timed(job, || self.lookup(job));
            answer(
                i,
                record.expect("a repeat follows its first occurrence into memory"),
            );
        }
    }

    /// Runs one lookup; on a timed session, wall-clocks it into
    /// [`Self::tier_latency`] and traces it as a `kind:"tier"` span
    /// labelled with the tier that answered. A lookup that misses
    /// records nothing (its simulation is timed on its own).
    fn timed(
        &self,
        job: Job<'_>,
        lookup: impl FnOnce() -> Option<(Record, &'static str)>,
    ) -> Option<Record> {
        if !self.timed {
            return lookup().map(|(record, _)| record);
        }
        let span =
            Span::begin("tier", job.span_name()).label("benchmark", job.cfg().benchmark.name());
        let (record, tier) = lookup()?;
        let elapsed = span.finish(tier);
        self.tier_latency.of(tier).record_duration(elapsed);
        Some(record)
    }

    /// The tiers short of simulating: memory, disk, then remote. Names
    /// the tier that answered.
    fn lookup(&self, job: Job<'_>) -> Option<(Record, &'static str)> {
        let found = self
            .records
            .lock()
            .expect("record lock")
            .get(&job.memory_key())
            .copied();
        if let Some(record) = found {
            self.count(job, "memory");
            return Some((record, "memory"));
        }
        let store_key = job.store_key();
        let (record, tier) = match self.disk(job, store_key) {
            Some(record) => (record, "disk"),
            None => (self.remote_fetch(job, store_key)?, "remote"),
        };
        Some((self.install(job, record, tier), tier))
    }

    /// Loads a record from the disk tier, or `None` on a miss or a
    /// rejected (corrupt / truncated / wrong-schema) entry.
    fn disk(&self, job: Job<'_>, store_key: u128) -> Option<Record> {
        self.store
            .as_ref()?
            .load_decoded(job.kind(), SCHEMA_VERSION, store_key, |payload| {
                job.decode(payload)
            })
    }

    /// Fetches a record from the remote tier and heals it into the local
    /// disk tier (when one is attached): the record then never crosses
    /// the wire again from this machine. The payload arrived end-to-end
    /// validated (checksummed record, checked by the client); `decode`
    /// still bounds-checks every field, so a layout mismatch degrades to
    /// `None` → a local simulation, like any other miss.
    fn remote_fetch(&self, job: Job<'_>, store_key: u128) -> Option<Record> {
        let remote = self.remote.as_ref()?;
        // A prior batch exchange definitively established the record is
        // absent from the serving store: skip straight to simulation
        // rather than re-asking per point.
        if self
            .known_missing
            .lock()
            .expect("known-missing lock")
            .contains(&store_key)
        {
            return None;
        }
        let payload = remote.fetch(job.kind(), SCHEMA_VERSION, store_key)?;
        let record = job.decode(&payload)?;
        self.save(job.kind(), store_key, &payload);
        Some(record)
    }

    /// Writes a payload to the local disk tier, when one is attached: a
    /// remote arrival heals into it, a simulated record persists in it.
    fn save(&self, kind: &str, key: u128, payload: &[u8]) {
        if let Some(store) = &self.store {
            store.save(kind, SCHEMA_VERSION, key, payload);
        }
    }

    /// Counts one record of `job`'s kind answered by `tier`.
    fn count(&self, job: Job<'_>, tier: &str) {
        *self
            .stats
            .lock()
            .expect("session stats lock")
            .counter(job, tier) += 1;
    }

    /// Installs a record `tier` answered in the memory tier, counted,
    /// unless a racing resolution got there first; returns the installed
    /// record.
    fn install(&self, job: Job<'_>, record: Record, tier: &str) -> Record {
        self.count(job, tier);
        *self
            .records
            .lock()
            .expect("record lock")
            .entry(job.memory_key())
            .or_insert(record)
    }

    /// Publishes a freshly simulated record: saves it to the disk tier
    /// and buffers it for push (encoding it only when either wants it),
    /// then counts the simulation and installs it in memory.
    fn publish(&self, job: Job<'_>, record: Record) -> Record {
        let push = self.remote.is_some() && self.push;
        if self.store.is_some() || push {
            let (store_key, payload) = (job.store_key(), encode(&record));
            self.save(job.kind(), store_key, &payload);
            if push {
                self.pending_push.lock().expect("pending push lock").push((
                    job.kind(),
                    store_key,
                    payload,
                ));
            }
        }
        self.install(job, record, "simulate")
    }

    /// Simulates `jobs` in lockstep groups, one per stream (see
    /// [`Self::resolve_grid`]); results come back in job order.
    fn simulate_jobs(&self, jobs: &[Job<'_>]) -> Vec<Simulated> {
        // Jobs by stream, in first-seen order.
        let mut streams: Vec<(StreamKey, Vec<usize>)> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = stream_key(job.cfg());
            match streams.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => streams.push((key, vec![i])),
            }
        }
        let groups: Vec<(Arc<Generated>, &[usize])> = streams
            .iter()
            .map(|(_, members)| (self.workload(jobs[members[0]].cfg()), members.as_slice()))
            .collect();
        let widths: Vec<usize> = groups.iter().map(|(_, members)| members.len()).collect();
        let shares = worker_shares(&widths, crate::harness::granted_workers(jobs.len()));
        let groups: Vec<_> = groups.into_iter().zip(shares).collect();

        let timed = self.timed;
        let simulated = crate::harness::parallel_map(&groups, |((generated, members), workers)| {
            let ts_us = if timed { trace::now_us() } else { 0 };
            let started = Instant::now();
            let group: Vec<Job<'_>> = members.iter().map(|&i| jobs[i]).collect();
            let run = crate::runner::simulate_jobs(generated, &group, *workers);
            let share = started.elapsed() / members.len() as u32;
            self.stats.lock().expect("session stats lock").timing_runs += run.timing_runs as u64;
            run.records
                .into_iter()
                .map(|record| Simulated {
                    record,
                    share,
                    ts_us,
                })
                .collect::<Vec<_>>()
        });
        let mut out: Vec<Option<Simulated>> = (0..jobs.len()).map(|_| None).collect();
        for (((_, members), _), records) in groups.iter().zip(simulated) {
            for (&i, record) in members.iter().zip(records) {
                out[i] = Some(record);
            }
        }
        out.into_iter()
            .map(|s| s.expect("every job lands in one group"))
            .collect()
    }
}

/// How many workers each lockstep group of `widths[g]` records gets out
/// of `grant`: one each, then — while a group has fewer workers than
/// records — the leftover grant one at a time to the group with the
/// most records per worker (the first of a tie). With at least as
/// many groups as the grant, every group gets one worker and the groups
/// share the grant through [`crate::harness::parallel_map`].
fn worker_shares(widths: &[usize], grant: usize) -> Vec<usize> {
    let mut shares = vec![1; widths.len()];
    let mut left = grant.saturating_sub(widths.len());
    while left > 0 {
        let widest = (0..widths.len())
            .filter(|&g| shares[g] < widths[g])
            .max_by_key(|&g| (widths[g].div_ceil(shares[g]), std::cmp::Reverse(g)));
        let Some(g) = widest else { break };
        shares[g] += 1;
        left -= 1;
    }
    shares
}

/// One record a lockstep group simulated, with its share of the group's
/// wall time (for the timed path).
struct Simulated {
    record: Record,
    share: std::time::Duration,
    ts_us: u64,
}

/// The records of one [`SimSession::resolve_grid`] call, in request order.
#[derive(Debug, Clone)]
pub struct GridRuns {
    /// The baseline record of each requested baseline configuration.
    pub baselines: Vec<ConventionalRun>,
    /// The policy record of each requested point.
    pub points: Vec<DriRun>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_serve::RemoteStore;

    #[test]
    fn each_stream_is_one_group_and_groups_share_the_grant() {
        // A quick search (baseline + 6 points) fans out over its grant.
        assert_eq!(worker_shares(&[7], 1), [1]);
        assert_eq!(worker_shares(&[7], 2), [2]);
        assert_eq!(worker_shares(&[7], 3), [3]);
        // So does a paper-scale search (baseline + 28 points).
        assert_eq!(worker_shares(&[29], 1), [1]);
        assert_eq!(worker_shares(&[29], 2), [2]);
        assert_eq!(worker_shares(&[29], 6), [6]);
        // Never more workers than records.
        assert_eq!(worker_shares(&[2], 8), [2]);
        assert_eq!(worker_shares(&[], 4), Vec::<usize>::new());
        // Several streams: one group each; the widest fans out first.
        assert_eq!(worker_shares(&[7, 7], 2), [1, 1]);
        assert_eq!(worker_shares(&[7, 7], 3), [2, 1]);
        assert_eq!(worker_shares(&[7, 2], 4), [3, 1]);
    }

    #[test]
    fn a_full_size_bound_point_shares_the_baselines_timing_run() {
        // A DRI cache whose size-bound is the whole cache never resizes,
        // so it answers every access as the baseline does: two records,
        // one timing state.
        let session = SimSession::builder().build();
        let mut base = RunConfig::quick(Benchmark::Li);
        base.instruction_budget = Some(100_000);
        let mut full = base.clone();
        full.dri.size_bound_bytes = full.dri.max_size_bytes;
        let grid = session.resolve_grid(std::slice::from_ref(&base), &[full]);
        let stats = session.stats();
        assert_eq!(stats.simulations(), 2);
        assert_eq!(stats.timing_runs, 1);
        assert_eq!(grid.baselines[0].timing, grid.points[0].timing);
        // Point by point, every simulation runs its own timing state.
        let alone = SimSession::builder().build();
        alone.conventional(&base);
        assert_eq!(alone.stats().timing_runs, 1);
    }

    #[test]
    fn workload_is_generated_once_per_key() {
        let session = SimSession::builder().build();
        let cfg = RunConfig::quick(Benchmark::Li);
        let a = session.workload(&cfg);
        let b = session.workload(&cfg);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let stats = session.stats();
        assert_eq!(stats.workload_misses, 1);
        assert_eq!(stats.workload_hits, 1);

        let mut seeded = cfg.clone();
        seeded.seed_override = Some(7);
        let c = session.workload(&seeded);
        assert!(!Arc::ptr_eq(&a, &c), "different seed, different workload");
        assert_eq!(session.stats().workload_misses, 2);
    }

    #[test]
    fn baseline_is_shared_across_dri_parameter_changes() {
        let session = SimSession::builder().build();
        let mut cfg = RunConfig::quick(Benchmark::Compress);
        cfg.instruction_budget = Some(100_000);
        let a = session.conventional(&cfg);
        // Miss-bound and size-bound do not touch the baseline geometry.
        cfg.dri.miss_bound *= 2;
        cfg.dri.size_bound_bytes = 8 * 1024;
        let b = session.conventional(&cfg);
        assert_eq!(a.timing.cycles, b.timing.cycles);
        let stats = session.stats();
        assert_eq!(stats.baseline_misses, 1);
        assert_eq!(stats.baseline_hits, 1);
        // A geometry change (associativity) is a different baseline.
        cfg.dri.associativity = 4;
        let _ = session.conventional(&cfg);
        assert_eq!(session.stats().baseline_misses, 2);
    }

    #[test]
    fn push_mode_buffers_simulations_and_survives_a_dead_server() {
        let session = SimSession::builder()
            .sharded(ShardedStore::single(RemoteStore::new("127.0.0.1:1")))
            .push(true)
            .build();
        let mut cfg = RunConfig::quick(Benchmark::Li);
        cfg.instruction_budget = Some(60_000);
        let _ = session.conventional(&cfg);
        let _ = session.policy_run(&cfg);
        let report = session.push_pending();
        assert_eq!(report.batches, 1);
        assert_eq!(report.attempted, 2, "baseline + dri were buffered");
        assert_eq!(report.pushed, 0);
        assert_eq!(report.failed, 2, "a dead server fails, never blocks");
        assert_eq!(report.round_trips, 0, "the connection never opened");
        // The buffer drained: a second pass has nothing to do.
        assert_eq!(session.push_pending().batches, 0);
        assert_eq!(session.push_stats().attempted, 2, "totals aggregate");
        // Memory/tier hits are never buffered — only true simulations.
        let _ = session.policy_run(&cfg);
        assert_eq!(session.push_pending().attempted, 0);

        // With push mode off nothing accumulates in the first place.
        let quiet = SimSession::builder()
            .sharded(ShardedStore::single(RemoteStore::new("127.0.0.1:1")))
            .build();
        let _ = quiet.policy_run(&cfg);
        assert_eq!(quiet.push_pending().attempted, 0);
    }

    #[test]
    fn dri_runs_memoize_on_the_full_config() {
        let session = SimSession::builder().build();
        let mut cfg = RunConfig::quick(Benchmark::Mgrid);
        cfg.instruction_budget = Some(100_000);
        let a = session.policy_run(&cfg);
        let b = session.policy_run(&cfg);
        assert_eq!(a.timing.cycles, b.timing.cycles);
        assert_eq!(session.stats().dri_hits, 1);
        cfg.dri.sense_interval /= 2;
        let _ = session.policy_run(&cfg);
        assert_eq!(session.stats().dri_misses, 2);
    }

    #[test]
    fn policies_memoize_under_disjoint_keys() {
        let session = SimSession::builder().build();
        let mut cfg = RunConfig::quick(Benchmark::Li);
        cfg.instruction_budget = Some(60_000);
        let dri = session.policy_run(&cfg);
        cfg.policy = Some(PolicyConfig::Decay(PolicyConfig::decay_from(&cfg.dri)));
        let decay = session.policy_run(&cfg);
        // Two models, two simulations, no aliasing — and an explicit
        // DRI selection lands back on the default entry.
        assert_eq!(session.stats().dri_misses, 2);
        cfg.policy = Some(PolicyConfig::Dri(cfg.dri));
        let explicit = session.policy_run(&cfg);
        assert_eq!(session.stats().dri_hits, 1);
        assert_eq!(explicit.timing.cycles, dri.timing.cycles);
        assert_ne!(
            (decay.dri.avg_active_fraction, decay.dri.resizes),
            (dri.dri.avg_active_fraction, dri.dri.resizes),
            "decay gates per line; its accounting must differ from DRI's"
        );
    }
}
