//! The fleet workloads: `replay_sharded` (reads) and `steal_push`
//! (writes and the lease control plane).
//!
//! Both boot three in-process journaled shards on `127.0.0.1:0` with
//! two replicas per key, simulate the seed's 105-record quick campaign
//! once, push it, and compact the journals; the timed ops then run no
//! simulation at all.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dri_experiments::harness::{parallel_map, space, threads};
use dri_experiments::persist::{
    baseline_key, decode_conventional, decode_dri, encode_conventional, encode_dri, policy_key,
    policy_kind, BASELINE_KIND, SCHEMA_VERSION,
};
use dri_experiments::{drain, grid_configs, RunConfig, SimSession};
use dri_serve::{
    BatchEntry, JournalConfig, LeaseClaim, PushOutcome, Server, ShardedStore, BATCH_CHUNK,
    DEFAULT_LEASE_TTL_MS,
};
use dri_store::{frame_record, KeyHasher, KeyPlan, ResultStore};
use synth_workload::suite::Benchmark;

use crate::calib::{CacheWork, Loopback, Probe, Scale, SAMPLE_EXCHANGES};
use crate::pin::OneCpu;
use crate::spans::{self, Tracer};
use crate::stats::{median, minst_per_s, percentile};
use crate::{grid, setup_reps, Args, Outcome};

/// Shards in the fleet.
pub const SHARDS: usize = 3;
/// Owners per record key.
pub const REPLICAS: usize = 2;
/// Connection workers per shard: the host's CPU count.
const SHARD_WORKERS: usize = 2;
/// Records in one quick Figure 3 campaign: 15 baselines + 90 DRI points.
pub const CAMPAIGN_RECORDS: usize = 105;
/// Replay ops between two loopback samples.
const REPLAY_SAMPLE_EVERY: u64 = 10;
/// One loopback sample (four exchanges) on the reference host in its
/// usual mode; replay op times are reported at this speed.
const REPLAY_REFERENCE_MS: f64 = 0.2;
/// Fewest ops an untraced timed phase measures (see [`keep_going`]).
pub const MIN_OPS: usize = 100 + crate::stats::MIN_TAIL;
/// Longest a timed phase may run, whatever `--seconds` asks.
const MAX_PHASE_S: f64 = 120.0;
const TOKEN: &str = "perfbench-fleet-secret";
const WORKER: &str = "perfbench";

/// One simulated record of the campaign.
#[derive(Debug, Clone)]
struct Record {
    kind: &'static str,
    key: u128,
    payload: Vec<u8>,
    /// Index of its benchmark in paper order (its steal unit).
    unit: usize,
}

/// The seed's campaign: what to resolve and what it must resolve to.
#[derive(Debug)]
struct Campaign {
    points: Vec<RunConfig>,
    records: Vec<Record>,
    /// Committed instructions of all 105 simulations.
    instructions: u64,
}

/// Three journaled shards, each with its own store directory.
struct Fleet {
    servers: Vec<Server>,
    stores: Vec<Arc<ResultStore>>,
    addrs: Vec<String>,
    root: PathBuf,
}

/// Cumulative server-side counters summed over the fleet.
#[derive(Debug, Clone, Copy, Default)]
struct ServerTotals {
    bytes_served: u64,
    journal_batches: u64,
    journal_fsyncs: u64,
    compacted: u64,
}

impl Fleet {
    fn boot(root: PathBuf) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            servers: Vec::new(),
            stores: Vec::new(),
            addrs: Vec::new(),
            root,
        };
        for shard in 0..SHARDS {
            let dir = fleet.root.join(format!("shard-{shard}"));
            let store = Arc::new(
                ResultStore::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?,
            );
            let server = Server::bind_with_journal(
                Arc::clone(&store),
                "127.0.0.1:0",
                SHARD_WORKERS,
                Some(TOKEN.to_owned()),
                DEFAULT_LEASE_TTL_MS,
                None,
                Some(JournalConfig::default()),
            )
            .map_err(|e| format!("bind shard {shard}: {e}"))?;
            fleet.addrs.push(server.addr().to_string());
            fleet.servers.push(server);
            fleet.stores.push(store);
        }
        Ok(fleet)
    }

    /// A fresh fleet client, as a new worker would build one.
    fn client(&self) -> ShardedStore {
        ShardedStore::new(self.addrs.clone(), REPLICAS, Some(TOKEN.to_owned()))
            .expect("three shard addresses")
    }

    /// The local store behind ring shard `ring_idx` (the ring sorts
    /// its membership, so ring order is not boot order).
    fn store_of(&self, client: &ShardedStore, ring_idx: usize) -> &ResultStore {
        let addr = &client.ring().shards()[ring_idx];
        let i = self
            .addrs
            .iter()
            .position(|a| a == addr)
            .expect("ring member");
        &self.stores[i]
    }

    fn compact(&self) -> Result<u64, String> {
        let mut drained = 0;
        for server in &self.servers {
            drained += server
                .compact_journal()
                .map_err(|e| format!("compaction: {e}"))?;
        }
        Ok(drained)
    }

    fn totals(&self) -> ServerTotals {
        let mut t = ServerTotals::default();
        for server in &self.servers {
            t.bytes_served += server.stats().bytes_served;
            if let Some(j) = server.journal_stats() {
                t.journal_batches += j.batches;
                t.journal_fsyncs += j.fsyncs;
                t.compacted += j.compacted;
            }
        }
        t
    }

    fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Set-up, once: boot the fleet, simulate the seed's campaign through a
/// pushing session, push it, and drain the journals into the stores.
/// Returns the fleet, the campaign, and the simulation's host seconds
/// scaled to the reference speed.
fn setup_once(
    seed: u64,
    root: PathBuf,
    work: &mut CacheWork,
) -> Result<(Fleet, Campaign, f64), String> {
    let fleet = Fleet::boot(root)?;
    let session = SimSession::builder()
        .sharded(fleet.client())
        .push(true)
        .timed(false)
        .build();
    let bases: Vec<RunConfig> = Benchmark::all().map(|b| grid::base(seed, 0, b)).to_vec();
    let points: Vec<RunConfig> = bases
        .iter()
        .flat_map(|b| grid_configs(b, &space()))
        .collect();
    let mut speeds = speed_samples(work)?;
    let sim_start = Instant::now();
    // One batch lookup marks every record missing, so the simulations
    // below do not ask the fleet again one by one.
    session.prefetch(&points);
    let baselines = parallel_map(&bases, |cfg| session.conventional(cfg));
    let runs = parallel_map(&points, |cfg| session.policy_run(cfg));
    let sim_s = sim_start.elapsed().as_secs_f64();
    speeds.extend(speed_samples(work)?);
    // The simulation's seconds at the reference speed, as `grid_cold`
    // scales its ops: by the median of the samples around it.
    let speed = median(&speeds).expect("speed samples");
    let sim_s = sim_s * grid::REFERENCE_MS / speed;
    let pushed = session.push_pending();
    if pushed.pushed != CAMPAIGN_RECORDS as u64 || pushed.rejected + pushed.failed > 0 {
        return Err(format!("set-up push landed {pushed:?}"));
    }
    fleet.compact()?;
    let sims = session.stats().simulations();
    if sims != CAMPAIGN_RECORDS as u64 {
        return Err(format!(
            "set-up simulated {sims} runs, not {CAMPAIGN_RECORDS}"
        ));
    }

    let mut records = Vec::with_capacity(CAMPAIGN_RECORDS);
    let mut instructions = 0;
    for (unit, (cfg, run)) in bases.iter().zip(&baselines).enumerate() {
        instructions += run.timing.instructions;
        records.push(Record {
            kind: BASELINE_KIND,
            key: baseline_key(cfg),
            payload: encode_conventional(run),
            unit,
        });
    }
    for (cfg, run) in points.iter().zip(&runs) {
        instructions += run.timing.instructions;
        records.push(Record {
            kind: policy_kind(cfg),
            key: policy_key(cfg),
            payload: encode_dri(run),
            unit: Benchmark::all()
                .iter()
                .position(|&b| b == cfg.benchmark)
                .expect("suite benchmark"),
        });
    }
    let campaign = Campaign {
        points,
        records,
        instructions,
    };
    Ok((fleet, campaign, sim_s))
}

/// Cache-work samples taken on each side of a set-up's simulation.
const SPEED_SAMPLES: usize = 5;

fn speed_samples(work: &mut CacheWork) -> Result<Vec<f64>, String> {
    (0..SPEED_SAMPLES)
        .map(|_| work.sample_ms().map_err(|e| format!("cache work: {e}")))
        .collect()
}

/// Repeats the set-up [`SETUP_REPS`] times and keeps the last fleet.
/// Returns it with the set-up times and the simulation rate pooled over
/// every repetition (all their instructions over all their time).
fn setup(args: &Args, run_dir: &Path) -> Result<(Fleet, Campaign, Vec<f64>, f64), String> {
    let mut times = Vec::new();
    let mut instructions = 0;
    let mut sim_s = 0.0;
    let reps = setup_reps(args);
    let mut work = CacheWork::new(threads());
    for rep in 0..reps {
        let start = Instant::now();
        let (fleet, campaign, rep_sim_s) =
            setup_once(args.seed, run_dir.join(format!("fleet-{rep}")), &mut work)?;
        times.push(start.elapsed().as_secs_f64());
        instructions += campaign.instructions;
        sim_s += rep_sim_s;
        if rep + 1 == reps {
            eprintln!("perfbench: set-up repetitions took {times:.3?} s");
            return Ok((fleet, campaign, times, minst_per_s(instructions, sim_s)));
        }
        fleet.shutdown();
    }
    unreachable!("SETUP_REPS is at least 1")
}

/// Per-op client-side counters.
#[derive(Debug, Clone, Copy, Default)]
struct ClientCounts {
    round_trips: u64,
    retries: u64,
    errors: u64,
    sims: u64,
}

/// The timed phase shared by both fleet workloads: whole ops until
/// `--seconds` have passed, every other op traced in the traced run.
struct Phase {
    /// Op times, scaled to the reference speed when a [`Scale`] is given.
    op_ms: Vec<f64>,
    /// Op times as measured, when they were scaled.
    raw_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    client: ClientCounts,
    before: ServerTotals,
    after: ServerTotals,
    wall_s: f64,
}

fn timed_phase(
    args: &Args,
    fleet: &Fleet,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
    mut scale: Option<&mut Scale<Loopback>>,
    mut op_fn: impl FnMut(u64, Option<&Tracer>) -> Result<ClientCounts, String>,
) -> Phase {
    let mut phase = Phase {
        op_ms: Vec::new(),
        raw_ms: Vec::new(),
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        client: ClientCounts::default(),
        before: fleet.totals(),
        after: ServerTotals::default(),
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut op = 0u64;
    while keep_going(args, start.elapsed().as_secs_f64(), phase.op_ms.len()) {
        let traced = tracer.filter(|_| op.is_multiple_of(2));
        if let Some(Err(err)) = scale.as_deref_mut().map(Scale::tick) {
            outcome.fatal = Some(format!("loopback calibration: {err}"));
            break;
        }
        let op_start = Instant::now();
        let result = op_fn(op, traced);
        let mut ms = op_start.elapsed().as_secs_f64() * 1e3;
        if let Some(scale) = scale.as_deref() {
            phase.raw_ms.push(ms);
            ms = scale.scale(ms);
        }
        phase.op_ms.push(ms);
        if tracer.is_some() {
            if traced.is_some() {
                phase.traced_ms.push(ms);
            } else {
                phase.untraced_ms.push(ms);
            }
        }
        outcome.attempted += 1;
        match result {
            Ok(c) => {
                phase.client.round_trips += c.round_trips;
                phase.client.retries += c.retries;
                phase.client.errors += c.errors;
                phase.client.sims += c.sims;
            }
            Err(why) => outcome.fail(format!("op {op}: {why}")),
        }
        op += 1;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.after = fleet.totals();
    phase
}

/// Whether the timed phase runs another op. An untraced run measures
/// at least `--seconds` and at least [`MIN_OPS`] ops, so its p90 always
/// has ten samples beyond it, but never longer than [`MAX_PHASE_S`].
fn keep_going(args: &Args, elapsed_s: f64, ops: usize) -> bool {
    let short = !args.trace && ops < MIN_OPS;
    (elapsed_s < args.seconds as f64 || short) && elapsed_s < MAX_PHASE_S
}

/// Metrics both fleet workloads report the same way.
fn common_metrics(
    args: &Args,
    outcome: &mut Outcome,
    phase: &Phase,
    setup_times: &[f64],
    sim_rate: f64,
) {
    let n = phase.op_ms.len();
    let ops = n.max(1) as f64;
    if args.trace {
        let c = &phase.client;
        let (before, after) = (&phase.before, &phase.after);
        outcome.metric(
            "serve.round_trips_per_op",
            Some(c.round_trips as f64 / ops),
            n,
        );
        outcome.metric(
            "serve.bytes_per_op",
            Some((after.bytes_served - before.bytes_served) as f64 / ops),
            n,
        );
        outcome.metric("serve.retries_per_op", Some(c.retries as f64 / ops), n);
        outcome.metric("serve.errors_per_op", Some(c.errors as f64 / ops), n);
        spans::trace_overhead(outcome, &phase.traced_ms, &phase.untraced_ms);
    } else {
        let busy_s: f64 = phase.op_ms.iter().sum::<f64>() / 1e3;
        outcome.metric("setup_s", median(setup_times), setup_times.len());
        outcome.metric("op_ms_p50", percentile(&phase.op_ms, 0.5), n);
        outcome.metric("op_ms_p90", percentile(&phase.op_ms, 0.9), n);
        outcome.metric(
            "records_per_s",
            Some((CAMPAIGN_RECORDS * n) as f64 / busy_s),
            n,
        );
        outcome.metric("sim_minst_per_s", Some(sim_rate), setup_times.len());
        outcome.metric("peak_rss_mb", crate::peak_rss_mb(), 1);
    }
}

/// The write path's journal counters over the timed phase.
fn journal_metrics(outcome: &mut Outcome, phase: &Phase) {
    let n = phase.op_ms.len();
    let ops = n.max(1) as f64;
    let (before, after) = (&phase.before, &phase.after);
    outcome.metric(
        "store.journal_appends_per_op",
        Some((after.journal_batches - before.journal_batches) as f64 / ops),
        n,
    );
    outcome.metric(
        "store.journal_fsyncs_per_op",
        Some((after.journal_fsyncs - before.journal_fsyncs) as f64 / ops),
        n,
    );
    outcome.metric(
        "store.compacted_records_per_s",
        Some((after.compacted - before.compacted) as f64 / phase.wall_s),
        n,
    );
}

/// `replay_sharded`: each op is one cold worker — a fresh session over
/// a fresh fleet client — that prefetches the whole campaign and
/// resolves every point. It must simulate nothing and reproduce the
/// set-up's records bit for bit.
pub fn run_replay(args: &Args, run_dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let (fleet, campaign, setup_times, sim_rate) = match setup(args, run_dir) {
        Ok(ready) => ready,
        Err(why) => {
            outcome.fatal = Some(format!("set-up failed: {why}"));
            return outcome;
        }
    };
    let tracer = args.trace.then(Tracer::default);
    let mut scale = match Loopback::start() {
        Ok(loopback) => Scale::new(loopback, REPLAY_SAMPLE_EVERY, REPLAY_REFERENCE_MS),
        Err(err) => {
            outcome.fatal = Some(format!("loopback calibration: {err}"));
            fleet.shutdown();
            return outcome;
        }
    };
    let pin = OneCpu::pin();
    let phase = timed_phase(
        args,
        &fleet,
        tracer.as_ref(),
        &mut outcome,
        Some(&mut scale),
        |op, tracer| replay_op(&fleet, &campaign, op, tracer),
    );
    eprintln!(
        "perfbench: replay ops as measured: p50 {:?} ms, p90 {:?} ms; loopback exchange {:.4} ms",
        percentile(&phase.raw_ms, 0.5),
        percentile(&phase.raw_ms, 0.9),
        scale.sample_ms() / SAMPLE_EXCHANGES as f64
    );
    common_metrics(args, &mut outcome, &phase, &setup_times, sim_rate);
    if let Some(tracer) = &tracer {
        let n = phase.op_ms.len();
        let sims = phase.client.sims as f64 / n.max(1) as f64;
        outcome.metric("experiments.session_sims_per_op", Some(sims), n);
        replay_layers(&fleet, &campaign, tracer, &mut outcome);
        spans::write_spans(args, tracer);
    }
    drop(pin);
    fleet.shutdown();
    outcome
}

fn replay_op(
    fleet: &Fleet,
    campaign: &Campaign,
    op: u64,
    tracer: Option<&Tracer>,
) -> Result<ClientCounts, String> {
    let (prefetch, resolved, session) =
        spans::span(tracer, "experiments.replay", op, None, |root| {
            let session = SimSession::builder()
                .sharded(fleet.client())
                .timed(false)
                .build();
            let prefetch = spans::span(tracer, "experiments.prefetch", op, root, |_| {
                session.prefetch(&campaign.points)
            });
            let resolved = spans::span(tracer, "experiments.resolve", op, root, |_| {
                campaign
                    .points
                    .iter()
                    .map(|cfg| (session.conventional(cfg), session.policy_run(cfg)))
                    .collect::<Vec<_>>()
            });
            (prefetch, resolved, session)
        });
    let remote = session.remote_stats().unwrap_or_default();
    let counts = ClientCounts {
        round_trips: remote.batch_round_trips + remote.push_round_trips,
        retries: remote.retries,
        errors: remote.errors,
        sims: session.stats().simulations(),
    };
    if prefetch.remote_hits != CAMPAIGN_RECORDS as u64 || prefetch.misses != 0 {
        return Err(format!("prefetch resolved {prefetch:?}"));
    }
    if counts.sims != 0 {
        return Err(format!("replay simulated {} runs", counts.sims));
    }
    // Records are the fifteen baselines in unit order, then the points.
    let (baselines, points) = campaign.records.split_at(Benchmark::all().len());
    for (i, (baseline, run)) in resolved.iter().enumerate() {
        if encode_conventional(baseline) != baselines[points[i].unit].payload
            || encode_dri(run) != points[i].payload
        {
            return Err(format!("point {i} differs from the set-up's record"));
        }
    }
    Ok(counts)
}

/// The read path's lower layers, replayed in isolation over the
/// campaign's keys: key planning, ring routing, one HTTP exchange per
/// shard, store loads on the server side, and record decoding.
fn replay_layers(fleet: &Fleet, campaign: &Campaign, tracer: &Tracer, outcome: &mut Outcome) {
    const REPS: usize = 200;
    let records = &campaign.records;
    let n = records.len();
    let client = fleet.client();
    let per_record = |total_ns: f64| total_ns / n as f64;
    let timed = |f: &mut dyn FnMut()| -> f64 {
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&times).expect("repetitions")
    };

    let plan_ns = timed(&mut || {
        let mut plan = KeyPlan::new();
        for r in records {
            plan.push(r.kind, SCHEMA_VERSION, r.key);
        }
        std::hint::black_box(plan);
    });
    outcome.metric("store.plan_us", Some(plan_ns / 1e3), REPS);

    let ring_ns = timed(&mut || {
        for r in records {
            std::hint::black_box(client.ring().owner_indices(r.key));
        }
    });
    outcome.metric("store.ring_owner_ns", Some(per_record(ring_ns)), REPS);

    let load_ns = timed(&mut || {
        for r in records {
            let store = fleet.store_of(&client, client.ring().primary(r.key));
            std::hint::black_box(store.load(r.kind, SCHEMA_VERSION, r.key));
        }
    });
    outcome.metric(
        "store.load_us_per_record",
        Some(per_record(load_ns) / 1e3),
        REPS,
    );

    let decode_ns = timed(&mut || {
        for r in records {
            if r.kind == BASELINE_KIND {
                std::hint::black_box(decode_conventional(&r.payload));
            } else {
                std::hint::black_box(decode_dri(&r.payload));
            }
        }
    });
    outcome.metric(
        "experiments.decode_us_per_record",
        Some(per_record(decode_ns) / 1e3),
        REPS,
    );

    // One POST /batch per shard for the records it is primary for.
    let exchange_op = u64::MAX;
    for _ in 0..30 {
        for (shard_idx, shard) in client.shards().iter().enumerate() {
            let entries: Vec<(&str, u32, u128)> = records
                .iter()
                .filter(|r| client.ring().primary(r.key) == shard_idx)
                .map(|r| (r.kind, SCHEMA_VERSION, r.key))
                .collect();
            let (outcomes, _) =
                spans::span(Some(tracer), "serve.exchange", exchange_op, None, |_| {
                    shard.fetch_batch_outcomes(&entries, BATCH_CHUNK)
                });
            if outcomes.iter().any(|o| !matches!(o, BatchEntry::Hit(_))) {
                outcome.fail(format!("isolated exchange with shard {shard_idx} missed"));
            }
        }
    }
    let exchanges: Vec<f64> = tracer
        .named("serve.exchange")
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    outcome.metric(
        "serve.exchange_ms_p50",
        percentile(&exchanges, 0.5),
        exchanges.len(),
    );

    let mean_ns = |name: &str| {
        let spans = tracer.named(name);
        let total: u64 = spans.iter().map(|s| s.duration_ns()).sum();
        (total as f64 / spans.len().max(1) as f64, spans.len())
    };
    let (prefetch_ns, traced_ops) = mean_ns("experiments.prefetch");
    outcome.metric(
        "experiments.prefetch_ms",
        Some(prefetch_ns / 1e6),
        traced_ops,
    );
    let (resolve_ns, _) = mean_ns("experiments.resolve");
    // Each point resolves its baseline and its policy run.
    let lookups = 2 * campaign.points.len();
    outcome.metric(
        "experiments.resolve_ns_per_record",
        Some(resolve_ns / lookups as f64),
        traced_ops,
    );
}

/// The op-unique key a steal unit pushes a campaign record under.
fn steal_key(seed: u64, op: u64, key: u128) -> u128 {
    let mut h = KeyHasher::new();
    h.write_str("perfbench-steal");
    h.write_u64(seed);
    h.write_u64(op);
    h.write_u128(key);
    h.finish()
}

/// `steal_push`: each op drains a fresh fifteen-unit campaign; each
/// unit pushes its benchmark's seven records under keys no earlier op
/// wrote, framed as `SimSession::push_pending` frames them, then reads
/// them back and compares the bytes.
pub fn run_steal(args: &Args, run_dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let (fleet, campaign, setup_times, sim_rate) = match setup(args, run_dir) {
        Ok(ready) => ready,
        Err(why) => {
            outcome.fatal = Some(format!("set-up failed: {why}"));
            return outcome;
        }
    };
    let tracer = args.trace.then(Tracer::default);
    let mut drains = std::collections::HashMap::new();
    let pin = OneCpu::pin();
    let phase = timed_phase(
        args,
        &fleet,
        tracer.as_ref(),
        &mut outcome,
        None,
        |op, tracer| {
            let (counts, drained) = steal_op(&fleet, &campaign, args.seed, op, tracer)?;
            drains.insert(op, drained);
            Ok(counts)
        },
    );
    common_metrics(args, &mut outcome, &phase, &setup_times, sim_rate);
    if let Some(tracer) = &tracer {
        journal_metrics(&mut outcome, &phase);
        steal_layers(&fleet, tracer, &drains, &mut outcome);
        spans::write_spans(args, tracer);
    }
    drop(pin);
    fleet.shutdown();
    outcome
}

/// Lease calls one drain made: every grant plus the final `drained`
/// claim, and one completion per unit.
#[derive(Debug, Clone, Copy)]
struct DrainCalls {
    claims: u64,
    completes: u64,
}

fn steal_op(
    fleet: &Fleet,
    campaign: &Campaign,
    seed: u64,
    op: u64,
    tracer: Option<&Tracer>,
) -> Result<(ClientCounts, DrainCalls), String> {
    let client = fleet.client();
    let name = format!("perfbench-{seed}-{op}");
    let units: Vec<String> = Benchmark::all()
        .iter()
        .map(|b| b.name().to_owned())
        .collect();
    let problems: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let drained = spans::span(tracer, "experiments.drain", op, None, |root| {
        drain(client.lease_shard(&name), &name, &units, WORKER, |unit| {
            let Some(unit_idx) = units.iter().position(|u| u == unit) else {
                problems.borrow_mut().push(format!("unknown unit {unit}"));
                return;
            };
            let pushed: Vec<(&str, u128, Vec<u8>, &[u8])> = campaign
                .records
                .iter()
                .filter(|r| r.unit == unit_idx)
                .map(|r| {
                    let key = steal_key(seed, op, r.key);
                    (
                        r.kind,
                        key,
                        frame_record(SCHEMA_VERSION, key, &r.payload),
                        r.payload.as_slice(),
                    )
                })
                .collect();
            let entries: Vec<(&str, u32, u128, &[u8])> = pushed
                .iter()
                .map(|(kind, key, framed, _)| (*kind, SCHEMA_VERSION, *key, framed.as_slice()))
                .collect();
            let (outcomes, _) = spans::span(tracer, "serve.push_batch", op, root, |_| {
                client.push_batch(&entries)
            });
            if outcomes.iter().any(|o| *o != PushOutcome::Accepted) {
                problems
                    .borrow_mut()
                    .push(format!("{unit}: push outcomes {outcomes:?}"));
            }
            let refs: Vec<(&str, u32, u128)> = pushed
                .iter()
                .map(|(kind, key, _, _)| (*kind, SCHEMA_VERSION, *key))
                .collect();
            let read = spans::span(tracer, "serve.readback", op, root, |_| {
                client.fetch_batch(&refs)
            });
            for ((_, key, _, payload), got) in pushed.iter().zip(&read) {
                if got.as_deref() != Some(*payload) {
                    problems
                        .borrow_mut()
                        .push(format!("{unit}: read-back of {key:032x} differs"));
                }
            }
        })
    })?;
    let problems = problems.into_inner();
    if let Some(first) = problems.first() {
        return Err(format!("{} problems, first: {first}", problems.len()));
    }
    if drained.completed != units.len() as u64 || drained.lost != 0 {
        return Err(format!("drain finished {drained:?}"));
    }
    let remote = client.stats();
    Ok((
        ClientCounts {
            round_trips: remote.batch_round_trips + remote.push_round_trips,
            retries: remote.retries,
            errors: remote.errors,
            sims: 0,
        },
        DrainCalls {
            claims: drained.granted + 1,
            completes: drained.completed,
        },
    ))
}

/// The write path's per-layer metrics: push and read-back from the
/// traced drains, lease calls from an isolated replay (the drain makes
/// them out of the benchmark's reach), and the drain's own time.
fn steal_layers(
    fleet: &Fleet,
    tracer: &Tracer,
    drains: &std::collections::HashMap<u64, DrainCalls>,
    outcome: &mut Outcome,
) {
    let client = fleet.client();
    let units: Vec<String> = Benchmark::all()
        .iter()
        .map(|b| b.name().to_owned())
        .collect();
    let lease_op = u64::MAX;
    for rep in 0..5 {
        let name = format!("perfbench-lease-{rep}");
        let control = client.lease_shard(&name);
        loop {
            let claim = spans::span(Some(tracer), "serve.lease_claim", lease_op, None, |_| {
                control.lease_claim(&name, WORKER, &units)
            });
            match claim {
                Ok(LeaseClaim::Granted {
                    unit, generation, ..
                }) => {
                    let done =
                        spans::span(Some(tracer), "serve.lease_complete", lease_op, None, |_| {
                            control.lease_complete(&name, &unit, generation, WORKER)
                        });
                    if let Err(e) = done {
                        outcome.fail(format!("isolated lease complete: {e}"));
                        break;
                    }
                }
                Ok(LeaseClaim::Drained) => break,
                other => {
                    outcome.fail(format!("isolated lease claim: {other:?}"));
                    break;
                }
            }
        }
    }
    let mean_ms = |name: &str| {
        let spans = tracer.named(name);
        let total: u64 = spans.iter().map(|s| s.duration_ns()).sum();
        (total as f64 / spans.len().max(1) as f64 / 1e6, spans.len())
    };
    let (claim_ms, claims) = mean_ms("serve.lease_claim");
    let (complete_ms, completes) = mean_ms("serve.lease_complete");
    let (push_ms, pushes) = mean_ms("serve.push_batch");
    let (read_ms, reads) = mean_ms("serve.readback");
    outcome.metric("serve.lease_claim_ms", Some(claim_ms), claims);
    outcome.metric("serve.lease_complete_ms", Some(complete_ms), completes);
    outcome.metric("serve.push_batch_ms", Some(push_ms), pushes);
    outcome.metric("serve.readback_ms", Some(read_ms), reads);

    // Drain wall time minus its push and read-back spans (self time)
    // minus the lease calls it made, priced at the isolated means.
    let spans = tracer.spans();
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "experiments.drain")
        .collect();
    let self_ms: Vec<f64> = roots
        .iter()
        .filter_map(|root| Some((root, drains.get(&root.op)?)))
        .map(|(root, calls)| {
            let own = spans::self_time_ns(root, &spans) as f64 / 1e6;
            own - calls.claims as f64 * claim_ms - calls.completes as f64 * complete_ms
        })
        .collect();
    outcome.metric("experiments.drain_self_ms", median(&self_ms), self_ms.len());
}
