//! The lease-based work-stealing scheduler, end to end: a fleet drains
//! one campaign through the server's durable lease queue, and the drain
//! is chaos-proof — workers die, connections drop, and the survivors
//! still converge on the complete, bit-identical result set.
//!
//! Two scenarios:
//!
//! * **Healthy fleet** — two workers drain a four-benchmark campaign.
//!   Every unit is claimed exactly once, nothing is reclaimed, and the
//!   combined simulation count equals the unique record count: work
//!   stealing adds *zero* duplicated simulations when nobody crashes.
//! * **Chaos** — a worker claims a unit, pushes half of it, and dies
//!   without completing (simulated by simply abandoning the lease). The
//!   server injects periodic connection drops, and the short TTL lets a
//!   survivor reclaim the dead worker's unit and re-execute it. The
//!   drained store replays bit-identically against an isolated
//!   reference session, and a late claimant sees `drained` — zero
//!   stranded units.
//!
//! Like the other tier tests, every test runs its own ephemeral server
//! over its own temp store and passes tiers explicitly — nothing reads
//! or pollutes `DRI_*` variables.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dri_experiments::runner::ConventionalRun;
use dri_experiments::search::{grid_configs, SearchSpace};
use dri_experiments::steal::{drain, DrainOutcome};
use dri_experiments::{DriRun, RemoteStore, ResultStore, RunConfig, ShardedStore, SimSession};
use dri_serve::{FaultSpec, LeaseClaim, Server};
use synth_workload::suite::Benchmark;

const TOKEN: &str = "steal-campaign-test-secret";

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-steal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn open_store(root: &Path) -> ResultStore {
    ResultStore::open(root).expect("open store")
}

/// A token-authenticated scheduler over `root` with the given lease TTL
/// and optional chaos spec.
fn serve_scheduler(root: &Path, ttl_ms: u64, faults: Option<&str>) -> Server {
    let faults = faults.map(|spec| FaultSpec::parse(spec).expect("valid fault spec"));
    Server::bind_with_journal(
        Arc::new(open_store(root)),
        "127.0.0.1:0",
        4,
        Some(TOKEN.to_owned()),
        ttl_ms,
        faults,
        None,
    )
    .expect("bind server")
}

fn worker_remote(addr: &str) -> RemoteStore {
    RemoteStore::with_token(addr.to_owned(), Some(TOKEN.to_owned()))
}

/// One benchmark's full quick-space search grid at a test-sized budget —
/// the per-unit workload of a steal campaign (7 records per unit).
fn unit_grid(benchmark: Benchmark) -> Vec<RunConfig> {
    let mut base = RunConfig::quick(benchmark);
    base.instruction_budget = Some(60_000);
    grid_configs(&base, &SearchSpace::quick())
}

fn benchmark_by_name(name: &str) -> Benchmark {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("unknown unit `{name}`"))
}

fn assert_conventional_identical(a: &ConventionalRun, b: &ConventionalRun, what: &str) {
    assert_eq!(a.timing, b.timing, "{what}: timing");
    assert_eq!(a.icache, b.icache, "{what}: icache");
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy"
    );
}

fn assert_dri_identical(a: &DriRun, b: &DriRun, what: &str) {
    assert_eq!(a.timing, b.timing, "{what}: timing");
    assert_eq!(a.icache, b.icache, "{what}: icache");
    assert_eq!(
        a.dri.avg_size_bytes.to_bits(),
        b.dri.avg_size_bytes.to_bits(),
        "{what}: avg_size_bytes"
    );
    assert_eq!(a.dri.resizes, b.dri.resizes, "{what}: resizes");
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy"
    );
}

/// Runs one steal worker to completion: its own cold pushing session,
/// draining `campaign` by simulating each claimed unit's grid and
/// pushing the records before completing the lease.
fn run_worker(
    addr: &str,
    campaign: &str,
    units: &[String],
    worker: &str,
    unit_delay: Duration,
) -> (DrainOutcome, u64) {
    let session = SimSession::builder()
        .sharded(ShardedStore::single(worker_remote(addr)))
        .push(true)
        .build();
    let control = worker_remote(addr);
    let outcome = drain(&control, campaign, units, worker, |unit| {
        for cfg in &unit_grid(benchmark_by_name(unit)) {
            let _ = session.conventional(cfg);
            let _ = session.policy_run(cfg);
        }
        if !unit_delay.is_zero() {
            std::thread::sleep(unit_delay);
        }
        let push = session.push_pending();
        assert_eq!(push.failed, 0, "worker {worker}: pushes landed");
    })
    .unwrap_or_else(|e| panic!("worker {worker}: {e}"));
    (outcome, session.stats().simulations())
}

#[test]
fn two_healthy_workers_drain_the_campaign_with_zero_duplicate_simulations() {
    let central = temp_root("healthy");
    let server = serve_scheduler(&central, 60_000, None);
    let addr = server.addr().to_string();

    let units: Vec<String> = ["compress", "gcc", "li", "mgrid"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let unique_records: u64 = units.len() as u64 * 7;

    let (outcomes, simulated): (Vec<DrainOutcome>, Vec<u64>) = std::thread::scope(|scope| {
        let handles: Vec<_> = ["alpha", "beta"]
            .iter()
            .map(|worker| {
                let (addr, units) = (addr.clone(), units.clone());
                scope.spawn(move || {
                    run_worker(&addr, "steal-healthy", &units, worker, Duration::ZERO)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .unzip()
    });

    // Every unit completed exactly once, fleet-wide; no reclaims, no
    // losses, and the combined simulation count is exactly the unique
    // record count — stealing introduced zero duplicated simulations.
    let total: DrainOutcome =
        outcomes
            .iter()
            .fold(DrainOutcome::default(), |acc, o| DrainOutcome {
                granted: acc.granted + o.granted,
                reclaimed: acc.reclaimed + o.reclaimed,
                completed: acc.completed + o.completed,
                lost: acc.lost + o.lost,
                renewals: acc.renewals + o.renewals,
                waits: acc.waits + o.waits,
            });
    assert_eq!(total.granted, units.len() as u64);
    assert_eq!(total.completed, units.len() as u64);
    assert_eq!(total.reclaimed, 0, "nobody died");
    assert_eq!(total.lost, 0);
    assert_eq!(
        simulated.iter().sum::<u64>(),
        unique_records,
        "no duplicate simulations"
    );
    let stats = server.stats();
    assert_eq!(stats.lease_granted, units.len() as u64);
    assert_eq!(stats.lease_completed, units.len() as u64);
    assert_eq!(stats.lease_reclaimed, 0);
    assert_eq!(stats.records_accepted, unique_records);

    // A late claimant finds the campaign drained.
    let late = worker_remote(&addr);
    assert_eq!(
        late.lease_claim("steal-healthy", "late", &units),
        Ok(LeaseClaim::Drained)
    );

    // A cold replayer gets the whole campaign remotely, bit-identical to
    // an isolated reference session, with zero simulations of its own.
    let reference = SimSession::builder().build();
    let replayer = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(addr)))
        .build();
    let grid: Vec<RunConfig> = units
        .iter()
        .flat_map(|u| unit_grid(benchmark_by_name(u)))
        .collect();
    let report = replayer.prefetch(&grid);
    assert_eq!(report.remote_hits, unique_records);
    assert_eq!(report.misses, 0, "nothing left to simulate");
    for cfg in &grid {
        assert_conventional_identical(
            &reference.conventional(cfg),
            &replayer.conventional(cfg),
            "replay baseline",
        );
        assert_dri_identical(
            &reference.policy_run(cfg),
            &replayer.policy_run(cfg),
            "replay dri",
        );
    }
    assert_eq!(replayer.stats().simulations(), 0);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn a_dead_workers_unit_is_reclaimed_and_the_chaos_drain_stays_bit_identical() {
    let central = temp_root("chaos");
    // Short TTL so the dead worker's lease expires quickly; the server
    // also drops every 6th connection outright, which the client-side
    // retry layer must absorb (drop faults are never consecutive).
    let server = serve_scheduler(&central, 400, Some("drop:6"));
    let addr = server.addr().to_string();

    let campaign = "steal-chaos";
    let units: Vec<String> = ["compress", "gcc", "li"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let unique_records: u64 = units.len() as u64 * 7;

    // A worker claims a unit, pushes a *partial* share of it, and dies:
    // it never renews and never completes, so its lease expires.
    let doomed = worker_remote(&addr);
    let claim = doomed
        .lease_claim(campaign, "doomed", &units)
        .expect("first claim");
    let doomed_unit = match claim {
        LeaseClaim::Granted {
            unit, reclaimed, ..
        } => {
            assert!(!reclaimed, "fresh campaign");
            unit
        }
        other => panic!("expected a grant, got {other:?}"),
    };
    let dying = SimSession::builder()
        .sharded(ShardedStore::single(worker_remote(&addr)))
        .push(true)
        .build();
    for cfg in unit_grid(benchmark_by_name(&doomed_unit)).iter().take(2) {
        let _ = dying.conventional(cfg);
        let _ = dying.policy_run(cfg);
    }
    let push = dying.push_pending();
    assert!(push.pushed > 0, "the dead worker left partial records");
    drop(dying);
    drop(doomed);
    std::thread::sleep(Duration::from_millis(500));

    // Two survivors drain everything. The per-unit delay outlives a
    // third of the TTL, so finishing a unit requires live heartbeats.
    let (outcomes, _): (Vec<DrainOutcome>, Vec<u64>) = std::thread::scope(|scope| {
        let handles: Vec<_> = ["survivor-a", "survivor-b"]
            .iter()
            .map(|worker| {
                let (addr, units) = (addr.clone(), units.clone());
                scope.spawn(move || {
                    run_worker(&addr, campaign, &units, worker, Duration::from_millis(600))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .unzip()
    });

    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let reclaimed: u64 = outcomes.iter().map(|o| o.reclaimed).sum();
    let renewals: u64 = outcomes.iter().map(|o| o.renewals).sum();
    assert_eq!(completed, units.len() as u64, "the whole campaign drained");
    assert!(reclaimed >= 1, "the dead worker's unit was taken over");
    assert!(renewals >= 1, "long units forced heartbeat renewals");
    let stats = server.stats();
    assert_eq!(stats.lease_completed, units.len() as u64);
    assert!(stats.lease_reclaimed >= 1);
    assert!(stats.faults_injected >= 1, "the chaos layer actually fired");

    // Zero stranded units: a post-drain claim answers `drained`.
    let probe = worker_remote(&addr);
    assert_eq!(
        probe.lease_claim(campaign, "probe", &units),
        Ok(LeaseClaim::Drained)
    );

    // The re-executed unit healed over the dead worker's partial push
    // bit-identically: a cold replay of the full grid needs zero local
    // simulations and matches an isolated reference session.
    let reference = SimSession::builder().build();
    let replayer = SimSession::builder()
        .sharded(ShardedStore::single(RemoteStore::new(addr)))
        .build();
    let grid: Vec<RunConfig> = units
        .iter()
        .flat_map(|u| unit_grid(benchmark_by_name(u)))
        .collect();
    let report = replayer.prefetch(&grid);
    assert_eq!(report.remote_hits, unique_records);
    assert_eq!(report.misses, 0);
    for cfg in &grid {
        assert_conventional_identical(
            &reference.conventional(cfg),
            &replayer.conventional(cfg),
            "chaos replay baseline",
        );
        assert_dri_identical(
            &reference.policy_run(cfg),
            &replayer.policy_run(cfg),
            "chaos replay dri",
        );
    }
    assert_eq!(replayer.stats().simulations(), 0);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}

#[test]
fn reclaim_handoff_is_visible_to_the_original_owner() {
    // The precise failure interleaving the drain loop relies on: a
    // worker that stalls past its TTL loses renew *and* complete, and
    // the reclaimer's grant carries `reclaimed = true` — so the fleet
    // counts the takeover instead of double-counting the unit.
    let central = temp_root("handoff");
    let server = serve_scheduler(&central, 150, None);
    let addr = server.addr().to_string();
    let units = vec!["compress".to_owned()];

    let stalled = worker_remote(&addr);
    let (gen, unit) = match stalled.lease_claim("handoff", "stalled", &units) {
        Ok(LeaseClaim::Granted {
            unit, generation, ..
        }) => (generation, unit),
        other => panic!("expected a grant, got {other:?}"),
    };
    std::thread::sleep(Duration::from_millis(300));

    let reclaimer = worker_remote(&addr);
    match reclaimer.lease_claim("handoff", "reclaimer", &units) {
        Ok(LeaseClaim::Granted {
            unit: taken,
            generation,
            reclaimed,
            ..
        }) => {
            assert_eq!(taken, unit);
            assert!(reclaimed, "takeover grants are flagged");
            assert!(generation > gen, "generations are monotonic");
            reclaimer
                .lease_complete("handoff", &taken, generation, "reclaimer")
                .expect("reclaimer completes");
        }
        other => panic!("expected a reclaim grant, got {other:?}"),
    }
    // The original owner's renew and complete are both dead.
    assert!(stalled
        .lease_renew("handoff", &unit, gen, "stalled")
        .is_err());
    assert!(stalled
        .lease_complete("handoff", &unit, gen, "stalled")
        .is_err());
    assert_eq!(
        stalled.lease_claim("handoff", "stalled", &units),
        Ok(LeaseClaim::Drained),
        "the unit is done regardless of who finished it"
    );
    assert_eq!(server.stats().lease_reclaimed, 1);

    server.shutdown();
    let _ = fs::remove_dir_all(&central);
}
