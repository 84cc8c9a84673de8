//! The work-stealing campaign worker: claim → simulate → push → complete.
//!
//! A campaign splits into named **work units** (one benchmark each) that
//! live as durable leases on the serving host (`dri_store::lease`,
//! brokered over `POST /lease/claim|renew|complete` — see `dri_serve`).
//! Instead of pre-assigning benchmarks with `DRI_BENCHMARKS`, a `suite
//! --steal` worker calls [`drain`]: it loops claiming whatever unit is
//! next, runs it, pushes what it simulated to the shared store, and
//! completes the lease. Fast workers naturally take more units, a dead
//! worker's lease expires and is **reclaimed** by any survivor, and the
//! campaign is drained when every unit is completed — no coordinator
//! process, no static partitioning.
//!
//! Crash-safety comes from the tier system, not from the scheduler:
//! simulations are deterministic, so a reclaimed unit re-executes
//! bit-identically, and whatever the dead worker already pushed is
//! served straight back to the reclaimer by the prefetch tier — re-won
//! work costs a batch round-trip, not a simulation.
//!
//! While a unit runs, a heartbeat thread renews the lease at a third of
//! the granted TTL, so a live worker is never mistaken for a dead one
//! mid-sweep; the heartbeat stops (and the lease is completed) the
//! moment the unit's body returns — or unwinds, so a panicking unit
//! still releases its heartbeat.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dri_serve::{LeaseClaim, LeaseError, RemoteStore};
use dri_telemetry::{trace, Span};

/// Environment variable gating work-stealing campaign mode. Off by
/// default; set `DRI_STEAL=1` (or `on`/`true`/`yes`) — or pass `suite
/// --steal` / a manifest's `steal = on` — to enable it.
pub const STEAL_ENV: &str = "DRI_STEAL";

/// Environment variable naming this worker to the lease scheduler.
/// Unset, the worker is `worker-<pid>`; CI sets readable names so the
/// server's lease files and logs identify who held what.
pub const WORKER_ENV: &str = "DRI_WORKER";

/// How long a worker sleeps between claim attempts while every
/// remaining unit is leased to someone else (or a transient claim
/// failure is backing off).
pub const WAIT_POLL: Duration = Duration::from_millis(150);

/// Consecutive failed claims (transport errors, after the client's own
/// per-call retry budget) before the worker gives up. Waits and grants
/// reset the count — this bails out of a *dead* scheduler, not a busy
/// one.
pub const MAX_CLAIM_FAILURES: u32 = 5;

/// Granularity at which the heartbeat thread notices the unit finished,
/// so completing a fast unit never blocks on a sleeping heartbeat.
const STOP_POLL: Duration = Duration::from_millis(10);

/// Whether work-stealing campaign mode is enabled (reads [`STEAL_ENV`]
/// afresh on every call, like the other `DRI_*` switches, so a
/// manifest's `steal =` option takes effect even after the global
/// session exists).
pub fn steal_enabled() -> bool {
    match std::env::var(STEAL_ENV) {
        Ok(raw) => matches!(
            raw.trim().to_ascii_lowercase().as_str(),
            "1" | "on" | "true" | "yes"
        ),
        Err(_) => false,
    }
}

/// This worker's name to the scheduler: [`WORKER_ENV`] when set and
/// non-empty, else `worker-<pid>`.
pub fn worker_name() -> String {
    std::env::var(WORKER_ENV)
        .ok()
        .map(|raw| raw.trim().to_owned())
        .filter(|name| !name.is_empty())
        .unwrap_or_else(|| format!("worker-{}", std::process::id()))
}

/// The deterministic campaign identifier a fleet of workers agrees on:
/// the simulating job names joined with `.`, suffixed `-quick` in quick
/// mode (a quick and a full campaign of the same jobs must never share
/// lease state — their units are different work). The result is a safe
/// lease-directory name as long as job names are (they are: the
/// scheduler's [`dri_store::lease::name_is_safe`] allows `[A-Za-z0-9._-]`).
pub fn campaign_id(job_names: &[&str], quick: bool) -> String {
    let mut id = job_names.join(".");
    if id.is_empty() {
        id.push_str("empty");
    }
    if quick {
        id.push_str("-quick");
    }
    id
}

/// What one [`drain`] call accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Leases granted to this worker (first claims and reclaims).
    pub granted: u64,
    /// Of those, expired leases reclaimed from another worker.
    pub reclaimed: u64,
    /// Units this worker ran *and* completed.
    pub completed: u64,
    /// Units this worker ran whose completion did not land: the lease
    /// expired mid-run and was reclaimed by someone else (the refused
    /// completion), or the completion call failed in transport. The
    /// work is not wasted — it was pushed, so the re-executing worker
    /// replays it from the store.
    pub lost: u64,
    /// Heartbeat renewals sent while units ran.
    pub renewals: u64,
    /// Claim attempts answered `wait` (every remaining unit was leased
    /// to a live worker at that moment).
    pub waits: u64,
}

/// Drains `campaign` as `worker`: loops **claim → run → complete**
/// until the scheduler reports the campaign drained, running each
/// granted unit through `run_unit` under a heartbeat that renews the
/// lease at a third of its TTL. `units` seeds the campaign idempotently
/// on every claim, so whichever worker arrives first creates the lease
/// table and late joiners see the same one.
///
/// `run_unit` is expected to push what it simulates before returning
/// (the `suite --steal` runner drains the session's pending pushes at
/// the end of each unit) — completion marks the unit's results as
/// *centrally available*, not merely computed.
///
/// Returns when the campaign is drained. Fails fast on authentication
/// errors (a worker without the server's `DRI_TOKEN` can never make
/// progress) and after [`MAX_CLAIM_FAILURES`] consecutive transport
/// failures (a dead scheduler); a busy campaign — claims answered
/// `wait` — polls patiently at [`WAIT_POLL`] instead.
pub fn drain(
    control: &RemoteStore,
    campaign: &str,
    units: &[String],
    worker: &str,
    run_unit: impl Fn(&str),
) -> Result<DrainOutcome, String> {
    // Ambient context for every event the drain loop (and the session
    // tiers running beneath it) emits: worker + campaign for the whole
    // drain, unit per claimed lease. No-ops when tracing is off.
    trace::set_context("worker", worker);
    trace::set_context("campaign", campaign);
    let mut outcome = DrainOutcome::default();
    let mut claim_failures = 0u32;
    loop {
        match control.lease_claim(campaign, worker, units) {
            Ok(LeaseClaim::Granted {
                unit,
                generation,
                ttl_ms,
                reclaimed,
                ..
            }) => {
                claim_failures = 0;
                outcome.granted += 1;
                outcome.reclaimed += u64::from(reclaimed);
                trace::set_context("unit", &unit);
                let span = Span::begin("unit", &unit)
                    .label("gen", &generation.to_string())
                    .label("reclaimed", if reclaimed { "1" } else { "0" });
                outcome.renewals += run_with_heartbeat(
                    control,
                    campaign,
                    &unit,
                    generation,
                    worker,
                    ttl_ms,
                    || run_unit(&unit),
                );
                let completion = control.lease_complete(campaign, &unit, generation, worker);
                span.finish(match &completion {
                    Ok(()) => "completed",
                    Err(_) => "lost",
                });
                trace::clear_context("unit");
                match completion {
                    Ok(()) => outcome.completed += 1,
                    Err(LeaseError::Denied(status)) => return Err(denied(status)),
                    // Reclaimed mid-run, or the completion call itself
                    // failed: the unit will be re-executed (cheaply —
                    // its records were pushed), so keep draining.
                    Err(LeaseError::Refused(_) | LeaseError::Unavailable) => outcome.lost += 1,
                }
            }
            Ok(LeaseClaim::Wait { .. }) => {
                claim_failures = 0;
                outcome.waits += 1;
                std::thread::sleep(WAIT_POLL);
            }
            Ok(LeaseClaim::Drained) => {
                trace::clear_context("campaign");
                trace::clear_context("worker");
                return Ok(outcome);
            }
            Err(LeaseError::Denied(status)) => return Err(denied(status)),
            Err(err) => {
                claim_failures += 1;
                if claim_failures >= MAX_CLAIM_FAILURES {
                    return Err(format!(
                        "giving up after {MAX_CLAIM_FAILURES} consecutive failed claims \
                         (last: {err})"
                    ));
                }
                std::thread::sleep(WAIT_POLL);
            }
        }
    }
}

fn denied(status: u16) -> String {
    format!(
        "the scheduler denied the lease request with HTTP {status} — \
         stealing requires the server's DRI_TOKEN (and a writable server)"
    )
}

/// Runs `body` while a scoped heartbeat thread renews the lease every
/// `ttl_ms / 3`; returns the number of successful renewals. The
/// heartbeat stops when `body` returns — or unwinds (the stop flag is
/// set by a drop guard), so a panicking unit cannot leave the thread
/// renewing a lease nobody is working under. A *refused* renewal also
/// stops it: the lease was reclaimed (or the clock ran out), and
/// continuing to renew could only fight the new owner.
fn run_with_heartbeat(
    control: &RemoteStore,
    campaign: &str,
    unit: &str,
    generation: u64,
    worker: &str,
    ttl_ms: u64,
    body: impl FnOnce(),
) -> u64 {
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    let stop = AtomicBool::new(false);
    let renewals = AtomicU64::new(0);
    let interval = Duration::from_millis((ttl_ms / 3).max(1));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut last = Instant::now();
            while !stop.load(Ordering::SeqCst) {
                if last.elapsed() >= interval {
                    match control.lease_renew(campaign, unit, generation, worker) {
                        Ok(_) => {
                            renewals.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(LeaseError::Refused(_) | LeaseError::Denied(_)) => break,
                        // Transport trouble: keep trying — the next
                        // beat may get through before the TTL runs out.
                        Err(LeaseError::Unavailable) => {}
                    }
                    last = Instant::now();
                }
                std::thread::sleep(STOP_POLL.min(interval));
            }
        });
        let _stop_guard = StopOnDrop(&stop);
        body();
    });
    renewals.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_store::ResultStore;
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dri-steal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn units(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn campaign_ids_are_deterministic_and_lease_safe() {
        assert_eq!(campaign_id(&["figure3"], false), "figure3");
        assert_eq!(campaign_id(&["figure3"], true), "figure3-quick");
        assert_eq!(
            campaign_id(&["figure3", "figure4", "section5_6"], true),
            "figure3.figure4.section5_6-quick"
        );
        assert_eq!(campaign_id(&[], false), "empty");
        for quick in [false, true] {
            assert!(dri_store::lease::name_is_safe(&campaign_id(
                &["figure3", "figure4", "figure5", "figure6", "section5_6"],
                quick
            )));
        }
    }

    #[test]
    fn worker_names_fall_back_to_the_pid() {
        // The environment override is covered by the CI chaos job (which
        // names its workers); here only the ambient-default case is
        // observable without mutating global state.
        if std::env::var_os(WORKER_ENV).is_none() {
            assert_eq!(worker_name(), format!("worker-{}", std::process::id()));
        }
    }

    #[test]
    fn steal_mode_defaults_off() {
        if std::env::var_os(STEAL_ENV).is_none() {
            assert!(!steal_enabled());
        }
    }

    #[test]
    fn drain_runs_every_unit_once_and_then_reports_drained() {
        let root = temp_root("lifecycle");
        let token = "steal-unit-secret";
        let server = dri_serve::Server::bind_with_journal(
            Arc::new(ResultStore::open(&root).expect("open store")),
            "127.0.0.1:0",
            4,
            Some(token.to_owned()),
            60_000,
            None,
            None,
        )
        .expect("bind");
        let control = RemoteStore::with_token(server.addr().to_string(), Some(token.to_owned()));

        let plan = units(&["compress", "gcc", "li"]);
        let ran: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let outcome = drain(&control, "steal-unit-test", &plan, "w1", |unit| {
            ran.lock().expect("ran lock").push(unit.to_owned());
        })
        .expect("drain succeeds");
        assert_eq!(outcome.granted, 3);
        assert_eq!(outcome.completed, 3);
        assert_eq!(outcome.reclaimed, 0);
        assert_eq!(outcome.lost, 0);
        assert_eq!(
            *ran.lock().expect("ran lock"),
            vec!["compress", "gcc", "li"],
            "one worker drains in deterministic unit order"
        );

        // A late joiner finds the campaign already drained: no claims,
        // no work, immediate exit.
        let late = drain(&control, "steal-unit-test", &plan, "w2", |_| {
            panic!("nothing left to run")
        })
        .expect("drained campaign");
        assert_eq!(late, DrainOutcome::default());

        server.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn drain_fails_fast_without_the_write_token() {
        let root = temp_root("auth");
        let server = dri_serve::Server::bind_with_journal(
            Arc::new(ResultStore::open(&root).expect("open store")),
            "127.0.0.1:0",
            2,
            Some("the-real-secret".to_owned()),
            60_000,
            None,
            None,
        )
        .expect("bind");
        let imposter = RemoteStore::with_token(server.addr().to_string(), Some("wrong".to_owned()));
        let err = drain(&imposter, "c", &units(&["u"]), "w", |_| {
            panic!("never granted")
        })
        .expect_err("denied");
        assert!(err.contains("401"), "{err}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }
}
