//! The campaign scheduler's wire contract over real loopback sockets:
//! authenticated claim/renew/complete, expiry-then-reclaim between two
//! worker clients, lease stats in `/stats`, and the fault-injection
//! layer (503s retried transparently, torn responses caught by the
//! client's end-to-end checks, drops survived by backoff).

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use dri_serve::{FaultSpec, LeaseClaim, LeaseError, RemoteStore, Server};
use dri_store::ResultStore;

const TOKEN: &str = "lease-test-secret";

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("dri-lease-svc-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// A writable server with a short lease TTL and optional fault spec.
fn serve(tag: &str, ttl_ms: u64, faults: Option<&str>) -> (Server, Arc<ResultStore>, PathBuf) {
    let root = temp_root(tag);
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let faults = faults.map(|spec| FaultSpec::parse(spec).expect("fault spec"));
    let server = Server::bind_with_journal(
        Arc::clone(&store),
        "127.0.0.1:0",
        4,
        Some(TOKEN.to_owned()),
        ttl_ms,
        faults,
        None,
    )
    .expect("bind");
    (server, store, root)
}

fn worker(server: &Server) -> RemoteStore {
    RemoteStore::with_token(server.addr().to_string(), Some(TOKEN.to_owned()))
}

fn units(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_owned()).collect()
}

fn granted(claim: LeaseClaim) -> (String, u64) {
    match claim {
        LeaseClaim::Granted {
            unit, generation, ..
        } => (unit, generation),
        other => panic!("expected a grant, got {other:?}"),
    }
}

#[test]
fn claim_renew_complete_drain_over_the_wire() {
    let (server, _store, root) = serve("lifecycle", 60_000, None);
    let w1 = worker(&server);
    let plan = units(&["compress", "gcc"]);

    let (unit_a, gen_a) = granted(w1.lease_claim("fig3", "w1", &plan).unwrap());
    assert_eq!(unit_a, "compress", "name order is deterministic");
    let deadline = w1.lease_renew("fig3", &unit_a, gen_a, "w1").unwrap();
    assert!(deadline > 0);
    w1.lease_complete("fig3", &unit_a, gen_a, "w1").unwrap();

    // A second worker takes the other unit; re-seeding is idempotent.
    let w2 = worker(&server);
    let (unit_b, gen_b) = granted(w2.lease_claim("fig3", "w2", &plan).unwrap());
    assert_eq!(unit_b, "gcc");

    // Everything claimed or done: the first worker is told to wait...
    assert_eq!(
        w1.lease_claim("fig3", "w1", &plan).unwrap(),
        LeaseClaim::Wait { claimed: 1 }
    );
    // ...and once the last unit completes, the campaign drains.
    w2.lease_complete("fig3", &unit_b, gen_b, "w2").unwrap();
    assert_eq!(
        w1.lease_claim("fig3", "w1", &plan).unwrap(),
        LeaseClaim::Drained
    );

    let stats = server.stats();
    assert_eq!(stats.lease_granted, 2);
    assert_eq!(stats.lease_completed, 2);
    assert_eq!(stats.lease_reclaimed, 0, "healthy run reclaims nothing");
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn expired_lease_is_reclaimed_and_the_dead_workers_handle_goes_stale() {
    // 50 ms TTL: w1 "dies" by simply not renewing.
    let (server, _store, root) = serve("reclaim", 50, None);
    let w1 = worker(&server);
    let w2 = worker(&server);
    let plan = units(&["compress"]);

    let (unit, gen1) = granted(w1.lease_claim("fig3", "w1", &plan).unwrap());
    // Live claim: w2 must wait, not steal.
    assert_eq!(
        w2.lease_claim("fig3", "w2", &plan).unwrap(),
        LeaseClaim::Wait { claimed: 1 }
    );
    std::thread::sleep(std::time::Duration::from_millis(80));

    // Expired: w2's claim is a reclaim with a bumped generation.
    let reclaim = w2.lease_claim("fig3", "w2", &plan).unwrap();
    let LeaseClaim::Granted {
        unit: unit2,
        generation: gen2,
        reclaimed,
        ..
    } = reclaim
    else {
        panic!("expected a reclaim grant, got {reclaim:?}");
    };
    assert_eq!(unit2, unit);
    assert!(reclaimed);
    assert_eq!(gen2, gen1 + 1);

    // The dead worker's stale handle is refused on both calls.
    assert_eq!(
        w1.lease_renew("fig3", &unit, gen1, "w1"),
        Err(LeaseError::Refused("not-owner".to_owned()))
    );
    assert_eq!(
        w1.lease_complete("fig3", &unit, gen1, "w1"),
        Err(LeaseError::Refused("not-owner".to_owned()))
    );
    w2.lease_complete("fig3", &unit, gen2, "w2").unwrap();

    let stats = server.stats();
    assert_eq!(stats.lease_reclaimed, 1);
    assert_eq!(stats.lease_rejected, 2);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn renew_after_expiry_is_refused_even_unreclaimed() {
    let (server, _store, root) = serve("renew-expiry", 50, None);
    let w1 = worker(&server);
    let (unit, generation) = granted(w1.lease_claim("c", "w1", &units(&["u"])).unwrap());
    std::thread::sleep(std::time::Duration::from_millis(80));
    // Nobody reclaimed the unit, but the heartbeat still loses: a
    // renewal racing a reclaim must lose deterministically.
    assert_eq!(
        w1.lease_renew("c", &unit, generation, "w1"),
        Err(LeaseError::Refused("expired".to_owned()))
    );
    // The late *completion* is still honoured — the work was pushed.
    w1.lease_complete("c", &unit, generation, "w1").unwrap();
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn lease_endpoints_require_the_write_token() {
    let (server, store, root) = serve("auth", 60_000, None);
    let impostor = RemoteStore::with_token(server.addr().to_string(), Some("wrong".to_owned()));
    assert_eq!(
        impostor.lease_claim("c", "w", &units(&["u"])),
        Err(LeaseError::Denied(401))
    );
    let unsigned = RemoteStore::new(server.addr().to_string());
    assert_eq!(
        unsigned.lease_claim("c", "w", &units(&["u"])),
        Err(LeaseError::Denied(401))
    );
    server.shutdown();

    // A read-only server (no token at all) answers 405.
    let read_only = Server::bind(Arc::clone(&store), "127.0.0.1:0", 2).expect("bind read-only");
    let hopeful = RemoteStore::with_token(read_only.addr().to_string(), Some(TOKEN.to_owned()));
    assert_eq!(
        hopeful.lease_claim("c", "w", &units(&["u"])),
        Err(LeaseError::Denied(405))
    );
    read_only.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn stats_json_carries_the_lease_and_fault_counters() {
    let (server, _store, root) = serve("stats-json", 50, None);
    let w1 = worker(&server);
    let w2 = worker(&server);
    let (unit, _) = granted(w1.lease_claim("c", "w1", &units(&["u"])).unwrap());
    std::thread::sleep(std::time::Duration::from_millis(80));
    let (unit2, gen2) = granted(w2.lease_claim("c", "w2", &units(&["u"])).unwrap());
    assert_eq!(unit2, unit);
    w2.lease_complete("c", &unit2, gen2, "w2").unwrap();

    // Scrape /stats exactly as CI's chaos-smoke job does.
    let probe = worker(&server);
    let (status, body) = {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let head_end = response.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let status: u16 = std::str::from_utf8(&response[..head_end])
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, response[head_end + 4..].to_vec())
    };
    drop(probe);
    assert_eq!(status, 200);
    let json = String::from_utf8(body).unwrap();
    assert!(
        json.contains("\"leases\":{\"claims\":2,\"granted\":2,\"reclaimed\":1,"),
        "{json}"
    );
    assert!(json.contains("\"completed\":1"), "{json}");
    assert!(json.contains("\"faults_injected\":0"), "{json}");
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn injected_faults_are_survived_by_retry_and_validation() {
    // Every 4th connection answers 503, every 7th tears its response.
    // Periods 4 and 7 guarantee at most two consecutive faulty
    // connections, so the 3-attempt retry budget always reaches a clean
    // one — every logical call must succeed.
    let (server, store, root) = serve("chaos", 60_000, Some("503:4,torn:7"));
    store.save("dri", 1, 7, b"chaos payload");
    let w = worker(&server);

    // 12 fetches: deterministic fault pattern, every one must succeed.
    for _ in 0..12 {
        assert_eq!(w.fetch("dri", 1, 7).as_deref(), Some(&b"chaos payload"[..]));
    }
    let stats = w.stats();
    assert!(stats.retries > 0, "503s/torn responses were retried");
    assert_eq!(stats.errors, 0, "no retry round was exhausted");
    assert!(!w.is_disabled(), "breaker never latched");

    // The lease control plane rides the same retry path.
    let (unit, generation) = granted(w.lease_claim("c", "w", &units(&["u"])).unwrap());
    w.lease_complete("c", &unit, generation, "w").unwrap();

    let server_stats = server.stats();
    assert!(server_stats.faults_injected > 0, "faults actually fired");
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn dropped_connections_exhaust_into_breaker_counts_only_once_per_call() {
    // Every connection is dropped: each logical fetch burns its full
    // retry budget and counts exactly one breaker strike.
    let (server, _store, root) = serve("drop-all", 60_000, Some("drop:1"));
    let w = worker(&server);
    assert_eq!(w.fetch("dri", 1, 1), None);
    let stats = w.stats();
    assert_eq!(stats.errors, 1, "one exhausted round = one strike");
    assert_eq!(
        stats.retries,
        u64::from(dri_serve::client::RETRY_ATTEMPTS) - 1,
        "the other attempts were retries, not strikes"
    );
    assert!(!w.is_disabled(), "one strike is not enough to latch");
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}
