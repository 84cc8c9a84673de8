//! The sharded fleet, end to end over real loopback sockets: writes
//! replicate to every owning shard, reads split by primary and fail
//! over to replicas when a shard dies mid-campaign, and the per-shard
//! accounting sums to the fleet totals.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use dri_serve::config::{REPLICAS_ENV, SHARDS_ENV};
use dri_serve::{BatchEntry, FleetConfig, PushOutcome, Server, ShardedStore};
use dri_store::{frame_record, ResultStore};

const TOKEN: &str = "fleet-secret";
const KIND: &str = "dri";
const SCHEMA: u32 = 1;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-fleet-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// One writable fleet member on an ephemeral port, with its own store.
fn shard(tag: &str) -> (Server, Arc<ResultStore>, PathBuf) {
    let root = temp_root(tag);
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let server =
        Server::bind_with_token(Arc::clone(&store), "127.0.0.1:0", 2, Some(TOKEN.to_owned()))
            .expect("bind shard");
    (server, store, root)
}

/// A deterministic, distinguishable payload per key.
fn payload(key: u128) -> Vec<u8> {
    let mut bytes = key.to_le_bytes().to_vec();
    bytes.extend_from_slice(b"fleet-payload");
    bytes
}

#[test]
fn fleet_replicates_writes_splits_reads_and_survives_a_shard_death() {
    let (server_a, _store_a, root_a) = shard("a");
    let (server_b, _store_b, root_b) = shard("b");
    let (server_c, _store_c, root_c) = shard("c");
    let addrs = [
        server_a.addr().to_string(),
        server_b.addr().to_string(),
        server_c.addr().to_string(),
    ];
    // ShardedStore canonicalizes membership by sorting addresses, so
    // reorder the server handles to match the ring's shard indices.
    let mut sorted = addrs.clone();
    sorted.sort();
    let mut servers: Vec<Option<Server>> = vec![None, None, None];
    for (server, addr) in [server_a, server_b, server_c].into_iter().zip(&addrs) {
        let idx = sorted.iter().position(|a| a == addr).expect("addr in ring");
        servers[idx] = Some(server);
    }
    let fleet = ShardedStore::new(addrs.clone(), 2, Some(TOKEN.to_owned())).expect("fleet");
    assert!(fleet.is_sharded());
    assert_eq!(fleet.ring().replicas(), 2);

    // Push a grid's worth of records through key-sharded routing.
    let keys: Vec<u128> = (0..40u128).map(|i| i * 0x9e37_79b9 + 7).collect();
    let records: Vec<Vec<u8>> = keys
        .iter()
        .map(|&key| frame_record(SCHEMA, key, &payload(key)))
        .collect();
    let entries: Vec<(&str, u32, u128, &[u8])> = keys
        .iter()
        .zip(&records)
        .map(|(&key, record)| (KIND, SCHEMA, key, record.as_slice()))
        .collect();
    let (outcomes, push_trips) = fleet.push_batch(&entries);
    assert!(push_trips >= 2, "a sharded push must fan out");
    assert!(
        outcomes.iter().all(|o| *o == PushOutcome::Accepted),
        "every record must land: {outcomes:?}"
    );

    // Replication invariant: each record lives on exactly its owners —
    // ask every shard directly (bypassing ring routing) for every key.
    for &key in &keys {
        let owners = fleet.ring().owner_indices(key);
        assert_eq!(owners.len(), 2);
        for (idx, shard_client) in fleet.shards().iter().enumerate() {
            let held = shard_client.fetch(KIND, SCHEMA, key).is_some();
            assert_eq!(
                held,
                owners.contains(&idx),
                "key {key:x} on shard {idx} (owners {owners:?})"
            );
        }
    }

    // Accounting: with replication 2, the fleet accepted each record
    // twice — once per owning shard — and the per-shard server counters
    // sum to exactly that.
    let accepted_total: u64 = servers
        .iter()
        .flatten()
        .map(|server| server.stats().records_accepted)
        .sum();
    assert_eq!(accepted_total, 2 * keys.len() as u64);
    let client_total = fleet.stats();
    assert_eq!(client_total.records_accepted, 2 * keys.len() as u64);

    // A fleet-routed batch fetch answers every key from primaries only.
    let refs: Vec<(&str, u32, u128)> = keys.iter().map(|&key| (KIND, SCHEMA, key)).collect();
    let (fetched, _trips) = fleet.fetch_batch_outcomes(&refs, 4096);
    for (&key, outcome) in keys.iter().zip(&fetched) {
        assert_eq!(
            outcome,
            &BatchEntry::Hit(payload(key)),
            "warm fleet fetch of {key:x}"
        );
    }

    // A key nobody pushed is a definitive fleet-wide miss (one pass, no
    // failover — the primary *answered*).
    let (missing, _) = fleet.fetch_batch_outcomes(&[(KIND, SCHEMA, 0xdead_beef)], 4096);
    assert_eq!(missing, [BatchEntry::Miss]);

    // SIGKILL one shard (in-process: shut it down) and replay the whole
    // grid cold through a fresh fleet client: every key whose primary
    // died degrades to its replica, so the replay still sees 105/105 —
    // here 40/40 — hits and zero unknowns.
    let dead_idx = fleet.ring().primary(keys[0]);
    let dead_addr = fleet.shards()[dead_idx].addr().to_owned();
    servers[dead_idx]
        .take()
        .expect("dead shard handle")
        .shutdown();
    let cold = ShardedStore::new(addrs, 2, None).expect("cold fleet");
    let (degraded, _trips) = cold.fetch_batch_outcomes(&refs, 4096);
    for (&key, outcome) in keys.iter().zip(&degraded) {
        assert_eq!(
            outcome,
            &BatchEntry::Hit(payload(key)),
            "degraded fetch of {key:x} after {dead_addr} died"
        );
    }
    // The survivors carry per-shard counters; the dead shard carries
    // errors. Nothing was re-simulated, everything was read.
    let shard_stats = cold.shard_stats();
    assert_eq!(shard_stats.len(), 3);
    assert!(shard_stats[dead_idx].1.errors > 0, "dead shard saw errors");
    assert_eq!(cold.stats().hits, keys.len() as u64);

    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    for root in [root_a, root_b, root_c] {
        let _ = fs::remove_dir_all(root);
    }
}

#[test]
fn fleet_config_names_the_remote_tier() {
    // Malformed DRI_SHARDS warns and attaches no remote tier: a worker
    // with a typo'd fleet is degraded, never dead.
    let (config, warnings) = FleetConfig::from_vars([(SHARDS_ENV, "not-an-address")]);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains(SHARDS_ENV), "{warnings:?}");
    assert!(config.remote().is_none());
    assert_eq!(config.membership(), None);

    // One address is a single server: a one-shard fleet.
    let (config, _) = FleetConfig::from_vars([(SHARDS_ENV, "http://127.0.0.1:19/")]);
    let single = config.remote().expect("one-shard fleet");
    assert!(!single.is_sharded());
    assert_eq!(single.describe(), "127.0.0.1:19");
    assert_eq!(
        config.membership(),
        Some((1, 1)),
        "replicas clamp to the fleet"
    );

    // A well-formed list routes as a fleet, with replicas from the
    // settings and membership in canonical order however it is listed.
    let (config, warnings) = FleetConfig::from_vars([
        (SHARDS_ENV, "127.0.0.1:21,127.0.0.1:19"),
        (REPLICAS_ENV, "2"),
    ]);
    assert!(warnings.is_empty(), "{warnings:?}");
    let fleet = config.remote().expect("fleet");
    assert!(fleet.is_sharded());
    assert_eq!(fleet.ring().replicas(), 2);
    assert_eq!(fleet.ring().shards(), ["127.0.0.1:19", "127.0.0.1:21"]);
    assert_eq!(fleet.describe(), "127.0.0.1:19,127.0.0.1:21 (x2)");
    assert_eq!(
        config.membership(),
        Some((2, 2)),
        "what the servers advertise"
    );

    // And with no fleet named, the tier stays opt-in.
    let (config, _) = FleetConfig::from_vars(std::iter::empty::<(&str, &str)>());
    assert!(config.remote().is_none());
}

#[test]
fn direct_shard_clients_share_the_token() {
    let (server, _store, root) = shard("token");
    let addr = server.addr().to_string();
    let fleet = ShardedStore::new([addr], 1, Some(TOKEN.to_owned())).expect("fleet");
    assert!(fleet.has_token());
    let record = frame_record(SCHEMA, 99, &payload(99));
    assert_eq!(fleet.push(KIND, SCHEMA, 99, &record), PushOutcome::Accepted);
    assert_eq!(
        fleet.fetch_batch(&[(KIND, SCHEMA, 99)]),
        [Some(payload(99))]
    );

    // The wrong token is rejected per shard, mirroring RemoteStore.
    let imposter = ShardedStore::new(
        [fleet.shards()[0].addr().to_owned()],
        1,
        Some("wrong".to_owned()),
    )
    .expect("imposter fleet");
    assert_eq!(
        imposter.push(KIND, SCHEMA, 7, &frame_record(SCHEMA, 7, b"x")),
        PushOutcome::Rejected
    );
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}
