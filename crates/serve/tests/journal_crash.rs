//! The group-commit journal's durability contract, proven end-to-end:
//!
//! * **acked ⇒ durable** — a batch the server answered `200` for is
//!   served bit-identical after the process is `exit`-killed mid-write
//!   and restarted (the `crash:N` fault tears a frame exactly the way a
//!   `kill -9` between `write` and `fsync` would);
//! * **unacked ⇒ invisible** — no record from the torn, never-acked
//!   frame is ever served, before or after compaction.
//!
//! One test runs the real `dri-serve` binary and really kills it; the
//! others drive the journal in-process to pin the read-through and
//! compaction bookkeeping.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dri_serve::{JournalConfig, RemoteStore, ServeStats, Server};
use dri_store::{frame_record, Journal, JournalEntry, JournalOptions, ResultStore};

/// The tests of this file take turns. A child `Command::spawn` forks
/// holds a copy of every descriptor of the test process until it execs,
/// the journal's lock file included; a test that drops a journal and
/// reopens its root while another test spawns `dri-serve` can find the
/// root still locked.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes this file's turn lock; a test that panicked holding it leaves
/// nothing to repair, so a poisoned lock is taken as is.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-journal-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A distinctive payload for grid point `i` of batch `tag`.
fn payload(tag: u8, i: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64);
    for w in 0..8u64 {
        bytes.extend_from_slice(&(tag as u64 * 1_000_003 + i * 17 + w).to_le_bytes());
    }
    bytes
}

fn key(tag: u8, i: u64) -> u128 {
    ((tag as u128) << 64) | i as u128
}

/// Spawns the real `dri-serve` binary on an ephemeral port and returns
/// the child plus the address it printed on stdout.
fn spawn_server(root: &PathBuf, token: &str, fault: Option<&str>) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dri-serve"));
    cmd.arg("--store")
        .arg(root)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg("2")
        .env("DRI_TOKEN", token)
        .env_remove("DRI_FAULT")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(spec) = fault {
        cmd.env("DRI_FAULT", spec);
    }
    let mut child = cmd.spawn().expect("spawn dri-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("listening line");
    let addr = line
        .trim()
        .rsplit("http://")
        .next()
        .expect("addr in listening line")
        .to_owned();
    (child, addr)
}

fn batch_entries(tag: u8, n: u64) -> Vec<(u128, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let k = key(tag, i);
            (k, frame_record(1, k, &payload(tag, i)))
        })
        .collect()
}

fn push_one_batch(
    client: &RemoteStore,
    entries: &[(u128, Vec<u8>)],
) -> Vec<dri_serve::PushOutcome> {
    let refs: Vec<(&str, u32, u128, &[u8])> = entries
        .iter()
        .map(|(k, rec)| ("dri", 1u32, *k, rec.as_slice()))
        .collect();
    client.push_batch(&refs).0
}

#[test]
fn acked_batches_survive_a_mid_push_crash_and_the_torn_batch_stays_invisible() {
    let _serial = serial();
    let root = temp_root("kill");
    let token = "crash-proof-secret";

    // `crash:3`: the 3rd accepted connection (= the 3rd batch push —
    // batches A and B each complete in one exchange) tears its journal
    // frame mid-append and exits without a response, exactly a `kill -9`
    // between `write` and `fsync`.
    let (mut child, addr) = spawn_server(&root, token, Some("crash:3"));
    let client = RemoteStore::with_token(addr, Some(token.to_owned()));

    let batch_a = batch_entries(b'a', 5);
    let batch_b = batch_entries(b'b', 5);
    let batch_c = batch_entries(b'c', 5);

    for (name, batch) in [("A", &batch_a), ("B", &batch_b)] {
        let outcomes = push_one_batch(&client, batch);
        assert!(
            outcomes
                .iter()
                .all(|o| *o == dri_serve::PushOutcome::Accepted),
            "batch {name} is acked: {outcomes:?}"
        );
    }
    let outcomes = push_one_batch(&client, &batch_c);
    assert!(
        outcomes
            .iter()
            .all(|o| *o != dri_serve::PushOutcome::Accepted),
        "the crashed batch is never acked: {outcomes:?}"
    );
    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(17), "the crash fault's exit code");

    // Restart over the same root, no fault spec: recovery replays the
    // two synced frames and drops the torn one whole.
    let (mut child, addr) = spawn_server(&root, token, None);
    let survivor = RemoteStore::with_token(addr, Some(token.to_owned()));
    for (name, batch, tag) in [("A", &batch_a, b'a'), ("B", &batch_b, b'b')] {
        for (i, (k, _)) in batch.iter().enumerate() {
            assert_eq!(
                survivor.fetch("dri", 1, *k).as_deref(),
                Some(payload(tag, i as u64).as_slice()),
                "acked batch {name} record {i} is served bit-identical after the crash"
            );
        }
    }
    for (i, (k, _)) in batch_c.iter().enumerate() {
        assert_eq!(
            survivor.fetch("dri", 1, *k),
            None,
            "unacked record {i} from the torn frame is invisible"
        );
    }
    // SIGKILL the survivor: the kernel releases its journal lock, so a
    // third server binds the same root at once and still serves.
    child.kill().expect("stop survivor");
    let _ = child.wait();
    let (mut child, addr) = spawn_server(&root, token, None);
    let third = RemoteStore::with_token(addr, Some(token.to_owned()));
    assert_eq!(
        third.fetch("dri", 1, batch_a[0].0).as_deref(),
        Some(payload(b'a', 0).as_slice()),
        "a server rebinds a SIGKILLed server's root"
    );
    child.kill().expect("stop the third server");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn journaled_pushes_read_through_before_and_after_compaction() {
    let _serial = serial();
    let root = temp_root("readthrough");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let token = "journal-secret";
    // An hour-long compact interval: this test drives compaction by
    // hand so the counters are deterministic.
    let config = JournalConfig {
        commit_window: Duration::ZERO,
        compact_interval: Duration::from_secs(3600),
        ..JournalConfig::default()
    };
    let server = Server::bind_with_journal(
        Arc::clone(&store),
        "127.0.0.1:0",
        2,
        Some(token.to_owned()),
        30_000,
        None,
        Some(config),
    )
    .expect("bind");
    let client = RemoteStore::with_token(server.addr().to_string(), Some(token.to_owned()));

    let batch = batch_entries(b'j', 8);
    let outcomes = push_one_batch(&client, &batch);
    assert!(outcomes
        .iter()
        .all(|o| *o == dri_serve::PushOutcome::Accepted));

    // One fsync bought the whole batch, and reads hit the journal index
    // (nothing has been compacted into record files yet).
    let stats = server.journal_stats().expect("journal enabled");
    assert_eq!(stats.batches, 1, "one group-commit batch");
    assert_eq!(stats.fsyncs, 1, "one fsync for the whole batch");
    assert_eq!(stats.depth, 8, "all records still journal-resident");
    for (i, (k, _)) in batch.iter().enumerate() {
        assert_eq!(
            client.fetch("dri", 1, *k).as_deref(),
            Some(payload(b'j', i as u64).as_slice()),
            "record {i} reads through the journal index"
        );
    }

    // Compaction drains the journal into record files; reads now fall
    // through to the store and the bytes are unchanged.
    assert_eq!(server.compact_journal().expect("compact"), 8);
    let stats = server.journal_stats().expect("journal enabled");
    assert_eq!(stats.depth, 0, "journal drained");
    assert_eq!(stats.compacted, 8);
    for (i, (k, _)) in batch.iter().enumerate() {
        assert_eq!(
            client.fetch("dri", 1, *k).as_deref(),
            Some(payload(b'j', i as u64).as_slice()),
            "record {i} is bit-identical from the store after compaction"
        );
    }

    // The client-visible stats document carries the journal block.
    let remote = client.server_stats().expect("server stats parse");
    assert_eq!(remote.journal_batches, 1);
    assert_eq!(remote.journal_fsyncs, 1);
    assert_eq!(remote.journal_depth, 0);
    assert_eq!(remote.journal_compacted, 8);

    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn the_wire_stats_view_equals_the_in_process_view() {
    let _serial = serial();
    let root = temp_root("roundtrip");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let token = "roundtrip-secret";
    // Compaction is driven by hand, so nothing moves between the two
    // reads below.
    let config = JournalConfig {
        compact_interval: Duration::from_secs(3600),
        ..JournalConfig::default()
    };
    let server = Server::bind_with_journal(
        Arc::clone(&store),
        "127.0.0.1:0",
        2,
        Some(token.to_owned()),
        30_000,
        None,
        Some(config),
    )
    .expect("bind");
    let client = RemoteStore::with_token(server.addr().to_string(), Some(token.to_owned()));
    let batch = batch_entries(b'w', 5);
    assert!(push_one_batch(&client, &batch)
        .iter()
        .all(|o| *o == dri_serve::PushOutcome::Accepted));
    assert!(client.fetch("dri", 1, batch[0].0).is_some());
    assert_eq!(server.compact_journal().expect("compact"), 5);

    let local = server.stats();
    let remote = client.server_stats().expect("server stats parse");
    // The scrape counts itself in `requests` before rendering, and adds
    // its own body to `bytes_served` only after.
    assert_eq!(
        remote,
        ServeStats {
            requests: local.requests + 1,
            ..local
        },
        "GET /stats parses back into the in-process view"
    );
    assert!(remote.writable && remote.journal_enabled);
    assert_eq!((remote.records, remote.records_accepted), (5, 5));
    assert_eq!((remote.hits, remote.journal_compacted), (1, 5));

    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_default_read_only_server_serves_and_drains_inherited_segments() {
    let _serial = serial();
    let root = temp_root("inherit");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    // A writer acked a batch and died before compacting it: the journal
    // segment is the only durable copy.
    let journal = Journal::open(&root, JournalOptions::default()).expect("open journal");
    let k = key(b'i', 0);
    journal
        .append_batch(vec![JournalEntry {
            kind: "dri".to_owned(),
            schema: 1,
            key: k,
            payload: payload(b'i', 0),
        }])
        .expect("append");
    drop(journal);

    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", 2).expect("bind");
    let reader = RemoteStore::new(server.addr().to_string());
    assert_eq!(
        reader.fetch("dri", 1, k).as_deref(),
        Some(payload(b'i', 0).as_slice()),
        "the inherited record is served before compaction"
    );
    server.compact_journal().expect("compact");
    assert!(
        store.entry_path("dri", 1, k).is_file(),
        "compaction lands the inherited record as a record file"
    );
    assert_eq!(store.load("dri", 1, k), Some(payload(b'i', 0)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
