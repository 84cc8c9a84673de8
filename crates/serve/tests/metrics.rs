//! The `GET /metrics` contract: the Prometheus text exposition parses,
//! and its values agree with `GET /stats` — by construction both render
//! the same registry after the same refresh, and these tests hold that
//! construction in place.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use dri_serve::stats::SCHEMA;
use dri_serve::{PushOutcome, RemoteStore, Server};
use dri_store::{frame_record, ResultStore};

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-metrics-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn raw_request(addr: std::net::SocketAddr, request: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head");
    let head = std::str::from_utf8(&response[..head_end]).expect("utf-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, response[head_end + 4..].to_vec())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    raw_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// The value of the sample named `name` (optionally carrying a label
/// set, e.g. `request_latency{quantile="0.5"}`) in an exposition.
fn sample(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (sample_name, value) = line.split_once(' ')?;
            (sample_name == name).then(|| value.parse().expect("numeric sample"))
        })
}

/// The integer behind `"key":` in the (flat-enough) stats JSON.
fn stats_field(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).expect("stats field") + needle.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer stats field")
}

/// `(section, key, value)` for every leaf of the stats JSON, in
/// document order; `section` is empty at the top level. Exact for the
/// document's shape: scalar values, objects nested one level deep.
fn stats_leaves(json: &str) -> Vec<(String, String, String)> {
    let body = json
        .trim_end()
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .expect("one JSON object");
    let mut section = "";
    let mut leaves = Vec::new();
    for item in body.split(',') {
        let item = match item.split_once(":{") {
            Some((name, rest)) => {
                section = name.trim_matches('"');
                rest
            }
            None => item,
        };
        let (key, value) = item.split_once(':').expect("key:value");
        leaves.push((
            section.to_owned(),
            key.trim_matches('"').to_owned(),
            value.trim_end_matches('}').to_owned(),
        ));
        if value.ends_with('}') {
            section = "";
        }
    }
    leaves
}

#[test]
fn metrics_exposition_parses_and_agrees_with_stats() {
    let root = temp_root("agree");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let payload = b"the served payload";
    let record_key = 0x5eedu128;
    store.save("dri", 1, record_key, payload);
    let token = "metrics-secret";
    let server = Server::bind_with_token(Arc::clone(&store), "127.0.0.1:0", 4, Some(token.into()))
        .expect("bind");
    let addr = server.addr();

    // A workload the counters can disagree about: one hit, one miss,
    // one bad request, and one signed push, compacted so that every
    // journal counter but the depth moves.
    let path = format!("/record/dri/v1/{record_key:032x}");
    assert_eq!(get(addr, &path).0, 200);
    assert_eq!(
        get(addr, &format!("/record/dri/v1/{:032x}", 0xdeadu128)).0,
        404
    );
    assert_eq!(get(addr, "/record/bogus").0, 400);
    let pushed_key = 0xfeedu128;
    let record = frame_record(1, pushed_key, b"the pushed payload");
    let client = RemoteStore::with_token(addr.to_string(), Some(token.into()));
    let (outcomes, _) = client.push_batch(&[("dri", 1, pushed_key, &record)]);
    assert_eq!(outcomes, [PushOutcome::Accepted]);
    server.compact_journal().expect("compact");

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf-8 exposition");

    // Structural validity: every line is a comment or `name[{labels}] value`.
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (name, value) = line.split_once(' ').expect("sample line has one space");
        assert!(!name.is_empty(), "named sample in {line:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "numeric value in {line:?} (got {value:?})"
        );
        samples += 1;
    }
    assert!(samples > 10, "a real exposition has many samples:\n{text}");

    // The scrape counted the workload exactly.
    assert_eq!(sample(&text, "dri_serve_hits_total"), Some(1.0));
    assert_eq!(sample(&text, "dri_serve_misses_total"), Some(1.0));
    assert_eq!(sample(&text, "dri_serve_bad_requests_total"), Some(1.0));
    assert_eq!(sample(&text, "dri_serve_store_records"), Some(2.0));

    // The latency summary covers every request routed before the scrape
    // (the scrape's own request is recorded after its body is built).
    let latency_count = sample(&text, "dri_serve_request_latency_ns_count").expect("summary count");
    assert_eq!(latency_count, 4.0, "hit + miss + bad request + push");
    let p50 = sample(&text, "dri_serve_request_latency_ns{quantile=\"0.5\"}").expect("p50");
    let max = sample(&text, "dri_serve_request_latency_ns_max").expect("max gauge");
    assert!(p50 > 0.0 && max >= p50, "p50 {p50} <= max {max}");

    // And /stats — walking the very same registry — must agree on every
    // leaf with a metric, except the two the scrapes themselves advance.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let json = String::from_utf8(body).expect("utf-8 stats");
    let leaves = stats_leaves(&json);
    let mut compared = 0;
    for leaf in SCHEMA {
        let Some(metric) = leaf.metric else { continue };
        if ["requests", "bytes_served"].contains(&leaf.key) {
            continue;
        }
        let (_, _, value) = leaves
            .iter()
            .find(|(section, key, _)| section == leaf.section && key == leaf.key)
            .unwrap_or_else(|| panic!("{}.{} in /stats:\n{json}", leaf.section, leaf.key));
        let value: u64 = value.parse().expect("integer leaf");
        assert_eq!(
            sample(&text, metric),
            Some(value as f64),
            "{metric} vs {}.{}",
            leaf.section,
            leaf.key
        );
        compared += 1;
    }
    assert_eq!(
        compared, 28,
        "every metric leaf but requests and bytes_served"
    );
    for key in ["batches", "appended", "fsyncs", "compactions", "compacted"] {
        let (_, _, value) = leaves
            .iter()
            .find(|(section, k, _)| section == "journal" && k == key)
            .expect("journal leaf");
        assert_ne!(
            value, "0",
            "journal.{key} moved, so the comparison above bites"
        );
    }

    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

/// Every JSON key in `doc`, in document order — a serde-free scan that
/// relies only on the stats document's flat shape (keys never contain
/// escapes) and is exact for it.
fn json_keys(doc: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = doc;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        if after[end + 1..].starts_with(':') {
            keys.push(after[..end].to_owned());
        }
        rest = &after[end + 1..];
    }
    keys
}

#[test]
fn stats_json_schema_is_the_documented_key_set() {
    // The /stats document is the contract `suite --store-stats`, the CI
    // accounting greps, and `RemoteStore::server_stats` all parse — so
    // its key set (names *and* order) is pinned here, serde-free,
    // exactly as the server renders it. Renaming, dropping, or reordering a counter must fail this
    // test, not silently break a scraper.
    let root = temp_root("schema");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", 2).expect("bind");
    let (status, body) = get(server.addr(), "/stats");
    assert_eq!(status, 200);
    let json = String::from_utf8(body).expect("utf-8 stats");
    assert_eq!(
        json_keys(&json),
        [
            "records",
            "bytes",
            "generation",
            "writable",
            "requests",
            "hits",
            "misses",
            "bad_requests",
            "batch_requests",
            "bytes_served",
            "push_round_trips",
            "records_accepted",
            "writes_rejected",
            "faults_injected",
            "leases",
            "claims",
            "granted",
            "reclaimed",
            "renewed",
            "completed",
            "rejected",
            "store",
            "hits",
            "misses",
            "corrupt",
            "journal",
            "enabled",
            "depth",
            "batches",
            "appended",
            "fsyncs",
            "compactions",
            "compacted",
            "ring",
            "shards",
            "replicas",
        ],
        "the /stats key set is a published schema:\n{json}"
    );
    // The write-side trio exists under exactly the names the client's
    // RemoteStats snapshot uses, so the two reports align by grep.
    for field in ["records_accepted", "writes_rejected", "push_round_trips"] {
        assert_eq!(stats_field(&json, field), 0, "{field} starts at zero");
    }
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn metrics_includes_the_store_tier_histograms() {
    let root = temp_root("store-tier");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    store.save("dri", 1, 1, b"x");
    // A disk-tier load so the global registry's store histograms have a
    // sample (the store registers them process-wide at open).
    assert!(store.load("dri", 1, 1).is_some());
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", 2).expect("bind");
    let (status, body) = get(server.addr(), "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf-8");
    assert!(
        sample(&text, "dri_store_save_ns_count").unwrap_or(0.0) >= 1.0,
        "store save histogram rides along:\n{text}"
    );
    assert!(
        sample(&text, "dri_store_load_ns_count").unwrap_or(0.0) >= 1.0,
        "store load histogram rides along:\n{text}"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

/// A fresh read-only server's `/stats` body, byte for byte: the first
/// request it sees is the scrape itself, so `requests` reads 1 and every
/// other counter 0. Dashboards and CI greps parse these bytes, so any
/// change to a key, its order, a value's spelling or the trailing
/// newline must fail here.
#[test]
fn a_fresh_read_only_servers_stats_body_is_golden() {
    let root = temp_root("golden");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", 2).expect("bind");
    let (status, body) = get(server.addr(), "/stats");
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(body).expect("utf-8 stats"),
        concat!(
            "{\"records\":0,\"bytes\":0,\"generation\":0,\"writable\":false,",
            "\"requests\":1,\"hits\":0,\"misses\":0,\"bad_requests\":0,",
            "\"batch_requests\":0,\"bytes_served\":0,\"push_round_trips\":0,",
            "\"records_accepted\":0,\"writes_rejected\":0,\"faults_injected\":0,",
            "\"leases\":{\"claims\":0,\"granted\":0,\"reclaimed\":0,",
            "\"renewed\":0,\"completed\":0,\"rejected\":0},",
            "\"store\":{\"hits\":0,\"misses\":0,\"corrupt\":0},",
            "\"journal\":{\"enabled\":true,\"depth\":0,\"batches\":0,",
            "\"appended\":0,\"fsyncs\":0,\"compactions\":0,\"compacted\":0},",
            "\"ring\":{\"shards\":0,\"replicas\":0}}\n",
        )
    );
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

/// The sorted set of `dri_serve_*` sample names (labels stripped) a
/// fresh server's `/metrics` exposes: scrapers key on these names.
#[test]
fn a_fresh_servers_metrics_sample_names_are_pinned() {
    let root = temp_root("names");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", 2).expect("bind");
    let (status, body) = get(server.addr(), "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf-8 exposition");
    let names: std::collections::BTreeSet<&str> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split([' ', '{']).next())
        .filter(|name| name.starts_with("dri_serve_"))
        .collect();
    assert_eq!(
        names.into_iter().collect::<Vec<_>>(),
        [
            "dri_serve_bad_requests_total",
            "dri_serve_batch_requests_total",
            "dri_serve_bytes_served_total",
            "dri_serve_faults_injected_total",
            "dri_serve_hits_total",
            "dri_serve_journal_appended",
            "dri_serve_journal_batches",
            "dri_serve_journal_compacted",
            "dri_serve_journal_compactions",
            "dri_serve_journal_depth",
            "dri_serve_journal_fsyncs",
            "dri_serve_lease_claims_total",
            "dri_serve_lease_completed_total",
            "dri_serve_lease_granted_total",
            "dri_serve_lease_reclaimed_total",
            "dri_serve_lease_rejected_total",
            "dri_serve_lease_renewed_total",
            "dri_serve_misses_total",
            "dri_serve_push_round_trips_total",
            "dri_serve_records_accepted_total",
            "dri_serve_request_latency_ns",
            "dri_serve_request_latency_ns_count",
            "dri_serve_request_latency_ns_max",
            "dri_serve_request_latency_ns_sum",
            "dri_serve_requests_total",
            "dri_serve_ring_replicas",
            "dri_serve_ring_shards",
            "dri_serve_store_bytes",
            "dri_serve_store_corrupt",
            "dri_serve_store_generation",
            "dri_serve_store_hits",
            "dri_serve_store_misses",
            "dri_serve_store_records",
            "dri_serve_writes_rejected_total",
        ],
        "the /metrics names are a published interface:\n{text}"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}
