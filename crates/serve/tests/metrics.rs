//! The `GET /metrics` contract: the Prometheus text exposition parses,
//! and its counters agree with `GET /stats` — by construction they read
//! the same atomics, and this test holds that construction in place.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use dri_serve::Server;
use dri_store::ResultStore;

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

#[test]
fn metrics_exposition_parses_and_agrees_with_stats() {
    let root = temp_root("agree");
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    let payload = b"the served payload";
    let record_key = 0x5eedu128;
    store.save("dri", 1, record_key, payload);
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", 4).expect("bind");
    let addr = server.addr();

    // A workload the counters can disagree about: one hit, one miss,
    // one bad request.
    let path = format!("/record/dri/v1/{record_key:032x}");
    assert_eq!(get(addr, &path).0, 200);
    assert_eq!(
        get(addr, &format!("/record/dri/v1/{:032x}", 0xdeadu128)).0,
        404
    );
    assert_eq!(get(addr, "/record/bogus").0, 400);

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
    assert_eq!(sample(&text, "dri_serve_store_records"), Some(1.0));

    // The latency summary covers every request routed before the scrape
    // (the scrape's own request is recorded after its body is built).
    let latency_count = sample(&text, "dri_serve_request_latency_ns_count").expect("summary count");
    assert_eq!(latency_count, 3.0, "hit + miss + bad request");
    let p50 = sample(&text, "dri_serve_request_latency_ns{quantile=\"0.5\"}").expect("p50");
    let max = sample(&text, "dri_serve_request_latency_ns_max").expect("max gauge");
    assert!(p50 > 0.0 && max >= p50, "p50 {p50} <= max {max}");

    // And /stats — snapshotting the very same atomics — must agree on
    // every counter the scrapes themselves do not advance.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let json = String::from_utf8(body).expect("utf-8 stats");
    for (metric, field) in [
        ("dri_serve_hits_total", "hits"),
        ("dri_serve_misses_total", "misses"),
        ("dri_serve_bad_requests_total", "bad_requests"),
        ("dri_serve_records_accepted_total", "records_accepted"),
        ("dri_serve_faults_injected_total", "faults_injected"),
    ] {
        assert_eq!(
            sample(&text, metric),
            Some(stats_field(&json, field) as f64),
            "{metric} vs {field}"
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
    // accounting greps, and the client's `ServerStats` scraper all parse
    // with substring scans — so its key set (names *and* order) is
    // pinned here, serde-free, exactly as `server::stats_json` renders
    // it. Renaming, dropping, or reordering a counter must fail this
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
