//! The service's wire contract, exercised over real loopback sockets:
//! every endpoint, the end-to-end validation chain (disk → server →
//! wire → client), the read-only default, and the authenticated write
//! path (token edge cases, per-entry batch-put failure, caps).

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use dri_serve::{auth, PushOutcome, RemoteStore, Server};
use dri_store::{frame_record, validate_record, ResultStore};

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("dri-serve-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// A server over a fresh store seeded with `records`, on an ephemeral
/// loopback port.
fn serve(tag: &str, records: &[(&str, u32, u128, &[u8])]) -> (Server, Arc<ResultStore>, PathBuf) {
    let root = temp_root(tag);
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    for &(kind, schema, key, payload) in records {
        store.save(kind, schema, key, payload);
    }
    let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", 4).expect("bind");
    (server, store, root)
}

/// Raw one-shot HTTP exchange (independent of the client code under test).
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

#[test]
fn healthz_and_stats_answer() {
    let (server, _store, root) = serve("health", &[("dri", 1, 7, b"payload")]);
    let (status, body) = raw_request(server.addr(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");

    let (status, body) = raw_request(server.addr(), "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    let json = String::from_utf8(body).expect("json utf-8");
    assert!(json.contains("\"records\":1"), "{json}");
    assert!(json.contains("\"generation\":0"), "{json}");
    assert!(json.contains("\"store\":{"), "{json}");

    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn records_serve_the_exact_on_disk_bytes() {
    let payload: &[u8] = b"counters travel bit-identically";
    let (server, store, root) = serve("record", &[("baseline", 3, 0xabcd, payload)]);
    let path = format!(
        "GET /record/baseline/v{}/{:032x} HTTP/1.1\r\nHost: t\r\n\r\n",
        3, 0xabcd
    );
    let (status, body) = raw_request(server.addr(), &path);
    assert_eq!(status, 200);
    assert_eq!(
        body,
        fs::read(store.entry_path("baseline", 3, 0xabcd)).expect("on-disk record"),
        "wire bytes must be the on-disk record, byte for byte"
    );
    assert_eq!(validate_record(&body, 3, 0xabcd), Some(payload));

    // Misses and wrong schemas are clean 404s.
    for miss in [
        format!(
            "GET /record/baseline/v3/{:032x} HTTP/1.1\r\nHost: t\r\n\r\n",
            0x9999
        ),
        format!(
            "GET /record/baseline/v4/{:032x} HTTP/1.1\r\nHost: t\r\n\r\n",
            0xabcd
        ),
        format!(
            "GET /record/dri/v3/{:032x} HTTP/1.1\r\nHost: t\r\n\r\n",
            0xabcd
        ),
    ] {
        assert_eq!(raw_request(server.addr(), &miss).0, 404);
    }
    // Malformed record paths are 400s, never filesystem probes.
    assert_eq!(
        raw_request(
            server.addr(),
            "GET /record/../v3/00 HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .0,
        400
    );
    assert_eq!(
        raw_request(server.addr(), "GET /nothing HTTP/1.1\r\nHost: t\r\n\r\n").0,
        404
    );

    let stats = server.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.bad_requests, 1);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn head_requests_answer_like_get_without_a_body() {
    let (server, _store, root) = serve("head", &[("dri", 1, 3, b"xyz")]);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    let text = String::from_utf8(response).expect("utf-8");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(
        text.contains("Content-Length: 3"),
        "HEAD advertises GET's length: {text}"
    );
    assert!(text.ends_with("\r\n\r\n"), "no body after the head: {text}");
    // HEAD of a missing record reports the real status, still body-less.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"HEAD /record/dri/v1/ff HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    let text = String::from_utf8(response).expect("utf-8");
    assert!(text.starts_with("HTTP/1.1 404"), "{text}");
    assert!(text.ends_with("\r\n\r\n"), "{text}");
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn corrupt_records_are_never_served() {
    let (server, store, root) = serve("corrupt", &[("dri", 1, 5, b"soon to be damaged")]);
    let path = store.entry_path("dri", 1, 5);
    let mut bytes = fs::read(&path).expect("record");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&path, &bytes).expect("tamper");

    let request = format!("GET /record/dri/v1/{:032x} HTTP/1.1\r\nHost: t\r\n\r\n", 5);
    let (status, _) = raw_request(server.addr(), &request);
    assert_eq!(status, 404, "a corrupt record is a miss, not a payload");
    assert_eq!(store.stats().corrupt, 1);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn one_server_per_store_root() {
    let (server, store, root) = serve("one-per-root", &[]);
    let err = Server::bind(Arc::clone(&store), "127.0.0.1:0", 1)
        .expect_err("a second server on a live root must not bind");
    assert!(
        err.to_string().contains(&root.display().to_string()),
        "the error names the root: {err}"
    );
    server.shutdown();
    let rebound = Server::bind(Arc::clone(&store), "127.0.0.1:0", 1)
        .expect("a rebind after shutdown succeeds");
    rebound.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn the_service_is_read_only_by_default() {
    let (server, store, root) = serve("readonly", &[("dri", 1, 1, b"x")]);
    assert!(!server.writable());
    let before = store.disk_usage();
    // Even a perfectly framed, correctly signed record bounces off a
    // server that was started without a token: writes are disabled, not
    // merely unauthenticated.
    let record = frame_record(1, 2, b"z");
    let path = format!("/record/dri/v1/{:032x}", 2);
    let tag = auth::sign_hex("some-token", "PUT", &path, &record);
    let mut signed_put = format!(
        "PUT {path} HTTP/1.1\r\nHost: t\r\nX-DRI-Token: {tag}\r\nContent-Length: {}\r\n\r\n",
        record.len()
    )
    .into_bytes();
    signed_put.extend_from_slice(&record);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&signed_put).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 405"), "{text}");

    for request in [
        "PUT /record/dri/v1/01 HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nz".to_owned(),
        "DELETE /record/dri/v1/01 HTTP/1.1\r\nHost: t\r\n\r\n".to_owned(),
        "POST /record/dri/v1/01 HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nz".to_owned(),
        "POST /batch-put HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nz".to_owned(),
    ] {
        let status = raw_request(server.addr(), &request).0;
        assert_eq!(status, 405, "{request}");
    }
    server.compact_journal().expect("compact");
    assert_eq!(store.disk_usage(), before, "nothing landed");
    assert_eq!(server.stats().records_accepted, 0);
    // The three write-endpoint attempts (signed PUT, bare PUT,
    // batch-put) count as rejected writes; DELETE and POST to a
    // non-endpoint are plain 405s, not write attempts.
    assert_eq!(server.stats().writes_rejected, 3);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

/// A writable server over a fresh store seeded with `records`.
fn serve_writable(
    tag: &str,
    token: &str,
    records: &[(&str, u32, u128, &[u8])],
) -> (Server, Arc<ResultStore>, PathBuf) {
    let root = temp_root(tag);
    let store = Arc::new(ResultStore::open(&root).expect("open store"));
    for &(kind, schema, key, payload) in records {
        store.save(kind, schema, key, payload);
    }
    let server =
        Server::bind_with_token(Arc::clone(&store), "127.0.0.1:0", 4, Some(token.to_owned()))
            .expect("bind");
    (server, store, root)
}

/// One raw `PUT /record/...` with an arbitrary token header (`None` =
/// header omitted entirely).
fn raw_put(addr: std::net::SocketAddr, path: &str, token_header: Option<&str>, body: &[u8]) -> u16 {
    let token_line = token_header.map_or(String::new(), |t| format!("X-DRI-Token: {t}\r\n"));
    let mut request = format!(
        "PUT {path} HTTP/1.1\r\nHost: t\r\n{token_line}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&request).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    let text = String::from_utf8_lossy(&response);
    text.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code")
}

#[test]
fn put_requires_a_valid_token_and_validates_the_record() {
    let token = "unit-secret";
    let (server, store, root) = serve_writable("put-auth", token, &[]);
    assert!(server.writable());
    let key = 0xfeedu128;
    let record = frame_record(1, key, b"pushed payload");
    let path = format!("/record/dri/v1/{key:032x}");

    // Missing token header → 401.
    assert_eq!(raw_put(server.addr(), &path, None, &record), 401);
    // Wrong secret → 401 (the tag verifies against the server's secret).
    let bad = auth::sign_hex("other-secret", "PUT", &path, &record);
    assert_eq!(raw_put(server.addr(), &path, Some(&bad), &record), 401);
    // Malformed tag → 401.
    assert_eq!(raw_put(server.addr(), &path, Some("zz"), &record), 401);
    // A valid tag for a *different* body → 401: the tag binds the exact
    // request, so a captured header cannot authorize new content.
    let other = auth::sign_hex(token, "PUT", &path, b"other body");
    assert_eq!(raw_put(server.addr(), &path, Some(&other), &record), 401);
    server.compact_journal().expect("compact");
    assert_eq!(store.disk_usage().records, 0, "nothing landed yet");
    assert_eq!(server.stats().writes_rejected, 4);

    // The genuine tag lands the record, atomically, where reads find it.
    let good = auth::sign_hex(token, "PUT", &path, &record);
    assert_eq!(raw_put(server.addr(), &path, Some(&good), &record), 200);
    assert_eq!(server.stats().records_accepted, 1);
    let (status, body) = raw_request(
        server.addr(),
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"),
    );
    assert_eq!(status, 200);
    assert_eq!(validate_record(&body, 1, key), Some(&b"pushed payload"[..]));

    // A key-mismatched record (valid bytes, wrong address) → 400, and a
    // corrupt record → 400; each signed correctly, so the failure is the
    // record, not the auth.
    let wrong_path = format!("/record/dri/v1/{:032x}", key + 1);
    let tag = auth::sign_hex(token, "PUT", &wrong_path, &record);
    assert_eq!(
        raw_put(server.addr(), &wrong_path, Some(&tag), &record),
        400
    );
    let mut damaged = record.clone();
    damaged[8] ^= 0x01;
    let tag = auth::sign_hex(token, "PUT", &path, &damaged);
    assert_eq!(raw_put(server.addr(), &path, Some(&tag), &damaged), 400);
    assert_eq!(server.stats().records_accepted, 1, "still just the one");

    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn client_push_round_trips_and_latches_off_on_auth_rejection() {
    let token = "client-secret";
    let (server, _store, root) = serve_writable("client-push", token, &[]);

    // The right token pushes; the record then serves back validated.
    let remote = RemoteStore::with_token(server.addr().to_string(), Some(token.to_owned()));
    let record = frame_record(3, 0xab, b"via client");
    assert_eq!(remote.push("dri", 3, 0xab, &record), PushOutcome::Accepted);
    assert_eq!(
        remote.fetch("dri", 3, 0xab).as_deref(),
        Some(&b"via client"[..])
    );
    let stats = remote.stats();
    assert_eq!(stats.records_accepted, 1);
    assert_eq!(stats.writes_rejected, 0);
    assert_eq!(stats.push_round_trips, 1);
    assert!(!remote.is_push_disabled());

    // A client with the wrong token is rejected once, then latches its
    // push path off — reads keep working.
    let imposter = RemoteStore::with_token(server.addr().to_string(), Some("wrong".to_owned()));
    assert_eq!(
        imposter.push("dri", 3, 0xcd, &frame_record(3, 0xcd, b"nope")),
        PushOutcome::Rejected
    );
    assert!(imposter.is_push_disabled());
    assert_eq!(
        imposter.push("dri", 3, 0xce, &frame_record(3, 0xce, b"still no")),
        PushOutcome::Rejected,
        "latched: absorbed locally without another exchange"
    );
    let stats = imposter.stats();
    assert_eq!(stats.writes_rejected, 2);
    assert_eq!(stats.push_round_trips, 1, "only the first reached the wire");
    assert_eq!(stats.errors, 0, "auth rejection is not a transport error");
    assert!(!imposter.is_disabled(), "the read breaker is untouched");
    assert_eq!(
        imposter.fetch("dri", 3, 0xab).as_deref(),
        Some(&b"via client"[..]),
        "reads still flow"
    );
    // A token-less client is likewise rejected (it cannot sign at all).
    let anonymous = RemoteStore::new(server.addr().to_string());
    assert_eq!(
        anonymous.push("dri", 3, 0xcf, &frame_record(3, 0xcf, b"anon")),
        PushOutcome::Rejected
    );

    assert_eq!(server.stats().records_accepted, 1);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn batch_put_fails_only_the_corrupt_entry() {
    let token = "batch-secret";
    let (server, store, root) = serve_writable("batch-put", token, &[]);
    let remote = RemoteStore::with_token(server.addr().to_string(), Some(token.to_owned()));

    let first = frame_record(1, 1, b"first");
    let mut corrupt = frame_record(1, 2, b"second");
    corrupt[5] ^= 0x10;
    let mismatched = frame_record(1, 999, b"third"); // pushed under key 3
    let third = frame_record(1, 4, b"fourth");
    let (outcomes, trips) = remote.push_batch(&[
        ("dri", 1, 1, &first),
        ("dri", 1, 2, &corrupt),
        ("dri", 1, 3, &mismatched),
        ("dri", 1, 4, &third),
    ]);
    assert_eq!(trips, 1);
    assert_eq!(
        outcomes,
        vec![
            PushOutcome::Accepted,
            PushOutcome::Rejected,
            PushOutcome::Rejected,
            PushOutcome::Accepted,
        ]
    );
    let stats = server.stats();
    assert_eq!(stats.records_accepted, 2);
    assert_eq!(stats.writes_rejected, 2);
    server.compact_journal().expect("compact");
    assert_eq!(store.load("dri", 1, 1).as_deref(), Some(&b"first"[..]));
    assert_eq!(
        store.load("dri", 1, 2),
        None,
        "the corrupt entry never landed"
    );
    assert_eq!(store.load("dri", 1, 3), None, "nor the key-mismatched one");
    assert_eq!(store.load("dri", 1, 4).as_deref(), Some(&b"fourth"[..]));
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn batch_put_rejects_structural_damage_and_over_cap_wholesale() {
    let token = "cap-secret";
    let (server, store, root) = serve_writable("batch-put-cap", token, &[]);

    // Over the MAX_BATCH frame cap → 400, nothing lands.
    let mut body = Vec::new();
    for key in 0..=dri_serve::server::MAX_BATCH as u128 {
        let record = frame_record(1, key, b"x");
        body.push(3u8);
        body.extend_from_slice(b"dri");
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&key.to_le_bytes());
        body.extend_from_slice(&(record.len() as u64).to_le_bytes());
        body.extend_from_slice(&record);
    }
    let tag = auth::sign_hex(token, "POST", "/batch-put", &body);
    let mut request = format!(
        "POST /batch-put HTTP/1.1\r\nHost: t\r\nX-DRI-Token: {tag}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&request).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    assert!(
        String::from_utf8_lossy(&response).starts_with("HTTP/1.1 400"),
        "over-cap batches bounce wholesale"
    );
    server.compact_journal().expect("compact");
    assert_eq!(store.disk_usage().records, 0);

    // A truncated frame stream (signed, authenticated) is also a 400.
    let mut truncated = Vec::new();
    truncated.push(3u8);
    truncated.extend_from_slice(b"dri");
    truncated.extend_from_slice(&1u32.to_le_bytes()); // key + length missing
    let tag = auth::sign_hex(token, "POST", "/batch-put", &truncated);
    let mut request = format!(
        "POST /batch-put HTTP/1.1\r\nHost: t\r\nX-DRI-Token: {tag}\r\nContent-Length: {}\r\n\r\n",
        truncated.len()
    )
    .into_bytes();
    request.extend_from_slice(&truncated);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&request).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 400"));

    // An oversized *record* inside an otherwise fine batch fails only
    // its own entry (the framing stays parseable).
    let remote = RemoteStore::with_token(server.addr().to_string(), Some(token.to_owned()));
    let good = frame_record(1, 10, b"fits");
    let huge = frame_record(1, 11, &vec![0u8; dri_serve::server::MAX_PUSH_RECORD + 1]);
    let (outcomes, _) = remote.push_batch(&[("dri", 1, 10, &good), ("dri", 1, 11, &huge)]);
    assert_eq!(outcomes, vec![PushOutcome::Accepted, PushOutcome::Rejected]);
    server.compact_journal().expect("compact");
    assert_eq!(store.load("dri", 1, 10).as_deref(), Some(&b"fits"[..]));
    assert_eq!(store.load("dri", 1, 11), None);

    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

/// One raw exchange returning the response head and body separately.
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("receive");
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head");
    let head = String::from_utf8(response[..head_end].to_vec()).expect("utf-8 head");
    (head, response[head_end + 4..].to_vec())
}

#[test]
fn encoded_bodies_are_refused_and_batches_answer_raw() {
    let token = "encoding-secret";
    let (server, store, root) = serve_writable("encoding", token, &[("dri", 1, 5, b"stored")]);

    // A signed, well-formed batch-put that names a body codec → 400, and
    // nothing lands: bodies are raw record frames only.
    let record = frame_record(1, 6, b"pushed");
    let mut body = vec![3u8];
    body.extend_from_slice(b"dri");
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&6u128.to_le_bytes());
    body.extend_from_slice(&(record.len() as u64).to_le_bytes());
    body.extend_from_slice(&record);
    let tag = auth::sign_hex(token, "POST", "/batch-put", &body);
    let mut request = format!(
        "POST /batch-put HTTP/1.1\r\nHost: t\r\nX-DRI-Token: {tag}\r\n\
         X-DRI-Encoding: delta64\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let (head, response) = raw_exchange(server.addr(), &request);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert_eq!(response, b"unsupported body encoding\n");
    server.compact_journal().expect("compact");
    assert_eq!(store.load("dri", 1, 6), None, "no record landed");
    assert_eq!(server.stats().records_accepted, 0);

    // A batch fetch advertising a codec still gets the raw frames, with
    // no encoding header on the response.
    let line = format!("dri 1 {:032x}\n", 5u128);
    let request = format!(
        "POST /batch HTTP/1.1\r\nHost: t\r\nX-DRI-Accept-Encoding: delta64\r\n\
         Content-Length: {}\r\n\r\n{line}",
        line.len()
    );
    let (head, frames) = raw_exchange(server.addr(), request.as_bytes());
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        !head.to_ascii_lowercase().contains("x-dri-encoding"),
        "raw response carries no encoding header: {head}"
    );
    let on_disk = fs::read(store.entry_path("dri", 1, 5)).expect("stored record");
    let mut want = vec![1u8];
    want.extend_from_slice(&(on_disk.len() as u64).to_le_bytes());
    want.extend_from_slice(&on_disk);
    assert_eq!(frames, want);

    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn client_fetches_and_validates() {
    let (server, _store, root) = serve("client", &[("dri", 2, 0xfeed, b"remote payload")]);
    let remote = RemoteStore::new(server.addr().to_string());
    assert_eq!(
        remote.fetch("dri", 2, 0xfeed).as_deref(),
        Some(&b"remote payload"[..])
    );
    assert_eq!(remote.fetch("dri", 2, 0xbeef), None, "clean miss");
    let stats = remote.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.bytes_fetched, 14);
    assert!(!remote.is_disabled());
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn batch_fetches_many_records_in_one_round_trip() {
    let (server, _store, root) = serve(
        "batch",
        &[
            ("baseline", 1, 10, b"b10".as_slice()),
            ("dri", 1, 11, b"d11".as_slice()),
            ("dri", 1, 12, b"d12".as_slice()),
        ],
    );
    let remote = RemoteStore::new(server.addr().to_string());
    let entries = [
        ("baseline", 1u32, 10u128),
        ("dri", 1, 999), // miss
        ("dri", 1, 11),
        ("dri", 1, 12),
    ];
    let results = remote.fetch_batch(&entries);
    assert_eq!(results.len(), 4);
    assert_eq!(results[0].as_deref(), Some(&b"b10"[..]));
    assert_eq!(results[1], None);
    assert_eq!(results[2].as_deref(), Some(&b"d11"[..]));
    assert_eq!(results[3].as_deref(), Some(&b"d12"[..]));
    let stats = remote.stats();
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.misses, 1);
    assert_eq!(server.stats().batch_requests, 1);

    // A malformed batch body is rejected wholesale.
    let (status, _) = raw_request(
        server.addr(),
        "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nbad entry",
    );
    assert_eq!(status, 400);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn many_concurrent_readers_are_served() {
    let payload: &[u8] = b"hot record everyone wants";
    let (server, _store, root) = serve("concurrent", &[("dri", 1, 42, payload)]);
    let addr = server.addr();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(move || {
                let remote = RemoteStore::new(addr.to_string());
                for _ in 0..10 {
                    assert_eq!(remote.fetch("dri", 1, 42).as_deref(), Some(payload));
                }
            });
        }
    });
    assert_eq!(server.stats().hits, 80);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn empty_batch_plans_touch_nothing() {
    // No server needed: an empty plan must not open a socket, count a
    // request, or cost a round trip.
    let remote = RemoteStore::new("127.0.0.1:1"); // nothing listens here
    let results = remote.fetch_batch(&[]);
    assert!(results.is_empty());
    let stats = remote.stats();
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.batch_round_trips, 0);
    assert!(!remote.is_disabled());
}

#[test]
fn oversized_batches_split_into_chunked_round_trips() {
    let records: Vec<(String, u32, u128, Vec<u8>)> = (0..10u128)
        .map(|k| {
            (
                "dri".to_owned(),
                1u32,
                k,
                format!("payload-{k}").into_bytes(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, u32, u128, &[u8])> = records
        .iter()
        .map(|(kind, schema, key, payload)| (kind.as_str(), *schema, *key, payload.as_slice()))
        .collect();
    let (server, _store, root) = serve("chunked", &borrowed);
    let remote = RemoteStore::new(server.addr().to_string());
    let entries: Vec<(&str, u32, u128)> = records
        .iter()
        .map(|(kind, schema, key, _)| (kind.as_str(), *schema, *key))
        .collect();

    // 10 entries at a chunk size of 3 → 4 consecutive round-trips, with
    // results still zipped back in request order.
    let results = remote.fetch_batch_chunked(&entries, 3);
    assert_eq!(results.len(), 10);
    for (k, result) in results.iter().enumerate() {
        assert_eq!(
            result.as_deref(),
            Some(format!("payload-{k}").as_bytes()),
            "entry {k}"
        );
    }
    let stats = remote.stats();
    assert_eq!(stats.batch_round_trips, 4, "ceil(10 / 3) chunks");
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.hits, 10);
    assert_eq!(server.stats().batch_requests, 4);

    // The default chunk swallows the same plan in a single round-trip.
    let remote = RemoteStore::new(server.addr().to_string());
    let results = remote.fetch_batch(&entries);
    assert_eq!(results.iter().filter(|r| r.is_some()).count(), 10);
    assert_eq!(remote.stats().batch_round_trips, 1);

    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

#[test]
fn batches_over_the_server_cap_are_rejected_wholesale() {
    let (server, _store, root) = serve("cap", &[("dri", 1, 1, b"x")]);
    let mut body = String::new();
    for key in 0..=dri_serve::server::MAX_BATCH as u128 {
        body.push_str(&format!("dri 1 {key:032x}\n"));
    }
    let request = format!(
        "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, _) = raw_request(server.addr(), &request);
    assert_eq!(status, 400, "one reference over MAX_BATCH is a 400");
    assert_eq!(server.stats().bad_requests, 1);
    // A full-cap batch is still served.
    let mut body = String::new();
    for key in 0..dri_serve::server::MAX_BATCH as u128 {
        body.push_str(&format!("dri 1 {key:032x}\n"));
    }
    let request = format!(
        "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, _) = raw_request(server.addr(), &request);
    assert_eq!(status, 200);
    server.shutdown();
    let _ = fs::remove_dir_all(root);
}

/// Serves one rigged `POST /batch` response from a raw loopback socket,
/// returning the address to point a client at. The body is framed by the
/// caller, so tests can hand the client responses a well-behaved server
/// would never produce.
fn rig_batch_server(response_body: Vec<u8>) -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind rigged server");
    let addr = listener.local_addr().expect("rigged addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let request = dri_serve::http::read_request(&mut stream).expect("read request");
        assert_eq!(request.path, "/batch");
        dri_serve::http::write_response(
            &mut stream,
            200,
            "OK",
            "application/octet-stream",
            &response_body,
        )
        .expect("write rigged response");
    });
    addr
}

#[test]
fn corrupt_frame_inside_a_good_batch_fails_only_that_entry() {
    // Build two genuine records to flank a frame whose bytes fail
    // end-to-end validation (right length, garbage content).
    let root = temp_root("rigged-batch");
    let store = ResultStore::open(&root).expect("open store");
    store.save("dri", 1, 1, b"first ok");
    store.save("dri", 1, 3, b"third ok");
    let record_1 = fs::read(store.entry_path("dri", 1, 1)).expect("record 1");
    let record_3 = fs::read(store.entry_path("dri", 1, 3)).expect("record 3");

    let mut body = Vec::new();
    let mut frame = |bytes: &[u8]| {
        body.push(1u8);
        body.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        body.extend_from_slice(bytes);
    };
    frame(&record_1);
    frame(&vec![0xA5u8; record_1.len()]); // corrupt: fails validation
    frame(&record_3);

    let addr = rig_batch_server(body);
    let remote = RemoteStore::new(addr.to_string());
    let results = remote.fetch_batch(&[("dri", 1, 1), ("dri", 1, 2), ("dri", 1, 3)]);
    assert_eq!(results[0].as_deref(), Some(&b"first ok"[..]));
    assert_eq!(results[1], None, "the corrupt frame degrades to a miss");
    assert_eq!(results[2].as_deref(), Some(&b"third ok"[..]));
    let stats = remote.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.corrupt, 1);
    assert_eq!(stats.errors, 0, "a bad frame is not a transport failure");
    assert!(!remote.is_disabled());
    let _ = fs::remove_dir_all(root);
}

#[test]
fn truncated_batch_responses_fail_the_remaining_entries() {
    let root = temp_root("truncated-batch");
    let store = ResultStore::open(&root).expect("open store");
    store.save("dri", 1, 1, b"whole");
    let record = fs::read(store.entry_path("dri", 1, 1)).expect("record");

    let mut body = Vec::new();
    body.push(1u8);
    body.extend_from_slice(&(record.len() as u64).to_le_bytes());
    body.extend_from_slice(&record);
    // Second frame: header promises more bytes than follow.
    body.push(1u8);
    body.extend_from_slice(&(record.len() as u64).to_le_bytes());
    body.extend_from_slice(&record[..4]);

    let addr = rig_batch_server(body);
    let remote = RemoteStore::new(addr.to_string());
    let results = remote.fetch_batch(&[("dri", 1, 1), ("dri", 1, 2), ("dri", 1, 3)]);
    assert_eq!(results[0].as_deref(), Some(&b"whole"[..]));
    assert_eq!(results[1], None);
    assert_eq!(results[2], None);
    let stats = remote.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.corrupt, 2, "every unframed entry counts corrupt");
    let _ = fs::remove_dir_all(root);
}
