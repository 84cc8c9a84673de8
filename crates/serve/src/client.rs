//! The remote-store client: what a cold worker process uses to pull
//! records from a warm central `dri-serve` instance.
//!
//! The client never trusts the wire more than the store trusts the disk:
//! every fetched record is re-validated with
//! [`dri_store::validate_record`] (magic, schema, embedded key, length,
//! checksum) before a byte of it is decoded, so a truncated proxy
//! response or a bit-flipped frame degrades to a miss — the caller
//! recomputes, exactly as it would for local corruption.
//!
//! The client is also built to *fail fast and stay out of the way*:
//! short socket timeouts (2 s to connect, 10 s to read or write),
//! bounded retry with exponential backoff for **transient** transport
//! failures, and a circuit breaker that disables the remote tier for
//! the rest of the process after [`MAX_CONSECUTIVE_ERRORS`] straight *exhausted* retry
//! rounds (with one warning) — a dead server must not add a timeout to
//! every sweep point of a campaign. Failures split three ways:
//!
//! * **Transient** (refused/reset connection, timeout, torn response,
//!   5xx): retried up to [`RETRY_ATTEMPTS`] times with exponential
//!   backoff + deterministic jitter; only a fully exhausted round counts
//!   once against the breaker.
//! * **Hard auth** (`401`/`405` on the write path): never retried —
//!   the server *answered*, definitively. Pushes latch off immediately.
//! * **Breaker open**: every later call is absorbed locally.
//!
//! The client also carries the scheduler's control plane: the
//! [`RemoteStore::lease_claim`] / [`RemoteStore::lease_renew`] /
//! [`RemoteStore::lease_complete`] calls a `suite --steal` worker loops
//! over. Lease traffic deliberately bypasses the data-plane breaker: a
//! worker whose *fetches* gave up must still heartbeat and complete the
//! unit it holds (the steal loop has its own bounded claim-failure
//! bailout).

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dri_store::validate_record;
use dri_telemetry::{trace, Histogram, Registry, Span, TraceEvent};

use crate::http::read_response;

/// Transport failures tolerated before the breaker opens.
pub const MAX_CONSECUTIVE_ERRORS: u32 = 3;

/// Most record references [`RemoteStore::fetch_batch`] puts in one
/// `POST /batch` request. Larger plans are split into consecutive
/// round-trips of this size; the value is deliberately below the
/// server's own per-request cap (`dri_serve::server::MAX_BATCH`), so a
/// well-formed client chunk is never rejected wholesale.
pub const BATCH_CHUNK: usize = 4096;

/// Most body bytes one `POST /batch-put` chunk may carry — well under
/// the server's request-body cap (`crate::http::MAX_BODY`, 64 MiB), so
/// a count-full chunk of unusually large records can never build a
/// request the server drops at the transport layer (which would feed
/// the read-path circuit breaker for a sizing problem, not a dead
/// server). A single over-budget record still travels alone; the server
/// answers for it per-entry.
pub const PUSH_BODY_BUDGET: usize = 16 * 1024 * 1024;

/// Attempts per exchange: the first try plus bounded retries for
/// transient failures. Definitive answers (2xx/4xx) never retry.
pub const RETRY_ATTEMPTS: u32 = 3;

/// First-retry backoff; doubles per retry up to [`BACKOFF_CAP`], plus
/// deterministic jitter of at most half the step.
const BACKOFF_BASE: Duration = Duration::from_millis(25);
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Connect timeout of every exchange: a dead server costs this much,
/// once per retry.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Read and write timeout of every exchange: a slow *response* is worth
/// more patience than a dead *connect*.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Backoff before retry number `attempt` (1-based): exponential from
/// [`BACKOFF_BASE`], capped at [`BACKOFF_CAP`], plus a deterministic
/// jitter derived by hashing `salt` — reproducible (no clocks, no RNG),
/// but de-synchronized across a fleet of workers whose salts differ.
fn backoff_delay(attempt: u32, salt: u64) -> Duration {
    let step = BACKOFF_BASE
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(8))
        .min(BACKOFF_CAP);
    // FNV-1a over the salt bytes: cheap, stable, dependency-free.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in salt.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    let jitter_ms = hash % (step.as_millis() as u64 / 2).max(1);
    step + Duration::from_millis(jitter_ms)
}

/// Snapshot of one client's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Requests attempted (including ones the breaker swallowed).
    pub requests: u64,
    /// Records fetched and validated.
    pub hits: u64,
    /// Clean 404s / miss frames.
    pub misses: u64,
    /// Responses rejected by end-to-end validation.
    pub corrupt: u64,
    /// Transport errors (connect/read/write/HTTP failures).
    pub errors: u64,
    /// Payload bytes of validated records.
    pub bytes_fetched: u64,
    /// `POST /batch` exchanges that reached the server (a chunked batch
    /// counts once per chunk; empty plans, breaker-absorbed chunks, and
    /// connections that never opened count zero).
    pub batch_round_trips: u64,
    /// Records the server accepted through the write path — named after
    /// the server's own `/stats` counter `records_accepted`, which
    /// advances in lockstep with this one.
    pub records_accepted: u64,
    /// Records the server definitively rejected: failed authentication,
    /// a read-only server, or a corrupt/key-mismatched frame. Mirrors
    /// the server's `/stats` counter `writes_rejected`.
    pub writes_rejected: u64,
    /// `PUT` / `POST /batch-put` exchanges that reached the server
    /// (the client-side mirror of the server's `push_round_trips`).
    pub push_round_trips: u64,
    /// Transient failures that were retried (each backoff sleep counts
    /// one). `errors` counts only *exhausted* rounds, so under flaky-but-
    /// recoverable transport this climbs while `errors` stays at zero.
    pub retries: u64,
}

/// One entry's outcome in a [`RemoteStore::fetch_batch_outcomes`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchEntry {
    /// A validated record's payload.
    Hit(Vec<u8>),
    /// The server definitively answered with a miss frame: the record
    /// does not exist there, and re-asking (until the store is re-seeded)
    /// is wasted traffic.
    Miss,
    /// The record's state is unknown: a transport failure, a truncated
    /// response, or bytes that failed end-to-end validation. A later
    /// fetch could still succeed.
    Failed,
}

impl BatchEntry {
    /// Collapses the outcome to the plain `fetch_batch` shape
    /// (`Some(payload)` on a hit, `None` otherwise).
    pub fn into_payload(self) -> Option<Vec<u8>> {
        match self {
            BatchEntry::Hit(payload) => Some(payload),
            BatchEntry::Miss | BatchEntry::Failed => None,
        }
    }
}

/// One record's outcome in a [`RemoteStore::push`] /
/// [`RemoteStore::push_batch_chunked`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The server validated the record and landed it in its store.
    Accepted,
    /// The server definitively refused the record — bad or missing
    /// token, a read-only server, or a frame that failed validation.
    /// Retrying without changing something is wasted traffic.
    Rejected,
    /// The record's fate is unknown: a transport failure, a truncated
    /// response, or a 5xx that outlasted every retry. The record
    /// survives in the worker's local tiers either way, so the worst
    /// case is another worker re-simulating it.
    Failed,
}

/// A granted-or-not answer from `POST /lease/claim`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseClaim {
    /// One unit to execute, with the handle needed to renew/complete it.
    Granted {
        /// The work unit (a benchmark name).
        unit: String,
        /// Claim generation — quote it in renew/complete.
        generation: u64,
        /// Expiry instant (server wall-clock ms).
        deadline_ms: u64,
        /// TTL granted per claim/renewal.
        ttl_ms: u64,
        /// Whether this grant took over a dead worker's expired lease.
        reclaimed: bool,
    },
    /// Everything is claimed and live; back off and re-ask.
    Wait {
        /// Units currently claimed fleet-wide.
        claimed: u64,
    },
    /// Every unit is completed: the campaign is drained.
    Drained,
}

/// Why a lease call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// Transport failure after retries, or an unparsable response. The
    /// caller may try again later.
    Unavailable,
    /// `409`: the scheduler refused — stale generation, expired lease,
    /// wrong owner, unknown unit. Carries the server's reason.
    Refused(String),
    /// `401`/`405`: authentication definitively rejected; the worker
    /// cannot participate in this campaign at all.
    Denied(u16),
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Unavailable => f.write_str("lease service unavailable"),
            LeaseError::Refused(reason) => write!(f, "lease refused: {reason}"),
            LeaseError::Denied(status) => write!(f, "lease denied (HTTP {status})"),
        }
    }
}

/// The trace-span outcome word for a failed lease call.
fn lease_error_outcome(err: &LeaseError) -> &'static str {
    match err {
        LeaseError::Unavailable => "unavailable",
        LeaseError::Refused(_) => "refused",
        LeaseError::Denied(_) => "denied",
    }
}

/// Classifies a lease response status and hands back its text body.
fn lease_response_text(status: u16, body: &[u8]) -> Result<String, LeaseError> {
    let text = String::from_utf8_lossy(body).into_owned();
    match status {
        200 => Ok(text),
        409 => {
            let reason = text
                .lines()
                .find_map(|line| line.strip_prefix("reason="))
                .unwrap_or("unspecified")
                .to_owned();
            Err(LeaseError::Refused(reason))
        }
        401 | 405 => Err(LeaseError::Denied(status)),
        _ => Err(LeaseError::Unavailable),
    }
}

/// Collects the remaining `key=value` lines of a lease response.
fn lease_kv<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<(&'a str, &'a str)> {
    lines.filter_map(|line| line.split_once('=')).collect()
}

fn lease_field_u64(fields: &[(&str, &str)], key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

/// The server-side counters a `GET /stats` scrape surfaces to the
/// suite's `--store-stats` report: the lease-scheduler tallies and the
/// chaos-injection count, plus the store's size for context. Parsed
/// from the server's hand-rolled JSON by [`RemoteStore::server_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Records in the server's store.
    pub records: u64,
    /// Bytes in the server's store.
    pub bytes: u64,
    /// `DRI_FAULT` chaos actions the server fired (0 in production).
    pub faults_injected: u64,
    /// `POST /lease/claim` requests fielded.
    pub lease_claims: u64,
    /// Claims answered with a grant.
    pub lease_granted: u64,
    /// Grants that took over a dead worker's expired lease.
    pub lease_reclaimed: u64,
    /// Successful heartbeat renewals.
    pub lease_renewed: u64,
    /// Units marked complete.
    pub lease_completed: u64,
    /// Lease calls refused (stale generation, expired, wrong owner, …).
    pub lease_rejected: u64,
    /// Records the server accepted through the write path.
    pub records_accepted: u64,
    /// Write-path records the server definitively rejected.
    pub writes_rejected: u64,
    /// `PUT` / `POST /batch-put` exchanges the server fielded.
    pub push_round_trips: u64,
    /// Records sitting in the server's group-commit journal, acked but
    /// not yet compacted into record files.
    pub journal_depth: u64,
    /// Group-commit batches the server's journal has appended.
    pub journal_batches: u64,
    /// Fsyncs the journal has paid — one per batch, however many records
    /// each carried.
    pub journal_fsyncs: u64,
    /// Records compaction has drained from the journal into the store.
    pub journal_compacted: u64,
}

/// Pulls one unsigned-integer field out of the `/stats` JSON document.
/// The document is flat enough (every key unique, every value a bare
/// integer or boolean) that a substring scan is exact.
fn scrape_u64(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parses the server's `GET /stats` JSON into [`ServerStats`]. `None`
/// when a required field is absent — an old server or a non-stats body.
fn parse_server_stats(doc: &str) -> Option<ServerStats> {
    Some(ServerStats {
        records: scrape_u64(doc, "records")?,
        bytes: scrape_u64(doc, "bytes")?,
        faults_injected: scrape_u64(doc, "faults_injected")?,
        lease_claims: scrape_u64(doc, "claims")?,
        lease_granted: scrape_u64(doc, "granted")?,
        lease_reclaimed: scrape_u64(doc, "reclaimed")?,
        lease_renewed: scrape_u64(doc, "renewed")?,
        lease_completed: scrape_u64(doc, "completed")?,
        lease_rejected: scrape_u64(doc, "rejected")?,
        records_accepted: scrape_u64(doc, "records_accepted")?,
        writes_rejected: scrape_u64(doc, "writes_rejected")?,
        push_round_trips: scrape_u64(doc, "push_round_trips")?,
        journal_depth: scrape_u64(doc, "depth")?,
        journal_batches: scrape_u64(doc, "batches")?,
        journal_fsyncs: scrape_u64(doc, "fsyncs")?,
        journal_compacted: scrape_u64(doc, "compacted")?,
    })
}

/// A handle on one remote result service.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    /// Shared write-path secret used to sign push requests (`DRI_TOKEN`).
    /// `None` = this client never authenticates; its pushes are rejected
    /// by any server that accepts writes.
    token: Option<String>,
    disabled: AtomicBool,
    /// Latched after the server *definitively* rejects this client's
    /// authentication (`401`/`405`): later pushes are absorbed locally
    /// instead of spamming a server that already said no. Reads are
    /// unaffected — this is narrower than the transport breaker.
    push_disabled: AtomicBool,
    consecutive_errors: AtomicU32,
    /// Monotonic per-attempt salt feeding the backoff jitter.
    attempt_salt: AtomicU64,
    /// Wire round-trip latency per attempt (connect through response),
    /// shared process-wide via [`Registry::global`] so `suite` can print
    /// remote-tier percentiles however many clients a run constructs.
    exchange_latency: Histogram,
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    errors: AtomicU64,
    bytes_fetched: AtomicU64,
    batch_round_trips: AtomicU64,
    records_accepted: AtomicU64,
    writes_rejected: AtomicU64,
    push_round_trips: AtomicU64,
    retries: AtomicU64,
}

impl RemoteStore {
    /// Points a client at `addr` (`host:port`; `http://host:port` also
    /// accepted). No connection is made until the first fetch.
    pub fn new(addr: impl Into<String>) -> Self {
        Self::with_token(addr, None)
    }

    /// [`RemoteStore::new`] with a write-path secret: push requests are
    /// signed with a keyed tag over the request (see [`crate::auth`]),
    /// which the server verifies against its own `DRI_TOKEN`.
    pub fn with_token(addr: impl Into<String>, token: Option<String>) -> Self {
        let addr = addr.into();
        let addr = addr
            .strip_prefix("http://")
            .unwrap_or(&addr)
            .trim_end_matches('/')
            .to_owned();
        RemoteStore {
            addr,
            token: token.filter(|t| !t.is_empty()),
            disabled: AtomicBool::new(false),
            push_disabled: AtomicBool::new(false),
            consecutive_errors: AtomicU32::new(0),
            attempt_salt: AtomicU64::new(0),
            exchange_latency: Registry::global().histogram(
                "dri_client_exchange_ns",
                "remote-store HTTP round-trip latency per attempt (ns)",
            ),
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bytes_fetched: AtomicU64::new(0),
            batch_round_trips: AtomicU64::new(0),
            records_accepted: AtomicU64::new(0),
            writes_rejected: AtomicU64::new(0),
            push_round_trips: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// The `host:port` this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether this client holds a write-path secret (it signs pushes).
    pub fn has_token(&self) -> bool {
        self.token.is_some()
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> RemoteStats {
        RemoteStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_fetched: self.bytes_fetched.load(Ordering::Relaxed),
            batch_round_trips: self.batch_round_trips.load(Ordering::Relaxed),
            records_accepted: self.records_accepted.load(Ordering::Relaxed),
            writes_rejected: self.writes_rejected.load(Ordering::Relaxed),
            push_round_trips: self.push_round_trips.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    /// Whether the circuit breaker has given up on the server.
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    /// Scrapes the server's `GET /stats` document and extracts the
    /// scheduler/chaos counters (see [`ServerStats`]) — what
    /// `suite --store-stats` prints alongside the client's own traffic.
    /// `None` on any transport failure, an unparsable body, or whenever
    /// the breaker is already open.
    pub fn server_stats(&self) -> Option<ServerStats> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if self.is_disabled() {
            return None;
        }
        match self.exchange("GET", "/stats", b"") {
            Ok((200, body)) => {
                self.consecutive_errors.store(0, Ordering::Relaxed);
                parse_server_stats(&String::from_utf8_lossy(&body))
            }
            Ok(_) | Err(_) => {
                self.transport_error();
                None
            }
        }
    }

    /// Fetches and validates the record for `(kind, schema, key)`,
    /// returning its **payload**. `None` on a miss, on corruption, on
    /// any transport failure, and on every call once the breaker is
    /// open — the caller falls through to simulation either way.
    pub fn fetch(&self, kind: &str, schema: u32, key: u128) -> Option<Vec<u8>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if self.is_disabled() {
            return None;
        }
        let path = format!("/record/{kind}/v{schema}/{key:032x}");
        match self.exchange("GET", &path, b"") {
            Ok((200, body)) => {
                self.consecutive_errors.store(0, Ordering::Relaxed);
                self.accept(&body, schema, key)
            }
            Ok((404, _)) => {
                self.consecutive_errors.store(0, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Ok(_) | Err(_) => {
                self.transport_error();
                None
            }
        }
    }

    /// Batch [`Self::fetch`]: resolves many record references with as
    /// few round-trips as possible, returning results in request order
    /// (`None` per entry on miss/corruption).
    ///
    /// Plans larger than [`BATCH_CHUNK`] are split into consecutive
    /// `POST /batch` exchanges of that size — still orders of magnitude
    /// fewer round-trips than per-record fetches, and each chunk stays
    /// under the server's own request cap. An empty plan touches neither
    /// the network nor the counters. A transport failure yields `None`
    /// for that chunk's entries (later chunks are skipped once the
    /// breaker opens).
    pub fn fetch_batch(&self, entries: &[(&str, u32, u128)]) -> Vec<Option<Vec<u8>>> {
        self.fetch_batch_chunked(entries, BATCH_CHUNK)
    }

    /// [`Self::fetch_batch`] with an explicit chunk size (tests use tiny
    /// chunks to exercise the split; `chunk` is clamped to at least 1).
    pub fn fetch_batch_chunked(
        &self,
        entries: &[(&str, u32, u128)],
        chunk: usize,
    ) -> Vec<Option<Vec<u8>>> {
        self.fetch_batch_outcomes(entries, chunk)
            .0
            .into_iter()
            .map(BatchEntry::into_payload)
            .collect()
    }

    /// [`Self::fetch_batch_chunked`] with full per-entry outcomes: the
    /// caller learns which entries the server **definitively** answered
    /// with a miss frame (the record does not exist there) versus
    /// entries whose state is unknown (transport failure, truncated
    /// response, failed validation). Also returns how many `POST /batch`
    /// exchanges *this call* put on the wire — callers aggregating stats
    /// must use this rather than diffing the shared
    /// [`RemoteStats::batch_round_trips`] counter, which concurrent
    /// fetches also advance.
    pub fn fetch_batch_outcomes(
        &self,
        entries: &[(&str, u32, u128)],
        chunk: usize,
    ) -> (Vec<BatchEntry>, u64) {
        let mut results = Vec::with_capacity(entries.len());
        let mut round_trips = 0;
        for chunk_entries in entries.chunks(chunk.max(1)) {
            let (outcomes, trips) = self.fetch_batch_once(chunk_entries);
            results.extend(outcomes);
            round_trips += trips;
        }
        (results, round_trips)
    }

    /// One `POST /batch` exchange for up to one chunk of references.
    /// Returns the outcomes plus the round-trips performed (1 when an
    /// HTTP exchange reached the server, 0 when the breaker swallowed
    /// the chunk or the connection never opened).
    fn fetch_batch_once(&self, entries: &[(&str, u32, u128)]) -> (Vec<BatchEntry>, u64) {
        if entries.is_empty() {
            return (Vec::new(), 0);
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        if self.is_disabled() {
            return (vec![BatchEntry::Failed; entries.len()], 0);
        }
        let mut body = String::new();
        for (kind, schema, key) in entries {
            body.push_str(&format!("{kind} {schema} {key:032x}\n"));
        }
        let frames = match self.exchange("POST", "/batch", body.as_bytes()) {
            Ok((200, frames)) => {
                self.batch_round_trips.fetch_add(1, Ordering::Relaxed);
                self.consecutive_errors.store(0, Ordering::Relaxed);
                frames
            }
            Ok(_) => {
                // The exchange happened; the server rejected it.
                self.batch_round_trips.fetch_add(1, Ordering::Relaxed);
                self.transport_error();
                return (vec![BatchEntry::Failed; entries.len()], 1);
            }
            Err(_) => {
                self.transport_error();
                return (vec![BatchEntry::Failed; entries.len()], 0);
            }
        };
        let mut results = Vec::with_capacity(entries.len());
        let mut cursor = &frames[..];
        for &(_, schema, key) in entries {
            let Some((record, rest)) = take_frame(cursor) else {
                // A short response corrupts every remaining entry.
                self.corrupt
                    .fetch_add((entries.len() - results.len()) as u64, Ordering::Relaxed);
                results.resize(entries.len(), BatchEntry::Failed);
                return (results, 1);
            };
            cursor = rest;
            match record {
                Some(bytes) => results.push(match self.accept(&bytes, schema, key) {
                    Some(payload) => BatchEntry::Hit(payload),
                    None => BatchEntry::Failed,
                }),
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    results.push(BatchEntry::Miss);
                }
            }
        }
        (results, 1)
    }

    /// Whether pushes were latched off by a definitive auth rejection.
    pub fn is_push_disabled(&self) -> bool {
        self.push_disabled.load(Ordering::Relaxed)
    }

    /// Pushes one complete record (header + payload + checksum, as
    /// [`dri_store::frame_record`] builds it) to the server's store via
    /// `PUT /record/<kind>/v<schema>/<key>`. The request is signed with
    /// this client's token; the server re-validates the record against
    /// the path before a byte lands on its disk.
    pub fn push(&self, kind: &str, schema: u32, key: u128, record: &[u8]) -> PushOutcome {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if self.is_push_disabled() {
            self.writes_rejected.fetch_add(1, Ordering::Relaxed);
            return PushOutcome::Rejected;
        }
        if self.is_disabled() {
            return PushOutcome::Failed;
        }
        let path = format!("/record/{kind}/v{schema}/{key:032x}");
        match self.push_answer(self.exchange("PUT", &path, record), 1) {
            Ok(_) => {
                self.records_accepted.fetch_add(1, Ordering::Relaxed);
                PushOutcome::Accepted
            }
            Err((outcome, _)) => outcome,
        }
    }

    /// Batch [`Self::push`] at the default chunk size.
    pub fn push_batch(&self, entries: &[(&str, u32, u128, &[u8])]) -> (Vec<PushOutcome>, u64) {
        self.push_batch_chunked(entries, BATCH_CHUNK)
    }

    /// Pushes many records with as few round-trips as possible: frames
    /// the entries into `POST /batch-put` requests of at most `chunk`
    /// records each (clamped to at least 1; the default stays under the
    /// server's [`crate::server::MAX_BATCH`] cap) **and** at most
    /// [`PUSH_BODY_BUDGET`] body bytes — records are small, but chunking
    /// by count alone could otherwise build a request the server's body
    /// cap rejects at the transport layer, and that failure would feed
    /// the shared read-circuit breaker. Returns per-entry outcomes in
    /// request order plus how many exchanges *this call* put on the
    /// wire — per-call reporting, exactly like
    /// [`Self::fetch_batch_outcomes`], so aggregating callers never race
    /// on the shared counters.
    pub fn push_batch_chunked(
        &self,
        entries: &[(&str, u32, u128, &[u8])],
        chunk: usize,
    ) -> (Vec<PushOutcome>, u64) {
        let mut outcomes = Vec::with_capacity(entries.len());
        let mut round_trips = 0;
        let mut start = 0;
        while start < entries.len() {
            let end = plan_push_chunk_end(entries, start, chunk.max(1), PUSH_BODY_BUDGET);
            let (chunk_outcomes, trips) = self.push_batch_once(&entries[start..end]);
            outcomes.extend(chunk_outcomes);
            round_trips += trips;
            start = end;
        }
        (outcomes, round_trips)
    }

    /// One `POST /batch-put` exchange for up to one chunk of records.
    fn push_batch_once(&self, entries: &[(&str, u32, u128, &[u8])]) -> (Vec<PushOutcome>, u64) {
        if entries.is_empty() {
            return (Vec::new(), 0);
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        if self.is_push_disabled() {
            self.writes_rejected
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
            return (vec![PushOutcome::Rejected; entries.len()], 0);
        }
        if self.is_disabled() {
            return (vec![PushOutcome::Failed; entries.len()], 0);
        }
        let mut body = Vec::new();
        for &(kind, schema, key, record) in entries {
            body.push(kind.len() as u8);
            body.extend_from_slice(kind.as_bytes());
            body.extend_from_slice(&schema.to_le_bytes());
            body.extend_from_slice(&key.to_le_bytes());
            body.extend_from_slice(&(record.len() as u64).to_le_bytes());
            body.extend_from_slice(record);
        }
        match self.push_answer(self.exchange("POST", "/batch-put", &body), entries.len()) {
            Ok(statuses) => {
                let outcomes: Vec<PushOutcome> = (0..entries.len())
                    .map(|i| match statuses.get(i) {
                        Some(1) => {
                            self.records_accepted.fetch_add(1, Ordering::Relaxed);
                            PushOutcome::Accepted
                        }
                        Some(_) => {
                            self.writes_rejected.fetch_add(1, Ordering::Relaxed);
                            PushOutcome::Rejected
                        }
                        // A short status vector leaves the tail unknown.
                        None => PushOutcome::Failed,
                    })
                    .collect();
                (outcomes, 1)
            }
            Err((outcome, round_trips)) => (vec![outcome; entries.len()], round_trips),
        }
    }

    /// Classifies a push exchange's final answer for both push paths:
    /// `Ok(body)` on a 200, otherwise the outcome of all `records` in
    /// the request plus the round-trips it cost. A 401/405 is a
    /// definitive auth rejection that latches pushes off; any other 4xx
    /// (e.g. a structural 400) definitively rejects this request only.
    /// A 5xx — which [`Self::exchange`] returns only after every retry
    /// failed — is a failure like a transport error: the server
    /// rejected nothing, and it counts against the breaker.
    fn push_answer(
        &self,
        answer: io::Result<(u16, Vec<u8>)>,
        records: usize,
    ) -> Result<Vec<u8>, (PushOutcome, u64)> {
        let status = match answer {
            Ok((200, body)) => {
                self.push_round_trips.fetch_add(1, Ordering::Relaxed);
                self.consecutive_errors.store(0, Ordering::Relaxed);
                return Ok(body);
            }
            Ok((status, _)) => status,
            Err(_) => {
                self.transport_error();
                return Err((PushOutcome::Failed, 0));
            }
        };
        // The exchange happened, whatever the server answered.
        self.push_round_trips.fetch_add(1, Ordering::Relaxed);
        if status >= 500 {
            self.transport_error();
            return Err((PushOutcome::Failed, 1));
        }
        self.consecutive_errors.store(0, Ordering::Relaxed);
        self.writes_rejected
            .fetch_add(records as u64, Ordering::Relaxed);
        if matches!(status, 401 | 405) {
            self.auth_rejected(status);
        }
        Err((PushOutcome::Rejected, 1))
    }

    /// `POST /lease/claim`: asks the scheduler for one unit of
    /// `campaign`, seeding the campaign with `units` (the full
    /// deterministic list — seeding is idempotent, so every worker sends
    /// the same list). See [`LeaseClaim`] for the three answers.
    ///
    /// Lease calls ride the same retry/backoff as data traffic but
    /// **bypass the data-plane circuit breaker** (module docs): the
    /// steal loop bounds its own claim failures. A retried claim whose
    /// lost response had granted a unit merely strands that lease until
    /// its TTL reclaims it — wasted work at worst, never a wrong result.
    pub fn lease_claim(
        &self,
        campaign: &str,
        worker: &str,
        units: &[String],
    ) -> Result<LeaseClaim, LeaseError> {
        let span = Span::begin("lease", "claim")
            .label("campaign", campaign)
            .label("worker", worker);
        let result = self.lease_claim_inner(campaign, worker, units);
        span.finish(match &result {
            Ok(LeaseClaim::Granted {
                reclaimed: true, ..
            }) => "reclaimed",
            Ok(LeaseClaim::Granted { .. }) => "granted",
            Ok(LeaseClaim::Wait { .. }) => "wait",
            Ok(LeaseClaim::Drained) => "drained",
            Err(err) => lease_error_outcome(err),
        });
        result
    }

    fn lease_claim_inner(
        &self,
        campaign: &str,
        worker: &str,
        units: &[String],
    ) -> Result<LeaseClaim, LeaseError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut body = format!("campaign={campaign}\nworker={worker}\n");
        for unit in units {
            body.push_str(&format!("unit={unit}\n"));
        }
        let (status, response) = self
            .exchange("POST", "/lease/claim", body.as_bytes())
            .map_err(|_| LeaseError::Unavailable)?;
        let text = lease_response_text(status, &response)?;
        let mut lines = text.lines();
        match lines.next() {
            Some("granted") => {
                let fields = lease_kv(lines);
                Ok(LeaseClaim::Granted {
                    unit: fields
                        .iter()
                        .find(|(k, _)| *k == "unit")
                        .map(|(_, v)| (*v).to_owned())
                        .ok_or(LeaseError::Unavailable)?,
                    generation: lease_field_u64(&fields, "gen").ok_or(LeaseError::Unavailable)?,
                    deadline_ms: lease_field_u64(&fields, "deadline_ms").unwrap_or(0),
                    ttl_ms: lease_field_u64(&fields, "ttl_ms").unwrap_or(0),
                    reclaimed: lease_field_u64(&fields, "reclaimed").unwrap_or(0) != 0,
                })
            }
            Some("wait") => Ok(LeaseClaim::Wait {
                claimed: lease_field_u64(&lease_kv(lines), "claimed").unwrap_or(0),
            }),
            Some("drained") => Ok(LeaseClaim::Drained),
            _ => Err(LeaseError::Unavailable),
        }
    }

    /// `POST /lease/renew`: the mid-sweep heartbeat. Returns the new
    /// deadline; [`LeaseError::Refused`] once the lease expired or was
    /// reclaimed (the worker must stop assuming ownership).
    pub fn lease_renew(
        &self,
        campaign: &str,
        unit: &str,
        generation: u64,
        worker: &str,
    ) -> Result<u64, LeaseError> {
        let span = Span::begin("lease", "renew")
            .label("campaign", campaign)
            .label("unit", unit)
            .label("worker", worker);
        let result = self.lease_renew_inner(campaign, unit, generation, worker);
        span.finish(match &result {
            Ok(_) => "renewed",
            Err(err) => lease_error_outcome(err),
        });
        result
    }

    fn lease_renew_inner(
        &self,
        campaign: &str,
        unit: &str,
        generation: u64,
        worker: &str,
    ) -> Result<u64, LeaseError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let body = format!("campaign={campaign}\nworker={worker}\nunit={unit}\ngen={generation}\n");
        let (status, response) = self
            .exchange("POST", "/lease/renew", body.as_bytes())
            .map_err(|_| LeaseError::Unavailable)?;
        let text = lease_response_text(status, &response)?;
        let mut lines = text.lines();
        match lines.next() {
            Some("renewed") => {
                lease_field_u64(&lease_kv(lines), "deadline_ms").ok_or(LeaseError::Unavailable)
            }
            _ => Err(LeaseError::Unavailable),
        }
    }

    /// `POST /lease/complete`: marks the unit done. A refusal after a
    /// reclaim is expected and harmless (the records were pushed; the
    /// reclaimer re-executes bit-identically).
    pub fn lease_complete(
        &self,
        campaign: &str,
        unit: &str,
        generation: u64,
        worker: &str,
    ) -> Result<(), LeaseError> {
        let span = Span::begin("lease", "complete")
            .label("campaign", campaign)
            .label("unit", unit)
            .label("worker", worker);
        let result = self.lease_complete_inner(campaign, unit, generation, worker);
        span.finish(match &result {
            Ok(()) => "completed",
            Err(err) => lease_error_outcome(err),
        });
        result
    }

    fn lease_complete_inner(
        &self,
        campaign: &str,
        unit: &str,
        generation: u64,
        worker: &str,
    ) -> Result<(), LeaseError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let body = format!("campaign={campaign}\nworker={worker}\nunit={unit}\ngen={generation}\n");
        let (status, response) = self
            .exchange("POST", "/lease/complete", body.as_bytes())
            .map_err(|_| LeaseError::Unavailable)?;
        let text = lease_response_text(status, &response)?;
        match text.lines().next() {
            Some("completed") => Ok(()),
            _ => Err(LeaseError::Unavailable),
        }
    }

    /// Latches pushes off after the server definitively rejected this
    /// client's authentication — retrying every sweep would spam a
    /// server that already said no. Reads continue unaffected.
    fn auth_rejected(&self, status: u16) {
        if !self.push_disabled.swap(true, Ordering::Relaxed) {
            if trace::enabled() {
                TraceEvent::new("breaker", "push_disabled")
                    .outcome(&status.to_string())
                    .label("addr", &self.addr)
                    .emit();
            }
            eprintln!(
                "warning: result store {} rejected a push with HTTP {status} \
                 ({}); disabling pushes for this process (results stay local)",
                self.addr,
                if status == 405 {
                    "the server is read-only — it was started without DRI_TOKEN"
                } else {
                    "missing or mismatched DRI_TOKEN"
                }
            );
        }
    }

    /// End-to-end validation of received record bytes; counts and
    /// returns the payload on success.
    fn accept(&self, record: &[u8], schema: u32, key: u128) -> Option<Vec<u8>> {
        match validate_record(record, schema, key) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_fetched
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn transport_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        let seen = self.consecutive_errors.fetch_add(1, Ordering::Relaxed) + 1;
        if seen >= MAX_CONSECUTIVE_ERRORS && !self.disabled.swap(true, Ordering::Relaxed) {
            if trace::enabled() {
                TraceEvent::new("breaker", "open")
                    .label("addr", &self.addr)
                    .label("consecutive_errors", &seen.to_string())
                    .emit();
            }
            eprintln!(
                "warning: remote result store {} failed {seen} times in a row; \
                 disabling the remote tier for this process (simulating locally)",
                self.addr
            );
        }
    }

    /// [`Self::request`] with bounded retry: a transport `Err` or a 5xx
    /// status — the transient failures fault injection and real networks
    /// produce — is retried up to [`RETRY_ATTEMPTS`] total attempts with
    /// exponential backoff + deterministic jitter. Any other status is a
    /// definitive answer and returns immediately. Callers treat only the
    /// *final* outcome as a transport error, so one exhausted round
    /// counts once against the breaker, however many attempts it burned.
    /// (Retried writes are safe: records are content-addressed and
    /// idempotent, and a re-claimed lease unit is merely re-executed
    /// bit-identically.)
    fn exchange(&self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut attempt = 1;
        loop {
            let started = Instant::now();
            let outcome = self.request(method, path, body);
            self.exchange_latency.record_duration(started.elapsed());
            let transient = match &outcome {
                Err(_) => true,
                Ok((status, _)) => *status >= 500,
            };
            if !transient || attempt >= RETRY_ATTEMPTS {
                return outcome;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            if trace::enabled() {
                TraceEvent::new("retry", path)
                    .outcome(&match &outcome {
                        Err(err) => err.kind().to_string(),
                        Ok((status, _)) => format!("http {status}"),
                    })
                    .label("method", method)
                    .label("attempt", &attempt.to_string())
                    .emit();
            }
            // Per-process salt stream: reproducible within a worker,
            // de-synchronized across a fleet.
            let salt = (u64::from(std::process::id()) << 32)
                | self.attempt_salt.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff_delay(attempt, salt));
            attempt += 1;
        }
    }

    /// One `Connection: close` HTTP exchange. Write methods are signed
    /// with the keyed request tag when this client holds a token.
    fn request(&self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let addr = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing")
        })?;
        let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        // Sign only requests bound for the write endpoints: reads never
        // need a tag, and hashing a large `/batch` prefetch body (or
        // handing observers tags over known plaintexts) for an endpoint
        // that ignores the header would be pure waste. The lease control
        // plane is a write path too — only trusted workers may schedule.
        let writes = method == "PUT" || path == "/batch-put" || path.starts_with("/lease/");
        let auth = match &self.token {
            Some(secret) if writes => format!(
                "X-DRI-Token: {}\r\n",
                crate::auth::sign_hex(secret, method, path, body)
            ),
            _ => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\n\
             Host: {}\r\n\
             {auth}Content-Length: {}\r\n\
             Connection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_response(&mut stream)
    }
}

/// Wire size of one `/batch-put` frame for `entry`:
/// `[kind_len:u8][kind][schema:u32][key:u128][record_len:u64][record]`.
fn push_frame_len(entry: &(&str, u32, u128, &[u8])) -> usize {
    1 + entry.0.len() + 4 + 16 + 8 + entry.3.len()
}

/// Where the push chunk starting at `start` ends: at most `chunk`
/// entries **and** at most `body_budget` body bytes — whichever bites
/// first — but always at least one entry, however large (the server
/// answers for an oversized record per-entry rather than the transport
/// layer failing the exchange).
fn plan_push_chunk_end(
    entries: &[(&str, u32, u128, &[u8])],
    start: usize,
    chunk: usize,
    body_budget: usize,
) -> usize {
    let mut end = start;
    let mut body_bytes = 0usize;
    while end < entries.len() && end - start < chunk {
        let frame_bytes = push_frame_len(&entries[end]);
        if end > start && body_bytes + frame_bytes > body_budget {
            break;
        }
        body_bytes += frame_bytes;
        end += 1;
    }
    end
}

/// Splits one `[status][len][bytes]` batch frame off `cursor`:
/// `Some((Some(bytes), rest))` for a found record, `Some((None, rest))`
/// for a miss frame, `None` when the buffer is too short.
#[allow(clippy::type_complexity)]
fn take_frame(cursor: &[u8]) -> Option<(Option<Vec<u8>>, &[u8])> {
    let (&status, rest) = cursor.split_first()?;
    let (len, rest) = rest.split_at_checked(8)?;
    let len = u64::from_le_bytes(len.try_into().ok()?) as usize;
    let (bytes, rest) = rest.split_at_checked(len)?;
    match status {
        1 => Some((Some(bytes.to_vec()), rest)),
        0 if len == 0 => Some((None, rest)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_normalization() {
        assert_eq!(
            RemoteStore::new("http://10.0.0.1:7171/").addr(),
            "10.0.0.1:7171"
        );
        assert_eq!(RemoteStore::new("localhost:80").addr(), "localhost:80");
    }

    #[test]
    fn frames_parse_and_reject_short_buffers() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(b"abc");
        buf.push(0);
        buf.extend_from_slice(&0u64.to_le_bytes());
        let (first, rest) = take_frame(&buf).expect("hit frame");
        assert_eq!(first.as_deref(), Some(&b"abc"[..]));
        let (second, rest) = take_frame(rest).expect("miss frame");
        assert_eq!(second, None);
        assert!(rest.is_empty());
        assert!(take_frame(&buf[..5]).is_none(), "truncated header");
        assert!(take_frame(&buf[..10]).is_none(), "truncated payload");
    }

    #[test]
    fn push_chunks_split_on_count_and_body_bytes() {
        let small = vec![0u8; 10];
        let big = vec![0u8; 100];
        let entries: Vec<(&str, u32, u128, &[u8])> = vec![
            ("dri", 1, 1, &small),
            ("dri", 1, 2, &small),
            ("dri", 1, 3, &big),
            ("dri", 1, 4, &small),
        ];
        // Count bites first with a generous byte budget.
        assert_eq!(plan_push_chunk_end(&entries, 0, 2, usize::MAX), 2);
        // Bytes bite first: two small frames (42 bytes each) fit a
        // 90-byte budget, the big third frame (132 bytes) does not.
        assert_eq!(plan_push_chunk_end(&entries, 0, 100, 90), 2);
        // An over-budget entry still travels — alone.
        assert_eq!(plan_push_chunk_end(&entries, 2, 100, 90), 3);
        // Tail chunk ends at the slice end.
        assert_eq!(plan_push_chunk_end(&entries, 3, 100, 90), 4);
        assert_eq!(push_frame_len(&entries[0]), 1 + 3 + 4 + 16 + 8 + 10);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        // Same (attempt, salt) → same delay; the schedule is replayable.
        assert_eq!(backoff_delay(1, 7), backoff_delay(1, 7));
        assert_ne!(
            backoff_delay(1, 7),
            backoff_delay(1, 8),
            "salt varies jitter"
        );
        for attempt in 1..=10 {
            let delay = backoff_delay(attempt, 42);
            let step = BACKOFF_BASE
                .saturating_mul(1u32 << (attempt - 1).min(8))
                .min(BACKOFF_CAP);
            assert!(delay >= step, "attempt {attempt}: jitter only adds");
            assert!(
                delay <= step + step / 2,
                "attempt {attempt}: jitter bounded by half the step"
            );
            assert!(delay <= BACKOFF_CAP + BACKOFF_CAP / 2, "capped");
        }
    }

    #[test]
    fn lease_responses_parse_and_classify() {
        assert_eq!(
            lease_response_text(200, b"granted\nunit=gcc\n"),
            Ok("granted\nunit=gcc\n".to_owned())
        );
        assert_eq!(
            lease_response_text(409, b"refused\nreason=expired\n"),
            Err(LeaseError::Refused("expired".to_owned()))
        );
        assert_eq!(lease_response_text(401, b""), Err(LeaseError::Denied(401)));
        assert_eq!(lease_response_text(405, b""), Err(LeaseError::Denied(405)));
        assert_eq!(
            lease_response_text(500, b"boom"),
            Err(LeaseError::Unavailable)
        );

        let text = "unit=gcc\ngen=3\ndeadline_ms=9000\nreclaimed=1\n";
        let fields = lease_kv(text.lines());
        assert_eq!(lease_field_u64(&fields, "gen"), Some(3));
        assert_eq!(lease_field_u64(&fields, "deadline_ms"), Some(9000));
        assert_eq!(lease_field_u64(&fields, "reclaimed"), Some(1));
        assert_eq!(lease_field_u64(&fields, "absent"), None);
        assert_eq!(lease_field_u64(&fields, "unit"), None, "non-numeric");
    }

    #[test]
    fn server_stats_parse_from_stats_json() {
        // Shaped exactly like `server::stats_json` renders, including the
        // fields whose names are near-collisions (`records_accepted`,
        // `writes_rejected`, `bytes_served`) — the scraper must not
        // confuse them with `records`, `rejected`, or `bytes`.
        let doc = "{\"records\":12,\"bytes\":3456,\"generation\":2,\"writable\":true,\
                   \"requests\":99,\"hits\":40,\"misses\":8,\
                   \"bad_requests\":1,\"batch_requests\":3,\"bytes_served\":70000,\
                   \"push_round_trips\":5,\"records_accepted\":33,\"writes_rejected\":2,\
                   \"faults_injected\":7,\
                   \"leases\":{\"claims\":20,\"granted\":16,\"reclaimed\":4,\
                   \"renewed\":50,\"completed\":15,\"rejected\":1},\
                   \"store\":{\"hits\":40,\"misses\":8,\"corrupt\":0},\
                   \"journal\":{\"enabled\":true,\"depth\":6,\"batches\":9,\
                   \"appended\":21,\"fsyncs\":9,\"compactions\":2,\"compacted\":15}}\n";
        assert_eq!(
            parse_server_stats(doc),
            Some(ServerStats {
                records: 12,
                bytes: 3456,
                faults_injected: 7,
                lease_claims: 20,
                lease_granted: 16,
                lease_reclaimed: 4,
                lease_renewed: 50,
                lease_completed: 15,
                lease_rejected: 1,
                records_accepted: 33,
                writes_rejected: 2,
                push_round_trips: 5,
                journal_depth: 6,
                journal_batches: 9,
                journal_fsyncs: 9,
                journal_compacted: 15,
            })
        );
        assert_eq!(
            parse_server_stats("{\"records\":1}"),
            None,
            "missing fields"
        );
        assert_eq!(parse_server_stats("not json at all"), None);
    }

    #[test]
    fn breaker_opens_after_repeated_failures() {
        // Reserved TEST-NET-3 address: connects fail fast with unreachable
        // (or time out) — either way a transport error, never a server.
        let remote = RemoteStore::new("127.0.0.1:1"); // closed port
        for _ in 0..MAX_CONSECUTIVE_ERRORS {
            assert_eq!(remote.fetch("dri", 1, 1), None);
        }
        assert!(remote.is_disabled());
        let errors_at_open = remote.stats().errors;
        // Once open, calls are absorbed without touching the network.
        assert_eq!(remote.fetch("dri", 1, 2), None);
        assert_eq!(remote.stats().errors, errors_at_open);
        assert_eq!(
            remote.stats().requests,
            u64::from(MAX_CONSECUTIVE_ERRORS) + 1
        );
    }
}
