//! The service proper: connection handling, routing, and the counters
//! behind `/stats` and `/metrics`.
//!
//! One connection front end feeds the routing core (`respond`): a
//! blocking accept loop hands each connection to a pool of workers over
//! a bounded channel. The pool is sized like the simulation fan-out
//! (`DRI_THREADS`, see [`crate::config::FleetConfig::threads`]). When every worker is
//! busy and the small queue is full, the accept loop blocks — clients
//! time out, treat it as a miss, and simulate locally rather than pile
//! up.
//!
//! ## The group-commit write path
//!
//! Every accepted write lands through the store root's
//! [`dri_store::Journal`], the server's only writer: a whole
//! `POST /batch-put` becomes **one** checksummed segment append and
//! **one** fsync, acked only after the fsync — so an ack is a
//! durability promise, proven by the crash-recovery tests. A commit
//! window additionally coalesces concurrent single `PUT`s (which each
//! wait out a few-millisecond window) into the same fsync. Reads fall
//! through the journal index before touching the store, and a background
//! compactor drains sealed segments into ordinary record files on an
//! interval (plus once at shutdown). Binding takes the root's journal
//! lock and recovers segments a crashed server left behind.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dri_store::gc::DiskUsage;
use dri_store::lease::{self, ClaimOutcome, LeaseBroker, LeaseRefusal};
use dri_store::{
    frame_record, validate_record, Journal, JournalEntry, JournalOptions, JournalStats, ResultStore,
};
use dri_telemetry::{trace, Counter, Gauge, Histogram, Registry, TraceEvent};

use crate::fault::{FaultAction, FaultSpec};
use crate::http::{read_request, render_head, write_response, Request};

/// Per-connection I/O timeout: a stalled peer releases its worker.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Default lease TTL: long enough that a quick-mode unit's heartbeat
/// cadence (TTL/3) never races a healthy worker, short enough that a
/// killed worker's units are reclaimed within a CI-friendly window.
pub const DEFAULT_LEASE_TTL_MS: u64 = 30_000;

/// Most record references one `/batch` request — or record frames one
/// `/batch-put` request — may carry; longer bodies are rejected wholesale
/// with `400`. The client's chunk size (`crate::client::BATCH_CHUNK`)
/// stays below this, so a well-formed chunked prefetch or push is never
/// bounced — the cap only stops a confused or hostile peer from pinning
/// a worker on one unbounded request.
pub const MAX_BATCH: usize = 8192;
/// Largest record one push frame may carry. Run-counter records are a
/// few hundred bytes; a frame claiming orders of magnitude more is a
/// confused writer, and rejecting it fails only that entry (the frame is
/// still structurally parseable, so later entries proceed).
pub const MAX_PUSH_RECORD: usize = 1024 * 1024;
/// How long one `/stats` disk-usage walk is reused before re-walking.
const USAGE_CACHE_TTL: Duration = Duration::from_secs(5);

/// How a server groups writes (see the module docs). All fields have
/// production defaults; `Default` is the configuration `dri-serve` uses.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// How long a single `PUT /record` waits for company before paying
    /// the fsync — concurrent writers landing inside the window share
    /// one. `batch-put` requests never wait (the batch *is* the group).
    pub commit_window: Duration,
    /// How often the background compactor drains sealed segments into
    /// ordinary record files.
    pub compact_interval: Duration,
    /// Segment rotation knob passed through to
    /// [`dri_store::Journal::open`].
    pub options: JournalOptions,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            commit_window: Duration::from_millis(2),
            compact_interval: Duration::from_millis(250),
            options: JournalOptions::default(),
        }
    }
}

/// How many recent batch outcomes [`CommitWindow`] remembers. A waiter
/// reads its slot immediately after the notifying leader writes it;
/// the ring only exists so a pathologically descheduled waiter still
/// finds *an* answer rather than indexing stale memory.
const OUTCOME_RING: usize = 64;

/// Mutable half of the commit window (under the mutex).
#[derive(Debug)]
struct WindowState {
    /// Entries enqueued but not yet drained into an append.
    pending: Vec<JournalEntry>,
    /// Whether some thread is currently electing/paying the fsync.
    leader: bool,
    /// Id the *next* drained batch will get (monotonic from 1).
    next_batch: u64,
    /// Highest batch id whose append has completed (success or not).
    done_batch: u64,
    /// Outcome per recent batch id (`id % OUTCOME_RING`).
    outcomes: [bool; OUTCOME_RING],
}

/// Group-commit coordinator: many writer threads enqueue entries; one
/// elects itself leader, optionally sleeps out the commit window so
/// stragglers pile on, drains the queue into **one**
/// [`Journal::append_batch`] (= one fsync), and wakes everyone with the
/// shared outcome. Every waiter's ack therefore carries the same
/// durability guarantee at a fraction of the fsync cost.
#[derive(Debug)]
struct CommitWindow {
    window: Duration,
    state: Mutex<WindowState>,
    committed: Condvar,
}

impl CommitWindow {
    fn new(window: Duration) -> CommitWindow {
        CommitWindow {
            window,
            state: Mutex::new(WindowState {
                pending: Vec::new(),
                leader: false,
                next_batch: 1,
                done_batch: 0,
                outcomes: [false; OUTCOME_RING],
            }),
            committed: Condvar::new(),
        }
    }

    /// Enqueues `entries` and blocks until the batch containing them is
    /// durably on disk (`Ok`) or the append failed (`Err`). `coalesce`
    /// makes an elected leader sleep out the window first — single-record
    /// `PUT`s pass `true` to find each other; `batch-put` passes `false`
    /// because its batch is already formed (it still scoops up whatever
    /// queued meanwhile).
    fn submit(
        &self,
        journal: &Journal,
        entries: Vec<JournalEntry>,
        coalesce: bool,
    ) -> io::Result<()> {
        let mut state = self.state.lock().expect("commit window lock");
        state.pending.extend(entries);
        let my_batch = state.next_batch;
        loop {
            if state.done_batch >= my_batch {
                return if state.outcomes[(my_batch as usize) % OUTCOME_RING] {
                    Ok(())
                } else {
                    Err(io::Error::other("journal append failed"))
                };
            }
            if state.leader {
                state = self.committed.wait(state).expect("commit window wait");
                continue;
            }
            state.leader = true;
            if coalesce && !self.window.is_zero() {
                drop(state);
                std::thread::sleep(self.window);
                state = self.state.lock().expect("commit window lock");
            }
            let batch_id = state.next_batch;
            state.next_batch += 1;
            let batch = std::mem::take(&mut state.pending);
            drop(state); // the fsync happens outside the lock
            let committed = journal.append_batch(batch);
            state = self.state.lock().expect("commit window lock");
            state.done_batch = batch_id;
            state.outcomes[(batch_id as usize) % OUTCOME_RING] = committed.is_ok();
            state.leader = false;
            self.committed.notify_all();
            // The leader's entries rode this batch; hand it the real
            // error (followers get the generic one above).
            committed?;
        }
    }
}

/// Snapshot of the service's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests parsed (all endpoints).
    pub requests: u64,
    /// Records served, singly or inside batch frames (the JSON key is
    /// `hits`, matching the store-counter naming everywhere else).
    pub hits: u64,
    /// Record lookups answered 404 / miss-framed (absent or corrupt;
    /// the JSON key is `misses`).
    pub misses: u64,
    /// Requests rejected as malformed.
    pub bad_requests: u64,
    /// Batch requests handled.
    pub batch_requests: u64,
    /// Response body bytes written.
    pub bytes_served: u64,
    /// Write exchanges (`PUT /record/...` + `POST /batch-put`) routed,
    /// authorized or not — the server-side mirror of the client's
    /// `push_round_trips`.
    pub push_round_trips: u64,
    /// Records accepted through the write path and landed on disk.
    pub records_accepted: u64,
    /// Write attempts rejected: failed authentication, writes hitting a
    /// read-only server, and corrupt / key-mismatched / oversized frames
    /// (counted per entry for `/batch-put`).
    pub writes_rejected: u64,
    /// `/lease/claim` requests handled (authorized and well-formed).
    pub lease_claims: u64,
    /// Claims answered with a grant.
    pub lease_granted: u64,
    /// Grants that took over an expired lease — a dead worker's unit
    /// handed to a survivor.
    pub lease_reclaimed: u64,
    /// Successful `/lease/renew` heartbeats.
    pub lease_renewed: u64,
    /// Units marked done through `/lease/complete`.
    pub lease_completed: u64,
    /// Renew/complete attempts refused (`409`): stale generation, wrong
    /// owner, expired lease, unknown unit.
    pub lease_rejected: u64,
    /// Faults injected by the `DRI_FAULT` chaos layer (0 in production).
    pub faults_injected: u64,
}

/// The server's counters as telemetry handles, all registered in one
/// per-server [`Registry`]. `/stats` snapshots these very atomics and
/// `GET /metrics` renders the same registry, so the two reporters can
/// never diverge — one set of counters, two expositions. (Per-server
/// rather than process-global so parallel test servers stay isolated.)
#[derive(Debug)]
struct AtomicServeStats {
    registry: Registry,
    requests: Counter,
    hits: Counter,
    misses: Counter,
    bad_requests: Counter,
    batch_requests: Counter,
    bytes_served: Counter,
    push_round_trips: Counter,
    records_accepted: Counter,
    writes_rejected: Counter,
    lease_claims: Counter,
    lease_granted: Counter,
    lease_reclaimed: Counter,
    lease_renewed: Counter,
    lease_completed: Counter,
    lease_rejected: Counter,
    faults_injected: Counter,
    /// Wall time from request-parsed to response-built, per request.
    request_latency: Histogram,
    /// Fleet membership gauges (from `DRI_SHARDS`/`DRI_REPLICAS` in the
    /// server's environment; zero when it serves outside a fleet).
    ring_shards: Gauge,
    ring_replicas: Gauge,
    /// Disk-tier gauges, refreshed at `/metrics` scrape time.
    store_records: Gauge,
    store_bytes: Gauge,
    store_generation: Gauge,
    /// Journal-tier gauges, refreshed at `/metrics` scrape time from
    /// [`Journal::stats`].
    journal_depth: Gauge,
    journal_batches: Gauge,
    journal_appended: Gauge,
    journal_fsyncs: Gauge,
    journal_compactions: Gauge,
    journal_compacted: Gauge,
}

impl Default for AtomicServeStats {
    fn default() -> AtomicServeStats {
        let registry = Registry::new();
        AtomicServeStats {
            requests: registry.counter(
                "dri_serve_requests_total",
                "requests parsed (all endpoints)",
            ),
            hits: registry.counter(
                "dri_serve_hits_total",
                "records served, singly or in batch frames",
            ),
            misses: registry.counter(
                "dri_serve_misses_total",
                "record lookups answered 404 / miss-framed",
            ),
            bad_requests: registry.counter(
                "dri_serve_bad_requests_total",
                "requests rejected as malformed",
            ),
            batch_requests: registry.counter(
                "dri_serve_batch_requests_total",
                "POST /batch requests handled",
            ),
            bytes_served: registry.counter(
                "dri_serve_bytes_served_total",
                "response body bytes written",
            ),
            push_round_trips: registry
                .counter("dri_serve_push_round_trips_total", "write exchanges routed"),
            records_accepted: registry.counter(
                "dri_serve_records_accepted_total",
                "records landed through the write path",
            ),
            writes_rejected: registry
                .counter("dri_serve_writes_rejected_total", "write attempts rejected"),
            lease_claims: registry.counter(
                "dri_serve_lease_claims_total",
                "well-formed POST /lease/claim requests",
            ),
            lease_granted: registry.counter(
                "dri_serve_lease_granted_total",
                "claims answered with a unit",
            ),
            lease_reclaimed: registry.counter(
                "dri_serve_lease_reclaimed_total",
                "grants that took over an expired lease",
            ),
            lease_renewed: registry
                .counter("dri_serve_lease_renewed_total", "successful heartbeats"),
            lease_completed: registry
                .counter("dri_serve_lease_completed_total", "units marked done"),
            lease_rejected: registry.counter(
                "dri_serve_lease_rejected_total",
                "409s: stale gen / wrong owner / expired",
            ),
            faults_injected: registry.counter(
                "dri_serve_faults_injected_total",
                "DRI_FAULT chaos actions fired (0 in production)",
            ),
            request_latency: registry.histogram(
                "dri_serve_request_latency_ns",
                "request handling latency, parse to response-built",
            ),
            ring_shards: registry.gauge(
                "dri_serve_ring_shards",
                "fleet size from DRI_SHARDS (0 = not in a fleet)",
            ),
            ring_replicas: registry.gauge(
                "dri_serve_ring_replicas",
                "replication factor from DRI_REPLICAS",
            ),
            store_records: registry.gauge(
                "dri_serve_store_records",
                "validated records on disk (cached walk)",
            ),
            store_bytes: registry.gauge(
                "dri_serve_store_bytes",
                "record file bytes on disk (cached walk)",
            ),
            store_generation: registry.gauge("dri_serve_store_generation", "current GC generation"),
            journal_depth: registry.gauge(
                "dri_serve_journal_depth",
                "records acked into the journal, not yet compacted",
            ),
            journal_batches: registry.gauge(
                "dri_serve_journal_batches",
                "group-commit batches appended since open",
            ),
            journal_appended: registry.gauge(
                "dri_serve_journal_appended",
                "records appended to the journal since open",
            ),
            journal_fsyncs: registry.gauge(
                "dri_serve_journal_fsyncs",
                "segment fsyncs paid since open (one per batch)",
            ),
            journal_compactions: registry.gauge(
                "dri_serve_journal_compactions",
                "compaction passes that drained at least one record",
            ),
            journal_compacted: registry.gauge(
                "dri_serve_journal_compacted",
                "records drained from the journal into the store",
            ),
            registry,
        }
    }
}

impl AtomicServeStats {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            bad_requests: self.bad_requests.get(),
            batch_requests: self.batch_requests.get(),
            bytes_served: self.bytes_served.get(),
            push_round_trips: self.push_round_trips.get(),
            records_accepted: self.records_accepted.get(),
            writes_rejected: self.writes_rejected.get(),
            lease_claims: self.lease_claims.get(),
            lease_granted: self.lease_granted.get(),
            lease_reclaimed: self.lease_reclaimed.get(),
            lease_renewed: self.lease_renewed.get(),
            lease_completed: self.lease_completed.get(),
            lease_rejected: self.lease_rejected.get(),
            faults_injected: self.faults_injected.get(),
        }
    }
}

/// State every connection worker shares.
#[derive(Debug)]
struct Shared {
    store: Arc<ResultStore>,
    stats: AtomicServeStats,
    /// Shared write-path secret (`DRI_TOKEN`). `None` = the write
    /// endpoints are disabled and the service is strictly read-only,
    /// exactly as it was before the push path existed.
    token: Option<String>,
    /// Cached `disk_usage` walk for `/stats`: a polling monitor must not
    /// force a full recursive scan of a multi-gigabyte root per probe.
    usage: Mutex<Option<(Instant, DiskUsage)>>,
    /// Durable work-unit lease table under the store root, brokered to
    /// `--steal` workers over `/lease/*` (gated by the same write token).
    broker: LeaseBroker,
    /// TTL granted on every claim and renewal (`DRI_LEASE_TTL_MS`).
    lease_ttl_ms: u64,
    /// The chaos layer: `Some` only when `DRI_FAULT` asked for it.
    faults: Option<FaultSpec>,
    /// The group-commit write path, the server's only way to land a
    /// record.
    journal: Journal,
    /// Coalesces concurrent writers into one journal append.
    window: CommitWindow,
    /// Fleet membership from the environment: `(shards, replicas)` when
    /// this process serves one shard of a `DRI_SHARDS` fleet.
    ring: Option<(u64, u64)>,
}

impl Shared {
    fn disk_usage(&self) -> DiskUsage {
        let mut cached = self.usage.lock().expect("usage cache lock");
        if let Some((walked_at, usage)) = *cached {
            if walked_at.elapsed() < USAGE_CACHE_TTL {
                return usage;
            }
        }
        let usage = self.store.disk_usage();
        *cached = Some((Instant::now(), usage));
        usage
    }
}

/// A running result service (see the crate docs for the endpoints).
/// Dropping (or [`Server::shutdown`]) stops the accept loop
/// and joins every worker.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    compactor: Option<CompactorHandle>,
}

/// The background journal-compactor thread plus its stop signal.
#[derive(Debug)]
struct CompactorHandle {
    thread: JoinHandle<()>,
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7171`, port 0 for an ephemeral
    /// port) and starts serving `store` **read-only** on `workers`
    /// connection threads.
    pub fn bind(
        store: Arc<ResultStore>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> io::Result<Server> {
        Self::bind_with_token(store, addr, workers, None)
    }

    /// [`Server::bind`] with an optional write-path secret: when `token`
    /// is `Some`, `PUT /record/...` and `POST /batch-put` accept records
    /// whose requests carry a valid keyed tag (see [`crate::auth`]);
    /// when `None`, every write answers `405` and the service stays
    /// read-only.
    pub fn bind_with_token(
        store: Arc<ResultStore>,
        addr: impl ToSocketAddrs,
        workers: usize,
        token: Option<String>,
    ) -> io::Result<Server> {
        Self::bind_with_journal(
            store,
            addr,
            workers,
            token,
            DEFAULT_LEASE_TTL_MS,
            None,
            None,
        )
    }

    /// The full-control bind: [`Server::bind_with_token`] plus the lease
    /// TTL granted to `--steal` workers, an optional [`FaultSpec`] chaos
    /// layer (`DRI_FAULT`; `None` = behave perfectly, the production
    /// default) and the journal's [`JournalConfig`] (`None` = the
    /// default). Every bind opens the root's journal, so it fails while
    /// another server holds the root (see the module docs).
    pub fn bind_with_journal(
        store: Arc<ResultStore>,
        addr: impl ToSocketAddrs,
        workers: usize,
        token: Option<String>,
        lease_ttl_ms: u64,
        faults: Option<FaultSpec>,
        journal: Option<JournalConfig>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let broker = LeaseBroker::open(store.root())?;
        let config = journal.unwrap_or_default();
        let journal = Journal::open(store.root(), config.options)?;
        let shared = Arc::new(Shared {
            store,
            stats: AtomicServeStats::default(),
            token: token.filter(|t| !t.is_empty()),
            usage: Mutex::new(None),
            broker,
            lease_ttl_ms: lease_ttl_ms.max(1),
            faults,
            journal,
            window: CommitWindow::new(config.commit_window),
            ring: crate::config::fleet().membership(),
        });
        let accept = spawn_threaded(
            listener,
            Arc::clone(&shared),
            workers.max(1),
            Arc::clone(&stopping),
        );

        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                compactor_loop(&shared, &stop, config.compact_interval);
            })
        };

        Ok(Server {
            addr,
            stopping,
            accept: Some(accept),
            shared,
            compactor: Some(CompactorHandle { thread, stop }),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// Whether the write path is enabled (a `DRI_TOKEN` secret was
    /// configured at bind time).
    pub fn writable(&self) -> bool {
        self.shared.token.is_some()
    }

    /// Snapshot of the journal counters (always `Some`).
    pub fn journal_stats(&self) -> Option<JournalStats> {
        Some(self.shared.journal.stats())
    }

    /// Forces one journal compaction pass, returning the number of
    /// records drained into the store. Tests and benches use this for
    /// deterministic drains; production relies on the background
    /// compactor.
    pub fn compact_journal(&self) -> io::Result<u64> {
        self.shared.journal.compact(&self.shared.store)
    }

    /// Stops accepting, drains in-flight connections, joins all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // With every connection drained, stop the compactor; its last
        // act is one final compaction, so a graceful shutdown leaves an
        // empty journal (a crash leaves segments for recovery instead).
        if let Some(compactor) = self.compactor.take() {
            *compactor.stop.0.lock().expect("compactor stop lock") = true;
            compactor.stop.1.notify_all();
            let _ = compactor.thread.join();
        }
    }
}

/// Body of the background compactor thread: drain the journal every
/// `interval`, and once more when the stop signal arrives.
fn compactor_loop(shared: &Shared, stop: &(Mutex<bool>, Condvar), interval: Duration) {
    let (flag, signal) = stop;
    loop {
        let mut stopped = flag.lock().expect("compactor stop lock");
        if !*stopped {
            stopped = signal
                .wait_timeout(stopped, interval)
                .expect("compactor stop wait")
                .0;
        }
        let done = *stopped;
        drop(stopped);
        if let Err(err) = shared.journal.compact(&shared.store) {
            // Leaving records in the journal is safe (they are durable
            // and served from the index); just say why drains stalled.
            eprintln!("dri-serve: journal compaction failed: {err}");
        }
        if done {
            return;
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The connection front end: a blocking accept loop feeding a worker
/// pool over a bounded handoff channel. Returns the accept thread
/// (which joins the pool when it exits).
fn spawn_threaded(
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
    stopping: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let (sender, receiver) = std::sync::mpsc::sync_channel::<TcpStream>(workers * 2);
    let receiver = Arc::new(Mutex::new(receiver));
    let mut pool = Vec::with_capacity(workers);
    for _ in 0..workers {
        let receiver = Arc::clone(&receiver);
        let shared = Arc::clone(&shared);
        pool.push(std::thread::spawn(move || worker(&receiver, &shared)));
    }
    std::thread::spawn(move || {
        accept_loop(&listener, &sender, &stopping);
        drop(sender); // workers drain the queue, then exit
        for handle in pool {
            let _ = handle.join();
        }
    })
}

fn accept_loop(listener: &TcpListener, sender: &SyncSender<TcpStream>, stopping: &AtomicBool) {
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if sender.send(stream).is_err() {
            break;
        }
    }
}

fn worker(receiver: &Mutex<Receiver<TcpStream>>, shared: &Shared) {
    loop {
        let stream = match receiver.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(stream) = stream else { return };
        handle_connection(stream, shared);
    }
}

/// Advances the chaos layer for one accepted connection, counting and
/// tracing whatever fires. Called exactly once per accepted connection,
/// so a fault spec replays deterministically. Empty (the overwhelmingly
/// common case) without a spec.
fn connection_fate(shared: &Shared) -> Vec<FaultAction> {
    let Some(faults) = &shared.faults else {
        return Vec::new();
    };
    let fired = faults.next_connection();
    for action in &fired {
        shared.stats.faults_injected.inc();
        if trace::enabled() {
            let name = match action {
                FaultAction::Drop => "drop",
                FaultAction::Delay(_) => "delay",
                FaultAction::Error503 => "503",
                FaultAction::Torn => "torn",
                FaultAction::Crash => "crash",
            };
            TraceEvent::new("fault", name)
                .label("connection", &faults.connections_seen().to_string())
                .emit();
        }
    }
    fired
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let stats = &shared.stats;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // The chaos layer sees the connection before the request parser: a
    // dropped or delayed connection is a transport event, not an HTTP one.
    let mut torn = false;
    for action in connection_fate(shared) {
        match action {
            // Close without reading: the peer sees a reset/EOF.
            FaultAction::Drop => return,
            FaultAction::Delay(pause) => std::thread::sleep(pause),
            // Drain the request, then answer 503 without routing: the
            // failure is the *status*, not a mid-write hangup.
            FaultAction::Error503 => {
                let _ = read_request(&mut stream);
                let _ = write_response(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    b"injected fault\n",
                );
                return;
            }
            // Remembered for write time: route normally, then send a
            // head promising the full body and deliver only half.
            FaultAction::Torn => torn = true,
            // Kill the whole process mid-write; never returns.
            FaultAction::Crash => {
                crash_with_request(read_request(&mut stream).ok().as_ref(), shared)
            }
        }
    }
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(_) => {
            stats.bad_requests.inc();
            let _ = write_response(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                b"bad request\n",
            );
            return;
        }
    };
    let wire = respond(request, torn, shared);
    let _ = stream.write_all(&wire);
    let _ = stream.flush();
}

/// Routes one parsed request and renders the complete wire response
/// (head + body). Handles the `HEAD` suppression, latency/trace
/// recording, and the `torn` chaos shape (full-length head, half body).
fn respond(mut request: Request, torn: bool, shared: &Shared) -> Vec<u8> {
    let stats = &shared.stats;
    stats.requests.inc();
    // HEAD is GET with the body suppressed (RFC 9110 §9.3.2): route it
    // as GET so probes see real statuses, then send headers only.
    let head_only = request.method == "HEAD";
    if head_only {
        request.method = "GET".to_owned();
    }
    let routed_at = Instant::now();
    let (status, reason, content_type, body) = route(&request, shared);
    let elapsed = routed_at.elapsed();
    stats.request_latency.record_duration(elapsed);
    if trace::enabled() {
        // One access record per request: endpoint, status, handling time.
        let mut event = TraceEvent::new("serve", &request.path)
            .outcome(&status.to_string())
            .label("method", &request.method);
        event.dur_us = Some(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        event.emit();
    }
    if head_only {
        return render_head(status, reason, content_type, body.len());
    }
    if torn {
        // Head declares the full length; only half the body follows. The
        // client's Content-Length cross-check must catch this.
        let half = &body[..body.len() / 2];
        stats.bytes_served.add(half.len() as u64);
        let mut wire = render_head(status, reason, content_type, body.len());
        wire.extend_from_slice(half);
        return wire;
    }
    stats.bytes_served.add(body.len() as u64);
    let mut wire = render_head(status, reason, content_type, body.len());
    wire.extend_from_slice(&body);
    wire
}

/// The `crash:N` chaos action, fired once the request is in hand (so
/// the peer's write completed and the crash lands server-side, like a
/// power cut): tear the journal frame a `batch-put` would have
/// appended — first half of the bytes only, synced, never acked, never
/// indexed — then kill the process. The restarted server's recovery
/// must drop the torn frame whole; the client saw no ack, so nothing
/// durable was promised.
fn crash_with_request(request: Option<&Request>, shared: &Shared) -> ! {
    let batch_put =
        request.filter(|r| r.method == "POST" && r.path == "/batch-put" && r.encoding.is_none());
    if let Some(request) = batch_put {
        if let Some(frames) = parse_push_frames(&request.body) {
            let entries: Vec<JournalEntry> = frames
                .into_iter()
                .filter_map(|(kind, schema, key, record)| {
                    validate_record(record, schema, key).map(|payload| JournalEntry {
                        kind,
                        schema,
                        key,
                        payload: payload.to_vec(),
                    })
                })
                .collect();
            if !entries.is_empty() {
                let keep = (request.body.len() / 2).max(1);
                let _ = shared.journal.simulate_torn_append(&entries, keep);
            }
        }
    }
    eprintln!("dri-serve: crash fault fired; exiting without a response");
    std::process::exit(17);
}

type Response = (u16, &'static str, &'static str, Vec<u8>);

fn route(request: &Request, shared: &Shared) -> Response {
    let stats = &shared.stats;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "OK", "text/plain", b"ok\n".to_vec()),
        ("GET", "/stats") => (200, "OK", "application/json", stats_json(shared)),
        ("GET", "/metrics") => (200, "OK", "text/plain; version=0.0.4", metrics_text(shared)),
        ("GET", path) if path.starts_with("/record/") => match parse_record_path(path) {
            Some((kind, schema, key)) => match serve_record(&kind, schema, key, shared) {
                Some(bytes) => {
                    stats.hits.inc();
                    (200, "OK", "application/octet-stream", bytes)
                }
                None => {
                    stats.misses.inc();
                    (404, "Not Found", "text/plain", b"no such record\n".to_vec())
                }
            },
            None => {
                stats.bad_requests.inc();
                (
                    400,
                    "Bad Request",
                    "text/plain",
                    b"bad record path\n".to_vec(),
                )
            }
        },
        ("POST", "/batch") => match batch(&request.body, shared) {
            Some(frames) => {
                stats.batch_requests.inc();
                (200, "OK", "application/octet-stream", frames)
            }
            None => {
                stats.bad_requests.inc();
                (
                    400,
                    "Bad Request",
                    "text/plain",
                    b"bad batch body\n".to_vec(),
                )
            }
        },
        ("PUT", path) if path.starts_with("/record/") => put_record(request, shared),
        ("POST", "/batch-put") => batch_put(request, shared),
        ("POST", "/lease/claim") => lease_claim(request, shared),
        ("POST", "/lease/renew") => lease_renew(request, shared),
        ("POST", "/lease/complete") => lease_complete(request, shared),
        ("GET", _) => (404, "Not Found", "text/plain", b"not found\n".to_vec()),
        _ => (
            405,
            "Method Not Allowed",
            "text/plain",
            if shared.token.is_some() {
                b"method not allowed\n".to_vec()
            } else {
                b"read-only service\n".to_vec()
            },
        ),
    }
}

/// Serves one record's wire bytes: journal index first (a record acked
/// seconds ago must be readable before compaction lands it), then the
/// store. Journal payloads are re-framed with [`frame_record`], so the
/// client's end-to-end re-validation works identically for both tiers.
fn serve_record(kind: &str, schema: u32, key: u128, shared: &Shared) -> Option<Vec<u8>> {
    if let Some(payload) = shared.journal.lookup(kind, schema, key) {
        return Some(frame_record(schema, key, &payload));
    }
    shared.store.load_record_bytes(kind, schema, key)
}

/// Write bodies are raw record frames: a request naming any body codec
/// in [`crate::http::ENCODING_HEADER`] (older clients sent compressed
/// bodies under it) is a 400. Runs *after* [`authorize`].
fn reject_encoded_body(request: &Request, stats: &AtomicServeStats) -> Result<(), Response> {
    if request.encoding.is_none() {
        return Ok(());
    }
    stats.bad_requests.inc();
    Err((
        400,
        "Bad Request",
        "text/plain",
        b"unsupported body encoding\n".to_vec(),
    ))
}

/// Gate for the write endpoints: `Ok` when the request carries a valid
/// keyed tag for its own (method, path, body); otherwise the rejection
/// response. Both failure modes count in `writes_rejected`.
fn authorize(request: &Request, shared: &Shared) -> Result<(), Response> {
    let Some(secret) = shared.token.as_deref() else {
        shared.stats.writes_rejected.inc();
        return Err((
            405,
            "Method Not Allowed",
            "text/plain",
            b"writes disabled (start the server with DRI_TOKEN to accept pushes)\n".to_vec(),
        ));
    };
    if !crate::auth::verify(
        secret,
        &request.method,
        &request.path,
        &request.body,
        request.token.as_deref(),
    ) {
        shared.stats.writes_rejected.inc();
        return Err((
            401,
            "Unauthorized",
            "text/plain",
            b"missing or invalid write token\n".to_vec(),
        ));
    }
    Ok(())
}

/// `PUT /record/<kind>/v<schema>/<key>`: accepts one complete record
/// (header + payload + checksum, as [`dri_store::frame_record`] builds
/// it), re-validates it against the *path's* schema and key, and lands
/// the payload through the journal, waiting out the commit window so
/// concurrent `PUT`s share one fsync. The ack is a durability promise.
fn put_record(request: &Request, shared: &Shared) -> Response {
    let stats = &shared.stats;
    stats.push_round_trips.inc();
    if let Err(rejection) = authorize(request, shared) {
        return rejection;
    }
    let Some((kind, schema, key)) = parse_record_path(&request.path) else {
        stats.bad_requests.inc();
        return (
            400,
            "Bad Request",
            "text/plain",
            b"bad record path\n".to_vec(),
        );
    };
    if let Err(rejection) = reject_encoded_body(request, stats) {
        return rejection;
    }
    let body = &request.body;
    if body.len() > MAX_PUSH_RECORD {
        stats.writes_rejected.inc();
        return (
            400,
            "Bad Request",
            "text/plain",
            b"record too large\n".to_vec(),
        );
    }
    match validate_record(body, schema, key) {
        Some(payload) => {
            let entry = JournalEntry {
                kind,
                schema,
                key,
                payload: payload.to_vec(),
            };
            if let Err(failed) = commit(shared, vec![entry], true) {
                return failed;
            }
            stats.records_accepted.inc();
            (200, "OK", "text/plain", b"accepted\n".to_vec())
        }
        None => {
            stats.writes_rejected.inc();
            (
                400,
                "Bad Request",
                "text/plain",
                b"corrupt or key-mismatched record\n".to_vec(),
            )
        }
    }
}

/// Lands `entries` through the commit window (see
/// [`CommitWindow::submit`] for `coalesce`); `Err` is the `500` to
/// answer when the append failed and nothing was acked.
fn commit(shared: &Shared, entries: Vec<JournalEntry>, coalesce: bool) -> Result<(), Response> {
    shared
        .window
        .submit(&shared.journal, entries, coalesce)
        .map_err(|_| {
            (
                500,
                "Internal Server Error",
                "text/plain",
                b"journal write failed\n".to_vec(),
            )
        })
}

/// One parsed `/batch-put` frame: where the record claims to live, and
/// the record bytes themselves (still unvalidated).
type PushFrame<'a> = (String, u32, u128, &'a [u8]);

/// Parses a `/batch-put` body into frames (see the crate docs for the
/// wire layout). `None` on any structural failure — a broken length
/// prefix makes everything after it unreadable — and on more than
/// [`MAX_BATCH`] frames. Per-frame *content* problems (a record that
/// fails validation) are left to the caller, which fails only that entry.
fn parse_push_frames(body: &[u8]) -> Option<Vec<PushFrame<'_>>> {
    let mut frames = Vec::new();
    let mut cursor = body;
    while !cursor.is_empty() {
        if frames.len() >= MAX_BATCH {
            return None;
        }
        let (&kind_len, rest) = cursor.split_first()?;
        let (kind, rest) = rest.split_at_checked(kind_len as usize)?;
        let kind = std::str::from_utf8(kind).ok()?;
        if !kind_is_safe(kind) {
            return None;
        }
        let (schema, rest) = rest.split_at_checked(4)?;
        let schema = u32::from_le_bytes(schema.try_into().ok()?);
        let (key, rest) = rest.split_at_checked(16)?;
        let key = u128::from_le_bytes(key.try_into().ok()?);
        let (len, rest) = rest.split_at_checked(8)?;
        let len = u64::from_le_bytes(len.try_into().ok()?);
        let len = usize::try_from(len).ok()?;
        let (record, rest) = rest.split_at_checked(len)?;
        frames.push((kind.to_owned(), schema, key, record));
        cursor = rest;
    }
    Some(frames)
}

/// `POST /batch-put`: a framed multi-record upload. The response body is
/// one status byte per frame, in order (`1` accepted, `0` rejected), so
/// a corrupt, key-mismatched, or oversized record fails **only its own
/// entry** — the rest of the batch still lands. Every validated frame
/// rides **one** journal frame and **one** fsync (plus whatever single
/// PUTs were queued in the commit window when this batch drained it), so
/// acceptance is all-or-nothing *within the accepted set*: if the append
/// fails, nothing was acked and the client retries the whole batch
/// (saves are idempotent, so replays are free).
fn batch_put(request: &Request, shared: &Shared) -> Response {
    let stats = &shared.stats;
    stats.push_round_trips.inc();
    if let Err(rejection) = authorize(request, shared) {
        return rejection;
    }
    if let Err(rejection) = reject_encoded_body(request, stats) {
        return rejection;
    }
    let Some(frames) = parse_push_frames(&request.body) else {
        stats.bad_requests.inc();
        return (
            400,
            "Bad Request",
            "text/plain",
            b"bad batch-put body\n".to_vec(),
        );
    };
    let mut outcomes = vec![0u8; frames.len()];
    let mut entries = Vec::new();
    let mut accepted = Vec::new();
    for (slot, (kind, schema, key, record)) in frames.into_iter().enumerate() {
        let payload = (record.len() <= MAX_PUSH_RECORD)
            .then(|| validate_record(record, schema, key))
            .flatten();
        match payload {
            Some(payload) => {
                entries.push(JournalEntry {
                    kind,
                    schema,
                    key,
                    payload: payload.to_vec(),
                });
                accepted.push(slot);
            }
            None => stats.writes_rejected.inc(),
        }
    }
    if !entries.is_empty() {
        let landed = entries.len() as u64;
        if let Err(failed) = commit(shared, entries, false) {
            return failed;
        }
        stats.records_accepted.add(landed);
        for slot in accepted {
            outcomes[slot] = 1;
        }
    }
    (200, "OK", "application/octet-stream", outcomes)
}

/// Fields a `/lease/*` request body may carry, as `key=value` lines (see
/// `ARCHITECTURE.md` §Campaign scheduler for the wire format).
#[derive(Debug, Default)]
struct LeaseFields {
    campaign: Option<String>,
    worker: Option<String>,
    unit: Option<String>,
    generation: Option<u64>,
    /// `unit=` lines beyond the first stay meaningful for claim: the
    /// deterministic unit list that seeds the campaign idempotently.
    units: Vec<String>,
}

impl LeaseFields {
    fn parse(body: &[u8]) -> Option<LeaseFields> {
        let text = std::str::from_utf8(body).ok()?;
        let mut fields = LeaseFields::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=')?;
            match key {
                "campaign" => fields.campaign = Some(value.to_owned()),
                "worker" => fields.worker = Some(value.to_owned()),
                "unit" => {
                    if fields.unit.is_none() {
                        fields.unit = Some(value.to_owned());
                    }
                    if fields.units.len() >= MAX_BATCH {
                        return None;
                    }
                    fields.units.push(value.to_owned());
                }
                "gen" => fields.generation = Some(value.parse().ok()?),
                // Unknown keys are a client/server version skew, not an
                // error: ignore them so old servers tolerate new clients.
                _ => {}
            }
        }
        fields.campaign.is_some().then_some(fields)
    }
}

fn bad_lease_body(stats: &AtomicServeStats) -> Response {
    stats.bad_requests.inc();
    (
        400,
        "Bad Request",
        "text/plain",
        b"bad lease body\n".to_vec(),
    )
}

fn lease_io_error(err: &io::Error) -> Response {
    if err.kind() == io::ErrorKind::InvalidInput {
        (
            400,
            "Bad Request",
            "text/plain",
            b"bad lease name\n".to_vec(),
        )
    } else {
        (
            500,
            "Internal Server Error",
            "text/plain",
            b"lease state unavailable\n".to_vec(),
        )
    }
}

fn refusal_response(refusal: LeaseRefusal, stats: &AtomicServeStats) -> Response {
    stats.lease_rejected.inc();
    let reason = match refusal {
        LeaseRefusal::UnknownUnit => "unknown-unit",
        LeaseRefusal::NotClaimed => "not-claimed",
        LeaseRefusal::NotOwner => "not-owner",
        LeaseRefusal::Expired => "expired",
    };
    (
        409,
        "Conflict",
        "text/plain",
        format!("refused\nreason={reason}\n").into_bytes(),
    )
}

/// `POST /lease/claim`: seed-if-needed, then hand out one unit. The body
/// carries `campaign=`, `worker=`, and the campaign's full deterministic
/// `unit=` list (idempotent seeding means any worker — first, late, or
/// restarted — sends the same list and the table converges). Answers
/// `granted`, `wait` (everything claimed and live), or `drained`.
fn lease_claim(request: &Request, shared: &Shared) -> Response {
    if let Err(rejection) = authorize(request, shared) {
        return rejection;
    }
    let stats = &shared.stats;
    let Some(fields) = LeaseFields::parse(&request.body) else {
        return bad_lease_body(stats);
    };
    let (Some(campaign), Some(worker)) = (fields.campaign.as_deref(), fields.worker.as_deref())
    else {
        return bad_lease_body(stats);
    };
    stats.lease_claims.inc();
    if !fields.units.is_empty() {
        if let Err(err) = shared.broker.seed(campaign, &fields.units) {
            return lease_io_error(&err);
        }
    }
    let now_ms = lease::wall_now_ms();
    match shared
        .broker
        .claim(campaign, worker, shared.lease_ttl_ms, now_ms)
    {
        Ok(ClaimOutcome::Granted(grant)) => {
            stats.lease_granted.inc();
            if grant.reclaimed {
                stats.lease_reclaimed.inc();
            }
            let body = format!(
                "granted\nunit={}\ngen={}\ndeadline_ms={}\nttl_ms={}\nreclaimed={}\n",
                grant.unit,
                grant.generation,
                grant.deadline_ms,
                shared.lease_ttl_ms,
                u8::from(grant.reclaimed),
            );
            (200, "OK", "text/plain", body.into_bytes())
        }
        Ok(ClaimOutcome::Wait { claimed }) => (
            200,
            "OK",
            "text/plain",
            format!("wait\nclaimed={claimed}\n").into_bytes(),
        ),
        Ok(ClaimOutcome::Drained) => (200, "OK", "text/plain", b"drained\n".to_vec()),
        Err(err) => lease_io_error(&err),
    }
}

/// `POST /lease/renew`: the mid-sweep heartbeat. Requires `campaign=`,
/// `worker=`, `unit=`, and the granted `gen=`; refused (`409`) once the
/// lease expired or was reclaimed — a heartbeat racing a reclaim must
/// lose deterministically.
fn lease_renew(request: &Request, shared: &Shared) -> Response {
    if let Err(rejection) = authorize(request, shared) {
        return rejection;
    }
    let stats = &shared.stats;
    let Some(fields) = LeaseFields::parse(&request.body) else {
        return bad_lease_body(stats);
    };
    let (Some(campaign), Some(worker), Some(unit), Some(generation)) = (
        fields.campaign.as_deref(),
        fields.worker.as_deref(),
        fields.unit.as_deref(),
        fields.generation,
    ) else {
        return bad_lease_body(stats);
    };
    match shared.broker.renew(
        campaign,
        unit,
        generation,
        worker,
        shared.lease_ttl_ms,
        lease::wall_now_ms(),
    ) {
        Ok(Ok(deadline_ms)) => {
            stats.lease_renewed.inc();
            (
                200,
                "OK",
                "text/plain",
                format!("renewed\ndeadline_ms={deadline_ms}\n").into_bytes(),
            )
        }
        Ok(Err(refusal)) => refusal_response(refusal, stats),
        Err(err) => lease_io_error(&err),
    }
}

/// `POST /lease/complete`: marks a unit done. Honoured even past the
/// deadline while the generation still matches (the slow worker *did*
/// push its records); refused after a reclaim, which is harmless — the
/// reclaimer re-executes bit-identically.
fn lease_complete(request: &Request, shared: &Shared) -> Response {
    if let Err(rejection) = authorize(request, shared) {
        return rejection;
    }
    let stats = &shared.stats;
    let Some(fields) = LeaseFields::parse(&request.body) else {
        return bad_lease_body(stats);
    };
    let (Some(campaign), Some(worker), Some(unit), Some(generation)) = (
        fields.campaign.as_deref(),
        fields.worker.as_deref(),
        fields.unit.as_deref(),
        fields.generation,
    ) else {
        return bad_lease_body(stats);
    };
    match shared.broker.complete(campaign, unit, generation, worker) {
        Ok(Ok(())) => {
            stats.lease_completed.inc();
            (200, "OK", "text/plain", b"completed\n".to_vec())
        }
        Ok(Err(refusal)) => refusal_response(refusal, stats),
        Err(err) => lease_io_error(&err),
    }
}

/// Whether a record kind is safe to use as a store directory name:
/// restricted to `[A-Za-z0-9._-]` (and it must contain a letter or
/// digit), so a crafted kind can never escape the store root. Applied to
/// every kind that arrives over the wire — record paths, batch fetch
/// lines, and push frames alike.
fn kind_is_safe(kind: &str) -> bool {
    !kind.is_empty()
        && kind.chars().any(|c| c.is_ascii_alphanumeric())
        && kind
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && kind != "."
        && kind != ".."
}

/// `/record/<kind>/v<schema>/<key-hex>` → `(kind, schema, key)`.
fn parse_record_path(path: &str) -> Option<(String, u32, u128)> {
    let rest = path.strip_prefix("/record/")?;
    let mut parts = rest.split('/');
    let (kind, schema, key) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    if !kind_is_safe(kind) {
        return None;
    }
    let schema: u32 = schema.strip_prefix('v')?.parse().ok()?;
    if key.is_empty() || key.len() > 32 {
        return None;
    }
    let key = u128::from_str_radix(key, 16).ok()?;
    Some((kind.to_owned(), schema, key))
}

/// Builds the `/batch` response: one `[status:u8][len:u64 LE][bytes]`
/// frame per request line, in order. `None` on any malformed line.
/// Lookups fall through the journal index first ([`serve_record`]).
fn batch(body: &[u8], shared: &Shared) -> Option<Vec<u8>> {
    let stats = &shared.stats;
    let text = std::str::from_utf8(body).ok()?;
    let mut frames = Vec::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        lines += 1;
        if lines > MAX_BATCH {
            return None;
        }
        let mut fields = line.split_whitespace();
        let (kind, schema, key) = (fields.next()?, fields.next()?, fields.next()?);
        if fields.next().is_some() {
            return None;
        }
        // Reuse the single-record path syntax checks.
        let (kind, schema, key) = parse_record_path(&format!("/record/{kind}/v{schema}/{key}"))?;
        match serve_record(&kind, schema, key, shared) {
            Some(bytes) => {
                stats.hits.inc();
                frames.push(1u8);
                frames.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                frames.extend_from_slice(&bytes);
            }
            None => {
                stats.misses.inc();
                frames.push(0u8);
                frames.extend_from_slice(&0u64.to_le_bytes());
            }
        }
    }
    Some(frames)
}

/// Hand-rolled JSON (no dependencies): every value is an unsigned
/// integer or a bare boolean, so escaping never arises. The schema — documented in
/// `ARCHITECTURE.md` §Observability — names served-vs-missed record
/// traffic `hits`/`misses` at both levels (service and the nested
/// `store` disk-tier counters), the same keys `suite --store-stats`
/// prints, so dashboards scrape one vocabulary.
fn stats_json(shared: &Shared) -> Vec<u8> {
    let store = &*shared.store;
    let usage = shared.disk_usage();
    let snap = shared.stats.snapshot();
    let traffic = store.stats();
    let journal = shared.journal.stats();
    format!(
        "{{\"records\":{},\"bytes\":{},\"generation\":{},\"writable\":{},\
         \"requests\":{},\"hits\":{},\"misses\":{},\
         \"bad_requests\":{},\"batch_requests\":{},\"bytes_served\":{},\
         \"push_round_trips\":{},\"records_accepted\":{},\"writes_rejected\":{},\
         \"faults_injected\":{},\
         \"leases\":{{\"claims\":{},\"granted\":{},\"reclaimed\":{},\
         \"renewed\":{},\"completed\":{},\"rejected\":{}}},\
         \"store\":{{\"hits\":{},\"misses\":{},\"corrupt\":{}}},\
         \"journal\":{{\"enabled\":true,\"depth\":{},\"batches\":{},\
         \"appended\":{},\"fsyncs\":{},\"compactions\":{},\"compacted\":{}}},\
         \"ring\":{{\"shards\":{},\"replicas\":{}}}}}\n",
        usage.records,
        usage.bytes,
        store.generation(),
        shared.token.is_some(),
        snap.requests,
        snap.hits,
        snap.misses,
        snap.bad_requests,
        snap.batch_requests,
        snap.bytes_served,
        snap.push_round_trips,
        snap.records_accepted,
        snap.writes_rejected,
        snap.faults_injected,
        snap.lease_claims,
        snap.lease_granted,
        snap.lease_reclaimed,
        snap.lease_renewed,
        snap.lease_completed,
        snap.lease_rejected,
        traffic.hits,
        traffic.misses,
        traffic.corrupt,
        journal.depth,
        journal.batches,
        journal.appended,
        journal.fsyncs,
        journal.compactions,
        journal.compacted,
        shared.ring.map_or(0, |(shards, _)| shards),
        shared.ring.map_or(0, |(_, replicas)| replicas),
    )
    .into_bytes()
}

/// Builds the `GET /metrics` body: the Prometheus text exposition of
/// the server's registry — the *same* atomics `/stats` snapshots, so
/// the two endpoints agree by construction. Disk-tier gauges (records,
/// bytes, generation) are refreshed from the cached usage walk at
/// scrape time.
fn metrics_text(shared: &Shared) -> Vec<u8> {
    let usage = shared.disk_usage();
    let stats = &shared.stats;
    stats.store_records.set(usage.records);
    stats.store_bytes.set(usage.bytes);
    stats.store_generation.set(shared.store.generation());
    if let Some((shards, replicas)) = shared.ring {
        stats.ring_shards.set(shards);
        stats.ring_replicas.set(replicas);
    }
    let journal = shared.journal.stats();
    stats.journal_depth.set(journal.depth);
    stats.journal_batches.set(journal.batches);
    stats.journal_appended.set(journal.appended);
    stats.journal_fsyncs.set(journal.fsyncs);
    stats.journal_compactions.set(journal.compactions);
    stats.journal_compacted.set(journal.compacted);
    let mut text = stats.registry.render_prometheus();
    // The store's disk-tier latency histograms live in the process-wide
    // registry (every ResultStore handle shares them); append them so
    // one scrape covers both layers. Name prefixes are disjoint
    // (dri_serve_* vs dri_store_*), so the expositions never collide.
    text.push_str(&Registry::global().render_prometheus());
    text.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds one well-formed `/batch-put` frame.
    fn push_frame(kind: &str, schema: u32, key: u128, record: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.push(kind.len() as u8);
        frame.extend_from_slice(kind.as_bytes());
        frame.extend_from_slice(&schema.to_le_bytes());
        frame.extend_from_slice(&key.to_le_bytes());
        frame.extend_from_slice(&(record.len() as u64).to_le_bytes());
        frame.extend_from_slice(record);
        frame
    }

    #[test]
    fn push_frames_parse_and_reject_structural_damage() {
        let mut body = push_frame("dri", 1, 7, b"abc");
        body.extend_from_slice(&push_frame("baseline", 2, 9, b""));
        let frames = parse_push_frames(&body).expect("two frames");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], ("dri".to_owned(), 1, 7, &b"abc"[..]));
        assert_eq!(frames[1], ("baseline".to_owned(), 2, 9, &b""[..]));
        assert_eq!(
            parse_push_frames(&[]).expect("empty body").len(),
            0,
            "an empty batch is structurally fine"
        );
        // Truncations anywhere are structural failures.
        for cut in 1..body.len() {
            let truncated = &body[..cut];
            if parse_push_frames(truncated).is_some() {
                // Only valid if the cut falls exactly on a frame boundary.
                assert_eq!(cut, push_frame("dri", 1, 7, b"abc").len(), "cut {cut}");
            }
        }
        // A traversal-shaped kind is rejected outright.
        assert!(parse_push_frames(&push_frame("..", 1, 7, b"abc")).is_none());
        // A length prefix promising more than the body holds.
        let mut overrun = push_frame("dri", 1, 7, b"abc");
        let len_at = 1 + 3 + 4 + 16;
        overrun[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_push_frames(&overrun).is_none());
    }

    #[test]
    fn record_paths_parse_strictly() {
        assert_eq!(
            parse_record_path("/record/dri/v1/00ff"),
            Some(("dri".to_owned(), 1, 0xff))
        );
        assert_eq!(
            parse_record_path(&format!("/record/baseline/v7/{:032x}", u128::MAX)),
            Some(("baseline".to_owned(), 7, u128::MAX))
        );
        for bad in [
            "/record/dri/v1",                                   // missing key
            "/record/dri/v1/00/extra",                          // trailing segment
            "/record/../v1/00",                                 // traversal
            "/record/dri/1/00",                                 // missing v prefix
            "/record/dri/vx/00",                                // non-numeric schema
            "/record/dri/v1/zz",                                // non-hex key
            "/record/dri/v1/000000000000000000000000000000001", // 33 hex chars
            "/record//v1/00",                                   // empty kind
            "/record/---/v1/00",                                // kind with no alphanumerics
        ] {
            assert_eq!(parse_record_path(bad), None, "{bad}");
        }
    }
}
