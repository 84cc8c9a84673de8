//! The server's counters, declared once. [`SCHEMA`] lists every leaf of
//! the `GET /stats` document with its section, its JSON key and the
//! per-server registry metric behind it. `/stats` walks it over the
//! registry, `/metrics` renders the same registry after the same
//! refresh, [`crate::Server::stats`] returns the same values in process,
//! and [`crate::RemoteStore::server_stats`] parses `/stats` back into the
//! same [`ServeStats`]. The request path increments typed [`Counter`]
//! handles, lock-free and without a name lookup.

use std::fmt::Write as _;

use dri_store::gc::DiskUsage;
use dri_store::{JournalStats, StoreStats};
use dri_telemetry::{Counter, Histogram, Registry};

/// One leaf of the `GET /stats` document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leaf {
    /// Key of the nested object holding the leaf (`leases`, `store`,
    /// `journal`, `ring`); `""` for the top level.
    pub section: &'static str,
    /// The leaf's key within its section.
    pub key: &'static str,
    /// The per-server registry metric the value is read from; `None` for
    /// the two flags, `writable` and `journal.enabled`.
    pub metric: Option<&'static str>,
}

/// What one refresh reads besides the request-path counters.
pub(crate) struct Sample {
    pub usage: DiskUsage,
    pub generation: u64,
    pub store: StoreStats,
    pub journal: JournalStats,
    /// `(shards, replicas)`; zeros outside a fleet.
    pub ring: (u64, u64),
    pub writable: bool,
}

/// Declares [`ServeStats`], [`SCHEMA`] and [`AtomicServeStats`] from one
/// row per leaf, in document order: `field: type = "section" "key"`,
/// then the leaf's kind. A `counter "metric" "help"` becomes a
/// [`Counter`] field of [`AtomicServeStats`] that the request path
/// increments; a `gauge[|sample| value] "metric" "help"` is set at each
/// refresh; a `flag[|sample| value] "help"` has no metric. The help text
/// is also the field's doc, which any doc lines on the row continue.
macro_rules! stats_schema {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty = $section:literal $key:literal
            $kind:ident $([$($source:tt)*])? $($text:literal)+;
    )*) => {
        /// The whole `GET /stats` document as a typed value, one field per
        /// leaf in document order: what [`crate::Server::stats`] returns in
        /// process and [`crate::RemoteStore::server_stats`] parses off the
        /// wire.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServeStats {
            $(#[doc = stats_schema!(@help $($text)+)] $(#[$doc])* pub $field: $ty,)*
        }

        /// Every leaf of the `GET /stats` document, in document order.
        pub const SCHEMA: &[Leaf] = &[$(
            Leaf { section: $section, key: $key, metric: stats_schema!(@metric $($text)+) },
        )*];

        impl ServeStats {
            /// Each leaf's JSON value, in [`SCHEMA`] order.
            fn values(&self) -> [String; SCHEMA.len()] {
                [$(self.$field.to_string(),)*]
            }

            /// Parses a `GET /stats` body by walking [`SCHEMA`]. Each leaf
            /// is looked up under its own section, so `store.hits` can never
            /// be read as `hits`. `None` when the body is not a stats
            /// document or lacks a leaf; keys it does not know are ignored.
            pub(crate) fn from_json(doc: &str) -> Option<ServeStats> {
                let leaves = scan(doc)?;
                let get = |s: &str, k: &str| leaves.iter().find(|l| (l.0, l.1) == (s, k));
                Some(ServeStats { $($field: get($section, $key)?.2.parse().ok()?,)* })
            }
        }

        stats_schema!(@handles [] $(($field $kind $($text)+))*);

        impl AtomicServeStats {
            /// Sets every gauge from `sample`, then reads each leaf back:
            /// metric leaves out of the registry, flags from `sample`.
            pub(crate) fn refresh(&self, sample: &Sample) -> ServeStats {
                ServeStats {
                    $($field: stats_schema!(
                        @read self sample $kind [$($($source)*)?] $($text)+
                    ),)*
                }
            }
        }
    };
    (@help $help:literal) => { $help };
    (@help $metric:literal $help:literal) => { $help };
    (@metric $help:literal) => { None };
    (@metric $metric:literal $help:literal) => { Some($metric) };
    (@handles [$(($field:ident $metric:literal $help:literal))*]) => {
        /// The request path's handles on one server's [`Registry`]: a
        /// [`Counter`] per counter leaf, named like its [`ServeStats`] field,
        /// and the latency histogram. Per-server, so test servers stay apart.
        #[derive(Debug)]
        pub(crate) struct AtomicServeStats {
            pub registry: Registry,
            $(pub $field: Counter,)*
            /// Wall time from request-parsed to response-built, per request.
            pub request_latency: Histogram,
        }

        impl AtomicServeStats {
            /// A fresh registry with every counter leaf and the latency
            /// histogram registered (gauges register at the first refresh).
            pub(crate) fn new() -> AtomicServeStats {
                let registry = Registry::new();
                AtomicServeStats {
                    $($field: registry.counter($metric, $help),)*
                    request_latency: registry.histogram(
                        "dri_serve_request_latency_ns",
                        "request handling latency, parse to response-built",
                    ),
                    registry,
                }
            }
        }
    };
    (@handles [$($done:tt)*] ($field:ident counter $($text:literal)+) $($rest:tt)*) => {
        stats_schema!(@handles [$($done)* ($field $($text)+)] $($rest)*);
    };
    (@handles [$($done:tt)*] $row:tt $($rest:tt)*) => {
        stats_schema!(@handles [$($done)*] $($rest)*);
    };
    (@read $stats:ident $sample:ident flag [|$s:ident| $value:expr] $help:literal) => {{
        let $s = $sample;
        $value
    }};
    (@read $stats:ident $sample:ident gauge [|$s:ident| $value:expr] $($text:literal)+) => {{
        let $s = $sample;
        $stats.registry.gauge($($text),+).set($value);
        stats_schema!(@read $stats $sample counter [] $($text)+)
    }};
    (@read $stats:ident $sample:ident counter [] $metric:literal $help:literal) => {
        $stats.registry.value($metric).expect("every schema metric is registered")
    };
}

// Top-level leaves come first: `to_json` opens each section once, at
// its first leaf.
stats_schema! {
    records: u64 = "" "records" gauge[|s| s.usage.records]
        "dri_serve_store_records" "validated records on disk (cached walk)";
    bytes: u64 = "" "bytes" gauge[|s| s.usage.bytes]
        "dri_serve_store_bytes" "record file bytes on disk (cached walk)";
    generation: u64 = "" "generation" gauge[|s| s.generation]
        "dri_serve_store_generation" "current GC generation";
    writable: bool = "" "writable" flag[|s| s.writable]
        "whether the write path is enabled (the server holds a `DRI_TOKEN`)";
    requests: u64 = "" "requests" counter
        "dri_serve_requests_total" "requests parsed (all endpoints)";
    hits: u64 = "" "hits" counter
        "dri_serve_hits_total" "records served, singly or in batch frames";
    /// Absent and corrupt records alike.
    misses: u64 = "" "misses" counter
        "dri_serve_misses_total" "record lookups answered 404 / miss-framed";
    bad_requests: u64 = "" "bad_requests" counter
        "dri_serve_bad_requests_total" "requests rejected as malformed";
    batch_requests: u64 = "" "batch_requests" counter
        "dri_serve_batch_requests_total" "POST /batch requests handled";
    bytes_served: u64 = "" "bytes_served" counter
        "dri_serve_bytes_served_total" "response body bytes written";
    /// `PUT /record/...` and `POST /batch-put`, authorized or not: the
    /// server-side mirror of the client's `push_round_trips`.
    push_round_trips: u64 = "" "push_round_trips" counter
        "dri_serve_push_round_trips_total" "write exchanges routed";
    records_accepted: u64 = "" "records_accepted" counter
        "dri_serve_records_accepted_total" "records landed through the write path";
    /// Failed authentication, writes to a read-only server, and corrupt,
    /// key-mismatched or oversized frames (per entry for `/batch-put`).
    writes_rejected: u64 = "" "writes_rejected" counter
        "dri_serve_writes_rejected_total" "write attempts rejected";
    faults_injected: u64 = "" "faults_injected" counter
        "dri_serve_faults_injected_total" "DRI_FAULT chaos actions fired (0 in production)";
    lease_claims: u64 = "leases" "claims" counter
        "dri_serve_lease_claims_total" "well-formed POST /lease/claim requests";
    lease_granted: u64 = "leases" "granted" counter
        "dri_serve_lease_granted_total" "claims answered with a unit";
    /// A dead worker's unit handed to a survivor.
    lease_reclaimed: u64 = "leases" "reclaimed" counter
        "dri_serve_lease_reclaimed_total" "grants that took over an expired lease";
    lease_renewed: u64 = "leases" "renewed" counter
        "dri_serve_lease_renewed_total" "successful heartbeats";
    lease_completed: u64 = "leases" "completed" counter
        "dri_serve_lease_completed_total" "units marked done";
    /// Renew/complete attempts refused with `409`, unknown units included.
    lease_rejected: u64 = "leases" "rejected" counter
        "dri_serve_lease_rejected_total" "409s: stale gen / wrong owner / expired";
    store_hits: u64 = "store" "hits" gauge[|s| s.store.hits]
        "dri_serve_store_hits" "records the served store loaded and validated";
    store_misses: u64 = "store" "misses" gauge[|s| s.store.misses]
        "dri_serve_store_misses" "store lookups that found no file";
    store_corrupt: u64 = "store" "corrupt" gauge[|s| s.store.corrupt]
        "dri_serve_store_corrupt" "store files rejected as corrupt";
    journal_enabled: bool = "journal" "enabled" flag[|_s| true]
        "always true: every server runs the group-commit journal";
    journal_depth: u64 = "journal" "depth" gauge[|s| s.journal.depth]
        "dri_serve_journal_depth" "records acked into the journal, not yet compacted";
    journal_batches: u64 = "journal" "batches" gauge[|s| s.journal.batches]
        "dri_serve_journal_batches" "group-commit batches appended since open";
    journal_appended: u64 = "journal" "appended" gauge[|s| s.journal.appended]
        "dri_serve_journal_appended" "records appended to the journal since open";
    journal_fsyncs: u64 = "journal" "fsyncs" gauge[|s| s.journal.fsyncs]
        "dri_serve_journal_fsyncs" "segment fsyncs paid since open (one per batch)";
    journal_compactions: u64 = "journal" "compactions" gauge[|s| s.journal.compactions]
        "dri_serve_journal_compactions" "compaction passes that drained at least one record";
    journal_compacted: u64 = "journal" "compacted" gauge[|s| s.journal.compacted]
        "dri_serve_journal_compacted" "records drained from the journal into the store";
    ring_shards: u64 = "ring" "shards" gauge[|s| s.ring.0]
        "dri_serve_ring_shards" "fleet size from DRI_SHARDS (0 = not in a fleet)";
    ring_replicas: u64 = "ring" "replicas" gauge[|s| s.ring.1]
        "dri_serve_ring_replicas" "replication factor from DRI_REPLICAS";
}

impl ServeStats {
    /// Renders the `GET /stats` body: one JSON object whose sections nest
    /// one level deep, every value an unsigned integer or a bare boolean
    /// (so escaping never arises), and a trailing newline. ARCHITECTURE.md
    /// §The counter vocabulary documents it for dashboards and CI greps.
    pub(crate) fn to_json(self) -> Vec<u8> {
        let mut json = String::from("{");
        let (mut section, mut close) = ("", "");
        for (i, (leaf, value)) in SCHEMA.iter().zip(self.values()).enumerate() {
            if leaf.section != section {
                section = leaf.section;
                let _ = write!(json, "{close},\"{section}\":{{");
                close = "}";
            } else if i > 0 {
                json.push(',');
            }
            let _ = write!(json, "\"{}\":{value}", leaf.key);
        }
        let _ = writeln!(json, "{close}}}");
        json.into_bytes()
    }
}

/// Splits a JSON object shaped like the `/stats` body (no whitespace,
/// scalar values, objects nested at most one level) into
/// `(section, key, value)` triples. `None` when it is not an object.
fn scan(doc: &str) -> Option<Vec<(&str, &str, &str)>> {
    let body = doc.trim_end().strip_prefix('{')?.strip_suffix('}')?;
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
        let (key, value) = item.split_once(':')?;
        leaves.push((section, key.trim_matches('"'), value.trim_end_matches('}')));
        if value.ends_with('}') {
            section = "";
        }
    }
    Some(leaves)
}
