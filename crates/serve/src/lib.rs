//! # dri-serve — the shared result-store service tier
//!
//! PR 2 made simulation results free *across processes sharing a
//! filesystem*; this crate makes them free **across machines**: a
//! dependency-free (std `TcpListener` only — the build environment is
//! offline) HTTP/1.1 service that serves one [`dri_store::ResultStore`]
//! root to many concurrent readers, plus the matching client
//! ([`client::RemoteStore`]) that `dri-experiments` wires into
//! `SimSession` as the tier between the local disk cache and a fresh
//! simulation (**memory → disk → remote → simulate**).
//!
//! Reads are open; **writes are opt-in and authenticated**. By default
//! the service is read-only — the single writer is whatever campaign
//! populates the store on the serving host, and workers only heal their
//! *local* stores. Started with a `DRI_TOKEN` shared secret, the service
//! additionally accepts **pushes** from trusted workers (`PUT
//! /record/...`, `POST /batch-put`), each request proven with a keyed
//! tag over its own method, path, and body (see [`auth`]) — which is
//! what turns a fleet of sweep workers plus one central host into a
//! shared memoization system: every grid point is simulated exactly once
//! fleet-wide.
//!
//! ## Endpoints
//!
//! | method + path | response |
//! |---|---|
//! | `GET /healthz` | `200 ok` — liveness probe |
//! | `GET /stats` | `200` JSON: disk usage, generation, traffic counters |
//! | `GET /metrics` | `200` Prometheus text exposition of the same counters |
//! | `GET /record/<kind>/v<schema>/<key>` | `200` raw record bytes, or `404` |
//! | `POST /batch` | `200` framed records for a list of keys (see below) |
//! | `PUT /record/<kind>/v<schema>/<key>` | `200` record accepted; `401`/`405`/`400` |
//! | `POST /batch-put` | `200` + one status byte per frame; `401`/`405`/`400` |
//! | `POST /lease/claim` | `200` `granted`/`wait`/`drained`; `401`/`405`/`400` |
//! | `POST /lease/renew` | `200` `renewed`, or `409` refused |
//! | `POST /lease/complete` | `200` `completed`, or `409` refused |
//!
//! `<kind>` is a record kind (`baseline`, `dri`, …), `<schema>` the
//! decimal schema version, `<key>` the 032-hex content key. A record is
//! validated (magic/schema/key/length/checksum) **before** it is served —
//! a corrupt file is a `404`, and the remote reader re-validates the
//! bytes it receives, so the validation chain is end-to-end: disk →
//! server → wire → client. Pushed records travel the same chain in
//! reverse: the worker frames the full checksummed record
//! ([`dri_store::frame_record`]), the server re-validates it against the
//! schema and key the request *names* (a mismatch fails the entry), and
//! the payload lands through the group-commit journal (below).
//!
//! ## One write path
//!
//! Every server writes records only through its [`dri_store::Journal`]
//! (see [`server`]). Binding takes the store root's journal lock, so run
//! one server per root: a second bind on a live root fails, naming it.
//!
//! ## The push protocol
//!
//! `PUT /record/<kind>/v<schema>/<key>` carries one complete record as
//! its body. `POST /batch-put` carries repeated frames of
//! `[kind_len:u8][kind][schema:u32 LE][key:u128 LE][record_len:u64 LE][record]`
//! (at most [`server::MAX_BATCH`] frames, each record at most
//! [`server::MAX_PUSH_RECORD`] bytes) and answers with one status byte
//! per frame, in order: `1` accepted, `0` rejected — a corrupt,
//! key-mismatched, or oversized record fails **only its own entry**.
//! Structural damage (a broken length prefix, an over-cap batch) is a
//! wholesale `400`; a missing or invalid request tag is a `401`; any
//! write to a server started without `DRI_TOKEN` is a `405`.
//!
//! ## The batch protocol
//!
//! `POST /batch` takes a plain-text body, one record reference per line —
//! `<kind> <schema> <key-hex>` — and answers with one binary frame per
//! requested line, in request order: a status byte (`1` found, `0`
//! miss), then a little-endian `u64` length, then that many raw record
//! bytes (length 0 on a miss). One round-trip fetches a whole manifest's
//! worth of results — this is what `SimSession::prefetch` rides to
//! replay an entire sweep grid in a single exchange.
//!
//! Limits: the server rejects more than [`server::MAX_BATCH`] references
//! per request (`400`); the client splits larger plans into chunks of
//! [`client::BATCH_CHUNK`] (< the server cap) and counts each exchange
//! in [`RemoteStats::batch_round_trips`]. A frame failing end-to-end
//! validation fails only its own entry; a truncated response fails the
//! entries after it; a transport failure fails the chunk and feeds the
//! circuit breaker. See `ARCHITECTURE.md` for the full wire schema.
//!
//! ## The campaign scheduler
//!
//! The `/lease/*` endpoints broker the store's durable work-unit lease
//! table ([`dri_store::lease`]) to `suite --steal` workers: claim →
//! simulate → push → complete, with heartbeat renewals mid-sweep and
//! expired leases reclaimed by any survivor. Bodies and responses are
//! plain `key=value` text lines; all three endpoints require the same
//! keyed request tag as the push path, so only trusted workers can
//! schedule. The lease TTL comes from `DRI_LEASE_TTL_MS` (see
//! [`config`]). Wire format details live in
//! `ARCHITECTURE.md` §Campaign scheduler.
//!
//! ## Fault injection
//!
//! For chaos tests, `DRI_FAULT` ([`fault::FaultSpec`]) makes the server
//! misbehave **deterministically by connection count**: drop
//! connections, delay handling, answer `503`, or tear responses
//! mid-body. Production servers never set it; CI's chaos job does, and
//! the client's retry/backoff plus `Content-Length` cross-check are the
//! defenses under test.
//!
//! ## Concurrency
//!
//! One front end on every platform: a blocking accept loop hands each
//! connection to a worker pool sized by `DRI_THREADS` (see
//! [`config`]), and applies backpressure by blocking once all
//! workers are busy and the small handoff queue is full.
//!
//! ## Raw bytes on the wire
//!
//! Bodies are never compressed. Fetches return the checksummed record
//! file as-is, and pushes carry the same bytes
//! ([`dri_store::frame_record`]); a write naming a body codec in the
//! `X-DRI-Encoding` header is answered `400 unsupported body encoding`.
//!
//! ## Sharding across a fleet
//!
//! One process serves one store; a *fleet* is N independent processes
//! plus client-side routing. [`ShardedStore`] consistent-hashes every
//! record key onto a deterministic [`dri_store::HashRing`] built from
//! `DRI_SHARDS=addr1,addr2,...`, replicating each record to
//! `DRI_REPLICAS` owners (see [`config`]) and failing reads over to
//! replicas when a shard dies — each shard keeps its own circuit
//! breaker, so one dead shard degrades only its own keys.

#![warn(missing_docs)]

pub mod auth;
pub mod client;
pub mod config;
pub mod fault;
pub mod http;
pub mod server;
pub mod sharded;
pub mod stats;

pub use client::{
    BatchEntry, LeaseClaim, LeaseError, PushOutcome, RemoteStats, RemoteStore, BATCH_CHUNK,
};
pub use config::FleetConfig;
pub use fault::FaultSpec;
pub use server::{JournalConfig, Server, DEFAULT_LEASE_TTL_MS};
pub use sharded::{ShardedStore, DEFAULT_REPLICAS};
pub use stats::ServeStats;
