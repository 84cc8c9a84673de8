//! # dri-store — the persistent simulation-result store
//!
//! PR 1's `SimSession` made repeated sweep points free *within* a process;
//! this crate makes them free *across* processes. It is a content-addressed,
//! versioned, on-disk cache of small binary records, designed around three
//! invariants:
//!
//! 1. **Stable keys.** Entries are addressed by a [`hash::KeyHasher`]
//!    digest (FNV-1a over a canonical little-endian field encoding) of
//!    everything that can influence a result's counters. The hash is a
//!    fixed algorithm with fixed constants — never `std`'s `Hasher`, whose
//!    output may change between compiler releases — so two processes (or
//!    two machines sharing a network mount) compute identical addresses
//!    for identical configurations.
//! 2. **Never trust the disk.** Every record carries a magic number, a
//!    schema version, its own key, its payload length, and a checksum
//!    ([`store::ResultStore::load`] verifies all five). A truncated,
//!    corrupted, or stale-schema file is treated as a miss — counted in
//!    [`store::StoreStats::corrupt`] — and the caller recomputes and
//!    overwrites it. A load can therefore *never* poison a result.
//! 3. **Concurrent writers are safe.** Writes go to a unique temp file in
//!    the entry's own directory and are published with an atomic
//!    `rename`, so readers observe either the old complete record or the
//!    new complete record, and racing writers of the same (deterministic)
//!    entry simply overwrite each other with identical bytes.
//!
//! The store knows nothing about simulations: callers bring their own key
//! schema and payload codec (see [`codec::Encoder`]/[`codec::Decoder`]).
//! `dri-experiments` layers its run-result schema on top and wires the
//! store into `SimSession` as the tier between the in-memory maps and a
//! fresh simulation.
//!
//! ## Layout on disk
//!
//! ```text
//! <root>/<kind>/v<schema>/<hh>/<032-hex-key>.bin
//! ```
//!
//! where `kind` names the record type (`"baseline"`, `"dri"`, …),
//! `v<schema>` isolates incompatible encodings from each other, and `hh`
//! (the top byte of the key, in hex) shards entries across 256
//! subdirectories so no single directory grows unboundedly.

//! ## GC and compaction
//!
//! Stores that absorb whole campaign sweeps are bounded by
//! [`store::ResultStore::gc`] ([`gc`]): age and size budgets, last-access
//! generation stamps in `.gen` sidecars, and tombstone-then-unlink
//! eviction that concurrent readers observe as an ordinary miss (they
//! recompute and heal — a torn read is impossible). See the [`gc`] module
//! docs.
//!
//! ## Serving a store over the wire
//!
//! [`store::validate_record`] and
//! [`store::ResultStore::load_record_bytes`] expose the raw-record
//! serving path used by the `dri-serve` crate: the full checksummed
//! record travels to the remote reader, which re-validates it end-to-end
//! before trusting a byte. The reverse direction — a worker *pushing* a
//! locally computed result to a central host — uses
//! [`store::frame_record`] to build the identical self-validating record
//! for the wire; the receiving server re-runs [`store::validate_record`]
//! and lands the payload through the same atomic temp+rename write path.
//!
//! ## Planning lookups in bulk
//!
//! [`plan::KeyPlan`] enumerates — ordered and deduplicated — the record
//! grid a campaign is about to need, so a bulk resolver (the prefetch
//! pass in `dri-experiments`) can sweep the disk once and fetch every
//! remote remainder in a single chunked `POST /batch` round-trip instead
//! of paying one round-trip per grid point.
//!
//! ## Scheduling a campaign across a fleet
//!
//! [`lease::LeaseBroker`] keeps a durable table of expiring, generation-
//! stamped work-unit leases under `<root>/leases/`, published with the
//! same atomic temp+rename idiom as records. `dri-serve` brokers it over
//! authenticated `/lease/*` endpoints so any number of workers can
//! claim → simulate → push → complete a campaign's units, with a dead
//! worker's expired leases reclaimed (and re-executed bit-identically)
//! by the survivors. Lease files are invisible to the GC walker, so
//! `suite gc` never disturbs a live campaign.
//!
//! ## Group-commit journal
//!
//! [`journal::Journal`] is the server-side write path's fast lane: a
//! whole `batch-put` lands as **one** checksummed frame appended to
//! `<root>/journal/seg-*.wal` with **one** fsync, is acked only after
//! that fsync, and is readable from the journal index immediately; a
//! background compaction pass drains sealed segments into the ordinary
//! record files. Torn or corrupted frames are dropped whole at
//! recovery — an unacked batch can never surface a partial record.
//! Live `.wal` segments are invisible to the GC walker; drained
//! `.wal.compacted` debris is swept. A root has at most one live
//! journal: `Journal::open` locks `<root>/journal/LOCK`.
//!
//! ## One encoding
//!
//! Records are stored and sent uncompressed. A record file and a wire
//! record are the same checksummed `DRIS` bytes, so a loaded file is
//! served as-is; a journal frame carries raw payloads under its own
//! checksum. Records are small fixed-width counter structs (quick
//! figure3 averages 222 B) and each one fills a whole disk block anyway,
//! so the store carries no compression codec.

#![warn(missing_docs)]

pub mod codec;
pub mod gc;
pub mod hash;
pub mod journal;
pub mod lease;
pub mod plan;
pub mod ring;
pub mod store;

pub use codec::{Decoder, Encoder};
pub use gc::{DiskUsage, GcPolicy, GcReport};
pub use hash::KeyHasher;
pub use journal::{Journal, JournalEntry, JournalOptions, JournalStats};
pub use lease::{
    ClaimOutcome, Lease, LeaseBroker, LeaseCounts, LeaseGrant, LeaseRefusal, LeaseState,
};
pub use plan::{KeyPlan, KeyRef};
pub use ring::HashRing;
pub use store::{frame_record, validate_record, ResultStore, StoreStats};
