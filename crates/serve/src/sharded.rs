//! The sharded fleet client: routes record traffic across N `dri-serve`
//! processes by consistent-hashing each record key onto a
//! [`HashRing`].
//!
//! A fleet is named by `DRI_SHARDS=addr1,addr2,...`; every record key
//! has `DRI_REPLICAS` owners (default [`DEFAULT_REPLICAS`]) in
//! deterministic failover order (see [`crate::config`]).
//! Because the ring canonicalizes membership, every worker in a fleet —
//! whatever order its env var lists the shards in — routes every key to
//! the same servers.
//!
//! - **Reads** go to each key's primary first; entries whose shard
//!   *failed* (transport error, breaker open — not a definitive miss)
//!   are retried against successive replicas, so a SIGKILLed shard
//!   degrades to replica reads instead of re-simulation.
//! - **Writes** are replicated to *all* of a key's owners, which is
//!   what makes the read-side failover sound: any single surviving
//!   owner can serve the record.
//! - **Lease traffic** (the campaign control plane) has no record key;
//!   it routes by hashing the campaign name so all workers of one
//!   campaign agree on one scheduler shard.
//!
//! Each shard keeps its own [`RemoteStore`] — and therefore its own
//! circuit breaker, retry budget, and negative-result accounting — so
//! one dead shard cannot poison the client's view of the others. A
//! single `dri-serve` instance is just the degenerate one-shard fleet;
//! [`ShardedStore::single`] wraps one [`RemoteStore`] as such.

use dri_store::HashRing;

use crate::client::{BatchEntry, PushOutcome, RemoteStats, RemoteStore};
use crate::stats::ServeStats;

/// Replication factor when [`crate::config::REPLICAS_ENV`] is unset:
/// every record lives on two shards, so any single shard death keeps
/// every record readable.
pub const DEFAULT_REPLICAS: usize = 2;

/// A client for a consistent-hashed fleet of record servers.
///
/// Shard handles are indexed in the ring's canonical (sorted,
/// deduplicated) order; all routing is a pure function of the shard
/// set and the key.
#[derive(Debug)]
pub struct ShardedStore {
    ring: HashRing,
    /// One client per shard, in `ring.shards()` order.
    shards: Vec<RemoteStore>,
}

impl ShardedStore {
    /// Builds a fleet client over `shards` with `replicas` owners per
    /// key, signing pushes with `token` on every shard. Membership is
    /// canonicalized by the ring; `Err` when no shard survives.
    pub fn new<I, S>(shards: I, replicas: usize, token: Option<String>) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let ring = HashRing::new(shards, replicas)?;
        let shards = ring
            .shards()
            .iter()
            .map(|addr| RemoteStore::with_token(addr.clone(), token.clone()))
            .collect();
        Ok(ShardedStore { ring, shards })
    }

    /// Wraps one existing client as a single-shard fleet. Every key has
    /// exactly one owner, so routing degenerates to pass-through and
    /// the single-remote protocol is unchanged.
    pub fn single(remote: RemoteStore) -> Self {
        let ring =
            HashRing::new([remote.addr()], 1).expect("a client always has a non-empty address");
        ShardedStore {
            ring,
            shards: vec![remote],
        }
    }

    /// The per-shard clients, in the ring's canonical order.
    pub fn shards(&self) -> &[RemoteStore] {
        &self.shards
    }

    /// The routing ring (canonical membership, replica factor).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Whether this client actually fans out (more than one shard).
    pub fn is_sharded(&self) -> bool {
        self.shards.len() > 1
    }

    /// The fleet described for banners: the single address, or
    /// `addr1,addr2,... (xR)` for a real fleet.
    pub fn describe(&self) -> String {
        if self.is_sharded() {
            format!(
                "{} (x{})",
                self.ring.shards().join(","),
                self.ring.replicas()
            )
        } else {
            self.shards[0].addr().to_owned()
        }
    }

    /// Whether any shard still has pushes enabled (a definitive auth
    /// rejection latches per shard).
    pub fn is_push_disabled(&self) -> bool {
        self.shards.iter().all(RemoteStore::is_push_disabled)
    }

    /// Whether every shard's circuit breaker has opened — the whole
    /// remote tier is effectively gone for this process.
    pub fn is_disabled(&self) -> bool {
        self.shards.iter().all(RemoteStore::is_disabled)
    }

    /// Whether the clients hold a write-path secret.
    pub fn has_token(&self) -> bool {
        self.shards.iter().any(RemoteStore::has_token)
    }

    /// The shard that schedules `campaign`'s leases: all record-plane
    /// routing is per-key, but the lease control plane needs every
    /// worker of one campaign talking to one scheduler, so it routes by
    /// the campaign name.
    pub fn lease_shard(&self, campaign: &str) -> &RemoteStore {
        &self.shards[self.ring.owner_indices_for_str(campaign)[0]]
    }

    /// The primary owner of `key`.
    pub fn primary_for(&self, key: u128) -> &RemoteStore {
        &self.shards[self.ring.primary(key)]
    }

    /// Pushes one record to **all** of `key`'s owners, merging the
    /// per-owner outcomes ([`PushOutcome::Accepted`] beats
    /// [`PushOutcome::Rejected`] beats [`PushOutcome::Failed`]) — a
    /// record is "pushed" if at least one owner holds it.
    pub fn push(&self, kind: &str, schema: u32, key: u128, record: &[u8]) -> PushOutcome {
        let mut merged = PushOutcome::Failed;
        for idx in self.ring.owner_indices(key) {
            merged = merge_push(merged, self.shards[idx].push(kind, schema, key, record));
        }
        merged
    }

    /// [`RemoteStore::fetch_batch`] across the fleet: entries are split
    /// by primary owner, fetched per shard in chunked `POST /batch`
    /// round-trips, and entries whose shard *failed* retry against
    /// successive replicas. Results come back in request order.
    pub fn fetch_batch(&self, entries: &[(&str, u32, u128)]) -> Vec<Option<Vec<u8>>> {
        self.fetch_batch_outcomes(entries, crate::client::BATCH_CHUNK)
            .0
            .into_iter()
            .map(BatchEntry::into_payload)
            .collect()
    }

    /// [`Self::fetch_batch`] with full per-entry outcomes and the total
    /// `POST /batch` round-trips this call put on the wire (summed over
    /// shards and failover passes).
    ///
    /// Failover is per entry and definitive-answer-aware: a
    /// [`BatchEntry::Miss`] is the server *answering* (writes replicate
    /// to every owner, so one owner's miss is the fleet's miss), only a
    /// [`BatchEntry::Failed`] — transport failure, open breaker, failed
    /// validation — moves an entry to its next replica.
    pub fn fetch_batch_outcomes(
        &self,
        entries: &[(&str, u32, u128)],
        chunk: usize,
    ) -> (Vec<BatchEntry>, u64) {
        if entries.is_empty() {
            return (Vec::new(), 0);
        }
        if !self.is_sharded() {
            return self.shards[0].fetch_batch_outcomes(entries, chunk);
        }
        let owners: Vec<Vec<usize>> = entries
            .iter()
            .map(|&(_, _, key)| self.ring.owner_indices(key))
            .collect();
        let mut results: Vec<BatchEntry> = vec![BatchEntry::Failed; entries.len()];
        let mut round_trips = 0;
        // Depth 0 asks every entry's primary; depth d retries entries
        // still Failed against their d-th replica.
        let max_depth = self.ring.replicas();
        let mut pending: Vec<usize> = (0..entries.len()).collect();
        for depth in 0..max_depth {
            if pending.is_empty() {
                break;
            }
            // Group this pass's entries by the shard asked at `depth`.
            let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
            for &entry_idx in &pending {
                if let Some(&shard_idx) = owners[entry_idx].get(depth) {
                    per_shard[shard_idx].push(entry_idx);
                }
            }
            for (shard_idx, entry_indices) in per_shard.into_iter().enumerate() {
                if entry_indices.is_empty() {
                    continue;
                }
                let subset: Vec<(&str, u32, u128)> =
                    entry_indices.iter().map(|&i| entries[i]).collect();
                let (outcomes, trips) = self.shards[shard_idx].fetch_batch_outcomes(&subset, chunk);
                round_trips += trips;
                for (&entry_idx, outcome) in entry_indices.iter().zip(outcomes) {
                    results[entry_idx] = outcome;
                }
            }
            pending.retain(|&i| matches!(results[i], BatchEntry::Failed));
        }
        (results, round_trips)
    }

    /// [`RemoteStore::push_batch`] across the fleet: each record goes
    /// to **all** of its owners (split into per-shard `POST /batch-put`
    /// batches), outcomes merged per entry as in [`Self::push`].
    /// Returns outcomes in request order plus total round-trips.
    pub fn push_batch(&self, entries: &[(&str, u32, u128, &[u8])]) -> (Vec<PushOutcome>, u64) {
        self.push_batch_chunked(entries, crate::client::BATCH_CHUNK)
    }

    /// [`Self::push_batch`] with an explicit chunk size.
    pub fn push_batch_chunked(
        &self,
        entries: &[(&str, u32, u128, &[u8])],
        chunk: usize,
    ) -> (Vec<PushOutcome>, u64) {
        if entries.is_empty() {
            return (Vec::new(), 0);
        }
        if !self.is_sharded() {
            return self.shards[0].push_batch_chunked(entries, chunk);
        }
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (entry_idx, &(_, _, key, _)) in entries.iter().enumerate() {
            for shard_idx in self.ring.owner_indices(key) {
                per_shard[shard_idx].push(entry_idx);
            }
        }
        let mut merged: Vec<PushOutcome> = vec![PushOutcome::Failed; entries.len()];
        let mut round_trips = 0;
        for (shard_idx, entry_indices) in per_shard.into_iter().enumerate() {
            if entry_indices.is_empty() {
                continue;
            }
            let subset: Vec<(&str, u32, u128, &[u8])> =
                entry_indices.iter().map(|&i| entries[i]).collect();
            let (outcomes, trips) = self.shards[shard_idx].push_batch_chunked(&subset, chunk);
            round_trips += trips;
            for (&entry_idx, outcome) in entry_indices.iter().zip(outcomes) {
                merged[entry_idx] = merge_push(merged[entry_idx], outcome);
            }
        }
        (merged, round_trips)
    }

    /// Fleet-wide traffic counters: the field-wise sum over shards.
    pub fn stats(&self) -> RemoteStats {
        self.shards.iter().map(RemoteStore::stats).sum()
    }

    /// Per-shard traffic counters, `(addr, stats)` in ring order.
    pub fn shard_stats(&self) -> Vec<(String, RemoteStats)> {
        self.shards
            .iter()
            .map(|shard| (shard.addr().to_owned(), shard.stats()))
            .collect()
    }

    /// Scrapes every shard's `GET /stats`, `(addr, stats)` in ring
    /// order (`None` per shard on transport failure).
    pub fn server_stats_all(&self) -> Vec<(String, Option<ServeStats>)> {
        self.shards
            .iter()
            .map(|shard| (shard.addr().to_owned(), shard.server_stats()))
            .collect()
    }
}

impl From<RemoteStore> for ShardedStore {
    fn from(remote: RemoteStore) -> Self {
        ShardedStore::single(remote)
    }
}

/// `Accepted` beats `Rejected` beats `Failed`: a record is safe once
/// *any* owner holds it; a definitive rejection outranks an unknown.
fn merge_push(a: PushOutcome, b: PushOutcome) -> PushOutcome {
    use PushOutcome::{Accepted, Failed, Rejected};
    match (a, b) {
        (Accepted, _) | (_, Accepted) => Accepted,
        (Rejected, _) | (_, Rejected) => Rejected,
        (Failed, Failed) => Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_a_one_shard_fleet() {
        let store = ShardedStore::single(RemoteStore::new("127.0.0.1:7171"));
        assert!(!store.is_sharded());
        assert_eq!(store.ring().replicas(), 1);
        assert_eq!(store.describe(), "127.0.0.1:7171");
        assert_eq!(store.primary_for(42).addr(), "127.0.0.1:7171");
    }

    #[test]
    fn shard_handles_follow_ring_order() {
        let store = ShardedStore::new(["b:2", "a:1", "c:3"], 2, None).unwrap();
        let addrs: Vec<&str> = store.shards().iter().map(RemoteStore::addr).collect();
        assert_eq!(addrs, ["a:1", "b:2", "c:3"]);
        assert!(store.is_sharded());
        assert_eq!(store.describe(), "a:1,b:2,c:3 (x2)");
        for key in 0..64u128 {
            let primary = store.primary_for(key).addr();
            assert_eq!(primary, store.ring().owners(key)[0]);
        }
    }

    #[test]
    fn lease_routing_is_stable_under_reordering() {
        let a = ShardedStore::new(["a:1", "b:2", "c:3"], 2, None).unwrap();
        let b = ShardedStore::new(["c:3", "a:1", "b:2"], 2, None).unwrap();
        assert_eq!(
            a.lease_shard("figure3").addr(),
            b.lease_shard("figure3").addr()
        );
    }

    #[test]
    fn merge_push_prefers_definitive_success() {
        use PushOutcome::{Accepted, Failed, Rejected};
        assert_eq!(merge_push(Failed, Accepted), Accepted);
        assert_eq!(merge_push(Rejected, Accepted), Accepted);
        assert_eq!(merge_push(Failed, Rejected), Rejected);
        assert_eq!(merge_push(Failed, Failed), Failed);
    }
}
