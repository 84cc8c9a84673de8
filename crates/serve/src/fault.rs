//! Deterministic fault injection for chaos-testing the service tier.
//!
//! A `DRI_FAULT` spec is a comma-separated list of clauses, each
//! `action:every[:arg]`, applied per **accepted connection** against a
//! monotonically increasing connection counter — the *N*-th connection
//! always suffers the same fate, so a chaos test that fails is
//! re-runnable bit-for-bit. Actions:
//!
//! | clause         | effect on every *every*-th connection                |
//! |----------------|------------------------------------------------------|
//! | `drop:N`       | close the socket without writing a response          |
//! | `delay:N:MS`   | sleep `MS` milliseconds before handling the request  |
//! | `503:N`        | answer `503 Service Unavailable` without routing     |
//! | `torn:N`       | send a head with the full `Content-Length` but only  |
//! |                | half the body, then close (a torn response)          |
//! | `crash:N`      | kill the whole process after reading the request —   |
//! |                | a journaled `batch-put` leaves a torn frame behind,  |
//! |                | nothing is acked (a `kill -9` mid-fsync)             |
//!
//! Example: `DRI_FAULT=drop:7,delay:5:40,torn:13` drops every 7th
//! connection, delays every 5th by 40 ms, and tears every 13th response.
//! Counting starts at connection 1, so `drop:7` first fires on the 7th —
//! a spec never kills the very first health check. Clauses are checked
//! in the order written; the first that fires wins (a connection suffers
//! at most one fault, except `delay`, which composes with later clauses
//! because delaying then answering is exactly its point).
//!
//! The faults exercise distinct defenses: `drop` and `delay` the
//! transport retry/backoff path, `503` the HTTP-level retry path, and
//! `torn` the `Content-Length` cross-check in the response reader. None
//! of those corrupt durable state — the server's writes stay atomic;
//! only the wire misbehaves. `crash` is the exception by design: it
//! exists to prove the group-commit journal's recovery contract, so it
//! deliberately leaves a torn, unacked journal frame on disk before
//! dying. Restart the server *without* the fault spec to recover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to do to one connection (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Close the socket before writing anything.
    Drop,
    /// Sleep this long, then handle the request normally (unless a later
    /// clause also fires).
    Delay(Duration),
    /// Answer `503 Service Unavailable` without routing.
    Error503,
    /// Write a head declaring the full body length, then only half the
    /// body.
    Torn,
    /// Read the request, tear a journal frame if one was being written,
    /// then `exit` the whole process without responding.
    Crash,
}

/// One parsed `action:every[:arg]` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultClause {
    action: FaultAction,
    /// Fires when `connection % every == 0`.
    every: u64,
}

/// A parsed `DRI_FAULT` spec plus the shared connection counter.
#[derive(Debug, Default)]
pub struct FaultSpec {
    clauses: Vec<FaultClause>,
    connections: AtomicU64,
}

impl FaultSpec {
    /// Parses a spec string. `None` with a reason on any malformed
    /// clause — a chaos run with a typo'd spec must fail loudly at
    /// startup, not silently run faultless.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut clauses = Vec::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let mut parts = clause.split(':');
            let action = parts.next().unwrap_or("");
            let every: u64 = parts
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("fault clause {clause:?}: need a period >= 1"))?;
            let arg = parts.next();
            if parts.next().is_some() {
                return Err(format!("fault clause {clause:?}: too many fields"));
            }
            let action = match (action, arg) {
                ("drop", None) => FaultAction::Drop,
                ("delay", Some(ms)) => {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("fault clause {clause:?}: bad delay ms"))?;
                    FaultAction::Delay(Duration::from_millis(ms))
                }
                ("503", None) => FaultAction::Error503,
                ("torn", None) => FaultAction::Torn,
                ("crash", None) => FaultAction::Crash,
                _ => {
                    return Err(format!(
                    "fault clause {clause:?}: want drop:N, delay:N:MS, 503:N, torn:N, or crash:N"
                ))
                }
            };
            clauses.push(FaultClause { action, every });
        }
        if clauses.is_empty() {
            return Err("empty fault spec".to_owned());
        }
        Ok(FaultSpec {
            clauses,
            connections: AtomicU64::new(0),
        })
    }

    /// Advances the connection counter and returns the faults that fire
    /// on this connection, in clause order. At most one non-delay action
    /// is returned (the first that fires); any delays that also fire
    /// precede it.
    pub fn next_connection(&self) -> Vec<FaultAction> {
        let n = self.connections.fetch_add(1, Ordering::Relaxed) + 1;
        let mut fired = Vec::new();
        for clause in &self.clauses {
            if !n.is_multiple_of(clause.every) {
                continue;
            }
            let is_delay = matches!(clause.action, FaultAction::Delay(_));
            fired.push(clause.action);
            if !is_delay {
                break;
            }
        }
        fired
    }

    /// Total connections counted so far (for `/stats`).
    pub fn connections_seen(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// The spec in canonical clause form, for the startup banner.
    pub fn describe(&self) -> String {
        let clauses: Vec<String> = self
            .clauses
            .iter()
            .map(|c| match c.action {
                FaultAction::Drop => format!("drop:{}", c.every),
                FaultAction::Delay(d) => format!("delay:{}:{}", c.every, d.as_millis()),
                FaultAction::Error503 => format!("503:{}", c.every),
                FaultAction::Torn => format!("torn:{}", c.every),
                FaultAction::Crash => format!("crash:{}", c.every),
            })
            .collect();
        clauses.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_actions_and_round_trips() {
        let spec = FaultSpec::parse("drop:7, delay:5:40,503:9,torn:13,crash:99").unwrap();
        assert_eq!(spec.describe(), "drop:7,delay:5:40,503:9,torn:13,crash:99");
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "",
            "drop",
            "drop:0",
            "drop:x",
            "drop:7:extra",
            "delay:5",
            "delay:5:ms",
            "503:1:2",
            "explode:3",
            "torn:",
            "crash:0",
            "crash:4:9",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn firing_is_deterministic_by_connection_counter() {
        let spec = FaultSpec::parse("drop:3,503:4").unwrap();
        let fates: Vec<Vec<FaultAction>> = (0..12).map(|_| spec.next_connection()).collect();
        for (i, fate) in fates.iter().enumerate() {
            let n = (i + 1) as u64;
            let expect = if n.is_multiple_of(3) {
                vec![FaultAction::Drop]
            } else if n.is_multiple_of(4) {
                vec![FaultAction::Error503]
            } else {
                vec![]
            };
            assert_eq!(*fate, expect, "connection {n}");
        }
        assert_eq!(spec.connections_seen(), 12);

        // An identical spec replays the identical fate sequence.
        let replay = FaultSpec::parse("drop:3,503:4").unwrap();
        let again: Vec<Vec<FaultAction>> = (0..12).map(|_| replay.next_connection()).collect();
        assert_eq!(fates, again);
    }

    #[test]
    fn delay_composes_with_a_following_action() {
        let spec = FaultSpec::parse("delay:2:5,drop:4").unwrap();
        assert_eq!(spec.next_connection(), vec![]);
        assert_eq!(
            spec.next_connection(),
            vec![FaultAction::Delay(Duration::from_millis(5))]
        );
        assert_eq!(spec.next_connection(), vec![]);
        assert_eq!(
            spec.next_connection(),
            vec![
                FaultAction::Delay(Duration::from_millis(5)),
                FaultAction::Drop
            ]
        );
    }
}
