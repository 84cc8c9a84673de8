//! The one grammar every `DRI_*` setting parses through, and the
//! settings a serve fleet shares.
//!
//! Each setting is parsed once per process from an explicit list of
//! `(name, value)` pairs ([`FleetConfig::from_vars`]);
//! [`FleetConfig::from_env`] just passes in the process environment.
//! Four value kinds cover every setting:
//!
//! * *switch* — `on`/`off`, `1`/`0`, `true`/`false`, `yes`/`no`, trimmed
//!   and case-insensitive ([`switch`]);
//! * *count* — a positive integer;
//! * *address list* — comma-separated `host:port` entries, an `http://`
//!   prefix accepted per entry;
//! * *text* — a plain string, trimmed.
//!
//! An empty value is the same as an unset one. The parser never prints:
//! a malformed environment value comes back as a warning and the setting
//! keeps its default, and the caller prints the warnings once. Stricter
//! sources layered on top (a `suite` manifest, the command line) call
//! [`FleetConfig::set`] and turn the same parse errors into hard errors.

use std::sync::OnceLock;

use dri_store::{HashRing, ResultStore};

use crate::server::DEFAULT_LEASE_TTL_MS;
use crate::sharded::{ShardedStore, DEFAULT_REPLICAS};

/// The result-store root (*text*). Unset disables the disk tier, which
/// keeps tests hermetic by default.
pub const STORE_ENV: &str = "DRI_STORE";
/// The shared write-path secret (*text*). Unset on the server means
/// writes are disabled entirely (`405`); unset on a worker means pushes
/// are rejected by the server (`401`).
pub const TOKEN_ENV: &str = "DRI_TOKEN";
/// Worker threads for simulation fan-outs and the server's connection
/// pool (*count*; default: the machine's available parallelism).
pub const THREADS_ENV: &str = "DRI_THREADS";
/// The serve fleet (*address list*). Unset = no remote tier; one entry
/// is a single `dri-serve` instance.
pub const SHARDS_ENV: &str = "DRI_SHARDS";
/// Owners per record key in the fleet (*count*, clamped to the fleet
/// size; default [`DEFAULT_REPLICAS`]).
pub const REPLICAS_ENV: &str = "DRI_REPLICAS";
/// The lease TTL a server grants `--steal` workers, in milliseconds
/// (*count*; default [`DEFAULT_LEASE_TTL_MS`]).
pub const LEASE_TTL_ENV: &str = "DRI_LEASE_TTL_MS";
/// The server's chaos spec (*text*, parsed by
/// [`crate::FaultSpec::parse`] at startup, where a malformed spec is
/// fatal). Unset = no faults, the production default.
pub const FAULT_ENV: &str = "DRI_FAULT";

/// Every variable [`FleetConfig`] parses.
pub const VARS: [&str; 7] = [
    STORE_ENV,
    TOKEN_ENV,
    THREADS_ENV,
    SHARDS_ENV,
    REPLICAS_ENV,
    LEASE_TTL_ENV,
    FAULT_ENV,
];

/// Parses a *switch*.
pub fn switch(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" | "yes" => Ok(true),
        "off" | "0" | "false" | "no" => Ok(false),
        _ => Err(format!("expected on/off, got `{}`", value.trim())),
    }
}

/// Parses a *count*: a positive integer.
fn count(value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("expected a positive integer, got `{}`", value.trim()))
}

/// Parses an *address list* into its `host:port` entries, in the order
/// written. `Err` when no entry survives or any entry lacks a
/// `host:port` shape.
fn address_list(value: &str) -> Result<Vec<String>, String> {
    let shards: Vec<String> = value
        .split(',')
        .map(|entry| {
            let entry = entry.trim();
            entry
                .strip_prefix("http://")
                .unwrap_or(entry)
                .trim_end_matches('/')
                .to_owned()
        })
        .filter(|entry| !entry.is_empty())
        .collect();
    if shards.is_empty() {
        return Err("no shard addresses".to_owned());
    }
    for shard in &shards {
        if !shard.contains(':') {
            return Err(format!("shard {shard:?} is not host:port"));
        }
    }
    Ok(shards)
}

/// Parses a *text*; `None` when it is empty.
fn text(value: &str) -> Option<String> {
    Some(value.trim().to_owned()).filter(|v| !v.is_empty())
}

/// Applies every pair whose name `known` accepts through `set`, skipping
/// empty values, and returns one warning per value `set` rejected — the
/// environment's failure rule: warn and keep the default.
pub fn apply_vars(
    vars: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    known: impl Fn(&str) -> bool,
    mut set: impl FnMut(&str, &str) -> Result<(), String>,
) -> Vec<String> {
    let mut warnings = Vec::new();
    for (name, value) in vars {
        let (name, value) = (name.as_ref(), value.as_ref());
        if !known(name) || value.trim().is_empty() {
            continue;
        }
        if let Err(why) = set(name, value) {
            warnings.push(format!(
                "ignoring {name}={value:?} ({why}); using the default"
            ));
        }
    }
    warnings
}

/// The process environment as `(name, value)` pairs. Values that are
/// not valid Unicode are converted lossily, so they fail their grammar
/// and warn instead of aborting the process.
pub fn env_vars() -> impl Iterator<Item = (String, String)> {
    std::env::vars_os().map(|(name, value)| {
        (
            name.to_string_lossy().into_owned(),
            value.to_string_lossy().into_owned(),
        )
    })
}

/// The settings shared by every process of a serve fleet: servers,
/// workers and `suite` alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// [`STORE_ENV`]: the result-store root, if any.
    pub store: Option<String>,
    /// [`TOKEN_ENV`]: the shared write-path secret, if any.
    pub token: Option<String>,
    /// [`THREADS_ENV`]: worker threads.
    pub threads: usize,
    /// [`SHARDS_ENV`]: the fleet's addresses as listed (empty = none).
    pub shards: Vec<String>,
    /// [`REPLICAS_ENV`]: owners per record key.
    pub replicas: usize,
    /// [`LEASE_TTL_ENV`]: the lease TTL in milliseconds.
    pub lease_ttl_ms: u64,
    /// [`FAULT_ENV`]: the chaos spec, if any.
    pub fault: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            store: None,
            token: None,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            shards: Vec::new(),
            replicas: DEFAULT_REPLICAS,
            lease_ttl_ms: DEFAULT_LEASE_TTL_MS,
            fault: None,
        }
    }
}

impl FleetConfig {
    /// Sets the variable `name` (one of [`VARS`]) from `value`, or
    /// explains why `value` does not parse.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        match name {
            STORE_ENV => self.store = text(value),
            TOKEN_ENV => self.token = text(value),
            THREADS_ENV => self.threads = count(value)?,
            SHARDS_ENV => self.shards = address_list(value)?,
            REPLICAS_ENV => self.replicas = count(value)?,
            LEASE_TTL_ENV => self.lease_ttl_ms = count(value)? as u64,
            FAULT_ENV => self.fault = text(value),
            _ => return Err(format!("`{name}` is not a fleet setting")),
        }
        Ok(())
    }

    /// Parses the fleet settings out of `vars`, ignoring every other
    /// name; returns the settings and the warnings for malformed values.
    pub fn from_vars(
        vars: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> (Self, Vec<String>) {
        let mut fleet = FleetConfig::default();
        let warnings = apply_vars(vars, |name| VARS.contains(&name), |n, v| fleet.set(n, v));
        (fleet, warnings)
    }

    /// [`Self::from_vars`] over the process environment.
    pub fn from_env() -> (Self, Vec<String>) {
        Self::from_vars(env_vars())
    }

    /// The client for [`Self::shards`], signing pushes with
    /// [`Self::token`]; `None` when no fleet is named.
    pub fn remote(&self) -> Option<ShardedStore> {
        ShardedStore::new(self.shards.clone(), self.replicas, self.token.clone()).ok()
    }

    /// Opens the store at [`Self::store`]; `None` when none is named or
    /// the root is unusable (which warns: the store is an accelerator,
    /// not a dependency).
    pub fn open_store(&self) -> Option<ResultStore> {
        let root = self.store.as_ref()?;
        match ResultStore::open(root) {
            Ok(store) => Some(store),
            Err(err) => {
                eprintln!(
                    "warning: {STORE_ENV}={root} is not usable as a result store ({err}); \
                     continuing without the disk cache"
                );
                None
            }
        }
    }

    /// `(shard count, effective replicas)` of the named fleet, as a
    /// server advertises it in `/stats` and `/metrics`; `None` outside a
    /// fleet.
    pub fn membership(&self) -> Option<(u64, u64)> {
        let ring = HashRing::new(self.shards.clone(), self.replicas).ok()?;
        Some((ring.shards().len() as u64, ring.replicas() as u64))
    }
}

/// The process-wide fleet settings, parsed from the environment on first
/// use (which prints any warnings, once).
pub fn fleet() -> &'static FleetConfig {
    static FLEET: OnceLock<FleetConfig> = OnceLock::new();
    FLEET.get_or_init(|| {
        let (fleet, warnings) = FleetConfig::from_env();
        for warning in warnings {
            eprintln!("warning: {warning}");
        }
        fleet
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_canonicalizes_shard_lists() {
        let shards =
            address_list("http://127.0.0.1:7171/, 127.0.0.1:7172 ,,127.0.0.1:7173").unwrap();
        assert_eq!(
            shards,
            ["127.0.0.1:7171", "127.0.0.1:7172", "127.0.0.1:7173"]
        );
        assert!(address_list("").is_err());
        assert!(address_list(" , ,").is_err());
        assert!(address_list("127.0.0.1:7171,nonsense").is_err());
    }
}
