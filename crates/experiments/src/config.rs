//! Campaign settings: what the figure suites run, and how a worker
//! joins a fleet.
//!
//! [`Config`] holds every `DRI_*` setting a campaign reads, parsed with
//! the one grammar of [`dri_serve::config`] (which also parses the
//! [`FleetConfig`] part). Benchmark names and policy ids are validated
//! here, where they are known. Sources layer onto one typed value, each
//! with its own failure rule:
//!
//! 1. the environment ([`Config::from_env`]) — a malformed value warns
//!    and keeps the default;
//! 2. a `suite` manifest ([`crate::manifest::parse`]) — a malformed
//!    value is an error with its line number;
//! 3. `suite`'s `--[no-]push/steal` flags.
//!
//! The process reads its settings through [`config`]: `suite` installs
//! its layered value before first use ([`install`]); every other binary
//! gets the environment's, parsed on first use.

use std::sync::OnceLock;

use dri_core::PolicyConfig;
use dri_serve::config::{apply_vars, env_vars, switch, FleetConfig};
use synth_workload::suite::Benchmark;

/// Quick mode (*switch*, default off): reduced search grids and
/// instruction budgets, for smoke-testing the harness.
pub const QUICK_ENV: &str = "DRI_QUICK";
/// Write-through push of simulated records to the fleet (*switch*,
/// default off, or on under [`STEAL_ENV`]; see
/// [`crate::session::SimSession::push_pending`]).
pub const PUSH_ENV: &str = "DRI_PUSH";
/// Lease-based work stealing in `suite` (*switch*, default off; see
/// [`crate::steal`]).
pub const STEAL_ENV: &str = "DRI_STEAL";
/// This worker's name to the lease scheduler (*text*, default
/// `worker-<pid>`).
pub const WORKER_ENV: &str = "DRI_WORKER";
/// The leakage policy the figure suites run: one of
/// [`PolicyConfig::all_ids`] (default: the paper's DRI cache).
pub const POLICY_ENV: &str = "DRI_POLICY";
/// The benchmarks the figure suites cover: a comma-separated list of
/// names (default: all fifteen). This is the fleet-splitting knob: two
/// workers pushing to one store each take a disjoint half of a campaign.
pub const BENCHMARKS_ENV: &str = "DRI_BENCHMARKS";

/// Every variable [`Config`] parses besides those of [`FleetConfig`].
pub const VARS: [&str; 6] = [
    QUICK_ENV,
    PUSH_ENV,
    STEAL_ENV,
    WORKER_ENV,
    POLICY_ENV,
    BENCHMARKS_ENV,
];

/// Every setting of a campaign (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// The store, fleet and thread settings.
    pub fleet: FleetConfig,
    /// [`QUICK_ENV`].
    pub quick: bool,
    /// [`PUSH_ENV`], `None` until some source sets it (see
    /// [`Config::push`]).
    pub push: Option<bool>,
    /// [`STEAL_ENV`].
    pub steal: bool,
    /// [`WORKER_ENV`].
    pub worker: String,
    /// [`POLICY_ENV`]: a validated policy id, `None` when unset.
    pub policy: Option<&'static str>,
    /// [`BENCHMARKS_ENV`]: the selection, in the paper's order.
    pub benchmarks: Vec<Benchmark>,
    /// Whether the global session times every lookup, even the
    /// sub-microsecond memory hits (it always does while tracing).
    /// `suite` sets this for its per-tier latency table.
    pub timed: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            fleet: FleetConfig::default(),
            quick: false,
            push: None,
            steal: false,
            worker: format!("worker-{}", std::process::id()),
            policy: None,
            benchmarks: Benchmark::all().to_vec(),
            timed: false,
        }
    }
}

impl Config {
    /// Sets the variable `name` (one of [`VARS`] or
    /// [`dri_serve::config::VARS`]) from `value`, or explains why
    /// `value` does not parse.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        match name {
            QUICK_ENV => self.quick = switch(value)?,
            PUSH_ENV => self.push = Some(switch(value)?),
            STEAL_ENV => self.steal = switch(value)?,
            WORKER_ENV => self.worker = value.trim().to_owned(),
            POLICY_ENV => self.policy = Some(policy(value)?),
            BENCHMARKS_ENV => self.benchmarks = benchmarks(value)?,
            _ => return self.fleet.set(name, value),
        }
        Ok(())
    }

    /// Parses every campaign and fleet setting out of `vars`, ignoring
    /// other names; returns the settings and the warnings for malformed
    /// values.
    pub fn from_vars(
        vars: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> (Self, Vec<String>) {
        let mut config = Config::default();
        let known = |name: &str| VARS.contains(&name) || dri_serve::config::VARS.contains(&name);
        let warnings = apply_vars(vars, known, |n, v| config.set(n, v));
        (config, warnings)
    }

    /// [`Self::from_vars`] over the process environment.
    pub fn from_env() -> (Self, Vec<String>) {
        Self::from_vars(env_vars())
    }

    /// Whether simulated records are pushed upward: as set, else on
    /// exactly when stealing — a steal worker that did not push would
    /// strand every record it simulated and make the next claimant redo
    /// it.
    pub fn push(&self) -> bool {
        self.push.unwrap_or(self.steal)
    }
}

/// Parses a policy id.
fn policy(value: &str) -> Result<&'static str, String> {
    let id = value.trim();
    PolicyConfig::all_ids()
        .into_iter()
        .find(|&known| known == id)
        .ok_or_else(|| {
            format!(
                "unknown policy `{id}` (expected one of: {})",
                PolicyConfig::all_ids().join(", ")
            )
        })
}

/// Parses a comma-separated benchmark list into the paper's order.
fn benchmarks(value: &str) -> Result<Vec<Benchmark>, String> {
    let mut wanted = Vec::new();
    for name in value.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let benchmark = Benchmark::all()
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown benchmark `{name}` (expected a comma-separated subset of: {})",
                    Benchmark::all().map(Benchmark::name).join(", ")
                )
            })?;
        wanted.push(benchmark);
    }
    if wanted.is_empty() {
        return Err("needs at least one benchmark name".to_owned());
    }
    Ok(Benchmark::all()
        .into_iter()
        .filter(|b| wanted.contains(b))
        .collect())
}

static CONFIG: OnceLock<Config> = OnceLock::new();

/// The process's settings: the installed ones, else the environment's,
/// parsed on first use (which prints any warnings, once).
pub fn config() -> &'static Config {
    CONFIG.get_or_init(|| {
        let (config, warnings) = Config::from_env();
        for warning in warnings {
            eprintln!("warning: {warning}");
        }
        config
    })
}

/// Makes `config` the process's settings.
///
/// # Panics
///
/// When [`config`] was already read: a process must not run part of its
/// work under other settings.
pub fn install(config: Config) {
    assert!(
        CONFIG.set(config).is_ok(),
        "settings installed after they were first read"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dri_serve::config::{LEASE_TTL_ENV, REPLICAS_ENV, STORE_ENV, THREADS_ENV, TOKEN_ENV};

    /// Parses one variable; returns the config and its warning count.
    fn one(name: &str, value: &str) -> (Config, usize) {
        let (config, warnings) = Config::from_vars([(name, value)]);
        assert!(warnings.iter().all(|w| w.contains(name)), "{warnings:?}");
        (config, warnings.len())
    }

    #[test]
    fn every_variable_parses_with_one_grammar() {
        // Switches: `None` = warns and keeps the default. At the parent
        // commit `DRI_QUICK=off` ran the quick grid and `DRI_PUSH=2` was
        // silently off.
        let cases = [
            ("on", Some(true)),
            ("OFF", Some(false)),
            (" yes ", Some(true)),
            ("0", Some(false)),
            ("false", Some(false)),
            ("maybe", None),
            ("2", None),
        ];
        type Field = fn(&Config) -> bool;
        let switches: [(&str, Field); 3] = [
            (QUICK_ENV, |c| c.quick),
            (PUSH_ENV, Config::push),
            (STEAL_ENV, |c| c.steal),
        ];
        for (name, field) in switches {
            for (value, parsed) in cases {
                let (config, warned) = one(name, value);
                let expect = parsed.unwrap_or_else(|| field(&Config::default()));
                assert_eq!(field(&config), expect, "{name}={value:?}");
                assert_eq!(warned, usize::from(parsed.is_none()), "{name}={value:?}");
            }
        }

        // Counts: `4x` and `0` warn and keep the default — in `dri-serve`
        // too, which at the parent commit took `DRI_THREADS=4x` silently.
        for name in [THREADS_ENV, REPLICAS_ENV, LEASE_TTL_ENV] {
            for bad in ["4x", "0", "-1"] {
                assert_eq!(one(name, bad), (Config::default(), 1), "{name}={bad}");
                let (fleet, warnings) = FleetConfig::from_vars([(name, bad)]);
                assert_eq!((fleet, warnings.len()), (FleetConfig::default(), 1));
            }
        }
        let (config, _) = one(THREADS_ENV, " 4 ");
        assert_eq!(config.fleet.threads, 4);

        // Texts are trimmed; an empty value is an unset one.
        assert_eq!(
            one(STORE_ENV, " /tmp/dri ").0.fleet.store.as_deref(),
            Some("/tmp/dri")
        );
        assert_eq!(one(WORKER_ENV, " w1 ").0.worker, "w1");
        assert_eq!(one(TOKEN_ENV, " ").0, Config::default());

        // Names are validated here, where they are known; the selection
        // runs in the paper's order.
        assert_eq!(one(POLICY_ENV, " way_memo").0.policy, Some("way_memo"));
        let (config, _) = one(BENCHMARKS_ENV, "li, compress,li");
        assert_eq!(config.benchmarks, [Benchmark::Compress, Benchmark::Li]);
        assert_eq!(one(POLICY_ENV, "drowsy"), (Config::default(), 1));
        assert_eq!(one(BENCHMARKS_ENV, "li,gzip"), (Config::default(), 1));
    }

    #[test]
    fn defaults_and_the_steal_push_rule() {
        let config = Config::default();
        assert!(!config.quick && !config.push() && !config.steal);
        assert_eq!(config.worker, format!("worker-{}", std::process::id()));
        assert_eq!(config.policy, None);
        assert_eq!(config.benchmarks, Benchmark::all());

        // Stealing pushes unless push was switched off explicitly.
        assert!(one(STEAL_ENV, "on").0.push());
        let (config, _) = Config::from_vars([(STEAL_ENV, "on"), (PUSH_ENV, "off")]);
        assert!(!config.push());
    }
}
