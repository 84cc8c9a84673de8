//! Declarative run plans for the `suite` batch runner.
//!
//! A manifest is a small text file describing *which* figure/table suites
//! to run and under *what* settings, so a whole evaluation campaign is
//! one reviewable artifact instead of a shell script of `cargo run`
//! invocations:
//!
//! ```text
//! # figures.manifest — everything the paper's evaluation section needs
//! quick = on                 # DRI_QUICK: reduced grids and budgets
//! threads = 4                # DRI_THREADS: worker cap
//! store = /var/cache/dri     # DRI_STORE: shared on-disk result store
//!
//! figure3
//! figure4                    # reuses figure3's search points in-process
//! section5_6
//! ```
//!
//! Grammar, line by line (after stripping `#` comments and blank lines):
//!
//! * `<key> = <value>` — an option. Each key sets one `DRI_*` variable's
//!   field of the [`Config`] the manifest is parsed onto, with the same
//!   grammar as the environment (see [`crate::config`](mod@crate::config)):
//!
//!   | key | variable | value |
//!   |---|---|---|
//!   | `quick` | `DRI_QUICK` | on/off |
//!   | `threads` | `DRI_THREADS` | a positive integer |
//!   | `store` | `DRI_STORE` | a directory path |
//!   | `shards` | `DRI_SHARDS` | `host:port` addresses, comma-separated |
//!   | `push` | `DRI_PUSH` | on/off (push simulated records to the fleet; the server must hold the matching `DRI_TOKEN`) |
//!   | `steal` | `DRI_STEAL` | on/off (claim benchmark-sized units from the server's lease queue; requires `shards`) |
//!   | `policy` | `DRI_POLICY` | `dri`, `decay`, `way_resize` or `way_memo` |
//!   | `benchmarks` | `DRI_BENCHMARKS` | benchmark names, comma-separated (the fleet-splitting knob) |
//!
//!   A manifest option overrides the environment; `suite`'s
//!   command-line switches override both. `DRI_TOKEN` deliberately has
//!   no manifest spelling: a secret does not belong in a reviewable plan
//!   file. Options apply to the whole plan and must precede the first
//!   job.
//! * `<job>` — a job name (see [`Job::all`]), or `all` for every job.
//!   Jobs run in file order; duplicates are dropped (within one process
//!   the second run would be pure cache hits anyway).
//!
//! A manifest may list only options and no jobs (a shared settings
//! file): the job list then comes from the `suite` command line, or
//! defaults to `all`.
//!
//! Parsing is strict: unknown jobs, unknown options, malformed values,
//! and options after jobs are errors with line numbers, not warnings —
//! a typo in a batch plan should fail in seconds, not silently skip a
//! figure of a multi-hour campaign.

use std::fmt;

use synth_workload::suite::Benchmark;

use crate::config::{Config, BENCHMARKS_ENV, POLICY_ENV, PUSH_ENV, QUICK_ENV, STEAL_ENV};
use crate::figures;
use dri_serve::config::{SHARDS_ENV, STORE_ENV, THREADS_ENV};

/// One runnable artifact suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Table 1 (system configuration).
    Table1,
    /// Table 2 (gated-Vdd circuit trade-offs).
    Table2,
    /// Figure 3 (base energy-delay + average size; the parameter search).
    Figure3,
    /// Figure 4 (miss-bound sensitivity).
    Figure4,
    /// Figure 5 (size-bound sensitivity).
    Figure5,
    /// Figure 6 (size/associativity geometry sweep).
    Figure6,
    /// §5.6 (sense-interval and divisibility robustness).
    Section5_6,
    /// §5.2.1 (analytic leakage/dynamic trade-off bounds).
    Tradeoff,
    /// Policy shoot-out (DRI vs decay vs way-resize vs way-memo,
    /// side by side on one geometry).
    Policies,
}

impl Job {
    /// Every job, in the paper's presentation order (also the order
    /// `all` expands to — searches first, so later sweeps hit their
    /// cached points).
    pub fn all() -> [Job; 9] {
        [
            Job::Table1,
            Job::Table2,
            Job::Figure3,
            Job::Figure4,
            Job::Figure5,
            Job::Figure6,
            Job::Section5_6,
            Job::Tradeoff,
            Job::Policies,
        ]
    }

    /// The job's manifest/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Job::Table1 => "table1",
            Job::Table2 => "table2",
            Job::Figure3 => "figure3",
            Job::Figure4 => "figure4",
            Job::Figure5 => "figure5",
            Job::Figure6 => "figure6",
            Job::Section5_6 => "section5_6",
            Job::Tradeoff => "tradeoff",
            Job::Policies => "policies",
        }
    }

    /// One-line description for `suite --list`.
    pub fn description(&self) -> &'static str {
        match self {
            Job::Table1 => "system configuration parameters",
            Job::Table2 => "gated-Vdd circuit trade-offs",
            Job::Figure3 => "base energy-delay + average size (parameter search)",
            Job::Figure4 => "miss-bound sensitivity sweep",
            Job::Figure5 => "size-bound sensitivity sweep",
            Job::Figure6 => "size/associativity geometry sweep",
            Job::Section5_6 => "sense-interval and divisibility robustness",
            Job::Tradeoff => "analytic leakage/dynamic trade-off bounds",
            Job::Policies => "leakage-policy shoot-out (dri/decay/way_resize/way_memo)",
        }
    }

    /// Whether the job runs paired simulations (and therefore benefits
    /// from the session/store caches — `table1`/`table2`/`tradeoff` are
    /// closed-form and always cheap).
    pub fn simulates(&self) -> bool {
        !matches!(self, Job::Table1 | Job::Table2 | Job::Tradeoff)
    }

    /// Looks a job up by its manifest/CLI name.
    pub fn from_name(name: &str) -> Option<Job> {
        Job::all().into_iter().find(|j| j.name() == name)
    }

    /// Executes the job over `benchmarks` (printing its tables to
    /// stdout; the closed-form jobs ignore the list).
    pub fn run(&self, benchmarks: &[Benchmark]) {
        match self {
            Job::Table1 => figures::table1(),
            Job::Table2 => figures::table2(),
            Job::Figure3 => figures::figure3(benchmarks),
            Job::Figure4 => figures::figure4(benchmarks),
            Job::Figure5 => figures::figure5(benchmarks),
            Job::Figure6 => figures::figure6(benchmarks),
            Job::Section5_6 => figures::section5_6(benchmarks),
            Job::Tradeoff => figures::tradeoff(),
            Job::Policies => figures::policies(benchmarks),
        }
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Each manifest option key and the variable it sets.
const OPTIONS: [(&str, &str); 8] = [
    ("quick", QUICK_ENV),
    ("threads", THREADS_ENV),
    ("store", STORE_ENV),
    ("shards", SHARDS_ENV),
    ("push", PUSH_ENV),
    ("steal", STEAL_ENV),
    ("policy", POLICY_ENV),
    ("benchmarks", BENCHMARKS_ENV),
];

/// A parsed manifest's ordered, deduplicated job list (its options
/// were parsed onto a [`Config`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Jobs in execution order.
    pub jobs: Vec<Job>,
}

impl Manifest {
    /// Appends `job` unless it is already planned.
    pub fn push_job(&mut self, job: Job) {
        if !self.jobs.contains(&job) {
            self.jobs.push(job);
        }
    }
}

/// A manifest parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based source line (0 is reserved for errors spanning the whole
    /// file, should a consumer need one).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "manifest: {}", self.message)
        } else {
            write!(f, "manifest line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError {
        line,
        message: message.into(),
    }
}

/// Parses manifest text (see the module docs for the grammar), setting
/// its options on `config`.
///
/// ```
/// use dri_experiments::manifest::{parse, Job};
/// use dri_experiments::Config;
///
/// let mut config = Config::default();
/// let plan = parse(
///     "# campaign plan\n\
///      quick = on\n\
///      push = on              # share simulated records\n\
///      \n\
///      figure3\n\
///      figure4\n",
///     &mut config,
/// )
/// .expect("well-formed manifest");
/// assert!(config.quick && config.push());
/// assert_eq!(plan.jobs, vec![Job::Figure3, Job::Figure4]);
///
/// // Errors carry 1-based line numbers: a typo fails in seconds, not
/// // silently mid-campaign.
/// let err = parse("figure3\nfigure9\n", &mut config).unwrap_err();
/// assert_eq!(err.line, 2);
/// ```
pub fn parse(text: &str, config: &mut Config) -> Result<Manifest, ManifestError> {
    let mut manifest = Manifest::default();
    let mut saw_job = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            let (key, value) = (key.trim(), value.trim());
            if saw_job {
                return Err(err(
                    lineno,
                    format!("option `{key}` must appear before the first job"),
                ));
            }
            let Some(&(_, var)) = OPTIONS.iter().find(|(option, _)| *option == key) else {
                let known: Vec<&str> = OPTIONS.iter().map(|(option, _)| *option).collect();
                return Err(err(
                    lineno,
                    format!(
                        "unknown option `{key}` (expected one of: {})",
                        known.join(", ")
                    ),
                ));
            };
            if value.is_empty() {
                return Err(err(lineno, format!("`{key}` needs a value")));
            }
            config
                .set(var, value)
                .map_err(|why| err(lineno, format!("`{key}`: {why}")))?;
        } else if line == "all" {
            saw_job = true;
            for job in Job::all() {
                manifest.push_job(job);
            }
        } else if let Some(job) = Job::from_name(line) {
            saw_job = true;
            manifest.push_job(job);
        } else {
            let known: Vec<&str> = Job::all().iter().map(Job::name).collect();
            return Err(err(
                lineno,
                format!(
                    "unknown job `{line}` (expected one of: {}, or `all`)",
                    known.join(", ")
                ),
            ));
        }
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `text` onto a default config.
    fn parsed(text: &str) -> Result<(Config, Manifest), ManifestError> {
        let mut config = Config::default();
        parse(text, &mut config).map(|m| (config, m))
    }

    #[test]
    fn every_option_sets_its_variable_with_the_same_grammar() {
        let (manifest, m) = parsed(
            "# campaign\nquick = on\nthreads = 4\nstore = /tmp/s\nshards = h:1\n\
             push = on\nsteal = on\npolicy = decay # sweep\n\
             benchmarks = li, gcc ,li\n\nfigure3 # search\nfigure4\n",
        )
        .expect("valid manifest");
        let vars = [
            (QUICK_ENV, "on"),
            (THREADS_ENV, "4"),
            (STORE_ENV, "/tmp/s"),
            (SHARDS_ENV, "h:1"),
            (PUSH_ENV, "on"),
            (STEAL_ENV, "on"),
            (POLICY_ENV, "decay"),
            (BENCHMARKS_ENV, "li,gcc"),
        ];
        let (env, warnings) = Config::from_vars(vars);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(manifest, env);
        assert_eq!(m.jobs, vec![Job::Figure3, Job::Figure4]);
        // Unset options keep their defaults.
        assert_eq!(parsed("figure3\n").unwrap().0, Config::default());
        for id in dri_core::PolicyConfig::all_ids() {
            let (c, _) = parsed(&format!("policy = {id}\n")).expect("valid manifest");
            assert_eq!(c.policy, Some(id));
        }
    }

    #[test]
    fn manifest_options_override_the_environment() {
        let (mut config, _) = Config::from_vars([(QUICK_ENV, "on"), (PUSH_ENV, "on")]);
        parse("quick = off\nfigure3\n", &mut config).expect("valid manifest");
        assert!(!config.quick, "the manifest wins");
        assert_eq!(config.push, Some(true), "unset in the manifest: env stays");
    }

    #[test]
    fn malformed_values_are_errors_with_their_line() {
        for key in ["quick", "push", "steal"] {
            assert!(
                parsed(&format!("{key} = maybe\nfigure3\n")).is_err(),
                "{key}"
            );
        }
        for bad in [
            "jobs = 3",
            "threads = zero",
            "threads = 0",
            "store =",
            "shards =",
            "shards = nonsense",
            "benchmarks = ,",
        ] {
            assert!(parsed(&format!("{bad}\nfigure3\n")).is_err(), "{bad}");
        }
        for (bad, needles) in [
            ("policy = drowsy", ["drowsy", "way_memo"]),
            ("benchmarks = compress, gzip", ["gzip", "compress"]),
        ] {
            let e = parsed(&format!("quick = on\n{bad}\nfigure3\n")).expect_err(bad);
            assert_eq!(e.line, 2);
            for needle in needles {
                assert!(e.message.contains(needle), "{e}");
            }
        }
    }

    #[test]
    fn all_expands_and_dedupes() {
        let (_, m) = parsed("figure5\nall\nfigure5\n").expect("valid manifest");
        assert_eq!(m.jobs.len(), Job::all().len());
        assert_eq!(m.jobs[0], Job::Figure5, "explicit order wins");
    }

    #[test]
    fn rejects_unknown_job_with_line_number() {
        let e = parsed("figure3\nfigure7\n").expect_err("unknown job");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("figure7"), "{e}");
    }

    #[test]
    fn rejects_options_after_jobs() {
        let e = parsed("figure3\nquick = on\n").expect_err("late option");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn options_only_manifests_are_valid_with_no_jobs() {
        // A shared settings file composes with CLI jobs: the suite
        // supplies the job list (or defaults to `all`).
        let (c, m) = parsed("# settings only\nquick = on\nstore = /tmp/s\n").expect("valid");
        assert!(m.jobs.is_empty());
        assert!(c.quick);
    }

    #[test]
    fn every_job_name_roundtrips() {
        for job in Job::all() {
            assert_eq!(Job::from_name(job.name()), Some(job), "{job}");
            assert!(!job.description().is_empty());
        }
        assert_eq!(Job::from_name("nope"), None);
    }
}
