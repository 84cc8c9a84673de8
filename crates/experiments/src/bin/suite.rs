//! The manifest-driven batch runner: any subset of the paper's figures
//! and tables as one declarative plan, executed in a single process so
//! every job shares the warm `SimSession` (and, with `DRI_STORE`, the
//! cross-process result store). Settings layer onto one
//! [`dri_experiments::Config`]: command line over manifest over
//! environment.
//!
//! ```text
//! suite                          # run everything (same as `suite all`)
//! suite figure3 figure4          # run two jobs, in order
//! suite --manifest plan.txt      # run a declarative plan file
//! suite --store-stats figure3    # append the result-store counters
//! suite --list                   # show available jobs
//! ```
//!
//! Job stdout is byte-identical to the per-figure binaries (jobs
//! concatenate with no extra separators; `--store-stats` opt-in appends
//! its block after all jobs); progress lines and the closing summary go
//! to stderr so piped stdout stays clean.

use std::process::ExitCode;

use dri_experiments::config::{self, Config, PREFETCH_ENV, PUSH_ENV, STEAL_ENV};
use dri_experiments::manifest::{self, Job, Manifest};
use dri_experiments::report::Table;
use dri_experiments::SimSession;
use dri_store::{GcPolicy, ResultStore};
use dri_telemetry::Span;
use synth_workload::suite::Benchmark;

const USAGE: &str = "\
usage: suite [--manifest FILE] [--store-stats] [--[no-]prefetch] [--[no-]push]
             [--[no-]steal] [--list] [JOB ...]
       suite gc [--store DIR] [--max-bytes N[K|M|G]] [--max-age GENS] [--dry-run]

Runs figure/table jobs in one process with shared simulation caches.
With no jobs from the command line or the manifest, runs every job
(`all`); an options-only manifest composes with command-line jobs.

options:
  --manifest FILE   load the run plan (options + job list) from FILE
  --store-stats     print DRI_STORE result-store counters and disk usage
                    after the run
  --prefetch        resolve each sweep's whole key grid through the cache
                    tiers up front (one chunked POST /batch round-trip for
                    the remote remainder); this is the default
  --no-prefetch     restore per-point tier lookups
  --push            push locally simulated records to the DRI_SHARDS
                    fleet after each sweep (requires the servers to hold
                    the matching DRI_TOKEN); off by default
  --no-push         keep simulated records local (the default)
  --steal           join a lease-based work-stealing campaign: claim
                    benchmark-sized units from the DRI_SHARDS scheduler,
                    simulate only what is claimed, push the records, and
                    reclaim units abandoned by dead workers (implies
                    --push unless push is explicitly off)
  --no-steal        run every planned job locally (the default)
  --list            list available jobs and exit
  --help            this text

gc subcommand (garbage-collect a result store):
  --store DIR       store root (default: the DRI_STORE environment variable)
  --max-bytes N     evict least-recently-used records until the store's
                    record bytes fit N (suffixes K/M/G = KiB/MiB/GiB)
  --max-age GENS    evict records not accessed in the last GENS gc
                    generations
  --dry-run         report what would be evicted without deleting anything

environment: DRI_QUICK, DRI_THREADS, DRI_STORE, DRI_SHARDS, DRI_REPLICAS,
DRI_PREFETCH, DRI_PUSH, DRI_STEAL, DRI_WORKER, DRI_TOKEN, DRI_POLICY,
DRI_BENCHMARKS, DRI_TRACE (see README). A malformed value warns and its
default is used. A manifest's
`quick/threads/store/shards/prefetch/push/steal/policy/benchmarks`
options override the same variables, strictly (a malformed value is an
error), and the --[no-]prefetch/push/steal flags override both. The
token deliberately has no manifest spelling: a secret does not belong
in a reviewable plan file.";

struct CliArgs {
    manifest_path: Option<String>,
    store_stats: bool,
    /// `(variable, value)` settings from the `--[no-]prefetch/push/steal`
    /// flags, in order.
    settings: Vec<(&'static str, &'static str)>,
    list: bool,
    jobs: Vec<Job>,
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut parsed = CliArgs {
        manifest_path: None,
        store_stats: false,
        settings: Vec::new(),
        list: false,
        jobs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => {
                let path = it.next().ok_or("--manifest needs a file path")?;
                parsed.manifest_path = Some(path.clone());
            }
            "--store-stats" => parsed.store_stats = true,
            "--prefetch" => parsed.settings.push((PREFETCH_ENV, "on")),
            "--no-prefetch" => parsed.settings.push((PREFETCH_ENV, "off")),
            "--push" => parsed.settings.push((PUSH_ENV, "on")),
            "--no-push" => parsed.settings.push((PUSH_ENV, "off")),
            "--steal" => parsed.settings.push((STEAL_ENV, "on")),
            "--no-steal" => parsed.settings.push((STEAL_ENV, "off")),
            "--list" => parsed.list = true,
            "--help" | "-h" => return Err(String::new()),
            "all" => parsed.jobs.extend(Job::all()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => match Job::from_name(other) {
                Some(job) => parsed.jobs.push(job),
                None => return Err(format!("unknown job `{other}` (try --list)")),
            },
        }
    }
    Ok(parsed)
}

/// Layers the settings (command line over manifest over environment)
/// and builds the job list: CLI jobs run after the manifest's, and a
/// plan with no jobs runs `all`.
fn build_plan(args: &CliArgs) -> Result<(Config, Manifest), String> {
    let (mut config, warnings) = Config::from_env();
    for warning in warnings {
        eprintln!("warning: {warning}");
    }
    let mut plan = match &args.manifest_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read manifest `{path}`: {e}"))?;
            manifest::parse(&text, &mut config).map_err(|e| e.to_string())?
        }
        None => Manifest::default(),
    };
    for (name, value) in &args.settings {
        config.set(name, value)?;
    }
    // The summary's wall-times and per-tier latency table both come from
    // telemetry spans: one clock for the whole report.
    config.timed = true;
    for &job in &args.jobs {
        plan.push_job(job);
    }
    if plan.jobs.is_empty() {
        for job in Job::all() {
            plan.push_job(job);
        }
    }
    Ok((config, plan))
}

/// Parses a byte count with optional binary suffix: `64`, `512K`, `2M`, `1G`.
fn parse_bytes(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    let (digits, multiplier) = match raw.as_bytes().last()? {
        b'K' | b'k' => (&raw[..raw.len() - 1], 1024u64),
        b'M' | b'm' => (&raw[..raw.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&raw[..raw.len() - 1], 1024 * 1024 * 1024),
        _ => (raw, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(multiplier)
}

/// The `suite gc` subcommand: age/size-budget garbage collection of a
/// result store, with a report-only dry-run mode.
fn run_gc(args: &[String]) -> Result<(), String> {
    let mut root: Option<String> = config::config().fleet.store.clone();
    let mut policy = GcPolicy::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => root = Some(it.next().ok_or("--store needs a directory")?.clone()),
            "--max-bytes" => {
                let raw = it.next().ok_or("--max-bytes needs a byte count")?;
                policy.max_bytes = Some(
                    parse_bytes(raw)
                        .ok_or_else(|| format!("--max-bytes: `{raw}` is not a byte count"))?,
                );
            }
            "--max-age" => {
                let raw = it.next().ok_or("--max-age needs a generation count")?;
                policy.max_age = Some(
                    raw.parse()
                        .map_err(|_| format!("--max-age: `{raw}` is not an integer"))?,
                );
            }
            "--dry-run" => policy.dry_run = true,
            other => return Err(format!("gc: unknown argument `{other}`")),
        }
    }
    let root = root.ok_or("gc: no store root (pass --store DIR or set DRI_STORE)")?;
    // `ResultStore::open` creates missing roots (right for writers, wrong
    // here): a typo'd path must fail loudly, not "collect" a fresh empty
    // directory while the real store stays over budget.
    if !std::path::Path::new(&root).is_dir() {
        return Err(format!("gc: store root `{root}` does not exist"));
    }
    let store =
        ResultStore::open(&root).map_err(|e| format!("gc: cannot open store `{root}`: {e}"))?;
    let report = store.gc(&policy);
    println!("gc ({root}): generation {}", report.generation);
    println!(
        "  scanned: {} records, {} bytes",
        report.scanned_records, report.scanned_bytes
    );
    println!("  evicted: {} records", report.evicted_records);
    println!("  reclaimed bytes: {}", report.reclaimed_bytes);
    println!(
        "  remaining: {} records, {} bytes",
        report.remaining_records, report.remaining_bytes
    );
    if report.dry_run {
        println!("  (dry run: nothing was deleted)");
    }
    Ok(())
}

/// The `--steal` campaign mode. Instead of running every simulating job
/// over every benchmark locally, the worker claims benchmark-sized
/// units from the remote scheduler's durable lease queue, simulates
/// just the claimed benchmark's share of each simulating job, pushes
/// the records, and completes the lease — looping until the campaign
/// drains. Units abandoned by crashed workers (expired leases) are
/// reclaimed and re-run; the deterministic simulator makes the replay
/// bit-identical. Non-simulating jobs (the closed-form tables) run
/// locally once — they are cheap and keep this worker's stdout useful.
fn run_steal(plan: &Manifest, session: &SimSession, config: &Config) -> Result<(), String> {
    let Some(remote) = session.remote() else {
        return Err(
            "--steal needs a scheduler: set DRI_SHARDS (or `shards =` in the manifest) \
             to a dri-serve address"
                .to_owned(),
        );
    };
    for job in plan.jobs.iter().filter(|j| !j.simulates()) {
        eprintln!("suite: [steal] running non-simulating job {job} locally");
        job.run(&config.benchmarks);
    }
    let sim_jobs: Vec<Job> = plan.jobs.iter().copied().filter(Job::simulates).collect();
    if sim_jobs.is_empty() {
        eprintln!("suite: [steal] no simulating jobs in the plan — nothing to lease");
        return Ok(());
    }
    if config.push.is_none() {
        eprintln!(
            "suite: [steal] enabling write-through push (pass --no-push to keep records local)"
        );
    }
    let sim_names: Vec<&str> = sim_jobs.iter().map(Job::name).collect();
    let campaign = dri_experiments::campaign_id(&sim_names, config.quick);
    let worker = &config.worker;
    let units: Vec<String> = config
        .benchmarks
        .iter()
        .map(|b| b.name().to_owned())
        .collect();
    // The lease control plane has no record key to route by, so a fleet
    // hashes the campaign name: every worker of one campaign agrees on
    // one scheduler shard, while record traffic stays key-sharded.
    let control = remote.lease_shard(&campaign);
    eprintln!(
        "suite: [steal] worker `{worker}` joining campaign `{campaign}` \
         (scheduler {}, {} unit(s), {} simulating job(s))",
        control.addr(),
        units.len(),
        sim_jobs.len()
    );
    let outcome = dri_experiments::drain(control, &campaign, &units, worker, |unit| {
        // The scheduler names the unit; one seeded by another program
        // may not be a benchmark at all.
        let Some(benchmark) = Benchmark::all().into_iter().find(|b| b.name() == unit) else {
            eprintln!("suite: [{worker}] unit `{unit}` is not a benchmark; skipping it");
            return;
        };
        eprintln!("suite: [{worker}] unit `{unit}` ...");
        for job in &sim_jobs {
            job.run(&[benchmark]);
        }
        session.push_pending();
    })?;
    eprintln!(
        "suite: steal campaign `{campaign}` drained: {} claimed ({} reclaimed), \
         {} completed, {} lost, {} renewal(s), {} wait(s)",
        outcome.granted,
        outcome.reclaimed,
        outcome.completed,
        outcome.lost,
        outcome.renewals,
        outcome.waits
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gc") {
        return match run_gc(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        let mut t = Table::new(["job", "description", "simulates?"]);
        for job in Job::all() {
            t.row([
                job.name(),
                job.description(),
                if job.simulates() { "yes" } else { "no" },
            ]);
        }
        print!("{}", t.render());
        return ExitCode::SUCCESS;
    }
    let (config, plan) = match build_plan(&args) {
        Ok(built) => built,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    config::install(config);
    let config = config::config();

    let session = SimSession::global();
    let names: Vec<&str> = plan.jobs.iter().map(Job::name).collect();
    eprintln!(
        "suite: {} job(s) [{}]{}{}{}",
        plan.jobs.len(),
        names.join(", "),
        if config.quick { ", quick mode" } else { "" },
        match session.store() {
            Some(store) => format!(", store at {}", store.root().display()),
            None => ", no result store (set DRI_STORE to enable)".to_owned(),
        },
        match session.remote() {
            Some(remote) => format!(
                ", remote at http://{}{}",
                remote.describe(),
                if config.push() {
                    " (write-through push)"
                } else {
                    ""
                }
            ),
            None => String::new(),
        }
    );

    if config.steal {
        return match run_steal(&plan, session, config) {
            Ok(()) => {
                let stats = session.stats();
                eprintln!(
                    "suite: session: {} simulations, {} remote hits",
                    stats.simulations(),
                    stats.remote_hits()
                );
                print_tier_latency(session);
                if args.store_stats {
                    print_store_stats(session);
                }
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    let suite_span = Span::begin("job", "suite");
    let mut timings: Vec<(Job, f64, u64, u64, u64, u64)> = Vec::new();
    for (i, job) in plan.jobs.iter().enumerate() {
        let before = session.stats();
        eprintln!("suite: [{}/{}] {} ...", i + 1, plan.jobs.len(), job);
        let span = Span::begin("job", job.name());
        job.run(&config.benchmarks);
        let secs = span.finish("done").as_secs_f64();
        let after = session.stats();
        timings.push((
            *job,
            secs,
            after.simulations() - before.simulations(),
            (after.baseline_hits + after.dri_hits) - (before.baseline_hits + before.dri_hits),
            after.disk_hits() - before.disk_hits(),
            after.remote_hits() - before.remote_hits(),
        ));
    }

    eprintln!("suite: summary");
    let mut t = Table::new([
        "job",
        "wall time",
        "simulated",
        "memory hits",
        "disk hits",
        "remote hits",
    ]);
    for (job, secs, simulated, memory_hits, disk_hits, remote_hits) in &timings {
        t.row([
            job.name().to_owned(),
            format!("{secs:.2}s"),
            simulated.to_string(),
            memory_hits.to_string(),
            disk_hits.to_string(),
            remote_hits.to_string(),
        ]);
    }
    for line in t.render().lines() {
        eprintln!("  {line}");
    }
    let stats = session.stats();
    eprintln!(
        "  total {:.2}s; session: {} simulations ({} timing runs), {} memory hits, {} disk hits, {} remote hits, {} workloads generated",
        suite_span.finish("done").as_secs_f64(),
        stats.simulations(),
        stats.timing_runs,
        stats.baseline_hits + stats.dri_hits,
        stats.disk_hits(),
        stats.remote_hits(),
        stats.workload_misses,
    );
    let prefetch = session.prefetch_stats();
    if prefetch.plans > 0 {
        eprintln!(
            "  prefetch: {} plan(s), {} records planned — {} memory / {} disk / {} remote, \
             {} left to simulate, {} batch round-trip(s)",
            prefetch.plans,
            prefetch.planned,
            prefetch.memory_hits,
            prefetch.disk_hits,
            prefetch.remote_hits,
            prefetch.misses,
            prefetch.batch_round_trips,
        );
    }
    let push = session.push_stats();
    if push.batches > 0 {
        eprintln!(
            "  push: {} batch(es), {} record(s) — {} pushed / {} rejected / {} failed, \
             {} round-trip(s)",
            push.batches, push.attempted, push.pushed, push.rejected, push.failed, push.round_trips,
        );
    }
    print_tier_latency(session);

    if args.store_stats {
        print_store_stats(session);
    }
    ExitCode::SUCCESS
}

/// The per-tier lookup-latency table on stderr (timed sessions only —
/// with timing off every histogram is empty and nothing prints).
fn print_tier_latency(session: &SimSession) {
    let tiers = session.tier_latency();
    if tiers.rows().iter().any(|(_, h)| h.count() > 0) {
        eprintln!("  tier resolution latency:");
        let mut lt = Table::new(["tier", "lookups", "p50", "p90", "p99", "max"]);
        for (tier, hist) in tiers.rows() {
            if hist.count() == 0 {
                continue;
            }
            let (p50, p90, p99, max) = hist.percentiles();
            lt.row([
                tier.to_owned(),
                hist.count().to_string(),
                fmt_ns(p50),
                fmt_ns(p90),
                fmt_ns(p99),
                fmt_ns(max),
            ]);
        }
        for line in lt.render().lines() {
            eprintln!("  {line}");
        }
    }
}

/// The `--store-stats` report on stdout: local store counters, remote
/// client counters, and the server's own `/stats` tallies.
fn print_store_stats(session: &SimSession) {
    match session.store() {
        Some(store) => {
            let s = store.stats();
            let usage = store.disk_usage();
            println!("result store ({}):", store.root().display());
            println!("  hits: {}", s.hits);
            println!("  misses: {}", s.misses);
            println!("  corrupt: {}", s.corrupt);
            println!("  writes: {}", s.writes);
            println!("  write errors: {}", s.write_errors);
            println!("  bytes read: {}", s.bytes_read);
            println!("  bytes written: {}", s.bytes_written);
            println!("  records on disk: {}", usage.records);
            println!("  bytes on disk: {}", usage.bytes);
            println!("  generation: {}", store.generation());
        }
        None => println!("result store: disabled (set DRI_STORE to a directory to enable)"),
    }
    if let Some(remote) = session.remote() {
        let r = remote.stats();
        println!("remote store (http://{}):", remote.describe());
        println!("  hits: {}", r.hits);
        println!("  misses: {}", r.misses);
        println!("  corrupt: {}", r.corrupt);
        println!("  errors: {}", r.errors);
        println!("  bytes fetched: {}", r.bytes_fetched);
        println!("  batch round trips: {}", r.batch_round_trips);
        // Write-side counters, named like the server's /stats JSON
        // fields so a client line and a server line about the same
        // quantity grep identically from both reports.
        println!("  records accepted: {}", r.records_accepted);
        println!("  writes rejected: {}", r.writes_rejected);
        println!("  push round trips: {}", r.push_round_trips);
        // Per-shard client traffic: a fleet's aggregate above hides
        // which shard a dead server starved, so break the read/write
        // counters out per address (single-remote runs skip this — the
        // aggregate IS the shard).
        if remote.is_sharded() {
            for (addr, s) in remote.shard_stats() {
                println!(
                    "  shard http://{addr}: {} hits, {} misses, {} errors, \
                     {} accepted, {} batch rt, {} push rt",
                    s.hits,
                    s.misses,
                    s.errors,
                    s.records_accepted,
                    s.batch_round_trips,
                    s.push_round_trips
                );
            }
        }
        // The servers' own side of the story: one GET /stats scrape per
        // shard surfaces the write-path and lease-scheduler tallies and
        // any chaos injections next to the client counters above. On a
        // single-worker run the three write-side pairs match line for
        // line; a fleet's server lines sum over every worker (and, with
        // replication, count each record once per owning shard).
        for (addr, stats) in remote.server_stats_all() {
            match stats {
                Some(s) => {
                    println!("server (http://{addr}/stats):");
                    println!("  records accepted: {}", s.records_accepted);
                    println!("  writes rejected: {}", s.writes_rejected);
                    println!("  push round trips: {}", s.push_round_trips);
                    // Journal depth > 0 means acked records still awaiting
                    // compaction into record files — normal in flight, and
                    // drained within a compaction interval once pushes stop.
                    println!("  journal depth: {}", s.journal_depth);
                    println!("  journal batches: {}", s.journal_batches);
                    println!("  journal fsyncs: {}", s.journal_fsyncs);
                    println!("  journal compacted: {}", s.journal_compacted);
                    println!("  faults injected: {}", s.faults_injected);
                    println!("  lease claims: {}", s.lease_claims);
                    println!("  lease granted: {}", s.lease_granted);
                    println!("  lease reclaimed: {}", s.lease_reclaimed);
                    println!("  lease renewed: {}", s.lease_renewed);
                    println!("  lease completed: {}", s.lease_completed);
                    println!("  lease rejected: {}", s.lease_rejected);
                }
                None => println!("server (http://{addr}/stats): unavailable"),
            }
        }
    }
}

/// Renders a nanosecond figure at the precision a summary table wants.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}
