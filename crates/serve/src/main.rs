//! `dri-serve` — serve a result-store root over HTTP.
//!
//! ```text
//! dri-serve --store /var/cache/dri            # 127.0.0.1:7171, DRI_THREADS workers
//! dri-serve --store ... --addr 0.0.0.0:7171   # expose to the rack
//! dri-serve --addr 127.0.0.1:0                # ephemeral port (printed)
//! DRI_TOKEN=s3cret dri-serve --store ...      # accept authenticated pushes
//! ```
//!
//! Workers then point `DRI_REMOTE` at the printed address and replay
//! warm grids with zero local simulations; workers holding the same
//! `DRI_TOKEN` additionally push what they simulate (`DRI_PUSH=1`), so
//! the store fills fleet-wide instead of per machine.
//!
//! Pushes land through the group-commit journal under `<store>/journal/`.
//! Run one `dri-serve` per store root: a second one on a live root exits
//! with an error.

use std::process::ExitCode;
use std::sync::Arc;

use dri_serve::{default_workers, server::lease_ttl_from_env, FaultSpec, Server, TOKEN_ENV};
use dri_store::ResultStore;

const USAGE: &str = "\
usage: dri-serve [--store DIR] [--addr HOST:PORT] [--workers N] [--token SECRET]

Serves a dri-store root as an HTTP result service (GET /healthz,
GET /stats, GET /record/<kind>/v<schema>/<key>, POST /batch; with a
token also PUT /record/..., POST /batch-put, and the campaign
scheduler's POST /lease/claim|renew|complete). Writes land through a
group-commit journal under DIR/journal: one fsync per push batch, acked
after the fsync. One dri-serve per store root. Runs until killed.

options:
  --store DIR       store root (default: the DRI_STORE environment variable)
  --addr HOST:PORT  bind address (default: 127.0.0.1:7171; port 0 = ephemeral)
  --workers N       connection worker threads (default: DRI_THREADS, else
                    the machine's available parallelism)
  --token SECRET    shared write-path secret (default: the DRI_TOKEN
                    environment variable; prefer the variable — argv is
                    visible to every local process). Absent = read-only.
  --help            this text

environment:
  DRI_SHARDS        the fleet this server belongs to (addr1,addr2,...),
                    advertised in /stats and /metrics; clients route by
                    consistent-hashing record keys across the same list
  DRI_REPLICAS      owners per record key in the fleet (default 2)
  DRI_LEASE_TTL_MS  lease TTL granted to --steal workers (default 30000)
  DRI_FAULT         chaos spec, e.g. drop:7,delay:5:40,503:9,torn:11,
                    crash:17 — deterministic fault injection for tests;
                    never set this on a production server";

struct Args {
    store: Option<String>,
    addr: String,
    workers: usize,
    token: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        store: std::env::var("DRI_STORE").ok().filter(|s| !s.is_empty()),
        addr: "127.0.0.1:7171".to_owned(),
        workers: default_workers(),
        token: std::env::var(TOKEN_ENV).ok().filter(|s| !s.is_empty()),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => {
                parsed.store = Some(it.next().ok_or("--store needs a directory")?.clone());
            }
            "--addr" => {
                parsed.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone();
            }
            "--workers" => {
                let raw = it.next().ok_or("--workers needs a positive integer")?;
                parsed.workers = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--workers needs a positive integer, got `{raw}`"))?;
            }
            "--token" => {
                // An empty value means "no token", exactly like the env
                // path — otherwise the banner would claim a write path
                // the server (which filters empty secrets) never enables.
                parsed.token = Some(it.next().ok_or("--token needs a secret")?.clone())
                    .filter(|t| !t.is_empty());
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    let Some(root) = args.store else {
        eprintln!("error: no store root (pass --store DIR or set DRI_STORE)\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let store = match ResultStore::open(&root) {
        Ok(store) => Arc::new(store),
        Err(err) => {
            eprintln!("error: cannot open store at `{root}`: {err}");
            return ExitCode::FAILURE;
        }
    };
    let usage = store.disk_usage();
    let writable = args.token.is_some();
    let faults = match FaultSpec::from_env() {
        Ok(faults) => faults,
        Err(msg) => {
            // A typo'd chaos spec must fail loudly at startup, not
            // silently run a faultless "chaos" test.
            eprintln!("error: bad DRI_FAULT: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let fault_banner = faults.as_ref().map(FaultSpec::describe);
    let server = match Server::bind_with_journal(
        Arc::clone(&store),
        args.addr.as_str(),
        args.workers,
        args.token,
        lease_ttl_from_env(),
        faults,
        None,
    ) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("error: cannot bind `{}`: {err}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(spec) = fault_banner {
        eprintln!("dri-serve: FAULT INJECTION ACTIVE ({spec}) — chaos-test mode");
    }
    eprintln!("dri-serve: group-commit journal on");
    if let Some((shards, replicas)) = dri_serve::sharded::fleet_membership_from_env() {
        eprintln!("dri-serve: fleet member ({shards} shards, {replicas} replicas per key)");
    }
    // The listening line goes to stdout so scripts can capture the
    // (possibly ephemeral) port; progress/diagnostics stay on stderr.
    println!("dri-serve: listening on http://{}", server.addr());
    eprintln!(
        "dri-serve: store {root} ({} records, {} bytes), {} workers; {} — Ctrl-C to stop",
        usage.records,
        usage.bytes,
        args.workers,
        if writable {
            "accepting authenticated pushes (DRI_TOKEN)"
        } else {
            "read-only (set DRI_TOKEN to accept pushes)"
        }
    );
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}
