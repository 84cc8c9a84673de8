//! `saturation` — fleet saturation trajectory for the bench record.
//!
//! Sweeps client connection counts against an in-process fleet and
//! reports sustained throughput (records/s), for every cell of
//! {fetch, push} × {1 shard, 3 shards}. Each measured op is a full HTTP
//! request on a fresh loopback connection — exactly the connection
//! churn a worker fleet generates.
//!
//! The two op kinds saturate different resources. Warm fetches are
//! CPU-bound and show how the front end holds up as connections
//! multiply. Journaled pushes are bound by the group-commit window —
//! a per-*server* latency floor every PUT pays to share its fsync — so
//! their aggregate throughput scales with the number of shards even on
//! one core: that is the cell the headline check pins (3 shards must
//! beat 1 on push records/s).
//!
//! ```text
//! saturation --out BENCH_10.json          # the CI trajectory artifact
//! saturation --ops 500 --connections 1,4  # a quick local smoke
//! ```
//!
//! Results land as JSON on `--out` (stdout summary always), shaped like
//! the repo's `BENCH_*.json` trajectory files.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dri_serve::{Server, ShardedStore};
use dri_store::{frame_record, ResultStore};

const KIND: &str = "dri";
const SCHEMA: u32 = 1;
const TOKEN: &str = "saturation-bench";
/// Connection worker threads per server — deliberately small, so the
/// push cells hit the worker-capacity × commit-window ceiling a real
/// fleet member has, instead of scaling with client threads.
const WORKERS: usize = 2;

const USAGE: &str = "\
usage: saturation [--records N] [--ops N] [--push-ops N]
                  [--connections LIST] [--out FILE]

Measures fleet throughput (records/s) per client connection count, for
each op kind (warm fetch, journaled push) and fleet size (1 vs 3
shards). Servers run in-process on ephemeral ports over temp stores;
nothing external is touched.

options:
  --records N         distinct warm records to seed per fleet (default 64)
  --ops N             fetches measured per cell (default 2000)
  --push-ops N        pushes measured per cell (default 600)
  --connections LIST  comma-separated client thread counts (default 1,4,8)
  --out FILE          write the JSON trajectory point here
  --help              this text";

struct Args {
    records: usize,
    ops: usize,
    push_ops: usize,
    connections: Vec<usize>,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        records: 64,
        ops: 2000,
        push_ops: 600,
        connections: vec![1, 4, 8],
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--records" => {
                parsed.records = positive(it.next().ok_or("--records needs a count")?)?;
            }
            "--ops" => {
                parsed.ops = positive(it.next().ok_or("--ops needs a count")?)?;
            }
            "--push-ops" => {
                parsed.push_ops = positive(it.next().ok_or("--push-ops needs a count")?)?;
            }
            "--connections" => {
                let raw = it.next().ok_or("--connections needs a list")?;
                parsed.connections = raw
                    .split(',')
                    .map(|part| positive(part.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => {
                parsed.out = Some(it.next().ok_or("--out needs a file")?.clone());
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn positive(raw: impl AsRef<str>) -> Result<usize, String> {
    let raw = raw.as_ref();
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("expected a positive integer, got `{raw}`"))
}

/// One measured cell of the sweep.
struct Cell {
    op: &'static str,
    shards: usize,
    connections: usize,
    records: usize,
    elapsed_ns: u128,
    records_per_s: f64,
}

/// A running fleet: servers on ephemeral ports over temp stores.
struct Fleet {
    servers: Vec<Server>,
    roots: Vec<PathBuf>,
    addrs: Vec<String>,
}

impl Fleet {
    fn start(shards: usize) -> std::io::Result<Fleet> {
        let mut servers = Vec::new();
        let mut roots = Vec::new();
        let mut addrs = Vec::new();
        for shard in 0..shards {
            let root = std::env::temp_dir().join(format!(
                "dri-saturation-{shards}-{shard}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&root);
            let store = Arc::new(ResultStore::open(&root).map_err(std::io::Error::other)?);
            let server =
                Server::bind_with_token(store, "127.0.0.1:0", WORKERS, Some(TOKEN.to_owned()))?;
            addrs.push(server.addr().to_string());
            servers.push(server);
            roots.push(root);
        }
        Ok(Fleet {
            servers,
            roots,
            addrs,
        })
    }

    fn stop(self) {
        for server in self.servers {
            server.shutdown();
        }
        for root in self.roots {
            let _ = fs::remove_dir_all(root);
        }
    }
}

/// Spreads a small index across the 64-bit keyspace.
fn widen(index: u64) -> u128 {
    (index.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 11) as u128
}

/// A deterministic, well-spread key grid.
fn keys(records: usize) -> Vec<u128> {
    (0..records as u64).map(widen).collect()
}

/// Seeds the fleet warm and verifies every record landed.
fn seed(fleet: &ShardedStore, keys: &[u128]) -> Result<(), String> {
    let records: Vec<Vec<u8>> = keys
        .iter()
        .map(|&key| frame_record(SCHEMA, key, &key.to_le_bytes()))
        .collect();
    let entries: Vec<(&str, u32, u128, &[u8])> = keys
        .iter()
        .zip(&records)
        .map(|(&key, record)| (KIND, SCHEMA, key, record.as_slice()))
        .collect();
    let (outcomes, _) = fleet.push_batch(&entries);
    if outcomes
        .iter()
        .any(|o| *o != dri_serve::PushOutcome::Accepted)
    {
        return Err("seed push was not fully accepted".to_owned());
    }
    Ok(())
}

/// Runs `ops` single-record operations split across `connections`
/// client threads (each with its own [`ShardedStore`], so its own
/// sockets), returning sustained records/s. `op` gets the client and a
/// globally unique op index.
fn measure(
    addrs: &[String],
    connections: usize,
    ops: usize,
    op: impl Fn(&ShardedStore, usize) + Sync,
) -> (u128, f64) {
    let next = AtomicUsize::new(0);
    let op = &op;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let client = ShardedStore::new(addrs.to_vec(), 1, Some(TOKEN.to_owned()))
                    .expect("client fleet");
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= ops {
                        break;
                    }
                    op(&client, index);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let rate = ops as f64 / elapsed.as_secs_f64();
    (elapsed.as_nanos(), rate)
}

fn json_escape(raw: &str) -> String {
    raw.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render(cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n  \"pr\": 10,\n  \"bench\": \"saturation\",\n");
    let host = std::env::var("BENCH_HOST").unwrap_or_else(|_| "unknown".to_owned());
    out.push_str(&format!("  \"host\": \"{}\",\n", json_escape(&host)));
    if let Ok(commit) = std::env::var("BENCH_COMMIT") {
        out.push_str(&format!("  \"commit\": \"{}\",\n", json_escape(&commit)));
    }
    out.push_str(
        "  \"note\": \"single-record ops over fresh loopback connections; each cell is \
         op x fleet-size x client-connections. fetch is warm and CPU-bound; \
         push is group-commit-journal bound (per-server commit window), the axis where \
         shard count multiplies throughput\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (idx, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"name\": \"saturation/{}/{}shard/{}conn\",\n      \
             \"op\": \"{}\",\n      \
             \"shards\": {},\n      \"connections\": {},\n      \
             \"records\": {},\n      \"elapsed_ns\": {},\n      \"records_per_s\": {:.1}\n    }}{}\n",
            cell.op,
            cell.shards,
            cell.connections,
            cell.op,
            cell.shards,
            cell.connections,
            cell.records,
            cell.elapsed_ns,
            cell.records_per_s,
            if idx + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
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

    let key_grid = keys(args.records);
    let mut cells = Vec::new();
    for shards in [1usize, 3] {
        let fleet = match Fleet::start(shards) {
            Ok(fleet) => fleet,
            Err(err) => {
                eprintln!("error: cannot start {shards}-shard fleet: {err}");
                return ExitCode::FAILURE;
            }
        };
        let client =
            ShardedStore::new(fleet.addrs.clone(), 1, Some(TOKEN.to_owned())).expect("seed client");
        if let Err(msg) = seed(&client, &key_grid) {
            eprintln!("error: {msg}");
            fleet.stop();
            return ExitCode::FAILURE;
        }
        for &connections in &args.connections {
            // Warm reads: CPU-bound, isolates the front end.
            let keys = &key_grid;
            let (elapsed_ns, records_per_s) =
                measure(&fleet.addrs, connections, args.ops, |client, index| {
                    let key = keys[index % keys.len()];
                    assert!(
                        client.fetch(KIND, SCHEMA, key).is_some(),
                        "warm fetch of {key:x} missed"
                    );
                });
            eprintln!(
                "saturation: fetch {shards} shard(s) {connections:>2} conn: \
                 {records_per_s:>9.1} records/s ({} ops)",
                args.ops
            );
            cells.push(Cell {
                op: "fetch",
                shards,
                connections,
                records: args.ops,
                elapsed_ns,
                records_per_s,
            });

            // Journaled writes: commit-window bound per server, so
            // aggregate throughput scales with the shard count.
            let salt = (cells.len() as u128) << 96;
            let (elapsed_ns, records_per_s) =
                measure(&fleet.addrs, connections, args.push_ops, |client, index| {
                    let key = salt | widen(index as u64);
                    let record = frame_record(SCHEMA, key, &key.to_le_bytes());
                    assert_eq!(
                        client.push(KIND, SCHEMA, key, &record),
                        dri_serve::PushOutcome::Accepted,
                        "push of {key:x} refused"
                    );
                });
            eprintln!(
                "saturation: push  {shards} shard(s) {connections:>2} conn: \
                 {records_per_s:>9.1} records/s ({} ops)",
                args.push_ops
            );
            cells.push(Cell {
                op: "push",
                shards,
                connections,
                records: args.push_ops,
                elapsed_ns,
                records_per_s,
            });
        }
        fleet.stop();
    }

    let rendered = render(&cells);
    if let Some(path) = &args.out {
        if let Err(err) = fs::write(path, &rendered) {
            eprintln!("error: cannot write `{path}`: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("saturation: wrote {path}");
    } else {
        print!("{rendered}");
    }

    // The trajectory's headline claim, machine-checked here so CI fails
    // the moment sharding stops buying throughput: at the best measured
    // concurrency, 3 shards beat 1 on push records/s (the
    // commit-window-bound axis — warm fetches are client-CPU-bound on
    // small hosts and may not separate).
    let best = |shards: usize| {
        cells
            .iter()
            .filter(|c| c.op == "push" && c.shards == shards)
            .map(|c| c.records_per_s)
            .fold(0.0f64, f64::max)
    };
    let (one, three) = (best(1), best(3));
    if three <= one {
        eprintln!("error: 3 shards ({three:.1} rec/s) did not beat 1 shard ({one:.1} rec/s)");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "saturation: 3 shards sustain {:.2}x 1 shard on pushes",
        three / one
    );
    ExitCode::SUCCESS
}
