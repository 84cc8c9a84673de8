//! The tiers end to end, through the real `suite` binary: a quick
//! figure 3 over two benchmarks prints the same bytes whether every
//! record is simulated in memory, simulated into an empty store, loaded
//! back from that store, or loaded back one lookup at a time with
//! prefetch off — and the warm runs simulate nothing.
//!
//! `cargo test --workspace` builds the binary; each run's stdout and
//! stderr are kept under `CARGO_TARGET_TMPDIR` for inspection.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `suite figure3` at quick scale over li and gcc, with only the
/// `DRI_*` settings given here, and returns its stdout and stderr (also
/// written to `<logs>/<tag>.stdout` and `.stderr`).
fn suite_figure3(logs: &Path, tag: &str, store: Option<&Path>, args: &[&str]) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_suite"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DRI_") {
            cmd.env_remove(name);
        }
    }
    cmd.env("DRI_QUICK", "1")
        .env("DRI_BENCHMARKS", "li,gcc")
        .args(args)
        .arg("figure3");
    if let Some(store) = store {
        cmd.env("DRI_STORE", store);
    }
    let out = cmd.output().expect("run suite");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    std::fs::write(logs.join(format!("{tag}.stdout")), &stdout).expect("write log");
    std::fs::write(logs.join(format!("{tag}.stderr")), &stderr).expect("write log");
    assert!(out.status.success(), "{tag}: suite failed:\n{stderr}");
    (stdout, stderr)
}

#[test]
fn figure3_prints_alike_from_every_tier() {
    let logs = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("suite-tiers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&logs);
    std::fs::create_dir_all(&logs).expect("create log dir");
    let store = logs.join("store");

    let (memory, _) = suite_figure3(&logs, "memory", None, &[]);
    let (cold, _) = suite_figure3(&logs, "cold", Some(&store), &[]);
    let (warm, warm_err) = suite_figure3(&logs, "warm", Some(&store), &[]);
    let (per_point, per_point_err) =
        suite_figure3(&logs, "warm-no-prefetch", Some(&store), &["--no-prefetch"]);

    assert!(!memory.is_empty(), "figure3 printed its table");
    assert_eq!(cold, memory, "cold store run vs memory-only run");
    assert_eq!(warm, memory, "warm store run vs memory-only run");
    assert_eq!(per_point, memory, "warm per-point run vs memory-only run");
    for (tag, stderr) in [("warm", &warm_err), ("warm-no-prefetch", &per_point_err)] {
        assert!(
            stderr.contains("session: 0 simulations"),
            "{tag}: every record comes from the store:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&store);
}
