//! Very short runs of each workload through the real binary: each must
//! exit 0, pass its output checks, and print a number for every metric
//! `BENCHMARK.json` lists.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The metric names listed in `BENCHMARK.json` under `section`.
fn listed(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body[1..]
        .find("\"per_layer\"")
        .map_or(body.len(), |i| i + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

/// Runs the benchmark in a directory of its own and returns the
/// last line of its standard output.
fn run(workload: &str, trace: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} exited {:?}:\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_owned();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.contains("\"failed\": 0, "),
        "{workload}: {last}\n{stderr}"
    );
    last
}

/// Asserts that `last` reports exactly the metrics `BENCHMARK.json`
/// lists under `section`, each with a number.
fn reports_every_metric(last: &str, section: &str) {
    let names = listed(section);
    assert!(!names.is_empty(), "{section} lists no metrics");
    for name in &names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {last}"));
        let value = &last[at + key.len()..];
        assert!(
            value.starts_with(|c: char| c.is_ascii_digit() || c == '-'),
            "{name} has no number: {last}"
        );
    }
    assert_eq!(last.matches("\"value\": ").count(), names.len(), "{last}");
}

#[test]
fn grid_cold_reports_every_end_to_end_metric() {
    reports_every_metric(&run("grid_cold", "0"), "end_to_end");
}

#[test]
fn replay_sharded_reports_every_end_to_end_metric() {
    reports_every_metric(&run("replay_sharded", "0"), "end_to_end");
}

#[test]
fn steal_push_reports_every_end_to_end_metric() {
    reports_every_metric(&run("steal_push", "0"), "end_to_end");
}

/// A traced run measures the other workloads in short sections, so one
/// traced run exercises all three workloads' per-layer paths.
#[test]
fn traced_run_reports_every_per_layer_metric() {
    let last = run("replay_sharded", "1");
    reports_every_metric(&last, "per_layer");
    assert!(
        !last.contains("\"setup_s\""),
        "a traced run reports layers only: {last}"
    );
}
