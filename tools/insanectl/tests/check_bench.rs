//! `insanectl check-bench` against hand-written BENCH directories.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

const LATENCY: &str = r#"{"schema":"insane-bench-latency-v1","factor":1.0,"entries":[
  {"system":"INSANE fast","testbed":"Local","payload_bytes":64,"samples":300,
   "p50_ns":1000,"p90_ns":1500,"p99_ns":2000,"p999_ns":2500,"mean_ns":1100.5,
   "min_ns":900,"max_ns":3000}]}"#;

const THROUGHPUT: &str = r#"{"schema":"insane-bench-throughput-v1","factor":1.0,"entries":[
  {"system":"INSANE fast","testbed":"Local","payload_bytes":1024,"messages":6000,
   "goodput_gbps":12.5}]}"#;

/// A noisy-neighbor document with the given victim p99s and the old
/// self-declared ratio and bound keys, which the validator must ignore.
fn noisy(solo: u64, contended: u64) -> String {
    format!(
        r#"{{"schema":"insane-bench-noisy-neighbor-v1","factor":1.0,"entries":[
  {{"system":"INSANE multi-tenant","testbed":"Local","payload_bytes":64,"samples":200,
   "solo_p99_ns":{solo},"contended_p99_ns":{contended},"isolation_ratio_x1000":1500,
   "bound_x1000":99999,"bulk_rejections":12,"victim_rejections":0}}]}}"#
    )
}

/// A fresh directory holding `files`.
fn bench_dir(case: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "insanectl-check-bench-{}-{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for (name, text) in files {
        fs::write(dir.join(name), text).unwrap();
    }
    dir
}

/// Runs `check-bench` on `files`; returns whether it succeeded and its
/// combined output.
fn check(case: &str, files: &[(&str, &str)]) -> (bool, String) {
    let dir = bench_dir(case, files);
    let out = Command::new(env!("CARGO_BIN_EXE_insanectl"))
        .arg("check-bench")
        .arg(&dir)
        .output()
        .unwrap();
    let _ = fs::remove_dir_all(&dir);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn valid_documents_pass() {
    let noisy = noisy(10_000, 15_000);
    let (ok, out) = check(
        "valid",
        &[
            ("BENCH_latency.json", LATENCY),
            ("BENCH_throughput.json", THROUGHPUT),
            ("BENCH_noisy_neighbor.json", &noisy),
            ("notes.txt", "not a BENCH file"),
        ],
    );
    assert!(ok, "{out}");
    assert!(
        out.contains("BENCH_noisy_neighbor.json: ok (1 entries)"),
        "{out}"
    );
}

#[test]
fn missing_required_file_fails() {
    let (ok, out) = check("missing", &[("BENCH_latency.json", LATENCY)]);
    assert!(!ok, "{out}");
    assert!(out.contains("BENCH_throughput.json"), "{out}");
}

#[test]
fn gate_violation_fails_whatever_bound_the_document_claims() {
    let noisy = noisy(10_000, 50_000);
    let (ok, out) = check(
        "gate",
        &[
            ("BENCH_latency.json", LATENCY),
            ("BENCH_throughput.json", THROUGHPUT),
            ("BENCH_noisy_neighbor.json", &noisy),
        ],
    );
    assert!(!ok, "{out}");
    assert!(out.contains("isolation violated"), "{out}");
}

#[test]
fn stray_bench_file_with_unknown_marker_fails() {
    let (ok, out) = check(
        "stray",
        &[
            ("BENCH_latency.json", LATENCY),
            ("BENCH_throughput.json", THROUGHPUT),
            (
                "BENCH_frobnicate.json",
                r#"{"schema":"insane-bench-frobnicate-v1","factor":1.0,"entries":[]}"#,
            ),
        ],
    );
    assert!(!ok, "{out}");
    assert!(out.contains("unknown schema marker"), "{out}");
}

#[test]
fn document_under_the_wrong_name_fails() {
    let (ok, out) = check(
        "misnamed",
        &[
            ("BENCH_latency.json", THROUGHPUT),
            ("BENCH_throughput.json", THROUGHPUT),
        ],
    );
    assert!(!ok, "{out}");
    assert!(out.contains("belongs in BENCH_throughput.json"), "{out}");
}
