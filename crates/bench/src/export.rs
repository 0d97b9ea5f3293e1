//! BENCH JSON export.
//!
//! The experiment tables print for humans; the BENCH files are the
//! machine-readable record: schema-tagged JSON documents written next
//! to the CSVs under `target/experiments/`.  Each bench builds its
//! entries as plain [`Value`] objects; [`write_bench`] wraps them in the
//! envelope of their [`insane_telemetry::BENCHES`] row and validates
//! them (keys and gate) before writing, so a violated bound fails the
//! bench run itself, not just a later `insanectl check-bench`.

use std::fs;
use std::path::PathBuf;

use insane_telemetry::{validate_bench, Value, BENCHES};

use crate::report::experiments_dir;
use crate::stats::Series;
use crate::BenchError;

/// One `BENCH_latency.json` entry: a system × testbed × payload RTT
/// series as its quantile ladder.
pub fn latency_entry(system: &str, testbed: &str, payload_bytes: usize, series: &Series) -> Value {
    Value::object([
        ("system", system.into()),
        ("testbed", testbed.into()),
        ("payload_bytes", (payload_bytes as u64).into()),
        ("samples", (series.len() as u64).into()),
        ("p50_ns", series.median().into()),
        ("p90_ns", series.p90().into()),
        ("p99_ns", series.p99().into()),
        ("p999_ns", series.p999().into()),
        ("mean_ns", series.mean().into()),
        ("min_ns", series.min().into()),
        ("max_ns", series.max().into()),
    ])
}

/// The validated document for the BENCH file `file`.
fn document(file: &str, entries: Vec<Value>) -> Result<Value, BenchError> {
    let bench = BENCHES
        .iter()
        .find(|b| b.file == file)
        .ok_or_else(|| BenchError::Other(format!("{file}: not a BENCH file")))?;
    let doc = Value::object([
        ("schema", bench.schema.into()),
        ("factor", crate::bench_factor().into()),
        ("entries", Value::Array(entries)),
    ]);
    validate_bench(&doc).map_err(|e| BenchError::Other(format!("{file} export: {e}")))?;
    Ok(doc)
}

/// Writes the BENCH file `file` (a [`BENCHES`] row) holding `entries`
/// and returns its path.
///
/// # Errors
///
/// Fails on an unknown file name, a missing or mistyped key, a violated
/// gate, or I/O errors.
pub fn write_bench(file: &str, entries: Vec<Value>) -> Result<PathBuf, BenchError> {
    let doc = document(file, entries)?;
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    fs::write(&path, format!("{doc}\n"))?;
    println!("[bench] {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_entry_serializes_the_full_quantile_ladder() {
        let series = Series::from_samples((1..=1000).collect());
        let entry = latency_entry("test", "Local", 64, &series);
        let doc = document("BENCH_latency.json", vec![entry]).unwrap();
        let back = Value::parse(&doc.to_string()).unwrap();
        validate_bench(&back).unwrap();
        let e = &back.get("entries").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("samples").unwrap().as_u64(), Some(1000));
        // Nearest-rank p99.9 over 1..=1000: rank 998 → sample 999.
        assert_eq!(e.get("p999_ns").unwrap().as_u64(), Some(999));
    }

    #[test]
    fn empty_series_fails_validation_instead_of_exporting() {
        let entry = latency_entry("test", "Local", 64, &Series::new());
        assert!(document("BENCH_latency.json", vec![entry]).is_err());
    }

    #[test]
    fn throughput_round_trips_through_the_parser() {
        let entry = Value::object([
            ("system", "INSANE fast".into()),
            ("testbed", "Local".into()),
            ("payload_bytes", 1024u64.into()),
            ("messages", 6000u64.into()),
            ("goodput_gbps", 12.25f64.into()),
        ]);
        let doc = document("BENCH_throughput.json", vec![entry]).unwrap();
        let back = Value::parse(&doc.to_string()).unwrap();
        let e = &back.get("entries").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("goodput_gbps").unwrap().as_f64(), Some(12.25));
    }

    #[test]
    fn unknown_file_is_refused() {
        assert!(document("BENCH_nope.json", vec![]).is_err());
    }
}
