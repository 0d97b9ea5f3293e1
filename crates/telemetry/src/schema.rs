//! Schema validation for the BENCH export documents.
//!
//! [`BENCHES`] is the one place that knows each BENCH file: its name,
//! its schema marker, whether `insanectl check-bench` requires it, the
//! keys every entry carries, and the gate the measurements must pass.
//! The bounds are the `*_X1000` constants below.  Documents carry raw
//! measurements only; every ratio is derived here, so a consumer never
//! trusts a bound or a ratio the producer wrote.  `crates/bench`
//! validates before it writes and `insanectl check-bench` (plus the CI
//! bench-smoke job) re-validates after the fact, through the same
//! [`validate_bench`].

use crate::json::Value;
use Kind::{Int, PosInt, PosNum, Str};

/// Noisy-neighbor gate: the victim's contended p99 may be at most
/// 2.000x its solo p99.
pub const NOISY_NEIGHBOR_BOUND_X1000: u64 = 2_000;
/// Mixed-criticality gate: the critical flow's p99.9 at every load point
/// may be at most 2.000x the solo baseline's p99.9.
pub const ISOLATION_TAIL_BOUND_X1000: u64 = 2_000;
/// Hot-path gate: the uncontended snapshot read may cost at most 1.100x
/// the locked read it replaced (the slack absorbs timer noise).
pub const HOTPATH_UNCONTENDED_BOUND_X1000: u64 = 1_100;
/// Hot-path gate: under a live writer the snapshot reader's p99 may be
/// at most 1.100x the locked reader's p99.
pub const HOTPATH_CONTENDED_BOUND_X1000: u64 = 1_100;
/// Process-split gate: the cross-process round-trip p99 may be at most
/// 2.000x the in-process p99.
pub const IPC_BOUND_X1000: u64 = 2_000;
/// Shard scale-out floor: 2 shards must deliver at least 1.300x the
/// 1-shard goodput (checked when both points were measured).
pub const SHARD_SPEEDUP_FLOOR_X1000: u64 = 1_300;

/// `num / den` in fixed-point thousandths, the arithmetic every gate
/// and every bench printout uses.
pub fn ratio_x1000(num: u64, den: u64) -> u64 {
    num.saturating_mul(1_000) / den.max(1)
}

/// Why a BENCH document failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    what: String,
}

impl SchemaError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

impl std::error::Error for SchemaError {}

/// The type a required entry key must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A string.
    Str,
    /// A non-negative integer.
    Int,
    /// An integer greater than zero.
    PosInt,
    /// A finite number greater than zero.
    PosNum,
}

impl Kind {
    fn holds(self, v: Option<&Value>) -> bool {
        match self {
            Str => v.and_then(Value::as_str).is_some(),
            Int => v.and_then(Value::as_u64).is_some(),
            PosInt => v.and_then(Value::as_u64).is_some_and(|n| n > 0),
            PosNum => v
                .and_then(Value::as_f64)
                .is_some_and(|x| x.is_finite() && x > 0.0),
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Str => "a string",
            Int => "an integer",
            PosInt => "a positive integer",
            PosNum => "a finite positive number",
        }
    }
}

/// One BENCH file format: a row of [`BENCHES`].
#[derive(Debug)]
pub struct Bench {
    /// File name under the experiments directory.
    pub file: &'static str,
    /// The document's `schema` marker.
    pub schema: &'static str,
    /// Whether `insanectl check-bench` fails when the file is absent.
    pub required: bool,
    /// Keys every entry must carry, with their kinds.
    keys: &'static [(&'static str, Kind)],
    /// Checks the measurements once every key has the right kind.
    gate: fn(&[Value]) -> Result<(), SchemaError>,
}

/// Every BENCH file the bench harness writes.
pub const BENCHES: &[Bench] = &[
    // RTT quantile ladders per system × payload.
    Bench {
        file: "BENCH_latency.json",
        schema: "insane-bench-latency-v1",
        required: true,
        keys: &[
            ("system", Str),
            ("testbed", Str),
            ("payload_bytes", Int),
            ("samples", PosInt),
            ("p50_ns", Int),
            ("p90_ns", Int),
            ("p99_ns", Int),
            ("p999_ns", Int),
            ("max_ns", Int),
            ("min_ns", Int),
            ("mean_ns", PosNum),
        ],
        gate: latency_gate,
    },
    // Goodput per system × payload.
    Bench {
        file: "BENCH_throughput.json",
        schema: "insane-bench-throughput-v1",
        required: true,
        keys: &[
            ("system", Str),
            ("testbed", Str),
            ("payload_bytes", Int),
            ("messages", Int),
            ("goodput_gbps", PosNum),
        ],
        gate: |_| Ok(()),
    },
    // Aggregate goodput per shard count of the sharded polling engine.
    Bench {
        file: "BENCH_shard_throughput.json",
        schema: "insane-bench-shard-throughput-v1",
        required: false,
        keys: &[
            ("system", Str),
            ("testbed", Str),
            ("payload_bytes", Int),
            ("messages", Int),
            ("goodput_gbps", PosNum),
            ("shards", PosInt),
        ],
        gate: shard_gate,
    },
    // A victim tenant's p99 solo and beside a saturating tenant.  The
    // noisy tenant must have been refused at least once (it saturated
    // its limits); the victim never.
    Bench {
        file: "BENCH_noisy_neighbor.json",
        schema: "insane-bench-noisy-neighbor-v1",
        required: false,
        keys: &[
            ("system", Str),
            ("testbed", Str),
            ("payload_bytes", Int),
            ("samples", PosInt),
            ("solo_p99_ns", PosInt),
            ("contended_p99_ns", PosInt),
            ("bulk_rejections", PosInt),
            ("victim_rejections", Int),
        ],
        gate: noisy_neighbor_gate,
    },
    // Locked vs snapshot control-state reads, and sequenced traffic
    // across live reloads (at least one reload, nothing lost or
    // reordered).
    Bench {
        file: "BENCH_hotpath.json",
        schema: "insane-bench-hotpath-v1",
        required: false,
        keys: &[
            ("system", Str),
            ("testbed", Str),
            ("samples", PosInt),
            ("locked_read_ns_x1000", PosInt),
            ("snapshot_read_ns_x1000", PosInt),
            ("locked_p99_ns", PosInt),
            ("snapshot_p99_ns", PosInt),
            ("reloads", PosInt),
            ("dropped", Int),
            ("reordered", Int),
        ],
        gate: hotpath_gate,
    },
    // In-process vs cross-process round trips, plus a crash phase that
    // must have force-reclaimed slots and leaked none.
    Bench {
        file: "BENCH_ipc.json",
        schema: "insane-bench-ipc-v1",
        required: false,
        keys: &[
            ("system", Str),
            ("testbed", Str),
            ("messages", PosInt),
            ("in_process_p50_ns", PosInt),
            ("in_process_p99_ns", PosInt),
            ("cross_process_p50_ns", PosInt),
            ("cross_process_p99_ns", PosInt),
            ("attach_ns", PosInt),
            ("reclaim_ns", PosInt),
            ("reclaimed_slots", PosInt),
            ("leaked_slots", Int),
        ],
        gate: ipc_gate,
    },
    // The critical flow's one-way latency per bulk load point over the
    // time-aware shard (DESIGN.md §14).  `lost`, `bulk_rejections`,
    // `injected_drops` and `reorders` are the seeded fault record:
    // reported, not bounded.
    Bench {
        file: "BENCH_isolation.json",
        schema: "insane-bench-isolation-v1",
        required: false,
        keys: &[
            ("system", Str),
            ("testbed", Str),
            ("samples", PosInt),
            ("bulk_burst", Int),
            ("p50_ns", PosInt),
            ("p99_ns", PosInt),
            ("p999_ns", PosInt),
            ("solo_p999_ns", PosInt),
            ("budget_ns", PosInt),
            ("budget_violations", Int),
            ("gate_deferrals", Int),
            ("lost", Int),
            ("bulk_rejections", Int),
            ("injected_drops", Int),
            ("reorders", Int),
        ],
        gate: isolation_gate,
    },
];

/// Validates a BENCH document against the [`BENCHES`] row its `schema`
/// marker names: the envelope (`schema`, a positive `factor`, an
/// `entries` array), every entry's keys, then the row's gate.
///
/// # Errors
///
/// Describes the unknown marker, the first missing or mistyped key, or
/// the violated gate.
pub fn validate_bench(doc: &Value) -> Result<&'static Bench, SchemaError> {
    let marker = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| SchemaError::new("missing string key \"schema\""))?;
    let bench = BENCHES
        .iter()
        .find(|b| b.schema == marker)
        .ok_or_else(|| SchemaError::new(format!("unknown schema marker {marker:?}")))?;
    if !PosNum.holds(doc.get("factor")) {
        return Err(SchemaError::new(
            "\"factor\" must be a finite positive number",
        ));
    }
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| SchemaError::new("missing array key \"entries\""))?;
    for (i, entry) in entries.iter().enumerate() {
        for &(key, kind) in bench.keys {
            if !kind.holds(entry.get(key)) {
                return Err(SchemaError::new(format!(
                    "entry {i}: {key:?} must be {}",
                    kind.describe()
                )));
            }
        }
    }
    (bench.gate)(entries)?;
    Ok(bench)
}

/// A key the row's key list has already checked.
fn num(entry: &Value, key: &str) -> u64 {
    entry.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn fail<T>(i: usize, what: String) -> Result<T, SchemaError> {
    Err(SchemaError::new(format!("entry {i}: {what}")))
}

/// Fails when `num / den` in thousandths exceeds `bound`.
fn within(i: usize, what: &str, num: u64, den: u64, bound: u64) -> Result<(), SchemaError> {
    let ratio = ratio_x1000(num, den);
    if ratio > bound {
        return fail(
            i,
            format!("{what} {ratio}/1000 exceeds the bound {bound}/1000"),
        );
    }
    Ok(())
}

fn must_be_zero(i: usize, entry: &Value, key: &str, what: &str) -> Result<(), SchemaError> {
    match num(entry, key) {
        0 => Ok(()),
        n => fail(i, format!("{n} {what}")),
    }
}

fn latency_gate(entries: &[Value]) -> Result<(), SchemaError> {
    for (i, e) in entries.iter().enumerate() {
        let ladder = ["p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns"].map(|k| num(e, k));
        if ladder.windows(2).any(|w| w[0] > w[1]) {
            let [p50, p90, p99, p999, max] = ladder;
            return fail(
                i,
                format!(
                    "quantile ladder not monotone \
                     (p50 {p50} / p90 {p90} / p99 {p99} / p99.9 {p999} / max {max})"
                ),
            );
        }
    }
    Ok(())
}

fn shard_gate(entries: &[Value]) -> Result<(), SchemaError> {
    let goodput = |shards: u64| {
        entries
            .iter()
            .find(|e| num(e, "shards") == shards)
            .and_then(|e| e.get("goodput_gbps"))
            .and_then(Value::as_f64)
    };
    if let (Some(one), Some(two)) = (goodput(1), goodput(2)) {
        if two * 1_000.0 < one * SHARD_SPEEDUP_FLOOR_X1000 as f64 {
            return Err(SchemaError::new(format!(
                "shard scale-out: 2 shards reached only {:.3}x of the 1-shard \
                 goodput (floor {}/1000)",
                two / one,
                SHARD_SPEEDUP_FLOOR_X1000
            )));
        }
    }
    Ok(())
}

fn noisy_neighbor_gate(entries: &[Value]) -> Result<(), SchemaError> {
    for (i, e) in entries.iter().enumerate() {
        within(
            i,
            "isolation violated: contended/solo p99 ratio",
            num(e, "contended_p99_ns"),
            num(e, "solo_p99_ns"),
            NOISY_NEIGHBOR_BOUND_X1000,
        )?;
        must_be_zero(
            i,
            e,
            "victim_rejections",
            "rejections of the in-quota tenant; isolation must not punish it",
        )?;
    }
    Ok(())
}

fn hotpath_gate(entries: &[Value]) -> Result<(), SchemaError> {
    for (i, e) in entries.iter().enumerate() {
        within(
            i,
            "uncontended regression: snapshot/locked read ratio",
            num(e, "snapshot_read_ns_x1000"),
            num(e, "locked_read_ns_x1000"),
            HOTPATH_UNCONTENDED_BOUND_X1000,
        )?;
        within(
            i,
            "contended tail regression: snapshot/locked p99 ratio",
            num(e, "snapshot_p99_ns"),
            num(e, "locked_p99_ns"),
            HOTPATH_CONTENDED_BOUND_X1000,
        )?;
        must_be_zero(i, e, "dropped", "message(s) dropped across a live reload")?;
        must_be_zero(
            i,
            e,
            "reordered",
            "message(s) reordered across a live reload",
        )?;
    }
    Ok(())
}

fn ipc_gate(entries: &[Value]) -> Result<(), SchemaError> {
    for (i, e) in entries.iter().enumerate() {
        for deployment in ["in_process", "cross_process"] {
            let p50 = num(e, &format!("{deployment}_p50_ns"));
            let p99 = num(e, &format!("{deployment}_p99_ns"));
            if p50 > p99 {
                return fail(i, format!("{deployment} p50 {p50} exceeds p99 {p99}"));
            }
        }
        within(
            i,
            "process-split overhead: cross/in-process p99 ratio",
            num(e, "cross_process_p99_ns"),
            num(e, "in_process_p99_ns"),
            IPC_BOUND_X1000,
        )?;
        must_be_zero(i, e, "leaked_slots", "slot(s) leaked after a client crash")?;
    }
    Ok(())
}

fn isolation_gate(entries: &[Value]) -> Result<(), SchemaError> {
    if entries.is_empty() {
        return Err(SchemaError::new("no load points recorded"));
    }
    for (i, e) in entries.iter().enumerate() {
        let burst = num(e, "bulk_burst");
        must_be_zero(
            i,
            e,
            "budget_violations",
            &format!("critical message(s) missed their latency budget at bulk_burst {burst}"),
        )?;
        within(
            i,
            &format!("tail isolation violated at bulk_burst {burst}: critical p99.9/solo ratio"),
            num(e, "p999_ns"),
            num(e, "solo_p999_ns"),
            ISOLATION_TAIL_BOUND_X1000,
        )?;
    }
    if !entries.iter().any(|e| num(e, "bulk_burst") == 0) {
        return Err(SchemaError::new(
            "no solo baseline (bulk_burst == 0) load point recorded",
        ));
    }
    if entries.iter().all(|e| num(e, "gate_deferrals") == 0) {
        return Err(SchemaError::new(
            "no gate deferrals recorded at any load point: the time-aware \
             gates never held a frame, so the run measured nothing",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(file: &str) -> &'static str {
        BENCHES
            .iter()
            .find(|b| b.file == file)
            .map(|b| b.schema)
            .unwrap()
    }

    fn doc(file: &str, entries: Vec<Value>) -> Value {
        Value::object([
            ("schema", marker(file).into()),
            ("factor", 1.0f64.into()),
            ("entries", Value::Array(entries)),
        ])
    }

    /// `entry` with each `(key, value)` replaced, or appended if absent.
    fn set(mut entry: Value, changes: &[(&str, Value)]) -> Value {
        if let Value::Object(pairs) = &mut entry {
            for (key, v) in changes {
                match pairs.iter_mut().find(|(k, _)| k == key) {
                    Some(pair) => pair.1 = v.clone(),
                    None => pairs.push(((*key).to_string(), v.clone())),
                }
            }
        }
        entry
    }

    fn without(mut entry: Value, key: &str) -> Value {
        if let Value::Object(pairs) = &mut entry {
            pairs.retain(|(k, _)| k != key);
        }
        entry
    }

    fn latency() -> Value {
        Value::object([
            ("system", "INSANE fast".into()),
            ("testbed", "Local".into()),
            ("payload_bytes", 64u64.into()),
            ("samples", 300u64.into()),
            ("p50_ns", 1000u64.into()),
            ("p90_ns", 1500u64.into()),
            ("p99_ns", 2000u64.into()),
            ("p999_ns", 2500u64.into()),
            ("mean_ns", 1100.5f64.into()),
            ("min_ns", 900u64.into()),
            ("max_ns", 3000u64.into()),
        ])
    }

    fn throughput() -> Value {
        Value::object([
            ("system", "INSANE fast".into()),
            ("testbed", "Local".into()),
            ("payload_bytes", 1024u64.into()),
            ("messages", 6000u64.into()),
            ("goodput_gbps", 12.5f64.into()),
        ])
    }

    fn shard(shards: u64, gbps: f64) -> Value {
        set(
            throughput(),
            &[("shards", shards.into()), ("goodput_gbps", gbps.into())],
        )
    }

    fn noisy() -> Value {
        Value::object([
            ("system", "INSANE multi-tenant".into()),
            ("testbed", "Local".into()),
            ("payload_bytes", 64u64.into()),
            ("samples", 200u64.into()),
            ("solo_p99_ns", 10_000u64.into()),
            ("contended_p99_ns", 15_000u64.into()),
            ("bulk_rejections", 12u64.into()),
            ("victim_rejections", 0u64.into()),
        ])
    }

    fn isolation(bulk_burst: u64) -> Value {
        Value::object([
            ("system", "INSANE tas".into()),
            ("testbed", "Local".into()),
            ("samples", 200u64.into()),
            ("bulk_burst", bulk_burst.into()),
            ("p50_ns", 400_000u64.into()),
            ("p99_ns", 780_000u64.into()),
            ("p999_ns", 820_000u64.into()),
            ("solo_p999_ns", 800_000u64.into()),
            ("budget_ns", 25_000_000u64.into()),
            ("budget_violations", 0u64.into()),
            ("gate_deferrals", 40u64.into()),
            ("lost", 1u64.into()),
            ("bulk_rejections", 12u64.into()),
            ("injected_drops", 1u64.into()),
            ("reorders", 3u64.into()),
        ])
    }

    fn hotpath() -> Value {
        Value::object([
            ("system", "INSANE hot path".into()),
            ("testbed", "Local".into()),
            ("samples", 100_000u64.into()),
            ("locked_read_ns_x1000", 18_000u64.into()),
            ("snapshot_read_ns_x1000", 6_000u64.into()),
            ("locked_p99_ns", 40_000u64.into()),
            ("snapshot_p99_ns", 9_000u64.into()),
            ("reloads", 4u64.into()),
            ("dropped", 0u64.into()),
            ("reordered", 0u64.into()),
        ])
    }

    fn ipc() -> Value {
        Value::object([
            ("system", "INSANE process split".into()),
            ("testbed", "Local".into()),
            ("messages", 100_000u64.into()),
            ("in_process_p50_ns", 600u64.into()),
            ("in_process_p99_ns", 2_000u64.into()),
            ("cross_process_p50_ns", 900u64.into()),
            ("cross_process_p99_ns", 3_000u64.into()),
            ("attach_ns", 250_000u64.into()),
            ("reclaim_ns", 80_000u64.into()),
            ("reclaimed_slots", 12u64.into()),
            ("leaked_slots", 0u64.into()),
        ])
    }

    const LAT: &str = "BENCH_latency.json";
    const TPUT: &str = "BENCH_throughput.json";
    const SHARD: &str = "BENCH_shard_throughput.json";
    const NOISY: &str = "BENCH_noisy_neighbor.json";
    const ISO: &str = "BENCH_isolation.json";
    const HOT: &str = "BENCH_hotpath.json";
    const IPC: &str = "BENCH_ipc.json";

    /// Every document and its verdict: `Ok(())`, or an error containing
    /// the given text.
    #[test]
    fn verdicts() {
        let one = |file, entry| doc(file, vec![entry]);
        let cases: Vec<(&str, Value, Result<(), &str>)> = vec![
            // Envelope.
            (
                "unknown marker",
                Value::object([
                    ("schema", "insane-bench-frobnicate-v1".into()),
                    ("factor", 1.0f64.into()),
                    ("entries", Value::Array(vec![])),
                ]),
                Err("unknown schema marker"),
            ),
            (
                "missing factor",
                without(one(LAT, latency()), "factor"),
                Err("factor"),
            ),
            (
                "missing entries",
                without(one(LAT, latency()), "entries"),
                Err("entries"),
            ),
            // Latency.
            ("valid latency", one(LAT, latency()), Ok(())),
            (
                "quantile inversion",
                one(LAT, set(latency(), &[("p90_ns", 5000u64.into())])),
                Err("not monotone"),
            ),
            (
                "missing key named",
                one(LAT, without(latency(), "p999_ns")),
                Err("p999_ns"),
            ),
            (
                "zero samples",
                one(LAT, set(latency(), &[("samples", 0u64.into())])),
                Err("samples"),
            ),
            // Throughput.
            ("valid throughput", one(TPUT, throughput()), Ok(())),
            (
                "zero goodput",
                one(TPUT, set(throughput(), &[("goodput_gbps", 0.0f64.into())])),
                Err("goodput_gbps"),
            ),
            // Shard scale-out.
            (
                "shard floor met",
                doc(SHARD, vec![shard(1, 10.0), shard(2, 13.0), shard(4, 14.0)]),
                Ok(()),
            ),
            (
                "shard floor missed",
                doc(SHARD, vec![shard(1, 10.0), shard(2, 12.9)]),
                Err("2 shards reached only"),
            ),
            (
                "shard floor needs both points",
                doc(SHARD, vec![shard(1, 10.0), shard(4, 10.0)]),
                Ok(()),
            ),
            (
                "shard count required",
                doc(SHARD, vec![throughput()]),
                Err("shards"),
            ),
            // Noisy neighbor.
            ("valid noisy neighbor", one(NOISY, noisy()), Ok(())),
            (
                "isolation bound violated",
                one(
                    NOISY,
                    set(noisy(), &[("contended_p99_ns", 24_000u64.into())]),
                ),
                Err("isolation violated"),
            ),
            (
                "document bound is ignored",
                one(
                    NOISY,
                    set(
                        noisy(),
                        &[
                            ("contended_p99_ns", 50_000u64.into()),
                            ("isolation_ratio_x1000", 1_500u64.into()),
                            ("bound_x1000", 99_999u64.into()),
                        ],
                    ),
                ),
                Err("isolation violated"),
            ),
            (
                "noisy tenant never refused",
                one(NOISY, set(noisy(), &[("bulk_rejections", 0u64.into())])),
                Err("bulk_rejections"),
            ),
            (
                "victim punished",
                one(NOISY, set(noisy(), &[("victim_rejections", 3u64.into())])),
                Err("in-quota"),
            ),
            // Mixed-criticality isolation.
            (
                "valid isolation",
                doc(ISO, vec![isolation(0), isolation(16)]),
                Ok(()),
            ),
            (
                "budget violated",
                doc(
                    ISO,
                    vec![
                        isolation(0),
                        set(isolation(16), &[("budget_violations", 2u64.into())]),
                    ],
                ),
                Err("latency budget"),
            ),
            (
                "tail bound violated",
                doc(
                    ISO,
                    vec![
                        isolation(0),
                        set(isolation(16), &[("p999_ns", 1_920_000u64.into())]),
                    ],
                ),
                Err("tail isolation violated"),
            ),
            (
                "no solo baseline",
                doc(ISO, vec![isolation(8), isolation(16)]),
                Err("solo baseline"),
            ),
            (
                "no gate deferrals",
                doc(
                    ISO,
                    vec![
                        set(isolation(0), &[("gate_deferrals", 0u64.into())]),
                        set(isolation(16), &[("gate_deferrals", 0u64.into())]),
                    ],
                ),
                Err("never held a frame"),
            ),
            ("no load points", doc(ISO, vec![]), Err("no load points")),
            // Hot path.
            ("valid hot path", one(HOT, hotpath()), Ok(())),
            (
                "uncontended regression",
                one(
                    HOT,
                    set(hotpath(), &[("snapshot_read_ns_x1000", 25_200u64.into())]),
                ),
                Err("uncontended regression"),
            ),
            (
                "contended tail regression",
                one(
                    HOT,
                    set(hotpath(), &[("snapshot_p99_ns", 80_000u64.into())]),
                ),
                Err("tail regression"),
            ),
            (
                "no reloads",
                one(HOT, set(hotpath(), &[("reloads", 0u64.into())])),
                Err("reloads"),
            ),
            (
                "dropped across reload",
                one(HOT, set(hotpath(), &[("dropped", 2u64.into())])),
                Err("dropped"),
            ),
            (
                "reordered across reload",
                one(HOT, set(hotpath(), &[("reordered", 1u64.into())])),
                Err("reordered"),
            ),
            // Process split.
            ("valid ipc", one(IPC, ipc()), Ok(())),
            (
                "ipc overhead past the bound",
                one(
                    IPC,
                    set(ipc(), &[("cross_process_p99_ns", 4_800u64.into())]),
                ),
                Err("process-split overhead"),
            ),
            (
                "leaked slots",
                one(IPC, set(ipc(), &[("leaked_slots", 3u64.into())])),
                Err("leaked"),
            ),
            (
                "no reclaim phase",
                one(IPC, set(ipc(), &[("reclaimed_slots", 0u64.into())])),
                Err("reclaimed_slots"),
            ),
            (
                "inverted percentiles",
                one(
                    IPC,
                    set(ipc(), &[("cross_process_p50_ns", 5_000u64.into())]),
                ),
                Err("exceeds p99"),
            ),
        ];
        let mut wrong = Vec::new();
        for (name, doc, want) in &cases {
            let got = validate_bench(doc).map(|_| ());
            let ok = match (&got, want) {
                (Ok(()), Ok(())) => true,
                (Err(e), Err(text)) => e.to_string().contains(text),
                _ => false,
            };
            if !ok {
                wrong.push(format!("{name}: got {got:?}, want {want:?}"));
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn every_row_has_a_unique_file_and_marker() {
        for (i, a) in BENCHES.iter().enumerate() {
            for b in &BENCHES[i + 1..] {
                assert_ne!(a.file, b.file);
                assert_ne!(a.schema, b.schema);
            }
        }
    }
}
