//! The repository benchmark: one binary, three workloads, every metric
//! printed by name with its unit.  See `perfbench/README.md`.
//!
//! ```text
//! insane-perfbench --workload <pingpong_64b|mixed_tenants|ipc_pingpong>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--out <dir>] [--commit <id>] [--profile zeroed|calibrated]
//! insane-perfbench --list-metrics
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`.  The
//! full record (host, profile, both metric sets, correctness details)
//! goes to `<out>/<workload>-seed<n>-trace<t>.json`, and a traced run's
//! span log to `<out>/<workload>-seed<n>-spans.csv`.

mod harness;
mod inproc;
mod ipc;
mod measure;
mod report;
mod trace;

use std::path::PathBuf;

use harness::{drive, Config};
use report::{num, string, Metrics, Outcome};
use trace::LAYERS;

pub const WORKLOADS: [&str; 3] = ["pingpong_64b", "mixed_tenants", "ipc_pingpong"];

/// Every per-layer metric, in print order; a workload that does not
/// exercise a layer reports 0 for it.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    let hist = |names: &mut Vec<(String, &'static str)>, base: &str| {
        names.push((format!("{base}.p50_ns"), "ns"));
        names.push((format!("{base}.p99_ns"), "ns"));
        names.push((format!("{base}.count"), "count"));
    };
    for layer in LAYERS {
        hist(&mut names, layer.name());
    }
    for (name, unit) in [
        ("api.consume.empty_share", "share"),
        ("runtime.tx_poll.msgs_per_call", "msgs"),
        ("runtime.rx_poll.busy_ns_per_msg", "ns"),
        ("runtime.rx_poll.empty_per_msg", "count"),
        ("runtime.rx_poll.useful_share", "share"),
        ("runtime.sink_drops", "count"),
        ("runtime.rx_rejected", "count"),
        ("runtime.control_messages", "count"),
    ] {
        names.push((name.into(), unit));
    }
    hist(&mut names, "runtime.reload.next_rtt");
    hist(&mut names, "fabric.wire_model");
    for (name, unit) in [
        ("memory.slots_in_use_end", "count"),
        ("memory.retained_mib_per_setup", "MiB"),
        ("refusals.victim", "count"),
        ("refusals.bulk", "count"),
        ("refusals.untenanted", "count"),
        ("ipc.try_recv.empty_per_msg", "count"),
    ] {
        names.push((name.into(), unit));
    }
    hist(&mut names, "ipc.daemon_turnaround");
    for (name, unit) in [
        ("ipc.daemon_cpu_us_per_msg", "us"),
        ("ipc.forwarded", "count"),
        ("setup.runtime_start_ms", "ms"),
        ("setup.peering_ms", "ms"),
        ("setup.plumbing_ms", "ms"),
        ("setup.daemon_spawn_ms", "ms"),
        ("setup.attach_ms", "ms"),
        ("trace.rounds_logged", "count"),
        ("trace.spans_logged", "count"),
        ("trace.reconcile_error_max_ns", "ns"),
        ("trace.unattributed_share", "share"),
        ("trace.unattributed_logged_share", "share"),
        ("trace.rtt_traced.p50_ns", "ns"),
        ("trace.rtt_untraced.p50_ns", "ns"),
        ("trace.overhead_ns", "ns"),
        ("trace.overhead_share", "share"),
        ("host.nproc", "count"),
        ("host.threads", "count"),
        ("rtt.samples", "count"),
        ("failed_share", "share"),
    ] {
        names.push((name.into(), unit));
    }
    names
}

/// Puts `produced` in canonical order, filling absent metrics with 0.
/// A produced metric missing from the canonical list, or with another
/// unit, is a defect of the benchmark and fails the run.
fn canonical(produced: &Metrics, problems: &mut Vec<String>) -> Metrics {
    let names = per_layer_names();
    for (name, _, unit) in &produced.0 {
        match names.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("metric {name} is not in the per-layer list")),
            Some((_, u)) if u != unit => {
                problems.push(format!("metric {name}: unit {unit} != {u}"))
            }
            Some(_) => {}
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in names {
        let value = produced
            .0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v);
        out.put(name, value, unit);
    }
    out
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "insane-perfbench: {msg}\nusage: insane-perfbench --workload <{}> --seed <n> \
         --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>] \
         [--profile zeroed|calibrated] | --list-metrics",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> (Config, String, bool) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut commit = String::from("unknown");
    let mut calibrated = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list-metrics" {
            for (name, unit) in per_layer_names() {
                println!("{name} {unit}");
            }
            std::process::exit(0);
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--out" => out = value.into(),
            "--commit" => commit = value,
            "--profile" => {
                calibrated = match value.as_str() {
                    "zeroed" => false,
                    "calibrated" => true,
                    _ => usage("--profile must be zeroed or calibrated"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .unwrap_or_else(|| usage("--workload must name one of the workloads"));
    let config = Config {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        out,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
    };
    (config, commit, calibrated)
}

fn main() {
    let (cfg, commit, calibrated) = parse();
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("insane-perfbench: creating {}: {e}", cfg.out.display());
        std::process::exit(1);
    }
    let profile = inproc::profile(calibrated);
    let cpu = measure::pin_to_one_cpu();
    let mut outcome: Outcome = match cfg.workload.as_str() {
        "pingpong_64b" => drive(&cfg, |s| inproc::pingpong(cfg.seed, profile.clone(), s)),
        "mixed_tenants" => drive(&cfg, |s| inproc::mixed(cfg.seed, profile.clone(), s)),
        _ => {
            let mut instance = 0;
            drive(&cfg, |s| ipc::build(cfg.seed, &cfg.out, &mut instance, s))
        }
    };
    let layers = canonical(&outcome.layers, &mut outcome.problems);
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;

    let host = format!(
        "{{\"nproc\": {}, \"pinned_cpu\": {}, \"threads\": {}, \"commit\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"record\": {{{}}}}}",
        cfg.nproc,
        cpu.map_or("null".into(), |c| c.to_string()),
        layers
            .0
            .iter()
            .find(|m| m.0 == "host.threads")
            .map_or(0.0, |m| m.1),
        string(&commit),
        cfg.seed,
        num(cfg.seconds),
        u8::from(cfg.trace),
        outcome
            .record
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), num(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let profile_json = format!(
        "{{\"name\": {}, \"costs\": {}, \"cpu_scale_pct\": {}, \"runtime_scale_pct\": {}, \
         \"link.propagation_ns\": {}, \"link.bandwidth_gbps\": {}, \"switch\": {}, \
         \"modeled_left\": \"device NIC latency and link serialization (see fabric.wire_model)\"}}",
        string(profile.name),
        string(if calibrated { "calibrated" } else { "zeroed" }),
        profile.cpu_scale_pct,
        profile.runtime_scale_pct,
        profile.link.propagation_ns,
        num(profile.link.bandwidth_gbps),
        profile.switch.map_or("null".into(), |s| string(s.name)),
    );
    let problems: Vec<String> = outcome.problems.iter().map(|p| string(p)).collect();
    let record = format!(
        "{{\"workload\": {}, \"host\": {host}, \"profile\": {profile_json}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"end_to_end\": {}, \
         \"windows\": {{{}}}, \"per_layer\": {}}}\n",
        string(&cfg.workload),
        outcome.attempted,
        outcome.failed,
        problems.join(", "),
        outcome.e2e.to_json(),
        outcome
            .windows
            .iter()
            .map(|(name, v)| {
                let v: Vec<String> = v.iter().map(|x| num(*x)).collect();
                format!("{}: [{}]", string(name), v.join(", "))
            })
            .collect::<Vec<_>>()
            .join(", "),
        layers.to_json(),
    );
    let path = cfg.out.join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::write(&path, &record) {
        eprintln!("insane-perfbench: writing {}: {e}", path.display());
    }

    for p in &outcome.problems {
        eprintln!("insane-perfbench: check failed: {p}");
    }
    println!("host {host}");
    let shown = if cfg.trace { &layers } else { &outcome.e2e };
    for (name, value, unit) in &shown.0 {
        println!("{name} = {} {unit}", num(*value));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        shown.to_json()
    );
}
