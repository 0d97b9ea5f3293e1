//! BENCH smoke runner: measures a representative latency/throughput
//! subset and writes schema-validated `BENCH_latency.json` /
//! `BENCH_throughput.json` under `target/experiments/`.
//!
//! Iteration counts honor `INSANE_BENCH_FACTOR` (CI runs 0.3 for a
//! fast smoke; 1.0 is the quick default, 10+ approaches paper scale).

use insane_bench::export::{latency_entry, write_bench};
use insane_bench::latency::{rtt_series, System};
use insane_bench::throughput::{goodput_gbps, TputSystem};
use insane_bench::{iters, BenchError};
use insane_fabric::TestbedProfile;
use insane_telemetry::Value;

fn main() {
    insane_bench::exit_on_error("bench export", run());
}

fn run() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let n = iters(300);
    let warmup = iters(30);

    let mut latency = Vec::new();
    for system in [
        System::UdpNonBlocking,
        System::InsaneSlow,
        System::InsaneFast,
        System::RawDpdk,
    ] {
        for payload in [64usize, 1024] {
            let series = rtt_series(system, &profile, payload, n, warmup)?;
            latency.push(latency_entry(
                system.label(),
                profile.name,
                payload,
                &series,
            ));
        }
    }
    let latency_path = write_bench("BENCH_latency.json", latency)?;

    let msgs = iters(6_000);
    let mut throughput = Vec::new();
    for system in [
        TputSystem::KernelUdp,
        TputSystem::InsaneSlow,
        TputSystem::InsaneFast,
        TputSystem::RawDpdk,
    ] {
        for payload in [1024usize, 8192] {
            throughput.push(Value::object([
                ("system", system.label().into()),
                ("testbed", profile.name.into()),
                ("payload_bytes", (payload as u64).into()),
                ("messages", (msgs as u64).into()),
                (
                    "goodput_gbps",
                    goodput_gbps(system, &profile, payload, msgs)?.into(),
                ),
            ]));
        }
    }
    let throughput_path = write_bench("BENCH_throughput.json", throughput)?;

    println!(
        "wrote {} and {}",
        latency_path.display(),
        throughput_path.display()
    );
    Ok(())
}
