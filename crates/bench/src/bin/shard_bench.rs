//! Shard scale-out runner: aggregate multi-stream throughput at each
//! requested `shards_per_datapath`, exported as the schema-validated
//! `BENCH_shard_throughput.json` under `target/experiments/`.
//!
//! Usage: `shard_bench [--per-shard-pool] [SHARDS...]` (default
//! `1 2 4 8`).  `--per-shard-pool` scales the slot pools and sink
//! queues with the shard count, isolating polling-engine scaling from
//! pool contention at high shard counts.  When both the 1- and 2-shard
//! points are measured, the export validator fails the run unless 2
//! shards deliver at least 1.3x the 1-shard goodput — the scale-out
//! contract of the sharded polling engine.
//!
//! Iteration counts honor `INSANE_BENCH_FACTOR` (CI runs 0.3).

use insane_bench::export::write_bench;
use insane_bench::shard_bench::{self, PAYLOAD, STREAMS};
use insane_bench::{iters, parse_usize_list, BenchError};
use insane_fabric::TestbedProfile;
use insane_telemetry::schema::SHARD_SPEEDUP_FLOOR_X1000;

fn main() {
    insane_bench::exit_on_error("shard bench", run());
}

fn run() -> Result<(), BenchError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let before = args.len();
    args.retain(|a| a != "--per-shard-pool");
    let per_shard_pool = args.len() != before;
    let shard_counts = parse_usize_list(&args, "shard count", 1..=64, &[1, 2, 4, 8])?;
    let profile = TestbedProfile::local();
    let target = iters(6_000);

    println!(
        "shard scale-out: {STREAMS} streams x {PAYLOAD} B over DPDK, \
         {target} messages per point{}",
        if per_shard_pool {
            " (pools scaled per shard)"
        } else {
            ""
        }
    );
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "shards", "msgs/sec", "goodput Gbps", "bottleneck"
    );

    let mut runs = Vec::new();
    for &shards in &shard_counts {
        let run = shard_bench::run_with(&profile, shards, target, per_shard_pool)?;
        let tx = run.tx_shard_ns.iter().copied().max().unwrap_or(0);
        let rx = run.rx_shard_ns.iter().copied().max().unwrap_or(0);
        let side = if tx >= rx { "tx" } else { "rx" };
        println!(
            "{:>6} {:>12.0} {:>14.3} {:>9} {side}",
            run.shards,
            run.msgs_per_sec(),
            run.goodput_gbps(),
            format_ns(run.bottleneck_ns()),
        );
        runs.push(run);
    }

    let rate = |shards| runs.iter().find(|r| r.shards == shards);
    if let (Some(one), Some(two)) = (rate(1), rate(2)) {
        println!(
            "2-shard speed-up over 1 shard: {:.2}x (required {:.1}x)",
            two.goodput_gbps() / one.goodput_gbps(),
            SHARD_SPEEDUP_FLOOR_X1000 as f64 / 1e3,
        );
    }
    let entries = runs.iter().map(|r| r.entry(profile.name)).collect();
    write_bench("BENCH_shard_throughput.json", entries)?;
    Ok(())
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}
