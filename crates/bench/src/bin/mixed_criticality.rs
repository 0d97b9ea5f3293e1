//! Mixed-criticality timing-isolation runner: measures the critical
//! flow's one-way latency over the 802.1Qbv time-aware shard at a solo
//! baseline and at each requested bulk load point, with the seeded
//! fault injector live, and exports the schema-validated
//! `BENCH_isolation.json`.  Fails unless every delivered critical
//! message landed inside its latency budget and the contended p99.9
//! stayed within the 2x tail bound.
//!
//! Bulk load points (emits per critical round) come from the command
//! line, default `8 32`:
//!
//! ```bash
//! cargo run --release -p insane-bench --bin mixed_criticality -- 8 32
//! ```
//!
//! Iteration counts honor `INSANE_BENCH_FACTOR` (CI runs 0.3).

use insane_bench::export::write_bench;
use insane_bench::mixed_criticality::{self, BUDGET, PAYLOAD};
use insane_bench::{iters, parse_usize_list, BenchError};
use insane_fabric::TestbedProfile;
use insane_telemetry::schema::{ratio_x1000, ISOLATION_TAIL_BOUND_X1000};

fn main() {
    insane_bench::exit_on_error("mixed-criticality bench", run());
}

fn run() -> Result<(), BenchError> {
    // The solo baseline always runs in addition to these load points.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bursts = parse_usize_list(&args, "bulk load point", 1..=1024, &[8, 32])?;
    let profile = TestbedProfile::local();
    let rounds = iters(300);
    // Warmup also floods, so bulk backlog and the dry token bucket are
    // already in place when measurement starts.
    let warmup = 20;

    println!(
        "mixed criticality: {rounds} critical one-ways x {PAYLOAD} B over the \
         time-aware shard, bulk load points {bursts:?}, budget {:.1}ms",
        BUDGET.as_secs_f64() * 1e3,
    );
    let report = mixed_criticality::run(&profile, rounds, warmup, &bursts)?;

    let solo = report.solo_p999_ns();
    for p in &report.points {
        println!(
            "bulk {:>3}/round: p50 {:.2}us p99 {:.2}us p99.9 {:.2}us \
             (ratio {:.3}x of solo, bound {:.3}x) | {} over budget, {} lost, \
             {} deferrals, {} bulk rejections, {} drops / {} reorders injected",
            p.bulk_burst,
            p.series.median() as f64 / 1e3,
            p.series.p99() as f64 / 1e3,
            p.series.p999() as f64 / 1e3,
            ratio_x1000(p.series.p999(), solo) as f64 / 1e3,
            ISOLATION_TAIL_BOUND_X1000 as f64 / 1e3,
            p.budget_violations,
            p.lost,
            p.gate_deferrals,
            p.bulk_rejections,
            p.faults.injected_drops,
            p.faults.reorders,
        );
    }

    // The export validator enforces the budget and tail gates; a
    // violated bound fails here, before CI.
    write_bench(
        "BENCH_isolation.json",
        report.to_entries("INSANE tas", profile.name),
    )?;
    Ok(())
}
