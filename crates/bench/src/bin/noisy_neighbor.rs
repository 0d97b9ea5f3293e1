//! Noisy-neighbor isolation runner: measures a well-behaved tenant's
//! RTT p99 solo and under a saturating bulk tenant, exports the
//! schema-validated `BENCH_noisy_neighbor.json`, and fails unless the
//! contended p99 stays within the 2x isolation bound while the bulk
//! tenant's overflow was refused with typed errors.
//!
//! Iteration counts honor `INSANE_BENCH_FACTOR` (CI runs 0.3).

use insane_bench::export::write_bench;
use insane_bench::noisy_neighbor::{self, BULK_BURST, PAYLOAD};
use insane_bench::{iters, BenchError};
use insane_fabric::TestbedProfile;
use insane_telemetry::schema::{ratio_x1000, NOISY_NEIGHBOR_BOUND_X1000};

fn main() {
    insane_bench::exit_on_error("noisy-neighbor bench", run());
}

fn run() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let rounds = iters(200);
    // Warmup also floods, so the bulk bucket is already dry when
    // measurement starts — even at tiny bench factors.
    let warmup = 30;

    println!(
        "noisy neighbor: {rounds} victim RTTs x {PAYLOAD} B over DPDK, \
         bulk bursts of {BULK_BURST} per round"
    );
    let report = noisy_neighbor::run(&profile, rounds, warmup)?;

    let ratio = ratio_x1000(report.contended.p99(), report.solo.p99());
    println!(
        "victim p99: solo {:.2}us, contended {:.2}us -> ratio {:.3}x (bound {:.3}x)",
        report.solo.p99() as f64 / 1e3,
        report.contended.p99() as f64 / 1e3,
        ratio as f64 / 1e3,
        NOISY_NEIGHBOR_BOUND_X1000 as f64 / 1e3,
    );
    println!(
        "bulk tenant: {} typed rejections; victim: {}",
        report.bulk_rejections, report.victim_rejections
    );

    // The export validator enforces the isolation gate and the
    // rejection invariants; a violated bound fails here, before CI.
    write_bench(
        "BENCH_noisy_neighbor.json",
        vec![report.entry(profile.name)],
    )?;
    Ok(())
}
