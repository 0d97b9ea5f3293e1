//! Hot-path read runner: measures locked vs snapshot control-state
//! reads (uncontended mean and contended p99), streams sequenced
//! traffic across live tunables reloads, exports the schema-validated
//! `BENCH_hotpath.json`, and fails unless the snapshot design is no
//! slower uncontended, no worse at the contended tail, and the reloads
//! were loss- and reorder-free.
//!
//! Iteration counts honor `INSANE_BENCH_FACTOR` (CI runs 0.3).

use insane_bench::export::write_bench;
use insane_bench::hotpath;
use insane_bench::{iters, BenchError};
use insane_fabric::TestbedProfile;
use insane_telemetry::schema::{
    ratio_x1000, HOTPATH_CONTENDED_BOUND_X1000, HOTPATH_UNCONTENDED_BOUND_X1000,
};

fn main() {
    insane_bench::exit_on_error("hotpath bench", run());
}

fn run() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let samples = iters(100_000);
    let messages = iters(2_000) as u64;

    println!("hot path: {samples} reads/phase, {messages} sequenced messages across live reloads");
    let report = hotpath::run(&profile, samples, messages)?;

    println!(
        "uncontended read: locked {:.1}ns, snapshot {:.1}ns -> ratio {:.3}x (bound {:.3}x)",
        report.locked_read_ns_x1000 as f64 / 1e3,
        report.snapshot_read_ns_x1000 as f64 / 1e3,
        ratio_x1000(report.snapshot_read_ns_x1000, report.locked_read_ns_x1000) as f64 / 1e3,
        HOTPATH_UNCONTENDED_BOUND_X1000 as f64 / 1e3,
    );
    let (locked_p99, snapshot_p99) = (
        report.locked_contended.p99(),
        report.snapshot_contended.p99(),
    );
    println!(
        "contended p99: locked {:.2}us, snapshot {:.2}us -> ratio {:.3}x (bound {:.3}x)",
        locked_p99 as f64 / 1e3,
        snapshot_p99 as f64 / 1e3,
        ratio_x1000(snapshot_p99, locked_p99) as f64 / 1e3,
        HOTPATH_CONTENDED_BOUND_X1000 as f64 / 1e3,
    );
    println!(
        "reload under load: {} reloads across {} messages, {} dropped, {} reordered",
        report.reloads, report.sent, report.dropped, report.reordered
    );

    // The export validator enforces all three gates; a regression fails
    // here, before CI sees the artifact.
    write_bench("BENCH_hotpath.json", vec![report.entry(profile.name)])?;
    Ok(())
}
