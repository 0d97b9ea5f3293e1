//! Process-split experiment (DESIGN.md §13): what does the OS process
//! boundary cost, and does crash isolation actually work?
//!
//! Three phases, exported as the schema-validated `BENCH_ipc.json`:
//!
//! * **in-process baseline** — the identical datapath (segment-backed
//!   [`SlotPool`], two offset-addressed SPSC descriptor rings, a
//!   forwarder loop with the daemon's burst size and idle sleep) wired
//!   inside one process.  Round-trip latency here is the floor the
//!   process split is judged against.
//! * **cross-process** — a real daemon in another OS process (the bench
//!   binary re-execs itself in `--serve` mode), a real `attach` over the
//!   Unix control socket, the same ping-pong through the `mmap`ed
//!   segment.  The schema gate: cross-process p99 ≤
//!   [`IPC_BOUND_X1000`](insane_telemetry::schema::IPC_BOUND_X1000)/1000
//!   × the in-process p99.
//! * **crash reclaim** — a `--crash` child attaches, checks slots out,
//!   and aborts without cleanup; the daemon must force-reclaim every
//!   one (`leaked_slots == 0`) and report how long death-to-reclaim
//!   took.
//!
//! The forwarder and both clients yield rather than spin: CI runners
//! may be single-core, and every phase here is scheduler-bound anyway.

use std::time::{Duration, Instant};

use insane_ipc::loopback::InProcessLoop;
use insane_ipc::{IpcClient, IpcError, ServerStatsSnapshot};
use insane_telemetry::Value;

use crate::stats::Series;
use crate::BenchError;

/// Slots the crash child checks out before aborting.
pub const CRASH_SLOTS: usize = 12;

/// Pool/ring shape of the in-process baseline — matches the daemon's
/// session defaults so the two phases compare the same structure.
const SLOT_SIZE: usize = 2048;
const SLOT_COUNT: usize = 256;
const RING_CAPACITY: usize = 64;

fn ipc_err(stage: &str, e: IpcError) -> BenchError {
    BenchError::Other(format!("{stage}: {e}"))
}

/// Outcome of one process-split run.
#[derive(Debug, Clone)]
pub struct IpcReport {
    /// Round trips timed per deployment.
    pub messages: usize,
    /// In-process round-trip latencies, nanoseconds.
    pub in_process: Series,
    /// Cross-process round-trip latencies, nanoseconds.
    pub cross_process: Series,
    /// Attach slow path (connect → handshake → mmap → ring attach).
    pub attach_ns: u64,
    /// Death-to-reclaim latency the daemon measured, nanoseconds.
    pub reclaim_ns: u64,
    /// Slots the daemon force-reclaimed from the crashed child.
    pub reclaimed_slots: u64,
    /// Slots still outstanding after the reclaim (must be 0).
    pub leaked_slots: u64,
}

impl IpcReport {
    /// The `BENCH_ipc.json` entry for this run.
    pub fn entry(&self, testbed: &str) -> Value {
        Value::object([
            ("system", "INSANE process split".into()),
            ("testbed", testbed.into()),
            ("messages", (self.messages as u64).into()),
            ("in_process_p50_ns", self.in_process.median().into()),
            ("in_process_p99_ns", self.in_process.p99().into()),
            ("cross_process_p50_ns", self.cross_process.median().into()),
            ("cross_process_p99_ns", self.cross_process.p99().into()),
            ("attach_ns", self.attach_ns.into()),
            ("reclaim_ns", self.reclaim_ns.into()),
            ("reclaimed_slots", self.reclaimed_slots.into()),
            ("leaked_slots", self.leaked_slots.into()),
        ])
    }
}

/// The in-process baseline: the daemon-shaped datapath
/// ([`InProcessLoop`]) wired inside this process, ping-pong round trips
/// on the caller's thread.
///
/// # Errors
///
/// [`BenchError::Other`] if any pool/ring operation refuses — the
/// baseline is sized so that it never should.
pub fn run_in_process(messages: usize) -> Result<Series, BenchError> {
    let lb = InProcessLoop::new(SLOT_SIZE, SLOT_COUNT, RING_CAPACITY)
        .map_err(|e| ipc_err("baseline setup", e))?;
    let mut series = Series::new();
    for i in 0..messages as u64 {
        let started = Instant::now();
        let mut guard = lb.lend(8).map_err(|e| ipc_err("baseline lend", e))?;
        guard.copy_from_slice(&i.to_le_bytes());
        let mut pending = guard;
        loop {
            match lb.emit(pending) {
                Ok(()) => break,
                Err(guard) => {
                    pending = guard;
                    std::thread::yield_now();
                }
            }
        }
        loop {
            if let Some(view) = lb.try_recv() {
                drop(view);
                break;
            }
            std::thread::yield_now();
        }
        series.push(started.elapsed().as_nanos() as u64);
    }
    let leftover = lb.pool().stats().in_use;
    if leftover != 0 {
        return Err(BenchError::Other(format!(
            "baseline phase leaked {leftover} checkout(s)"
        )));
    }
    Ok(series)
}

/// The cross-process phase: attach to the daemon at `socket` (timing the
/// slow path), ping-pong `messages` round trips, detach.  Returns the
/// latency series and the attach time.
///
/// # Errors
///
/// [`BenchError::Other`] wrapping the failing [`IpcError`].
pub fn run_cross_process(
    socket: &std::path::Path,
    messages: usize,
) -> Result<(Series, u64), BenchError> {
    let started = Instant::now();
    let mut client =
        IpcClient::attach(socket, "bench", "fast").map_err(|e| ipc_err("attach", e))?;
    let attach_ns = started.elapsed().as_nanos() as u64;
    let stream = client
        .create_stream("pingpong")
        .map_err(|e| ipc_err("stream", e))?;

    let mut series = Series::new();
    for i in 0..messages as u64 {
        let started = Instant::now();
        let mut guard = client.lend(8).map_err(|e| ipc_err("lend", e))?;
        guard.copy_from_slice(&i.to_le_bytes());
        let mut pending = guard;
        loop {
            match client.emit(stream, pending) {
                Ok(()) => break,
                Err(guard) => {
                    pending = guard;
                    std::thread::yield_now();
                }
            }
        }
        loop {
            if let Some((_, view)) = client.try_recv() {
                drop(view);
                break;
            }
            std::thread::yield_now();
        }
        series.push(started.elapsed().as_nanos() as u64);
    }
    let leftover = client.pool().stats().in_use;
    if leftover != 0 {
        return Err(BenchError::Other(format!(
            "cross-process phase leaked {leftover} checkout(s)"
        )));
    }
    client.detach().map_err(|e| ipc_err("detach", e))?;
    Ok((series, attach_ns))
}

/// The crash phase driven from the parent: `spawn_crasher` must start a
/// process that attaches to `socket`, checks [`CRASH_SLOTS`] slots out,
/// and dies without cleanup.  Polls the daemon (through `stats`) until
/// the reclaim shows up and returns `(reclaim_ns, reclaimed, leaked)`.
///
/// # Errors
///
/// [`BenchError::Other`] if the reclaim never lands within 10s.
pub fn run_crash_reclaim(
    socket: &std::path::Path,
    spawn_crasher: &mut dyn FnMut() -> Result<(), BenchError>,
) -> Result<(u64, u64, u64), BenchError> {
    let mut observer =
        IpcClient::attach(socket, "observer", "fast").map_err(|e| ipc_err("observer attach", e))?;
    let before = observer.daemon_stats().map_err(|e| ipc_err("stats", e))?;
    spawn_crasher()?;

    let deadline = Instant::now() + Duration::from_secs(10);
    let stats: ServerStatsSnapshot = loop {
        let stats = observer.daemon_stats().map_err(|e| ipc_err("stats", e))?;
        if stats.reclaims > before.reclaims {
            break stats;
        }
        if Instant::now() >= deadline {
            return Err(BenchError::Other(
                "daemon never reclaimed the crashed client".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    observer
        .detach()
        .map_err(|e| ipc_err("observer detach", e))?;
    Ok((
        stats.last_reclaim_ns,
        stats.reclaimed_slots - before.reclaimed_slots,
        stats.leaked_slots,
    ))
}
