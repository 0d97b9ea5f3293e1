//! Process-split runner: in-process baseline vs a real daemon in a
//! second OS process, plus a crash-reclaim phase, exported as the
//! schema-validated `BENCH_ipc.json`.
//!
//! The binary re-execs itself for the helper roles, so one artifact is
//! the whole experiment:
//!
//! * `ipc_bench` — orchestrates all three phases;
//! * `ipc_bench --serve <socket>` — runs the daemon (child process);
//! * `ipc_bench --crash <socket>` — attaches, checks slots out, and
//!   aborts without cleanup (the victim).
//!
//! Iteration counts honor `INSANE_BENCH_FACTOR` (CI runs 0.3).

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use insane_bench::export::write_bench;
use insane_bench::ipc_bench::{self, CRASH_SLOTS};
use insane_bench::{iters, BenchError};
use insane_fabric::TestbedProfile;
use insane_ipc::{IpcClient, IpcServer, ServerConfig};
use insane_telemetry::schema::{ratio_x1000, IPC_BOUND_X1000};

fn main() {
    let mut args = std::env::args().skip(1);
    let result = match (args.next().as_deref(), args.next()) {
        (Some("--serve"), Some(socket)) => serve(Path::new(&socket)),
        (Some("--crash"), Some(socket)) => crash(Path::new(&socket)),
        (None, _) => run(),
        (Some(other), _) => Err(BenchError::Other(format!(
            "usage: ipc_bench [--serve <socket> | --crash <socket>], got {other:?}"
        ))),
    };
    insane_bench::exit_on_error("ipc bench", result);
}

fn ipc_err(stage: &str, e: insane_ipc::IpcError) -> BenchError {
    BenchError::Other(format!("{stage}: {e}"))
}

/// Child role: the runtime daemon.  Prints the ready line the parent
/// waits for, then serves until a client requests shutdown.
fn serve(socket: &Path) -> Result<(), BenchError> {
    let server = IpcServer::start(ServerConfig::new(socket)).map_err(|e| ipc_err("serve", e))?;
    println!("insaned listening on {}", server.socket_path().display());
    std::io::stdout().flush().map_err(BenchError::Io)?;
    while !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
    Ok(())
}

/// Child role: the crash victim.  Mirrors `insane-ipc-crasher --abort`:
/// checks [`CRASH_SLOTS`] slots out (half in flight, half held) and dies
/// without running a destructor.
fn crash(socket: &Path) -> Result<(), BenchError> {
    let mut client =
        IpcClient::attach(socket, "victim", "fast").map_err(|e| ipc_err("crash attach", e))?;
    let stream = client
        .create_stream("doomed")
        .map_err(|e| ipc_err("crash stream", e))?;
    let mut held = Vec::new();
    for i in 0..CRASH_SLOTS {
        let mut guard = client.lend(8).map_err(|e| ipc_err("crash lend", e))?;
        guard.copy_from_slice(&(i as u64).to_le_bytes());
        if i % 2 == 0 {
            if let Err(guard) = client.emit(stream, guard) {
                held.push(guard);
            }
        } else {
            held.push(guard);
        }
    }
    println!("victim ready");
    std::io::stdout().flush().map_err(BenchError::Io)?;
    std::process::abort();
}

/// Spawns this binary in a helper role and waits for its ready line.
fn respawn(role: &str, socket: &Path, ready: &str) -> Result<Child, BenchError> {
    let exe = std::env::current_exe().map_err(BenchError::Io)?;
    let mut child = Command::new(exe)
        .arg(role)
        .arg(socket)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(BenchError::Io)?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| BenchError::Other("helper stdout missing".into()))?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(BenchError::Io)?;
    if !line.starts_with(ready) {
        let _ = child.kill();
        return Err(BenchError::Other(format!(
            "helper {role} said {line:?}, expected {ready:?}"
        )));
    }
    Ok(child)
}

fn run() -> Result<(), BenchError> {
    let profile = TestbedProfile::local();
    let messages = iters(5_000);
    let socket: PathBuf =
        std::env::temp_dir().join(format!("insane-ipc-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    println!("process split: {messages} round trips per deployment");

    // Phase 1: in-process baseline.
    let in_process = ipc_bench::run_in_process(messages)?;
    println!(
        "in-process round trip: p50 {:.1}us, p99 {:.1}us",
        in_process.median() as f64 / 1e3,
        in_process.p99() as f64 / 1e3,
    );

    // Phase 2: the same ping-pong across a real process boundary.
    let mut daemon = respawn("--serve", &socket, "insaned listening on")?;
    let (cross_process, attach_ns) = ipc_bench::run_cross_process(&socket, messages)?;
    println!(
        "cross-process round trip: p50 {:.1}us, p99 {:.1}us (attach {:.1}us)",
        cross_process.median() as f64 / 1e3,
        cross_process.p99() as f64 / 1e3,
        attach_ns as f64 / 1e3,
    );

    // Phase 3: kill a client, watch the daemon clean up.
    let socket_for_crash = socket.clone();
    let (reclaim_ns, reclaimed_slots, leaked_slots) =
        ipc_bench::run_crash_reclaim(&socket, &mut || {
            let mut victim = respawn("--crash", &socket_for_crash, "victim ready")?;
            victim.wait().map_err(BenchError::Io)?;
            Ok(())
        })?;
    println!(
        "crash reclaim: {reclaimed_slots} slots back in {:.1}us, {leaked_slots} leaked",
        reclaim_ns as f64 / 1e3,
    );

    // Shut the daemon down before judging, so a gate failure never
    // leaves an orphan process behind.
    let mut closer =
        IpcClient::attach(&socket, "closer", "fast").map_err(|e| ipc_err("closer", e))?;
    closer
        .request_shutdown()
        .map_err(|e| ipc_err("shutdown", e))?;
    closer.detach().map_err(|e| ipc_err("detach", e))?;
    let status = daemon.wait().map_err(BenchError::Io)?;
    if !status.success() {
        return Err(BenchError::Other(format!("daemon exited with {status:?}")));
    }

    let report = ipc_bench::IpcReport {
        messages,
        in_process,
        cross_process,
        attach_ns,
        reclaim_ns,
        reclaimed_slots,
        leaked_slots,
    };
    println!(
        "process-split overhead: {:.3}x at p99 (bound {:.3}x)",
        ratio_x1000(report.cross_process.p99(), report.in_process.p99()) as f64 / 1e3,
        IPC_BOUND_X1000 as f64 / 1e3,
    );

    // The exporter re-validates every gate (overhead, reclaim ran, no
    // leaks) against the schema before writing.
    write_bench("BENCH_ipc.json", vec![report.entry(profile.name)])?;
    Ok(())
}
