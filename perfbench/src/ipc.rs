//! `ipc_pingpong`: the benchmark spawns the `insaned` daemon as a
//! second process, attaches with `IpcClient`, and runs a one-outstanding
//! 64 B ping-pong through the shared-memory rings — the one workload
//! that crosses the process boundary.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use insane_ipc::IpcClient;

use crate::harness::{SetupSteps, Snap, Workload};
use crate::measure::{cpu_ns, rss_peak_kib, threads, Flow, Hist, Payloads, Rng};
use crate::report::{share, Outcome};
use crate::trace::{Layer, Tracer};

const SMALL: usize = 64;
const TEMPLATES: usize = 256;
/// A message not delivered within this long is lost.
const WAIT_LIMIT: Duration = Duration::from_secs(1);
/// Heartbeat period, well inside the daemon's 10 s session timeout; the
/// heartbeat is sent between rounds, outside any timed round trip.
const HEARTBEAT: Duration = Duration::from_secs(1);

/// The daemon child; dropping it kills and reaps it, so no exit path of
/// the benchmark leaves it running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(binary: &Path, socket: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(binary)
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Self {
            child,
            stdout: BufReader::new(stdout),
            socket,
        };
        // The ready line is the daemon's spawn contract.
        let mut line = String::new();
        match daemon.stdout.read_line(&mut line) {
            Ok(n) if n > 0 && line.starts_with("insaned listening") => Ok(daemon),
            Ok(_) => Err(format!("daemon exited before its ready line: {line:?}")),
            // Dropping `daemon` kills and reaps it.
            Err(e) => Err(format!("reading the daemon's ready line: {e}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stop(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                let _ = std::fs::remove_file(&self.socket);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

pub struct Ipc {
    // Field order is drop order: detach the client before the daemon
    // is reaped.
    client: Option<IpcClient>,
    daemon: Daemon,
    stream: u32,
    payloads: Payloads,
    seq: u64,
    flow: Flow,
    refused: u64,
    turnaround: Hist,
    forwarded_at_trace: u64,
    daemon_cpu_at_trace: u64,
    msgs_at_trace: u64,
    daemon_threads: u64,
    daemon_rss_kib: u64,
    last_heartbeat: Instant,
}

/// Builds `ipc_pingpong`: spawns a daemon serving a socket under `dir`
/// and attaches to it.
pub fn build(
    seed: u64,
    dir: &Path,
    instance: &mut u32,
    steps: &mut SetupSteps,
) -> Result<Ipc, String> {
    let mut rng = Rng::new(seed);
    let binary = std::env::current_exe()
        .map_err(|e| format!("locating the benchmark binary: {e}"))?
        .with_file_name("insaned");
    *instance += 1;
    let socket = dir.join(format!("insaned-{}-{instance}.sock", std::process::id()));
    let t = Instant::now();
    let daemon = Daemon::spawn(&binary, socket)?;
    steps.push(("daemon_spawn", t.elapsed().as_secs_f64()));
    let t = Instant::now();
    let mut client =
        IpcClient::attach(&daemon.socket, "bench", "fast").map_err(|e| format!("attach: {e}"))?;
    let stream = client
        .create_stream("pingpong")
        .map_err(|e| format!("stream: {e}"))?;
    steps.push(("attach", t.elapsed().as_secs_f64()));
    let daemon_threads = threads(Some(daemon.pid()));
    Ok(Ipc {
        client: Some(client),
        daemon,
        stream,
        payloads: Payloads::new(&mut rng, &[SMALL; TEMPLATES]),
        seq: 0,
        flow: Flow::default(),
        refused: 0,
        turnaround: Hist::new(20),
        forwarded_at_trace: 0,
        daemon_cpu_at_trace: 0,
        msgs_at_trace: 0,
        daemon_threads,
        daemon_rss_kib: 0,
        last_heartbeat: Instant::now(),
    })
}

impl Drop for Ipc {
    fn drop(&mut self) {
        if let Some(mut client) = self.client.take() {
            let _ = client.request_shutdown();
            let _ = client.detach();
            self.daemon.stop();
        }
    }
}

impl Ipc {
    fn client(&self) -> &IpcClient {
        self.client
            .as_ref()
            .expect("client is attached until finish")
    }

    fn forwarded(&mut self) -> u64 {
        self.client
            .as_mut()
            .and_then(|c| c.daemon_stats().ok())
            .map_or(0, |s| s.forwarded)
    }
}

impl Workload for Ipc {
    fn step(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        if self.last_heartbeat.elapsed() >= HEARTBEAT {
            self.last_heartbeat = Instant::now();
            if let Some(client) = self.client.as_mut() {
                client.heartbeat().map_err(|e| format!("heartbeat: {e}"))?;
            }
        }
        let client = self
            .client
            .as_ref()
            .expect("client is attached until finish");
        let seq = self.seq;
        let template = (seq % TEMPLATES as u64) as usize;
        let start = tr.now();
        let t0 = Instant::now();
        tr.begin(seq, start);

        let mut guard = match tr.time(Layer::IpcLend, || client.lend(SMALL), Result::is_ok) {
            Ok(g) => g,
            Err(e) => {
                self.refused += 1;
                return Err(format!("lend: {e}"));
            }
        };
        tr.time(
            Layer::Fill,
            || self.payloads.stamp(&mut guard, seq, template),
            |_| true,
        );
        if tr
            .time(
                Layer::IpcEmit,
                || client.emit(self.stream, guard),
                Result::is_ok,
            )
            .is_err()
        {
            // One message outstanding can never fill the ring.
            self.refused += 1;
            return Err("emit: descriptor ring full".into());
        }
        let emitted = tr.now();

        let mut spins = 0u32;
        let mut deadline = None;
        let view = loop {
            let polled = tr.now();
            if let Some((_, view)) =
                tr.time(Layer::IpcTryRecv, || client.try_recv(), Option::is_some)
            {
                if tr.on {
                    self.turnaround.record(polled - emitted);
                }
                break view;
            }
            // Yield rather than spin: on a host with few cores the
            // daemon's datapath thread may share this one.
            std::thread::yield_now();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                let d = *deadline.get_or_insert_with(|| Instant::now() + WAIT_LIMIT);
                if Instant::now() > d {
                    return Err(format!("message {seq} not returned within {WAIT_LIMIT:?}"));
                }
            }
        };
        tr.time(
            Layer::Verify,
            || self.flow.observe(&self.payloads, &view),
            |_| true,
        );
        tr.time(Layer::IpcRelease, || drop(view), |_| true);

        let rtt = t0.elapsed().as_nanos() as u64;
        let end = tr.now();
        tr.end(start, end);
        self.seq += 1;
        Ok(rtt)
    }

    fn snap(&self) -> Snap {
        Snap {
            cpu_ns: cpu_ns(None) + cpu_ns(Some(self.daemon.pid())),
            delivered: self.flow.delivered,
            goodput_bytes: self.flow.bytes,
        }
    }

    fn begin_traced(&mut self) {
        self.turnaround = Hist::new(20);
        self.forwarded_at_trace = self.forwarded();
        self.daemon_cpu_at_trace = cpu_ns(Some(self.daemon.pid()));
        self.msgs_at_trace = self.flow.delivered;
    }

    fn layer_metrics(&mut self, tr: &Tracer, out: &mut Outcome) {
        let m = &mut out.layers;
        let msgs = self.flow.delivered - self.msgs_at_trace;
        let recv = tr.stat(Layer::IpcTryRecv);
        m.put(
            "ipc.try_recv.empty_per_msg",
            share(recv.hist.count() - recv.useful, msgs),
            "count",
        );
        m.put_hist("ipc.daemon_turnaround", &self.turnaround);
        let forwarded = self.forwarded() - self.forwarded_at_trace;
        out.layers.put("ipc.forwarded", forwarded as f64, "count");
        let m = &mut out.layers;
        let daemon_cpu = cpu_ns(Some(self.daemon.pid())) - self.daemon_cpu_at_trace;
        m.put(
            "ipc.daemon_cpu_us_per_msg",
            daemon_cpu as f64 / 1e3 / msgs.max(1) as f64,
            "us",
        );
    }

    fn finish(&mut self, out: &mut Outcome) {
        let forwarded = self.forwarded();
        let in_use = self.client().pool().stats().in_use;
        out.check(
            in_use == 0,
            format!("client pool holds {in_use} slots after the run"),
        );
        out.layers
            .add("memory.slots_in_use_end", in_use as f64, "count");
        out.check(
            forwarded == self.seq,
            format!("daemon forwarded {forwarded} of {} messages", self.seq),
        );
        self.flow.finish(self.seq);
        let f = &self.flow;
        out.attempted += self.seq + self.refused;
        out.failed += f.failures() + self.refused;
        out.check(
            f.failures() == 0 && self.refused == 0,
            format!(
                "{} refused, {} lost, {} duplicated or reordered, {} corrupted",
                self.refused, f.lost, f.duplicated_or_reordered, f.corrupted
            ),
        );
        out.layers
            .add("refusals.untenanted", self.refused as f64, "count");
        out.record
            .insert("daemon_threads".into(), self.daemon_threads as f64);
        self.daemon_rss_kib = rss_peak_kib(Some(self.daemon.pid()));
        // Shut the daemon down now, so its exit is part of the run.
        if let Some(mut client) = self.client.take() {
            let _ = client.request_shutdown();
            if let Err(e) = client.detach() {
                out.problems.push(format!("detach: {e}"));
            }
            self.daemon.stop();
        }
    }

    fn rss_peak_kib(&self) -> u64 {
        rss_peak_kib(None) + self.daemon_rss_kib
    }

    fn threads(&self) -> u64 {
        threads(None) + self.daemon_threads
    }
}
