//! The run skeleton every workload shares: repeated set-up, warm-up,
//! an untraced timed phase for the end-to-end numbers and, with
//! `--trace 1`, a traced phase for the per-layer ones.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::measure::{quantile, rss_now_kib, rss_peak_kib, Hist};
use crate::report::{share, Outcome};
use crate::trace::Tracer;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// CPUs of the host (before the benchmark pins itself to one).
    pub nproc: usize,
}

/// Independent instances per run: each is set up (timed), warmed up,
/// measured for an equal share of `--seconds`, checked and torn down.
pub const INSTANCES: u32 = 30;
/// Round trips per measurement window: enough that a window's p99 has
/// ten samples beyond it.
const WINDOW_ROUNDS: usize = 1000;
/// Where the end-to-end figures sit among the run's windows.  The vCPU
/// shares its core with other tenants, which slows every instruction
/// stream on it by up to 2x for seconds to minutes at a time, and how
/// much of a run is slowed varies far more from run to run than the
/// slowed speed does (perfbench/README.md, *Findings*).  The median
/// window therefore jumps between the two speeds, while the value nine
/// windows in ten do no worse than stays inside the slowed one: that is
/// what `rtt_p50_us` and `cpu_us_per_msg` report, and `bulk_gbps` from
/// the other end.  A window's p99 already describes its slowest rounds;
/// its 90th percentile over windows would report the host's rarest
/// bursts, so `rtt_p99_us` is the median window's p99.
const NINE_IN_TEN: f64 = 0.90;
/// Untimed rounds before measuring, so caches fill and lazy set-up ends.
const WARMUP: Duration = Duration::from_millis(50);
/// Share of `--seconds` spent untraced when `--trace 1`; the rest is a
/// traced phase on the last instance, and the difference between the
/// two is the tracing overhead.
const UNTRACED_SHARE_WHEN_TRACING: f64 = 0.4;

/// Counters a workload exposes so a phase can be measured as a delta.
#[derive(Clone, Copy, Default)]
pub struct Snap {
    /// CPU time of every process the workload runs, ns.
    pub cpu_ns: u64,
    /// Messages delivered (one per sink that received it).
    pub delivered: u64,
    /// Payload bytes delivered to the sinks of the throughput flow.
    pub goodput_bytes: u64,
}

/// Durations of the named set-up steps of one set-up, seconds.
pub type SetupSteps = Vec<(&'static str, f64)>;

pub trait Workload {
    /// One closed-loop round; returns the measured round-trip time, ns.
    fn step(&mut self, tr: &mut Tracer) -> Result<u64, String>;
    fn snap(&self) -> Snap;
    /// Called before the traced phase: start per-layer counters afresh.
    fn begin_traced(&mut self) {}
    /// Per-layer metrics beyond the spans, over the traced phase (called
    /// right after it, before `finish`).
    fn layer_metrics(&mut self, tr: &Tracer, out: &mut Outcome);
    /// Drains, closes every flow, runs the end-of-run checks, and adds
    /// to `attempted`/`failed`.
    fn finish(&mut self, out: &mut Outcome);
    /// Peak resident memory of every process the workload runs, KiB.
    fn rss_peak_kib(&self) -> u64 {
        rss_peak_kib(None)
    }
    /// Threads the workload ran, across its processes.
    fn threads(&self) -> u64;
}

/// One window of [`WINDOW_ROUNDS`] consecutive round trips.
struct Window {
    p50_ns: u64,
    p99_ns: u64,
    wall_ns: u64,
    start: Snap,
    end: Snap,
}

impl Window {
    fn delivered(&self) -> u64 {
        self.end.delivered - self.start.delivered
    }
}

/// The `q`-quantile of `sorted` by nearest rank.
fn rank(sorted: &[u64], q: f64) -> u64 {
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[i - 1]
}

/// Where [`measure`] puts what it measures.  Allocated once per run, so
/// the benchmark allocates nothing while an instance runs: the leaked
/// memory of earlier instances (see `memory.retained_mib_per_setup`)
/// makes `rss_peak_mib` sensitive to any allocation interleaved with
/// the program's own.
struct Measured {
    windows: Vec<Window>,
    /// Round-trip times of the window being measured, ns.
    rtts: Vec<u64>,
    /// Every measured round trip of the run.
    pooled: Hist,
}

/// Runs `w` for `length`, in whole windows, adding them to `into` when
/// `keep`; the rounds of a window the deadline cuts short are run and
/// checked but not measured.
fn measure<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    length: Duration,
    into: &mut Measured,
    keep: bool,
) -> Result<(), String> {
    let deadline = Instant::now() + length;
    loop {
        into.rtts.clear();
        let start = w.snap();
        let t0 = Instant::now();
        while into.rtts.len() < WINDOW_ROUNDS {
            if Instant::now() >= deadline {
                return Ok(());
            }
            into.rtts.push(w.step(tr)?);
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let end = w.snap();
        if keep {
            into.rtts.sort_unstable();
            for &rtt in &into.rtts {
                into.pooled.record(rtt);
            }
            into.windows.push(Window {
                p50_ns: rank(&into.rtts, 0.50),
                p99_ns: rank(&into.rtts, 0.99),
                wall_ns,
                start,
                end,
            });
        }
    }
}

/// Runs one workload end to end.  `build` performs one complete set-up,
/// recording its steps; it is called once per instance.
pub fn drive<W: Workload>(
    cfg: &Config,
    mut build: impl FnMut(&mut SetupSteps) -> Result<W, String>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut totals = Vec::new();
    let mut steps: Vec<SetupSteps> = Vec::new();
    // A window is at least 1000 round trips of at least 1 µs.
    let mut measured = Measured {
        windows: Vec::with_capacity((cfg.seconds * 1e3) as usize + 1),
        rtts: Vec::with_capacity(WINDOW_ROUNDS),
        pooled: Hist::new(14),
    };
    let mut off = Tracer::new(false, Instant::now());
    let mut tracer = Tracer::new(cfg.trace, Instant::now());
    let untraced = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds * UNTRACED_SHARE_WHEN_TRACING
    } else {
        cfg.seconds
    });
    let mut rss_kib = 0;
    let mut threads = 0;
    let mut last_untraced_p50 = 0.0;
    let mut after_teardown = Vec::new();
    for instance in 0..INSTANCES {
        let last = instance + 1 == INSTANCES;
        let mut s = SetupSteps::new();
        let mut w = match build(&mut s) {
            Ok(w) => w,
            Err(e) => {
                out.problems.push(format!("set-up failed: {e}"));
                return out;
            }
        };
        totals.push(s.iter().map(|(_, v)| v).sum::<f64>());
        steps.push(s);
        let mut run = || -> Result<(), String> {
            measure(&mut w, &mut off, WARMUP, &mut measured, false)?;
            let first = measured.windows.len();
            measure(&mut w, &mut off, untraced / INSTANCES, &mut measured, true)?;
            if last && cfg.trace {
                w.begin_traced();
                let traced = Duration::from_secs_f64(cfg.seconds) - untraced;
                measure(&mut w, &mut tracer, traced, &mut measured, false)?;
                w.layer_metrics(&tracer, &mut out);
                let p50s: Vec<f64> = measured.windows[first..]
                    .iter()
                    .map(|m| m.p50_ns as f64)
                    .collect();
                last_untraced_p50 = quantile(&p50s, 0.5);
            }
            Ok(())
        };
        if let Err(e) = run() {
            out.problems.push(e);
        }
        w.finish(&mut out);
        rss_kib = rss_kib.max(w.rss_peak_kib());
        threads = threads.max(w.threads());
        drop(w);
        after_teardown.push(rss_now_kib());
        if !out.problems.is_empty() {
            return out;
        }
    }
    // Memory an instance leaves behind once all its handles are dropped.
    let retained = after_teardown[after_teardown.len() - 1].saturating_sub(after_teardown[0]);
    out.layers.put(
        "memory.retained_mib_per_setup",
        retained as f64 / 1024.0 / f64::from(INSTANCES - 1),
        "MiB",
    );

    let Measured {
        windows, pooled, ..
    } = measured;
    let delivered: u64 = windows.iter().map(Window::delivered).sum();
    out.check(
        !windows.is_empty(),
        "no complete measurement window: --seconds is too short",
    );
    out.check(delivered > 0, "no message was delivered in the timed phase");
    /// Name, unit, quantile over windows, and the figure of a window.
    type PerWindow = (&'static str, &'static str, f64, fn(&Window) -> f64);
    let per_window: [PerWindow; 4] = [
        ("rtt_p50_us", "us", NINE_IN_TEN, |w| w.p50_ns as f64 / 1e3),
        ("rtt_p99_us", "us", 0.5, |w| w.p99_ns as f64 / 1e3),
        ("bulk_gbps", "Gbit/s", 1.0 - NINE_IN_TEN, |w| {
            (w.end.goodput_bytes - w.start.goodput_bytes) as f64 * 8.0 / w.wall_ns as f64
        }),
        ("cpu_us_per_msg", "us", NINE_IN_TEN, |w| {
            (w.end.cpu_ns - w.start.cpu_ns) as f64 / 1e3 / w.delivered().max(1) as f64
        }),
    ];
    out.e2e.put("setup_s", quantile(&totals, 0.5), "s");
    out.windows.push(("setup_s", totals));
    for (name, unit, q, f) in per_window {
        let values: Vec<f64> = windows.iter().map(f).collect();
        out.e2e.put(name, quantile(&values, q), unit);
        out.record
            .insert(format!("{name}.median"), quantile(&values, 0.5));
        out.windows.push((name, values));
    }
    out.e2e.put("rss_peak_mib", rss_kib as f64 / 1024.0, "MiB");
    out.record
        .insert("rtt_p50_us.pooled".into(), pooled.quantile(0.5) / 1e3);
    out.record
        .insert("rtt_p99_us.pooled".into(), pooled.quantile(0.99) / 1e3);
    out.tally("windows", windows.len() as f64);

    let samples = (windows.len() * WINDOW_ROUNDS) as u64;
    if cfg.trace {
        let path = cfg
            .out
            .join(format!("{}-seed{}-spans.csv", cfg.workload, cfg.seed));
        if let Err(e) = tracer.write_spans(&path) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        }
        out.put_spans(&tracer, last_untraced_p50);
        for (i, (name, _)) in steps[0].iter().enumerate() {
            let v: Vec<f64> = steps.iter().map(|s| s[i].1 * 1e3).collect();
            out.layers
                .put(format!("setup.{name}_ms"), quantile(&v, 0.5), "ms");
        }
    }
    out.layers.put("host.nproc", cfg.nproc as f64, "count");
    out.layers.put("host.threads", threads as f64, "count");
    out.layers.put("rtt.samples", samples as f64, "count");
    out.layers
        .put("failed_share", share(out.failed, out.attempted), "share");
    out.tally("rtt_samples", samples as f64);
    out.tally("delivered", delivered as f64);
    out.tally(
        "timed_seconds",
        windows.iter().map(|w| w.wall_ns).sum::<u64>() as f64 / 1e9,
    );
    out
}
