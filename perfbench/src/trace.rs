//! Span tracing from the benchmark's side of each public call.
//!
//! Every call into a layer is timed from outside (`time`), aggregated
//! into a per-layer histogram, and — for one round in
//! [`LOG_EVERY`] — logged as a span whose parent is the round's root
//! span and whose request id is the message's sequence number.  Spans
//! stay in memory and are written once the run ends.  With tracing off
//! every method is a branch on one bool and no clock is read.

use std::io::Write;
use std::time::Instant;

use crate::measure::{since, Hist};

/// The spans the benchmark records, one per public call it makes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Source::get_buffer`.
    ApiLend,
    /// `Source::emit`.
    ApiEmit,
    /// `Sink::consume(NonBlocking)`, empty or not.
    ApiConsume,
    /// Dropping an `IncomingMessage`.
    ApiRelease,
    /// `Runtime::poll_transmit`.
    TxPoll,
    /// `Runtime::poll_technology` on the receiving runtime.
    RxPoll,
    /// `Runtime::reload_tunables`.
    Reload,
    /// `IpcClient::lend`.
    IpcLend,
    /// `IpcClient::emit`.
    IpcEmit,
    /// `IpcClient::try_recv`, empty or not.
    IpcTryRecv,
    /// Dropping a received `SlotView`.
    IpcRelease,
    /// Benchmark work: stamping a payload.
    Fill,
    /// Benchmark work: verifying a payload.
    Verify,
}

pub const LAYERS: [Layer; 13] = [
    Layer::ApiLend,
    Layer::ApiEmit,
    Layer::ApiConsume,
    Layer::ApiRelease,
    Layer::TxPoll,
    Layer::RxPoll,
    Layer::Reload,
    Layer::IpcLend,
    Layer::IpcEmit,
    Layer::IpcTryRecv,
    Layer::IpcRelease,
    Layer::Fill,
    Layer::Verify,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::ApiLend => "api.lend",
            Layer::ApiEmit => "api.emit",
            Layer::ApiConsume => "api.consume",
            Layer::ApiRelease => "api.release",
            Layer::TxPoll => "runtime.tx_poll",
            Layer::RxPoll => "runtime.rx_poll",
            Layer::Reload => "runtime.reload",
            Layer::IpcLend => "ipc.lend",
            Layer::IpcEmit => "ipc.emit",
            Layer::IpcTryRecv => "ipc.try_recv",
            Layer::IpcRelease => "ipc.release",
            Layer::Fill => "bench.fill",
            Layer::Verify => "bench.verify",
        }
    }
}

/// One round in this many is logged span by span.
pub const LOG_EVERY: u64 = 16;
/// Upper bound on logged spans (≈ 8 MiB).
const LOG_CAP: usize = 250_000;
const ROOT: u8 = u8::MAX;

/// Per-layer aggregate: every call's duration, and how many calls did
/// useful work (a message polled, consumed or received).
pub struct LayerStat {
    pub hist: Hist,
    pub useful: u64,
    pub useful_ns: u64,
}

#[derive(Clone, Copy)]
struct Span {
    layer: u8,
    /// Calls the span covers: consecutive empty polls of one layer are
    /// logged as one span spanning the wait.
    calls: u32,
    empty: bool,
    start: u64,
    end: u64,
    parent: u32,
    request: u64,
}

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    stats: Vec<LayerStat>,
    log: Vec<Span>,
    rounds: u64,
    /// Index of the current round's root span in `log`, if logged.
    root: Option<u32>,
    request: u64,
    /// Time the current round's spans cover (a run of empty polls of one
    /// layer counts as one span, gaps included, as in the log).
    child_ns: u64,
    /// Layer and end of the previous span, if it was an empty poll.
    last_empty: Option<(Layer, u64)>,
    /// Sum of round durations and of their child-span time.
    pub round_ns: u64,
    pub round_child_ns: u64,
    /// Traced round-trip times.
    pub rtt: Hist,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        // Exact below 4 µs, 0.2 % buckets above: small enough to stay in
        // cache, so recording a span costs little.
        let bits = if on { 12 } else { 1 };
        Self {
            on,
            epoch,
            stats: LAYERS
                .iter()
                .map(|_| LayerStat {
                    hist: Hist::new(bits),
                    useful: 0,
                    useful_ns: 0,
                })
                .collect(),
            log: Vec::with_capacity(if on { LOG_CAP } else { 0 }),
            rounds: 0,
            root: None,
            request: 0,
            child_ns: 0,
            last_empty: None,
            round_ns: 0,
            round_child_ns: 0,
            rtt: Hist::new(if on { 20 } else { 1 }),
        }
    }

    pub fn stat(&self, layer: Layer) -> &LayerStat {
        &self.stats[layer as usize]
    }

    /// Opens round `request` (traced mode only).
    #[inline]
    pub fn begin(&mut self, request: u64, start: u64) {
        if !self.on {
            return;
        }
        self.rounds += 1;
        self.request = request;
        self.child_ns = 0;
        self.last_empty = None;
        self.root = None;
        if self.rounds.is_multiple_of(LOG_EVERY) && self.log.len() + 64 < LOG_CAP {
            self.root = Some(self.log.len() as u32);
            self.log.push(Span {
                layer: ROOT,
                calls: 1,
                empty: false,
                start,
                end: start,
                parent: u32::MAX,
                request,
            });
        }
    }

    /// Closes the current round, which started at `start`.
    #[inline]
    pub fn end(&mut self, start: u64, end: u64) {
        if !self.on {
            return;
        }
        if let Some(root) = self.root.take() {
            self.log[root as usize].end = end;
        }
        self.round_child_ns += self.child_ns;
        self.round_ns += end - start;
        self.rtt.record(end - start);
    }

    /// Times `f` as a `layer` span; `useful` says whether its result
    /// was work done rather than an empty poll.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R, useful: fn(&R) -> bool) -> R {
        if !self.on {
            return f();
        }
        let start = since(self.epoch);
        let r = f();
        let end = since(self.epoch);
        self.span(layer, start, end, useful(&r));
        r
    }

    #[inline]
    fn span(&mut self, layer: Layer, start: u64, end: u64, useful: bool) {
        let ns = end - start;
        let stat = &mut self.stats[layer as usize];
        stat.hist.record(ns);
        if useful {
            stat.useful += 1;
            stat.useful_ns += ns;
        }
        let merges = !useful && matches!(self.last_empty, Some((l, _)) if l == layer);
        self.child_ns += match self.last_empty {
            Some((_, prev_end)) if merges => end - prev_end,
            _ => ns,
        };
        self.last_empty = (!useful).then_some((layer, end));
        if let Some(root) = self.root {
            let prev = self.log.last_mut().expect("the root span is logged");
            if merges && prev.empty && prev.layer == layer as u8 {
                prev.end = end;
                prev.calls += 1;
            } else if self.log.len() < LOG_CAP {
                self.log.push(Span {
                    layer: layer as u8,
                    calls: 1,
                    empty: !useful,
                    start,
                    end,
                    parent: root,
                    request: self.request,
                });
            }
        }
    }

    /// Ns since the tracer's epoch; 0 (no clock read) when off.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            since(self.epoch)
        } else {
            0
        }
    }

    pub fn logged_spans(&self) -> usize {
        self.log.len()
    }

    /// Rebuilds each logged round from its spans: self time of a span is
    /// its duration minus the part of it its children cover.  Returns
    /// `(rounds, max |Σ self − root duration| ns, Σ root self / Σ root)`.
    pub fn reconcile(&self) -> (u64, u64, f64) {
        let mut rounds = 0u64;
        let mut worst = 0u64;
        let mut root_total = 0u64;
        let mut root_self_total = 0u64;
        let mut i = 0;
        while i < self.log.len() {
            let root = self.log[i];
            let mut j = i + 1;
            let mut children: Vec<(u64, u64)> = Vec::new();
            while j < self.log.len() && self.log[j].parent == i as u32 {
                let s = self.log[j];
                children.push((s.start.max(root.start), s.end.min(root.end)));
                j += 1;
            }
            // Union of child intervals inside the root.
            children.sort_unstable();
            let mut covered = 0u64;
            let mut reach = root.start;
            for &(s, e) in &children {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let children_self: u64 = self.log[i + 1..j].iter().map(|s| s.end - s.start).sum();
            let dur = root.end - root.start;
            let root_self = dur - covered;
            worst = worst.max((children_self + root_self).abs_diff(dur));
            root_total += dur;
            root_self_total += root_self;
            rounds += 1;
            i = j;
        }
        let share = if root_total == 0 {
            0.0
        } else {
            root_self_total as f64 / root_total as f64
        };
        (rounds, worst, share)
    }

    /// Writes the span log as CSV:
    /// `id,name,start_ns,end_ns,parent,request,calls` (`parent` is -1
    /// for a round's root span, named `rtt`).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,request,calls")?;
        for (id, s) in self.log.iter().enumerate() {
            let name = if s.layer == ROOT {
                "rtt"
            } else {
                LAYERS[s.layer as usize].name()
            };
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id},{name},{},{},{parent},{},{}",
                s.start, s.end, s.request, s.calls
            )?;
        }
        out.flush()
    }
}
