//! The in-process workloads: two `ThreadingMode::Manual` runtimes on
//! one fabric, driven inline on the benchmark's one thread, which is
//! both the application and both hosts' polling threads.
//!
//! * `pingpong_64b` — one outstanding 64 B message on a `fast` (DPDK)
//!   stream, untenanted, one sink per direction.
//! * `mixed_tenants` — tenant `victim` (weight 4) runs the same
//!   ping-pong on a time-critical stream while tenant `bulk` (weight 1)
//!   keeps a window of 1–8 KiB messages in flight to two sinks on the
//!   same DPDK shard, and both runtimes re-publish their tunables every
//!   [`RELOAD_EVERY`] rounds.

use std::time::{Duration, Instant};

use insane_core::stats::StatsSnapshot;
use insane_core::{
    ChannelId, ConsumeMode, IncomingMessage, InsaneError, MemoryError, QosPolicy, Runtime,
    RuntimeConfig, Session, SessionConfig, Sink, Source, TenantId, TenantQuota, TenantSpec,
    ThreadingMode, TimeSensitivity,
};
use insane_fabric::{Fabric, Technology, TestbedProfile};

use crate::harness::{SetupSteps, Snap, Workload};
use crate::measure::{cpu_ns, Flow, Hist, Payloads, Rng};
use crate::report::{share, Outcome};
use crate::trace::{Layer, Tracer};

const PING: ChannelId = ChannelId(100);
const PONG: ChannelId = ChannelId(101);
const BULK: ChannelId = ChannelId(200);
const VICTIM: TenantId = 1;
const BULK_TENANT: TenantId = 2;
/// The datapath `QosPolicy::fast()` maps to on these hosts.
const HOT: Technology = Technology::Dpdk;
/// Size of every ping-pong message.
const SMALL: usize = 64;
/// Distinct seeded bodies per flow.
const TEMPLATES: usize = 256;
/// Bulk messages kept in flight.
pub const BULK_WINDOW: u64 = 16;
/// Bulk message sizes are uniform in this range (mean 4.5 KiB).
pub const BULK_SIZES: (u64, u64) = (1024, 8192);
/// Per-round bulk refill cap is uniform in this range (mean 4).
pub const REFILL_CAP: (u64, u64) = (1, 7);
/// Victim rounds between two tunables re-publications.
pub const RELOAD_EVERY: u64 = 64;
/// A message not delivered within this long is lost.
const WAIT_LIMIT: Duration = Duration::from_secs(1);

/// `TestbedProfile::local()` with every modeled cost the profile exposes
/// set to zero, so end-to-end time is executed code — except the device
/// NIC latency and link serialization, which the profile cannot zero.
/// `calibrated` keeps the paper-calibrated costs instead (for comparing
/// measured with modeled time, never for the committed figures).
pub fn profile(calibrated: bool) -> TestbedProfile {
    let mut p = TestbedProfile::local();
    if !calibrated {
        p.cpu_scale_pct = 0;
        p.runtime_scale_pct = 0;
        p.link.propagation_ns = 0;
    }
    p
}

/// Polls every runtime until none did any work for 100 µs (longer than
/// the modeled wire), so control traffic has settled.
fn settle(rts: &[&Runtime]) {
    let start = Instant::now();
    let mut last_work = Instant::now();
    while last_work.elapsed() < Duration::from_micros(100) && start.elapsed() < WAIT_LIMIT {
        let mut did = false;
        for rt in rts {
            did |= rt.poll_once();
        }
        if did {
            last_work = Instant::now();
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn err(what: &str) -> impl Fn(InsaneError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Counts `e` in `refusals` if it is a typed per-tenant refusal, and
/// describes it.
fn refused(refusals: &mut u64, what: &str, e: InsaneError) -> String {
    if matches!(
        e,
        InsaneError::AdmissionRejected { .. }
            | InsaneError::Shed { .. }
            | InsaneError::Backpressure
            | InsaneError::Memory(MemoryError::QuotaExceeded { .. })
    ) {
        *refusals += 1;
    }
    format!("{what}: {e}")
}

/// Two peered runtimes on a fresh fabric.
struct Pair {
    _fabric: Fabric,
    a: Runtime,
    b: Runtime,
}

fn start_pair(
    profile: TestbedProfile,
    steps: &mut SetupSteps,
    tenants: &[TenantSpec],
) -> Result<Pair, String> {
    let t = Instant::now();
    let fabric = Fabric::new(profile);
    let host_a = fabric.add_host("node-a");
    let host_b = fabric.add_host("node-b");
    let config = |id| {
        let mut c = RuntimeConfig::new(id)
            .with_technologies(&[Technology::KernelUdp, HOT])
            .with_threading(ThreadingMode::Manual);
        for spec in tenants {
            c = c.with_tenant(*spec);
        }
        c
    };
    let a = Runtime::start(config(1), &fabric, host_a).map_err(err("runtime start"))?;
    let b = Runtime::start(config(2), &fabric, host_b).map_err(err("runtime start"))?;
    steps.push(("runtime_start", secs(t)));
    let t = Instant::now();
    a.add_peer(host_b).map_err(err("add_peer"))?;
    settle(&[&a, &b]);
    steps.push(("peering", secs(t)));
    Ok(Pair {
        _fabric: fabric,
        a,
        b,
    })
}

/// Ping-pong plumbing: ping A→B, pong B→A.
struct Echo {
    _sessions: [Session; 2],
    ping_src: Source,
    ping_sink: Sink,
    pong_src: Source,
    pong_sink: Sink,
}

fn echo(pair: &Pair, tenant: Option<TenantId>, qos: QosPolicy) -> Result<Echo, String> {
    let connect = |rt: &Runtime| match tenant {
        Some(t) => Session::connect_with(rt, SessionConfig::for_tenant(t)),
        None => Session::connect(rt),
    };
    let sa = connect(&pair.a).map_err(err("session"))?;
    let sb = connect(&pair.b).map_err(err("session"))?;
    let stream_a = sa.create_stream(qos).map_err(err("stream"))?;
    let stream_b = sb.create_stream(qos).map_err(err("stream"))?;
    let ping_sink = stream_b.create_sink(PING).map_err(err("sink"))?;
    let pong_sink = stream_a.create_sink(PONG).map_err(err("sink"))?;
    settle(&[&pair.a, &pair.b]);
    let ping_src = stream_a.create_source(PING).map_err(err("source"))?;
    let pong_src = stream_b.create_source(PONG).map_err(err("source"))?;
    settle(&[&pair.a, &pair.b]);
    if stream_a.technology() != HOT || stream_b.technology() != HOT {
        return Err(format!(
            "stream mapped to {:?}, not DPDK",
            stream_a.technology()
        ));
    }
    Ok(Echo {
        _sessions: [sa, sb],
        ping_src,
        ping_sink,
        pong_src,
        pong_sink,
    })
}

/// The bulk tenant's one-way flow A→B with two sinks on B.
struct Bulk {
    _sessions: [Session; 2],
    src: Source,
    sinks: [Sink; 2],
    payloads: Payloads,
    refill: Vec<u64>,
    sent: u64,
    flows: [Flow; 2],
}

/// Counters kept outside the runtimes' own stats.
#[derive(Default)]
struct Counts {
    /// Typed refusals of the ping-pong flow's sends.
    refused: u64,
    /// Typed refusals of the bulk tenant's sends.
    refused_bulk: u64,
    tx_poll_msgs: u64,
}

/// State shared by both in-process workloads.
pub struct InProc {
    pair: Pair,
    echo: Echo,
    payloads: Payloads,
    seq: u64,
    ping: Flow,
    pong: Flow,
    bulk: Option<Bulk>,
    counts: Counts,
    wire: Hist,
    reload_rtt: Hist,
    reload_pending: bool,
    /// Both runtimes' counters, summed, when the traced phase began.
    base: StatsSnapshot,
}

fn small_payloads(rng: &mut Rng) -> Payloads {
    Payloads::new(rng, &[SMALL; TEMPLATES])
}

/// Builds `pingpong_64b`.
pub fn pingpong(
    seed: u64,
    profile: TestbedProfile,
    steps: &mut SetupSteps,
) -> Result<InProc, String> {
    let mut rng = Rng::new(seed);
    let pair = start_pair(profile, steps, &[])?;
    let t = Instant::now();
    let echo = echo(&pair, None, QosPolicy::fast())?;
    steps.push(("plumbing", secs(t)));
    Ok(InProc::new(pair, echo, small_payloads(&mut rng), None))
}

/// Builds `mixed_tenants`.
pub fn mixed(seed: u64, profile: TestbedProfile, steps: &mut SetupSteps) -> Result<InProc, String> {
    let mut rng = Rng::new(seed);
    let tenants = [
        TenantSpec::new(VICTIM, TenantQuota::new(16, 64)).with_weight(4),
        TenantSpec::new(BULK_TENANT, TenantQuota::new(32, 256)).with_weight(1),
    ];
    let pair = start_pair(profile, steps, &tenants)?;
    let t = Instant::now();
    let mut victim_qos = QosPolicy::fast();
    victim_qos.time_sensitivity = TimeSensitivity::time_critical();
    let echo = echo(&pair, Some(VICTIM), victim_qos)?;
    let sa = Session::connect_with(&pair.a, SessionConfig::for_tenant(BULK_TENANT))
        .map_err(err("session"))?;
    let sb = Session::connect_with(&pair.b, SessionConfig::for_tenant(BULK_TENANT))
        .map_err(err("session"))?;
    let stream_a = sa.create_stream(QosPolicy::fast()).map_err(err("stream"))?;
    let stream_b = sb.create_stream(QosPolicy::fast()).map_err(err("stream"))?;
    let sinks = [
        stream_b.create_sink(BULK).map_err(err("sink"))?,
        stream_b.create_sink(BULK).map_err(err("sink"))?,
    ];
    settle(&[&pair.a, &pair.b]);
    let src = stream_a.create_source(BULK).map_err(err("source"))?;
    settle(&[&pair.a, &pair.b]);
    steps.push(("plumbing", secs(t)));

    let small = small_payloads(&mut rng);
    let sizes: Vec<usize> = (0..TEMPLATES)
        .map(|_| rng.range(BULK_SIZES.0, BULK_SIZES.1) as usize)
        .collect();
    let bulk = Bulk {
        _sessions: [sa, sb],
        src,
        sinks,
        payloads: Payloads::new(&mut rng, &sizes),
        refill: (0..TEMPLATES)
            .map(|_| rng.range(REFILL_CAP.0, REFILL_CAP.1))
            .collect(),
        sent: 0,
        flows: [Flow::default(), Flow::default()],
    };
    Ok(InProc::new(pair, echo, small, Some(bulk)))
}

/// One `Runtime::poll_transmit` of the hot datapath, counting the
/// messages it sent when tracing.
fn tx_poll(tr: &mut Tracer, rt: &Runtime, counts: &mut Counts) {
    if tr.on {
        let before = rt.stats().tx_messages;
        tr.time(Layer::TxPoll, || rt.poll_transmit(HOT), |&did| did);
        counts.tx_poll_msgs += rt.stats().tx_messages - before;
    } else {
        rt.poll_transmit(HOT);
    }
}

/// Drives `receiver`'s hot datapath until `sink` yields a message.
/// With `assist`, the sender's polling thread is emulated too, so a
/// message queued behind other traffic still leaves its scheduler.
fn wait(
    tr: &mut Tracer,
    sender: &Runtime,
    receiver: &Runtime,
    sink: &Sink,
    assist: bool,
    counts: &mut Counts,
) -> Result<IncomingMessage, String> {
    let mut spins = 0u32;
    let mut deadline = None;
    loop {
        if assist {
            tx_poll(tr, sender, counts);
        }
        tr.time(Layer::RxPoll, || receiver.poll_technology(HOT), |&did| did);
        match tr.time(
            Layer::ApiConsume,
            || sink.consume(ConsumeMode::NonBlocking),
            Result::is_ok,
        ) {
            Ok(m) => return Ok(m),
            Err(InsaneError::WouldBlock) => {}
            Err(e) => return Err(format!("consume: {e}")),
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(1024) {
            let d = *deadline.get_or_insert_with(|| Instant::now() + WAIT_LIMIT);
            if Instant::now() > d {
                return Err(format!(
                    "no delivery on {:?} within {WAIT_LIMIT:?}",
                    sink.channel()
                ));
            }
        }
    }
}

impl InProc {
    fn new(pair: Pair, echo: Echo, payloads: Payloads, bulk: Option<Bulk>) -> Self {
        Self {
            pair,
            echo,
            payloads,
            seq: 0,
            ping: Flow::default(),
            pong: Flow::default(),
            bulk,
            counts: Counts::default(),
            wire: Hist::new(16),
            reload_rtt: Hist::new(20),
            reload_pending: false,
            base: StatsSnapshot::default(),
        }
    }

    /// One ping-pong round trip; returns its time in ns.
    fn round(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let (a, b) = (&self.pair.a, &self.pair.b);
        let e = &self.echo;
        let assist = self.bulk.is_some();
        let seq = self.seq;
        let template = (seq % TEMPLATES as u64) as usize;
        let start = tr.now();
        let t0 = Instant::now();
        tr.begin(seq, start);

        let lent = tr.time(
            Layer::ApiLend,
            || e.ping_src.get_buffer(SMALL),
            Result::is_ok,
        );
        let mut buf = match lent {
            Ok(buf) => buf,
            Err(err) => return Err(refused(&mut self.counts.refused, "ping lend", err)),
        };
        tr.time(
            Layer::Fill,
            || self.payloads.stamp(&mut buf, seq, template),
            |_| true,
        );
        if let Err(err) = tr.time(Layer::ApiEmit, || e.ping_src.emit(buf), Result::is_ok) {
            return Err(refused(&mut self.counts.refused, "ping emit", err));
        }
        tx_poll(tr, a, &mut self.counts);
        let ping = wait(tr, a, b, &e.ping_sink, assist, &mut self.counts)?;
        tr.time(
            Layer::Verify,
            || self.ping.observe(&self.payloads, &ping),
            |_| true,
        );
        if tr.on {
            self.wire.record(ping.breakdown().network_ns);
        }

        let lent = tr.time(
            Layer::ApiLend,
            || e.pong_src.get_buffer(ping.len()),
            Result::is_ok,
        );
        let mut buf = match lent {
            Ok(buf) => buf,
            Err(err) => return Err(refused(&mut self.counts.refused, "pong lend", err)),
        };
        tr.time(Layer::Fill, || buf.copy_from_slice(&ping), |_| true);
        tr.time(Layer::ApiRelease, || drop(ping), |_| true);
        if let Err(err) = tr.time(Layer::ApiEmit, || e.pong_src.emit(buf), Result::is_ok) {
            return Err(refused(&mut self.counts.refused, "pong emit", err));
        }
        tx_poll(tr, b, &mut self.counts);
        let pong = wait(tr, b, a, &e.pong_sink, assist, &mut self.counts)?;
        tr.time(
            Layer::Verify,
            || self.pong.observe(&self.payloads, &pong),
            |_| true,
        );
        if tr.on {
            self.wire.record(pong.breakdown().network_ns);
        }
        tr.time(Layer::ApiRelease, || drop(pong), |_| true);

        let rtt = t0.elapsed().as_nanos() as u64;
        let end = tr.now();
        tr.end(start, end);
        self.seq += 1;
        Ok(rtt)
    }

    /// Tops the bulk window up by at most this round's refill cap.
    fn refill(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let Some(bulk) = self.bulk.as_mut() else {
            return Ok(());
        };
        let acked = bulk.flows.iter().map(Flow::seen).min().unwrap_or(0);
        let room = BULK_WINDOW.saturating_sub(bulk.sent - acked);
        let cap = bulk.refill[(self.seq % TEMPLATES as u64) as usize];
        for _ in 0..room.min(cap) {
            let seq = bulk.sent;
            let template = (seq % TEMPLATES as u64) as usize;
            let len = bulk.payloads.len_of(template);
            let mut buf = match tr.time(Layer::ApiLend, || bulk.src.get_buffer(len), Result::is_ok)
            {
                Ok(buf) => buf,
                Err(e) => return Err(refused(&mut self.counts.refused_bulk, "bulk lend", e)),
            };
            tr.time(
                Layer::Fill,
                || bulk.payloads.stamp(&mut buf, seq, template),
                |_| true,
            );
            if let Err(e) = tr.time(Layer::ApiEmit, || bulk.src.emit(buf), Result::is_ok) {
                return Err(refused(&mut self.counts.refused_bulk, "bulk emit", e));
            }
            bulk.sent += 1;
        }
        Ok(())
    }

    /// Consumes, verifies and releases everything waiting on the bulk
    /// sinks.
    fn drain_bulk(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let Some(bulk) = self.bulk.as_mut() else {
            return Ok(());
        };
        for (sink, flow) in bulk.sinks.iter().zip(bulk.flows.iter_mut()) {
            loop {
                match tr.time(
                    Layer::ApiConsume,
                    || sink.consume(ConsumeMode::NonBlocking),
                    Result::is_ok,
                ) {
                    Ok(m) => {
                        tr.time(Layer::Verify, || flow.observe(&bulk.payloads, &m), |_| true);
                        tr.time(Layer::ApiRelease, || drop(m), |_| true);
                    }
                    Err(InsaneError::WouldBlock) => break,
                    Err(e) => return Err(format!("bulk consume: {e}")),
                }
            }
        }
        Ok(())
    }

    fn reload(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for rt in [&self.pair.a, &self.pair.b] {
            tr.time(
                Layer::Reload,
                || rt.reload_tunables(rt.tunables()),
                Result::is_ok,
            )
            .map_err(err("reload"))?;
        }
        self.reload_pending = true;
        Ok(())
    }

    fn stats_sum(&self) -> StatsSnapshot {
        let (x, y) = (self.pair.a.stats(), self.pair.b.stats());
        let mut s = x;
        s.tx_messages += y.tx_messages;
        s.rx_messages += y.rx_messages;
        s.sink_drops += y.sink_drops;
        s.rx_rejected += y.rx_rejected;
        s.control_messages += y.control_messages;
        s
    }
}

impl Workload for InProc {
    fn step(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        if self.bulk.is_none() {
            return self.round(tr);
        }
        self.refill(tr)?;
        let after_reload = std::mem::take(&mut self.reload_pending);
        let rtt = self.round(tr)?;
        if after_reload {
            self.reload_rtt.record(rtt);
        }
        self.drain_bulk(tr)?;
        if self.seq.is_multiple_of(RELOAD_EVERY) {
            self.reload(tr)?;
        }
        Ok(rtt)
    }

    fn snap(&self) -> Snap {
        let bulk = self.bulk.as_ref();
        Snap {
            cpu_ns: cpu_ns(None),
            delivered: self.ping.delivered
                + self.pong.delivered
                + bulk.map_or(0, |b| b.flows.iter().map(|f| f.delivered).sum()),
            goodput_bytes: match bulk {
                Some(b) => b.flows.iter().map(|f| f.bytes).sum(),
                None => self.ping.bytes + self.pong.bytes,
            },
        }
    }

    fn begin_traced(&mut self) {
        self.counts.tx_poll_msgs = 0;
        self.reload_rtt = Hist::new(20);
        self.base = self.stats_sum();
    }

    fn layer_metrics(&mut self, tr: &Tracer, out: &mut Outcome) {
        let m = &mut out.layers;
        let tx = tr.stat(Layer::TxPoll);
        m.put(
            "runtime.tx_poll.msgs_per_call",
            share(self.counts.tx_poll_msgs, tx.hist.count()),
            "msgs",
        );
        let now = self.stats_sum();
        let rx = tr.stat(Layer::RxPoll);
        let rx_msgs = now.rx_messages - self.base.rx_messages;
        m.put(
            "runtime.rx_poll.busy_ns_per_msg",
            share(rx.useful_ns, rx_msgs),
            "ns",
        );
        m.put(
            "runtime.rx_poll.empty_per_msg",
            share(rx.hist.count() - rx.useful, rx_msgs),
            "count",
        );
        m.put(
            "runtime.rx_poll.useful_share",
            share(rx.useful, rx.hist.count()),
            "share",
        );
        let delta = |f: fn(&StatsSnapshot) -> u64| (f(&now) - f(&self.base)) as f64;
        m.put("runtime.sink_drops", delta(|s| s.sink_drops), "count");
        m.put("runtime.rx_rejected", delta(|s| s.rx_rejected), "count");
        m.put(
            "runtime.control_messages",
            delta(|s| s.control_messages),
            "count",
        );
        m.put_hist("runtime.reload.next_rtt", &self.reload_rtt);
        m.put_hist("fabric.wire_model", &self.wire);
    }

    fn finish(&mut self, out: &mut Outcome) {
        let (a, b) = (&self.pair.a, &self.pair.b);
        let mut drained = true;
        if let Some(bulk) = self.bulk.as_mut() {
            let start = Instant::now();
            while bulk.flows.iter().any(|f| f.seen() < bulk.sent) {
                if start.elapsed() > WAIT_LIMIT {
                    drained = false;
                    break;
                }
                a.poll_transmit(HOT);
                b.poll_technology(HOT);
                for (sink, flow) in bulk.sinks.iter().zip(bulk.flows.iter_mut()) {
                    while let Ok(m) = sink.consume(ConsumeMode::NonBlocking) {
                        flow.observe(&bulk.payloads, &m);
                    }
                }
            }
        }
        out.check(drained, "bulk flow did not drain");
        settle(&[a, b]);
        for (name, rt) in [("a", a), ("b", b)] {
            let held = rt.slots_in_use();
            out.check(
                held == 0,
                format!("runtime {name} holds {held} slots after the drain"),
            );
        }
        let held = (a.slots_in_use() + b.slots_in_use()) as f64;
        out.layers.add("memory.slots_in_use_end", held, "count");

        self.ping.finish(self.seq);
        self.pong.finish(self.seq);
        let mut flows = vec![("ping", &self.ping), ("pong", &self.pong)];
        let mut bulk_failed = 0;
        if let Some(bulk) = self.bulk.as_mut() {
            for f in bulk.flows.iter_mut() {
                f.finish(bulk.sent);
            }
            out.attempted += 2 * bulk.sent;
            bulk_failed = bulk.flows.iter().map(Flow::failures).sum::<u64>();
            flows.push(("bulk sink 0", &bulk.flows[0]));
            flows.push(("bulk sink 1", &bulk.flows[1]));
        }
        let refused = self.counts.refused + self.counts.refused_bulk;
        out.attempted += 2 * self.seq + refused;
        for (name, f) in &flows {
            out.failed += f.failures();
            out.check(
                f.failures() == 0,
                format!(
                    "{name}: {} lost, {} duplicated or reordered, {} corrupted",
                    f.lost, f.duplicated_or_reordered, f.corrupted
                ),
            );
        }
        out.failed += refused;
        out.check(refused == 0, format!("{refused} sends refused"));
        let tenanted = self.bulk.is_some();
        let (victim, untenanted) = if tenanted {
            (self.counts.refused, 0)
        } else {
            (0, self.counts.refused)
        };
        out.layers.add("refusals.victim", victim as f64, "count");
        out.layers
            .add("refusals.bulk", self.counts.refused_bulk as f64, "count");
        out.layers
            .add("refusals.untenanted", untenanted as f64, "count");
        let bulk_sent = self.bulk.as_ref().map_or(0, |b| b.sent);
        out.tally("bulk_messages", bulk_sent as f64);
        out.tally("bulk_failed", bulk_failed as f64);
        if self.bulk.is_some() {
            out.tally("reloads", (self.seq / RELOAD_EVERY * 2) as f64);
        }
    }

    fn threads(&self) -> u64 {
        crate::measure::threads(None)
    }
}
