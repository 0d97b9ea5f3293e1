//! What a workload returns, and the JSON the benchmark prints and
//! writes.

use crate::measure::Hist;
use crate::trace::{Layer, Tracer, LAYERS};

/// Named metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Adds `value` to metric `name`, creating it at 0 first.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => m.1 += value,
            None => self.put(name, value, unit),
        }
    }

    /// `<name>.p50_ns`, `<name>.p99_ns`, `<name>.count` of a histogram.
    pub fn put_hist(&mut self, name: &str, hist: &Hist) {
        self.put(format!("{name}.p50_ns"), hist.quantile(0.50), "ns");
        self.put(format!("{name}.p99_ns"), hist.quantile(0.99), "ns");
        self.put(format!("{name}.count"), hist.count() as f64, "count");
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced timed phase).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Expected deliveries plus refused sends.
    pub attempted: u64,
    /// Refused, lost, duplicated, reordered or corrupted deliveries.
    pub failed: u64,
    /// Failed correctness checks, in words; empty when correct.
    pub problems: Vec<String>,
    /// Each end-to-end figure per measurement window (`setup_s` per
    /// set-up), in time order.
    pub windows: Vec<(&'static str, Vec<f64>)>,
    /// Host-record counts, summed over instances.
    pub record: std::collections::BTreeMap<String, f64>,
}

impl Outcome {
    /// Adds `value` to the record entry `name`.
    pub fn tally(&mut self, name: &str, value: f64) {
        *self.record.entry(name.into()).or_default() += value;
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// Every span's `.p50_ns/.p99_ns/.count` plus the trace's own
    /// reconciliation figures.
    pub fn put_spans(&mut self, tracer: &Tracer, untraced_p50: f64) {
        for layer in LAYERS {
            self.layers.put_hist(layer.name(), &tracer.stat(layer).hist);
        }
        let consume = tracer.stat(Layer::ApiConsume);
        self.layers.put(
            "api.consume.empty_share",
            share(consume.hist.count() - consume.useful, consume.hist.count()),
            "share",
        );
        let (rounds, worst, unattributed) = tracer.reconcile();
        self.layers
            .put("trace.rounds_logged", rounds as f64, "count");
        self.layers
            .put("trace.spans_logged", tracer.logged_spans() as f64, "count");
        self.layers
            .put("trace.reconcile_error_max_ns", worst as f64, "ns");
        self.layers
            .put("trace.unattributed_logged_share", unattributed, "share");
        self.layers.put(
            "trace.unattributed_share",
            share(
                tracer.round_ns - tracer.round_child_ns.min(tracer.round_ns),
                tracer.round_ns,
            ),
            "share",
        );
        let traced = tracer.rtt.quantile(0.5);
        let plain = untraced_p50;
        self.layers.put("trace.rtt_traced.p50_ns", traced, "ns");
        self.layers.put("trace.rtt_untraced.p50_ns", plain, "ns");
        self.layers.put("trace.overhead_ns", traced - plain, "ns");
        self.layers.put(
            "trace.overhead_share",
            if plain > 0.0 {
                (traced - plain) / plain
            } else {
                0.0
            },
            "share",
        );
    }
}

pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
