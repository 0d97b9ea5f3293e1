//! Measurement primitives: a fixed-size latency histogram, the seeded
//! input generator, payload stamping/verification, per-flow delivery
//! accounting, and process CPU/RSS probes.

use std::time::Instant;

/// Log-linear latency histogram with exact 1 ns buckets below
/// `2^fine_bits` ns and 512 sub-buckets per octave (0.2 %) above.
///
/// Its size is fixed at construction and every page is touched then, so
/// the process's resident memory does not grow with the number of
/// samples (which would make a faster program look heavier).
pub struct Hist {
    fine: Vec<u32>,
    coarse: Vec<u32>,
    fine_bits: u32,
    count: u64,
}

const SUB_BITS: u32 = 9;

impl Hist {
    pub fn new(fine_bits: u32) -> Self {
        let mut fine = vec![0u32; 1 << fine_bits];
        let mut coarse = vec![0u32; ((64 - fine_bits) as usize) << SUB_BITS];
        // Fault every page in now (a zeroed allocation maps lazily).
        for v in [&mut fine, &mut coarse] {
            for i in (0..v.len()).step_by(1024) {
                v[i] = std::hint::black_box(0);
            }
        }
        Self {
            fine,
            coarse,
            fine_bits,
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        if ns < (1 << self.fine_bits) {
            self.fine[ns as usize] += 1;
        } else {
            let octave = 63 - ns.leading_zeros();
            let sub = (ns >> (octave - SUB_BITS)) & ((1 << SUB_BITS) - 1);
            let idx = (((octave - self.fine_bits) as usize) << SUB_BITS) | sub as usize;
            self.coarse[idx] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (0..=1) in ns; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &n) in self.fine.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return ns as f64;
            }
        }
        for (idx, &n) in self.coarse.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                let octave = (idx >> SUB_BITS) as u32 + self.fine_bits;
                let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
                let lo = (1u64 << octave) | (sub << (octave - SUB_BITS));
                // Midpoint of the bucket.
                return lo as f64 + (1u64 << (octave - SUB_BITS)) as f64 / 2.0;
            }
        }
        0.0
    }
}

/// SplitMix64: the seeded source of every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_1A5E_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Header every generated message carries: sequence number, template
/// id, length, and a checksum over all three plus the template body.
pub const HEADER: usize = 24;

/// Body templates: seeded bytes plus their checksum, so a sender stamps
/// a message with one copy and a receiver verifies it with one compare.
pub struct Payloads {
    bytes: Vec<u8>,
    templates: Vec<Template>,
}

#[derive(Clone, Copy)]
struct Template {
    offset: usize,
    len: usize,
    sum: u64,
}

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x0000_0100_0000_01B3)
        .rotate_left(29)
}

fn body_checksum(body: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325 ^ body.len() as u64;
    let mut chunks = body.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    for &b in chunks.remainder() {
        h = mix(h, u64::from(b));
    }
    h
}

impl Payloads {
    /// `sizes` are the message lengths (each ≥ [`HEADER`]); one template
    /// per entry, each body at a seeded offset into a seeded byte pool.
    pub fn new(rng: &mut Rng, sizes: &[usize]) -> Self {
        let max = sizes.iter().copied().max().unwrap_or(HEADER);
        let pool_len = max * 4;
        let bytes: Vec<u8> = (0..pool_len).map(|_| rng.next_u64() as u8).collect();
        let templates = sizes
            .iter()
            .map(|&len| {
                let body = len - HEADER;
                let offset = rng.range(0, (pool_len - body) as u64) as usize;
                Template {
                    offset,
                    len,
                    sum: body_checksum(&bytes[offset..offset + body]),
                }
            })
            .collect();
        Self { bytes, templates }
    }

    pub fn len_of(&self, template: usize) -> usize {
        self.templates[template].len
    }

    fn check(seq: u64, template: usize, t: &Template) -> u64 {
        mix(mix(mix(t.sum, seq), template as u64), t.len as u64)
    }

    /// Writes message `seq` from `template` into `buf` (its length must
    /// be the template's).
    pub fn stamp(&self, buf: &mut [u8], seq: u64, template: usize) {
        let t = &self.templates[template];
        let body = t.len - HEADER;
        buf[0..8].copy_from_slice(&seq.to_le_bytes());
        buf[8..12].copy_from_slice(&(template as u32).to_le_bytes());
        buf[12..16].copy_from_slice(&(t.len as u32).to_le_bytes());
        buf[16..24].copy_from_slice(&Self::check(seq, template, t).to_le_bytes());
        buf[HEADER..].copy_from_slice(&self.bytes[t.offset..t.offset + body]);
    }

    /// Verifies a received message; returns its sequence number, or
    /// `None` if its header or body is not what was sent.
    pub fn verify(&self, msg: &[u8]) -> Option<u64> {
        if msg.len() < HEADER {
            return None;
        }
        let word = |r: std::ops::Range<usize>| {
            let mut b = [0u8; 8];
            b[..r.len()].copy_from_slice(&msg[r]);
            u64::from_le_bytes(b)
        };
        let seq = word(0..8);
        let template = word(8..12) as usize;
        let len = word(12..16) as usize;
        let check = word(16..24);
        let t = self.templates.get(template)?;
        let intact = len == msg.len()
            && t.len == len
            && check == Self::check(seq, template, t)
            && msg[HEADER..] == self.bytes[t.offset..t.offset + len - HEADER];
        intact.then_some(seq)
    }
}

/// Delivery accounting for one (flow, sink) pair: every message must
/// arrive exactly once, in order, intact.
#[derive(Default)]
pub struct Flow {
    next: u64,
    pub delivered: u64,
    pub bytes: u64,
    pub lost: u64,
    pub duplicated_or_reordered: u64,
    pub corrupted: u64,
}

impl Flow {
    pub fn observe(&mut self, payloads: &Payloads, msg: &[u8]) {
        match payloads.verify(msg) {
            None => self.corrupted += 1,
            Some(seq) if seq == self.next => {
                self.next += 1;
                self.delivered += 1;
                self.bytes += msg.len() as u64;
            }
            Some(seq) if seq > self.next => {
                self.lost += seq - self.next;
                self.next = seq + 1;
                self.delivered += 1;
                self.bytes += msg.len() as u64;
            }
            Some(_) => self.duplicated_or_reordered += 1,
        }
    }

    /// Closes the flow after `sent` messages: anything never seen is lost.
    pub fn finish(&mut self, sent: u64) {
        if sent > self.next {
            self.lost += sent - self.next;
            self.next = sent;
        }
    }

    /// Sequence numbers accounted for so far (delivered or lost).
    pub fn seen(&self) -> u64 {
        self.delivered + self.lost
    }

    pub fn failures(&self) -> u64 {
        self.lost + self.duplicated_or_reordered + self.corrupted
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Pins the calling thread — and so every process it spawns after — to
/// the highest-numbered CPU it may run on, and returns that CPU.
///
/// On a small VM, a wake-up sent to another, idle vCPU waits for the
/// hypervisor, which puts run-to-run noise of up to milliseconds into
/// a round trip that crosses CPUs; on one CPU that noise is gone.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is 128 writable bytes and 128 is the size passed.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is 128 readable bytes and 128 is the size passed.
    (unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } == 0).then_some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME: i32 = 2;

fn read_clock(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout on
    // 64-bit Linux; clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// User+system CPU time of process `pid` (`None` = this process), ns.
/// Other processes are read through their CPU-time clock id
/// (`MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`), which is exact.
pub fn cpu_ns(pid: Option<u32>) -> u64 {
    let clock = match pid {
        None => CLOCK_PROCESS_CPUTIME,
        Some(pid) => ((!(pid as i32)) << 3) | 2,
    };
    read_clock(clock).unwrap_or(0)
}

fn proc_status(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) of `pid` (`None` = this process), KiB.
pub fn rss_peak_kib(pid: Option<u32>) -> u64 {
    let pid = pid.map_or("self".to_string(), |p| p.to_string());
    proc_status(&pid, "VmHWM:").unwrap_or(0)
}

/// Current resident set (`VmRSS`) of this process, KiB.
pub fn rss_now_kib() -> u64 {
    proc_status("self", "VmRSS:").unwrap_or(0)
}

/// Number of threads of `pid` (`None` = this process).
pub fn threads(pid: Option<u32>) -> u64 {
    let pid = pid.map_or("self".to_string(), |p| p.to_string());
    proc_status(&pid, "Threads:").unwrap_or(0)
}

/// Nanoseconds since `epoch`.
#[inline]
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The `q`-quantile of `values`, interpolated between order statistics;
/// 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads() -> Payloads {
        Payloads::new(&mut Rng::new(7), &[64, 1024, 8192])
    }

    #[test]
    fn stamped_messages_verify_and_any_flipped_byte_does_not() {
        let p = payloads();
        for template in 0..3 {
            let mut msg = vec![0u8; p.len_of(template)];
            p.stamp(&mut msg, 41, template);
            assert_eq!(p.verify(&msg), Some(41));
            for i in [0, 9, 13, 17, HEADER, msg.len() - 1] {
                let mut bad = msg.clone();
                bad[i] ^= 0x20;
                assert_eq!(
                    p.verify(&bad),
                    None,
                    "flip at byte {i} of template {template}"
                );
            }
            assert_eq!(p.verify(&msg[..msg.len() - 1]), None);
        }
    }

    #[test]
    fn flow_counts_loss_duplication_and_corruption() {
        let p = payloads();
        let msg = |seq| {
            let mut m = vec![0u8; 64];
            p.stamp(&mut m, seq, 0);
            m
        };
        let mut f = Flow::default();
        for seq in [0, 1, 3, 3, 2] {
            f.observe(&p, &msg(seq));
        }
        let mut bad = msg(4);
        bad[40] ^= 1;
        f.observe(&p, &bad);
        f.finish(6);
        assert_eq!(
            (f.delivered, f.lost, f.duplicated_or_reordered, f.corrupted),
            (3, 3, 2, 1)
        );
        assert_eq!(f.failures(), 6);
    }

    #[test]
    fn histogram_quantiles_are_exact_below_the_fine_range_and_close_above() {
        let mut h = Hist::new(10);
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.5), 500.0);
        assert_eq!(h.quantile(0.99), 990.0);
        let mut h = Hist::new(10);
        h.record(1_000_000);
        assert!((h.quantile(0.5) - 1e6).abs() / 1e6 < 0.002);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
