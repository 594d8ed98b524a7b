//! Small helpers: JSON output, percentiles, `/proc` readers, the host
//! record, and the table digest the timed loops check answers with.

use std::time::{Duration, Instant};

use pardp_core::tables::WTable;
use serde::{Serialize, Value};

/// A `serde::Value` tree in the form `serde_json::to_string` takes.
struct Json<'a>(&'a Value);

impl Serialize for Json<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text of `v`.
pub fn render(v: &Value) -> String {
    serde_json::to_string(&Json(v)).expect("a value tree always serializes")
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Named metrics with unit and sample count, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str, usize)>);

impl Metrics {
    /// Record `value`; a non-finite value (an empty sample) is a bug in
    /// the benchmark and fails loudly.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite ({value})");
        self.0.push((name.to_string(), value, unit, samples));
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit, samples)| {
                    (
                        name.clone(),
                        obj(vec![
                            ("value", Value::Float(*value)),
                            ("unit", Value::Str(unit.to_string())),
                            ("samples", Value::UInt(*samples as u64)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Wall and CPU time at the ends of [`crate::gen::CHUNKS`] equal slices
/// of a timed loop of `ops` operations.
pub struct Chunks {
    ops: usize,
    t0: Instant,
    cpu0: Duration,
    /// (operations done, wall, cpu) at each slice end.
    marks: Vec<(usize, Duration, Duration)>,
}

impl Chunks {
    pub fn start(ops: usize) -> Chunks {
        Chunks {
            ops,
            cpu0: cpu_time(),
            t0: Instant::now(),
            marks: Vec::new(),
        }
    }

    /// Note that `done` operations have completed.
    pub fn tick(&mut self, done: usize) {
        let chunks = crate::gen::CHUNKS;
        if done * chunks / self.ops != (done - 1) * chunks / self.ops {
            self.marks
                .push((done, self.t0.elapsed(), cpu_time() - self.cpu0));
        }
    }

    /// Operations per second of each slice, for the info line.
    pub fn rates(&self) -> String {
        let mut prev = (0, Duration::ZERO);
        let mut out = Vec::new();
        for &(done, wall, _) in &self.marks {
            out.push(format!(
                "{:.2}",
                (done - prev.0) as f64 / (wall - prev.1).as_secs_f64()
            ));
            prev = (done, wall);
        }
        out.join(" ")
    }

    /// Median over slices of operations per second and of CPU ms per
    /// operation, and the whole window.
    pub fn summary(&self) -> (f64, f64, Duration) {
        let mut rate = Vec::new();
        let mut cpu = Vec::new();
        let mut prev = (0, Duration::ZERO, Duration::ZERO);
        for &m in &self.marks {
            let ops = (m.0 - prev.0) as f64;
            rate.push(ops / (m.1 - prev.1).as_secs_f64());
            cpu.push(ms(m.2 - prev.2) / ops);
            prev = m;
        }
        (median(&rate), median(&cpu), prev.1)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p90 / p99 / p99.9 with at least ten samples beyond it
/// at `count` samples, as `(quantile, label)`.
pub fn tail_quantile(count: usize) -> (f64, &'static str) {
    for (q, label) in [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")] {
        if (count as f64 * (1.0 - q)).floor() >= 10.0 {
            return (q, label);
        }
    }
    (0.9, "p90")
}

/// Tail latency of a timed list in operation order. The list is cut into
/// the most equal parts, up to [`crate::gen::CHUNKS`], in which p90 still
/// has ten samples beyond it; each part's tail is the highest of p90 /
/// p99 / p99.9 with ten samples beyond it at the part's size, and the
/// result is the median over parts. Returns `(value, parts, label)`.
pub fn tail_latency(lat: &[f64]) -> (f64, usize, &'static str) {
    let parts = (lat.len() / 100).clamp(1, crate::gen::CHUNKS);
    let (q, label) = tail_quantile(lat.len() / parts);
    let tails: Vec<f64> = (0..parts)
        .map(|k| quantile(&lat[k * lat.len() / parts..(k + 1) * lat.len() / parts], q))
        .collect();
    (median(&tails), parts, label)
}

/// A 64-bit fingerprint of a solved table, computed word by word so the
/// timed loop's check costs far less than the solve it checks. The
/// repository's byte-wise `spec::table_hash` is compared in the traced
/// replay and the serve records.
pub fn digest(w: &WTable<u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ w.n() as u64;
    for &cell in w.as_slice() {
        h = (h ^ cell).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Process user+sys CPU time so far (all threads), from
/// `/proc/self/stat` in USER_HZ (100/s on Linux).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate `/proc/stat` CPU counters: (steal, total) jiffies.
fn cpu_counters() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice).
    let total: u64 = f.iter().take(8).sum();
    (f.get(7).copied().unwrap_or(0), total)
}

/// A fixed flat-slice (min,+) kernel, the ceiling an `a-square` inner
/// loop can hope for on this host: candidates per ns, median of five
/// ~10 ms repetitions over L1-resident slices.
pub fn minplus_probe() -> f64 {
    const LEN: usize = 1024;
    let a: Vec<u64> = (0..LEN as u64).map(|i| (i * 7919) % 1000).collect();
    let b: Vec<u64> = (0..2 * LEN as u64).map(|i| (i * 104_729) % 1000).collect();
    let mut out = vec![u64::MAX; LEN];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut cands = 0u64;
        while t.elapsed() < Duration::from_millis(10) {
            for r in 0..64 {
                let row = std::hint::black_box(&b[r..r + LEN]);
                for ((o, &x), &y) in out.iter_mut().zip(&a).zip(row) {
                    *o = (*o).min(x + y);
                }
            }
            cands += 64 * LEN as u64;
        }
        std::hint::black_box(&out);
        rates.push(cands as f64 / t.elapsed().as_nanos() as f64);
    }
    median(&rates)
}

/// What the host looked like around a run: shape, steal share, and the
/// (min,+) probe before and after, so a slow host phase is visible.
pub struct Host {
    steal0: (u64, u64),
    probe_before: f64,
}

impl Host {
    pub fn start() -> Host {
        Host {
            steal0: cpu_counters(),
            probe_before: minplus_probe(),
        }
    }

    pub fn finish(self) -> Value {
        let probe_after = minplus_probe();
        let (s1, t1) = cpu_counters();
        let steal = (s1 - self.steal0.0) as f64 / (t1 - self.steal0.1).max(1) as f64;
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_default();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim()
            .to_string();
        obj(vec![
            ("nproc", Value::UInt(nproc() as u64)),
            ("cpu_model", Value::Str(cpu_model)),
            ("kernel", Value::Str(kernel)),
            ("steal_share", Value::Float(steal)),
            (
                "minplus_cand_per_ns_before",
                Value::Float(self.probe_before),
            ),
            ("minplus_cand_per_ns_after", Value::Float(probe_after)),
        ])
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
