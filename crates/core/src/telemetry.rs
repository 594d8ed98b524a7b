//! Structured observability for the serving and batch stacks: a typed
//! JSONL event stream, lock-free latency histograms, and Work/Span
//! metrics (ROADMAP item 5, "Observability beyond counters").
//!
//! The subsystem has three parts:
//!
//! 1. **Event stream** — [`Telemetry`] assigns every emitted [`Event`] a
//!    monotonically increasing sequence number and hands it to an
//!    [`EventSink`]. Two sinks ship with the crate: [`WriterSink`]
//!    (buffered JSONL writer for `--log <path|->`) and [`RingSink`]
//!    (bounded in-memory ring for tests). With no `Telemetry` configured
//!    the serving path does not even construct events, so telemetry off
//!    is truly zero-cost and output is bit-identical.
//! 2. **Latency histogram** — [`LatencyHistogram`], a lock-free
//!    log₂-bucketed histogram of microsecond samples backing the
//!    `latency_p50_us`/`latency_p90_us`/`latency_p99_us` fields of
//!    `{"cmd":"stats"}`.
//! 3. **Work/Span** — [`WorkSpan`], the classic parallel cost model
//!    pair derived from a solve's [`SolveTrace`]: *work* is the total
//!    number of candidate relaxations, *span* the critical-path depth
//!    estimate (iterations × per-iteration reduction depth). See
//!    [`SolveTrace::span_estimate`] for the exact definition and the
//!    discussion next to [`crate::ops::OpStats`].
//!
//! # Event schema
//!
//! Every event is one JSON object per line. All events carry `"event"`
//! (the type tag) and `"seq"` (the per-`Telemetry` sequence number,
//! gap-free within an emitting level). Remaining fields by type:
//!
//! | `event`      | level | fields                                                    |
//! |--------------|-------|-----------------------------------------------------------|
//! | `conn_open`  | debug | —                                                         |
//! | `conn_close` | debug | —                                                         |
//! | `admitted`   | info  | `job`                                                     |
//! | `rejected`   | error | `job`, `kind` (`invalid`\|`rejected`\|`overloaded`\|…)    |
//! | `regime`     | info  | `job`, `regime` (`small`\|`large`)                        |
//! | `cache`      | info  | `job`, `outcome` (`hit`\|`warm`\|`miss`\|`bypass`\|`dedup`) |
//! | `fault`      | error | `job`, `site` (a [`crate::fault::FaultSite`] name)        |
//! | `panic`      | error | `job`                                                     |
//! | `timeout`    | error | `job`                                                     |
//! | `completed`  | info  | `job`, `wall_us`, `value`                                 |
//! | `summary`    | info  | drained counters (see [`EventKind::Summary`])             |
//!
//! Every job a serve worker or a batch answers yields one lifecycle,
//! with strictly increasing `seq`: `admitted` → `regime` →
//! zero or more `fault` events, then either `cache` → (`completed` \|
//! `rejected`) when the solve returned — `rejected` with kind `invalid`
//! is a failed Knuth guard — or a lone `panic` \| `timeout` when it did
//! not. A request refused before it runs yields a lone `rejected`. The
//! per-job step emits every `cache` and terminal event, so `pardp batch
//! --log` and `pardp serve --log` streams pass the same checker
//! (`scripts/check_events.py`).
//!
//! # Worked example
//!
//! ```text
//! $ printf '{"family":"chain","values":[30,35,15,5,10,20,25]}\n' \
//!     | pardp serve --pipe --log events.jsonl
//! $ cat events.jsonl
//! {"event":"conn_open","seq":0}
//! {"event":"admitted","seq":1,"job":0}
//! {"event":"regime","seq":2,"job":0,"regime":"small"}
//! {"event":"cache","seq":3,"job":0,"outcome":"bypass"}
//! {"event":"completed","seq":4,"job":0,"wall_us":123,"value":15125}
//! {"event":"conn_close","seq":5}
//! {"event":"summary","seq":6,"accepted":1,"rejected":0,...}
//! ```
//!
//! (`--log -` streams the same lines to stderr so stdout stays a clean
//! protocol channel; `--log-level error` keeps only the failure
//! events.)
//!
//! # In-process use
//!
//! ```
//! use pardp_core::telemetry::{EventKind, RingSink, Telemetry};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingSink::new(16));
//! let tel = Telemetry::new(ring.clone());
//! tel.emit(EventKind::Admitted { job: 0 });
//! tel.emit(EventKind::Completed { job: 0, wall_us: 42, value: 7 });
//! let events = ring.events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].seq, 0);
//! assert_eq!(events[1].seq, 1);
//! ```

use crate::job::JobCounts;
use crate::trace::SolveTrace;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Severity attached to each event type; the [`Telemetry`] level filter
/// drops events below the configured threshold *before* a sequence
/// number is assigned, so the emitted stream stays gap-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Everything, including connection open/close events.
    Debug,
    /// Per-job lifecycle events and the final summary (the default).
    Info,
    /// Only failures: rejections, faults, panics, timeouts.
    Error,
}

impl LogLevel {
    /// Parse a level name as accepted by the CLI `--log-level` flag.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "debug" => Ok(LogLevel::Debug),
            "info" => Ok(LogLevel::Info),
            "error" => Ok(LogLevel::Error),
            other => Err(format!(
                "unknown log level '{other}' (expected debug, info, or error)"
            )),
        }
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Error => "error",
        }
    }
}

/// Typed event payloads. See the [module docs](self) for the schema
/// table; `job` indices count request lines per connection (serve) or
/// submission order (batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A connection (or pipe session) opened.
    ConnOpen,
    /// A connection (or pipe session) closed.
    ConnClose,
    /// A job passed admission control and entered the queue.
    Admitted {
        /// Per-connection request index.
        job: u64,
    },
    /// A request was refused; `kind` is a [`crate::spec::ErrorKind`] name.
    Rejected {
        /// Per-connection request index.
        job: u64,
        /// Machine-readable error kind (`invalid`, `rejected`,
        /// `overloaded`, `timeout`, `internal`).
        kind: &'static str,
    },
    /// The scheduling regime chosen for a job at pickup.
    Regime {
        /// Per-connection request index.
        job: u64,
        /// `true` for the exclusive large-job regime.
        large: bool,
    },
    /// The solution-store outcome for a job.
    Cache {
        /// Per-connection request index.
        job: u64,
        /// `hit`, `warm`, `miss`, `bypass`, or (batch only) `dedup`.
        outcome: &'static str,
    },
    /// A scheduled fault from a [`crate::fault::FaultPlan`] fired.
    Fault {
        /// Per-connection request index.
        job: u64,
        /// The [`crate::fault::FaultSite`] name.
        site: &'static str,
    },
    /// A worker panicked solving this job (the job was isolated).
    Panic {
        /// Per-connection request index.
        job: u64,
    },
    /// A job exceeded its deadline and answered `{"kind":"timeout"}`.
    Timeout {
        /// Per-connection request index.
        job: u64,
    },
    /// A job completed and its record was written.
    Completed {
        /// Per-connection request index.
        job: u64,
        /// Wall-clock solve time in microseconds.
        wall_us: u64,
        /// The optimal value of the solved instance.
        value: u64,
    },
    /// Final drained counters, emitted once per serve/batch session —
    /// the machine-readable twin of the human stderr drain line. Both
    /// front ends emit their [`JobCounts`], whose fields follow `seq` in
    /// declaration order.
    Summary(JobCounts),
}

impl EventKind {
    /// The `"event"` tag this kind serializes under.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnClose => "conn_close",
            EventKind::Admitted { .. } => "admitted",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Regime { .. } => "regime",
            EventKind::Cache { .. } => "cache",
            EventKind::Fault { .. } => "fault",
            EventKind::Panic { .. } => "panic",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Completed { .. } => "completed",
            EventKind::Summary(_) => "summary",
        }
    }

    /// The severity this kind emits at.
    pub fn level(&self) -> LogLevel {
        match self {
            EventKind::ConnOpen | EventKind::ConnClose => LogLevel::Debug,
            EventKind::Admitted { .. }
            | EventKind::Regime { .. }
            | EventKind::Cache { .. }
            | EventKind::Completed { .. }
            | EventKind::Summary(_) => LogLevel::Info,
            EventKind::Rejected { .. }
            | EventKind::Fault { .. }
            | EventKind::Panic { .. }
            | EventKind::Timeout { .. } => LogLevel::Error,
        }
    }
}

/// A sequenced event: what happened (`kind`) and when in the stream
/// (`seq`). Serializes to a flat JSON object (see the module schema
/// table) — the variant fields are inlined next to `event` and `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonically increasing per-[`Telemetry`] sequence number.
    pub seq: u64,
    /// The typed payload.
    pub kind: EventKind,
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            (
                "event".to_string(),
                Value::Str(self.kind.name().to_string()),
            ),
            ("seq".to_string(), Value::UInt(self.seq)),
        ];
        let mut push = |k: &str, v: Value| pairs.push((k.to_string(), v));
        match &self.kind {
            EventKind::ConnOpen | EventKind::ConnClose => {}
            EventKind::Admitted { job } | EventKind::Panic { job } | EventKind::Timeout { job } => {
                push("job", Value::UInt(*job));
            }
            EventKind::Rejected { job, kind } => {
                push("job", Value::UInt(*job));
                push("kind", Value::Str((*kind).to_string()));
            }
            EventKind::Regime { job, large } => {
                push("job", Value::UInt(*job));
                let regime = if *large { "large" } else { "small" };
                push("regime", Value::Str(regime.to_string()));
            }
            EventKind::Cache { job, outcome } => {
                push("job", Value::UInt(*job));
                push("outcome", Value::Str((*outcome).to_string()));
            }
            EventKind::Fault { job, site } => {
                push("job", Value::UInt(*job));
                push("site", Value::Str((*site).to_string()));
            }
            EventKind::Completed {
                job,
                wall_us,
                value,
            } => {
                push("job", Value::UInt(*job));
                push("wall_us", Value::UInt(*wall_us));
                push("value", Value::UInt(*value));
            }
            EventKind::Summary(counts) => {
                if let Value::Object(fields) = counts.to_value() {
                    pairs.extend(fields);
                }
            }
        }
        Value::Object(pairs)
    }
}

/// Destination for emitted events. Implementations must be cheap and
/// infallible from the caller's perspective: observability failures
/// must never fail serving, so sinks swallow their own IO errors.
pub trait EventSink: Send + Sync + std::fmt::Debug {
    /// Deliver one event.
    fn emit(&self, event: &Event);
    /// Flush any buffering; the default is a no-op.
    fn flush(&self) {}
}

/// A buffered JSONL writer sink: one event per line, in emission
/// order. Backs the CLI `--log <path|->` flag. Write errors are
/// deliberately ignored — a full disk must not take the daemon down.
pub struct WriterSink {
    writer: Mutex<std::io::BufWriter<Box<dyn Write + Send>>>,
}

impl WriterSink {
    /// Wrap a writer (a file, stderr, a pipe, …).
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        WriterSink {
            writer: Mutex::new(std::io::BufWriter::new(writer)),
        }
    }
}

impl std::fmt::Debug for WriterSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterSink").finish_non_exhaustive()
    }
}

impl EventSink for WriterSink {
    fn emit(&self, event: &Event) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut w = crate::fault::unpoison(self.writer.lock());
            let _ = writeln!(w, "{line}");
        }
    }

    fn flush(&self) {
        let mut w = crate::fault::unpoison(self.writer.lock());
        let _ = w.flush();
    }
}

/// A bounded in-memory ring sink for tests: keeps the most recent
/// `capacity` events, oldest evicted first.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot the retained events in emission order.
    pub fn events(&self) -> Vec<Event> {
        crate::fault::unpoison(self.buf.lock())
            .iter()
            .cloned()
            .collect()
    }
}

impl EventSink for RingSink {
    fn emit(&self, event: &Event) {
        let mut buf = crate::fault::unpoison(self.buf.lock());
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// The event-stream front end: a level filter, a gap-free sequence
/// counter, and a sink. Clone-free sharing via `Arc<Telemetry>`; see
/// the [module docs](self) for the emitted schema.
///
/// Sequencing and delivery happen under one short mutex, so the sink
/// receives events in exactly `seq` order even when many workers emit
/// concurrently — the stream is monotonic as written, not just as
/// numbered.
#[derive(Debug)]
pub struct Telemetry {
    seq: Mutex<u64>,
    level: LogLevel,
    sink: Arc<dyn EventSink>,
}

impl Telemetry {
    /// Telemetry at the default [`LogLevel::Info`].
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Telemetry::with_level(sink, LogLevel::Info)
    }

    /// Telemetry filtering below `level`.
    pub fn with_level(sink: Arc<dyn EventSink>, level: LogLevel) -> Self {
        Telemetry {
            seq: Mutex::new(0),
            level,
            sink,
        }
    }

    /// The configured level threshold.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// Emit one event: filtered events are dropped *before* sequencing
    /// so surviving events have consecutive `seq` values starting at 0.
    pub fn emit(&self, kind: EventKind) {
        if kind.level() < self.level {
            return;
        }
        let mut seq = crate::fault::unpoison(self.seq.lock());
        let s = *seq;
        *seq += 1;
        self.sink.emit(&Event { seq: s, kind });
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        self.sink.flush();
    }
}

/// Number of log₂ buckets in a [`LatencyHistogram`]; covers the full
/// `u64` microsecond range.
const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed histogram of microsecond latencies.
///
/// Bucket `i > 0` counts samples in `[2^(i-1), 2^i)`; bucket 0 counts
/// zeros. Recording is a single relaxed atomic increment, so workers
/// record on the hot path without coordination; percentile queries
/// take a snapshot of the counts and walk the buckets, reporting the
/// (inclusive) upper bound `2^i − 1` of the bucket containing the
/// requested rank — exact to within the 2× bucket resolution.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one sample in microseconds.
    pub fn record(&self, micros: u64) {
        let idx = if micros == 0 {
            0
        } else {
            (64 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The value at quantile `p` in `[0, 1]` (e.g. `0.5` for p50),
    /// reported as the upper bound of the owning bucket; `0` when the
    /// histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        (1u64 << (HISTOGRAM_BUCKETS - 1)) - 1
    }
}

/// Work/Span summary of one solve under the classic parallel cost
/// model: `work` is the total operation count (candidate relaxations
/// summed over all iterations), `span` the critical-path length
/// estimate from [`SolveTrace::span_estimate`]. `work / span` bounds
/// the achievable parallel speed-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkSpan {
    /// Total candidate relaxations across the whole solve.
    pub work: u64,
    /// Estimated critical-path depth (see [`SolveTrace::span_estimate`]).
    pub span: u64,
}

impl WorkSpan {
    /// Derive Work/Span from a solve trace.
    pub fn of_trace(trace: &SolveTrace) -> Self {
        WorkSpan {
            work: trace.total_candidates,
            span: trace.span_estimate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Error);
        for level in [LogLevel::Debug, LogLevel::Info, LogLevel::Error] {
            assert_eq!(LogLevel::parse(level.name()), Ok(level));
        }
        assert!(LogLevel::parse("verbose").is_err());
    }

    #[test]
    fn sequencing_is_gap_free_and_monotonic() {
        let ring = Arc::new(RingSink::new(64));
        let tel = Telemetry::new(ring.clone());
        for job in 0..5 {
            tel.emit(EventKind::Admitted { job });
            tel.emit(EventKind::Completed {
                job,
                wall_us: 1,
                value: 0,
            });
        }
        let events = ring.events();
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn level_filter_drops_before_sequencing() {
        let ring = Arc::new(RingSink::new(64));
        let tel = Telemetry::with_level(ring.clone(), LogLevel::Error);
        tel.emit(EventKind::ConnOpen);
        tel.emit(EventKind::Admitted { job: 0 });
        tel.emit(EventKind::Panic { job: 0 });
        tel.emit(EventKind::Timeout { job: 1 });
        let events = ring.events();
        assert_eq!(events.len(), 2);
        // Filtered events must not consume sequence numbers.
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].kind, EventKind::Panic { job: 0 });
    }

    #[test]
    fn ring_sink_is_bounded() {
        let ring = RingSink::new(3);
        for seq in 0..10u64 {
            ring.emit(&Event {
                seq,
                kind: EventKind::ConnOpen,
            });
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 7);
        assert_eq!(events[2].seq, 9);
    }

    #[test]
    fn events_serialize_flat() {
        let e = Event {
            seq: 3,
            kind: EventKind::Regime {
                job: 2,
                large: true,
            },
        };
        let line = serde_json::to_string(&e).unwrap();
        assert_eq!(
            line,
            r#"{"event":"regime","seq":3,"job":2,"regime":"large"}"#
        );

        let e = Event {
            seq: 4,
            kind: EventKind::Rejected {
                job: 2,
                kind: "overloaded",
            },
        };
        let line = serde_json::to_string(&e).unwrap();
        assert_eq!(
            line,
            r#"{"event":"rejected","seq":4,"job":2,"kind":"overloaded"}"#
        );

        let e = Event {
            seq: 5,
            kind: EventKind::Completed {
                job: 0,
                wall_us: 12,
                value: 15125,
            },
        };
        let line = serde_json::to_string(&e).unwrap();
        assert_eq!(
            line,
            r#"{"event":"completed","seq":5,"job":0,"wall_us":12,"value":15125}"#
        );

        let e = Event {
            seq: 9,
            kind: EventKind::Summary(JobCounts {
                accepted: 1,
                rejected: 2,
                invalid: 3,
                completed: 4,
                completed_small: 5,
                completed_large: 6,
                panics: 7,
                timeouts: 8,
                cache_hits: 9,
                cache_misses: 10,
                warm_starts: 11,
                cache_errors: 12,
                deduped: 13,
            }),
        };
        let line = serde_json::to_string(&e).unwrap();
        assert_eq!(
            line,
            r#"{"event":"summary","seq":9,"accepted":1,"rejected":2,"invalid":3,"completed":4,"completed_small":5,"completed_large":6,"panics":7,"timeouts":8,"cache_hits":9,"cache_misses":10,"warm_starts":11,"cache_errors":12,"deduped":13}"#
        );
    }

    #[test]
    fn writer_sink_emits_jsonl() {
        use std::sync::atomic::AtomicBool;

        // A Write impl backed by a shared Vec so the test can read back.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>, Arc<AtomicBool>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.1.store(true, Ordering::Relaxed);
                Ok(())
            }
        }
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let flushed = Arc::new(AtomicBool::new(false));
        let sink = WriterSink::new(Box::new(Shared(bytes.clone(), flushed.clone())));
        sink.emit(&Event {
            seq: 0,
            kind: EventKind::Admitted { job: 1 },
        });
        sink.flush();
        assert!(flushed.load(Ordering::Relaxed));
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"event\":\"admitted\",\"seq\":0,\"job\":1}\n");
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record(3); // bucket [2, 4) → upper bound 3
        }
        for _ in 0..10 {
            h.record(1000); // bucket [512, 1024) → upper bound 1023
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5), 3);
        assert_eq!(h.percentile(0.9), 3);
        assert_eq!(h.percentile(0.99), 1023);
        assert!(h.percentile(0.5) <= h.percentile(0.9));
        assert!(h.percentile(0.9) <= h.percentile(0.99));
    }

    #[test]
    fn histogram_edge_samples() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.percentile(1.0), 0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), (1u64 << 63) - 1);
    }

    #[test]
    fn work_span_of_direct_trace() {
        let trace = SolveTrace::direct(8);
        let ws = WorkSpan::of_trace(&trace);
        assert_eq!(ws.work, trace.total_candidates);
        // A direct solve has no recorded parallel structure: span == work.
        assert_eq!(ws.span, trace.total_candidates);
    }
}
