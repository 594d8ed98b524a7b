//! `pardp serve`: a persistent solving daemon over the JSONL wire API.
//!
//! The batch subsystem (PR 5) amortises scheduling across one job file;
//! this module amortises *process startup* across an entire session — a
//! long-running ingress loop for the ROADMAP's many-users north star.
//! It is std-only (threads, channels, condvars; no async runtime): a
//! thread-per-connection accept loop feeds a bounded MPMC job queue,
//! which a fixed pool of workers drains through the
//! [`Solver`](crate::solver::Solver) façade.
//!
//! ## Protocol (newline-delimited JSON, request order preserved)
//!
//! Requests are [`JobSpec`](crate::spec::JobSpec) lines — the schema
//! `pardp batch` reads, through the same reader, [`read_request`] — plus
//! two commands:
//!
//! ```json
//! {"family":"chain","values":[30,35,15,5,10,20,25]}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses come back **in request order**, one line per request: a
//! [`JobRecord`](crate::spec::JobRecord) for a solved job,
//! `{"job":i,"error":"..."}` for a rejected or failed one,
//! `{"stats":{...}}` ([`ServeStats`]) for `stats`, and
//! `{"ok":"shutdown"}` for `shutdown`. A blank line is skipped and a
//! command takes no job number; any other line is a job, so a line that
//! is not UTF-8 or not JSON is one `invalid` job and the session goes
//! on. Answers to job lines are bit-identical to `pardp batch` on the
//! same file, except the nondeterministic `wall_seconds` field (see
//! [`JobRecord::deterministic`](crate::spec::JobRecord::deterministic));
//! batch answers every command line with [`command_error`].
//!
//! ## Backpressure and admission
//!
//! The queue is bounded ([`ServeConfig::queue_capacity`]): when it is
//! full, a job is rejected *immediately* with
//! `{"job":i,"error":"overloaded"}` rather than buffered without bound —
//! a loaded daemon stays responsive and honest. Jobs above
//! [`DEFAULT_MAX_CELLS`] (or [`DEFAULT_MAX_DENSE_CELLS`] for the
//! dense-table algorithms, whose `pw` table is quadratic in the cell
//! count) are rejected at admission, before they can wedge the pool.
//!
//! ## The regime gate
//!
//! Workers classify each job by the batch subsystem's small/large
//! `w`-table-cell split ([`ServeConfig::large_job_cells`]) and hold a
//! readers-writer gate while solving: small jobs (readers) run
//! concurrently, one sequential solve per worker; a large job (writer)
//! runs alone with the pool backend capped at the worker count. Inner ×
//! outer parallelism therefore never multiplies — the daemon never has
//! more runnable solver threads than workers, the same oversubscription
//! rule [`BatchSolver`](crate::batch::BatchSolver) enforces by phasing.
//!
//! Inside the gate a worker runs the per-job step `pardp batch` runs
//! too — read the cache, solve in the job's regime with the Knuth
//! guard, write the cache — back to back, then answers through the same
//! respond step, so both front ends count, log and answer a job alike.
//! The daemon keeps its job counts in one [`JobCounts`] behind a mutex,
//! which that step updates in place.
//!
//! ## Failure hardening
//!
//! Partial failure never takes the daemon down (see [`crate::fault`]
//! for the full taxonomy and the chaos-test harness):
//!
//! * every job runs under `catch_unwind` — a panicking solve yields an
//!   `internal` error line, ticks [`ServeStats::panics`], and the
//!   worker (and any lock the panic poisoned) keeps going;
//! * [`ServeConfig::job_timeout`] cancels a long solve cooperatively
//!   ([`SolveOptions::deadline`]) — the job answers with a `timeout`
//!   error line, releases the regime gate, and its partial table is
//!   never cached;
//! * cache backend failures (a lookup, a warm-start probe or an insert)
//!   degrade their job to a bypass behind a [`ResilientCache`]
//!   ([`ServeStats::cache_errors`]), with the backend disabled after a
//!   bounded failure budget;
//! * request lines longer than [`DEFAULT_MAX_LINE_BYTES`] are
//!   rejected without being buffered, and TCP connections idle longer
//!   than [`ServeConfig::idle_timeout`] are dropped.
//!
//! Every error line carries a machine-readable `kind` field
//! ([`ErrorKind`]): `{"job":i,"error":"...","kind":"timeout"}`.
//!
//! ## Shutdown
//!
//! `{"cmd":"shutdown"}` (or [`Server::shutdown`], which the CLI wires to
//! SIGINT) stops admission — new jobs get `{"job":i,"error":"shutting
//! down...","kind":"rejected"}` — and **drains**: every accepted job is
//! still solved and its response written before workers exit.
//!
//! ## Migration note for batch users
//!
//! The job schema is [`crate::spec`], shared verbatim: a `jobs.jsonl`
//! that works with `pardp batch` streams unchanged through
//! `pardp serve --pipe`, and the result lines differ only in
//! `wall_seconds`. Library users construct
//! [`JobSpec`](crate::spec::JobSpec) values (or
//! [`ProblemSpec`](crate::spec::ProblemSpec)s).
//!
//! ```
//! use pardp_core::serve::{serve_pipe, ServeConfig};
//!
//! let input = "{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
//!              {\"cmd\":\"stats\"}\n";
//! let mut out = Vec::new();
//! let stats = serve_pipe(input.as_bytes(), &mut out, &ServeConfig::default());
//! let text = String::from_utf8(out).unwrap();
//! assert!(text.lines().next().unwrap().contains("\"value\":15125"));
//! assert_eq!(stats.completed, 1);
//! ```

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::batch::{JobCounts, DEFAULT_LARGE_JOB_CELLS};
use crate::exec::ExecBackend;
use crate::fault::{unpoison, FaultPlan, FaultSite};
use crate::job::{self, Regime};
use crate::solver::{Algorithm, SolveOptions};
use crate::spec::{
    command_error, command_record, read_request, wire_options, ErrorKind, Request, ResolvedJob,
};
use crate::store::{ResilientCache, SolutionCache};
use crate::telemetry::{EventKind, LatencyHistogram, Telemetry};

/// Default bound of the job queue: submissions beyond this many waiting
/// jobs are rejected with `overloaded`.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Admission cap in `w`-table cells (`n(n+1)/2`; n = 512). Jobs above it
/// are rejected — a daemon must bound per-job memory, unlike a one-shot
/// batch run.
pub const DEFAULT_MAX_CELLS: usize = 512 * 513 / 2;

/// Admission cap for the dense-table algorithms (sublinear §2,
/// Rytter), whose `pw` table grows as `n^4 / 24` (n = 96 ⇒ ~4.7k cells
/// ⇒ 3.76M `pw` entries per buffer, 57 MiB for a solve's two `u64`
/// buffers). Larger instances should use the banded §5 solver or a
/// sequential baseline.
pub const DEFAULT_MAX_DENSE_CELLS: usize = 96 * 97 / 2;

/// Cap on one request line in bytes (1 MiB). A line longer than
/// this is rejected with kind `rejected` and discarded without being
/// buffered — a client cannot make the daemon hold an unbounded line.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Configuration of the daemon. The defaults match `pardp batch`
/// (parallel pool, sublinear default algorithm, [`wire_options`], the
/// batch regime threshold), so responses agree bit-for-bit with a batch
/// run of the same lines.
#[derive(Clone)]
pub struct ServeConfig {
    /// The worker pool the daemon drains jobs over; the worker count is
    /// `exec.effective_threads()`.
    pub exec: ExecBackend,
    /// Algorithm for jobs without an `"algo"` field.
    pub default_algo: Algorithm,
    /// Base options every job starts from (per-job fields override).
    pub options: SolveOptions,
    /// Bound of the job queue (≥ 1; see [`DEFAULT_QUEUE_CAPACITY`]).
    pub queue_capacity: usize,
    /// The small/large regime threshold in `w`-table cells.
    pub large_job_cells: usize,
    /// Optional solution cache shared by every worker (`None` solves
    /// every job cold — the default, bit-identical to `pardp batch`).
    /// The daemon wraps it in a [`ResilientCache`], so a failing read or
    /// write degrades its job to a bypass instead of failing it; cache
    /// traffic shows up in [`ServeStats::cache_hits`] /
    /// [`ServeStats::cache_misses`] / [`ServeStats::warm_starts`] /
    /// [`ServeStats::cache_errors`].
    pub cache: Option<Arc<dyn SolutionCache>>,
    /// Per-job wall-clock deadline: a job still solving this long after
    /// it is picked up is cancelled cooperatively (see
    /// [`SolveOptions::deadline`]) and answered with a `timeout` error
    /// line. `None` (the default) never times out.
    pub job_timeout: Option<Duration>,
    /// Per-connection idle read timeout (TCP only): a connection that
    /// sends nothing for this long is dropped. `None` (the default)
    /// waits forever.
    pub idle_timeout: Option<Duration>,
    /// Deterministic fault-injection plan for chaos tests (see
    /// [`crate::fault`]). `None` — the default and the production
    /// setting — injects nothing and costs one pointer check per site.
    pub fault: Option<Arc<FaultPlan>>,
    /// Structured event stream (see [`crate::telemetry`]). `None` — the
    /// default — emits nothing, constructs no events, and leaves every
    /// response byte-identical to an un-instrumented daemon; the CLI
    /// wires `--log <path|->` here.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("exec", &self.exec)
            .field("default_algo", &self.default_algo)
            .field("options", &self.options)
            .field("queue_capacity", &self.queue_capacity)
            .field("large_job_cells", &self.large_job_cells)
            .field("cache", &self.cache.as_ref().map(|c| c.len()))
            .field("job_timeout", &self.job_timeout)
            .field("idle_timeout", &self.idle_timeout)
            .field("fault", &self.fault)
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            exec: ExecBackend::Parallel,
            default_algo: Algorithm::Sublinear,
            options: wire_options(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            large_job_cells: DEFAULT_LARGE_JOB_CELLS,
            cache: None,
            job_timeout: None,
            idle_timeout: None,
            fault: None,
            telemetry: None,
        }
    }
}

/// A point-in-time snapshot of the daemon's counters — the response body
/// of `{"cmd":"stats"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs rejected (queue full, admission caps, shutdown).
    pub rejected: u64,
    /// Request lines that were not valid jobs (bad JSON, bad spec).
    pub invalid: u64,
    /// Jobs picked up by a worker and answered — including jobs that
    /// panicked or timed out, which get an error line instead of a
    /// record. At drain, `completed == accepted`.
    pub completed: u64,
    /// Completed jobs that ran whole-problem-per-worker.
    pub completed_small: u64,
    /// Completed jobs that ran on the parallel per-problem path.
    pub completed_large: u64,
    /// Completed jobs served straight from the solution cache.
    pub cache_hits: u64,
    /// Completed jobs that missed the cache (warm starts included;
    /// always zero when no cache is configured).
    pub cache_misses: u64,
    /// Missed jobs seeded from a cached prefix table.
    pub warm_starts: u64,
    /// Jobs whose solve panicked; each was isolated at the job boundary
    /// and answered with an `internal` error line.
    pub panics: u64,
    /// Jobs cancelled at their [`ServeConfig::job_timeout`] deadline and
    /// answered with a `timeout` error line.
    pub timeouts: u64,
    /// Solution-cache backend failures tolerated so far (each degraded
    /// the affected job to a cold solve; see
    /// [`ResilientCache::errors`]).
    pub cache_errors: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// The deepest the queue has ever been — how close the daemon came
    /// to its `overloaded` bound.
    pub queue_high_watermark: u64,
    /// Error lines answered with kind `invalid` (bad JSON, bad spec).
    pub errors_invalid: u64,
    /// Error lines answered with kind `rejected` (admission caps,
    /// oversized lines, shutdown) — the overloaded ones counted apart.
    pub errors_rejected: u64,
    /// Error lines answered with kind `overloaded` (queue full).
    pub errors_overloaded: u64,
    /// Error lines answered with kind `timeout` (deadline passed).
    pub errors_timeout: u64,
    /// Error lines answered with kind `internal` (isolated panics).
    pub errors_internal: u64,
    /// Median answer latency (admission → reply) in microseconds, from
    /// the lock-free log₂ histogram ([`LatencyHistogram`]) — exact to
    /// within its 2× bucket resolution, like the other two percentiles.
    pub latency_p50_us: u64,
    /// 90th-percentile answer latency in microseconds.
    pub latency_p90_us: u64,
    /// 99th-percentile answer latency in microseconds.
    pub latency_p99_us: u64,
    /// Total work (candidate relaxations) across completed solves — see
    /// the Work/Span discussion in [`crate::trace`].
    pub work: u64,
    /// Total estimated span (critical-path depth) across completed
    /// solves ([`crate::trace::SolveTrace::span_estimate`]).
    pub span: u64,
    /// Work attributable to `a-activate` (nonzero only for jobs run
    /// with per-iteration trace recording).
    pub work_activate: u64,
    /// Work attributable to `a-square` (same caveat).
    pub work_square: u64,
    /// Work attributable to `a-pebble` (same caveat).
    pub work_pebble: u64,
    /// The configured queue bound.
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Seconds since the daemon started.
    pub uptime_seconds: f64,
    /// Small-regime jobs completed per second of uptime.
    pub small_per_second: f64,
    /// Large-regime jobs completed per second of uptime.
    pub large_per_second: f64,
}

/// The daemon's counters: the job tally, which a snapshot copies in one
/// lock hold, and the statistics beside it.
#[derive(Default)]
struct Counters {
    /// The session's job counts. `cache_errors` stays 0 here: it is read
    /// from the [`ResilientCache`] at snapshot time. Lock order: the
    /// queue before the tally, and the tally before the telemetry sink.
    jobs: Mutex<JobCounts>,
    /// Rejections whose kind was specifically `overloaded` (these also
    /// tick `rejected`, the aggregate).
    overloaded: AtomicU64,
    queue_high_watermark: AtomicU64,
    work: AtomicU64,
    span: AtomicU64,
    work_activate: AtomicU64,
    work_square: AtomicU64,
    work_pebble: AtomicU64,
    /// Admission-to-reply latency of every answered job, in µs. Always
    /// on: recording is one relaxed atomic increment.
    latency: LatencyHistogram,
}

/// One queued job: a resolved, admitted request plus its reply slot.
struct Job {
    index: usize,
    /// The request as read: its spec is the cache identity and the
    /// instance the solve stage builds.
    resolved: ResolvedJob,
    large: bool,
    /// When the job passed admission — the latency clock's zero.
    accepted: Instant,
    reply: mpsc::Sender<String>,
}

/// State shared by the accept loop, connections, and workers.
struct Shared {
    config: ServeConfig,
    workers: usize,
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    /// The oversubscription gate: small jobs hold it shared, large jobs
    /// exclusively (see the module docs).
    regime: RwLock<()>,
    /// The configured cache behind the failure-tolerant wrapper: backend
    /// errors degrade to misses and a dying backend is disabled after
    /// its failure budget.
    cache: Option<Arc<ResilientCache>>,
    started: Instant,
}

impl Shared {
    fn new(config: ServeConfig) -> Self {
        Shared {
            workers: config.exec.effective_threads(),
            cache: config
                .cache
                .clone()
                .map(|c| Arc::new(ResilientCache::new(c))),
            config,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            regime: RwLock::new(()),
            started: Instant::now(),
        }
    }

    /// Stop admission and wake every worker so the queue drains.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Take the queue lock so no worker misses the flag between its
        // empty-check and its condvar wait.
        let _q = unpoison(self.queue.lock());
        self.not_empty.notify_all();
    }

    /// Emit a telemetry event if a stream is configured; free otherwise.
    fn emit(&self, kind: EventKind) {
        if let Some(tel) = &self.config.telemetry {
            tel.emit(kind);
        }
    }

    /// Refuse request `job` before it reaches a worker through the
    /// shared refuse step batch takes too (count, `rejected` event), and
    /// queue its error line.
    fn refuse(&self, job: usize, kind: ErrorKind, error: String) -> Slot {
        let telemetry = self.config.telemetry.as_deref();
        let e = {
            let mut counts = unpoison(self.counters.jobs.lock());
            job::refuse(job, kind, error, &mut counts, telemetry)
        };
        if kind == ErrorKind::Overloaded {
            self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        }
        Slot::Line(e.line())
    }

    /// Emit the final `summary` event from the drained counters and
    /// flush the sink — the machine-readable twin of the CLI's stderr
    /// drain line. Called once per session, after the queue drains.
    fn emit_summary(&self) {
        if let Some(tel) = &self.config.telemetry {
            tel.emit(EventKind::Summary(self.counts().0));
            tel.flush();
        }
    }

    /// Try to enqueue a job; the error is the wire error kind + message.
    fn submit(&self, job: Job) -> Result<(), (ErrorKind, String)> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err((
                ErrorKind::Rejected,
                "shutting down: new jobs are rejected while the queue drains".into(),
            ));
        }
        let mut q = unpoison(self.queue.lock());
        if q.len() >= self.config.queue_capacity {
            return Err((ErrorKind::Overloaded, "overloaded".into()));
        }
        // Emitted while the queue lock is still held: no worker can pop
        // this job (and emit its `regime` event) before `admitted` is in
        // the stream, so per-job chains stay ordered.
        self.emit(EventKind::Admitted {
            job: job.index as u64,
        });
        // Ticked before the push: no worker can complete this job before
        // it is accepted, so no snapshot reads `completed` ahead of
        // `accepted`.
        unpoison(self.counters.jobs.lock()).accepted += 1;
        q.push_back(job);
        // Under the queue lock, so the watermark never races the push it
        // describes.
        let depth = q.len() as u64;
        self.counters
            .queue_high_watermark
            .fetch_max(depth, Ordering::Relaxed);
        drop(q);
        self.not_empty.notify_one();
        Ok(())
    }

    /// The job counts so far, and the queue depth.
    fn counts(&self) -> (JobCounts, usize) {
        let mut n = *unpoison(self.counters.jobs.lock());
        n.cache_errors = self.cache.as_ref().map_or(0, |c| c.errors());
        (n, unpoison(self.queue.lock()).len())
    }

    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        let (n, queue_depth) = self.counts();
        let overloaded = c.overloaded.load(Ordering::Relaxed);
        let uptime = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        ServeStats {
            accepted: n.accepted,
            rejected: n.rejected,
            invalid: n.invalid,
            completed: n.completed,
            completed_small: n.completed_small,
            completed_large: n.completed_large,
            cache_hits: n.cache_hits,
            cache_misses: n.cache_misses,
            warm_starts: n.warm_starts,
            panics: n.panics,
            timeouts: n.timeouts,
            cache_errors: n.cache_errors,
            queue_depth,
            queue_high_watermark: c.queue_high_watermark.load(Ordering::Relaxed),
            errors_invalid: n.invalid,
            errors_rejected: n.rejected.saturating_sub(overloaded),
            errors_overloaded: overloaded,
            errors_timeout: n.timeouts,
            errors_internal: n.panics,
            latency_p50_us: c.latency.percentile(0.50),
            latency_p90_us: c.latency.percentile(0.90),
            latency_p99_us: c.latency.percentile(0.99),
            work: c.work.load(Ordering::Relaxed),
            span: c.span.load(Ordering::Relaxed),
            work_activate: c.work_activate.load(Ordering::Relaxed),
            work_square: c.work_square.load(Ordering::Relaxed),
            work_pebble: c.work_pebble.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            workers: self.workers,
            uptime_seconds: uptime,
            small_per_second: n.completed_small as f64 / uptime,
            large_per_second: n.completed_large as f64 / uptime,
        }
    }
}

/// Worker: pop jobs until shutdown is flagged *and* the queue is empty —
/// the drain guarantee.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = unpoison(shared.queue.lock());
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = unpoison(shared.not_empty.wait(q));
            }
        };
        match job {
            Some(j) => run_job(shared, j),
            None => return,
        }
    }
}

/// Inject a worker panic when the plan schedules one — called inside
/// the regime gate, before the solve, so the recovery path exercises
/// both the gate release and the `catch_unwind` boundary. The `fault`
/// event is emitted before unwinding starts, so chaos streams show the
/// injection site ahead of the resulting `panic` event.
fn maybe_panic(shared: &Shared, job_index: usize) {
    if let Some(plan) = &shared.config.fault {
        if plan.should(FaultSite::WorkerPanic) {
            shared.emit(EventKind::Fault {
                job: job_index as u64,
                site: FaultSite::WorkerPanic.name(),
            });
            panic!("injected worker panic");
        }
    }
}

/// Run one job through the per-job step and write its response line
/// into the reply slot. A panicking job is isolated here — the worker
/// survives, the client gets an `internal` error line — and a job that
/// outlives [`ServeConfig::job_timeout`] is cancelled cooperatively and
/// answered with a `timeout` error line.
fn run_job(shared: &Shared, job: Job) {
    // The deadline clock starts when a worker picks the job up, not at
    // admission: queue wait is backpressure, not solve time.
    let deadline = shared.config.job_timeout.map(|t| Instant::now() + t);
    shared.emit(EventKind::Regime {
        job: job.index as u64,
        large: job.large,
    });
    if let Some(plan) = &shared.config.fault {
        if plan.should(FaultSite::JobDelay) {
            shared.emit(EventKind::Fault {
                job: job.index as u64,
                site: FaultSite::JobDelay.name(),
            });
            thread::sleep(plan.injected_delay());
        }
    }
    // Read → solve → write run back to back inside the regime gate: a
    // hit skips the kernels entirely but still respects response
    // ordering. The gate guard lives inside the panic boundary, so a
    // panicking job releases (and `unpoison` later recovers) the gate
    // on unwind.
    let cache = shared.cache.as_deref().map(|c| c as &dyn SolutionCache);
    let outcome = job::isolate(|| {
        // Large jobs hold the gate exclusively, small jobs share it.
        let (_exclusive, _shared);
        if job.large {
            _exclusive = unpoison(shared.regime.write());
        } else {
            _shared = unpoison(shared.regime.read());
        }
        maybe_panic(shared, job.index);
        let regime = Regime {
            large: job.large,
            workers: shared.workers,
        };
        let r = &job.resolved;
        let options = r.options.deadline(deadline);
        job::step(cache, &r.problem, r.algorithm, &options, Some(regime))
    });
    let telemetry = shared.config.telemetry.as_deref();
    let c = &shared.counters;
    // `respond` emits the job's events while it holds the tally.
    let answer = {
        let mut counts = unpoison(c.jobs.lock());
        job::respond(job.index, outcome, job.large, false, &mut counts, telemetry)
    };
    if let Ok(solution) = &answer {
        // Work/Span accounting: the trace always carries the total
        // (work); the per-op split is nonzero only for jobs run with
        // trace recording (see `SolveTrace::work_by_op`).
        let ws = solution.work_span();
        let (wa, wsq, wp) = solution.trace.work_by_op();
        c.work.fetch_add(ws.work, Ordering::Relaxed);
        c.span.fetch_add(ws.span, Ordering::Relaxed);
        c.work_activate.fetch_add(wa, Ordering::Relaxed);
        c.work_square.fetch_add(wsq, Ordering::Relaxed);
        c.work_pebble.fetch_add(wp, Ordering::Relaxed);
    }
    let family = job.resolved.problem.family();
    let line = job::answer_line(job.index, family, answer.as_ref(), job.large);
    c.latency.record(job.accepted.elapsed().as_micros() as u64);
    // The connection may already be gone; the job still counts as
    // completed (it was answered).
    job.reply.send(line).ok();
}

/// `{"stats":{...}}`.
#[derive(Serialize)]
struct StatsLine {
    stats: ServeStats,
}

/// `{"ok":"shutdown"}`.
#[derive(Serialize)]
struct ShutdownAck {
    ok: String,
}

/// One request line read under the byte cap.
enum LineRead {
    /// A complete line's bytes, `\n` terminator stripped.
    Line(Vec<u8>),
    /// The line exceeded the cap; it was drained and discarded without
    /// being buffered.
    Oversized,
    /// Clean end of input.
    Eof,
}

/// Read one `\n`-terminated line, buffering at most `cap + 1` bytes. A
/// longer line is consumed to its terminator but never held in memory —
/// the defence [`DEFAULT_MAX_LINE_BYTES`] promises. An unterminated
/// trailing line still counts (matching [`BufRead::lines`]). Only a read
/// error (including an idle-timeout expiry on a socket) is an `Err`.
fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> std::io::Result<LineRead> {
    let mut line = Vec::new();
    reader.take(cap as u64 + 1).read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > cap {
        loop {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let end = available.iter().position(|&b| b == b'\n');
            let used = end.map_or(available.len(), |pos| pos + 1);
            reader.consume(used);
            if end.is_some() || used == 0 {
                return Ok(LineRead::Oversized);
            }
        }
    } else if line.is_empty() {
        return Ok(LineRead::Eof);
    }
    Ok(LineRead::Line(line))
}

/// A response slot, queued in request order: a line that is ready now,
/// the receiver a worker will deliver one into, or a deferred stats
/// snapshot. `Stats` is taken when the writer *reaches* the slot, so a
/// stats response deterministically covers every request answered
/// before it on the same connection.
enum Slot {
    Line(String),
    Pending(mpsc::Receiver<String>),
    Stats,
}

/// Check a resolved job against the admission caps; the error is the
/// wire message.
fn admit(algorithm: Algorithm, cells: usize) -> Result<(), String> {
    if cells > DEFAULT_MAX_CELLS {
        return Err(format!(
            "job too large: {cells} w-table cells exceeds the admission cap \
             {DEFAULT_MAX_CELLS}"
        ));
    }
    if matches!(algorithm, Algorithm::Sublinear | Algorithm::Rytter)
        && cells > DEFAULT_MAX_DENSE_CELLS
    {
        return Err(format!(
            "job too large for the dense-table '{algorithm}' solver: {cells} \
             w-table cells exceeds the dense admission cap {DEFAULT_MAX_DENSE_CELLS} \
             (its pw table is quadratic in the cell count); use the banded \
             reduced solver or a sequential baseline"
        ));
    }
    Ok(())
}

/// Serve one connection: read JSONL requests, answer each in request
/// order. Jobs are pipelined — the reader keeps admitting while earlier
/// jobs solve — and a writer thread drains the response slots so order
/// is preserved without blocking admission.
///
/// Returns when the input ends, the connection drops or times out idle,
/// or a `shutdown` command arrives (which also stops the whole daemon).
fn handle_connection<R: BufRead, W: Write + Send>(shared: &Shared, mut reader: R, writer: W) {
    shared.emit(EventKind::ConnOpen);
    let (tx, rx) = mpsc::channel::<Slot>();
    thread::scope(|scope| {
        scope.spawn(move || {
            let mut w = writer;
            for slot in rx {
                let line = match slot {
                    Slot::Line(s) => s,
                    Slot::Pending(reply) => reply.recv().unwrap_or_else(|_| {
                        command_record(ErrorKind::Internal, "internal: worker dropped the reply")
                    }),
                    Slot::Stats => serde_json::to_string(&StatsLine {
                        stats: shared.stats(),
                    })
                    .expect("stats serialize"),
                };
                if writeln!(w, "{line}").is_err() || w.flush().is_err() {
                    // Client gone: stop writing. Dropping the remaining
                    // receivers is safe — workers ignore dead replies.
                    return;
                }
            }
        });

        let cfg = &shared.config;
        let mut job_index = 0usize;
        loop {
            let job = match read_line_capped(&mut reader, DEFAULT_MAX_LINE_BYTES) {
                // Read errors cover a dropped peer and the idle-timeout
                // expiry on a socket — both close the connection
                // (accepted jobs still drain).
                Err(_) | Ok(LineRead::Eof) => break,
                // An oversized line takes a job number like any other
                // malformed request, but its bytes were never buffered.
                Ok(LineRead::Oversized) => Err((
                    ErrorKind::Rejected,
                    format!(
                        "request line exceeds the {DEFAULT_MAX_LINE_BYTES}-byte cap and was \
                         discarded"
                    ),
                )),
                Ok(LineRead::Line(line)) => {
                    match read_request(&line, cfg.default_algo, cfg.options) {
                        Request::Blank => continue,
                        Request::Command(name) => {
                            let response = match name.as_str() {
                                "stats" => Slot::Stats,
                                "shutdown" => {
                                    shared.begin_shutdown();
                                    let ack = serde_json::to_string(&ShutdownAck {
                                        ok: "shutdown".into(),
                                    })
                                    .expect("ack serializes");
                                    tx.send(Slot::Line(ack)).ok();
                                    break;
                                }
                                _ => Slot::Line(command_error(&name)),
                            };
                            if tx.send(response).is_err() {
                                break;
                            }
                            continue;
                        }
                        // A bad job line takes a job number (the client
                        // meant *something* here) but never kills the loop.
                        Request::Job(job) => job.map_err(|e| (ErrorKind::Invalid, e.0)),
                    }
                }
            };

            let index = job_index;
            job_index += 1;
            let slot = job
                .and_then(|resolved| {
                    let cells = resolved.problem.cells();
                    admit(resolved.algorithm, cells).map_err(|e| (ErrorKind::Rejected, e))?;
                    let (reply_tx, reply_rx) = mpsc::channel();
                    shared.submit(Job {
                        index,
                        resolved,
                        large: cells > cfg.large_job_cells,
                        accepted: Instant::now(),
                        reply: reply_tx,
                    })?;
                    Ok(Slot::Pending(reply_rx))
                })
                .unwrap_or_else(|(kind, e)| shared.refuse(index, kind, e));
            if tx.send(slot).is_err() {
                break;
            }
        }
        drop(tx); // writer drains the remaining slots, then exits
    });
    shared.emit(EventKind::ConnClose);
}

/// Run the daemon over an in-process reader/writer pair — stdin/stdout
/// pipe mode (`pardp serve --pipe`), CI harnesses, and tests. Spawns the
/// worker pool, serves the single connection to EOF (or `shutdown`),
/// drains every accepted job, and returns the final stats.
pub fn serve_pipe<R: BufRead, W: Write + Send>(
    reader: R,
    writer: W,
    config: &ServeConfig,
) -> ServeStats {
    let shared = Shared::new(config.clone());
    thread::scope(|scope| {
        for _ in 0..shared.workers {
            scope.spawn(|| worker_loop(&shared));
        }
        handle_connection(&shared, reader, writer);
        shared.begin_shutdown();
    });
    shared.emit_summary();
    shared.stats()
}

/// A running TCP daemon (`pardp serve --addr`): an accept loop, a worker
/// pool, and one thread per connection, all draining through the shared
/// bounded queue.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start accepting. The daemon
    /// runs until [`Server::shutdown`] / a client's `{"cmd":"shutdown"}`,
    /// then [`Server::join`] drains and collects it.
    pub fn bind(addr: &str, config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(config.clone()));

        let workers = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || {
            // Connection threads and a read-half handle to kick each
            // blocked reader loose at shutdown.
            let mut conns: Vec<(TcpStream, thread::JoinHandle<()>)> = Vec::new();
            while !accept_shared.shutdown.load(Ordering::SeqCst) {
                // Reap finished connections: joining drops the last clone
                // of the socket, so the client sees EOF as soon as its
                // session is done — a read-until-EOF client must not wait
                // for daemon shutdown — and a long-lived daemon does not
                // accumulate one fd per connection ever served.
                let mut i = 0;
                while i < conns.len() {
                    if conns[i].1.is_finished() {
                        let (kick, handle) = conns.swap_remove(i);
                        handle.join().ok();
                        drop(kick);
                    } else {
                        i += 1;
                    }
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        stream.set_nodelay(true).ok();
                        // A silent connection is dropped after the idle
                        // timeout: its next read fails, the handler
                        // exits, and the reaper frees the fd.
                        stream
                            .set_read_timeout(accept_shared.config.idle_timeout)
                            .ok();
                        let Ok(read_half) = stream.try_clone() else {
                            continue;
                        };
                        let Ok(kick) = stream.try_clone() else {
                            continue;
                        };
                        let conn_shared = Arc::clone(&accept_shared);
                        let handle = thread::spawn(move || {
                            handle_connection(&conn_shared, BufReader::new(read_half), stream);
                        });
                        conns.push((kick, handle));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => break,
                }
            }
            // Unblock readers stuck in a socket read, then wait for each
            // connection to flush its remaining responses.
            for (kick, _) in &conns {
                kick.shutdown(Shutdown::Read).ok();
            }
            for (_, handle) in conns {
                handle.join().ok();
            }
        });

        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Begin graceful shutdown: stop admitting, drain the queue. Join
    /// with [`Server::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has begun (via [`Server::shutdown`] or a
    /// client's `{"cmd":"shutdown"}`).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Shut down (if not already begun), drain every accepted job, join
    /// all threads, and return the final stats.
    pub fn join(mut self) -> ServeStats {
        self.shared.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
        self.shared.emit_summary();
        self.shared.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(input: impl AsRef<[u8]>, config: &ServeConfig) -> (Vec<String>, ServeStats) {
        let mut out = Vec::new();
        let stats = serve_pipe(input.as_ref(), &mut out, config);
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(|l| l.to_string()).collect(), stats)
    }

    #[test]
    fn solves_jobs_and_reports_stats_in_request_order() {
        let input = "{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
                     {\"family\":\"merge\",\"values\":[10,20,30],\"algo\":\"wavefront\"}\n\
                     {\"cmd\":\"stats\"}\n";
        let (lines, stats) = pipe(input, &ServeConfig::default());
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"job\":0"), "{}", lines[0]);
        assert!(lines[0].contains("\"value\":15125"), "{}", lines[0]);
        assert!(lines[1].contains("\"job\":1"), "{}", lines[1]);
        assert!(lines[1].contains("\"value\":90"), "{}", lines[1]);
        assert!(lines[2].contains("\"stats\":{"), "{}", lines[2]);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queue_depth, 0, "drained");
        // The stats line parses back into the snapshot type.
        let v = serde_json::parse_value(&lines[2]).unwrap();
        let snap = ServeStats::from_value(v.get("stats").unwrap()).unwrap();
        // The snapshot is taken when the writer reaches the slot, so it
        // covers both already-answered jobs deterministically.
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.workers, stats.workers);
    }

    #[test]
    fn malformed_and_invalid_lines_answer_without_killing_the_loop() {
        let input = b"this is not json\n\
                     {\"family\":\"knapsack\",\"values\":[1]}\n\
                     {\"family\":\"obst\",\"values\":[1,2]}\n\
                     {\"family\":\"chain\",\"values\":[2,3,4],\"band\":64}\n\
                     {\"cmd\":\"frobnicate\"}\n\
                     \xff{\"family\":\"chain\"}\n\
                     {\"family\":\"chain\",\"values\":[2,3,4]}\n";
        let (lines, stats) = pipe(input, &ServeConfig::default());
        assert_eq!(lines.len(), 7, "{lines:?}");
        assert!(lines[0].contains("\"job\":0") && lines[0].contains("not a JSON job"));
        assert!(lines[1].contains("unknown problem family"), "{}", lines[1]);
        assert!(lines[2].contains(r#"\"q\" field"#), "{}", lines[2]);
        assert!(
            lines[3].contains(r#"\"band\" has no effect"#),
            "{}",
            lines[3]
        );
        assert!(lines[4].contains("unknown cmd"), "{}", lines[4]);
        // A line that is not UTF-8 is one invalid job, not the end of input.
        assert_eq!(
            lines[5],
            r#"{"job":4,"error":"request line is not UTF-8","kind":"invalid"}"#
        );
        assert!(lines[6].contains("\"value\":24"), "{}", lines[6]);
        assert_eq!(stats.invalid, 5);
        assert_eq!(stats.errors_invalid, 5);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn shutdown_command_acks_and_rejects_the_rest() {
        let input = "{\"family\":\"chain\",\"values\":[2,3,4]}\n\
                     {\"cmd\":\"shutdown\"}\n\
                     {\"family\":\"chain\",\"values\":[4,5,6]}\n";
        let (lines, stats) = pipe(input, &ServeConfig::default());
        // The reader stops at the shutdown command; the trailing job is
        // never read, but the accepted job is drained first.
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"value\":24"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":\"shutdown\""), "{}", lines[1]);
        assert_eq!(stats.completed, 1);
    }

    /// A job line of `count` values (each 1) of `family`, plus `extra`
    /// fields.
    fn job_line(family: &str, count: usize, extra: &str) -> String {
        let values = vec!["1"; count].join(",");
        format!("{{\"family\":\"{family}\",\"values\":[{values}]{extra}}}\n")
    }

    #[test]
    fn admission_caps_reject_oversized_jobs() {
        // 514 runs: 514·515/2 = 132,355 cells, over the 131,328 cap.
        let (lines, stats) = pipe(job_line("merge", 514, ""), &ServeConfig::default());
        assert!(
            lines[0].contains("job too large: 132355 w-table cells"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("cap 131328"), "{}", lines[0]);
        assert!(lines[0].contains("\"job\":0"), "{}", lines[0]);
        assert_eq!(stats.rejected, 1);
        // Dense cap: a 98-value chain (n = 97, 4,753 cells, over 4,656)
        // is refused to sublinear and admitted to reduced.
        let (lines, _) = pipe(job_line("chain", 98, ""), &ServeConfig::default());
        assert!(
            lines[0].contains("dense admission cap 4656"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("reduced"), "{}", lines[0]);
        let reduced = job_line("chain", 98, ",\"algo\":\"reduced\"");
        let (lines, stats) = pipe(reduced, &ServeConfig::default());
        assert!(lines[0].contains("\"value\":96"), "{}", lines[0]);
        assert_eq!((stats.rejected, stats.completed), (0, 1));
    }

    #[test]
    fn error_lines_carry_machine_readable_kinds() {
        let input = "not json\n\
                     {\"family\":\"knapsack\",\"values\":[1]}\n\
                     {\"cmd\":\"frobnicate\"}\n";
        let (lines, _) = pipe(input, &ServeConfig::default());
        assert!(lines[0].contains("\"kind\":\"invalid\""), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\":\"invalid\""), "{}", lines[1]);
        assert!(lines[2].contains("\"kind\":\"invalid\""), "{}", lines[2]);
        let (lines, _) = pipe(job_line("merge", 514, ""), &ServeConfig::default());
        assert!(lines[0].contains("\"kind\":\"rejected\""), "{}", lines[0]);
    }

    #[test]
    fn oversized_request_line_is_rejected_without_buffering() {
        // A job line padded with spaces to exactly the cap is read; one
        // byte more and it is discarded, terminated or not.
        let job = "{\"family\":\"chain\",\"values\":[2,3,4]}";
        let at_cap = format!("{job}{}", " ".repeat(DEFAULT_MAX_LINE_BYTES - job.len()));
        let input = format!("{at_cap} \n{at_cap}\n{at_cap} ");
        let (lines, stats) = pipe(&input, &ServeConfig::default());
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"job\":0"), "{}", lines[0]);
        assert!(
            lines[0].contains("exceeds the 1048576-byte cap"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"kind\":\"rejected\""), "{}", lines[0]);
        // The next line is unaffected — the oversized one was drained.
        assert!(lines[1].contains("\"job\":1"), "{}", lines[1]);
        assert!(lines[1].contains("\"value\":24"), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"job\":2,"), "{}", lines[2]);
        assert!(lines[2].contains("\"kind\":\"rejected\""), "{}", lines[2]);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn payloads_whose_costs_can_overflow_answer_invalid() {
        // Per family at n = 2: the largest accepted payload, then the
        // smallest rejected one (2·n·max_f must stay below 2^62 − 1).
        let input = "{\"family\":\"chain\",\"values\":[1048575,1048575,1048575]}\n\
             {\"family\":\"chain\",\"values\":[1048575,1048575,1048576]}\n\
             {\"family\":\"polygon\",\"values\":[1048575,1048575,1048575]}\n\
             {\"family\":\"polygon\",\"values\":[1048575,1048575,1048576]}\n\
             {\"family\":\"obst\",\"values\":[1152921504606846973],\"q\":[1,1]}\n\
             {\"family\":\"obst\",\"values\":[1152921504606846974],\"q\":[1,1]}\n\
             {\"family\":\"merge\",\"values\":[1152921504606846974,1]}\n\
             {\"family\":\"merge\",\"values\":[1152921504606846975,1]}\n";
        let (lines, stats) = pipe(input, &ServeConfig::default());
        assert_eq!(lines.len(), 8, "{lines:?}");
        let values = [
            1152918206075109375u64, // (2^20 − 1)³
            1152918206075109375,
            1152921504606846977, // q_0 + q_1 + W(0,2)
            1152921504606846975, // the run total
        ];
        for (k, value) in values.into_iter().enumerate() {
            let (ok, bad) = (&lines[2 * k], &lines[2 * k + 1]);
            assert!(ok.contains(&format!("\"value\":{value}")), "{ok}");
            assert!(bad.contains("\"kind\":\"invalid\""), "{bad}");
            assert!(bad.contains("too large"), "{bad}");
            assert!(bad.contains("4611686018427387903"), "{bad}");
        }
        assert_eq!(stats.invalid, 4);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn injected_panic_is_isolated_and_counted() {
        let plan = Arc::new(FaultPlan::new().fail(FaultSite::WorkerPanic, &[0]));
        let cfg = ServeConfig {
            exec: ExecBackend::Threads(1),
            fault: Some(Arc::clone(&plan)),
            ..ServeConfig::default()
        };
        let input = "{\"family\":\"chain\",\"values\":[2,3,4]}\n\
                     {\"family\":\"chain\",\"values\":[2,3,4]}\n";
        let (lines, stats) = pipe(input, &cfg);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"internal\""), "{}", lines[0]);
        assert!(lines[1].contains("\"value\":24"), "{}", lines[1]);
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.completed, 2, "a panicked job is still answered");
        assert_eq!(plan.injected(FaultSite::WorkerPanic), 1);
    }

    #[test]
    fn injected_delay_forces_a_deterministic_timeout() {
        let plan = Arc::new(
            FaultPlan::new()
                .fail(FaultSite::JobDelay, &[0])
                .delay(Duration::from_millis(30)),
        );
        let cfg = ServeConfig {
            exec: ExecBackend::Threads(1),
            job_timeout: Some(Duration::from_millis(5)),
            fault: Some(plan),
            ..ServeConfig::default()
        };
        let input = "{\"family\":\"chain\",\"values\":[2,3,4]}\n\
                     {\"family\":\"chain\",\"values\":[4,5,6]}\n";
        let (lines, stats) = pipe(input, &cfg);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"timeout\""), "{}", lines[0]);
        assert!(lines[1].contains("\"value\":120"), "{}", lines[1]);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn tcp_server_round_trips_and_drains_on_join() {
        use std::io::Write as _;
        let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"{\"family\":\"polygon\",\"values\":[1,10,1,10]}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"value\":20"), "{line}");
        drop(reader);
        drop(stream);
        let stats = server.join();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.queue_depth, 0);
    }
}
