//! The per-job step behind `pardp batch` and `pardp serve`: read →
//! solve in regime → write → respond, written once.
//!
//! 1. **Read** ([`read`]) — key → lookup → warm-seed probe. A job with
//!    no key (trace recording, Knuth) or no cache bypasses the store; a
//!    failing read, the lookup's or a probe's, degrades the job to a cold
//!    solve that stores nothing.
//! 2. **Solve** ([`Pending::solve`]) — the seeded or cold solve. The
//!    wire front ends pass the job's [`Regime`]: its backend rule comes
//!    first and the Knuth guard ([`verify_knuth`]) after, and both front
//!    ends run the stage inside the one job-level panic boundary,
//!    [`isolate`].
//! 3. **Write** ([`write`]) — insert the solution, unless the job
//!    bypassed the cache or timed out (a partial table never reaches the
//!    store); a failing insert downgrades the job to a bypass.
//! 4. **Respond** ([`respond`]) — the one place a job's outcome becomes
//!    its [`JobCounts`], its `cache` and terminal telemetry events, and
//!    its answer, rendered by [`answer_line`]. A request refused before
//!    it runs goes through [`refuse`] instead.
//!
//! A job's [`Solution::wall`] is the time spent in its own stages, so a
//! cache hit reports its lookup time and a batch job leaves out the time
//! it waited for its phase.
//!
//! Callers differ only in how they schedule the stages:
//!
//! * [`CachedSolver::solve`](crate::store::CachedSolver::solve) runs
//!   them back to back ([`step`]) under the solver's own options — no
//!   regime, no guard, no panic boundary;
//! * `pardp serve` runs [`step`] inside its regime gate and the panic
//!   boundary, after its fault sites;
//! * batch reads every representative before its two phases, solves in
//!   the phases and writes after them — the snapshot rule in
//!   [`crate::batch`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::batch::BatchError;
use crate::exec::ExecBackend;
use crate::problem::DpProblem;
use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
use crate::spec::{verify_knuth, ErrorKind, JobRecord, ProblemSpec};
use crate::store::{CacheOutcome, CachedSolution, ProblemKey, SolutionCache, StoreError};
use crate::tables::WTable;
use crate::telemetry::{EventKind, Telemetry};
use crate::weight::Weight;

/// The job-level panic boundary: run `f`, turning a panic into its
/// payload's text. Batch phases and serve workers both isolate jobs
/// through it, so one failing job never takes its siblings down.
pub(crate) fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "the solve panicked".to_string()
        }
    })
}

/// The job counts of a `pardp batch` run or a `pardp serve` session, and
/// the payload of its `summary` event ([`EventKind::Summary`]), which
/// serializes the fields in declaration order. Both front ends count
/// every job answered after it ran through one respond step, and every
/// request refused before it ran through one refuse step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct JobCounts {
    /// Jobs that passed admission (batch: lines that resolved).
    pub accepted: u64,
    /// Requests refused before they ran (admission caps, overload,
    /// oversized lines, shutdown), invalid ones aside (serve only).
    pub rejected: u64,
    /// Request lines that were not valid jobs.
    pub invalid: u64,
    /// Jobs answered after they ran, failed ones included: a panic, a
    /// timeout or a failed Knuth guard answers with an error line.
    pub completed: u64,
    /// Completed jobs of the small regime.
    pub completed_small: u64,
    /// Completed jobs of the large regime.
    pub completed_large: u64,
    /// Jobs whose solve panicked.
    pub panics: u64,
    /// Jobs stopped at their deadline.
    pub timeouts: u64,
    /// Jobs served straight from the cache.
    pub cache_hits: u64,
    /// Jobs not found in the cache (warm starts included).
    pub cache_misses: u64,
    /// Missed jobs seeded from a cached prefix table.
    pub warm_starts: u64,
    /// Cache backend errors ([`ResilientCache::errors`]).
    ///
    /// [`ResilientCache::errors`]: crate::store::ResilientCache::errors
    pub cache_errors: u64,
    /// Batch jobs that reused an identical earlier job's outcome (their
    /// `cache` events carry outcome `dedup`); always 0 for serve.
    pub deduped: u64,
}

impl JobCounts {
    /// Count one answered job of the given regime.
    pub(crate) fn complete(&mut self, large: bool) {
        self.completed += 1;
        if large {
            self.completed_large += 1;
        } else {
            self.completed_small += 1;
        }
    }
}

/// A job's scheduling regime: the small/large classification by
/// `w`-table cells plus the width of the pool it runs on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Regime {
    /// The job runs on the parallel per-problem path.
    pub(crate) large: bool,
    /// Workers of the batch pool or the serve daemon.
    pub(crate) workers: usize,
}

impl Regime {
    /// The regime's backend rule: a large job keeps its backend, capped
    /// at the pool width; a small job runs on one thread. Inner × outer
    /// parallelism therefore never multiplies.
    pub(crate) fn options(self, options: SolveOptions) -> SolveOptions {
        options.exec(if self.large {
            options.exec.capped(self.workers)
        } else {
            ExecBackend::Sequential
        })
    }
}

/// What the read stage found.
pub(crate) enum Read {
    /// The cache answered; the solution's wall time is the lookup's.
    Hit(Solved),
    /// The job is left to solve.
    Miss(Pending),
}

/// A job the cache did not answer.
pub(crate) struct Pending {
    /// Where the write stage stores the solution; `None` bypasses the
    /// store.
    key: Option<ProblemKey>,
    /// A cached prefix table to warm-start from, with its size.
    seed: Option<(usize, WTable<u64>)>,
    /// Time spent reading.
    wall: Duration,
}

/// A job whose solve returned (or whom the cache answered).
#[derive(Clone)]
pub(crate) struct Solved {
    pub(crate) solution: Solution<u64>,
    pub(crate) outcome: CacheOutcome,
    /// A failed Knuth guard's message: the job answers `invalid`.
    pub(crate) invalid: Option<String>,
    key: Option<ProblemKey>,
}

/// Stage 1 — read: key → lookup → warm-seed probe.
pub(crate) fn read(
    cache: Option<&dyn SolutionCache>,
    spec: &ProblemSpec,
    algorithm: Algorithm,
    options: &SolveOptions,
) -> Read {
    let t0 = Instant::now();
    let (mut key, mut seed) = (None, None);
    let keyed = cache.and_then(|c| Some((c, ProblemKey::derive(spec, algorithm, options)?)));
    if let Some((cache, k)) = keyed {
        match lookup(cache, spec, algorithm, k) {
            Ok(Some(mut solution)) => {
                solution.wall = t0.elapsed();
                return Read::Hit(Solved {
                    solution,
                    outcome: CacheOutcome::Hit,
                    invalid: None,
                    key: None,
                });
            }
            // A failing read, the lookup's or a probe's: solve cold and
            // store nothing, so one failing disk costs one error.
            Ok(None) => {
                if let Ok(found) = probe(cache, spec, algorithm, options) {
                    (key, seed) = (Some(k), found);
                }
            }
            Err(_) => {}
        }
    }
    Read::Miss(Pending {
        key,
        seed,
        wall: t0.elapsed(),
    })
}

/// Fetch and validate the record stored under `key`: `Ok(None)` on a
/// true miss and on a record that does not answer this request (the
/// collision guard), `Err` on a failing backend.
pub(crate) fn lookup(
    cache: &dyn SolutionCache,
    spec: &ProblemSpec,
    algorithm: Algorithm,
    key: ProblemKey,
) -> Result<Option<Solution<u64>>, StoreError> {
    let cached = cache.get(key)?.filter(|c| c.answers(spec, algorithm));
    Ok(cached.and_then(|c| c.to_solution().ok()))
}

/// Store `solution` under `key`.
pub(crate) fn insert(
    cache: &dyn SolutionCache,
    spec: &ProblemSpec,
    key: ProblemKey,
    solution: &Solution<u64>,
) -> Result<(), StoreError> {
    cache.put(key, CachedSolution::of_solution(spec.family(), solution))
}

/// The warm-seed probe: the largest cached strict-prefix table of
/// `spec` (sizes `n-1` down to 2), for the algorithms with a seeded
/// solve. Rytter has none: its misses solve cold. Each size is one
/// read, and the first failing read ends the probe with its error.
pub(crate) fn probe(
    cache: &dyn SolutionCache,
    spec: &ProblemSpec,
    algorithm: Algorithm,
    options: &SolveOptions,
) -> Result<Option<(usize, WTable<u64>)>, StoreError> {
    if !matches!(
        algorithm,
        Algorithm::Sequential | Algorithm::Wavefront | Algorithm::Sublinear | Algorithm::Reduced
    ) {
        return Ok(None);
    }
    (2..spec.n())
        .rev()
        .find_map(|m| {
            let prefix = spec.prefix(m)?;
            let cached = match cache.get(ProblemKey::derive(&prefix, algorithm, options)?) {
                Ok(cached) => cached?,
                Err(e) => return Some(Err(e)),
            };
            let seed = cached
                .answers(&prefix, algorithm)
                .then(|| cached.to_table());
            Some(Ok((m, seed?.ok()?)))
        })
        .transpose()
}

/// The seeded or cold solve of `problem`: a cold solve goes through the
/// façade; a warm start from the solved size-`m` prefix table `seed`
/// skips the seeded pairs.
pub(crate) fn solve<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    algorithm: Algorithm,
    options: &SolveOptions,
    seed: Option<(usize, &WTable<W>)>,
) -> Solution<W> {
    let Some(seed) = seed else {
        return Solver::new(algorithm).options(*options).solve(problem);
    };
    let t0 = Instant::now();
    let mut solution = match algorithm {
        // The direct solvers finish the table with the tiled sweep:
        // table, trace and (zero) stats are bit-identical to a cold
        // solve. Like its cold solve, the sequential solver's warm start
        // runs on one thread without a deadline.
        Algorithm::Sequential => crate::wavefront::solve(
            problem,
            algorithm,
            &SolveOptions::default().exec(ExecBackend::Sequential),
            Some(seed),
        ),
        Algorithm::Wavefront => crate::wavefront::solve(problem, algorithm, options, Some(seed)),
        // The iterative solvers run the engine with the seeded pairs
        // marked final.
        iterative => crate::engine::solve(problem, iterative, options, Some(seed)),
    };
    solution.wall = t0.elapsed();
    solution
}

impl Pending {
    /// Stage 2 — solve: the seeded or cold solve of `spec` under
    /// `options`. With a `regime` (the wire front ends) the regime's
    /// backend rule applies first and the Knuth guard after; without one
    /// (the façade) the options are used as given.
    pub(crate) fn solve(
        &self,
        spec: &ProblemSpec,
        algorithm: Algorithm,
        options: &SolveOptions,
        regime: Option<Regime>,
    ) -> Solved {
        let options = regime.map_or(*options, |r| r.options(*options));
        let problem = spec.build();
        let seed = self.seed.as_ref().map(|(m, w)| (*m, w));
        let mut solution = solve(&problem, algorithm, &options, seed);
        solution.wall += self.wall;
        let invalid = regime
            .and_then(|_| verify_knuth(&problem, &solution).err())
            .map(|e| e.0);
        let outcome = match (self.key, &self.seed) {
            (None, _) => CacheOutcome::Bypass,
            (Some(_), Some((seed_n, _))) => CacheOutcome::Warm { seed_n: *seed_n },
            (Some(_), None) => CacheOutcome::Miss,
        };
        Solved {
            solution,
            outcome,
            invalid,
            key: self.key,
        }
    }
}

/// Stage 3 — write: store the solution under its key unless the job
/// bypassed the cache or timed out. A failing insert downgrades the job
/// to a bypass; the answer itself is unaffected.
pub(crate) fn write(
    cache: Option<&dyn SolutionCache>,
    spec: &ProblemSpec,
    mut solved: Solved,
) -> Solved {
    let t0 = Instant::now();
    if let (Some(cache), Some(key)) = (cache, solved.key) {
        // `||` short-circuits: a timed-out table is never offered.
        if solved.solution.timed_out() || insert(cache, spec, key, &solved.solution).is_err() {
            solved.outcome = CacheOutcome::Bypass;
        }
    }
    solved.solution.wall += t0.elapsed();
    solved
}

/// Read → solve → write, back to back: the schedule of `pardp serve`
/// (with the job's regime) and of the façade's cached solve (without).
pub(crate) fn step(
    cache: Option<&dyn SolutionCache>,
    spec: &ProblemSpec,
    algorithm: Algorithm,
    options: &SolveOptions,
    regime: Option<Regime>,
) -> Solved {
    let solved = match read(cache, spec, algorithm, options) {
        Read::Hit(solved) => solved,
        Read::Miss(pending) => pending.solve(spec, algorithm, options, regime),
    };
    write(cache, spec, solved)
}

/// Refuse request `job` before it runs: count it in `counts` (`invalid`
/// for kind `invalid`, `rejected` for any other), emit its lone
/// `rejected` event, and return its error.
pub(crate) fn refuse(
    job: usize,
    kind: ErrorKind,
    message: String,
    counts: &mut JobCounts,
    telemetry: Option<&Telemetry>,
) -> BatchError {
    match kind {
        ErrorKind::Invalid => counts.invalid += 1,
        _ => counts.rejected += 1,
    }
    if let Some(t) = telemetry {
        t.emit(EventKind::Rejected {
            job: job as u64,
            kind: kind.name(),
        });
    }
    BatchError { job, kind, message }
}

/// Respond — turn job `job`'s outcome (`Err` is a panic's text) into its
/// counts in `counts`, its `cache` and terminal events, and its answer.
/// Every job counts as completed in its regime (`large`), failed ones
/// included; `dedup` marks a batch job that reused an identical job's
/// outcome.
///
/// The event lifecycle: a returned solve emits `cache`, then
/// `completed` (or `rejected` with kind `invalid` for a failed Knuth
/// guard); a job whose solve did not return emits `panic` or `timeout`
/// alone.
pub(crate) fn respond(
    job: usize,
    outcome: Result<Solved, String>,
    large: bool,
    dedup: bool,
    counts: &mut JobCounts,
    telemetry: Option<&Telemetry>,
) -> Result<Solution<u64>, BatchError> {
    let id = job as u64;
    let emit = |kind| {
        if let Some(t) = telemetry {
            t.emit(kind);
        }
    };
    counts.complete(large);
    let fail = |kind, message| Err(BatchError { job, kind, message });
    let solved = match outcome {
        Err(message) => {
            counts.panics += 1;
            emit(EventKind::Panic { job: id });
            return fail(ErrorKind::Internal, message);
        }
        Ok(solved) if solved.solution.timed_out() => {
            counts.timeouts += 1;
            emit(EventKind::Timeout { job: id });
            let message = "the job's deadline passed before the solve completed";
            return fail(ErrorKind::Timeout, message.to_string());
        }
        Ok(solved) => solved,
    };
    match (dedup, solved.outcome) {
        (true, _) => counts.deduped += 1,
        (false, CacheOutcome::Hit) => counts.cache_hits += 1,
        (false, CacheOutcome::Warm { .. }) => {
            counts.cache_misses += 1;
            counts.warm_starts += 1;
        }
        (false, CacheOutcome::Miss) => counts.cache_misses += 1,
        (false, CacheOutcome::Bypass) => {}
    }
    let source = if dedup {
        "dedup"
    } else {
        solved.outcome.name()
    };
    emit(EventKind::Cache {
        job: id,
        outcome: source,
    });
    if let Some(message) = solved.invalid {
        emit(EventKind::Rejected {
            job: id,
            kind: ErrorKind::Invalid.name(),
        });
        return fail(ErrorKind::Invalid, message);
    }
    emit(EventKind::Completed {
        job: id,
        wall_us: solved.solution.wall.as_micros() as u64,
        value: solved.solution.value(),
    });
    Ok(solved.solution)
}

/// Job `job`'s answer line, the bytes both front ends write: its
/// [`JobRecord`] as JSON, or its error line ([`BatchError::line`]).
pub(crate) fn answer_line(
    job: usize,
    family: &str,
    answer: Result<&Solution<u64>, &BatchError>,
    large: bool,
) -> String {
    match answer {
        Ok(solution) => {
            serde_json::to_string(&JobRecord::of_solution(job, family, solution, large))
                .expect("records serialize")
        }
        Err(e) => e.line(),
    }
}
