//! Batch solving: many recurrence-(*) instances over one shared pool.
//!
//! A [`BatchSolver`] takes a set of jobs — heterogeneous problem sizes,
//! one [`Algorithm`] + [`SolveOptions`] per job or a shared default —
//! and solves them concurrently over the existing work-stealing pool.
//! It returns one [`BatchReport`]: per job, in submission order, a
//! [`BatchResult`] or a [`BatchError`], plus the batch's [`JobCounts`],
//! aggregate statistics and throughput. Two entry points share one
//! schedule:
//!
//! * [`solve_batch`](BatchSolver::solve_batch) solves borrowed
//!   [`DpProblem`]s of any weight type, exactly as [`Solver::solve`]
//!   would;
//! * [`solve_lines`](BatchSolver::solve_lines), the `pardp batch` path,
//!   solves the job lines of a file through the per-job step that `pardp
//!   serve` runs too: an optional solution cache, the Knuth guard, one
//!   error line per failed job, and a line that did not resolve answered
//!   `invalid` in its slot. It counts like serve, and
//!   [`BatchReport::lines`] renders its answers as serve does.
//!
//! ## The two scheduling regimes
//!
//! Batch (inter-problem) and solver (intra-problem) parallelism compose
//! multiplicatively if applied naively: `k` workers each running a
//! solver that itself fans out over `k` workers wants `k²` threads. The
//! batch scheduler instead classifies every job by its `w`-table cell
//! count `n(n+1)/2` against [`BatchSolver::large_job_cells`]:
//!
//! * **Small jobs** (cells ≤ threshold) run *whole-problem-per-worker*:
//!   the job list is fanned out over the pool and each job is solved
//!   with its intra-problem backend forced to
//!   [`ExecBackend::Sequential`]. All parallelism is across problems —
//!   the pipelined-instance regime, where per-problem latency is traded
//!   for batch throughput.
//! * **Large jobs** (cells > threshold) fall back to the *parallel
//!   per-problem* path: they run one at a time on the submitting
//!   thread, each keeping its configured intra-problem backend (capped
//!   at the batch pool width), so the whole pool accelerates one big
//!   table at a time.
//!
//! One private helper runs this two-phase schedule for both entry
//! points, each job inside the job-level panic boundary: a panicking
//! solve costs that job, which lands in [`BatchReport::errors`], never
//! the batch or the shared pool.
//!
//! **Oversubscription rule:** the two regimes never overlap in time,
//! and neither multiplies inner × outer parallelism — the large-job
//! phase runs one full-pool solve at a time, the small-job phase runs
//! at most one sequential solve per worker — so the batch never has
//! more than `exec.effective_threads()` runnable solver threads.
//!
//! Every solver is deterministic across backends (property-tested in
//! `tests/backend_parity.rs`), so forcing a small job's backend to
//! `Sequential` cannot change its result: batch output is bit-identical
//! to a sequential loop of [`Solver::solve`] with the same per-job
//! options (property-tested in `crates/core/tests/proptest_batch.rs`).
//!
//! ## Dedup and the snapshot rule
//!
//! [`solve_lines`](BatchSolver::solve_lines) solves jobs with
//! equal [`ProblemKey`]s once: the first is the representative, later
//! ones reuse its answer. With a cache attached it reads the cache for
//! every representative before either phase and writes after both, each
//! in submission order on the calling thread. No job sees another job's
//! insert, so neither `pardp batch --cache` output nor a
//! [`MemoryCache`](crate::store::MemoryCache)'s LRU order depends on
//! the pool schedule.
//!
//! ```
//! use pardp_core::prelude::*;
//!
//! let chains: Vec<Vec<u64>> = vec![
//!     vec![30, 35, 15, 5, 10, 20, 25],
//!     vec![5, 10, 3, 12, 5],
//! ];
//! let problems: Vec<_> = chains
//!     .into_iter()
//!     .map(|dims| {
//!         let n = dims.len() - 1;
//!         FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
//!     })
//!     .collect();
//! let jobs: Vec<BatchJob<'_, u64>> = problems
//!     .iter()
//!     .map(|p| BatchJob::new(p).algorithm(Algorithm::Sublinear))
//!     .collect();
//! let report = BatchSolver::new().solve_batch(&jobs);
//! assert_eq!(report.results.len(), 2);
//! assert_eq!(report.results[0].solution.value(), 15125);
//! assert!(report.throughput > 0.0);
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::exec::ExecBackend;
pub use crate::job::JobCounts;
use crate::job::{self, Read, Regime};
use crate::ops::OpStats;
use crate::problem::DpProblem;
use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
use crate::spec::{error_record, BatchSummary, ErrorKind, ResolvedJob, SpecError};
use crate::store::{ProblemKey, ResilientCache, SolutionCache};
use crate::telemetry::{EventKind, Telemetry};
use crate::weight::Weight;

/// One problem in a batch: the instance plus the algorithm and options
/// to solve it with. Jobs borrow their problems, so one problem can
/// back several jobs (e.g. an algorithm sweep) without copies.
#[derive(Clone, Copy)]
pub struct BatchJob<'p, W> {
    /// The instance to solve.
    pub problem: &'p dyn DpProblem<W>,
    /// The algorithm for this job.
    pub algorithm: Algorithm,
    /// The solve options for this job. `options.exec` is the job's
    /// *intra-problem* backend preference; the batch scheduler may
    /// override it per the regime rules (see the module docs).
    pub options: SolveOptions,
}

impl<'p, W: Weight> BatchJob<'p, W> {
    /// A job for `problem` with the default algorithm
    /// ([`Algorithm::Sublinear`]) and [`SolveOptions::default`].
    pub fn new(problem: &'p dyn DpProblem<W>) -> Self {
        BatchJob {
            problem,
            algorithm: Algorithm::Sublinear,
            options: SolveOptions::default(),
        }
    }

    /// Set the algorithm (builder style).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the options (builder style).
    pub fn options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// The job's `w`-table cell count `n(n+1)/2` — the size measure the
    /// scheduler classifies jobs by.
    pub fn cells(&self) -> usize {
        let n = self.problem.n();
        n * (n + 1) / 2
    }
}

impl<W> std::fmt::Debug for BatchJob<'_, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchJob")
            .field("algorithm", &self.algorithm)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

/// The outcome of one job of a batch.
#[derive(Debug, Clone)]
pub struct BatchResult<W> {
    /// Index of the job in the submitted batch (results are returned in
    /// submission order, so this equals the result's position; it is
    /// carried explicitly so results stay self-describing when filtered
    /// or re-sorted downstream).
    pub job: usize,
    /// The full uniform solution, exactly as [`Solver::solve`] returns.
    pub solution: Solution<W>,
    /// Whether the job ran under the parallel per-problem regime
    /// (`true`) or whole-problem-per-worker (`false`).
    pub large: bool,
}

impl<W> BatchResult<W> {
    /// Wall-clock time of this job alone — the façade-measured
    /// [`Solution::wall`], stamped on whichever worker ran the job.
    /// Under the small-job regime jobs run concurrently, so these do
    /// **not** sum to the batch wall time.
    pub fn wall(&self) -> Duration {
        self.solution.wall
    }
}

/// One failed job of a batch (or of a `pardp serve` session): its
/// index, its [`ErrorKind`], and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index of the failed job in the submitted batch.
    pub job: usize,
    /// `internal` for a panicking solve, `invalid` for a failed Knuth
    /// guard or a job line that did not resolve, `timeout` for a solve
    /// stopped at its deadline.
    pub kind: ErrorKind,
    /// What went wrong: the panic message for `internal` (best-effort:
    /// `&str` and `String` payloads are rendered, anything else reads
    /// "the solve panicked"), the guard's or the resolve error's text
    /// for `invalid`.
    pub message: String,
}

impl BatchError {
    /// The job's JSONL error line — the bytes both `pardp batch` and
    /// `pardp serve` answer with. `internal` and `timeout` lines carry a
    /// fixed text, not the message.
    pub fn line(&self) -> String {
        let text = match self.kind {
            ErrorKind::Internal => {
                "internal: the solve panicked; the job was isolated and the daemon continues"
            }
            ErrorKind::Timeout => {
                "timeout: the job's deadline passed before the solve completed; \
                 the partial result was discarded"
            }
            _ => &self.message,
        };
        error_record(self.job, self.kind, text)
    }
}

/// The outcome of a whole batch: per job, in submission order, a result
/// or an error, plus the batch's counts and aggregate diagnostics.
#[derive(Debug, Clone)]
pub struct BatchReport<W> {
    /// One result per job answered with a solution, in submission order.
    pub results: Vec<BatchResult<W>>,
    /// Failed jobs — panics, failed Knuth guards, timeouts, lines that
    /// did not resolve — in submission order; these have no entry in
    /// [`results`](BatchReport::results).
    pub errors: Vec<BatchError>,
    /// The batch's job counts. `completed_small` and `completed_large`
    /// classify every job that ran, failed ones included.
    pub counts: JobCounts,
    /// Wall-clock time of the whole batch (both phases).
    pub wall: Duration,
    /// Aggregate operation statistics over every job answered with a
    /// solution, cached ones included (zero from the direct algorithms,
    /// which do not instrument their loops; a warm start adds only the
    /// work it did).
    pub stats: OpStats,
    /// Jobs answered with a solution per second of batch wall time
    /// (`0.0` for an empty batch).
    pub throughput: f64,
}

impl<W: Weight> BatchReport<W> {
    /// Fold the answers of a batch that started at `t0`.
    fn new(
        results: Vec<BatchResult<W>>,
        errors: Vec<BatchError>,
        counts: JobCounts,
        t0: Instant,
    ) -> Self {
        let stats = results
            .iter()
            .fold(OpStats::default(), |acc, r| acc.merge(r.solution.stats));
        let wall = t0.elapsed();
        let throughput = if results.is_empty() {
            0.0
        } else {
            results.len() as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE)
        };
        BatchReport {
            results,
            errors,
            counts,
            wall,
            stats,
            throughput,
        }
    }

    /// The batch's trailing summary line, for a batch run on `backend`
    /// ([`BatchSolver::backend`]).
    pub fn summary(&self, backend: ExecBackend) -> BatchSummary {
        BatchSummary {
            jobs: self.results.len(),
            small_jobs: self.counts.completed_small as usize,
            large_jobs: self.counts.completed_large as usize,
            backend: backend.to_string(),
            wall_seconds: self.wall.as_secs_f64(),
            throughput: self.throughput,
            candidates: self.stats.candidates,
            writes: self.stats.writes,
        }
    }
}

impl BatchReport<u64> {
    /// The answer lines of a [`solve_lines`](BatchSolver::solve_lines)
    /// run over `jobs`, in job order: each job's record or error line,
    /// rendered as a `pardp serve` worker renders it.
    pub fn lines(&self, jobs: &[Result<ResolvedJob, SpecError>]) -> Vec<String> {
        let mut results = self.results.iter().peekable();
        let mut errors = self.errors.iter();
        (0..jobs.len())
            .map(|i| {
                let (answer, large) = match results.next_if(|r| r.job == i) {
                    Some(r) => (Ok(&r.solution), r.large),
                    None => (Err(errors.next().expect("every job is answered")), false),
                };
                let family = jobs[i].as_ref().map_or("", |j| j.problem.family());
                job::answer_line(i, family, answer, large)
            })
            .collect()
    }
}

/// Solve many problems concurrently over the shared work-stealing pool.
///
/// See the module docs for the scheduling regimes. The builder knobs:
///
/// * [`exec`](Self::exec) — the pool the batch fans out over
///   ([`ExecBackend::Parallel`] by default). `Sequential` degrades to a
///   plain loop (still respecting the per-job regime classification).
/// * [`large_job_cells`](Self::large_job_cells) — the cell-count
///   threshold separating the regimes. `usize::MAX` forces everything
///   through the pipelined small-job path; `0` forces everything
///   through the parallel per-problem path.
/// * [`telemetry`](Self::telemetry) — an optional structured event
///   stream ([`crate::telemetry`]); [`solve_lines`](Self::solve_lines)
///   emits one `admitted` → `regime` → `cache` → `completed` chain per
///   job in submission order (a failed job ends its chain like a serve
///   job does, a line that did not resolve is a lone `rejected`), then
///   the `summary` event. `None` (the default) emits nothing and changes
///   no output byte.
#[derive(Debug, Clone)]
pub struct BatchSolver {
    exec: ExecBackend,
    large_job_cells: usize,
    telemetry: Option<Arc<Telemetry>>,
}

/// Default regime threshold: jobs with more `w`-table cells than this
/// (n ≳ 128) get the whole pool to themselves. Below it, a problem's
/// parallel passes are too short to amortise fan-out overhead, and
/// running whole problems per worker wins.
pub const DEFAULT_LARGE_JOB_CELLS: usize = 128 * 129 / 2;

impl Default for BatchSolver {
    fn default() -> Self {
        BatchSolver {
            exec: ExecBackend::Parallel,
            large_job_cells: DEFAULT_LARGE_JOB_CELLS,
            telemetry: None,
        }
    }
}

impl BatchSolver {
    /// A batch solver over the host-sized pool with the default regime
    /// threshold ([`DEFAULT_LARGE_JOB_CELLS`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the backend the batch fans out over.
    pub fn exec(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
        self
    }

    /// Set the cell-count threshold above which a job runs on the
    /// parallel per-problem path.
    pub fn large_job_cells(mut self, cells: usize) -> Self {
        self.large_job_cells = cells;
        self
    }

    /// Attach a structured event stream: per-job lifecycle events and
    /// the `summary` event of [`solve_lines`](Self::solve_lines). `None`
    /// is the default.
    pub fn telemetry(mut self, telemetry: Option<Arc<Telemetry>>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The backend the batch fans out over (for reporting — front ends
    /// should not restate the default).
    pub fn backend(&self) -> ExecBackend {
        self.exec
    }

    /// The configured regime threshold in `w`-table cells.
    pub fn threshold(&self) -> usize {
        self.large_job_cells
    }

    /// The two-phase schedule of both entry points: every large job
    /// alone on the pool, then the small jobs across it. `solve(i,
    /// regime)` runs job `i` inside the job-level panic boundary, so
    /// each slot of the result (in submission order) is the job's
    /// answer or its panic message.
    fn phases<T: Send>(
        &self,
        large: &[bool],
        solve: impl Fn(usize, Regime) -> T + Sync,
    ) -> Vec<Result<T, String>> {
        let workers = self.exec.effective_threads();
        let run = |i: usize| {
            job::isolate(|| {
                solve(
                    i,
                    Regime {
                        large: large[i],
                        workers,
                    },
                )
            })
        };
        // Phase 1 — parallel per-problem: each large job gets the whole
        // pool, one at a time.
        let mut slots: Vec<Option<Result<T, String>>> =
            (0..large.len()).map(|i| large[i].then(|| run(i))).collect();
        // Phase 2 — whole-problem-per-worker: fan the small jobs over
        // the pool. The panic boundary sits inside the pool closure, so
        // a failing job can never poison the shared pool or abort its
        // siblings.
        let small: Vec<usize> = (0..large.len()).filter(|&i| !large[i]).collect();
        let solved = self.exec.map_collect(small.len(), |s| run(small[s]));
        for (&i, r) in small.iter().zip(solved) {
            slots[i] = Some(r);
        }
        slots.into_iter().flatten().collect()
    }

    /// Solve every job, returning per-job results in submission order
    /// plus aggregate statistics. Output is bit-identical to a
    /// sequential loop of [`Solver::solve`] over the same jobs.
    ///
    /// A panicking job is **isolated**: its panic is caught at the job
    /// boundary and the job lands in `report.errors` (kind `internal`,
    /// with the panic message) instead of `report.results`. The rest of
    /// the batch runs on, bit-identical to a fault-free run.
    pub fn solve_batch<W: Weight>(&self, jobs: &[BatchJob<'_, W>]) -> BatchReport<W> {
        let t0 = Instant::now();
        let large: Vec<bool> = jobs
            .iter()
            .map(|j| j.cells() > self.large_job_cells)
            .collect();
        let solved = self.phases(&large, |i, regime| {
            let job = &jobs[i];
            Solver::new(job.algorithm)
                .options(regime.options(job.options))
                .solve(job.problem)
        });
        let mut counts = JobCounts {
            accepted: jobs.len() as u64,
            ..JobCounts::default()
        };
        let (mut results, mut errors) = (Vec::new(), Vec::new());
        for (i, r) in solved.into_iter().enumerate() {
            counts.complete(large[i]);
            match r {
                Ok(solution) => results.push(BatchResult {
                    job: i,
                    solution,
                    large: large[i],
                }),
                Err(message) => {
                    counts.panics += 1;
                    errors.push(BatchError {
                        job: i,
                        kind: ErrorKind::Internal,
                        message,
                    });
                }
            }
        }
        BatchReport::new(results, errors, counts, t0)
    }

    /// Solve the job slots of a `pardp batch` file (slot `t` is job `t`,
    /// as [`read_request`](crate::spec::read_request) numbers the lines;
    /// library callers pass `Ok` slots) through the per-job step `pardp
    /// serve` runs too, with intra-batch dedup and an optional shared
    /// cache. A slot that holds an error is never solved; like serve, the
    /// batch counts it `invalid`, emits a `rejected` event and answers an
    /// `invalid` [`BatchError`] with its text.
    ///
    /// Jobs with equal [`ProblemKey`]s are solved once — the first
    /// occurrence is the representative, later ones reuse its answer
    /// (`deduped` counts them). The cache is read for every
    /// representative before the two phases and written after them (the
    /// snapshot rule in the module docs); it sits behind a
    /// [`ResilientCache`], so backend errors degrade jobs to cold solves
    /// and are counted exactly as serve counts them. Cache-bypassing
    /// jobs (trace recording, Knuth) are neither deduped nor cached.
    ///
    /// A job whose solve panics, fails the Knuth guard or passes its
    /// deadline lands in [`BatchReport::errors`]. Every solution is
    /// bit-identical (value, table; trace and stats except after warm
    /// starts) to a cold [`Solver::solve`] loop over the same jobs. With
    /// telemetry attached, the run ends its stream as a serve drain
    /// does: the `summary` event of its counts, then a flush.
    pub fn solve_lines(
        &self,
        jobs: &[Result<ResolvedJob, SpecError>],
        cache: Option<&dyn SolutionCache>,
    ) -> BatchReport<u64> {
        let t0 = Instant::now();
        let resilient = cache.map(ResilientCache::new);
        let cache = resilient.as_ref().map(|c| c as &dyn SolutionCache);
        let large: Vec<bool> = jobs
            .iter()
            .map(|j| {
                j.as_ref()
                    .is_ok_and(|j| j.problem.cells() > self.large_job_cells)
            })
            .collect();
        let mut first: HashMap<ProblemKey, usize> = HashMap::new();
        let rep: Vec<usize> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| match j {
                Ok(j) => ProblemKey::derive(&j.problem, j.algorithm, &j.options)
                    .map_or(i, |key| *first.entry(key).or_insert(i)),
                Err(_) => i,
            })
            .collect();

        // Read, then solve in the phases, then write.
        let reads: Vec<Option<Read>> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| match j {
                Ok(j) if rep[i] == i => Some(job::read(cache, &j.problem, j.algorithm, &j.options)),
                _ => None,
            })
            .collect();
        let solved = self.phases(&large, |i, regime| match (&reads[i], &jobs[i]) {
            (Some(Read::Miss(pending)), Ok(j)) => {
                Some(pending.solve(&j.problem, j.algorithm, &j.options, Some(regime)))
            }
            _ => None,
        });
        // Respond in submission order, writing each representative's
        // solution as it comes; a duplicate answers with its
        // representative's outcome.
        let telemetry = self.telemetry.as_deref();
        let mut counts = JobCounts::default();
        let (mut results, mut errors) = (Vec::new(), Vec::new());
        let mut outcomes: Vec<Option<Result<job::Solved, String>>> = Vec::new();
        for (i, slot) in solved.into_iter().zip(reads).enumerate() {
            let resolved = match &jobs[i] {
                Ok(resolved) => resolved,
                Err(e) => {
                    let e = job::refuse(i, ErrorKind::Invalid, e.0.clone(), &mut counts, telemetry);
                    errors.push(e);
                    outcomes.push(None);
                    continue;
                }
            };
            let outcome = match slot {
                (Ok(Some(solved)), _) => Ok(job::write(cache, &resolved.problem, solved)),
                (Ok(None), Some(Read::Hit(solved))) => Ok(solved),
                (Ok(None), _) => outcomes[rep[i]]
                    .clone()
                    .expect("representatives come first"),
                (Err(message), _) => Err(message),
            };
            outcomes.push((rep[i] == i).then(|| outcome.clone()));
            if let Some(tel) = telemetry {
                tel.emit(EventKind::Admitted { job: i as u64 });
                tel.emit(EventKind::Regime {
                    job: i as u64,
                    large: large[i],
                });
            }
            counts.accepted += 1;
            match job::respond(i, outcome, large[i], rep[i] != i, &mut counts, telemetry) {
                Ok(solution) => results.push(BatchResult {
                    job: i,
                    solution,
                    large: large[i],
                }),
                Err(e) => errors.push(e),
            }
        }
        counts.cache_errors = resilient.map_or(0, |c| c.errors());
        let report = BatchReport::new(results, errors, counts, t0);
        if let Some(tel) = telemetry {
            tel.emit(EventKind::Summary(report.counts));
            tel.flush();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;
    use crate::spec::ProblemSpec;

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    fn chains() -> Vec<Box<dyn DpProblem<u64>>> {
        vec![
            Box::new(chain(vec![30, 35, 15, 5, 10, 20, 25])),
            Box::new(chain(vec![5, 10, 3])),
            Box::new(chain(vec![2, 7, 3, 9, 4, 8, 5, 6])),
        ]
    }

    #[test]
    fn batch_matches_sequential_loop() {
        let problems = chains();
        let jobs: Vec<BatchJob<'_, u64>> = problems
            .iter()
            .zip([
                Algorithm::Sublinear,
                Algorithm::Sequential,
                Algorithm::Reduced,
            ])
            .map(|(p, a)| BatchJob::new(p.as_ref()).algorithm(a))
            .collect();
        for exec in [
            ExecBackend::Sequential,
            ExecBackend::Parallel,
            ExecBackend::Threads(2),
        ] {
            let report = BatchSolver::new().exec(exec).solve_batch(&jobs);
            assert_eq!(report.results.len(), jobs.len());
            assert_eq!(report.counts.completed_small, 3);
            assert_eq!(report.counts.completed_large, 0);
            for (i, (r, job)) in report.results.iter().zip(&jobs).enumerate() {
                assert_eq!(r.job, i);
                assert!(!r.large);
                let loop_sol = Solver::new(job.algorithm)
                    .options(job.options)
                    .solve(job.problem);
                assert_eq!(r.solution.value(), loop_sol.value(), "{exec} job {i}");
                assert!(r.solution.w.table_eq(&loop_sol.w), "{exec} job {i}");
                assert_eq!(
                    r.solution.trace.iterations, loop_sol.trace.iterations,
                    "{exec} job {i}"
                );
                assert_eq!(r.solution.stats, loop_sol.stats, "{exec} job {i}");
            }
        }
    }

    #[test]
    fn threshold_routes_jobs_between_regimes() {
        let problems = chains(); // n = 6, 2, 7 → cells = 21, 3, 28
        let jobs: Vec<BatchJob<'_, u64>> =
            problems.iter().map(|p| BatchJob::new(p.as_ref())).collect();
        let report = BatchSolver::new().large_job_cells(21).solve_batch(&jobs);
        assert_eq!(report.counts.completed_small, 2);
        assert_eq!(report.counts.completed_large, 1);
        assert!(report.results[2].large);
        assert!(!report.results[0].large && !report.results[1].large);
        // Regime routing cannot change any value.
        let all_large = BatchSolver::new().large_job_cells(0).solve_batch(&jobs);
        let all_small = BatchSolver::new()
            .large_job_cells(usize::MAX)
            .solve_batch(&jobs);
        assert_eq!(all_large.counts.completed_small, 0);
        assert_eq!(all_small.counts.completed_large, 0);
        for i in 0..jobs.len() {
            assert_eq!(
                report.results[i].solution.value(),
                all_large.results[i].solution.value()
            );
            assert!(report.results[i]
                .solution
                .w
                .table_eq(&all_small.results[i].solution.w));
        }
    }

    #[test]
    fn aggregate_stats_sum_per_job_stats() {
        let problems = chains();
        let jobs: Vec<BatchJob<'_, u64>> =
            problems.iter().map(|p| BatchJob::new(p.as_ref())).collect();
        let report = BatchSolver::new().solve_batch(&jobs);
        let summed = report
            .results
            .iter()
            .fold(OpStats::default(), |acc, r| acc.merge(r.solution.stats));
        assert_eq!(report.stats, summed);
        assert!(report.stats.candidates > 0);
        assert!(report.throughput > 0.0);
        assert!(report.wall > Duration::ZERO);
        for r in &report.results {
            assert!(r.wall() > Duration::ZERO);
        }
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let jobs: Vec<BatchJob<'_, u64>> = Vec::new();
        let report = BatchSolver::new().solve_batch(&jobs);
        assert!(report.results.is_empty());
        assert_eq!(report.throughput, 0.0);
        assert_eq!(report.stats, OpStats::default());
        assert!(report.errors.is_empty());
        assert_eq!(report.counts, JobCounts::default());
    }

    fn poison_chain(n: usize) -> impl DpProblem<u64> {
        // f() panics on every candidate evaluation, so any solve of this
        // problem with n >= 2 panics.
        FnProblem::new(
            n,
            |_| 0u64,
            |_, _, _| -> u64 { panic!("injected solve panic") },
        )
    }

    #[test]
    fn isolated_batch_survives_a_panicking_job() {
        let good = chains();
        let bad = poison_chain(5);
        for threshold in [usize::MAX, 0] {
            // Both regimes must isolate: whole-problem-per-worker
            // (threshold = MAX) and parallel per-problem (threshold = 0).
            let jobs: Vec<BatchJob<'_, u64>> = vec![
                BatchJob::new(good[0].as_ref()),
                BatchJob::new(&bad),
                BatchJob::new(good[2].as_ref()),
            ];
            let report = BatchSolver::new()
                .large_job_cells(threshold)
                .solve_batch(&jobs);
            assert_eq!(report.results.len(), 2, "threshold={threshold}");
            let errors = &report.errors;
            assert_eq!(errors.len(), 1);
            assert_eq!((errors[0].job, errors[0].kind), (1, ErrorKind::Internal));
            assert_eq!(errors[0].message, "injected solve panic");
            // Survivors keep their submission indices and values.
            assert_eq!(report.results[0].job, 0);
            assert_eq!(report.results[0].solution.value(), 15125);
            assert_eq!(report.results[1].job, 2);
            // The counts still describe the whole batch.
            let c = report.counts;
            assert_eq!((c.accepted, c.completed, c.panics), (3, 3, 1));
            assert_eq!(c.completed_small + c.completed_large, 3);
        }
    }

    #[test]
    fn isolated_batch_pool_is_reusable_after_a_panic() {
        let bad = poison_chain(4);
        let jobs: Vec<BatchJob<'_, u64>> = vec![BatchJob::new(&bad)];
        let solver = BatchSolver::new();
        let report = solver.solve_batch(&jobs);
        assert!(report.results.is_empty());
        assert_eq!(report.errors.len(), 1);
        // The shared pool must still be usable for a clean batch.
        let good = chains();
        let jobs: Vec<BatchJob<'_, u64>> = good.iter().map(|p| BatchJob::new(p.as_ref())).collect();
        let report = solver.solve_batch(&jobs);
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.results[0].solution.value(), 15125);
    }

    #[test]
    fn mixed_algorithms_per_job_are_honoured() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let jobs: Vec<BatchJob<'_, u64>> = Algorithm::ALL
            .iter()
            .filter(|&&a| a != Algorithm::Knuth) // chains lack the QI
            .map(|&a| BatchJob::new(&p).algorithm(a))
            .collect();
        let report = BatchSolver::new().solve_batch(&jobs);
        for (r, job) in report.results.iter().zip(&jobs) {
            assert_eq!(r.solution.algorithm, job.algorithm);
            assert_eq!(r.solution.value(), 15125, "{}", job.algorithm);
        }
    }

    #[test]
    fn batch_dedups_and_shares_the_cache() {
        let jobs: Vec<Result<ResolvedJob, SpecError>> = [
            &[30u64, 35, 15, 5, 10, 20, 25][..],
            &[30, 35, 15, 5, 10, 20, 25],
            &[5, 10, 3, 12, 5],
            &[30, 35, 15, 5, 10, 20, 25],
        ]
        .iter()
        .map(|dims| {
            Ok(ResolvedJob {
                problem: ProblemSpec::chain(dims.to_vec()).unwrap(),
                algorithm: Algorithm::Sublinear,
                options: SolveOptions::default().exec(ExecBackend::Sequential),
            })
        })
        .collect();
        let cache = crate::store::MemoryCache::new(8);
        let solver = BatchSolver::new().exec(ExecBackend::Sequential);
        let report = solver.solve_lines(&jobs, Some(&cache));
        assert_eq!(report.counts.deduped, 2);
        assert_eq!(report.counts.cache_hits, 0);
        assert_eq!(report.counts.cache_misses, 2);
        assert_eq!(report.results.len(), 4);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.job, i);
            let cold = Solver::new(Algorithm::Sublinear)
                .options(SolveOptions::default().exec(ExecBackend::Sequential))
                .solve(&jobs[i].as_ref().unwrap().problem.build());
            assert_eq!(r.solution.value(), cold.value(), "job {i}");
            assert!(r.solution.w.table_eq(&cold.w), "job {i}");
            assert_eq!(r.solution.stats, cold.stats, "job {i}");
        }
        // Second run over the same jobs: all representatives hit.
        let again = solver.solve_lines(&jobs, Some(&cache));
        assert_eq!(again.counts.cache_hits, 2);
        assert_eq!(again.counts.cache_misses, 0);
        assert_eq!(again.stats, report.stats);
        // Without a cache, dedup still applies.
        let nocache = solver.solve_lines(&jobs, None);
        assert_eq!(nocache.counts.deduped, 2);
        assert_eq!(nocache.counts.cache_hits + nocache.counts.cache_misses, 0);
        assert_eq!(nocache.stats, report.stats);
    }

    #[test]
    fn a_panicking_warm_start_is_that_jobs_error() {
        let opts = SolveOptions::default().exec(ExecBackend::Sequential);
        let resolved = |problem| {
            Ok(ResolvedJob {
                problem,
                algorithm: Algorithm::Sublinear,
                options: opts,
            })
        };
        let cache = crate::store::MemoryCache::new(8);
        let solver = BatchSolver::new().exec(ExecBackend::Sequential);
        let prefix = ProblemSpec::obst(vec![1, 2], vec![1, 1, 1]).unwrap();
        let report = solver.solve_lines(&[resolved(prefix.clone())], Some(&cache));
        assert_eq!(report.counts.cache_misses, 1);
        // One more key but no more dummy frequencies, built around the
        // constructor's shape check: its size-3 prefix is the cached
        // instance, and the solve panics (index out of bounds) as soon
        // as it reaches the new key.
        let broken = ProblemSpec::Obst {
            p: vec![1, 2, 3],
            q: vec![1, 1, 1],
        };
        let seed = job::probe(&cache, &broken, Algorithm::Sublinear, &opts).unwrap();
        assert_eq!(seed.map(|(m, _)| m), Some(3), "the job warm-starts");

        let report = solver.solve_lines(&[resolved(broken), resolved(prefix)], Some(&cache));
        assert_eq!(report.errors.len(), 1);
        let e = &report.errors[0];
        assert_eq!((e.job, e.kind), (0, ErrorKind::Internal));
        assert!(e.message.contains("index out of bounds"), "{}", e.message);
        // The sibling is unaffected: a hit on the prefix.
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].job, 1);
        let c = report.counts;
        assert_eq!((c.cache_hits, c.cache_misses), (1, 0));
        assert_eq!((c.completed, c.panics), (2, 1));
    }
}
