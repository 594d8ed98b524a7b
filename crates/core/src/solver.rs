//! The unified solver façade: one entry point, one options struct, one
//! result type for **all six** algorithms on the paper's spectrum.
//!
//! The paper positions its §2/§5 algorithms between the work-optimal
//! sequential/wavefront DPs and Rytter's `O(log² n)` scheme (§1). This
//! module exposes that whole spectrum behind a single API:
//!
//! ```
//! use pardp_core::prelude::*;
//!
//! let dims = vec![30u64, 35, 15, 5, 10, 20, 25];
//! let problem = FnProblem::new(
//!     dims.len() - 1,
//!     |_| 0u64,
//!     move |i, k, j| dims[i] * dims[k] * dims[j],
//! );
//! let solution = Solver::new(Algorithm::Sublinear)
//!     .options(SolveOptions::default().exec(ExecBackend::Sequential))
//!     .solve(&problem);
//! assert_eq!(solution.value(), 15125);
//! let tree = solution.tree(&problem).unwrap();
//! assert_eq!(tree.n_leaves(), 6);
//! ```
//!
//! Every algorithm returns the same [`Solution`]: the goal value, the full
//! `w` table, a [`SolveTrace`] (empty-but-well-formed for the
//! non-iterative paths), aggregate [`OpStats`], the wall-clock time, and
//! lazy optimal-tree reconstruction via [`Solution::tree`].
//!
//! ## Registry
//!
//! [`Algorithm`] doubles as the registry: [`Algorithm::ALL`] enumerates
//! the spectrum, [`Algorithm::from_str`](str::parse) parses user input
//! (with an error that lists every valid name), and
//! [`Algorithm::reads`] is the one algorithm × [`SolveKnob`] table.
//! Knob validation, the solution store's cache key, the iteration engine
//! and the CLI usage text all ask it, so no front end hard-codes a
//! per-algorithm table.
//!
//! ## Migration from the per-module entry points
//!
//! [`Solver`] is the one entry point of the wavefront and iterative
//! solvers: their per-module solve functions and config structs were
//! removed, and every old config field is a [`SolveOptions`] field of the
//! same name unless noted; `square` is gone, because the engine always
//! runs the streamed kernels and the naive reference is reachable only
//! through [`crate::ops`]. The sequential oracle ([`solve_sequential`])
//! and [`solve_knuth`] stay public.
//!
//! | removed entry point (config fields) | façade call |
//! |---|---|
//! | `wavefront` (`exec`, `parallel_threshold`) | `Solver::new(Algorithm::Wavefront).options(SolveOptions::default().exec(e))` — the fork-join floor is a constant |
//! | `sublinear` (`exec`, `termination`, `record_trace`, `square`, `skip_clean_rows`) | `Solver::new(Algorithm::Sublinear).options(SolveOptions::default().exec(e).termination(t))` |
//! | `reduced` (`exec`, `record_trace`, `windowed_pebble`, `band`, `square`, `skip_clean_rows`) | `Solver::new(Algorithm::Reduced).options(SolveOptions::default().band(b).windowed_pebble(w))` |
//! | `rytter` (`exec`, `record_trace`, `fixpoint_stop`, `square`) | `Solver::new(Algorithm::Rytter)` — the fixpoint stop is always on |
//!
//! Rytter's stop is exact, so it changes no table. For the work of a
//! full-schedule Rytter run, use the cost model
//! [`model_rytter`](crate::pram_exec::model_rytter)`(n, `[`rytter_schedule`](crate::rytter::rytter_schedule)`(n))`.

#![deny(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

use crate::exec::ExecBackend;
use crate::fault::CancelToken;
use crate::ops::OpStats;
use crate::problem::DpProblem;
use crate::reconstruct::{reconstruct_root, ParenTree};
use crate::seq::{solve_knuth, solve_sequential};
use crate::tables::WTable;
use crate::trace::{SolveTrace, StopReason, Termination};
use crate::weight::Weight;

/// Every solver on the paper's spectrum (§1), slowest-sequential to
/// most-parallel. The enum is the registry: parse names with
/// [`str::parse`], enumerate with [`Algorithm::ALL`], and query
/// capabilities with [`Algorithm::reads`] and the `is_*` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The classic `O(n³)` sequential dynamic program \[1\].
    Sequential,
    /// The Knuth–Yao `O(n²)` speedup — **only** valid on instances
    /// satisfying the quadrangle inequality (optimal BSTs, not arbitrary
    /// matrix chains); the façade runs it as asked and leaves validity to
    /// the caller, exactly like [`solve_knuth`].
    Knuth,
    /// The work-optimal anti-diagonal parallel DP \[10\].
    Wavefront,
    /// The paper's §2 algorithm: `O(√n log n)` time, `O(n⁵/log n)`
    /// processors, dense tables.
    Sublinear,
    /// The paper's §5 reduced-processor variant: banded tables and the
    /// windowed pebble, `O(n³·⁵/log n)` processors.
    Reduced,
    /// Rytter's baseline \[8\]: `O(log² n)` time, `O(n⁶/log n)` processors.
    Rytter,
}

impl Algorithm {
    /// The whole spectrum, in the order of the paper's comparison table.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Sequential,
        Algorithm::Knuth,
        Algorithm::Wavefront,
        Algorithm::Sublinear,
        Algorithm::Reduced,
        Algorithm::Rytter,
    ];

    /// Canonical name — round-trips through [`str::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Sequential => "sequential",
            Algorithm::Knuth => "knuth",
            Algorithm::Wavefront => "wavefront",
            Algorithm::Sublinear => "sublinear",
            Algorithm::Reduced => "reduced",
            Algorithm::Rytter => "rytter",
        }
    }

    /// Accepted aliases (the canonical name is always accepted too).
    pub fn aliases(&self) -> &'static [&'static str] {
        match self {
            Algorithm::Sequential => &["seq"],
            Algorithm::Knuth => &[],
            Algorithm::Wavefront => &["wave"],
            Algorithm::Sublinear => &["paper"],
            Algorithm::Reduced => &[],
            Algorithm::Rytter => &[],
        }
    }

    /// One-line description for listings and error messages.
    pub fn description(&self) -> &'static str {
        match self {
            Algorithm::Sequential => "classic O(n^3) sequential DP",
            Algorithm::Knuth => "Knuth-Yao O(n^2) DP (quadrangle-inequality instances only)",
            Algorithm::Wavefront => "work-optimal anti-diagonal parallel DP",
            Algorithm::Sublinear => "the paper's S2 algorithm: O(sqrt(n) log n) time, dense tables",
            Algorithm::Reduced => "the paper's S5 variant: banded tables + windowed pebble",
            Algorithm::Rytter => "Rytter's O(log^2 n) full-composition baseline",
        }
    }

    /// `time × processors` on the paper's comparison spectrum (§1).
    pub fn complexity(&self) -> &'static str {
        match self {
            Algorithm::Sequential => "O(n^3) x 1",
            Algorithm::Knuth => "O(n^2) x 1",
            Algorithm::Wavefront => "O(n) x O(n^2)",
            Algorithm::Sublinear => "O(sqrt(n) log n) x O(n^5/log n)",
            Algorithm::Reduced => "O(sqrt(n) log n) x O(n^3.5/log n)",
            Algorithm::Rytter => "O(log^2 n) x O(n^6/log n)",
        }
    }

    /// Whether the algorithm runs data-parallel passes on an
    /// [`ExecBackend`] (i.e. [`SolveOptions::exec`] has any effect).
    pub fn is_parallel(&self) -> bool {
        !matches!(self, Algorithm::Sequential | Algorithm::Knuth)
    }

    /// Whether the algorithm iterates the (activate, square, pebble)
    /// operations, and therefore produces a non-empty per-iteration
    /// [`SolveTrace`] under [`SolveOptions::record_trace`].
    pub fn is_iterative(&self) -> bool {
        matches!(
            self,
            Algorithm::Sublinear | Algorithm::Reduced | Algorithm::Rytter
        )
    }

    /// Whether the algorithm reads `knob`: the one algorithm × knob
    /// table of the paper's spectrum (§1). The backend goes to the
    /// parallel algorithms and the trace to the iterative ones.
    /// The §7 stopping rule goes to the §2 solver and to Rytter, which
    /// accepts every rule and still stops at its exact fixpoint. The §5
    /// solver does not read it, because its window argument relies on the
    /// fixed `2⌈√n⌉` schedule. Convergence-aware scheduling applies to
    /// §2 and §5, and the band and size window to §5 alone.
    pub fn reads(&self, knob: SolveKnob) -> bool {
        match knob {
            SolveKnob::Exec => self.is_parallel(),
            SolveKnob::RecordTrace => self.is_iterative(),
            SolveKnob::Termination => matches!(self, Algorithm::Sublinear | Algorithm::Rytter),
            SolveKnob::SkipCleanRows => matches!(self, Algorithm::Sublinear | Algorithm::Reduced),
            SolveKnob::Band | SolveKnob::WindowedPebble => *self == Algorithm::Reduced,
        }
    }

    /// The names of every algorithm that [reads](Algorithm::reads)
    /// `knob`, `" | "`-separated: the "pick one of" tail of capability
    /// errors and the per-flag lists of the CLI usage text.
    pub fn names_reading(knob: SolveKnob) -> String {
        Algorithm::ALL
            .iter()
            .filter(|a| a.reads(knob))
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// `"name — description"` lines for every algorithm, the body of the
    /// "unknown algorithm" error and of CLI listings.
    pub fn listing() -> String {
        let mut s = String::new();
        for a in Algorithm::ALL {
            s.push_str(&format!("  {:<10} — {}\n", a.name(), a.description()));
        }
        s
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named [`SolveOptions`] knob — the unit of targeted validation.
///
/// Front ends map these to their own flag names (the CLI maps
/// [`SolveKnob::Exec`] to `--backend`, the JSONL job spec maps
/// [`SolveKnob::Band`] to `"band"`, …) and route every capability
/// rejection through [`SolveOptions::validate_knob`], so the rules live
/// once behind the façade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKnob {
    /// [`SolveOptions::exec`] — the execution backend.
    Exec,
    /// [`SolveOptions::termination`] — the stopping rule.
    Termination,
    /// [`SolveOptions::record_trace`] — per-iteration trace records.
    RecordTrace,
    /// [`SolveOptions::skip_clean_rows`] — convergence-aware scheduling.
    SkipCleanRows,
    /// [`SolveOptions::band`] — the §5 band-width override.
    Band,
    /// [`SolveOptions::windowed_pebble`] — the §5 windowed pebble.
    WindowedPebble,
}

impl SolveKnob {
    /// Every knob, in [`SolveOptions`] field order.
    pub const ALL: [SolveKnob; 6] = [
        SolveKnob::Exec,
        SolveKnob::Termination,
        SolveKnob::RecordTrace,
        SolveKnob::SkipCleanRows,
        SolveKnob::Band,
        SolveKnob::WindowedPebble,
    ];

    /// The [`SolveOptions`] field name this knob denotes.
    pub fn field(&self) -> &'static str {
        match self {
            SolveKnob::Exec => "exec",
            SolveKnob::Termination => "termination",
            SolveKnob::RecordTrace => "record_trace",
            SolveKnob::SkipCleanRows => "skip_clean_rows",
            SolveKnob::Band => "band",
            SolveKnob::WindowedPebble => "windowed_pebble",
        }
    }

    /// Why an algorithm that does not [read](Algorithm::reads) this
    /// knob ignores it: the middle of its capability error.
    pub(crate) fn reason(&self) -> &'static str {
        match self {
            SolveKnob::Exec => "it runs no data-parallel passes",
            SolveKnob::Termination => {
                "it does not read a stopping rule (the §5 solver needs its \
                 fixed schedule; the direct algorithms do not iterate)"
            }
            SolveKnob::RecordTrace => "it does not iterate (activate, square, pebble)",
            SolveKnob::SkipCleanRows => {
                "convergence-aware scheduling applies to the §2/§5 solvers only"
            }
            SolveKnob::Band => "only the banded §5 solver reads a band width",
            SolveKnob::WindowedPebble => "only the §5 solver has a windowed pebble",
        }
    }
}

/// A rejected [`SolveOptions`] knob: which knob, and a pointed message.
///
/// [`OptionsError::message`] deliberately starts mid-sentence ("has no
/// effect on 'knuth' …") so front ends can prefix their own name for the
/// knob: the CLI renders `--backend {message}`, the job spec renders
/// `"band" {message}`, and [`fmt::Display`] renders the core field name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsError {
    /// The offending knob.
    pub knob: SolveKnob,
    /// The message body (no leading knob name; see the type docs).
    pub message: String,
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` {}", self.knob.field(), self.message)
    }
}

impl std::error::Error for OptionsError {}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        for a in Algorithm::ALL {
            if s == a.name() || a.aliases().contains(&s) {
                return Ok(a);
            }
        }
        Err(format!(
            "unknown algorithm '{s}'; valid algorithms:\n{}",
            Algorithm::listing()
        ))
    }
}

/// Every shared solver knob, in one builder. Each algorithm reads the
/// subset it understands (see [`Algorithm::reads`]) and ignores the
/// rest, so one `SolveOptions` can drive a sweep across the whole
/// spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// Execution backend for the data-parallel passes (parallel
    /// algorithms only).
    pub exec: ExecBackend,
    /// Stopping rule for the §2 solver (it honours all three rules).
    /// The other iterative algorithms keep their own exact defaults:
    /// Rytter always stops at its fixpoint (running past it is a no-op,
    /// so the stop is exact — the work of a full-schedule run is
    /// [`model_rytter`](crate::pram_exec::model_rytter)`(n, `[`rytter_schedule`](crate::rytter::rytter_schedule)`(n))`
    /// in the cost model), and the §5 solver always runs its fixed
    /// schedule (its window argument requires it).
    pub termination: Termination,
    /// Keep per-iteration records in the trace (iterative algorithms).
    pub record_trace: bool,
    /// Convergence-aware scheduling: copy forward square rows / pebble
    /// pairs whose inputs did not change (§2 dense and §5 banded solvers;
    /// exact under every configuration).
    pub skip_clean_rows: bool,
    /// §5 band-width override; `None` uses the paper's `2⌈√n⌉`.
    pub band: Option<usize>,
    /// Apply the §5 size window to the pebble step (the E8 ablation
    /// point; reduced solver only).
    pub windowed_pebble: bool,
    /// Cooperative deadline: the iterative solvers check it once per
    /// iteration and the wavefront once per tile-diagonal step, stopping
    /// with [`StopReason::DeadlineExceeded`] (a **partial** table — see
    /// [`Solution::timed_out`]) once it passes. The direct sequential
    /// solvers do not check (they do not iterate; bound them by problem
    /// size instead). `None` (the default) costs nothing. Unlike the
    /// other knobs, a deadline is execution policy, not part of the
    /// problem: it is accepted by every algorithm, has no
    /// [`SolveKnob`], and is ignored by the solution store's cache key.
    pub deadline: Option<Instant>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            exec: ExecBackend::Parallel,
            termination: Termination::FixedSqrtN,
            record_trace: false,
            skip_clean_rows: true,
            band: None,
            windowed_pebble: true,
            deadline: None,
        }
    }
}

impl SolveOptions {
    /// Set the execution backend.
    pub fn exec(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
        self
    }

    /// Set the stopping rule.
    pub fn termination(mut self, termination: Termination) -> Self {
        self.termination = termination;
        self
    }

    /// Keep per-iteration records in the trace.
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Toggle convergence-aware scheduling.
    pub fn skip_clean_rows(mut self, skip: bool) -> Self {
        self.skip_clean_rows = skip;
        self
    }

    /// Override the §5 band width (`None` = the paper's `2⌈√n⌉`).
    pub fn band(mut self, band: Option<usize>) -> Self {
        self.band = band;
        self
    }

    /// Toggle the §5 windowed pebble.
    pub fn windowed_pebble(mut self, windowed: bool) -> Self {
        self.windowed_pebble = windowed;
        self
    }

    /// Set the cooperative deadline (`None` never cancels).
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The [`CancelToken`] these options denote.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken::new(self.deadline)
    }

    /// Check one named knob against [`Algorithm::reads`], regardless of
    /// the knob's current value — the gate for knobs a user set
    /// *explicitly* (a CLI flag, a JSONL job-spec field), where even
    /// restating the default on an algorithm that ignores it deserves a
    /// pointed rejection rather than silence.
    ///
    /// Value validity is checked too where it exists (a zero band).
    pub fn validate_knob(&self, algorithm: Algorithm, knob: SolveKnob) -> Result<(), OptionsError> {
        let message = if knob == SolveKnob::Band && self.band == Some(0) {
            "requests a zero band width; drop it for the paper's \
             2*ceil(sqrt(n)) or give a positive width"
                .to_string()
        } else if !algorithm.reads(knob) {
            format!(
                "has no effect on '{algorithm}' ({}): {}; drop it or pick one of: {}",
                algorithm.description(),
                knob.reason(),
                Algorithm::names_reading(knob)
            )
        } else {
            return Ok(());
        };
        Err(OptionsError { knob, message })
    }
}

/// Result of any solver run: the full `w` table plus uniform diagnostics.
///
/// Every [`Algorithm`] produces one of these — the iterative solvers fill
/// the trace and statistics from their (activate, square, pebble) loops;
/// the direct solvers (sequential, Knuth, wavefront) attach an
/// empty-but-well-formed trace ([`SolveTrace::direct`]) so downstream
/// reporting code needs no per-algorithm cases.
#[derive(Debug, Clone)]
pub struct Solution<W> {
    /// Which algorithm produced this solution.
    pub algorithm: Algorithm,
    /// The computed `w'` table; `w.root()` is `c(0, n)`.
    pub w: WTable<W>,
    /// Run diagnostics (iteration counts, stop reason, per-iteration
    /// records when recording was enabled; see [`SolveTrace`]).
    pub trace: SolveTrace,
    /// Aggregate operation statistics over the whole run: candidates
    /// examined, improved-cell stores, and whether anything changed —
    /// summed across all ops and iterations. Zero for the direct solvers,
    /// which do not instrument their loops.
    pub stats: OpStats,
    /// Wall-clock time of the solve call.
    pub wall: Duration,
}

impl<W: Weight> Solution<W> {
    /// The goal value `c(0, n)`.
    pub fn value(&self) -> W {
        self.w.root()
    }

    /// Whether the solve was cancelled by its deadline
    /// ([`SolveOptions::deadline`]). A timed-out solution carries a
    /// **partial** table: its value must not be reported, compared, or
    /// cached — the serving layers turn it into a `timeout` error line
    /// and skip the solution store.
    pub fn timed_out(&self) -> bool {
        self.trace.stop == StopReason::DeadlineExceeded
    }

    /// Work/Span summary of this solve under the parallel cost model:
    /// work is [`SolveTrace::total_candidates`], span the critical-path
    /// estimate of [`SolveTrace::span_estimate`]. Both are zero for the
    /// direct solvers, which do not instrument their loops. See the
    /// Work/Span discussion in the [`crate::trace`] module docs.
    pub fn work_span(&self) -> crate::telemetry::WorkSpan {
        crate::telemetry::WorkSpan::of_trace(&self.trace)
    }

    /// Reconstruct the optimal parenthesization tree lazily, by walking
    /// the solved table with [`reconstruct_root`]. The problem is a
    /// parameter (not captured at solve time) so solutions stay cheap to
    /// clone and ship across threads.
    pub fn tree<P: DpProblem<W> + ?Sized>(&self, problem: &P) -> Result<ParenTree, String> {
        reconstruct_root(problem, &self.w)
    }

    /// Wrap a bare table from a non-iterative solver in the uniform
    /// result shape. `wall` starts at zero — [`Solver::solve`] stamps
    /// the façade-measured duration onto every solution after dispatch.
    pub(crate) fn direct(algorithm: Algorithm, w: WTable<W>) -> Self {
        let n = w.n();
        Solution {
            algorithm,
            w,
            trace: SolveTrace::direct(n),
            stats: OpStats::default(),
            wall: Duration::ZERO,
        }
    }
}

/// The façade: pick an [`Algorithm`], optionally adjust [`SolveOptions`],
/// and [`solve`](Solver::solve) any [`DpProblem`].
///
/// ```
/// use pardp_core::prelude::*;
///
/// let p = FnProblem::new(3, |_| 0u64, |i, k, j| (i + k + j) as u64);
/// for algo in Algorithm::ALL {
///     if algo == Algorithm::Knuth {
///         continue; // needs the quadrangle inequality
///     }
///     let sol = Solver::new(algo)
///         .options(SolveOptions::default().exec(ExecBackend::Sequential))
///         .solve(&p);
///     assert_eq!(sol.value(), Solver::new(Algorithm::Sequential).solve(&p).value());
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Solver {
    algorithm: Algorithm,
    options: SolveOptions,
}

impl Solver {
    /// A solver for `algorithm` with [`SolveOptions::default`].
    pub fn new(algorithm: Algorithm) -> Self {
        Solver {
            algorithm,
            options: SolveOptions::default(),
        }
    }

    /// Replace the options wholesale (builder style).
    pub fn options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// The selected algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The current options.
    pub fn solve_options(&self) -> &SolveOptions {
        &self.options
    }

    /// Run the selected algorithm on `problem`. The iterative solvers
    /// run through the one iteration engine; the direct solvers through
    /// their own sweeps.
    ///
    /// [`Solution::wall`] is measured here, around the whole dispatch,
    /// so its scope is uniform across the spectrum: solve plus
    /// diagnostics assembly, for direct and iterative algorithms alike.
    pub fn solve<W: Weight, P: DpProblem<W> + ?Sized>(&self, problem: &P) -> Solution<W> {
        let opts = &self.options;
        let t0 = Instant::now();
        let mut solution = match self.algorithm {
            Algorithm::Sequential => {
                let w = solve_sequential(problem);
                Solution::direct(Algorithm::Sequential, w)
            }
            Algorithm::Knuth => {
                let w = solve_knuth(problem);
                Solution::direct(Algorithm::Knuth, w)
            }
            Algorithm::Wavefront => {
                crate::wavefront::solve(problem, Algorithm::Wavefront, opts, None)
            }
            iterative => crate::engine::solve(problem, iterative, opts, None),
        };
        solution.wall = t0.elapsed();
        solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;
    use crate::trace::StopReason;

    fn clrs() -> impl DpProblem<u64> {
        let dims = [30u64, 35, 15, 5, 10, 20, 25];
        FnProblem::new(6, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    #[test]
    fn registry_names_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(a.name().parse::<Algorithm>().unwrap(), a);
            for alias in a.aliases() {
                assert_eq!(alias.parse::<Algorithm>().unwrap(), a, "{alias}");
            }
            assert!(!a.description().is_empty());
            assert!(!a.complexity().is_empty());
        }
    }

    #[test]
    fn unknown_name_lists_all_algorithms() {
        let err = "sortof-parallel".parse::<Algorithm>().unwrap_err();
        for a in Algorithm::ALL {
            assert!(err.contains(a.name()), "{err}");
            assert!(err.contains(a.description()), "{err}");
        }
    }

    #[test]
    fn capability_flags_are_consistent() {
        // The spectrum's algorithm × knob table (§1): rows in
        // `Algorithm::ALL` order; columns in `SolveKnob::ALL` order —
        // exec, termination, record_trace, skip_clean_rows, band,
        // windowed_pebble.
        const T: bool = true;
        const F: bool = false;
        let table: [(Algorithm, [bool; 6]); 6] = [
            (Algorithm::Sequential, [F, F, F, F, F, F]),
            (Algorithm::Knuth, [F, F, F, F, F, F]),
            (Algorithm::Wavefront, [T, F, F, F, F, F]),
            (Algorithm::Sublinear, [T, T, T, T, F, F]),
            (Algorithm::Reduced, [T, F, T, T, T, T]),
            (Algorithm::Rytter, [T, T, T, F, F, F]),
        ];
        assert_eq!(table.map(|(a, _)| a), Algorithm::ALL);
        for (a, row) in table {
            for (knob, expect) in SolveKnob::ALL.into_iter().zip(row) {
                assert_eq!(a.reads(knob), expect, "{a} {knob:?}");
            }
        }
    }

    #[test]
    fn all_algorithms_agree_through_the_facade() {
        let p = clrs();
        let opts = SolveOptions::default().exec(ExecBackend::Sequential);
        for algo in Algorithm::ALL {
            if algo == Algorithm::Knuth {
                continue; // matrix chains lack the quadrangle inequality
            }
            let sol = Solver::new(algo).options(opts).solve(&p);
            assert_eq!(sol.value(), 15125, "{algo}");
            assert_eq!(sol.algorithm, algo);
            let tree = sol.tree(&p).unwrap();
            assert_eq!(tree.n_leaves(), 6, "{algo}");
        }
    }

    #[test]
    fn direct_solvers_return_well_formed_empty_traces() {
        let p = clrs();
        for algo in [
            Algorithm::Sequential,
            Algorithm::Knuth,
            Algorithm::Wavefront,
        ] {
            let sol = Solver::new(algo)
                .options(SolveOptions::default().exec(ExecBackend::Sequential))
                .solve(&p);
            assert_eq!(sol.trace.n, 6, "{algo}");
            assert_eq!(sol.trace.iterations, 0, "{algo}");
            assert_eq!(sol.trace.stop, StopReason::Direct, "{algo}");
            assert!(sol.trace.per_iteration.is_empty(), "{algo}");
            assert_eq!(sol.trace.work_by_op(), (0, 0, 0), "{algo}");
            assert_eq!(sol.stats, OpStats::default(), "{algo}");
        }
    }

    #[test]
    fn iterative_solvers_fill_stats_and_wall_time() {
        let p = clrs();
        for algo in [Algorithm::Sublinear, Algorithm::Reduced, Algorithm::Rytter] {
            let sol: Solution<u64> = Solver::new(algo)
                .options(
                    SolveOptions::default()
                        .exec(ExecBackend::Sequential)
                        .record_trace(true),
                )
                .solve(&p);
            assert!(sol.trace.iterations > 0, "{algo}");
            assert_eq!(sol.stats.candidates, sol.trace.total_candidates, "{algo}");
            assert!(sol.stats.changed, "{algo}");
            assert!(sol.stats.writes > 0, "{algo}");
        }
    }

    #[test]
    fn validate_rejects_each_incapable_knob_deviation() {
        // Every pair of a knob and an algorithm that does not read it.
        let opts = SolveOptions::default();
        for knob in SolveKnob::ALL {
            let pick = Algorithm::names_reading(knob);
            for a in Algorithm::ALL.into_iter().filter(|a| !a.reads(knob)) {
                let err = opts.validate_knob(a, knob).unwrap_err();
                assert_eq!(err.knob, knob, "{a}");
                let expect = format!(
                    "`{}` has no effect on '{a}' ({}): {}; drop it or pick one of: {pick}",
                    knob.field(),
                    a.description(),
                    knob.reason()
                );
                assert_eq!(err.to_string(), expect, "{a} {knob:?}");
            }
        }
        let err = opts
            .validate_knob(Algorithm::Knuth, SolveKnob::Exec)
            .unwrap_err();
        assert_eq!(
            err.message,
            "has no effect on 'knuth' (Knuth-Yao O(n^2) DP (quadrangle-inequality instances \
             only)): it runs no data-parallel passes; drop it or pick one of: wavefront | \
             sublinear | reduced | rytter"
        );
    }

    #[test]
    fn validate_rejects_degenerate_values_everywhere() {
        let zero = SolveOptions::default().band(Some(0));
        for a in Algorithm::ALL {
            let err = zero.validate_knob(a, SolveKnob::Band).unwrap_err();
            assert_eq!(err.knob, SolveKnob::Band, "{a}");
            assert!(err.message.contains("zero band"), "{a}: {err}");
        }
    }

    #[test]
    fn validate_knob_is_unconditional_on_capability() {
        // Even the *default* backend is rejected when named explicitly
        // on a sequential algorithm — the CLI's `--backend` contract.
        let opts = SolveOptions::default();
        let err = opts
            .validate_knob(Algorithm::Sequential, SolveKnob::Exec)
            .unwrap_err();
        assert!(err.message.contains("no data-parallel passes"), "{err}");
        // Every knob at its default passes exactly where it is read.
        for a in Algorithm::ALL {
            for knob in SolveKnob::ALL {
                let ok = opts.validate_knob(a, knob).is_ok();
                assert_eq!(ok, a.reads(knob), "{a} {knob:?}");
            }
        }
    }

    #[test]
    fn rytter_keeps_its_exact_fixpoint_stop_under_every_termination() {
        // The stop is exact, and it is Rytter's legacy default — the
        // façade must not silently trade it for full-schedule work, nor
        // let the §2 stopping rules reach it.
        let p = clrs();
        let base = SolveOptions::default()
            .exec(ExecBackend::Sequential)
            .record_trace(true);
        let fixpoint = Solver::new(Algorithm::Rytter)
            .options(base.termination(Termination::Fixpoint))
            .solve(&p);
        assert_eq!(fixpoint.trace.stop, StopReason::Fixpoint);
        assert!(fixpoint.trace.iterations < fixpoint.trace.schedule_bound);
        let last = fixpoint.trace.per_iteration.last().unwrap();
        assert!(!last.activate.changed && !last.square.changed && !last.pebble.changed);
        for term in [Termination::FixedSqrtN, Termination::WStableTwice] {
            let sol = Solver::new(Algorithm::Rytter)
                .options(base.termination(term))
                .solve(&p);
            assert_eq!(sol.trace, fixpoint.trace, "{term:?}");
            assert!(sol.w.table_eq(&fixpoint.w), "{term:?}");
        }
    }
}
