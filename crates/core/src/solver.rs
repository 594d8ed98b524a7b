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
//! (with an error that lists every valid name), and the capability flags
//! ([`Algorithm::is_parallel`], [`Algorithm::is_iterative`], …) let
//! front ends validate knobs without hard-coding per-algorithm tables.
//!
//! ## Migration from the per-module entry points
//!
//! [`Solver`] is the one entry point of the wavefront and iterative
//! solvers: their per-module solve functions and config structs were
//! removed, and every old config field is a [`SolveOptions`] field of the
//! same name unless noted. The sequential oracle
//! ([`solve_sequential`]) and [`solve_knuth`] stay public.
//!
//! | removed entry point (config fields) | façade call |
//! |---|---|
//! | `wavefront` (`exec`, `parallel_threshold`) | `Solver::new(Algorithm::Wavefront).options(SolveOptions::default().exec(e).wavefront_grain(g))` |
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
use crate::ops::{OpStats, SquareStrategy};
use crate::problem::DpProblem;
use crate::reconstruct::{reconstruct_root, ParenTree};
use crate::seq::{solve_knuth, solve_sequential};
use crate::tables::WTable;
use crate::trace::{SolveTrace, StopReason, Termination};
use crate::weight::Weight;

/// Every solver on the paper's spectrum (§1), slowest-sequential to
/// most-parallel. The enum is the registry: parse names with
/// [`str::parse`], enumerate with [`Algorithm::ALL`], and query
/// capabilities with the `supports_*` / `is_*` flags.
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
    /// operations, and therefore reads the `a-square` kernel selection
    /// ([`SolveOptions::square`]) and produces a non-empty per-iteration
    /// [`SolveTrace`] under [`SolveOptions::record_trace`].
    pub fn is_iterative(&self) -> bool {
        matches!(
            self,
            Algorithm::Sublinear | Algorithm::Reduced | Algorithm::Rytter
        )
    }

    /// Whether the stopping rule ([`SolveOptions::termination`]) affects
    /// the run. The §5 solver is excluded: its window argument relies on
    /// the fixed `2⌈√n⌉` schedule.
    pub fn supports_termination(&self) -> bool {
        matches!(self, Algorithm::Sublinear | Algorithm::Rytter)
    }

    /// Whether the §5 band-width override ([`SolveOptions::band`]) and
    /// the windowed-pebble toggle ([`SolveOptions::windowed_pebble`])
    /// apply.
    pub fn supports_band(&self) -> bool {
        matches!(self, Algorithm::Reduced)
    }

    /// Whether the wavefront fork-join grain
    /// ([`SolveOptions::wavefront_grain`]) applies.
    pub fn supports_grain(&self) -> bool {
        matches!(self, Algorithm::Wavefront)
    }

    /// Whether convergence-aware scheduling
    /// ([`SolveOptions::skip_clean_rows`]) applies.
    pub fn supports_skip(&self) -> bool {
        matches!(self, Algorithm::Sublinear | Algorithm::Reduced)
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

/// The names of all algorithms satisfying `pred`, `" | "`-separated —
/// the "pick one of" tail of capability errors.
fn names_where(pred: impl Fn(Algorithm) -> bool) -> String {
    Algorithm::ALL
        .iter()
        .copied()
        .filter(|&a| pred(a))
        .map(|a| a.name())
        .collect::<Vec<_>>()
        .join(" | ")
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
    /// [`SolveOptions::square`] — the `a-square` kernel.
    Square,
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
    /// [`SolveOptions::wavefront_grain`] — the wavefront fork-join grain.
    WavefrontGrain,
}

impl SolveKnob {
    /// Every knob, in [`SolveOptions`] field order.
    pub const ALL: [SolveKnob; 8] = [
        SolveKnob::Exec,
        SolveKnob::Square,
        SolveKnob::Termination,
        SolveKnob::RecordTrace,
        SolveKnob::SkipCleanRows,
        SolveKnob::Band,
        SolveKnob::WindowedPebble,
        SolveKnob::WavefrontGrain,
    ];

    /// The [`SolveOptions`] field name this knob denotes.
    pub fn field(&self) -> &'static str {
        match self {
            SolveKnob::Exec => "exec",
            SolveKnob::Square => "square",
            SolveKnob::Termination => "termination",
            SolveKnob::RecordTrace => "record_trace",
            SolveKnob::SkipCleanRows => "skip_clean_rows",
            SolveKnob::Band => "band",
            SolveKnob::WindowedPebble => "windowed_pebble",
            SolveKnob::WavefrontGrain => "wavefront_grain",
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
/// subset it understands (see the [`Algorithm`] capability flags) and
/// ignores the rest, so one `SolveOptions` can drive a sweep across the
/// whole spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// Execution backend for the data-parallel passes (parallel
    /// algorithms only).
    pub exec: ExecBackend,
    /// `a-square` kernel of the iterative algorithms; both kernels
    /// produce bit-identical tables.
    pub square: SquareStrategy,
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
    /// Wavefront fork-join grain, applied per tile-diagonal step: a step
    /// with fewer candidate evaluations than this runs on the calling
    /// thread (default 4096, which avoids fork-join overhead on tiny
    /// steps). See [`crate::wavefront`] for the schedule.
    pub wavefront_grain: usize,
    /// Cooperative deadline: the iterative solvers check it once per
    /// iteration and the wavefront once per tile-diagonal step, stopping
    /// with [`StopReason::DeadlineExceeded`] (a **partial** table — see
    /// [`Solution::timed_out`]) once it passes. The direct sequential
    /// solvers do not check (they do not iterate; bound them by problem
    /// size instead). `None` (the default) costs nothing. Unlike the
    /// other knobs, a deadline is execution policy, not part of the
    /// problem: it is accepted by every algorithm, excluded from
    /// [`validate`](SolveOptions::validate), and ignored by the solution
    /// store's cache key.
    pub deadline: Option<Instant>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            exec: ExecBackend::Parallel,
            square: SquareStrategy::Auto,
            termination: Termination::FixedSqrtN,
            record_trace: false,
            skip_clean_rows: true,
            band: None,
            windowed_pebble: true,
            wavefront_grain: 4096,
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

    /// Set the `a-square` kernel.
    pub fn square(mut self, square: SquareStrategy) -> Self {
        self.square = square;
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

    /// Set the wavefront fork-join grain.
    pub fn wavefront_grain(mut self, grain: usize) -> Self {
        self.wavefront_grain = grain;
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

    /// Check one named knob against `algorithm`'s capability flags,
    /// regardless of the knob's current value — the gate for knobs a
    /// user set *explicitly* (a CLI flag, a JSONL job-spec field), where
    /// even restating the default on an incapable algorithm deserves a
    /// pointed rejection rather than silence.
    ///
    /// Value validity is checked too where it exists (a zero band).
    pub fn validate_knob(&self, algorithm: Algorithm, knob: SolveKnob) -> Result<(), OptionsError> {
        let err = |message: String| Err(OptionsError { knob, message });
        let no_effect = |why: &str, pick: String| {
            err(format!(
                "has no effect on '{algorithm}' ({}): {why}; drop it or pick one of: {pick}",
                algorithm.description()
            ))
        };
        match knob {
            SolveKnob::Exec => {
                if !algorithm.is_parallel() {
                    return no_effect(
                        "it runs no data-parallel passes",
                        names_where(|a| a.is_parallel()),
                    );
                }
            }
            SolveKnob::Square => {
                if !algorithm.is_iterative() {
                    return no_effect(
                        "it has no a-square kernel",
                        names_where(|a| a.is_iterative()),
                    );
                }
            }
            SolveKnob::Termination => {
                if !algorithm.supports_termination() {
                    return no_effect(
                        "it does not read a stopping rule (the §5 solver needs its \
                         fixed schedule; the direct algorithms do not iterate)",
                        names_where(|a| a.supports_termination()),
                    );
                }
            }
            SolveKnob::RecordTrace => {
                if !algorithm.is_iterative() {
                    return no_effect(
                        "it does not iterate (activate, square, pebble)",
                        names_where(|a| a.is_iterative()),
                    );
                }
            }
            SolveKnob::SkipCleanRows => {
                if !algorithm.supports_skip() {
                    return no_effect(
                        "convergence-aware scheduling applies to the §2/§5 solvers only",
                        names_where(|a| a.supports_skip()),
                    );
                }
            }
            SolveKnob::Band => {
                if let Some(0) = self.band {
                    return err("requests a zero band width; drop it for the paper's \
                         2*ceil(sqrt(n)) or give a positive width"
                        .into());
                }
                if !algorithm.supports_band() {
                    return no_effect(
                        "only the banded §5 solver reads a band width",
                        names_where(|a| a.supports_band()),
                    );
                }
            }
            SolveKnob::WindowedPebble => {
                if !algorithm.supports_band() {
                    return no_effect(
                        "only the §5 solver has a windowed pebble",
                        names_where(|a| a.supports_band()),
                    );
                }
            }
            SolveKnob::WavefrontGrain => {
                if !algorithm.supports_grain() {
                    return no_effect(
                        "only the wavefront solver reads a fork-join grain",
                        names_where(|a| a.supports_grain()),
                    );
                }
            }
        }
        Ok(())
    }

    /// Validate the whole option set against `algorithm`: every knob
    /// that deviates from [`SolveOptions::default`] must be one the
    /// algorithm actually reads (per the [`Algorithm`] capability
    /// flags), and value validity (a zero band) is checked
    /// unconditionally.
    ///
    /// [`ExecBackend::Sequential`] is always accepted: it is the
    /// meaning-free baseline every algorithm can honour (and the batch
    /// scheduler's own forced choice for small jobs). To reject *any*
    /// explicit backend on a sequential algorithm — the CLI's behaviour
    /// for `--backend` — use [`SolveOptions::validate_knob`] with
    /// [`SolveKnob::Exec`] instead.
    ///
    /// This is deliberately strict: options an algorithm would silently
    /// ignore are *errors* here, so admission gates (the serve daemon,
    /// programmatic front ends) reject misconfigured jobs instead of
    /// running them under different knobs than the caller believes.
    pub fn validate(&self, algorithm: Algorithm) -> Result<(), OptionsError> {
        let d = SolveOptions::default();
        // Value validity first, independent of defaults.
        if self.band == Some(0) {
            self.validate_knob(algorithm, SolveKnob::Band)?;
        }
        if self.exec != d.exec && self.exec != ExecBackend::Sequential {
            self.validate_knob(algorithm, SolveKnob::Exec)?;
        }
        if self.square != d.square {
            self.validate_knob(algorithm, SolveKnob::Square)?;
        }
        if self.termination != d.termination {
            self.validate_knob(algorithm, SolveKnob::Termination)?;
        }
        if self.record_trace != d.record_trace {
            self.validate_knob(algorithm, SolveKnob::RecordTrace)?;
        }
        if self.skip_clean_rows != d.skip_clean_rows {
            self.validate_knob(algorithm, SolveKnob::SkipCleanRows)?;
        }
        if self.band.is_some() {
            self.validate_knob(algorithm, SolveKnob::Band)?;
        }
        if self.windowed_pebble != d.windowed_pebble {
            self.validate_knob(algorithm, SolveKnob::WindowedPebble)?;
        }
        if self.wavefront_grain != d.wavefront_grain {
            self.validate_knob(algorithm, SolveKnob::WavefrontGrain)?;
        }
        Ok(())
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

    /// The solved table.
    pub fn table(&self) -> &WTable<W> {
        &self.w
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
        for a in Algorithm::ALL {
            // Kernel choice and scheduling only make sense for the
            // iterating (activate, square, pebble) algorithms, which are
            // parallel.
            assert!(!a.is_iterative() || a.is_parallel(), "{a}");
            assert!(!a.supports_skip() || a.is_iterative(), "{a}");
            assert!(!a.supports_band() || a.is_iterative(), "{a}");
            assert!(!a.supports_termination() || a.is_iterative(), "{a}");
            // The grain is the wavefront's alone.
            assert_eq!(a.supports_grain(), a == Algorithm::Wavefront, "{a}");
        }
        assert_eq!(Algorithm::ALL.len(), 6);
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
    fn default_options_validate_for_every_algorithm() {
        for a in Algorithm::ALL {
            assert_eq!(SolveOptions::default().validate(a), Ok(()), "{a}");
            // The sequential baseline backend is always acceptable.
            assert_eq!(
                SolveOptions::default()
                    .exec(ExecBackend::Sequential)
                    .validate(a),
                Ok(()),
                "{a}"
            );
        }
    }

    #[test]
    fn validate_rejects_each_incapable_knob_deviation() {
        let cases: [(SolveOptions, SolveKnob, Algorithm); 7] = [
            (
                SolveOptions::default().exec(ExecBackend::Threads(2)),
                SolveKnob::Exec,
                Algorithm::Knuth,
            ),
            (
                SolveOptions::default().square(SquareStrategy::Naive),
                SolveKnob::Square,
                Algorithm::Wavefront,
            ),
            (
                SolveOptions::default().termination(Termination::Fixpoint),
                SolveKnob::Termination,
                Algorithm::Reduced,
            ),
            (
                SolveOptions::default().record_trace(true),
                SolveKnob::RecordTrace,
                Algorithm::Sequential,
            ),
            (
                SolveOptions::default().skip_clean_rows(false),
                SolveKnob::SkipCleanRows,
                Algorithm::Rytter,
            ),
            (
                SolveOptions::default().band(Some(8)),
                SolveKnob::Band,
                Algorithm::Sublinear,
            ),
            (
                SolveOptions::default().wavefront_grain(1),
                SolveKnob::WavefrontGrain,
                Algorithm::Reduced,
            ),
        ];
        for (opts, knob, algo) in cases {
            let err = opts.validate(algo).unwrap_err();
            assert_eq!(err.knob, knob, "{algo}");
            assert!(err.message.contains("has no effect"), "{knob:?}: {err}");
            assert!(err.message.contains(algo.name()), "{knob:?}: {err}");
            assert!(err.to_string().contains(knob.field()), "{knob:?}: {err}");
            // The same deviation on a capable algorithm passes.
            let capable = Algorithm::ALL
                .iter()
                .copied()
                .find(|&a| opts.validate(a).is_ok());
            assert!(capable.is_some(), "{knob:?} rejected everywhere");
        }
        // windowed_pebble deviates by turning *off* the default.
        let err = SolveOptions::default()
            .windowed_pebble(false)
            .validate(Algorithm::Sublinear)
            .unwrap_err();
        assert_eq!(err.knob, SolveKnob::WindowedPebble, "{err}");
    }

    #[test]
    fn validate_rejects_degenerate_values_everywhere() {
        for a in Algorithm::ALL {
            let err = SolveOptions::default()
                .band(Some(0))
                .validate(a)
                .unwrap_err();
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
        for a in Algorithm::ALL.iter().copied().filter(|a| a.is_parallel()) {
            assert_eq!(opts.validate_knob(a, SolveKnob::Exec), Ok(()), "{a}");
        }
        // Each knob agrees with the registry capability flags.
        for a in Algorithm::ALL {
            for knob in SolveKnob::ALL {
                let ok = opts.validate_knob(a, knob).is_ok();
                let expect = match knob {
                    SolveKnob::Exec => a.is_parallel(),
                    SolveKnob::Square | SolveKnob::RecordTrace => a.is_iterative(),
                    SolveKnob::Termination => a.supports_termination(),
                    SolveKnob::SkipCleanRows => a.supports_skip(),
                    SolveKnob::Band | SolveKnob::WindowedPebble => a.supports_band(),
                    SolveKnob::WavefrontGrain => a.supports_grain(),
                };
                assert_eq!(ok, expect, "{a} {knob:?}");
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
