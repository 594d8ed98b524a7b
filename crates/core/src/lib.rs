//! # pardp-core — sublinear parallel dynamic programming
//!
//! A faithful implementation of
//!
//! > S.-H. S. Huang, H. Liu, V. Viswanathan,
//! > *A sublinear parallel algorithm for some dynamic programming
//! > problems*, ICPP 1990; Theoretical Computer Science 106 (1992)
//! > 361–371.
//!
//! The paper gives a CREW-PRAM algorithm for parenthesization-shaped
//! dynamic programs (recurrence (*)):
//!
//! ```text
//! c(i,j) = min_{i<k<j} { c(i,k) + c(k,j) + f(i,k,j) },   c(i,i+1) = init(i)
//! ```
//!
//! running in `O(sqrt(n) log n)` time with `O(n^5 / log n)` processors
//! (§2–4), reduced to `O(n^3.5 / log n)` processors in §5 — between
//! Rytter's `O(log^2 n)`-time `O(n^6/log n)`-processor algorithm and the
//! work-optimal sequential/wavefront algorithms.
//!
//! ## Solvers
//!
//! All six algorithms run through the [`solver`] façade —
//! `Solver::new(algorithm).options(..).solve(&problem)` — and return the
//! same uniform [`solver::Solution`] (value, table, trace, statistics,
//! wall time, lazy tree reconstruction). [`solver::Algorithm`] is the
//! registry: names, descriptions, and which knobs each algorithm reads.
//!
//! | [`solver::Algorithm`] | module | algorithm | time × processors (paper) |
//! |---|---|---|---|
//! | `Sequential` | [`seq`] | classic DP \[1\] | `O(n^3)` × 1 |
//! | `Knuth` | [`seq`] | Knuth–Yao (QI instances) | `O(n^2)` × 1 |
//! | `Wavefront` | [`wavefront`] | anti-diagonal \[10\] | `O(n)` × `O(n^2)` |
//! | `Sublinear` | [`sublinear`] | **this paper §2** | `O(sqrt(n) log n)` × `O(n^5/log n)` |
//! | `Reduced` | [`reduced`] | **this paper §5** | `O(sqrt(n) log n)` × `O(n^3.5/log n)` |
//! | `Rytter` | [`rytter`] | Rytter \[8\] | `O(log^2 n)` × `O(n^6/log n)` |
//!
//! The three iterative solvers (§2, §5, Rytter) share one iteration
//! engine; only the sequential oracle [`seq::solve_sequential`] and
//! [`seq::solve_knuth`] remain as free functions. All parallel solvers
//! execute their data-parallel operations on a pluggable
//! [`exec::ExecBackend`] (sequential reference or the work-stealing
//! thread pool), and all agree exactly with the sequential oracle —
//! property-tested across problem families.
//!
//! Many instances solve concurrently over the same pool through
//! [`batch::BatchSolver`] — whole-problem-per-worker for small jobs,
//! the parallel per-problem path for large ones (see the [`batch`]
//! module docs for the scheduling regimes and the oversubscription
//! rule).
//!
//! ## Verification and accounting
//!
//! * [`verify::verify_coupled`] executes the paper's §4 correctness
//!   argument: the pebbling game on the optimal tree synchronised with
//!   the algebraic algorithm, invariants checked at every step.
//! * [`pram_exec`] models the algorithms' schedules on the `pardp-pram`
//!   CREW cost model (exact work / depth / processor counts, Brent
//!   scheduling; each phase's work is the candidate count the iteration
//!   engine reports for that op), and runs a fully audited
//!   exclusive-write execution.
//!
//! ## Quick start
//!
//! ```
//! use pardp_core::prelude::*;
//!
//! // Optimal order for multiplying matrices of dimensions
//! // 30x35, 35x15, 15x5, 5x10, 10x20, 20x25 (CLRS example).
//! let dims = vec![30u64, 35, 15, 5, 10, 20, 25];
//! let problem = FnProblem::new(
//!     dims.len() - 1,
//!     |_| 0u64,
//!     move |i, k, j| dims[i] * dims[k] * dims[j],
//! );
//!
//! // Any algorithm on the paper's spectrum, one entry point:
//! let solution = Solver::new(Algorithm::Sublinear).solve(&problem);
//! assert_eq!(solution.value(), 15125);
//!
//! // Knobs ride in one options builder; results carry uniform
//! // diagnostics for every algorithm.
//! let solution = Solver::new(Algorithm::Reduced)
//!     .options(SolveOptions::default().exec(ExecBackend::Sequential))
//!     .solve(&problem);
//! assert_eq!(solution.value(), 15125);
//! assert!(solution.trace.iterations <= solution.trace.schedule_bound);
//! let tree = solution.tree(&problem).unwrap();
//! assert_eq!(tree.n_leaves(), 6);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod check;
mod engine;
pub mod exec;
pub mod fault;
mod job;
pub mod ops;
pub mod pram_exec;
pub mod problem;
pub mod reconstruct;
pub mod reduced;
pub mod rytter;
pub mod seq;
pub mod serve;
pub mod solver;
pub mod spec;
pub mod store;
pub mod sublinear;
pub mod tables;
pub mod telemetry;
pub mod trace;
pub mod verify;
pub mod wavefront;
pub mod weight;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::batch::{
        BatchError, BatchJob, BatchReport, BatchResult, BatchSolver, JobCounts,
    };
    pub use crate::exec::ExecBackend;
    pub use crate::fault::{unpoison, CancelToken, FaultPlan, FaultSite, FaultyCache};
    pub use crate::ops::OpStats;
    pub use crate::problem::{DpProblem, FnProblem, TabulatedProblem};
    pub use crate::reconstruct::{reconstruct_root, tree_cost, ParenTree};
    pub use crate::seq::{solve_knuth, solve_sequential};
    pub use crate::serve::{ServeConfig, ServeStats, Server};
    pub use crate::solver::{Algorithm, OptionsError, Solution, SolveKnob, SolveOptions, Solver};
    pub use crate::spec::{
        command_error, error_record, read_request, table_hash, verify_knuth, wire_options,
        BatchSummary, ErrorKind, JobRecord, JobSpec, ProblemSpec, Request, ResolvedJob, SpecError,
        SpecProblem,
    };
    pub use crate::store::{
        CacheOutcome, CachedSolution, CachedSolver, FileStore, MemoryCache, ProblemKey,
        ResilientCache, SolutionCache, StoreError, StoreStat,
    };
    pub use crate::tables::WTable;
    pub use crate::telemetry::{
        Event, EventKind, EventSink, LatencyHistogram, LogLevel, RingSink, Telemetry, WorkSpan,
        WriterSink,
    };
    pub use crate::trace::{StopReason, Termination};
    pub use crate::weight::Weight;
}

/// `2 * ceil(sqrt(n))` — the iteration schedule of the paper (§2) and the
/// move bound of Lemma 3.3.
pub fn schedule_bound(n: usize) -> u64 {
    2 * pardp_pebble::ceil_sqrt(n as u64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn schedule_bound_matches_pebble_crate() {
        for n in [1usize, 2, 5, 16, 17, 100] {
            assert_eq!(super::schedule_bound(n), pardp_pebble::lemma_move_bound(n));
        }
    }
}
