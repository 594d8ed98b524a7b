//! The one iteration engine behind the §2, §5 and Rytter solvers.
//!
//! All three run the paper's schedule
//!
//! ```text
//! Initialize w'(i, i+1) = init(i) and pw'(i, j, i, j) = 0;
//! repeat a-activate; a-square; a-pebble; until the stopping rule fires.
//! ```
//!
//! and differ only in how `pw'` is stored and squared ([`Layout`]), the
//! §5 pebble window, and the iteration bound and stopping rule. This
//! module owns everything they share: table set-up and warm-start
//! seeding, cancellation, convergence-aware scheduling of the square
//! and the pebble, trace and [`OpStats`] accumulation, and the stopping
//! rules.
//!
//! **Convergence-aware scheduling** (`skip_clean_rows`; §2 and §5 only)
//! is exact under every stopping rule, because square and pebble are
//! deterministic monotone functions of their inputs:
//!
//! * **square rows** — square row `(i,j)` reads exactly the `pw'` rows
//!   nested in `(i,j)`. If neither the previous square nor this
//!   iteration's activate changed any of them, the row would be
//!   reproduced verbatim, so it is copied forward instead. When every
//!   row is clean the whole pass is skipped: no kernel, no pool region,
//!   no buffer swap, and zero square stats, exactly what the
//!   copy-forward pass would report.
//! * **pebble pairs** — pebble pair `(i,j)` reads its own `pw'` row and
//!   the `w'` of its nested pairs. A *persistent* per-pair dirty bit
//!   gathers changes to those inputs and is cleared only when the pair
//!   is actually re-minimised, so a pair the §5 window keeps out keeps
//!   collecting dirt until the window reaches it. A pair whose bit is
//!   clear would reproduce its current value and is copied. With no
//!   window every pair is re-minimised or clean after each pebble, so
//!   the bit reduces to "some input changed in the previous iteration".
//!
//! **Warm starts** (the solution store): pairs `(i,j)` with `j <= m`
//! start at the cached *optimal* values of a size-`m` prefix table and
//! are excluded from every pebble. Pebble is a non-increasing
//! re-minimisation whose candidates never undercut the optimum, so a
//! pair already at its optimum is reproduced verbatim by any pebble, and
//! every other pair starts from inputs at least as converged as a cold
//! run's: the final table is bit-identical to a cold solve. The seeded
//! pairs' square rows still run, because their partial weights feed the
//! compositions of bigger pairs.

use std::time::Instant;

use crate::ops::{
    a_activate_banded_tracked, a_activate_dense_tracked, a_pebble_banded_scheduled,
    a_pebble_dense_scheduled, a_square_banded_scheduled, a_square_dense_scheduled,
    a_square_rytter_with, OpStats, SquareStrategy,
};
use crate::problem::DpProblem;
use crate::reduced::default_band;
use crate::rytter::rytter_schedule;
use crate::solver::{Algorithm, Solution, SolveKnob, SolveOptions};
use crate::tables::{BandedPw, DensePw, PairIndexer, WTable};
use crate::trace::{IterationRecord, SolveTrace, StopReason, Termination};
use crate::weight::Weight;

/// The `pw'` double buffer (current, next) and the square it takes.
enum Layout<W> {
    /// §2: dense storage, the restricted endpoint-sharing square.
    Dense(DensePw<W>, DensePw<W>),
    /// §5: banded storage, the banded square (and the pebble window).
    Banded(BandedPw<W>, BandedPw<W>),
    /// Rytter \[8\]: dense storage, the full-composition square.
    Rytter(DensePw<W>, DensePw<W>),
}

impl<W: Weight> Layout<W> {
    fn indexer(&self) -> &PairIndexer {
        match self {
            Layout::Dense(pw, _) | Layout::Rytter(pw, _) => pw.indexer(),
            Layout::Banded(pw, _) => pw.indexer(),
        }
    }

    /// `a-activate` in place, with per-row changed bits.
    fn activate<P: DpProblem<W> + ?Sized>(
        &mut self,
        problem: &P,
        w: &WTable<W>,
        opts: &SolveOptions,
    ) -> (OpStats, Vec<bool>) {
        match self {
            Layout::Dense(pw, _) | Layout::Rytter(pw, _) => {
                a_activate_dense_tracked(problem, w, pw, &opts.exec)
            }
            Layout::Banded(pw, _) => a_activate_banded_tracked(problem, w, pw, &opts.exec),
        }
    }

    /// `a-square` into the next buffer, then swap. Rows marked in `skip`
    /// are copied forward. The per-row changed bits are `None` for
    /// Rytter's square, which is never scheduled.
    fn square(
        &mut self,
        skip: Option<&[bool]>,
        opts: &SolveOptions,
    ) -> (OpStats, Option<Vec<bool>>) {
        match self {
            Layout::Dense(pw, next) => {
                let (stats, rows) =
                    a_square_dense_scheduled(pw, next, SquareStrategy::Auto, skip, &opts.exec);
                std::mem::swap(pw, next);
                (stats, Some(rows))
            }
            Layout::Banded(pw, next) => {
                let (stats, rows) =
                    a_square_banded_scheduled(pw, next, SquareStrategy::Auto, skip, &opts.exec);
                std::mem::swap(pw, next);
                (stats, Some(rows))
            }
            Layout::Rytter(pw, next) => {
                let stats = a_square_rytter_with(pw, next, SquareStrategy::Auto, &opts.exec);
                std::mem::swap(pw, next);
                (stats, None)
            }
        }
    }

    /// `a-pebble` from `w` into `w_next`, with per-pair changed bits.
    /// Only the banded layout has a size window.
    fn pebble<P: DpProblem<W> + ?Sized>(
        &self,
        problem: &P,
        w: &WTable<W>,
        w_next: &mut WTable<W>,
        window: Option<(usize, usize)>,
        skip: Option<&[bool]>,
        opts: &SolveOptions,
    ) -> (OpStats, Vec<bool>) {
        match self {
            Layout::Dense(pw, _) | Layout::Rytter(pw, _) => {
                a_pebble_dense_scheduled(pw, w, w_next, skip, &opts.exec)
            }
            Layout::Banded(pw, _) => {
                a_pebble_banded_scheduled(problem, pw, w, w_next, window, skip, &opts.exec)
            }
        }
    }
}

/// Run `algorithm` (one of the iterative solvers) on `problem`.
///
/// * Sublinear honours every [`Termination`], capped at `2⌈√n⌉`
///   iterations.
/// * Reduced always runs its fixed `2⌈√n⌉` schedule: the window
///   argument relies on it.
/// * Rytter stops at the exact fixpoint (iterating past it is a no-op),
///   capped at [`rytter_schedule`].
///
/// `seed` is a warm start: a solved size-`m` prefix table whose pairs
/// are final (see the module docs). [`Solution::wall`] covers the whole
/// call.
pub(crate) fn solve<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    algorithm: Algorithm,
    opts: &SolveOptions,
    seed: Option<(usize, &WTable<W>)>,
) -> Solution<W> {
    let t0 = Instant::now();
    let n = problem.n();
    let cancel = opts.cancel_token();
    let skip_clean = opts.skip_clean_rows && algorithm.reads(SolveKnob::SkipCleanRows);
    let windowed = opts.windowed_pebble && algorithm.reads(SolveKnob::WindowedPebble);

    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
    }
    if let Some((m, sw)) = seed {
        debug_assert!(sw.n() == m && m < n);
        for i in 0..m {
            for j in i + 1..=m {
                w.set(i, j, sw.get(i, j));
            }
        }
    }
    let (schedule, termination, mut tables) = match algorithm {
        Algorithm::Sublinear => (
            crate::schedule_bound(n),
            opts.termination,
            Layout::Dense(DensePw::new(n), DensePw::new(n)),
        ),
        // The §5 window argument relies on the fixed schedule.
        Algorithm::Reduced => {
            let band = opts.band.unwrap_or_else(|| default_band(n));
            (
                crate::schedule_bound(n),
                Termination::FixedSqrtN,
                Layout::Banded(BandedPw::new(n, band), BandedPw::new(n, band)),
            )
        }
        // Iterating past a fixpoint is a no-op, so this stop is exact.
        Algorithm::Rytter => (
            rytter_schedule(n),
            Termination::Fixpoint,
            Layout::Rytter(DensePw::new(n), DensePw::new(n)),
        ),
        direct => unreachable!("{direct} does not iterate"),
    };
    let mut w_next = w.clone();

    let mut trace = SolveTrace {
        n,
        iterations: 0,
        schedule_bound: schedule,
        stop: StopReason::ScheduleExhausted,
        total_candidates: 0,
        per_iteration: Vec::new(),
    };
    let mut stats = OpStats::default();
    let mut w_stable_streak = 0u32;

    // Scheduling state: which rows the previous square changed, which
    // pairs the previous pebble improved, the persistent pebble dirty
    // bits, and scratch masks for the skip decisions.
    let dim = tables.indexer().len();
    let mut square_changed = vec![true; dim];
    let mut w_changed = vec![true; dim];
    let mut pebble_dirty = vec![true; dim];
    let mut square_skip = vec![false; dim];
    let mut pebble_skip = vec![false; dim];
    let final_pairs: Option<Vec<bool>> =
        seed.map(|(m, _)| tables.indexer().pairs().map(|(_, j)| j <= m).collect());

    for iter in 1..=schedule {
        if cancel.is_cancelled() {
            trace.stop = StopReason::DeadlineExceeded;
            break;
        }
        let (act, act_rows) = tables.activate(problem, &w, opts);
        // Square row (i,j) reads the pw' rows nested in (i,j); it is
        // copied forward when neither the previous square nor this
        // activate changed any of them.
        let sq_skip = (skip_clean && iter > 1).then(|| {
            for a in 0..dim {
                square_skip[a] = act_rows[a] || square_changed[a];
            }
            tables.indexer().propagate_nested(&mut square_skip);
            for skip in square_skip.iter_mut() {
                *skip = !*skip; // dirty -> clean
            }
            square_skip.as_slice()
        });
        let sq = if sq_skip.is_some_and(|skip| skip.iter().all(|&clean| clean)) {
            // Every row is clean: the pass would copy the table forward
            // verbatim, so skip it (and the buffer swap) outright.
            square_changed.fill(false);
            OpStats::default()
        } else {
            let (sq, sq_rows) = tables.square(sq_skip, opts);
            if let Some(rows) = sq_rows {
                square_changed = rows;
            }
            sq
        };
        // Size window for iterations 2l-1 and 2l: (l-1)^2 < j-i <= l^2.
        let window = windowed.then(|| {
            let l = iter.div_ceil(2) as usize;
            ((l - 1) * (l - 1), l * l)
        });
        // Pebble pair (i,j) reads its pw' row (changed iff this
        // iteration's activate or square touched it) and the w' of its
        // nested pairs (changed iff the previous pebble improved them).
        // Without scheduling every dirty bit stays set, so only the
        // warm start's final pairs are skipped.
        let pb_skip = (skip_clean || final_pairs.is_some()).then(|| {
            if skip_clean && iter > 1 {
                for a in 0..dim {
                    pebble_skip[a] = act_rows[a] || square_changed[a] || w_changed[a];
                }
                tables.indexer().propagate_nested(&mut pebble_skip);
                for (dirty, fresh) in pebble_dirty.iter_mut().zip(&pebble_skip) {
                    *dirty |= fresh;
                }
            }
            for (a, skip) in pebble_skip.iter_mut().enumerate() {
                *skip = !pebble_dirty[a] || final_pairs.as_ref().is_some_and(|f| f[a]);
            }
            pebble_skip.as_slice()
        });
        let (pb, pb_pairs) = tables.pebble(problem, &w, &mut w_next, window, pb_skip, opts);
        std::mem::swap(&mut w, &mut w_next);
        if skip_clean {
            // Pairs the window admitted and the skip mask did not veto
            // were re-minimised against their current inputs: clean.
            let pairs = tables.indexer().pairs().zip(&pebble_skip);
            for (((i, j), skip), dirty) in pairs.zip(pebble_dirty.iter_mut()) {
                if !skip && window.is_none_or(|(lo, hi)| j - i > lo && j - i <= hi) {
                    *dirty = false;
                }
            }
            w_changed = pb_pairs;
        }

        trace.iterations = iter;
        trace.total_candidates += act.candidates + sq.candidates + pb.candidates;
        stats = stats.merge(act).merge(sq).merge(pb);
        if opts.record_trace {
            trace.per_iteration.push(IterationRecord {
                iteration: iter,
                activate: act,
                square: sq,
                pebble: pb,
                root_finite: w.root().is_finite_cost(),
            });
        }

        let stop = match termination {
            Termination::FixedSqrtN => None,
            Termination::Fixpoint => {
                (!act.changed && !sq.changed && !pb.changed).then_some(StopReason::Fixpoint)
            }
            Termination::WStableTwice => {
                w_stable_streak = if pb.changed { 0 } else { w_stable_streak + 1 };
                (w_stable_streak >= 2).then_some(StopReason::WStable)
            }
        };
        if let Some(reason) = stop {
            trace.stop = reason;
            break;
        }
    }

    Solution {
        algorithm,
        w,
        trace,
        stats,
        wall: t0.elapsed(),
    }
}
