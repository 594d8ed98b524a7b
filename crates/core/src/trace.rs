//! Iteration traces and termination policies shared by all solvers.
//!
//! # Work and Span
//!
//! The repo reports solver cost in the classic Work/Span model of
//! parallel computation:
//!
//! - **Work** is the total number of composition candidates examined
//!   across every operation of every iteration — exactly
//!   [`SolveTrace::total_candidates`], the figure the bench baselines
//!   pin. It is what a single processor would execute.
//! - **Span** is the length of the critical path: the time on
//!   unboundedly many processors. Each iteration's three operations
//!   (`a-activate`, `a-square`, `a-pebble`) are internally parallel
//!   min-reductions, so an iteration's depth is the sum of its
//!   per-operation reduction depths `⌈log₂(candidates + 1)⌉`, and the
//!   solve's span is the sum over iterations ([`SolveTrace::span_estimate`]).
//!
//! `work / span` bounds the achievable speed-up; comparing the two
//! across algorithms quantifies the paper's trade — the sublinear
//! scheme buys its `O(√n log n)` span with super-linear work, whereas
//! the sequential baseline is work-optimal at span = work. The
//! [`crate::telemetry::WorkSpan`] pair carries both through `Solution`
//! diagnostics and serve stats.

use serde::{Deserialize, Serialize};

use crate::ops::OpStats;

/// When a solver stops iterating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// Run exactly `2 * ceil(sqrt(n))` iterations — the schedule proved
    /// sufficient by Lemma 3.3. Always correct.
    FixedSqrtN,
    /// Stop as soon as one whole iteration changes **neither** `w'` nor
    /// `pw'` (a true fixpoint: the operations are deterministic functions
    /// of the tables, so no further iteration can change anything). This
    /// is the *sufficient* condition discussed in §7. Capped at
    /// `2 * ceil(sqrt(n))` iterations, so it is always correct too.
    Fixpoint,
    /// The §7 heuristic suggested by the authors' simulations: stop when
    /// the `w'` values did not change during two consecutive iterations
    /// (`pw'` may still be evolving). Also capped at `2 * ceil(sqrt(n))`.
    /// Experiment E10 probes whether this heuristic can ever stop early
    /// with a wrong value.
    WStableTwice,
}

/// Per-iteration record of one solver run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: u64,
    /// `a-activate` statistics.
    pub activate: OpRecord,
    /// `a-square` statistics.
    pub square: OpRecord,
    /// `a-pebble` statistics.
    pub pebble: OpRecord,
    /// Whether `w'(0,n)` was finite after this iteration.
    pub root_finite: bool,
}

/// Serializable mirror of [`OpStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Composition candidates examined.
    pub candidates: u64,
    /// Cells whose stored value strictly improved — actual stores, under
    /// one rule for every op (copies and unimproved re-minimisations are
    /// not writes); `changed == (writes > 0)`. See [`OpStats::writes`].
    pub writes: u64,
    /// Whether any cell strictly improved.
    pub changed: bool,
}

impl From<OpStats> for OpRecord {
    fn from(s: OpStats) -> Self {
        OpRecord {
            candidates: s.candidates,
            writes: s.writes,
            changed: s.changed,
        }
    }
}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// Ran the full `2 * ceil(sqrt(n))` schedule.
    ScheduleExhausted,
    /// Reached a `w'`+`pw'` fixpoint before the schedule ended.
    Fixpoint,
    /// The §7 heuristic fired (`w'` unchanged two iterations in a row).
    WStable,
    /// A non-iterative solver (sequential, Knuth, wavefront) ran to
    /// completion — there is no iteration schedule to speak of. Used by
    /// the empty-but-well-formed traces of [`SolveTrace::direct`].
    Direct,
    /// The solve was cancelled cooperatively because its
    /// [`SolveOptions::deadline`](crate::solver::SolveOptions::deadline)
    /// passed. The table is **partial** — the value must not be used or
    /// cached (see [`Solution::timed_out`](crate::solver::Solution)).
    DeadlineExceeded,
}

/// Aggregate of a full solver run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveTrace {
    /// Problem size `n`.
    pub n: usize,
    /// Iterations actually executed.
    pub iterations: u64,
    /// The schedule bound `2 * ceil(sqrt(n))`.
    pub schedule_bound: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Total composition candidates across all ops and iterations — the
    /// measured work figure of experiments E8/E9.
    pub total_candidates: u64,
    /// Per-iteration details (empty unless trace recording was enabled).
    pub per_iteration: Vec<IterationRecord>,
}

impl SolveTrace {
    /// The empty-but-well-formed trace of a non-iterative solver run
    /// (sequential, Knuth, wavefront): zero iterations, zero schedule,
    /// [`StopReason::Direct`], no per-iteration records. Lets the
    /// uniform [`Solution`](crate::solver::Solution) carry one trace
    /// type for the whole algorithm spectrum.
    pub fn direct(n: usize) -> Self {
        SolveTrace {
            n,
            iterations: 0,
            schedule_bound: 0,
            stop: StopReason::Direct,
            total_candidates: 0,
            per_iteration: Vec::new(),
        }
    }

    /// Work split per operation kind: `(activate, square, pebble)` summed
    /// over iterations. Only available when per-iteration records were
    /// kept.
    pub fn work_by_op(&self) -> (u64, u64, u64) {
        let mut a = 0;
        let mut s = 0;
        let mut p = 0;
        for it in &self.per_iteration {
            a += it.activate.candidates;
            s += it.square.candidates;
            p += it.pebble.candidates;
        }
        (a, s, p)
    }

    /// Estimated span (critical-path depth) of the run: iterations ×
    /// per-iteration critical depth. See the [module docs](self) for
    /// the model.
    ///
    /// - With per-iteration records, each iteration contributes the sum
    ///   of its three operations' parallel reduction depths
    ///   `⌈log₂(candidates + 1)⌉` — a min-reduction over `c` candidates
    ///   takes that many rounds on unboundedly many processors.
    /// - Without records but with iterations counted, the per-iteration
    ///   depth is estimated from the mean candidates per iteration.
    /// - A non-iterative (direct) run has no recorded parallel
    ///   structure, so the serial bound `span == work` is reported.
    pub fn span_estimate(&self) -> u64 {
        fn reduction_depth(candidates: u64) -> u64 {
            if candidates == 0 {
                0
            } else {
                64 - candidates.leading_zeros() as u64
            }
        }
        if !self.per_iteration.is_empty() {
            return self
                .per_iteration
                .iter()
                .map(|it| {
                    reduction_depth(it.activate.candidates)
                        + reduction_depth(it.square.candidates)
                        + reduction_depth(it.pebble.candidates)
                })
                .sum();
        }
        if self.iterations == 0 {
            return self.total_candidates;
        }
        self.iterations * reduction_depth(self.total_candidates.div_ceil(self.iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_record_from_stats() {
        let s = OpStats {
            candidates: 5,
            writes: 3,
            changed: true,
        };
        let r = OpRecord::from(s);
        assert_eq!(r.candidates, 5);
        assert_eq!(r.writes, 3);
        assert!(r.changed);
    }

    #[test]
    fn work_by_op_sums() {
        let rec = |c| IterationRecord {
            iteration: 1,
            activate: OpRecord {
                candidates: c,
                writes: 0,
                changed: false,
            },
            square: OpRecord {
                candidates: 2 * c,
                writes: 0,
                changed: false,
            },
            pebble: OpRecord {
                candidates: 3 * c,
                writes: 0,
                changed: false,
            },
            root_finite: false,
        };
        let trace = SolveTrace {
            n: 4,
            iterations: 2,
            schedule_bound: 4,
            stop: StopReason::ScheduleExhausted,
            total_candidates: 0,
            per_iteration: vec![rec(1), rec(10)],
        };
        assert_eq!(trace.work_by_op(), (11, 22, 33));
    }

    #[test]
    fn span_estimate_shapes() {
        // Direct run: serial bound, span == work.
        let mut direct = SolveTrace::direct(8);
        assert_eq!(direct.span_estimate(), 0);
        direct.total_candidates = 120;
        assert_eq!(direct.span_estimate(), 120);

        // Per-iteration records: sum of per-op reduction depths.
        let rec = |a, s, p| IterationRecord {
            iteration: 1,
            activate: OpRecord {
                candidates: a,
                writes: 0,
                changed: false,
            },
            square: OpRecord {
                candidates: s,
                writes: 0,
                changed: false,
            },
            pebble: OpRecord {
                candidates: p,
                writes: 0,
                changed: false,
            },
            root_finite: false,
        };
        let trace = SolveTrace {
            n: 4,
            iterations: 2,
            schedule_bound: 4,
            stop: StopReason::ScheduleExhausted,
            total_candidates: 15,
            per_iteration: vec![rec(4, 8, 0), rec(1, 1, 1)],
        };
        // depth(4)=3, depth(8)=4, depth(0)=0; depth(1)=1 each → 10.
        assert_eq!(trace.span_estimate(), 10);
        // span never exceeds work when records are kept.
        assert!(trace.span_estimate() <= 4 + 8 + 1 + 1 + 1);

        // No records, iterations counted: iterations × depth(mean).
        let coarse = SolveTrace {
            per_iteration: Vec::new(),
            ..trace
        };
        // mean = ceil(15 / 2) = 8, depth(8) = 4 → 2 * 4.
        assert_eq!(coarse.span_estimate(), 8);
    }
}
