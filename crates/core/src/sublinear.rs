//! The sublinear algorithm of §2: `2 * ceil(sqrt(n))` iterations of
//! (`a-activate`, `a-square`, `a-pebble`) over dense tables.
//!
//! ```text
//! Initialize w'(i, i+1) = init(i),          0 <= i < n;
//! Initialize pw'(i, j, i, j) = 0,           0 <= i < j <= n;
//! repeat 2*ceil(sqrt(n)) times begin
//!     a-activate; a-square; a-pebble;
//! end.
//! ```
//!
//! On a CREW PRAM this runs in `O(sqrt(n) log n)` time with
//! `O(n^5 / log n)` processors (§4). Here each operation is executed as a
//! data-parallel pass on the configured
//! [`ExecBackend`](crate::exec::ExecBackend) (sequential reference or the
//! work-stealing thread pool); the PRAM costs are recorded separately by
//! [`crate::pram_exec`].
//!
//! Run it as [`Algorithm::Sublinear`](crate::solver::Algorithm::Sublinear)
//! through [`Solver`](crate::solver::Solver). The loop itself is the
//! crate's one iteration engine, shared with the §5 variant
//! ([`crate::reduced`]) and Rytter's baseline ([`crate::rytter`]); it
//! honours every [`Termination`](crate::trace::Termination), capped at
//! `2 * ceil(sqrt(n))` iterations (Lemma 3.3), and copies forward the
//! square rows and pebble pairs whose inputs did not change
//! (`skip_clean_rows`, exact under every stopping rule).

#[cfg(test)]
mod tests {
    use crate::exec::ExecBackend;
    use crate::problem::{DpProblem, FnProblem};
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
    use crate::trace::{StopReason, Termination};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    fn cfg(term: Termination) -> SolveOptions {
        SolveOptions::default()
            .exec(ExecBackend::Sequential)
            .termination(term)
            .record_trace(true)
            // Off so the work-accounting assertions below see full sweeps;
            // the skip_* tests cover the scheduler.
            .skip_clean_rows(false)
    }

    fn solve<P: DpProblem<u64>>(p: &P, opts: &SolveOptions) -> Solution<u64> {
        Solver::new(Algorithm::Sublinear).options(*opts).solve(p)
    }

    #[test]
    fn solves_clrs_chain_exactly() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let sol = solve(&p, &cfg(Termination::FixedSqrtN));
        assert_eq!(sol.value(), 15125);
        assert!(sol.w.table_eq(&solve_sequential(&p)));
        assert_eq!(sol.trace.iterations, sol.trace.schedule_bound);
    }

    #[test]
    fn all_terminations_agree_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(31337);
        for n in [1usize, 2, 3, 5, 9, 14, 20] {
            for _ in 0..4 {
                let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..40)).collect();
                let p = chain(dims);
                let oracle = solve_sequential(&p);
                for term in [
                    Termination::FixedSqrtN,
                    Termination::Fixpoint,
                    Termination::WStableTwice,
                ] {
                    let sol = solve(&p, &cfg(term));
                    assert!(sol.w.table_eq(&oracle), "n={n} {term:?}");
                    assert!(sol.trace.iterations <= sol.trace.schedule_bound);
                }
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let mut rng = SmallRng::seed_from_u64(55);
        let dims: Vec<u64> = (0..=18).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let seq = solve(&p, &cfg(Termination::FixedSqrtN));
        let par = solve(
            &p,
            &SolveOptions::default().termination(Termination::FixedSqrtN),
        );
        assert!(seq.w.table_eq(&par.w));
        assert_eq!(seq.trace.iterations, par.trace.iterations);
    }

    #[test]
    fn skip_clean_rows_is_exact_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(2026);
        for n in [2usize, 5, 9, 16, 24] {
            for term in [Termination::FixedSqrtN, Termination::Fixpoint] {
                let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..40)).collect();
                let p = chain(dims);
                let base = solve(&p, &cfg(term));
                for exec in [ExecBackend::Sequential, ExecBackend::Threads(4)] {
                    let skipping = solve(&p, &cfg(term).exec(exec).skip_clean_rows(true));
                    assert!(skipping.w.table_eq(&base.w), "n={n} {term:?} {exec}");
                    assert_eq!(
                        skipping.trace.iterations, base.trace.iterations,
                        "n={n} {term:?} {exec}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_clean_rows_saves_square_work() {
        // Uniform dims converge fast; under the fixed schedule the
        // post-convergence iterations must skip every row, so the total
        // square candidates are strictly below the full-sweep figure.
        let p = chain(vec![3u64; 50]); // n = 49, schedule bound 14
        let full = solve(&p, &cfg(Termination::FixedSqrtN));
        let skipping = solve(&p, &cfg(Termination::FixedSqrtN).skip_clean_rows(true));
        assert!(skipping.w.table_eq(&full.w));
        let (_, sq_full, _) = full.trace.work_by_op();
        let (_, sq_skip, _) = skipping.trace.work_by_op();
        assert!(
            2 * sq_skip < sq_full,
            "skip saved too little: {sq_skip} vs {sq_full}"
        );
        // The final recorded iteration does no square work at all.
        let last = skipping.trace.per_iteration.last().unwrap();
        assert_eq!(last.square.candidates, 0);
        assert_eq!(last.square.writes, 0);
    }

    #[test]
    fn fixpoint_stops_early_on_easy_instances() {
        // Uniform dims make balanced decompositions optimal: convergence
        // in O(log n) iterations, well under 2*ceil(sqrt(n)).
        let p = chain(vec![2u64; 65]); // n = 64, schedule bound 16
        let sol = solve(&p, &cfg(Termination::Fixpoint));
        assert_eq!(sol.trace.stop, StopReason::Fixpoint);
        assert!(
            sol.trace.iterations < sol.trace.schedule_bound,
            "expected early stop: {} < {}",
            sol.trace.iterations,
            sol.trace.schedule_bound
        );
        assert!(sol.w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn trace_candidate_totals_are_consistent() {
        let p = chain(vec![3, 5, 7, 2, 8, 4]);
        let sol = solve(&p, &cfg(Termination::FixedSqrtN));
        let (a, s, pb) = sol.trace.work_by_op();
        assert_eq!(a + s + pb, sol.trace.total_candidates);
        assert_eq!(sol.trace.per_iteration.len() as u64, sol.trace.iterations);
        // Square dominates the work, as the analysis says (§4).
        assert!(s > a && s > pb);
    }

    #[test]
    fn float_instance_converges_to_reference() {
        let mut rng = SmallRng::seed_from_u64(77);
        let dims: Vec<f64> = (0..=12).map(|_| rng.gen_range(0.5..8.0)).collect();
        let n = dims.len() - 1;
        let p = FnProblem::new(n, |_| 0.0f64, move |i, k, j| dims[i] * dims[k] * dims[j]);
        let sol = Solver::new(Algorithm::Sublinear)
            .options(cfg(Termination::FixedSqrtN))
            .solve(&p);
        let oracle = solve_sequential(&p);
        assert!(sol.w.table_eq(&oracle));
    }

    #[test]
    fn n_equals_one_is_trivial() {
        let p = FnProblem::new(1, |_| 5u64, |_, _, _| 0u64);
        let sol = solve(&p, &cfg(Termination::FixedSqrtN));
        assert_eq!(sol.value(), 5);
    }
}
