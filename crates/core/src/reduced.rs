//! The §5 reduced-processor variant: `O(n^3.5 / log n)` processors,
//! same `O(sqrt(n) log n)` time.
//!
//! Two §5 observations shrink the work per iteration:
//!
//! 1. **Windowed pebbling.** By Lemma 3.3, after `2l` iterations every
//!    optimal-tree node of size ≤ `l^2` already holds its final value, and
//!    nodes of size > `(l+1)^2` cannot be finalised yet; so the pebble
//!    steps of iterations `2l - 1` and `2l` only need to consider pairs
//!    with `(l-1)^2 < j - i <= l^2` — `O(n^1.5)` of them.
//! 2. **Banded partial weights.** The heavy-chain decomposition shows the
//!    pebbling only ever exploits partial trees whose root-to-gap size
//!    difference is at most `2*ceil(sqrt(n))`; partial weights outside the
//!    band `(j-i) - (q-p) <= B` are never needed, and each in-band cell
//!    has only `O(sqrt(n))` in-band compositions.
//!
//! Because the window argument relies on the *fixed* `2*ceil(sqrt(n))`
//! schedule, this solver does not support convergence-based early
//! termination (change flags under a window are not a fixpoint signal).
//! Convergence-aware *scheduling* within the fixed schedule is a
//! different matter and is exact (`skip_clean_rows`, on by default):
//! square rows and pebble pairs whose inputs did not change are copied
//! forward, and a persistent per-pair dirty bit carries a windowed-out
//! pair's input changes until the window reaches it.
//!
//! Run it as [`Algorithm::Reduced`](crate::solver::Algorithm::Reduced)
//! through [`Solver`](crate::solver::Solver); the band width and the
//! window are the [`SolveOptions::band`](crate::solver::SolveOptions::band)
//! and [`SolveOptions::windowed_pebble`](crate::solver::SolveOptions::windowed_pebble)
//! knobs. The loop is the crate's one iteration engine, shared with §2
//! and Rytter's baseline.

/// The §5 band width `B = 2 * ceil(sqrt(n))`.
pub fn default_band(n: usize) -> usize {
    2 * pardp_pebble::ceil_sqrt(n as u64) as usize
}

#[cfg(test)]
mod tests {
    use crate::exec::ExecBackend;
    use crate::ops::SquareStrategy;
    use crate::problem::{DpProblem, FnProblem, TabulatedProblem};
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    /// Full-sweep sequential baseline: the work-accounting assertions
    /// below compare per-op candidate counts, so scheduling is off; the
    /// skip_* tests cover the scheduler.
    fn cfg() -> SolveOptions {
        SolveOptions::default()
            .exec(ExecBackend::Sequential)
            .record_trace(true)
            .skip_clean_rows(false)
    }

    fn solve<P: DpProblem<u64>>(p: &P, opts: &SolveOptions) -> Solution<u64> {
        Solver::new(Algorithm::Reduced).options(*opts).solve(p)
    }

    #[test]
    fn reduced_solves_clrs_chain() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let sol = solve(&p, &cfg());
        assert_eq!(sol.value(), 15125);
        assert!(sol.w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn reduced_matches_oracle_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(4242);
        for n in [1usize, 2, 3, 4, 6, 9, 13, 18, 25, 33] {
            for _ in 0..3 {
                let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..50)).collect();
                let p = chain(dims);
                let oracle = solve_sequential(&p);
                let sol = solve(&p, &cfg());
                assert!(sol.w.table_eq(&oracle), "n={n}");
            }
        }
    }

    #[test]
    fn reduced_matches_oracle_on_arbitrary_costs() {
        // Matrix chains have structured f; arbitrary tabulated costs probe
        // the banded correctness argument harder.
        let mut rng = SmallRng::seed_from_u64(777);
        for n in [5usize, 10, 16, 24] {
            let init: Vec<u64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
            let m = n + 1;
            let f_vals: Vec<u64> = (0..m * m * m).map(|_| rng.gen_range(0..30)).collect();
            let p = TabulatedProblem::new(init, |i, k, j| f_vals[(i * m + k) * m + j]);
            let oracle = solve_sequential(&p);
            let sol = solve(&p, &cfg());
            assert!(sol.w.table_eq(&oracle), "n={n}");
        }
    }

    #[test]
    fn window_ablation_agrees() {
        let p = chain(vec![9, 4, 7, 2, 8, 3, 6, 5, 10, 1, 12, 11]);
        let windowed = solve(&p, &cfg());
        let unwindowed = solve(&p, &cfg().windowed_pebble(false));
        assert!(windowed.w.table_eq(&unwindowed.w));
        // The window strictly reduces pebble work.
        let (_, _, pb_win) = windowed.trace.work_by_op();
        let (_, _, pb_all) = unwindowed.trace.work_by_op();
        assert!(pb_win < pb_all, "windowed {pb_win} vs full {pb_all}");
    }

    #[test]
    fn reduced_does_much_less_square_work_than_dense() {
        let mut rng = SmallRng::seed_from_u64(9);
        let dims: Vec<u64> = (0..=36).map(|_| rng.gen_range(1..40)).collect();
        let p = chain(dims);
        // Full sweeps on both sides: this test compares op work.
        let dense = Solver::new(Algorithm::Sublinear).options(cfg()).solve(&p);
        let red = solve(&p, &cfg());
        assert!(dense.w.table_eq(&red.w));
        let (_, sq_dense, _) = dense.trace.work_by_op();
        let (_, sq_red, _) = red.trace.work_by_op();
        assert!(
            sq_red * 2 < sq_dense,
            "reduced square work {sq_red} not well below dense {sq_dense}"
        );
    }

    #[test]
    fn parallel_equals_sequential_reduced() {
        let mut rng = SmallRng::seed_from_u64(11);
        let dims: Vec<u64> = (0..=20).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let seq = solve(&p, &cfg());
        let par = solve(&p, &cfg().exec(ExecBackend::Parallel));
        assert!(seq.w.table_eq(&par.w));
    }

    #[test]
    fn skip_clean_rows_is_exact_on_random_instances() {
        // Clean-row/pair skipping must not change a single table cell,
        // for every kernel, backend and window setting.
        let mut rng = SmallRng::seed_from_u64(20260728);
        for n in [2usize, 5, 9, 16, 25] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..40)).collect();
            let p = chain(dims);
            let oracle = solve_sequential(&p);
            for windowed in [true, false] {
                let base = solve(&p, &cfg().windowed_pebble(windowed));
                assert!(base.w.table_eq(&oracle), "n={n} windowed={windowed}");
                for (square, exec) in [
                    (SquareStrategy::Auto, ExecBackend::Sequential),
                    (SquareStrategy::Naive, ExecBackend::Sequential),
                    (SquareStrategy::Auto, ExecBackend::Threads(4)),
                ] {
                    let skipping = solve(
                        &p,
                        &cfg()
                            .exec(exec)
                            .windowed_pebble(windowed)
                            .square(square)
                            .skip_clean_rows(true),
                    );
                    assert!(
                        skipping.w.table_eq(&base.w),
                        "n={n} windowed={windowed} {square} {exec}"
                    );
                    // Skipping can only remove candidate work.
                    assert!(
                        skipping.trace.total_candidates <= base.trace.total_candidates,
                        "n={n} windowed={windowed} {square} {exec}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_clean_rows_saves_reduced_work() {
        // Uniform dims converge fast; under the fixed 2*ceil(sqrt(n))
        // schedule the post-convergence iterations must skip nearly
        // everything, so total candidates drop well below the full-sweep
        // figure.
        let p = chain(vec![3u64; 50]); // n = 49, schedule bound 14
        let full = solve(&p, &cfg());
        let skipping = solve(&p, &cfg().skip_clean_rows(true));
        assert!(skipping.w.table_eq(&full.w));
        assert!(
            2 * skipping.trace.total_candidates < full.trace.total_candidates,
            "skip saved too little: {} vs {}",
            skipping.trace.total_candidates,
            full.trace.total_candidates
        );
    }

    #[test]
    fn square_strategies_agree_in_the_solver() {
        let mut rng = SmallRng::seed_from_u64(404);
        let dims: Vec<u64> = (0..=28).map(|_| rng.gen_range(1..60)).collect();
        let p = chain(dims);
        let naive = solve(&p, &cfg().square(SquareStrategy::Naive));
        let auto = solve(&p, &cfg().square(SquareStrategy::Auto));
        assert!(auto.w.table_eq(&naive.w));
        assert_eq!(auto.trace.total_candidates, naive.trace.total_candidates);
    }

    #[test]
    fn band_wider_than_needed_is_harmless() {
        let p = chain(vec![3, 7, 2, 9, 4, 8, 5]);
        let default = solve(&p, &cfg());
        let wide = solve(&p, &cfg().band(Some(100)));
        assert!(default.w.table_eq(&wide.w));
    }
}
