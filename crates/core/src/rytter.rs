//! The baseline of Rytter \[8\]: `O(log^2 n)` time, `O(n^6 / log n)`
//! processors.
//!
//! Same tables, same `a-activate` and `a-pebble`; the difference is the
//! square, which composes partial trees through **every** intermediate gap
//! (a full masked min-plus matrix square) instead of only endpoint-sharing
//! gaps. Pointer doubling over full compositions pebbles any optimal tree
//! in `O(log n)` moves, so the iteration count drops from `2*ceil(sqrt n)`
//! to logarithmic — at the price of `Theta(n^6)` work per iteration, the
//! gap the paper's restricted square closes to `O(n^5)` (§2) and §5
//! further to `O(n^3.5)`.
//!
//! Run it as [`Algorithm::Rytter`](crate::solver::Algorithm::Rytter)
//! through [`Solver`](crate::solver::Solver). It stops at the exact
//! fixpoint under every [`Termination`](crate::trace::Termination),
//! within [`rytter_schedule`] iterations; the loop is the crate's one
//! iteration engine, shared with §2 and §5.

/// The iteration bound for the doubling argument: `2*ceil(log2 n) + 4`
/// moves always reach the fixpoint (tests verify convergence well below
/// this; the constant is generous because activations feed in level by
/// level).
pub fn rytter_schedule(n: usize) -> u64 {
    2 * (usize::BITS - n.next_power_of_two().leading_zeros()) as u64 + 4
}

#[cfg(test)]
mod tests {
    use crate::exec::ExecBackend;
    use crate::problem::{DpProblem, FnProblem};
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    fn cfg() -> SolveOptions {
        SolveOptions::default()
            .exec(ExecBackend::Sequential)
            .record_trace(true)
    }

    fn solve<P: DpProblem<u64>>(p: &P, opts: &SolveOptions) -> Solution<u64> {
        Solver::new(Algorithm::Rytter).options(*opts).solve(p)
    }

    #[test]
    fn rytter_solves_clrs_chain() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let sol = solve(&p, &cfg());
        assert_eq!(sol.value(), 15125);
        assert!(sol.w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn rytter_matches_oracle_and_converges_logarithmically() {
        let mut rng = SmallRng::seed_from_u64(2025);
        for n in [2usize, 4, 8, 12, 17, 24] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..50)).collect();
            let p = chain(dims);
            let oracle = solve_sequential(&p);
            let sol = solve(&p, &cfg());
            assert!(sol.w.table_eq(&oracle), "n={n}");
            let log = (n as f64).log2().ceil() as u64;
            assert!(
                sol.trace.iterations <= 2 * log + 4,
                "n={n}: {} iterations > 2 log + 4",
                sol.trace.iterations
            );
        }
    }

    #[test]
    fn rytter_work_dwarfs_everything() {
        let mut rng = SmallRng::seed_from_u64(3);
        let dims: Vec<u64> = (0..=20).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let ryt = solve(&p, &cfg());
        let sub = Solver::new(Algorithm::Sublinear).options(cfg()).solve(&p);
        // Even though Rytter runs fewer iterations, its per-iteration work
        // is far larger — the processor gap the paper closes.
        assert!(ryt.trace.iterations < sub.trace.iterations);
        let ryt_per_iter = ryt.trace.total_candidates / ryt.trace.iterations;
        let sub_per_iter = sub.trace.total_candidates / sub.trace.iterations;
        assert!(
            ryt_per_iter > 2 * sub_per_iter,
            "rytter {ryt_per_iter}/iter vs sublinear {sub_per_iter}/iter"
        );
    }

    #[test]
    fn parallel_equals_sequential_rytter() {
        let mut rng = SmallRng::seed_from_u64(6);
        let dims: Vec<u64> = (0..=14).map(|_| rng.gen_range(1..30)).collect();
        let p = chain(dims);
        let seq = solve(&p, &cfg());
        let par = solve(&p, &cfg().exec(ExecBackend::Parallel));
        assert!(seq.w.table_eq(&par.w));
    }
}
