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
//!
//! The engine skips the square rows none of whose nested rows changed
//! since the previous square (after the first iteration), as it does for
//! §2 and §5: such a row would reproduce itself, so it is copied
//! forward. A skipped row still counts the full composition's
//! `C(d+3, 4)` candidates, so the trace and statistics are exactly those
//! of the square that computes every row.

/// The iteration bound for the doubling argument: `2*ceil(log2 n) + 4`
/// moves always reach the fixpoint (tests verify convergence well below
/// this; the constant is generous because activations feed in level by
/// level).
pub fn rytter_schedule(n: usize) -> u64 {
    2 * (usize::BITS - n.next_power_of_two().leading_zeros()) as u64 + 4
}

#[cfg(test)]
mod tests {
    use super::rytter_schedule;
    use crate::exec::ExecBackend;
    use crate::ops::{
        a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_rytter_with, SquareStrategy,
    };
    use crate::problem::{DpProblem, FnProblem};
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
    use crate::tables::{DensePw, PairIndexer, WTable};
    use crate::trace::IterationRecord;
    use crate::weight::Weight;
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

    /// The engine's Rytter solve against a replay through the public
    /// ops that computes every square row (the shape of the benchmark's
    /// replay). The engine copies clean rows forward and counts their
    /// candidates, so every iteration's record and the table bits must be
    /// equal: `u64` and `f64`, Sequential and Threads(2), cold and
    /// warm-started from a solved prefix (the seed the solution store
    /// hands the iterative solvers).
    #[test]
    fn solve_matches_a_replay_that_computes_every_row() {
        fn replay<W: Weight>(
            p: &impl DpProblem<W>,
            exec: &ExecBackend,
            seed: Option<(usize, &WTable<W>)>,
        ) -> (Vec<IterationRecord>, WTable<W>) {
            let n = p.n();
            let mut w = WTable::new(n);
            for i in 0..n {
                w.set(i, i + 1, p.init(i));
            }
            if let Some((m, sw)) = seed {
                for i in 0..m {
                    for j in i + 1..=m {
                        w.set(i, j, sw.get(i, j));
                    }
                }
            }
            let seeded: Option<Vec<bool>> =
                seed.map(|(m, _)| PairIndexer::new(n).pairs().map(|(_, j)| j <= m).collect());
            let mut pw = DensePw::new(n);
            let mut next = DensePw::new(n);
            let mut w_next = w.clone();
            let mut records = Vec::new();
            for iteration in 1..=rytter_schedule(n) {
                let (activate, _) = a_activate_dense_tracked(p, &w, &mut pw, exec);
                let square = a_square_rytter_with(&pw, &mut next, SquareStrategy::Auto, exec);
                std::mem::swap(&mut pw, &mut next);
                let (pebble, _) =
                    a_pebble_dense_scheduled(&pw, &w, &mut w_next, seeded.as_deref(), exec);
                std::mem::swap(&mut w, &mut w_next);
                records.push(IterationRecord {
                    iteration,
                    activate,
                    square,
                    pebble,
                    root_finite: w.root().is_finite_cost(),
                });
                if !activate.changed && !square.changed && !pebble.changed {
                    break;
                }
            }
            (records, w)
        }
        /// Cold and warm solves of `p`, seeded from `prefix`, against the
        /// replay; returns the solves compared.
        fn check<W: Weight>(
            p: &impl DpProblem<W>,
            prefix: &impl DpProblem<W>,
            bits: impl Fn(&W) -> u64,
        ) -> usize {
            let table = |w: &WTable<W>| w.as_slice().iter().map(&bits).collect::<Vec<_>>();
            let solved = solve_sequential(prefix);
            let oracle = solve_sequential(p);
            let mut solves = 0;
            for exec in [ExecBackend::Sequential, ExecBackend::Threads(2)] {
                let opts = SolveOptions::default().exec(exec).record_trace(true);
                for seed in [None, Some((prefix.n(), &solved))] {
                    let sol = crate::job::solve(p, Algorithm::Rytter, &opts, seed);
                    let (records, w) = replay(p, &exec, seed);
                    let at = format!("n={} on {exec}, seed {:?}", p.n(), seed.map(|s| s.0));
                    assert_eq!(sol.trace.per_iteration, records, "records {at}");
                    assert_eq!(table(&sol.w), table(&w), "table {at}");
                    assert!(w.table_eq(&oracle), "oracle {at}");
                    solves += 1;
                }
            }
            solves
        }

        let mut rng = SmallRng::seed_from_u64(32);
        let mut solves = 0;
        for n in [5usize, 9, 17, 24] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..60)).collect();
            let costs: Vec<f64> = (0..=n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    _ => rng.gen_range(0.0..9.0),
                })
                .collect();
            let chain_u64 = |n| FnProblem::new(n, |_| 0u64, |i, k, j| dims[i] * dims[k] * dims[j]);
            let chain_f64 =
                |n| FnProblem::new(n, |_| 0.0, |i, k, j| costs[i] * costs[k] + costs[j]);
            let m = n / 2 + 1;
            solves += check(&chain_u64(n), &chain_u64(m), |&v| v);
            solves += check(&chain_f64(n), &chain_f64(m), |v| v.to_bits());
        }
        assert_eq!(solves, 32);
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
