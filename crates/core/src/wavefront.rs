//! The anti-diagonal ("wavefront") parallel algorithm — reference \[10\].
//!
//! The paper cites two *work-optimal* parallel algorithms: `O(n^2)` time on
//! `O(n)` processors and `O(n)` time on `O(n^2)` processors. Both process
//! the DP table diagonal by diagonal: all cells `(i, i+d)` of diagonal `d`
//! depend only on strictly shorter intervals, so they can be computed
//! simultaneously. This is the practical multicore baseline (experiment
//! E7): `O(n^3)` total work, `O(n)` span when each cell's min is also
//! parallelised.
//!
//! The parallel implementation hands each diagonal's cells to the
//! configured [`ExecBackend`](crate::exec::ExecBackend) and falls back to
//! sequential execution for small diagonals, where the fork-join
//! overhead would dominate.

use crate::problem::DpProblem;
use crate::solver::SolveOptions;
use crate::tables::WTable;
use crate::weight::Weight;

/// Solve recurrence (*) by anti-diagonal sweeps on `opts.exec`,
/// checking `opts.deadline` once per diagonal. Diagonals with fewer
/// candidate evaluations than `opts.wavefront_grain` run sequentially.
/// Returns the table plus whether the sweep ran to completion — `false`
/// means the deadline passed and the table is partial (diagonals past
/// the cancellation point are still infinity).
pub(crate) fn sweep<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    opts: &SolveOptions,
) -> (WTable<W>, bool) {
    let cancel = opts.cancel_token();
    let n = problem.n();
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
    }
    let mut diag: Vec<W> = Vec::with_capacity(n);
    for d in 2..=n {
        if cancel.is_cancelled() {
            return (w, false);
        }
        let cells = n - d + 1;
        let cell_value = |i: usize, w: &WTable<W>| {
            let j = i + d;
            let mut best = W::INFINITY;
            for k in i + 1..j {
                let cand = w.get(i, k).add(w.get(k, j)).add(problem.f(i, k, j));
                best = best.min2(cand);
            }
            best
        };
        if opts.exec.is_parallel() && cells * (d - 1) >= opts.wavefront_grain {
            opts.exec
                .map_collect_into(&mut diag, cells, |i| cell_value(i, &w));
        } else {
            diag.clear();
            diag.extend((0..cells).map(|i| cell_value(i, &w)));
        }
        for (i, &v) in diag.iter().enumerate() {
            w.set(i, i + d, v);
        }
    }
    (w, true)
}

#[cfg(test)]
mod tests {
    use crate::exec::ExecBackend;
    use crate::problem::{DpProblem, FnProblem};
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, SolveOptions, Solver};
    use crate::tables::WTable;

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    fn wavefront(p: &impl DpProblem<u64>, opts: SolveOptions) -> WTable<u64> {
        Solver::new(Algorithm::Wavefront).options(opts).solve(p).w
    }

    #[test]
    fn wavefront_matches_sequential_small() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let seq = solve_sequential(&p);
        let par = wavefront(&p, SolveOptions::default());
        assert!(seq.table_eq(&par));
        assert_eq!(par.root(), 15125);
    }

    #[test]
    fn wavefront_matches_sequential_random() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for n in [2usize, 3, 5, 17, 40, 80] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..64)).collect();
            let p = chain(dims);
            let seq = solve_sequential(&p);
            // Force the parallel path with a zero grain.
            let opts = SolveOptions::default()
                .exec(ExecBackend::Threads(4))
                .wavefront_grain(0);
            assert!(seq.table_eq(&wavefront(&p, opts)), "n={n}");
        }
    }

    #[test]
    fn threshold_zero_and_huge_agree() {
        let p = chain(vec![7, 3, 9, 4, 12, 5, 8, 6, 10]);
        let a = wavefront(&p, SolveOptions::default().wavefront_grain(0));
        let b = wavefront(&p, SolveOptions::default().wavefront_grain(usize::MAX));
        assert!(a.table_eq(&b));
    }
}
