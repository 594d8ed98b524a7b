//! The sublinear algorithm of §2: `2 * ceil(sqrt(n))` iterations of
//! (`a-activate`, `a-square`, `a-pebble`) over tables that hold every
//! nested gap.
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
//!
//! The tables are the §5 width-major [`BandedPw`](crate::tables::BandedPw)
//! at band `n`, which stores exactly the `C(n+3, 4)` nested gaps of
//! [`DensePw`](crate::tables::DensePw) and leaves the §5 composition
//! windows empty. So the banded activate and tiled square compute the
//! §2 ops, and the pebble is the banded one without the §5 direct
//! decompositions, walking the stored gaps in the dense storage order.
//! Tables, [`OpStats`](crate::ops::OpStats), traces and `f64` bits equal
//! those of the dense ops in [`crate::ops`] (`a_*_dense_*`), which stay
//! as the reference.

#[cfg(test)]
mod tests {
    use crate::exec::ExecBackend;
    use crate::ops::{
        a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_dense_scheduled,
        SquareStrategy,
    };
    use crate::problem::{DpProblem, FnProblem};
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
    use crate::tables::{DensePw, PairIndexer, WTable};
    use crate::trace::{IterationRecord, StopReason, Termination};
    use crate::weight::Weight;
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

    /// The engine's §2 solve, which runs the width-major ops at full band,
    /// against a replay through the public dense ops with the engine's
    /// schedule (the shape of the benchmark's replay): every iteration's
    /// record and the table bits must be equal. `u64` and `f64` with
    /// signed zeros, Sequential and Threads(2), `skip_clean_rows` on and
    /// off, cold and warm-started from a solved prefix, under the default
    /// fixed schedule.
    #[test]
    fn solve_matches_a_replay_through_the_dense_ops() {
        fn replay<W: Weight>(
            p: &impl DpProblem<W>,
            opts: &SolveOptions,
            seed: Option<(usize, &WTable<W>)>,
        ) -> (Vec<IterationRecord>, WTable<W>) {
            let (n, exec) = (p.n(), &opts.exec);
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
            let idx = PairIndexer::new(n);
            let dim = idx.len();
            let seeded: Vec<bool> = idx
                .pairs()
                .map(|(_, j)| seed.is_some_and(|(m, _)| j <= m))
                .collect();
            // Rows or pairs none of whose nested rows or pairs `dirty`
            // marks, when the engine schedules this iteration.
            let clean = |iteration: u64, dirty: &dyn Fn(usize) -> bool| -> Vec<bool> {
                let mut mask: Vec<bool> = (0..dim).map(dirty).collect();
                idx.propagate_nested(&mut mask);
                let scheduled = opts.skip_clean_rows && iteration > 1;
                mask.into_iter().map(|d| scheduled && !d).collect()
            };
            let mut pw = DensePw::new(n);
            let mut next = DensePw::new(n);
            let mut w_next = w.clone();
            let (mut square_rows, mut w_pairs) = (vec![true; dim], vec![true; dim]);
            let mut records = Vec::new();
            for iteration in 1..=crate::schedule_bound(n) {
                let (activate, act_rows) = a_activate_dense_tracked(p, &w, &mut pw, exec);
                let sq_skip = clean(iteration, &|a| act_rows[a] || square_rows[a]);
                let (square, rows) = a_square_dense_scheduled(
                    &pw,
                    &mut next,
                    SquareStrategy::Auto,
                    Some(&sq_skip),
                    exec,
                );
                square_rows = rows;
                std::mem::swap(&mut pw, &mut next);
                let stale = clean(iteration, &|a| act_rows[a] || square_rows[a] || w_pairs[a]);
                let pb_skip: Vec<bool> = stale.iter().zip(&seeded).map(|(&c, &s)| c || s).collect();
                let (pebble, pairs) =
                    a_pebble_dense_scheduled(&pw, &w, &mut w_next, Some(&pb_skip), exec);
                w_pairs = pairs;
                std::mem::swap(&mut w, &mut w_next);
                records.push(IterationRecord {
                    iteration,
                    activate,
                    square,
                    pebble,
                    root_finite: w.root().is_finite_cost(),
                });
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
                for skip_clean_rows in [true, false] {
                    let opts = SolveOptions::default()
                        .exec(exec)
                        .skip_clean_rows(skip_clean_rows)
                        .record_trace(true);
                    for seed in [None, Some((prefix.n(), &solved))] {
                        let sol = crate::job::solve(p, Algorithm::Sublinear, &opts, seed);
                        let (records, w) = replay(p, &opts, seed);
                        let at = format!(
                            "n={} on {exec}, skip_clean_rows {skip_clean_rows}, seed {:?}",
                            p.n(),
                            seed.map(|s| s.0)
                        );
                        assert_eq!(sol.trace.per_iteration, records, "records {at}");
                        assert_eq!(table(&sol.w), table(&w), "table {at}");
                        assert!(w.table_eq(&oracle), "oracle {at}");
                        solves += 1;
                    }
                }
            }
            solves
        }

        let mut rng = SmallRng::seed_from_u64(33);
        let mut solves = 0;
        for n in [5usize, 9, 14, 23] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..60)).collect();
            // A quarter -0.0 and a quarter +0.0, so zero-cost ties meet
            // with both signs.
            let costs: Vec<f64> = (0..=n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.gen_range(0.0..9.0),
                })
                .collect();
            let chain_u64 = |n| FnProblem::new(n, |_| 0u64, |i, k, j| dims[i] * dims[k] * dims[j]);
            let chain_f64 = |n| {
                FnProblem::new(
                    n,
                    |i| if i % 2 == 0 { -0.0 } else { 0.0 },
                    |i, k, j| costs[i] * costs[k] + costs[j],
                )
            };
            let m = n / 2 + 1;
            solves += check(&chain_u64(n), &chain_u64(m), |&v| v);
            solves += check(&chain_f64(n), &chain_f64(m), |v| v.to_bits());
        }
        assert_eq!(solves, 64);
    }

    #[test]
    fn n_equals_one_is_trivial() {
        let p = FnProblem::new(1, |_| 5u64, |_, _, _| 0u64);
        let sol = solve(&p, &cfg(Termination::FixedSqrtN));
        assert_eq!(sol.value(), 5);
    }
}
