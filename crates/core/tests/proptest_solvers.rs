//! Property-based tests of the solvers on arbitrary non-negative cost
//! structures: exactness against the DP-free brute-force oracle,
//! cross-solver agreement, monotone convergence and witness validity.

use pardp_core::ops::{
    a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_dense_scheduled, SquareStrategy,
};
use pardp_core::prelude::*;
use pardp_core::problem::TabulatedProblem;
use pardp_core::reconstruct::{reconstruct_root, tree_cost};
use pardp_core::seq::brute_force_value;
use pardp_core::tables::{DensePw, PairIndexer, WTable};
use proptest::prelude::*;

/// Strategy: a complete instance (init values + f values) for size n.
fn instance_strategy(n: usize) -> impl Strategy<Value = TabulatedProblem<u64>> {
    let m = n + 1;
    (
        proptest::collection::vec(0u64..100, n),
        proptest::collection::vec(0u64..100, m * m * m),
    )
        .prop_map(move |(init, f)| TabulatedProblem::new(init, |i, k, j| f[(i * m + k) * m + j]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sequential_matches_brute_force(n in 1usize..8, seed in 0u64..u64::MAX) {
        let p = make_instance(n, seed);
        let w = solve_sequential(&p);
        prop_assert_eq!(w.root(), brute_force_value(&p, 0, n));
    }

    #[test]
    fn all_parallel_solvers_match_sequential(p in instance_strategy(9)) {
        let oracle = solve_sequential(&p);
        let seq = SolveOptions::default().exec(ExecBackend::Sequential);
        for algo in [Algorithm::Sublinear, Algorithm::Reduced, Algorithm::Rytter] {
            let sol = Solver::new(algo).options(seq).solve(&p);
            prop_assert!(sol.w.table_eq(&oracle), "{}", algo);
        }
        let wavefront = Solver::new(Algorithm::Wavefront).solve(&p);
        prop_assert!(wavefront.w.table_eq(&oracle));
    }

    #[test]
    fn w_values_decrease_monotonically_and_stay_sound(p in instance_strategy(8)) {
        // Drive the ops manually: every w'(i,j) is non-increasing over
        // iterations and never dips below the true optimum.
        let n = 8usize;
        let truth = solve_sequential(&p);
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        let mut pw_next = DensePw::new(n);
        let mut w_next = w.clone();
        for _ in 0..2 * pardp_pebble::ceil_sqrt(n as u64) {
            let before = w.clone();
            a_activate_dense_tracked(&p, &w, &mut pw, &ExecBackend::Sequential);
            a_square_dense_scheduled(
                &pw,
                &mut pw_next,
                SquareStrategy::Auto,
                None,
                &ExecBackend::Sequential,
            );
            std::mem::swap(&mut pw, &mut pw_next);
            a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &ExecBackend::Sequential);
            std::mem::swap(&mut w, &mut w_next);
            for i in 0..n {
                for j in i + 1..=n {
                    prop_assert!(w.get(i, j) <= before.get(i, j), "monotone ({i},{j})");
                    prop_assert!(w.get(i, j) >= truth.get(i, j), "sound ({i},{j})");
                }
            }
        }
        prop_assert!(w.table_eq(&truth));
    }

    #[test]
    fn reconstruction_witnesses_the_optimum(p in instance_strategy(9)) {
        let w = solve_sequential(&p);
        let tree = reconstruct_root(&p, &w).unwrap();
        prop_assert_eq!(tree_cost(&p, &tree), w.root());
        prop_assert_eq!(tree.n_leaves(), 9);
    }

    #[test]
    fn pair_indexer_roundtrip(n in 1usize..200) {
        let idx = PairIndexer::new(n);
        for a in 0..idx.len() {
            let (i, j) = idx.pair(a);
            prop_assert!(i < j && j <= n);
            prop_assert_eq!(idx.index(i, j), a);
        }
    }

    #[test]
    fn knuth_agrees_on_quadrangle_instances(
        weights in proptest::collection::vec(1u64..50, 2..25)
    ) {
        // f(i,k,j) = interval weight sum: satisfies the quadrangle
        // inequality, so Knuth's speedup must be exact.
        let n = weights.len() - 1;
        let mut prefix = vec![0u64];
        for &x in &weights {
            prefix.push(prefix.last().unwrap() + x);
        }
        let p = FnProblem::new(n, |_| 1u64, move |i, _k, j| prefix[j] - prefix[i]);
        let full = solve_sequential(&p);
        let fast = solve_knuth(&p);
        prop_assert!(full.table_eq(&fast));
    }

    #[test]
    fn termination_policies_agree(p in instance_strategy(8)) {
        let sublinear = |term| {
            Solver::new(Algorithm::Sublinear)
                .options(SolveOptions::default().exec(ExecBackend::Sequential).termination(term))
                .solve(&p)
        };
        let fixed = sublinear(Termination::FixedSqrtN);
        for term in [Termination::Fixpoint, Termination::WStableTwice] {
            let sol = sublinear(term);
            prop_assert!(sol.w.table_eq(&fixed.w));
            prop_assert!(sol.trace.iterations <= fixed.trace.iterations);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The tiled wavefront is `==` to the sequential oracle over the
    // whole flat table, so a mirror cell left in the lower triangle
    // fails. Every n up to three full tiles plus two, and a few larger
    // ones, cover partial last tiles and every tile edge the rule picks,
    // on each backend. Float tables are compared bit for bit. Steps
    // forced onto the pool or inline are `wavefront::tests`' to check.
    // The wire families run `SpecProblem`'s `split_min` override, the
    // closures the default fold over `f`; the oracle calls `f` per
    // candidate.
    #[test]
    fn wavefront_tables_equal_the_oracle_across_tile_edges(seed in 0u64..u64::MAX) {
        let edge = pardp_core::wavefront::tile_edge(1 << 20, 1);
        for n in (1..=3 * edge + 2).chain([63, 64, 100, 129]) {
            let (ints, floats) = wavefront_instances(n, seed);
            let int_oracle = solve_sequential(&ints);
            let float_oracle = solve_sequential(&floats);
            let float_bits =
                |w: &WTable<f64>| w.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let wire: Vec<_> = wire_instances(n, seed)
                .into_iter()
                .map(|p| {
                    let oracle = solve_sequential(&p);
                    (p, oracle)
                })
                .collect();
            for exec in [ExecBackend::Sequential, ExecBackend::Parallel, ExecBackend::Threads(3)] {
                let wavefront = Solver::new(Algorithm::Wavefront)
                    .options(SolveOptions::default().exec(exec));
                prop_assert!(wavefront.solve(&ints).w == int_oracle, "u64 n={} {}", n, exec);
                prop_assert!(
                    float_bits(&wavefront.solve(&floats).w) == float_bits(&float_oracle),
                    "f64 n={} {}", n, exec
                );
                for (p, oracle) in &wire {
                    prop_assert!(wavefront.solve(p).w == *oracle, "{} n={} {}", p.name(), n, exec);
                }
            }
        }
    }
}

/// Deterministic instance from a seed (cheaper than a full vec strategy
/// for the brute-force comparison, where n varies).
fn make_instance(n: usize, seed: u64) -> TabulatedProblem<u64> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = n + 1;
    let init: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let f: Vec<u64> = (0..m * m * m).map(|_| rng.gen_range(0..100)).collect();
    TabulatedProblem::new(init, |i, k, j| f[(i * m + k) * m + j])
}

/// A seeded instance of size `n` of every wire family whose shape rule
/// admits `n` (obst and polygon need `n >= 2`), values drawn from
/// `1..=100`.
fn wire_instances(n: usize, seed: u64) -> Vec<SpecProblem> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed ^ n as u64);
    let mut values =
        |len: usize| -> Vec<u64> { (0..len).map(|_| rng.gen_range(1..=100)).collect() };
    let mut specs = vec![
        ProblemSpec::chain(values(n + 1)),
        ProblemSpec::merge(values(n)),
    ];
    if n >= 2 {
        specs.push(ProblemSpec::obst(values(n - 1), values(n)));
        specs.push(ProblemSpec::polygon(values(n + 1)));
    }
    specs.into_iter().map(|s| s.unwrap().build()).collect()
}

/// A `u64` and an `f64` instance of size `n` from one seed, with costs
/// hashed from `(i, k, j)`. The float costs have fractional parts, so a
/// changed reduction order would show in the bits.
fn wavefront_instances(n: usize, seed: u64) -> (impl DpProblem<u64>, impl DpProblem<f64>) {
    let cost = move |i: usize, k: usize, j: usize| {
        let mut h = seed ^ ((i as u64) << 42 | (k as u64) << 21 | j as u64);
        h = (h ^ (h >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h ^ (h >> 29)) % 1000
    };
    (
        FnProblem::new(n, move |i| cost(i, i, i), cost),
        FnProblem::new(
            n,
            move |i| cost(i, i, i) as f64 / 7.0,
            move |i, k, j| cost(i, k, j) as f64 / 7.0,
        ),
    )
}
