//! Property-based tests of the application mappings: each application's
//! recurrence-(*) encoding must agree with an independent direct
//! formulation on arbitrary inputs.

use pardp_apps::{MatrixChain, OptimalBst, WeightedPolygon};
use pardp_core::prelude::*;
use pardp_core::seq::brute_force_value;
use proptest::prelude::*;

/// Direct CLRS `OPTIMAL-BST` oracle.
fn clrs_obst(p: &[u64], q: &[u64]) -> u64 {
    let m = p.len();
    let mut e = vec![vec![0u64; m + 1]; m + 2];
    let mut w = vec![vec![0u64; m + 1]; m + 2];
    for i in 1..=m + 1 {
        e[i][i - 1] = q[i - 1];
        w[i][i - 1] = q[i - 1];
    }
    for l in 1..=m {
        for i in 1..=m - l + 1 {
            let j = i + l - 1;
            w[i][j] = w[i][j - 1] + p[j - 1] + q[j];
            e[i][j] = (i..=j)
                .map(|r| e[i][r - 1] + e[r + 1][j] + w[i][j])
                .min()
                .unwrap();
        }
    }
    e[1][m]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_chain_matches_brute_force(
        dims in proptest::collection::vec(1u64..30, 2..10)
    ) {
        let n = dims.len() - 1;
        let mc = MatrixChain::new(dims);
        prop_assert_eq!(solve_sequential(&mc).root(), brute_force_value(&mc, 0, n));
    }

    #[test]
    fn matrix_chain_witness_is_consistent(
        dims in proptest::collection::vec(1u64..40, 2..14)
    ) {
        let mc = MatrixChain::new(dims);
        let (cost, tree) = mc.optimal_order();
        prop_assert_eq!(mc.parenthesization_cost(&tree), cost);
        prop_assert_eq!(tree.n_leaves(), mc.n_matrices());
    }

    #[test]
    fn obst_mapping_matches_clrs(
        p in proptest::collection::vec(0u64..40, 1..12),
        extra in 0u64..40,
    ) {
        // q needs exactly p.len()+1 entries; derive deterministically.
        let q: Vec<u64> = (0..=p.len() as u64).map(|t| (t * 7 + extra) % 40).collect();
        let bst = OptimalBst::new(p.clone(), q.clone());
        prop_assert_eq!(solve_sequential(&bst).root(), clrs_obst(&p, &q));
    }

    #[test]
    fn obst_tree_cost_matches_table(
        p in proptest::collection::vec(1u64..30, 1..12),
        extra in 0u64..30,
    ) {
        let q: Vec<u64> = (0..=p.len() as u64).map(|t| (t * 11 + extra) % 30 + 1).collect();
        let bst = OptimalBst::new(p.clone(), q);
        let (cost, tree) = bst.optimal_tree();
        prop_assert_eq!(bst.bst_cost(&tree), cost);
        prop_assert_eq!(
            OptimalBst::inorder_keys(&tree),
            (1..=p.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn triangulation_diagonals_are_structurally_valid(
        weights in proptest::collection::vec(1u64..25, 3..14)
    ) {
        let m = weights.len();
        let poly = WeightedPolygon::new(weights);
        let (cost, diags) = poly.optimal_triangulation();
        prop_assert_eq!(diags.len(), m - 3);
        // Diagonals must be pairwise non-crossing: chords (a,b) and (c,d)
        // cross iff exactly one of c, d lies strictly inside (a, b)
        // (shared endpoints do not cross).
        for (x, &(a, b)) in diags.iter().enumerate() {
            for &(c, d) in &diags[x + 1..] {
                if a == c || a == d || b == c || b == d {
                    continue; // sharing an endpoint is not a crossing
                }
                let inside = |v: usize| a < v && v < b;
                prop_assert!(
                    !(inside(c) ^ inside(d)),
                    "crossing: ({a},{b}) x ({c},{d})"
                );
            }
        }
        prop_assert!(cost > 0 || m == 3);
    }

    #[test]
    fn polygon_and_chain_are_isomorphic(
        weights in proptest::collection::vec(1u64..30, 2..12)
    ) {
        // Same numbers as dims: identical f, identical init — identical
        // tables.
        let poly_weights = weights.clone();
        let mc = MatrixChain::new(weights);
        if poly_weights.len() >= 3 {
            let poly = WeightedPolygon::new(poly_weights);
            prop_assert_eq!(solve_sequential(&mc).root(), solve_sequential(&poly).root());
        }
    }

    #[test]
    fn parallel_solver_exact_on_all_apps(
        dims in proptest::collection::vec(1u64..30, 2..11)
    ) {
        let mc = MatrixChain::new(dims);
        let sol = Solver::new(Algorithm::Sublinear)
            .options(SolveOptions::default().exec(ExecBackend::Sequential))
            .solve(&mc);
        prop_assert_eq!(sol.value(), solve_sequential(&mc).root());
    }
}
