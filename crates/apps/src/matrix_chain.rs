//! Optimal matrix-chain multiplication order.
//!
//! Matrices `A_1 .. A_n` with `A_t` of dimensions `d_{t-1} x d_t`.
//! Interval `(i, j)` is the product `A_{i+1} ... A_j`; multiplying the two
//! halves split at `k` costs `d_i * d_k * d_j` scalar multiplications:
//! recurrence (*) with `init(i) = 0` and `f(i,k,j) = d_i d_k d_j`.

use pardp_core::prelude::*;

/// A matrix-chain instance, defined by the `n + 1` dimensions.
#[derive(Debug, Clone)]
pub struct MatrixChain {
    dims: Vec<u64>,
    pub(crate) spec: SpecProblem,
}

impl MatrixChain {
    /// Build from dimensions `d_0 .. d_n` (so `n = dims.len() - 1`
    /// matrices). Accepts exactly what [`ProblemSpec::chain`] accepts:
    /// at least two dimensions, all positive, with `2n · (largest)³`
    /// below the `u64` weight infinity. Panics with its error text
    /// otherwise.
    pub fn new(dims: Vec<u64>) -> Self {
        let spec = crate::build(ProblemSpec::chain(dims.clone()));
        MatrixChain { dims, spec }
    }

    /// The dimension vector.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Number of matrices.
    pub fn n_matrices(&self) -> usize {
        self.dims.len() - 1
    }

    /// Scalar-multiplication count of an explicit parenthesization
    /// (independent evaluation used by tests and examples).
    pub fn parenthesization_cost(&self, tree: &ParenTree) -> u64 {
        tree_cost(self, tree)
    }

    /// Solve (sequentially, via the [`Solver`] façade) and return
    /// `(cost, optimal parenthesization)`.
    pub fn optimal_order(&self) -> (u64, ParenTree) {
        let sol = Solver::new(Algorithm::Sequential).solve(self);
        let t = sol.tree(self).expect("solved table");
        (sol.value(), t)
    }

    /// Render a parenthesization over matrix names `A1 .. An`.
    pub fn render(&self, tree: &ParenTree) -> String {
        let names: Vec<String> = (1..=self.n_matrices()).map(|t| format!("A{t}")).collect();
        tree.render(&names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_core::seq::brute_force_value;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clrs_example() {
        let mc = MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25]);
        let (cost, tree) = mc.optimal_order();
        assert_eq!(cost, 15125);
        assert_eq!(mc.render(&tree), "((A1 (A2 A3)) ((A4 A5) A6))");
        assert_eq!(mc.parenthesization_cost(&tree), 15125);
    }

    #[test]
    fn two_matrices_have_unique_order() {
        let mc = MatrixChain::new(vec![10, 20, 30]);
        let (cost, tree) = mc.optimal_order();
        assert_eq!(cost, 10 * 20 * 30);
        assert_eq!(mc.render(&tree), "(A1 A2)");
    }

    #[test]
    fn single_matrix_costs_nothing() {
        let mc = MatrixChain::new(vec![5, 7]);
        let (cost, _) = mc.optimal_order();
        assert_eq!(cost, 0);
    }

    #[test]
    fn associativity_can_matter_enormously() {
        // (A (B C)) vs ((A B) C) with dims 1x100, 100x1, 1x100.
        let mc = MatrixChain::new(vec![1, 100, 1, 100]);
        let (cost, tree) = mc.optimal_order();
        assert_eq!(cost, 100 + 100); // (A1 A2) then (· A3): 1*100*1 + 1*1*100
        assert_eq!(mc.render(&tree), "((A1 A2) A3)");
    }

    #[test]
    fn sublinear_solver_agrees_on_random_chains() {
        let mut rng = SmallRng::seed_from_u64(1);
        for n in [1usize, 2, 5, 9, 15] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..64)).collect();
            let mc = MatrixChain::new(dims);
            let seq = solve_sequential(&mc).root();
            let opts = SolveOptions::default().exec(ExecBackend::Sequential);
            for algo in [Algorithm::Sublinear, Algorithm::Reduced] {
                let value = Solver::new(algo).options(opts).solve(&mc).value();
                assert_eq!(value, seq, "{algo} n={n}");
            }
        }
    }

    #[test]
    fn matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(2);
        for n in 1..=8usize {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..20)).collect();
            let mc = MatrixChain::new(dims);
            assert_eq!(solve_sequential(&mc).root(), brute_force_value(&mc, 0, n));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        MatrixChain::new(vec![3, 0, 5]);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn costs_past_the_weight_infinity_rejected() {
        // Every product is 2^66: it would wrap to 0 in a release build.
        MatrixChain::new(vec![1 << 22; 3]);
    }
}
