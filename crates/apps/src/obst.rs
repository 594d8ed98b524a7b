//! Optimal binary search trees (Knuth 1971, the paper's reference \[5\]).
//!
//! Keys `k_1 < ... < k_m` with access frequencies `p_1 .. p_m`, and dummy
//! keys (failure intervals) `d_0 .. d_m` with frequencies `q_0 .. q_m`.
//! The cost of a BST is `sum p_t (depth(k_t) + 1) + sum q_t (depth(d_t) + 1)`
//! — CLRS's expected search cost, scaled to integers here for exactness.
//!
//! ## Mapping to recurrence (*)
//!
//! A BST over `m` keys *is* a full binary tree with `m + 1` leaves (the
//! dummies), i.e. a parenthesization of `n = m + 1` objects. Interval
//! `(i, j)` covers dummies `d_i .. d_{j-1}` and keys `k_{i+1} .. k_{j-1}`;
//! the internal node `(i,j) -> (i,k), (k,j)` is the BST node holding key
//! `k_k`. With
//!
//! * `init(i) = q_i` (a lone dummy), and
//! * `f(i,k,j) = W(i,j) = p_{i+1} + .. + p_{j-1} + q_i + .. + q_{j-1}`
//!   (independent of `k` — recurrence (*) allows that),
//!
//! each element's frequency is charged once per tree level it appears in,
//! which telescopes to exactly the expected search cost. Note `f` costs
//! `O(1)` via prefix sums.

use pardp_core::prelude::*;

/// An optimal-BST instance with integer frequencies.
#[derive(Debug, Clone)]
pub struct OptimalBst {
    /// Key frequencies `p_1 .. p_m` (index 0 unused).
    p: Vec<u64>,
    /// Dummy frequencies `q_0 .. q_m`.
    q: Vec<u64>,
    pub(crate) spec: SpecProblem,
}

/// A constructed binary search tree over key indices `1..=m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BstNode {
    /// Dummy leaf `d_i`.
    Dummy(usize),
    /// Internal node holding key `k` with subtrees.
    Key {
        /// 1-based key index.
        key: usize,
        /// Left subtree.
        left: Box<BstNode>,
        /// Right subtree.
        right: Box<BstNode>,
    },
}

impl OptimalBst {
    /// Build from key frequencies `p_1..p_m` and dummy frequencies
    /// `q_0..q_m`. Accepts exactly what [`ProblemSpec::obst`] accepts:
    /// at least one key, `q.len() == p.len() + 1`, and `2n` times the
    /// frequency total below the `u64` weight infinity. Panics with its
    /// error text otherwise.
    pub fn new(p: Vec<u64>, q: Vec<u64>) -> Self {
        let spec = crate::build(ProblemSpec::obst(p.clone(), q.clone()));
        OptimalBst { p, q, spec }
    }

    /// The *alphabetic tree* special case: only leaf (dummy) weights, no
    /// internal-key weights — the optimal alphabetic binary tree over
    /// `weights.len()` ordered items (Hu–Tucker's problem, solved here by
    /// the general (*) machinery in `O(n^3)` / parallel sublinear time).
    pub fn alphabetic(weights: Vec<u64>) -> Self {
        assert!(weights.len() >= 2, "need at least two items");
        let keys = weights.len() - 1;
        Self::new(vec![0; keys], weights)
    }

    /// Number of keys `m`.
    pub fn n_keys(&self) -> usize {
        self.p.len()
    }

    /// Interval weight `W(i,j)` (see module docs).
    #[inline]
    pub fn interval_weight(&self, i: usize, j: usize) -> u64 {
        self.spec.f(i, i + 1, j) // `f` does not read the split `k`
    }

    /// Solve (via the [`Solver`] façade) and return
    /// `(expected cost, tree)`.
    pub fn optimal_tree(&self) -> (u64, BstNode) {
        let sol = Solver::new(Algorithm::Sequential).solve(self);
        let t = sol.tree(self).expect("solved table");
        (sol.value(), Self::to_bst(&t))
    }

    /// Convert a parenthesization tree into the BST it encodes.
    pub fn to_bst(tree: &ParenTree) -> BstNode {
        match tree {
            ParenTree::Leaf { i } => BstNode::Dummy(*i),
            ParenTree::Node { k, left, right, .. } => BstNode::Key {
                key: *k,
                left: Box::new(Self::to_bst(left)),
                right: Box::new(Self::to_bst(right)),
            },
        }
    }

    /// Expected search cost of an explicit BST (independent evaluation):
    /// `sum p_t (depth_t + 1) + sum q_t (depth_t + 1)` with the root at
    /// depth 0.
    pub fn bst_cost(&self, tree: &BstNode) -> u64 {
        fn rec(bst: &OptimalBst, node: &BstNode, depth: u64) -> u64 {
            match node {
                BstNode::Dummy(i) => bst.q[*i] * (depth + 1),
                BstNode::Key { key, left, right } => {
                    bst.p[*key - 1] * (depth + 1)
                        + rec(bst, left, depth + 1)
                        + rec(bst, right, depth + 1)
                }
            }
        }
        rec(self, tree, 0)
    }

    /// In-order key sequence of a BST (must be `1..=m` for a valid tree).
    pub fn inorder_keys(tree: &BstNode) -> Vec<usize> {
        fn rec(node: &BstNode, out: &mut Vec<usize>) {
            if let BstNode::Key { key, left, right } = node {
                rec(left, out);
                out.push(*key);
                rec(right, out);
            }
        }
        let mut out = Vec::new();
        rec(tree, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Direct CLRS 15.5 `OPTIMAL-BST` implementation as an oracle.
    fn clrs_obst(p: &[u64], q: &[u64]) -> u64 {
        let m = p.len();
        // e[i][j]: cost for keys i..=j (1-based), i from 1..=m+1, j from 0..=m.
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
                let mut best = u64::MAX;
                for r in i..=j {
                    let cand = e[i][r - 1] + e[r + 1][j] + w[i][j];
                    best = best.min(cand);
                }
                e[i][j] = best;
            }
        }
        e[1][m]
    }

    /// CLRS Figure 15.10 instance (probabilities x100).
    fn clrs_instance() -> OptimalBst {
        OptimalBst::new(vec![15, 10, 5, 10, 20], vec![5, 10, 5, 5, 5, 10])
    }

    #[test]
    fn clrs_example_cost_is_275() {
        let bst = clrs_instance();
        let w = solve_sequential(&bst);
        assert_eq!(w.root(), 275); // 2.75 x 100
        assert_eq!(clrs_obst(&[15, 10, 5, 10, 20], &[5, 10, 5, 5, 5, 10]), 275);
    }

    #[test]
    fn clrs_example_structure() {
        // CLRS optimal tree: root k2, k1 left; right subtree k5 with k4
        // (holding k3) below.
        let bst = clrs_instance();
        let (cost, tree) = bst.optimal_tree();
        assert_eq!(cost, 275);
        assert_eq!(bst.bst_cost(&tree), 275);
        if let BstNode::Key { key, .. } = &tree {
            assert_eq!(*key, 2);
        } else {
            panic!("root must be a key node");
        }
        assert_eq!(OptimalBst::inorder_keys(&tree), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn mapping_matches_clrs_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(404);
        for m in 1..=18usize {
            let p: Vec<u64> = (0..m).map(|_| rng.gen_range(0..30)).collect();
            let q: Vec<u64> = (0..=m).map(|_| rng.gen_range(0..30)).collect();
            let bst = OptimalBst::new(p.clone(), q.clone());
            assert_eq!(solve_sequential(&bst).root(), clrs_obst(&p, &q), "m={m}");
        }
    }

    #[test]
    fn knuth_speedup_is_valid_for_obst() {
        // OBST satisfies the quadrangle inequality, so the O(n^2) Knuth
        // solver must agree with the full DP.
        let mut rng = SmallRng::seed_from_u64(405);
        for m in 1..=25usize {
            let p: Vec<u64> = (0..m).map(|_| rng.gen_range(0..30)).collect();
            let q: Vec<u64> = (0..=m).map(|_| rng.gen_range(0..30)).collect();
            let bst = OptimalBst::new(p, q);
            let full = solve_sequential(&bst);
            let fast = solve_knuth(&bst);
            assert!(full.table_eq(&fast), "m={m}");
        }
    }

    #[test]
    fn parallel_solvers_agree() {
        let mut rng = SmallRng::seed_from_u64(406);
        for m in [1usize, 3, 7, 12] {
            let p: Vec<u64> = (0..m).map(|_| rng.gen_range(0..30)).collect();
            let q: Vec<u64> = (0..=m).map(|_| rng.gen_range(0..30)).collect();
            let bst = OptimalBst::new(p, q);
            let oracle = solve_sequential(&bst).root();
            let opts = SolveOptions::default().exec(ExecBackend::Sequential);
            for algo in [Algorithm::Sublinear, Algorithm::Reduced] {
                let value = Solver::new(algo).options(opts).solve(&bst).value();
                assert_eq!(value, oracle, "{algo} m={m}");
            }
        }
    }

    #[test]
    fn bst_cost_of_any_reconstruction_matches_table() {
        let mut rng = SmallRng::seed_from_u64(407);
        for m in 1..=15usize {
            let p: Vec<u64> = (0..m).map(|_| rng.gen_range(1..25)).collect();
            let q: Vec<u64> = (0..=m).map(|_| rng.gen_range(1..25)).collect();
            let bst = OptimalBst::new(p, q);
            let (cost, tree) = bst.optimal_tree();
            assert_eq!(bst.bst_cost(&tree), cost, "m={m}");
            assert_eq!(OptimalBst::inorder_keys(&tree), (1..=m).collect::<Vec<_>>());
        }
    }

    #[test]
    fn alphabetic_tree_equal_weights_is_balanced() {
        // 8 equal-weight items: the optimal alphabetic tree is complete,
        // every leaf at depth 3 -> cost = 8 * w * (3 + 1).
        let t = OptimalBst::alphabetic(vec![5; 8]);
        let (cost, _) = t.optimal_tree();
        assert_eq!(cost, 8 * 5 * 4);
    }

    #[test]
    fn alphabetic_tree_prefers_shallow_heavy_leaves() {
        // One huge item among tiny ones must sit near the root.
        let t = OptimalBst::alphabetic(vec![1, 1, 1, 100]);
        let (cost, tree) = t.optimal_tree();
        // Heavy leaf at depth <= 2: cost <= 100*3 + small terms.
        assert!(cost <= 100 * 3 + 3 * 4, "cost={cost}");
        let _ = tree;
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn costs_past_the_weight_infinity_rejected() {
        // The frequency total does not even fit in a u64.
        OptimalBst::new(vec![u64::MAX / 2; 2], vec![1; 3]);
    }

    #[test]
    fn single_key_tree() {
        let bst = OptimalBst::new(vec![10], vec![3, 4]);
        let (cost, tree) = bst.optimal_tree();
        // Key at depth 0 (charge 10), both dummies at depth 1 (charge 2x).
        assert_eq!(cost, 10 + 2 * 3 + 2 * 4);
        assert!(matches!(tree, BstNode::Key { key: 1, .. }));
    }
}
