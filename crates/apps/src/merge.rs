//! Optimal order for merging adjacent sorted runs (a.k.a. the file
//! merging / stone merging problem) — a fourth recurrence-(*) instance
//! from the paper's "optimal control, industrial engineering" motivation.
//!
//! Runs `r_0 .. r_{n-1}` with lengths `len_i` must be merged pairwise
//! (only adjacent merges preserve sortedness of the concatenation).
//! Merging a group costs the total length of the group, so
//!
//! ```text
//! c(i,j) = min_{i<k<j} c(i,k) + c(k,j) + S(i,j),   c(i,i+1) = 0,
//! ```
//!
//! where `S(i,j) = len_i + .. + len_{j-1}` — recurrence (*) with a
//! `k`-independent `f`, like the optimal BST. Unlike OBST, all leaves
//! start at cost 0, which makes this the integer-weight *alphabetic tree*
//! problem in disguise (Hu–Tucker / garsia–Wachs territory; here solved
//! by the general (*) machinery).

use pardp_core::prelude::*;

/// An optimal adjacent-merge instance.
#[derive(Debug, Clone)]
pub struct MergeOrder {
    lengths: Vec<u64>,
    pub(crate) spec: SpecProblem,
}

impl MergeOrder {
    /// Build from run lengths. Accepts exactly what
    /// [`ProblemSpec::merge`] accepts: at least one run, with `2n` times
    /// the total length below the `u64` weight infinity. Panics with its
    /// error text otherwise.
    pub fn new(lengths: Vec<u64>) -> Self {
        let spec = crate::build(ProblemSpec::merge(lengths.clone()));
        MergeOrder { lengths, spec }
    }

    /// The run lengths.
    pub fn lengths(&self) -> &[u64] {
        &self.lengths
    }

    /// Total length of runs `i..j` (the merge cost of interval `(i,j)`).
    #[inline]
    pub fn span(&self, i: usize, j: usize) -> u64 {
        self.spec.f(i, i + 1, j) // `f` does not read the split `k`
    }

    /// Solve (via the [`Solver`] façade) and return
    /// `(total cost, merge tree)`.
    pub fn optimal_merge(&self) -> (u64, ParenTree) {
        let sol = Solver::new(Algorithm::Sequential).solve(self);
        let t = sol.tree(self).expect("solved table");
        (sol.value(), t)
    }

    /// Independent cost evaluation: sum of group spans over internal
    /// nodes of the merge tree.
    pub fn merge_cost(&self, tree: &ParenTree) -> u64 {
        match tree {
            ParenTree::Leaf { .. } => 0,
            ParenTree::Node {
                i, j, left, right, ..
            } => self.span(*i, *j) + self.merge_cost(left) + self.merge_cost(right),
        }
    }

    /// The merge schedule in execution order (post-order): each entry is
    /// the interval merged at that step.
    pub fn schedule(&self, tree: &ParenTree) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        fn rec(t: &ParenTree, out: &mut Vec<(usize, usize)>) {
            if let ParenTree::Node {
                i, j, left, right, ..
            } = t
            {
                rec(left, out);
                rec(right, out);
                out.push((*i, *j));
            }
        }
        rec(tree, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_core::seq::brute_force_value;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn three_runs_classic() {
        // [10, 20, 30]: merge (10,20) first: 30 + 60 = 90;
        // merge (20,30) first: 50 + 60 = 110.
        let m = MergeOrder::new(vec![10, 20, 30]);
        let (cost, tree) = m.optimal_merge();
        assert_eq!(cost, 90);
        assert_eq!(m.merge_cost(&tree), 90);
        assert_eq!(m.schedule(&tree), vec![(0, 2), (0, 3)]);
    }

    #[test]
    fn single_run_is_free() {
        let m = MergeOrder::new(vec![42]);
        let (cost, _) = m.optimal_merge();
        assert_eq!(cost, 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn costs_past_the_weight_infinity_rejected() {
        // The total length is u64::MAX - 1, past the weight infinity.
        MergeOrder::new(vec![u64::MAX / 2; 2]);
    }

    #[test]
    fn equal_runs_merge_balanced() {
        let m = MergeOrder::new(vec![8; 8]);
        let (cost, tree) = m.optimal_merge();
        // Balanced merging of 8 equal runs: 3 levels x total 64.
        assert_eq!(cost, 3 * 64);
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(21);
        for n in 1..=9usize {
            let lengths: Vec<u64> = (0..n).map(|_| rng.gen_range(1..50)).collect();
            let m = MergeOrder::new(lengths);
            assert_eq!(solve_sequential(&m).root(), brute_force_value(&m, 0, n));
        }
    }

    #[test]
    fn knuth_speedup_is_valid_for_merging() {
        // S(i,j) satisfies the quadrangle inequality (it is additive), so
        // Knuth's restriction applies.
        let mut rng = SmallRng::seed_from_u64(22);
        for n in 2..=24usize {
            let m = MergeOrder::new((0..n).map(|_| rng.gen_range(1..40)).collect());
            assert!(solve_sequential(&m).table_eq(&solve_knuth(&m)), "n={n}");
        }
    }

    #[test]
    fn parallel_solvers_agree() {
        let mut rng = SmallRng::seed_from_u64(23);
        let m = MergeOrder::new((0..20).map(|_| rng.gen_range(1..100)).collect());
        let oracle = solve_sequential(&m);
        let opts = SolveOptions::default().exec(ExecBackend::Sequential);
        for algo in [Algorithm::Sublinear, Algorithm::Reduced] {
            let sol = Solver::new(algo).options(opts).solve(&m);
            assert!(sol.w.table_eq(&oracle), "{algo}");
        }
    }

    #[test]
    fn schedule_is_executable() {
        // Every merge step combines two previously-formed groups: replay
        // the schedule on a set of current intervals.
        let m = MergeOrder::new(vec![5, 1, 9, 3, 7, 2]);
        let (_, tree) = m.optimal_merge();
        let schedule = m.schedule(&tree);
        let mut groups: Vec<(usize, usize)> = (0..6).map(|i| (i, i + 1)).collect();
        for (i, j) in schedule {
            // Find the two adjacent groups covering (i, j).
            let a = groups
                .iter()
                .position(|&(gi, _)| gi == i)
                .expect("left group");
            let (_, mid) = groups[a];
            let b = groups
                .iter()
                .position(|&(gi, _)| gi == mid)
                .expect("right group");
            assert_eq!(groups[b].1, j, "groups must tile ({i},{j})");
            let merged = (i, j);
            groups.remove(a.max(b));
            groups.remove(a.min(b));
            groups.push(merged);
            groups.sort_unstable();
        }
        assert_eq!(groups, vec![(0, 6)]);
    }
}
