//! Instance generators: random families and adversarial *shape forcing*.
//!
//! §6 of the paper classifies instances by the shape of their optimal
//! tree: zigzag trees are the `Theta(sqrt n)`-iteration worst case,
//! skewed and complete trees converge in `O(log n)` iterations, and
//! random trees do so on average. To reproduce that behaviour with the
//! *algebraic* algorithm we need cost structures whose **optimal tree has
//! a prescribed shape**: [`shape_forcing`] charges `f = 0` exactly for
//! the decompositions of the target tree and `f = 1` for every other
//! decomposition, making the target the unique zero-cost tree.

use pardp_core::problem::TabulatedProblem;
use pardp_pebble::gen as tree_gen;
use pardp_pebble::tree::FullBinaryTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::matrix_chain::MatrixChain;
use crate::obst::OptimalBst;
use crate::triangulation::WeightedPolygon;

/// Random matrix chain with dimensions in `1..=max_dim`.
pub fn random_chain(n: usize, max_dim: u64, seed: u64) -> MatrixChain {
    let mut rng = SmallRng::seed_from_u64(seed);
    MatrixChain::new((0..=n).map(|_| rng.gen_range(1..=max_dim)).collect())
}

/// Random OBST instance with `m` keys and frequencies in `0..=max_freq`.
pub fn random_obst(m: usize, max_freq: u64, seed: u64) -> OptimalBst {
    let mut rng = SmallRng::seed_from_u64(seed);
    OptimalBst::new(
        (0..m).map(|_| rng.gen_range(0..=max_freq)).collect(),
        (0..=m).map(|_| rng.gen_range(0..=max_freq)).collect(),
    )
}

/// Random weighted polygon with `m` vertices.
pub fn random_polygon(m: usize, max_weight: u64, seed: u64) -> WeightedPolygon {
    let mut rng = SmallRng::seed_from_u64(seed);
    WeightedPolygon::new((0..m).map(|_| rng.gen_range(1..=max_weight)).collect())
}

/// Build an instance whose **unique** optimal tree is the given shape:
/// `init = 0`; `f(i,k,j) = 0` iff `(i,k,j)` is the decomposition the
/// target tree uses at node `(i,j)`, else `1`. The target tree has weight
/// 0 and every other tree has weight ≥ 1 (it must use at least one
/// non-tree decomposition at the root of its first deviation).
pub fn shape_forcing(tree: &FullBinaryTree) -> TabulatedProblem<u64> {
    let n = tree.n_leaves();
    let labels = tree.interval_labels();
    // Record the split of every internal interval of the target tree.
    let m = n + 1;
    let mut split = vec![usize::MAX; m * m];
    for x in tree.node_ids() {
        if let (Some(l), _) = (tree.node(x).left, tree.node(x).right) {
            let (i, j) = labels[x];
            let (_, k) = labels[l];
            split[i * m + j] = k;
        }
    }
    TabulatedProblem::new(
        vec![0u64; n],
        |i, k, j| {
            if split[i * m + j] == k {
                0
            } else {
                1
            }
        },
    )
    .with_name("shape-forcing")
}

/// Shape-forcing instance with a zigzag optimal tree (Fig. 2a — the
/// algorithm's worst case).
pub fn zigzag_instance(n: usize) -> TabulatedProblem<u64> {
    shape_forcing(&tree_gen::zigzag(n))
}

/// Shape-forcing instance with a left-skewed optimal tree (Fig. 2b).
pub fn skewed_instance(n: usize) -> TabulatedProblem<u64> {
    shape_forcing(&tree_gen::skewed(n, tree_gen::Side::Left))
}

/// Shape-forcing instance with a balanced optimal tree.
pub fn balanced_instance(n: usize) -> TabulatedProblem<u64> {
    shape_forcing(&tree_gen::complete(n))
}

/// Shape-forcing instance with a uniform-split random optimal tree
/// (the §6 average-case model).
pub fn random_shape_instance(n: usize, seed: u64) -> TabulatedProblem<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    shape_forcing(&tree_gen::random_split(n, &mut rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_core::prelude::*;
    use pardp_core::reconstruct::{reconstruct_root, to_pebble_tree};

    #[test]
    fn shape_forcing_makes_the_target_optimal_with_cost_zero() {
        let mut rng = SmallRng::seed_from_u64(12);
        for n in [2usize, 3, 5, 9, 16, 30] {
            let target = tree_gen::random_split(n, &mut rng);
            let p = shape_forcing(&target);
            let w = solve_sequential(&p);
            assert_eq!(w.root(), 0, "target tree must cost 0 (n={n})");
            // The reconstruction recovers exactly the target shape.
            let t = reconstruct_root(&p, &w).unwrap();
            let rebuilt = to_pebble_tree(&t);
            assert!(rebuilt.same_shape(&target), "n={n}");
        }
    }

    #[test]
    fn shape_forcing_alternatives_cost_at_least_one() {
        let target = tree_gen::zigzag(8);
        let p = shape_forcing(&target);
        // Exhaustively check all trees via brute force on a small n: the
        // optimum is 0 and any non-target decomposition at the root costs
        // >= 1.
        let w = solve_sequential(&p);
        assert_eq!(w.root(), 0);
        // Perturb: force a different root split and confirm cost >= 1.
        let labels = target.interval_labels();
        let root_label = labels[target.root()];
        let (_, root_k) = labels[target.node(target.root()).left.unwrap()];
        for k in 1..8 {
            if k == root_k {
                continue;
            }
            let alt = p.f(root_label.0, k, root_label.1)
                + w.get(root_label.0, k)
                + w.get(k, root_label.1);
            assert!(alt >= 1, "k={k}");
        }
    }

    #[test]
    fn forced_shapes_drive_convergence_speed() {
        // §6: skewed and balanced optimal trees converge in few
        // iterations; the zigzag forces many. Measure fixpoint iterations
        // of the sublinear solver.
        let n = 64usize;
        let iterations = |p: &TabulatedProblem<u64>| {
            let opts = SolveOptions::default()
                .exec(ExecBackend::Sequential)
                .termination(Termination::Fixpoint);
            Solver::new(Algorithm::Sublinear)
                .options(opts)
                .solve(p)
                .trace
                .iterations
        };
        let zig = iterations(&zigzag_instance(n));
        let skew = iterations(&skewed_instance(n));
        let bal = iterations(&balanced_instance(n));
        // Balanced and skewed converge strictly faster than zigzag.
        assert!(bal < zig, "balanced {bal} vs zigzag {zig}");
        assert!(skew < zig, "skewed {skew} vs zigzag {zig}");
        // And the zigzag needs a Theta(sqrt n)-ish number of iterations.
        assert!(zig as f64 >= 0.5 * (n as f64).sqrt(), "zig={zig}");
    }

    #[test]
    fn random_generators_are_deterministic_per_seed() {
        let a = random_chain(10, 50, 7);
        let b = random_chain(10, 50, 7);
        assert_eq!(a.dims(), b.dims());
        let c = random_chain(10, 50, 8);
        assert_ne!(a.dims(), c.dims());
        let o1 = random_obst(6, 20, 3);
        let o2 = random_obst(6, 20, 3);
        assert_eq!(solve_sequential(&o1).root(), solve_sequential(&o2).root());
        let p1 = random_polygon(8, 9, 1);
        assert_eq!(p1.n_vertices(), 8);
    }
}
