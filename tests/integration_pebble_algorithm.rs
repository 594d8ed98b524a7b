//! Integration between the §3 game and the algebraic algorithm: the §6
//! shape/convergence correspondence, Lemma 3.3 as an end-to-end bound on
//! the *algorithm's* iteration count, and the game bound certified on
//! reconstructed optimal trees.

use sublinear_dp::apps::generators;
use sublinear_dp::core::reconstruct::{reconstruct_root, to_pebble_tree};
use sublinear_dp::pebble::game::moves_to_pebble;
use sublinear_dp::pebble::{lemma_move_bound, SquareRule};
use sublinear_dp::prelude::*;

fn fixpoint_iterations<P: DpProblem<u64> + ?Sized>(p: &P) -> (u64, u64) {
    let sol = Solver::new(Algorithm::Sublinear)
        .options(SolveOptions::default().termination(Termination::Fixpoint))
        .solve(p);
    (sol.trace.iterations, sol.trace.schedule_bound)
}

#[test]
fn algorithm_iterations_never_exceed_lemma_bound() {
    for seed in 0..4u64 {
        let p = generators::random_chain(36, 100, 200 + seed);
        let (iters, bound) = fixpoint_iterations(&p);
        assert!(iters <= bound, "{iters} > {bound}");
    }
    for n in [16usize, 36, 64] {
        let (iters, bound) = fixpoint_iterations(&generators::zigzag_instance(n));
        assert!(iters <= bound, "zigzag n={n}: {iters} > {bound}");
    }
}

#[test]
fn shape_convergence_matches_section_6() {
    // The zigzag-forced instance needs Theta(sqrt n) iterations; the
    // balanced and skewed ones finish in O(log n).
    let n = 64usize;
    let (zig, bound) = fixpoint_iterations(&generators::zigzag_instance(n));
    let (bal, _) = fixpoint_iterations(&generators::balanced_instance(n));
    let (skew, _) = fixpoint_iterations(&generators::skewed_instance(n));
    let log = (n as f64).log2().ceil() as u64;
    assert!(
        zig as f64 >= 0.5 * (n as f64).sqrt(),
        "zigzag too fast: {zig}"
    );
    assert!(zig <= bound);
    assert!(bal <= 2 * log + 2, "balanced too slow: {bal}");
    assert!(skew <= 2 * log + 2, "skewed too slow: {skew}");
    assert!(zig > bal && zig > skew);
}

#[test]
fn game_on_reconstructed_optimal_trees_respects_bound() {
    // Solve, reconstruct the optimal tree, play the game on it: Lemma 3.3
    // must hold for the tree that the *algorithm* actually raced on.
    for seed in 0..5u64 {
        let p = generators::random_chain(40, 70, 300 + seed);
        let w = solve_sequential(&p);
        let tree = reconstruct_root(&p, &w).unwrap();
        let ptree = to_pebble_tree(&tree);
        let moves = moves_to_pebble(&ptree, SquareRule::Modified);
        assert!(
            moves <= lemma_move_bound(ptree.n_leaves()),
            "seed={seed}: {moves} moves"
        );
    }
}

#[test]
fn forced_shape_roundtrip_game_vs_algorithm() {
    // For a forced zigzag shape, the game's move count on the target tree
    // and the algorithm's fixpoint iteration count are both Theta(sqrt n)
    // and track each other within a small constant factor (the algorithm
    // additionally minimises over off-tree decompositions and pays one
    // quiet iteration for fixpoint detection, so the counts are close but
    // not equal).
    for n in [25usize, 49, 81] {
        let target = sublinear_dp::pebble::gen::zigzag(n);
        let p = generators::shape_forcing(&target);
        let game_moves = moves_to_pebble(&target, SquareRule::Modified);
        let (iters, bound) = fixpoint_iterations(&p);
        assert!(iters <= bound);
        assert!(
            iters <= 2 * game_moves + 4,
            "n={n}: algorithm ({iters}) far slower than the game ({game_moves})"
        );
        assert!(
            2 * iters + 4 >= game_moves,
            "n={n}: algorithm ({iters}) implausibly faster than the game ({game_moves})"
        );
    }
}

#[test]
fn average_case_recurrence_predicts_algorithm_behaviour() {
    // §6: the algorithm on random-shape instances converges in about
    // T(n) iterations on average (the recurrence ignores acceleration,
    // so it upper-bounds; sampling noise gets a cushion).
    let n = 64usize;
    let t = sublinear_dp::pebble::analysis::recurrence_t(n);
    let trials = 10u64;
    let mut total = 0u64;
    for seed in 0..trials {
        let p = generators::random_shape_instance(n, 400 + seed);
        let (iters, _) = fixpoint_iterations(&p);
        total += iters;
    }
    let mean = total as f64 / trials as f64;
    assert!(
        mean <= t[n] + 3.0,
        "mean iterations {mean} far above recurrence T({n}) = {}",
        t[n]
    );
}
