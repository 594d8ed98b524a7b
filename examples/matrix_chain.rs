//! Matrix-chain multiplication, the full tour: all five solvers on one
//! instance, iteration traces, and the effect of association order.
//!
//! ```text
//! cargo run --release --example matrix_chain [n]
//! ```

use sublinear_dp::core::reconstruct::tree_cost;
use sublinear_dp::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    println!("matrix chain with n = {n} random matrices (seeded)\n");
    let chain = sublinear_dp::apps::generators::random_chain(n, 100, 2024);

    // 1. Sequential oracle.
    let w = solve_sequential(&chain);
    println!("sequential O(n^3):              c(0,n) = {}", w.root());

    // 2. Wavefront (the practical multicore algorithm, [10]).
    let wav = Solver::new(Algorithm::Wavefront).solve(&chain);
    println!("wavefront O(n) x O(n^2) procs:  c(0,n) = {}", wav.value());

    // 3. The paper's sublinear algorithm with trace.
    let opts = SolveOptions::default()
        .termination(Termination::Fixpoint)
        .record_trace(true);
    let sub = Solver::new(Algorithm::Sublinear)
        .options(opts)
        .solve(&chain);
    println!(
        "sublinear (paper §2):           c(0,n) = {} in {}/{} iterations ({:?})",
        sub.value(),
        sub.trace.iterations,
        sub.trace.schedule_bound,
        sub.trace.stop
    );

    // 4. The §5 reduced-processor variant.
    let red = Solver::new(Algorithm::Reduced).solve(&chain);
    println!("reduced (paper §5):             c(0,n) = {}", red.value());

    // 5. Rytter's baseline.
    let ryt = Solver::new(Algorithm::Rytter).solve(&chain);
    println!(
        "rytter [8]:                     c(0,n) = {} in {} iterations",
        ryt.value(),
        ryt.trace.iterations
    );

    assert!([&wav, &sub, &red, &ryt].iter().all(|s| w.table_eq(&s.w)));

    // The witness tree, and how bad the naive left-to-right order is.
    let (cost, tree) = chain.optimal_order();
    println!("\noptimal parenthesization: {}", chain.render(&tree));
    println!("optimal cost:             {cost}");
    let left_to_right = {
        // Fold ((A1 A2) A3) ... An as an explicit tree and cost it.
        fn leftist(i: usize, j: usize) -> ParenTree {
            if j == i + 1 {
                ParenTree::Leaf { i }
            } else {
                ParenTree::Node {
                    i,
                    j,
                    k: j - 1,
                    left: Box::new(leftist(i, j - 1)),
                    right: Box::new(ParenTree::Leaf { i: j - 1 }),
                }
            }
        }
        tree_cost(&chain, &leftist(0, n))
    };
    println!("left-to-right cost:       {left_to_right}");
    println!(
        "optimal saves {:.1}% over naive association",
        100.0 * (1.0 - cost as f64 / left_to_right as f64)
    );

    // Per-iteration trace of the sublinear run.
    println!("\niteration trace (square candidates, changed flags):");
    for rec in &sub.trace.per_iteration {
        println!(
            "  iter {:>2}: square={:>10} pebble_changed={} root_finite={}",
            rec.iteration, rec.square.candidates, rec.pebble.changed, rec.root_finite
        );
    }
}
