//! Quickstart: solve a matrix-chain instance with the paper's sublinear
//! parallel algorithm and recover the optimal parenthesization.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sublinear_dp::prelude::*;

fn main() {
    // The CLRS 15.2 example: six matrices with dimensions
    // 30x35, 35x15, 15x5, 5x10, 10x20, 20x25.
    let chain = MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25]);

    // The paper's algorithm (§2): 2*ceil(sqrt(n)) iterations of
    // a-activate / a-square / a-pebble, executed data-parallel on the
    // work-stealing pool.
    let solution = Solver::new(Algorithm::Sublinear).solve(&chain);
    println!("minimum scalar multiplications: {}", solution.value());
    println!(
        "iterations: {} (schedule bound 2*ceil(sqrt(n)) = {})",
        solution.trace.iterations, solution.trace.schedule_bound
    );

    // Recover and print the witness parenthesization.
    let (cost, order) = chain.optimal_order();
    assert_eq!(cost, solution.value());
    println!("optimal order: {}", chain.render(&order));

    // Cross-check against the sequential oracle and the §5 variant.
    assert_eq!(solve_sequential(&chain).root(), solution.value());
    assert_eq!(
        Solver::new(Algorithm::Reduced).solve(&chain).value(),
        solution.value()
    );
    println!("sequential / reduced cross-checks: ok");
}
