//! Convergence study (§6/§7): how the optimal tree's *shape* dictates the
//! number of iterations the algorithm needs — zigzag Theta(sqrt n),
//! skewed/balanced/random O(log n) — and what the §7 stopping rules save.
//!
//! ```text
//! cargo run --release --example convergence_study [n]
//! ```

use sublinear_dp::apps::generators;
use sublinear_dp::prelude::*;

fn iterations<P: DpProblem<u64> + ?Sized>(p: &P, term: Termination) -> (u64, u64) {
    let sol = Solver::new(Algorithm::Sublinear)
        .options(SolveOptions::default().termination(term))
        .solve(p);
    (sol.trace.iterations, sol.trace.schedule_bound)
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    println!("optimal-tree shape vs iterations to fixpoint, n = {n}");
    println!(
        "(schedule bound 2*ceil(sqrt(n)) = {}, log2(n) = {:.1})\n",
        sublinear_dp::core::schedule_bound(n),
        (n as f64).log2()
    );

    let instances: Vec<(&str, sublinear_dp::core::problem::TabulatedProblem<u64>)> = vec![
        (
            "zigzag-forced   (Fig. 2a, worst case)",
            generators::zigzag_instance(n),
        ),
        ("skewed-forced   (Fig. 2b)", generators::skewed_instance(n)),
        (
            "balanced-forced (complete)",
            generators::balanced_instance(n),
        ),
        (
            "random-forced   (§6 model)",
            generators::random_shape_instance(n, 2024),
        ),
    ];
    println!("{:<40} {:>9} {:>12}", "instance", "fixpoint", "w-stable-2");
    for (name, p) in &instances {
        let (fx, _) = iterations(p, Termination::Fixpoint);
        let (ws, _) = iterations(p, Termination::WStableTwice);
        println!("{name:<40} {fx:>9} {ws:>12}");
    }

    println!("\nrandom matrix chains (5 seeds):");
    println!("{:<40} {:>9} {:>12}", "instance", "fixpoint", "w-stable-2");
    for seed in 0..5u64 {
        let p = generators::random_chain(n, 100, seed);
        let (fx, _) = iterations(&p, Termination::Fixpoint);
        let (ws, _) = iterations(&p, Termination::WStableTwice);
        println!(
            "{:<40} {fx:>9} {ws:>12}",
            format!("random chain (seed {seed})")
        );
    }

    println!(
        "\nThe zigzag shape pins the algorithm to its Theta(sqrt n) worst case because the \
         restricted a-square cannot compose partial trees across a turn; every other shape \
         admits binary decompositions and converges in O(log n) iterations (§6). The §7 \
         'w unchanged twice' heuristic stops earlier still and — capped by the schedule — \
         is always exact."
    );
}
