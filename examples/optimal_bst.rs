//! Optimal binary search trees: the CLRS instance, tree rendering, and a
//! comparison of the O(n^3) DP, the Knuth O(n^2) speedup and the paper's
//! parallel algorithm.
//!
//! ```text
//! cargo run --release --example optimal_bst
//! ```

use sublinear_dp::apps::obst::BstNode;
use sublinear_dp::prelude::*;

fn render(node: &BstNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match node {
        BstNode::Dummy(i) => out.push_str(&format!("{indent}d{i}\n")),
        BstNode::Key { key, left, right } => {
            out.push_str(&format!("{indent}k{key}\n"));
            render(left, depth + 1, out);
            render(right, depth + 1, out);
        }
    }
}

fn main() {
    // CLRS Figure 15.10 (probabilities x 100 for exact arithmetic):
    // p = [.15, .10, .05, .10, .20], q = [.05, .10, .05, .05, .05, .10].
    let bst = OptimalBst::new(vec![15, 10, 5, 10, 20], vec![5, 10, 5, 5, 5, 10]);
    let (cost, tree) = bst.optimal_tree();
    println!(
        "CLRS example: expected search cost = {}.{:02}",
        cost / 100,
        cost % 100
    );
    assert_eq!(cost, 275);
    let mut s = String::new();
    render(&tree, 0, &mut s);
    println!("optimal tree (k = keys, d = dummies):\n{s}");

    // The three solvers agree; Knuth's O(n^2) speedup is valid for OBST
    // (quadrangle inequality).
    let w_full = solve_sequential(&bst);
    let w_knuth = solve_knuth(&bst);
    assert!(w_full.table_eq(&w_knuth));
    let sub = Solver::new(Algorithm::Sublinear).solve(&bst);
    assert_eq!(sub.value(), 275);
    println!("O(n^3) DP, O(n^2) Knuth and the parallel solver all agree: 2.75");

    // A bigger random instance: show the cost of ignoring frequencies.
    let m = 255usize;
    let big = sublinear_dp::apps::generators::random_obst(m, 1000, 99);
    let (opt, opt_tree) = big.optimal_tree();
    // A balanced-but-frequency-blind tree for comparison: build via the
    // parenthesization of a complete shape.
    let balanced_cost = {
        fn complete(i: usize, j: usize) -> ParenTree {
            if j == i + 1 {
                ParenTree::Leaf { i }
            } else {
                let k = (i + j).div_ceil(2);
                ParenTree::Node {
                    i,
                    j,
                    k,
                    left: Box::new(complete(i, k)),
                    right: Box::new(complete(k, j)),
                }
            }
        }
        let t = complete(0, m + 1);
        let b = OptimalBst::to_bst(&t);
        big.bst_cost(&b)
    };
    println!("\nrandom instance with {m} keys:");
    println!("  optimal tree cost:          {opt}");
    println!("  frequency-blind balanced:   {balanced_cost}");
    println!(
        "  optimality gain:            {:.1}%",
        100.0 * (1.0 - opt as f64 / balanced_cost as f64)
    );
    let depth = {
        fn h(n: &BstNode) -> usize {
            match n {
                BstNode::Dummy(_) => 0,
                BstNode::Key { left, right, .. } => 1 + h(left).max(h(right)),
            }
        }
        h(&opt_tree)
    };
    println!(
        "  optimal tree height:        {depth} (log2({m}) = {:.1})",
        (m as f64).log2()
    );
}
