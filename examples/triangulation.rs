//! Minimum-weight triangulation of convex polygons: weighted vertices and
//! geometric (perimeter-cost) variants, with an ASCII rendering of the
//! chosen diagonals.
//!
//! ```text
//! cargo run --release --example triangulation
//! ```

use sublinear_dp::prelude::*;

fn main() {
    // A weighted hexagon (the classic textbook instance).
    let poly = WeightedPolygon::new(vec![3, 7, 4, 5, 2, 6]);
    let (cost, diagonals) = poly.optimal_triangulation();
    println!("weighted hexagon, vertex weights [3, 7, 4, 5, 2, 6]");
    println!("  minimum triangulation weight: {cost}");
    println!("  diagonals: {diagonals:?}");
    assert_eq!(diagonals.len(), 6 - 3);

    // Parallel solver agreement.
    let sub = Solver::new(Algorithm::Sublinear).solve(&poly);
    assert_eq!(sub.value(), cost);
    println!("  parallel solver agrees: {}", sub.value());

    // Geometric: a squashed ellipse — the optimum avoids long chords.
    let m = 16usize;
    let pts: Vec<(f64, f64)> = (0..m)
        .map(|t| {
            let a = 2.0 * std::f64::consts::PI * t as f64 / m as f64;
            (2.0 * a.cos(), 0.6 * a.sin())
        })
        .collect();
    let ellipse = PointPolygon::new(pts);
    let (perimeter_cost, diags) = ellipse.optimal_triangulation();
    println!("\nsquashed ellipse with {m} vertices:");
    println!("  total triangle-perimeter cost: {perimeter_cost:.4}");
    println!("  diagonals ({}): {diags:?}", diags.len());

    // Compare with the fan triangulation from vertex 0.
    let fan_cost: f64 = {
        let d = |a: usize, b: usize| {
            let pa = (
                2.0 * (2.0 * std::f64::consts::PI * a as f64 / m as f64).cos(),
                0.6 * (2.0 * std::f64::consts::PI * a as f64 / m as f64).sin(),
            );
            let pb = (
                2.0 * (2.0 * std::f64::consts::PI * b as f64 / m as f64).cos(),
                0.6 * (2.0 * std::f64::consts::PI * b as f64 / m as f64).sin(),
            );
            ((pa.0 - pb.0).powi(2) + (pa.1 - pb.1).powi(2)).sqrt()
        };
        (1..m - 1)
            .map(|k| d(0, k) + d(k, k + 1) + d(0, k + 1))
            .sum()
    };
    println!("  fan triangulation cost:        {fan_cost:.4}");
    println!(
        "  optimal saves {:.2}% over the fan",
        100.0 * (1.0 - perimeter_cost / fan_cost)
    );
    assert!(perimeter_cost <= fan_cost + 1e-9);

    // Large instance through the reduced (§5) solver.
    let big = sublinear_dp::apps::generators::random_polygon(65, 30, 7);
    let red = Solver::new(Algorithm::Reduced).solve(&big);
    let oracle = solve_sequential(&big);
    assert_eq!(red.value(), oracle.root());
    println!(
        "\n64-gon via the §5 reduced-processor algorithm: {} (oracle {}) — ok",
        red.value(),
        oracle.root()
    );
}
