//! Minimum-weight triangulation of convex polygons.
//!
//! A convex polygon `v_0 .. v_n` (vertices in order; `n + 1` vertices,
//! `n` "bottom" edges plus the closing edge `v_0 v_n`). Interval `(i, j)`
//! is the sub-polygon `v_i .. v_j`; choosing the triangle `v_i v_k v_j`
//! splits it into `(i, k)` and `(k, j)`: recurrence (*) with
//! `init(i) = 0` and `f(i, k, j)` = the triangle's weight.
//!
//! Two classic weight functions are provided:
//!
//! * [`WeightedPolygon`] — vertex weights, triangle weight
//!   `w_i * w_k * w_j` (the textbook instance, isomorphic to matrix
//!   chains);
//! * [`PointPolygon`] — geometric vertices, triangle weight = perimeter
//!   (f64 costs).

use pardp_core::prelude::*;

/// A convex polygon with one abstract weight per vertex.
#[derive(Debug, Clone)]
pub struct WeightedPolygon {
    pub(crate) spec: SpecProblem,
}

impl WeightedPolygon {
    /// Build from vertex weights `w_0 .. w_n`. Accepts exactly what
    /// [`ProblemSpec::polygon`] accepts: at least 3 vertices, with
    /// `2n · (largest)³` below the `u64` weight infinity. Panics with
    /// its error text otherwise.
    pub fn new(weights: Vec<u64>) -> Self {
        WeightedPolygon {
            spec: crate::build(ProblemSpec::polygon(weights)),
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n() + 1
    }

    /// Solve (via the [`Solver`] façade) and return `(cost, diagonals)`
    /// — the `n_vertices - 3` chords of the optimal triangulation.
    pub fn optimal_triangulation(&self) -> (u64, Vec<(usize, usize)>) {
        let sol = Solver::new(Algorithm::Sequential).solve(self);
        let t = sol.tree(self).expect("solved table");
        (sol.value(), diagonals_of(&t, self.n()))
    }
}

/// A convex polygon with geometric vertices; triangle weight = perimeter.
#[derive(Debug, Clone)]
pub struct PointPolygon {
    pts: Vec<(f64, f64)>,
}

impl PointPolygon {
    /// Build from vertex coordinates in convex position, in order.
    pub fn new(pts: Vec<(f64, f64)>) -> Self {
        assert!(pts.len() >= 3, "a polygon needs at least 3 vertices");
        PointPolygon { pts }
    }

    /// A regular `m`-gon on the unit circle.
    pub fn regular(m: usize) -> Self {
        assert!(m >= 3);
        let pts = (0..m)
            .map(|t| {
                let a = 2.0 * std::f64::consts::PI * t as f64 / m as f64;
                (a.cos(), a.sin())
            })
            .collect();
        PointPolygon { pts }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.pts.len()
    }

    fn dist(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.pts[a];
        let (bx, by) = self.pts[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Solve (via the [`Solver`] façade) and return `(cost, diagonals)`.
    pub fn optimal_triangulation(&self) -> (f64, Vec<(usize, usize)>) {
        let sol = Solver::new(Algorithm::Sequential).solve(self);
        let t = sol.tree(self).expect("solved table");
        (sol.value(), diagonals_of(&t, self.n()))
    }
}

impl DpProblem<f64> for PointPolygon {
    fn n(&self) -> usize {
        self.pts.len() - 1
    }

    #[inline]
    fn init(&self, _i: usize) -> f64 {
        0.0
    }

    #[inline]
    fn f(&self, i: usize, k: usize, j: usize) -> f64 {
        self.dist(i, k) + self.dist(k, j) + self.dist(i, j)
    }

    fn name(&self) -> &str {
        "triangulation-points"
    }
}

/// Extract the diagonals (chords) of a triangulation encoded as a
/// parenthesization tree: every internal interval `(i, j)` other than
/// polygon sides and the closing edge `(0, n)` is a chord `v_i v_j`.
pub fn diagonals_of(tree: &ParenTree, n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    fn rec(t: &ParenTree, n: usize, out: &mut Vec<(usize, usize)>) {
        if let ParenTree::Node {
            i, j, left, right, ..
        } = t
        {
            if j - i >= 2 && !(*i == 0 && *j == n) {
                out.push((*i, *j));
            }
            rec(left, n, out);
            rec(right, n, out);
        }
    }
    rec(tree, n, &mut out);
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_core::seq::brute_force_value;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn quadrilateral_picks_the_cheaper_diagonal() {
        // Vertices w = [1, 10, 1, 10]: the diagonal between the two
        // weight-1 vertices (v0-v2) gives triangles 1*10*1 + 1*1*10 = 20;
        // the other diagonal gives 10*1*10 + 10*10*1 = 200.
        let poly = WeightedPolygon::new(vec![1, 10, 1, 10]);
        let (cost, diags) = poly.optimal_triangulation();
        assert_eq!(cost, 20);
        assert_eq!(diags, vec![(0, 2)]);
    }

    #[test]
    fn triangle_needs_no_diagonal() {
        let poly = WeightedPolygon::new(vec![2, 3, 4]);
        let (cost, diags) = poly.optimal_triangulation();
        assert_eq!(cost, 24);
        assert!(diags.is_empty());
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn costs_past_the_weight_infinity_rejected() {
        // Every triangle weighs 2^66: it would wrap to 0 in a release build.
        WeightedPolygon::new(vec![1 << 22; 3]);
    }

    #[test]
    fn diagonal_count_is_vertices_minus_three() {
        let mut rng = SmallRng::seed_from_u64(7);
        for m in 3..=20usize {
            let weights: Vec<u64> = (0..m).map(|_| rng.gen_range(1..20)).collect();
            let poly = WeightedPolygon::new(weights);
            let (_, diags) = poly.optimal_triangulation();
            assert_eq!(diags.len(), m - 3, "m={m}");
            // All diagonals are genuine chords.
            for &(a, b) in &diags {
                assert!(b > a + 1);
                assert!(!(a == 0 && b == m - 1));
            }
        }
    }

    #[test]
    fn matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(8);
        for m in 3..=9usize {
            let weights: Vec<u64> = (0..m).map(|_| rng.gen_range(1..15)).collect();
            let poly = WeightedPolygon::new(weights);
            let n = poly.n();
            assert_eq!(
                solve_sequential(&poly).root(),
                brute_force_value(&poly, 0, n)
            );
        }
    }

    #[test]
    fn regular_polygon_fan_is_optimal_by_symmetry_value() {
        // For a regular polygon all triangulations of the same chord
        // structure class have equal perimeter sums; just verify the DP
        // value matches an independently computed fan triangulation from
        // vertex 0 *upper-bounds* the optimum and the solver's diagonals
        // triangulate.
        let poly = PointPolygon::regular(8);
        let (cost, diags) = poly.optimal_triangulation();
        assert_eq!(diags.len(), 8 - 3);
        let mut fan = 0.0;
        for k in 1..7 {
            fan += poly.dist(0, k) + poly.dist(k, k + 1) + poly.dist(0, k + 1);
        }
        assert!(
            cost <= fan + 1e-9,
            "optimal {cost} must not exceed fan {fan}"
        );
        assert!(cost > 0.0);
    }

    #[test]
    fn parallel_solvers_agree_on_point_polygons() {
        let poly = PointPolygon::regular(14);
        let oracle = solve_sequential(&poly).root();
        let opts = SolveOptions::default().exec(ExecBackend::Sequential);
        for algo in [Algorithm::Sublinear, Algorithm::Reduced] {
            let value = Solver::new(algo).options(opts).solve(&poly).value();
            assert!(value.cost_eq(&oracle), "{algo}: {value} vs {oracle}");
        }
    }

    #[test]
    fn weighted_polygon_is_isomorphic_to_matrix_chain() {
        // Same numbers as the CLRS chain: weights = dims.
        let dims = vec![30u64, 35, 15, 5, 10, 20, 25];
        let poly = WeightedPolygon::new(dims.clone());
        let mc = crate::matrix_chain::MatrixChain::new(dims);
        assert_eq!(solve_sequential(&poly).root(), solve_sequential(&mc).root());
    }
}
