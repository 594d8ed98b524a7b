//! Sequential baselines for recurrence (*).
//!
//! * [`solve_sequential`] — the classic `O(n^3)` dynamic program \[1\],
//!   the work-optimal baseline every parallel algorithm is compared to;
//! * [`solve_knuth`] — the `O(n^2)` Knuth–Yao speedup, valid when the
//!   instance satisfies the quadrangle inequality / monotonicity (e.g.
//!   optimal binary search trees, Knuth 1971);
//! * [`brute_force_value`] — exponential enumeration of *all*
//!   parenthesizations, a DP-free oracle for small `n` used by tests.

use crate::problem::DpProblem;
use crate::tables::WTable;
use crate::weight::Weight;

/// The classic sequential `O(n^3)` dynamic program: fill `w(i,j)` by
/// increasing interval length.
pub fn solve_sequential<W: Weight, P: DpProblem<W> + ?Sized>(problem: &P) -> WTable<W> {
    let n = problem.n();
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
    }
    for d in 2..=n {
        for i in 0..=n - d {
            let j = i + d;
            let mut best = W::INFINITY;
            for k in i + 1..j {
                let cand = w.get(i, k).add(w.get(k, j)).add(problem.f(i, k, j));
                best = best.min2(cand);
            }
            w.set(i, j, best);
        }
    }
    w
}

/// The Knuth–Yao `O(n^2)` speedup: restrict the split search for `(i,j)`
/// to `[root(i,j-1), root(i+1,j)]`.
///
/// **Validity**: requires the instance to satisfy the quadrangle
/// inequality and interval monotonicity (true for optimal binary search
/// trees; *not* true for arbitrary (*) instances — matrix chains can
/// violate it). Callers are responsible for using it only on eligible
/// problems; tests cross-check it against [`solve_sequential`] on OBST
/// instances.
pub fn solve_knuth<W: Weight, P: DpProblem<W> + ?Sized>(problem: &P) -> WTable<W> {
    let n = problem.n();
    let m = n + 1;
    let mut w = WTable::new(n);
    let mut roots = vec![0usize; m * m];
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
        roots[i * m + i + 1] = i; // sentinel: leaf "root"
    }
    for d in 2..=n {
        for i in 0..=n - d {
            let j = i + d;
            let lo = if d == 2 {
                i + 1
            } else {
                roots[i * m + (j - 1)].max(i + 1)
            };
            let hi = if d == 2 {
                i + 1
            } else {
                roots[(i + 1) * m + j].min(j - 1)
            };
            let mut best = W::INFINITY;
            let mut best_k = lo;
            for k in lo..=hi {
                let cand = w.get(i, k).add(w.get(k, j)).add(problem.f(i, k, j));
                if cand < best {
                    best = cand;
                    best_k = k;
                }
            }
            w.set(i, j, best);
            roots[i * m + j] = best_k;
        }
    }
    w
}

/// Exponential-time oracle: the minimum over **all** full binary trees on
/// the interval `(i, j)`, evaluated by direct enumeration with no
/// memoisation. `Catalan(j - i - 1)` tree evaluations — keep `j - i <= 12`.
pub fn brute_force_value<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    i: usize,
    j: usize,
) -> W {
    assert!(i < j && j <= problem.n());
    if j == i + 1 {
        return problem.init(i);
    }
    let mut best = W::INFINITY;
    for k in i + 1..j {
        let cand = brute_force_value(problem, i, k)
            .add(brute_force_value(problem, k, j))
            .add(problem.f(i, k, j));
        best = best.min2(cand);
    }
    best
}

/// Sequential oracle for the **true partial weights** `pw(i,j,p,q)` (§2,
/// Definition 2.1): the minimum weight over all partial trees rooted at
/// `(i,j)` with gap `(p,q)`.
///
/// Evaluated by the one-step decomposition at the root: a partial tree
/// with a proper gap splits at some `k`, the gap lying in one of the two
/// sons, the other son being a complete (optimal) subtree:
///
/// ```text
/// pw(i,j,p,q) = min over i < k < j of
///     f(i,k,j) + w(k,j) + pw(i,k,p,q)     if q <= k
///     f(i,k,j) + w(i,k) + pw(k,j,p,q)     if p >= k
/// pw(i,j,i,j) = 0
/// ```
///
/// `O(n^5)` time, `O(n^4)` memory — a test oracle (keep `n <= 14`). Used
/// to machine-check the §4 claim (b): `pw'` never under-shoots `pw`, and
/// reaches it at the fixpoint.
pub fn solve_pw_oracle<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    w: &crate::tables::WTable<W>,
) -> crate::tables::DensePw<W> {
    let n = problem.n();
    let mut pw = crate::tables::DensePw::new(n);
    // Increasing interval width d so sub-partials are ready.
    for d in 2..=n {
        for i in 0..=n - d {
            let j = i + d;
            for p in i..j {
                for q in p + 1..=j {
                    if p == i && q == j {
                        continue;
                    }
                    let mut best = W::INFINITY;
                    for k in i + 1..j {
                        if q <= k {
                            // Gap inside the left son (i,k).
                            let inner = if (p, q) == (i, k) {
                                W::ZERO
                            } else {
                                pw.get(i, k, p, q)
                            };
                            best = best.min2(problem.f(i, k, j).add(w.get(k, j)).add(inner));
                        }
                        if p >= k {
                            // Gap inside the right son (k,j).
                            let inner = if (p, q) == (k, j) {
                                W::ZERO
                            } else {
                                pw.get(k, j, p, q)
                            };
                            best = best.min2(problem.f(i, k, j).add(w.get(i, k)).add(inner));
                        }
                    }
                    pw.set(i, j, p, q, best);
                }
            }
        }
    }
    pw
}

/// Total sequential work (candidate evaluations) of the `O(n^3)` DP for
/// size `n` — the baseline row of the E9 work-accounting table.
pub fn sequential_work(n: usize) -> u64 {
    // sum over d=2..n of (n - d + 1)(d - 1)
    let n = n as u64;
    (2..=n).map(|d| (n - d + 1) * (d - 1)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{FnProblem, TabulatedProblem};

    /// CLRS 15.2 matrix-chain example: dims 30,35,15,5,10,20,25 -> 15125.
    fn clrs_chain() -> impl DpProblem<u64> {
        let dims = [30u64, 35, 15, 5, 10, 20, 25];
        FnProblem::new(6, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    #[test]
    fn clrs_matrix_chain_value() {
        let w = solve_sequential(&clrs_chain());
        assert_eq!(w.root(), 15125);
    }

    #[test]
    fn sequential_matches_brute_force_on_random_instances() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        for n in 2..=8usize {
            for _ in 0..10 {
                let init: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
                let f_vals: Vec<u64> = (0..(n + 1).pow(3)).map(|_| rng.gen_range(0..50)).collect();
                let m = n + 1;
                let p = TabulatedProblem::new(init, |i, k, j| f_vals[(i * m + k) * m + j]);
                let w = solve_sequential(&p);
                for i in 0..n {
                    for j in i + 1..=n {
                        assert_eq!(w.get(i, j), brute_force_value(&p, i, j), "n={n} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn knuth_matches_full_dp_on_obst_like_instances() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        // OBST-like: f(i,k,j) = W(i,j) independent of k, W superadditive
        // (interval weight = sum of element weights) — satisfies QI.
        for n in 2..=20usize {
            let weights: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..20)).collect();
            let prefix: Vec<u64> = std::iter::once(0)
                .chain(weights.iter().scan(0, |acc, &x| {
                    *acc += x;
                    Some(*acc)
                }))
                .collect();
            let w_ij = move |i: usize, j: usize| prefix[j] - prefix[i];
            let p = FnProblem::new(n, move |_i| 1u64, move |i, _k, j| w_ij(i, j));
            let full = solve_sequential(&p);
            let fast = solve_knuth(&p);
            assert!(full.table_eq(&fast), "n={n}");
        }
    }

    #[test]
    fn sequential_work_closed_form() {
        // n=2: d=2: 1*1 = 1. n=3: d=2: 2*1, d=3: 1*2 -> 4.
        assert_eq!(sequential_work(2), 1);
        assert_eq!(sequential_work(3), 4);
        // Cubic growth: ratio between n and 2n should approach 8.
        let r = sequential_work(400) as f64 / sequential_work(200) as f64;
        assert!((r - 8.0).abs() < 0.3, "r={r}");
    }

    #[test]
    fn single_object_instance() {
        let p = FnProblem::new(1, |_| 9u64, |_, _, _| 0u64);
        let w = solve_sequential(&p);
        assert_eq!(w.root(), 9);
    }

    #[test]
    fn float_weights_work() {
        let dims = [2.0f64, 3.0, 4.0, 5.0];
        let p = FnProblem::new(3, |_| 0.0f64, move |i, k, j| dims[i] * dims[k] * dims[j]);
        let w = solve_sequential(&p);
        // (A1 A2) A3: 2*3*4 + 2*4*5 = 64; A1 (A2 A3): 3*4*5 + 2*3*5 = 90.
        assert!(w.root().cost_eq(&64.0));
    }
}
