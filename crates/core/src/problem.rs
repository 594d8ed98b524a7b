//! The dynamic-programming problem interface: recurrence (*).
//!
//! Every problem the paper covers is specified by three ingredients (§1):
//!
//! ```text
//! c(i,j) = min_{i<k<j} { c(i,k) + c(k,j) + f(i,k,j) },   0 <= i < j <= n, i+1 < j
//! c(i,i+1) = init(i),                                     0 <= i <= n-1
//! ```
//!
//! with non-negative `f` and `init`. [`DpProblem`] is exactly that triple.
//! The four wire families (matrix chain, optimal BST, weighted polygon
//! triangulation, merge order) are implemented once, by
//! [`SpecProblem`](crate::spec::SpecProblem); the `pardp-apps` crate
//! wraps it with solution interpretation and adds a geometric
//! triangulation, and [`FnProblem`] wraps arbitrary closures.

use crate::weight::Weight;

/// A dynamic-programming instance of recurrence (*) over `n` objects.
///
/// Interval endpoints range over `0..=n`; the goal value is `c(0, n)`.
/// Implementations must be cheap to query: `f` is called `Theta(n)` times
/// per table cell, so it should be `O(1)` after construction (precompute
/// prefix sums, etc.).
pub trait DpProblem<W: Weight>: Sync {
    /// Number of objects (`n` in the paper). Intervals `(i, j)` satisfy
    /// `0 <= i < j <= n`.
    fn n(&self) -> usize;

    /// The leaf value `c(i, i+1)` for `0 <= i < n`. Must be non-negative.
    fn init(&self, i: usize) -> W;

    /// The decomposition cost `f(i, k, j)` for `0 <= i < k < j <= n`.
    /// Must be non-negative.
    fn f(&self, i: usize, k: usize, j: usize) -> W;

    /// One cell of recurrence (*) from its two operand slices:
    /// `left[t] = c(i, i+1+t)` and `right[t] = c(i+1+t, j)` for
    /// `t < j - i - 1`. The result is [`Weight::min2`] folded from
    /// [`Weight::INFINITY`] over `t` ascending of
    /// `left[t].add(right[t]).add(self.f(i, i+1+t, j))`, the reduction
    /// [`solve_sequential`](crate::seq::solve_sequential) runs per cell.
    ///
    /// An override must return the same bits. It exists only to hoist
    /// per-instance work out of the `k` loop: a family match, index
    /// checks, or an `f` that does not depend on `k`
    /// ([`SpecProblem`](crate::spec::SpecProblem) does all three).
    /// Slices shorter than `j - i - 1` are a caller bug.
    fn split_min(&self, i: usize, j: usize, left: &[W], right: &[W]) -> W {
        debug_assert!(left.len() >= j - i - 1 && right.len() >= j - i - 1);
        let mut best = W::INFINITY;
        for (k, (&ik, &kj)) in (i + 1..j).zip(left.iter().zip(right)) {
            best = best.min2(ik.add(kj).add(self.f(i, k, j)));
        }
        best
    }

    /// A short display name for reports.
    fn name(&self) -> &str {
        "problem"
    }

    /// Validate basic well-formedness (non-negativity, finite costs) by
    /// exhaustive scan — `O(n^3)`, intended for tests and small instances.
    fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if n == 0 {
            return Err("problem must have at least one object".into());
        }
        // `partial_cmp` makes the NaN case explicit: incomparable values
        // (float NaN) are rejected alongside genuinely negative ones.
        let non_negative = |v: &W| {
            matches!(
                v.partial_cmp(&W::ZERO),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            )
        };
        for i in 0..n {
            let v = self.init(i);
            if !non_negative(&v) || !v.is_finite_cost() {
                return Err(format!("init({i}) = {v} is not a finite non-negative cost"));
            }
        }
        for i in 0..n {
            for k in i + 1..n + 1 {
                for j in k + 1..n + 1 {
                    let v = self.f(i, k, j);
                    if !non_negative(&v) || !v.is_finite_cost() {
                        return Err(format!(
                            "f({i},{k},{j}) = {v} is not a finite non-negative cost"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A problem given by closures — the quickest way to pose a custom
/// recurrence (*) instance.
///
/// ```
/// use pardp_core::problem::{DpProblem, FnProblem};
/// // Matrix chain with dimensions 10 x 20 x 5 (two matrices).
/// let dims = vec![10u64, 20, 5];
/// let p = FnProblem::new(
///     2,
///     |_i| 0u64,
///     move |i, k, j| dims[i] * dims[k] * dims[j],
/// );
/// assert_eq!(p.n(), 2);
/// assert_eq!(p.f(0, 1, 2), 1000);
/// ```
pub struct FnProblem<W, FI, FF>
where
    FI: Fn(usize) -> W + Sync,
    FF: Fn(usize, usize, usize) -> W + Sync,
{
    n: usize,
    init_fn: FI,
    f_fn: FF,
    name: String,
}

impl<W, FI, FF> FnProblem<W, FI, FF>
where
    W: Weight,
    FI: Fn(usize) -> W + Sync,
    FF: Fn(usize, usize, usize) -> W + Sync,
{
    /// Create a closure-backed problem over `n` objects.
    pub fn new(n: usize, init_fn: FI, f_fn: FF) -> Self {
        assert!(n >= 1, "need at least one object");
        FnProblem {
            n,
            init_fn,
            f_fn,
            name: "fn-problem".to_string(),
        }
    }

    /// Set the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl<W, FI, FF> DpProblem<W> for FnProblem<W, FI, FF>
where
    W: Weight,
    FI: Fn(usize) -> W + Sync,
    FF: Fn(usize, usize, usize) -> W + Sync,
{
    fn n(&self) -> usize {
        self.n
    }

    fn init(&self, i: usize) -> W {
        debug_assert!(i < self.n);
        (self.init_fn)(i)
    }

    fn f(&self, i: usize, k: usize, j: usize) -> W {
        debug_assert!(i < k && k < j && j <= self.n);
        (self.f_fn)(i, k, j)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A problem with all `f` and `init` values materialised in flat tables.
/// `O(n^3)` memory; used by tests (arbitrary instances from proptest) and
/// by generators that construct adversarial cost structures explicitly.
#[derive(Debug, Clone)]
pub struct TabulatedProblem<W> {
    n: usize,
    init: Vec<W>,
    /// `f(i,k,j)` at index `(i * (n+1) + k) * (n+1) + j`.
    f: Vec<W>,
    name: String,
}

impl<W: Weight> TabulatedProblem<W> {
    /// Build from explicit tables. `f` entries outside `i < k < j` are
    /// ignored (callers may leave them as `W::ZERO`).
    pub fn new(init: Vec<W>, f_at: impl Fn(usize, usize, usize) -> W) -> Self {
        let n = init.len();
        assert!(n >= 1);
        let m = n + 1;
        let mut f = vec![W::ZERO; m * m * m];
        for i in 0..n {
            for k in i + 1..m {
                for j in k + 1..m {
                    f[(i * m + k) * m + j] = f_at(i, k, j);
                }
            }
        }
        TabulatedProblem {
            n,
            init,
            f,
            name: "tabulated".to_string(),
        }
    }

    /// Set the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl<W: Weight> DpProblem<W> for TabulatedProblem<W> {
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn init(&self, i: usize) -> W {
        self.init[i]
    }

    #[inline]
    fn f(&self, i: usize, k: usize, j: usize) -> W {
        let m = self.n + 1;
        self.f[(i * m + k) * m + j]
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_problem_basics() {
        let p = FnProblem::new(3, |i| i as u64, |i, k, j| (i + k + j) as u64).with_name("t");
        assert_eq!(p.n(), 3);
        assert_eq!(p.init(2), 2);
        assert_eq!(p.f(0, 1, 3), 4);
        assert_eq!(p.name(), "t");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn tabulated_matches_closure() {
        let f = |i: usize, k: usize, j: usize| (i * 100 + k * 10 + j) as u64;
        let tab = TabulatedProblem::new(vec![1u64, 2, 3, 4], f);
        assert_eq!(tab.n(), 4);
        for i in 0..4 {
            assert_eq!(tab.init(i), (i + 1) as u64);
            for k in i + 1..5 {
                for j in k + 1..5 {
                    assert_eq!(tab.f(i, k, j), f(i, k, j), "({i},{k},{j})");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_infinite_costs() {
        let p = FnProblem::new(2, |_| u64::MAX / 2, |_, _, _| 0u64);
        assert!(p.validate().is_err());
        let p = FnProblem::new(2, |_| 0u64, |_, _, _| u64::MAX);
        assert!(p.validate().is_err());
    }
}
