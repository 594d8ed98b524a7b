//! # pardp-apps — the dynamic programming problems of the paper
//!
//! The paper's recurrence (*) covers "computing an optimal order of matrix
//! multiplications, finding an optimal binary search tree or an optimal
//! triangulation of polygons" (§1). This crate provides those three
//! instances as [`pardp_core::problem::DpProblem`] implementations, with
//! solution interpretation (parenthesizations, search trees, diagonal
//! sets) and instance generators, including the adversarial *shape
//! forcing* family used to drive the algorithm into its zigzag worst case
//! and skewed/balanced best cases (§6).
//!
//! | module | problem | `init(i)` | `f(i,k,j)` |
//! |---|---|---|---|
//! | [`matrix_chain`] | optimal matrix-chain order | 0 | `d_i d_k d_j` |
//! | [`obst`] | optimal binary search tree | `q_i` | `W(i,j)` (interval weight) |
//! | [`triangulation`] | min-weight polygon triangulation | 0 | triangle weight |
//! | [`merge`] | optimal adjacent-run merging | 0 | `S(i,j)` (span length) |
//! | [`generators`] | random & shape-forcing instances | — | — |
//!
//! The four `u64` types ([`MatrixChain`], [`OptimalBst`],
//! [`WeightedPolygon`], [`MergeOrder`]) are the library side of the wire
//! families that `pardp solve`, `pardp batch` and `pardp serve` accept.
//! Each constructor validates its payload with the matching
//! [`ProblemSpec`] constructor and panics with its [`SpecError`] text on
//! a payload that breaks the family's shape rules or whose costs could
//! reach the `u64` weight infinity. The built [`SpecProblem`] then
//! evaluates the recurrence, so a library solve and a wire job of one
//! payload run the same cost formula and the same cell kernel.
//! [`PointPolygon`]'s geometric cost has no wire family and is
//! implemented here.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod generators;
pub mod matrix_chain;
pub mod merge;
pub mod obst;
pub mod triangulation;

pub use matrix_chain::MatrixChain;
pub use merge::MergeOrder;
pub use obst::OptimalBst;
pub use triangulation::{PointPolygon, WeightedPolygon};

use pardp_core::problem::DpProblem;
use pardp_core::spec::{ProblemSpec, SpecError, SpecProblem};

/// The [`SpecProblem`] of a payload its [`ProblemSpec`] constructor
/// accepted; a rejected payload panics with the [`SpecError`] text.
fn build(spec: Result<ProblemSpec, SpecError>) -> SpecProblem {
    match spec {
        Ok(spec) => spec.build(),
        Err(e) => panic!("{e}"),
    }
}

/// Implements [`DpProblem<u64>`] for types that hold their instance in a
/// `spec: SpecProblem` field, by handing every method of the recurrence
/// to it (`split_min` too, so the wavefront runs its cell kernel).
macro_rules! delegate_to_spec {
    ($($ty:ty),+) => {$(
        impl DpProblem<u64> for $ty {
            fn n(&self) -> usize {
                self.spec.n()
            }

            #[inline]
            fn init(&self, i: usize) -> u64 {
                self.spec.init(i)
            }

            #[inline]
            fn f(&self, i: usize, k: usize, j: usize) -> u64 {
                self.spec.f(i, k, j)
            }

            #[inline]
            fn split_min(&self, i: usize, j: usize, left: &[u64], right: &[u64]) -> u64 {
                self.spec.split_min(i, j, left, right)
            }

            fn name(&self) -> &str {
                self.spec.name()
            }
        }
    )+};
}

delegate_to_spec!(MatrixChain, OptimalBst, WeightedPolygon, MergeOrder);
