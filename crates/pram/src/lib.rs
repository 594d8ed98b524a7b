//! # pardp-pram — a CREW PRAM cost-model simulator
//!
//! The algorithm of Huang, Liu and Viswanathan (ICPP 1990 / TCS 106 (1992))
//! is stated for a **concurrent-read exclusive-write parallel random access
//! machine** (CREW PRAM): a synchronous machine in which any number of
//! processors may read a shared memory cell in one step, but at most one
//! processor may write a given cell per step.
//!
//! No such machine exists in hardware, so this crate provides the closest
//! executable substitute: a *cost-model simulator*. It does not try to be a
//! cycle-accurate machine; instead it
//!
//! * executes the algorithm's synchronous *phases* (parallel maps and
//!   balanced-tree reductions) while **accounting** the exact PRAM costs —
//!   unit **work** (total operations), **depth** (parallel time under an
//!   unbounded number of processors) and **peak processor demand**;
//! * derives the running time on `p` processors by **Brent's theorem**
//!   (`T_p <= W/p + D`, computed exactly layer by layer rather than via the
//!   inequality);
//! * optionally *audits* the exclusive-write discipline with
//!   [`SharedArray`], which detects two writes to the same cell within one
//!   synchronous step (a CREW violation) as well as a read of a cell that
//!   was already written in the same step (a synchrony violation: PRAM
//!   semantics say all reads of a step happen before all writes).
//!
//! The intended use (see `pardp-core::pram_exec`) is to replay each
//! `a-activate` / `a-square` / `a-pebble` operation of the paper as one or
//! more recorded phases, producing the processor/time/work tables of
//! EXPERIMENTS.md (experiment E9).
//!
//! ## Example
//!
//! ```
//! use pardp_pram::{Pram, PhaseKind};
//!
//! let mut pram = Pram::new("demo");
//! // A parallel map over 1000 cells: work 1000, depth 1.
//! pram.map_phase("init", 1000);
//! // 100 independent min-reductions, each over 50 candidates:
//! // work 100*49, depth ceil(log2 50) = 6.
//! pram.reduce_phase("min", 100, 50);
//! let m = pram.metrics();
//! assert_eq!(m.work, 1000 + 100 * 49);
//! assert_eq!(m.depth, 1 + 6);
//! // Brent-scheduled time on 64 processors.
//! assert!(pram.brent_time(64) >= m.depth);
//! assert!(pram.brent_time(1) == m.work);
//! # let _ = PhaseKind::Map;
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
pub mod array;
pub mod error;
pub mod machine;
pub mod metrics;
pub mod schedule;

pub use array::{AuditMode, SharedArray};
pub use error::PramError;
pub use machine::Pram;
pub use metrics::{Metrics, PhaseKind, PhaseRecord};
pub use schedule::{ScheduledPhase, Timeline};

/// Ceiling of `log2(x)` for `x >= 1`; 0 for `x <= 1`.
///
/// This is the depth of a balanced binary reduction tree over `x` inputs,
/// the canonical PRAM schedule for computing a `min` of `x` values.
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1 << 20), 20);
        assert_eq!(ceil_log2((1 << 20) + 1), 21);
    }

    #[test]
    fn ceil_log2_powers_of_two_are_exact() {
        for e in 0..40u32 {
            assert_eq!(ceil_log2(1u64 << e), e);
        }
    }
}
