//! The `Solver` façade's uniform diagnostics and registry invariants:
//! every algorithm fills the same `Solution` shape consistently, names
//! round-trip, and the listing is complete. (Bit-identity of the
//! iterative solvers' tables, stats and traces is pinned by the golden
//! fixture in `golden_traces.rs`.)

use pardp_core::prelude::*;
use proptest::prelude::*;

fn chain(dims: &[u64]) -> impl DpProblem<u64> {
    let dims = dims.to_vec();
    let n = dims.len() - 1;
    FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The façade's uniform diagnostics are internally consistent for
    // every algorithm: stats aggregate the trace, the wall clock ticks,
    // and tree() reconstructs a tree of the right size.
    #[test]
    fn facade_solutions_are_uniformly_well_formed(
        dims in proptest::collection::vec(1u64..80, 2..12)
    ) {
        let p = chain(&dims);
        let n = dims.len() - 1;
        for algo in Algorithm::ALL {
            if algo == Algorithm::Knuth {
                continue; // table may be invalid on a non-QI chain
            }
            let sol = Solver::new(algo)
                .options(SolveOptions::default().exec(ExecBackend::Sequential).record_trace(true))
                .solve(&p);
            prop_assert_eq!(sol.trace.n, n, "{}", algo);
            prop_assert_eq!(
                sol.trace.per_iteration.len() as u64,
                sol.trace.iterations,
                "{}", algo
            );
            if algo.is_iterative() {
                prop_assert_eq!(
                    sol.stats.candidates, sol.trace.total_candidates,
                    "{}", algo
                );
            } else {
                prop_assert_eq!(sol.stats, OpStats::default(), "{}", algo);
                prop_assert_eq!(sol.trace.stop, StopReason::Direct, "{}", algo);
            }
            prop_assert!(
                sol.wall > std::time::Duration::ZERO,
                "{} wall must cover solve + diagnostics assembly", algo
            );
            let tree = sol.tree(&p).expect("solved table");
            prop_assert_eq!(tree.n_leaves(), n, "{}", algo);
        }
    }
}

// `Solution.wall` is measured in the façade, around the whole dispatch,
// for **every** algorithm (the direct paths used to be measured in the
// façade but the iterative ones inside their modules) — so it is never
// zero, Knuth included.
#[test]
fn wall_time_is_positive_for_every_algorithm() {
    let p = chain(&[30, 35, 15, 5, 10, 20, 25]);
    for algo in Algorithm::ALL {
        let sol = Solver::new(algo)
            .options(SolveOptions::default().exec(ExecBackend::Sequential))
            .solve(&p);
        assert!(sol.wall > std::time::Duration::ZERO, "{algo}");
    }
}

#[test]
fn registry_round_trips_and_is_complete() {
    for a in Algorithm::ALL {
        assert_eq!(a.name().parse::<Algorithm>().unwrap(), a);
        assert_eq!(a.to_string(), a.name());
    }
    // Canonical names are pairwise distinct.
    let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), Algorithm::ALL.len());
    // The listing mentions every name and description.
    let listing = Algorithm::listing();
    for a in Algorithm::ALL {
        assert!(listing.contains(a.name()));
        assert!(listing.contains(a.description()));
    }
}
