//! `BatchSolver` is a *pure re-scheduling* of [`Solver::solve`]: for
//! every backend, regime threshold, and per-job algorithm mix, the batch
//! results must be bit-identical — values, tables, traces, statistics —
//! to a sequential loop of façade solves over the same jobs. The only
//! thing batching may change is wall time.

use pardp_core::prelude::*;
use proptest::prelude::*;

fn chain(dims: &[u64]) -> impl DpProblem<u64> {
    let dims = dims.to_vec();
    let n = dims.len() - 1;
    FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
}

/// Trace equality via the serde tree — `SolveTrace` has no `PartialEq`,
/// and the JSON rendering covers every field including the
/// per-iteration records.
fn trace_json(t: &pardp_core::trace::SolveTrace) -> String {
    serde_json::to_string(t).expect("serialize trace")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Mixed job sizes (n from 1 to 14), all six algorithms assigned
    // round-robin, three backends, and both an all-small and a
    // mixed-regime threshold: batch output == sequential-loop output.
    #[test]
    fn batch_is_bit_identical_to_a_sequential_solve_loop(
        seed_dims in proptest::collection::vec(
            proptest::collection::vec(1u64..60, 2..16),
            1..7,
        )
    ) {
        let problems: Vec<_> = seed_dims.iter().map(|d| chain(d)).collect();
        let jobs: Vec<BatchJob<'_, u64>> = problems
            .iter()
            .enumerate()
            .map(|(i, p)| {
                // Every algorithm appears; Knuth's restricted-search
                // table may be invalid on a non-QI chain but must still
                // be reproduced bit-for-bit.
                let algo = Algorithm::ALL[i % Algorithm::ALL.len()];
                BatchJob::new(p)
                    .algorithm(algo)
                    .options(SolveOptions::default().record_trace(true))
            })
            .collect();

        let loop_solutions: Vec<Solution<u64>> = jobs
            .iter()
            .map(|j| Solver::new(j.algorithm).options(j.options).solve(j.problem))
            .collect();

        for exec in [
            ExecBackend::Parallel,
            ExecBackend::Threads(3),
            ExecBackend::Sequential,
        ] {
            // Threshold 40 cells puts n >= 9 jobs on the parallel
            // per-problem path, so mixed batches exercise both regimes.
            for large_cells in [usize::MAX, 40] {
                let report = BatchSolver::new()
                    .exec(exec)
                    .large_job_cells(large_cells)
                    .solve_batch(&jobs);
                prop_assert_eq!(report.results.len(), jobs.len());
                let c = report.counts;
                prop_assert_eq!(c.completed_small + c.completed_large, jobs.len() as u64);
                for (r, expect) in report.results.iter().zip(&loop_solutions) {
                    let tag = format!(
                        "{} job {} on {exec} (large_cells={large_cells})",
                        r.solution.algorithm, r.job
                    );
                    prop_assert_eq!(r.solution.algorithm, expect.algorithm, "{}", tag);
                    prop_assert_eq!(r.solution.value(), expect.value(), "{}", tag);
                    prop_assert!(r.solution.w.table_eq(&expect.w), "{}", tag);
                    prop_assert_eq!(
                        trace_json(&r.solution.trace),
                        trace_json(&expect.trace),
                        "{}", tag
                    );
                    prop_assert_eq!(r.solution.stats, expect.stats, "{}", tag);
                    prop_assert_eq!(
                        r.large,
                        jobs[r.job].cells() > large_cells,
                        "{}", tag
                    );
                }
                let summed = report
                    .results
                    .iter()
                    .fold(OpStats::default(), |acc, r| acc.merge(r.solution.stats));
                prop_assert_eq!(report.stats, summed);
            }
        }
    }
}
