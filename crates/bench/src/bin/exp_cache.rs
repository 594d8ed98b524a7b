//! E7 — solution caching: cold vs cache-hit vs warm-started solves on
//! repeated and overlapping chain corpora (`pardp_core::store`).
//!
//! ```text
//! exp_cache [--quick] [--json PATH]
//! ```
//!
//! `--quick` restricts to the CI bench-smoke configuration; `--json
//! PATH` writes a machine-readable report (uploaded as a CI artifact
//! next to E4/T1/B1/E5/E6).
//!
//! Three paths per (algorithm, n):
//!
//! * **cold** — a plain façade solve; its candidate count is the ops
//!   baseline.
//! * **hit** — the same instance re-solved through a populated cache:
//!   zero composition candidates execute, and the restored solution is
//!   parity-checked bit-for-bit (value, table, trace, stats) against
//!   the cold one.
//! * **warm** — the instance solved with only its `m = 3n/4` prefix
//!   cached: the iterative solvers converge on the suffix region only,
//!   and the executed candidates must come in strictly under cold.
//!
//! A final batch section feeds a doubled, overlapping corpus through
//! `BatchSolver::solve_lines` with a shared cache and checks the
//! traffic counters (hits, misses, warm starts, intra-batch dedups).
//! Every metric the assertions rely on is ops-based — candidate counts
//! survive a loaded 1-CPU CI box; seconds are reported for color only.

use pardp_apps::generators;
use pardp_bench::{banner, cell, fmt_f, print_table, time_best};
use pardp_core::prelude::*;
use serde::{Deserialize, Serialize};

/// One (algorithm, n) comparison of the three solve paths.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CachePoint {
    algo: String,
    n: usize,
    prefix_n: usize,
    cold_candidates: u64,
    warm_candidates: u64,
    hit_candidates: u64,
    warm_vs_cold: f64,
    cold_seconds: f64,
    hit_seconds: f64,
    warm_seconds: f64,
    parity_ok: bool,
}

/// Two batch passes over one shared cache: a cold pass with intra-batch
/// repeats, then a pass of repeats and chain extensions.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BatchPoint {
    jobs: usize,
    cold_misses: u64,
    deduped: u64,
    repeat_hits: u64,
    extension_warm_starts: u64,
    parity_ok: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    experiment: String,
    quick: bool,
    host_threads: usize,
    points: Vec<CachePoint>,
    batch: BatchPoint,
    all_ok: bool,
}

fn opts() -> SolveOptions {
    SolveOptions::default().termination(Termination::Fixpoint)
}

/// Full bit-identity of two solutions (wall time excepted).
fn identical(a: &Solution<u64>, b: &Solution<u64>) -> bool {
    a.algorithm == b.algorithm
        && a.value() == b.value()
        && a.w.table_eq(&b.w)
        && a.trace == b.trace
        && a.stats == b.stats
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args.iter().position(|a| a == "--json").map(|pos| {
        args.get(pos + 1)
            .unwrap_or_else(|| panic!("--json needs a path"))
            .clone()
    });

    banner(
        "E7",
        "solution cache: cold vs hit vs warm-started solves on overlapping chains",
    );

    let sizes: &[usize] = if quick {
        &[16, 24, 32]
    } else {
        &[24, 40, 56, 72]
    };
    let reps = if quick { 3 } else { 2 };
    let algos = [Algorithm::Sublinear, Algorithm::Reduced];

    let mut points = Vec::new();
    for algo in algos {
        for (i, &n) in sizes.iter().enumerate() {
            let chain = generators::random_chain(n, 100, 4200 + i as u64);
            let spec = ProblemSpec::chain(chain.dims().to_vec()).expect("valid chain");
            let m = (3 * n / 4).max(2);
            let prefix = spec.prefix(m).expect("2 <= m < n");
            let solver = Solver::new(algo).options(opts());

            // Cold baseline.
            let (cold, cold_seconds) = time_best(reps, || solver.solve(&spec.build()));

            // Hit: populate once, then every timed repeat is a pure
            // cache read.
            let cache = MemoryCache::new(8);
            let (_, miss_outcome) = solver.with_cache(&cache).solve(&spec);
            assert_eq!(miss_outcome, CacheOutcome::Miss);
            let ((hit, hit_outcome), hit_seconds) =
                time_best(reps, || solver.with_cache(&cache).solve(&spec));
            assert_eq!(hit_outcome, CacheOutcome::Hit);

            // Warm: only the prefix record is cached. Each timed repeat
            // re-seeds a fresh cache with the stored prefix record so
            // the full instance genuinely warm-starts every time.
            let prefix_key = ProblemKey::derive(&prefix, algo, &opts()).expect("cacheable");
            let warm_seed = {
                let seed_cache = MemoryCache::new(8);
                solver.with_cache(&seed_cache).solve(&prefix);
                seed_cache
                    .get(prefix_key)
                    .expect("memory reads cannot fail")
                    .expect("prefix record stored")
            };
            let ((warm, warm_outcome), warm_seconds) = time_best(reps, || {
                let fresh = MemoryCache::new(8);
                fresh
                    .put(prefix_key, warm_seed.clone())
                    .expect("memory writes cannot fail");
                solver.with_cache(&fresh).solve(&spec)
            });
            assert_eq!(warm_outcome, CacheOutcome::Warm { seed_n: m });

            // Parity: hits are bit-identical to cold; warm starts match
            // on the result (value + table) and report no more work.
            let parity_ok = identical(&hit, &cold)
                && warm.value() == cold.value()
                && warm.w.table_eq(&cold.w)
                && warm.stats.candidates <= cold.stats.candidates;

            let cold_candidates = cold.stats.candidates;
            let warm_candidates = warm.stats.candidates;
            points.push(CachePoint {
                algo: algo.name().to_string(),
                n,
                prefix_n: m,
                cold_candidates,
                warm_candidates,
                // A hit executes nothing: the record is read back, so
                // zero composition candidates run on the hit path.
                hit_candidates: 0,
                warm_vs_cold: warm_candidates as f64 / cold_candidates.max(1) as f64,
                cold_seconds,
                hit_seconds,
                warm_seconds,
                parity_ok,
            });
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                cell(&p.algo),
                cell(p.n),
                cell(p.prefix_n),
                cell(p.cold_candidates),
                cell(p.warm_candidates),
                fmt_f(p.warm_vs_cold),
                fmt_f(p.cold_seconds),
                fmt_f(p.hit_seconds),
                cell(if p.parity_ok { "ok" } else { "FAIL" }),
            ]
        })
        .collect();
    print_table(
        &[
            "algo",
            "n",
            "prefix",
            "cold ops",
            "warm ops",
            "warm/cold",
            "cold s",
            "hit s",
            "parity",
        ],
        &rows,
    );

    // Batch: pass 1 solves each chain cold (with an intra-batch repeat
    // per size), pass 2 repeats every chain and extends it by three
    // matrices — repeats must hit, extensions must warm-start from the
    // records pass 1 inserted.
    let job = |spec: ProblemSpec| {
        Ok(ResolvedJob {
            problem: spec,
            algorithm: Algorithm::Sublinear,
            options: opts(),
        })
    };
    let mut pass1: Vec<Result<ResolvedJob, SpecError>> = Vec::new();
    let mut pass2: Vec<Result<ResolvedJob, SpecError>> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let chain = generators::random_chain(n, 100, 4200 + i as u64);
        let spec = ProblemSpec::chain(chain.dims().to_vec()).expect("valid chain");
        let mut extended = chain.dims().to_vec();
        extended.extend_from_slice(&[7, 13, 21]);
        pass1.push(job(spec.clone()));
        pass1.push(job(spec.clone()));
        pass2.push(job(spec));
        pass2.push(job(ProblemSpec::chain(extended).expect("valid chain")));
    }
    let cache = MemoryCache::new(64);
    let solver = BatchSolver::new();
    let report1 = solver.solve_lines(&pass1, Some(&cache));
    let report2 = solver.solve_lines(&pass2, Some(&cache));
    let batch_parity = report1
        .results
        .iter()
        .map(|r| (r, &pass1[r.job]))
        .chain(report2.results.iter().map(|r| (r, &pass2[r.job])))
        .all(|(r, job)| {
            let job = job.as_ref().expect("every job resolved");
            let cold = Solver::new(job.algorithm)
                .options(job.options)
                .solve(&job.problem.build());
            r.solution.value() == cold.value() && r.solution.w.table_eq(&cold.w)
        });
    let batch = BatchPoint {
        jobs: pass1.len() + pass2.len(),
        cold_misses: report1.counts.cache_misses,
        deduped: report1.counts.deduped,
        repeat_hits: report2.counts.cache_hits,
        extension_warm_starts: report2.counts.warm_starts,
        parity_ok: batch_parity,
    };
    println!(
        "\nbatch over shared cache: {} jobs — pass 1: {} miss / {} deduped; \
         pass 2: {} hit / {} warm-started; parity {}",
        batch.jobs,
        batch.cold_misses,
        batch.deduped,
        batch.repeat_hits,
        batch.extension_warm_starts,
        if batch.parity_ok { "ok" } else { "FAIL" }
    );

    // Ops-based acceptance: hits execute nothing, warm starts beat cold
    // on every point, batch traffic matches the corpus construction.
    let per_size = sizes.len() as u64;
    let all_ok = points
        .iter()
        .all(|p| p.parity_ok && p.cold_candidates > 0 && p.warm_candidates < p.cold_candidates)
        && batch.parity_ok
        && batch.cold_misses == per_size
        && batch.deduped == per_size
        && batch.repeat_hits == per_size
        && batch.extension_warm_starts == per_size;
    println!(
        "\ncache paths beat cold on ops everywhere: {}",
        if all_ok { "ok" } else { "FAIL" }
    );

    if let Some(path) = json_path {
        let report = Report {
            experiment: "E7-cache".to_string(),
            quick,
            host_threads: ExecBackend::Parallel.effective_threads(),
            points,
            batch,
            all_ok,
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("JSON report written to {path}");
    }
    assert!(all_ok);
}
