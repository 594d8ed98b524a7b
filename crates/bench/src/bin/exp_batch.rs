//! E5 — batch throughput: solving many instances concurrently over one
//! pool vs. a sequential loop of façade solves, across batch sizes and
//! backends.
//!
//! ```text
//! exp_batch [--quick] [--json PATH]
//! ```
//!
//! `--quick` restricts to the CI bench-smoke configuration (small
//! batches, one extra timing rep); `--json PATH` additionally writes
//! the records as a machine-readable report (uploaded as a CI artifact
//! next to E4/T1/B1 so the throughput trajectory accumulates run over
//! run).
//!
//! Every batch run is parity-checked job-for-job against the
//! sequential-loop baseline before its throughput is reported, and the
//! loop baseline itself is the measured reference: `throughput_vs_loop`
//! is the batch/loop speedup on the same job set. On a single-core host
//! the two coincide (the pool degrades to a loop); the interesting
//! figures come from multi-core CI runners.

use pardp_apps::generators;
use pardp_bench::{banner, cell, fmt_f, print_table, time_best};
use pardp_core::prelude::*;
use serde::{Deserialize, Serialize};

/// One timed batch configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BatchPoint {
    batch_size: usize,
    backend: String,
    mode: String,
    seconds: f64,
    throughput: f64,
    throughput_vs_loop: f64,
    small_jobs: usize,
    large_jobs: usize,
    parity_ok: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    experiment: String,
    quick: bool,
    host_threads: usize,
    points: Vec<BatchPoint>,
    all_ok: bool,
    batch_beats_or_matches_loop_on_parallel: bool,
}

/// Mixed-size job set: chains with n cycling through the size list, so
/// every batch exercises heterogeneous per-job work.
fn job_set(batch_size: usize, sizes: &[usize]) -> Vec<pardp_apps::MatrixChain> {
    (0..batch_size)
        .map(|i| generators::random_chain(sizes[i % sizes.len()], 100, 1000 + i as u64))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|pos| args.get(pos + 1).expect("--json needs a path").clone());

    banner(
        "E5",
        "batch throughput: concurrent solves over one pool vs. a sequential loop",
    );

    let batch_sizes: &[usize] = if quick { &[4, 16] } else { &[4, 16, 64] };
    let sizes: &[usize] = if quick {
        &[16, 24, 32, 40]
    } else {
        &[24, 40, 56, 72]
    };
    let reps = if quick { 3 } else { 2 };
    let backends: &[(&str, ExecBackend)] = &[
        ("seq", ExecBackend::Sequential),
        ("parallel", ExecBackend::Parallel),
        ("threads:2", ExecBackend::Threads(2)),
    ];

    let mut points = Vec::new();
    for &batch_size in batch_sizes {
        let problems = job_set(batch_size, sizes);
        let jobs: Vec<BatchJob<'_, u64>> = problems
            .iter()
            .map(|p| BatchJob::new(p).algorithm(Algorithm::Sublinear))
            .collect();

        // The baseline: a plain sequential loop of façade solves with
        // the same per-job options the batch paths use internally.
        let (loop_values, t_loop) = time_best(reps, || {
            jobs.iter()
                .map(|j| {
                    Solver::new(j.algorithm)
                        .options(j.options.exec(ExecBackend::Sequential))
                        .solve(j.problem)
                        .value()
                })
                .collect::<Vec<u64>>()
        });
        let loop_tp = batch_size as f64 / t_loop;
        points.push(BatchPoint {
            batch_size,
            backend: "seq".to_string(),
            mode: "loop".to_string(),
            seconds: t_loop,
            throughput: loop_tp,
            throughput_vs_loop: 1.0,
            small_jobs: batch_size,
            large_jobs: 0,
            parity_ok: true,
        });

        for &(name, exec) in backends {
            let (report, t) = time_best(reps, || BatchSolver::new().exec(exec).solve_batch(&jobs));
            let parity_ok = report
                .results
                .iter()
                .zip(&loop_values)
                .all(|(r, &v)| r.solution.value() == v)
                && report.results.len() == batch_size;
            let tp = batch_size as f64 / t;
            points.push(BatchPoint {
                batch_size,
                backend: name.to_string(),
                mode: "batch".to_string(),
                seconds: t,
                throughput: tp,
                throughput_vs_loop: tp / loop_tp,
                small_jobs: report.counts.completed_small as usize,
                large_jobs: report.counts.completed_large as usize,
                parity_ok,
            });
        }

        // Mixed-regime point: a threshold at the median job size routes
        // the upper half of each batch through the parallel per-problem
        // phase, so the large-job path is measured too (the default
        // threshold keeps all of these sizes small).
        let mid = sizes[sizes.len() / 2];
        let mixed_cells = mid * (mid + 1) / 2;
        let (report, t) = time_best(reps, || {
            BatchSolver::new()
                .exec(ExecBackend::Parallel)
                .large_job_cells(mixed_cells)
                .solve_batch(&jobs)
        });
        let parity_ok = report
            .results
            .iter()
            .zip(&loop_values)
            .all(|(r, &v)| r.solution.value() == v)
            && report.counts.completed_large > 0;
        let tp = batch_size as f64 / t;
        points.push(BatchPoint {
            batch_size,
            backend: "parallel".to_string(),
            mode: "batch-mixed".to_string(),
            seconds: t,
            throughput: tp,
            throughput_vs_loop: tp / loop_tp,
            small_jobs: report.counts.completed_small as usize,
            large_jobs: report.counts.completed_large as usize,
            parity_ok,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                cell(p.batch_size),
                cell(&p.mode),
                cell(&p.backend),
                fmt_f(p.seconds),
                fmt_f(p.throughput),
                fmt_f(p.throughput_vs_loop),
                cell(if p.parity_ok { "ok" } else { "FAIL" }),
            ]
        })
        .collect();
    print_table(
        &[
            "batch", "mode", "backend", "seconds", "solves/s", "vs loop", "parity",
        ],
        &rows,
    );

    let all_ok = points.iter().all(|p| p.parity_ok);
    // Acceptance figure: on the Parallel backend the batch path must
    // not lose to the sequential loop (a small tolerance absorbs timer
    // noise on single-core hosts, where the two paths do equal work).
    let batch_ge_loop = points
        .iter()
        .filter(|p| p.mode == "batch" && p.backend == "parallel")
        .all(|p| p.throughput_vs_loop >= 0.98);
    println!(
        "\nparity vs sequential loop: {}",
        if all_ok { "ok" } else { "FAIL" }
    );
    println!(
        "batch >= loop throughput on parallel: {}",
        if batch_ge_loop { "ok" } else { "FAIL" }
    );

    if let Some(path) = json_path {
        let report = Report {
            experiment: "E5-batch".to_string(),
            quick,
            host_threads: ExecBackend::Parallel.effective_threads(),
            points,
            all_ok,
            batch_beats_or_matches_loop_on_parallel: batch_ge_loop,
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("JSON report written to {path}");
    }
    assert!(all_ok);
}
