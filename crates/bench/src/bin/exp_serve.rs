//! E6 — serve throughput: streaming a job corpus through the persistent
//! daemon (`pardp_core::serve`, pipe mode) vs solving the same corpus
//! with `BatchSolver`, across corpus sizes and worker backends.
//!
//! ```text
//! exp_serve [--quick] [--json PATH] [--emit-jobs PATH]
//! ```
//!
//! `--quick` restricts to the CI bench-smoke configuration; `--json
//! PATH` writes a machine-readable report (uploaded as a CI artifact
//! next to E4/T1/B1/E5); `--emit-jobs PATH` additionally writes the
//! quick corpus as a JSONL job file, which CI streams through the real
//! `pardp serve --pipe` binary and diffs against `pardp batch`.
//!
//! Every daemon run is parity-checked record-for-record against the
//! batch subsystem before its throughput is reported — the records must
//! be bit-identical apart from `wall_seconds` (value, table hash,
//! iteration counts, op statistics). The daemon adds per-request
//! admission, queueing, and response framing on top of the same
//! regime-gated pool, so `serve_vs_batch` is the protocol overhead
//! figure: it should stay close to 1 on corpora of nontrivial jobs.

use pardp_apps::generators;
use pardp_bench::{banner, cell, fmt_f, print_table, time_best};
use pardp_core::prelude::*;
use pardp_core::serve::{serve_pipe, ServeConfig};
use serde::{Deserialize, Serialize};

/// One timed daemon configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServePoint {
    batch_size: usize,
    backend: String,
    seconds: f64,
    throughput: f64,
    serve_vs_batch: f64,
    completed_small: u64,
    completed_large: u64,
    parity_ok: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    experiment: String,
    quick: bool,
    host_threads: usize,
    points: Vec<ServePoint>,
    all_ok: bool,
}

/// The E5 job mix as JSONL: chains with n cycling through the size
/// list, identical generator parameters to `exp_batch`.
fn corpus(batch_size: usize, sizes: &[usize]) -> String {
    let mut text = String::new();
    for i in 0..batch_size {
        let chain = generators::random_chain(sizes[i % sizes.len()], 100, 1000 + i as u64);
        let spec = JobSpec {
            family: "chain".to_string(),
            values: chain.dims().to_vec(),
            q: None,
            algo: None,
            band: None,
            trace: None,
        };
        text.push_str(&serde_json::to_string(&spec).expect("job serializes"));
        text.push('\n');
    }
    text
}

/// The reference records: the same corpus through `BatchSolver` under
/// the daemon's defaults.
fn batch_records(text: &str, config: &ServeConfig) -> Vec<JobRecord> {
    let resolved: Vec<ResolvedJob> = text
        .lines()
        .filter_map(|line| {
            match read_request(line.as_bytes(), config.default_algo, config.options) {
                Request::Job(job) => Some(job.expect("job resolves")),
                _ => None,
            }
        })
        .collect();
    let problems: Vec<SpecProblem> = resolved.iter().map(|r| r.problem.build()).collect();
    let jobs: Vec<BatchJob<'_, u64>> = problems
        .iter()
        .zip(&resolved)
        .map(|(p, r)| BatchJob::new(p).algorithm(r.algorithm).options(r.options))
        .collect();
    let report = BatchSolver::new()
        .exec(config.exec)
        .large_job_cells(config.large_job_cells)
        .solve_batch(&jobs);
    report
        .results
        .iter()
        .map(|r| {
            JobRecord::of_solution(
                r.job,
                resolved[r.job].problem.family(),
                &r.solution,
                r.large,
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|pos| {
            args.get(pos + 1)
                .unwrap_or_else(|| panic!("{flag} needs a path"))
                .clone()
        })
    };
    let json_path = arg_value("--json");
    let emit_jobs = arg_value("--emit-jobs");

    banner(
        "E6",
        "serve daemon: JSONL responses through the persistent pool vs BatchSolver",
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

    if let Some(path) = &emit_jobs {
        let text = corpus(*batch_sizes.last().unwrap(), sizes);
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("job corpus written to {path}");
    }

    let mut points = Vec::new();
    for &batch_size in batch_sizes {
        let text = corpus(batch_size, sizes);
        for &(name, exec) in backends {
            let config = ServeConfig {
                exec,
                ..ServeConfig::default()
            };
            let expected = batch_records(&text, &config);
            let (_, t_batch) = time_best(reps, || batch_records(&text, &config));

            let run = || {
                let mut out = Vec::new();
                let stats = serve_pipe(text.as_bytes(), &mut out, &config);
                (String::from_utf8(out).expect("utf8 responses"), stats)
            };
            let ((responses, stats), t_serve) = time_best(reps, run);

            let records: Vec<JobRecord> = responses
                .lines()
                .map(|l| {
                    use serde::Deserialize as _;
                    let v = serde_json::parse_value(l).expect("response parses");
                    JobRecord::from_value(&v).expect("response is a record")
                })
                .collect();
            let parity_ok = records.len() == expected.len()
                && records
                    .iter()
                    .zip(&expected)
                    .all(|(a, b)| a.deterministic() == b.deterministic())
                && stats.completed == batch_size as u64
                && stats.rejected == 0;

            let tp = batch_size as f64 / t_serve;
            points.push(ServePoint {
                batch_size,
                backend: name.to_string(),
                seconds: t_serve,
                throughput: tp,
                serve_vs_batch: t_batch / t_serve,
                completed_small: stats.completed_small,
                completed_large: stats.completed_large,
                parity_ok,
            });
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                cell(p.batch_size),
                cell(&p.backend),
                fmt_f(p.seconds),
                fmt_f(p.throughput),
                fmt_f(p.serve_vs_batch),
                cell(p.completed_small),
                cell(p.completed_large),
                cell(if p.parity_ok { "ok" } else { "FAIL" }),
            ]
        })
        .collect();
    print_table(
        &[
            "jobs", "backend", "seconds", "jobs/s", "vs batch", "small", "large", "parity",
        ],
        &rows,
    );

    let all_ok = points.iter().all(|p| p.parity_ok);
    println!(
        "\nrecord parity vs BatchSolver: {}",
        if all_ok { "ok" } else { "FAIL" }
    );

    if let Some(path) = json_path {
        let report = Report {
            experiment: "E6-serve".to_string(),
            quick,
            host_threads: ExecBackend::Parallel.effective_threads(),
            points,
            all_ok,
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("JSON report written to {path}");
    }
    assert!(all_ok);
}
