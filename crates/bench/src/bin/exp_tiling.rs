//! T1 — the dense `a-square` (the `O(n^5)` hot path over `DensePw`, the
//! reference form of the square the §2 solver runs on its full-band
//! width-major table): wall-time and candidate counts of the naive
//! reference and the streamed kernel (`auto`), plus the solver-level
//! payoff of convergence-aware row scheduling.
//!
//! ```text
//! exp_tiling [--quick] [--json PATH]
//! ```
//!
//! `--quick` restricts to the CI bench-smoke configuration (n = 64, 96,
//! one timing rep); `--json PATH` additionally writes the records as a
//! machine-readable report (uploaded as a CI artifact so the perf
//! trajectory accumulates run over run).
//!
//! The streamed kernel is parity-checked cell-for-cell against the naive
//! reference before its timing is reported.

use pardp_apps::generators;
use pardp_bench::{banner, cell, fmt_f, print_table, time_best};
use pardp_core::ops::{
    a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_dense_scheduled, SquareStrategy,
};
use pardp_core::prelude::*;
use pardp_core::tables::{DensePw, WTable};
use serde::{Deserialize, Serialize};

/// One timed square sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelRecord {
    n: usize,
    kernel: String,
    seconds: f64,
    candidates: u64,
    writes: u64,
    parity_ok: bool,
}

/// One solver run with/without dirty-row scheduling.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SolverRecord {
    n: usize,
    skip_clean_rows: bool,
    seconds: f64,
    square_candidates: u64,
    total_candidates: u64,
    value: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    experiment: String,
    quick: bool,
    kernels: Vec<KernelRecord>,
    solver: Vec<SolverRecord>,
    all_ok: bool,
}

/// Mid-run tables: a few iterations over a random chain, so the sweep
/// sees realistic, partially-filled data.
fn warm_tables(n: usize) -> DensePw<u64> {
    let p = generators::random_chain(n, 100, 42);
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();
    for _ in 0..2 {
        a_activate_dense_tracked(&p, &w, &mut pw, &ExecBackend::Sequential);
        a_square_dense_scheduled(
            &pw,
            &mut pw_next,
            SquareStrategy::Auto,
            None,
            &ExecBackend::Sequential,
        );
        std::mem::swap(&mut pw, &mut pw_next);
        a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &ExecBackend::Sequential);
        std::mem::swap(&mut w, &mut w_next);
    }
    pw
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|pos| args.get(pos + 1).expect("--json needs a path").clone());

    banner(
        "T1",
        "dense a-square: naive vs streamed wall-time + dirty-row scheduling payoff",
    );

    let sizes: &[usize] = if quick { &[64, 96] } else { &[64, 96, 128] };
    let reps = if quick { 1 } else { 2 };

    let mut kernels = Vec::new();
    for &n in sizes {
        let pw = warm_tables(n);
        let mut reference = DensePw::new(n);
        let mut out = DensePw::new(n);
        let sweep = |strategy, next: &mut DensePw<u64>| {
            time_best(reps, || {
                a_square_dense_scheduled(&pw, next, strategy, None, &ExecBackend::Sequential).0
            })
        };
        let (base, t_base) = sweep(SquareStrategy::Naive, &mut reference);
        let (stats, t) = sweep(SquareStrategy::Auto, &mut out);
        let parity_ok = out.as_slice() == reference.as_slice() && stats == base;
        for (kernel, seconds, stats, parity_ok) in
            [("naive", t_base, base, true), ("auto", t, stats, parity_ok)]
        {
            kernels.push(KernelRecord {
                n,
                kernel: kernel.to_string(),
                seconds,
                candidates: stats.candidates,
                writes: stats.writes,
                parity_ok,
            });
        }
    }

    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|r| {
            vec![
                cell(r.n),
                cell(&r.kernel),
                fmt_f(r.seconds),
                cell(r.candidates),
                cell(r.writes),
                cell(if r.parity_ok { "ok" } else { "FAIL" }),
            ]
        })
        .collect();
    print_table(
        &["n", "kernel", "seconds", "candidates", "writes", "parity"],
        &rows,
    );

    // Solver-level: total square work and wall time with and without
    // convergence-aware row scheduling (full fixed schedule, so the
    // post-convergence iterations are where the skip pays).
    println!("\nDirty-row scheduling (sublinear solver, FixedSqrtN schedule):");
    let solver_sizes: &[usize] = if quick { &[64] } else { &[64, 96] };
    let mut solver = Vec::new();
    for &n in solver_sizes {
        let p = generators::random_chain(n, 100, 7);
        for skip in [false, true] {
            let configured = Solver::new(Algorithm::Sublinear).options(
                SolveOptions::default()
                    .exec(ExecBackend::Sequential)
                    .record_trace(true)
                    .skip_clean_rows(skip),
            );
            let (sol, t) = time_best(1, || configured.solve(&p));
            let (_, sq, _) = sol.trace.work_by_op();
            solver.push(SolverRecord {
                n,
                skip_clean_rows: skip,
                seconds: t,
                square_candidates: sq,
                total_candidates: sol.trace.total_candidates,
                value: sol.value(),
            });
        }
    }
    let rows: Vec<Vec<String>> = solver
        .iter()
        .map(|r| {
            vec![
                cell(r.n),
                cell(r.skip_clean_rows),
                fmt_f(r.seconds),
                cell(r.square_candidates),
                cell(r.total_candidates),
                cell(r.value),
            ]
        })
        .collect();
    print_table(
        &[
            "n",
            "skip_clean_rows",
            "seconds",
            "square cands",
            "total cands",
            "c(0,n)",
        ],
        &rows,
    );

    let all_ok = kernels.iter().all(|r| r.parity_ok)
        && solver
            .chunks(2)
            .all(|pair| pair.len() == 2 && pair[0].value == pair[1].value);
    println!(
        "\nstreamed kernel parity-checked against naive: {}",
        if all_ok { "ok" } else { "FAIL" }
    );

    if let Some(path) = json_path {
        let report = Report {
            experiment: "T1-tiling".to_string(),
            quick,
            kernels,
            solver,
            all_ok,
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("JSON report written to {path}");
    }
    assert!(all_ok);
}
