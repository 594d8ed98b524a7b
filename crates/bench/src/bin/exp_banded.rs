//! B1 — the §5 banded path: wall-time of the flat-slice streamed
//! `a-square-banded` kernel against the per-cell naive reference, and the
//! solver-level payoff of convergence-aware scheduling in the §5 solver
//! (banded square row skipping + persistent pebble dirty bits).
//!
//! ```text
//! exp_banded [--quick] [--json PATH]
//! ```
//!
//! `--quick` restricts to the CI bench-smoke configuration (smaller `n`,
//! one timing rep); `--json PATH` additionally writes the records as a
//! machine-readable report (uploaded as a CI artifact next to the E4 and
//! T1 reports so the perf trajectory accumulates run over run).
//!
//! Every kernel is parity-checked cell-for-cell against the naive
//! reference, and every scheduled solve value-checked against the full
//! sweep, before its timing is reported.

use pardp_apps::generators;
use pardp_bench::{banner, cell, fmt_f, print_table, time_best};
use pardp_core::ops::{
    a_activate_banded, a_pebble_banded, a_square_banded, a_square_banded_scheduled, SquareStrategy,
};
use pardp_core::prelude::*;
use pardp_core::reduced::default_band;
use pardp_core::tables::{BandedPw, WTable};
use serde::{Deserialize, Serialize};

/// One timed banded square sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelRecord {
    n: usize,
    band: usize,
    kernel: String,
    seconds: f64,
    candidates: u64,
    writes: u64,
    parity_ok: bool,
}

/// One reduced-solver run with/without convergence-aware scheduling.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SolverRecord {
    n: usize,
    skip_clean_rows: bool,
    seconds: f64,
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

/// Mid-run banded tables: a few iterations over a random chain, so the
/// sweep sees realistic, partially-filled data.
fn warm_tables(n: usize, band: usize) -> BandedPw<u64> {
    let p = generators::random_chain(n, 100, 42);
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = BandedPw::new(n, band);
    let mut pw_next = BandedPw::new(n, band);
    let mut w_next = w.clone();
    for _ in 0..3 {
        a_activate_banded(&p, &w, &mut pw, &ExecBackend::Sequential);
        a_square_banded(&pw, &mut pw_next, &ExecBackend::Sequential);
        std::mem::swap(&mut pw, &mut pw_next);
        a_pebble_banded(&p, &pw, &w, &mut w_next, None, &ExecBackend::Sequential);
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
        "B1",
        "banded a-square: streamed vs naive kernel + reduced-solver scheduling payoff",
    );

    let sizes: &[usize] = if quick { &[128, 192] } else { &[128, 192, 256] };
    let reps = if quick { 1 } else { 2 };

    let mut kernels = Vec::new();
    for &n in sizes {
        let band = default_band(n);
        let pw = warm_tables(n, band);
        let mut reference = BandedPw::new(n, band);
        let (base, t_base) = time_best(reps, || {
            a_square_banded_scheduled(
                &pw,
                &mut reference,
                SquareStrategy::Naive,
                None,
                &ExecBackend::Sequential,
            )
            .0
        });
        kernels.push(KernelRecord {
            n,
            band,
            kernel: "naive".to_string(),
            seconds: t_base,
            candidates: base.candidates,
            writes: base.writes,
            parity_ok: true,
        });
        // The streamed kernel against the naive reference (their parity
        // on every backend is also proptested).
        let mut out = BandedPw::new(n, band);
        let (stats, t) = time_best(reps, || {
            a_square_banded_scheduled(
                &pw,
                &mut out,
                SquareStrategy::Auto,
                None,
                &ExecBackend::Sequential,
            )
            .0
        });
        let parity_ok = out.as_slice() == reference.as_slice() && stats == base;
        kernels.push(KernelRecord {
            n,
            band,
            kernel: "streamed".to_string(),
            seconds: t,
            candidates: stats.candidates,
            writes: stats.writes,
            parity_ok,
        });
        // The post-convergence copy path: what a fully clean iteration
        // costs under the dirty-row scheduler.
        let skip_all = vec![true; pw.indexer().len()];
        let (skip_stats, t_skip) = time_best(reps, || {
            a_square_banded_scheduled(
                &pw,
                &mut out,
                SquareStrategy::Auto,
                Some(&skip_all),
                &ExecBackend::Sequential,
            )
            .0
        });
        kernels.push(KernelRecord {
            n,
            band,
            kernel: "skip_all".to_string(),
            seconds: t_skip,
            candidates: skip_stats.candidates,
            writes: skip_stats.writes,
            parity_ok: out.as_slice() == pw.as_slice(),
        });
    }

    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|r| {
            vec![
                cell(r.n),
                cell(r.band),
                cell(&r.kernel),
                fmt_f(r.seconds),
                cell(r.candidates),
                cell(r.writes),
                cell(if r.parity_ok { "ok" } else { "FAIL" }),
            ]
        })
        .collect();
    print_table(
        &[
            "n",
            "B",
            "kernel",
            "seconds",
            "candidates",
            "writes",
            "parity",
        ],
        &rows,
    );

    // Solver-level: full §5 solves with and without convergence-aware
    // scheduling (fixed 2*ceil(sqrt n) schedule, windowed pebble — the
    // paper's configuration).
    println!("\nConvergence-aware scheduling (reduced solver, fixed schedule):");
    let solver_sizes: &[usize] = if quick { &[96, 128] } else { &[96, 128, 192] };
    let mut solver = Vec::new();
    for &n in solver_sizes {
        let p = generators::random_chain(n, 100, 7);
        for skip in [false, true] {
            let configured = Solver::new(Algorithm::Reduced).options(
                SolveOptions::default()
                    .exec(ExecBackend::Sequential)
                    .skip_clean_rows(skip),
            );
            let (sol, t) = time_best(reps, || configured.solve(&p));
            solver.push(SolverRecord {
                n,
                skip_clean_rows: skip,
                seconds: t,
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
                cell(r.total_candidates),
                cell(r.value),
            ]
        })
        .collect();
    print_table(
        &["n", "skip_clean_rows", "seconds", "total cands", "c(0,n)"],
        &rows,
    );

    // Headline ratios for the log.
    for &n in sizes {
        let naive = kernels.iter().find(|r| r.n == n && r.kernel == "naive");
        let streamed = kernels.iter().find(|r| r.n == n && r.kernel == "streamed");
        if let (Some(a), Some(b)) = (naive, streamed) {
            println!(
                "n = {n}: streamed square {:.2}x vs naive ({} -> {} s)",
                a.seconds / b.seconds,
                fmt_f(a.seconds),
                fmt_f(b.seconds)
            );
        }
    }
    for pair in solver.chunks(2) {
        if let [full, skip] = pair {
            println!(
                "n = {}: scheduled solve {:.2}x vs full sweeps ({} -> {} s, {} -> {} candidates)",
                full.n,
                full.seconds / skip.seconds,
                fmt_f(full.seconds),
                fmt_f(skip.seconds),
                full.total_candidates,
                skip.total_candidates
            );
        }
    }

    let all_ok = kernels.iter().all(|r| r.parity_ok)
        && solver
            .chunks(2)
            .all(|pair| pair.len() == 2 && pair[0].value == pair[1].value);
    println!(
        "\nall kernels parity-checked against naive, all solves value-checked: {}",
        if all_ok { "ok" } else { "FAIL" }
    );

    if let Some(path) = json_path {
        let report = Report {
            experiment: "B1-banded".to_string(),
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
