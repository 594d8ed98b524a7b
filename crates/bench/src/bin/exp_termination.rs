//! E10 (§7) — the convergence termination rule: "stop when the w(i,j)'s
//! do not change during two consecutive iterations".
//!
//! Measures iterations-to-stop under (a) the provably sufficient fixpoint
//! rule (`w` and `pw` both stable) and (b) the paper's `w`-only heuristic,
//! against the `2*ceil(sqrt n)` schedule, on random instances and on the
//! §6 forced shapes — and verifies that neither rule ever returned a
//! wrong value (both are additionally capped by the schedule, so they are
//! provably exact; the question is how early they fire).

use pardp_apps::generators;
use pardp_bench::{banner, cell, fmt_f, print_table};
use pardp_core::prelude::*;

fn iters<PB: DpProblem<u64> + ?Sized>(p: &PB, term: Termination) -> (u64, u64, bool) {
    let sol = Solver::new(Algorithm::Sublinear)
        .options(SolveOptions::default().termination(term))
        .solve(p);
    let exact = sol.w.table_eq(&solve_sequential(p));
    (sol.trace.iterations, sol.trace.schedule_bound, exact)
}

fn main() {
    banner(
        "E10",
        "§7 termination: convergence detection stops in ~O(log n) iterations on typical input",
    );
    let mut rows = Vec::new();
    let mut all_exact = true;
    for &n in &[16usize, 25, 36, 49, 64] {
        // Random matrix chains: average over seeds.
        let trials = 5u64;
        let mut fx_sum = 0u64;
        let mut ws_sum = 0u64;
        let mut bound = 0u64;
        for seed in 0..trials {
            let p = generators::random_chain(n, 100, 9000 + seed);
            let (fx, b, e1) = iters(&p, Termination::Fixpoint);
            let (ws, _, e2) = iters(&p, Termination::WStableTwice);
            fx_sum += fx;
            ws_sum += ws;
            bound = b;
            all_exact &= e1 && e2;
        }
        rows.push(vec![
            cell("random-chain"),
            cell(n),
            fmt_f(fx_sum as f64 / trials as f64),
            fmt_f(ws_sum as f64 / trials as f64),
            cell(bound),
            fmt_f((n as f64).log2()),
        ]);
    }
    for &n in &[16usize, 36, 64] {
        for (name, p) in [
            ("zigzag-forced", generators::zigzag_instance(n)),
            ("skewed-forced", generators::skewed_instance(n)),
            ("balanced-forced", generators::balanced_instance(n)),
            ("random-forced", generators::random_shape_instance(n, 77)),
        ] {
            let (fx, bound, e1) = iters(&p, Termination::Fixpoint);
            let (ws, _, e2) = iters(&p, Termination::WStableTwice);
            all_exact &= e1 && e2;
            rows.push(vec![
                cell(name),
                cell(n),
                cell(fx),
                cell(ws),
                cell(bound),
                fmt_f((n as f64).log2()),
            ]);
        }
    }
    print_table(
        &[
            "family",
            "n",
            "fixpoint iters",
            "w-stable-2 iters",
            "2*ceil(sqrt n)",
            "log2 n",
        ],
        &rows,
    );
    println!(
        "\nall runs exact: {}",
        if all_exact {
            "yes"
        } else {
            "NO — HEURISTIC FAILED"
        }
    );
    println!(
        "Random and skewed/balanced instances stop in O(log n) iterations, far below the \
         schedule; the zigzag-forced family needs the full Theta(sqrt n) — matching §6."
    );
}
