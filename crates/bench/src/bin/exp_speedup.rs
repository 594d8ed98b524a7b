//! E11 (§1 motivation) — real-machine behaviour on a multicore host.
//!
//! The paper's result is a PRAM construction: its value is the depth
//! bound, not constant-factor practicality. On `p` cores the work-optimal
//! wavefront algorithm is the practical winner; the sublinear algorithm's
//! `Theta(n^5)`-ish work makes it slower in wall-clock despite its
//! shallower critical path. This experiment reports both honestly, plus
//! the thread-scaling of the wavefront solver.

use pardp_apps::generators;
use pardp_bench::{banner, cell, fmt_f, print_table, time_best};
use pardp_core::prelude::*;

fn main() {
    banner(
        "E11",
        "wall-clock on real cores: sequential vs wavefront vs sublinear (thread pool)",
    );
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("host cores: {cores}\n");

    let mut rows = Vec::new();
    for &n in &[64usize, 128, 256, 512, 1024, 2048] {
        let p = generators::random_chain(n, 100, 1234);
        let reps = if n <= 256 { 5 } else { 2 };
        let (seq_val, t_seq) = time_best(reps, || {
            Solver::new(Algorithm::Sequential).solve(&p).value()
        });
        let (wav_val, t_wav) =
            time_best(reps, || Solver::new(Algorithm::Wavefront).solve(&p).value());
        assert_eq!(seq_val, wav_val);
        // One façade call per paper algorithm — the size caps differ
        // (Theta(n^5) vs Theta(n^3.5) per-iteration work), nothing else.
        let paper_report = |algo: Algorithm, cap: usize| {
            if n <= cap {
                let ((), t) = time_best(1, || {
                    let sol = Solver::new(algo).solve(&p);
                    assert_eq!(sol.value(), seq_val);
                });
                (fmt_f(t), t)
            } else {
                ("-".into(), f64::NAN)
            }
        };
        let (sub_report, t_sub) = paper_report(Algorithm::Sublinear, 128);
        let (red_report, _t_red) = paper_report(Algorithm::Reduced, 192);
        let _ = t_sub;
        rows.push(vec![
            cell(n),
            fmt_f(t_seq),
            fmt_f(t_wav),
            fmt_f(t_seq / t_wav),
            sub_report,
            red_report,
        ]);
    }
    print_table(
        &[
            "n",
            "sequential s",
            "wavefront s",
            "wavefront speedup",
            "sublinear s",
            "reduced s",
        ],
        &rows,
    );
    println!(
        "\nThe wavefront (work-optimal) parallelization wins past its fork-join crossover; \
         the sublinear algorithm trades Theta(n^2)-times more work for critical-path depth \
         that only a PRAM-scale machine could exploit — as the paper's processor counts imply."
    );

    banner(
        "E11b",
        "wavefront thread scaling (ExecBackend::Threads sweep)",
    );
    let n = 1024usize;
    let p = generators::random_chain(n, 100, 4321);
    let solve_on = |threads: usize| {
        let exec = if threads == 1 {
            ExecBackend::Sequential
        } else {
            ExecBackend::Threads(threads)
        };
        Solver::new(Algorithm::Wavefront)
            .options(SolveOptions::default().exec(exec))
            .solve(&p)
            .value()
    };
    let (_, t1) = time_best(3, || solve_on(1));
    let mut rows = Vec::new();
    let mut threads = 1usize;
    while threads <= cores {
        let (_, t) = time_best(3, || solve_on(threads));
        rows.push(vec![
            cell(threads),
            fmt_f(t),
            fmt_f(t1 / t),
            fmt_f((t1 / t) / threads as f64),
        ]);
        threads *= 2;
    }
    print_table(&["threads", "time s", "speedup", "efficiency"], &rows);
}
