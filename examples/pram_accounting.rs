//! PRAM cost accounting (E9 companion): solve with the three parallel
//! algorithms, put each run's iteration count on its CREW cost model,
//! print their work/depth/processor figures, Brent times and a Gantt
//! timeline, and run a fully audited exclusive-write execution.
//!
//! ```text
//! cargo run --release --example pram_accounting [n]
//! ```

use sublinear_dp::apps::generators;
use sublinear_dp::core::pram_exec::{
    audited_sublinear_value, model_reduced, model_rytter, model_sublinear,
};
use sublinear_dp::core::prelude::*;
use sublinear_dp::pram::Timeline;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let p = generators::random_chain(n, 60, 7);
    let oracle = solve_sequential(&p).root();
    println!("instance: random matrix chain, n = {n}, c(0,n) = {oracle}\n");

    for (name, algo) in [
        ("sublinear (§2)", Algorithm::Sublinear),
        ("reduced   (§5)", Algorithm::Reduced),
        ("rytter    [8]", Algorithm::Rytter),
    ] {
        let sol = Solver::new(algo).solve(&p);
        assert_eq!(sol.value(), oracle);
        let iterations = sol.trace.iterations;
        // §2 and §5 run their fixed 2*ceil(sqrt n) schedule, which their
        // models record; Rytter stops at its fixpoint.
        let pram = match algo {
            Algorithm::Sublinear => model_sublinear(n),
            Algorithm::Reduced => model_reduced(n),
            _ => model_rytter(n, iterations),
        };
        let m = pram.metrics().clone();
        let procs = pram.processors_for_depth(1.0);
        println!("--- {name}: {iterations} iterations ---");
        println!(
            "  work {:>12}   depth {:>6}   processors-for-depth {:>9}   PT {}",
            m.work,
            m.depth,
            procs,
            procs as u128 * m.depth as u128
        );
        println!("  work by operation: {:?}", pram.work_by_operation());
        for p_count in [1u64, 64, 4096, procs] {
            println!(
                "  Brent time on p = {:>9}: {}",
                p_count,
                pram.brent_time(p_count)
            );
        }
        let tl = Timeline::schedule(&pram, procs.max(1) / 4 + 1);
        println!("  timeline at a quarter of the processors-for-depth:");
        for line in tl.render_gantt(56).lines() {
            println!("    {line}");
        }
        println!();
    }

    println!("--- audited CREW execution (every read/write checked) ---");
    let value = audited_sublinear_value(&p).expect("exclusive-write discipline violated");
    assert_eq!(value, oracle);
    println!("audited run: c(0,n) = {value} — no write conflicts, no synchrony violations");
}
