//! PRAM cost accounting (E9 companion): replay the three parallel
//! algorithms on the CREW cost model, print their work/depth/processor
//! figures, Brent times and a Gantt timeline, and run a fully audited
//! exclusive-write execution.
//!
//! ```text
//! cargo run --release --example pram_accounting [n]
//! ```

use sublinear_dp::apps::generators;
use sublinear_dp::core::pram_exec::{
    account_reduced, account_rytter, account_sublinear, audited_sublinear_value,
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

    let runs = [
        ("sublinear (§2)", account_sublinear(&p)),
        ("reduced   (§5)", account_reduced(&p)),
        ("rytter    [8]", account_rytter(&p)),
    ];
    for (name, run) in &runs {
        assert_eq!(run.value, oracle);
        let m = run.pram.metrics().clone();
        let procs = run.pram.processors_for_depth(1.0);
        println!("--- {name}: {} iterations ---", run.iterations);
        println!(
            "  work {:>12}   depth {:>6}   processors-for-depth {:>9}   PT {}",
            m.work,
            m.depth,
            procs,
            procs as u128 * m.depth as u128
        );
        println!("  work by operation: {:?}", run.pram.work_by_operation());
        for p_count in [1u64, 64, 4096, procs] {
            println!(
                "  Brent time on p = {:>9}: {}",
                p_count,
                run.pram.brent_time(p_count)
            );
        }
        let tl = Timeline::schedule(&run.pram, procs.max(1) / 4 + 1);
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
