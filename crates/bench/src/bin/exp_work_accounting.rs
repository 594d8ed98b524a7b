//! E9 (§4, §5, §7 and the paper's headline comparison) — PRAM work,
//! depth, processor demand and processor–time product for every
//! algorithm, with fitted growth exponents.
//!
//! Expected shape (paper):
//!
//! | algorithm  | time            | processors     | PT product  |
//! |------------|-----------------|----------------|-------------|
//! | sequential | O(n^3)          | 1              | O(n^3)      |
//! | wavefront  | O(n log n)*     | O(n^2)         | O(n^3)      |
//! | reduced §5 | O(sqrt n log n) | O(n^3.5/log n) | O(n^4)      |
//! | sublinear  | O(sqrt n log n) | O(n^5/log n)   | O(n^5.5)    |
//! | Rytter \[8\] | O(log^2 n)      | O(n^6/log n)   | O(n^6 log n)|
//!
//! (*) the wavefront model charges `ceil(log2 d)` per diagonal for its
//! min-reductions, hence `n log n` rather than the paper's `O(n)` citation
//! of \[10\] (private communication; an `O(n)` schedule needs per-cell
//! serial mins on `O(n^2)` processors).

use pardp_bench::{banner, cell, fmt_f, print_table};
use pardp_core::pram_exec::{
    account_sequential, account_wavefront, model_reduced, model_rytter, model_sublinear,
};
use pardp_core::rytter::rytter_schedule;
use pardp_pebble::analysis::fit_power_law;

fn main() {
    banner(
        "E9",
        "PRAM work / depth / processors / PT product per algorithm",
    );
    let sizes = [8usize, 12, 16, 24, 32, 48, 64];
    // Per algorithm: (name, work points, PT-product points).
    type AlgoSeries = (&'static str, Vec<(f64, f64)>, Vec<(f64, f64)>);
    let mut per_algo: Vec<AlgoSeries> = Vec::new();
    let mut rows = Vec::new();
    for &n in &sizes {
        let machines = [
            ("sequential", account_sequential(n)),
            ("wavefront", account_wavefront(n)),
            ("reduced", model_reduced(n)),
            ("sublinear", model_sublinear(n)),
            ("rytter", model_rytter(n, rytter_schedule(n))),
        ];
        for (name, m) in machines {
            let met = m.metrics().clone();
            let procs = m.processors_for_depth(1.0);
            if let Some(entry) = per_algo.iter_mut().find(|(k, _, _)| *k == name) {
                entry.1.push((n as f64, met.work as f64));
                entry.2.push((n as f64, (procs as f64) * met.depth as f64));
            } else {
                per_algo.push((
                    name,
                    vec![(n as f64, met.work as f64)],
                    vec![(n as f64, (procs as f64) * met.depth as f64)],
                ));
            }
            rows.push(vec![
                cell(n),
                cell(name),
                cell(met.work),
                cell(met.depth),
                cell(procs),
                cell(procs as u128 * met.depth as u128),
            ]);
        }
    }
    print_table(
        &[
            "n",
            "algorithm",
            "work",
            "depth(time)",
            "processors",
            "PT product",
        ],
        &rows,
    );

    println!("\nFitted growth exponents (y ~ a * n^b):");
    let mut rows = Vec::new();
    for (name, work_pts, pt_pts) in &per_algo {
        let (_, bw) = fit_power_law(work_pts);
        let (_, bpt) = fit_power_law(pt_pts);
        let expect = match *name {
            "sequential" => "work 3, PT 3",
            "wavefront" => "work 3, PT 3·log",
            "reduced" => "work ~4 (n^3.5·sqrt n), PT ~4",
            "sublinear" => "work ~5.5 (n^5·sqrt n), PT ~5.5",
            "rytter" => "work ~6·log, PT ~6·log",
            _ => "",
        };
        rows.push(vec![cell(*name), fmt_f(bw), fmt_f(bpt), cell(expect)]);
    }
    print_table(
        &[
            "algorithm",
            "work exponent",
            "PT exponent",
            "paper (per-run)",
        ],
        &rows,
    );

    println!("\nPT-product improvement of §5 reduced over Rytter (paper: Theta(n^2 log n)):");
    let mut rows = Vec::new();
    for &n in &sizes {
        let red = model_reduced(n);
        let ryt = model_rytter(n, rytter_schedule(n));
        let ratio = ryt.metrics().pt_product() as f64 / red.metrics().pt_product() as f64;
        rows.push(vec![
            cell(n),
            fmt_f(ratio),
            fmt_f(ratio / ((n * n) as f64 * (n as f64).log2())),
        ]);
    }
    print_table(
        &["n", "PT(rytter)/PT(reduced)", "ratio / (n^2 log2 n)"],
        &rows,
    );
}
