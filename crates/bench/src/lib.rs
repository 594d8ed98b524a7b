//! # pardp-bench — experiment harnesses
//!
//! One binary per experiment of EXPERIMENTS.md (E1–E11, F1–F2, T1,
//! B1), plus the shared table-formatting and measurement helpers they
//! use.
//!
//! Run any experiment with
//!
//! ```text
//! cargo run --release -p pardp-bench --bin exp_pebble_worstcase
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
use std::fmt::Display;
use std::time::Instant;

/// Render an aligned text table: header row + data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            if c < widths.len() {
                widths[c] = widths[c].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (c, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", cell, width = widths[c]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format a float with limited precision for tables.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

/// Format a cell from any displayable value.
pub fn cell(x: impl Display) -> String {
    x.to_string()
}

/// Wall-clock one closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Wall-clock the best of `reps` runs (reduces scheduler noise in the
/// speedup tables).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(reps >= 1);
    let (mut out, mut best) = time_it(&mut f);
    for _ in 1..reps {
        let (o, t) = time_it(&mut f);
        if t < best {
            best = t;
            out = o;
        }
    }
    (out, best)
}

/// Standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("================================================================");
    println!("{id}: {claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f_ranges() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1.5), "1.500");
        assert!(fmt_f(123456.0).contains('e'));
        assert!(fmt_f(0.0001).contains('e'));
    }

    #[test]
    fn time_best_returns_min() {
        let mut calls = 0;
        let (_, t) = time_best(3, || {
            calls += 1;
        });
        assert_eq!(calls, 3);
        assert!(t >= 0.0);
    }
}
