//! Criterion benches at the operation level (E8 companion): one sweep of
//! each square variant (the dense square also with its naive reference
//! and with every row skipped), and the activate/pebble passes,
//! sequential vs rayon. Companion to the `exp_tiling` experiment binary,
//! which measures the dense sweep at larger `n` with a JSON report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardp_apps::generators;
use pardp_core::ops::{
    a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_banded_scheduled,
    a_square_dense_scheduled, a_square_rytter_with, SquareStrategy,
};
use pardp_core::prelude::ExecBackend;
use pardp_core::problem::DpProblem;
use pardp_core::reduced::default_band;
use pardp_core::tables::{BandedPw, DensePw, WTable};
use std::hint::black_box;

/// Build mid-run tables (after a few iterations) so the sweeps operate on
/// realistic, partially-filled data rather than all-infinity tables.
fn warm_tables(n: usize) -> (WTable<u64>, DensePw<u64>) {
    let p = generators::random_chain(n, 100, 7);
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();
    for _ in 0..3 {
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
    (w, pw)
}

fn bench_square_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("square_one_sweep");
    group.sample_size(10);
    for n in [24usize, 40] {
        let (_, pw) = warm_tables(n);
        let mut next = DensePw::new(n);
        group.bench_with_input(BenchmarkId::new("restricted_seq", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_dense_scheduled(
                    pw,
                    &mut next,
                    SquareStrategy::Auto,
                    None,
                    &ExecBackend::Sequential,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("restricted_rayon", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_dense_scheduled(
                    pw,
                    &mut next,
                    SquareStrategy::Auto,
                    None,
                    &ExecBackend::Parallel,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("restricted_naive_seq", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_dense_scheduled(
                    pw,
                    &mut next,
                    SquareStrategy::Naive,
                    None,
                    &ExecBackend::Sequential,
                ))
            })
        });
        // The dirty-row scheduler's post-convergence cost: every row is
        // copied forward.
        let skip_all = vec![true; pw.dim()];
        group.bench_with_input(
            BenchmarkId::new("restricted_skip_all_rows", n),
            &pw,
            |b, pw| {
                b.iter(|| {
                    black_box(a_square_dense_scheduled(
                        pw,
                        &mut next,
                        SquareStrategy::Auto,
                        Some(&skip_all),
                        &ExecBackend::Sequential,
                    ))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("rytter_full_seq", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_rytter_with(
                    pw,
                    &mut next,
                    SquareStrategy::Auto,
                    &ExecBackend::Sequential,
                ))
            })
        });
        let band = default_band(n);
        let banded = BandedPw::<u64>::new(n, band);
        let mut bnext = BandedPw::new(n, band);
        group.bench_with_input(BenchmarkId::new("banded_seq", n), &banded, |b, pw| {
            b.iter(|| {
                black_box(a_square_banded_scheduled(
                    pw,
                    &mut bnext,
                    SquareStrategy::Auto,
                    None,
                    &ExecBackend::Sequential,
                ))
            })
        });
    }
    group.finish();
}

fn bench_activate_pebble(c: &mut Criterion) {
    let mut group = c.benchmark_group("activate_pebble");
    group.sample_size(10);
    for n in [40usize, 64] {
        let p = generators::random_chain(n, 100, 8);
        let (w, pw) = warm_tables(n);
        let mut pw_work = pw.clone();
        group.bench_with_input(BenchmarkId::new("activate_seq", n), &w, |b, w| {
            b.iter(|| {
                black_box(a_activate_dense_tracked(
                    &p,
                    w,
                    &mut pw_work,
                    &ExecBackend::Sequential,
                ))
            })
        });
        let mut w_next = w.clone();
        group.bench_with_input(BenchmarkId::new("pebble_seq", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_pebble_dense_scheduled(
                    pw,
                    &w,
                    &mut w_next,
                    None,
                    &ExecBackend::Sequential,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("pebble_rayon", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_pebble_dense_scheduled(
                    pw,
                    &w,
                    &mut w_next,
                    None,
                    &ExecBackend::Parallel,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_square_variants, bench_activate_pebble);
criterion_main!(benches);
