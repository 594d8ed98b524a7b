//! Criterion bench for the banded `a-square` (the §5 `O(n^3.5)` hot
//! path): per-cell naive gather vs the flat-slice streamed kernel, plus
//! the dirty-row copy path. Companion to the `exp_banded` experiment
//! binary, which measures the same sweep at larger `n` with a JSON
//! report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardp_apps::generators;
use pardp_core::ops::{
    a_activate_banded_tracked, a_pebble_banded_scheduled, a_square_banded_scheduled, SquareStrategy,
};
use pardp_core::prelude::ExecBackend;
use pardp_core::problem::DpProblem;
use pardp_core::reduced::default_band;
use pardp_core::tables::{BandedPw, WTable};
use std::hint::black_box;

/// Build mid-run banded tables (after a few iterations) so the sweeps
/// operate on realistic, partially-filled data.
fn warm_tables(n: usize, band: usize) -> BandedPw<u64> {
    let p = generators::random_chain(n, 100, 7);
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = BandedPw::new(n, band);
    let mut pw_next = BandedPw::new(n, band);
    let mut w_next = w.clone();
    for _ in 0..3 {
        a_activate_banded_tracked(&p, &w, &mut pw, &ExecBackend::Sequential);
        a_square_banded_scheduled(
            &pw,
            &mut pw_next,
            SquareStrategy::Auto,
            None,
            &ExecBackend::Sequential,
        );
        std::mem::swap(&mut pw, &mut pw_next);
        a_pebble_banded_scheduled(
            &p,
            &pw,
            &w,
            &mut w_next,
            None,
            None,
            &ExecBackend::Sequential,
        );
        std::mem::swap(&mut w, &mut w_next);
    }
    pw
}

fn bench_banded_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("banded_square");
    group.sample_size(10);
    for n in [64usize, 96] {
        let band = default_band(n);
        let pw = warm_tables(n, band);
        let mut next = BandedPw::new(n, band);
        for (name, strategy) in [
            ("naive", SquareStrategy::Naive),
            ("streamed", SquareStrategy::Auto),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &pw, |b, pw| {
                b.iter(|| {
                    black_box(a_square_banded_scheduled(
                        pw,
                        &mut next,
                        strategy,
                        None,
                        &ExecBackend::Sequential,
                    ))
                })
            });
        }
        // Parallel streamed, and the skip-everything copy path (the
        // dirty-row scheduler's post-convergence cost).
        group.bench_with_input(BenchmarkId::new("streamed_pool", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_banded_scheduled(
                    pw,
                    &mut next,
                    SquareStrategy::Auto,
                    None,
                    &ExecBackend::Parallel,
                ))
            })
        });
        let skip_all = vec![true; pw.indexer().len()];
        group.bench_with_input(BenchmarkId::new("skip_all_rows", n), &pw, |b, pw| {
            b.iter(|| {
                black_box(a_square_banded_scheduled(
                    pw,
                    &mut next,
                    SquareStrategy::Auto,
                    Some(&skip_all),
                    &ExecBackend::Sequential,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_banded_square);
criterion_main!(benches);
