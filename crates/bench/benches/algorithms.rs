//! Criterion benches for the solvers (E4/E11 timing companion): the
//! sequential oracle, the Knuth speedup, the pooled wavefront, and the
//! paper's algorithms at the sizes their table sizes permit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardp_apps::generators;
use pardp_core::prelude::*;
use std::hint::black_box;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    for n in [128usize, 512, 1024] {
        let p = generators::random_chain(n, 100, 42);
        group.bench_with_input(BenchmarkId::new("sequential", n), &p, |b, p| {
            b.iter(|| black_box(solve_sequential(p).root()))
        });
        group.bench_with_input(BenchmarkId::new("wavefront", n), &p, |b, p| {
            let solver = Solver::new(Algorithm::Wavefront);
            b.iter(|| black_box(solver.solve(p).value()))
        });
    }
    for m in [128usize, 512, 1024] {
        let p = generators::random_obst(m, 50, 43);
        group.bench_with_input(BenchmarkId::new("knuth_obst", m), &p, |b, p| {
            b.iter(|| black_box(solve_knuth(p).root()))
        });
    }
    group.finish();
}

fn bench_paper_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_algorithms");
    group.sample_size(10);
    for n in [24usize, 40, 56] {
        let p = generators::random_chain(n, 100, 44);
        let sublinear = Solver::new(Algorithm::Sublinear);
        group.bench_with_input(BenchmarkId::new("sublinear_dense", n), &p, |b, p| {
            b.iter(|| black_box(sublinear.solve(p).value()))
        });
        let reduced = Solver::new(Algorithm::Reduced);
        group.bench_with_input(BenchmarkId::new("reduced_banded", n), &p, |b, p| {
            b.iter(|| black_box(reduced.solve(p).value()))
        });
    }
    for n in [16usize, 24] {
        let p = generators::random_chain(n, 100, 45);
        let rytter = Solver::new(Algorithm::Rytter);
        group.bench_with_input(BenchmarkId::new("rytter", n), &p, |b, p| {
            b.iter(|| black_box(rytter.solve(p).value()))
        });
    }
    group.finish();
}

fn bench_termination_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("termination");
    group.sample_size(10);
    let n = 49usize;
    let p = generators::random_chain(n, 100, 46);
    for (name, term) in [
        ("fixed_sqrt_n", Termination::FixedSqrtN),
        ("fixpoint", Termination::Fixpoint),
        ("w_stable_twice", Termination::WStableTwice),
    ] {
        let solver =
            Solver::new(Algorithm::Sublinear).options(SolveOptions::default().termination(term));
        group.bench_with_input(BenchmarkId::new(name, n), &p, |b, p| {
            b.iter(|| black_box(solver.solve(p).value()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_baselines,
    bench_paper_algorithms,
    bench_termination_modes
);
criterion_main!(benches);
