//! The anti-diagonal ("wavefront") parallel algorithm — reference \[10\].
//!
//! The paper cites two *work-optimal* parallel algorithms: `O(n^2)` time on
//! `O(n)` processors and `O(n)` time on `O(n^2)` processors. Both process
//! the DP table diagonal by diagonal: all cells `(i, i+d)` of diagonal `d`
//! depend only on strictly shorter intervals, so they can be computed
//! simultaneously. This is the practical multicore baseline: `O(n^3)`
//! total work, `O(n)` span when each cell's min is also parallelised.
//!
//! # Schedule
//!
//! One parallel region per anti-diagonal costs `n - 1` worker wake-ups
//! and completion waits per solve, which on small hosts outweighs the
//! work of all but the longest diagonals. The sweep therefore works on
//! tiles, as Tang's nested-dataflow algorithms for this recurrence do
//! (arXiv:1911.05333): the `(n+1)^2` table is cut into `b x b` tiles,
//! and tile `(I, J)` holds the cells `(i, j)` with `i` in row block `I`
//! and `j` in column block `J`. Step `D` solves every tile `(I, I + D)`
//! of tile-diagonal `D` in one [`ExecBackend::map_reduce`] region, so a
//! solve has `⌈(n+1)/b⌉` sync points instead of `n - 1`. Inside a tile,
//! rows run descending and columns ascending. Cell `(i, j)` needs `w(i, k)` and
//! `w(k, j)` for `i < k < j`. Those lie in tiles of earlier steps, or in
//! the same tile at a later row (`k > i`) or an earlier column
//! (`k < j`), so every operand is final before it is read.
//!
//! # The in-place mirror
//!
//! Every finished `w(i, j)` is stored a second time at the unused
//! lower-triangle cell `(j, i)` of the same [`WTable`] buffer. Then both
//! operands of cell `(i, j)` are contiguous row slices: `w(i, k)` runs
//! along row `i`'s upper half, `w(k, j)` along row `j`'s lower half. No
//! second table is allocated. The lower triangle is reset to infinity
//! before the table is returned, on the deadline path too, so the
//! result is `==` to [`solve_sequential`](crate::seq::solve_sequential)'s
//! table over the whole flat buffer.
//!
//! # Half-row ownership
//!
//! Cell `(i, j)` reads and writes only row `i`'s upper half and row
//! `j`'s lower half. In step `D`, row block `I` is the row block of
//! exactly one tile, `(I, I + D)`, and column block `J` the column block
//! of exactly one tile, `(J - D, J)`. So each tile of a step owns `b`
//! upper and `b` lower half-rows that no other tile touches. The sweep
//! splits every row at its diagonal once per solve and hands the two
//! half-row vectors to `map_reduce` as its data and side
//! [`DisjointPartsMut`] partitions, which validate the ownership at
//! construction. The sweep itself contains no `unsafe`.
//!
//! # Tile edge
//!
//! [`tile_edge`] picks `b` from `n` and the worker count: the largest
//! edge up to 32 that still cuts the main tile-diagonal into four tiles
//! per worker, but never below 4. Step `D` has `⌈(n+1)/b⌉ - D` tiles, so
//! four tiles per worker on the main diagonal leave at least two per
//! worker in the first half of the steps, which carry half the work.
//! On two workers the rule picks `b = 16` at `n = 128` and the cap at
//! `n = 256` and `n = 384`.
//!
//! The cap and the grain below were measured with the AVX-512 cell
//! kernel of the wire families ([`SpecProblem`](crate::spec::SpecProblem))
//! and the host width read once per solve, on a 2-vCPU KVM guest (Intel
//! Xeon). Each variant ran in rotation with the same build at a cap of
//! 16 and a grain of 4096, one `solve-wavefront` benchmark run per seed.
//! The table gives the median `latency_p50_ms` (the `n = 256` class) and
//! in how many seeds the variant read lower than that build:
//!
//! | variant | seeds 301–306, 10 s lists | seeds 307–314, 30 s lists |
//! |---|---|---|
//! | cap 16, grain 4096 | 1.28 ms | 1.00 ms |
//! | cap 24 | 1.12 ms, 5 of 6 | 0.92 ms, 7 of 8 |
//! | cap 32 | 1.06 ms, 5 of 6 | 0.90 ms, 6 of 8 |
//! | grain 16384 | 1.32 ms, 2 of 6 | not run |
//! | grain 65536 | 1.15 ms, 5 of 6 | 1.05 ms, 4 of 8 |
//!
//! Both wider caps also lowered the tail median in both rounds (3.72 →
//! 3.05 and 2.98 ms, then 2.84 → 2.59 and 2.41 ms), so the cap is 32.
//! With the scalar kernel a cap of 24 had lowered the median latency in
//! only 7 of 10 pairs, within the spread of the runs. The vector kernel
//! cut the work per tile to about a third, so the fixed cost of a step
//! weighs more and fewer, larger steps pay.
//!
//! # Grain, deadline and exactness
//!
//! A step with fewer than `STEP_GRAIN` = 4096 candidate evaluations runs
//! on the calling thread, which avoids fork-join overhead on tiny steps.
//! The grain was chosen when a candidate cost 1.5–2 ns and a pool region
//! about 25 µs. With the vector kernel (0.38–0.59 ns per candidate in
//! traced Sequential replays) and the width read once, 4096 candidates
//! are about 2 µs of work. It was re-measured in the table above and
//! stays: a grain of 16384 read lower in 2 of 6 seeds, and one of 65536
//! in 9 of 14, by less than the wider caps gained.
//! Tests call `sweep` with a grain of 0 or `usize::MAX` to force every
//! step onto the pool or onto the calling thread. The deadline is
//! checked once per step; a cancelled sweep returns the table with
//! every later step still infinity. Each cell is one
//! [`DpProblem::split_min`] call on its two operand slices, whose
//! contract is [`solve_sequential`](crate::seq::solve_sequential)'s
//! reduction: `k` ascending, `w(i,k).add(w(k,j)).add(f(i,k,j))`, folded
//! with [`Weight::min2`] from infinity. Integer and float tables are
//! therefore bit-identical on every backend. A problem that overrides
//! the call (the wire families' [`SpecProblem`](crate::spec::SpecProblem))
//! matches its family once per cell instead of once per candidate, and
//! on CPUs with AVX-512 runs that fold from a build vectorized over zmm
//! lanes. In traced `solve-wavefront` replays on the 2-vCPU Xeon guest
//! above (three per side, alternating with the scalar build), Sequential
//! cost 0.38–0.59 ns per candidate instead of 1.08–1.55, and an
//! `n = 256` solve on the default Parallel backend took 0.93–1.28 ms
//! instead of 2.60–3.74 ms.

use crate::exec::disjoint::DisjointPartsMut;
use crate::exec::ExecBackend;
use crate::problem::DpProblem;
use crate::solver::{Algorithm, Solution, SolveOptions};
use crate::tables::WTable;
use crate::trace::StopReason;
use crate::weight::Weight;

/// Largest tile edge.
const MAX_EDGE: usize = 32;
/// Smallest tile edge.
const MIN_EDGE: usize = 4;
/// Tiles per worker on the main tile-diagonal.
const TILES_PER_WORKER: usize = 4;
/// Fewest candidate evaluations a step needs to run on the pool.
const STEP_GRAIN: usize = 4096;

/// The tile edge the sweep uses for `n` objects on `workers` workers:
/// `(n + 1) / (4 * workers)`, clamped to `4..=32` (see the module docs
/// for the rule and the measurements behind it).
pub fn tile_edge(n: usize, workers: usize) -> usize {
    ((n + 1) / (TILES_PER_WORKER * workers.max(1))).clamp(MIN_EDGE, MAX_EDGE)
}

/// Solve recurrence (*) with the tiled sweep and package the table as
/// a direct [`Solution`] of `algorithm`, marked
/// [`StopReason::DeadlineExceeded`] if `opts.deadline` cut it short.
/// `seed` is `(m, table)`: every pair `(i, j)` with `j <= m` is taken
/// from the table and not recomputed (a warm start from a cached
/// prefix).
pub(crate) fn solve<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    algorithm: Algorithm,
    opts: &SolveOptions,
    seed: Option<(usize, &WTable<W>)>,
) -> Solution<W> {
    let (w, completed) = sweep(problem, opts, seed, STEP_GRAIN);
    let mut solution = Solution::direct(algorithm, w);
    if !completed {
        solution.trace.stop = StopReason::DeadlineExceeded;
    }
    solution
}

/// The tile-diagonal sweep. A step with fewer than `grain` candidate
/// evaluations runs on the calling thread. Returns the table plus
/// whether it ran to completion — `false` means the deadline passed and
/// the table is partial (tile-diagonals past the cancellation point are
/// still infinity).
fn sweep<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    opts: &SolveOptions,
    seed: Option<(usize, &WTable<W>)>,
    grain: usize,
) -> (WTable<W>, bool) {
    let cancel = opts.cancel_token();
    let n = problem.n();
    // Pairs `(i, j)` with `j <= done` are final before the sweep starts.
    let done = seed.map_or(1, |(m, _)| m);
    let mut w = WTable::new(n);
    // Row `i` split at its diagonal: `lower[i]` holds cells `(i, 0..i)`,
    // `upper[i]` cells `(i, i..=n)`. The sweep mirrors `w(i, j)` into
    // the unused cell `(j, i)`, so `w(k, j)` reads `lower[j][k]`.
    let (mut lower, mut upper): (Vec<&mut [W]>, Vec<&mut [W]>) = w
        .as_mut_slice()
        .chunks_mut(n + 1)
        .enumerate()
        .map(|(i, row)| row.split_at_mut(i))
        .unzip();
    let mut put = |i: usize, j: usize, v: W| {
        upper[i][j - i] = v;
        lower[j][i] = v;
    };
    for i in 0..n {
        put(i, i + 1, problem.init(i));
    }
    if let Some((m, seed)) = seed {
        for j in 2..=m {
            for i in 0..j - 1 {
                put(i, j, seed.get(i, j));
            }
        }
    }

    // `Parallel` asks the OS for the host width on every call (15–18 µs
    // on a 2-vCPU Xeon guest), so read it once per solve and run pool
    // steps on `Threads(width)`, whose width is a field read.
    let width = opts.exec.effective_threads();
    let pool = ExecBackend::Threads(width);
    let b = tile_edge(n, width);
    let tiles = (n + 1).div_ceil(b);
    let span = |t: usize| (t * b, ((t + 1) * b).min(n + 1));
    let (mut row_spans, mut col_spans) = (Vec::with_capacity(tiles), Vec::with_capacity(tiles));
    let mut completed = true;
    for d in 0..tiles {
        if cancel.is_cancelled() {
            completed = false;
            break;
        }
        // Tile `t` of step `d` is `(t, t + d)`: it owns the upper halves
        // of its rows and the lower halves of its columns.
        row_spans.clear();
        row_spans.extend((0..tiles - d).map(span));
        col_spans.clear();
        col_spans.extend((d..tiles).map(span));
        let exec = if width > 1 && step_candidates(&row_spans, &col_spans, done) >= grain {
            pool
        } else {
            ExecBackend::Sequential
        };
        exec.map_reduce(
            DisjointPartsMut::new(&mut upper, &row_spans),
            DisjointPartsMut::new(&mut lower, &col_spans),
            1,
            |t, rows, cols| solve_tile(problem, row_spans[t].0, col_spans[t].0, done, rows, cols),
            || (),
            |(), ()| (),
        );
    }
    for half in &mut lower {
        half.fill(W::INFINITY);
    }
    (w, completed)
}

/// Candidate evaluations of one step: `j - i - 1` for every cell
/// `(i, j)` of its tiles with `j >= i + 2` and `j > done`.
fn step_candidates(rows: &[(usize, usize)], cols: &[(usize, usize)], done: usize) -> usize {
    let mut total = 0;
    for (&(i0, i1), &(j0, j1)) in rows.iter().zip(cols) {
        for i in i0..i1 {
            let first = (i + 2).max(done + 1).max(j0);
            if first < j1 {
                // Sum of `j - i - 1` over `first..j1`.
                let (lo, hi) = (first - i - 1, j1 - i - 2);
                total += (lo + hi) * (hi - lo + 1) / 2;
            }
        }
    }
    total
}

/// Fill tile `(rows, cols)` whose first cell is `(i0, j0)`: rows
/// descending, columns ascending, so every operand inside the tile is
/// final before it is read. `rows[r]` is the upper half of row `i0 + r`,
/// `cols[c]` the lower half of row `j0 + c`.
fn solve_tile<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    i0: usize,
    j0: usize,
    done: usize,
    rows: &mut [&mut [W]],
    cols: &mut [&mut [W]],
) {
    let j1 = j0 + cols.len();
    for (r, upper) in rows.iter_mut().enumerate().rev() {
        let i = i0 + r;
        for j in (i + 2).max(done + 1).max(j0)..j1 {
            let lower = &mut cols[j - j0];
            // `w(i, k)` is `upper[k - i]` and `w(k, j)` is `lower[k]`.
            let best = problem.split_min(i, j, &upper[1..j - i], &lower[i + 1..j]);
            upper[j - i] = best;
            lower[i] = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::sweep;
    use crate::exec::ExecBackend;
    use crate::problem::{DpProblem, FnProblem};
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, SolveOptions, Solver};
    use crate::tables::WTable;
    use crate::trace::StopReason;

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    fn wavefront(p: &impl DpProblem<u64>, opts: SolveOptions) -> WTable<u64> {
        Solver::new(Algorithm::Wavefront).options(opts).solve(p).w
    }

    /// The sweep with every step forced onto the pool (grain 0).
    fn forced_parallel(p: &impl DpProblem<u64>, exec: ExecBackend) -> WTable<u64> {
        sweep(p, &SolveOptions::default().exec(exec), None, 0).0
    }

    #[test]
    fn wavefront_matches_sequential_small() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let seq = solve_sequential(&p);
        let par = wavefront(&p, SolveOptions::default());
        assert!(seq.table_eq(&par));
        assert_eq!(par.root(), 15125);
    }

    #[test]
    fn wavefront_matches_sequential_random() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for n in [2usize, 3, 5, 17, 40, 80] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..64)).collect();
            let p = chain(dims);
            let seq = solve_sequential(&p);
            assert!(seq == forced_parallel(&p, ExecBackend::Threads(4)), "n={n}");
        }
    }

    #[test]
    fn threshold_zero_and_huge_agree() {
        // Every step forced onto the pool (grain 0) and onto the calling
        // thread (`usize::MAX`), on every backend, over every n up to
        // three full tiles plus two and a few larger ones. Both must be
        // `==` to the oracle over the whole flat table; float tables are
        // compared bit for bit.
        let cost = |i: usize, k: usize, j: usize| {
            let mut h = (i as u64) << 42 | (k as u64) << 21 | j as u64;
            h = (h ^ (h >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h ^ (h >> 29)) % 1000
        };
        let float_bits =
            |w: &WTable<f64>| w.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in (1..=3 * super::MAX_EDGE + 2).chain([63, 64, 100, 129]) {
            let ints = FnProblem::new(n, move |i| cost(i, i, i), cost);
            let floats = FnProblem::new(
                n,
                move |i| cost(i, i, i) as f64 / 7.0,
                move |i, k, j| cost(i, k, j) as f64 / 7.0,
            );
            let int_oracle = solve_sequential(&ints);
            let float_oracle = float_bits(&solve_sequential(&floats));
            for exec in [
                ExecBackend::Sequential,
                ExecBackend::Parallel,
                ExecBackend::Threads(3),
            ] {
                let opts = SolveOptions::default().exec(exec);
                for grain in [0, usize::MAX] {
                    let (w, completed) = sweep(&ints, &opts, None, grain);
                    assert!(
                        completed && w == int_oracle,
                        "u64 n={n} {exec} grain={grain}"
                    );
                    let (w, _) = sweep(&floats, &opts, None, grain);
                    assert!(
                        float_bits(&w) == float_oracle,
                        "f64 n={n} {exec} grain={grain}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiles_of_one_step_share_a_region() {
        // n = 9 on two workers: edge 4, three tiles, so the first two
        // steps hand 3 and 2 tiles to one region each.
        let p = chain(vec![7, 3, 9, 4, 12, 5, 8, 6, 10, 2]);
        assert_eq!(super::tile_edge(9, 2), 4);
        assert!(solve_sequential(&p) == forced_parallel(&p, ExecBackend::Threads(2)));
    }

    #[test]
    fn past_deadline_leaves_only_the_leaves() {
        let n = 40;
        let p = chain((0..=n as u64).map(|v| v % 7 + 1).collect());
        let mut leaves = WTable::new(n);
        for i in 0..n {
            leaves.set(i, i + 1, p.init(i));
        }
        for exec in [
            ExecBackend::Sequential,
            ExecBackend::Parallel,
            ExecBackend::Threads(3),
        ] {
            let opts = SolveOptions::default()
                .exec(exec)
                .deadline(Some(Instant::now()));
            let sol = Solver::new(Algorithm::Wavefront).options(opts).solve(&p);
            assert_eq!(sol.trace.stop, StopReason::DeadlineExceeded, "{exec}");
            // `==` covers the whole flat buffer: the lower triangle must
            // be all infinity, as in `leaves`.
            assert!(sol.w == leaves, "{exec}");
        }
    }
}
