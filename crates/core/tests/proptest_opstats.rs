//! Property tests of the [`OpStats`] accounting contract and the
//! streamed-vs-naive square parity:
//!
//! * every op reports `changed == (writes > 0)` and never more writes
//!   than the cells it is allowed to store into;
//! * on fresh tables, `candidates` matches the closed-form count derived
//!   independently from the operation definitions;
//! * the streamed (dense), tiled (banded) and naive square kernels
//!   produce bit-identical tables and identical stats on every backend,
//!   for `u64` and for `f64` (compared by `to_bits`) alike, with and
//!   without a skip mask.

use pardp_core::ops::{
    a_activate_banded_tracked, a_activate_dense_tracked, a_pebble_banded_scheduled,
    a_pebble_dense_scheduled, a_square_banded_scheduled, a_square_dense_scheduled,
    a_square_rytter_with, OpStats, SquareStrategy,
};
use pardp_core::prelude::*;
use pardp_core::problem::TabulatedProblem;
use pardp_core::reduced::default_band;
use pardp_core::tables::{BandedPw, DensePw, PairIndexer, WTable};
use pardp_core::weight::Weight;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Strategy: a complete instance (init values + f values) for size n.
fn instance_strategy(n: usize) -> impl Strategy<Value = TabulatedProblem<u64>> {
    let m = n + 1;
    (
        proptest::collection::vec(0u64..100, n),
        proptest::collection::vec(0u64..100, m * m * m),
    )
        .prop_map(move |(init, f)| TabulatedProblem::new(init, |i, k, j| f[(i * m + k) * m + j]))
}

/// The `f64` cost of a draw: draws 0 and 1 give `-0.0`, 2 and 3 give
/// `+0.0`, and larger draws fractional costs. Over `0..16` a quarter of
/// the costs are zeros, so warm tables hold zero-weight paths and ties,
/// some between zeros of both signs, which only the min order settles.
fn f64_cost(v: u64) -> f64 {
    match v {
        0..2 => -0.0,
        2..4 => 0.0,
        _ => v as f64 * 0.37,
    }
}

/// Strategy: an `f64` instance with [`f64_cost`] costs of draws from
/// `0..draws`.
fn f64_instance_strategy(n: usize, draws: u64) -> impl Strategy<Value = TabulatedProblem<f64>> {
    let m = n + 1;
    (
        proptest::collection::vec(0u64..draws, n),
        proptest::collection::vec(0u64..draws, m * m * m),
    )
        .prop_map(move |(init, f)| {
            TabulatedProblem::new(init.into_iter().map(f64_cost).collect(), |i, k, j| {
                f64_cost(f[(i * m + k) * m + j])
            })
        })
}

/// An instance of size `n` drawn from `seed`, for tests that draw `n`
/// too: draws from `0..range`, mapped through `cost`.
fn seeded_instance<W: Weight>(
    n: usize,
    seed: u64,
    range: u64,
    cost: impl Fn(u64) -> W,
) -> TabulatedProblem<W> {
    let m = n + 1;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut draw = || cost(rng.gen_range(0..range));
    let init = (0..n).map(|_| draw()).collect();
    let f: Vec<W> = (0..m * m * m).map(|_| draw()).collect();
    TabulatedProblem::new(init, |i, k, j| f[(i * m + k) * m + j])
}

/// A square skip mask over `len` rows drawn from `seed`: about a third
/// of the rows are marked, to be copied forward instead of squared.
fn skip_mask(seed: u64, len: usize) -> Vec<bool> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..3) == 0).collect()
}

/// Drive the dense ops for `iters` iterations from the initial state.
fn warm_dense<W: Weight>(p: &TabulatedProblem<W>, iters: usize) -> (WTable<W>, DensePw<W>) {
    let n = p.n();
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();
    for _ in 0..iters {
        a_activate_dense_tracked(p, &w, &mut pw, &ExecBackend::Sequential);
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

/// Drive the banded ops for `iters` iterations from the initial state.
fn warm_banded<W: Weight>(
    p: &TabulatedProblem<W>,
    band: usize,
    iters: usize,
) -> (WTable<W>, BandedPw<W>) {
    let n = p.n();
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = BandedPw::new(n, band);
    let mut pw_next = BandedPw::new(n, band);
    let mut w_next = w.clone();
    for _ in 0..iters {
        a_activate_banded_tracked(p, &w, &mut pw, &ExecBackend::Sequential);
        a_square_banded_scheduled(
            &pw,
            &mut pw_next,
            SquareStrategy::Auto,
            None,
            &ExecBackend::Sequential,
        );
        std::mem::swap(&mut pw, &mut pw_next);
        a_pebble_banded_scheduled(
            p,
            &pw,
            &w,
            &mut w_next,
            None,
            None,
            &ExecBackend::Sequential,
        );
        std::mem::swap(&mut w, &mut w_next);
    }
    (w, pw)
}

/// Every stored cell of root `(i, j)`, in gap-number order.
fn banded_cells<W: Weight>(pw: &BandedPw<W>, i: usize, j: usize) -> Vec<W> {
    pw.gaps_of(i, j).map(|(p, q)| pw.get(i, j, p, q)).collect()
}

/// `changed == (writes > 0)` and `writes <= cap`.
fn check_accounting(stats: &OpStats, cap: u64, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(stats.changed, stats.writes > 0, "{}: {:?}", label, stats);
    prop_assert!(
        stats.writes <= cap,
        "{}: writes {} above cell cap {}",
        label,
        stats.writes,
        cap
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiled_square_matches_naive_on_every_backend(
        p in instance_strategy(10),
        iters in 0usize..4,
        mask_seed in 0u64..u64::MAX,
    ) {
        let (_, pw) = warm_dense(&p, iters);
        let n = p.n();
        let mask = skip_mask(mask_seed, pw.indexer().len());
        for skip in [None, Some(&mask[..])] {
            let mut reference = DensePw::new(n);
            let (base, base_rows) = a_square_dense_scheduled(
                &pw, &mut reference, SquareStrategy::Naive, skip, &ExecBackend::Sequential,
            );
            // Marked rows are copied verbatim and never flagged.
            for a in (0..mask.len()).filter(|&a| skip.is_some() && mask[a]) {
                prop_assert_eq!(reference.row(a), pw.row(a), "skipped row {}", a);
                prop_assert!(!base_rows[a], "skipped row {} flagged", a);
            }
            for backend in [
                ExecBackend::Sequential,
                ExecBackend::Parallel,
                ExecBackend::Threads(3),
            ] {
                for strategy in [SquareStrategy::Naive, SquareStrategy::Auto] {
                    let mut out = DensePw::new(n);
                    let (stats, rows) =
                        a_square_dense_scheduled(&pw, &mut out, strategy, skip, &backend);
                    let case = format!("{strategy:?} on {backend}, masked: {}", skip.is_some());
                    prop_assert_eq!(out.as_slice(), reference.as_slice(), "tables diverge: {}", case);
                    prop_assert_eq!(stats, base, "stats diverge: {}", case);
                    prop_assert_eq!(&rows, &base_rows, "row flags diverge: {}", case);
                }
            }
        }
        // Rytter's streamed kernel against its naive reference.
        let mut y_ref = DensePw::new(n);
        let y_base = a_square_rytter_with(
            &pw, &mut y_ref, SquareStrategy::Naive, &ExecBackend::Sequential,
        );
        for backend in [ExecBackend::Sequential, ExecBackend::Threads(3)] {
            let mut y_out = DensePw::new(n);
            let y_stats = a_square_rytter_with(&pw, &mut y_out, SquareStrategy::Auto, &backend);
            prop_assert_eq!(y_out.as_slice(), y_ref.as_slice(), "rytter tables diverge on {}", backend);
            prop_assert_eq!(y_stats, y_base, "rytter stats diverge on {}", backend);
        }
    }

    #[test]
    fn dense_squares_are_bitwise_identical_on_f64(
        p in f64_instance_strategy(12, 6),
        iters in 0usize..4,
    ) {
        // Every kernel keeps each cell's min order, so f64 tables match
        // the naive sequential reference bit for bit, not just in value.
        // Two thirds of the costs are signed zeros, and the square reads
        // what the solvers' square reads, the table one more activate
        // left, where zero ties of both signs are common.
        let (w, mut pw) = warm_dense(&p, iters);
        a_activate_dense_tracked(&p, &w, &mut pw, &ExecBackend::Sequential);
        let n = p.n();
        let bits = |t: &DensePw<f64>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut reference = DensePw::new(n);
        let (base, base_rows) = a_square_dense_scheduled(
            &pw, &mut reference, SquareStrategy::Naive, None, &ExecBackend::Sequential,
        );
        let mut y_ref = DensePw::new(n);
        let y_base = a_square_rytter_with(
            &pw, &mut y_ref, SquareStrategy::Naive, &ExecBackend::Sequential,
        );
        for backend in [
            ExecBackend::Sequential,
            ExecBackend::Parallel,
            ExecBackend::Threads(3),
        ] {
            for strategy in [SquareStrategy::Naive, SquareStrategy::Auto] {
                let mut out = DensePw::new(n);
                let (stats, rows) =
                    a_square_dense_scheduled(&pw, &mut out, strategy, None, &backend);
                prop_assert_eq!(
                    bits(&out), bits(&reference),
                    "f64 tables diverge: {:?} on {}", strategy, backend
                );
                prop_assert_eq!(stats, base, "f64 stats diverge: {:?} on {}", strategy, backend);
                prop_assert_eq!(&rows, &base_rows, "f64 row flags diverge: {:?} on {}", strategy, backend);
            }
            for strategy in [SquareStrategy::Naive, SquareStrategy::Auto] {
                let mut y_out = DensePw::new(n);
                let y_stats = a_square_rytter_with(&pw, &mut y_out, strategy, &backend);
                prop_assert_eq!(
                    bits(&y_out), bits(&y_ref),
                    "f64 rytter tables diverge: {:?} on {}", strategy, backend
                );
                prop_assert_eq!(y_stats, y_base, "f64 rytter stats diverge: {:?} on {}", strategy, backend);
            }
        }
    }

    #[test]
    fn dense_op_accounting_invariants(
        p in instance_strategy(9),
        iters in 0usize..5,
    ) {
        let n = p.n();
        let idx = PairIndexer::new(n);
        let (w, pw) = warm_dense(&p, iters);
        // Cell caps: what each op is allowed to store into.
        let nested_cells: u64 = idx
            .pairs()
            .map(|(i, j)| {
                let d = (j - i) as u64;
                d * (d + 1) / 2
            })
            .sum();
        let pair_count = idx.len() as u64;

        let mut pw_act = pw.clone();
        let act = a_activate_dense_tracked(&p, &w, &mut pw_act, &ExecBackend::Sequential).0;
        check_accounting(&act, act.candidates, "activate")?;

        let mut next = DensePw::new(n);
        let sq = a_square_dense_scheduled(
            &pw_act,
            &mut next,
            SquareStrategy::Auto,
            None,
            &ExecBackend::Sequential,
        ).0;
        check_accounting(&sq, nested_cells, "square")?;

        let mut y_next = DensePw::new(n);
        let ry = a_square_rytter_with(
            &pw_act, &mut y_next, SquareStrategy::Auto, &ExecBackend::Sequential,
        );
        check_accounting(&ry, nested_cells, "rytter")?;

        let mut w_next = w.clone();
        let pb = a_pebble_dense_scheduled(&next, &w, &mut w_next, None, &ExecBackend::Sequential).0;
        check_accounting(&pb, pair_count, "pebble")?;
    }

    #[test]
    fn fresh_table_candidates_match_closed_forms(n in 2usize..11) {
        let p = TabulatedProblem::new(vec![1u64; n], |i, k, j| (i + k + j) as u64);
        let idx = PairIndexer::new(n);
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }

        // Independent model counts, straight from the op definitions.
        let mut act_model = 0u64;
        let mut sq_model = 0u64;
        let mut ry_model = 0u64;
        let mut pb_model = 0u64;
        for (i, j) in idx.pairs() {
            if j - i >= 2 {
                act_model += 2 * (j - i - 1) as u64;
            }
            let mut nested = 0u64;
            for pp in i..j {
                for q in pp + 1..=j {
                    nested += 1;
                    sq_model += (pp - i) as u64 + (j - q) as u64;
                    ry_model += (pp - i + 1) as u64 * (j - q + 1) as u64;
                }
            }
            pb_model += nested - 1; // the (i,j) gap itself is free
        }

        let mut pw = DensePw::new(n);
        let act = a_activate_dense_tracked(&p, &w, &mut pw, &ExecBackend::Sequential).0;
        prop_assert_eq!(act.candidates, act_model);

        let fresh = DensePw::new(n);
        let mut next = DensePw::new(n);
        for strategy in [SquareStrategy::Naive, SquareStrategy::Auto] {
            let (sq, _) = a_square_dense_scheduled(
                &fresh, &mut next, strategy, None, &ExecBackend::Sequential,
            );
            prop_assert_eq!(sq.candidates, sq_model, "square {:?}", strategy);
            let ry = a_square_rytter_with(&fresh, &mut next, strategy, &ExecBackend::Sequential);
            prop_assert_eq!(ry.candidates, ry_model, "rytter {:?}", strategy);
        }

        let mut w_next = w.clone();
        let pb = a_pebble_dense_scheduled(
            &fresh,
            &w,
            &mut w_next,
            None,
            &ExecBackend::Sequential,
        ).0;
        prop_assert_eq!(pb.candidates, pb_model);
    }

    #[test]
    fn banded_op_accounting_invariants(
        p in instance_strategy(12),
        extra_band in 0usize..6,
        window_spec in (0usize..3, 0usize..6, 6usize..14),
    ) {
        let window = match window_spec {
            (0, ..) => None,
            (_, lo, hi) => Some((lo, hi)),
        };
        let n = p.n();
        let band = default_band(n) + extra_band;
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = BandedPw::new(n, band);
        let mut pw_next = BandedPw::new(n, band);
        let mut w_next = w.clone();
        let stored = pw.stored_cells() as u64;
        let pair_count = PairIndexer::new(n).len() as u64;
        for round in 0..3 {
            let act = a_activate_banded_tracked(&p, &w, &mut pw, &ExecBackend::Sequential).0;
            check_accounting(&act, stored, &format!("activate round {round}"))?;
            let sq = a_square_banded_scheduled(
                &pw,
                &mut pw_next,
                SquareStrategy::Auto,
                None,
                &ExecBackend::Sequential,
            ).0;
            check_accounting(&sq, stored, &format!("square round {round}"))?;
            std::mem::swap(&mut pw, &mut pw_next);
            let pb = a_pebble_banded_scheduled(
                &p,
                &pw,
                &w,
                &mut w_next,
                window,
                None,
                &ExecBackend::Sequential,
            ).0;
            // Windowed-out pairs are copies, not writes: the cap is the
            // number of re-minimised pairs.
            let cap = match window {
                None => pair_count,
                Some((lo, hi)) => PairIndexer::new(n)
                    .pairs()
                    .filter(|(i, j)| j - i > lo && j - i <= hi)
                    .count() as u64,
            };
            check_accounting(&pb, cap, &format!("pebble round {round}"))?;
            std::mem::swap(&mut w, &mut w_next);
        }
    }

    #[test]
    fn banded_square_matches_naive_on_every_backend(
        size in (2usize..41, 0usize..64, 0u64..u64::MAX),
        iters in 0usize..4,
        mask_seed in 0u64..u64::MAX,
    ) {
        // Warm realistic banded tables, then one square per kernel,
        // backend and skip mask: tables, stats and per-row flags must
        // match the naive sequential reference bit for bit. Up to n = 40
        // and band n + 2, the tiled kernel runs full tiles, overlapped
        // last tiles and widths with fewer roots than a tile.
        let (n, band_draw, seed) = size;
        let band = 1 + band_draw % (n + 2);
        let p = seeded_instance(n, seed, 100, |v| v);
        let (w, pw) = warm_banded(&p, band, iters);
        let idx = PairIndexer::new(n);
        let mask = skip_mask(mask_seed, idx.len());
        for skip in [None, Some(&mask[..])] {
            let mut reference = BandedPw::new(n, band);
            let (base, base_rows) = a_square_banded_scheduled(
                &pw, &mut reference, SquareStrategy::Naive, skip, &ExecBackend::Sequential,
            );
            for (a, (i, j)) in idx.pairs().enumerate().filter(|&(a, _)| skip.is_some() && mask[a]) {
                prop_assert_eq!(
                    banded_cells(&reference, i, j), banded_cells(&pw, i, j), "skipped row {}", a
                );
                prop_assert!(!base_rows[a], "skipped row {} flagged", a);
            }
            for backend in [
                ExecBackend::Sequential,
                ExecBackend::Parallel,
                ExecBackend::Threads(3),
            ] {
                for strategy in [SquareStrategy::Naive, SquareStrategy::Auto] {
                    let mut out = BandedPw::new(n, band);
                    let (stats, rows) =
                        a_square_banded_scheduled(&pw, &mut out, strategy, skip, &backend);
                    let case = format!("{strategy:?} on {backend}, masked: {}", skip.is_some());
                    prop_assert_eq!(
                        out.as_slice(), reference.as_slice(),
                        "banded tables diverge: {}", case
                    );
                    prop_assert_eq!(stats, base, "banded stats diverge: {}", case);
                    prop_assert_eq!(&rows, &base_rows, "banded row flags diverge: {}", case);
                }
            }
        }
        // Skip-everything degrades to a verbatim copy with no stats.
        let mut copied = BandedPw::new(n, band);
        let skip = vec![true; idx.len()];
        let (stats, rows) = a_square_banded_scheduled(
            &pw, &mut copied, SquareStrategy::Auto, Some(&skip), &ExecBackend::Threads(3),
        );
        prop_assert_eq!(copied.as_slice(), pw.as_slice());
        prop_assert_eq!(stats, OpStats::default());
        prop_assert!(rows.iter().all(|&b| !b));
        // The activate-tracked flags match a changed-cell diff.
        let mut pw_act = pw.clone();
        let (act, act_rows) =
            a_activate_banded_tracked(&p, &w, &mut pw_act, &ExecBackend::Threads(3));
        prop_assert_eq!(act.changed, act_rows.iter().any(|&b| b));
        for (a, (i, j)) in idx.pairs().enumerate() {
            let row_changed = banded_cells(&pw, i, j) != banded_cells(&pw_act, i, j);
            prop_assert_eq!(act_rows[a], row_changed, "activate flag row {}", a);
        }
    }

    #[test]
    fn banded_square_is_bitwise_identical_on_f64(
        size in (2usize..25, 0usize..64, 0u64..u64::MAX),
        iters in 0usize..4,
        mask_seed in 0u64..u64::MAX,
    ) {
        // The tiled kernel keeps each cell's candidate order, so f64
        // tables match the naive sequential reference bit for bit.
        let (n, band_draw, seed) = size;
        let band = 1 + band_draw % (n + 2);
        let p = seeded_instance(n, seed, 16, f64_cost);
        let (_, pw) = warm_banded(&p, band, iters);
        let bits = |t: &BandedPw<f64>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mask = skip_mask(mask_seed, pw.indexer().len());
        for skip in [None, Some(&mask[..])] {
            let mut reference = BandedPw::new(n, band);
            let (base, base_rows) = a_square_banded_scheduled(
                &pw, &mut reference, SquareStrategy::Naive, skip, &ExecBackend::Sequential,
            );
            for backend in [ExecBackend::Sequential, ExecBackend::Threads(3)] {
                let mut out = BandedPw::new(n, band);
                let (stats, rows) =
                    a_square_banded_scheduled(&pw, &mut out, SquareStrategy::Auto, skip, &backend);
                let case = format!("on {backend}, masked: {}", skip.is_some());
                prop_assert_eq!(bits(&out), bits(&reference), "f64 banded tables diverge {}", case);
                prop_assert_eq!(stats, base, "f64 banded stats diverge {}", case);
                prop_assert_eq!(&rows, &base_rows, "f64 banded row flags diverge {}", case);
            }
        }
    }

    #[test]
    fn scheduled_pebbles_skip_exactly_and_flag_changes(
        p in instance_strategy(11),
        iters in 1usize..4,
        window_spec in (0usize..3, 0usize..5, 5usize..12),
    ) {
        let window = match window_spec {
            (0, ..) => None,
            (_, lo, hi) => Some((lo, hi)),
        };
        let n = p.n();
        let band = default_band(n);
        let (w, pw) = warm_banded(&p, band, iters);
        let idx = PairIndexer::new(n);
        let dim = idx.len();

        // Banded: a full pass is the reference; its per-pair flags must
        // equal the w-table diff, windowed-out pairs must report false.
        let mut w_full = WTable::new(n);
        let (full, full_flags) = a_pebble_banded_scheduled(
            &p, &pw, &w, &mut w_full, window, None, &ExecBackend::Sequential,
        );
        prop_assert_eq!(full.changed, full.writes > 0);
        prop_assert_eq!(full_flags.iter().filter(|&&b| b).count() as u64, full.writes);
        for (a, (i, j)) in idx.pairs().enumerate() {
            let changed = w_full.get(i, j) != w.get(i, j);
            prop_assert_eq!(full_flags[a], changed, "flag ({},{})", i, j);
            if let Some((lo, hi)) = window {
                if j - i <= lo || j - i > hi {
                    prop_assert!(!full_flags[a], "windowed-out pair flagged ({},{})", i, j);
                }
            }
        }
        // Skipping the clean pairs (those a full pass did not improve)
        // must reproduce the full result with fewer candidates, on every
        // backend.
        let skip: Vec<bool> = full_flags.iter().map(|&b| !b).collect();
        for backend in [
            ExecBackend::Sequential,
            ExecBackend::Parallel,
            ExecBackend::Threads(3),
        ] {
            let mut w_skip = WTable::new(n);
            let (stats, flags) = a_pebble_banded_scheduled(
                &p, &pw, &w, &mut w_skip, window, Some(&skip), &backend,
            );
            prop_assert!(w_skip.table_eq(&w_full), "skip diverges on {}", backend);
            prop_assert_eq!(stats.writes, full.writes, "writes diverge on {}", backend);
            prop_assert_eq!(&flags, &full_flags, "flags diverge on {}", backend);
            prop_assert!(stats.candidates <= full.candidates);
        }
        // Dense scheduled pebble: same contract, no window.
        let (_, dpw) = warm_dense(&p, iters);
        let mut w_dense_full = WTable::new(n);
        let (dfull, dflags) =
            a_pebble_dense_scheduled(&dpw, &w, &mut w_dense_full, None, &ExecBackend::Sequential);
        prop_assert_eq!(dflags.iter().filter(|&&b| b).count() as u64, dfull.writes);
        let dskip = vec![true; dim];
        let mut w_dense_skip = WTable::new(n);
        let (dstats, dflags2) = a_pebble_dense_scheduled(
            &dpw, &w, &mut w_dense_skip, Some(&dskip), &ExecBackend::Threads(3),
        );
        prop_assert!(w_dense_skip.table_eq(&w));
        prop_assert_eq!(dstats, OpStats::default());
        prop_assert!(dflags2.iter().all(|&b| !b));
    }

    #[test]
    fn banded_fresh_candidates_match_closed_forms(n in 2usize..12, extra in 0usize..4) {
        let band = default_band(n).saturating_sub(extra).max(1);
        let idx = PairIndexer::new(n);
        let in_band = |i: usize, j: usize, pp: usize, q: usize| (j - i) - (q - pp) <= band;

        // Model counts from the §5 windowed rules.
        let mut act_model = 0u64;
        let mut sq_model = 0u64;
        for (i, j) in idx.pairs() {
            if j - i < 2 {
                continue;
            }
            for k in i + 1..j {
                if in_band(i, j, i, k) {
                    act_model += 1; // gap (i,k)
                }
                if in_band(i, j, k, j) {
                    act_model += 1; // gap (k,j)
                }
            }
        }
        for (i, j) in idx.pairs() {
            for pp in i..j {
                for q in pp + 1..=j {
                    if !in_band(i, j, pp, q) {
                        continue;
                    }
                    for r in i..pp {
                        if in_band(i, j, r, q) && in_band(r, q, pp, q) {
                            sq_model += 1;
                        }
                    }
                    for s in q + 1..=j {
                        if in_band(i, j, pp, s) && in_band(pp, s, pp, q) {
                            sq_model += 1;
                        }
                    }
                }
            }
        }

        let p = TabulatedProblem::new(vec![1u64; n], |i, k, j| (i * k + j) as u64);
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = BandedPw::new(n, band);
        let act = a_activate_banded_tracked(&p, &w, &mut pw, &ExecBackend::Sequential).0;
        prop_assert_eq!(act.candidates, act_model);

        let fresh = BandedPw::<u64>::new(n, band);
        let mut next = BandedPw::new(n, band);
        let sq = a_square_banded_scheduled(
            &fresh,
            &mut next,
            SquareStrategy::Auto,
            None,
            &ExecBackend::Sequential,
        ).0;
        prop_assert_eq!(sq.candidates, sq_model);
    }
}
