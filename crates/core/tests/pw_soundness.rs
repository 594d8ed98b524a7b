//! Machine-checking the §4 claim (b) against the true partial weights:
//!
//! * `pw'(i,j,p,q) >= pw(i,j,p,q)` after **every** operation (soundness —
//!   the algebraic tables never under-shoot);
//! * at the full fixpoint (uncapped iteration), `pw' = pw` on every
//!   nested quadruple — the restricted (r,q)/(p,s) composition closure is
//!   complete, because the immediate parent of any gap shares an endpoint
//!   with it (the observation justifying eq. (2c)).

use pardp_core::ops::{
    a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_dense_scheduled, SquareStrategy,
};
use pardp_core::prelude::*;
use pardp_core::problem::TabulatedProblem;
use pardp_core::seq::solve_pw_oracle;
use pardp_core::tables::{DensePw, WTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_instance(n: usize, seed: u64) -> TabulatedProblem<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = n + 1;
    let init: Vec<u64> = (0..n).map(|_| rng.gen_range(0..40)).collect();
    let f: Vec<u64> = (0..m * m * m).map(|_| rng.gen_range(0..40)).collect();
    TabulatedProblem::new(init, |i, k, j| f[(i * m + k) * m + j])
}

/// Assert `pw' >= pw` everywhere; count exact matches.
fn check_soundness(n: usize, pw_algo: &DensePw<u64>, pw_true: &DensePw<u64>, stage: &str) -> usize {
    let mut exact = 0;
    for i in 0..n {
        for j in i + 1..=n {
            for p in i..j {
                for q in p + 1..=j {
                    let algo = pw_algo.get(i, j, p, q);
                    let truth = pw_true.get(i, j, p, q);
                    assert!(
                        algo >= truth,
                        "{stage}: pw'({i},{j},{p},{q}) = {algo} < pw = {truth}"
                    );
                    if algo == truth {
                        exact += 1;
                    }
                }
            }
        }
    }
    exact
}

#[test]
fn pw_oracle_diagonal_and_monotonicity() {
    let p = random_instance(8, 1);
    let w = solve_sequential(&p);
    let pw = solve_pw_oracle(&p, &w);
    let n = 8;
    for i in 0..n {
        for j in i + 1..=n {
            // Diagonal zero.
            assert_eq!(pw.get(i, j, i, j), 0);
            for pp in i..j {
                for q in pp + 1..=j {
                    // pw + w(gap) >= w(root): filling the gap optimally
                    // yields some tree for (i,j).
                    let filled = pw.get(i, j, pp, q) + w.get(pp, q);
                    assert!(
                        filled >= w.get(i, j),
                        "({i},{j},{pp},{q}): {filled} < {}",
                        w.get(i, j)
                    );
                }
            }
        }
    }
}

#[test]
fn pw_oracle_realizes_w_through_leaf_gaps() {
    // w(i,j) = min over leaf gaps (t,t+1) of pw(i,j,t,t+1) + init(t):
    // every tree has all its leaves, so closing the best leaf gap of the
    // best partial tree realizes the optimum.
    let p = random_instance(9, 2);
    let w = solve_sequential(&p);
    let pw = solve_pw_oracle(&p, &w);
    let n = 9;
    for i in 0..n {
        for j in i + 2..=n {
            let best = (i..j)
                .map(|t| pw.get(i, j, t, t + 1).saturating_add(p.init(t)))
                .min()
                .unwrap();
            assert_eq!(best, w.get(i, j), "({i},{j})");
        }
    }
}

#[test]
fn algebraic_pw_is_sound_every_iteration_and_exact_at_fixpoint() {
    for seed in 0..4u64 {
        let n = 8usize;
        let p = random_instance(n, 100 + seed);
        let w_star = solve_sequential(&p);
        let pw_star = solve_pw_oracle(&p, &w_star);

        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        let mut pw_next = DensePw::new(n);
        let mut w_next = w.clone();
        // Uncapped iteration to the true fixpoint (cap 4n as a safety
        // net far above any possible convergence horizon).
        let mut iterations = 0;
        loop {
            let a = a_activate_dense_tracked(&p, &w, &mut pw, &ExecBackend::Sequential).0;
            check_soundness(n, &pw, &pw_star, "after a-activate");
            let s = a_square_dense_scheduled(
                &pw,
                &mut pw_next,
                SquareStrategy::Auto,
                None,
                &ExecBackend::Sequential,
            )
            .0;
            std::mem::swap(&mut pw, &mut pw_next);
            check_soundness(n, &pw, &pw_star, "after a-square");
            let pb =
                a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &ExecBackend::Sequential).0;
            std::mem::swap(&mut w, &mut w_next);
            iterations += 1;
            if !a.changed && !s.changed && !pb.changed {
                break;
            }
            assert!(
                iterations <= 4 * n,
                "no fixpoint after {iterations} iterations"
            );
        }
        // At the fixpoint: w' = w everywhere and pw' = pw everywhere.
        assert!(w.table_eq(&w_star), "seed={seed}");
        let exact = check_soundness(n, &pw, &pw_star, "at fixpoint");
        let mut total = 0;
        for i in 0..n {
            for j in i + 1..=n {
                total += (j - i) * (j - i + 1) / 2;
            }
        }
        assert_eq!(
            exact, total,
            "seed={seed}: not all quadruples exact at fixpoint"
        );
    }
}

#[test]
fn banded_pw_in_band_cells_are_sound() {
    use pardp_core::ops::{a_activate_banded_tracked, a_square_banded_scheduled, SquareStrategy};
    use pardp_core::tables::BandedPw;
    let n = 9usize;
    let p = random_instance(n, 7);
    let w_star = solve_sequential(&p);
    let pw_star = solve_pw_oracle(&p, &w_star);
    let band = pardp_core::reduced::default_band(n);

    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    let mut pw = BandedPw::new(n, band);
    let mut pw_next = BandedPw::new(n, band);
    let mut w_next = w.clone();
    for _ in 0..2 * pardp_pebble::ceil_sqrt(n as u64) {
        a_activate_banded_tracked(&p, &w, &mut pw, &ExecBackend::Sequential);
        a_square_banded_scheduled(
            &pw,
            &mut pw_next,
            SquareStrategy::Auto,
            None,
            &ExecBackend::Sequential,
        );
        std::mem::swap(&mut pw, &mut pw_next);
        pardp_core::ops::a_pebble_banded_scheduled(
            &p,
            &pw,
            &w,
            &mut w_next,
            None,
            None,
            &ExecBackend::Sequential,
        );
        std::mem::swap(&mut w, &mut w_next);
        for i in 0..n {
            for j in i + 1..=n {
                for (pp, q) in pw.gaps_of(i, j) {
                    assert!(
                        pw.get(i, j, pp, q) >= pw_star.get(i, j, pp, q),
                        "banded pw'({i},{j},{pp},{q}) under-shoots"
                    );
                }
            }
        }
    }
    assert!(w.table_eq(&w_star));
}
