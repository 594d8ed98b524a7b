//! Executable §4: the pebbling game and the algebraic algorithm run in
//! lockstep on an optimal tree.
//!
//! The paper proves correctness by synchronising the game (played on an
//! optimal tree) with the algorithm:
//!
//! ```text
//! repeat 2*ceil(sqrt(n)) times begin
//!     activate; a-activate;
//!     square;   a-square;
//!     pebble;   a-pebble;
//! end.
//! ```
//!
//! maintaining (§4):
//!
//! * (a) if node `(i,j)` is pebbled after the k-th pebble, then after the
//!   next `a-pebble`, `w'(i,j) = w(i,j)`;
//! * (b) if `cond((i,j)) = (p,q)` after the k-th square/activate, then
//!   after the next `a-square`/`a-activate`,
//!   `pw'(i,j,p,q) = pw(i,j,p,q)`.
//!
//! [`verify_coupled`] executes exactly this combined loop and checks, at
//! every synchronisation point, the machine-checkable consequences:
//! soundness (`w' >= w` everywhere — the tables never under-shoot), claim
//! (a) as stated, and for (b) the one-sided bound
//! `pw'(i,j,p,q) <= w(i,j) - w(p,q)` (the tree-realized partial weight;
//! the true `pw` may be smaller, and the realized weight is what the
//! pebbling progress argument consumes).

use pardp_pebble::{PebbleGame, SquareRule};

use crate::exec::ExecBackend;
use crate::ops::{
    a_activate_dense_tracked, a_pebble_dense_scheduled, a_square_dense_scheduled, SquareStrategy,
};
use crate::problem::DpProblem;
use crate::reconstruct::{reconstruct_root, to_pebble_tree};
use crate::seq::solve_sequential;
use crate::tables::{DensePw, WTable};
use crate::weight::Weight;

/// The coupled verification runs sequentially: it checks invariants after
/// every sub-step, in lockstep with the game.
const SEQ: ExecBackend = ExecBackend::Sequential;

/// Outcome of a successful coupled run.
#[derive(Debug, Clone)]
pub struct CoupledOutcome {
    /// Problem size.
    pub n: usize,
    /// Move at which the game pebbled the root of the optimal tree.
    pub root_pebbled_at: u64,
    /// Iterations executed (the full schedule).
    pub iterations: u64,
    /// Individual invariant checks performed.
    pub checks: u64,
}

/// Run the combined §4 loop, checking the correspondence invariants after
/// every operation pair. Returns an error describing the first violated
/// invariant (which would indicate an implementation bug — the test suite
/// runs this on many instances).
pub fn verify_coupled<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
) -> Result<CoupledOutcome, String> {
    let n = problem.n();
    let w_star = solve_sequential(problem);
    let tree = reconstruct_root(problem, &w_star).map_err(|e| format!("reconstruct: {e}"))?;
    let ptree = to_pebble_tree(&tree);
    let labels = ptree.interval_labels();
    let mut game = PebbleGame::new(&ptree, SquareRule::Modified);

    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, problem.init(i));
    }
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();

    let schedule = 2 * pardp_pebble::ceil_sqrt(n as u64);
    let mut checks = 0u64;
    let mut root_pebbled_at = 0u64;

    // Soundness: w' never dips below the true optimum anywhere.
    let soundness = |w: &WTable<W>, stage: &str, iter: u64| -> Result<u64, String> {
        let mut local = 0u64;
        for i in 0..n {
            for j in i + 1..=n {
                let approx = w.get(i, j);
                let truth = w_star.get(i, j);
                if approx < truth && !approx.cost_eq(&truth) {
                    return Err(format!(
                        "iteration {iter} {stage}: w'({i},{j}) = {approx} < w = {truth}"
                    ));
                }
                local += 1;
            }
        }
        Ok(local)
    };

    // cond-target invariant: pw'(x, cond(x)) <= realized partial weight.
    let cond_invariant =
        |game: &PebbleGame<'_>, pw: &DensePw<W>, stage: &str, iter: u64| -> Result<u64, String> {
            let mut local = 0u64;
            for x in ptree.node_ids() {
                let y = game.cond(x);
                if y == x {
                    continue;
                }
                let (i, j) = labels[x];
                let (p, q) = labels[y];
                let realized = {
                    // w(i,j) - w(p,q) without subtraction (Weight has no sub):
                    // check pw' + w(p,q) <= w(i,j) instead.
                    pw.get(i, j, p, q).add(w_star.get(p, q))
                };
                let bound = w_star.get(i, j);
                if realized > bound && !realized.cost_eq(&bound) {
                    return Err(format!(
                        "iteration {iter} {stage}: pw'({i},{j},{p},{q}) + w({p},{q}) = {realized} \
                     exceeds w({i},{j}) = {bound}"
                    ));
                }
                local += 1;
            }
            Ok(local)
        };

    for iter in 1..=schedule {
        // activate; a-activate
        game.activate();
        a_activate_dense_tracked(problem, &w, &mut pw, &SEQ);
        checks += cond_invariant(&game, &pw, "activate", iter)?;

        // square; a-square
        game.square();
        a_square_dense_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, &SEQ);
        std::mem::swap(&mut pw, &mut pw_next);
        checks += cond_invariant(&game, &pw, "square", iter)?;

        // pebble; a-pebble
        game.pebble();
        a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &SEQ);
        std::mem::swap(&mut w, &mut w_next);
        checks += soundness(&w, "pebble", iter)?;

        // Claim (a): pebbled nodes hold exact values.
        for x in ptree.node_ids() {
            if game.is_pebbled(x) {
                let (i, j) = labels[x];
                let got = w.get(i, j);
                let want = w_star.get(i, j);
                if !got.cost_eq(&want) {
                    return Err(format!(
                        "iteration {iter}: node ({i},{j}) pebbled but w' = {got} != w = {want}"
                    ));
                }
                checks += 1;
            }
        }
        if game.root_pebbled() && root_pebbled_at == 0 {
            root_pebbled_at = iter;
        }
    }

    if !game.root_pebbled() {
        return Err(format!(
            "game did not pebble the root within {schedule} moves"
        ));
    }
    if !w.root().cost_eq(&w_star.root()) {
        return Err(format!(
            "final value mismatch: algorithm {} vs sequential {}",
            w.root(),
            w_star.root()
        ));
    }
    if !w.table_eq(&w_star) {
        return Err("final w table differs from the sequential oracle".into());
    }

    Ok(CoupledOutcome {
        n,
        root_pebbled_at,
        iterations: schedule,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{FnProblem, TabulatedProblem};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    #[test]
    fn coupled_run_on_clrs_chain() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let out = verify_coupled(&p).unwrap();
        assert_eq!(out.n, 6);
        assert!(out.root_pebbled_at >= 1);
        assert!(out.root_pebbled_at <= out.iterations);
        assert!(out.checks > 0);
    }

    #[test]
    fn coupled_run_on_random_chains() {
        let mut rng = SmallRng::seed_from_u64(5150);
        for n in [2usize, 3, 5, 8, 12, 16] {
            for _ in 0..3 {
                let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..40)).collect();
                let p = chain(dims);
                verify_coupled(&p).unwrap_or_else(|e| panic!("n={n}: {e}"));
            }
        }
    }

    #[test]
    fn coupled_run_on_arbitrary_costs() {
        let mut rng = SmallRng::seed_from_u64(31);
        for n in [4usize, 7, 11, 15] {
            let init: Vec<u64> = (0..n).map(|_| rng.gen_range(0..25)).collect();
            let m = n + 1;
            let f_vals: Vec<u64> = (0..m * m * m).map(|_| rng.gen_range(0..25)).collect();
            let p = TabulatedProblem::new(init, |i, k, j| f_vals[(i * m + k) * m + j]);
            verify_coupled(&p).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn coupled_run_on_floats() {
        let mut rng = SmallRng::seed_from_u64(13);
        let dims: Vec<f64> = (0..=10).map(|_| rng.gen_range(0.5..4.0)).collect();
        let n = dims.len() - 1;
        let p = FnProblem::new(n, |_| 0.0f64, move |i, k, j| dims[i] * dims[k] * dims[j]);
        verify_coupled(&p).unwrap();
    }
}
