//! The algorithms on the CREW PRAM cost model (experiment E9).
//!
//! Two facilities:
//!
//! * [`model_sublinear`] / [`model_reduced`] / [`model_rytter`] /
//!   [`account_wavefront`] / [`account_sequential`] — record every
//!   parallel phase of a schedule on a [`Pram`], without executing it:
//!   `a-activate` as a unit-depth map, `a-square`/`a-pebble` as
//!   mixed-fan-in balanced-tree reductions with the *exact* per-cell
//!   candidate counts. The resulting machine reports work, depth, peak
//!   processor demand, Brent time on any `p`, and the processor–time
//!   product of the paper's comparison table. Each iteration's phase
//!   work equals the candidates the iteration engine counts for that op
//!   when it runs without row skipping (Rytter's square additionally
//!   counts each cell's identity candidate); the value and the iteration
//!   count of a run come from [`Solver::solve`](crate::solver::Solver::solve).
//! * [`audited_sublinear_value`] — execute the §2 schedule through
//!   [`SharedArray`]s with full CREW auditing: any two writes to one cell
//!   in a step, or any read of a freshly written cell, aborts the run.
//!   This machine-checks the paper's claim that the three operations obey
//!   the exclusive-write discipline.

use pardp_pram::{AuditMode, PhaseRecord, Pram, PramError, SharedArray};

use crate::problem::DpProblem;
use crate::reduced::default_band;
use crate::seq::sequential_work;
use crate::tables::PairIndexer;
use crate::weight::Weight;

// ---------------------------------------------------------------------------
// Fan-in histograms (iteration-independent, computed once per run)
// ---------------------------------------------------------------------------

fn push_hist(hist: &mut std::collections::BTreeMap<u64, u64>, fan: u64) {
    if fan > 0 {
        *hist.entry(fan).or_insert(0) += 1;
    }
}

/// Fan-ins of the dense `a-square`: cell `(i,j,p,q)` minimises over
/// `(p - i) + (j - q)` compositions plus its old value.
fn dense_square_hist(n: usize) -> Vec<(u64, u64)> {
    let mut hist = std::collections::BTreeMap::new();
    for (i, j) in PairIndexer::new(n).pairs() {
        for p in i..j {
            for q in p + 1..=j {
                push_hist(&mut hist, ((p - i) + (j - q) + 1) as u64);
            }
        }
    }
    hist.into_iter().collect()
}

/// Fan-ins of Rytter's square: `(p - i + 1) * (j - q + 1)` intermediate
/// gaps per cell.
fn rytter_square_hist(n: usize) -> Vec<(u64, u64)> {
    let mut hist = std::collections::BTreeMap::new();
    for (i, j) in PairIndexer::new(n).pairs() {
        for p in i..j {
            for q in p + 1..=j {
                push_hist(&mut hist, ((p - i + 1) * (j - q + 1)) as u64);
            }
        }
    }
    hist.into_iter().collect()
}

/// Fan-ins of the dense `a-pebble`: `d (d + 1) / 2` gap candidates per
/// pair of width `d` (including the identity gap).
fn dense_pebble_hist(n: usize) -> Vec<(u64, u64)> {
    let mut hist = std::collections::BTreeMap::new();
    for d in 1..=n {
        let fan = (d * (d + 1) / 2) as u64;
        let count = (n + 1 - d) as u64;
        if fan > 1 {
            *hist.entry(fan).or_insert(0) += count;
        }
    }
    hist.into_iter().collect()
}

/// Fan-ins of the banded `a-square` (§5 windows).
fn banded_square_hist(n: usize, band: usize) -> Vec<(u64, u64)> {
    let mut hist = std::collections::BTreeMap::new();
    for (i, j) in PairIndexer::new(n).pairs() {
        let d = j - i;
        let emax = (d - 1).min(band);
        for e in 0..=emax {
            let g = d - e;
            for p in i..=i + e {
                let q = p + g;
                let mut fan = 1u64; // old value
                let r_lo = i.max(p.saturating_sub(band));
                if p > r_lo {
                    let r_hi = (p - 1).min(q + band - d);
                    if r_hi >= r_lo {
                        fan += (r_hi - r_lo + 1) as u64;
                    }
                }
                let s_lo = (q + 1).max((p + d).saturating_sub(band));
                let s_hi = j.min(q + band);
                if s_hi >= s_lo {
                    fan += (s_hi - s_lo + 1) as u64;
                }
                push_hist(&mut hist, fan);
            }
        }
    }
    hist.into_iter().collect()
}

/// Fan-ins of the banded `a-pebble` for the §5 size window of iteration
/// `iter` (`None` = no window).
fn banded_pebble_hist(n: usize, band: usize, window: Option<(usize, usize)>) -> Vec<(u64, u64)> {
    let mut hist = std::collections::BTreeMap::new();
    for d in 1..=n {
        if let Some((lo, hi)) = window {
            if d <= lo || d > hi {
                continue;
            }
        }
        let emax = (d - 1).min(band);
        // In-band gaps (incl. identity) plus the d-1 direct decompositions
        // (see `a_pebble_banded_scheduled`).
        let fan = ((emax + 1) * (emax + 2) / 2 + (d - 1)) as u64;
        if fan > 1 {
            *hist.entry(fan).or_insert(0) += (n + 1 - d) as u64;
        }
    }
    hist.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Pure cost models (no execution)
// ---------------------------------------------------------------------------

/// Account the wavefront algorithm \[10\]: one reduce phase per
/// anti-diagonal (`n - 1` phases, `O(n^3)` work — the work-optimal row of
/// the comparison table). Each cell of diagonal `d` reduces over its
/// `d - 1` candidates plus the infinity seed (fan `d`), so the phase work
/// equals the candidate count — the same convention as the other
/// algorithms' histograms.
pub fn account_wavefront(n: usize) -> Pram {
    let mut pram = Pram::new(format!("wavefront(n={n})"));
    pram.map_phase("init/w", n as u64);
    for d in 2..=n {
        pram.push(PhaseRecord::reduce(
            format!("diagonal/{d}"),
            (n + 1 - d) as u64,
            d as u64,
        ));
    }
    pram
}

/// Analytic `a-activate` task count for dense storage:
/// `2` candidates per triple `i < k < j` with `j - i >= 2`.
fn dense_activate_tasks(n: usize) -> u64 {
    2 * sequential_work(n)
}

/// Analytic `a-activate` task count for banded storage: per pair of width
/// `d`, `2 * min(d - 1, B)` in-band single-edge gaps.
fn banded_activate_tasks(n: usize, band: usize) -> u64 {
    (1..=n as u64)
        .map(|d| (n as u64 + 1 - d) * 2 * (d.saturating_sub(1)).min(band as u64))
        .sum()
}

/// The PRAM cost model of the §2 dense algorithm at size `n`, without
/// executing it: the full `2*ceil(sqrt(n))` schedule with exact per-cell
/// fan-ins. It allocates no `O(n^4)` tables, so the E9 scaling tables
/// reach sizes a solve could not hold in memory.
pub fn model_sublinear(n: usize) -> Pram {
    let mut pram = Pram::new(format!("sublinear-model(n={n})"));
    let sq_hist = dense_square_hist(n);
    let pb_hist = dense_pebble_hist(n);
    pram.map_phase("init/w", n as u64);
    pram.map_phase("init/pw", PairIndexer::new(n).len() as u64);
    for _ in 0..2 * pardp_pebble::ceil_sqrt(n as u64) {
        pram.map_phase("a-activate/update", dense_activate_tasks(n));
        pram.push(PhaseRecord::reduce_from_histogram(
            "a-square/min",
            sq_hist.iter().copied(),
        ));
        pram.push(PhaseRecord::reduce_from_histogram(
            "a-pebble/min",
            pb_hist.iter().copied(),
        ));
    }
    pram
}

/// The PRAM cost model of the §5 reduced algorithm at size `n`.
pub fn model_reduced(n: usize) -> Pram {
    let band = default_band(n);
    let mut pram = Pram::new(format!("reduced-model(n={n},B={band})"));
    let sq_hist = banded_square_hist(n, band);
    pram.map_phase("init/w", n as u64);
    pram.map_phase("init/pw", PairIndexer::new(n).len() as u64);
    let schedule = 2 * pardp_pebble::ceil_sqrt(n as u64);
    for iter in 1..=schedule {
        pram.map_phase("a-activate/update", banded_activate_tasks(n, band));
        pram.push(PhaseRecord::reduce_from_histogram(
            "a-square/min",
            sq_hist.iter().copied(),
        ));
        let l = iter.div_ceil(2) as usize;
        let window = Some(((l - 1) * (l - 1), l * l));
        pram.push(PhaseRecord::reduce_from_histogram(
            "a-pebble/min",
            banded_pebble_hist(n, band, window),
        ));
    }
    pram
}

/// The PRAM cost model of Rytter's algorithm \[8\] at size `n`, for the
/// given iteration count (pass [`crate::rytter::rytter_schedule`] for the
/// worst case, or an observed count).
pub fn model_rytter(n: usize, iterations: u64) -> Pram {
    let mut pram = Pram::new(format!("rytter-model(n={n})"));
    let sq_hist = rytter_square_hist(n);
    let pb_hist = dense_pebble_hist(n);
    pram.map_phase("init/w", n as u64);
    pram.map_phase("init/pw", PairIndexer::new(n).len() as u64);
    for _ in 0..iterations {
        pram.map_phase("a-activate/update", dense_activate_tasks(n));
        pram.push(PhaseRecord::reduce_from_histogram(
            "a-square/min",
            sq_hist.iter().copied(),
        ));
        pram.push(PhaseRecord::reduce_from_histogram(
            "a-pebble/min",
            pb_hist.iter().copied(),
        ));
    }
    pram
}

/// Account the sequential `O(n^3)` algorithm: all work on one processor
/// (depth = work).
pub fn account_sequential(n: usize) -> Pram {
    let mut pram = Pram::new(format!("sequential(n={n})"));
    let work = sequential_work(n);
    // One candidate per time step on one processor: depth = work. The
    // layer vector is collapsed to a single entry (exact for work and for
    // Brent time at p = 1, which is the only p a sequential machine has).
    pram.push(PhaseRecord {
        name: "seq-dp".into(),
        kind: pardp_pram::PhaseKind::Map,
        work,
        depth: work,
        peak_processors: 1,
        layers: vec![work],
    });
    pram
}

// ---------------------------------------------------------------------------
// Fully audited CREW execution
// ---------------------------------------------------------------------------

/// Execute the §2 schedule through audited shared memory and return the
/// final `c(0, n)`. Every read/write goes through [`SharedArray`] with
/// [`AuditMode::Full`]; a CREW violation aborts with the offending cell.
///
/// Memory is `O(n^4)`; intended for `n <= 24` (tests use less).
pub fn audited_sublinear_value<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
) -> Result<W, PramError> {
    let n = problem.n();
    let idx = PairIndexer::new(n);
    let pairs = idx.len();
    let wn = (n + 1) * (n + 1);

    let mut w = SharedArray::new("w", wn, W::INFINITY, AuditMode::Full);
    for i in 0..n {
        w.write(i * (n + 1) + i + 1, problem.init(i))?;
    }
    w.barrier();
    let mut pw_cur = SharedArray::new("pw", pairs * pairs, W::INFINITY, AuditMode::Full);
    for a in 0..pairs {
        pw_cur.write(a * pairs + a, W::ZERO)?;
    }
    pw_cur.barrier();
    let mut pw_nxt = SharedArray::new("pw-next", pairs * pairs, W::INFINITY, AuditMode::Full);
    for a in 0..pairs {
        pw_nxt.write(a * pairs + a, W::ZERO)?;
    }
    pw_nxt.barrier();
    let mut w_nxt = SharedArray::new("w-next", wn, W::INFINITY, AuditMode::Full);

    let schedule = 2 * pardp_pebble::ceil_sqrt(n as u64);
    for _ in 0..schedule {
        // --- a-activate: for all i < k < j, exclusive writes into pw_cur.
        for (i, j) in idx.pairs() {
            if j - i < 2 {
                continue;
            }
            let a = idx.index(i, j);
            for k in i + 1..j {
                let fikj = problem.f(i, k, j);
                let b1 = idx.index(i, k);
                let old1 = pw_cur.read(a * pairs + b1)?;
                let cand1 = fikj.add(w.read(k * (n + 1) + j)?);
                if cand1 < old1 {
                    pw_cur.write(a * pairs + b1, cand1)?;
                }
                let b2 = idx.index(k, j);
                let old2 = pw_cur.read(a * pairs + b2)?;
                let cand2 = fikj.add(w.read(i * (n + 1) + k)?);
                if cand2 < old2 {
                    pw_cur.write(a * pairs + b2, cand2)?;
                }
            }
        }
        pw_cur.barrier();

        // --- a-square: read pw_cur, write pw_nxt.
        for (i, j) in idx.pairs() {
            let a = idx.index(i, j);
            for p in i..j {
                for q in p + 1..=j {
                    let b = idx.index(p, q);
                    let mut best = pw_cur.read(a * pairs + b)?;
                    for r in i..p {
                        let c = idx.index(r, q);
                        let cand = pw_cur.read(a * pairs + c)?.add(pw_cur.read(c * pairs + b)?);
                        best = best.min2(cand);
                    }
                    for s in q + 1..=j {
                        let c = idx.index(p, s);
                        let cand = pw_cur.read(a * pairs + c)?.add(pw_cur.read(c * pairs + b)?);
                        best = best.min2(cand);
                    }
                    pw_nxt.write(a * pairs + b, best)?;
                }
            }
        }
        pw_cur.barrier();
        pw_nxt.barrier();
        std::mem::swap(&mut pw_cur, &mut pw_nxt);

        // --- a-pebble: read pw_cur + w, write w_nxt.
        for (i, j) in idx.pairs() {
            let a = idx.index(i, j);
            let mut best = w.read(i * (n + 1) + j)?;
            for p in i..j {
                for q in p + 1..=j {
                    if p == i && q == j {
                        continue;
                    }
                    let b = idx.index(p, q);
                    let cand = pw_cur.read(a * pairs + b)?.add(w.read(p * (n + 1) + q)?);
                    best = best.min2(cand);
                }
            }
            w_nxt.write(i * (n + 1) + j, best)?;
        }
        w.barrier();
        w_nxt.barrier();
        std::mem::swap(&mut w, &mut w_nxt);
    }
    w.read(n) // w(0, n) at index 0 * (n+1) + n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecBackend;
    use crate::problem::FnProblem;
    use crate::seq::solve_sequential;
    use crate::solver::{Algorithm, SolveOptions, Solver};

    /// Candidate counts must not depend on worker scheduling.
    const SEQ: ExecBackend = ExecBackend::Sequential;

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    /// Iterations a model records: two init phases, then activate,
    /// square and pebble per iteration.
    fn model_iterations(pram: &Pram) -> u64 {
        (pram.phases().len() as u64 - 2) / 3
    }

    #[test]
    fn accounted_runs_compute_correct_values() {
        // The value of an accounted run comes from the solver; the
        // machine from `model_*` (checked phase by phase below).
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        for algo in [Algorithm::Sublinear, Algorithm::Reduced, Algorithm::Rytter] {
            let sol = Solver::new(algo)
                .options(SolveOptions::default().exec(SEQ))
                .solve(&p);
            assert_eq!(sol.value(), 15125, "{algo}");
        }
    }

    #[test]
    fn work_ordering_matches_the_paper() {
        // seq = wavefront (work-optimal) < reduced < sublinear < rytter,
        // on the full worst-case schedules (pure cost models).
        let n = 40usize;
        let seq_w = account_sequential(n).metrics().work;
        let wave_w = account_wavefront(n).metrics().work;
        let red_w = model_reduced(n).metrics().work;
        let sub_w = model_sublinear(n).metrics().work;
        let ryt_w = model_rytter(n, crate::rytter::rytter_schedule(n))
            .metrics()
            .work;
        // Wavefront = sequential candidates + the n init writes.
        assert_eq!(seq_w + n as u64, wave_w, "wavefront is work-optimal");
        assert!(wave_w < red_w, "{wave_w} < {red_w}");
        assert!(red_w < sub_w, "{red_w} < {sub_w}");
        assert!(sub_w < ryt_w, "{sub_w} < {ryt_w}");
    }

    #[test]
    fn engine_work_matches_pure_model() {
        // Without row skipping, every iteration of the engine examines
        // exactly the candidates the model charges to each phase. Rytter's
        // square also counts each cell's identity candidate, which the
        // model folds into the old value: C(n+3, 4) more per iteration.
        let p = chain(vec![3, 7, 2, 9, 4, 8, 5, 6, 10, 1, 12, 11]);
        let n = p.n();
        let cells = ((n + 3) * (n + 2) * (n + 1) * n / 24) as u64;
        for algo in [Algorithm::Sublinear, Algorithm::Reduced, Algorithm::Rytter] {
            let opts = SolveOptions::default()
                .exec(SEQ)
                .skip_clean_rows(false)
                .record_trace(true);
            let trace = Solver::new(algo).options(opts).solve(&p).trace;
            let (model, identity) = match algo {
                Algorithm::Sublinear => (model_sublinear(n), 0),
                Algorithm::Reduced => (model_reduced(n), 0),
                _ => (model_rytter(n, trace.iterations), cells),
            };
            assert_eq!(model_iterations(&model), trace.iterations, "{algo}");
            for (it, phase) in trace
                .per_iteration
                .iter()
                .zip(model.phases()[2..].chunks(3))
            {
                let k = it.iteration;
                assert_eq!(it.activate.candidates, phase[0].work, "{algo} activate {k}");
                assert_eq!(
                    it.square.candidates,
                    phase[1].work + identity,
                    "{algo} square {k}"
                );
                assert_eq!(it.pebble.candidates, phase[2].work, "{algo} pebble {k}");
            }
        }
    }

    #[test]
    fn depth_ordering_matches_the_paper() {
        // Rytter O(log^2) < sublinear O(sqrt(n) log n) < wavefront
        // O(n log n) < sequential O(n^3). The sublinear/wavefront
        // crossover sits around n ~ 80 with exact constants, so compare
        // at n = 128 (pure models — no O(n^4) tables needed). Rytter is
        // modelled at its typical convergence (~log2 n + 2 iterations,
        // which the executed tests confirm); its worst-case *cap*
        // `2 log2 n + 4` only pulls ahead of the sublinear schedule at
        // larger n.
        let n = 128usize;
        let seq_d = account_sequential(n).metrics().depth;
        let wave_d = account_wavefront(n).metrics().depth;
        let sub_d = model_sublinear(n).metrics().depth;
        let ryt_iters = (n as f64).log2().ceil() as u64 + 2;
        let ryt_d = model_rytter(n, ryt_iters).metrics().depth;
        assert!(ryt_d < sub_d, "{ryt_d} < {sub_d}");
        assert!(sub_d < wave_d, "{sub_d} < {wave_d}");
        assert!(wave_d < seq_d, "{wave_d} < {seq_d}");
    }

    #[test]
    fn pt_product_improvement_over_rytter_grows() {
        // The §5 algorithm's PT-product advantage over Rytter must grow
        // with n (the paper: a factor of Theta(n^2 log n)).
        let ratio = |n: usize| {
            let red = model_reduced(n);
            let ryt = model_rytter(n, crate::rytter::rytter_schedule(n));
            ryt.metrics().pt_product() as f64 / red.metrics().pt_product() as f64
        };
        let r16 = ratio(16);
        let r48 = ratio(48);
        assert!(r16 > 1.0, "reduced must already win at n=16: {r16}");
        assert!(r48 > 2.0 * r16, "advantage must grow: {r16} -> {r48}");
    }

    #[test]
    fn brent_time_at_peak_equals_depth_bound() {
        let pram = model_sublinear(5);
        let m = pram.metrics().clone();
        assert_eq!(pram.brent_time(u64::MAX), m.depth);
        assert_eq!(pram.brent_time(1), m.work);
    }

    #[test]
    fn audited_run_is_crew_clean_and_correct() {
        for dims in [
            vec![30u64, 35, 15, 5, 10, 20, 25],
            vec![4, 9, 2, 7, 3, 8, 5, 6],
            vec![1, 2],
        ] {
            let p = chain(dims);
            let oracle = solve_sequential(&p).root();
            let audited = audited_sublinear_value(&p).expect("CREW violation");
            assert_eq!(audited, oracle);
        }
    }

    #[test]
    fn histograms_are_consistent_with_op_candidate_counts() {
        // The analytic fan-in histograms must total exactly the candidates
        // the executable ops report (+1 per cell for the old value in the
        // square/pebble, which ops count as implicit).
        use crate::ops::{a_square_dense_scheduled, OpStats, SquareStrategy};
        use crate::tables::DensePw;
        let n = 9usize;
        let pw = DensePw::<u64>::new(n);
        let mut next = DensePw::new(n);
        let OpStats {
            candidates, writes, ..
        } = a_square_dense_scheduled(&pw, &mut next, SquareStrategy::Auto, None, &SEQ).0;
        let hist_total: u64 = dense_square_hist(n)
            .iter()
            .map(|&(fan, count)| (fan - 1) * count)
            .sum();
        // hist counts fan-1 compositions per cell beyond the old value;
        // cells with fan = 1 (no compositions) don't appear in ops' sums.
        assert_eq!(hist_total, candidates, "square candidates");
        let _ = writes;
    }
}
