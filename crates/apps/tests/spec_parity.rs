//! The four `u64` apps types evaluate recurrence (*) through the wire
//! families' `SpecProblem`. Pin each one to the formula its module doc
//! states, written here as an independent `FnProblem` with plain sums in
//! place of prefix sums: identical `n`, `name`, `init` and `f` on every
//! triple, identical solved tables, and a `split_min` that gives the
//! default fold's bits.

use pardp_apps::{MatrixChain, MergeOrder, OptimalBst, WeightedPolygon};
use pardp_core::prelude::*;

fn assert_matches_formula(apps: &dyn DpProblem<u64>, formula: &dyn DpProblem<u64>) {
    assert_eq!(apps.n(), formula.n(), "n");
    assert_eq!(apps.name(), formula.name(), "name");
    let n = apps.n();
    for i in 0..n {
        assert_eq!(apps.init(i), formula.init(i), "init({i})");
    }
    for i in 0..n {
        for j in (i + 2)..=n {
            for k in (i + 1)..j {
                assert_eq!(apps.f(i, k, j), formula.f(i, k, j), "f({i},{k},{j})");
            }
        }
    }
    let wa = solve_sequential(apps);
    let wf = solve_sequential(formula);
    assert!(
        wa.table_eq(&wf),
        "solved tables diverge for {}",
        apps.name()
    );
    // The apps type's `split_min` against the formula's default fold
    // over `f`, on the solved operands (where it must give the cell
    // itself) and on a copy with every third cell infinite.
    let mut holes = wa.clone();
    for (x, v) in holes.as_mut_slice().iter_mut().enumerate() {
        if x % 3 == 0 {
            *v = u64::INFINITY;
        }
    }
    for (w, solved) in [(&wa, true), (&holes, false)] {
        for i in 0..n {
            for j in (i + 2)..=n {
                let left: Vec<u64> = (i + 1..j).map(|k| w.get(i, k)).collect();
                let right: Vec<u64> = (i + 1..j).map(|k| w.get(k, j)).collect();
                let cell = apps.split_min(i, j, &left, &right);
                assert_eq!(
                    cell,
                    formula.split_min(i, j, &left, &right),
                    "split_min({i},{j})"
                );
                if solved {
                    assert_eq!(cell, wa.get(i, j), "split_min({i},{j}) on the solved table");
                }
            }
        }
    }
}

#[test]
fn chain_matches_matrix_chain() {
    for dims in [
        vec![30u64, 35, 15, 5, 10, 20, 25],
        vec![7, 3],
        vec![2, 9, 4, 1, 8, 6, 3, 5, 2],
    ] {
        let apps = MatrixChain::new(dims.clone());
        let formula = FnProblem::new(dims.len() - 1, |_| 0, |i, k, j| dims[i] * dims[k] * dims[j])
            .with_name("matrix-chain");
        assert_matches_formula(&apps, &formula);
    }
}

#[test]
fn obst_matches_optimal_bst() {
    // The CLRS instance plus asymmetric shapes that would expose a
    // prefix-sum off-by-one. `W(i,j)` charges keys `k_{i+1} .. k_{j-1}`
    // (`p[i..j-1]`, keys are 1-based) and dummies `d_i .. d_{j-1}`.
    for (p, q) in [
        (vec![15u64, 10, 5, 10, 20], vec![5u64, 10, 5, 5, 5, 10]),
        (vec![1], vec![0, 0]),
        (vec![3, 1, 4, 1, 5, 9, 2], vec![6, 5, 3, 5, 8, 9, 7, 9]),
    ] {
        let apps = OptimalBst::new(p.clone(), q.clone());
        let formula = FnProblem::new(
            p.len() + 1,
            |i| q[i],
            |i, _k, j| p[i..j - 1].iter().sum::<u64>() + q[i..j].iter().sum::<u64>(),
        )
        .with_name("optimal-bst");
        assert_matches_formula(&apps, &formula);
    }
}

#[test]
fn polygon_matches_weighted_polygon() {
    for w in [vec![1u64, 10, 1, 10], vec![3, 7, 4, 5, 2, 6], vec![2, 2, 2]] {
        let apps = WeightedPolygon::new(w.clone());
        let formula = FnProblem::new(w.len() - 1, |_| 0, |i, k, j| w[i] * w[k] * w[j])
            .with_name("triangulation-weighted");
        assert_matches_formula(&apps, &formula);
    }
}

#[test]
fn merge_matches_merge_order() {
    // `S(i,j) = len_i + .. + len_{j-1}`.
    for l in [vec![10u64, 20, 30], vec![5], vec![8, 1, 1, 1, 8, 2, 4]] {
        let apps = MergeOrder::new(l.clone());
        let formula = FnProblem::new(l.len(), |_| 0, |i, _k, j| l[i..j].iter().sum())
            .with_name("merge-order");
        assert_matches_formula(&apps, &formula);
    }
}

#[test]
fn every_family_solves_to_the_apps_value_through_the_wire() {
    // End to end: JSONL line -> read -> build -> solve agrees with
    // the apps type under every algorithm that applies.
    let lines = r#"{"family":"chain","values":[30,35,15,5,10,20,25]}
{"family":"obst","values":[15,10,5,10,20],"q":[5,10,5,5,5,10]}
{"family":"polygon","values":[1,10,1,10]}
{"family":"merge","values":[10,20,30]}
"#;
    let expect = [15125u64, 275, 20, 90];
    for (line, want) in lines.lines().zip(expect) {
        let base = SolveOptions::default();
        let Request::Job(Ok(resolved)) = read_request(line.as_bytes(), Algorithm::Sequential, base)
        else {
            panic!("{line}")
        };
        let problem = resolved.problem.build();
        let solution = Solver::new(resolved.algorithm).solve(&problem);
        assert_eq!(solution.value(), want, "{}", resolved.problem.family());
    }
}
