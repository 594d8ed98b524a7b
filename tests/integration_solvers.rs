//! Cross-crate integration: every solver, every application family, the
//! §4 coupled verification and the audited CREW execution, end to end
//! through the public facade API.

use sublinear_dp::apps::generators;
use sublinear_dp::core::pram_exec::audited_sublinear_value;
use sublinear_dp::core::verify::verify_coupled;
use sublinear_dp::prelude::*;

fn solver_cross_check<P: DpProblem<u64> + ?Sized>(p: &P, label: &str) {
    let oracle = solve_sequential(p);
    for algo in Algorithm::ALL {
        if !algo.is_parallel() {
            continue; // the oracle itself / Knuth (QI-only)
        }
        let sol = Solver::new(algo).solve(p);
        assert!(sol.w.table_eq(&oracle), "{label}: {algo}");
    }
}

#[test]
fn all_solvers_agree_on_all_families() {
    for seed in 0..3u64 {
        solver_cross_check(&generators::random_chain(17, 80, seed), "chain");
        solver_cross_check(&generators::random_obst(14, 40, seed), "obst");
        solver_cross_check(&generators::random_polygon(16, 30, seed), "polygon");
    }
    solver_cross_check(&generators::zigzag_instance(25), "zigzag-forced");
    solver_cross_check(&generators::skewed_instance(25), "skewed-forced");
    solver_cross_check(&generators::balanced_instance(25), "balanced-forced");
}

#[test]
fn coupled_verification_on_every_family() {
    verify_coupled(&generators::random_chain(12, 50, 5)).unwrap();
    verify_coupled(&generators::random_obst(10, 25, 6)).unwrap();
    verify_coupled(&generators::random_polygon(12, 20, 7)).unwrap();
    verify_coupled(&generators::zigzag_instance(16)).unwrap();
}

#[test]
fn audited_crew_execution_is_clean() {
    let chain = generators::random_chain(10, 60, 11);
    let value = audited_sublinear_value(&chain).expect("CREW discipline violated");
    assert_eq!(value, solve_sequential(&chain).root());

    let obst = generators::random_obst(8, 30, 12);
    let value = audited_sublinear_value(&obst).expect("CREW discipline violated");
    assert_eq!(value, solve_sequential(&obst).root());
}

#[test]
fn facade_prelude_quickstart_compiles_and_runs() {
    let chain = MatrixChain::new(vec![30, 35, 15, 5, 10, 20, 25]);
    let solution = Solver::new(Algorithm::Sublinear).solve(&chain);
    assert_eq!(solution.value(), 15125);
    let (cost, order) = chain.optimal_order();
    assert_eq!(cost, 15125);
    assert_eq!(chain.render(&order), "((A1 (A2 A3)) ((A4 A5) A6))");
}

#[test]
fn float_polygon_through_all_solvers() {
    let poly = PointPolygon::regular(18);
    let oracle = solve_sequential(&poly);
    let opts = SolveOptions::default().termination(Termination::Fixpoint);
    for algo in [Algorithm::Sublinear, Algorithm::Reduced] {
        let sol: Solution<f64> = Solver::new(algo).options(opts).solve(&poly);
        assert!(sol.w.table_eq(&oracle), "{algo}");
    }
}

#[test]
fn termination_policies_never_return_wrong_values() {
    for seed in 0..5u64 {
        let p = generators::random_chain(30, 90, 100 + seed);
        let oracle = solve_sequential(&p).root();
        for term in [
            Termination::FixedSqrtN,
            Termination::Fixpoint,
            Termination::WStableTwice,
        ] {
            let sol = Solver::new(Algorithm::Sublinear)
                .options(SolveOptions::default().termination(term))
                .solve(&p);
            assert_eq!(sol.value(), oracle, "seed={seed} {term:?}");
            assert!(sol.trace.iterations <= sol.trace.schedule_bound);
        }
    }
}
