//! Serialization round-trips: traces, metrics and timelines are exported
//! by the experiment harnesses as JSON; the structures must survive the
//! trip intact.

use sublinear_dp::apps::generators;
use sublinear_dp::core::pram_exec::model_sublinear;
use sublinear_dp::pram::Timeline;
use sublinear_dp::prelude::*;

#[test]
fn solve_trace_roundtrips_through_json() {
    let p = generators::random_chain(10, 50, 3);
    let sol = Solver::new(Algorithm::Sublinear)
        .options(
            SolveOptions::default()
                .exec(ExecBackend::Sequential)
                .termination(Termination::Fixpoint)
                .record_trace(true),
        )
        .solve(&p);
    let json = serde_json::to_string(&sol.trace).expect("serialize");
    let back: sublinear_dp::core::trace::SolveTrace =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.n, sol.trace.n);
    assert_eq!(back.iterations, sol.trace.iterations);
    assert_eq!(back.total_candidates, sol.trace.total_candidates);
    assert_eq!(back.per_iteration.len(), sol.trace.per_iteration.len());
    assert_eq!(back.stop, sol.trace.stop);
    let (a1, s1, p1) = sol.trace.work_by_op();
    let (a2, s2, p2) = back.work_by_op();
    assert_eq!((a1, s1, p1), (a2, s2, p2));
}

#[test]
fn pram_machine_roundtrips_through_json() {
    let pram = model_sublinear(8);
    let json = serde_json::to_string(&pram).expect("serialize");
    let back: sublinear_dp::pram::Pram = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.metrics().work, pram.metrics().work);
    assert_eq!(back.metrics().depth, pram.metrics().depth);
    assert_eq!(back.phases().len(), pram.phases().len());
    // Brent times computed from the deserialized layers agree.
    for procs in [1u64, 7, 512] {
        assert_eq!(back.brent_time(procs), pram.brent_time(procs));
    }
}

#[test]
fn timeline_roundtrips_through_json() {
    let tl = Timeline::schedule(&model_sublinear(8), 64);
    let json = serde_json::to_string(&tl).expect("serialize");
    let back: Timeline = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.makespan, tl.makespan);
    assert_eq!(back.total_work, tl.total_work);
    assert_eq!(back.phases.len(), tl.phases.len());
    assert!((back.utilisation() - tl.utilisation()).abs() < 1e-12);
}

#[test]
fn game_stats_roundtrip_through_json() {
    use sublinear_dp::pebble::game::{GameStats, PebbleGame, SquareRule};
    use sublinear_dp::pebble::gen;
    let tree = gen::zigzag(64);
    let stats = PebbleGame::new(&tree, SquareRule::Modified).play();
    let json = serde_json::to_string(&stats).expect("serialize");
    let back: GameStats = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.moves, stats.moves);
    assert_eq!(back.n_leaves, stats.n_leaves);
    assert_eq!(back.per_move.len(), stats.per_move.len());
}
