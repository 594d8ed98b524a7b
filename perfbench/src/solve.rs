//! `solve-paper` and `solve-wavefront`: a closed loop of `Solver::solve`
//! calls (one outstanding; the solver itself uses the pool), and the
//! traced replay that re-drives each instance through the layers.

use std::time::{Duration, Instant};

use pardp_core::exec::ExecBackend;
use pardp_core::ops::{
    a_activate_banded_tracked, a_activate_dense_tracked, a_pebble_banded_scheduled,
    a_pebble_dense_scheduled, a_square_banded_scheduled, a_square_dense_scheduled,
    a_square_rytter_with, OpStats, SquareStrategy,
};
use pardp_core::problem::DpProblem;
use pardp_core::reduced::default_band;
use pardp_core::rytter::rytter_schedule;
use pardp_core::solver::{Algorithm, Solution, SolveOptions, Solver};
use pardp_core::spec::{table_hash, SpecProblem};
use pardp_core::tables::{BandedPw, DensePw, WTable};
use pardp_core::trace::IterationRecord;
use pardp_core::weight::Weight;

use crate::gen::{self, SolveWorkload};
use crate::tracer::Tracer;
use crate::util::{digest, median, ms, nproc, peak_rss_mb, tail_latency, Chunks};
use crate::{Metrics, Report};

/// What every solve of one instance must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    digest: u64,
    candidates: u64,
    iterations: u64,
}

fn fingerprint(sol: &Solution<u64>) -> Fingerprint {
    Fingerprint {
        digest: digest(&sol.w),
        candidates: sol.stats.candidates,
        iterations: sol.trace.iterations,
    }
}

fn workload(name: &str, seed: u64, rounds: Option<usize>, seconds: f64) -> SolveWorkload {
    match name {
        "solve-paper" => gen::paper(seed, rounds, seconds),
        _ => gen::wavefront(seed, rounds, seconds),
    }
}

struct Prepared {
    wl: SolveWorkload,
    problems: Vec<SpecProblem>,
    expect: Vec<Fingerprint>,
}

/// Set-up: generate the inputs, build every problem, and solve each once
/// (pool spawn, page faults) with library defaults.
fn prepare(name: &str, seed: u64, seconds: f64) -> Prepared {
    let wl = workload(name, seed, None, seconds);
    let problems: Vec<SpecProblem> = wl.cases.iter().map(|c| c.spec.build()).collect();
    let expect = wl
        .cases
        .iter()
        .zip(&problems)
        .map(|(c, p)| fingerprint(&Solver::new(c.algo).solve(p)))
        .collect();
    Prepared {
        wl,
        problems,
        expect,
    }
}

/// Cold set-up only, for the set-up time and memory medians: (time,
/// peak RSS in MiB).
pub fn setup_only(name: &str, seed: u64, seconds: f64) -> (Duration, f64) {
    let t = Instant::now();
    let prep = prepare(name, seed, seconds);
    let d = t.elapsed();
    std::hint::black_box(prep.expect.len());
    (d, peak_rss_mb())
}

/// The untraced closed loop.
pub fn run(name: &str, seed: u64, seconds: f64, report: &mut Report) {
    let t = Instant::now();
    let prep = prepare(name, seed, seconds);
    let setup = t.elapsed();
    let setup_rss = peak_rss_mb();

    let ops = &prep.wl.ops;
    let mut lat = Vec::with_capacity(ops.len());
    let mut got = Vec::with_capacity(ops.len());
    let mut chunks = Chunks::start(ops.len());
    for (k, &c) in ops.iter().enumerate() {
        let solver = Solver::new(prep.wl.cases[c].algo);
        let t = Instant::now();
        let sol = solver.solve(&prep.problems[c]);
        lat.push(ms(t.elapsed()));
        got.push(fingerprint(&sol));
        chunks.tick(k + 1);
    }
    let (rate, cpu_per_job, window) = chunks.summary();
    let window_rss = peak_rss_mb();
    report.note("chunk_jobs_per_s", &chunks.rates());

    // Correctness, outside the window: the sequential oracle's table for
    // every instance, and every solve identical to the set-up solve.
    let oracle: Vec<u64> = prep
        .problems
        .iter()
        .map(|p| digest(&Solver::new(Algorithm::Sequential).solve(p).w))
        .collect();
    for (k, (&c, fp)) in ops.iter().zip(&got).enumerate() {
        if fp.digest != oracle[c] {
            report.fail(format!("op {k}: table differs from the sequential oracle"));
        } else if *fp != prep.expect[c] {
            report.fail(format!(
                "op {k}: candidates/iterations drifted from the set-up solve"
            ));
        }
    }
    report.attempted = ops.len();

    let n = ops.len();
    let (tail, parts, label) = tail_latency(&lat);
    let m = &mut report.metrics;
    m.push("setup_s", setup.as_secs_f64(), "s", 1);
    m.push("jobs_per_s", rate, "1/s", n);
    m.push("latency_p50_ms", median(&lat), "ms", n);
    m.push("latency_tail_ms", tail, "ms", n);
    m.push("cpu_ms_per_job", cpu_per_job, "ms", n);
    m.push("peak_rss_mb", setup_rss, "MB", 1);
    report.note(
        "tail_percentile",
        &format!("{label} in each of {parts} parts"),
    );
    report.detail.push("window_s", window.as_secs_f64(), "s", n);
    report.detail.push(
        "window_jobs_per_s",
        n as f64 / window.as_secs_f64(),
        "1/s",
        n,
    );
    report
        .detail
        .push("window_peak_rss_mb", window_rss, "MB", 1);
    let mut classes: Vec<&str> = prep.wl.cases.iter().map(|c| c.class.as_str()).collect();
    classes.dedup();
    for class in classes {
        let v: Vec<f64> = ops
            .iter()
            .zip(&lat)
            .filter(|(&c, _)| prep.wl.cases[c].class == class)
            .map(|(_, &l)| l)
            .collect();
        report
            .detail
            .push(&format!("class.{class}.p50_ms"), median(&v), "ms", v.len());
    }
    let cands: u64 = got.iter().map(|f| f.candidates).sum();
    report.count("candidates", cands);
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// Busy time and work of the (activate, square, pebble) calls.
#[derive(Default)]
struct OpTotals {
    ns: [u64; 3],
    stats: [OpStats; 3],
}

impl OpTotals {
    fn add(&mut self, op: usize, ns: u64, s: OpStats) {
        self.ns[op] += ns;
        self.stats[op] = self.stats[op].merge(s);
    }
}

struct Replayed {
    records: Vec<IterationRecord>,
    w: WTable<u64>,
    pw_bytes: u64,
}

const EXEC: ExecBackend = ExecBackend::Parallel;
const SQUARE: SquareStrategy = SquareStrategy::Auto;

fn init_w(p: &SpecProblem) -> WTable<u64> {
    let n = p.n();
    let mut w = WTable::new(n);
    for i in 0..n {
        w.set(i, i + 1, p.init(i));
    }
    w
}

fn record(iteration: u64, st: [OpStats; 3], w: &WTable<u64>) -> IterationRecord {
    IterationRecord {
        iteration,
        activate: st[0].into(),
        square: st[1].into(),
        pebble: st[2].into(),
        root_finite: w.root().is_finite_cost(),
    }
}

/// `mask[a] = !(dirty rows nested in a)`: the rows a scheduled op may
/// copy forward.
fn clean_rows(idx: &pardp_core::tables::PairIndexer, mask: &mut [bool]) {
    idx.propagate_nested(mask);
    for m in mask.iter_mut() {
        *m = !*m;
    }
}

/// The §2 solver with library defaults (fixed schedule, dirty-row
/// scheduling), one span per op call.
fn replay_sublinear(p: &SpecProblem, tr: &mut Tracer, tot: &mut OpTotals) -> Replayed {
    let n = p.n();
    let a = tr.begin("tables.alloc");
    let mut w = init_w(p);
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();
    tr.end(a);
    let dim = pw.dim();
    let mut square_rows = vec![true; dim];
    let mut w_pairs = vec![true; dim];
    let mut skip = vec![false; dim];
    let mut pebble_skip = vec![false; dim];
    let mut records = Vec::new();
    for iter in 1..=pardp_core::schedule_bound(n) {
        let s = tr.begin("ops.activate");
        let (act, act_rows) = a_activate_dense_tracked(p, &w, &mut pw, &EXEC);
        tot.add(0, tr.end(s), act);
        let sq_skip = (iter > 1).then(|| {
            for a in 0..dim {
                skip[a] = act_rows[a] || square_rows[a];
            }
            clean_rows(pw.indexer(), &mut skip);
            skip.as_slice()
        });
        let s = tr.begin("ops.square");
        let (sq, rows) = a_square_dense_scheduled(&pw, &mut pw_next, SQUARE, sq_skip, &EXEC);
        tot.add(1, tr.end(s), sq);
        square_rows = rows;
        std::mem::swap(&mut pw, &mut pw_next);
        let pb_skip = (iter > 1).then(|| {
            for a in 0..dim {
                pebble_skip[a] = act_rows[a] || square_rows[a] || w_pairs[a];
            }
            clean_rows(pw.indexer(), &mut pebble_skip);
            pebble_skip.as_slice()
        });
        let s = tr.begin("ops.pebble");
        let (pb, pairs) = a_pebble_dense_scheduled(&pw, &w, &mut w_next, pb_skip, &EXEC);
        tot.add(2, tr.end(s), pb);
        w_pairs = pairs;
        std::mem::swap(&mut w, &mut w_next);
        records.push(record(iter, [act, sq, pb], &w));
    }
    let pw_bytes = 2 * (dim * dim * 8) as u64;
    let a = tr.begin("tables.alloc");
    drop((pw, pw_next, w_next));
    tr.end(a);
    Replayed {
        records,
        w,
        pw_bytes,
    }
}

/// The §5 solver with library defaults (banded tables, windowed pebble,
/// persistent pebble dirty bits).
fn replay_reduced(p: &SpecProblem, tr: &mut Tracer, tot: &mut OpTotals) -> Replayed {
    let n = p.n();
    let band = default_band(n);
    let a = tr.begin("tables.alloc");
    let mut w = init_w(p);
    let mut pw = BandedPw::new(n, band);
    let mut pw_next = BandedPw::new(n, band);
    let mut w_next = w.clone();
    tr.end(a);
    let idx = pw.indexer().clone();
    let pairs: Vec<(usize, usize)> = idx.pairs().collect();
    let dim = idx.len();
    let mut square_rows = vec![true; dim];
    let mut w_pairs = vec![true; dim];
    let mut pebble_dirty = vec![true; dim];
    let mut skip = vec![false; dim];
    let mut pebble_skip = vec![false; dim];
    let mut records = Vec::new();
    for iter in 1..=pardp_core::schedule_bound(n) {
        let s = tr.begin("ops.activate");
        let (act, act_rows) = a_activate_banded_tracked(p, &w, &mut pw, &EXEC);
        tot.add(0, tr.end(s), act);
        let sq_skip = (iter > 1).then(|| {
            for a in 0..dim {
                skip[a] = act_rows[a] || square_rows[a];
            }
            clean_rows(&idx, &mut skip);
            skip.as_slice()
        });
        let s = tr.begin("ops.square");
        let (sq, rows) = a_square_banded_scheduled(&pw, &mut pw_next, SQUARE, sq_skip, &EXEC);
        tot.add(1, tr.end(s), sq);
        square_rows = rows;
        std::mem::swap(&mut pw, &mut pw_next);
        let l = iter.div_ceil(2) as usize;
        let (lo, hi) = ((l - 1) * (l - 1), l * l);
        if iter > 1 {
            for a in 0..dim {
                pebble_skip[a] = act_rows[a] || square_rows[a] || w_pairs[a];
            }
            idx.propagate_nested(&mut pebble_skip);
            for (dirty, fresh) in pebble_dirty.iter_mut().zip(&pebble_skip) {
                *dirty |= fresh;
            }
        }
        for (s, dirty) in pebble_skip.iter_mut().zip(&pebble_dirty) {
            *s = !dirty;
        }
        let s = tr.begin("ops.pebble");
        let (pb, changed) = a_pebble_banded_scheduled(
            p,
            &pw,
            &w,
            &mut w_next,
            Some((lo, hi)),
            Some(pebble_skip.as_slice()),
            &EXEC,
        );
        tot.add(2, tr.end(s), pb);
        std::mem::swap(&mut w, &mut w_next);
        for (a, &(i, j)) in pairs.iter().enumerate() {
            if j - i > lo && j - i <= hi && !pebble_skip[a] {
                pebble_dirty[a] = false;
            }
        }
        w_pairs = changed;
        records.push(record(iter, [act, sq, pb], &w));
    }
    let pw_bytes = 2 * (pw.stored_cells() * 8) as u64;
    let a = tr.begin("tables.alloc");
    drop((pw, pw_next, w_next));
    tr.end(a);
    Replayed {
        records,
        w,
        pw_bytes,
    }
}

/// Rytter's solver with library defaults (full-composition square,
/// fixpoint stop).
fn replay_rytter(p: &SpecProblem, tr: &mut Tracer, tot: &mut OpTotals) -> Replayed {
    let n = p.n();
    let a = tr.begin("tables.alloc");
    let mut w = init_w(p);
    let mut pw = DensePw::new(n);
    let mut pw_next = DensePw::new(n);
    let mut w_next = w.clone();
    tr.end(a);
    let mut records = Vec::new();
    for iter in 1..=rytter_schedule(n) {
        let s = tr.begin("ops.activate");
        let (act, _) = a_activate_dense_tracked(p, &w, &mut pw, &EXEC);
        tot.add(0, tr.end(s), act);
        let s = tr.begin("ops.square");
        let sq = a_square_rytter_with(&pw, &mut pw_next, SQUARE, &EXEC);
        tot.add(1, tr.end(s), sq);
        std::mem::swap(&mut pw, &mut pw_next);
        let s = tr.begin("ops.pebble");
        let (pb, _) = a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &EXEC);
        tot.add(2, tr.end(s), pb);
        std::mem::swap(&mut w, &mut w_next);
        records.push(record(iter, [act, sq, pb], &w));
        if !act.changed && !sq.changed && !pb.changed {
            break;
        }
    }
    let pw_bytes = 2 * (pw.dim() * pw.dim() * 8) as u64;
    let a = tr.begin("tables.alloc");
    drop((pw, pw_next, w_next));
    tr.end(a);
    Replayed {
        records,
        w,
        pw_bytes,
    }
}

/// Per-algorithm accumulators of the paper replay.
#[derive(Default)]
struct AlgoTotals {
    solves: usize,
    iterations: u64,
    square_ns: u64,
    square_cands: u64,
    t_par: u64,
    t_seq: u64,
}

const PAPER_ALGOS: [Algorithm; 3] = [Algorithm::Sublinear, Algorithm::Reduced, Algorithm::Rytter];

/// Name of the root span of one replayed solve.
fn solve_span(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::Sublinear => "sublinear.solve",
        Algorithm::Reduced => "reduced.solve",
        _ => "rytter.solve",
    }
}

/// Traced replay of `solve-paper`: every instance of `rounds` whole
/// rounds through the façade (with per-iteration records), the op-level
/// replay (which must reproduce those records and the table hash), and a
/// Sequential-backend solve.
pub fn trace_paper(seed: u64, rounds: usize, tr: &mut Tracer, report: &mut Report) {
    let wl = gen::paper(seed, Some(rounds), 0.0);
    let problems: Vec<SpecProblem> = wl.cases.iter().map(|c| c.spec.build()).collect();
    let oracle: Vec<String> = problems
        .iter()
        .map(|p| table_hash(&Solver::new(Algorithm::Sequential).solve(p).w))
        .collect();
    let mut ops = OpTotals::default();
    let mut per: Vec<AlgoTotals> = (0..3).map(|_| AlgoTotals::default()).collect();
    let (mut pw_bytes, mut work, mut span) = (0u64, 0u64, 0u64);
    let (mut replay_ns, mut par_ns) = (0u64, 0u64);
    let alloc_before = tr.self_total("tables.alloc").0;
    tr.section();
    for (k, &c) in wl.ops.iter().enumerate() {
        let algo = wl.cases[c].algo;
        let p = &problems[c];
        let a = PAPER_ALGOS
            .iter()
            .position(|&x| x == algo)
            .expect("paper algorithm");
        tr.set_op(k);

        let t = Instant::now();
        let reference = Solver::new(algo)
            .options(SolveOptions::default().record_trace(true))
            .solve(p);
        let t_par = t.elapsed().as_nanos() as u64;

        let before = ops.stats[1];
        let before_ns = ops.ns[1];
        let root = tr.begin(solve_span(algo));
        let replayed = match algo {
            Algorithm::Sublinear => replay_sublinear(p, tr, &mut ops),
            Algorithm::Reduced => replay_reduced(p, tr, &mut ops),
            _ => replay_rytter(p, tr, &mut ops),
        };
        replay_ns += tr.end(root);

        let t = Instant::now();
        let seq = Solver::new(algo)
            .options(SolveOptions::default().exec(ExecBackend::Sequential))
            .solve(p);
        let t_seq = t.elapsed().as_nanos() as u64;

        if replayed.records != reference.trace.per_iteration {
            report.fail(format!(
                "op {k}: replayed OpRecords differ from Solver::solve"
            ));
        }
        let hash = table_hash(&replayed.w);
        if hash != table_hash(&reference.w) || hash != oracle[c] || table_hash(&seq.w) != oracle[c]
        {
            report.fail(format!(
                "op {k}: table_hash differs between replay, façade and oracle"
            ));
        }
        let ws = reference.work_span();
        work += ws.work;
        span += ws.span;
        par_ns += t_par;
        pw_bytes += replayed.pw_bytes;
        let at = &mut per[a];
        at.solves += 1;
        at.iterations += reference.trace.iterations;
        at.square_ns += ops.ns[1] - before_ns;
        at.square_cands += ops.stats[1].candidates - before.candidates;
        at.t_par += t_par;
        at.t_seq += t_seq;
    }
    let alloc_ns = tr.self_total("tables.alloc").0 - alloc_before;
    report.attempted += wl.ops.len();

    let solves = wl.ops.len() as f64;
    let n = wl.ops.len();
    let m = &mut report.metrics;
    for (i, name) in ["ops.activate_ms", "ops.square_ms", "ops.pebble_ms"]
        .iter()
        .enumerate()
    {
        m.push(name, ops.ns[i] as f64 / solves / 1e6, "ms", n);
    }
    for (a, name) in [
        "ops.square_dense_ns_per_cand",
        "ops.square_banded_ns_per_cand",
        "ops.square_rytter_ns_per_cand",
    ]
    .iter()
    .enumerate()
    {
        let at = &per[a];
        m.push(
            name,
            at.square_ns as f64 / at.square_cands as f64,
            "ns",
            at.solves,
        );
    }
    let all = ops.stats[0].merge(ops.stats[1]).merge(ops.stats[2]);
    m.push("ops.candidates", all.candidates as f64, "count", n);
    m.push(
        "ops.useful_ratio",
        all.writes as f64 / all.candidates as f64,
        "ratio",
        n,
    );
    m.push("tables.alloc_ms", alloc_ns as f64 / solves / 1e6, "ms", n);
    m.push(
        "tables.pw_mb",
        pw_bytes as f64 / solves / (1 << 20) as f64,
        "MB",
        n,
    );
    for (a, algo) in PAPER_ALGOS.iter().enumerate() {
        let (own, count) = tr.self_total(solve_span(*algo));
        let at = &per[a];
        m.push(
            &format!("{}.driver_ms", algo.name()),
            own as f64 / count as f64 / 1e6,
            "ms",
            count,
        );
        m.push(
            &format!("{}.iterations", algo.name()),
            at.iterations as f64,
            "count",
            at.solves,
        );
        m.push(
            &format!("exec.efficiency_{}", algo.name()),
            at.t_seq as f64 / (nproc() as f64 * at.t_par as f64),
            "ratio",
            at.solves,
        );
    }
    m.push("solver.work", work as f64, "count", n);
    m.push("solver.span", span as f64, "count", n);
    m.push("solver.ns_per_work", par_ns as f64 / work as f64, "ns", n);
    m.push(
        "solver.replay_overhead_pct",
        (replay_ns as f64 - par_ns as f64) / par_ns as f64 * 100.0,
        "%",
        n,
    );
}

/// Composition candidates of a full wavefront solve: C(n+1, 3).
fn wavefront_candidates(n: usize) -> u64 {
    let n = n as u64;
    (n + 1) * n * (n - 1) / 6
}

/// Traced replay of `solve-wavefront`: every instance of `rounds` whole
/// rounds on the Parallel and the Sequential backend.
pub fn trace_wavefront(seed: u64, rounds: usize, tr: &mut Tracer, report: &mut Report) {
    let wl = gen::wavefront(seed, Some(rounds), 0.0);
    let problems: Vec<SpecProblem> = wl.cases.iter().map(|c| c.spec.build()).collect();
    let oracle: Vec<String> = problems
        .iter()
        .map(|p| table_hash(&Solver::new(Algorithm::Sequential).solve(p).w))
        .collect();
    let (mut par_ns, mut seq_ns, mut cands) = (0u64, 0u64, 0u64);
    let mut by_class: Vec<(String, Vec<f64>)> = Vec::new();
    tr.section();
    for (k, &c) in wl.ops.iter().enumerate() {
        let p = &problems[c];
        tr.set_op(k);
        let s = tr.begin("wavefront.solve");
        let par = Solver::new(Algorithm::Wavefront).solve(p);
        let t_par = tr.end(s);
        let s = tr.begin("wavefront.solve_seq");
        let seq = Solver::new(Algorithm::Wavefront)
            .options(SolveOptions::default().exec(ExecBackend::Sequential))
            .solve(p);
        let t_seq = tr.end(s);
        if table_hash(&par.w) != oracle[c] || table_hash(&seq.w) != oracle[c] {
            report.fail(format!(
                "op {k}: wavefront table_hash differs from the oracle"
            ));
        }
        par_ns += t_par;
        seq_ns += t_seq;
        cands += wavefront_candidates(p.n());
        let class = &wl.cases[c].class;
        match by_class.iter_mut().find(|(name, _)| name == class) {
            Some((_, v)) => v.push(t_par as f64 / 1e6),
            None => by_class.push((class.clone(), vec![t_par as f64 / 1e6])),
        }
    }
    report.attempted += wl.ops.len();
    let m = &mut report.metrics;
    by_class.sort_by_key(|(name, _)| name[1..].parse::<usize>().unwrap_or(0));
    for (class, v) in &by_class {
        m.push(
            &format!("wavefront.solve_ms_{class}"),
            median(v),
            "ms",
            v.len(),
        );
    }
    let n = wl.ops.len();
    m.push(
        "wavefront.ns_per_cand",
        seq_ns as f64 / cands as f64,
        "ns",
        n,
    );
    m.push(
        "exec.wavefront_par_over_seq",
        par_ns as f64 / seq_ns as f64,
        "ratio",
        n,
    );
}

/// Cost of one empty two-block parallel region on the shared pool:
/// median over 2000 regions, in microseconds.
pub fn region_probe(m: &mut Metrics) {
    const REGIONS: usize = 2000;
    let mut v = Vec::with_capacity(REGIONS);
    for _ in 0..REGIONS {
        let t = Instant::now();
        let out = ExecBackend::Parallel.map_collect(2, |i| i);
        v.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(out);
    }
    m.push("exec.region_us", median(&v), "us", REGIONS);
}
