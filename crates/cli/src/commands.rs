//! Command execution: build the instance, run the chosen solver, format
//! the results.

use pardp_apps::{MatrixChain, MergeOrder, OptimalBst, WeightedPolygon};
use pardp_core::pram_exec::{model_reduced, model_rytter, model_sublinear};
use pardp_core::prelude::*;
use pardp_core::reconstruct::reconstruct_root;
use pardp_core::rytter::rytter_schedule;
use pardp_pebble::game::{moves_to_pebble, SquareRule};
use pardp_pebble::{gen, lemma_move_bound};
use pardp_pram::Timeline;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::args::{usage, CacheAction, CliError, Parsed, Problem, Shape};

/// Open the persistent store behind `--cache <dir>` (creating the
/// directory on first use).
fn open_cache(dir: &str) -> Result<FileStore, CliError> {
    FileStore::open(dir).map_err(|e| CliError(e.0))
}

/// Build the telemetry pipeline behind `--log <path|->`: `-` streams
/// JSONL events to stderr (stdout stays protocol-only), anything else
/// truncates and writes a file. No flag, no telemetry, no overhead.
fn open_telemetry(
    log: Option<&str>,
    level: LogLevel,
) -> Result<Option<std::sync::Arc<Telemetry>>, CliError> {
    let Some(dest) = log else { return Ok(None) };
    let writer: Box<dyn std::io::Write + Send> = if dest == "-" {
        Box::new(std::io::stderr())
    } else {
        Box::new(
            std::fs::File::create(dest)
                .map_err(|e| CliError(format!("cannot open log file '{dest}': {e}")))?,
        )
    };
    let sink = std::sync::Arc::new(WriterSink::new(writer));
    Ok(Some(std::sync::Arc::new(Telemetry::with_level(
        sink, level,
    ))))
}

/// Execute a parsed command, producing the output text.
pub fn execute(parsed: &Parsed) -> Result<String, CliError> {
    match parsed {
        Parsed::Help => Ok(usage()),
        Parsed::Batch {
            path,
            algo,
            backend,
            large_cells,
            cache,
            log,
            log_level,
        } => run_batch(
            path,
            *algo,
            *backend,
            *large_cells,
            cache.as_deref(),
            log.as_deref(),
            *log_level,
        ),
        Parsed::Serve {
            addr,
            pipe,
            algo,
            backend,
            large_cells,
            queue,
            cache,
            job_timeout,
            idle_timeout,
            log,
            log_level,
        } => run_serve(
            addr.as_deref(),
            *pipe,
            *algo,
            *backend,
            *large_cells,
            *queue,
            cache.as_deref(),
            *job_timeout,
            *idle_timeout,
            log.as_deref(),
            *log_level,
        ),
        Parsed::Cache { action, dir } => run_cache(*action, dir),
        Parsed::Bound { n } => {
            let b = pardp_core::schedule_bound(*n);
            Ok(format!(
                "n = {n}: schedule bound 2*ceil(sqrt(n)) = {b} iterations \
                 (Lemma 3.3 move bound = {})\n",
                lemma_move_bound(*n)
            ))
        }
        Parsed::Game {
            shape,
            n,
            jump,
            seed,
        } => run_game(*shape, *n, *jump, *seed),
        Parsed::Model { n, processors } => run_model(*n, *processors),
        Parsed::Solve {
            problem,
            algo,
            backend,
            tile,
            witness,
            trace,
            cache,
        } => run_solve(
            problem,
            *algo,
            *backend,
            *tile,
            *witness,
            *trace,
            cache.as_deref(),
        ),
    }
}

/// `pardp cache stat|clear <dir>`: inspect or empty a persistent store.
fn run_cache(action: CacheAction, dir: &str) -> Result<String, CliError> {
    let store = FileStore::open_existing(dir).map_err(|e| CliError(e.0))?;
    match action {
        CacheAction::Stat => {
            let st = store.stat().map_err(|e| CliError(e.0))?;
            let mut s = format!(
                "store {dir}: {} record(s), {} bytes on disk, {} invalid byte(s) skipped\n",
                st.records, st.file_bytes, st.skipped_bytes
            );
            for (family, count) in &st.families {
                s.push_str(&format!("  family {family}: {count}\n"));
            }
            for (algo, count) in &st.algorithms {
                s.push_str(&format!("  algo {algo}: {count}\n"));
            }
            Ok(s)
        }
        CacheAction::Clear => {
            let removed = store.wipe().map_err(|e| CliError(e.0))?;
            Ok(format!("store {dir}: cleared {removed} record(s)\n",))
        }
    }
}

fn run_game(shape: Shape, n: usize, jump: bool, seed: u64) -> Result<String, CliError> {
    let tree = match shape {
        Shape::Zigzag => gen::zigzag(n),
        Shape::Complete => gen::complete(n),
        Shape::Skewed => gen::skewed(n, gen::Side::Left),
        Shape::Random => gen::random_split(n, &mut SmallRng::seed_from_u64(seed)),
    };
    let rule = if jump {
        SquareRule::PointerJump
    } else {
        SquareRule::Modified
    };
    let moves = moves_to_pebble(&tree, rule);
    Ok(format!(
        "shape = {shape:?}, n = {n}, rule = {rule:?}\n\
         root pebbled after {moves} moves (bound {})\n",
        lemma_move_bound(n)
    ))
}

fn run_model(n: usize, processors: u64) -> Result<String, CliError> {
    let mut out = String::new();
    out.push_str(&format!(
        "PRAM cost models at n = {n} (full worst-case schedules)\n\n"
    ));
    for (name, pram) in [
        ("sublinear (§2)", model_sublinear(n)),
        ("reduced   (§5)", model_reduced(n)),
        ("rytter    [8]", model_rytter(n, rytter_schedule(n))),
    ] {
        let m = pram.metrics().clone();
        let p = if processors == 0 {
            pram.processors_for_depth(1.0)
        } else {
            processors
        };
        let t = pram.brent_time(p);
        out.push_str(&format!(
            "{name}: work {:>14}  depth {:>8}  time on p={p}: {t}  PT = {}\n",
            m.work,
            m.depth,
            p as u128 * t as u128
        ));
        if n <= 24 {
            let tl = Timeline::schedule(&pram, p);
            out.push_str(&tl.render_gantt(60));
        }
        out.push('\n');
    }
    Ok(out)
}

fn run_solve(
    problem: &Problem,
    algo: Algorithm,
    backend: Option<ExecBackend>,
    tile: Option<SquareStrategy>,
    witness: bool,
    trace: bool,
    cache_dir: Option<&str>,
) -> Result<String, CliError> {
    let cache = cache_dir.map(open_cache).transpose()?;
    let cache = cache.as_ref();
    match problem {
        Problem::Chain { dims } => {
            let mc = MatrixChain::new(dims.clone());
            let (out, w) = solve_with(&mc, problem, algo, backend, tile, trace, cache)?;
            let mut s = format!("matrix chain, n = {}\n{out}", mc.n_matrices());
            if witness {
                let tree = reconstruct_root(&mc, &w)
                    .map_err(|e| CliError(format!("reconstruction failed: {e}")))?;
                s.push_str(&format!("optimal order: {}\n", mc.render(&tree)));
            }
            Ok(s)
        }
        Problem::Obst { p, q } => {
            let bst = OptimalBst::new(p.clone(), q.clone());
            let (out, w) = solve_with(&bst, problem, algo, backend, tile, trace, cache)?;
            let mut s = format!("optimal BST, {} keys\n{out}", bst.n_keys());
            if witness {
                let tree = reconstruct_root(&bst, &w)
                    .map_err(|e| CliError(format!("reconstruction failed: {e}")))?;
                let b = OptimalBst::to_bst(&tree);
                s.push_str(&format!(
                    "in-order keys: {:?}\n",
                    OptimalBst::inorder_keys(&b)
                ));
                if let pardp_apps::obst::BstNode::Key { key, .. } = b {
                    s.push_str(&format!("root key: k{key}\n"));
                }
            }
            Ok(s)
        }
        Problem::Polygon { weights } => {
            let poly = WeightedPolygon::new(weights.clone());
            let (out, w) = solve_with(&poly, problem, algo, backend, tile, trace, cache)?;
            let mut s = format!(
                "polygon triangulation, {} vertices\n{out}",
                poly.n_vertices()
            );
            if witness {
                let tree = reconstruct_root(&poly, &w)
                    .map_err(|e| CliError(format!("reconstruction failed: {e}")))?;
                let diags = pardp_apps::triangulation::diagonals_of(&tree, poly.n_vertices() - 1);
                s.push_str(&format!("diagonals: {diags:?}\n"));
            }
            Ok(s)
        }
        Problem::Merge { lengths } => {
            let m = MergeOrder::new(lengths.clone());
            let (out, w) = solve_with(&m, problem, algo, backend, tile, trace, cache)?;
            let mut s = format!("merge order, {} runs\n{out}", m.lengths().len());
            if witness {
                let tree = reconstruct_root(&m, &w)
                    .map_err(|e| CliError(format!("reconstruction failed: {e}")))?;
                s.push_str(&format!("schedule: {:?}\n", m.schedule(&tree)));
            }
            Ok(s)
        }
    }
}

/// `pardp batch`: read JSONL job specs, solve them concurrently through
/// [`BatchSolver`], emit one JSONL result line per job plus a summary.
///
/// The wire types (job schema, result records, the summary trailer) are
/// `pardp_core::spec` — shared verbatim with `pardp serve`, so the two
/// front ends accept the same jobs and answer with identical records.
fn run_batch(
    path: &str,
    default_algo: Algorithm,
    backend: Option<ExecBackend>,
    large_cells: Option<usize>,
    cache_dir: Option<&str>,
    log: Option<&str>,
    log_level: LogLevel,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read job file '{path}': {e}")))?;
    let specs = parse_jobs(&text).map_err(|e| CliError(format!("{path} {}", e.0)))?;

    let base = SolveOptions::default().termination(Termination::Fixpoint);
    let mut resolved: Vec<ResolvedJob> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        resolved.push(
            spec.resolve(default_algo, base)
                .map_err(|e| CliError(format!("{path} job {i}: {}", e.0)))?,
        );
    }

    let telemetry = open_telemetry(log, log_level)?;
    let mut solver = BatchSolver::new().telemetry(telemetry.clone());
    if let Some(b) = backend {
        solver = solver.exec(b);
    }
    if let Some(c) = large_cells {
        solver = solver.large_job_cells(c);
    }
    // The cache-aware path is the only path: without --cache it still
    // dedups identical jobs within the batch (`cache: None` below).
    let store = cache_dir.map(open_cache).transpose()?;
    let report = solver.solve_resolved(&resolved, store.as_ref().map(|s| s as &dyn SolutionCache));

    // Records and failed jobs interleave back into submission order: a
    // failed job (a panic, a failed Knuth guard) answers with its error
    // line in its slot — the line `pardp serve` answers with — instead
    // of taking the whole run down.
    let mut lines: Vec<(usize, String)> = report.errors.iter().map(|e| (e.job, e.line())).collect();
    lines.extend(report.results.iter().map(|r| {
        let record = JobRecord::new(resolved[r.job].problem.family(), r);
        (
            r.job,
            serde_json::to_string(&record).expect("records serialize"),
        )
    }));
    lines.sort_by_key(|(job, _)| *job);
    let mut out: String = lines.into_iter().map(|(_, line)| line + "\n").collect();
    // Cache traffic gets its own line (only when a store is attached),
    // so the trailing summary stays wire-identical to a cache-less run.
    if store.is_some() {
        let c = report.cache;
        out.push_str(&format!(
            "{{\"cache_hits\":{},\"cache_misses\":{},\"warm_starts\":{},\"deduped\":{},\"errors\":{}}}\n",
            c.hits, c.misses, c.warm_starts, c.deduped, c.errors
        ));
    }
    let summary = report.summary(solver.backend());
    out.push_str(&serde_json::to_string(&summary).map_err(|e| CliError(e.to_string()))?);
    out.push('\n');
    // A batch run ends its event stream the same way a serve drain does:
    // one machine-readable `summary` line, then a flush so file sinks
    // land on disk before the process exits.
    if let Some(tel) = &telemetry {
        let c = report.cache;
        let errors_of = |kind| report.errors.iter().filter(|e| e.kind == kind).count() as u64;
        tel.emit(EventKind::Summary {
            accepted: resolved.len() as u64,
            rejected: 0,
            invalid: 0,
            completed: report.results.len() as u64,
            completed_small: report.results.iter().filter(|r| !r.large).count() as u64,
            completed_large: report.results.iter().filter(|r| r.large).count() as u64,
            panics: errors_of(ErrorKind::Internal),
            timeouts: errors_of(ErrorKind::Timeout),
            cache_hits: c.hits,
            cache_misses: c.misses,
            warm_starts: c.warm_starts,
            cache_errors: c.errors,
        });
        tel.flush();
    }
    Ok(out)
}

/// The SIGINT flag of `pardp serve --addr`: installed once, set from the
/// signal handler, polled by the serve loop so ctrl-C becomes a graceful
/// drain instead of a hard kill.
#[cfg(unix)]
fn install_sigint() -> &'static std::sync::atomic::AtomicBool {
    use std::sync::atomic::{AtomicBool, Ordering};
    static FLAG: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigint(_signum: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal(2)` is declared with the libc prototype above and
    // called with a valid `extern "C"` handler. The handler itself is
    // async-signal-safe: it performs a single lock-free atomic store
    // into a `'static` flag (no allocation, no locking, no panicking).
    unsafe {
        signal(SIGINT, on_sigint);
    }
    &FLAG
}

#[cfg(not(unix))]
fn install_sigint() -> &'static std::sync::atomic::AtomicBool {
    static FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    &FLAG
}

/// `pardp serve`: run the persistent daemon (`pardp_core::serve`) in
/// pipe mode (one stdin/stdout session) or as a TCP listener until
/// shutdown, then report the drained counters on stderr.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    addr: Option<&str>,
    pipe: bool,
    algo: Algorithm,
    backend: Option<ExecBackend>,
    large_cells: Option<usize>,
    queue: Option<usize>,
    cache_dir: Option<&str>,
    job_timeout: Option<std::time::Duration>,
    idle_timeout: Option<std::time::Duration>,
    log: Option<&str>,
    log_level: LogLevel,
) -> Result<String, CliError> {
    let mut config = pardp_core::serve::ServeConfig {
        default_algo: algo,
        job_timeout,
        idle_timeout,
        telemetry: open_telemetry(log, log_level)?,
        ..Default::default()
    };
    if let Some(b) = backend {
        config.exec = b;
    }
    if let Some(c) = large_cells {
        config.large_job_cells = c;
    }
    if let Some(q) = queue {
        config.queue_capacity = q;
    }
    let cached = cache_dir.is_some();
    if let Some(dir) = cache_dir {
        config.cache = Some(std::sync::Arc::new(open_cache(dir)?));
    }

    let stats = if pipe {
        // Responses go to stdout (they are the protocol); everything
        // human-facing goes to stderr.
        let stdin = std::io::stdin();
        pardp_core::serve::serve_pipe(stdin.lock(), std::io::stdout(), &config)
    } else {
        let addr = addr.expect("the parser requires --addr without --pipe");
        let server = pardp_core::serve::Server::bind(addr, &config)
            .map_err(|e| CliError(format!("cannot bind '{addr}': {e}")))?;
        eprintln!(
            "pardp serve: listening on {} ({} worker{}, queue {})",
            server.addr(),
            server.stats().workers,
            if server.stats().workers == 1 { "" } else { "s" },
            config.queue_capacity,
        );
        let sigint = install_sigint();
        while !server.shutdown_requested() && !sigint.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        server.join()
    };
    let cache_note = if cached {
        format!(
            " cache (hits {} / misses {} / warm starts {} / errors {})",
            stats.cache_hits, stats.cache_misses, stats.warm_starts, stats.cache_errors,
        )
    } else {
        String::new()
    };
    eprintln!(
        "pardp serve: drained — accepted {} rejected {} invalid {} \
         completed {} (small {} / large {}) panics {} timeouts {}{cache_note}",
        stats.accepted,
        stats.rejected,
        stats.invalid,
        stats.completed,
        stats.completed_small,
        stats.completed_large,
        stats.panics,
        stats.timeouts,
    );
    Ok(String::new())
}

/// Append the per-iteration op counters of a solve trace (used by the
/// paper algorithms' `--trace` output).
fn push_iteration_trace(s: &mut String, trace: &pardp_core::trace::SolveTrace) {
    for r in &trace.per_iteration {
        s.push_str(&format!(
            "  iter {:>3}: activate {:>8} square {:>10} pebble {:>8} changed={}\n",
            r.iteration,
            r.activate.candidates,
            r.square.candidates,
            r.pebble.candidates,
            r.pebble.changed,
        ));
    }
}

/// Run the chosen solver through the [`Solver`] façade; return the
/// formatted summary and the table (for witness extraction).
///
/// There is deliberately no per-algorithm dispatch here: the options
/// builder carries every knob, the registry's capability flags decide
/// what to print, and the façade returns the same [`Solution`] shape for
/// the whole spectrum.
fn solve_with<P: DpProblem<u64> + ?Sized>(
    p: &P,
    spec: &ProblemSpec,
    algo: Algorithm,
    backend: Option<ExecBackend>,
    tile: Option<SquareStrategy>,
    trace: bool,
    cache: Option<&FileStore>,
) -> Result<(String, WTable<u64>), CliError> {
    let n = p.n();
    let mut opts = SolveOptions::default()
        .termination(Termination::Fixpoint)
        .record_trace(trace);
    if let Some(b) = backend {
        opts = opts.exec(b);
    }
    if let Some(t) = tile {
        opts = opts.square(t);
    }
    // With a cache attached the solve runs key → lookup → solve-miss →
    // insert on the canonical spec instance; cached tables are
    // bit-identical to this cold path, so the witness and the Knuth
    // guard below see the same `w` either way.
    let (sol, outcome) = match cache {
        Some(c) => cached_solve(c, spec, algo, &opts),
        None => (
            Solver::new(algo).options(opts).solve(p),
            CacheOutcome::Bypass,
        ),
    };

    // The Knuth-Yao speedup is only valid on quadrangle-inequality
    // instances; the CLI guards the user by cross-checking the full DP.
    verify_knuth(p, &sol).map_err(|e| CliError(e.0))?;

    let mut s = format!(
        "algorithm: {} — {} [{}]\n",
        algo.name(),
        algo.description(),
        algo.complexity()
    );
    if algo.is_parallel() {
        s.push_str(&format!("backend: {}\n", opts.exec));
    }
    if cache.is_some() {
        s.push_str(&match outcome {
            CacheOutcome::Hit => "cache: hit\n".to_string(),
            CacheOutcome::Warm { seed_n } => {
                format!("cache: warm start from cached n = {seed_n} prefix\n")
            }
            CacheOutcome::Miss => "cache: miss (stored for next time)\n".to_string(),
            CacheOutcome::Bypass => "cache: bypassed\n".to_string(),
        });
    }
    s.push_str(&format!("c(0,{n}) = {}\n", sol.value()));
    if algo.is_iterative() {
        s.push_str(&format!(
            "iterations: {}/{} ({:?})\n",
            sol.trace.iterations, sol.trace.schedule_bound, sol.trace.stop
        ));
    }
    if trace {
        push_iteration_trace(&mut s, &sol.trace);
    }
    Ok((s, sol.w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(s: &str) -> Result<String, CliError> {
        let argv: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
        execute(&parse(&argv)?)
    }

    #[test]
    fn solve_chain_all_algorithms_agree() {
        for algo in ["seq", "wavefront", "sublinear", "reduced", "rytter"] {
            let out = run_line(&format!("solve --algo {algo} chain 30,35,15,5,10,20,25"))
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.contains("= 15125"), "{algo}: {out}");
        }
    }

    #[test]
    fn backend_selection_yields_identical_values() {
        for algo in ["wavefront", "sublinear", "reduced", "rytter"] {
            for backend in ["seq", "parallel", "threads:4"] {
                let out = run_line(&format!(
                    "solve --algo {algo} --backend {backend} chain 30,35,15,5,10,20,25"
                ))
                .unwrap_or_else(|e| panic!("{algo}/{backend}: {e}"));
                assert!(out.contains("= 15125"), "{algo}/{backend}: {out}");
            }
        }
    }

    #[test]
    fn tile_selection_yields_identical_values() {
        for algo in ["sublinear", "reduced", "rytter"] {
            let run = |tile: &str| {
                run_line(&format!(
                    "solve --algo {algo} --tile {tile} --trace chain 30,35,15,5,10,20,25"
                ))
                .unwrap_or_else(|e| panic!("{algo}/{tile}: {e}"))
            };
            let naive = run("naive");
            assert!(naive.contains("= 15125"), "{algo}: {naive}");
            // Same value, iterations and per-op counts, line for line.
            assert_eq!(run("auto"), naive, "{algo}");
            let err = run_line(&format!("solve --algo {algo} --tile 4 chain 2,3,4")).unwrap_err();
            assert!(err.0.contains("auto | naive"), "{algo}: {err}");
        }
    }

    #[test]
    fn witness_renders_parenthesization() {
        let out = run_line("solve --witness chain 30,35,15,5,10,20,25").unwrap();
        assert!(out.contains("((A1 (A2 A3)) ((A4 A5) A6))"), "{out}");
    }

    #[test]
    fn solve_obst_clrs() {
        let out = run_line("solve --witness obst --p 15,10,5,10,20 --q 5,10,5,5,5,10").unwrap();
        assert!(out.contains("= 275"), "{out}");
        assert!(out.contains("root key: k2"), "{out}");
    }

    #[test]
    fn solve_polygon_and_merge() {
        let out = run_line("solve --witness polygon 1,10,1,10").unwrap();
        assert!(out.contains("= 20"), "{out}");
        assert!(out.contains("(0, 2)"), "{out}");
        let out = run_line("solve --witness merge 10,20,30").unwrap();
        assert!(out.contains("= 90"), "{out}");
        assert!(out.contains("(0, 2)"), "{out}");
    }

    #[test]
    fn knuth_guard_rejects_non_qi_instances() {
        // Matrix chains are not QI in general; the guard may or may not
        // trip for a specific instance, but on this crafted one Knuth's
        // restriction provably misses the optimum.
        let r = run_line("solve --algo knuth chain 10,1,10,1,10,1,10");
        match r {
            Ok(out) => assert!(out.contains("c(0,")),
            Err(e) => assert!(e.0.contains("quadrangle")),
        }
    }

    #[test]
    fn solve_and_batch_reject_payloads_whose_costs_can_overflow() {
        // 2^32 cubed wraps u64 to 0: rejected instead of solved wrong.
        for algo in ["sublinear", "seq"] {
            let err = run_line(&format!(
                "solve --algo {algo} chain 4294967296,4294967296,4294967296"
            ))
            .unwrap_err();
            assert!(err.0.contains("chain values too large"), "{err}");
            assert!(err.0.contains("4611686018427387903"), "{err}");
        }
        // Batch: the largest accepted chain solves, the smallest rejected
        // one fails the run naming its job, like every bad job spec.
        let path = temp_jobs(
            "overflow",
            "{\"family\":\"chain\",\"values\":[1048575,1048575,1048575]}\n",
        );
        let out = run_line(&format!("batch {path}")).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("\"value\":1152918206075109375"), "{out}");
        let path = temp_jobs(
            "overflow-bad",
            "{\"family\":\"chain\",\"values\":[1048575,1048575,1048575]}\n\
             {\"family\":\"chain\",\"values\":[1048575,1048575,1048576]}\n",
        );
        let err = run_line(&format!("batch {path}")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.0.contains("job 1"), "{err}");
        assert!(err.0.contains("4611686018427387903"), "{err}");
    }

    #[test]
    fn game_and_bound_commands() {
        let out = run_line("game zigzag 256").unwrap();
        assert!(out.contains("root pebbled"), "{out}");
        let out = run_line("game zigzag 256 --rule jump").unwrap();
        assert!(out.contains("PointerJump"), "{out}");
        let out = run_line("bound 100").unwrap();
        assert!(out.contains("= 20"), "{out}");
    }

    #[test]
    fn model_command_prints_all_algorithms() {
        let out = run_line("model 16").unwrap();
        assert!(out.contains("sublinear"));
        assert!(out.contains("reduced"));
        assert!(out.contains("rytter"));
        assert!(out.contains("PT ="));
        // n <= 24 includes Gantt charts.
        assert!(out.contains('#'));
    }

    #[test]
    fn trace_flag_prints_iterations() {
        let out = run_line("solve --trace chain 3,5,7,2,8").unwrap();
        assert!(out.contains("iter   1"), "{out}");
    }

    #[test]
    fn help_contains_usage() {
        let out = run_line("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("pardp batch"));
        assert!(out.contains("--large-cells"));
    }

    /// Write a temp JSONL job file and return its path.
    fn temp_jobs(name: &str, lines: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "pardp-cli-test-{name}-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, lines).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn batch_solves_jsonl_jobs_and_emits_jsonl() {
        let path = temp_jobs(
            "mixed",
            "{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
             \n\
             {\"family\":\"obst\",\"values\":[15,10,5,10,20],\"q\":[5,10,5,5,5,10],\"algo\":\"reduced\"}\n\
             {\"family\":\"merge\",\"values\":[10,20,30],\"algo\":\"wavefront\"}\n",
        );
        let out = run_line(&format!("batch {path}")).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "3 jobs + summary: {out}");
        assert!(lines[0].contains("\"value\":15125"), "{out}");
        assert!(lines[0].contains("\"algo\":\"sublinear\""), "{out}");
        assert!(lines[1].contains("\"value\":275"), "{out}");
        assert!(lines[1].contains("\"algo\":\"reduced\""), "{out}");
        assert!(lines[2].contains("\"value\":90"), "{out}");
        assert!(lines[3].contains("\"jobs\":3"), "{out}");
        assert!(lines[3].contains("\"throughput\""), "{out}");
    }

    #[test]
    fn batch_matches_solve_per_job_on_every_backend() {
        let path = temp_jobs(
            "backends",
            "{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
             {\"family\":\"polygon\",\"values\":[1,10,1,10]}\n",
        );
        for backend in ["seq", "parallel", "threads:2"] {
            let out = run_line(&format!("batch --backend {backend} {path}")).unwrap();
            assert!(out.contains("\"value\":15125"), "{backend}: {out}");
            assert!(out.contains("\"value\":20"), "{backend}: {out}");
        }
        // Forcing the parallel per-problem regime changes no value.
        let out = run_line(&format!("batch --large-cells 0 {path}")).unwrap();
        assert!(out.contains("\"regime\":\"large\""), "{out}");
        assert!(out.contains("\"value\":15125"), "{out}");
        assert!(out.contains("\"large_jobs\":2"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_errors_name_the_offending_line() {
        let path = temp_jobs("bad-json", "{\"family\":\"chain\"\n");
        let err = run_line(&format!("batch {path}")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.0.contains("line 1"), "{err}");

        let path = temp_jobs("bad-family", "{\"family\":\"knapsack\",\"values\":[1,2]}\n");
        let err = run_line(&format!("batch {path}")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.0.contains("unknown problem family"), "{err}");

        let path = temp_jobs("bad-obst", "{\"family\":\"obst\",\"values\":[1,2]}\n");
        let err = run_line(&format!("batch {path}")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.0.contains("\"q\" field"), "{err}");

        let path = temp_jobs(
            "bad-obst-arity",
            "{\"family\":\"obst\",\"values\":[1,2],\"q\":[1,2]}\n",
        );
        let err = run_line(&format!("batch {path}")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.0.contains("q needs exactly 3"), "{err}");

        let err = run_line("batch /nonexistent/jobs.jsonl").unwrap_err();
        assert!(err.0.contains("cannot read job file"), "{err}");

        // A bad per-job algo override names the file and job, like every
        // other per-job error.
        let path = temp_jobs(
            "bad-algo",
            "{\"family\":\"chain\",\"values\":[2,3,4]}\n\
             {\"family\":\"chain\",\"values\":[2,3,4],\"algo\":\"reducedd\"}\n",
        );
        let err = run_line(&format!("batch {path}")).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.0.contains("job 1"), "{err}");
        assert!(err.0.contains("unknown algorithm"), "{err}");
    }

    /// A fresh temp store directory path (removed before use).
    fn temp_store(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("pardp-cli-cache-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn solve_cache_misses_then_hits_bit_identically() {
        let dir = temp_store("solve");
        let cmd = format!("solve --cache {dir} chain 30,35,15,5,10,20,25");
        let cold = run_line(&cmd).unwrap();
        assert!(cold.contains("cache: miss"), "{cold}");
        assert!(cold.contains("= 15125"), "{cold}");
        let hit = run_line(&cmd).unwrap();
        assert!(hit.contains("cache: hit"), "{hit}");
        // Apart from the outcome line the two outputs agree exactly.
        assert_eq!(
            cold.replace("cache: miss (stored for next time)", "X"),
            hit.replace("cache: hit", "X"),
        );
        // The witness reconstructs identically from a cached table.
        let wit = run_line(&format!("{cmd} --witness")).unwrap();
        assert!(wit.contains("((A1 (A2 A3)) ((A4 A5) A6))"), "{wit}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_cache_warm_starts_a_longer_chain() {
        let dir = temp_store("warm");
        let cold = run_line(&format!("solve --cache {dir} chain 30,35,15,5,10")).unwrap();
        assert!(cold.contains("cache: miss"), "{cold}");
        let warm = run_line(&format!("solve --cache {dir} chain 30,35,15,5,10,20,25")).unwrap();
        assert!(
            warm.contains("cache: warm start from cached n = 4"),
            "{warm}"
        );
        assert!(warm.contains("= 15125"), "{warm}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_cache_reports_traffic_and_dedups() {
        let dir = temp_store("batch");
        let path = temp_jobs(
            "cached",
            "{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
             {\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
             {\"family\":\"merge\",\"values\":[10,20,30]}\n",
        );
        let out = run_line(&format!("batch --cache {dir} {path}")).unwrap();
        assert!(
            out.contains(
                "\"cache_hits\":0,\"cache_misses\":2,\"warm_starts\":0,\"deduped\":1,\"errors\":0"
            ),
            "{out}"
        );
        assert_eq!(out.lines().count(), 5, "3 jobs + cache + summary: {out}");
        let again = run_line(&format!("batch --cache {dir} {path}")).unwrap();
        assert!(again.contains("\"cache_hits\":2"), "{again}");
        // Job records and the summary are bit-identical apart from wall
        // time — compare the deterministic value/hash fields.
        for (a, b) in out.lines().zip(again.lines()).take(3) {
            let va = a.split("\"wall_seconds\"").next().unwrap();
            let vb = b.split("\"wall_seconds\"").next().unwrap();
            assert_eq!(va, vb);
        }
        // Without --cache the same duplicate batch still works (dedup is
        // internal; output shape is the cache-less 4 lines).
        let plain = run_line(&format!("batch {path}")).unwrap();
        assert_eq!(plain.lines().count(), 4, "{plain}");
        assert!(!plain.contains("cache_hits"), "{plain}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_stat_and_clear_round_trip() {
        let dir = temp_store("statclear");
        // Populate with two records via solve.
        run_line(&format!("solve --cache {dir} chain 2,3,4")).unwrap();
        run_line(&format!("solve --cache {dir} merge 10,20,30")).unwrap();
        let out = run_line(&format!("cache stat {dir}")).unwrap();
        assert!(out.contains("2 record(s)"), "{out}");
        assert!(out.contains("family chain: 1"), "{out}");
        assert!(out.contains("family merge: 1"), "{out}");
        assert!(out.contains("algo sublinear: 2"), "{out}");
        let out = run_line(&format!("cache clear {dir}")).unwrap();
        assert!(out.contains("cleared 2 record(s)"), "{out}");
        let out = run_line(&format!("cache stat {dir}")).unwrap();
        assert!(out.contains("0 record(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_commands_reject_missing_and_report_corrupt_stores() {
        // Missing directory: pointed error, no directory created.
        let dir = temp_store("missing");
        for action in ["stat", "clear"] {
            let err = run_line(&format!("cache {action} {dir}")).unwrap_err();
            assert!(err.0.contains("does not exist"), "{action}: {err}");
        }
        assert!(!std::path::Path::new(&dir).exists());

        // A corrupt store file: stat opens it, counts zero retrievable
        // records, and reports every byte as skipped.
        let dir = temp_store("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            std::path::Path::new(&dir).join("store.dat"),
            b"this is not a pardp store",
        )
        .unwrap();
        let out = run_line(&format!("cache stat {dir}")).unwrap();
        assert!(out.contains("0 record(s)"), "{out}");
        assert!(out.contains("25 invalid byte(s) skipped"), "{out}");
        // Solving over the corrupt store overwrites the junk tail.
        run_line(&format!("solve --cache {dir} chain 2,3,4")).unwrap();
        let out = run_line(&format!("cache stat {dir}")).unwrap();
        assert!(out.contains("1 record(s)"), "{out}");
        assert!(out.contains("0 invalid byte(s) skipped"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_guards_knuth_like_the_solve_path() {
        // This crafted chain provably lacks the quadrangle inequality
        // (same instance as the solve-path guard test). Batch answers it
        // with the per-job `invalid` line `pardp serve` answers with, in
        // its slot, and the run carries on.
        let path = temp_jobs(
            "knuth",
            "{\"family\":\"chain\",\"values\":[10,1,10,1,10,1,10],\"algo\":\"knuth\"}\n\
             {\"family\":\"chain\",\"values\":[2,3,4]}\n",
        );
        let out = run_line(&format!("batch {path}")).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "2 jobs + summary: {out}");
        assert_eq!(
            lines[0],
            error_record(
                0,
                ErrorKind::Invalid,
                "knuth speedup disagrees with the full DP — instance lacks the \
                 quadrangle inequality; use the sequential algorithm (algo seq)"
            )
        );
        assert!(lines[1].contains("\"job\":1"), "{out}");
        assert!(lines[1].contains("\"value\":24"), "{out}");
        assert!(lines[2].contains("\"jobs\":1"), "{out}");
    }
}
