//! `serve-mixed`: an in-process daemon (`Server::bind` with a 256-entry
//! `MemoryCache`) driven over one loopback connection that keeps two
//! requests outstanding, and the traced in-process replay of the same
//! request list in daemon order.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Deserialize;

use pardp_core::serve::{ServeConfig, ServeStats, Server};
use pardp_core::solver::{Algorithm, Solver};
use pardp_core::spec::{table_hash, JobRecord, JobSpec};
use pardp_core::store::{CacheOutcome, CachedSolution, MemoryCache, SolutionCache};

use crate::gen::{self, Class, Outcome, ServeList, CACHE_CAPACITY};
use crate::tracer::Tracer;
use crate::util::{median, nproc, peak_rss_mb, tail_latency, Chunks};
use crate::Report;

/// Requests kept in flight on the connection.
const DEPTH: usize = 2;

fn config() -> ServeConfig {
    let cache: Arc<dyn SolutionCache> = Arc::new(MemoryCache::new(CACHE_CAPACITY));
    ServeConfig {
        cache: Some(cache),
        ..ServeConfig::default()
    }
}

/// One answered request, as the client saw it.
#[derive(Clone, Copy, Default)]
struct Resp {
    latency_ns: u64,
    /// Digest and length of the response with its one nondeterministic
    /// field (`wall_seconds`, always last) cut off.
    digest: u64,
    bytes: usize,
    error: bool,
}

/// The deterministic part of a response line: everything before
/// `,"wall_seconds"`.
fn stable_part(line: &str) -> &str {
    let line = line.trim_end();
    line.rfind(",\"wall_seconds\":")
        .map_or(line, |at| &line[..at])
}

fn text_digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Closed loop over `reqs`: send the next request as soon as a response
/// arrives, `DEPTH` outstanding. Latency runs from writing a request to
/// reading its response line.
fn drive(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    reqs: &[gen::Request],
    mut chunks: Option<&mut Chunks>,
) -> std::io::Result<Vec<Resp>> {
    let mut sent = vec![Instant::now(); reqs.len()];
    let mut out = vec![Resp::default(); reqs.len()];
    let mut buf = Vec::with_capacity(4096);
    let mut send = |k: usize, stream: &mut TcpStream, sent: &mut [Instant]| {
        buf.clear();
        buf.extend_from_slice(reqs[k].line.as_bytes());
        buf.push(b'\n');
        sent[k] = Instant::now();
        stream.write_all(&buf)
    };
    let mut next = 0;
    while next < reqs.len().min(DEPTH) {
        send(next, stream, &mut sent)?;
        next += 1;
    }
    let mut line = String::new();
    for (i, resp) in out.iter_mut().enumerate() {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let latency_ns = sent[i].elapsed().as_nanos() as u64;
        if next < reqs.len() {
            send(next, stream, &mut sent)?;
            next += 1;
        }
        let stable = stable_part(&line);
        *resp = Resp {
            latency_ns,
            digest: text_digest(stable),
            bytes: stable.len(),
            error: line.contains("\"error\""),
        };
        if let Some(c) = chunks.as_deref_mut() {
            c.tick(i + 1);
        }
    }
    Ok(out)
}

/// A daemon with one connected client, after the warm-up pass.
struct Session {
    server: Server,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    warm: Vec<Resp>,
}

/// Set-up: bind, connect, and run the warm-up requests (hot-set fill,
/// cache fill, pool spawn). Readiness is the first reply; nothing polls.
fn open(list: &ServeList) -> std::io::Result<Session> {
    let server = Server::bind("127.0.0.1:0", &config())?;
    let mut stream = TcpStream::connect(server.addr())?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let warm = drive(&mut stream, &mut reader, &list.reqs[..list.warmup], None)?;
    Ok(Session {
        server,
        stream,
        reader,
        warm,
    })
}

/// Hang up and drain the daemon; returns its final counters.
fn close(s: Session) -> ServeStats {
    drop(s.reader);
    drop(s.stream);
    s.server.join()
}

fn measured_count(seconds: f64) -> usize {
    ((seconds * gen::SERVE_RATE).round() as usize).max(100)
}

/// Cold set-up only, for the set-up time and memory medians: (time,
/// peak RSS in MiB).
pub fn setup_only(seed: u64, seconds: f64) -> std::io::Result<(Duration, f64)> {
    let t = Instant::now();
    let list = gen::serve(seed, measured_count(seconds));
    let session = open(&list)?;
    let d = t.elapsed();
    let rss = peak_rss_mb();
    close(session);
    Ok((d, rss))
}

/// The façade's answer to request `i`: `Solver::solve`, or for a planned
/// warm start the staged cached solve over a cache holding only its
/// base. Its table is checked against the sequential oracle.
fn facade(
    list: &ServeList,
    i: usize,
    base: Option<&CachedSolution>,
) -> Result<pardp_core::solver::Solution<u64>, String> {
    let r = &list.reqs[i];
    let algo = if r.large {
        Algorithm::Wavefront
    } else {
        Algorithm::Sublinear
    };
    let solver = Solver::new(algo).options(gen::serve_options(r.large, nproc()));
    let problem = r.spec.build();
    let solution = match base {
        None => solver.solve(&problem),
        Some(seed) => {
            let cache = MemoryCache::new(1);
            let prefix = r.spec.prefix(seed.n).expect("the base is a strict prefix");
            let key = pardp_core::store::ProblemKey(gen::serve_key(&prefix, algo));
            cache.put(key, seed.clone());
            let (s, outcome) = solver.with_cache(&cache).solve(&r.spec);
            if outcome != (CacheOutcome::Warm { seed_n: seed.n }) {
                return Err(format!("request {i}: planned warm start got {outcome:?}"));
            }
            s
        }
    };
    let oracle = Solver::new(Algorithm::Sequential).solve(&problem);
    if table_hash(&oracle.w) != table_hash(&solution.w) {
        return Err(format!(
            "request {i}: table differs from the sequential oracle"
        ));
    }
    Ok(solution)
}

/// The expected deterministic response (digest, length) of every
/// request: the façade's `JobRecord::deterministic()` under the daemon's
/// job index. Cold solves first, then warm starts from their bases; each
/// phase on all cores.
fn expected(list: &ServeList, report: &mut Report) -> Vec<(u64, usize)> {
    let reqs = &list.reqs;
    let mut is_base = vec![false; reqs.len()];
    for r in reqs {
        if let Outcome::Warm { base } = r.outcome {
            is_base[base] = true;
        }
    }
    type Solved = (usize, Result<JobRecord, String>, Option<CachedSolution>);
    let phase = |warm: bool, bases: &[Option<CachedSolution>]| -> Vec<Solved> {
        let workers = nproc();
        let is_base = &is_base;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|t| {
                    scope.spawn(move || {
                        let mut out: Vec<Solved> = Vec::new();
                        for i in (t..reqs.len()).step_by(workers) {
                            let base = match (reqs[i].outcome, warm) {
                                (Outcome::Miss, false) => None,
                                (Outcome::Warm { base }, true) => bases[base].as_ref(),
                                _ => continue,
                            };
                            if warm && base.is_none() {
                                out.push((i, Err(format!("request {i}: base unsolved")), None));
                                continue;
                            }
                            let family = reqs[i].spec.family();
                            match facade(list, i, base) {
                                Ok(sol) => {
                                    let rec =
                                        JobRecord::of_solution(i, family, &sol, reqs[i].large);
                                    let cached = is_base[i]
                                        .then(|| CachedSolution::of_solution(family, &sol));
                                    out.push((i, Ok(rec.deterministic()), cached));
                                }
                                Err(e) => out.push((i, Err(e), None)),
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        })
    };
    let mut records: Vec<Option<JobRecord>> = vec![None; reqs.len()];
    let mut bases: Vec<Option<CachedSolution>> = vec![None; reqs.len()];
    for warm in [false, true] {
        for (i, rec, cached) in phase(warm, &bases) {
            match rec {
                Ok(r) => records[i] = Some(r),
                Err(e) => report.fail(e),
            }
            if cached.is_some() {
                bases[i] = cached;
            }
        }
    }
    (0..reqs.len())
        .map(|i| {
            let source = match reqs[i].outcome {
                Outcome::Hit { first } => first,
                _ => i,
            };
            records[source].as_ref().map_or((0, 0), |r| {
                let mut r = r.clone();
                r.job = i;
                let text = serde_json::to_string(&r).expect("records serialize");
                let stable = stable_part(&text);
                (text_digest(stable), stable.len())
            })
        })
        .collect()
}

/// Planned cache traffic of the whole list: (hits, warm starts, misses,
/// large jobs).
fn planned(list: &ServeList) -> (u64, u64, u64, u64) {
    let mut c = (0, 0, 0, 0);
    for r in &list.reqs {
        match r.outcome {
            Outcome::Hit { .. } => c.0 += 1,
            Outcome::Warm { .. } => {
                c.1 += 1;
                c.2 += 1;
            }
            Outcome::Miss => c.2 += 1,
        }
        c.3 += r.large as u64;
    }
    c
}

/// Result of one untraced session.
struct Untraced {
    chunk_rates: String,
    setup: Duration,
    setup_rss: f64,
    /// Median over chunks of requests per second and CPU ms per request,
    /// and the whole window.
    rate: f64,
    cpu_per_job: f64,
    window: Duration,
    window_rss: f64,
    resp: Vec<Resp>,
    stats: ServeStats,
}

fn untraced(list: &ServeList, t_start: Instant) -> std::io::Result<Untraced> {
    let mut s = open(list)?;
    let setup = t_start.elapsed();
    let setup_rss = peak_rss_mb();
    let reqs = &list.reqs[list.warmup..];
    let mut chunks = Chunks::start(reqs.len());
    let measured = drive(&mut s.stream, &mut s.reader, reqs, Some(&mut chunks))?;
    let (rate, cpu_per_job, window) = chunks.summary();
    let chunk_rates = chunks.rates();
    let window_rss = peak_rss_mb();
    let mut resp = std::mem::take(&mut s.warm);
    resp.extend(measured);
    let stats = close(s);
    Ok(Untraced {
        chunk_rates,
        setup,
        setup_rss,
        rate,
        cpu_per_job,
        window,
        window_rss,
        resp,
        stats,
    })
}

/// Check every response against the expected records and the daemon's
/// counters against the plan; a wrong response is a failed operation.
/// Returns the deterministic response bytes of the measured requests.
fn check(list: &ServeList, run: &Untraced, report: &mut Report) -> u64 {
    let expect = expected(list, report);
    for (i, (resp, &(digest, bytes))) in run.resp.iter().zip(&expect).enumerate() {
        if resp.error || resp.digest != digest || resp.bytes != bytes {
            report.fail(format!(
                "request {i}: response differs from the façade's record"
            ));
        }
    }
    let (hits, warm, misses, large) = planned(list);
    let st = &run.stats;
    let got = (
        st.cache_hits,
        st.warm_starts,
        st.cache_misses,
        st.completed_large,
    );
    if got != (hits, warm, misses, large) {
        report.drift(format!(
            "daemon counted (hits, warm, misses, large) = {got:?}, planned {:?}",
            (hits, warm, misses, large)
        ));
    }
    report.count("cache_hits", st.cache_hits);
    report.count("warm_starts", st.warm_starts);
    report.count("cache_misses", st.cache_misses);
    report.count("completed_large", st.completed_large);
    let bytes = expect[list.warmup..].iter().map(|e| e.1 as u64).sum();
    report.count("response_bytes", bytes);
    bytes
}

fn class_latencies(list: &ServeList, resp: &[Resp], class: Class) -> Vec<f64> {
    list.measured()
        .filter(|&i| list.reqs[i].class == class)
        .map(|i| resp[i].latency_ns as f64 / 1e6)
        .collect()
}

/// The untraced closed loop.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> std::io::Result<()> {
    let t = Instant::now();
    let list = gen::serve(seed, measured_count(seconds));
    let run = untraced(&list, t)?;
    check(&list, &run, report);
    let n = list.reqs.len() - list.warmup;
    // A failed request misses every latency limit.
    report.attempted = n;
    let lat: Vec<f64> = run.resp[list.warmup..]
        .iter()
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    let (tail, parts, label) = tail_latency(&lat);
    let m = &mut report.metrics;
    m.push("setup_s", run.setup.as_secs_f64(), "s", 1);
    m.push("jobs_per_s", run.rate, "1/s", n);
    m.push("latency_p50_ms", median(&lat), "ms", n);
    m.push("latency_tail_ms", tail, "ms", n);
    m.push("cpu_ms_per_job", run.cpu_per_job, "ms", n);
    m.push("peak_rss_mb", run.setup_rss, "MB", 1);
    report.note(
        "tail_percentile",
        &format!("{label} in each of {parts} parts"),
    );
    report.note("chunk_jobs_per_s", &run.chunk_rates);
    let d = &mut report.detail;
    d.push("window_s", run.window.as_secs_f64(), "s", n);
    d.push(
        "window_jobs_per_s",
        n as f64 / run.window.as_secs_f64(),
        "1/s",
        n,
    );
    d.push("window_peak_rss_mb", run.window_rss, "MB", 1);
    for class in Class::ALL {
        let v = class_latencies(&list, &run.resp, class);
        report.detail.push(
            &format!("class.{}.p50_ms", class.name()),
            median(&v),
            "ms",
            v.len(),
        );
    }
    Ok(())
}

/// Traced run: the untraced session (for the per-class latencies and the
/// daemon's counters), then the same list replayed in-process in daemon
/// order with one span per stage. The replay's records and cache
/// outcomes must equal the daemon's.
pub fn trace(
    seed: u64,
    measured: usize,
    tr: &mut Tracer,
    report: &mut Report,
) -> std::io::Result<()> {
    let list = gen::serve(seed, measured);
    let run = untraced(&list, Instant::now())?;
    let bytes = check(&list, &run, report);

    let cfg = ServeConfig::default();
    let cache = MemoryCache::new(CACHE_CAPACITY);
    tr.section();
    let first_span = tr.spans.len();
    let (mut hits, mut warm, mut misses) = (0u64, 0u64, 0u64);
    let mut replay_ms: Vec<(Class, f64)> = Vec::new();
    for (i, req) in list.reqs.iter().enumerate() {
        tr.set_op(i);
        let root = tr.begin("serve.request");
        let s = tr.begin("spec.parse");
        let resolved = serde_json::parse_value(&req.line)
            .map_err(|e| e.to_string())
            .and_then(|v| JobSpec::from_value(&v).map_err(|e| e.0))
            .and_then(|job| job.resolve(cfg.default_algo, cfg.options).map_err(|e| e.0));
        tr.end(s);
        let resolved = match resolved {
            Ok(r) => r,
            Err(e) => {
                tr.end(root);
                report.fail(format!(
                    "request {i}: replay could not parse its own line: {e}"
                ));
                continue;
            }
        };
        let s = tr.begin("spec.build");
        let problem = resolved.problem.build();
        tr.end(s);
        std::hint::black_box(&problem);
        let large = resolved.problem.cells() > cfg.large_job_cells;
        let opts = resolved.options.exec(if large {
            resolved.options.exec.capped(nproc())
        } else {
            pardp_core::exec::ExecBackend::Sequential
        });
        let solver = Solver::new(resolved.algorithm).options(opts);
        let cached = solver.with_cache(&cache);
        let spec = &resolved.problem;
        let s = tr.begin("store.key");
        let key = cached.key(spec).expect("default serve jobs are cacheable");
        tr.end(s);
        let s = tr.begin("store.lookup");
        let found = cached.lookup(spec, key);
        tr.end(s);
        let (solution, outcome) = match found {
            Some(sol) => (sol, CacheOutcome::Hit),
            None => {
                let s = tr.begin("store.solve_miss");
                let (sol, outcome) = cached.solve_miss(spec);
                tr.end(s);
                let s = tr.begin("store.insert");
                cached.insert(spec, key, &sol);
                tr.end(s);
                (sol, outcome)
            }
        };
        let s = tr.begin("spec.encode");
        let record = JobRecord::of_solution(i, spec.family(), &solution, large);
        let text = serde_json::to_string(&record).expect("records serialize");
        tr.end(s);
        let total = tr.end(root);
        let ok = match (req.outcome, outcome) {
            (Outcome::Hit { .. }, CacheOutcome::Hit) => {
                hits += 1;
                true
            }
            (Outcome::Warm { .. }, CacheOutcome::Warm { .. }) => {
                warm += 1;
                misses += 1;
                true
            }
            (Outcome::Miss, CacheOutcome::Miss) => {
                misses += 1;
                true
            }
            _ => false,
        };
        let stable = stable_part(&text);
        if !ok || text_digest(stable) != run.resp[i].digest {
            report.fail(format!(
                "request {i}: replay differs from the daemon's answer"
            ));
        }
        if i >= list.warmup {
            replay_ms.push((req.class, total as f64 / 1e6));
        }
    }
    let st = &run.stats;
    if (hits, warm, misses) != (st.cache_hits, st.warm_starts, st.cache_misses) {
        report.drift(format!(
            "replay counted (hits, warm, misses) = {:?}, the daemon {:?}",
            (hits, warm, misses),
            (st.cache_hits, st.warm_starts, st.cache_misses)
        ));
    }
    report.attempted += list.reqs.len() - list.warmup;

    // Per-stage means over the measured requests.
    let own = tr.self_ns();
    let stage = |name: &str| {
        let (mut sum, mut count) = (0u64, 0usize);
        for (s, t) in tr.spans[first_span..].iter().zip(&own[first_span..]) {
            if s.name == name && tr.op_of(s) >= list.warmup {
                sum += t;
                count += 1;
            }
        }
        (sum as f64 / count.max(1) as f64 / 1e3, count)
    };
    let n = list.reqs.len() - list.warmup;
    let m = &mut report.metrics;
    for name in [
        "spec.parse",
        "spec.build",
        "spec.encode",
        "store.key",
        "store.lookup",
        "store.solve_miss",
        "store.insert",
    ] {
        let (us, count) = stage(name);
        m.push(&format!("{name}_us"), us, "us", count);
    }
    m.push("spec.response_bytes", bytes as f64, "count", n);
    let hit_m = list
        .measured()
        .filter(|&i| matches!(list.reqs[i].outcome, Outcome::Hit { .. }))
        .count();
    let warm_m = list
        .measured()
        .filter(|&i| matches!(list.reqs[i].outcome, Outcome::Warm { .. }))
        .count();
    m.push("store.hit_ratio", hit_m as f64 / n as f64, "ratio", n);
    m.push("store.warm_ratio", warm_m as f64 / n as f64, "ratio", n);
    for class in Class::ALL {
        let v = class_latencies(&list, &run.resp, class);
        m.push(
            &format!("serve.{}_p50_ms", class.name()),
            median(&v),
            "ms",
            v.len(),
        );
    }
    let cold_client = median(&class_latencies(&list, &run.resp, Class::Cold));
    let cold_replay: Vec<f64> = replay_ms
        .iter()
        .filter(|(c, _)| *c == Class::Cold)
        .map(|&(_, t)| t)
        .collect();
    m.push(
        "serve.unexplained_ms",
        cold_client - median(&cold_replay),
        "ms",
        cold_replay.len(),
    );
    m.push(
        "serve.queue_high_watermark",
        run.stats.queue_high_watermark as f64,
        "count",
        n,
    );
    Ok(())
}
