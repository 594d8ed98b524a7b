//! Lifecycle guarantees of the `pardp_core::serve` daemon: responses are
//! bit-identical to a sequential façade loop (and to `BatchSolver`),
//! shutdown drains every accepted job, overload rejects instead of
//! hanging, malformed lines never kill a connection, and concurrent TCP
//! clients each get exactly their own answers.

use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::TcpStream;

use pardp_core::prelude::*;
use pardp_core::serve::{serve_pipe, ServeConfig, Server};
use serde::Deserialize as _;

/// A mixed-family, mixed-algorithm job corpus (every line is also valid
/// `pardp batch` input).
const CORPUS: &str = r#"{"family":"chain","values":[30,35,15,5,10,20,25]}
{"family":"obst","values":[15,10,5,10,20],"q":[5,10,5,5,5,10],"algo":"reduced"}
{"family":"merge","values":[10,20,30],"algo":"wavefront"}
{"family":"polygon","values":[1,10,1,10],"algo":"seq"}
{"family":"chain","values":[3,5,7,2,8],"trace":true}
{"family":"chain","values":[2,3,4,5,6,7,8,9],"algo":"rytter"}
"#;

fn serve_lines(input: &str, config: &ServeConfig) -> (Vec<String>, ServeStats) {
    let mut out = Vec::new();
    let stats = serve_pipe(input.as_bytes(), &mut out, config);
    let text = String::from_utf8(out).unwrap();
    (text.lines().map(str::to_string).collect(), stats)
}

/// The jobs of a corpus of valid job lines, read as both front ends
/// read them.
fn resolved(input: &str, config: &ServeConfig) -> Vec<ResolvedJob> {
    input
        .lines()
        .map(
            |line| match read_request(line.as_bytes(), config.default_algo, config.options) {
                Request::Job(job) => job.unwrap(),
                other => panic!("{other:?}"),
            },
        )
        .collect()
}

/// The expected records for a job corpus: a plain sequential loop of
/// façade solves under the serve/batch defaults.
fn loop_records(input: &str, config: &ServeConfig) -> Vec<JobRecord> {
    resolved(input, config)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let problem = r.problem.build();
            let solution = Solver::new(r.algorithm).options(r.options).solve(&problem);
            let large = r.problem.cells() > config.large_job_cells;
            JobRecord::of_solution(i, r.problem.family(), &solution, large)
        })
        .collect()
}

fn record(line: &str) -> JobRecord {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("{e:?}: {line}"))
}

#[test]
fn pipe_responses_match_a_sequential_solve_loop_bit_for_bit() {
    let config = ServeConfig::default();
    let (lines, stats) = serve_lines(CORPUS, &config);
    let expected = loop_records(CORPUS, &config);
    assert_eq!(lines.len(), expected.len());
    assert_eq!(stats.completed, expected.len() as u64);
    for (line, expect) in lines.iter().zip(&expected) {
        // Everything but wall time must agree exactly: value, table
        // hash, iteration counts, op statistics, the full trace.
        assert_eq!(record(line).deterministic(), expect.deterministic());
    }
}

#[test]
fn pipe_responses_match_batch_solver_records() {
    let config = ServeConfig::default();
    let (lines, _) = serve_lines(CORPUS, &config);

    let resolved = resolved(CORPUS, &config);
    let problems: Vec<SpecProblem> = resolved.iter().map(|r| r.problem.build()).collect();
    let jobs: Vec<BatchJob<'_, u64>> = problems
        .iter()
        .zip(&resolved)
        .map(|(p, r)| BatchJob::new(p).algorithm(r.algorithm).options(r.options))
        .collect();
    let report = BatchSolver::new().solve_batch(&jobs);

    for (line, r) in lines.iter().zip(&report.results) {
        let family = resolved[r.job].problem.family();
        let expect = JobRecord::of_solution(r.job, family, &r.solution, r.large);
        assert_eq!(record(line).deterministic(), expect.deterministic());
    }
}

#[test]
fn shutdown_drains_every_accepted_job() {
    // One worker, generous queue: five jobs are all queued before the
    // shutdown command arrives, and every one must still be answered.
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        ..ServeConfig::default()
    };
    let mut input = String::new();
    for n in [8usize, 10, 12, 14, 16] {
        let dims: Vec<String> = (0..=n).map(|_| "3".to_string()).collect();
        input.push_str(&format!(
            "{{\"family\":\"chain\",\"values\":[{}]}}\n",
            dims.join(",")
        ));
    }
    input.push_str("{\"cmd\":\"shutdown\"}\n");
    let (lines, stats) = serve_lines(&input, &config);
    assert_eq!(lines.len(), 6, "5 records + shutdown ack: {lines:?}");
    for (i, line) in lines[..5].iter().enumerate() {
        let r = record(line);
        assert_eq!(r.job, i);
        assert!(r.value > 0);
    }
    assert!(lines[5].contains("\"ok\":\"shutdown\""));
    assert_eq!(stats.accepted, 5);
    assert_eq!(stats.completed, 5, "shutdown must drain, not drop");
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn overload_rejects_immediately_and_nothing_hangs() {
    // One worker pinned on a big sequential job (n = 400, O(n^3) work),
    // a queue of two: flooding 100 tiny jobs must overflow the queue,
    // and every request still gets a response line.
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let mut input = String::new();
    let dims: Vec<String> = (0..=400).map(|_| "2".to_string()).collect();
    input.push_str(&format!(
        "{{\"family\":\"chain\",\"values\":[{}],\"algo\":\"seq\"}}\n",
        dims.join(",")
    ));
    for _ in 0..100 {
        input.push_str("{\"family\":\"chain\",\"values\":[2,3,4]}\n");
    }
    let (lines, stats) = serve_lines(&input, &config);
    assert_eq!(lines.len(), 101, "every request is answered");
    let overloaded = lines
        .iter()
        .filter(|l| l.contains("\"error\":\"overloaded\""))
        .count() as u64;
    assert_eq!(overloaded, stats.rejected);
    assert!(
        stats.rejected > 0,
        "a 2-slot queue behind a busy worker must overflow: {stats:?}"
    );
    assert_eq!(stats.accepted + stats.rejected, 101);
    assert_eq!(stats.completed, stats.accepted, "accepted jobs all drain");
    assert_eq!(stats.queue_depth, 0);
    // The big job itself was answered with a real record.
    assert!(lines[0].contains("\"n\":400"), "{}", lines[0]);
}

#[test]
fn malformed_lines_get_errors_and_the_connection_survives() {
    let input = "garbage\n\
                 {\"family\":\"chain\",\"values\":[1]}\n\
                 {\"family\":\"chain\",\"values\":[2,3,4],\"algo\":\"blort\"}\n\
                 {\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n";
    let (lines, stats) = serve_lines(input, &ServeConfig::default());
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("not a JSON job"), "{}", lines[0]);
    assert!(lines[1].contains("at least two dimensions"), "{}", lines[1]);
    assert!(lines[2].contains("unknown algorithm"), "{}", lines[2]);
    assert!(lines[3].contains("\"value\":15125"), "{}", lines[3]);
    assert_eq!(stats.invalid, 3);
    assert_eq!(stats.completed, 1);
}

#[test]
fn concurrent_tcp_clients_each_get_their_own_exact_answers() {
    let config = ServeConfig::default();
    let server = Server::bind("127.0.0.1:0", &config).unwrap();
    let addr = server.addr();

    // Distinct per-client corpora with known distinct answers.
    let corpora: Vec<String> = (0..3)
        .map(|c| {
            let mut s = String::new();
            for n in 2..10usize {
                let dims: Vec<String> = (0..=n).map(|d| (c + d + 2).to_string()).collect();
                s.push_str(&format!(
                    "{{\"family\":\"chain\",\"values\":[{}]}}\n",
                    dims.join(",")
                ));
            }
            s
        })
        .collect();
    let expected: Vec<Vec<JobRecord>> = corpora.iter().map(|c| loop_records(c, &config)).collect();

    std::thread::scope(|scope| {
        for (corpus, expect) in corpora.iter().zip(&expected) {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(corpus.as_bytes()).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for want in expect {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert_eq!(record(&line).deterministic(), want.deterministic());
                }
                // End this client's session so the reader thread sees EOF.
                stream.shutdown(std::net::Shutdown::Write).ok();
            });
        }
    });

    let stats = server.join();
    let total: usize = expected.iter().map(Vec::len).sum();
    assert_eq!(stats.completed, total as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn finished_tcp_session_gets_eof_without_daemon_shutdown() {
    // A client that half-closes and then reads *to EOF* must see the
    // server close the socket once its responses are flushed — it must
    // not hang until the daemon exits. (The accept loop keeps a kick
    // handle per connection; finished connections have to be reaped.)
    let config = ServeConfig::default();
    let server = Server::bind("127.0.0.1:0", &config).unwrap();

    let corpus = "{\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
                  {\"family\":\"merge\",\"values\":[10,20,30]}\n";
    let expected = loop_records(corpus, &config);

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(corpus.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    // Read the whole session: every response line *and* the EOF.
    let mut all = String::new();
    BufReader::new(&stream).read_to_string(&mut all).unwrap();
    let records: Vec<_> = all.lines().map(|l| record(l).deterministic()).collect();
    let expected: Vec<_> = expected.iter().map(|r| r.deterministic()).collect();
    assert_eq!(records, expected);

    // The daemon is still running — EOF came from connection reaping,
    // not from shutdown.
    assert!(!server.shutdown_requested());
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.completed, 2);
}

#[test]
fn cached_session_hits_on_repeats_and_stays_bit_identical() {
    // One worker: a repeat can only hit once its original's insert has
    // landed, and two workers would race the two.
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(std::sync::Arc::new(MemoryCache::new(64))),
        ..ServeConfig::default()
    };
    // The corpus twice in one session: the second pass must be served
    // from the cache, with responses bit-identical to the cold pass
    // (which in turn matches the plain cache-less solve loop).
    let doubled = format!("{CORPUS}{CORPUS}");
    let (lines, stats) = serve_lines(&doubled, &config);
    let expected = loop_records(&doubled, &ServeConfig::default());
    assert_eq!(lines.len(), expected.len());
    for (line, expect) in lines.iter().zip(&expected) {
        assert_eq!(record(line).deterministic(), expect.deterministic());
    }
    // Six jobs per pass; the `trace:true` job bypasses the cache, so
    // five are cacheable: five misses cold, five hits on the repeat.
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.cache_misses, 5);
    assert_eq!(stats.cache_hits, 5);
    assert_eq!(stats.warm_starts, 0);
}

#[test]
fn cached_session_warm_starts_a_chain_extension() {
    // One worker, so the prefix is stored before the extension reads
    // (see the repeat test above).
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(std::sync::Arc::new(MemoryCache::new(64))),
        ..ServeConfig::default()
    };
    // The second chain extends the first by two matrices: its solve is
    // seeded from the cached prefix table instead of starting cold.
    let input = "{\"family\":\"chain\",\"values\":[30,35,15,5,10]}\n\
                 {\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n";
    let (lines, stats) = serve_lines(input, &config);
    let expected = loop_records(input, &ServeConfig::default());
    assert_eq!(lines.len(), 2);
    for (line, expect) in lines.iter().zip(&expected) {
        // A warm start reports the (smaller) work actually done, so
        // compare the result itself: value and the full-table hash.
        let r = record(line);
        assert_eq!(r.value, expect.value);
        assert_eq!(r.tables_hash, expect.tables_hash);
    }
    assert_eq!(stats.cache_misses, 2, "warm starts count as misses");
    assert_eq!(stats.warm_starts, 1);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn stats_command_reports_the_failure_counters() {
    use std::sync::Arc;
    use std::time::Duration;

    // One worker, three faulted jobs — a panic, a forced timeout, and
    // an injected store read error — then a stats query: the counters
    // must be visible through `{"cmd":"stats"}`, not just at drain.
    // (Job 0 panics before reaching the cache, so job 2 is StoreRead
    // occurrence 1: job 1 consumed occurrence 0 before its timeout.)
    let plan = Arc::new(
        FaultPlan::new()
            .fail(FaultSite::WorkerPanic, &[0])
            .fail(FaultSite::JobDelay, &[1])
            .fail(FaultSite::StoreRead, &[1])
            .delay(Duration::from_millis(60)),
    );
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(Arc::new(FaultyCache::new(
            Arc::new(MemoryCache::new(64)),
            Arc::clone(&plan),
        ))),
        job_timeout: Some(Duration::from_millis(10)),
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let input = "{\"family\":\"chain\",\"values\":[2,3,4]}\n\
                 {\"family\":\"chain\",\"values\":[3,4,5]}\n\
                 {\"family\":\"chain\",\"values\":[4,5,6]}\n\
                 {\"cmd\":\"stats\"}\n";
    let (lines, final_stats) = serve_lines(input, &config);
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("\"kind\":\"internal\""), "{}", lines[0]);
    assert!(lines[1].contains("\"kind\":\"timeout\""), "{}", lines[1]);
    assert!(
        lines[2].contains("\"value\":120"),
        "degraded to a cold solve"
    );

    let v = serde_json::parse_value(&lines[3]).unwrap();
    let stats = ServeStats::from_value(v.get("stats").unwrap()).unwrap();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.cache_errors, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(final_stats.panics, 1);
    assert_eq!(final_stats.timeouts, 1);
    assert_eq!(final_stats.cache_errors, 1);
}

#[test]
fn tcp_stats_and_shutdown_commands_round_trip() {
    let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(
            b"{\"family\":\"merge\",\"values\":[10,20,30]}\n{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n",
        )
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert!(lines[0].contains("\"value\":90"), "{}", lines[0]);
    let v = serde_json::parse_value(&lines[1]).unwrap();
    let stats = ServeStats::from_value(v.get("stats").unwrap()).unwrap();
    assert_eq!(stats.completed, 1);
    // Per-regime drain counts and the live queue depth ride in the same
    // stats record: the merge job is far below the large-job threshold,
    // and it had to finish before the stats command was answered.
    assert_eq!(stats.completed_small, 1);
    assert_eq!(stats.completed_large, 0);
    assert_eq!(stats.queue_depth, 0);
    // No cache configured: the cache counters exist and stay zero.
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(stats.warm_starts, 0);
    // No faults either: the failure counters ride in the same record
    // and stay zero on a healthy daemon.
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.cache_errors, 0);
    assert!(lines[2].contains("\"ok\":\"shutdown\""), "{}", lines[2]);
    // The client-initiated shutdown stops the whole daemon.
    let final_stats = server.join();
    assert_eq!(final_stats.completed, 1);
}
