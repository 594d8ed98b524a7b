//! `pardp batch` and `pardp serve` read their lines with one reader and
//! run one per-job step, so they must number, answer and count alike on
//! the cases where their hand-written copies once drifted: cache hits,
//! warm starts, cache bypasses, failed Knuth guards, store faults,
//! command lines and lines that are not UTF-8. Batch is driven through
//! [`read_request`] and [`BatchSolver::solve_lines`] (what `pardp batch`
//! runs), serve through [`serve_pipe`] on one worker, so occurrence
//! indices of a fault plan line up with submission order on both sides.

use std::sync::Arc;

use pardp_core::prelude::*;
use pardp_core::serve::serve_pipe;

/// An exact repeat, an extension of a prefix cached before the run, a
/// traced (cache-bypassing) job, a failed Knuth guard, and a plain miss.
const CORPUS: &str = r#"{"family":"chain","values":[30,35,15,5,10,20,25]}
{"family":"chain","values":[30,35,15,5,10,20,25]}
{"family":"chain","values":[5,10,3,12,5,7,9]}
{"family":"chain","values":[3,5,7,2,8],"trace":true}
{"family":"chain","values":[10,1,10,1,10,1,10],"algo":"knuth"}
{"family":"merge","values":[10,20,30]}
"#;

/// The cached prefix of job 2, solved under the front ends' defaults.
const PREFIX: [u64; 5] = [5, 10, 3, 12, 5];

fn seeded_cache() -> Arc<MemoryCache> {
    let cache = Arc::new(MemoryCache::new(64));
    let config = ServeConfig::default();
    let spec = ProblemSpec::chain(PREFIX.to_vec()).unwrap();
    let (_, outcome) = Solver::new(config.default_algo)
        .options(config.options)
        .with_cache(cache.as_ref())
        .solve(&spec);
    assert_eq!(outcome, CacheOutcome::Miss);
    cache
}

fn one_worker(cache: Arc<dyn SolutionCache>, telemetry: Arc<Telemetry>) -> ServeConfig {
    ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(cache),
        telemetry: Some(telemetry),
        ..ServeConfig::default()
    }
}

fn ring() -> (Arc<RingSink>, Arc<Telemetry>) {
    let ring = Arc::new(RingSink::new(4096));
    let telemetry = Arc::new(Telemetry::new(Arc::clone(&ring) as Arc<dyn EventSink>));
    (ring, telemetry)
}

/// Each job's `cache` event outcome, by job index (`None`: no event).
fn cache_events(events: &[Event], jobs: usize) -> Vec<Option<&'static str>> {
    let mut out = vec![None; jobs];
    for e in events {
        if let EventKind::Cache { job, outcome } = e.kind {
            out[job as usize] = Some(outcome);
        }
    }
    out
}

/// Serve's answer lines with `wall_seconds` zeroed in records.
fn serve_lines(input: &[u8], config: &ServeConfig) -> (Vec<String>, ServeStats) {
    let mut out = Vec::new();
    let stats = serve_pipe(input, &mut out, config);
    let lines = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(deterministic)
        .collect();
    (lines, stats)
}

fn deterministic(line: &str) -> String {
    match serde_json::from_str::<JobRecord>(line) {
        Ok(record) => serde_json::to_string(&record.deterministic()).unwrap(),
        Err(_) => line.to_string(), // an error line
    }
}

/// Batch's answer lines in request order, as `pardp batch` prints them
/// (records with `wall_seconds` zeroed): each line goes through the
/// reader, a command line is answered in its place, and the jobs are
/// answered by `solve_lines` in job order.
fn batch_lines(
    input: &[u8],
    cache: Option<&dyn SolutionCache>,
    telemetry: Arc<Telemetry>,
) -> (Vec<String>, BatchReport<u64>) {
    let config = ServeConfig::default();
    let (mut jobs, mut answers) = (Vec::new(), Vec::new());
    for line in input.split(|&b| b == b'\n') {
        match read_request(line, config.default_algo, config.options) {
            Request::Blank => {}
            Request::Command(name) => answers.push(Some(command_error(&name))),
            Request::Job(job) => {
                jobs.push(job);
                answers.push(None);
            }
        }
    }
    let report = BatchSolver::new()
        .telemetry(Some(telemetry))
        .solve_lines(&jobs, cache);
    let mut job_lines = report.lines(&jobs).into_iter();
    let lines = answers
        .into_iter()
        .map(|answer| deterministic(&answer.or_else(|| job_lines.next()).unwrap()))
        .collect();
    (lines, report)
}

#[test]
fn batch_and_serve_answer_a_cached_corpus_alike() {
    let (serve_ring, serve_tel) = ring();
    let (served, stats) = serve_lines(CORPUS.as_bytes(), &one_worker(seeded_cache(), serve_tel));
    let (batch_ring, batch_tel) = ring();
    let cache = seeded_cache();
    let (batched, report) = batch_lines(CORPUS.as_bytes(), Some(cache.as_ref()), batch_tel);

    assert_eq!(served.len(), 6, "{served:?}");
    assert_eq!(batched, served, "deterministic records and error lines");
    assert!(served[4].contains("\"kind\":\"invalid\""), "{}", served[4]);
    assert!(
        served[4].contains("knuth speedup disagrees"),
        "{}",
        served[4]
    );

    // Counters agree, except that batch reports the in-batch repeat as
    // `deduped` where serve (which has no batch to dedup) reports a hit.
    let c = report.counts;
    assert_eq!((c.cache_hits, c.deduped), (0, 1));
    assert_eq!(stats.cache_hits, c.cache_hits + c.deduped);
    assert_eq!(stats.cache_misses, c.cache_misses);
    assert_eq!(stats.warm_starts, c.warm_starts);
    assert_eq!(stats.cache_errors, c.cache_errors);
    assert_eq!((c.cache_misses, c.warm_starts, c.cache_errors), (3, 1, 0));
    assert_eq!((stats.completed, c.completed), (6, 6));

    // Per job the same cache outcome, the repeat aside.
    let serve_events = cache_events(&serve_ring.events(), 6);
    let batch_events = cache_events(&batch_ring.events(), 6);
    assert_eq!(
        serve_events,
        [
            Some("miss"),
            Some("hit"),
            Some("warm"),
            Some("bypass"),
            Some("bypass"),
            Some("miss")
        ]
    );
    assert_eq!(batch_events[1], Some("dedup"));
    for job in [0, 2, 3, 4, 5] {
        assert_eq!(batch_events[job], serve_events[job], "job {job}");
    }

    // Both summary events carry `deduped`: batch's counts its one
    // `dedup` event, serve's is always 0.
    let deduped = |events: Vec<Event>| match events.last().map(|e| e.kind.clone()) {
        Some(EventKind::Summary(counts)) => counts.deduped,
        other => panic!("expected a summary, got {other:?}"),
    };
    assert_eq!(deduped(batch_ring.events()), c.deduped);
    assert_eq!(deduped(serve_ring.events()), 0);
}

/// Run `input` (`jobs` chain jobs) through serve on one worker and
/// through batch, each over its own [`FaultyCache`] scheduled by `plan`,
/// and check that the two agree on answers, counts, `cache` events and
/// occurrence ledgers. Returns serve's side.
fn store_faults_agree(
    input: &[u8],
    jobs: usize,
    plan: impl Fn() -> FaultPlan,
) -> (ServeStats, Vec<Option<&'static str>>, Arc<FaultPlan>) {
    let faulty = || {
        let plan = Arc::new(plan());
        let cache = FaultyCache::new(Arc::new(MemoryCache::new(8)), Arc::clone(&plan));
        (Arc::new(cache), plan)
    };
    let (serve_cache, serve_plan) = faulty();
    let (serve_ring, serve_tel) = ring();
    let (served, stats) = serve_lines(input, &one_worker(serve_cache, serve_tel));
    let (batch_cache, batch_plan) = faulty();
    let (batch_ring, batch_tel) = ring();
    let (batched, report) = batch_lines(input, Some(batch_cache.as_ref()), batch_tel);

    assert_eq!(served.len(), jobs, "{served:?}");
    assert_eq!(batched, served, "store faults never change an answer");
    let c = report.counts;
    assert_eq!(
        (c.cache_hits, c.cache_misses, c.warm_starts, c.cache_errors),
        (
            stats.cache_hits,
            stats.cache_misses,
            stats.warm_starts,
            stats.cache_errors
        ),
    );
    let events = cache_events(&serve_ring.events(), jobs);
    assert_eq!(cache_events(&batch_ring.events(), jobs), events);
    for site in [FaultSite::StoreRead, FaultSite::StoreWrite] {
        assert_eq!(batch_plan.occurrences(site), serve_plan.occurrences(site));
        assert_eq!(batch_plan.injected(site), serve_plan.injected(site));
    }
    (stats, events, serve_plan)
}

#[test]
fn batch_counts_store_faults_like_serve() {
    // The chaos suite's store schedule on two n = 2 chains: the first
    // lookup fails (a bypass that stores nothing), then the first insert
    // fails (a miss downgraded to a bypass). n = 2 keeps one read per
    // job: there is no warm-start prefix to probe, so each job takes one
    // read and at most one write.
    let (stats, events, plan) = store_faults_agree(
        b"{\"family\":\"chain\",\"values\":[2,3,4]}\n\
          {\"family\":\"chain\",\"values\":[3,4,5]}\n",
        2,
        || {
            FaultPlan::new()
                .fail(FaultSite::StoreRead, &[0])
                .fail(FaultSite::StoreWrite, &[0])
        },
    );
    assert_eq!((stats.cache_misses, stats.cache_errors), (0, 2));
    assert_eq!(events, [Some("bypass"), Some("bypass")]);
    for site in [FaultSite::StoreRead, FaultSite::StoreWrite] {
        assert_eq!(plan.injected(site), 1);
    }

    // An n = 5 chain probes prefixes after its lookup, and probes are
    // reads: occurrence 0 is the healthy lookup, 1 the first probe. The
    // failing probe makes the job a cold bypass that stores nothing and
    // costs one error, in both front ends.
    let (stats, events, plan) = store_faults_agree(
        b"{\"family\":\"chain\",\"values\":[2,3,4,5,6,7]}\n",
        1,
        || FaultPlan::new().fail(FaultSite::StoreRead, &[1]),
    );
    assert_eq!((stats.cache_misses, stats.cache_errors), (0, 1));
    assert_eq!(events, [Some("bypass")]);
    assert_eq!(plan.occurrences(FaultSite::StoreRead), 2);
    assert_eq!(plan.occurrences(FaultSite::StoreWrite), 0);
}

/// A command serve does not know, one it runs, a line that is not UTF-8,
/// a failed Knuth guard and plain jobs.
const DRIFT: &[u8] = b"{\"cmd\":\"bogus\"}\n\
    {\"family\":\"chain\",\"values\":[30,35,15,5,10,20,25]}\n\
    {\"cmd\":\"stats\"}\n\
    \xff\n\
    {\"family\":\"chain\",\"values\":[10,1,10,1,10,1,10],\"algo\":\"knuth\"}\n\
    \n\
    {\"family\":\"chain\",\"values\":[2,3,4]}\n";

#[test]
fn batch_and_serve_number_answer_and_count_command_and_bad_lines_alike() {
    let (serve_ring, serve_tel) = ring();
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        telemetry: Some(serve_tel),
        ..ServeConfig::default()
    };
    let (served, _) = serve_lines(DRIFT, &config);
    let (batch_ring, batch_tel) = ring();
    let (batched, report) = batch_lines(DRIFT, None, batch_tel);

    // One answer per non-blank line, in request order. Job lines carry
    // the same number and the same answer in both front ends; commands
    // take no number.
    assert_eq!(served.len(), 6, "{served:?}");
    assert_eq!(batched.len(), served.len(), "{batched:?}");
    for i in [0, 1, 3, 4, 5] {
        assert_eq!(batched[i], served[i], "line {i}");
    }
    assert_eq!(
        served[0],
        r#"{"error":"unknown cmd 'bogus' (expected stats | shutdown)","kind":"invalid"}"#
    );
    assert!(served[1].starts_with("{\"job\":0,"), "{}", served[1]);
    assert_eq!(
        served[3],
        r#"{"job":1,"error":"request line is not UTF-8","kind":"invalid"}"#
    );
    assert!(served[4].starts_with("{\"job\":2,\"error\":\"knuth speedup"));
    assert!(served[5].starts_with("{\"job\":3,") && served[5].contains("\"value\":24"));
    // Serve runs `stats`; batch runs no command and answers it in its
    // place, with no job number.
    assert!(served[2].starts_with("{\"stats\":{"), "{}", served[2]);
    assert_eq!(batched[2], command_error("stats"));

    // The two summary events agree on every count.
    let summary = |events: Vec<Event>| events.last().map(|e| e.kind.clone());
    let served_summary = summary(serve_ring.events());
    assert_eq!(summary(batch_ring.events()), served_summary);
    assert_eq!(served_summary, Some(EventKind::Summary(report.counts)));
    let c = report.counts;
    assert_eq!((c.accepted, c.invalid, c.rejected), (3, 1, 0));
    assert_eq!(
        (c.completed, c.completed_small, c.completed_large),
        (3, 3, 0)
    );
}
