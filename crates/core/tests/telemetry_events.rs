//! Integration tests of the telemetry event stream: every serve job
//! must produce a gap-free, monotonically-sequenced chain of typed
//! events (`admitted → regime → cache → completed`), fault injection
//! must surface as `fault`/`panic`/`timeout` events matching the
//! [`FaultPlan`] schedule exactly, and attaching telemetry must not
//! disturb the protocol output by a single bit.
//!
//! `ExecBackend::Threads(1)` keeps the worker-side events of distinct
//! jobs from interleaving, but `admitted` events race the worker by
//! design (the reader thread emits them); the chain assertions
//! therefore filter the stream per job, which is exactly the contract
//! documented on [`pardp_core::telemetry`].

use std::sync::Arc;
use std::time::Duration;

use pardp_core::prelude::*;
use pardp_core::serve::serve_pipe;

/// A corpus of `count` distinct small chain jobs (same shape as the
/// chaos suite, so fault occurrence indices line up with job indices).
fn corpus(count: usize) -> String {
    (0..count)
        .map(|i| {
            format!(
                "{{\"family\":\"chain\",\"values\":[{},{},{}]}}\n",
                i + 2,
                i + 3,
                i + 4
            )
        })
        .collect()
}

/// Run `serve_pipe` over `input` with a fresh ring-buffered telemetry
/// pipeline at `level`; return the response lines, the drained stats,
/// and the captured event stream.
fn serve_with_events(
    input: &str,
    mut config: ServeConfig,
    level: LogLevel,
) -> (Vec<String>, ServeStats, Vec<Event>) {
    let ring = Arc::new(RingSink::new(4096));
    config.telemetry = Some(Arc::new(Telemetry::with_level(
        Arc::clone(&ring) as Arc<dyn EventSink>,
        level,
    )));
    let mut out = Vec::new();
    let stats = serve_pipe(input.as_bytes(), &mut out, &config);
    let lines = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    (lines, stats, ring.events())
}

fn single_worker() -> ServeConfig {
    ServeConfig {
        exec: ExecBackend::Threads(1),
        ..ServeConfig::default()
    }
}

/// The worker-side events of one job, in stream order.
fn job_chain(events: &[Event], job: u64) -> Vec<&'static str> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Admitted { job: j } if *j == job => Some("admitted"),
            EventKind::Rejected { job: j, .. } if *j == job => Some("rejected"),
            EventKind::Regime { job: j, .. } if *j == job => Some("regime"),
            EventKind::Cache { job: j, .. } if *j == job => Some("cache"),
            EventKind::Fault { job: j, .. } if *j == job => Some("fault"),
            EventKind::Panic { job: j } if *j == job => Some("panic"),
            EventKind::Timeout { job: j } if *j == job => Some("timeout"),
            EventKind::Completed { job: j, .. } if *j == job => Some("completed"),
            _ => None,
        })
        .collect()
}

fn count_kind(events: &[Event], name: &str) -> usize {
    events.iter().filter(|e| e.kind.name() == name).count()
}

#[test]
fn lifecycle_emits_gap_free_per_job_chains() {
    let input = corpus(5);
    let (lines, stats, events) = serve_with_events(&input, single_worker(), LogLevel::Debug);

    assert_eq!(lines.len(), 5);
    assert_eq!(stats.completed, 5);

    // Sequence numbers are gap-free and match delivery order: the
    // filter-before-sequencing rule means even a Debug-level stream
    // never skips a number.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "gap or reorder at {e:?}");
    }

    // Session framing: the pipe opens a connection first, closes it
    // after the drain, and the summary is the final word.
    assert_eq!(events.first().unwrap().kind.name(), "conn_open");
    assert_eq!(events.last().unwrap().kind.name(), "summary");
    assert_eq!(count_kind(&events, "conn_open"), 1);
    assert_eq!(count_kind(&events, "conn_close"), 1);

    // Every job tells the same four-step story, in order.
    for job in 0..5u64 {
        assert_eq!(
            job_chain(&events, job),
            ["admitted", "regime", "cache", "completed"],
            "job {job} chain"
        );
    }

    // The summary event mirrors the drained counters.
    match events.last().unwrap().kind {
        EventKind::Summary(JobCounts {
            accepted,
            completed,
            panics,
            timeouts,
            ..
        }) => {
            assert_eq!(accepted, stats.accepted);
            assert_eq!(completed, stats.completed);
            assert_eq!(panics, 0);
            assert_eq!(timeouts, 0);
        }
        ref k => panic!("expected summary, got {k:?}"),
    }
}

#[test]
fn completed_events_carry_the_protocol_values() {
    let input = corpus(3);
    let (lines, _, events) = serve_with_events(&input, single_worker(), LogLevel::Info);
    for line in &lines {
        let record: JobRecord = serde_json::from_str(line).unwrap();
        let completed = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Completed { job, value, .. } if job == record.job as u64 => Some(value),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no completed event for job {}", record.job));
        assert_eq!(completed, record.value, "event value is the answer");
    }
}

#[test]
fn info_level_drops_connection_events_without_seq_gaps() {
    let (_, _, events) = serve_with_events(&corpus(2), single_worker(), LogLevel::Info);
    assert_eq!(count_kind(&events, "conn_open"), 0);
    assert_eq!(count_kind(&events, "conn_close"), 0);
    assert!(count_kind(&events, "completed") == 2);
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }

    // At the error level a healthy session is completely silent, and a
    // malformed line is the only thing that speaks.
    let (_, _, errors_only) = serve_with_events(&corpus(2), single_worker(), LogLevel::Error);
    assert!(errors_only.is_empty(), "{errors_only:?}");
    let (_, _, rejected_only) = serve_with_events("not json\n", single_worker(), LogLevel::Error);
    assert_eq!(rejected_only.len(), 1);
    assert_eq!(rejected_only[0].kind.name(), "rejected");
    assert_eq!(rejected_only[0].seq, 0);
}

#[test]
fn telemetry_never_disturbs_protocol_output() {
    let input = corpus(6);
    let silent = ServeConfig {
        exec: ExecBackend::Threads(1),
        ..ServeConfig::default()
    };
    let mut out = Vec::new();
    let silent_stats = serve_pipe(input.as_bytes(), &mut out, &silent);
    let silent_lines: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();

    let (logged_lines, logged_stats, events) =
        serve_with_events(&input, single_worker(), LogLevel::Debug);

    assert!(!events.is_empty());
    let deterministic = |lines: &[String]| -> Vec<_> {
        lines
            .iter()
            .map(|l| {
                serde_json::from_str::<JobRecord>(l)
                    .unwrap()
                    .deterministic()
            })
            .collect()
    };
    assert_eq!(
        deterministic(&logged_lines),
        deterministic(&silent_lines),
        "telemetry must be invisible on the wire"
    );
    assert_eq!(logged_stats.completed, silent_stats.completed);
    assert_eq!(logged_stats.accepted, silent_stats.accepted);
}

#[test]
fn invalid_lines_emit_rejected_events() {
    let input = "this is not json\n{\"family\":\"chain\",\"values\":[3,5,7]}\n";
    let (lines, stats, events) = serve_with_events(input, single_worker(), LogLevel::Info);
    assert_eq!(lines.len(), 2);
    assert_eq!(stats.invalid, 1);
    assert_eq!(stats.errors_invalid, 1);
    assert_eq!(stats.errors_internal, 0);
    let rejected: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Rejected { job, kind } => Some((*job, *kind)),
            _ => None,
        })
        .collect();
    assert_eq!(rejected, [(0, "invalid")]);
    // The malformed line consumed job index 0; the real job is 1 and
    // still tells its full story.
    assert_eq!(
        job_chain(&events, 1),
        ["admitted", "regime", "cache", "completed"]
    );
}

#[test]
fn chaos_fault_events_match_the_schedule() {
    // Same explicit schedule as the chaos suite: job 1 panics, job 3 is
    // delayed past its 10ms deadline. One worker keeps the occurrence
    // indices aligned with job indices.
    let plan = Arc::new(
        FaultPlan::new()
            .fail(FaultSite::WorkerPanic, &[1])
            .fail(FaultSite::JobDelay, &[3])
            .delay(Duration::from_millis(60)),
    );
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        job_timeout: Some(Duration::from_millis(10)),
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let input = corpus(6);
    let (lines, stats, events) = serve_with_events(&input, config, LogLevel::Info);

    assert_eq!(lines.len(), 6, "every request answered: {lines:?}");
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.errors_internal, 1);
    assert_eq!(stats.errors_timeout, 1);

    // Each injected fault announces itself at its site, and the event
    // counts equal the plan's own injection counters.
    let fault_sites: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Fault { job, site } => Some((*job, *site)),
            _ => None,
        })
        .collect();
    assert_eq!(fault_sites, [(1, "worker-panic"), (3, "job-delay")]);
    assert_eq!(
        count_kind(&events, "fault") as u64,
        plan.injected(FaultSite::WorkerPanic) + plan.injected(FaultSite::JobDelay),
    );
    assert_eq!(count_kind(&events, "panic") as u64, stats.panics);
    assert_eq!(count_kind(&events, "timeout") as u64, stats.timeouts);

    // The failed jobs' chains end in their failure mode (no cache or
    // completed step), the healthy jobs' chains are untouched.
    assert_eq!(
        job_chain(&events, 1),
        ["admitted", "regime", "fault", "panic"]
    );
    assert_eq!(
        job_chain(&events, 3),
        ["admitted", "regime", "fault", "timeout"]
    );
    for job in [0u64, 2, 4, 5] {
        assert_eq!(
            job_chain(&events, job),
            ["admitted", "regime", "cache", "completed"],
            "job {job}"
        );
    }
}

#[test]
fn stats_report_watermark_percentiles_and_work() {
    // A single worker and a fat queue force a high watermark above 1:
    // the reader admits faster than the worker drains.
    let (_, stats, _) = serve_with_events(&corpus(8), single_worker(), LogLevel::Info);
    assert!(stats.queue_high_watermark >= 1);
    assert!(stats.queue_high_watermark <= 8);
    assert!(stats.latency_p50_us <= stats.latency_p90_us);
    assert!(stats.latency_p90_us <= stats.latency_p99_us);
    assert!(stats.latency_p99_us > 0, "8 completed jobs were timed");
    assert!(stats.work > 0, "candidate work accumulates");
    assert!(stats.span > 0, "span estimates accumulate");
    assert!(stats.span <= stats.work, "span never exceeds work");
}

#[test]
fn batch_jobs_emit_consecutive_chains_in_submission_order() {
    let ring = Arc::new(RingSink::new(4096));
    let telemetry = Arc::new(Telemetry::new(Arc::clone(&ring) as Arc<dyn EventSink>));
    // Events ride the wire (cache-aware) path — the same one the CLI
    // `batch` command runs, through the reader the serve daemon uses.
    let jobs: Vec<_> = corpus(3)
        .lines()
        .map(
            |line| match read_request(line.as_bytes(), Algorithm::Sublinear, wire_options()) {
                Request::Job(job) => job,
                other => panic!("{other:?}"),
            },
        )
        .collect();
    let report = BatchSolver::new()
        .telemetry(Some(Arc::clone(&telemetry)))
        .solve_lines(&jobs, None);
    assert_eq!(report.results.len(), 3);

    let events = ring.events();
    // Batch emission happens at assembly time, so each job's chain is
    // consecutive: four events per job, in submission order, then the
    // summary of the run's counts.
    assert_eq!(events.len(), 13);
    assert_eq!(events[12].kind, EventKind::Summary(report.counts));
    assert_eq!(report.counts.completed, 3);
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    for job in 0..3u64 {
        let chunk = &events[(job as usize) * 4..(job as usize) * 4 + 4];
        assert_eq!(
            chunk.iter().map(|e| e.kind.name()).collect::<Vec<_>>(),
            ["admitted", "regime", "cache", "completed"],
            "job {job}"
        );
        for e in chunk {
            let j = match e.kind {
                EventKind::Admitted { job }
                | EventKind::Regime { job, .. }
                | EventKind::Cache { job, .. }
                | EventKind::Completed { job, .. } => job,
                ref k => panic!("unexpected kind {k:?}"),
            };
            assert_eq!(j, job);
        }
    }
}
