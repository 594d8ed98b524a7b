//! Chaos tests of the failure-hardened serve daemon: a deterministic
//! [`FaultPlan`] schedules worker panics, store IO errors, and forced
//! deadline expiries, and the daemon must answer *every* request, keep
//! the non-faulted responses bit-identical to a fault-free run, tick
//! exactly the scheduled counters, and drain cleanly.
//!
//! With `ExecBackend::Threads(1)` the single worker solves jobs in
//! submission order, so the k-th probe of each [`FaultSite`] belongs to
//! a known job and the whole schedule is replayable by index (see the
//! `fault` module docs). The per-job probe order is: `JobDelay` (after
//! the deadline stamp), `WorkerPanic` (inside the regime gate),
//! `StoreRead` (cache lookup, then one per warm-start prefix size),
//! `StoreWrite` (cache insert — skipped on a read error or a timeout).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pardp_core::prelude::*;
use pardp_core::serve::serve_pipe;
use pardp_core::store::DEFAULT_CACHE_FAILURE_BUDGET;
use proptest::prelude::*;

/// A corpus of `count` distinct small chain jobs. n = 2 keeps one read
/// per job: there is no warm-start prefix to probe (probes are reads and
/// take `StoreRead` occurrences too), so each cacheable job consumes
/// exactly one `StoreRead` occurrence and at most one `StoreWrite`.
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

fn serve_lines(input: &str, config: &ServeConfig) -> (Vec<String>, ServeStats) {
    let mut out = Vec::new();
    let stats = serve_pipe(input.as_bytes(), &mut out, config);
    let text = String::from_utf8(out).unwrap();
    (text.lines().map(str::to_string).collect(), stats)
}

/// The fault-free reference responses for `input` under the chaos
/// configuration (single worker, its own untouched cache).
fn baseline(input: &str) -> Vec<JobRecord> {
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(Arc::new(MemoryCache::new(256))),
        ..ServeConfig::default()
    };
    let (lines, stats) = serve_lines(input, &config);
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.cache_errors, 0);
    lines.iter().map(|l| record(l)).collect()
}

fn record(line: &str) -> JobRecord {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("{e:?}: {line}"))
}

#[test]
fn explicit_schedule_answers_every_request_with_exact_counters() {
    // Six jobs, one worker: job 1 panics, job 2's cache lookup fails,
    // job 3 is delayed past its deadline, job 4's cache insert fails.
    // Store occurrences shift under the earlier faults — job 1 never
    // reaches the cache, so job 2 is StoreRead occurrence 1; job 2
    // (lookup error) and job 3 (timeout) never insert, so job 4 is
    // StoreWrite occurrence 1.
    let plan = Arc::new(
        FaultPlan::new()
            .fail(FaultSite::WorkerPanic, &[1])
            .fail(FaultSite::StoreRead, &[1])
            .fail(FaultSite::JobDelay, &[3])
            .fail(FaultSite::StoreWrite, &[1])
            .delay(Duration::from_millis(60)),
    );
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(Arc::new(FaultyCache::new(
            Arc::new(MemoryCache::new(256)),
            Arc::clone(&plan),
        ))),
        job_timeout: Some(Duration::from_millis(10)),
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let input = corpus(6);
    let (lines, stats) = serve_lines(&input, &config);
    let expected = baseline(&input);

    assert_eq!(lines.len(), 6, "every request is answered: {lines:?}");
    assert!(lines[1].contains("\"job\":1"), "{}", lines[1]);
    assert!(lines[1].contains("\"kind\":\"internal\""), "{}", lines[1]);
    assert!(lines[3].contains("\"job\":3"), "{}", lines[3]);
    assert!(lines[3].contains("\"kind\":\"timeout\""), "{}", lines[3]);
    for i in [0usize, 2, 4, 5] {
        // Non-faulted jobs are bit-identical to the fault-free run —
        // including job 2 (lookup error → cold solve) and job 4 (insert
        // error after a correct solve).
        assert_eq!(
            record(&lines[i]).deterministic(),
            expected[i].deterministic(),
            "job {i} must not be disturbed by its neighbours' faults"
        );
    }

    // The counters match the schedule exactly.
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.completed, 6, "panics and timeouts still complete");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.invalid, 0);
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.cache_errors, 2, "one lookup + one insert failure");
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 2, "jobs 0 and 5 miss and insert");
    assert_eq!(stats.warm_starts, 0);

    // The plan's own ledger agrees: every site probed the expected
    // number of times and injected exactly once.
    assert_eq!(plan.occurrences(FaultSite::JobDelay), 6);
    assert_eq!(plan.occurrences(FaultSite::WorkerPanic), 6);
    assert_eq!(plan.occurrences(FaultSite::StoreRead), 5);
    assert_eq!(plan.occurrences(FaultSite::StoreWrite), 3);
    for site in [
        FaultSite::JobDelay,
        FaultSite::WorkerPanic,
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
    ] {
        assert_eq!(plan.injected(site), 1, "{}", site.name());
    }
}

/// Serve one chain job on one worker over a cache whose reads fail at
/// `failing`, and check it against the fault-free run.
fn failing_probe_reads(values: &[u64], failing: &[u64]) -> (ServeStats, Arc<FaultPlan>) {
    let input = format!("{{\"family\":\"chain\",\"values\":{values:?}}}\n");
    let plan = Arc::new(FaultPlan::new().fail(FaultSite::StoreRead, failing));
    let ring = Arc::new(RingSink::new(64));
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(Arc::new(FaultyCache::new(
            Arc::new(MemoryCache::new(256)),
            Arc::clone(&plan),
        ))),
        telemetry: Some(Arc::new(Telemetry::new(
            Arc::clone(&ring) as Arc<dyn EventSink>
        ))),
        ..ServeConfig::default()
    };
    let (lines, stats) = serve_lines(&input, &config);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert_eq!(
        record(&lines[0]).deterministic(),
        baseline(&input)[0].deterministic(),
        "a failing probe never changes the answer"
    );
    let outcomes: Vec<&str> = ring
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Cache { outcome, .. } => Some(outcome),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes, ["bypass"]);
    (stats, plan)
}

#[test]
fn a_failing_probe_read_is_one_error_and_a_cold_bypass() {
    // StoreRead occurrence 0 is the job's lookup (a healthy miss), 1 its
    // first warm-start probe (prefix size n - 1). A failing probe read
    // ends the read stage as a failing lookup does: the job solves cold,
    // reports a bypass, stores nothing and costs one error.
    let (stats, plan) = failing_probe_reads(&[2, 3, 4, 5, 6, 7], &[1]);
    assert_eq!(
        (stats.cache_hits, stats.cache_misses, stats.warm_starts),
        (0, 0, 0)
    );
    assert_eq!(stats.cache_errors, 1);
    assert_eq!(plan.occurrences(FaultSite::StoreRead), 2);
    assert_eq!(plan.occurrences(FaultSite::StoreWrite), 0);

    // Every later read would fail too, but the probe stops at its first
    // error: one n = 10 job spends one error, not the whole budget.
    let failing: Vec<u64> = (1..=20).collect();
    let (stats, plan) = failing_probe_reads(&[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], &failing);
    assert_eq!(stats.cache_errors, 1);
    assert!(stats.cache_errors < DEFAULT_CACHE_FAILURE_BUDGET);
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(plan.occurrences(FaultSite::StoreRead), 2);
    assert_eq!(plan.occurrences(FaultSite::StoreWrite), 0);
}

#[test]
fn timed_out_large_job_releases_the_regime_gate() {
    // Every job is "large" (threshold 0), so each takes the regime
    // write lock. Job 0 is delayed past its deadline; job 1 must still
    // acquire the gate and solve — promptly, not after some unrelated
    // timeout elapses.
    let plan = Arc::new(
        FaultPlan::new()
            .fail(FaultSite::JobDelay, &[0])
            .delay(Duration::from_millis(60)),
    );
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        large_job_cells: 0,
        job_timeout: Some(Duration::from_millis(10)),
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let (lines, stats) = serve_lines(&corpus(2), &config);
    let elapsed = t0.elapsed();

    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"kind\":\"timeout\""), "{}", lines[0]);
    assert_eq!(record(&lines[1]).value, 60, "3*4*5 chain product");
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.completed_large, 2);
    assert!(
        elapsed < Duration::from_secs(10),
        "the gate must be released at the deadline, not held: {elapsed:?}"
    );
}

#[test]
fn panicking_large_job_poisons_and_releases_the_regime_gate() {
    // Job 0 panics while holding the regime *write* lock, poisoning it.
    // Jobs 1 and 2 (also large, also needing the write lock) must still
    // be answered: every later lock site recovers with `unpoison`.
    let plan = Arc::new(FaultPlan::new().fail(FaultSite::WorkerPanic, &[0]));
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        large_job_cells: 0,
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let (lines, stats) = serve_lines(&corpus(3), &config);
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"kind\":\"internal\""), "{}", lines[0]);
    assert_eq!(record(&lines[1]).value, 60);
    assert_eq!(record(&lines[2]).value, 120);
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.queue_depth, 0);

    // And a panic under the *read* lock (small regime) likewise.
    let plan = Arc::new(FaultPlan::new().fail(FaultSite::WorkerPanic, &[0]));
    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let (lines, stats) = serve_lines(&corpus(2), &config);
    assert!(lines[0].contains("\"kind\":\"internal\""), "{}", lines[0]);
    assert_eq!(record(&lines[1]).value, 60);
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.completed, 2);
}

/// What a seeded schedule should do to `jobs` single-worker jobs —
/// replayed from a second identical plan, mirroring the daemon's probe
/// order and the [`ResilientCache`] budget rules.
struct Expected {
    panicked: Vec<bool>,
    timed_out: Vec<bool>,
    cache_errors: u64,
}

fn simulate(oracle: &FaultPlan, jobs: usize) -> Expected {
    let budget = DEFAULT_CACHE_FAILURE_BUDGET;
    let mut errors = 0u64;
    let mut disabled = false;
    let mut panicked = vec![false; jobs];
    let mut timed_out = vec![false; jobs];
    for k in 0..jobs {
        let delayed = oracle.should(FaultSite::JobDelay);
        if oracle.should(FaultSite::WorkerPanic) {
            panicked[k] = true;
            continue; // never reaches the cache or the solve
        }
        // Cache lookup: a disabled backend short-circuits without
        // probing the inner (faulty) cache and without counting.
        let lookup_failed = if disabled {
            true
        } else {
            let e = oracle.should(FaultSite::StoreRead);
            if e {
                errors += 1;
                disabled = errors >= budget;
            }
            e
        };
        if delayed {
            timed_out[k] = true;
            continue; // a timed-out job never inserts
        }
        if lookup_failed {
            continue; // bypass: cold solve, no insert
        }
        // Distinct jobs never hit, so every surviving job inserts.
        if oracle.should(FaultSite::StoreWrite) {
            errors += 1;
            disabled = errors >= budget;
        }
    }
    Expected {
        panicked,
        timed_out,
        cache_errors: errors,
    }
}

#[test]
fn seeded_schedule_replays_exactly_from_the_seed() {
    const JOBS: usize = 12;
    let input = corpus(JOBS);
    let expected_records = baseline(&input);

    let plan = Arc::new(FaultPlan::seeded(0xC0FFEE, 3).delay(Duration::from_millis(60)));
    let oracle = FaultPlan::seeded(0xC0FFEE, 3);
    let expect = simulate(&oracle, JOBS);
    let faults = expect.panicked.iter().filter(|&&p| p).count()
        + expect.timed_out.iter().filter(|&&t| t).count()
        + expect.cache_errors as usize;
    assert!(faults > 0, "a one-in-3 seeded plan over 12 jobs must fault");

    let config = ServeConfig {
        exec: ExecBackend::Threads(1),
        cache: Some(Arc::new(FaultyCache::new(
            Arc::new(MemoryCache::new(256)),
            Arc::clone(&plan),
        ))),
        job_timeout: Some(Duration::from_millis(10)),
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let (lines, stats) = serve_lines(&input, &config);

    assert_eq!(lines.len(), JOBS, "every request is answered");
    for k in 0..JOBS {
        if expect.panicked[k] {
            assert!(lines[k].contains("\"kind\":\"internal\""), "{}", lines[k]);
        } else if expect.timed_out[k] {
            assert!(lines[k].contains("\"kind\":\"timeout\""), "{}", lines[k]);
        } else {
            assert_eq!(
                record(&lines[k]).deterministic(),
                expected_records[k].deterministic(),
                "job {k} survived the chaos and must match the fault-free run"
            );
        }
    }
    let panics = expect.panicked.iter().filter(|&&p| p).count() as u64;
    let timeouts = expect.timed_out.iter().filter(|&&t| t).count() as u64;
    assert_eq!(stats.panics, panics);
    assert_eq!(stats.timeouts, timeouts);
    assert_eq!(stats.cache_errors, expect.cache_errors);
    assert_eq!(stats.accepted, JOBS as u64);
    assert_eq!(stats.completed, JOBS as u64, "graceful drain");
    assert_eq!(stats.queue_depth, 0);

    // Replayability: the live plan and the oracle walked identical
    // per-site schedules.
    for site in FaultSite::ALL {
        assert_eq!(
            plan.occurrences(site),
            oracle.occurrences(site),
            "{}",
            site.name()
        );
        assert_eq!(
            plan.injected(site),
            oracle.injected(site),
            "{}",
            site.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Arbitrary explicit panic/delay masks over a 6-job corpus: the
    // daemon answers everything, non-faulted responses stay
    // bit-identical, the counters equal the mask weights, and the
    // queue drains.
    #[test]
    fn chaos_masks_never_lose_a_response(
        panic_bits in proptest::collection::vec(0u8..2, 6),
        delay_bits in proptest::collection::vec(0u8..2, 6),
    ) {
        let panic_mask: Vec<bool> = panic_bits.iter().map(|&b| b == 1).collect();
        let delay_mask: Vec<bool> = delay_bits.iter().map(|&b| b == 1).collect();
        let jobs = panic_mask.len();
        let input = corpus(jobs);
        let expected = baseline(&input);

        let panic_at: Vec<u64> = (0..jobs as u64).filter(|&k| panic_mask[k as usize]).collect();
        let delay_at: Vec<u64> = (0..jobs as u64).filter(|&k| delay_mask[k as usize]).collect();
        let plan = Arc::new(
            FaultPlan::new()
                .fail(FaultSite::WorkerPanic, &panic_at)
                .fail(FaultSite::JobDelay, &delay_at)
                .delay(Duration::from_millis(60)),
        );
        let config = ServeConfig {
            exec: ExecBackend::Threads(1),
            job_timeout: Some(Duration::from_millis(10)),
            fault: Some(Arc::clone(&plan)),
            ..ServeConfig::default()
        };
        let (lines, stats) = serve_lines(&input, &config);

        prop_assert_eq!(lines.len(), jobs, "every request answered");
        let mut panics = 0u64;
        let mut timeouts = 0u64;
        for k in 0..jobs {
            // A panic wins over a delay: the injected panic fires before
            // the solve ever checks its deadline.
            if panic_mask[k] {
                panics += 1;
                prop_assert!(lines[k].contains("\"kind\":\"internal\""), "{}", &lines[k]);
            } else if delay_mask[k] {
                timeouts += 1;
                prop_assert!(lines[k].contains("\"kind\":\"timeout\""), "{}", &lines[k]);
            } else {
                prop_assert_eq!(
                    record(&lines[k]).deterministic(),
                    expected[k].deterministic(),
                    "job {} must be untouched", k
                );
            }
        }
        prop_assert_eq!(stats.panics, panics);
        prop_assert_eq!(stats.timeouts, timeouts);
        prop_assert_eq!(stats.accepted, jobs as u64);
        prop_assert_eq!(stats.completed, jobs as u64, "graceful drain");
        prop_assert_eq!(stats.queue_depth, 0);
    }
}
