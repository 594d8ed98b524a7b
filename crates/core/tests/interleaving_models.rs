//! Interleaving models of the concurrent protocols in `pardp_core`,
//! run under the deterministic checker (`pardp_core::check`).
//!
//! Each model mirrors the *shape* of a real protocol — the serve job
//! queue, the serve regime gate, telemetry sequencing, the serve job
//! tally, the exec pool's poisoned region — using the checker's shim
//! primitives, and asserts the property the real code promises. Further
//! models pin historical near-misses by reintroducing each bug in the
//! model and asserting the checker catches it.

use pardp_core::check::{self, sync::Condvar, sync::Mutex, sync::RwLock, unpoison, Checker};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Print nothing for panics on unnamed (model) threads — expected in
/// the failure-detection regressions — while keeping libtest-thread
/// panics loud.
fn quiet_model_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name().is_some() {
                default(info);
            }
        }));
    });
}

/// The serve job queue, modelled after `serve::Shared`: a bounded
/// `Mutex<VecDeque>` + `Condvar not_empty` + a shutdown flag (kept
/// inside the mutex here; the real `AtomicBool` is always re-checked
/// under the queue lock in the wait loop, so the protocol is the same).
struct QueueModel {
    queue: Mutex<(VecDeque<u64>, bool)>,
    not_empty: Condvar,
    capacity: usize,
}

impl QueueModel {
    fn new(capacity: usize) -> Self {
        QueueModel {
            queue: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// `Shared::submit`: reject when full (overload backpressure) or
    /// shutting down, otherwise enqueue and wake one worker.
    fn submit(&self, job: u64) -> bool {
        let mut q = unpoison(self.queue.lock());
        if q.1 || q.0.len() >= self.capacity {
            return false;
        }
        q.0.push_back(job);
        drop(q);
        self.not_empty.notify_one();
        true
    }

    /// `serve::worker_loop`: pop until shutdown *and* empty — the drain
    /// guarantee is that the flag alone never abandons queued jobs.
    fn worker_pop(&self) -> Option<u64> {
        let mut q = unpoison(self.queue.lock());
        loop {
            if let Some(j) = q.0.pop_front() {
                return Some(j);
            }
            if q.1 {
                return None;
            }
            q = unpoison(self.not_empty.wait(q));
        }
    }

    /// `Shared::begin_shutdown`: set the flag, then wake *every*
    /// blocked worker so the drain can finish.
    fn begin_shutdown(&self, kick: bool) {
        unpoison(self.queue.lock()).1 = true;
        if kick {
            self.not_empty.notify_all();
        }
    }
}

/// Tentpole model 1 — the serve job queue: overload backpressure plus
/// the shutdown-drain guarantee ("no accepted job left unanswered").
#[test]
fn serve_queue_drains_every_accepted_job() {
    let report = Checker::new().seed(0x5e21).run(|| {
        let q = Arc::new(QueueModel::new(2));
        let answered = Arc::new(Mutex::new(Vec::new()));
        let accepted = Arc::new(Mutex::new(Vec::new()));

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = q.clone();
                let accepted = accepted.clone();
                check::thread::spawn(move || {
                    for i in 0..3u64 {
                        let job = p * 10 + i;
                        if q.submit(job) {
                            unpoison(accepted.lock()).push(job);
                        }
                    }
                })
            })
            .collect();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                let answered = answered.clone();
                check::thread::spawn(move || {
                    while let Some(j) = q.worker_pop() {
                        unpoison(answered.lock()).push(j);
                    }
                })
            })
            .collect();

        for p in producers {
            p.join().unwrap();
        }
        q.begin_shutdown(true);
        for w in workers {
            w.join().unwrap();
        }

        let mut answered = unpoison(answered.lock()).clone();
        let mut accepted = unpoison(accepted.lock()).clone();
        answered.sort_unstable();
        accepted.sort_unstable();
        assert_eq!(
            answered, accepted,
            "drain must answer every accepted job exactly once"
        );
    });
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(
        report.distinct >= 1000,
        "expected >= 1000 distinct schedules, got {}",
        report.distinct
    );
}

/// Tentpole model 2 — the regime gate (`serve::Shared::regime`): small
/// jobs share the read side, large jobs take the write side; a large
/// job must never overlap a small one, and a panicking job must release
/// the gate on unwind (the RAII guard inside `catch_unwind`).
#[test]
fn regime_gate_never_overlaps_and_releases_on_unwind() {
    quiet_model_panics();
    let report = Checker::new().seed(0x6a7e).run(|| {
        let gate = Arc::new(RwLock::new(()));
        let small_active = Arc::new(AtomicUsize::new(0));

        let smalls: Vec<_> = (0..2)
            .map(|_| {
                let gate = gate.clone();
                let small_active = small_active.clone();
                check::thread::spawn(move || {
                    let _g = unpoison(gate.read());
                    small_active.fetch_add(1, Ordering::SeqCst);
                    check::yield_now();
                    small_active.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let large = {
            let gate = gate.clone();
            let small_active = small_active.clone();
            check::thread::spawn(move || {
                // Mirrors `run_job`: the gate guard lives inside the
                // catch_unwind closure, so the unwind releases it.
                let _ = check::catch_unwind(|| {
                    let _g = unpoison(gate.write());
                    assert_eq!(
                        small_active.load(Ordering::SeqCst),
                        0,
                        "large job overlapped a small job"
                    );
                    check::yield_now();
                    assert_eq!(small_active.load(Ordering::SeqCst), 0);
                    panic!("large job panics while holding the gate");
                });
            })
        };

        for s in smalls {
            s.join().unwrap();
        }
        large.join().unwrap();
        // The unwind must have released (and poisoned) the write gate;
        // the next job recovers it with unpoison, like the real serve.
        let _g = unpoison(gate.write());
    });
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(
        report.distinct >= 1000,
        "expected >= 1000 distinct schedules, got {}",
        report.distinct
    );
}

/// Tentpole model 3 — telemetry sequencing: `Telemetry::emit` assigns
/// `seq` and delivers under one lock, so the stream is gap-free and
/// in-order even with concurrent emitters.
#[test]
fn telemetry_sequence_is_gap_free_under_concurrent_emitters() {
    let report = Checker::new().seed(0x7e1e).run(|| {
        let stream = Arc::new(Mutex::new((0u64, Vec::new())));
        let emitters: Vec<_> = (0..3)
            .map(|_| {
                let stream = stream.clone();
                check::thread::spawn(move || {
                    for _ in 0..4 {
                        // seq assignment + delivery under one lock —
                        // the invariant the real emit() maintains.
                        let mut s = unpoison(stream.lock());
                        let seq = s.0;
                        s.0 += 1;
                        s.1.push(seq);
                    }
                })
            })
            .collect();
        for e in emitters {
            e.join().unwrap();
        }
        let s = unpoison(stream.lock());
        let expect: Vec<u64> = (0..12).collect();
        assert_eq!(
            s.1, expect,
            "delivered stream must be gap-free and in order"
        );
    });
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(
        report.distinct >= 1000,
        "expected >= 1000 distinct schedules, got {}",
        report.distinct
    );
}

/// The serve job tally, modelled after `serve::Shared`: `submit` ticks
/// `accepted` in the one `Mutex<JobCounts>` while it holds the queue
/// lock, then pushes; a worker pops, then adds `completed`; a stats
/// snapshot copies the tally in one lock hold. The tally is
/// `(accepted, completed)`.
struct TallyModel {
    queue: Mutex<VecDeque<u64>>,
    not_empty: Condvar,
    tally: Mutex<(u64, u64)>,
}

impl TallyModel {
    /// `Shared::submit`; `tick_under_queue` = false ticks `accepted`
    /// only after the queue lock is released — the bug the pin catches.
    fn submit(&self, job: u64, tick_under_queue: bool) {
        let mut q = unpoison(self.queue.lock());
        if tick_under_queue {
            unpoison(self.tally.lock()).0 += 1;
        }
        q.push_back(job);
        drop(q);
        if !tick_under_queue {
            unpoison(self.tally.lock()).0 += 1;
        }
        self.not_empty.notify_one();
    }

    /// `worker_loop` then `run_job`: pop, then count the job completed.
    fn complete_one(&self) {
        let mut q = unpoison(self.queue.lock());
        while q.pop_front().is_none() {
            q = unpoison(self.not_empty.wait(q));
        }
        drop(q);
        unpoison(self.tally.lock()).1 += 1;
    }
}

/// A submitter admits two jobs, one worker completes both and an
/// observer snapshots the tally twice; every snapshot must read
/// `completed <= accepted`.
fn tally_model(tick_under_queue: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let m = Arc::new(TallyModel {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            tally: Mutex::new((0, 0)),
        });
        let submitter = {
            let m = m.clone();
            check::thread::spawn(move || {
                for job in 0..2 {
                    m.submit(job, tick_under_queue);
                }
            })
        };
        let worker = {
            let m = m.clone();
            check::thread::spawn(move || {
                for _ in 0..2 {
                    m.complete_one();
                }
            })
        };
        let observer = {
            let m = m.clone();
            check::thread::spawn(move || {
                for _ in 0..2 {
                    let (accepted, completed) = *unpoison(m.tally.lock());
                    assert!(
                        completed <= accepted,
                        "snapshot read completed {completed} ahead of accepted {accepted}"
                    );
                }
            })
        };
        for t in [submitter, worker, observer] {
            t.join().unwrap();
        }
        assert_eq!(*unpoison(m.tally.lock()), (2, 2));
    }
}

/// Model 5 — the serve job tally: because `accepted` is ticked
/// before the push, no snapshot reads `completed` ahead of `accepted`,
/// and the drained tally counts every job once.
#[test]
fn serve_tally_never_reads_completed_ahead_of_accepted() {
    quiet_model_panics();
    let report = Checker::new().seed(0x7a11).run(tally_model(true));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(
        report.distinct >= 100,
        "expected >= 100 distinct schedules, got {}",
        report.distinct
    );
}

/// Regression pin: ticking `accepted` after the queue lock is released
/// lets a worker pop and complete the job first, so the checker must
/// find a snapshot that reads `completed > accepted`.
#[test]
fn regression_accepted_ticked_after_push_is_caught() {
    quiet_model_panics();
    let report = Checker::new()
        .seed(0x7a11)
        .schedules(512)
        .run(tally_model(false));
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.messages.iter().any(|m| m.contains("ahead of accepted"))),
        "a late accepted tick must be caught: {report:?}"
    );
}

/// Regression pin (PR 6 near-miss, accept-loop FIN reaping): shutdown
/// must kick blocked readers/workers loose (`begin_shutdown` does
/// `notify_all` after setting the flag). Setting the flag without the
/// kick deadlocks any schedule where a worker parked first — the
/// checker must find such a schedule.
#[test]
fn regression_shutdown_without_kick_deadlocks() {
    quiet_model_panics();
    let report = Checker::new().seed(0xf19).schedules(256).run(|| {
        let q = Arc::new(QueueModel::new(2));
        let worker = {
            let q = q.clone();
            check::thread::spawn(move || while q.worker_pop().is_some() {})
        };
        q.begin_shutdown(false); // the bug: no notify_all
        let _ = worker.join();
    });
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.messages.iter().any(|m| m.contains("deadlock"))),
        "flag-without-kick must deadlock in some schedule: {report:?}"
    );
}

/// Regression pin (PR 8 near-miss, regime-gate unwind release): holding
/// the gate through a manual flag instead of an RAII guard leaks the
/// gate when the job panics, and every later large job deadlocks.
#[test]
fn regression_gate_leaked_across_unwind_deadlocks() {
    quiet_model_panics();
    let report = Checker::new().seed(0x6a7f).schedules(64).run(|| {
        let gate = Arc::new(Mutex::new(false)); // manual flag, no RAII
        let panicking_job = {
            let gate = gate.clone();
            check::thread::spawn(move || {
                let _ = check::catch_unwind(|| {
                    *unpoison(gate.lock()) = true; // acquire
                    panic!("job panics; the manual flag is never cleared");
                    // the bug: release (`*gate = false`) is unreachable
                });
            })
        };
        panicking_job.join().unwrap();
        // The next large job spins on the leaked flag forever.
        loop {
            if !*unpoison(gate.lock()) {
                break;
            }
            check::yield_now();
        }
    });
    assert!(
        !report.failures.is_empty(),
        "leaked gate must be caught (step budget / livelock): {report:?}"
    );
}

/// Regression pin (PR 8 near-miss, poisoned-lock recovery): after a
/// caught panic poisons a shared lock, recovery must go through
/// `unpoison`; a raw `.lock().unwrap()` panics under the model exactly
/// like the real lint forbids.
#[test]
fn regression_poisoned_lock_without_unpoison_fails() {
    quiet_model_panics();
    let poison_then_lock = |use_unpoison: bool| {
        move || {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = m.clone();
            let h = check::thread::spawn(move || {
                let _ = check::catch_unwind(|| {
                    let _g = unpoison(m2.lock());
                    panic!("panic while holding the shared lock");
                });
            });
            h.join().unwrap();
            if use_unpoison {
                *unpoison(m.lock()) += 1; // the sanctioned recovery
            } else {
                *m.lock().unwrap() += 1; // the bug the lint forbids
            }
        }
    };
    let fixed = Checker::new()
        .seed(0xdead)
        .schedules(64)
        .run(poison_then_lock(true));
    assert!(fixed.failures.is_empty(), "{:?}", fixed.failures);
    let buggy = Checker::new()
        .seed(0xdead)
        .schedules(64)
        .run(poison_then_lock(false));
    // Every schedule poisons the lock, so every raw unwrap fails (the
    // report caps recorded failures at 16).
    assert_eq!(buggy.failures.len(), 16, "{buggy:?}");
    assert!(
        buggy
            .failures
            .iter()
            .all(|f| f.messages.iter().any(|m| m.contains("Poisoned"))),
        "failures must be the poisoned-lock unwrap: {buggy:?}"
    );
}

/// A parallel region of the exec pool, modelled after `exec::pool`'s
/// `Job::help` / `Job::wait` / `run_blocks`: participants claim blocks
/// from a shared counter, a panicking block keeps its payload only if
/// it is the first, the last finisher signals completion, and the
/// submitter re-raises the stored payload. Blocks 0 and 2 panic with
/// different payloads.
struct RegionModel {
    /// Next unclaimed block (an atomic `fetch_add` in the pool).
    next: Mutex<usize>,
    blocks: usize,
    /// Finished blocks (the pool's `AcqRel` completion counter).
    finished: Mutex<usize>,
    /// Block bodies that panicked.
    panicked: AtomicUsize,
    /// The first panic payload.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl RegionModel {
    fn new(blocks: usize) -> Self {
        RegionModel {
            next: Mutex::new(0),
            blocks,
            finished: Mutex::new(0),
            panicked: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    fn help(&self) {
        loop {
            let b = {
                let mut next = unpoison(self.next.lock());
                *next += 1;
                *next - 1
            };
            if b >= self.blocks {
                return;
            }
            let body = check::catch_unwind(|| match b {
                0 => panic!("block 0"),
                2 => panic!("block 2"),
                _ => check::yield_now(),
            });
            if let Err(payload) = body {
                self.panicked.fetch_add(1, Ordering::SeqCst);
                unpoison(self.panic.lock()).get_or_insert(payload);
            }
            let finished = {
                let mut f = unpoison(self.finished.lock());
                *f += 1;
                *f
            };
            if finished == self.blocks {
                *unpoison(self.done.lock()) = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut done = unpoison(self.done.lock());
        while !*done {
            done = unpoison(self.done_cv.wait(done));
        }
    }
}

/// Run one region with two pool workers and the participating
/// submitter, then re-raise like `run_blocks`: exactly one of the two
/// payloads, only after every block has finished. `drain` = false drops
/// the completion wait — the bug the model must catch.
fn poisoned_region(drain: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let job = Arc::new(RegionModel::new(3));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let job = job.clone();
                check::thread::spawn(move || job.help())
            })
            .collect();
        job.help();
        if drain {
            job.wait();
        }
        assert_eq!(
            *unpoison(job.finished.lock()),
            job.blocks,
            "re-raised before every block finished"
        );
        assert_eq!(job.panicked.load(Ordering::SeqCst), 2);
        let payload = unpoison(job.panic.lock()).take().expect("a stored payload");
        let raised = check::catch_unwind(move || -> () { std::panic::resume_unwind(payload) })
            .expect_err("the payload is re-raised");
        let message = *raised.downcast_ref::<&str>().expect("a &str payload");
        assert!(message == "block 0" || message == "block 2", "{message}");
        for w in workers {
            w.join().unwrap();
        }
    }
}

/// Tentpole model 4 — the exec pool's poisoned region: when two blocks
/// panic, the submitter re-raises exactly one original payload, only
/// after the region has drained, and no schedule deadlocks.
#[test]
fn pool_region_reraises_one_payload_after_draining() {
    quiet_model_panics();
    let report = Checker::new().seed(0xb10c).run(poisoned_region(true));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(
        report.distinct >= 100,
        "expected >= 100 distinct schedules, got {}",
        report.distinct
    );
}

/// Regression pin: re-raising as soon as the submitter runs out of
/// blocks to claim — without waiting for the region to drain — can
/// observe a block still running on a worker. The checker must find
/// such a schedule.
#[test]
fn regression_reraise_before_drain_is_caught() {
    quiet_model_panics();
    let report = Checker::new()
        .seed(0xb10c)
        .schedules(256)
        .run(poisoned_region(false));
    assert!(
        !report.failures.is_empty(),
        "an undrained re-raise must be caught: {report:?}"
    );
}

/// Seed determinism on a real model (the acceptance criterion: same
/// seed ⇒ same schedules), plus replayability of individual schedules.
#[test]
fn checker_is_seed_deterministic_on_the_queue_model() {
    let model = || {
        let q = Arc::new(QueueModel::new(1));
        let w = {
            let q = q.clone();
            check::thread::spawn(move || while q.worker_pop().is_some() {})
        };
        q.submit(1);
        q.submit(2);
        q.begin_shutdown(true);
        w.join().unwrap();
    };
    let a = Checker::new().seed(99).schedules(128).run(model);
    let b = Checker::new().seed(99).schedules(128).run(model);
    assert_eq!(
        a.digest, b.digest,
        "same seed must reproduce the same schedules"
    );
    assert!(a.failures.is_empty(), "{:?}", a.failures);
}
