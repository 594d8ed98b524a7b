//! Deterministic interleaving checker — a vendored, std-only,
//! shuttle-style model scheduler.
//!
//! The parallel substrate of this crate (the [`crate::exec`] pool, the
//! [`crate::serve`] job queue and regime gate, the [`crate::telemetry`]
//! event stream) makes ordering promises that example-based tests can
//! only sample at the mercy of the OS scheduler. This module removes
//! the mercy: a model of the concurrent protocol is written against the
//! shim primitives below ([`thread::spawn`], [`sync::Mutex`],
//! [`sync::Condvar`], [`sync::RwLock`]), and the [`Checker`] runs it
//! under a cooperative scheduler that
//!
//! * serializes execution — exactly one model thread runs at a time, so
//!   every run is a *schedule* (a sequence of thread choices),
//! * makes every synchronization operation a scheduling point,
//! * drives all choices from a seeded [splitmix64] generator, so a
//!   schedule is **replayable from its seed** exactly like a
//!   [`crate::fault::FaultPlan`],
//! * detects deadlocks (no runnable thread while unfinished threads
//!   remain), lost wakeups (a special case of the former), livelocks
//!   (step budget), model panics, and poisoned-lock misuse.
//!
//! The primitives mirror `std::sync` closely — including lock
//! *poisoning*, so the repo's single sanctioned recovery idiom
//! ([`crate::fault::unpoison`]) has a model twin ([`unpoison`]) and a
//! model that reintroduces a raw `.lock().unwrap()` after a panic fails
//! under the checker.
//!
//! ```
//! use pardp_core::check::{self, Checker};
//!
//! let report = Checker::new().seed(7).schedules(64).run(|| {
//!     let n = std::sync::Arc::new(check::sync::Mutex::new(0u32));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = n.clone();
//!             check::thread::spawn(move || {
//!                 *check::unpoison(n.lock()) += 1;
//!             })
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join().unwrap();
//!     }
//!     assert_eq!(*check::unpoison(n.lock()), 2);
//! });
//! assert!(report.failures.is_empty(), "{:?}", report.failures);
//! assert!(report.distinct > 1);
//! ```
//!
//! The checker runs model threads on real OS threads but parks all of
//! them except the chosen one, so the model code is genuinely
//! sequential: no data race can occur *inside the checker*; what is
//! being checked is the protocol logic (who waits for what, who wakes
//! whom, what an unwind releases), which is exactly the layer where the
//! near-misses of PRs 6–8 lived.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::any::Any;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use crate::spec::CanonicalHasher;

/// Golden-ratio increment of the splitmix64 generator.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 — the schedule-choice generator. Tiny, seedable, and
/// identical on every platform, which is all the checker needs.
#[derive(Clone, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n as u64) as usize
    }
}

/// Derive the per-schedule seed from the master seed and the schedule
/// index; exposed through [`Failure::seed`] so one failing schedule can
/// be replayed in isolation with [`Checker::replay`].
fn schedule_seed(master: u64, index: usize) -> u64 {
    SplitMix::new(master ^ (index as u64 + 1).wrapping_mul(GOLDEN)).next()
}

/// Teardown sentinel: when a schedule is aborted (deadlock, step
/// budget), parked model threads are unwound with this payload. The
/// [`catch_unwind`] shim re-throws it so model-level `catch_unwind`
/// cannot swallow a teardown.
struct Abort;

type Tid = usize;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockOn {
    /// Waiting to acquire mutex `.0`.
    Lock(usize),
    /// Waiting to acquire the read side of rwlock `.0`.
    RwRead(usize),
    /// Waiting to acquire the write side of rwlock `.0`.
    RwWrite(usize),
    /// Parked on condvar `.0`; will re-acquire mutex `.1` once
    /// notified.
    CondWait(usize, usize),
    /// Waiting for thread `.0` to finish.
    Join(Tid),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Run {
    Runnable,
    Blocked(BlockOn),
    Finished,
}

#[derive(Clone, Debug)]
enum Res {
    Lock {
        locked: bool,
        poisoned: bool,
    },
    Rw {
        readers: usize,
        writer: bool,
        poisoned: bool,
    },
    Cond,
}

struct SchedState {
    threads: Vec<Run>,
    active: Option<Tid>,
    res: Vec<Res>,
    rng: SplitMix,
    trace: CanonicalHasher,
    steps: usize,
    max_steps: usize,
    unfinished: usize,
    abort: bool,
    failures: Vec<String>,
}

struct Scheduler {
    st: StdMutex<SchedState>,
    cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Scheduler>, Tid)>> =
        const { std::cell::RefCell::new(None) };
}

fn ctx() -> (Arc<Scheduler>, Tid) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("check::* primitives may only be used inside Checker::run")
    })
}

impl Scheduler {
    fn new(seed: u64, max_steps: usize) -> Arc<Self> {
        Arc::new(Scheduler {
            st: StdMutex::new(SchedState {
                threads: Vec::new(),
                active: None,
                res: Vec::new(),
                rng: SplitMix::new(seed),
                trace: CanonicalHasher::new(),
                steps: 0,
                max_steps,
                unfinished: 0,
                abort: false,
                failures: Vec::new(),
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        })
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        // The scheduler's own mutex is never poisoned in a healthy run:
        // every model panic is caught at the thread top wrapper before
        // it can unwind through a held state guard. Recover anyway so a
        // checker bug degrades into a test failure, not a poison
        // cascade.
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mark every blocked thread whose resource became available as
    /// runnable again. Called after each release / finish / notify.
    fn recompute(st: &mut SchedState) {
        for t in 0..st.threads.len() {
            let Run::Blocked(b) = st.threads[t] else {
                continue;
            };
            let wake = match b {
                BlockOn::Lock(m) => matches!(st.res[m], Res::Lock { locked: false, .. }),
                BlockOn::RwRead(r) => matches!(st.res[r], Res::Rw { writer: false, .. }),
                BlockOn::RwWrite(r) => {
                    matches!(
                        st.res[r],
                        Res::Rw {
                            readers: 0,
                            writer: false,
                            ..
                        }
                    )
                }
                BlockOn::CondWait(..) => false,
                BlockOn::Join(other) => matches!(st.threads[other], Run::Finished),
            };
            if wake {
                st.threads[t] = Run::Runnable;
            }
        }
    }

    /// The single scheduling decision: pick the next thread to run
    /// among the runnable ones, fold the choice into the trace hash,
    /// and wake it. Detects deadlock and the step budget.
    fn pick(&self, st: &mut SchedState) {
        let runnable: Vec<Tid> = (0..st.threads.len())
            .filter(|&t| matches!(st.threads[t], Run::Runnable))
            .collect();
        if runnable.is_empty() {
            if st.unfinished > 0 {
                let stuck: Vec<String> = (0..st.threads.len())
                    .filter_map(|t| match st.threads[t] {
                        Run::Blocked(b) => Some(format!("t{t} blocked on {b:?}")),
                        _ => None,
                    })
                    .collect();
                st.failures.push(format!("deadlock: {}", stuck.join(", ")));
                st.abort = true;
            }
            st.active = None;
            self.cv.notify_all();
            return;
        }
        let choice = runnable[st.rng.below(runnable.len())];
        st.active = Some(choice);
        st.trace.write_u64(choice as u64);
        st.steps += 1;
        if st.steps > st.max_steps {
            st.failures.push(format!(
                "schedule exceeded {} steps (livelock?)",
                st.max_steps
            ));
            st.abort = true;
        }
        self.cv.notify_all();
    }

    /// Park until this thread is the active one. Panics with the
    /// [`Abort`] sentinel when the schedule has been torn down.
    fn wait_for_turn<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, SchedState>,
        me: Tid,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        loop {
            if st.abort {
                drop(st);
                panic::panic_any(Abort);
            }
            if st.active == Some(me) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A voluntary scheduling point: the running thread stays runnable
    /// but the scheduler re-decides who goes next (possibly the same
    /// thread).
    fn yield_now(&self, me: Tid) {
        let mut st = self.lock_state();
        debug_assert_eq!(st.active, Some(me));
        self.pick(&mut st);
        drop(self.wait_for_turn(st, me));
    }

    /// Block the running thread on `b` and hand control to the
    /// scheduler; returns once the thread is scheduled again.
    fn block_on(&self, me: Tid, mut st: std::sync::MutexGuard<'_, SchedState>, b: BlockOn) {
        st.threads[me] = Run::Blocked(b);
        self.pick(&mut st);
        let mut st = self.wait_for_turn(st, me);
        st.threads[me] = Run::Runnable;
    }

    fn alloc(&self, r: Res) -> usize {
        let mut st = self.lock_state();
        st.res.push(r);
        st.res.len() - 1
    }

    /// Acquire model mutex `m`; returns whether it was poisoned.
    fn acquire_lock(&self, me: Tid, m: usize) -> bool {
        self.yield_now(me);
        loop {
            let mut st = self.lock_state();
            if let Res::Lock { locked, poisoned } = &mut st.res[m] {
                if !*locked {
                    *locked = true;
                    return *poisoned;
                }
            }
            self.block_on(me, st, BlockOn::Lock(m));
        }
    }

    /// Release model mutex `m`. `poison` marks the lock poisoned (the
    /// guard was dropped during a panic); `quiet` skips the scheduling
    /// point (unwind/teardown paths must never block or re-panic).
    fn release_lock(&self, me: Tid, m: usize, poison: bool, quiet: bool) {
        let mut st = self.lock_state();
        if let Res::Lock { locked, poisoned } = &mut st.res[m] {
            *locked = false;
            *poisoned |= poison;
        }
        Self::recompute(&mut st);
        if quiet || st.abort {
            self.cv.notify_all();
            return;
        }
        drop(st);
        self.yield_now(me);
    }

    fn acquire_read(&self, me: Tid, r: usize) -> bool {
        self.yield_now(me);
        loop {
            let mut st = self.lock_state();
            if let Res::Rw {
                readers,
                writer,
                poisoned,
            } = &mut st.res[r]
            {
                if !*writer {
                    *readers += 1;
                    return *poisoned;
                }
            }
            self.block_on(me, st, BlockOn::RwRead(r));
        }
    }

    fn acquire_write(&self, me: Tid, r: usize) -> bool {
        self.yield_now(me);
        loop {
            let mut st = self.lock_state();
            if let Res::Rw {
                readers,
                writer,
                poisoned,
            } = &mut st.res[r]
            {
                if *readers == 0 && !*writer {
                    *writer = true;
                    return *poisoned;
                }
            }
            self.block_on(me, st, BlockOn::RwWrite(r));
        }
    }

    fn release_read(&self, me: Tid, r: usize, quiet: bool) {
        let mut st = self.lock_state();
        if let Res::Rw { readers, .. } = &mut st.res[r] {
            *readers -= 1;
        }
        Self::recompute(&mut st);
        if quiet || st.abort {
            self.cv.notify_all();
            return;
        }
        drop(st);
        self.yield_now(me);
    }

    fn release_write(&self, me: Tid, r: usize, poison: bool, quiet: bool) {
        let mut st = self.lock_state();
        if let Res::Rw {
            writer, poisoned, ..
        } = &mut st.res[r]
        {
            *writer = false;
            *poisoned |= poison;
        }
        Self::recompute(&mut st);
        if quiet || st.abort {
            self.cv.notify_all();
            return;
        }
        drop(st);
        self.yield_now(me);
    }

    /// Atomically release mutex `m` and park on condvar `c`; once
    /// notified, re-acquire `m`. Returns whether `m` was poisoned at
    /// re-acquisition.
    fn cond_wait(&self, me: Tid, c: usize, m: usize) -> bool {
        {
            let mut st = self.lock_state();
            if let Res::Lock { locked, .. } = &mut st.res[m] {
                *locked = false;
            }
            Self::recompute(&mut st);
            self.block_on(me, st, BlockOn::CondWait(c, m));
        }
        // Notified: contend for the mutex again like any other waiter.
        loop {
            let mut st = self.lock_state();
            if let Res::Lock { locked, poisoned } = &mut st.res[m] {
                if !*locked {
                    *locked = true;
                    return *poisoned;
                }
            }
            self.block_on(me, st, BlockOn::Lock(m));
        }
    }

    /// Wake waiters of condvar `c`: one (chosen by the schedule rng) or
    /// all. A woken waiter transitions to contending for its mutex.
    fn notify(&self, c: usize, all: bool) {
        let mut st = self.lock_state();
        let waiters: Vec<Tid> = (0..st.threads.len())
            .filter(|&t| matches!(st.threads[t], Run::Blocked(BlockOn::CondWait(cc, _)) if cc == c))
            .collect();
        if waiters.is_empty() {
            return;
        }
        let woken: Vec<Tid> = if all {
            waiters
        } else {
            let i = st.rng.below(waiters.len());
            st.trace.write_u64(0x6e6f_7469_6679 ^ waiters[i] as u64);
            vec![waiters[i]]
        };
        for t in woken {
            if let Run::Blocked(BlockOn::CondWait(_, m)) = st.threads[t] {
                st.threads[t] = Run::Blocked(BlockOn::Lock(m));
            }
        }
        Self::recompute(&mut st);
        self.cv.notify_all();
    }

    /// Thread exit protocol: mark finished, wake joiners, hand off.
    fn finish(&self, me: Tid, quiet: bool) {
        let mut st = self.lock_state();
        st.threads[me] = Run::Finished;
        st.unfinished -= 1;
        Self::recompute(&mut st);
        if quiet || st.abort {
            self.cv.notify_all();
            return;
        }
        st.active = None;
        self.pick(&mut st);
    }

    fn record_failure(&self, msg: String) {
        let mut st = self.lock_state();
        if st.failures.len() < 32 {
            st.failures.push(msg);
        }
    }
}

/// Extract a printable message from a panic payload.
fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Launch `body` as a model thread with identity `id` on a real OS
/// thread that first parks until the scheduler picks it.
fn launch(sched: &Arc<Scheduler>, id: Tid, body: impl FnOnce() + Send + 'static) {
    let sched2 = Arc::clone(sched);
    let os = std::thread::spawn(move || {
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched2), id)));
        {
            let st = sched2.lock_state();
            // Parking before first execution keeps spawn deterministic:
            // the child runs only when the schedule says so. A teardown
            // while parked unwinds with `Abort`, caught right below.
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                drop(sched2.wait_for_turn(st, id));
            }));
            if r.is_err() {
                sched2.finish(id, true);
                return;
            }
        }
        match panic::catch_unwind(AssertUnwindSafe(body)) {
            Ok(()) => sched2.finish(id, false),
            Err(p) if p.is::<Abort>() => sched2.finish(id, true),
            Err(p) => {
                sched2.record_failure(format!("t{id} panicked: {}", panic_message(p.as_ref())));
                sched2.finish(id, false);
            }
        }
    });
    sched
        .handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(os);
}

/// One failing schedule of a [`Checker`] run.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Index of the failing schedule within the run.
    pub schedule: usize,
    /// The schedule's own seed — replay it with [`Checker::replay`].
    pub seed: u64,
    /// What went wrong (deadlock dump, panic message, step budget).
    pub messages: Vec<String>,
}

/// The outcome of a [`Checker`] run.
#[derive(Clone, Debug)]
pub struct Report {
    /// How many schedules were executed.
    pub schedules: usize,
    /// How many *distinct* interleavings were observed (schedules are
    /// fingerprinted by the [`CanonicalHasher`] FNV-1a hash of their
    /// thread-choice trace).
    pub distinct: usize,
    /// Order-sensitive digest of every schedule trace — two runs with
    /// the same seed produce the same digest (seed determinism).
    pub digest: u64,
    /// Every failing schedule, in execution order.
    pub failures: Vec<Failure>,
}

/// The deterministic interleaving checker. Construct, configure the
/// seed / schedule count / step budget, then [`run`](Checker::run) a
/// model closure built from the [`thread`] and [`sync`] shims.
#[derive(Clone, Debug)]
pub struct Checker {
    seed: u64,
    schedules: usize,
    max_steps: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

impl Checker {
    /// A checker with the default seed (0), 2048 schedules, and a
    /// 20 000-step budget per schedule.
    pub fn new() -> Self {
        Checker {
            seed: 0,
            schedules: 2048,
            max_steps: 20_000,
        }
    }

    /// Set the master seed (per-schedule seeds derive from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set how many schedules to explore.
    pub fn schedules(mut self, n: usize) -> Self {
        self.schedules = n.max(1);
        self
    }

    /// Set the per-schedule step budget (exceeding it is a failure).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n.max(1);
        self
    }

    /// Explore `schedules` interleavings of `model` and report.
    ///
    /// The model closure runs once per schedule on a fresh scheduler;
    /// it must create all of its shared state (shim mutexes, spawned
    /// threads) inside the closure.
    pub fn run<F>(&self, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let model = Arc::new(model);
        let mut seen = HashSet::new();
        let mut digest = CanonicalHasher::new();
        let mut failures = Vec::new();
        for i in 0..self.schedules {
            let seed = schedule_seed(self.seed, i);
            let (trace, msgs) = run_one(seed, self.max_steps, Arc::clone(&model));
            seen.insert(trace);
            digest.write_u64(trace);
            if !msgs.is_empty() && failures.len() < 16 {
                failures.push(Failure {
                    schedule: i,
                    seed,
                    messages: msgs,
                });
            }
        }
        Report {
            schedules: self.schedules,
            distinct: seen.len(),
            digest: digest.finish(),
            failures,
        }
    }

    /// Replay a single schedule from a [`Failure::seed`].
    pub fn replay<F>(&self, seed: u64, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let (trace, msgs) = run_one(seed, self.max_steps, Arc::new(model));
        let mut digest = CanonicalHasher::new();
        digest.write_u64(trace);
        Report {
            schedules: 1,
            distinct: 1,
            digest: digest.finish(),
            failures: if msgs.is_empty() {
                Vec::new()
            } else {
                vec![Failure {
                    schedule: 0,
                    seed,
                    messages: msgs,
                }]
            },
        }
    }
}

/// Execute one schedule; returns (trace hash, failure messages).
fn run_one<F>(seed: u64, max_steps: usize, model: Arc<F>) -> (u64, Vec<String>)
where
    F: Fn() + Send + Sync + 'static,
{
    let sched = Scheduler::new(seed, max_steps);
    {
        let mut st = sched.lock_state();
        st.threads.push(Run::Runnable);
        st.unfinished = 1;
        st.active = Some(0);
        st.trace.write_u64(0);
    }
    launch(&sched, 0, move || model());
    // Join every OS thread the schedule spawned (the vector grows while
    // model threads run, so drain until it stays empty).
    loop {
        let hs: Vec<_> = {
            let mut h = sched.handles.lock().unwrap_or_else(|e| e.into_inner());
            h.drain(..).collect()
        };
        if hs.is_empty() {
            break;
        }
        for h in hs {
            let _ = h.join();
        }
    }
    let st = sched.lock_state();
    (st.trace.finish(), st.failures.clone())
}

/// A lock was poisoned: some thread panicked while holding it. Mirrors
/// `std::sync::PoisonError`; recover deliberately with [`unpoison`].
pub struct Poisoned<G>(G);

impl<G> std::fmt::Debug for Poisoned<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Poisoned { .. }")
    }
}

impl<G> Poisoned<G> {
    /// Recover the guard despite the poison (the model equivalent of
    /// `PoisonError::into_inner`).
    pub fn into_inner(self) -> G {
        self.0
    }
}

/// The model twin of [`crate::fault::unpoison`]: the single sanctioned
/// poisoned-lock recovery. Models that call `.lock().unwrap()` instead
/// panic under the checker whenever a schedule poisons the lock first —
/// which is exactly the regression the real lint rule pins.
pub fn unpoison<G>(r: Result<G, Poisoned<G>>) -> G {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// `catch_unwind` for model code: like [`std::panic::catch_unwind`] but
/// re-throws the checker's internal teardown payload so a model cannot
/// swallow a schedule abort.
pub fn catch_unwind<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Err(p) if p.is::<Abort>() => panic::resume_unwind(p),
        other => other,
    }
}

/// A voluntary scheduling point, for modelling racy *non*-synchronized
/// steps (e.g. work between two lock regions).
pub fn yield_now() {
    let (sched, me) = ctx();
    sched.yield_now(me);
}

/// Model threads: [`spawn`](thread::spawn) and
/// [`JoinHandle`](thread::JoinHandle), mirroring `std::thread`.
pub mod thread {
    use super::*;

    /// Handle to a model thread; join it to retrieve the closure's
    /// return value (or the panic message if the thread panicked).
    pub struct JoinHandle<T> {
        id: Tid,
        result: Arc<StdMutex<Option<Result<T, String>>>>,
    }

    /// Spawn a model thread. The checker registers it immediately but
    /// only runs it when a schedule picks it.
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (sched, _me) = ctx();
        let id = {
            let mut st = sched.lock_state();
            st.threads.push(Run::Runnable);
            st.unfinished += 1;
            st.threads.len() - 1
        };
        let result = Arc::new(StdMutex::new(None));
        let slot = Arc::clone(&result);
        launch(&sched, id, move || {
            // Propagate panics to both the joiner (like std) and the
            // schedule failure list (via the launch wrapper), by
            // catching here, recording, and re-panicking.
            match super::catch_unwind(f) {
                Ok(v) => *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(v)),
                Err(p) => {
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) =
                        Some(Err(panic_message(p.as_ref())));
                    panic::resume_unwind(p);
                }
            }
        });
        JoinHandle { id, result }
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish; `Err` carries the panic
        /// message if it panicked (mirroring `std`'s `Result`).
        pub fn join(self) -> Result<T, String> {
            let (sched, me) = ctx();
            sched.yield_now(me);
            loop {
                let st = sched.lock_state();
                if matches!(st.threads[self.id], Run::Finished) {
                    break;
                }
                sched.block_on(me, st, BlockOn::Join(self.id));
            }
            self.result
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .unwrap_or_else(|| Err("thread torn down before finishing".into()))
        }
    }
}

/// Model synchronization primitives: [`Mutex`](sync::Mutex),
/// [`Condvar`](sync::Condvar) and [`RwLock`](sync::RwLock), mirroring
/// `std::sync` including poisoning.
pub mod sync {
    use super::*;
    use std::ops::{Deref, DerefMut};

    /// A model mutex. Every `lock` is a scheduling point; dropping the
    /// guard during a panic poisons the lock, exactly like `std`.
    pub struct Mutex<T> {
        id: usize,
        sched: Arc<Scheduler>,
        data: StdMutex<T>,
    }

    /// RAII guard for [`Mutex`]; releasing it is a scheduling point.
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Create a model mutex (must run inside [`Checker::run`]).
        #[allow(clippy::new_ret_no_self)]
        pub fn new(value: T) -> Self {
            let (sched, _) = ctx();
            let id = sched.alloc(Res::Lock {
                locked: false,
                poisoned: false,
            });
            Mutex {
                id,
                sched,
                data: StdMutex::new(value),
            }
        }

        /// Acquire the lock; `Err` means it is poisoned.
        pub fn lock(&self) -> Result<MutexGuard<'_, T>, Poisoned<MutexGuard<'_, T>>> {
            let (_, me) = ctx();
            let poisoned = self.sched.acquire_lock(me, self.id);
            let inner = self.data.lock().unwrap_or_else(|e| e.into_inner());
            let guard = MutexGuard {
                lock: self,
                inner: Some(inner),
            };
            if poisoned {
                Err(Poisoned(guard))
            } else {
                Ok(guard)
            }
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard in wait transition")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard in wait transition")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.take().is_none() {
                // Consumed by Condvar::wait — the model release already
                // happened there.
                return;
            }
            let panicking = std::thread::panicking();
            let (_, me) = ctx();
            self.lock
                .sched
                .release_lock(me, self.lock.id, panicking, panicking);
        }
    }

    /// A model condvar. `notify_one` picks the woken waiter with the
    /// schedule rng, so wake order is part of the explored space.
    pub struct Condvar {
        id: usize,
        sched: Arc<Scheduler>,
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl Condvar {
        /// Create a model condvar (must run inside [`Checker::run`]).
        pub fn new() -> Self {
            let (sched, _) = ctx();
            let id = sched.alloc(Res::Cond);
            Condvar { id, sched }
        }

        /// Atomically release the guard's mutex and park; re-acquires
        /// on wake. `Err` means the mutex was poisoned meanwhile.
        pub fn wait<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
        ) -> Result<MutexGuard<'a, T>, Poisoned<MutexGuard<'a, T>>> {
            let lock = guard.lock;
            // Consume the std guard; the model release + park + re-
            // acquire is one atomic protocol step in `cond_wait`.
            guard.inner.take();
            drop(guard);
            let (_, me) = ctx();
            let poisoned = self.sched.cond_wait(me, self.id, lock.id);
            let inner = lock.data.lock().unwrap_or_else(|e| e.into_inner());
            let guard = MutexGuard {
                lock,
                inner: Some(inner),
            };
            if poisoned {
                Err(Poisoned(guard))
            } else {
                Ok(guard)
            }
        }

        /// Wake one waiter (chosen by the schedule rng).
        pub fn notify_one(&self) {
            self.sched.notify(self.id, false);
        }

        /// Wake every waiter.
        pub fn notify_all(&self) {
            self.sched.notify(self.id, true);
        }
    }

    /// A model reader-writer lock (the serve *regime gate* shape:
    /// small jobs share the read side, large jobs take the write side).
    pub struct RwLock<T> {
        id: usize,
        sched: Arc<Scheduler>,
        data: std::sync::RwLock<T>,
    }

    /// Shared-read guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T> {
        lock: &'a RwLock<T>,
        inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    }

    /// Exclusive-write guard for [`RwLock`]; dropping it during a
    /// panic poisons the lock (like `std`, only writers poison).
    pub struct RwLockWriteGuard<'a, T> {
        lock: &'a RwLock<T>,
        inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    }

    impl<T> RwLock<T> {
        /// Create a model rwlock (must run inside [`Checker::run`]).
        pub fn new(value: T) -> Self {
            let (sched, _) = ctx();
            let id = sched.alloc(Res::Rw {
                readers: 0,
                writer: false,
                poisoned: false,
            });
            RwLock {
                id,
                sched,
                data: std::sync::RwLock::new(value),
            }
        }

        /// Acquire a shared read guard; `Err` means poisoned.
        pub fn read(&self) -> Result<RwLockReadGuard<'_, T>, Poisoned<RwLockReadGuard<'_, T>>> {
            let (_, me) = ctx();
            let poisoned = self.sched.acquire_read(me, self.id);
            let inner = self.data.read().unwrap_or_else(|e| e.into_inner());
            let guard = RwLockReadGuard {
                lock: self,
                inner: Some(inner),
            };
            if poisoned {
                Err(Poisoned(guard))
            } else {
                Ok(guard)
            }
        }

        /// Acquire the exclusive write guard; `Err` means poisoned.
        pub fn write(&self) -> Result<RwLockWriteGuard<'_, T>, Poisoned<RwLockWriteGuard<'_, T>>> {
            let (_, me) = ctx();
            let poisoned = self.sched.acquire_write(me, self.id);
            let inner = self.data.write().unwrap_or_else(|e| e.into_inner());
            let guard = RwLockWriteGuard {
                lock: self,
                inner: Some(inner),
            };
            if poisoned {
                Err(Poisoned(guard))
            } else {
                Ok(guard)
            }
        }
    }

    impl<T> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("read guard present")
        }
    }

    impl<T> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            self.inner.take();
            let panicking = std::thread::panicking();
            let (_, me) = ctx();
            self.lock.sched.release_read(me, self.lock.id, panicking);
        }
    }

    impl<T> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("write guard present")
        }
    }

    impl<T> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("write guard present")
        }
    }

    impl<T> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            self.inner.take();
            let panicking = std::thread::panicking();
            let (_, me) = ctx();
            self.lock
                .sched
                .release_write(me, self.lock.id, panicking, panicking);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Silence panic backtraces from model threads (they are expected
    /// in failure-detection tests) while keeping test-thread panics
    /// loud. Model threads are unnamed; libtest threads carry the test
    /// name.
    fn quiet_model_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if std::thread::current().name().is_some() {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn same_seed_same_digest() {
        let model = || {
            let m = Arc::new(sync::Mutex::new(0u32));
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    let m = m.clone();
                    thread::spawn(move || *unpoison(m.lock()) += 1)
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(*unpoison(m.lock()), 3);
        };
        let a = Checker::new().seed(42).schedules(64).run(model);
        let b = Checker::new().seed(42).schedules(64).run(model);
        let c = Checker::new().seed(43).schedules(64).run(model);
        assert_eq!(a.digest, b.digest, "same seed must replay identically");
        assert_ne!(a.digest, c.digest, "different seed should diverge");
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert!(a.distinct > 1, "3 contending threads must interleave");
    }

    #[test]
    fn detects_abba_deadlock() {
        quiet_model_panics();
        let report = Checker::new().seed(1).schedules(256).run(|| {
            let a = Arc::new(sync::Mutex::new(()));
            let b = Arc::new(sync::Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let h = thread::spawn(move || {
                let _ga = unpoison(a2.lock());
                let _gb = unpoison(b2.lock());
            });
            {
                let _gb = unpoison(b.lock());
                let _ga = unpoison(a.lock());
            }
            let _ = h.join();
        });
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.messages.iter().any(|m| m.contains("deadlock"))),
            "ABBA ordering must deadlock in some schedule: {report:?}"
        );
    }

    #[test]
    fn failing_schedule_replays_from_its_seed() {
        quiet_model_panics();
        let model = || {
            let a = Arc::new(sync::Mutex::new(()));
            let b = Arc::new(sync::Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let h = thread::spawn(move || {
                let _ga = unpoison(a2.lock());
                let _gb = unpoison(b2.lock());
            });
            {
                let _gb = unpoison(b.lock());
                let _ga = unpoison(a.lock());
            }
            let _ = h.join();
        };
        let report = Checker::new().seed(5).schedules(256).run(model);
        let failure = report.failures.first().expect("ABBA must fail somewhere");
        let replay = Checker::new().replay(failure.seed, model);
        assert_eq!(
            replay.failures.len(),
            1,
            "replaying the failing seed must reproduce the failure"
        );
        assert_eq!(replay.failures[0].messages, failure.messages);
    }

    #[test]
    fn poisons_locks_across_caught_panics() {
        quiet_model_panics();
        let poisoned_seen = Arc::new(AtomicUsize::new(0));
        let seen = poisoned_seen.clone();
        let report = Checker::new().seed(9).schedules(64).run(move || {
            let m = Arc::new(sync::Mutex::new(0u32));
            let m2 = m.clone();
            let h = thread::spawn(move || {
                let _ = catch_unwind(|| {
                    let _g = unpoison(m2.lock());
                    panic!("job panic while holding the lock");
                });
            });
            h.join().unwrap();
            match m.lock() {
                Ok(_) => panic!("lock must be poisoned after the panic"),
                Err(p) => {
                    drop(p.into_inner());
                }
            }
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(poisoned_seen.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn condvar_wakeups_are_not_lost_with_the_guarded_pattern() {
        let report = Checker::new().seed(3).schedules(128).run(|| {
            let state = Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
            let s2 = state.clone();
            let h = thread::spawn(move || {
                let (m, cv) = &*s2;
                *unpoison(m.lock()) = true;
                cv.notify_one();
            });
            let (m, cv) = &*state;
            let mut done = unpoison(m.lock());
            while !*done {
                done = unpoison(cv.wait(done));
            }
            drop(done);
            h.join().unwrap();
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.distinct > 1);
    }

    #[test]
    fn step_budget_catches_livelock() {
        quiet_model_panics();
        let report = Checker::new()
            .seed(2)
            .schedules(4)
            .max_steps(200)
            .run(|| loop {
                yield_now();
            });
        assert_eq!(
            report.failures.len(),
            4,
            "every schedule must hit the budget"
        );
        assert!(report.failures[0].messages[0].contains("exceeded"));
    }

    #[test]
    fn rwlock_write_poisons_read_does_not() {
        quiet_model_panics();
        let report = Checker::new().seed(11).schedules(32).run(|| {
            let rw = Arc::new(sync::RwLock::new(0u32));
            let rw2 = rw.clone();
            let h = thread::spawn(move || {
                let _ = catch_unwind(|| {
                    let _g = unpoison(rw2.write());
                    panic!("writer panic");
                });
            });
            h.join().unwrap();
            assert!(rw.write().is_err(), "writer panic must poison");
            let rw3 = rw.clone();
            let h = thread::spawn(move || {
                let _ = catch_unwind(|| {
                    let _g = unpoison(rw3.read());
                    // A reader panicking...
                    panic!("reader panic");
                });
            });
            h.join().unwrap();
            // ...does not *newly* poison (std semantics); the lock is
            // still poisoned from the writer, which is all we assert.
            assert!(unpoison(rw.read()).eq(&0));
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }
}
