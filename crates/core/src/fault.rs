//! Failure hardening: deterministic fault injection, cooperative
//! cancellation, and the shared poisoned-lock recovery helper.
//!
//! The serve daemon's north star is heavy traffic from many users, which
//! makes partial failure the normal case, not the exception: a solve can
//! panic, a job can outlive its usefulness, a store read can hit a bad
//! sector. The Huang–Liu–Viswanathan iterations themselves tolerate
//! stale and partial state by construction (each operation is a monotone
//! re-minimisation of its inputs), so the serving stack can afford to
//! isolate, cancel, and degrade instead of crashing. This module holds
//! the pieces every layer shares:
//!
//! * [`FaultPlan`] / [`FaultSite`] — a deterministic, seeded schedule of
//!   injected faults with named sites, zero-cost when absent (callers
//!   hold an `Option<Arc<FaultPlan>>` and check it before any work).
//! * [`CancelToken`] — deadline-based cooperative cancellation, checked
//!   at iteration boundaries by the iterative solvers and per
//!   tile-diagonal step by the wavefront (see [`SolveOptions::deadline`]).
//! * [`unpoison`] — the one poisoned-lock recovery used at every lock
//!   site in `serve`, `store`, `batch`, and the thread pool.
//! * [`FaultyCache`] — a [`SolutionCache`] wrapper that injects
//!   [`FaultSite::StoreRead`] / [`FaultSite::StoreWrite`] errors per
//!   plan, for chaos tests.
//!
//! ## The error taxonomy
//!
//! Every error line the daemon writes carries a machine-readable `kind`
//! field (see [`ErrorKind`](crate::spec::ErrorKind)):
//!
//! | kind | meaning | trigger |
//! |---|---|---|
//! | `overloaded` | the bounded queue is full | backpressure |
//! | `rejected` | refused at admission | caps, shutdown, oversized line |
//! | `invalid` | the request itself is wrong | bad JSON, bad spec, failed Knuth guard |
//! | `timeout` | the job exceeded its deadline | `--job-timeout` |
//! | `internal` | the solve panicked | isolated by `catch_unwind` |
//!
//! ## Degradation rules
//!
//! * **Panics** never kill the daemon: each job runs under
//!   `catch_unwind`, a panicking solve yields an `internal` error line
//!   and a `panics` counter tick, and every lock a panicking worker
//!   poisoned is recovered with [`unpoison`].
//! * **Deadlines** are cooperative: the iterative solvers check their
//!   [`CancelToken`] once per iteration (the direct sequential solvers
//!   do not iterate and are bounded by the admission caps instead). A
//!   timed-out job writes a `timeout` error line, releases the regime
//!   gate, and its partial table is **never** cached.
//! * **Store errors** degrade the job to a bypass:
//!   [`ResilientCache`](crate::store::ResilientCache) counts each failing
//!   lookup, warm-start probe or insert, the job reports
//!   [`CacheOutcome::Bypass`] and stores nothing (a failing read also
//!   solves it cold), and the cache is disabled after a bounded failure
//!   budget so a dying disk cannot add per-job latency forever. Corrupt
//!   records are skipped at open — a bad page anywhere in the file costs
//!   only the records on it.
//!
//! ## Writing a chaos test
//!
//! Schedule faults by site and occurrence index, run the daemon, then
//! assert on the exact counters — the plan is deterministic, so with a
//! single worker the k-th solved job hits the k-th
//! [`FaultSite::WorkerPanic`] occurrence:
//!
//! ```
//! use std::sync::Arc;
//! use pardp_core::fault::{FaultPlan, FaultSite};
//! use pardp_core::serve::{serve_pipe, ServeConfig};
//! use pardp_core::exec::ExecBackend;
//!
//! // The second solved job panics; everything else is untouched.
//! let plan = Arc::new(FaultPlan::new().fail(FaultSite::WorkerPanic, &[1]));
//! let config = ServeConfig {
//!     exec: ExecBackend::Threads(1), // one worker: occurrence == job order
//!     fault: Some(Arc::clone(&plan)),
//!     ..ServeConfig::default()
//! };
//! let input = "{\"family\":\"chain\",\"values\":[2,3,4]}\n\
//!              {\"family\":\"chain\",\"values\":[4,5,6]}\n";
//! let mut out = Vec::new();
//! let stats = serve_pipe(input.as_bytes(), &mut out, &config);
//! let text = String::from_utf8(out).unwrap();
//! let lines: Vec<&str> = text.lines().collect();
//! assert!(lines[0].contains("\"value\":24"));
//! assert!(lines[1].contains("\"kind\":\"internal\""));
//! assert_eq!(stats.panics, 1);
//! assert_eq!(plan.injected(FaultSite::WorkerPanic), 1);
//! ```
//!
//! Seeded schedules ([`FaultPlan::seeded`]) draw each occurrence's
//! fate from a pure hash of `(seed, site, occurrence)` — replayable
//! from the seed alone, with no runtime randomness.
//!
//! [`SolveOptions::deadline`]: crate::solver::SolveOptions::deadline
//! [`CacheOutcome::Bypass`]: crate::store::CacheOutcome::Bypass
//! [`SolutionCache`]: crate::store::SolutionCache

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use crate::spec::CanonicalHasher;
use crate::store::{CachedSolution, ProblemKey, SolutionCache, StoreError};

/// Recover a lock even if a thread panicked while holding it.
///
/// Every structure the workspace guards with a `Mutex` / `RwLock` (job
/// queues, cache maps, store file handles, the regime gate) has no
/// invariant a panic can break mid-update: each critical section either
/// completes or leaves the previous consistent state. Poisoning is
/// therefore noise here — this helper is the single place that says so,
/// used at every lock site in `serve`, `store`, and the thread pool.
pub fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Deadline-based cooperative cancellation.
///
/// A token is just an optional deadline: [`CancelToken::is_cancelled`]
/// is a single `Option` check when no deadline is set (the common case),
/// and one `Instant::now()` comparison when one is. Solvers check it at
/// iteration boundaries (sublinear, reduced, Rytter) or per tile-diagonal
/// step (wavefront); the sequential direct solvers do not check (they are
/// admission-capped instead). A cancelled solve stops with
/// [`StopReason::DeadlineExceeded`](crate::trace::StopReason) and a
/// partial table — [`Solution::timed_out`](crate::solver::Solution)
/// flags it, and no layer ever caches or serves the partial values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// The never-cancelled token.
    pub const NONE: CancelToken = CancelToken { deadline: None };

    /// A token that cancels at `deadline` (`None` never cancels).
    pub fn new(deadline: Option<Instant>) -> CancelToken {
        CancelToken { deadline }
    }

    /// A token that cancels once `deadline` has passed.
    pub fn at(deadline: Instant) -> CancelToken {
        CancelToken {
            deadline: Some(deadline),
        }
    }

    /// Whether the deadline has passed. Free when no deadline is set.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match self.deadline {
            None => false,
            Some(d) => Instant::now() >= d,
        }
    }
}

/// A named fault-injection site — where in the serving stack a
/// [`FaultPlan`] can inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A solution-store read — a lookup or a warm-start probe — fails
    /// with an IO error (injected by [`FaultyCache`]'s `get`).
    StoreRead,
    /// A solution-store insert fails with an IO error
    /// (injected by [`FaultyCache`]'s `put`).
    StoreWrite,
    /// A [`FileStore`](crate::store::FileStore) append writes only part
    /// of its record — mid-file corruption the next open must skip
    /// (attach the plan with
    /// [`FileStore::with_fault_plan`](crate::store::FileStore::with_fault_plan)).
    TornWrite,
    /// A serve worker panics inside the regime gate, before solving.
    WorkerPanic,
    /// A serve worker sleeps for [`FaultPlan::injected_delay`] after
    /// stamping the job deadline — the deterministic way to force a
    /// `--job-timeout` expiry.
    JobDelay,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::TornWrite,
        FaultSite::WorkerPanic,
        FaultSite::JobDelay,
    ];

    /// Stable site name (used in seeded schedules and diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::StoreRead => "store-read",
            FaultSite::StoreWrite => "store-write",
            FaultSite::TornWrite => "torn-write",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::JobDelay => "job-delay",
        }
    }

    fn idx(self) -> usize {
        match self {
            FaultSite::StoreRead => 0,
            FaultSite::StoreWrite => 1,
            FaultSite::TornWrite => 2,
            FaultSite::WorkerPanic => 3,
            FaultSite::JobDelay => 4,
        }
    }
}

/// Per-site schedule: which occurrence indices fault.
#[derive(Debug, Clone, Default)]
enum SiteSchedule {
    /// Never faults.
    #[default]
    Off,
    /// Faults exactly at these occurrence indices (0-based).
    Explicit(Vec<u64>),
    /// Occurrence `k` faults iff `hash(seed, site, k) % one_in == 0`.
    Seeded {
        /// The plan seed.
        seed: u64,
        /// Average occurrences per fault (≥ 1; 1 faults everything).
        one_in: u64,
    },
}

/// A deterministic fault-injection schedule.
///
/// Each [`FaultSite`] carries an atomic occurrence counter; every probe
/// ([`FaultPlan::should`]) takes the next index and answers from the
/// schedule — an explicit index list ([`FaultPlan::fail`]) or a seeded
/// pure-hash rule ([`FaultPlan::seeded`]). Both are fully replayable:
/// the same probe sequence always faults at the same occurrences.
/// The plan is zero-cost when absent — production code holds an
/// `Option<Arc<FaultPlan>>` and does nothing on `None`.
#[derive(Debug)]
pub struct FaultPlan {
    schedules: [SiteSchedule; 5],
    seen: [AtomicU64; 5],
    injected: [AtomicU64; 5],
    delay: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// An empty plan: no site ever faults until scheduled.
    pub fn new() -> FaultPlan {
        FaultPlan {
            schedules: Default::default(),
            seen: Default::default(),
            injected: Default::default(),
            delay: Duration::from_millis(50),
        }
    }

    /// A seeded plan: every site's occurrence `k` faults iff
    /// `hash(seed, site, k) % one_in == 0` (FNV-1a 64, the workspace's
    /// canonical hash). `one_in` is floored at 1 (fault everything).
    pub fn seeded(seed: u64, one_in: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for site in FaultSite::ALL {
            plan.schedules[site.idx()] = SiteSchedule::Seeded {
                seed,
                one_in: one_in.max(1),
            };
        }
        plan
    }

    /// Schedule `site` to fault at exactly these occurrence indices
    /// (0-based, builder style). Replaces any previous schedule for the
    /// site.
    pub fn fail(mut self, site: FaultSite, occurrences: &[u64]) -> FaultPlan {
        self.schedules[site.idx()] = SiteSchedule::Explicit(occurrences.to_vec());
        self
    }

    /// Set the sleep injected at [`FaultSite::JobDelay`] (builder
    /// style; default 50 ms).
    pub fn delay(mut self, delay: Duration) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// The sleep injected at [`FaultSite::JobDelay`].
    pub fn injected_delay(&self) -> Duration {
        self.delay
    }

    /// Take the next occurrence of `site` and report whether the
    /// schedule faults it. Thread-safe; each probe consumes exactly one
    /// occurrence index.
    pub fn should(&self, site: FaultSite) -> bool {
        let i = site.idx();
        let k = self.seen[i].fetch_add(1, Ordering::Relaxed);
        let hit = match &self.schedules[i] {
            SiteSchedule::Off => false,
            SiteSchedule::Explicit(idxs) => idxs.contains(&k),
            SiteSchedule::Seeded { seed, one_in } => {
                let mut h = CanonicalHasher::new();
                h.write_u64(*seed);
                h.write_str(site.name());
                h.write_u64(k);
                h.finish().is_multiple_of(*one_in)
            }
        };
        if hit {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// How many occurrences of `site` have been probed so far.
    pub fn occurrences(&self, site: FaultSite) -> u64 {
        self.seen[site.idx()].load(Ordering::Relaxed)
    }

    /// How many faults were actually injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.idx()].load(Ordering::Relaxed)
    }
}

/// A [`SolutionCache`] wrapper that injects [`FaultSite::StoreRead`] /
/// [`FaultSite::StoreWrite`] errors per plan — the chaos-test stand-in
/// for a failing disk.
///
/// Every [`get`](SolutionCache::get) takes one `StoreRead` occurrence and
/// every [`put`](SolutionCache::put) one `StoreWrite` occurrence, so a
/// job's ledger is the same through the façade, `pardp batch` and `pardp
/// serve`: one read for its lookup, one per warm-start probe size (a
/// size-`n` miss probes `n-1` down to 2 until a prefix answers or a read
/// fails) and at most one write.
pub struct FaultyCache {
    inner: Arc<dyn SolutionCache>,
    plan: Arc<FaultPlan>,
}

impl FaultyCache {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn SolutionCache>, plan: Arc<FaultPlan>) -> FaultyCache {
        FaultyCache { inner, plan }
    }
}

impl SolutionCache for FaultyCache {
    fn get(&self, key: ProblemKey) -> Result<Option<CachedSolution>, StoreError> {
        if self.plan.should(FaultSite::StoreRead) {
            return Err(StoreError("injected store read error".into()));
        }
        self.inner.get(key)
    }

    fn put(&self, key: ProblemKey, solution: CachedSolution) -> Result<(), StoreError> {
        if self.plan.should(FaultSite::StoreWrite) {
            return Err(StoreError("injected store write error".into()));
        }
        self.inner.put(key, solution)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedule_faults_exactly_the_listed_occurrences() {
        let plan = FaultPlan::new().fail(FaultSite::WorkerPanic, &[0, 2]);
        assert!(plan.should(FaultSite::WorkerPanic));
        assert!(!plan.should(FaultSite::WorkerPanic));
        assert!(plan.should(FaultSite::WorkerPanic));
        assert!(!plan.should(FaultSite::WorkerPanic));
        assert_eq!(plan.occurrences(FaultSite::WorkerPanic), 4);
        assert_eq!(plan.injected(FaultSite::WorkerPanic), 2);
        // Sites are independent: an unscheduled site never faults but
        // still counts its occurrences.
        assert!(!plan.should(FaultSite::StoreRead));
        assert_eq!(plan.occurrences(FaultSite::StoreRead), 1);
        assert_eq!(plan.injected(FaultSite::StoreRead), 0);
    }

    #[test]
    fn seeded_schedule_is_replayable() {
        let a = FaultPlan::seeded(42, 3);
        let b = FaultPlan::seeded(42, 3);
        let run = |plan: &FaultPlan| -> Vec<bool> {
            (0..64).map(|_| plan.should(FaultSite::StoreRead)).collect()
        };
        let fa = run(&a);
        assert_eq!(fa, run(&b), "same seed, same schedule");
        assert!(fa.iter().any(|&x| x), "one-in-3 fires somewhere in 64");
        assert!(!fa.iter().all(|&x| x), "one-in-3 is not everything");
        // A different seed gives a different schedule (with overwhelming
        // probability for 64 draws).
        let c = FaultPlan::seeded(43, 3);
        assert_ne!(fa, run(&c));
    }

    #[test]
    fn cancel_token_none_never_cancels() {
        assert!(!CancelToken::NONE.is_cancelled());
        assert!(!CancelToken::new(None).is_cancelled());
        let past = CancelToken::at(Instant::now());
        assert!(past.is_cancelled());
        let future = CancelToken::at(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn unpoison_recovers_a_poisoned_mutex() {
        let m = Arc::new(std::sync::Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*unpoison(m.lock()), 7);
    }
}
