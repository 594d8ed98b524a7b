//! Pluggable parallel execution backends.
//!
//! Every data-parallel pass in this crate (the `a-activate` / `a-square` /
//! `a-pebble` operations of [`crate::ops`] and the tile-diagonal steps of
//! [`crate::wavefront`]) runs through an [`ExecBackend`]:
//!
//! * [`ExecBackend::Sequential`] — the single-threaded reference
//!   execution, bit-identical to the textbook loops;
//! * [`ExecBackend::Parallel`] — a shared work-stealing thread pool sized
//!   to the host (`std::thread::available_parallelism`);
//! * [`ExecBackend::Threads`]`(k)` — the same pool, capped at `k`
//!   participating workers (`0` means "host size"), for scaling studies.
//!
//! The pool follows the self-scheduling ("bag of tasks") discipline used
//! by work-stealing runtimes: a parallel region is split into blocks of
//! rows, workers repeatedly claim the next unclaimed block via an atomic
//! counter, and the submitting thread participates until the region
//! drains. This keeps load balanced when per-row work is skewed (banded
//! rows shrink with eccentricity; wavefront tiles on the table's
//! diagonal hold half a tile's cells) without any per-task allocation.
//!
//! All parallel writes are partitioned by construction — each row /
//! output cell is claimed by exactly one block — mirroring the CREW
//! exclusive-write discipline the paper's operations are designed around,
//! so results are deterministic and identical across backends (integer
//! weights exactly; floats too, because each cell's reduction order is
//! fixed regardless of which worker runs it).
//!
//! The `parallel` cargo feature gates the pool. Without it, every backend
//! degrades to sequential execution with the same results.

use std::fmt;

use disjoint::DisjointPartsMut;

/// Which execution backend a solver uses for its data-parallel passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Single-threaded reference execution.
    Sequential,
    /// The shared work-stealing thread pool, sized to the host.
    #[default]
    Parallel,
    /// The shared pool capped at this many workers (`0` = host size).
    Threads(usize),
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecBackend::Sequential => write!(f, "sequential"),
            // `Threads(0)` means host size, so always show the resolved count.
            ExecBackend::Parallel | ExecBackend::Threads(_) => {
                write!(f, "threads({})", self.effective_threads())
            }
        }
    }
}

/// Parse a backend name: `seq`/`sequential`, `parallel`/`auto`/`threads`,
/// `threads:<k>`, or a bare thread count (`8` is shorthand for
/// `threads:8`). Worker counts must be at least 1 — `parallel` is the
/// spelling for "use every host core". (The programmatic
/// `ExecBackend::Threads(0)` still means host size; only the textual
/// forms reject `0`, because a user writing `--backend 0` almost
/// certainly did not mean "all cores".)
impl std::str::FromStr for ExecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let positive_count = |spec: &str, whole: &str| {
            let k = spec.parse::<usize>().map_err(|_| {
                format!(
                    "bad worker count '{spec}' in backend '{whole}' \
                     (expected a positive integer, e.g. threads:4)"
                )
            })?;
            if k == 0 {
                return Err(format!(
                    "backend '{whole}' requests zero workers; a worker count \
                     must be at least 1 — write 'parallel' to use every host core"
                ));
            }
            Ok(ExecBackend::Threads(k))
        };
        match s {
            "seq" | "sequential" => Ok(ExecBackend::Sequential),
            "parallel" | "auto" | "threads" | "rayon" => Ok(ExecBackend::Parallel),
            other => {
                if let Some(spec) = other.strip_prefix("threads:") {
                    if spec.is_empty() {
                        return Err("backend 'threads:' is missing a worker count \
                             (write threads:<k>, e.g. threads:4, or a bare \
                             count like 4)"
                            .to_string());
                    }
                    positive_count(spec, other)
                } else if other.chars().all(|c| c.is_ascii_digit()) {
                    positive_count(other, other)
                } else {
                    Err(format!(
                        "unknown backend '{other}' \
                         (expected seq | parallel | threads:<k> | <k>)"
                    ))
                }
            }
        }
    }
}

impl ExecBackend {
    /// How many workers this backend will actually use on this host.
    pub fn effective_threads(&self) -> usize {
        match self {
            ExecBackend::Sequential => 1,
            #[cfg(feature = "parallel")]
            ExecBackend::Parallel => host_threads(),
            #[cfg(feature = "parallel")]
            ExecBackend::Threads(0) => host_threads(),
            #[cfg(feature = "parallel")]
            ExecBackend::Threads(k) => *k,
            #[cfg(not(feature = "parallel"))]
            _ => 1,
        }
    }

    /// Whether this backend executes with more than one worker.
    pub fn is_parallel(&self) -> bool {
        self.effective_threads() > 1
    }

    /// This backend with its worker count capped at `k` (at least 1):
    /// `Sequential` for an effective width of 1, otherwise `Threads` at
    /// the capped width. The batch scheduler uses this to keep
    /// inter-problem × intra-problem parallelism from multiplying past
    /// the pool size.
    pub fn capped(&self, k: usize) -> ExecBackend {
        let eff = self.effective_threads().min(k.max(1));
        if eff <= 1 {
            ExecBackend::Sequential
        } else {
            ExecBackend::Threads(eff)
        }
    }

    /// Map-reduce over a partitioned mutable buffer: part `r` of `data`
    /// and part `r` of `side` go, both exclusively, to one call
    /// `process(r, data_part, side_part)`, and the results are combined
    /// with `merge`, starting from `identity`. The side partition
    /// carries per-part metadata whose granularity may differ from the
    /// data — one changed-flag per `pw'` row, or one flag per *pair* for
    /// each `w'` row of the pebble (pairs sharing a left endpoint form a
    /// contiguous flag range). Both partitions were validated disjoint
    /// when they were built.
    ///
    /// `grain` is a floor on the parts per scheduling block (`1` = the
    /// default split of about four blocks per worker). Passes whose parts
    /// are mostly trivial — a square sweep the dirty-row scheduler turned
    /// mostly into copies — raise it to amortise block-claim overhead.
    ///
    /// # Panics
    /// If the partitions have different part counts.
    // Without the pool there are no blocks, so `grain` goes unread.
    #[cfg_attr(not(feature = "parallel"), allow(unused_variables))]
    pub fn map_reduce<T, U, R>(
        &self,
        data: DisjointPartsMut<'_, T>,
        side: DisjointPartsMut<'_, U>,
        grain: usize,
        process: impl Fn(usize, &mut [T], &mut [U]) -> R + Sync,
        identity: impl Fn() -> R + Sync,
        merge: impl Fn(R, R) -> R + Sync,
    ) -> R
    where
        T: Send,
        U: Send,
        R: Send,
    {
        assert_eq!(
            data.parts(),
            side.parts(),
            "need exactly one side part per data part"
        );
        let parts = data.parts();
        let workers = self.effective_threads();
        if workers <= 1 || parts <= 1 {
            let mut total = identity();
            for r in 0..parts {
                // SAFETY: this sequential loop claims each part index of
                // both partitions exactly once, and the previous pass's
                // borrows ended with it.
                let (slice, side_slice) = unsafe { (data.part(r), side.part(r)) };
                total = merge(total, process(r, slice, side_slice));
            }
            return total;
        }
        #[cfg(feature = "parallel")]
        {
            let (data, side) = (&data, &side);
            let (process, identity, merge) = (&process, &identity, &merge);
            pool::run_blocks(workers, parts, grain, &move |range, acc: &mut Option<R>| {
                let mut local = acc.take().unwrap_or_else(&identity);
                for r in range {
                    // SAFETY: each part index is claimed by exactly one
                    // block (the pool hands block indices out via an
                    // atomic fetch_add), and that single claim covers the
                    // index's part in *both* partitions — these are the
                    // only live borrows of either.
                    let (slice, side_slice) = unsafe { (data.part(r), side.part(r)) };
                    local = merge(local, process(r, slice, side_slice));
                }
                *acc = Some(local);
            })
            .into_iter()
            .flatten()
            .fold(identity(), merge)
        }
        #[cfg(not(feature = "parallel"))]
        unreachable!("workers > 1 requires the `parallel` feature")
    }

    /// Produce `len` values by evaluating `f(i)` for every index, in
    /// parallel, preserving index order in the output. Runs on
    /// [`Self::map_reduce`] with one output slot per part.
    pub fn map_collect<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
        self.map_reduce(
            DisjointPartsMut::uniform(&mut slots, 1),
            DisjointPartsMut::uniform(&mut vec![(); len], 1),
            1,
            |i, slot, _| slot[0] = Some(f(i)),
            || (),
            |(), ()| (),
        );
        slots
            .into_iter()
            .map(|slot| slot.expect("map_reduce visits every part"))
            .collect()
    }
}

pub mod disjoint {
    //! Checked disjoint-slice partitioning — the **single unsafe
    //! boundary** behind the parallel map-reduce in [`super`].
    //!
    //! [`DisjointPartsMut`] centralises the aliasing argument: it takes
    //! ownership of a `&mut [T]` plus a description of how the buffer is
    //! tiled into parts, **verifies pairwise non-overlap at
    //! construction** (an always-on `O(parts)` check, cross-checked
    //! exhaustively in debug builds), and hands out `Send`able exclusive
    //! part slices from one unsafe core with one SAFETY argument
    //! ([`DisjointPartsMut::part`] — the only `from_raw_parts_mut` call
    //! site in this module tree, enforced by `pardp-xtask lint` and the
    //! unsafe-inventory CI report).
    //!
    //! What remains unsafe is only the *claim discipline*: `part` hands
    //! out `&mut` access through `&self`, so callers must guarantee each
    //! part index has at most one live borrow at a time.
    //! [`ExecBackend::map_reduce`](super::ExecBackend::map_reduce) gets
    //! that for free — its sequential fallback loops over each index
    //! once, and the pool's block scheduler hands every index to exactly
    //! one worker via an atomic claim counter.

    use std::marker::PhantomData;

    /// How the parts tile the underlying buffer.
    #[derive(Clone, Copy)]
    enum Layout<'s> {
        /// Explicit `(start, end)` ranges, ascending and non-overlapping.
        Spans(&'s [(usize, usize)]),
        /// `rows` uniform parts of exactly `row_len` elements each —
        /// the dense-table tiling, kept implicit so hot callers with
        /// `O(n^2)` rows never materialise a span table.
        Uniform {
            /// Elements per part.
            row_len: usize,
            /// Number of parts.
            rows: usize,
        },
    }

    /// An exclusive partitioning of a mutable buffer into pairwise
    /// disjoint parts, validated at construction.
    ///
    /// The buffer is borrowed for the lifetime of the value; parts are
    /// handed out by [`DisjointPartsMut::part`]. The type is `Sync` for
    /// `T: Send` (see the SAFETY argument on the impl), which is what
    /// lets the work-stealing pool's workers pull their claimed parts
    /// straight out of one shared reference.
    pub struct DisjointPartsMut<'a, T> {
        base: *mut T,
        len: usize,
        layout: Layout<'a>,
        /// The partitioning logically owns the `&mut [T]` it was built
        /// from: nothing else may touch the buffer while it lives.
        _owner: PhantomData<&'a mut [T]>,
    }

    // SAFETY: sharing a `DisjointPartsMut` across threads only shares
    // the base address and the (immutable) layout; actual element access
    // goes through `part`, whose contract limits every part index to one
    // live borrow. Disjointness of the parts was validated at
    // construction, so borrows handed to different threads never alias —
    // the same exclusive-write discipline the paper's CREW operations
    // are designed around. `T: Send` because parts (and the `T`s in
    // them) move to worker threads.
    unsafe impl<T: Send> Sync for DisjointPartsMut<'_, T> {}
    // SAFETY: as above — the value is nothing but an address plus
    // layout, and element access is governed by `part`'s contract.
    unsafe impl<T: Send> Send for DisjointPartsMut<'_, T> {}

    impl<'a, T> DisjointPartsMut<'a, T> {
        /// Partition `data` into the explicit `spans` (each a `(start,
        /// end)` half-open range). Spans must be **ascending,
        /// non-overlapping and within bounds**; empty spans are fine.
        /// The check is always on — the soundness of every parallel
        /// caller rests on it, so it is not a `debug_assert` — and an
        /// exhaustive pairwise cross-check runs in debug builds.
        ///
        /// # Panics
        /// If the spans are out of order, overlapping, or out of bounds.
        pub fn new(data: &'a mut [T], spans: &'a [(usize, usize)]) -> Self {
            let mut cursor = 0usize;
            for &(s, e) in spans {
                assert!(
                    cursor <= s && s <= e && e <= data.len(),
                    "spans must be ascending, disjoint and within bounds \
                     (violated at ({s},{e}), previous end {cursor}, len {})",
                    data.len()
                );
                cursor = e;
            }
            debug_assert!(
                Self::pairwise_disjoint(spans),
                "ascending cursor check passed but exhaustive pairwise \
                 overlap check failed — validation bug"
            );
            DisjointPartsMut {
                base: data.as_mut_ptr(),
                len: data.len(),
                layout: Layout::Spans(spans),
                _owner: PhantomData,
            }
        }

        /// Partition `data` into uniform consecutive parts of `row_len`
        /// elements — semantically `new` with evenly spaced spans, but
        /// without materialising a span table (hot dense-table callers
        /// partition `O(n^2)` rows once per iteration). Uniform
        /// consecutive chunks are disjoint by construction; the division
        /// check below is what makes that argument airtight.
        ///
        /// # Panics
        /// If `row_len` is zero or does not divide `data.len()`.
        pub fn uniform(data: &'a mut [T], row_len: usize) -> Self {
            assert!(
                row_len > 0 && data.len().is_multiple_of(row_len),
                "buffer length {} is not a multiple of row length {row_len}",
                data.len()
            );
            DisjointPartsMut {
                base: data.as_mut_ptr(),
                len: data.len(),
                layout: Layout::Uniform {
                    row_len,
                    rows: data.len() / row_len,
                },
                _owner: PhantomData,
            }
        }

        /// Exhaustive `O(parts^2)` overlap check backing the linear
        /// cursor walk in [`DisjointPartsMut::new`] (debug builds only;
        /// capped so pathological part counts keep debug runs usable).
        fn pairwise_disjoint(spans: &[(usize, usize)]) -> bool {
            const EXHAUSTIVE_CAP: usize = 2048;
            let n = spans.len().min(EXHAUSTIVE_CAP);
            for i in 0..n {
                for j in 0..i {
                    let (si, ei) = spans[i];
                    let (sj, ej) = spans[j];
                    // Empty spans overlap nothing.
                    if si < ej && sj < ei {
                        return false;
                    }
                }
            }
            true
        }

        /// Number of parts in the partitioning.
        pub fn parts(&self) -> usize {
            match self.layout {
                Layout::Spans(s) => s.len(),
                Layout::Uniform { rows, .. } => rows,
            }
        }

        /// Whether the partitioning has no parts.
        pub fn is_empty(&self) -> bool {
            self.parts() == 0
        }

        /// The `(start, end)` range of part `index`.
        fn span(&self, index: usize) -> (usize, usize) {
            match self.layout {
                Layout::Spans(s) => s[index],
                Layout::Uniform { row_len, rows } => {
                    assert!(index < rows, "part index {index} out of {rows}");
                    (index * row_len, (index + 1) * row_len)
                }
            }
        }

        /// Hand out part `index` as an exclusive slice — the single
        /// unsafe core of the module (and the only `from_raw_parts_mut`
        /// call site in `exec`).
        ///
        /// # Safety
        ///
        /// The caller must guarantee that at most one live borrow of any
        /// given part index exists at a time (across all threads). The
        /// map-reduce in [`super`] discharges this structurally: its
        /// sequential fallback visits each index once in a loop, and its
        /// parallel path hands each index to exactly one worker through
        /// the pool's atomic block-claim counter.
        // `&mut` out of `&self` is the whole point of the type (see the
        // `Sync` SAFETY argument); the claim contract is the caller's.
        #[allow(clippy::mut_from_ref)]
        #[inline]
        pub unsafe fn part(&self, index: usize) -> &mut [T] {
            let (s, e) = self.span(index);
            debug_assert!(s <= e && e <= self.len);
            // SAFETY: construction validated that all spans are in
            // bounds of the original buffer and pairwise disjoint, and
            // the buffer itself is exclusively borrowed for `'a` (no
            // outside aliases). Distinct indices therefore yield
            // non-overlapping slices, and the caller's contract ensures
            // the same index is never borrowed twice concurrently — so
            // this reference is unique for its lifetime.
            unsafe { std::slice::from_raw_parts_mut(self.base.add(s), e - s) }
        }
    }
}

#[cfg(feature = "parallel")]
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

#[cfg(feature = "parallel")]
mod pool {
    //! The shared work-stealing pool.
    //!
    //! One process-wide set of workers is spawned lazily and reused by
    //! every parallel region (jobs from concurrent tests interleave
    //! safely: each job has its own claim counters). A region is `tasks`
    //! consecutive blocks; workers and the submitting thread repeatedly
    //! claim the next block index and run the region body on it.

    use std::any::Any;
    use std::ops::Range;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// A closure invoked as `body(block_range, &mut accumulator)`.
    type RegionBody = *const (dyn Fn(Range<usize>, &mut Option<()>) + Sync);

    struct Job {
        /// Type-erased region body. A raw pointer (not a laundered
        /// reference) so that a drained `Job` lingering in the queue or in
        /// a worker's hand after the submitter returns holds no dangling
        /// reference — the pointer is only dereferenced after a successful
        /// block claim, which the submitter's completion wait covers.
        body: RegionBody,
        /// Next unclaimed block.
        next: AtomicUsize,
        /// Total blocks.
        blocks: usize,
        /// Block size (all but the last block have exactly this many items).
        block_len: usize,
        /// Total items.
        items: usize,
        /// Finished blocks.
        finished: AtomicUsize,
        /// The payload of the first block body that panicked, re-raised
        /// by the submitter once every block has finished.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        /// Completion signal.
        done: Mutex<bool>,
        done_cv: Condvar,
        /// Cap on simultaneous participants (including the submitter).
        max_participants: usize,
        /// Current participants; workers increment it under the queue lock
        /// (see [`worker_loop`]) so the cap cannot be overshot.
        participants: AtomicUsize,
    }

    // SAFETY: `body` points at a `Sync` closure; every other field is
    // already thread-safe. The pointer's validity discipline is documented
    // on the field.
    unsafe impl Send for Job {}
    // SAFETY: as for `Send` — shared access only reaches `body` through
    // `help`, which dereferences it under the documented validity
    // discipline; all other fields are atomics and sync primitives.
    unsafe impl Sync for Job {}

    impl Job {
        /// Claim and run blocks until none remain.
        fn help(&self) {
            loop {
                let b = self.next.fetch_add(1, Ordering::Relaxed);
                if b >= self.blocks {
                    return;
                }
                let start = b * self.block_len;
                let end = (start + self.block_len).min(self.items);
                let mut acc = None;
                // SAFETY: a block was successfully claimed, so the
                // submitter is still inside `run_blocks` (it waits for
                // `finished == blocks`), keeping the pointee alive.
                let body = unsafe { &*self.body };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(start..end, &mut acc)))
                {
                    crate::fault::unpoison(self.panic.lock()).get_or_insert(payload);
                }
                let done = self.finished.fetch_add(1, Ordering::AcqRel) + 1;
                if done == self.blocks {
                    *crate::fault::unpoison(self.done.lock()) = true;
                    self.done_cv.notify_all();
                }
            }
        }

        fn wait(&self) {
            let mut guard = crate::fault::unpoison(self.done.lock());
            while !*guard {
                guard = crate::fault::unpoison(self.done_cv.wait(guard));
            }
        }
    }

    struct PoolShared {
        queue: Mutex<Vec<Arc<Job>>>,
        available: Condvar,
    }

    fn shared() -> &'static PoolShared {
        static POOL: OnceLock<&'static PoolShared> = OnceLock::new();
        POOL.get_or_init(|| {
            let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
                queue: Mutex::new(Vec::new()),
                available: Condvar::new(),
            }));
            let workers = super::host_threads().saturating_sub(1).max(1);
            for w in 0..workers {
                std::thread::Builder::new()
                    .name(format!("pardp-worker-{w}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker");
            }
            shared
        })
    }

    fn worker_loop(shared: &'static PoolShared) {
        loop {
            let job = {
                let mut queue = crate::fault::unpoison(shared.queue.lock());
                loop {
                    // Drop jobs that are fully claimed; join one that isn't.
                    if let Some(pos) = queue.iter().position(|j| {
                        j.next.load(Ordering::Relaxed) < j.blocks
                            && j.participants.load(Ordering::Relaxed) < j.max_participants
                    }) {
                        let job = Arc::clone(&queue[pos]);
                        // Join under the lock: concurrent workers see the
                        // raised count, so `max_participants` holds.
                        job.participants.fetch_add(1, Ordering::Relaxed);
                        queue.retain(|j| j.next.load(Ordering::Relaxed) < j.blocks);
                        break job;
                    }
                    queue.retain(|j| j.next.load(Ordering::Relaxed) < j.blocks);
                    queue = crate::fault::unpoison(shared.available.wait(queue));
                }
            };
            job.help();
            job.participants.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Run `items` units split into blocks across up to `workers`
    /// participants. `body(range, acc)` is called once per claimed block
    /// with a per-call accumulator slot; per-block results are returned to
    /// the caller for merging. Blocks are sized so there are roughly four
    /// per worker, which balances skewed per-item work against scheduling
    /// overhead; `min_block` raises the floor on items per block for
    /// callers whose items are individually too cheap to schedule.
    ///
    /// # Panics
    /// Re-raises the first panic that occurred inside `body`, with its
    /// payload, after every block has finished.
    pub(super) fn run_blocks<R: Send>(
        workers: usize,
        items: usize,
        min_block: usize,
        body: &(dyn Fn(Range<usize>, &mut Option<R>) + Sync),
    ) -> Vec<Option<R>> {
        if items == 0 {
            return Vec::new();
        }
        let blocks = (workers * 4).min(items).max(1);
        let block_len = items.div_ceil(blocks).max(min_block.max(1));
        let blocks = items.div_ceil(block_len);

        // Collect per-block accumulators: the erased body writes into a
        // slot vector indexed by block.
        let slots: Vec<Mutex<Option<R>>> = (0..blocks).map(|_| Mutex::new(None)).collect();
        let slots_ref = &slots;
        let wrapped = move |range: Range<usize>, _unused: &mut Option<()>| {
            let block = range.start / block_len;
            let mut acc = None;
            body(range, &mut acc);
            *crate::fault::unpoison(slots_ref[block].lock()) = acc;
        };

        let short: *const (dyn Fn(Range<usize>, &mut Option<()>) + Sync + '_) = &wrapped;
        // SAFETY: the transmute only erases the (non-'static) capture
        // lifetime from the pointer's *type* — legitimate for a raw
        // pointer, whose validity is asserted at the dereference, not
        // here. The pointee (`wrapped`) lives until this function
        // returns; `help` only dereferences the pointer after claiming a
        // block, which the completion wait below covers.
        let body = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(Range<usize>, &mut Option<()>) + Sync + '_),
                RegionBody,
            >(short)
        };
        let job = Arc::new(Job {
            body,
            next: AtomicUsize::new(0),
            blocks,
            block_len,
            items,
            finished: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            max_participants: workers,
            participants: AtomicUsize::new(1),
        });

        let enqueued = blocks > 1;
        if enqueued {
            let shared = shared();
            {
                let mut queue = crate::fault::unpoison(shared.queue.lock());
                queue.push(Arc::clone(&job));
            }
            shared.available.notify_all();
        }
        job.help();
        job.wait();
        if enqueued {
            // Purge the drained job so the queue does not retain it (and
            // its stale body pointer) until the next worker scan.
            let mut queue = crate::fault::unpoison(shared().queue.lock());
            queue.retain(|j| !Arc::ptr_eq(j, &job));
        }
        // The region has drained: re-raise the first panic with its
        // own payload, wherever it happened.
        if let Some(payload) = crate::fault::unpoison(job.panic.lock()).take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|m| crate::fault::unpoison(m.into_inner()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing() {
        assert_eq!(
            "seq".parse::<ExecBackend>().unwrap(),
            ExecBackend::Sequential
        );
        assert_eq!(
            "sequential".parse::<ExecBackend>().unwrap(),
            ExecBackend::Sequential
        );
        assert_eq!(
            "parallel".parse::<ExecBackend>().unwrap(),
            ExecBackend::Parallel
        );
        assert_eq!(
            "threads:3".parse::<ExecBackend>().unwrap(),
            ExecBackend::Threads(3)
        );
        assert_eq!("8".parse::<ExecBackend>().unwrap(), ExecBackend::Threads(8));
        assert!("bogus".parse::<ExecBackend>().is_err());
    }

    #[test]
    fn backend_parse_errors_are_specific() {
        let missing = "threads:".parse::<ExecBackend>().unwrap_err();
        assert!(missing.contains("missing a worker count"), "{missing}");
        assert!(missing.contains("threads:4"), "{missing}");
        let bad = "threads:four".parse::<ExecBackend>().unwrap_err();
        assert!(bad.contains("bad worker count 'four'"), "{bad}");
        let unknown = "bogus".parse::<ExecBackend>().unwrap_err();
        assert!(unknown.contains("unknown backend"), "{unknown}");
    }

    #[test]
    fn backend_parse_rejects_zero_workers() {
        // `Threads(0)` programmatically means host size, but the textual
        // forms must not let `--backend 0` silently grab every core —
        // the error points at the `parallel` spelling instead.
        for spec in ["0", "threads:0"] {
            let err = spec.parse::<ExecBackend>().unwrap_err();
            assert!(err.contains("zero workers"), "{spec}: {err}");
            assert!(err.contains("parallel"), "{spec}: {err}");
        }
        // The programmatic meaning is unchanged.
        assert_eq!(
            ExecBackend::Threads(0).effective_threads(),
            ExecBackend::Parallel.effective_threads()
        );
    }

    #[test]
    fn capped_never_exceeds_the_cap_and_floors_at_sequential() {
        assert_eq!(ExecBackend::Sequential.capped(8), ExecBackend::Sequential);
        assert_eq!(ExecBackend::Threads(4).capped(2), ExecBackend::Threads(2));
        assert_eq!(ExecBackend::Threads(4).capped(1), ExecBackend::Sequential);
        assert_eq!(ExecBackend::Threads(4).capped(0), ExecBackend::Sequential);
        let host = ExecBackend::Parallel.effective_threads();
        assert!(ExecBackend::Parallel.capped(host).effective_threads() <= host);
        for backend in [ExecBackend::Parallel, ExecBackend::Threads(6)] {
            for cap in [1usize, 2, 3, 100] {
                assert!(backend.capped(cap).effective_threads() <= cap.max(1));
            }
        }
    }

    #[test]
    fn flagged_chunks_return_per_row_flags_on_all_backends() {
        for backend in [
            ExecBackend::Sequential,
            ExecBackend::Parallel,
            ExecBackend::Threads(3),
        ] {
            for grain in [1usize, 4, 1000] {
                let rows = 37usize;
                let width = 5usize;
                let mut data = vec![0u32; rows * width];
                let mut flags = vec![false; rows];
                let total = backend.map_reduce(
                    DisjointPartsMut::uniform(&mut data, width),
                    DisjointPartsMut::uniform(&mut flags, 1),
                    grain,
                    |row, slice, flag| {
                        slice.fill(row as u32);
                        flag[0] = row % 3 == 0;
                        1u64
                    },
                    || 0u64,
                    |a, b| a + b,
                );
                assert_eq!(total, rows as u64, "{backend} grain={grain}");
                assert_eq!(flags.len(), rows);
                for (row, &flag) in flags.iter().enumerate() {
                    assert_eq!(flag, row % 3 == 0, "{backend} grain={grain} row={row}");
                }
                assert!(data
                    .chunks(width)
                    .enumerate()
                    .all(|(r, chunk)| chunk.iter().all(|&v| v == r as u32)));
            }
        }
    }

    #[test]
    fn sided_rows_partition_both_buffers_on_all_backends() {
        // Rows over a ragged data buffer; side slots of a different
        // granularity (two per row here), both written exclusively.
        let spans = [(0usize, 3usize), (3, 3), (3, 8), (8, 17)];
        let side_spans = [(0usize, 2usize), (2, 4), (4, 6), (6, 8)];
        for backend in [
            ExecBackend::Sequential,
            ExecBackend::Parallel,
            ExecBackend::Threads(3),
        ] {
            for grain in [1usize, 2, 100] {
                let mut data = vec![0u64; 17];
                let mut side = vec![0u32; 8];
                let total = backend.map_reduce(
                    DisjointPartsMut::new(&mut data, &spans),
                    DisjointPartsMut::new(&mut side, &side_spans),
                    grain,
                    |row, slice, side| {
                        slice.fill(row as u64 + 1);
                        for s in side.iter_mut() {
                            *s = row as u32 + 10;
                        }
                        slice.len() as u64
                    },
                    || 0u64,
                    |a, b| a + b,
                );
                assert_eq!(total, 17, "{backend} grain={grain}");
                for (row, &(s, e)) in spans.iter().enumerate() {
                    assert!(data[s..e].iter().all(|&v| v == row as u64 + 1));
                }
                for (row, &(ss, se)) in side_spans.iter().enumerate() {
                    assert!(side[ss..se].iter().all(|&v| v == row as u32 + 10));
                }
            }
        }
    }

    #[test]
    fn ragged_flagged_rows_return_per_row_flags() {
        let spans: Vec<(usize, usize)> = (0..40).map(|r| (r * 3, r * 3 + 3)).collect();
        for backend in [ExecBackend::Sequential, ExecBackend::Threads(4)] {
            let mut data = vec![0u8; 120];
            let mut flags = vec![false; spans.len()];
            let total = backend.map_reduce(
                DisjointPartsMut::new(&mut data, &spans),
                DisjointPartsMut::uniform(&mut flags, 1),
                1,
                |row, slice, flag| {
                    slice.fill(row as u8);
                    flag[0] = row % 5 == 0;
                    1u64
                },
                || 0u64,
                |a, b| a + b,
            );
            assert_eq!(total, 40, "{backend}");
            assert_eq!(flags.len(), 40);
            for (row, &flag) in flags.iter().enumerate() {
                assert_eq!(flag, row % 5 == 0, "{backend} row={row}");
            }
        }
    }

    #[test]
    fn sequential_is_single_threaded() {
        assert_eq!(ExecBackend::Sequential.effective_threads(), 1);
        assert!(!ExecBackend::Sequential.is_parallel());
        assert!(ExecBackend::Parallel.effective_threads() >= 1);
    }

    #[test]
    fn map_collect_preserves_order_on_all_backends() {
        for backend in [
            ExecBackend::Sequential,
            ExecBackend::Parallel,
            ExecBackend::Threads(3),
            ExecBackend::Threads(0),
        ] {
            for len in [0usize, 1, 2, 7, 100, 1000] {
                let out = backend.map_collect(len, |i| i * i);
                assert_eq!(
                    out,
                    (0..len).map(|i| i * i).collect::<Vec<_>>(),
                    "{backend} len={len}"
                );
            }
        }
    }

    #[test]
    fn map_reduce_rows_touches_every_row_exactly_once() {
        for backend in [ExecBackend::Sequential, ExecBackend::Threads(4)] {
            let rows = 53usize;
            let width = 17usize;
            let mut data = vec![0u64; rows * width];
            let spans: Vec<(usize, usize)> =
                (0..rows).map(|r| (r * width, (r + 1) * width)).collect();
            let mut unit = vec![(); rows];
            let total = backend.map_reduce(
                DisjointPartsMut::new(&mut data, &spans),
                DisjointPartsMut::uniform(&mut unit, 1),
                1,
                |row, slice, _| {
                    for (c, cell) in slice.iter_mut().enumerate() {
                        *cell = (row * width + c) as u64 + 1;
                    }
                    slice.len() as u64
                },
                || 0u64,
                |a, b| a + b,
            );
            assert_eq!(total, (rows * width) as u64, "{backend}");
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1),
                "{backend}"
            );
        }
    }

    #[test]
    fn ragged_spans_work() {
        // Banded tables have rows of varying width.
        let spans = [(0usize, 3usize), (3, 4), (4, 10), (10, 10), (10, 17)];
        let mut data = vec![1u64; 17];
        for backend in [ExecBackend::Sequential, ExecBackend::Threads(4)] {
            let mut unit = [(); 5];
            let sum = backend.map_reduce(
                DisjointPartsMut::new(&mut data, &spans),
                DisjointPartsMut::uniform(&mut unit, 1),
                1,
                |_row, slice, _| slice.iter().sum::<u64>(),
                || 0u64,
                |a, b| a + b,
            );
            assert_eq!(sum, 17, "{backend}");
        }
    }

    #[test]
    fn concurrent_jobs_from_many_threads_complete() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let backend = ExecBackend::Threads(3);
                    let out = backend.map_collect(500, |i| i as u64 + t);
                    out.iter().sum::<u64>()
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let expect: u64 = (0..500u64).map(|i| i + t as u64).sum();
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn disjoint_parts_validate_at_construction() {
        use super::disjoint::DisjointPartsMut;
        let overlap = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 10];
            DisjointPartsMut::new(&mut data, &[(0, 4), (3, 6)]);
        });
        assert!(overlap.is_err(), "overlapping spans must be rejected");
        let descending = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 10];
            DisjointPartsMut::new(&mut data, &[(4, 6), (0, 2)]);
        });
        assert!(descending.is_err(), "descending spans must be rejected");
        let oob = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 10];
            DisjointPartsMut::new(&mut data, &[(0, 12)]);
        });
        assert!(oob.is_err(), "out-of-bounds spans must be rejected");
        let ragged = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 10];
            DisjointPartsMut::uniform(&mut data, 3);
        });
        assert!(ragged.is_err(), "non-dividing row length must be rejected");
        let zero = std::panic::catch_unwind(|| {
            let mut data = vec![0u8; 10];
            DisjointPartsMut::uniform(&mut data, 0);
        });
        assert!(zero.is_err(), "zero row length must be rejected");
    }

    #[test]
    fn disjoint_parts_hand_out_every_element_exactly_once() {
        use super::disjoint::DisjointPartsMut;
        // Ragged spans with gaps and empty parts.
        let spans = [(0usize, 3usize), (3, 3), (4, 8), (9, 17)];
        let mut data = vec![0u32; 17];
        {
            let parts = DisjointPartsMut::new(&mut data, &spans);
            assert_eq!(parts.parts(), 4);
            assert!(!parts.is_empty());
            for (row, &(s, e)) in spans.iter().enumerate() {
                // SAFETY: each index is claimed exactly once by this loop.
                let slice = unsafe { parts.part(row) };
                assert_eq!(slice.len(), e - s);
                slice.fill(row as u32 + 1);
            }
        }
        for (i, &v) in data.iter().enumerate() {
            let expect = spans
                .iter()
                .position(|&(s, e)| s <= i && i < e)
                .map_or(0, |r| r as u32 + 1);
            assert_eq!(v, expect, "element {i}");
        }
        // Uniform tiling covers the buffer.
        let mut data = vec![0u64; 12];
        {
            let parts = DisjointPartsMut::uniform(&mut data, 4);
            assert_eq!(parts.parts(), 3);
            for row in 0..parts.parts() {
                // SAFETY: each index is claimed exactly once by this loop.
                unsafe { parts.part(row) }.fill(row as u64 + 10);
            }
        }
        assert_eq!(data, vec![10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 12, 12]);
    }

    #[test]
    fn exactly_one_raw_partitioning_site_in_exec() {
        // The acceptance contract of the disjoint boundary: this module
        // tree contains exactly one `from_raw_parts_mut` call site,
        // inside `exec::disjoint` (also enforced by `pardp-xtask lint`
        // over the whole workspace, but cheap to pin here).
        let src = include_str!("exec.rs");
        // Built by concatenation so this test's own source doesn't match.
        let needle = ["from_raw_", "parts_mut("].concat();
        let hits = src.match_indices(&needle).count();
        assert_eq!(
            hits, 1,
            "unexpected raw-slice partitioning added to exec.rs"
        );
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn pool_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            ExecBackend::Threads(2).map_collect(100, |i| {
                if i == 63 {
                    panic!("boom");
                }
                i
            })
        });
        let payload = result.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }
}
