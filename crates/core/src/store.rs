//! Content-addressed solution store: cache solved tables, warm-start
//! overlapping instances.
//!
//! Solved `w` tables are pure functions of (problem family, payload,
//! identity-relevant options) — yet the façade, the batch scheduler, and
//! the serve daemon all re-run the full `O(n³)`–`O(n⁵)` solve on every
//! repeat. This module closes that gap with three layers:
//!
//! 1. **Identity** — [`ProblemKey`] derives a canonical content hash
//!    from a [`ProblemSpec`] plus the solve configuration, using the
//!    same [`CanonicalHasher`] (FNV-1a 64,
//!    little-endian, length-prefixed fields) that backs
//!    [`table_hash`](crate::spec::table_hash). One hash function is the
//!    single source of identity everywhere: façade, batch, serve, CLI.
//! 2. **Storage** — the [`SolutionCache`] trait with two std-only
//!    implementations: [`MemoryCache`], a bounded in-memory LRU safe
//!    for concurrent serve workers, and [`FileStore`], a persistent
//!    page-aligned record file with an in-memory index and crash-safe
//!    appends (a torn final record is detected by checksum and skipped
//!    on load, never served).
//! 3. **Reuse** — [`Solver::with_cache`] splits
//!    [`Solver::solve`](crate::solver::Solver::solve) into four stages
//!    (key → lookup → solve-miss → insert, each a public method of
//!    [`CachedSolver`]). The stages themselves are the crate's one
//!    per-job step (read → solve → write), which `pardp batch`
//!    ([`BatchSolver::solve_resolved`](crate::batch::BatchSolver::solve_resolved):
//!    intra-batch dedup, one cache shared by both scheduling regimes)
//!    and `pardp serve` (one cache shared by every worker) run too; both
//!    report `hits` / `misses` / `warm_starts` and count backend errors
//!    through a [`ResilientCache`].
//!
//! ## Key derivation rules
//!
//! The key covers the family name, the family payload (length-prefixed
//! `u64` slices, so `chain [1,2]` and `merge [1,2]` never collide), the
//! algorithm name, and **only the knobs that can change the solution
//! bytes** (value, table, trace, statistics), filtered by the
//! algorithm's capability flags:
//!
//! * **Identity-relevant** — `termination` (changes iteration counts),
//!   `skip_clean_rows` (changes candidate counts), `band`, and
//!   `windowed_pebble` (both change the §5 work pattern) — each hashed
//!   only for algorithms whose capability flags read them.
//! * **Not identity-relevant** — `exec` (every backend produces
//!   bit-identical tables *and* identical [`OpStats`], property-tested
//!   in `tests/backend_parity.rs`), `square` (the naive and streamed
//!   kernels give the same guarantee, see
//!   [`SquareStrategy`](crate::ops::SquareStrategy)), and
//!   `wavefront_grain` (splitting only; the wavefront table is exact
//!   for every grain). Jobs differing only in these knobs share a cache
//!   entry.
//! * **Bypass** — `record_trace: true` jobs carry per-iteration records
//!   sized by the run that produced them, and [`Algorithm::Knuth`]
//!   requires a quadrangle-inequality check that a cache hit would
//!   skip. Both are never cached and never warm-started:
//!   [`ProblemKey::derive`] returns `None` and the solve goes straight
//!   to the kernels ([`CacheOutcome::Bypass`]).
//!
//! ## Warm starts
//!
//! Every wire family is *prefix-exact* (see
//! [`ProblemSpec::prefix`]): the recurrence at a pair `(i,j)` reads only
//! pairs nested inside it, and each family's `init` / `f` reads only
//! payload entries inside `[i,j]`. A cached size-`m` table of the same
//! family, payload prefix, and options therefore seeds the first
//! `m(m+1)/2` cells of a size-`n` solve bit-exactly. On a miss, the
//! store probes prefixes from `n-1` down to `2` and:
//!
//! * **Sequential / Wavefront** — completes the table with the tiled
//!   wavefront sweep ([`crate::wavefront`]), which skips the seeded
//!   pairs: on one thread for Sequential, on the job's backend (and
//!   under its deadline) for Wavefront. The result (table, direct
//!   trace, zero stats) is fully bit-identical to a cold solve.
//! * **Sublinear / Reduced** — runs the iterative solver with the
//!   seeded cells marked *final*: the dirty-bit initialization excludes
//!   them from every pebble pass (the pebble is a monotone
//!   re-minimisation whose candidates never undercut the optimum, so
//!   skipping already-optimal pairs is exact), while their `pw` rows
//!   still feed the new region. The final table and value are
//!   bit-identical to a cold solve; the trace and statistics are
//!   smaller — they honestly report the work actually done.
//! * **Rytter** — not warm-started: a miss falls back to a cold solve,
//!   which is still cached for the next exact repeat.
//!
//! ## Cache sizing for batch and serve
//!
//! A cached solution stores the full `(n+1)²` cell table — about
//! `8(n+1)²` bytes, e.g. ~2 MiB at the serve admission cap (`n = 512`).
//! [`MemoryCache`] is bounded by *entry count*, so size it by the
//! largest admitted table: the default
//! [`DEFAULT_MEMORY_CAPACITY`] (256 entries) caps worst-case memory
//! near 512 MiB but typically holds far more small tables than that
//! bound suggests. [`FileStore`] is unbounded (one page-aligned record
//! per distinct key, later duplicates win); use `pardp cache stat` to
//! watch its growth and `pardp cache clear` to reset it.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::fault::{unpoison, FaultPlan, FaultSite};
use crate::job;
use crate::ops::OpStats;
use crate::solver::{Algorithm, Solution, SolveOptions, Solver};
use crate::spec::{CanonicalHasher, ProblemSpec};
use crate::tables::WTable;
use crate::trace::{SolveTrace, Termination};

/// Store error: a human-readable description, CLI-grade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(pub String);

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for StoreError {}

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

/// Canonical cache identity of one solve: family + payload + algorithm
/// plus the identity-relevant knobs, hashed with the workspace's one
/// canonical FNV-1a 64 encoding (see the module docs for the rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemKey(pub u64);

impl ProblemKey {
    /// The 16-hex-digit rendering (same format as
    /// [`table_hash`](crate::spec::table_hash)).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Derive the key for solving `spec` with `algorithm` under
    /// `options`, or `None` when the job must bypass the cache
    /// (trace-recording jobs, [`Algorithm::Knuth`] — see the module
    /// docs).
    pub fn derive(
        spec: &ProblemSpec,
        algorithm: Algorithm,
        options: &SolveOptions,
    ) -> Option<ProblemKey> {
        if algorithm == Algorithm::Knuth || options.record_trace {
            return None;
        }
        let mut h = CanonicalHasher::new();
        h.write_str("pardp-store-v1");
        h.write_str(spec.family());
        match spec {
            ProblemSpec::Chain { dims } => h.write_slice(dims),
            ProblemSpec::Obst { p, q } => {
                h.write_slice(p);
                h.write_slice(q);
            }
            ProblemSpec::Polygon { weights } => h.write_slice(weights),
            ProblemSpec::Merge { lengths } => h.write_slice(lengths),
        }
        h.write_str(algorithm.name());
        if algorithm.supports_termination() {
            h.write_str(match options.termination {
                Termination::FixedSqrtN => "fixed-sqrt-n",
                Termination::Fixpoint => "fixpoint",
                Termination::WStableTwice => "w-stable-twice",
            });
        }
        if algorithm.supports_skip() {
            h.write_u64(options.skip_clean_rows as u64);
        }
        if algorithm.supports_band() {
            match options.band {
                None => h.write_u64(0),
                Some(b) => {
                    h.write_u64(1);
                    h.write_u64(b as u64);
                }
            }
        }
        if algorithm == Algorithm::Reduced {
            h.write_u64(options.windowed_pebble as u64);
        }
        Some(ProblemKey(h.finish()))
    }
}

// ---------------------------------------------------------------------------
// Cached solutions
// ---------------------------------------------------------------------------

/// One stored solution: everything needed to rebuild a
/// [`Solution<u64>`] bit-identically (wall time excepted — a hit
/// reports its own, honest lookup time).
///
/// Self-describing on purpose: `family` / `algorithm` / `n` are
/// re-checked against the requesting job on every hit, so a key
/// collision (or a corrupted record that still passes its checksum)
/// degrades to a miss instead of serving a wrong table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedSolution {
    /// Wire family name of the solved instance.
    pub family: String,
    /// Canonical name of the algorithm that produced the table.
    pub algorithm: String,
    /// Problem size `n`.
    pub n: usize,
    /// The full `(n+1)²` row-major cell slice of the solved
    /// [`WTable`], unsolved cells holding the `u64` weight infinity.
    pub cells: Vec<u64>,
    /// The run's [`SolveTrace`], verbatim.
    pub trace: SolveTrace,
    /// [`OpStats::candidates`] of the run (stats are mirrored field by
    /// field — [`OpStats`] itself has no wire form).
    pub candidates: u64,
    /// [`OpStats::writes`] of the run.
    pub writes: u64,
    /// [`OpStats::changed`] of the run.
    pub changed: bool,
}

impl CachedSolution {
    /// Capture `solution` for storage.
    pub fn of_solution(family: &str, solution: &Solution<u64>) -> CachedSolution {
        CachedSolution {
            family: family.to_string(),
            algorithm: solution.algorithm.name().to_string(),
            n: solution.w.n(),
            cells: solution.w.as_slice().to_vec(),
            trace: solution.trace.clone(),
            candidates: solution.stats.candidates,
            writes: solution.stats.writes,
            changed: solution.stats.changed,
        }
    }

    /// Rebuild the stored table.
    pub fn to_table(&self) -> Result<WTable<u64>, StoreError> {
        let mut w = WTable::new(self.n);
        if self.cells.len() != w.as_slice().len() {
            return Err(StoreError(format!(
                "cached record is inconsistent: n = {} wants {} cells, record has {}",
                self.n,
                w.as_slice().len(),
                self.cells.len()
            )));
        }
        w.as_mut_slice().copy_from_slice(&self.cells);
        Ok(w)
    }

    /// Rebuild the full uniform [`Solution`]. `wall` starts at zero;
    /// the lookup path stamps its own elapsed time.
    pub fn to_solution(&self) -> Result<Solution<u64>, StoreError> {
        let algorithm: Algorithm = self
            .algorithm
            .parse()
            .map_err(|e: String| StoreError(format!("cached record: {e}")))?;
        Ok(Solution {
            algorithm,
            w: self.to_table()?,
            trace: self.trace.clone(),
            stats: OpStats {
                candidates: self.candidates,
                writes: self.writes,
                changed: self.changed,
            },
            wall: Duration::ZERO,
        })
    }

    /// Whether this record answers a `(spec, algorithm)` request — the
    /// hit-time collision guard.
    pub(crate) fn answers(&self, spec: &ProblemSpec, algorithm: Algorithm) -> bool {
        self.family == spec.family()
            && self.algorithm == algorithm.name()
            && self.n == spec.n()
            && self.cells.len() == (self.n + 1) * (self.n + 1)
    }
}

// ---------------------------------------------------------------------------
// The cache trait and the in-memory LRU
// ---------------------------------------------------------------------------

/// A concurrent solution cache. Methods take `&self`: implementations
/// use interior mutability so one cache can be shared by every serve
/// worker and batch phase without external locking.
pub trait SolutionCache: Send + Sync {
    /// Fetch the record stored under `key`, if any.
    fn get(&self, key: ProblemKey) -> Option<CachedSolution>;
    /// Store `solution` under `key`, replacing any previous record.
    fn put(&self, key: ProblemKey, solution: CachedSolution);
    /// Number of records currently retrievable.
    fn len(&self) -> usize;
    /// Whether the cache holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Fallible fetch: `Ok(None)` is a true miss, `Err` a failing
    /// backend (IO error, corrupt record under an indexed key). The
    /// default delegates to [`get`](SolutionCache::get) for backends
    /// that cannot fail. Cache-aware solvers treat `Err` as
    /// [`CacheOutcome::Bypass`] — solve cold, skip the insert — so a
    /// degraded cache only ever costs performance, never answers.
    fn try_get(&self, key: ProblemKey) -> Result<Option<CachedSolution>, StoreError> {
        Ok(self.get(key))
    }
    /// Fallible store, same contract: the default delegates to
    /// [`put`](SolutionCache::put) and cannot fail.
    fn try_put(&self, key: ProblemKey, solution: CachedSolution) -> Result<(), StoreError> {
        self.put(key, solution);
        Ok(())
    }
}

/// Default [`MemoryCache`] capacity, in entries (see the module docs
/// for the sizing rationale).
pub const DEFAULT_MEMORY_CAPACITY: usize = 256;

/// Bounded in-memory LRU cache.
///
/// A `Mutex` around a stamp-based map: `get` refreshes the entry's
/// stamp, `put` at capacity evicts the stalest entry. The lock is held
/// only for the map operation plus one record clone, so serve workers
/// contend briefly even on large tables. A poisoned lock (a panicking
/// worker) is recovered, not propagated: the map is always in a
/// consistent state between operations.
pub struct MemoryCache {
    capacity: usize,
    inner: Mutex<MemoryInner>,
}

struct MemoryInner {
    map: HashMap<u64, (u64, CachedSolution)>,
    clock: u64,
}

impl std::fmt::Debug for MemoryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for MemoryCache {
    fn default() -> Self {
        Self::new(DEFAULT_MEMORY_CAPACITY)
    }
}

impl MemoryCache {
    /// An LRU cache holding at most `capacity` records (floored at 1).
    pub fn new(capacity: usize) -> Self {
        MemoryCache {
            capacity: capacity.max(1),
            inner: Mutex::new(MemoryInner {
                map: HashMap::new(),
                clock: 0,
            }),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryInner> {
        unpoison(self.inner.lock())
    }
}

impl SolutionCache for MemoryCache {
    fn get(&self, key: ProblemKey) -> Option<CachedSolution> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        let (stamp, solution) = inner.map.get_mut(&key.0)?;
        *stamp = now;
        Some(solution.clone())
    }

    fn put(&self, key: ProblemKey, solution: CachedSolution) {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        if !inner.map.contains_key(&key.0) && inner.map.len() >= self.capacity {
            if let Some(&stale) = inner
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                inner.map.remove(&stale);
            }
        }
        inner.map.insert(key.0, (now, solution));
    }

    fn len(&self) -> usize {
        self.lock().map.len()
    }
}

// ---------------------------------------------------------------------------
// The persistent file store
// ---------------------------------------------------------------------------

const PAGE: u64 = 4096;
const HEADER_LEN: u64 = 64;
const MAGIC: &[u8; 8] = b"PARDPST1";

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

fn align_up(x: u64, to: u64) -> u64 {
    x.div_ceil(to) * to
}

/// Aggregate statistics of a [`FileStore`] (the `pardp cache stat`
/// payload).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoreStat {
    /// Retrievable records (duplicates under one key count once).
    pub records: u64,
    /// Size of the data file in bytes, padding included.
    pub file_bytes: u64,
    /// Bytes anywhere in the file that failed validation on load (torn
    /// appends, corrupt pages, trailing garbage, a foreign file) —
    /// skipped; trailing garbage is overwritten by the next `put`.
    pub skipped_bytes: u64,
    /// Record counts per wire family, sorted by name.
    pub families: Vec<(String, u64)>,
    /// Record counts per algorithm, sorted by name.
    pub algorithms: Vec<(String, u64)>,
}

/// Persistent solution store: one append-only, page-aligned record
/// file (`store.dat`) plus an in-memory key index built by scanning it
/// on open.
///
/// Record layout (all integers little-endian): a 64-byte header —
/// magic `PARDPST1`, key, payload length, payload FNV-1a checksum,
/// header FNV-1a checksum over the first 32 bytes, zero pad — followed
/// by the JSON-rendered [`CachedSolution`] payload, zero-padded to the
/// next 4096-byte page so every record starts page-aligned.
///
/// **Crash safety:** `put` seeks to the end of the last *valid* record
/// and writes header + payload + pad in one `write_all`, then
/// `sync_data`s. A crash mid-append leaves a record that fails its
/// checksum; the next open detects it, probes forward page by page for
/// the next valid record (every record starts page-aligned, so a bad
/// page anywhere in the file — a torn append, a flipped bit, foreign
/// garbage — costs only the records on it), reports the invalid bytes
/// through [`skipped_bytes`](Self::skipped_bytes), and the next `put`
/// goes after the last valid record, overwriting any trailing garbage.
/// Later records under an already-seen key win (append-wins
/// semantics), so updates never rewrite in place.
pub struct FileStore {
    dir: PathBuf,
    skipped: u64,
    fault: Option<Arc<FaultPlan>>,
    inner: Mutex<FileInner>,
}

struct FileInner {
    file: File,
    /// key → (record offset, payload length).
    index: HashMap<u64, (u64, u64)>,
    /// Offset one past the last valid record, page-aligned: where the
    /// next record goes.
    end: u64,
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("dir", &self.dir)
            .field("len", &self.len())
            .field("skipped_bytes", &self.skipped)
            .finish()
    }
}

impl FileStore {
    /// Open (or create) the store in `dir`, creating the directory if
    /// needed and scanning the data file to build the index.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| {
            StoreError(format!(
                "cannot create cache directory '{}': {e}",
                dir.display()
            ))
        })?;
        Self::open_scan(dir)
    }

    /// Open the store in an *existing* `dir`, with a pointed error when
    /// the directory is missing — the right entry point for `pardp
    /// cache stat` / `clear`, which inspect rather than populate.
    pub fn open_existing(dir: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        let dir = dir.as_ref();
        if !dir.is_dir() {
            return Err(StoreError(format!(
                "cache directory '{}' does not exist (pass a directory previously \
                 used with --cache)",
                dir.display()
            )));
        }
        Self::open_scan(dir)
    }

    fn data_path(dir: &Path) -> PathBuf {
        dir.join("store.dat")
    }

    fn open_scan(dir: &Path) -> Result<FileStore, StoreError> {
        let path = Self::data_path(dir);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError(format!("cannot open '{}': {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StoreError(format!("cannot read '{}': {e}", path.display())))?;

        // Scan page-aligned offsets: a valid record advances the scan
        // past itself; an invalid page is skipped and the scan probes
        // the next page boundary (records only ever start page-aligned,
        // so mid-file corruption costs exactly the records it touched).
        let mut index = HashMap::new();
        let mut offset: u64 = 0;
        let mut end: u64 = 0;
        let mut skipped: u64 = 0;
        let len = bytes.len() as u64;
        while offset + HEADER_LEN <= len {
            if let Some((key, payload_len, record_end)) = Self::parse_record(&bytes, offset) {
                index.insert(key, (offset, payload_len));
                offset = align_up(record_end, PAGE);
                end = offset;
            } else {
                let next = (offset + PAGE).min(len);
                skipped += next - offset;
                offset = next;
            }
        }
        skipped += len.saturating_sub(offset);
        Ok(FileStore {
            dir: dir.to_path_buf(),
            skipped,
            fault: None,
            inner: Mutex::new(FileInner { file, index, end }),
        })
    }

    /// Validate the record at page-aligned `offset`; `Some((key,
    /// payload_len, record_end))` iff magic, header checksum, bounds,
    /// and payload checksum all hold.
    fn parse_record(bytes: &[u8], offset: u64) -> Option<(u64, u64, u64)> {
        let len = bytes.len() as u64;
        let h = &bytes[offset as usize..(offset + HEADER_LEN) as usize];
        let word = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().unwrap());
        if &h[0..8] != MAGIC || word(32) != fnv64(&h[0..32]) {
            return None;
        }
        let key = word(8);
        let payload_len = word(16);
        let payload_sum = word(24);
        let record_end = offset
            .checked_add(HEADER_LEN)
            .and_then(|x| x.checked_add(payload_len))?;
        if record_end > len {
            return None;
        }
        let payload =
            &bytes[(offset + HEADER_LEN) as usize..(offset + HEADER_LEN + payload_len) as usize];
        if fnv64(payload) != payload_sum {
            return None;
        }
        Some((key, payload_len, record_end))
    }

    /// Attach a fault-injection plan (builder style): appends consult
    /// [`FaultSite::TornWrite`] and, when scheduled, write only the
    /// first half of the record — the mid-file corruption the next
    /// [`open`](FileStore::open) must detect and skip. Test harness
    /// only; production stores never attach a plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> FileStore {
        self.fault = Some(plan);
        self
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of invalid data skipped when the store was opened — torn
    /// appends, corrupt pages anywhere in the file, trailing garbage
    /// (zero after a clean shutdown).
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FileInner> {
        unpoison(self.inner.lock())
    }

    fn read_record(inner: &mut FileInner, offset: u64, payload_len: u64) -> Option<CachedSolution> {
        inner.file.seek(SeekFrom::Start(offset + HEADER_LEN)).ok()?;
        let mut payload = vec![0u8; payload_len as usize];
        inner.file.read_exact(&mut payload).ok()?;
        let text = std::str::from_utf8(&payload).ok()?;
        serde_json::from_str(text).ok()
    }

    /// Aggregate statistics (reads and parses every record).
    pub fn stat(&self) -> Result<StoreStat, StoreError> {
        let mut inner = self.lock();
        let file_bytes = inner
            .file
            .metadata()
            .map_err(|e| StoreError(format!("cannot stat store: {e}")))?
            .len();
        let mut families: HashMap<String, u64> = HashMap::new();
        let mut algorithms: HashMap<String, u64> = HashMap::new();
        let records = inner.index.len() as u64;
        let entries: Vec<(u64, u64)> = inner.index.values().copied().collect();
        for (offset, payload_len) in entries {
            if let Some(record) = Self::read_record(&mut inner, offset, payload_len) {
                *families.entry(record.family).or_insert(0) += 1;
                *algorithms.entry(record.algorithm).or_insert(0) += 1;
            }
        }
        let sorted = |m: HashMap<String, u64>| {
            let mut v: Vec<(String, u64)> = m.into_iter().collect();
            v.sort();
            v
        };
        Ok(StoreStat {
            records,
            file_bytes,
            skipped_bytes: self.skipped,
            families: sorted(families),
            algorithms: sorted(algorithms),
        })
    }

    /// Delete every record (truncate the data file), returning how many
    /// were removed. The store stays usable afterwards.
    pub fn wipe(&self) -> Result<u64, StoreError> {
        let mut inner = self.lock();
        let removed = inner.index.len() as u64;
        inner
            .file
            .set_len(0)
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| StoreError(format!("cannot clear store: {e}")))?;
        inner.index.clear();
        inner.end = 0;
        Ok(removed)
    }
}

impl SolutionCache for FileStore {
    fn get(&self, key: ProblemKey) -> Option<CachedSolution> {
        self.try_get(key).unwrap_or(None)
    }

    fn put(&self, key: ProblemKey, solution: CachedSolution) {
        let _ = self.try_put(key, solution);
    }

    fn len(&self) -> usize {
        self.lock().index.len()
    }

    fn try_get(&self, key: ProblemKey) -> Result<Option<CachedSolution>, StoreError> {
        let mut inner = self.lock();
        let Some(&(offset, payload_len)) = inner.index.get(&key.0) else {
            return Ok(None);
        };
        match Self::read_record(&mut inner, offset, payload_len) {
            Some(record) => Ok(Some(record)),
            None => Err(StoreError(format!(
                "cache record {} is unreadable (IO error or corrupt payload)",
                key.hex()
            ))),
        }
    }

    fn try_put(&self, key: ProblemKey, solution: CachedSolution) -> Result<(), StoreError> {
        let payload = serde_json::to_string(&solution)
            .map_err(|e| StoreError(format!("cannot serialize cache record: {e:?}")))?
            .into_bytes();
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&key.0.to_le_bytes());
        header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[24..32].copy_from_slice(&fnv64(&payload).to_le_bytes());
        let head_sum = fnv64(&header[0..32]);
        header[32..40].copy_from_slice(&head_sum.to_le_bytes());

        let record_len = HEADER_LEN + payload.len() as u64;
        let padded = align_up(record_len, PAGE);
        let mut record = Vec::with_capacity(padded as usize);
        record.extend_from_slice(&header);
        record.extend_from_slice(&payload);
        record.resize(padded as usize, 0);

        // Injected torn write: append only half the record and advance
        // `end` past the full page span — the mid-file corruption the
        // next open's page-probing scan must skip.
        let torn = self
            .fault
            .as_ref()
            .is_some_and(|plan| plan.should(FaultSite::TornWrite));
        let write: &[u8] = if torn {
            // Cut inside header + payload (not the zero pad), so the
            // truncated record always fails its payload checksum.
            &record[..record_len as usize / 2]
        } else {
            &record
        };

        let mut inner = self.lock();
        let offset = inner.end;
        inner
            .file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| inner.file.write_all(write))
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| StoreError(format!("cannot append cache record: {e}")))?;
        inner.end = offset + padded;
        if torn {
            return Err(StoreError("injected torn write".into()));
        }
        inner.index.insert(key.0, (offset, payload.len() as u64));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Graceful degradation: the resilient wrapper
// ---------------------------------------------------------------------------

/// Default [`ResilientCache`] failure budget: errors tolerated before
/// the cache is taken out of service.
pub const DEFAULT_CACHE_FAILURE_BUDGET: u64 = 8;

/// A [`SolutionCache`] wrapper that degrades instead of failing: every
/// backend error is counted and surfaced as a miss (the cache-aware
/// solvers then solve cold and report [`CacheOutcome::Bypass`]), and
/// once the failure budget is spent the backend is disabled entirely —
/// a dying disk stops costing per-job latency, and the daemon keeps
/// answering from compute alone. The serve daemon wraps its configured
/// cache in one of these and reports [`errors`](ResilientCache::errors)
/// as the `cache_errors` stats counter; a cache-aware batch wraps its
/// borrowed cache the same way for [`CacheCounters::errors`].
///
/// `C` is any handle to the backend: an `Arc` (the default) or a plain
/// reference.
pub struct ResilientCache<C = Arc<dyn SolutionCache>> {
    inner: C,
    budget: u64,
    failures: AtomicU64,
    disabled: AtomicBool,
}

impl<C> std::fmt::Debug for ResilientCache<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientCache")
            .field("budget", &self.budget)
            .field("errors", &self.errors())
            .field("disabled", &self.is_disabled())
            .finish()
    }
}

impl<C> ResilientCache<C> {
    /// Wrap `inner` with the default failure budget.
    pub fn new(inner: C) -> ResilientCache<C> {
        Self::with_budget(inner, DEFAULT_CACHE_FAILURE_BUDGET)
    }

    /// Wrap `inner`, disabling it after `budget` errors (floored at 1).
    pub fn with_budget(inner: C, budget: u64) -> ResilientCache<C> {
        ResilientCache {
            inner,
            budget: budget.max(1),
            failures: AtomicU64::new(0),
            disabled: AtomicBool::new(false),
        }
    }

    /// Backend errors observed so far (disabled-state short circuits
    /// are not errors and do not count).
    pub fn errors(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Whether the failure budget is spent and the backend is out of
    /// service.
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    fn note_failure(&self) {
        if self.failures.fetch_add(1, Ordering::Relaxed) + 1 >= self.budget {
            self.disabled.store(true, Ordering::Relaxed);
        }
    }
}

impl<C> SolutionCache for ResilientCache<C>
where
    C: std::ops::Deref + Send + Sync,
    C::Target: SolutionCache,
{
    fn get(&self, key: ProblemKey) -> Option<CachedSolution> {
        self.try_get(key).unwrap_or(None)
    }

    fn put(&self, key: ProblemKey, solution: CachedSolution) {
        let _ = self.try_put(key, solution);
    }

    fn len(&self) -> usize {
        if self.is_disabled() {
            0
        } else {
            self.inner.len()
        }
    }

    fn try_get(&self, key: ProblemKey) -> Result<Option<CachedSolution>, StoreError> {
        if self.is_disabled() {
            return Err(StoreError(
                "solution cache disabled after repeated errors".into(),
            ));
        }
        self.inner.try_get(key).inspect_err(|_| self.note_failure())
    }

    fn try_put(&self, key: ProblemKey, solution: CachedSolution) -> Result<(), StoreError> {
        if self.is_disabled() {
            return Err(StoreError(
                "solution cache disabled after repeated errors".into(),
            ));
        }
        self.inner
            .try_put(key, solution)
            .inspect_err(|_| self.note_failure())
    }
}

// ---------------------------------------------------------------------------
// The staged cached solver
// ---------------------------------------------------------------------------

/// How a cache-aware solve was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache, bit-identical to the run that produced it.
    Hit,
    /// Solved seeded from a cached size-`seed_n` prefix table.
    Warm {
        /// Size of the prefix instance the seed table solved.
        seed_n: usize,
    },
    /// Solved cold and inserted for next time.
    Miss,
    /// The cache was not used: the job is uncacheable (trace recording,
    /// Knuth), the backend failed (lookup or insert error — see
    /// [`ResilientCache`]), or the solve timed out (a partial table is
    /// never stored). Solved cold, nothing stored.
    Bypass,
}

impl CacheOutcome {
    /// The lower-case tag telemetry `cache` events carry.
    pub fn name(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm { .. } => "warm",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// [`Solver`] with a cache attached: [`Solver::solve`] split into its
/// four stages — [`key`](CachedSolver::key) →
/// [`lookup`](CachedSolver::lookup) →
/// [`solve_miss`](CachedSolver::solve_miss) →
/// [`insert`](CachedSolver::insert) — composed by
/// [`solve`](CachedSolver::solve). Takes a [`ProblemSpec`] rather than
/// a bare [`DpProblem`](crate::problem::DpProblem): identity needs the
/// canonical payload.
#[derive(Clone, Copy)]
pub struct CachedSolver<'c> {
    solver: Solver,
    cache: &'c dyn SolutionCache,
}

impl Solver {
    /// Attach a cache, splitting [`solve`](Solver::solve) into key →
    /// lookup → solve-miss → insert stages (see [`CachedSolver`]).
    pub fn with_cache(self, cache: &dyn SolutionCache) -> CachedSolver<'_> {
        CachedSolver {
            solver: self,
            cache,
        }
    }
}

impl<'c> CachedSolver<'c> {
    /// The underlying algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.solver.algorithm()
    }

    /// Stage 1 — the cache identity of `spec` under this solver's
    /// configuration, or `None` for cache-bypassing jobs.
    pub fn key(&self, spec: &ProblemSpec) -> Option<ProblemKey> {
        ProblemKey::derive(spec, self.solver.algorithm(), self.solver.solve_options())
    }

    /// Stage 2 — fetch and validate a stored solution for `spec`.
    /// Returns `None` on a true miss *and* on a record that does not
    /// answer this `(spec, algorithm)` request (the collision guard). A
    /// failing backend reads as a miss here; the composed
    /// [`solve`](CachedSolver::solve) then skips the warm probe and the
    /// insert too ([`CacheOutcome::Bypass`]).
    pub fn lookup(&self, spec: &ProblemSpec, key: ProblemKey) -> Option<Solution<u64>> {
        job::lookup(self.cache, spec, self.solver.algorithm(), key).unwrap_or(None)
    }

    /// Stage 3 — solve on a miss: probe cached prefix tables for a
    /// warm start (largest first), fall back to a cold solve.
    pub fn solve_miss(&self, spec: &ProblemSpec) -> (Solution<u64>, CacheOutcome) {
        let (algorithm, options) = (self.solver.algorithm(), self.solver.solve_options());
        let seed = job::probe(self.cache, spec, algorithm, options);
        let solution = job::solve(
            &spec.build(),
            algorithm,
            options,
            seed.as_ref().map(|(m, w)| (*m, w)),
        );
        match seed {
            Some((seed_n, _)) => (solution, CacheOutcome::Warm { seed_n }),
            None => (solution, CacheOutcome::Miss),
        }
    }

    /// Stage 4 — store `solution` under `key` for the next repeat. A
    /// failing backend leaves the cache as it was.
    pub fn insert(&self, spec: &ProblemSpec, key: ProblemKey, solution: &Solution<u64>) {
        let _ = job::insert(self.cache, spec, key, solution);
    }

    /// The composed staged solve: the crate's per-job step (read →
    /// solve → write) under this solver's own options. The returned
    /// solution is bit-identical to [`Solver::solve`] on the built
    /// instance — value and table always; trace and statistics too,
    /// except after a warm start, where they honestly report the
    /// (smaller) work actually done. Its wall time covers the stages.
    ///
    /// Degradation: a failing backend turns the outcome into
    /// [`CacheOutcome::Bypass`] (cold solve, warm probe and insert
    /// skipped); a timed-out solve is likewise never inserted — a
    /// partial table must not poison future lookups.
    pub fn solve(&self, spec: &ProblemSpec) -> (Solution<u64>, CacheOutcome) {
        let solved = job::step(
            Some(self.cache),
            spec,
            self.solver.algorithm(),
            self.solver.solve_options(),
            None,
        );
        (solved.solution, solved.outcome)
    }
}

/// One-call form of the staged solve for callers that hold the pieces
/// rather than a [`Solver`].
pub fn cached_solve(
    cache: &dyn SolutionCache,
    spec: &ProblemSpec,
    algorithm: Algorithm,
    options: &SolveOptions,
) -> (Solution<u64>, CacheOutcome) {
    Solver::new(algorithm)
        .options(*options)
        .with_cache(cache)
        .solve(spec)
}

/// Cache traffic counters of one batch run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Jobs served straight from the cache.
    pub hits: u64,
    /// Jobs not found in the cache (warm starts included).
    pub misses: u64,
    /// Missed jobs seeded from a cached prefix table.
    pub warm_starts: u64,
    /// Jobs that duplicated an earlier job in the same batch and reused
    /// its solution.
    pub deduped: u64,
    /// Cache backend errors, counted by the batch's [`ResilientCache`]
    /// exactly as serve counts `cache_errors`: failed lookups and inserts
    /// (each degraded its job to a cold solve, [`CacheOutcome::Bypass`])
    /// and failed warm-start probes.
    pub errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecBackend;

    fn spec(dims: &[u64]) -> ProblemSpec {
        ProblemSpec::chain(dims.to_vec()).unwrap()
    }

    fn seq_opts() -> SolveOptions {
        SolveOptions::default().exec(ExecBackend::Sequential)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pardp-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_separates_payload_family_algorithm_and_knobs() {
        let base =
            ProblemKey::derive(&spec(&[30, 35, 15, 5]), Algorithm::Sublinear, &seq_opts()).unwrap();
        // Payload.
        assert_ne!(
            base,
            ProblemKey::derive(&spec(&[30, 35, 15, 6]), Algorithm::Sublinear, &seq_opts()).unwrap()
        );
        // Family with an identical payload slice.
        let poly = ProblemSpec::polygon(vec![30, 35, 15, 5]).unwrap();
        assert_ne!(
            base,
            ProblemKey::derive(&poly, Algorithm::Sublinear, &seq_opts()).unwrap()
        );
        // Algorithm.
        assert_ne!(
            base,
            ProblemKey::derive(&spec(&[30, 35, 15, 5]), Algorithm::Sequential, &seq_opts())
                .unwrap()
        );
        // An identity-relevant knob the algorithm supports.
        assert_ne!(
            base,
            ProblemKey::derive(
                &spec(&[30, 35, 15, 5]),
                Algorithm::Sublinear,
                &seq_opts().termination(Termination::Fixpoint)
            )
            .unwrap()
        );
    }

    #[test]
    fn key_ignores_backend_square_and_grain() {
        let s = spec(&[30, 35, 15, 5, 10]);
        for algo in [Algorithm::Sublinear, Algorithm::Wavefront] {
            let base = ProblemKey::derive(&s, algo, &seq_opts()).unwrap();
            assert_eq!(
                base,
                ProblemKey::derive(&s, algo, &SolveOptions::default()).unwrap(),
                "{algo}: exec must not be identity-relevant"
            );
            assert_eq!(
                base,
                ProblemKey::derive(
                    &s,
                    algo,
                    &seq_opts().square(crate::ops::SquareStrategy::Naive)
                )
                .unwrap(),
                "{algo}: square must not be identity-relevant"
            );
            assert_eq!(
                base,
                ProblemKey::derive(&s, algo, &seq_opts().wavefront_grain(1)).unwrap(),
                "{algo}: grain must not be identity-relevant"
            );
        }
    }

    #[test]
    fn knuth_and_traced_jobs_bypass() {
        let s = spec(&[30, 35, 15, 5]);
        assert!(ProblemKey::derive(&s, Algorithm::Knuth, &seq_opts()).is_none());
        assert!(
            ProblemKey::derive(&s, Algorithm::Sublinear, &seq_opts().record_trace(true)).is_none()
        );
        let cache = MemoryCache::new(4);
        let (sol, outcome) = Solver::new(Algorithm::Sublinear)
            .options(seq_opts().record_trace(true))
            .with_cache(&cache)
            .solve(&s);
        assert_eq!(outcome, CacheOutcome::Bypass);
        assert_eq!(sol.value(), 7875);
        assert!(cache.is_empty());
    }

    #[test]
    fn memory_cache_hit_is_bit_identical() {
        let s = spec(&[30, 35, 15, 5, 10, 20, 25]);
        let cache = MemoryCache::new(8);
        let solver = Solver::new(Algorithm::Sublinear).options(seq_opts());
        let staged = solver.with_cache(&cache);
        let (cold, o1) = staged.solve(&s);
        assert_eq!(o1, CacheOutcome::Miss);
        let (hit, o2) = staged.solve(&s);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(hit.value(), 15125);
        assert!(hit.w.table_eq(&cold.w));
        assert_eq!(hit.stats, cold.stats);
        assert_eq!(
            serde_json::to_string(&hit.trace).unwrap(),
            serde_json::to_string(&cold.trace).unwrap()
        );
    }

    #[test]
    fn warm_start_matches_cold_solve_for_every_family() {
        let specs = [
            spec(&[30, 35, 15, 5, 10, 20, 25, 12, 7]),
            ProblemSpec::obst(vec![4, 2, 6, 3, 1, 5, 2], vec![1, 3, 2, 1, 2, 4, 1, 2]).unwrap(),
            ProblemSpec::polygon(vec![3, 7, 4, 5, 2, 6, 4, 8]).unwrap(),
            ProblemSpec::merge(vec![5, 2, 7, 1, 4, 3, 6, 2]).unwrap(),
        ];
        for s in specs {
            for algo in [
                Algorithm::Sequential,
                Algorithm::Wavefront,
                Algorithm::Sublinear,
                Algorithm::Reduced,
            ] {
                let cache = MemoryCache::new(8);
                let staged = Solver::new(algo).options(seq_opts()).with_cache(&cache);
                let prefix = s.prefix(s.n() - 2).unwrap();
                let (_, po) = staged.solve(&prefix);
                assert_eq!(po, CacheOutcome::Miss);
                let (warm, outcome) = staged.solve(&s);
                assert_eq!(
                    outcome,
                    CacheOutcome::Warm { seed_n: s.n() - 2 },
                    "{} {algo}",
                    s.family()
                );
                let cold = Solver::new(algo).options(seq_opts()).solve(&s.build());
                assert_eq!(warm.value(), cold.value(), "{} {algo}", s.family());
                assert!(warm.w.table_eq(&cold.w), "{} {algo}", s.family());
                if matches!(algo, Algorithm::Sequential | Algorithm::Wavefront) {
                    // Direct warm starts are fully identical, trace included.
                    assert_eq!(warm.trace, cold.trace);
                    assert_eq!(warm.stats, cold.stats);
                } else {
                    // Iterative warm starts do strictly less pebble work.
                    assert!(warm.stats.candidates <= cold.stats.candidates);
                }
                // The warm solution was inserted: next solve hits.
                let (_, o3) = staged.solve(&s);
                assert_eq!(o3, CacheOutcome::Hit);
            }
        }
    }

    #[test]
    fn lru_evicts_stalest_entry_only() {
        let cache = MemoryCache::new(2);
        let specs = [spec(&[2, 3, 4]), spec(&[5, 6, 7]), spec(&[8, 9, 10])];
        let staged = Solver::new(Algorithm::Sequential)
            .options(seq_opts())
            .with_cache(&cache);
        let (a, _) = staged.solve(&specs[0]);
        staged.solve(&specs[1]).0.value();
        // Touch the first entry so the second is stalest.
        assert_eq!(staged.solve(&specs[0]).1, CacheOutcome::Hit);
        staged.solve(&specs[2]).0.value();
        assert_eq!(cache.len(), 2);
        let (a2, o) = staged.solve(&specs[0]);
        assert_eq!(o, CacheOutcome::Hit);
        assert!(a2.w.table_eq(&a.w));
        assert_eq!(staged.solve(&specs[1]).1, CacheOutcome::Miss);
    }

    #[test]
    fn file_store_survives_reopen_and_skips_torn_tail() {
        let dir = temp_dir("reopen");
        let s = spec(&[30, 35, 15, 5, 10, 20, 25]);
        let solver = Solver::new(Algorithm::Reduced).options(seq_opts());
        {
            let store = FileStore::open(&dir).unwrap();
            let (sol, o) = solver.with_cache(&store).solve(&s);
            assert_eq!(o, CacheOutcome::Miss);
            assert_eq!(sol.value(), 15125);
            assert_eq!(store.len(), 1);
        }
        // Simulate a torn append: garbage after the valid record.
        let data = FileStore::data_path(&dir);
        {
            let mut f = OpenOptions::new().append(true).open(&data).unwrap();
            f.write_all(b"PARDPST1 torn half-written record").unwrap();
        }
        {
            let store = FileStore::open_existing(&dir).unwrap();
            assert_eq!(store.len(), 1);
            assert!(store.skipped_bytes() > 0);
            let (hit, o) = solver.with_cache(&store).solve(&s);
            assert_eq!(o, CacheOutcome::Hit);
            assert_eq!(hit.value(), 15125);
            // The next put overwrites the torn tail cleanly.
            let s2 = spec(&[5, 10, 3, 12, 5]);
            assert_eq!(solver.with_cache(&store).solve(&s2).1, CacheOutcome::Miss);
        }
        let store = FileStore::open_existing(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.skipped_bytes(), 0);
        let st = store.stat().unwrap();
        assert_eq!(st.records, 2);
        assert_eq!(st.families, vec![("chain".to_string(), 2)]);
        assert_eq!(store.wipe().unwrap(), 2);
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_existing_rejects_missing_directory() {
        let err = FileStore::open_existing("/nonexistent/pardp-cache").unwrap_err();
        assert!(err.0.contains("does not exist"), "{err}");
    }

    #[test]
    fn injected_torn_write_corrupts_mid_file_and_costs_only_its_record() {
        use crate::fault::{FaultPlan, FaultSite};

        let dir = temp_dir("torn-write");
        // The second append is torn: half a record lands *between* two
        // valid ones, so the next open must skip a corrupt page in the
        // middle of the file, not just a garbage tail.
        let plan = Arc::new(FaultPlan::new().fail(FaultSite::TornWrite, &[1]));
        let solver = Solver::new(Algorithm::Reduced).options(seq_opts());
        let s0 = spec(&[30, 35, 15, 5]);
        let s1 = spec(&[5, 10, 3, 12, 5]);
        let s2 = spec(&[30, 35, 15, 5, 10]);
        {
            let store = FileStore::open(&dir).unwrap().with_fault_plan(plan);
            let staged = solver.with_cache(&store);
            assert_eq!(staged.solve(&s0).1, CacheOutcome::Miss);
            // The torn append fails: the job degrades to Bypass but is
            // still answered, and the broken record is never indexed.
            let (sol, outcome) = staged.solve(&s1);
            assert_eq!(outcome, CacheOutcome::Bypass);
            assert_eq!(sol.value(), solver.solve(&s1.build()).value());
            // s2 extends s0, so it warm-starts from the cached prefix —
            // and its insert lands cleanly *after* the torn page.
            assert_eq!(staged.solve(&s2).1, CacheOutcome::Warm { seed_n: 3 });
            assert_eq!(store.len(), 2);
        }
        let store = FileStore::open_existing(&dir).unwrap();
        assert_eq!(store.len(), 2, "the valid records bracket the tear");
        assert!(store.skipped_bytes() > 0, "the torn page is accounted");
        let staged = solver.with_cache(&store);
        assert_eq!(staged.solve(&s0).1, CacheOutcome::Hit);
        assert_eq!(staged.solve(&s2).1, CacheOutcome::Hit);
        // The torn record's job can be stored cleanly now (no plan).
        assert_eq!(staged.solve(&s1).1, CacheOutcome::Miss);
        assert_eq!(staged.solve(&s1).1, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resilient_cache_disables_the_backend_after_its_budget() {
        use crate::fault::{FaultPlan, FaultSite, FaultyCache};

        let plan = Arc::new(FaultPlan::new().fail(FaultSite::StoreRead, &[1, 2]));
        let faulty = Arc::new(FaultyCache::new(
            Arc::new(MemoryCache::new(8)),
            Arc::clone(&plan),
        ));
        let resilient = ResilientCache::with_budget(faulty, 2);
        let key =
            ProblemKey::derive(&spec(&[30, 35, 15, 5]), Algorithm::Sublinear, &seq_opts()).unwrap();
        // Occurrence 0 is healthy, 1 and 2 fail — spending the budget.
        assert!(resilient.try_get(key).unwrap().is_none());
        assert!(resilient.try_get(key).is_err());
        assert_eq!(resilient.errors(), 1);
        assert!(!resilient.is_disabled());
        assert!(resilient.try_get(key).is_err());
        assert_eq!(resilient.errors(), 2);
        assert!(resilient.is_disabled());
        // Disabled: every call short-circuits without touching the
        // backend — the error count freezes and no occurrence is spent.
        assert!(resilient.try_get(key).is_err());
        assert!(resilient.get(key).is_none());
        assert_eq!(resilient.len(), 0);
        assert_eq!(resilient.errors(), 2);
        assert_eq!(plan.occurrences(FaultSite::StoreRead), 3);
    }

    #[test]
    fn staged_solve_degrades_to_cold_solves_on_store_errors() {
        use crate::fault::{FaultPlan, FaultSite, FaultyCache};

        let plan = Arc::new(
            FaultPlan::new()
                .fail(FaultSite::StoreRead, &[1])
                .fail(FaultSite::StoreWrite, &[1]),
        );
        let faulty = Arc::new(FaultyCache::new(
            Arc::new(MemoryCache::new(8)),
            Arc::clone(&plan),
        ));
        let resilient = ResilientCache::new(faulty);
        let solver = Solver::new(Algorithm::Sublinear).options(seq_opts());
        let staged = solver.with_cache(&resilient);
        // n = 2 specs: no warm-start prefixes exist, so each solve
        // probes exactly one StoreRead (and at most one StoreWrite)
        // occurrence and the explicit schedule indexes by solve.
        let s0 = spec(&[30, 35, 15]);
        let s1 = spec(&[5, 10, 3]);

        // Healthy miss + insert.
        let (cold, o) = staged.solve(&s0);
        assert_eq!(o, CacheOutcome::Miss);
        // Lookup error: the solve is cold but correct, and the insert
        // is skipped (one failing disk costs one error, not two).
        let (sol, o) = staged.solve(&s0);
        assert_eq!(o, CacheOutcome::Bypass);
        assert_eq!(sol.value(), cold.value());
        assert!(sol.w.table_eq(&cold.w));
        // Insert error: the answer is unaffected.
        let (sol, o) = staged.solve(&s1);
        assert_eq!(o, CacheOutcome::Bypass);
        assert_eq!(sol.value(), solver.solve(&s1.build()).value());
        // The backend recovers (occurrences past the schedule): the
        // record stored before the errors still hits bit-identically.
        let (hit, o) = staged.solve(&s0);
        assert_eq!(o, CacheOutcome::Hit);
        assert!(hit.w.table_eq(&cold.w));
        assert_eq!(resilient.errors(), 2);
        assert!(!resilient.is_disabled());
    }
}
