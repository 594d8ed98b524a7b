//! The three parallel operations of the algorithm (§2), in three storage
//! regimes:
//!
//! * **dense** — the `O(n^5)`-work algorithm of §2/§4 over [`DensePw`]'s
//!   compact rows of nested gaps;
//! * **rytter** — the full-composition square of Rytter \[8\] (`O(n^6)`
//!   work) over the same dense storage, used as the baseline;
//! * **banded** — the §5 reduced-processor variant over [`BandedPw`]
//!   (`O(n^3.5)` work per square), with the windowed pebble step.
//!
//! Every operation has PRAM semantics: all reads observe the *previous*
//! state. `a-square` and `a-pebble` therefore read from one buffer and
//! write another (the caller swaps); `a-activate` only writes cells no
//! other task reads in the same step, so it updates in place.
//!
//! Each op has one entry point per storage regime, the form the
//! iteration engine runs:
//!
//! | op | dense | rytter | banded |
//! |---|---|---|---|
//! | `a-activate` (eq. 1a/1b) | [`a_activate_dense_tracked`] | (dense) | [`a_activate_banded_tracked`] |
//! | `a-square` (eq. 2c) | [`a_square_dense_scheduled`] | [`a_square_rytter_with`] | [`a_square_banded_scheduled`] |
//! | `a-pebble` (eq. 3) | [`a_pebble_dense_scheduled`] | (dense) | [`a_pebble_banded_scheduled`] |
//!
//! Each function returns [`OpStats`]: the number of composition candidates
//! examined (the unit-work measure used by the E8/E9 accounting) and
//! whether any table cell strictly improved (the §7 convergence signal).
//! All functions take an [`ExecBackend`]; the parallel backends partition
//! the written table into disjoint parts, which keeps writes disjoint
//! without locks (the CREW exclusive-write discipline), so every backend
//! computes identical tables. The dense ops take one part per root row
//! ([`DensePw`]'s `rows_mut`), the banded activate and square one part
//! per root width ([`BandedPw`]'s `widths_mut`), and the pebbles one part
//! per `w'` row.
//!
//! Each square has two kernels, selected by [`SquareStrategy`]: the
//! kernel the iteration engine always runs, and a per-cell naive
//! reference that the parity tests and benches compare it with:
//!
//! | square | kernel ([`SquareStrategy::Auto`]) | reference ([`SquareStrategy::Naive`]) |
//! |---|---|---|
//! | [`a_square_dense_scheduled`] | streams each intermediate's cells over [`DensePw`]'s segment layout, positions kept incrementally | [`DensePw::get`] per candidate |
//! | [`a_square_rytter_with`] | streams each intermediate's segments over the same layout | [`DensePw::get`] per candidate |
//! | [`a_square_banded_scheduled`] | eight roots of one width per step over [`BandedPw`]'s width-major layout, each candidate one lane-wise `min(cell, v + step)` over contiguous runs; an AVX-512 build is chosen at run time | [`BandedPw::get`] per candidate |
//!
//! Both kernels of a square enumerate exactly the same candidate set, in
//! the same per-cell order, so tables (`f64` bits too) and [`OpStats`]
//! are identical; only the memory access order differs.
//!
//! Convergence-aware scheduling: the activates return per-row changed
//! bits, and the dense and banded squares and pebbles take an optional
//! `skip` mask. Rows and pairs whose inputs did not change since the
//! previous pass are copied forward instead of recomputed, and
//! per-row/per-pair changed bits are returned for the caller's next
//! scheduling decision. A caller without a schedule passes `None`.

use serde::{Deserialize, Serialize};

use crate::exec::disjoint::DisjointPartsMut;
use crate::exec::ExecBackend;
use crate::problem::DpProblem;
use crate::tables::{BandedPw, DensePw, PairIndexer, WTable};
use crate::weight::Weight;

/// Work and change accounting for one operation application.
///
/// `candidates` is the *work* of the operation in the Work/Span sense;
/// see the model discussion on [`crate::trace`] and the critical-path
/// estimate [`crate::trace::SolveTrace::span_estimate`]. Serialized as
/// the per-op fields of a trace's [`crate::trace::IterationRecord`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    /// Composition candidates examined (pairs combined with `+` and fed to
    /// `min`). This is the unit-work measure of the paper's analysis.
    pub candidates: u64,
    /// Table cells whose stored value strictly improved — the cells that
    /// received an *actual* new value. Values merely carried forward (the
    /// copy into the `next` buffer of a double-buffered pass, the
    /// untouched cell of an in-place pass, or the copied-out pair of a
    /// windowed pebble) are not writes, so the figure is comparable
    /// across all operations, and `changed == (writes > 0)` always holds.
    pub writes: u64,
    /// Whether any cell strictly improved.
    pub changed: bool,
}

impl OpStats {
    /// Merge statistics from two disjoint portions of the index space.
    pub fn merge(self, other: OpStats) -> OpStats {
        OpStats {
            candidates: self.candidates + other.candidates,
            writes: self.writes + other.writes,
            changed: self.changed || other.changed,
        }
    }
}

/// Run `process` once per `pw'` row of `rows` on `exec`, collecting the
/// row's changed-flag: the shape of every `a-activate` and `a-square`
/// pass. `grain` is the pool's block floor (see
/// [`ExecBackend::map_reduce`]).
fn map_rows_flagged<W: Weight>(
    exec: &ExecBackend,
    rows: DisjointPartsMut<'_, W>,
    grain: usize,
    process: impl Fn(usize, &mut [W]) -> (OpStats, bool) + Sync,
) -> (OpStats, Vec<bool>) {
    let mut flags = vec![false; rows.parts()];
    let stats = exec.map_reduce(
        rows,
        DisjointPartsMut::uniform(&mut flags, 1),
        grain,
        |a, row, flag| {
            let (stats, changed) = process(a, row);
            flag[0] = changed;
            stats
        },
        OpStats::default,
        OpStats::merge,
    );
    (stats, flags)
}

// ---------------------------------------------------------------------------
// Square kernel selection
// ---------------------------------------------------------------------------

/// Which kernel a square op runs.
///
/// Both kernels examine exactly the same candidate set, in the same
/// per-cell min order, and produce bit-identical tables and identical
/// [`OpStats`]; they differ only in memory access order, and therefore
/// speed. The naive order gathers each cell's intermediates one accessor
/// call at a time; the streaming kernels walk each intermediate's
/// compatible cells with positions kept incrementally. The iteration
/// engine always runs [`Auto`](SquareStrategy::Auto); only direct callers
/// of the square ops pick [`Naive`](SquareStrategy::Naive), as the
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SquareStrategy {
    /// The per-cell reference: each cell gathers its intermediates
    /// through the tables' accessors.
    Naive,
    /// The streaming kernels, which the iteration engine runs.
    #[default]
    Auto,
}

// ---------------------------------------------------------------------------
// a-activate (eq. 1a/1b)
// ---------------------------------------------------------------------------

/// `a-activate` over dense storage:
/// for all `0 <= i < k < j <= n` in parallel,
///
/// ```text
/// pw'(i,j,i,k) := min { pw'(i,j,i,k), f(i,k,j) + w'(k,j) }
/// pw'(i,j,k,j) := min { pw'(i,j,k,j), f(i,k,j) + w'(i,k) }
/// ```
///
/// Each `pw'` cell is written by exactly one triple, so the update is
/// CREW-safe in place. Also returns the per-row changed bits (indexed by
/// the pair index of the row) that feed the dirty-row scheduler of
/// [`a_square_dense_scheduled`].
pub fn a_activate_dense_tracked<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    w: &WTable<W>,
    pw: &mut DensePw<W>,
    exec: &ExecBackend,
) -> (OpStats, Vec<bool>) {
    let idx = pw.indexer().clone();
    let process_row = |a: usize, row: &mut [W]| -> (OpStats, bool) {
        let (i, j) = idx.pair(a);
        let d = j - i;
        let mut stats = OpStats::default();
        if d < 2 {
            return (stats, false);
        }
        for k in i + 1..j {
            let fikj = problem.f(i, k, j);
            // Gap (i,k): remaining subtree is (k,j). Segment 0.
            let b1 = k - i - 1;
            let cand1 = fikj.add(w.get(k, j));
            if cand1 < row[b1] {
                row[b1] = cand1;
                stats.writes += 1;
            }
            // Gap (k,j): remaining subtree is (i,k). Last cell of
            // segment k - i.
            let b2 = DensePw::<W>::segment_offset(d, k - i) + (j - k - 1);
            let cand2 = fikj.add(w.get(i, k));
            if cand2 < row[b2] {
                row[b2] = cand2;
                stats.writes += 1;
            }
            stats.candidates += 2;
        }
        stats.changed = stats.writes > 0;
        (stats, stats.changed)
    };
    map_rows_flagged(exec, pw.rows_mut(), 1, process_row)
}

// ---------------------------------------------------------------------------
// a-square (eq. 2c) — the paper's restricted composition
// ---------------------------------------------------------------------------

/// `a-square` over dense storage:
/// for all `0 <= i <= p < q <= j <= n` in parallel,
///
/// ```text
/// pw'(i,j,p,q) := min { pw'(i,j,p,q),
///                       min_{i <= r < p} pw'(i,j,r,q) + pw'(r,q,p,q),
///                       min_{q < s <= j} pw'(i,j,p,s) + pw'(p,s,p,q) }
/// ```
///
/// The composition is *restricted* to intermediate gaps sharing an
/// endpoint with `(p,q)` — the source of the `O(n^5)` (vs Rytter's
/// `O(n^6)`) work bound. Reads come from `prev`; writes go to `next`.
///
/// * `strategy` selects the candidate enumeration order — both kernels
///   produce bit-identical tables and identical [`OpStats`].
/// * `skip`, if given, marks rows whose **inputs** did not change since
///   the previous square (row `(i,j)` reads only rows nested in `(i,j)`,
///   all of which the caller observed unchanged). Such rows are copied
///   from `prev` instead of recomputed — sound because the square is a
///   deterministic function of its input rows, so recomputing would
///   reproduce the previous output — and report zero candidates and no
///   change.
/// * The returned `Vec<bool>` holds the per-row changed bits for the
///   caller's next scheduling decision.
pub fn a_square_dense_scheduled<W: Weight>(
    prev: &DensePw<W>,
    next: &mut DensePw<W>,
    strategy: SquareStrategy,
    skip: Option<&[bool]>,
    exec: &ExecBackend,
) -> (OpStats, Vec<bool>) {
    let process_row = |a: usize, next_row: &mut [W]| -> (OpStats, bool) {
        if skip.is_some_and(|mask| mask[a]) {
            next_row.copy_from_slice(prev.row(a));
            return (OpStats::default(), false);
        }
        let stats = match strategy {
            SquareStrategy::Naive => square_row_naive(prev, a, next_row),
            SquareStrategy::Auto => square_row_streamed(prev, a, next_row),
        };
        (stats, stats.changed)
    };
    // With a skip mask many rows degrade to memcpys, individually too
    // cheap to schedule — coarsen the block floor so claim overhead is
    // amortised across several rows.
    let grain = if skip.is_some() { 8 } else { 1 };
    map_rows_flagged(exec, next.rows_mut(), grain, process_row)
}

/// Reference kernel: for every cell, gather every intermediate through
/// the [`DensePw::get`] accessor, straight from eq. (2c).
fn square_row_naive<W: Weight>(prev: &DensePw<W>, a: usize, next_row: &mut [W]) -> OpStats {
    let (i, j) = prev.indexer().pair(a);
    let mut stats = OpStats::default();
    let mut pos = 0;
    for p in i..j {
        for q in p + 1..=j {
            let old = prev.get(i, j, p, q);
            let mut best = old;
            // Intermediate gaps (r, q), i <= r < p.
            for r in i..p {
                best = best.min2(prev.get(i, j, r, q).add(prev.get(r, q, p, q)));
            }
            // Intermediate gaps (p, s), q < s <= j.
            for s in q + 1..=j {
                best = best.min2(prev.get(i, j, p, s).add(prev.get(p, s, p, q)));
            }
            stats.candidates += (p - i) as u64 + (j - q) as u64;
            if best < old {
                stats.writes += 1;
            }
            // Storage order is (p, q) lexicographic.
            next_row[pos] = best;
            pos += 1;
        }
    }
    stats.changed = stats.writes > 0;
    stats
}

/// Streaming kernel: identical candidate set and, per cell, the same
/// min order (`s`-family, then `r`-family by ascending `r`), so tables
/// are bit-identical to the naive kernel's for every weight type.
///
/// * **`s`-family** (intermediates `(p, s)` sharing the cell's left
///   endpoint): the cells `(p, q)`, `q < s`, are the head of one
///   contiguous segment of the root row, and their second factors
///   `pw'(p,s,p,q)` the head of the first segment of the intermediate's
///   row, so each intermediate updates one contiguous slice. A segment
///   holds at most `n` cells, so it stays cache-resident while its
///   intermediates stream over it.
/// * **`r`-family** (intermediates `(r, q)` sharing the cell's right
///   endpoint): walked intermediate-major. For each `(r, q)`, the cells
///   `(p, q)` with `p` ascending; the root-row position advances by
///   `d - (p - i) - 1` and the second factor (the last cell of segment
///   `p - r` of row `(r, q)`) by `q - p - 1`, so no position is
///   recomputed per candidate.
///
/// Intermediates whose stored partial weight is still infinite
/// contribute no finite candidate, so they are counted in bulk and their
/// rows never read — a large win in the early iterations when most of
/// `pw` is unreached.
fn square_row_streamed<W: Weight>(prev: &DensePw<W>, a: usize, next_row: &mut [W]) -> OpStats {
    let idx = prev.indexer();
    let (i, j) = idx.pair(a);
    let d = j - i;
    let prev_row = prev.row(a);
    next_row.copy_from_slice(prev_row);
    let mut stats = OpStats::default();

    // s-family: cells (p, q) gather intermediates (p, s), q < s <= j.
    // `seg` is the root-row offset of segment p - i; cell (p, q) sits at
    // seg + (q - p - 1), intermediate (p, s) at seg + (s - p - 1).
    let mut seg = 0;
    for p in i..j {
        let c_base = idx.index(p, p + 1);
        for s in p + 2..=j {
            // The cells (p, p+1 ..= s-1): the first s - p - 1 of the
            // segment.
            let len = s - p - 1;
            stats.candidates += len as u64;
            let vs = prev_row[seg + len];
            if !vs.is_finite_cost() {
                continue;
            }
            // Segment 0 of row (p, s) holds pw'(p,s,p,q) at q - p - 1.
            let crow = &prev.row(c_base + len)[..len];
            for (cell, &step) in next_row[seg..seg + len].iter_mut().zip(crow) {
                let cand = vs.add(step);
                if cand < *cell {
                    *cell = cand;
                }
            }
        }
        seg += d - (p - i);
    }

    // r-family: cells (p, q) gather intermediates (r, q), i <= r < p.
    // `seg_r` is the root-row offset of segment r - i, `seg_p` that of
    // segment r + 1 - i (the cells with p = r + 1).
    let mut seg_r = 0;
    for r in i..j - 1 {
        let seg_p = seg_r + (d - (r - i));
        let c_base = idx.index(r, r + 1);
        for q in r + 2..=j {
            stats.candidates += (q - r - 1) as u64;
            let vr = prev_row[seg_r + (q - r - 1)];
            if !vr.is_finite_cost() {
                continue;
            }
            let crow = prev.row(c_base + (q - r - 1));
            // Last cell of segment 1 of the width-(q - r) row (r, q).
            let mut step_pos = 2 * (q - r) - 2;
            let mut cell_pos = seg_p + (q - r - 2);
            for p in r + 1..q {
                let cand = vr.add(crow[step_pos]);
                let cell = &mut next_row[cell_pos];
                if cand < *cell {
                    *cell = cand;
                }
                step_pos += q - p - 1;
                cell_pos += d - (p - i) - 1;
            }
        }
        seg_r = seg_p;
    }

    count_row_writes(prev_row, next_row, &mut stats);
    stats
}

/// Count the actual writes of a min-accumulated row: the cells whose
/// value in `next_row` now differs from (i.e. improved on) `prev_row`,
/// and set the row's changed bit accordingly.
fn count_row_writes<W: Weight>(prev_row: &[W], next_row: &[W], stats: &mut OpStats) {
    for (new, old) in next_row.iter().zip(prev_row) {
        if new != old {
            stats.writes += 1;
        }
    }
    stats.changed = stats.writes > 0;
}

/// Rytter's square \[8\] over the same dense storage: composition through
/// **every** intermediate gap,
///
/// ```text
/// pw'(i,j,p,q) := min { pw'(i,j,p,q),
///                       min_{(r,s): i<=r<=p, q<=s<=j, r<s}
///                           pw'(i,j,r,s) + pw'(r,s,p,q) }
/// ```
///
/// i.e. a masked min-plus matrix square — `Theta(n^6)` candidates, the
/// work figure the paper improves on.
///
/// `strategy` selects the kernel. Both produce bit-identical tables and
/// identical [`OpStats`]; [`SquareStrategy::Auto`] selects the
/// intermediate-major streaming kernel (for the full composition every
/// cell nested in an intermediate is compatible with it, so the
/// per-intermediate update footprint is a run of contiguous segments).
pub fn a_square_rytter_with<W: Weight>(
    prev: &DensePw<W>,
    next: &mut DensePw<W>,
    strategy: SquareStrategy,
    exec: &ExecBackend,
) -> OpStats {
    let process_row = |a: usize, next_row: &mut [W], _: &mut [()]| -> OpStats {
        match strategy {
            SquareStrategy::Naive => rytter_row_naive(prev, a, next_row),
            SquareStrategy::Auto => rytter_row_streamed(prev, a, next_row),
        }
    };
    // No per-row flags here: the side partition is zero-sized, so it
    // allocates nothing.
    let mut unit = vec![(); prev.dim()];
    exec.map_reduce(
        next.rows_mut(),
        DisjointPartsMut::uniform(&mut unit, 1),
        1,
        process_row,
        OpStats::default,
        OpStats::merge,
    )
}

/// Reference kernel: per-cell gather over every intermediate gap through
/// the [`DensePw::get`] accessor.
fn rytter_row_naive<W: Weight>(prev: &DensePw<W>, a: usize, next_row: &mut [W]) -> OpStats {
    let (i, j) = prev.indexer().pair(a);
    let mut stats = OpStats::default();
    let mut pos = 0;
    for p in i..j {
        for q in p + 1..=j {
            let old = prev.get(i, j, p, q);
            let mut best = old;
            for r in i..=p {
                for s in q.max(r + 1)..=j {
                    best = best.min2(prev.get(i, j, r, s).add(prev.get(r, s, p, q)));
                    stats.candidates += 1;
                }
            }
            if best < old {
                stats.writes += 1;
            }
            next_row[pos] = best;
            pos += 1;
        }
    }
    stats.changed = stats.writes > 0;
    stats
}

/// Streaming kernel: intermediate-major enumeration. The cells
/// compatible with an intermediate gap `(r, s)` are exactly the pairs
/// nested in `(r, s)`: for each `p`, the head `(p, p+1 ..= s)` of root
/// segment `p - i`, paired with the whole segment `p - r` of row
/// `(r, s)`. So each intermediate row is read once, front to back, and
/// both segment starts advance by a segment length. Intermediates whose
/// partial weight is still infinite are counted in bulk and skipped.
fn rytter_row_streamed<W: Weight>(prev: &DensePw<W>, a: usize, next_row: &mut [W]) -> OpStats {
    let idx = prev.indexer();
    let (i, j) = idx.pair(a);
    let d = j - i;
    let prev_row = prev.row(a);
    next_row.copy_from_slice(prev_row);
    let mut stats = OpStats::default();
    // Root-row offset of segment r - i.
    let mut seg_r = 0;
    for r in i..j {
        let c_base = idx.index(r, r + 1);
        for s in r + 1..=j {
            let vc = prev_row[seg_r + (s - r - 1)];
            let width = (s - r) as u64;
            stats.candidates += width * (width + 1) / 2;
            if !vc.is_finite_cost() {
                continue;
            }
            let crow = prev.row(c_base + (s - r - 1));
            let (mut cell_seg, mut step_seg) = (seg_r, 0);
            for p in r..s {
                let len = s - p;
                let cells = &mut next_row[cell_seg..cell_seg + len];
                for (cell, &step) in cells.iter_mut().zip(&crow[step_seg..step_seg + len]) {
                    let cand = vc.add(step);
                    if cand < *cell {
                        *cell = cand;
                    }
                }
                cell_seg += d - (p - i);
                step_seg += len;
            }
        }
        seg_r += d - (r - i);
    }
    count_row_writes(prev_row, next_row, &mut stats);
    stats
}

// ---------------------------------------------------------------------------
// a-pebble (eq. 3)
// ---------------------------------------------------------------------------

/// The per-left-endpoint spans used to hand each `a-pebble` task its
/// private range of the per-pair flag vector: pairs sharing a left
/// endpoint are contiguous in pair-index space, so `w'` row `i` owns the
/// flag slots of pairs `(i, i+1 ..= n)`.
fn pebble_flag_spans(idx: &PairIndexer) -> Vec<(usize, usize)> {
    let n = idx.n();
    (0..=n)
        .map(|i| {
            if i < n {
                let start = idx.index(i, i + 1);
                (start, start + (n - i))
            } else {
                (idx.len(), idx.len())
            }
        })
        .collect()
}

/// `a-pebble` over dense storage:
/// for all `0 <= i < j <= n` in parallel,
///
/// ```text
/// w'(i,j) := min_{i <= p < q <= j} { pw'(i,j,p,q) + w'(p,q) }
/// ```
///
/// The `(p,q) = (i,j)` candidate contributes `0 + w'(i,j)`, so the update
/// is monotone non-increasing. Reads `w_prev`, writes `w_next`
/// (partitioned by `w_next` row, one parallel task per left endpoint `i`).
///
/// `skip`, if given, marks pairs whose **inputs** (their `pw'` row and the
/// `w'` values of their nested pairs) did not change since the pair was
/// last re-minimised; such pairs copy their previous value forward and
/// report zero candidates — sound because the pebble is a deterministic
/// monotone function of those inputs. The returned `Vec<bool>` holds the
/// per-pair changed bits (did `w'(i,j)` strictly improve?) that feed the
/// caller's next scheduling decision.
pub fn a_pebble_dense_scheduled<W: Weight>(
    pw: &DensePw<W>,
    w_prev: &WTable<W>,
    w_next: &mut WTable<W>,
    skip: Option<&[bool]>,
    exec: &ExecBackend,
) -> (OpStats, Vec<bool>) {
    let n = w_prev.n();
    let idx = pw.indexer().clone();
    let w_cells = w_prev.as_slice();
    let flag_spans = pebble_flag_spans(&idx);
    let mut flags = vec![false; idx.len()];
    let process_w_row = |i: usize, out_row: &mut [W], flags: &mut [bool]| -> OpStats {
        let mut stats = OpStats::default();
        // Pair index of (i, j) is a_base + (j - i - 1); hoisted out of
        // the per-cell path.
        let a_base = if i < n { idx.index(i, i + 1) } else { 0 };
        for (j, out_cell) in out_row.iter_mut().enumerate().skip(i + 1) {
            let a = a_base + (j - i - 1);
            let old = w_prev.get(i, j);
            if skip.is_some_and(|mask| mask[a]) {
                *out_cell = old;
                continue;
            }
            // Walk the row in storage order: segment p - i pairs the gaps
            // (p, p+1 ..= j) with w'(p, p+1 ..= j), contiguous in both
            // tables. The (i,j) gap itself (pw' = 0) is the free
            // candidate `old` already holds; re-evaluating it cannot
            // undercut `old`, so it is left in the walk but not counted.
            let row = pw.row(a);
            let mut best = old;
            let mut pos = 0;
            for p in i..j {
                let len = j - p;
                let w_seg = &w_cells[p * (n + 1) + p + 1..][..len];
                for (&pwv, &wv) in row[pos..pos + len].iter().zip(w_seg) {
                    best = best.min2(pwv.add(wv));
                }
                pos += len;
            }
            stats.candidates += (row.len() - 1) as u64;
            if best < old {
                stats.changed = true;
                stats.writes += 1;
                flags[j - i - 1] = true;
            }
            *out_cell = best;
        }
        stats
    };
    let total = exec.map_reduce(
        DisjointPartsMut::uniform(w_next.as_mut_slice(), n + 1),
        DisjointPartsMut::new(&mut flags, &flag_spans),
        1,
        process_w_row,
        OpStats::default,
        OpStats::merge,
    );
    (total, flags)
}

// ---------------------------------------------------------------------------
// Banded (§5) ops
// ---------------------------------------------------------------------------

/// Run `process(d, block, flags)` once per width block of `pw` on `exec`:
/// the shape of the banded `a-activate` and `a-square`. `flags[i]` is the
/// changed-flag of root `(i, i + d)`; the flags come back in pair-index
/// order.
fn map_widths_flagged<W: Weight>(
    exec: &ExecBackend,
    pw: &mut BandedPw<W>,
    process: impl Fn(usize, &mut [W], &mut [bool]) -> OpStats + Sync,
) -> (OpStats, Vec<bool>) {
    let idx = pw.indexer().clone();
    let n = idx.n();
    // Width-major flags: the roots of width d at `spans[d - 1]`.
    let mut end = 0;
    let spans: Vec<(usize, usize)> = (1..=n)
        .map(|d| {
            let start = end;
            end += n + 1 - d;
            (start, end)
        })
        .collect();
    let mut by_width = vec![false; idx.len()];
    let stats = exec.map_reduce(
        pw.widths_mut(),
        DisjointPartsMut::new(&mut by_width, &spans),
        1,
        |part, block, flags| process(part + 1, block, flags),
        OpStats::default,
        OpStats::merge,
    );
    let mut flags = vec![false; idx.len()];
    for (d, &(start, end)) in (1..=n).zip(&spans) {
        for (i, &flag) in by_width[start..end].iter().enumerate() {
            flags[idx.index(i, i + d)] = flag;
        }
    }
    (stats, flags)
}

/// `a-activate` over banded storage: identical to the dense rule but only
/// in-band cells are kept — gap `(i,k)` needs `j - k <= B`, gap `(k,j)`
/// needs `k - i <= B`, so each row does `O(B)` work. Also returns the
/// per-row (= per-pair) changed bits that feed the banded dirty-row
/// schedulers of [`a_square_banded_scheduled`] and
/// [`a_pebble_banded_scheduled`].
pub fn a_activate_banded_tracked<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    w: &WTable<W>,
    pw: &mut BandedPw<W>,
    exec: &ExecBackend,
) -> (OpStats, Vec<bool>) {
    let band = pw.band();
    let n = pw.indexer().n();
    let process_width = |d: usize, block: &mut [W], flags: &mut [bool]| -> OpStats {
        let mut stats = OpStats::default();
        if d < 2 {
            return stats;
        }
        // Gap number g of root (i, i + d) sits at g * m + i.
        let m = n + 1 - d;
        for (i, changed) in flags.iter_mut().enumerate() {
            let j = i + d;
            let mut relax = |g: usize, cand: W| {
                let cell = &mut block[g * m + i];
                if cand < *cell {
                    *cell = cand;
                    *changed = true;
                    stats.writes += 1;
                }
                stats.candidates += 1;
            };
            // Gap (i,k): eccentricity e = j - k <= band, gap number
            // block_offset(e).
            for k in (i + 1).max(j.saturating_sub(band))..j {
                let g = BandedPw::<W>::block_offset(j - k);
                relax(g, problem.f(i, k, j).add(w.get(k, j)));
            }
            // Gap (k,j): eccentricity e = k - i <= band, gap number
            // block_offset(e) + e.
            for k in i + 1..=(j - 1).min(i + band) {
                let g = BandedPw::<W>::block_offset(k - i) + (k - i);
                relax(g, problem.f(i, k, j).add(w.get(i, k)));
            }
        }
        stats.changed = stats.writes > 0;
        stats
    };
    map_widths_flagged(exec, pw, process_width)
}

/// `a-square` over banded storage with the §5 `O(sqrt n)` composition
/// windows: intermediate gaps `(r,q)` need `r >= p - B` **and**
/// `r <= q - d + B` to keep both factors in band (symmetrically for
/// `(p,s)`), so every cell examines `O(B)` candidates. The §5 mirror of
/// [`a_square_dense_scheduled`]:
///
/// * `strategy` selects the kernel: [`SquareStrategy::Naive`] is the
///   definitional per-cell gather through the [`BandedPw::get`] accessor;
///   [`SquareStrategy::Auto`] selects the tiled kernel
///   (`banded_square_width_tiled`), which updates eight roots of one
///   width per step. Both kernels enumerate exactly the same candidate
///   set, in the same per-cell order, and produce bit-identical tables,
///   [`OpStats`] and row flags.
/// * `skip`, if given, marks rows whose **inputs** did not change since
///   the previous square (row `(i,j)` reads only rows nested in `(i,j)`);
///   such rows are copied from `prev` instead of recomputed and report
///   zero candidates.
/// * The returned `Vec<bool>` holds the per-row changed bits for the
///   caller's next scheduling decision.
///
/// The width blocks run in parallel on `exec`.
pub fn a_square_banded_scheduled<W: Weight>(
    prev: &BandedPw<W>,
    next: &mut BandedPw<W>,
    strategy: SquareStrategy,
    skip: Option<&[bool]>,
    exec: &ExecBackend,
) -> (OpStats, Vec<bool>) {
    square_banded(prev, next, strategy, TileBuild::detect(), skip, exec)
}

/// [`a_square_banded_scheduled`] with the tile build chosen by the
/// caller.
fn square_banded<W: Weight>(
    prev: &BandedPw<W>,
    next: &mut BandedPw<W>,
    strategy: SquareStrategy,
    build: TileBuild,
    skip: Option<&[bool]>,
    exec: &ExecBackend,
) -> (OpStats, Vec<bool>) {
    let idx = prev.indexer();
    let process_width = |d: usize, block: &mut [W], flags: &mut [bool]| -> OpStats {
        let masked = |i: usize| skip.is_some_and(|mask| mask[idx.index(i, i + d)]);
        match strategy {
            SquareStrategy::Naive => banded_square_width_naive(prev, d, block, flags, masked),
            SquareStrategy::Auto => banded_square_width_tiled(prev, d, block, flags, masked, build),
        }
    };
    map_widths_flagged(exec, next, process_width)
}

/// Reference kernel: per-cell gathers through the bounds-checked
/// [`BandedPw::get`] accessor, straight from the §5 composition rule,
/// for every root of width `d`.
fn banded_square_width_naive<W: Weight>(
    prev: &BandedPw<W>,
    d: usize,
    block: &mut [W],
    flags: &mut [bool],
    masked: impl Fn(usize) -> bool,
) -> OpStats {
    let band = prev.band();
    let m = prev.roots(d);
    let mut stats = OpStats::default();
    for (i, changed) in flags.iter_mut().enumerate() {
        let (j, keep) = (i + d, masked(i));
        for (g, (p, q)) in prev.gaps_of(i, j).enumerate() {
            let old = prev.get(i, j, p, q);
            let cell = &mut block[g * m + i];
            if keep {
                *cell = old;
                continue;
            }
            let mut best = old;
            // (r, q) intermediates: i <= r < p, with both factors in
            // band: r >= p - B (for pw(r,q,p,q)) and r <= q + B - d
            // (for pw(i,j,r,q)). In-band (p,q) guarantees
            // q + B >= i + d, so the upper bound never underflows.
            let r_lo = i.max(p.saturating_sub(band));
            if p > r_lo {
                let r_hi = (p - 1).min(q + band - d);
                for r in r_lo..=r_hi {
                    let cand = prev.get(i, j, r, q).add(prev.get(r, q, p, q));
                    best = best.min2(cand);
                    stats.candidates += 1;
                }
            }
            // (p, s) intermediates: q < s <= j, s >= p + d - B, s <= q + B.
            let s_lo = (q + 1).max((p + d).saturating_sub(band));
            let s_hi = j.min(q + band);
            for s in s_lo..=s_hi {
                let cand = prev.get(i, j, p, s).add(prev.get(p, s, p, q));
                best = best.min2(cand);
                stats.candidates += 1;
            }
            if best < old {
                *changed = true;
                stats.writes += 1;
            }
            *cell = best;
        }
    }
    stats.changed = stats.writes > 0;
    stats
}

/// Roots per tile of the banded square: eight `u64` lanes fill one
/// 512-bit vector.
const TILE: usize = 8;

/// Which build of the banded square's tile body an op call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileBuild {
    /// The body compiled for the build's target.
    Portable,
    /// The body compiled with avx512f enabled. Only
    /// [`TileBuild::detect`] makes it, after this CPU reported avx512f.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl TileBuild {
    /// The fastest build this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return TileBuild::Avx512;
        }
        TileBuild::Portable
    }
}

/// Candidates of one banded root whose highest stored eccentricity is
/// `emax`: gap `(t, u)` has `t` `r`-role and `u` `s`-role candidates, so
/// `sum_{e <= emax} e (e + 1) = emax (emax + 1) (emax + 2) / 3`.
fn banded_root_candidates(emax: usize) -> u64 {
    (emax * (emax + 1) * (emax + 2) / 3) as u64
}

/// Tiled kernel: the square of every root of width `d`, [`TILE`] roots
/// per step.
///
/// Every root of one width has the same gaps and the same candidates, so
/// the kernel computes [`TILE`] neighbouring roots `(i0 + l, i0 + l + d)`
/// at once (`square_tile`): each candidate is one lane-wise
/// `cell = cell.min2(v.add(step))` whose three operands are contiguous
/// runs of the width-major tables. A width's last tile overlaps the one
/// before it, and recomputing a lane gives the same value, so only the
/// lanes it adds are counted. Widths with fewer than [`TILE`] roots run
/// the same body one root at a time.
///
/// A tile computes all of its lanes but keeps, and counts, only the rows
/// `masked` does not mark: a marked row is copied from `prev` and reports
/// no candidates and no change. A width whose rows are all marked is
/// copied whole.
fn banded_square_width_tiled<W: Weight>(
    prev: &BandedPw<W>,
    d: usize,
    block: &mut [W],
    flags: &mut [bool],
    masked: impl Fn(usize) -> bool,
    build: TileBuild,
) -> OpStats {
    let m = prev.roots(d);
    let mut stats = OpStats::default();
    if (0..m).all(&masked) {
        block.copy_from_slice(prev.width(d));
        return stats;
    }
    let candidates = banded_root_candidates(prev.emax(d));
    let mut tally = |i: usize, changes: u32| {
        if !masked(i) {
            stats.candidates += candidates;
        }
        stats.writes += u64::from(changes);
        flags[i] = changes > 0;
    };
    if m < TILE {
        let mut acc = vec![[W::INFINITY]; prev.root_cells(d)];
        for i in 0..m {
            let [changes] = square_tile(prev, d, i, [masked(i)], &mut acc, block);
            tally(i, changes);
        }
    } else {
        let mut acc = vec![[W::INFINITY; TILE]; prev.root_cells(d)];
        // Roots below `done` are written and counted.
        let mut done = 0;
        while done < m {
            let i0 = done.min(m - TILE);
            let keep = std::array::from_fn(|l| masked(i0 + l));
            let changes = match build {
                TileBuild::Portable => square_tile(prev, d, i0, keep, &mut acc, block),
                // SAFETY: `TileBuild::Avx512` is only made by
                // `TileBuild::detect`, after `is_x86_feature_detected!`
                // reported avx512f on this CPU, and `square_tile_avx512`
                // enables exactly avx512f.
                #[cfg(target_arch = "x86_64")]
                TileBuild::Avx512 => unsafe {
                    square_tile_avx512(prev, d, i0, keep, &mut acc, block)
                },
            };
            for (l, &lane) in changes.iter().enumerate().skip(done - i0) {
                tally(i0 + l, lane);
            }
            done = i0 + TILE;
        }
    }
    stats.changed = stats.writes > 0;
    stats
}

/// One tile of the banded square: the `L` roots `(i0 + l, i0 + l + d)`,
/// every gap, written to width `d`'s `block` of the next table. Lanes
/// with `keep[l]` set get their `prev` value back. Returns each lane's
/// count of cells that changed.
///
/// `acc` holds one `L`-lane accumulator per gap number. The kernel walks
/// the in-band intermediates `(a, b)` of the root (gap `(i + a, j - b)`),
/// `a` ascending, then `b` descending, and plays each against the cells
/// it reaches with the same `k = 1 ..= emax - a - b`:
///
/// * `s`-role: cell `(a, b + k)` takes `pw'(gap (a, b)) + pw'(gap (0, k)
///   of root (i + a, j - b))`;
/// * `r`-role: cell `(a + k, b)` takes `pw'(gap (a, b)) + pw'(gap (k, 0)
///   of root (i + a, j - b))`.
///
/// So every cell sees its `r`-role candidates by ascending `r`, then its
/// `s`-role candidates by ascending `s`: the naive kernel's order, which
/// keeps `f64` tables bit-identical. The intermediate root has width
/// `d - a - b`, and its gaps sit at root offset `i0 + a` of that width's
/// block, so every operand is a run of `L` adjacent cells. A lane whose
/// first factor is infinite needs no branch: `add` saturates and `min2`
/// keeps the cell. An intermediate infinite in every lane changes no cell,
/// so it is skipped.
#[inline(always)]
fn square_tile<W: Weight, const L: usize>(
    prev: &BandedPw<W>,
    d: usize,
    i0: usize,
    keep: [bool; L],
    acc: &mut [[W; L]],
    block: &mut [W],
) -> [u32; L] {
    let data = prev.as_slice();
    let n = prev.indexer().n();
    let emax = prev.emax(d);
    let m = n + 1 - d;
    let tri = BandedPw::<W>::block_offset;
    // Gap g of lane 0 sits at `base + g * m`.
    let base = prev.width_span(d).0 + i0;
    if keep.iter().all(|&k| k) {
        for g in 0..acc.len() {
            block[g * m + i0..][..L].copy_from_slice(&lanes::<W, L>(data, base + g * m));
        }
        return [0; L];
    }
    for (g, cell) in acc.iter_mut().enumerate() {
        *cell = lanes(data, base + g * m);
    }
    for a in 0..emax {
        for b in (0..emax - a).rev() {
            let e0 = a + b;
            let v = lanes(data, base + (tri(e0) + a) * m);
            if v.iter().all(|x| !x.is_finite_cost()) {
                continue;
            }
            let width = d - e0;
            let stride = n + 1 - width;
            let inter = &data[prev.width_span(width).0 + i0 + a..];
            // Gap (0, k) of the intermediate sits at `tri(k) * stride` in
            // `inter` and gap (k, 0) `k * stride` past it; cell (a, b + k)
            // is `acc[tri(e0 + k) + a]` and cell (a + k, b) `k` past it.
            // Each position moves by a step that grows with `k`.
            let (mut s_at, mut s_step) = (stride, 2 * stride);
            let mut cell = tri(e0 + 1) + a;
            for k in 1..=emax - e0 {
                relax(&mut acc[cell], &v, &lanes(inter, s_at));
                relax(&mut acc[cell + k], &v, &lanes(inter, s_at + k * stride));
                s_at += s_step;
                s_step += stride;
                cell += e0 + k + 1;
            }
        }
    }
    let mut changes = [0u32; L];
    for (g, cell) in acc.iter().enumerate() {
        let old: [W; L] = lanes(data, base + g * m);
        let out = &mut block[g * m + i0..][..L];
        for l in 0..L {
            let value = if keep[l] { old[l] } else { cell[l] };
            changes[l] += u32::from(value != old[l]);
            out[l] = value;
        }
    }
    changes
}

/// [`square_tile`] over [`TILE`] lanes with avx512f enabled, so the
/// compiler may run each lane-wise step as one zmm instruction. Each
/// lane op is the scalar op, so the result is the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn square_tile_avx512<W: Weight>(
    prev: &BandedPw<W>,
    d: usize,
    i0: usize,
    keep: [bool; TILE],
    acc: &mut [[W; TILE]],
    block: &mut [W],
) -> [u32; TILE] {
    square_tile(prev, d, i0, keep, acc, block)
}

/// The `L` cells of `cells` from `at` on, by value.
#[inline(always)]
fn lanes<W: Weight, const L: usize>(cells: &[W], at: usize) -> [W; L] {
    cells[at..at + L].try_into().expect("a run of L cells")
}

/// One lane-wise composition step: `cell[l] = min(cell[l], v[l] + step[l])`.
#[inline(always)]
fn relax<W: Weight, const L: usize>(cell: &mut [W; L], v: &[W; L], step: &[W; L]) {
    for l in 0..L {
        cell[l] = cell[l].min2(v[l].add(step[l]));
    }
}

/// `a-pebble` over banded storage, optionally restricted to the §5 size
/// window: only pairs with `window.0 < j - i <= window.1` are re-minimised
/// (others copy their previous value).
///
/// Two candidate families per pair, matching the §5 processor count of
/// `O(n^1.5)` windowed pairs × `O(n^2)` candidates:
///
/// * the **in-band** stored gaps `pw'(i,j,p,q) + w'(p,q)` (the chain
///   descents of the Lemma 3.3 decomposition);
/// * the **direct** decompositions `f(i,k,j) + w'(i,k) + w'(k,j)` —
///   equation (1) fused with (3). A single-edge partial tree's gap lags
///   its root by the size of the *other* child, which can far exceed the
///   band, so these partial weights are never stored; they are
///   recomputed here on the fly. The decomposition lemma needs them for
///   the terminal chain node `y`, both of whose children are small and
///   already final.
///
/// Accounting rule: a windowed-out pair copies its previous value into
/// `out_cell` — a carried-forward value, not a write — and a re-minimised
/// pair counts as a write only when it strictly improves, exactly like
/// every other op (see [`OpStats::writes`]).
///
/// The in-band candidate family walks the root's gaps in gap-number
/// order (eccentricity-major), one cell per cell-row of its width block,
/// instead of gathering each gap through the [`BandedPw::get`] offset
/// arithmetic; gaps whose partial weight is still infinite skip their
/// `w'` lookup.
///
/// `skip`, if given, marks pairs whose inputs (`pw'` row, nested `w'`
/// values, which include every `w'` the direct decompositions read) have
/// not changed since the pair was last re-minimised; like a windowed-out
/// pair, a skipped pair copies its previous value — not a write, zero
/// candidates. The returned `Vec<bool>` holds the per-pair changed bits;
/// windowed-out and skipped pairs report `false` (their value is carried,
/// not changed), so the bits are exact inputs for the caller's dirty-pair
/// bookkeeping.
pub fn a_pebble_banded_scheduled<W: Weight, P: DpProblem<W> + ?Sized>(
    problem: &P,
    pw: &BandedPw<W>,
    w_prev: &WTable<W>,
    w_next: &mut WTable<W>,
    window: Option<(usize, usize)>,
    skip: Option<&[bool]>,
    exec: &ExecBackend,
) -> (OpStats, Vec<bool>) {
    let n = w_prev.n();
    let idx = pw.indexer().clone();
    let flag_spans = pebble_flag_spans(&idx);
    let mut flags = vec![false; idx.len()];
    let process_w_row = |i: usize, out_row: &mut [W], flags: &mut [bool]| -> OpStats {
        let mut stats = OpStats::default();
        let a_base = if i < n { idx.index(i, i + 1) } else { 0 };
        for (j, out_cell) in out_row.iter_mut().enumerate().skip(i + 1) {
            let d = j - i;
            let a = a_base + (j - i - 1);
            let old = w_prev.get(i, j);
            if let Some((lo, hi)) = window {
                if d <= lo || d > hi {
                    *out_cell = old;
                    continue;
                }
            }
            if skip.is_some_and(|mask| mask[a]) {
                *out_cell = old;
                continue;
            }
            let mut best = old;
            // In-band stored gaps in gap-number order: gap g of this
            // root sits at g * m + i of its width block. Gap 0 is the
            // (i,j) gap itself (the free 0 + w'(i,j) candidate already
            // seeded via `old`).
            let (block, m) = (pw.width(d), pw.roots(d));
            let mut pos = i;
            for e in 0..=pw.emax(d) {
                let g = d - e;
                for t in 0..=e {
                    if pos > i {
                        let pwv = block[pos];
                        if pwv.is_finite_cost() {
                            let p = i + t;
                            let cand = pwv.add(w_prev.get(p, p + g));
                            best = best.min2(cand);
                        }
                        stats.candidates += 1;
                    }
                    pos += m;
                }
            }
            for k in i + 1..j {
                let cand = problem
                    .f(i, k, j)
                    .add(w_prev.get(i, k))
                    .add(w_prev.get(k, j));
                best = best.min2(cand);
                stats.candidates += 1;
            }
            if best < old {
                stats.changed = true;
                stats.writes += 1;
                flags[j - i - 1] = true;
            }
            *out_cell = best;
        }
        stats
    };
    let total = exec.map_reduce(
        DisjointPartsMut::uniform(w_next.as_mut_slice(), n + 1),
        DisjointPartsMut::new(&mut flags, &flag_spans),
        1,
        process_w_row,
        OpStats::default,
        OpStats::merge,
    );
    (total, flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;
    use crate::seq::solve_sequential;

    const SEQ: ExecBackend = ExecBackend::Sequential;

    fn chain(dims: Vec<u64>) -> impl DpProblem<u64> {
        let n = dims.len() - 1;
        FnProblem::new(n, |_| 0u64, move |i, k, j| dims[i] * dims[k] * dims[j])
    }

    /// Drive (activate, square, pebble) for 2*ceil(sqrt(n)) iterations and
    /// return the w table — a miniature of the full solver, used to test
    /// the ops in isolation.
    fn run_dense(p: &impl DpProblem<u64>, exec: &ExecBackend) -> WTable<u64> {
        let n = p.n();
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        let mut pw_next = DensePw::new(n);
        let mut w_next = w.clone();
        let iters = 2 * pardp_pebble::ceil_sqrt(n as u64);
        for _ in 0..iters {
            a_activate_dense_tracked(p, &w, &mut pw, exec);
            a_square_dense_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, exec);
            std::mem::swap(&mut pw, &mut pw_next);
            a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, exec);
            std::mem::swap(&mut w, &mut w_next);
        }
        w
    }

    #[test]
    fn dense_ops_compute_clrs_chain() {
        let p = chain(vec![30, 35, 15, 5, 10, 20, 25]);
        let w = run_dense(&p, &SEQ);
        assert_eq!(w.root(), 15125);
        assert!(w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn parallel_and_sequential_ops_agree() {
        let p = chain(vec![7, 3, 9, 4, 12, 5, 8, 6, 10, 2, 11]);
        let seq = run_dense(&p, &SEQ);
        for backend in [ExecBackend::Parallel, ExecBackend::Threads(4)] {
            let par = run_dense(&p, &backend);
            assert!(seq.table_eq(&par), "{backend}");
        }
        assert!(seq.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn dense_row_parts_agree_across_backends() {
        // Every dense op hands each task one ragged compact row; on a
        // miri-sized instance the pool must reproduce the sequential
        // tables, stats and flags of activate, both squares and pebble.
        let p = chain(vec![4, 7, 2, 9, 3, 5]);
        let n = p.n();
        let run = |exec: &ExecBackend| {
            let mut w = WTable::new(n);
            for i in 0..n {
                w.set(i, i + 1, p.init(i));
            }
            let mut pw = DensePw::new(n);
            let mut steps = Vec::new();
            for _ in 0..2 * pardp_pebble::ceil_sqrt(n as u64) {
                let act = a_activate_dense_tracked(&p, &w, &mut pw, exec);
                let mut next = DensePw::new(n);
                let sq = a_square_dense_scheduled(&pw, &mut next, SquareStrategy::Auto, None, exec);
                let mut full = DensePw::new(n);
                let ry = a_square_rytter_with(&pw, &mut full, SquareStrategy::Auto, exec);
                let mut w_next = w.clone();
                let pb = a_pebble_dense_scheduled(&next, &w, &mut w_next, None, exec);
                steps.push((act, sq, ry, pb, full.as_slice().to_vec()));
                pw = next;
                w = w_next;
            }
            (steps, pw.as_slice().to_vec(), w)
        };
        let seq = run(&SEQ);
        assert_eq!(run(&ExecBackend::Threads(2)), seq);
        assert_eq!(seq.2.root(), solve_sequential(&p).root());
    }

    #[test]
    fn activate_seeds_single_edge_partials() {
        // After one activate on fresh tables, pw'(i,j,i,k) must equal
        // f(i,k,j) + w'(k,j) when (k,j) is a leaf, else infinity.
        let p = chain(vec![2, 3, 4, 5]);
        let n = 3;
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        let stats = a_activate_dense_tracked(&p, &w, &mut pw, &SEQ).0;
        assert!(stats.changed);
        // (0,3) with k=1: gap (0,1) gets f(0,1,3) + w(1,3) = inf (w(1,3) unknown).
        assert!(!pw.get(0, 3, 0, 1).is_finite_cost());
        // (0,2) with k=1: gap (0,1) gets f(0,1,2) + w(1,2) = 2*3*4 + 0.
        assert_eq!(pw.get(0, 2, 0, 1), 24);
        assert_eq!(pw.get(0, 2, 1, 2), 24); // symmetric gap
                                            // Diagonal untouched.
        assert_eq!(pw.get(0, 3, 0, 3), 0);
    }

    #[test]
    fn square_is_monotone_and_idempotent_at_fixpoint() {
        let p = chain(vec![4, 2, 7, 3, 5, 6]);
        let n = p.n();
        let mut w = solve_sequential(&p); // final w values
        let mut pw = DensePw::new(n);
        let mut pw_next = DensePw::new(n);
        let mut w_next = w.clone();
        // Iterate to fixpoint.
        for _ in 0..20 {
            a_activate_dense_tracked(&p, &w, &mut pw, &SEQ);
            let s = a_square_dense_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, &SEQ).0;
            std::mem::swap(&mut pw, &mut pw_next);
            a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &SEQ);
            std::mem::swap(&mut w, &mut w_next);
            if !s.changed {
                break;
            }
        }
        // One more round must change nothing.
        let a = a_activate_dense_tracked(&p, &w, &mut pw, &SEQ).0;
        let s = a_square_dense_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, &SEQ).0;
        std::mem::swap(&mut pw, &mut pw_next);
        let pb = a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &SEQ).0;
        assert!(!a.changed && !s.changed && !pb.changed);
    }

    #[test]
    fn rytter_square_reaches_the_same_values() {
        let p = chain(vec![5, 9, 2, 6, 7, 3, 8]);
        let n = p.n();
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        let mut pw_next = DensePw::new(n);
        let mut w_next = w.clone();
        for _ in 0..(2 * (n as f64).log2().ceil() as usize + 4) {
            a_activate_dense_tracked(&p, &w, &mut pw, &SEQ);
            a_square_rytter_with(&pw, &mut pw_next, SquareStrategy::Auto, &SEQ);
            std::mem::swap(&mut pw, &mut pw_next);
            a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &SEQ);
            std::mem::swap(&mut w, &mut w_next);
        }
        assert!(w.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn rytter_examines_more_candidates_than_restricted() {
        // The full composition is Theta(n^6) vs the restricted Theta(n^5):
        // the ratio must exceed 1 and grow roughly linearly with n.
        let ratio = |n: usize| {
            let pw = DensePw::<u64>::new(n);
            let mut next1 = DensePw::new(n);
            let mut next2 = DensePw::new(n);
            let restricted =
                a_square_dense_scheduled(&pw, &mut next1, SquareStrategy::Auto, None, &SEQ).0;
            let full = a_square_rytter_with(&pw, &mut next2, SquareStrategy::Auto, &SEQ);
            assert!(full.candidates > restricted.candidates, "n={n}");
            full.candidates as f64 / restricted.candidates as f64
        };
        let r10 = ratio(10);
        let r30 = ratio(30);
        assert!(r10 > 1.5, "r10={r10}");
        assert!(r30 > 1.5 * r10, "ratio must grow with n: {r10} -> {r30}");
    }

    #[test]
    fn banded_ops_match_dense_with_full_band() {
        // With band >= n the banded algorithm stores everything, so it
        // must agree with the dense one step by step.
        let p = chain(vec![3, 8, 2, 5, 7, 4, 6, 9]);
        let n = p.n();
        let mut w_d = WTable::new(n);
        let mut w_b = WTable::new(n);
        for i in 0..n {
            w_d.set(i, i + 1, p.init(i));
            w_b.set(i, i + 1, p.init(i));
        }
        let mut pwd = DensePw::new(n);
        let mut pwd_next = DensePw::new(n);
        let mut pwb = BandedPw::new(n, n);
        let mut pwb_next = BandedPw::new(n, n);
        let mut wd_next = w_d.clone();
        let mut wb_next = w_b.clone();
        for _ in 0..6 {
            a_activate_dense_tracked(&p, &w_d, &mut pwd, &SEQ);
            a_activate_banded_tracked(&p, &w_b, &mut pwb, &SEQ);
            a_square_dense_scheduled(&pwd, &mut pwd_next, SquareStrategy::Auto, None, &SEQ);
            a_square_banded_scheduled(&pwb, &mut pwb_next, SquareStrategy::Auto, None, &SEQ);
            std::mem::swap(&mut pwd, &mut pwd_next);
            std::mem::swap(&mut pwb, &mut pwb_next);
            a_pebble_dense_scheduled(&pwd, &w_d, &mut wd_next, None, &SEQ);
            a_pebble_banded_scheduled(&p, &pwb, &w_b, &mut wb_next, None, None, &SEQ);
            std::mem::swap(&mut w_d, &mut wd_next);
            std::mem::swap(&mut w_b, &mut wb_next);
            // Tables agree cell-for-cell at every step.
            for i in 0..n {
                for j in i + 1..=n {
                    assert_eq!(w_d.get(i, j), w_b.get(i, j), "w ({i},{j})");
                    for pp in i..j {
                        for qq in pp + 1..=j {
                            assert_eq!(
                                pwd.get(i, j, pp, qq),
                                pwb.get(i, j, pp, qq),
                                "pw ({i},{j},{pp},{qq})"
                            );
                        }
                    }
                }
            }
        }
        assert!(w_d.table_eq(&solve_sequential(&p)));
    }

    #[test]
    fn banded_square_work_is_much_smaller() {
        let n = 24usize;
        let band = 2 * pardp_pebble::ceil_sqrt(n as u64) as usize;
        let dense = DensePw::<u64>::new(n);
        let mut dense_next = DensePw::new(n);
        let banded = BandedPw::<u64>::new(n, band);
        let mut banded_next = BandedPw::new(n, band);
        let sd =
            a_square_dense_scheduled(&dense, &mut dense_next, SquareStrategy::Auto, None, &SEQ).0;
        let sb =
            a_square_banded_scheduled(&banded, &mut banded_next, SquareStrategy::Auto, None, &SEQ)
                .0;
        assert!(
            sb.candidates * 2 < sd.candidates,
            "banded {} vs dense {}",
            sb.candidates,
            sd.candidates
        );
    }

    #[test]
    fn windowed_pebble_skips_out_of_window_pairs() {
        let p = chain(vec![3, 8, 2, 5, 7, 4]);
        let n = p.n();
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let pw = BandedPw::new(n, n);
        let mut w_next = w.clone();
        // Window (0,1]: only leaf-sized pairs — nothing to improve, and
        // longer pairs must not be touched (they stay infinity).
        let stats = a_pebble_banded_scheduled(&p, &pw, &w, &mut w_next, Some((0, 1)), None, &SEQ).0;
        assert!(!stats.changed);
        assert!(!w_next.get(0, n).is_finite_cost());
    }

    #[test]
    fn square_strategies_are_bit_identical() {
        // Warm tables a couple of iterations, then one square per
        // kernel: tables, candidates and writes must match exactly.
        let p = chain(vec![7, 3, 9, 4, 12, 5, 8, 6, 10, 2, 11, 13, 1]);
        let n = p.n();
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        let mut pw_next = DensePw::new(n);
        let mut w_next = w.clone();
        for _ in 0..2 {
            a_activate_dense_tracked(&p, &w, &mut pw, &SEQ);
            a_square_dense_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, &SEQ);
            std::mem::swap(&mut pw, &mut pw_next);
            a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &SEQ);
            std::mem::swap(&mut w, &mut w_next);
        }
        let mut reference = DensePw::new(n);
        let (base, _) =
            a_square_dense_scheduled(&pw, &mut reference, SquareStrategy::Naive, None, &SEQ);
        let mut out = DensePw::new(n);
        let (stats, rows) =
            a_square_dense_scheduled(&pw, &mut out, SquareStrategy::Auto, None, &SEQ);
        assert_eq!(out.as_slice(), reference.as_slice());
        assert_eq!(stats, base);
        assert_eq!(rows.len(), pw.dim());
        assert_eq!(rows.iter().any(|&b| b), stats.changed);
        // Rytter: streamed vs naive.
        let mut y_ref = DensePw::new(n);
        let y_base = a_square_rytter_with(&pw, &mut y_ref, SquareStrategy::Naive, &SEQ);
        let mut y_out = DensePw::new(n);
        let y_stats = a_square_rytter_with(&pw, &mut y_out, SquareStrategy::Auto, &SEQ);
        assert_eq!(y_out.as_slice(), y_ref.as_slice());
        assert_eq!(y_stats, y_base);
    }

    #[test]
    fn skipped_rows_copy_forward_and_report_clean() {
        let p = chain(vec![5, 2, 8, 3, 6, 4, 7]);
        let n = p.n();
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        a_activate_dense_tracked(&p, &w, &mut pw, &SEQ);
        let mut full = DensePw::new(n);
        let (full_stats, _) =
            a_square_dense_scheduled(&pw, &mut full, SquareStrategy::Auto, None, &SEQ);
        // Skip everything: the output must be a verbatim copy of the
        // input, with zero candidates and no change.
        let mut all_skipped = DensePw::new(n);
        let skip = vec![true; pw.dim()];
        let (stats, rows) = a_square_dense_scheduled(
            &pw,
            &mut all_skipped,
            SquareStrategy::Auto,
            Some(&skip),
            &SEQ,
        );
        assert_eq!(all_skipped.as_slice(), pw.as_slice());
        assert_eq!(stats, OpStats::default());
        assert!(rows.iter().all(|&b| !b));
        // Skip nothing via an all-false mask: identical to no mask.
        let mut none_skipped = DensePw::new(n);
        let no_skip = vec![false; pw.dim()];
        let (stats, _) = a_square_dense_scheduled(
            &pw,
            &mut none_skipped,
            SquareStrategy::Auto,
            Some(&no_skip),
            &SEQ,
        );
        assert_eq!(none_skipped.as_slice(), full.as_slice());
        assert_eq!(stats, full_stats);
    }

    #[test]
    fn writes_count_actual_stores_consistently() {
        // On a converged instance every op must report writes == 0 and
        // changed == false; mid-run, changed must equal writes > 0.
        let p = chain(vec![4, 2, 7, 3, 5, 6, 9]);
        let n = p.n();
        let mut w = WTable::new(n);
        for i in 0..n {
            w.set(i, i + 1, p.init(i));
        }
        let mut pw = DensePw::new(n);
        let mut pw_next = DensePw::new(n);
        let mut w_next = w.clone();
        for _ in 0..2 * pardp_pebble::ceil_sqrt(n as u64) {
            let act = a_activate_dense_tracked(&p, &w, &mut pw, &SEQ).0;
            let sq =
                a_square_dense_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, &SEQ).0;
            std::mem::swap(&mut pw, &mut pw_next);
            let pb = a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &SEQ).0;
            std::mem::swap(&mut w, &mut w_next);
            for (name, s) in [("activate", act), ("square", sq), ("pebble", pb)] {
                assert_eq!(s.changed, s.writes > 0, "{name}: {s:?}");
            }
        }
        // At the fixpoint: one more sweep of every op stores nothing.
        let act = a_activate_dense_tracked(&p, &w, &mut pw, &SEQ).0;
        let sq = a_square_dense_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, &SEQ).0;
        std::mem::swap(&mut pw, &mut pw_next);
        let pb = a_pebble_dense_scheduled(&pw, &w, &mut w_next, None, &SEQ).0;
        for s in [act, sq, pb] {
            assert_eq!(s.writes, 0, "{s:?}");
            assert!(!s.changed);
        }
    }

    #[test]
    fn windowed_pebble_copies_are_not_writes() {
        // A window that excludes every pair copies all values forward:
        // zero writes, no change — same rule as the re-minimised path.
        let p = chain(vec![3, 8, 2, 5, 7, 4]);
        let n = p.n();
        let w = solve_sequential(&p);
        let pw = BandedPw::new(n, n);
        let mut w_next = WTable::new(n);
        let stats = a_pebble_banded_scheduled(&p, &pw, &w, &mut w_next, Some((0, 0)), None, &SEQ).0;
        assert_eq!(stats.writes, 0);
        assert!(!stats.changed);
        assert!(w_next.table_eq(&w));
        // And a full (unwindowed) pass over final values also stores
        // nothing new.
        let stats = a_pebble_banded_scheduled(&p, &pw, &w, &mut w_next, None, None, &SEQ).0;
        assert_eq!(stats.writes, 0);
        assert!(!stats.changed);
    }

    /// Each tile build this host has, forced in turn, against the naive
    /// banded square, bit for bit: the portable body and, where the CPU
    /// has avx512f, the same body compiled for it. Warm `u64` and `f64`
    /// tables, bands from 1 to past `n` (so full tiles, overlapped last
    /// tiles and widths with fewer roots than a tile all run), with and
    /// without random skip masks. Only optimized builds vectorize, so CI
    /// also runs this test under `--release`.
    #[test]
    fn banded_square_tile_builds_match_the_naive_square() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn warm<W: Weight>(p: &impl DpProblem<W>, band: usize, iters: usize) -> BandedPw<W> {
            let n = p.n();
            let mut w = WTable::new(n);
            for i in 0..n {
                w.set(i, i + 1, p.init(i));
            }
            let mut pw = BandedPw::new(n, band);
            let mut next = BandedPw::new(n, band);
            let mut w_next = w.clone();
            for _ in 0..iters {
                a_activate_banded_tracked(p, &w, &mut pw, &SEQ);
                a_square_banded_scheduled(&pw, &mut next, SquareStrategy::Auto, None, &SEQ);
                std::mem::swap(&mut pw, &mut next);
                a_pebble_banded_scheduled(p, &pw, &w, &mut w_next, None, None, &SEQ);
                std::mem::swap(&mut w, &mut w_next);
            }
            pw
        }
        /// Every build against the naive square on `pw`; returns the
        /// squares compared.
        fn check<W: Weight>(
            pw: &BandedPw<W>,
            builds: &[TileBuild],
            rng: &mut SmallRng,
            bits: impl Fn(&W) -> u64,
        ) -> usize {
            let (n, band) = (pw.indexer().n(), pw.band());
            let table = |t: &BandedPw<W>| t.as_slice().iter().map(&bits).collect::<Vec<_>>();
            let mask: Vec<bool> = (0..pw.indexer().len()).map(|_| rng.gen_bool(0.3)).collect();
            let mut squares = 0;
            for skip in [None, Some(&mask[..])] {
                let mut reference = BandedPw::new(n, band);
                let (base, base_rows) = square_banded(
                    pw,
                    &mut reference,
                    SquareStrategy::Naive,
                    TileBuild::Portable,
                    skip,
                    &SEQ,
                );
                for &build in builds {
                    for exec in [SEQ, ExecBackend::Threads(2)] {
                        let mut out = BandedPw::new(n, band);
                        let (stats, rows) =
                            square_banded(pw, &mut out, SquareStrategy::Auto, build, skip, &exec);
                        let at = format!(
                            "{build:?} on {exec}, n={n}, B={band}, masked: {}",
                            skip.is_some()
                        );
                        assert_eq!(table(&out), table(&reference), "tables {at}");
                        assert_eq!(stats, base, "stats {at}");
                        assert_eq!(rows, base_rows, "row flags {at}");
                        squares += 1;
                    }
                }
            }
            squares
        }

        let mut builds = vec![TileBuild::Portable];
        if TileBuild::detect() != TileBuild::Portable {
            builds.push(TileBuild::detect());
        }
        let mut rng = SmallRng::seed_from_u64(30);
        let mut squares = 0;
        for (n, band) in [
            (3, 1),
            (9, 3),
            (12, 14),
            (17, 4),
            (24, 10),
            (33, 12),
            (40, 42),
        ] {
            let dims: Vec<u64> = (0..=n).map(|_| rng.gen_range(1..60)).collect();
            let costs: Vec<f64> = (0..=n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    _ => rng.gen_range(0.0..9.0),
                })
                .collect();
            let p_u64 = FnProblem::new(n, |_| 0u64, |i, k, j| dims[i] * dims[k] * dims[j]);
            let p_f64 = FnProblem::new(n, |_| 0.0, |i, k, j| costs[i] * costs[k] + costs[j]);
            for iters in 1..=3 {
                squares += check(&warm(&p_u64, band, iters), &builds, &mut rng, |&v| v);
                squares += check(&warm(&p_f64, band, iters), &builds, &mut rng, |v| {
                    v.to_bits()
                });
            }
        }
        let paths = match builds.len() {
            2 => "portable, avx512",
            _ => "portable (no avx512f here)",
        };
        println!("banded square tile parity: {squares} squares matched on {paths}");
    }

    #[test]
    fn banded_ops_agree_across_backends() {
        let p = chain(vec![9, 4, 7, 2, 8, 3, 6, 5, 10, 1, 12, 11]);
        let n = p.n();
        let band = 2 * pardp_pebble::ceil_sqrt(n as u64) as usize;
        let run = |exec: &ExecBackend| {
            let mut w = WTable::new(n);
            for i in 0..n {
                w.set(i, i + 1, p.init(i));
            }
            let mut pw = BandedPw::new(n, band);
            let mut pw_next = BandedPw::new(n, band);
            let mut w_next = w.clone();
            for _ in 0..2 * pardp_pebble::ceil_sqrt(n as u64) {
                a_activate_banded_tracked(&p, &w, &mut pw, exec);
                a_square_banded_scheduled(&pw, &mut pw_next, SquareStrategy::Auto, None, exec);
                std::mem::swap(&mut pw, &mut pw_next);
                a_pebble_banded_scheduled(&p, &pw, &w, &mut w_next, None, None, exec);
                std::mem::swap(&mut w, &mut w_next);
            }
            w
        };
        let seq = run(&SEQ);
        let par = run(&ExecBackend::Threads(4));
        assert!(seq.table_eq(&par));
        assert!(seq.table_eq(&solve_sequential(&p)));
    }
}
