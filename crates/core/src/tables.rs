//! Flat table storage for `w'(i,j)` and `pw'(i,j,p,q)`.
//!
//! * [`PairIndexer`] maps interval pairs `(i,j)`, `0 <= i < j <= n`, to a
//!   dense index `0..P` with `P = n(n+1)/2` — the node names of the paper.
//! * [`WTable`] holds `w'` as a flat `(n+1)^2` square (simple indexing).
//! * [`DensePw`] holds `pw'` as one compact row per root pair `(i,j)`:
//!   exactly the `d(d+1)/2` gaps `(p,q)` nested in it (`i <= p < q <= j`,
//!   `d = j - i`), one segment per left endpoint — `C(n+3, 4)` cells in
//!   all, where a `P x P` matrix over pair indices would need `P^2`
//!   (5.5× more at n = 42, tending to 6×). Both the paper's restricted
//!   `a-square` and Rytter's full square \[8\] run over it.
//! * [`BandedPw`] holds only the §5 band `(j-i) - (q-p) <= B` with
//!   `B = 2 ceil(sqrt(n))`: `O(n^3)` memory instead of `O(n^4)`, realizing
//!   the processor reduction's observation that the optimal-tree pebbling
//!   never needs a partial weight whose gap lags the root by more than
//!   `2 sqrt(n)` leaves. It is stored width-major: one block per root
//!   width, one run of cells per gap across all roots of that width.

use crate::exec::disjoint::DisjointPartsMut;
use crate::weight::Weight;

/// Dense indexing of interval pairs `(i, j)` with `0 <= i < j <= n`.
///
/// Pairs are ordered lexicographically: `(0,1), (0,2), …, (0,n), (1,2), …`.
#[derive(Debug, Clone)]
pub struct PairIndexer {
    n: usize,
    /// `offsets[i]` = index of pair `(i, i+1)`.
    offsets: Vec<u32>,
}

impl PairIndexer {
    /// Indexer for intervals over `0..=n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one object");
        assert!(
            n < u16::MAX as usize,
            "n too large for 32-bit pair indexing"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for i in 0..=n {
            offsets.push(acc);
            acc += (n - i) as u32;
        }
        PairIndexer { n, offsets }
    }

    /// The underlying `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of pairs `P = n(n+1)/2`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// Whether there are no pairs (never, since `n >= 1`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dense index of pair `(i, j)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i < j && j <= self.n,
            "invalid pair ({i},{j}) for n={}",
            self.n
        );
        self.offsets[i] as usize + (j - i - 1)
    }

    /// Inverse of [`Self::index`].
    pub fn pair(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx < self.len());
        // offsets is sorted; find the greatest i with offsets[i] <= idx.
        let i = match self.offsets.binary_search(&(idx as u32)) {
            Ok(mut exact) => {
                // Skip duplicate offsets produced by i = n (zero-width row).
                while exact < self.n && self.offsets[exact + 1] as usize == idx {
                    exact += 1;
                }
                exact
            }
            Err(ins) => ins - 1,
        };
        let j = i + 1 + (idx - self.offsets[i] as usize);
        (i, j)
    }

    /// Iterate all pairs in index order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| (i + 1..=self.n).map(move |j| (i, j)))
    }

    /// Close a per-pair mask under nesting: afterwards `mask[a]` is set
    /// iff, on entry, the mask was set for **any** pair nested in `a`
    /// (including `a` itself). `O(P)` via the interval recurrence
    /// `D(i,j) |= D(i+1,j) | D(i,j-1)`, widths ascending.
    ///
    /// The dirty-row scheduler uses this to decide which `a-square` rows
    /// can be skipped: row `(i,j)` reads only rows nested in `(i,j)`, so
    /// it can only produce a new value if some nested row changed.
    ///
    /// # Panics
    /// If `mask.len()` differs from [`Self::len`].
    pub fn propagate_nested(&self, mask: &mut [bool]) {
        assert_eq!(mask.len(), self.len(), "mask must have one slot per pair");
        for d in 2..=self.n {
            for i in 0..=self.n - d {
                let j = i + d;
                if mask[self.index(i + 1, j)] || mask[self.index(i, j - 1)] {
                    mask[self.index(i, j)] = true;
                }
            }
        }
    }
}

/// The `w'(i,j)` table: a flat `(n+1) x (n+1)` square, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct WTable<W> {
    n: usize,
    data: Vec<W>,
}

impl<W: Weight> WTable<W> {
    /// All-infinity table for intervals over `0..=n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        WTable {
            n,
            data: vec![W::INFINITY; (n + 1) * (n + 1)],
        }
    }

    /// The `n` this table was sized for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read `w'(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> W {
        debug_assert!(i < j && j <= self.n);
        self.data[i * (self.n + 1) + j]
    }

    /// Write `w'(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: W) {
        debug_assert!(i < j && j <= self.n);
        self.data[i * (self.n + 1) + j] = v;
    }

    /// The root value `w'(0, n)` — the goal `c(0, n)`.
    #[inline]
    pub fn root(&self) -> W {
        self.get(0, self.n)
    }

    /// The flat backing slice (`(n+1)^2` cells, row-major: cell `(i, j)`
    /// at `i * (n + 1) + j`). Used by the row-parallel execution backends.
    #[inline]
    pub fn as_slice(&self) -> &[W] {
        &self.data
    }

    /// The flat backing slice, mutable (see [`Self::as_slice`]).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [W] {
        &mut self.data
    }

    /// Whether two tables agree on every interval under [`Weight::cost_eq`].
    pub fn table_eq(&self, other: &WTable<W>) -> bool {
        if self.n != other.n {
            return false;
        }
        for i in 0..self.n {
            for j in i + 1..=self.n {
                if !self.get(i, j).cost_eq(&other.get(i, j)) {
                    return false;
                }
            }
        }
        true
    }
}

/// Where each root's row sits in [`DensePw`]'s ragged buffer: rows, one
/// per root pair `(i,j)`, are concatenated in [`PairIndexer`] order and
/// row `a` occupies `spans[a]`.
#[derive(Debug, Clone)]
struct RowSpans(Vec<(usize, usize)>);

impl RowSpans {
    /// Spans of rows holding the `d(d+1)/2` gaps nested in each root.
    fn new(idx: &PairIndexer) -> Self {
        let mut end = 0;
        RowSpans(
            idx.pairs()
                .map(|(i, j)| {
                    let start = end;
                    end += (j - i) * (j - i + 1) / 2;
                    (start, end)
                })
                .collect(),
        )
    }

    /// Total cells over all rows.
    fn cells(&self) -> usize {
        self.0.last().map_or(0, |&(_, end)| end)
    }

    #[inline]
    fn start(&self, a: usize) -> usize {
        self.0[a].0
    }

    #[inline]
    fn range(&self, a: usize) -> std::ops::Range<usize> {
        let (start, end) = self.0[a];
        start..end
    }
}

/// Dense `pw'` storage: every gap nested in each root, and nothing else.
///
/// # Layout
///
/// Row `(i,j)`, `d = j - i`, holds the `d(d+1)/2` gaps `(p,q)` with
/// `i <= p < q <= j` as `d` *segments*, one per left endpoint: segment
/// `k = p - i` holds `(p, p+1 ..= j)` and starts at
/// [`segment_offset(d, k)`](Self::segment_offset)
/// `= S(k) = k d - k(k-1)/2`, so gap `(p,q)` sits at
/// `S(p - i) + (q - p - 1)`. Rows are concatenated in [`PairIndexer`]
/// order ([`Self::row_span`] / [`Self::row`]), `C(n+3, 4)` cells in all.
/// Two kernel consequences:
///
/// * gaps sharing a left endpoint are **adjacent cells**, both in the
///   root's row and in segment 0 of an intermediate's row, so
///   `a-square`'s `s`-family streams;
/// * the `r`-family operand `pw'(r,q,p,q)` is the *last* cell of segment
///   `p - r` of row `(r,q)`, so walking `p` upwards moves both that
///   operand and the updated cell `(p,q)` by a stride that shrinks by one
///   per step.
///
/// The diagonal `pw'(i,j,i,j) = 0` is the last cell of segment 0; every
/// other cell starts at `INFINITY`, the neutral element of the min-plus
/// compositions. Gaps that are not nested in the root have no cell.
#[derive(Debug, Clone)]
pub struct DensePw<W> {
    idx: PairIndexer,
    rows: RowSpans,
    data: Vec<W>,
}

impl<W: Weight> DensePw<W> {
    /// Fresh table: diagonal zero, everything else infinity.
    pub fn new(n: usize) -> Self {
        let idx = PairIndexer::new(n);
        let rows = RowSpans::new(&idx);
        let mut data = vec![W::INFINITY; rows.cells()];
        for (a, (i, j)) in idx.pairs().enumerate() {
            data[rows.start(a) + (j - i - 1)] = W::ZERO;
        }
        DensePw { idx, rows, data }
    }

    /// The pair indexer.
    #[inline]
    pub fn indexer(&self) -> &PairIndexer {
        &self.idx
    }

    /// Number of pairs `P`: one row per pair.
    #[inline]
    pub fn dim(&self) -> usize {
        self.idx.len()
    }

    /// Total stored cells: `C(n+3, 4)`, the nested `(root, gap)` pairs.
    #[inline]
    pub fn stored_cells(&self) -> usize {
        self.data.len()
    }

    /// Offset of segment `k` (the gaps `(i + k, ·)`) within a row of width
    /// `d`: `S(k) = k d - k(k-1)/2`. Segment `k` holds `d - k` cells, so
    /// `S(k + 1) = S(k) + d - k`.
    #[inline]
    pub const fn segment_offset(d: usize, k: usize) -> usize {
        k * (2 * d + 1 - k) / 2
    }

    /// Flat position of gap `(p,q)` of root `(i,j)`.
    #[inline]
    fn cell(&self, i: usize, j: usize, p: usize, q: usize) -> usize {
        debug_assert!(
            i <= p && p < q && q <= j,
            "gap ({p},{q}) not nested in ({i},{j})"
        );
        self.rows.start(self.idx.index(i, j)) + Self::segment_offset(j - i, p - i) + (q - p - 1)
    }

    /// Read `pw'(i,j,p,q)` by interval endpoints.
    #[inline]
    pub fn get(&self, i: usize, j: usize, p: usize, q: usize) -> W {
        self.data[self.cell(i, j, p, q)]
    }

    /// Write by interval endpoints.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, p: usize, q: usize, v: W) {
        let c = self.cell(i, j, p, q);
        self.data[c] = v;
    }

    /// Immutable row of pair index `a`: the compact row of its `d(d+1)/2`
    /// nested gaps, segment-major (see the type-level layout notes), not
    /// a `P`-long row over pair indices.
    #[inline]
    pub fn row(&self, a: usize) -> &[W] {
        &self.data[self.rows.range(a)]
    }

    /// Row span (offset range in the backing slice) of pair index `a`.
    #[inline]
    pub fn row_span(&self, a: usize) -> (usize, usize) {
        self.rows.0[a]
    }

    /// The rows as disjoint mutable parts, one per pair index, for the
    /// row-parallel ops.
    pub(crate) fn rows_mut(&mut self) -> DisjointPartsMut<'_, W> {
        DisjointPartsMut::new(&mut self.data, &self.rows.0)
    }

    /// The full backing slice (rows concatenated).
    #[inline]
    pub fn as_slice(&self) -> &[W] {
        &self.data
    }
}

/// The §5 banded `pw'` storage: only cells with
/// `(j - i) - (q - p) <= band` are stored.
///
/// # Layout
///
/// A root `(i, j)` of width `d = j - i` stores the gaps
/// `(p, q) = (i + t, j - u)` whose *eccentricity* `e = t + u` is at most
/// [`emax(d)`](Self::emax) `= min(d - 1, band)`. Every root of one width
/// has the same gaps, numbered eccentricity-major: gap `(t, u)` is
/// number [`block_offset(e)`](Self::block_offset) `+ t`, so each root of
/// width `d` holds [`root_cells(d)`](Self::root_cells)
/// `= block_offset(emax + 1)` gaps.
///
/// The buffer is **width-major**: one contiguous block per width, widths
/// ascending ([`Self::width_span`]). Inside the block of width `d`, each
/// gap number `g` has one *cell-row* over the block's
/// [`roots(d)`](Self::roots) `= n - d + 1` roots, `i` ascending, so gap
/// `g` of root `(i, i + d)` sits at `g * roots(d) + i` in the block. No
/// cell is padded. Two kernel consequences:
///
/// * one gap of neighbouring roots is a run of adjacent cells, so the
///   banded `a-square`, which treats every root of a width alike,
///   updates several roots per vector instruction;
/// * a composition's second factor, gap `(t - t0, 0)` or `(0, u - u0)`
///   of the intermediate root `(i + t0, j - u0)`, sits in the block of
///   width `d - t0 - u0` at root offset `i + t0`: for neighbouring roots,
///   a run of adjacent cells too.
#[derive(Debug, Clone)]
pub struct BandedPw<W> {
    idx: PairIndexer,
    band: usize,
    /// `widths[d - 1]` is the `(start, end)` of width `d`'s block.
    widths: Vec<(usize, usize)>,
    data: Vec<W>,
}

impl<W: Weight> BandedPw<W> {
    /// Fresh banded table with the given band width `B` (the §5 algorithm
    /// uses `B = 2 ceil(sqrt(n))`): diagonal zero, everything else
    /// infinity.
    pub fn new(n: usize, band: usize) -> Self {
        let idx = PairIndexer::new(n);
        let mut end = 0;
        let widths: Vec<(usize, usize)> = (1..=n)
            .map(|d| {
                let start = end;
                end += Self::block_offset((d - 1).min(band) + 1) * (n + 1 - d);
                (start, end)
            })
            .collect();
        let mut data = vec![W::INFINITY; end];
        // The diagonal (gap 0) is the first cell-row of each block.
        for (d, &(start, _)) in (1..=n).zip(&widths) {
            data[start..start + (n + 1 - d)].fill(W::ZERO);
        }
        BandedPw {
            idx,
            band,
            widths,
            data,
        }
    }

    /// The pair indexer.
    #[inline]
    pub fn indexer(&self) -> &PairIndexer {
        &self.idx
    }

    /// The band width `B`.
    #[inline]
    pub fn band(&self) -> usize {
        self.band
    }

    /// Total stored cells (the §5 `O(n^3)` figure).
    #[inline]
    pub fn stored_cells(&self) -> usize {
        self.data.len()
    }

    /// Number of eccentricity-`< e` gaps of a root: `e(e+1)/2`. Block
    /// `e` of a root's gap numbering holds the `e + 1` gaps
    /// `(i + t, j - (e - t))` for `t = 0 ..= e`, so gap `(p, q)` is
    /// number `block_offset(e) + (p - i)` with `e = (j-i) - (q-p)`.
    #[inline]
    pub const fn block_offset(e: usize) -> usize {
        e * (e + 1) / 2
    }

    /// The highest stored eccentricity of a width-`d` root:
    /// `min(d - 1, band)`.
    #[inline]
    pub fn emax(&self, d: usize) -> usize {
        debug_assert!(d >= 1, "roots have width >= 1");
        (d - 1).min(self.band)
    }

    /// Stored gaps per root of width `d`: `block_offset(emax(d) + 1)`.
    #[inline]
    pub fn root_cells(&self, d: usize) -> usize {
        Self::block_offset(self.emax(d) + 1)
    }

    /// Number of roots of width `d`: `(i, i + d)` for `i = 0 ..= n - d`.
    #[inline]
    pub fn roots(&self, d: usize) -> usize {
        debug_assert!((1..=self.idx.n()).contains(&d), "no width {d}");
        self.idx.n() + 1 - d
    }

    /// The `(start, end)` of width `d`'s block in [`Self::as_slice`]:
    /// `root_cells(d)` cell-rows of `roots(d)` cells each.
    #[inline]
    pub fn width_span(&self, d: usize) -> (usize, usize) {
        self.widths[d - 1]
    }

    /// Width `d`'s block (see the type-level layout notes).
    #[inline]
    pub fn width(&self, d: usize) -> &[W] {
        let (start, end) = self.width_span(d);
        &self.data[start..end]
    }

    #[inline]
    fn cell(&self, i: usize, j: usize, p: usize, q: usize) -> usize {
        let d = j - i;
        let e = d - (q - p);
        debug_assert!(e <= self.emax(d), "gap ({p},{q}) out of band in ({i},{j})");
        let g = Self::block_offset(e) + (p - i);
        self.width_span(d).0 + g * self.roots(d) + i
    }

    /// Read `pw'(i,j,p,q)`; out-of-band cells read as `INFINITY`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, p: usize, q: usize) -> W {
        debug_assert!(i <= p && p < q && q <= j);
        if (j - i) - (q - p) > self.band {
            return W::INFINITY;
        }
        self.data[self.cell(i, j, p, q)]
    }

    /// Write an in-band cell.
    ///
    /// # Panics (debug)
    /// If the cell is out of band — the §5 algorithm never writes one.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, p: usize, q: usize, v: W) {
        let c = self.cell(i, j, p, q);
        self.data[c] = v;
    }

    /// The width blocks as disjoint mutable parts, part `d - 1` for
    /// width `d`, for the width-parallel ops.
    pub(crate) fn widths_mut(&mut self) -> DisjointPartsMut<'_, W> {
        DisjointPartsMut::new(&mut self.data, &self.widths)
    }

    /// The full backing slice (width blocks concatenated).
    #[inline]
    pub fn as_slice(&self) -> &[W] {
        &self.data
    }

    /// Enumerate the in-band gaps `(p, q)` of root `(i, j)` in gap-number
    /// order (eccentricity-major).
    pub fn gaps_of(&self, i: usize, j: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let d = j - i;
        let emax = (d - 1).min(self.band);
        (0..=emax).flat_map(move |e| (0..=e).map(move |t| (i + t, i + t + d - e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_indexer_roundtrip() {
        for n in 1..=20usize {
            let idx = PairIndexer::new(n);
            assert_eq!(idx.len(), n * (n + 1) / 2);
            let mut seen = 0;
            for (i, j) in idx.pairs() {
                let a = idx.index(i, j);
                assert_eq!(a, seen, "pairs() must enumerate in index order");
                assert_eq!(idx.pair(a), (i, j));
                seen += 1;
            }
            assert_eq!(seen, idx.len());
        }
    }

    #[test]
    fn pair_indexer_is_lexicographic() {
        let idx = PairIndexer::new(4);
        assert_eq!(idx.index(0, 1), 0);
        assert_eq!(idx.index(0, 4), 3);
        assert_eq!(idx.index(1, 2), 4);
        assert_eq!(idx.index(3, 4), 9);
        assert_eq!(idx.pair(9), (3, 4));
    }

    #[test]
    fn propagate_nested_closes_the_mask() {
        let n = 8usize;
        let idx = PairIndexer::new(n);
        // Mark one pair dirty; exactly its ancestors (pairs containing it)
        // must light up.
        for (di, dj) in [(2usize, 5usize), (0, 1), (3, 4)] {
            let mut mask = vec![false; idx.len()];
            mask[idx.index(di, dj)] = true;
            idx.propagate_nested(&mut mask);
            for (i, j) in idx.pairs() {
                let contains = i <= di && dj <= j;
                assert_eq!(mask[idx.index(i, j)], contains, "({i},{j}) vs ({di},{dj})");
            }
        }
        // Empty mask stays empty; full mask stays full.
        let mut empty = vec![false; idx.len()];
        idx.propagate_nested(&mut empty);
        assert!(empty.iter().all(|&b| !b));
        let mut full = vec![true; idx.len()];
        idx.propagate_nested(&mut full);
        assert!(full.iter().all(|&b| b));
    }

    #[test]
    fn wtable_get_set_root() {
        let mut w = WTable::<u64>::new(5);
        assert_eq!(w.get(0, 5), <u64 as Weight>::INFINITY);
        w.set(0, 5, 42);
        assert_eq!(w.root(), 42);
    }

    #[test]
    fn wtable_eq_uses_cost_eq() {
        let mut a = WTable::<f64>::new(2);
        let mut b = WTable::<f64>::new(2);
        a.set(0, 2, 0.1 + 0.2);
        b.set(0, 2, 0.3);
        a.set(0, 1, 1.0);
        b.set(0, 1, 1.0);
        a.set(1, 2, 2.0);
        b.set(1, 2, 2.0);
        assert!(a.table_eq(&b));
        b.set(1, 2, 2.5);
        assert!(!a.table_eq(&b));
    }

    #[test]
    fn dense_pw_initial_state() {
        let pw = DensePw::<u64>::new(4);
        let inf = <u64 as Weight>::INFINITY;
        // Diagonal zero.
        for (i, j) in pw.indexer().pairs().collect::<Vec<_>>() {
            assert_eq!(pw.get(i, j, i, j), 0);
        }
        // Off-diagonal nested cells infinity.
        assert_eq!(pw.get(0, 4, 1, 3), inf);
        assert_eq!(pw.get(0, 2, 0, 1), inf);
    }

    #[test]
    fn dense_pw_set_get() {
        let mut pw = DensePw::<u64>::new(5);
        pw.set(0, 5, 1, 3, 7);
        assert_eq!(pw.get(0, 5, 1, 3), 7);
        let a = pw.indexer().index(0, 5);
        // Gap (1,3) of root (0,5): segment 1, second cell.
        assert_eq!(pw.row(a)[DensePw::<u64>::segment_offset(5, 1) + 1], 7);
    }

    #[test]
    fn dense_layout_roundtrip() {
        // A distinct value in every nested cell reads back through get
        // and the in-row position S(p - i) + (q - p - 1).
        for n in [1usize, 2, 5, 9, 13] {
            let mut pw = DensePw::<u64>::new(n);
            let idx = PairIndexer::new(n);
            let nested = |i, j| (i..j).flat_map(move |p| (p + 1..=j).map(move |q| (p, q)));
            let mut v = 1u64;
            for (i, j) in idx.pairs() {
                for (p, q) in nested(i, j) {
                    pw.set(i, j, p, q, v);
                    v += 1;
                }
            }
            let mut v2 = 1u64;
            for (i, j) in idx.pairs() {
                let a = idx.index(i, j);
                for (p, q) in nested(i, j) {
                    let pos = DensePw::<u64>::segment_offset(j - i, p - i) + (q - p - 1);
                    assert_eq!(pos, v2 as usize - 1 - pw.row_span(a).0, "storage order");
                    assert_eq!(pw.get(i, j, p, q), v2, "({i},{j},{p},{q})");
                    assert_eq!(pw.row(a)[pos], v2);
                    v2 += 1;
                }
                let d = j - i;
                assert_eq!(pw.row(a).len(), d * (d + 1) / 2, "row ({i},{j}) length");
            }
            assert_eq!(v2 as usize - 1, pw.stored_cells());
        }
    }

    #[test]
    fn dense_row_spans_partition_data() {
        let pw = DensePw::<u64>::new(8);
        let mut end_prev = 0usize;
        for (a, (i, j)) in pw.indexer().pairs().enumerate() {
            let (s, e) = pw.row_span(a);
            assert_eq!(s, end_prev);
            assert_eq!(e - s, (j - i) * (j - i + 1) / 2);
            end_prev = e;
        }
        assert_eq!(end_prev, pw.stored_cells());
        assert_eq!(end_prev, pw.as_slice().len());
    }

    #[test]
    fn dense_stored_cells_are_c_n_plus_3_choose_4() {
        for n in 1..=20usize {
            let binom = (n + 3) * (n + 2) * (n + 1) * n / 24;
            assert_eq!(DensePw::<u64>::new(n).stored_cells(), binom, "n={n}");
        }
        // The figures the layout notes quote.
        for (n, cells) in [(42usize, 148_995usize), (44, 178_365)] {
            assert_eq!(DensePw::<u64>::new(n).stored_cells(), cells);
        }
    }

    #[test]
    fn dense_fresh_table_has_only_zero_diagonals() {
        let pw = DensePw::<u64>::new(7);
        let zeros = pw.as_slice().iter().filter(|&&v| v == 0).count();
        assert_eq!(zeros, pw.dim());
        assert!(pw
            .as_slice()
            .iter()
            .all(|&v| v == 0 || v == <u64 as Weight>::INFINITY));
        for (i, j) in pw.indexer().pairs() {
            assert_eq!(pw.get(i, j, i, j), 0);
        }
    }

    #[test]
    fn banded_layout_roundtrip() {
        for n in [3usize, 6, 10, 15] {
            for band in [1usize, 2, 4, 7, 100] {
                let mut pw = BandedPw::<u64>::new(n, band);
                // Write a distinct value into every in-band cell, then read
                // them all back.
                let idx = PairIndexer::new(n);
                let mut v = 1u64;
                for (i, j) in idx.pairs() {
                    let gaps: Vec<_> = pw.gaps_of(i, j).collect();
                    for &(p, q) in &gaps {
                        pw.set(i, j, p, q, v);
                        v += 1;
                    }
                }
                let mut v2 = 1u64;
                for (i, j) in idx.pairs() {
                    let gaps: Vec<_> = pw.gaps_of(i, j).collect();
                    for &(p, q) in &gaps {
                        assert_eq!(pw.get(i, j, p, q), v2, "({i},{j},{p},{q})");
                        v2 += 1;
                    }
                }
                assert_eq!(v2 as usize - 1, pw.stored_cells());
            }
        }
    }

    #[test]
    fn banded_out_of_band_reads_infinity() {
        let pw = BandedPw::<u64>::new(10, 2);
        // (0,10) with gap (4,5): e = 10 - 1 = 9 > 2.
        assert_eq!(pw.get(0, 10, 4, 5), <u64 as Weight>::INFINITY);
        // In-band diagonal still zero.
        assert_eq!(pw.get(0, 10, 0, 10), 0);
        assert_eq!(pw.get(0, 10, 1, 10), <u64 as Weight>::INFINITY); // e=1, stored, inf
    }

    #[test]
    fn banded_cell_count_is_cubic_not_quartic() {
        // With B = 2 ceil(sqrt(n)), cells should be O(n^3), far below the
        // P^2 ~ n^4/4 cells of a full pair-indexed matrix.
        let n = 40usize;
        let b = 2 * ((n as f64).sqrt().ceil() as usize);
        let banded = BandedPw::<u64>::new(n, b);
        let dense_cells = PairIndexer::new(n).len().pow(2);
        assert!(
            banded.stored_cells() * 4 < dense_cells,
            "banded {} vs dense {}",
            banded.stored_cells(),
            dense_cells
        );
    }

    #[test]
    fn banded_width_blocks_partition_data() {
        // One block per width, ascending and back to back, each holding
        // root_cells(d) cell-rows of roots(d) cells: the blocks tile the
        // whole buffer with no padding.
        for (n, band) in [(8usize, 3usize), (1, 2), (9, 100), (13, 1)] {
            let pw = BandedPw::<u64>::new(n, band);
            let mut end_prev = 0usize;
            for d in 1..=n {
                let (s, e) = pw.width_span(d);
                assert_eq!(s, end_prev, "width {d} starts where {} ends", d - 1);
                assert_eq!(e - s, pw.root_cells(d) * pw.roots(d), "width {d} length");
                assert_eq!(pw.width(d).len(), e - s);
                assert_eq!(pw.roots(d), n + 1 - d);
                end_prev = e;
            }
            assert_eq!(end_prev, pw.stored_cells());
            assert_eq!(end_prev, pw.as_slice().len());
            let per_root: usize = pw
                .indexer()
                .pairs()
                .map(|(i, j)| pw.gaps_of(i, j).count())
                .sum();
            assert_eq!(per_root, pw.stored_cells(), "no padding (n={n}, B={band})");
        }
    }

    #[test]
    fn width_blocks_follow_the_gap_layout() {
        // A value written through set(i, j, p, q) must sit at
        // width(d)[g * roots(d) + i], g = block_offset(e) + (p - i), for
        // every stored gap; an out-of-band get still reads infinity.
        for (n, band) in [(9usize, 3usize), (12, 5), (6, 100)] {
            let mut pw = BandedPw::<u64>::new(n, band);
            let idx = PairIndexer::new(n);
            let mut v = 10u64;
            for (i, j) in idx.pairs() {
                let d = j - i;
                let gaps: Vec<_> = pw.gaps_of(i, j).collect();
                assert_eq!(gaps.len(), pw.root_cells(d), "root ({i},{j}) gap count");
                for (g, &(p, q)) in gaps.iter().enumerate() {
                    let e = d - (q - p);
                    assert_eq!(g, BandedPw::<u64>::block_offset(e) + (p - i), "gap number");
                    pw.set(i, j, p, q, v);
                    assert_eq!(pw.width(d)[g * pw.roots(d) + i], v, "({i},{j},{p},{q})");
                    v += 1;
                }
                for p in i..j {
                    for q in p + 1..=j {
                        if d - (q - p) > band {
                            assert_eq!(pw.get(i, j, p, q), <u64 as Weight>::INFINITY);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gaps_of_matches_band_predicate() {
        let pw = BandedPw::<u64>::new(12, 4);
        for (i, j) in PairIndexer::new(12).pairs() {
            let from_iter: std::collections::BTreeSet<_> = pw.gaps_of(i, j).collect();
            let mut expected = std::collections::BTreeSet::new();
            for p in i..j {
                for q in p + 1..=j {
                    if (j - i) - (q - p) <= 4 {
                        expected.insert((p, q));
                    }
                }
            }
            assert_eq!(from_iter, expected, "({i},{j})");
        }
    }
}
