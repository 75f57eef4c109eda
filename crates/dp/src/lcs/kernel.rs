//! Sequential LCS kernels (Lemma 1).
//!
//! The PACO, PA and PO algorithms all delegate the actual cell computation to
//! the same sequential kernel — the paper's experimental methodology requires
//! every competitor to call identical leaf code so that only the partitioning
//! differs.  The kernel computes a rectangular *block* of the LCS dynamic
//! programming table from the recurrence (1):
//!
//! ```text
//! X[i][j] = 0                                  if i = 0 or j = 0
//!         = X[i-1][j-1] + 1                    if a[i-1] == b[j-1]
//!         = max(X[i][j-1], X[i-1][j])          otherwise
//! ```
//!
//! The leaf is [`bp_block`], the bit-vector LCS of Allison & Dix (1986) in
//! Hyyrö's formulation ("Bit-parallel LCS-length computation revisited",
//! 2004), generalised to a tile with arbitrary boundaries: it reads the
//! block's top row and left column and writes *only* its bottom row and
//! right column, one machine word per 64 columns of a row.  That is the
//! paper's view of a PACO tile (a tile exchanges nothing but its boundary),
//! and it is all any neighbour ever reads: in a rectangle tiling, the halo
//! of a block lies on the bottom rows and right columns of the blocks above
//! and to its left.
//!
//! [`co_block`] evaluates a block with the cache-oblivious 2-way
//! divide-and-conquer of Chowdhury & Ramachandran (recursing on the longer
//! dimension until a small base case), which incurs
//! `O(b_r·b_c/(LZ) + (b_r+b_c)/L)` misses per block.  The kernels are generic
//! over [`Tracker`]; [`base_block`] takes one of two paths:
//!
//! * with a tracking [`Tracker`] (the cache simulator) it runs the scalar
//!   row-major sweep over a full `(n+1)×(m+1)` [`LcsTable`], so the replayed
//!   access stream — and every `Q` number derived from it — is the one the
//!   paper analyses;
//! * under [`paco_cache_sim::NullTracker`] it runs [`bp_block`], and only
//!   the block's boundary cells of the table are written; interior cells
//!   keep whatever they held.
//!
//! The service path (`LcsRun`) keeps no table at all: it stores only the
//! cut rows and columns of its partition and runs one [`bp_block`] per
//! region.

use crate::shared::SharedGrid;
use paco_cache_sim::layout::{AddressSpace, Layout1D, Layout2D};
use paco_cache_sim::Tracker;
use paco_core::metrics::sched::kernel as kernel_metrics;
use std::ops::Range;

/// Default base-case side of the cache-oblivious recursion (an alias of the
/// hoisted workspace default in [`paco_core::tuning`]).
pub const DEFAULT_BASE: usize = paco_core::tuning::LCS_BASE;

/// Simulated-address-space placement of the LCS working set (table + both
/// input sequences); used only when replaying a kernel through the cache
/// simulator.
#[derive(Debug, Clone, Copy)]
pub struct LcsAddr {
    /// The `(n+1) × (m+1)` DP table.
    pub table: Layout2D,
    /// First input sequence (length n).
    pub a: Layout1D,
    /// Second input sequence (length m).
    pub b: Layout1D,
}

impl LcsAddr {
    /// Lay out the working set for sequences of length `n` and `m`.
    pub fn new(n: usize, m: usize) -> Self {
        let mut space = AddressSpace::new();
        let table = space.alloc_2d(n + 1, m + 1);
        let a = space.alloc_1d(n.max(1));
        let b = space.alloc_1d(m.max(1));
        Self { table, a, b }
    }
}

/// The LCS dynamic-programming table: `(n+1) × (m+1)` cells with the zero
/// boundary in row 0 and column 0.
pub struct LcsTable {
    grid: SharedGrid<u32>,
    n: usize,
    m: usize,
}

impl LcsTable {
    /// An all-zero table for sequences of length `n` and `m`.
    pub fn new(n: usize, m: usize) -> Self {
        Self {
            grid: SharedGrid::from_vec(n + 1, m + 1, vec![0; (n + 1) * (m + 1)]),
            n,
            m,
        }
    }

    /// The shared cell grid.
    pub fn grid(&self) -> &SharedGrid<u32> {
        &self.grid
    }

    /// The LCS length once the table has been filled.
    pub fn lcs_length(&self) -> u32 {
        self.grid.get(self.n, self.m)
    }
}

/// Reference implementation: the classic two-row iterative DP.
/// `O(n·m)` time, `O(m)` space.  Ground truth for every other variant.
pub fn lcs_reference(a: &[u32], b: &[u32]) -> u32 {
    let m = b.len();
    let mut prev = vec![0u32; m + 1];
    let mut cur = vec![0u32; m + 1];
    for &ai in a {
        for (j, &bj) in b.iter().enumerate() {
            cur[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                cur[j].max(prev[j + 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Fill the block `rows × cols` (1-based table coordinates).  Requires row
/// `rows.start - 1` and column `cols.start - 1` to be final over the block's
/// extent, the top-left corner included.
///
/// What gets written depends on the tracker:
///
/// * when `T::TRACKING` (the cache simulator), a scalar row-major sweep
///   writes every cell of the block and reports each access, so replayed
///   miss counts are those of the table algorithm the paper analyses;
/// * otherwise (the production `NullTracker`), [`bp_block`] runs over the
///   block's halo and only the block's **bottom row and right column** are
///   written.  Interior cells keep whatever they held: every caller's
///   blocks tile the table, so a block's halo always lies on boundaries
///   its neighbours wrote, and the final cell `(n, m)` is a boundary cell.
#[inline]
pub fn base_block<T: Tracker>(
    table: &LcsTable,
    a: &[u32],
    b: &[u32],
    rows: Range<usize>,
    cols: Range<usize>,
    tracker: &mut T,
    addr: &LcsAddr,
) {
    let grid = &table.grid;
    if !T::TRACKING && !rows.is_empty() && !cols.is_empty() {
        let (h, w) = (rows.len(), cols.len());
        let mut halo = vec![0u32; 2 * (h + w) + 1];
        let (top, rest) = halo.split_at_mut(w + 1);
        let (left, rest) = rest.split_at_mut(h);
        let (bottom, right) = rest.split_at_mut(w);
        for (t, j) in top.iter_mut().zip(cols.start - 1..cols.end) {
            *t = grid.get(rows.start - 1, j);
        }
        for (l, i) in left.iter_mut().zip(rows.clone()) {
            *l = grid.get(i, cols.start - 1);
        }
        bp_block(
            &a[rows.start - 1..rows.end - 1],
            &b[cols.start - 1..cols.end - 1],
            top,
            left,
            bottom,
            right,
        );
        for (&x, j) in bottom.iter().zip(cols.clone()) {
            grid.set(rows.end - 1, j, x);
        }
        for (&x, i) in right.iter().zip(rows) {
            grid.set(i, cols.end - 1, x);
        }
        return;
    }
    for i in rows {
        let ai = a[i - 1];
        tracker.read(addr.a.addr(i - 1));
        for j in cols.clone() {
            tracker.read(addr.b.addr(j - 1));
            let val = if ai == b[j - 1] {
                tracker.read(addr.table.addr(i - 1, j - 1));
                grid.get(i - 1, j - 1) + 1
            } else {
                tracker.read(addr.table.addr(i - 1, j));
                tracker.read(addr.table.addr(i, j - 1));
                grid.get(i - 1, j).max(grid.get(i, j - 1))
            };
            grid.set(i, j, val);
            tracker.write(addr.table.addr(i, j));
        }
    }
    kernel_metrics::record_lcs_leaf(false);
}

/// Symbols below this bound index the match-mask table directly.
const DIRECT_ALPHABET: usize = 256;

/// Bit-parallel LCS over one block of the table: boundary in, boundary out.
///
/// `a` holds the block's `h` row symbols and `b` its `w` column symbols.
/// `top` is the table row just above the block from the column left of it
/// to its last column (`w + 1` values, top-left corner first); `left` is the
/// column just left of the block over its `h` rows.  On return `bottom`
/// holds the block's last row (`w` values) and `right` its last column
/// (`h` values).  A block with no rows or no columns passes its top or left
/// halo through.
///
/// Bit `j` of the row vector `V` is set when the horizontal step
/// `X[i][j+1] - X[i][j]` is 0.  Each row runs Hyyrö's update
/// `U = V & PM[a_i]; V = (V + U + c) | (V & !U)` across `⌈w/64⌉` words; the
/// carry chain of that addition is the vertical step `X[i][j] - X[i-1][j]`,
/// column by column.  Two facts make the sweep compose across tiles:
///
/// * the carry into a row is the left boundary's vertical step,
///   `left[i] - left[i-1]` (with `left[-1]` the corner `top[0]`);
/// * the carry out of a row is the vertical step of the block's last
///   column, so `right[i] = right[i-1] + carry` (with `right[-1] = top[w]`).
///
/// The bottom row is `left[h-1]` plus a running count of the zero bits of
/// the final `V`.
///
/// Match masks are exact for every `u32` symbol: indexed by symbol when all
/// of `b` is below 256, otherwise through a sorted table of `b`'s distinct
/// symbols.
///
/// # Panics
///
/// If a boundary slice's length does not match the block.
pub fn bp_block(
    a: &[u32],
    b: &[u32],
    top: &[u32],
    left: &[u32],
    bottom: &mut [u32],
    right: &mut [u32],
) {
    let (h, w) = (a.len(), b.len());
    assert!(
        top.len() == w + 1 && left.len() == h && bottom.len() == w && right.len() == h,
        "bp_block: boundary lengths do not match the {h}x{w} block"
    );
    kernel_metrics::record_lcs_leaf(true);
    if b.iter().all(|&s| (s as usize) < DIRECT_ALPHABET) {
        let masks = match_masks(b, DIRECT_ALPHABET, |s| s as usize);
        sweep(a, top, left, bottom, right, &masks, |s| {
            (s as usize).min(DIRECT_ALPHABET)
        });
    } else {
        let mut keys = b.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let masks = match_masks(b, keys.len(), |s| {
            keys.binary_search(&s).expect("a symbol of b has a slot")
        });
        sweep(a, top, left, bottom, right, &masks, |s| {
            keys.binary_search(&s).unwrap_or(keys.len())
        });
    }
}

/// `slots + 1` match masks of `⌈w/64⌉` words each: bit `j` of mask
/// `slot(s)` is set iff `b[j] == s`.  The last mask is all zero — the one
/// a symbol absent from `b` looks up.
fn match_masks(b: &[u32], slots: usize, slot: impl Fn(u32) -> usize) -> Vec<u64> {
    let words = b.len().div_ceil(64);
    let mut masks = vec![0u64; (slots + 1) * words];
    for (j, &s) in b.iter().enumerate() {
        masks[slot(s) * words + j / 64] |= 1 << (j % 64);
    }
    masks
}

/// The row sweep of [`bp_block`], over masks laid out by [`match_masks`]
/// and looked up through `slot`.
fn sweep(
    a: &[u32],
    top: &[u32],
    left: &[u32],
    bottom: &mut [u32],
    right: &mut [u32],
    masks: &[u64],
    slot: impl Fn(u32) -> usize,
) {
    let w = bottom.len();
    let words = w.div_ceil(64);
    // Padding bits past column `w` stay set and never match, so they pass
    // the last column's carry straight out of the top word.
    let mut v = vec![!0u64; words];
    for j in 0..w {
        if top[j + 1] != top[j] {
            v[j / 64] &= !(1 << (j % 64));
        }
    }
    let mut left_prev = top[0];
    let mut right_prev = top[w];
    for ((&ai, &li), r) in a.iter().zip(left).zip(right.iter_mut()) {
        let pm = &masks[slot(ai) * words..][..words];
        // Adjacent table cells differ by 0 or 1, so "differs" is the step.
        let mut carry = u64::from(li != left_prev);
        left_prev = li;
        for (vk, &pk) in v.iter_mut().zip(pm) {
            let u = *vk & pk;
            let (s1, c1) = vk.overflowing_add(u);
            let (s2, c2) = s1.overflowing_add(carry);
            carry = u64::from(c1 | c2);
            *vk = s2 | (*vk & !u);
        }
        right_prev += carry as u32;
        *r = right_prev;
    }
    let mut x = left_prev;
    for (j, out) in bottom.iter_mut().enumerate() {
        x += 1 - ((v[j / 64] >> (j % 64)) & 1) as u32;
        *out = x;
    }
}

/// Cache-oblivious evaluation of the block `rows × cols` (1-based table
/// coordinates): recursively halve the longer dimension until both sides are at
/// most `base`, then sweep.  The first half of a split is evaluated before the
/// second, which keeps every intra-block dependency satisfied.
#[allow(clippy::too_many_arguments)] // mirrors the paper's COP-LCS signature
pub fn co_block<T: Tracker>(
    table: &LcsTable,
    a: &[u32],
    b: &[u32],
    rows: Range<usize>,
    cols: Range<usize>,
    base: usize,
    tracker: &mut T,
    addr: &LcsAddr,
) {
    let nr = rows.len();
    let nc = cols.len();
    if nr == 0 || nc == 0 {
        return;
    }
    if nr <= base && nc <= base {
        base_block(table, a, b, rows, cols, tracker, addr);
        return;
    }
    if nr >= nc {
        let mid = rows.start + nr / 2;
        co_block(
            table,
            a,
            b,
            rows.start..mid,
            cols.clone(),
            base,
            tracker,
            addr,
        );
        co_block(table, a, b, mid..rows.end, cols, base, tracker, addr);
    } else {
        let mid = cols.start + nc / 2;
        co_block(
            table,
            a,
            b,
            rows.clone(),
            cols.start..mid,
            base,
            tracker,
            addr,
        );
        co_block(table, a, b, rows, mid..cols.end, base, tracker, addr);
    }
}

/// Sequential cache-oblivious LCS (the paper's `CO-LCS`, Lemma 1): evaluates
/// the whole table with [`co_block`] and returns the LCS length.
pub fn lcs_sequential_co(a: &[u32], b: &[u32], base: usize) -> u32 {
    let table = LcsTable::new(a.len(), b.len());
    let addr = LcsAddr::new(a.len(), b.len());
    co_block(
        &table,
        a,
        b,
        1..a.len() + 1,
        1..b.len() + 1,
        base,
        &mut paco_cache_sim::NullTracker,
        &addr,
    );
    table.lcs_length()
}

/// Sequential cache-oblivious LCS replayed through the ideal cache simulator:
/// returns the LCS length and the simulator holding `Q₁` (all accesses are
/// charged to processor 0).
pub fn lcs_sequential_traced(
    a: &[u32],
    b: &[u32],
    base: usize,
    params: paco_core::machine::CacheParams,
) -> (u32, paco_cache_sim::DistCacheSim) {
    let table = LcsTable::new(a.len(), b.len());
    let addr = LcsAddr::new(a.len(), b.len());
    let mut tracker = paco_cache_sim::SimTracker::new(1, params);
    co_block(
        &table,
        a,
        b,
        1..a.len() + 1,
        1..b.len() + 1,
        base,
        &mut tracker,
        &addr,
    );
    (table.lcs_length(), tracker.into_sim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_cache_sim::NullTracker;
    use paco_core::machine::CacheParams;
    use paco_core::workload::{random_sequence, related_sequences};

    #[test]
    fn reference_on_known_instances() {
        // "ABCBDAB" vs "BDCABA" -> LCS "BCBA" of length 4 (CLRS example).
        let a: Vec<u32> = "ABCBDAB".bytes().map(u32::from).collect();
        let b: Vec<u32> = "BDCABA".bytes().map(u32::from).collect();
        assert_eq!(lcs_reference(&a, &b), 4);
        assert_eq!(lcs_reference(&[], &[1, 2, 3]), 0);
        assert_eq!(lcs_reference(&[1, 2, 3], &[]), 0);
        assert_eq!(lcs_reference(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(lcs_reference(&[1, 2, 3], &[4, 5, 6]), 0);
    }

    #[test]
    fn co_kernel_matches_reference_on_random_inputs() {
        for &(n, m, base) in &[
            (1usize, 1usize, 4usize),
            (7, 13, 4),
            (64, 64, 16),
            (100, 57, 8),
            (129, 200, 32),
        ] {
            let a = random_sequence(n, 4, 100 + n as u64);
            let b = random_sequence(m, 4, 200 + m as u64);
            assert_eq!(
                lcs_sequential_co(&a, &b, base),
                lcs_reference(&a, &b),
                "n={n} m={m} base={base}"
            );
        }
    }

    #[test]
    fn co_kernel_on_related_sequences() {
        let (a, b) = related_sequences(300, 4, 0.2, 9);
        assert_eq!(lcs_sequential_co(&a, &b, 32), lcs_reference(&a, &b));
    }

    #[test]
    fn bp_block_passes_halo_through_empty_blocks() {
        let (top, left) = ([3, 4, 4, 5], [4, 5]);
        let mut bottom = [0; 3];
        bp_block(&[], &[7, 8, 9], &top, &[], &mut bottom, &mut []);
        assert_eq!(bottom, [4, 4, 5]);
        let mut right = [0; 2];
        bp_block(&[7, 8], &[], &top[..1], &left, &mut [], &mut right);
        assert_eq!(right, left);
    }

    #[test]
    fn base_block_fills_partial_regions() {
        // Fill the table in two block steps and check against the monolithic run.
        let a = random_sequence(40, 4, 1);
        let b = random_sequence(40, 4, 2);
        let addr = LcsAddr::new(40, 40);
        let t1 = LcsTable::new(40, 40);
        base_block(&t1, &a, &b, 1..41, 1..21, &mut NullTracker, &addr);
        base_block(&t1, &a, &b, 1..41, 21..41, &mut NullTracker, &addr);
        assert_eq!(t1.lcs_length(), lcs_reference(&a, &b));
    }

    #[test]
    fn traced_kernel_matches_and_counts_misses() {
        let a = random_sequence(128, 4, 5);
        let b = random_sequence(128, 4, 6);
        let params = CacheParams::new(512, 8);
        let (len, sim) = lcs_sequential_traced(&a, &b, 16, params);
        assert_eq!(len, lcs_reference(&a, &b));
        let q1 = sim.q_sum();
        assert!(q1 > 0);
        // The table alone is 129*129 ≈ 16.6k words = ~2080 lines; every line must
        // be written at least once, and the cache holds only 64 lines, so the
        // miss count must be at least the compulsory misses.
        assert!(q1 >= 2000, "q1 = {q1}");
        // And it must be far below the naive one-miss-per-access bound.
        assert!(q1 < sim.accesses().total() / 2, "q1 = {q1}");
    }

    #[test]
    fn co_recursion_is_cache_friendlier_than_row_major_when_rows_are_long() {
        // For a tall-and-wide table with a tiny cache, the cache-oblivious
        // recursion should not be (much) worse than the straight row-major sweep
        // and is typically better; check it is within a small factor.
        let n = 256;
        let a = random_sequence(n, 4, 11);
        let b = random_sequence(n, 4, 12);
        let params = CacheParams::new(256, 8);

        let (_, sim_co) = lcs_sequential_traced(&a, &b, 16, params);

        // Row-major sweep = a single huge "base block".
        let table = LcsTable::new(n, n);
        let addr = LcsAddr::new(n, n);
        let mut tracker = paco_cache_sim::SimTracker::new(1, params);
        base_block(&table, &a, &b, 1..n + 1, 1..n + 1, &mut tracker, &addr);
        let sim_row = tracker.into_sim();

        assert_eq!(table.lcs_length(), lcs_reference(&a, &b));
        assert!(
            (sim_co.q_sum() as f64) < 1.5 * sim_row.q_sum() as f64,
            "CO {} vs row-major {}",
            sim_co.q_sum(),
            sim_row.q_sum()
        );
    }
}
