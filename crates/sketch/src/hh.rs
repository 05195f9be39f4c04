//! Heavy-hitter tracking: a count-min sketch plus a bounded
//! space-saving/Misra–Gries candidate list for top-k reporting.
//!
//! The count-min core is `d` rows of `2^w` counters with per-row
//! multiply-shift hashes seeded by fixed constants, so two sketches of
//! the same shape hash identically and their merge — elementwise
//! addition — is an exact commutative monoid. A sketch with more
//! columns folds exactly onto one with fewer (halving columns maps
//! counter `i` to `i >> 1`, matching the shorter hash prefix), and a
//! sketch with more rows truncates to the shared prefix of rows, so
//! mixed-shape merges are still deterministic and associative. Point
//! estimates (`min` over rows) are upper bounds that overshoot a key's
//! true count by more than `εn` (`ε ≈ e/2^w`) with probability at most
//! `e^-d`.
//!
//! The candidate list runs the weighted Misra–Gries discipline (the
//! summary of Agarwal et al.'s *Mergeable Summaries*): at most `M`
//! keys with lower-bound counters; overflow subtracts the `(M+1)`-th
//! largest counter from every entry and drops the non-positive ones.
//! Every subtraction `δ` removes at least `(M+1)·δ` total mass, so the
//! accumulated decrement — tracked exactly in [`error_bound`] — never
//! exceeds `n/(M+1)`. Hence every key with true count above
//! `error_bound()` (≤ `n/(M+1)`) is guaranteed present under **any**
//! merge order, with a counter in `[count − bound, count]`. When the
//! list never overflows (every zoo network has far fewer channels than
//! `M`) the counters are exact and the merge is exactly associative.
//!
//! Past `M` keys the *set* of survivors, their counters and the
//! decrement do depend on the merge order, because [`merge`] shrinks
//! after every fold. [`merge`] is therefore [`absorb`] (an exact
//! commutative monoid: counters, candidate lists and decrements add)
//! followed by [`shrink`]. A rollup that absorbs every block and
//! shrinks once at the end gives the same bytes in any order, and the
//! bound above still holds: every block's candidates sum to at most
//! `nᵢ − (M+1)·dᵢ`, so one shrink by `δ` leaves
//! `(M+1)·(Σdᵢ + δ) ≤ Σnᵢ`.
//!
//! [`error_bound`]: HeavyHitters::error_bound
//! [`merge`]: HeavyHitters::merge
//! [`absorb`]: HeavyHitters::absorb
//! [`shrink`]: HeavyHitters::shrink

use crate::splitmix64;
use std::fmt;

/// Sparse `(index-or-key, count)` pairs — the codec form for both the
/// count-min cells and the candidate list.
pub(crate) type SparsePairs = Vec<(u64, u64)>;

/// Maximum supported rows.
pub const MAX_ROWS: u8 = 8;
/// Maximum supported column exponent (`2^16` counters per row).
pub const MAX_COLS_LOG2: u8 = 16;
/// Minimum supported column exponent.
pub const MIN_COLS_LOG2: u8 = 4;
/// Maximum candidate-list capacity.
pub const MAX_CAPACITY: u16 = 1024;

/// Per-row multiply-shift seed: fixed per row index, shared by every
/// sketch, so equal-shape sketches are hash-compatible by construction.
#[inline]
fn row_seed(row: u8) -> u64 {
    splitmix64(0x6571_7368_u64 + row as u64) | 1
}

/// The count-min + Misra–Gries heavy-hitter sketch. See the module docs.
#[derive(Clone, PartialEq, Eq)]
pub struct HeavyHitters {
    rows: u8,
    cols_log2: u8,
    capacity: u16,
    total: u64,
    /// Accumulated Misra–Gries decrement: the certified maximum
    /// undercount of any candidate counter. Provably ≤ `total/(capacity+1)`.
    decremented: u64,
    counts: Vec<u64>,
    /// `(key, counter)` sorted by key; counters are lower bounds within
    /// `decremented` of the true count.
    candidates: Vec<(u64, u64)>,
}

impl HeavyHitters {
    /// An empty sketch (`rows` clamped to `1..=8`, `cols_log2` to
    /// `4..=16`, `capacity` to `1..=1024`).
    pub fn new(rows: u8, cols_log2: u8, capacity: u16) -> HeavyHitters {
        let rows = rows.clamp(1, MAX_ROWS);
        let cols_log2 = cols_log2.clamp(MIN_COLS_LOG2, MAX_COLS_LOG2);
        let capacity = capacity.clamp(1, MAX_CAPACITY);
        HeavyHitters {
            rows,
            cols_log2,
            capacity,
            total: 0,
            decremented: 0,
            counts: vec![0; (rows as usize) << cols_log2],
            candidates: Vec::new(),
        }
    }

    /// Total weight inserted (exact).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True iff nothing has been inserted (the merge identity).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The certified maximum undercount of any candidate counter (0
    /// while the list has never overflowed — counters are then exact).
    /// Always ≤ `count() / (capacity + 1)`.
    pub fn error_bound(&self) -> u64 {
        self.decremented
    }

    /// The count-min overestimate factor `ε ≈ e / 2^w`: a point estimate
    /// exceeds the true count by more than `ε · total` with probability
    /// at most `e^-rows`.
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / (1u64 << self.cols_log2) as f64
    }

    #[inline]
    fn cell(&self, row: u8, key: u64) -> usize {
        let idx = (key.wrapping_mul(row_seed(row)) >> (64 - self.cols_log2 as u32)) as usize;
        ((row as usize) << self.cols_log2) | idx
    }

    /// Adds `inc` to `key`'s traffic.
    pub fn insert(&mut self, key: u64, inc: u64) {
        if inc == 0 {
            return;
        }
        self.total += inc;
        for r in 0..self.rows {
            let c = self.cell(r, key);
            self.counts[c] += inc;
        }
        match self.candidates.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.candidates[i].1 += inc,
            Err(i) => {
                self.candidates.insert(i, (key, inc));
                self.shrink();
            }
        }
    }

    /// The count-min point estimate for `key` (an upper bound).
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.rows)
            .map(|r| self.counts[self.cell(r, key)])
            .min()
            .unwrap_or(0)
    }

    /// The Misra–Gries overflow step: subtract the `(M+1)`-th largest
    /// counter from every entry, drop the non-positive. Deterministic,
    /// and removes at least `(M+1)·δ` mass, which is what certifies
    /// `decremented ≤ total/(M+1)`. Leaves at most `M` candidates; a
    /// no-op while the list is within capacity.
    pub fn shrink(&mut self) {
        if self.candidates.len() <= self.capacity as usize {
            return;
        }
        let mut counters: Vec<u64> = self.candidates.iter().map(|&(_, n)| n).collect();
        counters.sort_unstable_by(|a, b| b.cmp(a));
        let delta = counters[self.capacity as usize];
        self.decremented += delta;
        self.candidates.retain_mut(|entry| {
            entry.1 = entry.1.saturating_sub(delta);
            entry.1 > 0
        });
    }

    /// The top `k` keys by candidate counter, busiest first, ties broken
    /// by smaller key. Counters are exact unless the candidate list ever
    /// overflowed, in which case they undercount by at most
    /// [`error_bound`](HeavyHitters::error_bound).
    pub fn top(&self, k: usize) -> Vec<(u64, u64)> {
        let mut sorted = self.candidates.clone();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sorted.truncate(k);
        sorted
    }

    /// Folds count-min columns down to a coarser width (exact: counter
    /// `i` at width `2^w` maps to `i >> 1` at `2^(w-1)`, matching the
    /// one-bit-shorter hash prefix).
    fn fold_cols_to(&mut self, cols_log2: u8) {
        if cols_log2 >= self.cols_log2 {
            return;
        }
        let d = (self.cols_log2 - cols_log2) as u32;
        let old_w = 1usize << self.cols_log2;
        let new_w = 1usize << cols_log2;
        let mut folded = vec![0u64; (self.rows as usize) * new_w];
        for r in 0..self.rows as usize {
            for i in 0..old_w {
                let n = self.counts[(r * old_w) | i];
                if n > 0 {
                    folded[(r * new_w) | (i >> d)] += n;
                }
            }
        }
        self.counts = folded;
        self.cols_log2 = cols_log2;
    }

    /// Drops rows beyond `rows` (rows hash independently by fixed index,
    /// so the shared prefix of rows is identical across sketches).
    fn truncate_rows_to(&mut self, rows: u8) {
        if rows >= self.rows {
            return;
        }
        self.counts.truncate((rows as usize) << self.cols_log2);
        self.rows = rows;
    }

    /// Folds `other` in: [`absorb`](HeavyHitters::absorb) followed by
    /// [`shrink`](HeavyHitters::shrink). Commutative and
    /// identity-preserving; the count-min core is exactly associative,
    /// and the candidate layer is associative at the guarantee level —
    /// every key above `error_bound()` survives any merge order (exactly
    /// associative whenever the list never overflows).
    pub fn merge(&mut self, other: &HeavyHitters) {
        self.absorb(other);
        self.shrink();
    }

    /// Folds `other` in exactly: aligns both to the coarser shape, adds
    /// the count-min grids, totals and decrements, and sums the
    /// candidate lists keywise. An exact commutative monoid with the
    /// empty sketch as identity, so any order of absorbs gives the same
    /// sketch. The candidate list may grow past capacity (to the union
    /// of the absorbed keys); [`shrink`](HeavyHitters::shrink) before
    /// encoding.
    pub fn absorb(&mut self, other: &HeavyHitters) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        self.fold_cols_to(other.cols_log2);
        self.truncate_rows_to(other.rows);
        if (other.rows, other.cols_log2) == (self.rows, self.cols_log2) {
            self.add_aligned(other);
        } else {
            let mut theirs = other.clone();
            theirs.fold_cols_to(self.cols_log2);
            theirs.truncate_rows_to(self.rows);
            self.add_aligned(&theirs);
        }
    }

    /// The exact sum of two sketches of one shape.
    fn add_aligned(&mut self, other: &HeavyHitters) {
        for (mine, add) in self.counts.iter_mut().zip(&other.counts) {
            *mine += add;
        }
        self.total += other.total;
        self.decremented += other.decremented;
        self.capacity = self.capacity.min(other.capacity);
        for &(key, n) in &other.candidates {
            match self.candidates.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.candidates[i].1 += n,
                Err(i) => self.candidates.insert(i, (key, n)),
            }
        }
    }

    pub(crate) fn shape(&self) -> (u8, u8, u16, u64, u64) {
        (
            self.rows,
            self.cols_log2,
            self.capacity,
            self.total,
            self.decremented,
        )
    }

    /// Non-zero `(cell index, count)` pairs ascending, plus the
    /// candidate list (already key-sorted) — the codec form.
    pub(crate) fn sparse(&self) -> (SparsePairs, SparsePairs) {
        let cells = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i as u64, n))
            .collect();
        (cells, self.candidates.clone())
    }

    /// Rebuilds from the sparse form; rejects malformed shapes, unsorted
    /// or out-of-range entries, and candidate lists over capacity.
    pub(crate) fn from_sparse(
        rows: u8,
        cols_log2: u8,
        capacity: u16,
        total: u64,
        decremented: u64,
        cells: &[(u64, u64)],
        candidates: &[(u64, u64)],
    ) -> Option<HeavyHitters> {
        let mut s = HeavyHitters::new(rows, cols_log2, capacity);
        if s.shape() != (rows, cols_log2, capacity, 0, 0) {
            return None;
        }
        let mut prev: Option<u64> = None;
        for &(idx, n) in cells {
            if idx >= s.counts.len() as u64 || n == 0 || prev.is_some_and(|p| idx <= p) {
                return None;
            }
            s.counts[idx as usize] = n;
            prev = Some(idx);
        }
        if candidates.len() > capacity as usize {
            return None;
        }
        let mut prev_key: Option<u64> = None;
        for &(key, n) in candidates {
            if n == 0 || prev_key.is_some_and(|p| key <= p) {
                return None;
            }
            prev_key = Some(key);
        }
        s.candidates = candidates.to_vec();
        s.total = total;
        s.decremented = decremented;
        Some(s)
    }
}

impl fmt::Debug for HeavyHitters {
    /// Compact: shape, candidates, and only the non-zero count-min cells.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cells, _) = self.sparse();
        f.debug_struct("HeavyHitters")
            .field("rows", &self.rows)
            .field("cols_log2", &self.cols_log2)
            .field("capacity", &self.capacity)
            .field("total", &self.total)
            .field("decremented", &self.decremented)
            .field("candidates", &self.candidates)
            .field("cells", &cells)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_within_capacity() {
        let mut h = HeavyHitters::new(4, 10, 32);
        for i in 0..20u64 {
            h.insert(i, i + 1);
        }
        assert_eq!(h.error_bound(), 0, "no overflow, counters exact");
        let top = h.top(3);
        assert_eq!(top, vec![(19, 20), (18, 19), (17, 18)]);
        assert!(h.estimate(19) >= 20, "count-min is an upper bound");
    }

    #[test]
    fn merge_equals_bulk_within_capacity() {
        let mut bulk = HeavyHitters::new(4, 10, 32);
        let mut parts: Vec<HeavyHitters> = (0..7).map(|_| HeavyHitters::new(4, 10, 32)).collect();
        for i in 0..5000u64 {
            let key = i % 24;
            bulk.insert(key, 1 + i % 3);
            parts[(i % 7) as usize].insert(key, 1 + i % 3);
        }
        let mut merged = HeavyHitters::new(4, 10, 32);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, bulk);
    }

    #[test]
    fn merge_is_commutative_and_identity_safe() {
        let mut a = HeavyHitters::new(4, 10, 32);
        let mut b = HeavyHitters::new(4, 10, 32);
        for i in 0..100u64 {
            a.insert(i % 11, i);
            b.insert(i % 13, i * 2);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut id = a.clone();
        id.merge(&HeavyHitters::new(1, 4, 1));
        assert_eq!(id, a, "empty sketch must not coarsen the target");
    }

    #[test]
    fn absorb_then_shrink_is_order_free_where_merge_is_not() {
        // Three blocks over 12 keys at capacity 4: every pairwise merge
        // overflows, so the per-merge shrink sees different lists.
        let blocks: Vec<HeavyHitters> = (0..3u64)
            .map(|b| {
                let mut h = HeavyHitters::new(4, 10, 4);
                for k in 0..4u64 {
                    h.insert(4 * b + k, 1 + (b + k) % 4);
                }
                h
            })
            .collect();
        let fold = |order: [usize; 3], absorb: bool| {
            let mut acc = HeavyHitters::new(4, 10, 4);
            for i in order {
                if absorb {
                    acc.absorb(&blocks[i]);
                } else {
                    acc.merge(&blocks[i]);
                }
            }
            acc.shrink();
            acc
        };
        assert_ne!(fold([0, 1, 2], false), fold([2, 1, 0], false));
        let (a, b) = (fold([0, 1, 2], true), fold([2, 1, 0], true));
        assert_eq!(a, b);
        assert!(a.error_bound() <= a.count() / 5);
        assert!(a.candidates.len() <= 4);
    }

    #[test]
    fn column_fold_matches_coarse_build() {
        let mut fine = HeavyHitters::new(4, 12, 32);
        let mut coarse = HeavyHitters::new(4, 8, 32);
        for i in 0..3000u64 {
            fine.insert(i % 50, 1);
            coarse.insert(i % 50, 1);
        }
        fine.fold_cols_to(8);
        assert_eq!(fine, coarse);
    }

    #[test]
    fn misra_gries_bound_is_certified() {
        // Tiny capacity, huge keyspace: overflow on nearly every insert.
        let mut h = HeavyHitters::new(4, 10, 4);
        let heavy = 99_999u64;
        for i in 0..2000u64 {
            h.insert(i, 1);
            if i % 3 == 0 {
                h.insert(heavy, 2);
            }
        }
        let n = h.count();
        let cap = 4u64;
        assert!(
            h.error_bound() <= n / (cap + 1),
            "decrement {} must stay under n/(M+1) = {}",
            h.error_bound(),
            n / (cap + 1)
        );
        // The heavy key (true count 1334) is far above the bound, so it
        // must be present with a counter within the bound of truth.
        let truth = 2 * 2000u64.div_ceil(3);
        let found = h
            .top(cap as usize)
            .into_iter()
            .find(|&(k, _)| k == heavy)
            .expect("heavy key must survive");
        assert!(found.1 <= truth);
        assert!(truth - found.1 <= h.error_bound());
    }
}
