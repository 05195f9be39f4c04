//! Channel identifiers and channel sets.

use std::fmt;

/// A channel identifier.
///
/// The paper fixes a set *channels*; we identify channels by small integers
/// and let networks attach human-readable names where useful. `Chan` is
/// deliberately a cheap `Copy` key so traces and channel sets stay compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Chan(u32);

impl Chan {
    /// Creates the channel with index `id`.
    pub const fn new(id: u32) -> Chan {
        Chan(id)
    }

    /// The underlying index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Chan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

impl From<u32> for Chan {
    fn from(id: u32) -> Self {
        Chan(id)
    }
}

/// Largest [`ChanSet`] probed by linear scan in [`ChanSet::contains`].
const LINEAR_PROBE_MAX: usize = 16;

/// A finite set of channels — the *incident channels* of a process, or the
/// subset `L` a trace is projected on.
///
/// Backed by a sorted, deduplicated `Vec`: channel sets are usually tiny
/// (a handful of entries) and live on hot paths — event projection
/// filters and engine/monitor support tests — where a contiguous probe
/// beats a `BTreeSet`'s pointer chasing; wide sets stay O(log n) by
/// binary search. Mutation is O(n), which the construction paths (all
/// cold) happily pay.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChanSet {
    /// Sorted ascending, no duplicates.
    chans: Vec<Chan>,
}

impl ChanSet {
    /// The empty channel set.
    pub fn new() -> ChanSet {
        ChanSet::default()
    }

    /// Builds a channel set from the given channels.
    pub fn from_chans<I: IntoIterator<Item = Chan>>(chans: I) -> ChanSet {
        let mut chans: Vec<Chan> = chans.into_iter().collect();
        chans.sort_unstable();
        chans.dedup();
        ChanSet { chans }
    }

    /// Membership test: O(log n). Sets of up to 16 channels take a linear
    /// scan with early exit, which beats binary search's branch
    /// mispredictions at that size; wider sets (a 1,280-process network's
    /// description) binary-search.
    #[inline]
    pub fn contains(&self, c: Chan) -> bool {
        if self.chans.len() > LINEAR_PROBE_MAX {
            return self.chans.binary_search(&c).is_ok();
        }
        for &k in &self.chans {
            if k >= c {
                return k == c;
            }
        }
        false
    }

    /// Adds a channel; returns `true` if it was new.
    pub fn insert(&mut self, c: Chan) -> bool {
        match self.chans.binary_search(&c) {
            Ok(_) => false,
            Err(i) => {
                self.chans.insert(i, c);
                true
            }
        }
    }

    /// Removes a channel; returns `true` if it was present.
    pub fn remove(&mut self, c: Chan) -> bool {
        match self.chans.binary_search(&c) {
            Ok(i) => {
                self.chans.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of channels in the set.
    pub fn len(&self) -> usize {
        self.chans.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.chans.is_empty()
    }

    /// Iterates the channels in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = Chan> + '_ {
        self.chans.iter().copied()
    }

    /// Set union — the incident channels of a network are the union of the
    /// incident channels of its components (Section 3.1.2).
    pub fn union(&self, other: &ChanSet) -> ChanSet {
        let mut out = self.clone();
        out.extend(other.iter());
        out
    }

    /// Set difference: channels in `self` but not `other` — used by
    /// variable elimination (`c` is *channels* minus the eliminated `b`,
    /// Section 7).
    pub fn difference(&self, other: &ChanSet) -> ChanSet {
        ChanSet {
            chans: self.iter().filter(|&c| !other.contains(c)).collect(),
        }
    }

    /// True iff the two sets share no channel — the *independence* premise
    /// of Theorem 1 requires disjoint supports.
    pub fn is_disjoint(&self, other: &ChanSet) -> bool {
        self.iter().all(|c| !other.contains(c))
    }

    /// True iff every channel of `self` is in `other`.
    pub fn is_subset(&self, other: &ChanSet) -> bool {
        self.iter().all(|c| other.contains(c))
    }
}

impl FromIterator<Chan> for ChanSet {
    fn from_iter<I: IntoIterator<Item = Chan>>(iter: I) -> Self {
        ChanSet::from_chans(iter)
    }
}

impl Extend<Chan> for ChanSet {
    fn extend<I: IntoIterator<Item = Chan>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl fmt::Display for ChanSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(ids: &[u32]) -> ChanSet {
        ids.iter().map(|&i| Chan::new(i)).collect()
    }

    #[test]
    fn membership_and_len() {
        let s = cs(&[0, 2, 5]);
        assert!(s.contains(Chan::new(2)));
        assert!(!s.contains(Chan::new(1)));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(ChanSet::new().is_empty());
    }

    #[test]
    fn membership_agrees_with_btreeset_at_both_probe_sizes() {
        use std::collections::BTreeSet;
        // a small set (linear scan) and a wide one (binary search), with
        // gaps so misses fall between, below and above the members
        for n in [LINEAR_PROBE_MAX / 2, LINEAR_PROBE_MAX, 1280] {
            let members: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
            let set = cs(&members);
            let oracle: BTreeSet<u32> = members.iter().copied().collect();
            assert_eq!(set.len(), n);
            for probe in 0..=3 * n as u32 + 4 {
                assert_eq!(
                    set.contains(Chan::new(probe)),
                    oracle.contains(&probe),
                    "ch{probe} in a {n}-channel set"
                );
            }
            assert!(!set.contains(Chan::new(u32::MAX)));
        }
    }

    #[test]
    fn union_difference_disjoint() {
        let a = cs(&[0, 1]);
        let b = cs(&[1, 2]);
        assert_eq!(a.union(&b), cs(&[0, 1, 2]));
        assert_eq!(a.difference(&b), cs(&[0]));
        assert!(!a.is_disjoint(&b));
        assert!(cs(&[0]).is_disjoint(&cs(&[1])));
        assert!(cs(&[0]).is_subset(&cs(&[0, 1])));
        assert!(!cs(&[0, 2]).is_subset(&cs(&[0, 1])));
    }

    #[test]
    fn insert_remove() {
        let mut s = ChanSet::new();
        assert!(s.insert(Chan::new(3)));
        assert!(!s.insert(Chan::new(3)));
        assert!(s.remove(Chan::new(3)));
        assert!(!s.remove(Chan::new(3)));
    }

    #[test]
    fn display() {
        assert_eq!(cs(&[1, 0]).to_string(), "{ch0, ch1}");
        assert_eq!(Chan::new(7).to_string(), "ch7");
        assert_eq!(Chan::from(4u32).index(), 4);
    }
}
