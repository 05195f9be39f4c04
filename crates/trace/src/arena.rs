//! Prefix-sharing chain arenas: persistent, append-only sequences stored
//! as parent-pointer nodes.
//!
//! The Section 3.3 enumeration tree shares prefixes massively — every node
//! `u·e` repeats all of `u`. Storing each node's trace as a fresh `Vec`
//! makes one-step extension O(|u|) and the whole search O(depth) per node
//! in copying alone. A [`ChainArena`] instead stores each element once, as
//! a node pointing at its predecessor, so that:
//!
//! * extending a chain by one element is **O(1)** (one arena push);
//! * every prefix of every chain is itself a chain (ids are stable), so
//!   two chains sharing a node share everything before it — equality and
//!   prefix tests walk only the part where they differ;
//! * each node carries a *jump pointer* (the skip tree of Myers' applicative
//!   lists), giving **O(log n)** access to the ancestor at any depth.
//!
//! The arena is used both for event chains (the enumeration tree itself)
//! and for value chains (the incrementally evaluated outputs of a
//! description's sequence functions).

/// Id of a chain (equivalently: of its last node) inside a [`ChainArena`].
///
/// `ChainId::EMPTY` denotes the empty chain and belongs to every arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainId(u32);

impl ChainId {
    /// The empty chain `⟨⟩` (root of every chain in every arena).
    pub const EMPTY: ChainId = ChainId(u32::MAX);

    fn index(self) -> Option<usize> {
        (self != ChainId::EMPTY).then_some(self.0 as usize)
    }
}

#[derive(Debug, Clone)]
struct Node<T> {
    item: T,
    parent: ChainId,
    /// Jump pointer: ancestor reached by skipping `len - jump_len` nodes,
    /// following Myers' skip-list scheme (`jump` of the parent's jump when
    /// the two skip lengths match, else the parent itself).
    jump: ChainId,
    len: u32,
}

/// An arena of persistent append-only chains over `T`.
///
/// # Example
///
/// ```
/// use eqp_trace::arena::{ChainArena, ChainId};
///
/// let mut a: ChainArena<char> = ChainArena::new();
/// let x = a.push(ChainId::EMPTY, 'x');
/// let xy = a.push(x, 'y');
/// let xz = a.push(x, 'z'); // shares the 'x' node with xy
/// assert_eq!(a.items(xy), vec!['x', 'y']);
/// assert_eq!(a.items(xz), vec!['x', 'z']);
/// assert!(a.is_prefix(x, xy));
/// assert!(!a.is_prefix(xy, xz));
/// ```
#[derive(Debug, Clone)]
pub struct ChainArena<T> {
    nodes: Vec<Node<T>>,
}

impl<T> Default for ChainArena<T> {
    fn default() -> Self {
        ChainArena { nodes: Vec::new() }
    }
}

impl<T: Clone + Eq> ChainArena<T> {
    /// An empty arena.
    pub fn new() -> ChainArena<T> {
        ChainArena::default()
    }

    /// Number of stored nodes (shared prefixes count once).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no node has been pushed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Length of chain `id`.
    pub fn chain_len(&self, id: ChainId) -> usize {
        id.index().map_or(0, |i| self.nodes[i].len as usize)
    }

    /// The last item of chain `id` (`None` for the empty chain).
    pub fn last(&self, id: ChainId) -> Option<&T> {
        id.index().map(|i| &self.nodes[i].item)
    }

    /// The parent chain (chain without its last item).
    pub fn parent(&self, id: ChainId) -> ChainId {
        id.index().map_or(ChainId::EMPTY, |i| self.nodes[i].parent)
    }

    /// Extends chain `id` by `item` — O(1).
    pub fn push(&mut self, id: ChainId, item: T) -> ChainId {
        let len = self.chain_len(id) as u32 + 1;
        // Myers jump pointer: if parent and its jump span equal lengths,
        // jump twice as far; otherwise jump to the parent.
        let jump = match id.index() {
            None => ChainId::EMPTY,
            Some(p) => {
                let pj = self.nodes[p].jump;
                let plen = self.nodes[p].len;
                let pjlen = self.chain_len(pj) as u32;
                let pjjlen = self.chain_len(self.jump_of(pj)) as u32;
                if plen.wrapping_sub(pjlen) == pjlen.wrapping_sub(pjjlen) {
                    self.jump_of(pj)
                } else {
                    id
                }
            }
        };
        let node = Node {
            item,
            parent: id,
            jump,
            len,
        };
        self.nodes.push(node);
        ChainId((self.nodes.len() - 1) as u32)
    }

    fn jump_of(&self, id: ChainId) -> ChainId {
        id.index().map_or(ChainId::EMPTY, |i| self.nodes[i].jump)
    }

    /// The prefix of chain `id` with length `depth` — O(log n) via jump
    /// pointers.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the chain length.
    pub fn ancestor_at(&self, mut id: ChainId, depth: usize) -> ChainId {
        let mut len = self.chain_len(id);
        assert!(depth <= len, "ancestor_at: depth {depth} > len {len}");
        while len > depth {
            let j = self.jump_of(id);
            let jlen = self.chain_len(j);
            if jlen >= depth {
                id = j;
                len = jlen;
            } else {
                id = self.parent(id);
                len -= 1;
            }
        }
        id
    }

    /// The item at position `i` (0-based) of chain `id`.
    pub fn get(&self, id: ChainId, i: usize) -> Option<&T> {
        if i >= self.chain_len(id) {
            return None;
        }
        self.last(self.ancestor_at(id, i + 1))
    }

    /// Materializes the chain front-to-back.
    pub fn items(&self, id: ChainId) -> Vec<T> {
        let mut out = Vec::with_capacity(self.chain_len(id));
        let mut cur = id;
        while let Some(i) = cur.index() {
            out.push(self.nodes[i].item.clone());
            cur = self.nodes[i].parent;
        }
        out.reverse();
        out
    }

    /// Exact equality of two chains' contents — O(shared suffix) thanks to
    /// id stability: chains are equal iff they converge to the same nodes.
    pub fn chains_eq(&self, a: ChainId, b: ChainId) -> bool {
        if self.chain_len(a) != self.chain_len(b) {
            return false;
        }
        let (mut x, mut y) = (a, b);
        while x != y {
            match (x.index(), y.index()) {
                (Some(i), Some(j)) => {
                    if self.nodes[i].item != self.nodes[j].item {
                        return false;
                    }
                    x = self.nodes[i].parent;
                    y = self.nodes[j].parent;
                }
                _ => return false, // unequal lengths handled above
            }
        }
        true
    }

    /// Is chain `a` a prefix of chain `b`? Exact: compares `b`'s
    /// ancestor at `a`'s length with `a` by [`ChainArena::chains_eq`].
    pub fn is_prefix(&self, a: ChainId, b: ChainId) -> bool {
        let la = self.chain_len(a);
        la <= self.chain_len(b) && self.chains_eq(self.ancestor_at(b, la), a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chain_properties() {
        let a: ChainArena<u32> = ChainArena::new();
        assert_eq!(a.chain_len(ChainId::EMPTY), 0);
        assert_eq!(a.items(ChainId::EMPTY), Vec::<u32>::new());
        assert!(a.is_prefix(ChainId::EMPTY, ChainId::EMPTY));
        assert!(a.chains_eq(ChainId::EMPTY, ChainId::EMPTY));
        assert_eq!(a.parent(ChainId::EMPTY), ChainId::EMPTY);
        assert!(a.last(ChainId::EMPTY).is_none());
    }

    #[test]
    fn push_shares_prefixes() {
        let mut a = ChainArena::new();
        let x = a.push(ChainId::EMPTY, 1u32);
        let xy = a.push(x, 2);
        let xz = a.push(x, 3);
        assert_eq!(a.len(), 3); // 1, 2, 3 each stored once
        assert_eq!(a.items(xy), vec![1, 2]);
        assert_eq!(a.items(xz), vec![1, 3]);
        assert_eq!(a.chain_len(xy), 2);
        assert_eq!(a.get(xy, 0), Some(&1));
        assert_eq!(a.get(xy, 1), Some(&2));
        assert_eq!(a.get(xy, 2), None);
    }

    #[test]
    fn hashes_are_content_determined() {
        // Equality is by content, not by node identity.
        let mut a = ChainArena::new();
        let p1 = a.push(ChainId::EMPTY, 7u64);
        let c1 = a.push(p1, 8);
        // A second, structurally separate chain with the same content:
        let p2 = a.push(ChainId::EMPTY, 7);
        let c2 = a.push(p2, 8);
        assert_ne!(c1, c2);
        assert!(a.chains_eq(c1, c2));
        assert!(a.is_prefix(p2, c1) && a.is_prefix(c1, c2));
        let d = a.push(p2, 9);
        assert!(!a.chains_eq(c1, d));
        assert!(!a.is_prefix(c1, d));
    }

    #[test]
    fn ancestor_at_is_logarithmic_walk_correct() {
        let mut a = ChainArena::new();
        let mut id = ChainId::EMPTY;
        let mut ids = vec![id];
        for i in 0..1000u32 {
            id = a.push(id, i);
            ids.push(id);
        }
        for depth in [0usize, 1, 2, 3, 17, 500, 999, 1000] {
            assert_eq!(a.ancestor_at(id, depth), ids[depth], "depth {depth}");
        }
    }

    #[test]
    fn prefix_tests() {
        let mut a = ChainArena::new();
        let mut long = ChainId::EMPTY;
        for i in 0..50u32 {
            long = a.push(long, i);
        }
        let mid = a.ancestor_at(long, 20);
        assert!(a.is_prefix(mid, long));
        assert!(a.is_prefix(ChainId::EMPTY, long));
        assert!(!a.is_prefix(long, mid));
        // same length, different content
        let other = a.push(a.ancestor_at(long, 19), 99);
        assert_eq!(a.chain_len(other), 20);
        assert!(!a.is_prefix(other, long));
    }

    #[test]
    fn prefix_test_is_exact_across_separate_chains() {
        // Same-content chains built apart share no node past the root, so
        // the prefix test must compare items, not ids.
        let mut a = ChainArena::new();
        let base = a.push(ChainId::EMPTY, 'a');
        let b = a.push(base, 'b');
        let c = a.push(b, 'c');
        let other = a.push(ChainId::EMPTY, 'a');
        let other_b = a.push(other, 'b');
        assert!(a.is_prefix(other_b, c));
        assert!(a.is_prefix(other, c));
        let other_x = a.push(other, 'x');
        assert!(!a.is_prefix(other_x, c));
        assert!(!a.is_prefix(c, other_b));
    }
}
