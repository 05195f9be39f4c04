//! A [`HashMap`] keyed by [`Chan`] with a trivial multiplicative hasher.
//!
//! Channel queues and channel meters are the engine's hottest data
//! structures: every step pays several `Chan → queue` and `Chan →
//! meter` lookups. `Chan` is a dense application-chosen `u32`, so
//! SipHash's DoS resistance buys nothing here and costs ~15ns per
//! lookup, and an ordered tree pays a pointer walk per lookup; a
//! Fibonacci multiply-and-fold spreads sequential ids across buckets
//! for ~1ns.
//!
//! The map stays a `std::collections::HashMap`, only the `BuildHasher`
//! changes — nothing may depend on iteration order in either case (the
//! default `RandomState` already randomizes it per map). Where order
//! is observable, [`ascending`] produces it at the boundary. For the
//! telemetry meters (`Telemetry::channels`) those boundaries are four:
//!
//! * the report's per-channel rows (`RunReport::channels`, built in the
//!   engine's report step), ordered by channel id;
//! * `Telemetry`'s `Debug`, which feeds `Checkpoint::fingerprint`;
//! * the checkpoint wire image (`wire::encode_checkpoint`);
//! * the heavy-hitter channel-traffic inserts of
//!   `Telemetry::finish_sketches`.
//!
//! The checkpoint's queue map is sorted the same way wherever it is
//! encoded or fingerprinted.

use eqp_trace::Chan;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// `HashMap<Chan, V>` with the cheap deterministic hasher. Construct
/// with `ChanMap::default()` (`HashMap::new` is `RandomState`-only).
pub(crate) type ChanMap<V> = HashMap<Chan, V, BuildChanHash>;

/// The entries of `m` in ascending channel order — the canonical order
/// of every output that can observe a [`ChanMap`]'s contents.
pub(crate) fn ascending<V>(m: &ChanMap<V>) -> Vec<(Chan, &V)> {
    let mut v: Vec<(Chan, &V)> = m.iter().map(|(c, x)| (*c, x)).collect();
    v.sort_unstable_by_key(|&(c, _)| c);
    v
}

/// [`BuildHasher`] for [`ChanHash`]; stateless, so hashes are identical
/// across maps and runs.
#[derive(Clone, Copy, Default)]
pub(crate) struct BuildChanHash;

impl BuildHasher for BuildChanHash {
    type Hasher = ChanHash;

    fn build_hasher(&self) -> ChanHash {
        ChanHash(0)
    }
}

/// Multiply-and-fold over the key's words (Fibonacci constant, golden
/// ratio of 2^64). `Chan`'s derived `Hash` emits one `write_u32`; the
/// byte-stream fallback exists only for completeness.
pub(crate) struct ChanHash(u64);

impl Hasher for ChanHash {
    fn finish(&self) -> u64 {
        // fold the high bits down: hashbrown derives the bucket index
        // from the low bits and its control tag from the high bits, so
        // both must vary with the key
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_spread_and_lookups_roundtrip() {
        let mut m: ChanMap<usize> = ChanMap::default();
        for i in 0..1000u32 {
            m.insert(Chan::new(i), i as usize);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&Chan::new(i)), Some(&(i as usize)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hash_is_deterministic_across_builders() {
        let h = |c: Chan| BuildChanHash.hash_one(c);
        assert_eq!(h(Chan::new(7)), h(Chan::new(7)));
        assert_ne!(h(Chan::new(7)), h(Chan::new(8)));
    }
}
