//! Mergeable telemetry sketches for fleet-scale run reports.
//!
//! The workspace's central discipline is algebraic: traces compose by
//! laws, and resumed runs must agree with uninterrupted ones byte for
//! byte. This crate extends that discipline to *telemetry*. A
//! fleet-level roll-up of per-run summaries is only trustworthy if the
//! summary type forms a commutative monoid —
//! merging worker-local, per-segment, or per-session sketches in any
//! order (and any grouping) must yield the same answer as observing the
//! union stream directly.
//!
//! Three sketch families, each with a fixed, configurable memory
//! footprint and a `merge` that is associative and commutative with the
//! empty sketch as identity:
//!
//! * [`QuantileSketch`] — a log-bucketed histogram (UDDSketch-style)
//!   whose bucket index is `(exponent << k) | top-k-mantissa-bits`.
//!   Collapsing one mantissa bit is exactly `idx >> 1`, so merging
//!   sketches at different precisions folds to the coarser one and the
//!   merge is *exactly* associative — unlike t-digest, whose centroid
//!   clustering depends on merge order. Inserting is a singleton merge,
//!   so merge-equals-bulk holds exactly, not just within a bound.
//!   Values are `u64` (queue depths, latencies in scheduler rounds);
//!   relative value error is at most `2^-k` at the bucket midpoint.
//! * [`HeavyHitters`] — a count-min sketch (elementwise-add merge, an
//!   exact monoid) paired with a bounded candidate list for top-k
//!   reporting. The candidate layer prunes deterministically and is
//!   associative at the ε-heavy-hitter guarantee level: every key whose
//!   true count exceeds `εn` survives any merge order with the same
//!   estimate.
//! * [`Hll`] — hyperloglog over 64-bit hashes; merge is elementwise
//!   register max (exact monoid), and registers at precision `p` fold
//!   exactly to any `p' < p`, so mixed-precision merges stay lossless
//!   relative to the coarser sketch.
//!
//! [`TelemetrySketches`] bundles one of each (plus a second quantile
//! sketch, one for queue depth and one for message latency) behind a
//! versioned, checksummed byte [`codec`] so summaries can ride
//! checkpoints, journals, and RPC responses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod hh;
pub mod hll;
pub mod quantile;

pub use codec::SketchCodecError;
pub use hh::HeavyHitters;
pub use hll::Hll;
pub use quantile::QuantileSketch;

use std::fmt;

/// SplitMix64: the workspace's standard cheap 64-bit mixer. Used to
/// derive count-min row seeds and to hash message values into the
/// distinct-value HLL.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Memory/accuracy knobs for a [`TelemetrySketches`] block. Every field
/// is clamped into its supported range by the constructors, so a config
/// decoded from untrusted bytes can never provoke an absurd allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// Quantile-sketch mantissa bits `k`: relative value error `≤ 2^-k`,
    /// memory `64·2^k` counters. Clamped to `1..=12`.
    pub quantile_bits: u8,
    /// HLL precision `p`: `2^p` registers, relative cardinality error
    /// `≈ 1.04/√2^p`. Clamped to `4..=16`.
    pub hll_bits: u8,
    /// Count-min rows `d` (failure probability `e^-d`). Clamped to `1..=8`.
    pub cm_rows: u8,
    /// Count-min columns as a power of two (`ε ≈ e/2^w`). Clamped to `4..=16`.
    pub cm_cols_log2: u8,
    /// Heavy-hitter candidate-list capacity `M` (reports keys above
    /// roughly `n/M`). Clamped to `1..=1024`.
    pub hh_capacity: u16,
    /// Distinct-value sampling exponent `s`: the capture layer feeds the
    /// HLL a deterministic 1-in-`2^s` hash partition of the value
    /// stream, and [`TelemetrySketches::stats`] scales the estimate back
    /// by `2^s`. Sampling a hash partition is unbiased; it widens the
    /// relative error by roughly `√(2^s/D)` for `D` true distinct values
    /// (negligible once `D ≫ 2^s`). `0` means every value is fed.
    /// Clamped to `0..=16`.
    pub value_sample_log2: u8,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            quantile_bits: 6,     // ≤1.6% relative value error, 32 KiB/sketch
            hll_bits: 10,         // ≈3.2% relative cardinality error, 1 KiB
            cm_rows: 4,           // e^-4 ≈ 1.8% failure probability
            cm_cols_log2: 10,     // ε ≈ e/1024, 32 KiB
            hh_capacity: 32,      // far above any zoo network's channel count
            value_sample_log2: 0, // unsampled unless the capturer opts in
        }
    }
}

/// The mergeable telemetry block threaded through `RunReport`: queue
/// depth and message latency quantiles, heavy-hitter channel traffic,
/// and distinct-value cardinality. Merging two blocks (any order, any
/// grouping) summarises the union of their observation streams.
#[derive(Clone, PartialEq)]
pub struct TelemetrySketches {
    /// Queue depth observed after each send (including preloads).
    pub queue_depth: QuantileSketch,
    /// Rounds each consumed message waited between send and receive.
    pub latency: QuantileSketch,
    /// Sends per channel (key = channel index).
    pub channel_traffic: HeavyHitters,
    /// Distinct sent message values, via a 64-bit value hash. When
    /// `value_sample_log2 > 0` the stream fed here is a deterministic
    /// 1-in-`2^value_sample_log2` hash partition of the full value
    /// stream; [`stats`](TelemetrySketches::stats) scales the estimate
    /// back up.
    pub distinct_values: Hll,
    /// The sampling exponent the capture layer used for
    /// `distinct_values` (see [`SketchConfig::value_sample_log2`]).
    pub value_sample_log2: u8,
}

impl TelemetrySketches {
    /// A fresh, empty block with the given footprint.
    pub fn new(cfg: SketchConfig) -> Self {
        TelemetrySketches {
            queue_depth: QuantileSketch::new(cfg.quantile_bits),
            latency: QuantileSketch::new(cfg.quantile_bits),
            channel_traffic: HeavyHitters::new(cfg.cm_rows, cfg.cm_cols_log2, cfg.hh_capacity),
            distinct_values: Hll::new(cfg.hll_bits),
            value_sample_log2: cfg.value_sample_log2.min(16),
        }
    }

    /// True iff no observation has ever been recorded (the merge identity).
    pub fn is_empty(&self) -> bool {
        self.queue_depth.is_empty()
            && self.latency.is_empty()
            && self.channel_traffic.is_empty()
            && self.distinct_values.is_empty()
    }

    /// Folds `other` in. Associative and commutative; merging with an
    /// empty block is the identity.
    pub fn merge(&mut self, other: &TelemetrySketches) {
        self.queue_depth.merge(&other.queue_depth);
        self.latency.merge(&other.latency);
        self.channel_traffic.merge(&other.channel_traffic);
        // Blocks captured at one sampling exponent merge exactly; a
        // mixed-exponent merge (never produced by one fleet, whose
        // capture policy is a constant) aligns best-effort to the
        // coarser stream, mirroring the per-sketch precision folds.
        if !other.distinct_values.is_empty() {
            self.value_sample_log2 = if self.distinct_values.is_empty() {
                other.value_sample_log2
            } else {
                self.value_sample_log2.max(other.value_sample_log2)
            };
        }
        self.distinct_values.merge(&other.distinct_values);
    }

    /// Serialises to the versioned, checksummed byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Parses the byte format back. Total: any input yields a block or a
    /// typed error, never a panic or an attacker-sized allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<TelemetrySketches, SketchCodecError> {
        codec::decode(bytes)
    }

    /// The headline summary used by `Display` impls and the fleet RPC.
    pub fn stats(&self) -> SketchStats {
        let scale = (1u64 << self.value_sample_log2.min(16)) as f64;
        SketchStats {
            events: self.channel_traffic.count(),
            depth_p50: self.queue_depth.quantile(0.50),
            depth_p99: self.queue_depth.quantile(0.99),
            latency_p50: self.latency.quantile(0.50),
            latency_p99: self.latency.quantile(0.99),
            top_channels: self.channel_traffic.top(3),
            distinct_values: (self.distinct_values.estimate() * scale).round() as u64,
        }
    }
}

impl Default for TelemetrySketches {
    fn default() -> Self {
        TelemetrySketches::new(SketchConfig::default())
    }
}

impl fmt::Debug for TelemetrySketches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetrySketches")
            .field("queue_depth", &self.queue_depth)
            .field("latency", &self.latency)
            .field("channel_traffic", &self.channel_traffic)
            .field("distinct_values", &self.distinct_values)
            .field("value_sample_log2", &self.value_sample_log2)
            .finish()
    }
}

/// A decoded headline summary of one [`TelemetrySketches`] block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchStats {
    /// Total send observations (exact — the heavy-hitter total, which
    /// the capture layer feeds from its exact per-channel send meters).
    pub events: u64,
    /// Median queue depth after a send.
    pub depth_p50: u64,
    /// 99th-percentile queue depth after a send.
    pub depth_p99: u64,
    /// Median rounds a consumed message waited.
    pub latency_p50: u64,
    /// 99th-percentile rounds a consumed message waited.
    pub latency_p99: u64,
    /// Busiest channels as `(channel index, observed sends)`, busiest first.
    pub top_channels: Vec<(u64, u64)>,
    /// Estimated distinct sent values.
    pub distinct_values: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_merge_and_stats() {
        let mut a = TelemetrySketches::default();
        let mut b = TelemetrySketches::default();
        assert!(a.is_empty());
        for i in 0..100u64 {
            a.queue_depth.insert(i % 7);
            a.latency.insert(i % 3);
            a.channel_traffic.insert(i % 5, 1);
            a.distinct_values.insert(splitmix64(i));
        }
        for i in 100..200u64 {
            b.queue_depth.insert(i % 7);
            b.latency.insert(i % 3);
            b.channel_traffic.insert(i % 5, 1);
            b.distinct_values.insert(splitmix64(i));
        }
        let mut bulk = TelemetrySketches::default();
        for i in 0..200u64 {
            bulk.queue_depth.insert(i % 7);
            bulk.latency.insert(i % 3);
            bulk.channel_traffic.insert(i % 5, 1);
            bulk.distinct_values.insert(splitmix64(i));
        }
        a.merge(&b);
        assert_eq!(a, bulk, "merge must equal the bulk build exactly");
        let st = a.stats();
        assert_eq!(st.events, 200);
        assert_eq!(st.top_channels.len(), 3);
        assert!(st.distinct_values > 0);
    }

    #[test]
    fn empty_is_identity() {
        let mut a = TelemetrySketches::default();
        for i in 0..50u64 {
            a.queue_depth.insert(i);
            a.latency.insert(i);
            a.channel_traffic.insert(i, 2);
            a.distinct_values.insert(splitmix64(i));
        }
        let before = a.clone();
        a.merge(&TelemetrySketches::default());
        assert_eq!(a, before);
        let mut e = TelemetrySketches::default();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn config_clamps_hostile_extremes() {
        let cfg = SketchConfig {
            quantile_bits: 200,
            hll_bits: 0,
            cm_rows: 0,
            cm_cols_log2: 250,
            hh_capacity: u16::MAX,
            value_sample_log2: 200,
        };
        // Must not allocate absurdly or panic.
        let s = TelemetrySketches::new(cfg);
        assert!(s.is_empty());
    }
}
