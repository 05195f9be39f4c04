//! Property suite for the sketch algebra: merge associativity,
//! commutativity, identity, merge-equals-bulk, and error bounds at
//! adversarial distributions.
//!
//! These are the laws the fleet roll-up leans on: per-segment sketches
//! rolled up across resumes and per-session summaries merged by the
//! `fleet_report` RPC must all equal the sketch of the union stream —
//! independent of partition, order, and grouping.

use eqp_sketch::{splitmix64, HeavyHitters, Hll, QuantileSketch, SketchConfig, TelemetrySketches};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministically expands a compact seed spec into a value stream:
/// mixes uniform, zipf-ish, and constant runs so the suites see both
/// spread-out and adversarially concentrated distributions.
fn stream(seed: u64, len: usize, skew: u8) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            let h = splitmix64(seed ^ splitmix64(i));
            match skew % 3 {
                0 => h % 1_000_000,                                 // wide uniform
                1 => (h % 16).pow(5),                               // heavy-tailed
                _ => [0, 1, 1, 7, 7, 7, 1 << 40][(h % 7) as usize], // spiky
            }
        })
        .collect()
}

fn build_q(bits: u8, vals: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new(bits);
    for &v in vals {
        s.insert(v);
    }
    s
}

fn build_full(vals: &[u64]) -> TelemetrySketches {
    let mut s = TelemetrySketches::default();
    for &v in vals {
        s.queue_depth.insert(v % 4096);
        s.latency.insert(v % 64);
        s.channel_traffic.insert(v % 24, 1);
        s.distinct_values.insert(splitmix64(v));
    }
    s
}

proptest! {
    /// Quantile merge is an exact monoid, even at mixed precisions.
    #[test]
    fn quantile_monoid_laws(seed in 0u64..500, skew in 0u8..3,
                            ka in 4u8..10, kb in 4u8..10, kc in 4u8..10) {
        let a = build_q(ka, &stream(seed, 300, skew));
        let b = build_q(kb, &stream(seed + 1, 200, skew));
        let c = build_q(kc, &stream(seed + 2, 100, skew));
        // associativity
        let mut left = a.clone(); left.merge(&b); left.merge(&c);
        let mut bc = b.clone(); bc.merge(&c);
        let mut right = a.clone(); right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // commutativity
        let mut ab = a.clone(); ab.merge(&b);
        let mut ba = b.clone(); ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // identity at any precision
        let mut id = a.clone(); id.merge(&QuantileSketch::new(1));
        prop_assert_eq!(&id, &a);
        let mut from_empty = QuantileSketch::new(12); from_empty.merge(&a);
        prop_assert_eq!(&from_empty, &a);
    }

    /// Partitioned build ≡ single-stream build, exactly: split the
    /// stream into `shards` round-robin substreams, merge in order,
    /// compare to the bulk sketch.
    #[test]
    fn quantile_merge_equals_bulk(seed in 0u64..500, skew in 0u8..3, shards in 1usize..9) {
        let vals = stream(seed, 600, skew);
        let bulk = build_q(6, &vals);
        let mut parts: Vec<QuantileSketch> = (0..shards).map(|_| QuantileSketch::new(6)).collect();
        for (i, &v) in vals.iter().enumerate() {
            parts[i % shards].insert(v);
        }
        let mut merged = QuantileSketch::new(6);
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &bulk);
    }

    /// Quantile relative value error stays within twice the advertised
    /// bound (midpoint reporting), across adversarial distributions.
    #[test]
    fn quantile_error_bound(seed in 0u64..300, skew in 0u8..3, bits in 4u8..10) {
        let vals = stream(seed, 500, skew);
        let s = build_q(bits, &vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = (q * (sorted.len() - 1) as f64).round() as usize;
            let truth = sorted[rank];
            let est = s.quantile(q);
            if truth == 0 {
                prop_assert_eq!(est, 0, "q={}", q);
            } else {
                let rel = (est as f64 - truth as f64).abs() / truth as f64;
                prop_assert!(rel <= 2.0 * s.relative_error_bound(),
                    "q={}: est {} true {} rel {}", q, est, truth, rel);
            }
        }
    }

    /// HLL merge is an exact monoid (mixed precisions included) and the
    /// estimate lands within 5σ of the true cardinality.
    #[test]
    fn hll_monoid_and_error(seed in 0u64..300, pa in 8u8..13, pb in 8u8..13, pc in 8u8..13) {
        let mut a = Hll::new(pa);
        let mut b = Hll::new(pb);
        let mut c = Hll::new(pc);
        let n = 4000u64;
        let mut bulk = Hll::new(pa.min(pb).min(pc));
        for i in 0..n {
            let h = splitmix64(seed * 1_000_003 + i);
            match i % 3 {
                0 => a.insert(h),
                1 => b.insert(h),
                _ => c.insert(h),
            }
            bulk.insert(h);
        }
        let mut left = a.clone(); left.merge(&b); left.merge(&c);
        let mut bc = b.clone(); bc.merge(&c);
        let mut right = a.clone(); right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &bulk, "merged must equal the coarse bulk build");
        let est = left.estimate();
        let sigma = 1.04 / ((1u64 << left.bits()) as f64).sqrt();
        let rel = (est - n as f64).abs() / n as f64;
        prop_assert!(rel < 5.0 * sigma, "estimate {} for n={} rel {}", est, n, rel);
    }

    /// Heavy hitters under adversarial overflow: the Misra–Gries layer
    /// certifies its own error bound (`≤ n/(M+1)`) under every merge
    /// order; every key above the bound is reported with a counter
    /// within the bound of its true count; and the count-min estimate
    /// stays an upper bound whose overshoot respects ε·n for all but a
    /// small (probabilistic, `e^-d`-style) fraction of keys.
    #[test]
    fn heavy_hitter_guarantee_under_merge_orders(seed in 0u64..300, shards in 1usize..6) {
        let keys: Vec<u64> = stream(seed, 800, 1).iter().map(|v| v % 64).collect();
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &keys {
            *truth.entry(k).or_insert(0) += 1;
        }
        // Small capacity (8) forces MG overflow; small width (2^6)
        // forces count-min collisions.
        let mk = || HeavyHitters::new(4, 6, 8);
        let mut parts: Vec<HeavyHitters> = (0..shards).map(|_| mk()).collect();
        for (i, &k) in keys.iter().enumerate() {
            parts[i % shards].insert(k, 1);
        }
        let mut fwd = mk();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = mk();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        let n = keys.len() as u64;
        for h in [&fwd, &rev] {
            prop_assert_eq!(h.count(), n);
            prop_assert!(h.error_bound() <= n / (8 + 1),
                "certified bound {} exceeds n/(M+1) = {}", h.error_bound(), n / 9);
        }
        let eps_n = (fwd.epsilon() * n as f64).ceil() as u64;
        let mut cm_overshoots = 0usize;
        for (&k, &cnt) in &truth {
            // Count-min upper bound always holds, any merge order.
            prop_assert!(fwd.estimate(k) >= cnt);
            prop_assert!(rev.estimate(k) >= cnt);
            if fwd.estimate(k) - cnt > eps_n {
                cm_overshoots += 1;
            }
            for h in [&fwd, &rev] {
                if cnt > h.error_bound() {
                    let (_, counter) = h
                        .top(8)
                        .into_iter()
                        .find(|&(key, _)| key == k)
                        .unwrap_or_else(|| panic!("key {k} (count {cnt}) above the certified \
                                                   bound {} must be reported", h.error_bound()));
                    prop_assert!(counter <= cnt, "MG counters are lower bounds");
                    prop_assert!(cnt - counter <= h.error_bound());
                }
            }
        }
        // The ε bound is probabilistic per key (failure ≈ e^-d per row
        // independence assumption); with deterministic seeds allow a
        // small violating fraction rather than none.
        prop_assert!(cm_overshoots * 10 <= truth.len(),
            "{} of {} keys overshoot eps*n", cm_overshoots, truth.len());
    }

    /// Past the candidate capacity, a rollup that absorbs every block
    /// and shrinks once is order-free: two random orders give the same
    /// bytes, the certified bound holds, and every key above it stays a
    /// candidate.
    #[test]
    fn absorb_then_shrink_is_order_free_past_capacity(seed in 0u64..300, blocks in 2usize..9,
                                                      union in 40u64..120,
                                                      order_a in any::<u64>(),
                                                      order_b in any::<u64>()) {
        let cfg = SketchConfig::default();
        let cap = u64::from(cfg.hh_capacity);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        let n_blocks = blocks as u64;
        let parts: Vec<TelemetrySketches> = (0..n_blocks)
            .map(|b| {
                let mut s = TelemetrySketches::new(cfg);
                let mut send = |s: &mut TelemetrySketches, key: u64, inc: u64| {
                    s.channel_traffic.insert(key, inc);
                    *truth.entry(key).or_insert(0) += inc;
                };
                // each block owns a slice of the `union` keys, so the
                // blocks together overflow the candidate list
                for key in b * union / n_blocks..(b + 1) * union / n_blocks {
                    send(&mut s, key, 1);
                }
                // then traffic where keys 0..3 dominate
                for v in stream(seed ^ splitmix64(b), 300, 0) {
                    let key = if v % 4 == 0 { v % 3 } else { v % union };
                    send(&mut s, key, 1 + v % 3);
                    s.queue_depth.insert(v % 4096);
                    s.distinct_values.insert(splitmix64(v));
                }
                s
            })
            .collect();
        prop_assert!(truth.len() as u64 > cap);
        let rollup = |order: u64| {
            let mut idx: Vec<usize> = (0..parts.len()).collect();
            idx.sort_by_key(|&i| splitmix64(order ^ i as u64));
            let mut acc = TelemetrySketches::new(cfg);
            for i in idx {
                acc.absorb(&parts[i]);
            }
            acc.shrink();
            acc
        };
        let (a, b) = (rollup(order_a), rollup(order_b));
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
        let hh = &a.channel_traffic;
        let n: u64 = truth.values().sum();
        prop_assert_eq!(hh.count(), n);
        prop_assert!(hh.error_bound() <= n / (cap + 1),
            "certified bound {} exceeds n/(M+1) = {}", hh.error_bound(), n / (cap + 1));
        let candidates = hh.top(usize::MAX);
        prop_assert!(candidates.len() as u64 <= cap);
        for (&k, &cnt) in &truth {
            if cnt > hh.error_bound() {
                let (_, counter) = candidates
                    .iter()
                    .copied()
                    .find(|&(key, _)| key == k)
                    .unwrap_or_else(|| panic!("key {k} (count {cnt}) above the certified \
                                               bound {} must stay a candidate", hh.error_bound()));
                prop_assert!(counter <= cnt && cnt - counter <= hh.error_bound());
            }
        }
    }

    /// The full container: merge-equals-bulk under round-robin sharding,
    /// and the byte codec round-trips the merged result exactly.
    #[test]
    fn container_merge_equals_bulk_and_roundtrips(seed in 0u64..300, shards in 1usize..9) {
        let vals = stream(seed, 400, (seed % 3) as u8);
        let bulk = build_full(&vals);
        let mut parts: Vec<TelemetrySketches> =
            (0..shards).map(|_| TelemetrySketches::new(SketchConfig::default())).collect();
        for (i, &v) in vals.iter().enumerate() {
            let s = &mut parts[i % shards];
            s.queue_depth.insert(v % 4096);
            s.latency.insert(v % 64);
            s.channel_traffic.insert(v % 24, 1);
            s.distinct_values.insert(splitmix64(v));
        }
        let mut merged = TelemetrySketches::default();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &bulk);
        let back = TelemetrySketches::from_bytes(&merged.to_bytes()).unwrap();
        prop_assert_eq!(&back, &merged);
        prop_assert_eq!(back.stats(), bulk.stats());
    }
}

/// The capture layer's sampled-HLL contract: feed the sketch a
/// deterministic 1-in-`2^s` hash partition of the value stream and
/// `stats()` scales the estimate back to the full-stream cardinality.
/// Mirrors the engine's two-hash discipline — a cheap Fibonacci
/// multiply decides partition membership, a *separate* full hash feeds
/// the HLL (selecting and inserting the same hash would pin the top
/// `s` bits and collapse the register spread). At `s = 5` over tens of
/// thousands of distincts, the subsample adds roughly `√(2^s/D)`
/// relative error on top of the HLL's own `1.04/√2^p` — both small, so
/// the scaled estimate must land within a conservative 15% of the
/// truth.
#[test]
fn sampled_hll_scaled_estimate_tracks_true_cardinality() {
    const SAMPLE_LOG2: u8 = 5;
    for (seed, distinct) in [(11u64, 20_000u64), (97, 50_000), (1234, 120_000)] {
        let mut s = TelemetrySketches::new(SketchConfig {
            value_sample_log2: SAMPLE_LOG2,
            ..SketchConfig::default()
        });
        for i in 0..distinct {
            // each value appears several times; dedup is the HLL's job
            for _rep in 0..3 {
                let v = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let in_partition =
                    v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SAMPLE_LOG2 as u32) == 0;
                if in_partition {
                    s.distinct_values.insert(splitmix64(v));
                }
            }
        }
        let est = s.stats().distinct_values;
        let rel = (est as f64 - distinct as f64).abs() / distinct as f64;
        assert!(
            rel < 0.15,
            "seed {seed}: scaled estimate {est} vs true {distinct} (rel {rel:.3})"
        );
    }
}
