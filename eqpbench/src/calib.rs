//! Host-speed normalization for the CPU-bound workloads.
//!
//! On a shared host the same code runs up to ~1.5× slower for minutes at
//! a time while neighbours load the machine, with no steal time: the
//! code itself runs slower. `engine-wide` and `denotational` time this
//! fixed kernel — allocation, ordered-map inserts and integer mixing, the
//! kind of work the engine and the enumerator do — before every
//! iteration. The kernel's time over [`REFERENCE_S`] is the host's
//! slow-down during that iteration, and the workload's end-to-end
//! figures, set-up time included, are scaled by it to what the reference
//! host would have measured. The raw throughput and latency figures and
//! the slow-down are reported beside them.
//! (A journal-shaped write probe did not track the service workloads'
//! disk-bound figures, so those stay raw.)

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on an unloaded 2-core host, seconds.
pub const REFERENCE_S: f64 = 0.5e-3;

fn kernel(seed: u64) -> u64 {
    let mut m: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = seed | 1;
    for i in 0..3000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.insert(x % 2048, vec![i as u8; (x % 48) as usize]);
    }
    m.values().map(|v| v.len() as u64).sum()
}

/// The host's current slow-down: the fastest of five kernel passes over
/// [`REFERENCE_S`].
pub fn slowdown() -> f64 {
    let best = (0..5u64)
        .map(|i| {
            let t = Instant::now();
            black_box(kernel(black_box(i)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best / REFERENCE_S
}
