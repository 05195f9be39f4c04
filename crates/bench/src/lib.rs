//! Shared workload generators and naive baselines for the benchmark
//! harness.
//!
//! The paper has no performance tables — its "evaluation" is Figures 1–7
//! and the worked examples — so each bench target regenerates one figure's
//! computation at several scales (the *shape* being the reproduction
//! target: which checks are constant, linear, exponential in depth). The
//! [`naive`] module provides the deliberately simpler baselines that the
//! `ablations` bench compares against (see DESIGN.md §4).

use eqp_core::description::{tuple_leq, Alphabet, Description};
use eqp_trace::{Chan, Event, Lasso, Trace, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The `"host"` object every `BENCH_*.json` writer records: the cores
/// this process may use and the measured checkout (`<sha>-dirty` for
/// uncommitted edits, `none` outside a git work tree). Numbers from
/// hosts with different core counts are not comparable.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_owned(), |s| s.trim().to_owned());
    format!("{{\"nproc\": {nproc}, \"commit\": \"{commit}\"}}")
}

/// A reproducible random finite trace over `chans` with integer messages
/// in `lo..hi`.
pub fn random_trace(seed: u64, len: usize, chans: &[Chan], lo: i64, hi: i64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    Trace::finite(
        (0..len)
            .map(|_| {
                let c = chans[rng.random_range(0..chans.len())];
                Event::int(c, rng.random_range(lo..hi))
            })
            .collect::<Vec<_>>(),
    )
}

/// A reproducible random lasso sequence of integers.
pub fn random_lasso(seed: u64, prefix: usize, cycle: usize, lo: i64, hi: i64) -> Lasso<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Vec<Value> = (0..prefix)
        .map(|_| Value::Int(rng.random_range(lo..hi)))
        .collect();
    let c: Vec<Value> = (0..cycle)
        .map(|_| Value::Int(rng.random_range(lo..hi)))
        .collect();
    Lasso::lasso(p, c)
}

/// Deliberately naive baselines for the ablation benches.
pub mod naive {
    use super::*;

    /// Naive word equality on *raw* (prefix, cycle) representations:
    /// index both words directly and compare the first `depth` letters —
    /// the strawman that canonical normal forms replace (and which is
    /// *incomplete*: equal windows do not prove equal words).
    pub fn raw_word_eq(
        p1: &[Value],
        c1: &[Value],
        p2: &[Value],
        c2: &[Value],
        depth: usize,
    ) -> bool {
        let at = |p: &[Value], c: &[Value], i: usize| -> Option<Value> {
            if i < p.len() {
                Some(p[i])
            } else if c.is_empty() {
                None
            } else {
                Some(c[(i - p.len()) % c.len()])
            }
        };
        (0..depth).all(|i| at(p1, c1, i) == at(p2, c2, i))
    }

    /// Back-compat shim used by unit tests: windowed comparison of two
    /// already-normalized lassos.
    pub fn lasso_eq_by_unrolling(a: &Lasso<Value>, b: &Lasso<Value>, depth: usize) -> bool {
        a.is_finite() == b.is_finite() && a.take(depth) == b.take(depth)
    }

    /// Section 3.3 enumeration *without* memoizing the parent's
    /// right-hand side: re-evaluates `g(u)` for every candidate child,
    /// but otherwise does the same work as [`eqp_core::enumerate()`]
    /// (limit check per node, solution collection) so the two are
    /// comparable.
    pub fn enumerate_unmemoized(
        desc: &Description,
        alphabet: &Alphabet,
        max_depth: usize,
        max_nodes: usize,
    ) -> usize {
        let mut count = 0usize;
        let mut solutions = 0usize;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(Trace::empty());
        while let Some(u) = queue.pop_front() {
            if count >= max_nodes {
                break;
            }
            count += 1;
            if eqp_core::smooth::limit_holds(desc, &u) {
                solutions += 1;
            }
            let len = u.events().map(<[_]>::len).unwrap_or(0);
            if len >= max_depth {
                continue;
            }
            for (c, msgs) in alphabet.iter() {
                for m in msgs {
                    let v = u.pushed(Event::new(c, *m)).expect("finite");
                    // the ablated step: rhs recomputed per child
                    if tuple_leq(&desc.eval_lhs(&v), &desc.eval_rhs(&u)) {
                        queue.push_back(v);
                    }
                }
            }
        }
        // `solutions` is computed to mirror enumerate()'s per-node work;
        // the walk's result is the node count.
        let _ = solutions;
        count
    }

    /// General (staggered-pair) smoothness check — used by the Theorem 1
    /// ablation as the baseline against the independent fast path. Both
    /// re-evaluate each side per prefix, so the ablation compares the
    /// pairing alone; the production check is the linear walk
    /// `eqp_core::smooth::smoothness`.
    pub fn smooth_general(desc: &Description, t: &Trace, depth: usize) -> bool {
        eqp_core::smooth::limit_holds(desc, t)
            && eqp_core::smooth::smoothness_violation(desc, t, depth).is_none()
    }
}

/// A synthetic dfm-style quiescent trace of length ~`3n`: n b-inputs, n
/// c-inputs, 2n merged outputs in alternation.
pub fn dfm_quiescent_trace(n: usize) -> Trace {
    use eqp_processes::dfm::{B, C, D};
    let mut ev = Vec::with_capacity(4 * n);
    for i in 0..n {
        let e = 2 * i as i64;
        let o = 2 * i as i64 + 1;
        ev.push(Event::int(B, e));
        ev.push(Event::int(D, e));
        ev.push(Event::int(C, o));
        ev.push(Event::int(D, o));
    }
    Trace::finite(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_core::smooth::is_smooth;

    #[test]
    fn dfm_workload_is_smooth() {
        let t = dfm_quiescent_trace(8);
        assert!(is_smooth(&eqp_processes::dfm::dfm_description(), &t));
    }

    #[test]
    fn random_generators_reproducible() {
        let a = random_trace(5, 10, &[Chan::new(0), Chan::new(1)], 0, 4);
        let b = random_trace(5, 10, &[Chan::new(0), Chan::new(1)], 0, 4);
        assert_eq!(a, b);
        assert_eq!(random_lasso(3, 2, 2, 0, 9), random_lasso(3, 2, 2, 0, 9));
    }

    #[test]
    fn naive_enumeration_counts_nodes() {
        let desc = eqp_processes::random_bit::bit_description();
        let alpha = Alphabet::new().with_bits(eqp_processes::random_bit::B);
        let n = naive::enumerate_unmemoized(&desc, &alpha, 3, 10_000);
        assert!(n >= 3); // root + two solutions at least
    }

    #[test]
    fn naive_lasso_eq_is_incomplete() {
        // two words equal on a short window but different later —
        // the naive check wrongly equates them at depth 4.
        let a = Lasso::lasso(vec![Value::Int(0); 4], vec![Value::Int(0), Value::Int(1)]);
        let b = Lasso::repeat(vec![Value::Int(0)]);
        assert!(naive::lasso_eq_by_unrolling(&a, &b, 4));
        assert_ne!(a, b); // the normal form knows better
    }
}
