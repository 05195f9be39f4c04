//! Properties of the operational nondeterminism sources: every scheduler
//! round is a permutation, seeded runs are reproducible, and fair oracles
//! honour their alternation bound for every seed.

use eqp::kahn::{Adversarial, Oracle, RandomSched, RoundRobin, Scheduler};
use proptest::prelude::*;

/// One round's order, written into a buffer that held a stale round.
fn round<S: Scheduler + ?Sized>(s: &mut S, n: usize) -> Vec<usize> {
    let mut order = vec![n; n + 3];
    s.round(n, &mut order);
    order
}

proptest! {
    #[test]
    fn every_scheduler_round_is_a_permutation(seed in 0u64..500, n in 1usize..12) {
        let mut scheds: Vec<Box<dyn Scheduler>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(RandomSched::new(seed)),
            Box::new(Adversarial::new(seed)),
        ];
        for s in scheds.iter_mut() {
            for _ in 0..5 {
                let mut r = round(s.as_mut(), n);
                r.sort_unstable();
                prop_assert_eq!(r, (0..n).collect::<Vec<_>>(), "{}", s.name());
            }
        }
    }

    #[test]
    fn schedulers_are_reproducible(seed in 0u64..500, n in 1usize..8) {
        let a: Vec<Vec<usize>> = {
            let mut s = RandomSched::new(seed);
            (0..6).map(|_| round(&mut s, n)).collect()
        };
        let b: Vec<Vec<usize>> = {
            let mut s = RandomSched::new(seed);
            (0..6).map(|_| round(&mut s, n)).collect()
        };
        prop_assert_eq!(a, b);
        let a: Vec<Vec<usize>> = {
            let mut s = Adversarial::new(seed);
            (0..6).map(|_| round(&mut s, n)).collect()
        };
        let b: Vec<Vec<usize>> = {
            let mut s = Adversarial::new(seed);
            (0..6).map(|_| round(&mut s, n)).collect()
        };
        prop_assert_eq!(a, b);
    }

    /// Fair oracles never exceed their alternation bound, for any seed.
    #[test]
    fn fair_oracle_bound_holds(seed in 0u64..500, bound in 1usize..6) {
        let mut o = Oracle::fair(seed, bound);
        let bits = o.take(256);
        let mut run = 1usize;
        for w in bits.windows(2) {
            if w[0] == w[1] {
                run += 1;
                prop_assert!(run <= bound, "run of {run} exceeds bound {bound}");
            } else {
                run = 1;
            }
        }
        // both values occur in any window of bound+1
        for w in bits.windows(bound + 1) {
            prop_assert!(w.iter().any(|&b| b) && w.iter().any(|&b| !b) || w.len() <= bound);
        }
    }

    /// Scripted oracles replay exactly, then alternate.
    #[test]
    fn scripted_oracle_replays(bits in proptest::collection::vec(any::<bool>(), 0..8)) {
        let mut o = Oracle::scripted(eqp::trace::Lasso::finite(bits.clone()));
        let got = o.take(bits.len() + 4);
        prop_assert_eq!(&got[..bits.len()], &bits[..]);
        // the tail alternates starting with T
        let tail = &got[bits.len()..];
        prop_assert_eq!(tail, &[true, false, true, false][..]);
    }
}
