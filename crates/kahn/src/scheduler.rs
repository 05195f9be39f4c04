//! Schedulers: the external nondeterminism of a network run.
//!
//! A scheduler orders the processes within each round. Kahn's determinism
//! result says the *final* channel histories of a deterministic network do
//! not depend on this order; for nondeterministic networks different
//! schedules realize different smooth solutions. The test suites use all
//! three schedulers to cover the space.
//!
//! Bounded channels ([`RunOptions::channel_capacity`](crate::RunOptions))
//! compose with every scheduler as a further *restriction* of it: a
//! process whose send would overflow a full channel is skipped for the
//! round (its step rolls back transactionally) and is re-offered once the
//! consumer drains credit. Since this only removes interleavings that
//! Kahn's result already proves irrelevant to channel histories, bounded
//! runs certify identically to unbounded ones — the invariance is checked
//! wholesale in `tests/kahn_determinism_props.rs`.

use crate::snapshot::StateCell;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Orders process indices for one scheduling round.
pub trait Scheduler {
    /// Writes into `order`, replacing its contents, the order in which the
    /// `n` processes should be offered a step this round. The caller owns
    /// the buffer, so a run reuses one allocation for every round.
    fn round(&mut self, n: usize, order: &mut Vec<usize>);

    /// Diagnostic name.
    fn name(&self) -> &str {
        "<scheduler>"
    }

    /// Captures the scheduler's mutable state for a
    /// [`Checkpoint`](crate::snapshot::Checkpoint). The default `None`
    /// marks the scheduler as unsupported by whole-run resume (supervised
    /// recovery of individual processes does not need it). All three
    /// built-in schedulers implement it.
    fn snapshot(&self) -> Option<StateCell> {
        None
    }

    /// Restores state captured by [`snapshot`](Scheduler::snapshot) on an
    /// identically constructed scheduler. Returns `false` on shape
    /// mismatch (or if unsupported, the default).
    fn restore(&mut self, state: &StateCell) -> bool {
        let _ = state;
        false
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn round(&mut self, n: usize, order: &mut Vec<usize>) {
        (**self).round(n, order)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn snapshot(&self) -> Option<StateCell> {
        (**self).snapshot()
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        (**self).restore(state)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn round(&mut self, n: usize, order: &mut Vec<usize>) {
        (**self).round(n, order)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn snapshot(&self) -> Option<StateCell> {
        (**self).snapshot()
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        (**self).restore(state)
    }
}

/// Fixed round-robin order `0, 1, …, n-1`, rotating the starting point
/// each round so no process is permanently favored.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    offset: usize,
}

impl RoundRobin {
    /// Creates a rotating round-robin scheduler.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn round(&mut self, n: usize, order: &mut Vec<usize>) {
        order.clear();
        if n == 0 {
            return;
        }
        let start = self.offset % n;
        self.offset = self.offset.wrapping_add(1);
        order.extend((start..n).chain(0..start));
    }

    fn name(&self) -> &str {
        "round-robin"
    }

    fn snapshot(&self) -> Option<StateCell> {
        Some(StateCell::Nat(self.offset as u64))
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        match state.as_nat() {
            Some(n) => {
                self.offset = n as usize;
                true
            }
            None => false,
        }
    }
}

/// Uniformly random permutation each round, from a fixed seed
/// (reproducible runs).
#[derive(Debug)]
pub struct RandomSched {
    rng: StdRng,
}

impl RandomSched {
    /// Creates a seeded random scheduler.
    pub fn new(seed: u64) -> RandomSched {
        RandomSched {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomSched {
    fn round(&mut self, n: usize, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..n);
        order.shuffle(&mut self.rng);
    }

    fn name(&self) -> &str {
        "random"
    }

    fn snapshot(&self) -> Option<StateCell> {
        Some(StateCell::Rng(self.rng.clone()))
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        match state.as_rng() {
            Some(r) => {
                self.rng = r.clone();
                true
            }
            None => false,
        }
    }
}

/// An adversarial scheduler: repeatedly favors a single victim ordering for
/// long bursts before switching, maximizing transient starvation. Kahn
/// quiescence is scheduler-independent, so even this schedule must land on
/// a smooth solution — the tests rely on that.
#[derive(Debug)]
pub struct Adversarial {
    rng: StdRng,
    burst_left: usize,
    order: Vec<usize>,
}

impl Adversarial {
    /// Creates a seeded adversarial scheduler.
    pub fn new(seed: u64) -> Adversarial {
        Adversarial {
            rng: StdRng::seed_from_u64(seed),
            burst_left: 0,
            order: Vec::new(),
        }
    }
}

impl Scheduler for Adversarial {
    fn round(&mut self, n: usize, order: &mut Vec<usize>) {
        if self.burst_left == 0 || self.order.len() != n {
            self.order.clear();
            self.order.extend(0..n);
            self.order.shuffle(&mut self.rng);
            self.burst_left = 1 + (self.rng.random_range(0..16usize));
        }
        self.burst_left -= 1;
        order.clone_from(&self.order);
    }

    fn name(&self) -> &str {
        "adversarial"
    }

    fn snapshot(&self) -> Option<StateCell> {
        Some(StateCell::List(vec![
            StateCell::Rng(self.rng.clone()),
            StateCell::Nat(self.burst_left as u64),
            StateCell::Nats(self.order.iter().map(|&i| i as u64).collect()),
        ]))
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        let Some([rng, burst, order]) = state.as_list().and_then(|l| <&[_; 3]>::try_from(l).ok())
        else {
            return false;
        };
        let (Some(rng), Some(burst), Some(order)) = (rng.as_rng(), burst.as_nat(), order.as_nats())
        else {
            return false;
        };
        self.rng = rng.clone();
        self.burst_left = burst as usize;
        self.order = order.iter().map(|&i| i as usize).collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round's order, in a fresh buffer.
    fn round<S: Scheduler>(s: &mut S, n: usize) -> Vec<usize> {
        let mut order = vec![99];
        s.round(n, &mut order);
        order
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = RoundRobin::new();
        assert_eq!(round(&mut s, 3), vec![0, 1, 2]);
        assert_eq!(round(&mut s, 3), vec![1, 2, 0]);
        assert_eq!(round(&mut s, 3), vec![2, 0, 1]);
        assert_eq!(round(&mut s, 0), Vec::<usize>::new());
        assert_eq!(s.name(), "round-robin");
    }

    #[test]
    fn random_is_permutation() {
        let mut s = RandomSched::new(42);
        for _ in 0..10 {
            let mut r = round(&mut s, 5);
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(s.name(), "random");
    }

    #[test]
    fn random_is_reproducible() {
        let a: Vec<Vec<usize>> = {
            let mut s = RandomSched::new(7);
            (0..5).map(|_| round(&mut s, 4)).collect()
        };
        let b: Vec<Vec<usize>> = {
            let mut s = RandomSched::new(7);
            (0..5).map(|_| round(&mut s, 4)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_schedule() {
        // each scheduler, snapshotted mid-stream and restored into a
        // freshly constructed twin, continues with identical rounds
        fn roundtrip<S: Scheduler>(mut live: S, mut fresh: S) {
            for _ in 0..7 {
                let _ = round(&mut live, 5);
            }
            let cell = live.snapshot().expect("built-in schedulers are hooked");
            assert!(fresh.restore(&cell));
            for _ in 0..10 {
                assert_eq!(round(&mut fresh, 5), round(&mut live, 5));
            }
        }
        roundtrip(RoundRobin::new(), RoundRobin::new());
        roundtrip(RandomSched::new(11), RandomSched::new(11));
        roundtrip(Adversarial::new(4), Adversarial::new(4));
        // shape mismatches are rejected, not mis-applied
        let mut rr = RoundRobin::new();
        assert!(!rr.restore(&StateCell::Flag(true)));
    }

    #[test]
    fn adversarial_bursts_are_permutations() {
        let mut s = Adversarial::new(3);
        for _ in 0..40 {
            let mut r = round(&mut s, 4);
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2, 3]);
        }
        assert_eq!(s.name(), "adversarial");
    }
}
