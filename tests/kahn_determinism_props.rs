//! Kahn determinism as a property: the per-channel histories of a
//! deterministic network do not depend on the scheduler, the scheduler
//! seed, or where the step bound cuts the run. For quiescing networks the
//! complete histories are equal across schedulers and every cut is a
//! prefix of them; for free-running networks every cut approximates the
//! known limit (lfp or closed form) from below. Plus the windowed
//! fairness of `Oracle::fair` at every bound.

use eqp::core::kahn_eqs::SolveOptions;
use eqp::kahn::{
    procs, Adversarial, Network, RandomSched, RoundRobin, RunOptions, RunWith, Scheduler,
};
use eqp::processes::zoo::conformance_zoo;
use eqp::processes::{copy, feedback, ticks};
use eqp::trace::{Chan, Lasso, Value};
use proptest::prelude::*;

fn schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomSched::new(seed)),
        Box::new(Adversarial::new(seed ^ 0x5EED)),
    ]
}

const P_IN: Chan = Chan::new(250);
const P_MID: Chan = Chan::new(251);
const P_OUT: Chan = Chan::new(252);

/// A three-stage deterministic pipeline that quiesces in 15 steps.
fn pipeline() -> Network {
    let mut net = Network::new();
    net.add(procs::Source::new(
        "env",
        P_IN,
        (1..=5).map(Value::Int).collect::<Vec<_>>(),
    ));
    net.add(procs::Apply::int_affine("double", P_IN, P_MID, 2, 0));
    net.add(procs::Apply::int_affine("inc", P_MID, P_OUT, 1, 1));
    net
}

proptest! {
    /// Quiescing deterministic networks: complete histories are
    /// scheduler-independent, and any bounded cut's histories are
    /// prefixes of them (Kahn's theorem, operationally).
    #[test]
    fn quiescent_histories_equal_and_cuts_are_prefixes(seed in 0u64..200, cut in 1usize..40) {
        let full = pipeline().run(&mut RoundRobin::new(), RunOptions::default());
        prop_assert!(full.quiescent);
        for sched in schedulers(seed).iter_mut() {
            let complete = pipeline().run(sched, RunOptions { max_steps: 10_000, seed, ..RunOptions::default() });
            prop_assert!(complete.quiescent, "{}", sched.name());
            let cut_run = pipeline().run(sched, RunOptions { max_steps: cut, seed, ..RunOptions::default() });
            for c in [P_IN, P_MID, P_OUT] {
                prop_assert_eq!(
                    complete.trace.seq_on(c),
                    full.trace.seq_on(c),
                    "{}: complete histories must be scheduler-independent",
                    sched.name(),
                );
                prop_assert!(
                    cut_run.trace.seq_on(c).leq(&full.trace.seq_on(c)),
                    "{} (cut {cut}): history on {c} is not a prefix of the complete run",
                    sched.name(),
                );
            }
            // a cut at/after quiescence is the complete run (probe fix)
            if cut >= 15 {
                prop_assert!(cut_run.quiescent, "{} (cut {cut})", sched.name());
            }
        }
        // the same holds for every quiescing deterministic zoo entry
        for entry in conformance_zoo().iter().filter(|e| e.deterministic && e.quiesces) {
            let canonical = entry.network(0).run(
                &mut RoundRobin::new(),
                RunOptions { max_steps: entry.max_steps, seed: 0, ..RunOptions::default() },
            );
            for sched in schedulers(seed).iter_mut() {
                let run = entry.network(seed).run(
                    sched,
                    RunOptions { max_steps: entry.max_steps, seed, ..RunOptions::default() },
                );
                prop_assert!(run.quiescent);
                let chans: Vec<Chan> = canonical.trace.channels().iter().collect();
                for c in chans {
                    prop_assert_eq!(run.trace.seq_on(c), canonical.trace.seq_on(c));
                }
            }
        }
    }

    /// Free-running deterministic networks approximate their known limit
    /// from below at every cut: the seeded Figure 1 loop against its
    /// solved lfp, Ticks against `T^ω`.
    #[test]
    fn free_running_cuts_stay_within_the_limit(seed in 0u64..200, cut in 1usize..80) {
        let sys = copy::seeded_system();
        let sol = sys.solve(SolveOptions::default()).expect("0^ω is solvable");
        for sched in schedulers(seed).iter_mut() {
            let run = copy::seeded_network().run(sched, RunOptions { max_steps: cut, seed, ..RunOptions::default() });
            prop_assert!(
                sys.histories_within(&sol, &run.trace),
                "{}: cut-{cut} histories exceed the least fixpoint",
                sched.name(),
            );
        }
        for sched in schedulers(seed).iter_mut() {
            let run = ticks::network().run(sched, RunOptions { max_steps: cut, seed, ..RunOptions::default() });
            prop_assert!(!run.quiescent);
            let b = run.trace.seq_on(ticks::B);
            prop_assert!(b.leq(&Lasso::repeat(vec![Value::tt()])));
            prop_assert_eq!(b.take(cut + 1).len(), cut, "one tick per step");
        }
    }

    /// The naturals feedback loop follows its closed form `0 1 2 …` at
    /// every cut, under every scheduler — the lfp here is not eventually
    /// periodic, so the solver cannot produce it, but the operational
    /// approximants are still uniquely determined.
    #[test]
    fn nats_histories_follow_the_closed_form(seed in 0u64..200, cut in 1usize..60) {
        for sched in schedulers(seed).iter_mut() {
            let run = feedback::nats_network().run(sched, RunOptions { max_steps: cut, seed, ..RunOptions::default() });
            let got = run.trace.seq_on(feedback::NATS).take(cut + 1);
            let want: Vec<_> = feedback::nats_prefix(got.len())
                .into_iter()
                .map(Value::Int)
                .collect();
            prop_assert_eq!(got, want, "{}", sched.name());
        }
    }

    /// Windowed fairness of `Oracle::fair`: at every bound, every window
    /// of `2 × bound` consecutive bits contains both values (a run of one
    /// value is capped at `bound`, so a one-sided window of that size is
    /// impossible).
    #[test]
    fn fair_oracle_is_window_fair_at_every_bound(seed in 0u64..500, bound in 1usize..8) {
        let mut o = eqp::kahn::Oracle::fair(seed, bound);
        let bits = o.take(192);
        for w in bits.windows(2 * bound) {
            prop_assert!(
                w.contains(&true) && w.contains(&false),
                "bound {bound}: window {w:?} is one-sided"
            );
        }
    }
}

proptest! {
    // Full-zoo sweep with conformance certification on every run: a
    // handful of sampled seeds already covers zoo × schedulers ×
    // capacities, and 256 cases would take minutes in debug builds.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Backpressure is only a scheduler restriction (the bounded-channel
    /// proof obligation): bounding every consumed channel to capacity 1,
    /// 2, or 8 never changes the certified outcome, under any scheduler.
    /// Every entry keeps its run shape and verdict; quiescing
    /// deterministic entries reproduce the unbounded per-channel
    /// histories exactly; free-running deterministic entries stay below
    /// the generous unbounded cut; and no managed channel ever holds
    /// more than its capacity.
    #[test]
    fn bounded_runs_certify_identically_to_unbounded(seed in 0u64..64) {
        let kinds = schedulers(seed).len();
        let mut blocked_total = 0usize;
        for entry in conformance_zoo() {
            // generous unbounded cut for the free-running prefix check
            let limit = entry.network(seed).run(
                &mut RoundRobin::new(),
                RunOptions { max_steps: entry.max_steps * 4, seed, ..RunOptions::default() },
            );
            for kind in 0..kinds {
                let (base_report, base_conf) =
                    entry.certify(schedulers(seed)[kind].as_mut(), seed);
                for cap in [1usize, 2, 8] {
                    let (report, conf) = entry.certify_with(
                        schedulers(seed)[kind].as_mut(),
                        entry.run_options(seed).with_capacity(cap),
                        RunWith::default(),
                    );
                    prop_assert_eq!(
                        report.quiescent, entry.quiesces,
                        "{} (cap {cap}, sched {kind}): bounding must not change the run shape",
                        entry.name,
                    );
                    prop_assert_eq!(
                        &conf.verdict, &base_conf.verdict,
                        "{} (cap {cap}, sched {kind}): bounded verdict differs from unbounded",
                        entry.name,
                    );
                    for ch in &report.channels {
                        if let Some(capacity) = ch.capacity {
                            prop_assert_eq!(capacity, cap);
                            prop_assert!(
                                ch.high_water <= cap,
                                "{} (cap {cap}): {} high-water {} exceeds its capacity",
                                entry.name, ch.chan, ch.high_water,
                            );
                            blocked_total += ch.blocked_sends;
                        }
                    }
                    if entry.deterministic {
                        let reference =
                            if entry.quiesces { &base_report.trace } else { &limit.trace };
                        let chans: Vec<Chan> = reference.channels().iter().collect();
                        for c in chans {
                            if entry.quiesces {
                                prop_assert_eq!(
                                    report.trace.seq_on(c), reference.seq_on(c),
                                    "{} (cap {cap}): quiescent bounded history on {} differs",
                                    entry.name, c,
                                );
                            } else {
                                prop_assert!(
                                    report.trace.seq_on(c).leq(&reference.seq_on(c)),
                                    "{} (cap {cap}): bounded history on {} is not a prefix",
                                    entry.name, c,
                                );
                            }
                        }
                    }
                }
            }
        }
        // capacity 1 must actually bite somewhere across the zoo: zero
        // blocked sends in the whole sweep would mean the backpressure
        // path was never exercised at all
        prop_assert!(blocked_total > 0, "backpressure never engaged anywhere");
    }
}
