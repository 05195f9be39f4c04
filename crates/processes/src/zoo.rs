//! The conformance zoo: every zoo network paired with its description,
//! ready to be run under any scheduler and certified by the operational ⇄
//! denotational bridge ([`eqp_kahn::conformance`]).
//!
//! Each [`ZooEntry`] packages a network builder, the description the
//! paper assigns to it, the channels visible to that description, and the
//! expected run shape (quiescing or cut by the step bound). The
//! conformance suite (`tests/conformance_zoo.rs`) iterates the registry
//! across `RoundRobin`, `RandomSched`, and `Adversarial` schedulers and
//! asserts every run is certified — quiescent runs as smooth *solutions*,
//! bounded runs as smooth *prefixes* (Theorems 2 and 4 made executable).
//!
//! Two zoo modules are deliberately absent: [`crate::implication`] and
//! the oracle channel of [`crate::fork`] reveal auxiliary
//! nondeterministic choices only implicitly, so their descriptions
//! constrain channels the operational trace does not carry verbatim. The
//! fork *is* included via a trace-completion hook that reconstructs the
//! oracle bits from the routing decisions (the same reconstruction as
//! `tests/operational_agreement.rs`); the implication network's
//! conformance is covered there by enumeration membership instead.

use crate::{
    bag, brock_ackermann, copy, dfm, fair_random, feedback, folklore, fork, random_bit, ticks,
};
use eqp_core::Description;
use eqp_kahn::conformance::{self, Conformance, ConformanceOptions};
use eqp_kahn::{Network, Oracle, RunOptions, RunReport, RunWith, Scheduler};
use eqp_trace::{Event, Trace};

/// One registered network/description pair.
pub struct ZooEntry {
    /// Registry name (stable, test-facing).
    pub name: &'static str,
    /// True iff runs quiesce within `max_steps` (expected verdict:
    /// smooth solution); false iff the step bound always cuts the run
    /// (expected verdict: smooth prefix).
    pub quiesces: bool,
    /// True iff the network is deterministic in the Kahn sense: its
    /// per-channel histories are independent of scheduler and seed.
    pub deterministic: bool,
    /// Step bound used by [`ZooEntry::certify`].
    pub max_steps: usize,
    build: fn(u64) -> Network,
    describe: fn() -> Description,
    /// Optional trace completion applied before the conformance check
    /// (e.g. oracle reconstruction for the fork).
    complete: Option<fn(&Trace) -> Trace>,
}

impl ZooEntry {
    /// Builds a fresh instance of the network (oracle-driven networks
    /// derive their oracle from `seed`).
    pub fn network(&self, seed: u64) -> Network {
        (self.build)(seed)
    }

    /// The description the network must conform to.
    pub fn description(&self) -> Description {
        (self.describe)()
    }

    /// Runs the network under `sched` and checks the trace against the
    /// description, returning both the telemetry report and the
    /// conformance certificate.
    pub fn certify(&self, sched: &mut dyn Scheduler, seed: u64) -> (RunReport, Conformance) {
        self.certify_with(sched, self.run_options(seed), RunWith::default())
    }

    /// [`certify`](ZooEntry::certify) with `opts` and the attachments in
    /// `with` (faults, reliable links, supervision, an online monitor —
    /// see [`RunWith`]). The network is built from `opts.seed`. The
    /// verdict is the online monitor's when `with.monitor` is set, and
    /// the post-hoc [`check`](ZooEntry::check) otherwise; the
    /// differential suite pins that the two agree on every entry.
    pub fn certify_with(
        &self,
        sched: &mut dyn Scheduler,
        opts: RunOptions,
        with: RunWith<'_>,
    ) -> (RunReport, Conformance) {
        let mut net = self.network(opts.seed);
        let out = net.run_with(&mut &mut *sched, opts, with);
        let conf = out.conformance.unwrap_or_else(|| self.check(&out.report));
        (out.report, conf)
    }

    /// The options [`certify`](ZooEntry::certify) runs with: the entry's
    /// step bound and `seed`.
    pub fn run_options(&self, seed: u64) -> RunOptions {
        RunOptions {
            max_steps: self.max_steps,
            seed,
            ..RunOptions::default()
        }
    }

    /// Checks a finished run against the description, applying the
    /// entry's trace-completion hook if it has one — the post-hoc
    /// certification path, public so out-of-process runners (the `eqpd`
    /// daemon resuming a session from a journal) can re-certify a report
    /// they did not produce via [`ZooEntry::certify`].
    pub fn check(&self, report: &RunReport) -> Conformance {
        let desc = self.description();
        let opts = ConformanceOptions::default();
        match self.complete {
            Some(complete) => {
                let t = complete(&report.trace);
                conformance::check_trace(&desc, &t, report.quiescent, &opts)
            }
            None => conformance::check_report(&desc, report, &opts),
        }
    }

    /// The entry as a chaos-harness [`Scenario`](eqp_kahn::chaos::Scenario)
    /// — the bridge between the
    /// zoo registry and [`eqp_kahn::chaos::storm`]. Returns `None` for
    /// entries that need a trace-completion hook (the fork): the chaos
    /// harness checks raw run traces, which would mis-convict them.
    pub fn scenario(&self) -> Option<eqp_kahn::chaos::Scenario> {
        if self.complete.is_some() {
            return None;
        }
        // fn pointers are `Copy + 'static`, so Scenario can own them.
        Some(eqp_kahn::chaos::Scenario::new(
            self.name,
            self.max_steps,
            self.build,
            self.describe,
        ))
    }
}

/// Reconstructs the fork's oracle bits from its routing decisions: each
/// `d`-event reveals a `T`, each `e`-event an `F`, inserted just before
/// the event it steered.
fn complete_fork_trace(t: &Trace) -> Trace {
    let mut events = Vec::new();
    for ev in t.events().expect("operational traces are finite") {
        if ev.chan == fork::D {
            events.push(Event::bit(fork::B, true));
        } else if ev.chan == fork::E {
            events.push(Event::bit(fork::B, false));
        }
        events.push(*ev);
    }
    Trace::finite(events)
}

/// The registry: every directly checkable zoo network with its
/// description.
pub fn conformance_zoo() -> Vec<ZooEntry> {
    vec![
        ZooEntry {
            name: "fig1-plain",
            quiesces: true,
            deterministic: true,
            max_steps: 50,
            build: |_| copy::plain_network(),
            describe: || copy::plain_system().to_description("fig1-plain"),
            complete: None,
        },
        ZooEntry {
            name: "fig1-seeded",
            quiesces: false,
            deterministic: true,
            max_steps: 60,
            build: |_| copy::seeded_network(),
            describe: copy::seeded_description,
            complete: None,
        },
        ZooEntry {
            name: "ticks",
            quiesces: false,
            deterministic: true,
            max_steps: 40,
            build: |_| ticks::network(),
            describe: ticks::description,
            complete: None,
        },
        ZooEntry {
            name: "sec23-merge",
            quiesces: false,
            deterministic: false,
            max_steps: 140,
            build: |seed| dfm::section23_network(Oracle::fair(seed, 2)),
            describe: dfm::section23_description,
            complete: None,
        },
        ZooEntry {
            name: "brock-ackermann",
            quiesces: true,
            deterministic: false,
            max_steps: 300,
            build: |seed| brock_ackermann::network(Oracle::fair(seed, 2)),
            describe: || brock_ackermann::system().flatten(),
            complete: None,
        },
        ZooEntry {
            name: "random-bit",
            quiesces: true,
            deterministic: false,
            max_steps: 10,
            build: |_| {
                let mut net = Network::new();
                net.add(random_bit::RandomBitProc::new());
                net
            },
            describe: random_bit::bit_description,
            complete: None,
        },
        ZooEntry {
            name: "random-bit-seq",
            quiesces: true,
            deterministic: false,
            max_steps: 100,
            build: |_| random_bit::sequence_network(4),
            describe: random_bit::sequence_description,
            complete: None,
        },
        ZooEntry {
            name: "fair-random",
            quiesces: false,
            deterministic: false,
            max_steps: 40,
            build: |seed| fair_random::network(seed, 2),
            describe: fair_random::description,
            complete: None,
        },
        ZooEntry {
            name: "fair-merge",
            quiesces: true,
            deterministic: false,
            max_steps: 500,
            build: |seed| crate::fair_merge::network(&[2, 4, 6], &[1, 3], Oracle::fair(seed, 2)),
            describe: || crate::fair_merge::eliminated_system().flatten(),
            complete: None,
        },
        ZooEntry {
            name: "fork",
            quiesces: true,
            deterministic: false,
            max_steps: 60,
            build: |_| fork::network(&[1, 2, 3, 4]),
            describe: fork::description,
            complete: Some(complete_fork_trace),
        },
        ZooEntry {
            name: "bag",
            quiesces: true,
            deterministic: false,
            max_steps: 200,
            build: |_| bag::network(&[1, 2, 3]),
            describe: || bag::specification(1, 3),
            complete: None,
        },
        ZooEntry {
            name: "folklore-fair-random",
            quiesces: false,
            deterministic: false,
            max_steps: 120,
            build: |seed| folklore::fair_random_network(Oracle::fair(seed, 3)),
            describe: || {
                fair_random::description()
                    .rename_channel(fair_random::C, folklore::MERGED)
                    .expect("MERGED is fresh")
            },
            complete: None,
        },
        ZooEntry {
            name: "folklore-random-bit",
            quiesces: true,
            deterministic: false,
            max_steps: 60,
            build: |seed| folklore::random_bit_network(Oracle::fair(seed, 2)),
            describe: || {
                random_bit::bit_description()
                    .rename_channel(random_bit::B, folklore::BIT)
                    .expect("BIT is fresh")
            },
            complete: None,
        },
        ZooEntry {
            name: "feedback-nats",
            quiesces: false,
            deterministic: true,
            max_steps: 60,
            build: |_| feedback::nats_network(),
            describe: || feedback::nats_system().to_description("nats"),
            complete: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_kahn::RoundRobin;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let zoo = conformance_zoo();
        assert!(zoo.len() >= 12);
        let mut names: Vec<&str> = zoo.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), zoo.len());
    }

    #[test]
    fn every_entry_runs_with_the_expected_shape() {
        for entry in conformance_zoo() {
            let (report, _) = entry.certify(&mut RoundRobin::new(), 1);
            assert_eq!(
                report.quiescent, entry.quiesces,
                "{}: expected quiesces={}",
                entry.name, entry.quiesces
            );
        }
    }
}
