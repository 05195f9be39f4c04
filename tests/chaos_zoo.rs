//! The chaos harness pointed at the conformance zoo: seeded storms over
//! every scenario-capable zoo entry must uphold the harness invariants —
//! benign schedules (delays, supervised recovered crashes) never convict,
//! and every conviction is reproducible and shrinks to a non-empty
//! minimal reproducer. A pinned drop-fault schedule on the deterministic
//! Figure 1 pipeline must shrink to a **single-event** reproducer naming
//! the violated equation.

use eqp::kahn::chaos::{self, ChaosOptions, SchedulerChoice, Trial};
use eqp::kahn::conformance::Verdict;
use eqp::kahn::faults::FaultKind;
use eqp::kahn::report::RunStatus;
use eqp::kahn::{ArqOptions, CrashPoint, Fault, FaultSchedule, LinkFaultSpec, SupervisorOptions};
use eqp::processes::bag;
use eqp::processes::zoo::conformance_zoo;

#[test]
fn seeded_storms_over_the_zoo_uphold_harness_invariants() {
    for (i, entry) in conformance_zoo().iter().enumerate() {
        let Some(scenario) = entry.scenario() else {
            continue; // fork: needs trace completion, not chaos-checkable
        };
        let report = chaos::storm(
            &scenario,
            &ChaosOptions {
                trials: 8,
                // pinned per-entry seed: the storm is fully reproducible
                seed: 0x500_u64.wrapping_mul(i as u64 + 1) ^ 0xD15EA5E,
                ..ChaosOptions::default()
            },
        );
        assert_eq!(report.trials, 8, "{}", entry.name);
        assert!(
            report.harness_ok(),
            "{}: harness invariant violated:\n{report}",
            entry.name
        );
        for conviction in &report.convictions {
            assert!(
                !conviction.minimal.is_empty(),
                "{}: conviction shrank to an empty schedule (the scenario \
                 fails fault-free):\n{conviction}",
                entry.name
            );
        }
    }
}

/// Storms over fully reliable-wrapped scenarios: every sampled link fault
/// lands on a protected channel, so ARQ masks it and the trial is
/// classified benign. The only legitimate conviction left in the space is
/// graceful degradation — a sampled total-drop schedule that exhausts a
/// retry budget ends in [`RunStatus::ReliabilityExhausted`] and certifies
/// as [`Verdict::Degraded`]; anything else convicting would flag a benign
/// schedule and fail `harness_ok`.
#[test]
fn protected_storms_never_convict_except_by_graceful_degradation() {
    let mut masked_somewhere = 0usize;
    for (i, entry) in conformance_zoo().iter().enumerate() {
        let Some(scenario) = entry.scenario() else {
            continue; // fork: needs trace completion, not chaos-checkable
        };
        let channels = entry.network(0).channels();
        let scenario = scenario.with_reliable(channels, ArqOptions::default());
        let report = chaos::storm(
            &scenario,
            &ChaosOptions {
                trials: 6,
                seed: 0xA59_u64.wrapping_mul(i as u64 + 1) ^ 0x0DD5,
                ..ChaosOptions::default()
            },
        );
        assert!(
            report.harness_ok(),
            "{}: harness invariant violated under full protection:\n{report}",
            entry.name
        );
        masked_somewhere += report.conformant;
        for conviction in &report.convictions {
            assert!(
                matches!(conviction.status, RunStatus::ReliabilityExhausted { .. }),
                "{}: a protected conviction must come from budget \
                 exhaustion, not a masked fault leaking through:\n{conviction}",
                entry.name
            );
            assert!(
                matches!(&conviction.verdict, Verdict::Degraded { link } if link.starts_with("arq@")),
                "{}: exhaustion must certify as Degraded naming the link:\n{conviction}",
                entry.name
            );
            assert!(
                !conviction.minimal.is_empty(),
                "{}: degradation must shrink to the lossy link:\n{conviction}",
                entry.name
            );
        }
    }
    assert!(
        masked_somewhere > 0,
        "some harmful schedules must have been masked outright"
    );
}

/// Pinned graceful degradation: a total drop on the bag's protected input
/// under an impatient retry budget exhausts the link. The run terminates
/// (no hang) in `ReliabilityExhausted`, certifies as `Degraded` naming
/// the exhausted link, and the schedule shrinks past the benign delay to
/// the single drop fault that caused it.
#[test]
fn exhausted_retry_budget_degrades_gracefully_and_shrinks_to_the_lossy_link() {
    let entry = conformance_zoo()
        .into_iter()
        .find(|e| e.name == "bag")
        .expect("bag is registered");
    let scenario = entry
        .scenario()
        .expect("bag has no completion hook")
        .with_reliable([bag::C], ArqOptions::impatient());
    let schedule = FaultSchedule {
        crashes: vec![],
        links: vec![
            LinkFaultSpec {
                chan: bag::D,
                fault: Fault::Delay { slack: 1 },
            },
            // period 1 drops every frame *and* every retransmission: the
            // impatient budget (one retry) exhausts almost immediately
            LinkFaultSpec {
                chan: bag::C,
                fault: Fault::Drop { period: 1 },
            },
        ],
    };
    let trial = Trial {
        net_seed: 0,
        scheduler: SchedulerChoice::RoundRobin,
        schedule,
    };
    let sup = SupervisorOptions::one_for_one();
    let (report, conf) = chaos::run_trial(&scenario, &trial, sup, None);
    assert!(
        matches!(&report.status, RunStatus::ReliabilityExhausted { link } if link == "arq@ch120"),
        "expected graceful exhaustion on the protected input, got: {}",
        report.status
    );
    match &conf.verdict {
        Verdict::Degraded { link } => assert_eq!(link, "arq@ch120"),
        v => panic!("expected Degraded, got {v:?}"),
    }
    assert!(
        !conf.is_conformant(),
        "degraded is certified but not conformant"
    );
    assert!(conf.to_string().contains("DEGRADED"), "{conf}");
    assert!(
        report
            .fault_log()
            .iter()
            .any(|r| r.event.kind == FaultKind::RetryExhausted),
        "the exhaustion must be named in the fault log"
    );
    let minimal = chaos::shrink(&scenario, &trial, sup);
    assert_eq!(minimal.len(), 1, "expected the drop alone, got: {minimal}");
    assert_eq!(
        minimal.links[0].chan,
        bag::C,
        "the lossy link is the culprit"
    );
    assert!(matches!(minimal.links[0].fault, Fault::Drop { period: 1 }));
}

#[test]
fn pinned_drop_fault_shrinks_to_a_single_event_reproducer() {
    let entry = conformance_zoo()
        .into_iter()
        .find(|e| e.name == "bag")
        .expect("bag is registered");
    let scenario = entry.scenario().expect("bag has no completion hook");
    // a noisy schedule: a supervised crash (recovers), a benign delay on
    // the input, and the actual culprit — a drop on the bag's *output*: a
    // dropped send vanishes from the history entirely, so at quiescence
    // some received value never appears on `d` and the per-value counting
    // equation `(=v)(d) ⟸ (=v)(c)` fails its limit condition.
    let schedule = FaultSchedule {
        crashes: vec![CrashPoint {
            process: 1,
            at_step: 2,
        }],
        links: vec![
            LinkFaultSpec {
                chan: bag::C,
                fault: Fault::Delay { slack: 1 },
            },
            LinkFaultSpec {
                chan: bag::D,
                fault: Fault::Drop { period: 2 },
            },
        ],
    };
    let trial = Trial {
        net_seed: 0,
        scheduler: SchedulerChoice::RoundRobin,
        schedule,
    };
    let sup = SupervisorOptions::one_for_one();
    let (_, conf) = chaos::run_trial(&scenario, &trial, sup, None);
    assert!(!conf.is_conformant(), "the noisy schedule must convict");
    // the early-abort monitored shrink must find the identical minimum,
    // and report its cost counters
    let monitored = chaos::shrink_report(&scenario, &trial, sup);
    assert!(monitored.trials_run > 0);
    let minimal = chaos::shrink(&scenario, &trial, sup);
    assert_eq!(
        monitored.minimal, minimal,
        "monitored ddmin must shrink to the same spec as the post-hoc path"
    );
    assert_eq!(
        minimal.len(),
        1,
        "expected a single-event reproducer, got: {minimal}"
    );
    assert!(
        minimal.crashes.is_empty(),
        "the crash is recovered — not it"
    );
    assert_eq!(minimal.links.len(), 1);
    assert_eq!(
        minimal.links[0].chan,
        bag::D,
        "the dropped link is the culprit"
    );
    assert!(matches!(minimal.links[0].fault, Fault::Drop { .. }));
    // the minimal trial still convicts, and names the violated equation
    let minimal_trial = Trial {
        schedule: minimal,
        ..trial
    };
    let (report, conf) = chaos::run_trial(&scenario, &minimal_trial, sup, None);
    assert!(!conf.is_conformant());
    assert!(
        conf.failing_component().is_some(),
        "conviction must name the violated component equation: {conf}"
    );
    assert!(
        !report.fault_log().is_empty(),
        "the injected drop must be named in the fault log"
    );
}
