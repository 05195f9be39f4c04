//! The conformance suite: every zoo network, under all three schedulers,
//! yields a trace the operational ⇄ denotational bridge certifies — and
//! injected faults are detected with the failing component equation
//! named.
//!
//! This is the paper's adequacy claim (Theorems 2 and 4) run as a test
//! matrix: quiescent runs must be smooth *solutions* of their
//! description, bounded runs smooth *prefixes*; drop/duplicate faults
//! corrupt the history and must fail the check.

use eqp::kahn::conformance::{check_report, ConformanceOptions, Verdict};
use eqp::kahn::faults::{CrashAt, Fault, FaultKind, FaultSchedule, FaultyLink, LinkFaultSpec};
use eqp::kahn::{
    procs, Adversarial, Network, Oracle, RandomSched, ReliableConfig, RoundRobin, RunOptions,
    RunWith, Scheduler,
};
use eqp::processes::zoo::conformance_zoo;
use eqp::processes::{bag, dfm};
use eqp::seqfn::paper::{ch, twice};
use eqp::trace::{Chan, Value};

fn schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomSched::new(seed)),
        Box::new(Adversarial::new(seed ^ 0xABCD)),
    ]
}

#[test]
fn zoo_conforms_under_all_schedulers() {
    for entry in conformance_zoo() {
        for seed in [0u64, 3, 11] {
            for sched in schedulers(seed).iter_mut() {
                let (report, conf) = entry.certify(&mut **sched, seed);
                assert_eq!(
                    report.quiescent,
                    entry.quiesces,
                    "{} (seed {seed}, {}): unexpected run shape",
                    entry.name,
                    sched.name()
                );
                assert!(
                    conf.is_conformant(),
                    "{} (seed {seed}, {}): {conf}",
                    entry.name,
                    sched.name()
                );
                if entry.quiesces {
                    assert_eq!(
                        conf.verdict,
                        Verdict::SmoothSolution,
                        "{}: quiescent run must certify as a full solution",
                        entry.name
                    );
                } else {
                    assert_eq!(
                        conf.verdict,
                        Verdict::SmoothPrefix,
                        "{}: bounded run must certify as a prefix",
                        entry.name
                    );
                }
                assert!(
                    report.single_consumer_ok(),
                    "{}: runtime consumer violation: {:?}",
                    entry.name,
                    report.consumer_violations
                );
            }
        }
    }
}

/// A raw channel for interposing faulty links on dfm's merged output.
const RAW_D: Chan = Chan::new(230);

/// The Section 2.2 discriminated merge: sources feed `b` (evens) and `c`
/// (odds), and the merge writes to `out`.
fn merge_onto(out: Chan, seed: u64) -> Network {
    let mut net = Network::new();
    net.add(procs::Source::new(
        "env-b",
        dfm::B,
        [0, 2].map(Value::Int).to_vec(),
    ));
    net.add(procs::Source::new(
        "env-c",
        dfm::C,
        [1, 3].map(Value::Int).to_vec(),
    ));
    net.add(procs::Merge2::new(
        "merge",
        dfm::B,
        dfm::C,
        out,
        Oracle::fair(seed, 2),
    ));
    net
}

/// The merge with a faulty link interposed on its output: the merge
/// writes to a raw channel, and the link forwards — faultily — onto the
/// real `d` the description constrains.
fn faulted_merge(fault: Fault, seed: u64) -> Network {
    let mut net = merge_onto(RAW_D, seed);
    net.add(FaultyLink::new("link", RAW_D, dfm::D, fault));
    net
}

#[test]
fn delay_fault_preserves_smooth_solutions() {
    // Delay is the paper's own asynchrony: order and content intact, so
    // the quiescent trace is still a smooth solution.
    for seed in 0..6u64 {
        let mut net = faulted_merge(Fault::Delay { slack: 2 }, seed);
        let report = net.run_report(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 200,
                seed,
                ..RunOptions::default()
            },
        );
        assert!(report.quiescent, "seed {seed}");
        let conf = check_report(
            &dfm::dfm_description(),
            &report,
            &ConformanceOptions::default(),
        );
        assert_eq!(conf.verdict, Verdict::SmoothSolution, "seed {seed}: {conf}");
    }
}

#[test]
fn drop_fault_is_detected_with_named_component() {
    // Depending on *which* message the link drops, the violation shows up
    // either at the limit (a whole parity class went missing) or as a
    // smoothness failure (a later value arrives where the dropped one was
    // due); both must be caught, always with the component named.
    let mut limit_violations = 0usize;
    for seed in 0..6u64 {
        let mut net = faulted_merge(Fault::Drop { period: 2 }, seed);
        let report = net.run_report(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 200,
                seed,
                ..RunOptions::default()
            },
        );
        assert!(report.quiescent, "seed {seed}");
        let conf = check_report(
            &dfm::dfm_description(),
            &report,
            &ConformanceOptions::default(),
        );
        assert!(
            !conf.is_conformant(),
            "seed {seed}: dropped messages must be detected, got {conf}"
        );
        let k = conf.failing_component().expect("a named component");
        assert!(
            conf.component_equation(k).is_some(),
            "the verdict names the failing equation"
        );
        let shown = conf.to_string();
        assert!(shown.contains("VIOLATION"), "{shown}");
        if matches!(conf.verdict, Verdict::LimitViolation { .. }) {
            limit_violations += 1;
        }
    }
    assert!(
        limit_violations > 0,
        "at least one drop pattern must surface as a limit failure"
    );
}

#[test]
fn duplicate_fault_is_detected() {
    for seed in 0..6u64 {
        let mut net = faulted_merge(Fault::Duplicate { period: 1 }, seed);
        let report = net.run_report(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 200,
                seed,
                ..RunOptions::default()
            },
        );
        assert!(report.quiescent, "seed {seed}");
        let conf = check_report(
            &dfm::dfm_description(),
            &report,
            &ConformanceOptions::default(),
        );
        assert!(
            !conf.is_conformant(),
            "seed {seed}: duplicated messages must be detected, got {conf}"
        );
        assert!(conf.failing_component().is_some());
    }
}

#[test]
fn reorder_fault_breaks_order_sensitive_descriptions() {
    // With a window of 3 over 4 messages, some seed must permute the
    // per-parity order and break dfm's equations.
    let mut violated = 0usize;
    for seed in 0..8u64 {
        let mut net = faulted_merge(Fault::Reorder { window: 3, seed }, seed);
        let report = net.run_report(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 200,
                seed,
                ..RunOptions::default()
            },
        );
        assert!(report.quiescent, "seed {seed}");
        let conf = check_report(
            &dfm::dfm_description(),
            &report,
            &ConformanceOptions::default(),
        );
        if !conf.is_conformant() {
            violated += 1;
        }
    }
    assert!(
        violated > 0,
        "no reorder across 8 seeds ever violated the order-sensitive description"
    );
}

#[test]
fn reorder_fault_is_invisible_to_the_order_free_bag() {
    // The bag's specification is per-value counting — reordering its
    // input stream cannot violate it (descriptions as specifications,
    // Section 8.3).
    const RAW_C: Chan = Chan::new(231);
    for seed in 0..6u64 {
        let mut net = Network::new();
        net.add(procs::Source::new(
            "env",
            RAW_C,
            [1, 2, 3].map(Value::Int).to_vec(),
        ));
        net.add(FaultyLink::new(
            "reorder",
            RAW_C,
            bag::C,
            Fault::Reorder { window: 3, seed },
        ));
        net.add(bag::BagProc::new());
        let report = net.run_report(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 200,
                seed,
                ..RunOptions::default()
            },
        );
        assert!(report.quiescent, "seed {seed}");
        let conf = check_report(
            &bag::specification(1, 3),
            &report,
            &ConformanceOptions::default(),
        );
        assert_eq!(conf.verdict, Verdict::SmoothSolution, "seed {seed}: {conf}");
    }
}

#[test]
fn crashed_process_fails_the_limit_and_shows_residual_input() {
    const RAW: Chan = Chan::new(232);
    const OUT: Chan = Chan::new(233);
    let desc = eqp::core::Description::new("double").equation(ch(OUT), twice(ch(RAW)));
    let mut net = Network::new();
    net.add(procs::Source::new(
        "env",
        RAW,
        [1, 2, 3].map(Value::Int).to_vec(),
    ));
    net.add(CrashAt::new(
        procs::Apply::int_affine("double", RAW, OUT, 2, 0),
        1,
    ));
    let report = net.run_report(&mut RoundRobin::new(), RunOptions::default());
    assert!(
        report.quiescent,
        "a crashed process idles, the net quiesces"
    );
    let conf = check_report(&desc, &report, &ConformanceOptions::default());
    assert!(
        matches!(conf.verdict, Verdict::LimitViolation { .. }),
        "missing outputs at quiescence must fail the limit: {conf}"
    );
    // telemetry pinpoints the stall: undelivered input queued on RAW
    assert_eq!(report.channel(RAW).expect("metered").residual, 2);
    assert!(report
        .processes
        .iter()
        .any(|p| p.name.contains("crash@1") && p.progress == 1));
}

/// The three history-corrupting faults PR 2's oracle convicts, with the
/// same parameters the conviction tests above use.
fn harmful_faults(seed: u64) -> Vec<(&'static str, Fault)> {
    vec![
        ("drop", Fault::Drop { period: 2 }),
        ("duplicate", Fault::Duplicate { period: 2 }),
        (
            "reorder",
            Fault::Reorder {
                window: 3,
                seed: seed ^ 0x5EED,
            },
        ),
    ]
}

/// Schedules `fault` on every channel the network declares.
fn fault_everywhere(net: &Network, fault: &Fault) -> FaultSchedule {
    FaultSchedule {
        crashes: vec![],
        links: net
            .channels()
            .into_iter()
            .map(|chan| LinkFaultSpec {
                chan,
                fault: fault.clone(),
            })
            .collect(),
    }
}

#[test]
fn zoo_reliable_wrapping_masks_every_harmful_fault() {
    // The tentpole matrix: zoo × {drop, duplicate, reorder} × 3
    // schedulers, every channel reliable-wrapped. The ARQ composite is
    // equationally the identity, so each faulted run must certify with
    // the *clean* expectation — smooth solution when the entry quiesces,
    // smooth prefix when the step bound cuts it.
    use eqp::processes::fork;
    for entry in conformance_zoo() {
        for (fault_name, fault) in harmful_faults(7) {
            let mut schedule = fault_everywhere(&entry.network(0), &fault);
            if entry.name == "fork" {
                // the fork's trace-completion hook reconstructs oracle
                // bits from the cross-channel d/e interleaving, which
                // engine-buffered delivery legitimately perturbs — so
                // fault (and protect) only its input stream
                schedule.links.retain(|l| l.chan == fork::C);
            }
            let cfg = ReliableConfig::new(schedule.links.iter().map(|l| l.chan).collect());
            for sched in schedulers(13).iter_mut() {
                let with = RunWith {
                    faults: Some(&schedule),
                    reliable: Some(&cfg),
                    ..RunWith::default()
                };
                let (report, conf) = entry.certify_with(&mut **sched, entry.run_options(13), with);
                assert_eq!(
                    report.quiescent,
                    entry.quiesces,
                    "{} × {fault_name} ({}): ARQ must preserve the run shape, got {}",
                    entry.name,
                    sched.name(),
                    report.status
                );
                let expected = if entry.quiesces {
                    Verdict::SmoothSolution
                } else {
                    Verdict::SmoothPrefix
                };
                assert_eq!(
                    conf.verdict,
                    expected,
                    "{} × {fault_name} ({}): reliable-wrapped faults must be masked: {conf}",
                    entry.name,
                    sched.name()
                );
            }
        }
    }
}

#[test]
fn zoo_unprotected_faults_still_convict_somewhere() {
    // Control for the matrix above: the same schedules *without* ARQ
    // protection must still convict at least one quiescing entry per
    // fault kind — otherwise the masking test would be vacuous.
    for (fault_name, fault) in harmful_faults(7) {
        let mut convicted = 0usize;
        for entry in conformance_zoo() {
            if !entry.quiesces {
                continue; // prefix runs tolerate in-flight corruption
            }
            let schedule = fault_everywhere(&entry.network(0), &fault);
            let mut net = entry.network(13);
            let with = RunWith {
                faults: Some(&schedule),
                ..RunWith::default()
            };
            let report = net
                .run_with(&mut RoundRobin::new(), entry.run_options(13), with)
                .report;
            let conf = check_report(
                &entry.description(),
                &report,
                &ConformanceOptions::default(),
            );
            if !conf.is_conformant() {
                convicted += 1;
            }
        }
        assert!(
            convicted > 0,
            "{fault_name}: no unprotected zoo entry convicted — the masking matrix is vacuous"
        );
    }
}

/// Runs the merge with `fault` on its output `d`, which an engine-level
/// reliable (ARQ) link protects.
fn masked_merge_run(fault: Fault, seed: u64) -> eqp::kahn::RunReport {
    let schedule = FaultSchedule {
        crashes: vec![],
        links: vec![LinkFaultSpec {
            chan: dfm::D,
            fault,
        }],
    };
    let cfg = ReliableConfig::new(vec![dfm::D]);
    let with = RunWith {
        faults: Some(&schedule),
        reliable: Some(&cfg),
        ..RunWith::default()
    };
    let opts = RunOptions {
        max_steps: 4_000,
        seed,
        ..RunOptions::default()
    };
    merge_onto(dfm::D, seed)
        .run_with(&mut RoundRobin::new(), opts, with)
        .report
}

#[test]
fn pr2_convicting_faults_are_masked_by_process_level_arq() {
    // Regression pins: the exact fault parameters convicted by
    // `drop_fault_is_detected_with_named_component`,
    // `duplicate_fault_is_detected`, and
    // `reorder_fault_breaks_order_sensitive_descriptions` above, now on
    // an ARQ-protected link — every seed must certify as a smooth
    // solution. (The name predates the engine-level transport, which
    // replaced the sender/receiver processes it first pinned.)
    type FaultFor = Box<dyn Fn(u64) -> Fault>;
    let faults: Vec<(&str, FaultFor)> = vec![
        ("drop", Box::new(|_| Fault::Drop { period: 2 })),
        ("duplicate", Box::new(|_| Fault::Duplicate { period: 1 })),
        (
            "reorder",
            Box::new(|seed| Fault::Reorder { window: 3, seed }),
        ),
    ];
    for (fault_name, fault_for) in &faults {
        for seed in 0..6u64 {
            let report = masked_merge_run(fault_for(seed), seed);
            assert!(
                report.quiescent,
                "{fault_name} seed {seed}: masked net must quiesce, got {}",
                report.status
            );
            let conf = check_report(
                &dfm::dfm_description(),
                &report,
                &ConformanceOptions::default(),
            );
            assert_eq!(
                conf.verdict,
                Verdict::SmoothSolution,
                "{fault_name} seed {seed}: ARQ must mask the fault: {conf}"
            );
        }
    }
}

#[test]
fn process_level_arq_reports_retransmissions_under_drop() {
    // The masking is not vacuous: under a period-2 drop the lossy medium
    // under the ARQ link really drops frames, and the fault log names
    // them. (The name predates the engine-level transport.)
    let report = masked_merge_run(Fault::Drop { period: 2 }, 3);
    assert!(report.quiescent);
    let link = format!("link@{}", dfm::D);
    assert!(
        report
            .fault_log()
            .iter()
            .any(|r| r.source == link && r.event.kind == FaultKind::Dropped),
        "the lossy medium's drops are logged: {:?}",
        report.fault_log()
    );
}
