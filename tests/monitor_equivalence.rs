//! Differential property suite: the online `SmoothnessMonitor` produces
//! *identical* conformance results to the post-hoc `check_report` path —
//! across the whole zoo, all three schedulers, engine fault schedules
//! (delay/drop/duplicate/reorder/crash), reliable (ARQ) wrapping
//! including graceful degradation, and mid-run checkpoint/resume of
//! monitor state.
//!
//! The comparison is the honest one: each monitored run's own
//! `RunReport` is fed to the post-hoc checker, so both paths judge the
//! *same* trace; and a monitored run's trace is compared against the
//! plain run's to pin that observation is pure. Equality is field-exact —
//! verdict, full `SmoothReport` (limits, first violation, depth),
//! quiescence flag, and checked trace.
//!
//! The netlang network at the end pins the same at scale: with 1,250
//! component equations, `AbortOnViolation` convicts the post-hoc
//! component at the post-hoc event.

use eqp::core::Description;
use eqp::kahn::chaos::{self, SchedulerChoice, Trial};
use eqp::kahn::conformance::{check_report, Conformance, ConformanceOptions, Verdict};
use eqp::kahn::report::RunStatus;
use eqp::kahn::{
    procs, Adversarial, ArqOptions, CrashPoint, Fault, FaultSchedule, LinkFaultSpec, MonitorPolicy,
    Network, RandomSched, RoundRobin, RunOptions, Scheduler, SupervisorOptions,
};
use eqp::processes::bag;
use eqp::processes::zoo::{conformance_zoo, ZooEntry};
use eqp::seqfn::paper::{ch, twice};
use eqp::seqfn::SeqExpr;
use eqp::trace::{Chan, Lasso, Value};

fn schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomSched::new(seed)),
        Box::new(Adversarial::new(seed ^ 0xABCD)),
    ]
}

/// Field-exact equality of two conformance results (the struct keeps its
/// rendered equations private, so compare the observable surface).
fn assert_conformance_eq(context: &str, online: &Conformance, posthoc: &Conformance) {
    assert_eq!(online.verdict, posthoc.verdict, "{context}: verdict");
    assert_eq!(online.report, posthoc.report, "{context}: smooth report");
    assert_eq!(online.quiescent, posthoc.quiescent, "{context}: quiescence");
    assert_eq!(online.checked, posthoc.checked, "{context}: checked trace");
    if let Some(k) = online.failing_component() {
        assert_eq!(
            online.component_equation(k),
            posthoc.component_equation(k),
            "{context}: named equation"
        );
    }
}

/// Post-hoc check of the very run the monitor certified.
fn posthoc(entry: &ZooEntry, report: &eqp::kahn::RunReport) -> Conformance {
    check_report(&entry.description(), report, &ConformanceOptions::default())
}

#[test]
fn zoo_monitored_verdicts_equal_posthoc_under_all_schedulers() {
    for entry in conformance_zoo() {
        for seed in [0u64, 3, 11] {
            for sched in schedulers(seed).iter_mut() {
                let (report, online) =
                    entry.certify_monitored(&mut **sched, seed, MonitorPolicy::Observe);
                let ctx = format!("{} (seed {seed}, {})", entry.name, sched.name());
                assert_conformance_eq(&ctx, &online, &posthoc(&entry, &report));
            }
        }
        // observation is pure: the monitored trace is the plain run's
        let (plain, _) = entry.certify(&mut RoundRobin::new(), 3);
        let (monitored, _) =
            entry.certify_monitored(&mut RoundRobin::new(), 3, MonitorPolicy::Observe);
        assert_eq!(
            plain.trace, monitored.trace,
            "{}: the monitor must not perturb the run",
            entry.name
        );
    }
}

/// The faults of PR 2's conviction matrix, scheduled on every channel of
/// the entry's network (plus a supervised-style crash point where asked).
fn fault_schedules(entry: &ZooEntry, with_crash: bool) -> Vec<(String, FaultSchedule)> {
    let channels = entry.network(0).channels();
    let faults = [
        ("delay", Fault::Delay { slack: 2 }),
        ("drop", Fault::Drop { period: 2 }),
        ("duplicate", Fault::Duplicate { period: 2 }),
        (
            "reorder",
            Fault::Reorder {
                window: 3,
                seed: 0x5EED,
            },
        ),
    ];
    let mut schedules: Vec<(String, FaultSchedule)> = faults
        .iter()
        .map(|(name, fault)| {
            (
                (*name).to_owned(),
                FaultSchedule {
                    crashes: vec![],
                    links: channels
                        .iter()
                        .map(|&chan| LinkFaultSpec {
                            chan,
                            fault: fault.clone(),
                        })
                        .collect(),
                },
            )
        })
        .collect();
    if with_crash {
        schedules.push((
            "crash".to_owned(),
            FaultSchedule {
                crashes: vec![CrashPoint {
                    process: 0,
                    at_step: 2,
                }],
                links: vec![],
            },
        ));
    }
    schedules
}

#[test]
fn zoo_monitored_verdicts_equal_posthoc_under_fault_schedules() {
    for entry in conformance_zoo() {
        for (fault_name, schedule) in fault_schedules(&entry, true) {
            for sched in schedulers(7).iter_mut() {
                let (report, online) = entry.certify_monitored_faulted(
                    &mut **sched,
                    7,
                    MonitorPolicy::Observe,
                    &schedule,
                );
                let ctx = format!("{} × {fault_name} ({})", entry.name, sched.name());
                assert_conformance_eq(&ctx, &online, &posthoc(&entry, &report));
            }
        }
    }
}

#[test]
fn zoo_monitored_verdicts_equal_posthoc_under_reliable_wrapping() {
    for entry in conformance_zoo() {
        for (fault_name, schedule) in fault_schedules(&entry, false) {
            if schedule.links.is_empty() {
                continue;
            }
            let mut sched = RoundRobin::new();
            let (report, online) =
                entry.certify_monitored_reliable(&mut sched, 13, MonitorPolicy::Observe, &schedule);
            let ctx = format!("{} × arq({fault_name})", entry.name);
            assert_conformance_eq(&ctx, &online, &posthoc(&entry, &report));
        }
    }
}

#[test]
fn degraded_runs_certify_identically_online() {
    // Pinned graceful degradation (same setup as chaos_zoo): a total drop
    // on the bag's ARQ-protected input under an impatient retry budget
    // exhausts the link. The monitor must map `ReliabilityExhausted` to
    // `Degraded` exactly as the post-hoc path does.
    let entry = conformance_zoo()
        .into_iter()
        .find(|e| e.name == "bag")
        .expect("bag is registered");
    let scenario = entry
        .scenario()
        .expect("bag has no completion hook")
        .with_reliable([bag::C], ArqOptions::impatient());
    let trial = Trial {
        net_seed: 0,
        scheduler: SchedulerChoice::RoundRobin,
        schedule: FaultSchedule {
            crashes: vec![],
            links: vec![LinkFaultSpec {
                chan: bag::C,
                fault: Fault::Drop { period: 1 },
            }],
        },
    };
    let sup = SupervisorOptions::one_for_one();
    let (report, online) =
        chaos::run_trial_monitored(&scenario, &trial, sup, MonitorPolicy::Observe);
    assert!(
        matches!(&report.status, RunStatus::ReliabilityExhausted { .. }),
        "setup must exhaust the retry budget, got: {}",
        report.status
    );
    assert!(
        matches!(&online.verdict, Verdict::Degraded { link } if link == "arq@ch120"),
        "online verdict must be Degraded naming the link: {:?}",
        online.verdict
    );
    let posthoc = check_report(
        &scenario.description(),
        &report,
        &ConformanceOptions::default(),
    );
    assert_conformance_eq("bag degraded", &online, &posthoc);
}

#[test]
fn checkpointed_monitor_state_resumes_byte_identically() {
    // For every resumable zoo entry: capture mid-run (monitor state
    // included), resume on a fresh network, and require the stitched
    // run's trace AND conformance to equal the uninterrupted monitored
    // run's. Entries whose processes lack snapshot hooks return an error
    // from resume and are skipped, same as the checkpoint_resume suite.
    let mut resumed_somewhere = 0usize;
    for entry in conformance_zoo() {
        let seed = 5u64;
        let opts = RunOptions {
            max_steps: entry.max_steps,
            seed,
            ..RunOptions::default()
        };
        let desc = entry.description();
        let (full_report, full_conf) = {
            let mut net = entry.network(seed);
            net.run_report_monitored(&desc, &mut RoundRobin::new(), opts)
        };
        let mid = full_report.steps / 2;
        let (_, _, ckpt) = {
            let mut net = entry.network(seed);
            net.run_report_checkpointed_monitored(&desc, &mut RoundRobin::new(), opts, mid)
        };
        let Some(ckpt) = ckpt else {
            continue; // run ended before the capture point
        };
        assert!(ckpt.has_monitor(), "{}: monitored checkpoint", entry.name);
        let mut net = entry.network(seed);
        match net.resume_report_monitored(&ckpt, &mut RoundRobin::new(), opts) {
            Ok((resumed_report, resumed_conf)) => {
                assert_eq!(
                    resumed_report.trace, full_report.trace,
                    "{}: resumed trace must be byte-identical",
                    entry.name
                );
                assert_conformance_eq(&format!("{} resume", entry.name), &resumed_conf, &full_conf);
                resumed_somewhere += 1;
            }
            Err(_) => continue, // hookless process or scheduler: not resumable
        }
    }
    assert!(
        resumed_somewhere > 2,
        "the resume matrix must actually exercise several entries"
    );
}

#[test]
fn abort_policy_halts_before_the_step_bound_and_names_the_posthoc_component() {
    // The acceptance pin: under a drop-fault schedule,
    // `AbortOnViolation` must stop the run at the convicting event —
    // strictly before both the step bound and the faulted run's natural
    // end — and name the same component equation the post-hoc check
    // convicts on the completed run.
    const C: Chan = Chan::new(0);
    const D: Chan = Chan::new(1);
    let values: Vec<i64> = (1..=64).collect();
    let build = || {
        let mut net = Network::new();
        net.add(procs::Source::new(
            "env",
            C,
            values.iter().map(|&n| Value::Int(n)).collect::<Vec<_>>(),
        ));
        net.add(procs::Apply::int_affine("double", C, D, 2, 0));
        net
    };
    let desc = Description::new("double-pipeline")
        .equation(ch(C), SeqExpr::const_ints(values.clone()))
        .equation(ch(D), SeqExpr::affine(2, 0, ch(C)));
    let schedule = FaultSchedule {
        crashes: vec![],
        links: vec![LinkFaultSpec {
            chan: C,
            fault: Fault::Drop { period: 2 },
        }],
    };
    let opts = RunOptions {
        max_steps: 10_000,
        seed: 0,
        ..RunOptions::default()
    };

    // post-hoc reference: run to the end, then re-walk the whole trace
    let full = build().run_report_faulted(&mut RoundRobin::new(), opts, &schedule);
    let posthoc = check_report(&desc, &full, &ConformanceOptions::default());
    let convicted = posthoc
        .failing_component()
        .expect("the periodic drop must convict");

    // online, aborting: halts at the convicting event
    let (aborted, online) = build().run_report_monitored_faulted(
        &desc,
        &mut RoundRobin::new(),
        opts.with_monitor(MonitorPolicy::AbortOnViolation),
        &schedule,
    );
    match &aborted.status {
        RunStatus::MonitorAborted { component } => assert_eq!(
            *component, convicted,
            "the abort must name the post-hoc failing equation"
        ),
        other => panic!("expected a monitor abort, got: {other}"),
    }
    assert!(
        aborted.steps < full.steps,
        "abort at step {} must beat the faulted run's natural end ({})",
        aborted.steps,
        full.steps
    );
    assert!(aborted.steps < opts.max_steps, "…and the step bound");
    assert_eq!(
        online.failing_component(),
        Some(convicted),
        "the online conformance names the same equation: {online}"
    );
    assert!(!online.is_conformant());
}

#[test]
fn unmonitored_checkpoints_refuse_monitored_resume() {
    let entry = conformance_zoo()
        .into_iter()
        .find(|e| e.name == "bag")
        .expect("bag is registered");
    let opts = RunOptions {
        max_steps: entry.max_steps,
        seed: 0,
        ..RunOptions::default()
    };
    let (_, ckpt) = entry
        .network(0)
        .run_report_checkpointed(&mut RoundRobin::new(), opts, 2);
    let ckpt = ckpt.expect("capture at step 2");
    assert!(!ckpt.has_monitor());
    let err = entry
        .network(0)
        .resume_report_monitored(&ckpt, &mut RoundRobin::new(), opts)
        .expect_err("monitored resume from an unmonitored checkpoint");
    assert_eq!(err, eqp::kahn::SnapshotError::NoMonitor);
}

/// A 220-channel wide network — 110 parallel source → doubler lanes —
/// certified by the online monitor. Channel ids run past 128, so the
/// compiled support masks overflow and the exact-`ChanSet` fallback
/// carries the monitor's channel bookkeeping.
#[test]
fn wide_network_past_the_support_mask_certifies_online_and_posthoc() {
    const LANES: usize = 110;
    let lane = |k: usize| {
        let feed: Vec<Value> = (1..=3).map(|v| Value::Int(v + k as i64)).collect();
        (Chan::new(2 * k as u32), Chan::new(2 * k as u32 + 1), feed)
    };
    let mut net = Network::new();
    let mut desc = Description::new("wide-lanes");
    for k in 0..LANES {
        let (input, output, feed) = lane(k);
        net.add(procs::Source::new(format!("env-{k}"), input, feed.clone()));
        net.add(procs::Apply::int_affine(
            format!("double-{k}"),
            input,
            output,
            2,
            0,
        ));
        desc = desc
            .defines(input, SeqExpr::constant(Lasso::finite(feed)))
            .defines(output, twice(ch(input)));
    }
    assert!(
        desc.channels().iter().max().map_or(0, |c| c.index()) >= 200,
        "the wide network must spill past the 128-bit support mask"
    );
    let opts = RunOptions {
        max_steps: 2000,
        seed: 21,
        ..RunOptions::default()
    };
    let (report, online) = net.run_report_monitored(&desc, &mut RandomSched::new(21), opts);
    assert!(report.quiescent, "the wide network must quiesce");
    assert_eq!(
        online.verdict,
        Verdict::SmoothSolution,
        "the wide network must certify as a solution: {online}"
    );
    let posthoc = check_report(&desc, &report, &ConformanceOptions::default());
    assert_conformance_eq("wide-lanes", &online, &posthoc);
}

/// 250 netlang pipelines of a source and four stages — 1,250 processes,
/// each with its defining equation — in which one stage lies: it runs
/// `map affine(2,0)` while its equation says `affine(3,0)`. Under
/// `AbortOnViolation` the monitor must convict that stage's equation at
/// the very event on which post-hoc `check_report` convicts it on the
/// bare run's trace: same component, same `(u, v)` pair, and a halted
/// trace that is the bare trace cut right after `v`.
#[test]
fn abort_at_scale_convicts_the_posthoc_component_at_the_posthoc_event() {
    const CHAINS: usize = 250;
    const STAGES: usize = 4;
    const LIAR: (usize, usize) = (23, 2);
    let chan = |c: usize, k: usize| c * (STAGES + 1) + k;
    let mut src = String::from("net liar-at-scale\nsteps 100000\n");
    let mut eqs = Vec::new();
    for c in 0..CHAINS {
        for k in 0..=STAGES {
            src.push_str(&format!("chan c{0} = {0}\n", chan(c, k)));
        }
    }
    for c in 0..CHAINS {
        let vals = format!("{} {} {}", 1 + c % 7, 2 + c % 5, 3 + c % 3);
        src.push_str(&format!("proc s{c} = const c{} [{vals}]\n", chan(c, 0)));
        eqs.push(format!("eq c{} <= [{vals}]", chan(c, 0)));
        for k in 1..=STAGES {
            let (a, b) = (chan(c, k - 1), chan(c, k));
            let (runs, claims) = match k {
                _ if (c, k) == LIAR => (2, 3),
                1 | 3 => (1, 1),
                _ => (2, 2),
            };
            src.push_str(&format!("proc p{b} = map affine({runs},0) c{a} -> c{b}\n"));
            eqs.push(format!("eq c{b} <= map(affine({claims},0), c{a})"));
        }
    }
    for e in eqs {
        src.push_str(&e);
        src.push('\n');
    }
    let procs = CHAINS * (STAGES + 1);
    let limits = eqp_netlang::NetLimits {
        max_source_bytes: 1 << 20,
        max_channels: procs,
        max_chan_index: procs as u32,
        max_processes: procs,
        max_equations: procs,
        ..eqp_netlang::NetLimits::default()
    };
    let program = eqp_netlang::parse(&src, &limits).expect("the wide program parses");
    let desc = program.description();
    assert!(
        desc.lhs_compiled().len() >= 1000,
        "at least 1,000 equations"
    );
    let opts = RunOptions {
        max_steps: program.steps() as usize,
        seed: 5,
        ..RunOptions::default()
    };

    let bare = program.build(5).run_report(&mut RoundRobin::new(), opts);
    assert!(bare.quiescent, "the bare run must finish");
    let posthoc = check_report(&desc, &bare, &ConformanceOptions::default());
    let expected = posthoc
        .report
        .violation
        .as_ref()
        .expect("the lying stage must be convicted post-hoc");
    assert_eq!(
        expected.component,
        chan(LIAR.0, LIAR.1),
        "post-hoc convicts the lying stage's equation"
    );

    let (aborted, online) = program.build(5).run_report_monitored(
        &desc,
        &mut RoundRobin::new(),
        opts.with_monitor(MonitorPolicy::AbortOnViolation),
    );
    assert_eq!(
        aborted.status,
        RunStatus::MonitorAborted {
            component: expected.component
        },
        "the abort names the post-hoc component"
    );
    let convicted = online
        .report
        .violation
        .as_ref()
        .expect("the online report carries the violation");
    assert_eq!(convicted, expected, "same component, same (u, v) pair");
    let cut = expected.v.events().expect("finite").len();
    assert_eq!(
        aborted.trace.events().expect("finite"),
        &bare.trace.events().expect("finite")[..cut],
        "the run halts on the convicting event"
    );
}
