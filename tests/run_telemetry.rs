//! Run telemetry: starvation and bottleneck detection, runtime
//! single-consumer enforcement, the report's human-readable summary, and
//! inline sketch capture.

use eqp::kahn::{procs, Network, RoundRobin, RunOptions, StepResult};
use eqp::processes::zoo::conformance_zoo;
use eqp::trace::{Chan, Value};

const L: Chan = Chan::new(240);
const R: Chan = Chan::new(241);
const O: Chan = Chan::new(242);

#[test]
fn half_fed_zip_is_reported_as_the_starved_bottleneck() {
    // the zip's right input never arrives: it idles with input waiting on
    // the left for as many rounds as the source keeps feeding it.
    let mut net = Network::new();
    net.add(procs::Source::new(
        "left-env",
        L,
        (1..=5).map(Value::Int).collect::<Vec<_>>(),
    ));
    net.add(procs::Zip2::add("zip", L, R, O));
    let report = net.run_report(&mut RoundRobin::new(), RunOptions::default());
    assert!(report.quiescent);
    let zip = report
        .processes
        .iter()
        .find(|p| p.name == "zip")
        .expect("zip reported");
    assert_eq!(zip.progress, 0);
    assert!(
        zip.max_starved_rounds >= 4,
        "zip idled with input for ~5 rounds, got {}",
        zip.max_starved_rounds
    );
    let bottleneck = report.bottleneck().expect("a starved process");
    assert_eq!(bottleneck.name, "zip");
    assert_eq!(report.starved(3).len(), 1);
    // the source was never starved: it has no declared inputs
    assert!(report
        .processes
        .iter()
        .all(|p| p.name == "zip" || p.max_starved_rounds == 0));
    let shown = report.to_string();
    assert!(shown.contains("bottleneck: `zip`"), "{shown}");
    assert!(shown.contains("starved"), "{shown}");
    // all five left messages remain metered: sent but only queued
    let left = report.channel(L).expect("metered");
    assert_eq!(left.sends, 5);
    assert_eq!(left.receives, 0);
    assert_eq!(left.residual, 5);
    assert_eq!(left.high_water, 5);
}

#[test]
fn undeclared_second_reader_is_reported() {
    // Neither reader declares inputs(), so Network::add cannot reject the
    // double-consumer wiring statically; the runtime telemetry must.
    let mut net = Network::new();
    net.add(procs::Source::new(
        "env",
        L,
        (1..=4).map(Value::Int).collect::<Vec<_>>(),
    ));
    net.add(procs::FromFn::new("reader-a", |ctx| match ctx.pop(L) {
        Some(_) => StepResult::Progress,
        None => StepResult::Idle,
    }));
    net.add(procs::FromFn::new("reader-b", |ctx| match ctx.pop(L) {
        Some(_) => StepResult::Progress,
        None => StepResult::Idle,
    }));
    let report = net.run_report(&mut RoundRobin::new(), RunOptions::default());
    assert!(!report.single_consumer_ok());
    let v = &report.consumer_violations[0];
    assert_eq!(v.chan, L);
    assert_eq!(v.first, "reader-a");
    assert_eq!(v.second, "reader-b");
    // the channel report names the *first* consumer
    assert_eq!(
        report.channel(L).expect("metered").consumer.as_deref(),
        Some("reader-a")
    );
    assert!(report.to_string().contains("WARNING"), "{report}");
}

#[test]
fn well_wired_networks_report_no_violations() {
    let mut net = Network::new();
    net.add(procs::Source::new(
        "env",
        L,
        (1..=3).map(Value::Int).collect::<Vec<_>>(),
    ));
    net.add(procs::Apply::int_affine("double", L, O, 2, 0));
    let report = net.run_report(&mut RoundRobin::new(), RunOptions::default());
    assert!(report.single_consumer_ok());
    assert!(report.bottleneck().is_none());
    assert!(report.to_string().contains("bottleneck: none"));
    assert!(
        report.rounds >= 4,
        "at least 3 productive rounds + the quiescence round, got {}",
        report.rounds
    );
}

#[test]
fn every_zoo_run_that_steps_carries_observed_sketches() {
    let mut with_sketches = 0usize;
    for entry in conformance_zoo() {
        let (report, _) = entry.certify(&mut RoundRobin::new(), 17);
        if report.steps == 0 {
            continue;
        }
        let stats = report
            .sketch_stats()
            .unwrap_or_else(|| panic!("{}: active run must carry sketches", entry.name));
        assert!(
            stats.events > 0,
            "{}: sketches must have observed the run",
            entry.name
        );
        with_sketches += 1;
    }
    assert!(
        with_sketches >= 10,
        "the sketch check must exercise most of the zoo, got {with_sketches}"
    );
}
