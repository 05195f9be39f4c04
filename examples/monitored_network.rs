//! Online incremental certification: the conformance verdicts that
//! `faulty_network` computes *after* the run by re-walking every prefix
//! pair of the final trace (O(n²)) are produced here *during* the run —
//! the engine feeds each committed send into a `SmoothnessMonitor`
//! holding a resumable evaluator pair per component equation, so every
//! per-event smoothness check is amortized O(1) and the limit condition
//! is certified once at quiescence from the final states. The verdict
//! is identical to the post-hoc path (the differential suite
//! `tests/monitor_equivalence.rs` pins this across the whole zoo), and
//! under `MonitorPolicy::AbortOnViolation` a corrupted run halts at the
//! exact violating step instead of burning the step budget first.
//!
//! Run with: `cargo run --example monitored_network`

use eqp::kahn::conformance::check_report;
use eqp::kahn::conformance::ConformanceOptions;
use eqp::kahn::faults::{Fault, FaultSchedule, LinkFaultSpec};
use eqp::kahn::report::RunStatus;
use eqp::kahn::{procs, MonitorPolicy, Network, Oracle, RoundRobin, RunOptions, RunWith};
use eqp::processes::dfm;
use eqp::trace::Value;

/// Section 2.2's fair merge writing to `d` — the workhorse of the
/// fault-injection tours.
fn merge_network(seed: u64) -> Network {
    let mut net = Network::new();
    net.add(procs::Source::new(
        "env-b",
        dfm::B,
        [0, 2, 4].map(Value::Int).to_vec(),
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
        dfm::D,
        Oracle::fair(seed, 2),
    ));
    net
}

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        max_steps: 10_000,
        seed,
        ..RunOptions::default()
    }
}

fn main() {
    let seed = 7u64;
    let desc = dfm::dfm_description();
    println!("== Certifying online against the description ==\n\n{desc}\n");

    // 1. A clean run under an observing monitor: the certificate is
    //    produced as a side effect of running — no post-hoc re-walk.
    let mut net = merge_network(seed);
    let observe = RunWith {
        monitor: Some((&desc, MonitorPolicy::Observe)),
        ..RunWith::default()
    };
    let out = net.run_with(&mut RoundRobin::new(), opts(seed), observe);
    let (report, online) = (out.report, out.conformance.expect("monitored"));
    println!(
        "clean run: {} steps, quiescent={} -> {:?}",
        report.steps, report.quiescent, online.verdict
    );
    assert!(online.is_solution());

    // 2. The differential claim, in miniature: the post-hoc bridge on
    //    the same report returns the *same* certificate.
    let posthoc = check_report(&desc, &report, &ConformanceOptions::default());
    assert_eq!(online.verdict, posthoc.verdict);
    assert_eq!(online.report, posthoc.report);
    println!("post-hoc re-check agrees: {:?}\n", posthoc.verdict);

    // 3. Drop every 2nd message on `d` and keep observing: the run
    //    plays out to its natural end, but the monitor has already
    //    recorded the first smoothness violation when it happened.
    let schedule = FaultSchedule {
        crashes: vec![],
        links: vec![LinkFaultSpec {
            chan: dfm::D,
            fault: Fault::Drop { period: 2 },
        }],
    };
    let mut net = merge_network(seed);
    let faulted = RunWith {
        faults: Some(&schedule),
        ..observe
    };
    let out = net.run_with(&mut RoundRobin::new(), opts(seed), faulted);
    let (report, observed) = (out.report, out.conformance.expect("monitored"));
    println!(
        "dropped-link run (observe): {} steps -> {:?}",
        report.steps, observed.verdict
    );
    assert!(!observed.is_conformant());

    // 4. Same faults, aborting monitor: the run halts at the violating
    //    step with the convicted component equation in the status —
    //    this is what makes chaos/ddmin trials cheap.
    let mut net = merge_network(seed);
    let aborting = RunWith {
        monitor: Some((&desc, MonitorPolicy::AbortOnViolation)),
        ..faulted
    };
    let out = net.run_with(&mut RoundRobin::new(), opts(seed), aborting);
    let (aborted, conf) = (out.report, out.conformance.expect("monitored"));
    let RunStatus::MonitorAborted { component } = aborted.status else {
        panic!("expected a monitor abort, got {:?}", aborted.status);
    };
    println!(
        "dropped-link run (abort): halted after {} steps (vs {} observed), \
         convicting component {}",
        aborted.steps, report.steps, component
    );
    assert!(aborted.steps <= report.steps);
    assert_eq!(conf.failing_component(), Some(component));
    // the conviction names the same equation as the full post-hoc check
    assert_eq!(observed.failing_component(), Some(component));
    println!("\n{conf}");
}
