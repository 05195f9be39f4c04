//! Crash and recover: the checkpointed supervision runtime end to end.
//!
//! A zoo network is killed mid-run by a crash fuse, the supervisor
//! restores it from the latest checkpoint (or replays its observation
//! journal from genesis), and the recovered quiescent run still certifies
//! as a smooth **solution** of the original description — recovery is
//! invisible to Theorem 2. A chaos storm then samples random fault
//! schedules against the same network and shrinks every conviction to a
//! minimal reproducer.
//!
//! Run with: `cargo run --example supervised_network`

use eqp::kahn::chaos::{self, ChaosOptions};
use eqp::kahn::conformance::{check_report, ConformanceOptions};
use eqp::kahn::{RoundRobin, RunOptions, RunWith, SupervisorOptions};
use eqp::processes::zoo::conformance_zoo;

fn main() {
    let zoo = conformance_zoo();
    let entry = zoo
        .iter()
        .find(|e| e.name == "brock-ackermann")
        .expect("registered");
    let seed = 7u64;
    let opts = RunOptions {
        max_steps: entry.max_steps,
        seed,
        ..RunOptions::default()
    };

    // 1. the undisturbed run, as a baseline
    let baseline = entry.network(seed).run_report(&mut RoundRobin::new(), opts);
    println!("== Baseline ==\n\n{baseline}");

    // 2. crash process A after 2 of its progress steps; supervise with a
    //    one-for-one restart policy
    let mut net = entry.network(seed);
    net.wrap_crash_at(0, 2);
    let with = RunWith {
        supervisor: Some(SupervisorOptions::one_for_one()),
        ..RunWith::default()
    };
    let recovered = net.run_with(&mut RoundRobin::new(), opts, with).report;
    println!("== Crashed and recovered ==\n\n{recovered}");
    for r in &recovered.recoveries {
        println!("recovery: {r:?}");
    }

    // 3. the recovered run still certifies as a smooth solution
    let conf = check_report(
        &entry.description(),
        &recovered,
        &ConformanceOptions::default(),
    );
    println!("\nconformance after recovery: {conf}");
    assert!(
        conf.is_solution(),
        "recovery must be invisible to Theorem 2"
    );
    assert_eq!(
        recovered.trace, baseline.trace,
        "deterministic replay reproduces the baseline history"
    );

    // 4. a seeded chaos storm over the same scenario: random crash points
    //    and link faults, every conviction shrunk to a minimal reproducer
    let scenario = entry.scenario().expect("chaos-checkable");
    let report = chaos::storm(
        &scenario,
        &ChaosOptions {
            trials: 12,
            seed: 0xC4A05,
            ..ChaosOptions::default()
        },
    );
    println!("\n== Chaos storm ==\n\n{report}");
    assert!(report.harness_ok(), "harness invariants must hold");
}
