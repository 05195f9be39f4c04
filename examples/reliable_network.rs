//! Lossy links, reliably: the faults that convicted the Section 2.2
//! merge in `faulty_network` are masked by wrapping the lossy channel in
//! a reliable (ARQ) link — sequence numbers, cumulative acks,
//! retransmission with exponential backoff, and a receive-side
//! dedup/re-sequencing window make the composite subnetwork the
//! *identity* description, so the same convicting runs certify as
//! smooth solutions. A hopeless link (every frame dropped, tiny retry
//! budget) degrades gracefully instead of hanging: the run ends in a
//! named `ReliabilityExhausted` status and certifies as a `Degraded`
//! smooth prefix. Bounded channels with credit-based backpressure are
//! only a scheduler restriction: the bounded run certifies identically.
//!
//! Run with: `cargo run --example reliable_network`

use eqp::kahn::conformance::{check_report, ConformanceOptions};
use eqp::kahn::faults::{Fault, FaultSchedule, LinkFaultSpec};
use eqp::kahn::reliable::{ArqOptions, ReliableConfig};
use eqp::kahn::{procs, Network, Oracle, RoundRobin, RunOptions, RunWith};
use eqp::processes::dfm;
use eqp::trace::Value;

/// The same merge topology as `faulty_network`, but writing straight to
/// `d`: the fault now lives *under* the channel (as the ARQ medium)
/// rather than as an explicit link process.
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
        max_steps: 200,
        seed,
        ..RunOptions::default()
    }
}

fn main() {
    let seed = 7u64;
    let desc = dfm::dfm_description();
    println!("== Reliable transport against the description ==\n\n{desc}\n");

    let faults: [(&str, Fault); 3] = [
        ("duplicate (every msg)", Fault::Duplicate { period: 1 }),
        ("drop (every 2nd msg)", Fault::Drop { period: 2 }),
        ("reorder (window 3)", Fault::Reorder { window: 3, seed }),
    ];

    // every fault that convicted the bare link is masked by ARQ
    for (label, fault) in faults {
        println!("--- lossy medium: {label}, ARQ-protected ---");
        let schedule = FaultSchedule {
            crashes: vec![],
            links: vec![LinkFaultSpec {
                chan: dfm::D,
                fault,
            }],
        };
        let cfg = ReliableConfig::new(vec![dfm::D]);
        let mut net = merge_network(seed);
        let with = RunWith {
            faults: Some(&schedule),
            reliable: Some(&cfg),
            ..RunWith::default()
        };
        let report = net
            .run_with(&mut RoundRobin::new(), opts(seed), with)
            .report;
        let on_d: Vec<i64> = report
            .trace
            .seq_on(dfm::D)
            .take(16)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        println!("delivered on d: {on_d:?}");
        let conf = check_report(&desc, &report, &ConformanceOptions::default());
        println!("{conf}\n");
    }

    // a hopeless link degrades gracefully: named status, certified prefix
    println!("--- lossy medium: drop (every msg), impatient retry budget ---");
    let schedule = FaultSchedule {
        crashes: vec![],
        links: vec![LinkFaultSpec {
            chan: dfm::D,
            fault: Fault::Drop { period: 1 },
        }],
    };
    let cfg = ReliableConfig::new(vec![dfm::D]).arq(ArqOptions::impatient());
    let mut net = merge_network(seed);
    let with = RunWith {
        faults: Some(&schedule),
        reliable: Some(&cfg),
        ..RunWith::default()
    };
    let report = net
        .run_with(&mut RoundRobin::new(), opts(seed), with)
        .report;
    println!("run ended: {}", report.status);
    let conf = check_report(&desc, &report, &ConformanceOptions::default());
    println!("{conf}\n");

    // backpressure is only a scheduler restriction: bounding every
    // consumed channel to one message changes nothing the theory sees
    println!("--- bounded channels: capacity 1, credit-based backpressure ---");
    let unbounded = merge_network(seed).run_report(&mut RoundRobin::new(), opts(seed));
    let bounded =
        merge_network(seed).run_report(&mut RoundRobin::new(), opts(seed).with_capacity(1));
    for c in &bounded.channels {
        if let Some(cap) = c.capacity {
            println!(
                "{}: capacity {cap}, high-water {}, blocked sends {}",
                c.chan, c.high_water, c.blocked_sends
            );
        }
    }
    // a restricted scheduler may interleave differently, but no channel
    // sees a different history — Kahn's point, operationally
    for c in [dfm::B, dfm::C, dfm::D] {
        assert_eq!(bounded.trace.seq_on(c), unbounded.trace.seq_on(c));
        println!("history on {c} unchanged by the bound");
    }
    let conf = check_report(&desc, &bounded, &ConformanceOptions::default());
    println!("{conf}\n");

    println!("Retransmission plus dedup makes the wrapped link the identity: the");
    println!("convicting faults of `faulty_network` are masked, exhaustion has a");
    println!("named degraded outcome instead of a hang, and bounded queues restrict");
    println!("the scheduler without changing any certified history.");
}
