//! Descriptions as specifications (paper Section 8.3): the unordered
//! buffer ("bag") — a module whose output is *not* a function of its
//! input order — specified by per-value counting equations and validated
//! against a randomized operational implementation.
//!
//! Run with: `cargo run --example bag_specification`

use eqp::core::diagnose::diagnose;
use eqp::core::smooth::is_smooth;
use eqp::kahn::{RoundRobin, RunOptions};
use eqp::processes::bag;

fn main() {
    println!("== The bag: descriptions as specifications (Section 8.3) ==\n");
    let spec = bag::specification(0, 3);
    println!("{spec}");

    println!("operational runs of the randomized bag on input [0, 1, 2, 3]:");
    for seed in 0..6u64 {
        let mut net = bag::network(&[0, 1, 2, 3]);
        let run = net.run(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 100,
                seed,
                ..RunOptions::default()
            },
        );
        let out: Vec<i64> = run
            .trace
            .seq_on(bag::D)
            .take(8)
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        let ok = is_smooth(&spec, &run.trace);
        println!("  seed {seed}: emitted {out:?}   meets spec: {ok}");
        assert!(ok);
    }

    println!("\na faulty implementation is caught, with a diagnosis:");
    // fabricate: emit a 9 that was never received
    let bad = eqp::trace::Trace::finite(vec![
        eqp::trace::Event::int(bag::C, 1),
        eqp::trace::Event::int(bag::D, 9),
    ]);
    let report = diagnose(&bag::specification(0, 9), &bad);
    print!("{report}");
    assert!(!report.is_smooth());
}
