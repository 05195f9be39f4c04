//! The recovery invariant at zoo scale (the tentpole acceptance
//! criterion): a zoo network with a process crashed mid-run by a
//! [`CrashAt`](eqp::kahn::CrashAt) fuse and recovered by the supervisor
//! still certifies through the conformance bridge — quiescent runs as
//! smooth **solutions** of the original description, budget-cut runs as
//! smooth prefixes — under all three schedulers. Recovery must be
//! invisible to Theorem 2.

use eqp::kahn::conformance::{check_report, ConformanceOptions};
use eqp::kahn::{
    Adversarial, RandomSched, RoundRobin, RunOptions, RunStatus, RunWith, Scheduler,
    SupervisorOptions, Verdict,
};
use eqp::processes::zoo::conformance_zoo;

fn schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(RandomSched::new(seed)),
        Box::new(Adversarial::new(seed ^ 0xABCD)),
    ]
}

#[test]
fn crashed_and_recovered_zoo_runs_still_certify() {
    let mut recoveries_seen = 0usize;
    for entry in conformance_zoo() {
        // the fork needs a trace-completion hook before checking; its
        // conformance under recovery is implied by the byte-identical
        // checkpoint/resume property instead.
        if entry.scenario().is_none() {
            continue;
        }
        let n_procs = entry.network(0).len();
        for seed in [0u64, 5] {
            for victim in 0..n_procs {
                for sched in schedulers(seed).iter_mut() {
                    let mut net = entry.network(seed);
                    // fuse: crash the victim after 2 of its progress steps
                    net.wrap_crash_at(victim, 2);
                    let with = RunWith {
                        supervisor: Some(SupervisorOptions::one_for_one()),
                        ..RunWith::default()
                    };
                    let report = net
                        .run_with(
                            sched,
                            RunOptions {
                                // headroom: recovery replays observations, which
                                // consumes extra scheduler steps
                                max_steps: entry.max_steps + 64,
                                seed,
                                ..RunOptions::default()
                            },
                            with,
                        )
                        .report;
                    let tag = format!(
                        "{} (seed {seed}, victim {victim}, {})",
                        entry.name,
                        sched.name()
                    );
                    recoveries_seen += report.recoveries.len();
                    assert!(
                        !matches!(report.status, RunStatus::Escalated { .. }),
                        "{tag}: one crash must never escalate:\n{report}"
                    );
                    let conf = check_report(
                        &entry.description(),
                        &report,
                        &ConformanceOptions::default(),
                    );
                    assert!(conf.is_conformant(), "{tag}: {conf}\n{report}");
                    if entry.quiesces {
                        assert!(report.quiescent, "{tag}: recovered run must quiesce");
                        assert_eq!(
                            conf.verdict,
                            Verdict::SmoothSolution,
                            "{tag}: recovered quiescent run must certify as a full solution"
                        );
                    }
                    // a fired fuse must be recorded as recovered, not dead
                    for p in &report.processes {
                        assert!(!p.crashed, "{tag}: {} left for dead:\n{report}", p.name);
                    }
                }
            }
        }
    }
    assert!(
        recoveries_seen > 50,
        "the crash matrix must actually exercise recovery (saw {recoveries_seen})"
    );
}
