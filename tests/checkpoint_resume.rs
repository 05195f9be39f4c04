//! The checkpoint/resume property at zoo scale: a run checkpointed at
//! step `k` and resumed on a freshly built identical network is
//! **byte-identical** — trace and every report meter — to the
//! uninterrupted run, for all three schedulers across the conformance
//! zoo. Capture itself is pure observation: the checkpointed run's
//! outcome must equal the bare run's.

use eqp::kahn::{Adversarial, RandomSched, RoundRobin, RunOptions, RunWith, Scheduler};
use eqp::processes::zoo::conformance_zoo;

/// Two identically constructed schedulers of the same kind — one for the
/// full run, one for the resumed run (resume restores the scheduler's
/// state from the checkpoint, so it must start from the same build).
fn scheduler_pair(kind: usize, seed: u64) -> (Box<dyn Scheduler>, Box<dyn Scheduler>) {
    match kind {
        0 => (Box::new(RoundRobin::new()), Box::new(RoundRobin::new())),
        1 => (
            Box::new(RandomSched::new(seed)),
            Box::new(RandomSched::new(seed)),
        ),
        _ => (
            Box::new(Adversarial::new(seed ^ 0xABCD)),
            Box::new(Adversarial::new(seed ^ 0xABCD)),
        ),
    }
}

#[test]
fn zoo_checkpoint_resume_is_byte_identical() {
    for entry in conformance_zoo() {
        for seed in [0u64, 7] {
            for kind in 0..3 {
                let opts = RunOptions {
                    max_steps: entry.max_steps,
                    seed,
                    ..RunOptions::default()
                };
                let (mut full_sched, _) = scheduler_pair(kind, seed);
                let full = entry.network(seed).run_report(&mut full_sched, opts);
                if full.steps < 2 {
                    continue; // nothing to interrupt
                }
                // cut roughly mid-run
                let k = full.steps / 2;
                let (mut ck_sched, mut resume_sched) = scheduler_pair(kind, seed);
                let with = RunWith {
                    checkpoint_at: Some(k),
                    ..RunWith::default()
                };
                let captured = entry.network(seed).run_with(&mut ck_sched, opts, with);
                let (partial, ckpt) = (captured.report, captured.checkpoint);
                // capture is pure observation
                assert_eq!(
                    partial.trace, full.trace,
                    "{} (seed {seed}, kind {kind}): capture perturbed the run",
                    entry.name
                );
                let ckpt = ckpt.unwrap_or_else(|| {
                    panic!(
                        "{}: no checkpoint at step {k} of {}",
                        entry.name, full.steps
                    )
                });
                assert!(
                    ckpt.is_complete(),
                    "{}: every zoo process must provide snapshot hooks",
                    entry.name
                );
                let resumed = entry
                    .network(seed)
                    .resume(ckpt, &mut resume_sched, opts, None)
                    .unwrap_or_else(|e| panic!("{}: resume failed: {e}", entry.name))
                    .report;
                let tag = format!("{} (seed {seed}, kind {kind}, cut at {k})", entry.name);
                assert_eq!(resumed.trace, full.trace, "{tag}: trace diverged");
                assert_eq!(resumed.steps, full.steps, "{tag}: step meter diverged");
                assert_eq!(resumed.rounds, full.rounds, "{tag}: round meter diverged");
                assert_eq!(
                    resumed.quiescent, full.quiescent,
                    "{tag}: run shape diverged"
                );
                assert_eq!(
                    resumed.processes, full.processes,
                    "{tag}: process meters diverged"
                );
                assert_eq!(
                    resumed.channels, full.channels,
                    "{tag}: channel meters diverged"
                );
            }
        }
    }
}
