//! Supervision: restart policies, crash recovery, and deterministic
//! replay.
//!
//! A supervised run
//! ([`RunWith::supervisor`](crate::RunWith::supervisor)) watches
//! every process for crashes
//! (engine-injected [`CrashPoint`](crate::faults::CrashPoint)s or
//! [`CrashAt`](crate::CrashAt) wrappers reporting
//! [`Process::crashed`](crate::Process::crashed)) and recovers them
//! one-for-one:
//!
//! 1. **Checkpoint.** The engine periodically captures every hooked
//!    process's [`StateCell`](crate::snapshot::StateCell) (every
//!    [`SupervisorOptions::checkpoint_every`] progress steps), and
//!    journals each process's observations — queue depths, peeks, pops,
//!    RNG draws — and sends since its last captured state.
//! 2. **Restore.** On crash the process's state is reloaded from the
//!    latest checkpoint; hookless processes fall back to
//!    [`Process::reset`](crate::Process::reset) + replay-from-genesis.
//!    The values it consumed since that state are re-queued at the front
//!    of its input channels.
//! 3. **Replay.** The journal is replayed: observations are served back
//!    verbatim, re-executed sends are suppressed (they were already
//!    delivered), and the process deterministically re-reaches exactly
//!    its pre-crash state — even though the rest of the network kept
//!    running. The global trace is untouched by recovery, which is what
//!    makes the invariant hold: a recovered quiescent run still
//!    certifies as [`Verdict::SmoothSolution`](crate::Verdict) of the
//!    *original* description (the paper's Theorem 2 — quiescent traces
//!    are exactly the smooth solutions — makes restart certification
//!    compositional: it suffices that the restarted component's
//!    projected history is unchanged).
//!
//! The same invariant is what lets supervision compose with *online*
//! certification (a [`RunWith`](crate::RunWith) with both a `supervisor`
//! and a `monitor`):
//! the [`SmoothnessMonitor`](crate::monitor::SmoothnessMonitor) observes
//! only *committed* sends from the global trace, and replayed sends are
//! suppressed before commit, so a crash-recovery cycle feeds the monitor
//! nothing — its evaluator states advance exactly as in an uncrashed
//! run, and the differential suite pins that the online verdict equals
//! the post-hoc one across crash schedules. Periodic supervision
//! checkpoints carry the monitor's state
//! ([`Checkpoint::has_monitor`](crate::snapshot::Checkpoint::has_monitor)),
//! so a restored run resumes certification without re-feeding the
//! prefix.
//!
//! Policies cover the classic supervision ladder: immediate one-for-one
//! restart, restart with (doubling, capped) backoff, a per-process
//! max-restart budget, and escalate-to-fail.

use eqp_trace::{Chan, Value};
use std::collections::VecDeque;
use std::fmt;

/// When (and whether) a crashed process is restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart at the end of the round in which the crash was detected.
    OneForOne,
    /// Restart after a backoff that starts at `initial_rounds` and
    /// doubles with each restart of the same process, capped at
    /// `max_rounds`.
    Backoff {
        /// Backoff before the first restart, in scheduler rounds.
        initial_rounds: usize,
        /// Upper bound on the backoff, in scheduler rounds.
        max_rounds: usize,
    },
    /// Never restart: the first crash escalates and fails the run
    /// (`RunStatus::Escalated`).
    Escalate,
}

/// Supervision configuration for a run.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorOptions {
    /// Restart timing policy.
    pub policy: RestartPolicy,
    /// Restarts allowed per process; one more crash escalates.
    pub max_restarts: usize,
    /// Progress steps between periodic checkpoints (also bounds how much
    /// journal a hooked process must replay after a crash).
    pub checkpoint_every: usize,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            policy: RestartPolicy::OneForOne,
            max_restarts: 3,
            checkpoint_every: 32,
        }
    }
}

impl SupervisorOptions {
    /// Immediate one-for-one restarts (the default).
    pub fn one_for_one() -> SupervisorOptions {
        SupervisorOptions::default()
    }

    /// Restart-with-backoff: `initial_rounds` doubling up to `max_rounds`.
    pub fn with_backoff(initial_rounds: usize, max_rounds: usize) -> SupervisorOptions {
        SupervisorOptions {
            policy: RestartPolicy::Backoff {
                initial_rounds,
                max_rounds,
            },
            ..SupervisorOptions::default()
        }
    }

    /// Escalate-to-fail on the first crash.
    pub fn escalate() -> SupervisorOptions {
        SupervisorOptions {
            policy: RestartPolicy::Escalate,
            ..SupervisorOptions::default()
        }
    }

    /// Sets the per-process restart budget.
    pub fn max_restarts(mut self, n: usize) -> SupervisorOptions {
        self.max_restarts = n;
        self
    }

    /// Sets the checkpoint cadence (progress steps).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn checkpoint_every(mut self, every: usize) -> SupervisorOptions {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.checkpoint_every = every;
        self
    }

    /// Backoff (in rounds) before restart number `restart_index`
    /// (0-based), or `None` if the policy escalates instead.
    pub(crate) fn backoff_for(&self, restart_index: usize) -> Option<usize> {
        match self.policy {
            RestartPolicy::OneForOne => Some(0),
            RestartPolicy::Backoff {
                initial_rounds,
                max_rounds,
            } => {
                let doubled = initial_rounds.saturating_shl(restart_index);
                Some(doubled.min(max_rounds))
            }
            RestartPolicy::Escalate => None,
        }
    }
}

/// Saturating left shift (usize::checked_shl works on u32 counts).
trait SaturatingShl {
    fn saturating_shl(self, by: usize) -> usize;
}

impl SaturatingShl for usize {
    fn saturating_shl(self, by: usize) -> usize {
        if self == 0 {
            return 0;
        }
        u32::try_from(by)
            .ok()
            .and_then(|b| self.checked_shl(b))
            .unwrap_or(usize::MAX)
    }
}

/// How a crashed process's state was restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreMethod {
    /// From the latest periodic checkpoint via
    /// [`Process::restore`](crate::Process::restore).
    Snapshot,
    /// Via [`Process::reset`](crate::Process::reset) and a full replay of
    /// the genesis journal (hookless processes).
    ReplayFromGenesis,
}

/// One completed recovery, as reported in
/// [`RunReport::recoveries`](crate::RunReport::recoveries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Name of the recovered process.
    pub process: String,
    /// Global progress-step count when the crash was detected.
    pub crash_step: usize,
    /// Global progress-step count when the restart was performed.
    pub restart_step: usize,
    /// Step count of the checkpoint the state was restored from (0 for
    /// replay-from-genesis).
    pub restored_from_step: usize,
    /// Journal operations armed for replay.
    pub replayed_ops: usize,
    /// How the state came back.
    pub method: RestoreMethod,
}

impl fmt::Display for RecoveryRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` crashed at step {}, restarted at step {} from {} (replaying {} journaled ops)",
            self.process,
            self.crash_step,
            self.restart_step,
            match self.method {
                RestoreMethod::Snapshot =>
                    format!("the step-{} checkpoint", self.restored_from_step),
                RestoreMethod::ReplayFromGenesis => "genesis".to_owned(),
            },
            self.replayed_ops
        )
    }
}

/// One journaled operation: an observation a process made (served back
/// verbatim on replay) or a send it performed (suppressed on replay).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// `available(chan)` returned this depth.
    Available(Chan, usize),
    /// `peek(chan, i)` returned this value.
    Peek(Chan, usize, Option<Value>),
    /// `pop(chan)` returned this value.
    Pop(Chan, Option<Value>),
    /// One raw RNG word drawn through `flip`/`choose`.
    Draw(u64),
    /// `send(chan, value)` was performed.
    Sent(Chan, Value),
}

/// Per-process observation journal since its last captured state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    pub(crate) ops: Vec<Op>,
}

impl Journal {
    /// The values this journal's process successfully popped, in order —
    /// what must be re-queued (per channel, at the front) before replay.
    pub(crate) fn popped(&self) -> Vec<(Chan, Value)> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Pop(c, Some(v)) => Some((*c, *v)),
                _ => None,
            })
            .collect()
    }
}

/// An armed replay: the journal's operations, drained front-to-back as
/// the restored process re-executes.
#[derive(Debug)]
pub(crate) struct Replay {
    pub(crate) ops: VecDeque<Op>,
    /// Set when the restored process performed a different operation than
    /// its journal records — it is not deterministic given its
    /// observations. The replay is abandoned (ops cleared, subsequent
    /// observations go live) and the engine escalates the process at the
    /// end of the step instead of panicking mid-run.
    pub(crate) diverged: Option<String>,
}

impl Replay {
    pub(crate) fn from_journal(journal: &Journal) -> Replay {
        Replay {
            ops: journal.ops.iter().cloned().collect(),
            diverged: None,
        }
    }

    /// Values still to be re-consumed from queue fronts — what a
    /// *second* crash during replay must drain before re-queueing the
    /// full journal again.
    pub(crate) fn pending_pops(&self) -> Vec<(Chan, Value)> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Pop(c, Some(v)) => Some((*c, *v)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let opts = SupervisorOptions::with_backoff(1, 6);
        assert_eq!(opts.backoff_for(0), Some(1));
        assert_eq!(opts.backoff_for(1), Some(2));
        assert_eq!(opts.backoff_for(2), Some(4));
        assert_eq!(opts.backoff_for(3), Some(6)); // capped
        assert_eq!(opts.backoff_for(200), Some(6)); // shift saturates
    }

    #[test]
    fn one_for_one_is_immediate_and_escalate_refuses() {
        assert_eq!(SupervisorOptions::one_for_one().backoff_for(5), Some(0));
        assert_eq!(SupervisorOptions::escalate().backoff_for(0), None);
    }

    #[test]
    fn zero_initial_backoff_stays_zero() {
        let opts = SupervisorOptions::with_backoff(0, 8);
        assert_eq!(opts.backoff_for(4), Some(0));
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn zero_checkpoint_cadence_rejected() {
        let _ = SupervisorOptions::default().checkpoint_every(0);
    }

    #[test]
    fn journal_popped_extracts_in_order() {
        let c = Chan::new(1);
        let d = Chan::new(2);
        let j = Journal {
            ops: vec![
                Op::Available(c, 2),
                Op::Pop(c, Some(Value::Int(1))),
                Op::Pop(d, None),
                Op::Sent(d, Value::Int(9)),
                Op::Pop(c, Some(Value::Int(2))),
            ],
        };
        assert_eq!(j.popped(), vec![(c, Value::Int(1)), (c, Value::Int(2))]);
        let r = Replay::from_journal(&j);
        assert_eq!(r.ops.len(), 5);
        assert_eq!(r.pending_pops().len(), 2);
    }

    #[test]
    fn recovery_record_displays_both_methods() {
        let rec = RecoveryRecord {
            process: "merge".into(),
            crash_step: 7,
            restart_step: 9,
            restored_from_step: 4,
            replayed_ops: 11,
            method: RestoreMethod::Snapshot,
        };
        let s = rec.to_string();
        assert!(s.contains("step-4 checkpoint") && s.contains("11 journaled ops"));
        let rec = RecoveryRecord {
            method: RestoreMethod::ReplayFromGenesis,
            ..rec
        };
        assert!(rec.to_string().contains("genesis"));
    }
}
