//! Checkpointing: capture the full state of a running network and restore
//! it — into the same network, or into a freshly built identical one.
//!
//! The paper's Theorem 2 makes recovery *certifiable*: a network's
//! quiescent traces are exactly the smooth solutions of its description,
//! so any recovery mechanism that preserves the trace (and the process
//! states that will extend it) preserves the semantics — the recovered
//! run still certifies under [`crate::conformance`]. This module supplies
//! the mechanism:
//!
//! * [`StateCell`] — a small algebraic encoding of mutable process (and
//!   scheduler) state. Processes expose their state through
//!   [`Process::snapshot`](crate::Process::snapshot) /
//!   [`Process::restore`](crate::Process::restore); the cell only carries
//!   what *changes* over a run (positions, buffers, RNG states), never
//!   construction-time constants — restore therefore targets an
//!   identically constructed process.
//! * [`Checkpoint`] — everything a run is: channel queues, the trace so
//!   far, the shared RNG, telemetry meters, per-process counters and
//!   state cells, scheduler state, and the position inside the current
//!   scheduling round. Capturing at step `k` and resuming yields a run
//!   byte-identical to the uninterrupted one (trace *and* report meters)
//!   — the property suite `tests/checkpoint_resume.rs` proves it across
//!   the zoo × all three schedulers.
//!
//! The supervisor ([`crate::supervisor`]) uses per-process cells from
//! periodic checkpoints to restore crashed components one-for-one,
//! replaying their journaled inputs and RNG draws since the checkpoint.

use crate::chanmap::ChanMap;
use crate::report::Telemetry;
use crate::scheduler::Scheduler;
use eqp_trace::{Event, Value};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::fmt;

/// A small algebraic encoding of mutable run state.
///
/// Only *mutable* state belongs in a cell: a process's message buffers,
/// sequence positions, halted flags, private RNGs. Construction-time
/// constants (channel wiring, periods, schedules) are supplied by
/// rebuilding the process identically, so restore is meaningful exactly
/// when applied to a process constructed with the same parameters.
#[derive(Debug, Clone)]
pub enum StateCell {
    /// No mutable state (stateless processes).
    Unit,
    /// A boolean flag (halted, primed, …).
    Flag(bool),
    /// An unsigned counter or position.
    Nat(u64),
    /// A signed quantity.
    Int(i64),
    /// A single buffered value.
    Value(Value),
    /// An ordered buffer of values.
    Values(Vec<Value>),
    /// A list of unsigned values (orderings, fuel vectors, …).
    Nats(Vec<u64>),
    /// A private RNG mid-stream.
    Rng(StdRng),
    /// A composite of nested cells, in a fixed positional layout.
    List(Vec<StateCell>),
}

impl StateCell {
    /// The flag, if this cell is one.
    pub fn as_flag(&self) -> Option<bool> {
        match self {
            StateCell::Flag(b) => Some(*b),
            _ => None,
        }
    }

    /// The counter, if this cell is one.
    pub fn as_nat(&self) -> Option<u64> {
        match self {
            StateCell::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// The signed value, if this cell is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            StateCell::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value buffer, if this cell is one.
    pub fn as_values(&self) -> Option<&[Value]> {
        match self {
            StateCell::Values(vs) => Some(vs),
            _ => None,
        }
    }

    /// The nat list, if this cell is one.
    pub fn as_nats(&self) -> Option<&[u64]> {
        match self {
            StateCell::Nats(ns) => Some(ns),
            _ => None,
        }
    }

    /// The RNG, if this cell is one.
    pub fn as_rng(&self) -> Option<&StdRng> {
        match self {
            StateCell::Rng(r) => Some(r),
            _ => None,
        }
    }

    /// The sub-cells, if this cell is a composite.
    pub fn as_list(&self) -> Option<&[StateCell]> {
        match self {
            StateCell::List(cells) => Some(cells),
            _ => None,
        }
    }
}

/// Why a checkpoint could not be captured or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A process has no snapshot hook (its
    /// [`Process::snapshot`](crate::Process::snapshot) returns `None`),
    /// so its state cannot be
    /// captured or restored directly. The supervisor falls back to
    /// replay-from-genesis for such processes; whole-run checkpointing
    /// cannot.
    UnsupportedProcess {
        /// Index of the hookless process.
        index: usize,
        /// Its diagnostic name.
        name: String,
    },
    /// A process rejected the state cell offered to it (wrong shape —
    /// the checkpoint was taken from a differently built network).
    RestoreRejected {
        /// Index of the rejecting process.
        index: usize,
        /// Its diagnostic name.
        name: String,
    },
    /// The checkpoint holds state for a different number of processes.
    ArityMismatch {
        /// Processes in the checkpoint.
        expected: usize,
        /// Processes in the network being restored.
        found: usize,
    },
    /// The scheduler could not capture or restore its state.
    SchedulerUnsupported,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedProcess { index, name } => write!(
                f,
                "process {index} (`{name}`) has no snapshot hook; its state cannot be captured"
            ),
            SnapshotError::RestoreRejected { index, name } => write!(
                f,
                "process {index} (`{name}`) rejected the checkpointed state cell \
                 (was the checkpoint taken from an identically built network?)"
            ),
            SnapshotError::ArityMismatch { expected, found } => write!(
                f,
                "checkpoint holds {expected} process states but the network has {found} processes"
            ),
            SnapshotError::SchedulerUnsupported => {
                write!(f, "the scheduler does not support snapshot/restore")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A full capture of a run in flight: restore it into an identically
/// built network (and scheduler) and the resumed run is byte-identical —
/// trace and report meters — to the uninterrupted one.
///
/// Obtained from [`Network::run_with`](crate::Network::run_with) with
/// [`RunWith::checkpoint_at`](crate::RunWith::checkpoint_at) set;
/// consumed by [`Network::resume`](crate::Network::resume).
#[derive(Clone)]
pub struct Checkpoint {
    /// Progress steps completed at capture time.
    pub(crate) steps: usize,
    /// Scheduler rounds completed at capture time.
    pub(crate) rounds: usize,
    /// Channel queue contents.
    pub(crate) queues: ChanMap<VecDeque<Value>>,
    /// The trace so far.
    pub(crate) trace: Vec<Event>,
    /// The shared nondeterminism RNG mid-stream.
    pub(crate) rng: StdRng,
    /// Telemetry meters so far.
    pub(crate) telemetry: Telemetry,
    /// Per-process progress/idle/starvation counters.
    pub(crate) counters: Vec<crate::network::ProcCounters>,
    /// Per-process state cells (`None` for hookless processes — such a
    /// checkpoint supports supervisor fallback but not whole-run resume).
    pub(crate) processes: Vec<Option<StateCell>>,
    /// Scheduler state, if the scheduler supports snapshotting.
    pub(crate) scheduler: Option<StateCell>,
    /// Unstepped process indices remaining in the scheduling round that
    /// was in flight at capture time.
    pub(crate) pending_round: VecDeque<usize>,
    /// Whether any process had already progressed in that round.
    pub(crate) round_progressed: bool,
    /// The online smoothness monitor's evaluator state (monitored runs
    /// only). The engine drains committed sends into the monitor *before*
    /// any capture, so the monitor here has observed exactly `trace` and
    /// a resumed run re-certifies without re-feeding the prefix.
    pub(crate) monitor: Option<crate::monitor::SmoothnessMonitor>,
}

impl Checkpoint {
    /// Progress steps completed when the checkpoint was captured.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Trace length (events recorded) at capture time.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Number of processes whose state was captured through a hook.
    pub fn hooked_processes(&self) -> usize {
        self.processes.iter().filter(|c| c.is_some()).count()
    }

    /// True iff every process state was captured — required for
    /// whole-run [`resume`](crate::Network::resume).
    pub fn is_complete(&self) -> bool {
        self.processes.iter().all(|c| c.is_some()) && self.scheduler.is_some()
    }

    /// The state cell captured for process `i`, if hooked.
    pub fn process_state(&self, i: usize) -> Option<&StateCell> {
        self.processes.get(i).and_then(|c| c.as_ref())
    }

    /// True iff the checkpoint carries online-monitor state (captured
    /// from a monitored run), so that its
    /// [`resume`](crate::Network::resume) continues certification.
    pub fn has_monitor(&self) -> bool {
        self.monitor.is_some()
    }

    /// A deterministic digest of the *entire* capture — steps, rounds,
    /// queues (in channel order), trace, RNG, telemetry, counters,
    /// process cells, scheduler cell, and round position. Two
    /// checkpoints with equal fingerprints captured byte-identical run
    /// states; the wire codec tests use this to assert that encoding
    /// and decoding lose nothing.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.steps.hash(&mut h);
        self.rounds.hash(&mut h);
        let mut chans: Vec<_> = self.queues.iter().collect();
        chans.sort_by_key(|(c, _)| **c);
        for (c, q) in chans {
            format!("{c:?}:{q:?}").hash(&mut h);
        }
        format!("{:?}", self.trace).hash(&mut h);
        format!("{:?}", self.rng).hash(&mut h);
        format!("{:?}", self.telemetry).hash(&mut h);
        format!("{:?}", self.counters).hash(&mut h);
        format!("{:?}", self.processes).hash(&mut h);
        format!("{:?}", self.scheduler).hash(&mut h);
        format!("{:?}", self.pending_round).hash(&mut h);
        self.round_progressed.hash(&mut h);
        self.monitor.is_some().hash(&mut h);
        h.finish()
    }

    /// Restores scheduler state into `sched`.
    pub(crate) fn restore_scheduler(&self, sched: &mut dyn Scheduler) -> Result<(), SnapshotError> {
        match &self.scheduler {
            Some(cell) if sched.restore(cell) => Ok(()),
            _ => Err(SnapshotError::SchedulerUnsupported),
        }
    }
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("steps", &self.steps)
            .field("rounds", &self.rounds)
            .field("trace_len", &self.trace.len())
            .field("hooked", &self.hooked_processes())
            .field("total", &self.processes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_accessors_roundtrip() {
        assert_eq!(StateCell::Flag(true).as_flag(), Some(true));
        assert_eq!(StateCell::Nat(7).as_nat(), Some(7));
        assert_eq!(StateCell::Int(-3).as_int(), Some(-3));
        assert_eq!(
            StateCell::Values(vec![Value::Int(1)]).as_values(),
            Some(&[Value::Int(1)][..])
        );
        assert_eq!(StateCell::Nats(vec![2, 3]).as_nats(), Some(&[2, 3][..]));
        let list = StateCell::List(vec![StateCell::Unit, StateCell::Nat(1)]);
        assert_eq!(list.as_list().map(<[_]>::len), Some(2));
        // mismatched accessors return None
        assert_eq!(StateCell::Unit.as_flag(), None);
        assert_eq!(StateCell::Flag(false).as_nat(), None);
    }

    #[test]
    fn snapshot_errors_display() {
        let e = SnapshotError::UnsupportedProcess {
            index: 2,
            name: "B".into(),
        };
        assert!(e.to_string().contains("no snapshot hook"));
        let e = SnapshotError::ArityMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("3"));
        assert!(SnapshotError::SchedulerUnsupported
            .to_string()
            .contains("scheduler"));
    }
}
