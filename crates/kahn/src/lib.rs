//! An operational Kahn-style dataflow network simulator.
//!
//! The paper's central semantic claim is an *adequacy* statement: the
//! smooth solutions of a network's description are exactly the traces of
//! its computations. Checking that claim needs an operational side — a
//! machine that actually runs message-communicating processes. This crate
//! is that machine:
//!
//! * [`Process`] — a state machine with input and output channels that
//!   consumes queued messages and produces sends.
//! * [`Network`] — processes wired by unbounded FIFO channels, with every
//!   send recorded in a global [`Trace`] (the paper's communication
//!   history: sends only, Section 3.1.1). [`Network::run_with`] runs it
//!   with any combination of [`RunWith`] attachments (online monitor,
//!   faults, reliable links, supervisor, checkpoint capture);
//!   [`Network::resume`] continues a captured [`Checkpoint`].
//! * [`Scheduler`] — pluggable nondeterminism: round-robin, seeded-random,
//!   and adversarial (skews towards starving late processes) schedulers.
//!   Every schedule of a Kahn network produces a trace whose projections
//!   are component histories; at quiescence the trace must satisfy the
//!   network description's smooth-solution conditions.
//! * [`procs`] — a standard library of small processes (sources, pointwise
//!   maps, copies, prefixers, oracle-driven merges) from which the paper's
//!   networks are assembled in `eqp-processes`.
//! * **Quiescence detection** — a run ends when no process can make
//!   progress (Section 3.1.1's "quiescent trace"), or at a step bound for
//!   networks that never quiesce (Ticks). Hitting the bound probes one
//!   zero-cost round, so quiescing in exactly `max_steps` steps is still
//!   reported as quiescence.
//! * [`conformance`] — the operational ⇄ denotational bridge: any run can
//!   be checked against the network's `Description` via
//!   `eqp_core::diagnose` — quiescent runs must be smooth *solutions*,
//!   cut runs smooth *prefixes*, and any deviation names the failing
//!   component equation.
//! * [`RunReport`] — structured run telemetry: per-process progress/idle
//!   and starvation streaks, per-channel send counts and queue high-water
//!   marks, runtime single-consumer violations, and a bottleneck summary.
//! * [`faults`] — fault injection: delay/reorder/duplicate/drop channel
//!   links and crash-at-step-K wrappers, for demonstrating which
//!   perturbations preserve smooth solutions (delay) and which break the
//!   limit condition (drop, duplicate — caught by the conformance
//!   bridge). Every injected event is named in the run's fault log.
//! * [`snapshot`] / [`supervisor`] — the checkpointed supervision runtime:
//!   [`Checkpoint`]s capture the full network state (queues, trace, RNG,
//!   per-process state via [`Process::snapshot`] hooks), and
//!   [`SupervisorOptions`] configures crash recovery — restore from the
//!   latest checkpoint or replay the observation journal from genesis,
//!   with one-for-one / backoff / escalate restart policies. The recovery
//!   invariant is Theorem 2's: a recovered quiescent run still certifies
//!   as a smooth *solution* of the original description.
//! * [`chaos`] — a seeded chaos harness: samples random fault schedules
//!   (crash points × link faults), classifies each run through the
//!   conformance bridge, and shrinks any conviction to a minimal
//!   reproducer via delta debugging.
//! * [`reliable`] — ARQ reliable transport over lossy links:
//!   sequence-numbered frames, cumulative acks, deterministic
//!   exponential-backoff retransmission with a retry budget, and a
//!   receive-side dedup/reorder window. The composite
//!   sender→lossy-channel→receiver is equationally the *identity*
//!   description, so drop/duplicate/reorder schedules that PR 2's oracle
//!   convicts certify as smooth solutions once the link is
//!   reliable-wrapped; budget exhaustion degrades to a named
//!   [`RunStatus::ReliabilityExhausted`] / `Verdict::Degraded` outcome
//!   instead of hanging.
//! * **Bounded channels** — [`RunOptions::channel_capacity`] bounds every
//!   consumed channel with credit-based backpressure
//!   ([`OverflowPolicy::Block`] rolls a blocked step back so
//!   backpressure is purely a scheduler restriction) or load shedding
//!   ([`OverflowPolicy::Shed`]), plus a round deadline for overload
//!   runs. Every quiescent bounded run certifies identically to the
//!   unbounded run.
//! * **Sketch telemetry + zero-copy durable images** —
//!   [`RunReport::sketches`] carries fixed-memory mergeable summaries
//!   (queue-depth/message-wait quantiles, heavy-hitter channels,
//!   distinct-value estimate; [`TelemetrySketches`]) captured inline at
//!   a gated ≤5% cost, accumulated through checkpoint resume, and
//!   merged fleet-wide by `eqpd`. Checkpoint images (wire v2) validate
//!   and resume through the borrowing [`CheckpointView`] — full
//!   structural certification with zero decode allocation, then a
//!   single materializing walk moved into the engine by
//!   [`Network::resume`].
//!
//! # Example
//!
//! ```
//! use eqp_kahn::{Network, RunOptions, procs};
//! use eqp_trace::{Chan, Value};
//!
//! // A source feeding a doubling process: c carries 1 2 3, d = 2×c.
//! let (c, d) = (Chan::new(0), Chan::new(1));
//! let mut net = Network::new();
//! net.add(procs::Source::new("env", c, [Value::Int(1), Value::Int(2), Value::Int(3)]));
//! net.add(procs::Apply::int_affine("double", c, d, 2, 0));
//! let run = net.run(&mut eqp_kahn::RoundRobin::new(), RunOptions::default());
//! assert!(run.quiescent);
//! assert_eq!(run.trace.seq_on(d).take(3), vec![Value::Int(2), Value::Int(4), Value::Int(6)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod chanmap;
pub mod chaos;
pub mod conformance;
pub mod described;
pub mod faults;
pub mod monitor;
pub mod network;
pub mod oracle;
pub mod process;
pub mod procs;
pub mod reliable;
pub mod report;
pub mod scheduler;
pub mod snapshot;
pub mod supervisor;
pub mod wire;

pub use chaos::{
    ChaosOptions, ChaosReport, Conviction, Scenario, SchedulerChoice, ShrinkResult, Trial,
};
pub use conformance::{Conformance, ConformanceOptions, Verdict};
pub use described::{ExprProc, FilterStep};
pub use faults::{
    CrashAt, CrashPoint, Fault, FaultEvent, FaultKind, FaultSchedule, FaultyLink, LinkFaultSpec,
};
pub use monitor::{MonitorPolicy, SmoothnessMonitor};
pub use network::{
    DrainedError, Network, OverflowPolicy, RunOptions, RunOutcome, RunResult, RunWith,
};
pub use oracle::Oracle;
pub use process::{Process, StepCtx, StepResult};
pub use reliable::{ArqOptions, ReliableConfig};
pub use report::{
    ChannelReport, ConsumerViolation, FaultRecord, ProcessReport, RunReport, RunStatus,
};
pub use scheduler::{Adversarial, RandomSched, RoundRobin, Scheduler};
pub use snapshot::{Checkpoint, SnapshotError, StateCell};
pub use supervisor::{RecoveryRecord, RestartPolicy, RestoreMethod, SupervisorOptions};
pub use wire::{decode_checkpoint, encode_checkpoint, CheckpointView, WireError};

pub use eqp_sketch::{SketchStats, TelemetrySketches};
pub use eqp_trace::Trace;
