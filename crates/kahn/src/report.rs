//! Structured run telemetry: what each process and channel did during a
//! run, who the bottleneck was, whether the single-consumer discipline
//! held at runtime, which faults were injected, and how crashed
//! processes were recovered.
//!
//! [`RunReport`] extends the minimal [`RunResult`]
//! (trace + status + step count) with per-process progress/idle
//! counters, starvation streaks (a process repeatedly offered a step
//! while input waits on one of its declared channels, yet reporting
//! idle), crash flags and restart counts, per-channel send/receive
//! counts and queue-depth high-water marks, runtime-detected
//! single-consumer violations, the [`fault_log`](RunReport::fault_log)
//! of injected perturbations, and the supervisor's
//! [`recoveries`](RunReport::recoveries) — the operational observability
//! layer the paper's quiescent-trace semantics leaves implicit.

use crate::chanmap::{ascending, ChanMap};
use crate::faults::FaultEvent;
use crate::network::RunResult;
use crate::process::FlowTxn;
use crate::supervisor::RecoveryRecord;
use eqp_sketch::{splitmix64, SketchConfig, SketchStats, TelemetrySketches};
use eqp_trace::{Chan, Trace, Value};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::fmt;

/// A cheap, well-mixed 64-bit hash of a [`Value`] for the distinct-value
/// hyperloglog — one or two `splitmix64` rounds, no allocation, safe for
/// the engine hot loop.
pub(crate) fn value_hash(v: Value) -> u64 {
    match v {
        Value::Int(n) => splitmix64(0x496e_7456 ^ (n as u64)),
        Value::Bit(b) => splitmix64(0x4269_7456 ^ u64::from(b)),
        Value::Pair(t, n) => splitmix64(splitmix64(0x5061_6972 ^ u64::from(t)) ^ (n as u64)),
    }
}

/// Distinct-value sampling exponent for the capture layer: the HLL sees
/// a deterministic 1-in-`2^5` partition of the value space, and
/// [`TelemetrySketches::stats`] scales the estimate back by `2^5`. The
/// ≤5% capture budget is what forces sampling here — a full `splitmix64`
/// plus an HLL register probe on *every* send is a measurable fraction
/// of an engine step all by itself.
pub(crate) const VALUE_SAMPLE_LOG2: u8 = 5;

/// Quantile sampling period (log2) for the capture layer: the
/// queue-depth and latency sketches observe one message in
/// `2^QUANTILE_SAMPLE_LOG2`, keyed on the per-channel enqueue index (see
/// [`Telemetry::note_send`]). Dialing this up is the main lever on
/// capture overhead — each sampled send pays a stamp push plus a sketch
/// insert, each sampled pop a stamp pop plus an insert, and everything
/// unsampled pays one masked compare.
pub(crate) const QUANTILE_SAMPLE_LOG2: u32 = 5;

/// `2^QUANTILE_SAMPLE_LOG2 - 1`, the enqueue-index mask.
pub(crate) const QUANTILE_SAMPLE_MASK: u64 = (1 << QUANTILE_SAMPLE_LOG2) - 1;

/// Whether `v` falls in the sampled 1-in-`2^VALUE_SAMPLE_LOG2` value
/// partition. Deliberately cheaper than [`value_hash`] — one multiply
/// and a shift (Fibonacci hashing) — so the unsampled sends pay almost
/// nothing; only sampled values pay the full hash. A pure function of
/// the value, so every backend partitions identically.
#[inline]
pub(crate) fn value_sampled(v: Value) -> bool {
    let key = match v {
        Value::Int(n) => n as u64,
        Value::Bit(b) => u64::from(b),
        Value::Pair(t, n) => (n as u64) ^ (u64::from(t) << 56),
    };
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - VALUE_SAMPLE_LOG2 as u32) == 0
}

/// A fresh sketch block configured for engine capture (the workspace
/// default footprint plus the distinct-value sampling exponent).
pub(crate) fn capture_sketches() -> Box<TelemetrySketches> {
    Box::new(TelemetrySketches::new(SketchConfig {
        value_sample_log2: VALUE_SAMPLE_LOG2,
        quantile_bits: 5,
        ..SketchConfig::default()
    }))
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The network quiesced: no process could make further progress (the
    /// step bound is probed, so a network that quiesces in exactly
    /// `max_steps` steps still counts).
    Quiescent,
    /// The step bound cut the run short.
    BudgetExhausted,
    /// The step bound fired while at least one crashed process was still
    /// awaiting or performing recovery — the run is *not* a truncated
    /// quiescent prefix of the original network (part of its history is
    /// simply missing), so conformance prefix checks against it would be
    /// misleading.
    BudgetExhaustedDuringRecovery,
    /// A crash escalated: the policy forbids restarts, the process
    /// exceeded its restart budget, or its state could not be restored.
    Escalated {
        /// Name of the process whose crash escalated.
        process: String,
    },
    /// A reliable link ([`crate::reliable`]) exhausted its retransmission
    /// budget and degraded: the undelivered tail on the named link was
    /// abandoned, so the run terminated cleanly but its history is a
    /// *prefix* of the masked network's, not a complete solution. The
    /// conformance bridge maps this status to
    /// [`Verdict::Degraded`](crate::Verdict).
    ReliabilityExhausted {
        /// Diagnostic name of the exhausted link (`arq@<chan>`).
        link: String,
    },
    /// Flow-control deadlock under bounded channels
    /// ([`RunOptions::channel_capacity`](crate::RunOptions)): a full
    /// round passed in which no process progressed but at least one was
    /// blocked trying to send on a full channel — the network can never
    /// drain itself.
    Backpressured {
        /// Name of a blocked process (the first observed in the final
        /// round).
        process: String,
        /// The full channel it was blocked on.
        chan: Chan,
    },
    /// The round deadline
    /// ([`RunOptions::deadline_rounds`](crate::RunOptions)) expired
    /// before quiescence — the overload-run exit for networks throttled
    /// below their offered load.
    DeadlineExpired,
    /// The online [`SmoothnessMonitor`](crate::monitor::SmoothnessMonitor)
    /// observed a smoothness violation under
    /// [`MonitorPolicy::AbortOnViolation`](crate::monitor::MonitorPolicy)
    /// and halted the run at the offending step — no point running to the
    /// step bound once the trace is convicted.
    MonitorAborted {
        /// Index of the convicted component equation.
        component: usize,
    },
}

impl RunStatus {
    /// True iff the run quiesced.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunStatus::Quiescent)
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Quiescent => f.write_str("quiescent"),
            RunStatus::BudgetExhausted => f.write_str("step bound hit"),
            RunStatus::BudgetExhaustedDuringRecovery => f.write_str("step bound hit mid-recovery"),
            RunStatus::Escalated { process } => {
                write!(f, "escalated (`{process}` crashed and was not recovered)")
            }
            RunStatus::ReliabilityExhausted { link } => {
                write!(f, "degraded (`{link}` exhausted its retry budget)")
            }
            RunStatus::Backpressured { process, chan } => {
                write!(
                    f,
                    "backpressured (`{process}` blocked on full channel {chan})"
                )
            }
            RunStatus::DeadlineExpired => f.write_str("round deadline expired"),
            RunStatus::MonitorAborted { component } => {
                write!(
                    f,
                    "monitor aborted (smoothness violation in component {component})"
                )
            }
        }
    }
}

/// One injected fault event attributed to its source — a
/// [`FaultyLink`](crate::FaultyLink) process by name, or an
/// engine-interposed link from a chaos
/// [`FaultSchedule`](crate::faults::FaultSchedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Diagnostic name of the injector (process name, or `link@<chan>`
    /// for engine-interposed links).
    pub source: String,
    /// What was injected.
    pub event: FaultEvent,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by `{}`", self.event, self.source)
    }
}

/// Telemetry for one process over a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessReport {
    /// The process's diagnostic name.
    pub name: String,
    /// Steps in which the process made progress.
    pub progress: usize,
    /// Steps in which the process was offered a turn but stayed idle.
    pub idle: usize,
    /// Longest streak of consecutive rounds the process stayed idle
    /// *while at least one of its declared input channels had messages
    /// waiting* — the operational signature of starvation. Processes
    /// that declare no [`inputs`](crate::Process::inputs) always report
    /// zero.
    pub max_starved_rounds: usize,
    /// True iff the process ended the run crashed (reported by
    /// [`Process::crashed`](crate::Process::crashed) or killed by an
    /// engine [`CrashPoint`](crate::faults::CrashPoint) and never
    /// restarted) — distinguishing a dead process from a merely starved
    /// or finished one.
    pub crashed: bool,
    /// Times the supervisor restarted this process.
    pub restarts: usize,
    /// Steps refused (and rolled back) because the process tried to send
    /// on a channel that was at capacity
    /// ([`RunOptions::channel_capacity`](crate::RunOptions)). Always zero
    /// in unbounded runs. Distinct from [`idle`](ProcessReport::idle):
    /// a send-blocked process had work to do and was flow-controlled,
    /// not waiting for input.
    pub send_blocked: usize,
    /// Longest streak of consecutive rounds the process spent blocked on
    /// a full channel — the backpressure analogue of
    /// [`max_starved_rounds`](ProcessReport::max_starved_rounds).
    pub max_blocked_rounds: usize,
}

/// Telemetry for one channel over a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReport {
    /// The channel.
    pub chan: Chan,
    /// Messages sent on the channel (including faulty duplicates).
    pub sends: usize,
    /// Messages consumed from the channel via [`pop`](crate::StepCtx::pop).
    pub receives: usize,
    /// Highest queue depth observed immediately after a send or preload.
    pub high_water: usize,
    /// Messages still queued when the run ended (sent or preloaded but
    /// never consumed).
    pub residual: usize,
    /// Name of the first process that read (popped or peeked) the
    /// channel, if any.
    pub consumer: Option<String>,
    /// Capacity bound enforced on the channel, if the run was bounded and
    /// the channel was managed (declared as some process's input).
    /// `high_water` never exceeds this.
    pub capacity: Option<usize>,
    /// Send attempts refused because the channel was at capacity (the
    /// sender's step was rolled back and retried later).
    pub blocked_sends: usize,
    /// Messages discarded at capacity under
    /// [`OverflowPolicy::Shed`](crate::OverflowPolicy).
    pub shed: usize,
}

/// A runtime single-consumer violation: two distinct processes read the
/// same channel. Kahn determinism is void once this happens — the second
/// reader steals messages the first one's history depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumerViolation {
    /// The channel read by two processes.
    pub chan: Chan,
    /// Name of the first reader.
    pub first: String,
    /// Name of the offending second reader.
    pub second: String,
}

impl fmt::Display for ConsumerViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "channel {} consumed by both `{}` and `{}`",
            self.chan, self.first, self.second
        )
    }
}

/// The full structured result of a network run: the [`RunResult`] fields
/// plus per-process and per-channel telemetry, injected faults, and
/// recoveries.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The communication history: every send, in global order.
    pub trace: Trace,
    /// True iff the network quiesced — the boolean view of
    /// [`status`](RunReport::status), kept for ergonomic checks.
    pub quiescent: bool,
    /// How the run ended.
    pub status: RunStatus,
    /// Progress-making steps performed.
    pub steps: usize,
    /// Scheduler rounds completed.
    pub rounds: usize,
    /// Per-process telemetry, in network insertion order.
    pub processes: Vec<ProcessReport>,
    /// Per-channel telemetry, ordered by channel id.
    pub channels: Vec<ChannelReport>,
    /// Runtime single-consumer violations, in detection order (at most
    /// one per ordered reader pair per channel).
    pub consumer_violations: Vec<ConsumerViolation>,
    /// Every injected fault event, in injection order, attributed to its
    /// source.
    pub faults: Vec<FaultRecord>,
    /// Every completed supervisor recovery, in completion order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Mergeable telemetry sketches accumulated inline during the run
    /// (queue-depth and latency quantiles, heavy-hitter channels,
    /// distinct-value cardinality). `None` iff sketch capture was
    /// disabled via [`RunOptions::sketches`](crate::RunOptions).
    /// Summaries from separate runs or resumed segments merge
    /// exactly ([`TelemetrySketches::merge`]).
    pub sketches: Option<TelemetrySketches>,
}

impl RunReport {
    /// Collapses the report into the minimal [`RunResult`].
    pub fn into_result(self) -> RunResult {
        RunResult {
            trace: self.trace,
            quiescent: self.quiescent,
            status: self.status,
            steps: self.steps,
        }
    }

    /// The minimal [`RunResult`] view (cloning the trace).
    pub fn result(&self) -> RunResult {
        RunResult {
            trace: self.trace.clone(),
            quiescent: self.quiescent,
            status: self.status.clone(),
            steps: self.steps,
        }
    }

    /// Telemetry for channel `c`, if it ever carried or queued a message.
    pub fn channel(&self, c: Chan) -> Option<&ChannelReport> {
        self.channels.iter().find(|r| r.chan == c)
    }

    /// Processes starved for at least `rounds` consecutive rounds.
    pub fn starved(&self, rounds: usize) -> Vec<&ProcessReport> {
        self.processes
            .iter()
            .filter(|p| p.max_starved_rounds >= rounds)
            .collect()
    }

    /// Every injected fault event, in injection order — a convicting run
    /// names the exact perturbations alongside the violated equation.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// The bottleneck: among processes that idled with input waiting
    /// (starved) or were refused sends on a full channel (send-blocked),
    /// crashed ones first (a dead process with queued input *is* the
    /// blockage), then the longest starvation-or-blocked streak, ties
    /// broken towards more idle steps. `None` when no process was ever
    /// starved or flow-controlled — an idle process without waiting input
    /// is merely done, not stuck. A flow-controlled producer is reported
    /// as *send-blocked*, never misfiled as idle/starved.
    pub fn bottleneck(&self) -> Option<&ProcessReport> {
        self.processes
            .iter()
            .filter(|p| p.max_starved_rounds > 0 || p.max_blocked_rounds > 0)
            .max_by_key(|p| {
                (
                    p.crashed,
                    p.max_starved_rounds.max(p.max_blocked_rounds),
                    p.idle,
                )
            })
    }

    /// True iff no runtime single-consumer violation was observed.
    pub fn single_consumer_ok(&self) -> bool {
        self.consumer_violations.is_empty()
    }

    /// Sketch-derived summary statistics (p50/p99 queue depth and
    /// latency, heavy-hitter channels, distinct-value estimate), if
    /// sketch capture was enabled and observed at least one event.
    /// Complements the exact per-channel meters: the meters give exact
    /// totals and high-water marks, the sketches give the distribution
    /// between those extremes — and, unlike the meters, merge exactly
    /// across resumed segments and fleet members.
    pub fn sketch_stats(&self) -> Option<SketchStats> {
        self.sketches
            .as_ref()
            .filter(|s| !s.is_empty())
            .map(TelemetrySketches::stats)
    }

    /// The heaviest-traffic channels according to the heavy-hitter
    /// sketch, as `(Chan, approximate send count)` pairs, heaviest first.
    /// Empty when sketches are disabled or nothing was sent.
    pub fn top_channels(&self, k: usize) -> Vec<(Chan, u64)> {
        self.sketches
            .as_ref()
            .map(|s| {
                s.channel_traffic
                    .top(k)
                    .into_iter()
                    .filter_map(|(key, cnt)| u32::try_from(key).ok().map(|i| (Chan::new(i), cnt)))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: {} after {} steps in {} rounds",
            self.status, self.steps, self.rounds
        )?;
        for p in &self.processes {
            write!(
                f,
                "  process `{}`: {} progress / {} idle",
                p.name, p.progress, p.idle
            )?;
            if p.max_starved_rounds > 0 {
                write!(f, " (starved ≤ {} rounds)", p.max_starved_rounds)?;
            }
            if p.send_blocked > 0 {
                write!(
                    f,
                    " (send-blocked {}× ≤ {} rounds)",
                    p.send_blocked, p.max_blocked_rounds
                )?;
            }
            if p.restarts > 0 {
                write!(f, " (restarted {}×)", p.restarts)?;
            }
            if p.crashed {
                write!(f, " [CRASHED]")?;
            }
            writeln!(f)?;
        }
        for c in &self.channels {
            write!(
                f,
                "  channel {}: {} sent / {} received, high-water {}, residual {}",
                c.chan, c.sends, c.receives, c.high_water, c.residual
            )?;
            if let Some(cap) = c.capacity {
                write!(f, ", capacity {cap}")?;
            }
            if c.blocked_sends > 0 {
                write!(f, ", {} blocked sends", c.blocked_sends)?;
            }
            if c.shed > 0 {
                write!(f, ", {} shed", c.shed)?;
            }
            match &c.consumer {
                Some(name) => writeln!(f, ", consumer `{name}`")?,
                None => writeln!(f, ", no consumer")?,
            }
        }
        if let Some(stats) = self.sketch_stats() {
            writeln!(
                f,
                "  sketches: depth p50 {} / p99 {}, latency p50 {} / p99 {} rounds, ~{} distinct values over {} events",
                stats.depth_p50,
                stats.depth_p99,
                stats.latency_p50,
                stats.latency_p99,
                stats.distinct_values,
                stats.events
            )?;
            let top = self.top_channels(3);
            if !top.is_empty() {
                write!(f, "  heavy hitters:")?;
                for (i, (c, cnt)) in top.iter().enumerate() {
                    let sep = if i == 0 { " " } else { ", " };
                    write!(f, "{sep}{c} (~{cnt} sends)")?;
                }
                writeln!(f)?;
            }
        }
        match self.bottleneck() {
            Some(p) if p.crashed => writeln!(
                f,
                "  bottleneck: `{}` crashed with input waiting ({} rounds)",
                p.name, p.max_starved_rounds
            )?,
            Some(p) if p.max_blocked_rounds > p.max_starved_rounds => writeln!(
                f,
                "  bottleneck: `{}` send-blocked for {} consecutive rounds (backpressure, not idleness)",
                p.name, p.max_blocked_rounds
            )?,
            Some(p) => writeln!(
                f,
                "  bottleneck: `{}` starved for {} consecutive rounds with input waiting",
                p.name, p.max_starved_rounds
            )?,
            None => writeln!(f, "  bottleneck: none")?,
        }
        for r in &self.recoveries {
            writeln!(f, "  recovery: {r}")?;
        }
        for rec in &self.faults {
            writeln!(f, "  fault: {rec}")?;
        }
        for v in &self.consumer_violations {
            writeln!(f, "  WARNING: {v}")?;
        }
        Ok(())
    }
}

/// Per-channel counters accumulated during a run (crate-internal; folded
/// into [`ChannelReport`]s when the run ends).
#[derive(Debug, Default, Clone)]
pub(crate) struct ChannelCounters {
    pub(crate) sends: usize,
    pub(crate) receives: usize,
    pub(crate) high_water: usize,
    /// Index of the first process that read the channel.
    pub(crate) consumer: Option<usize>,
    /// Send attempts refused because the channel was at capacity.
    pub(crate) blocked: usize,
    /// Messages shed at capacity under `OverflowPolicy::Shed`.
    pub(crate) shed: usize,
    /// Scheduler-round stamps of the *sampled* messages currently
    /// queued (enqueue index ≡ 1 mod `2^QUANTILE_SAMPLE_LOG2`, see
    /// [`Telemetry::note_send`]),
    /// run-length encoded as `(round, count)` in queue order — sketch
    /// capture only, empty when sketches are disabled. A sampled
    /// send/preload pushes the current round, a sampled pop removes one
    /// from the head; the popped stamp yields the message's queue-wait
    /// latency. Sampling keeps stamp maintenance off the capture hot
    /// path, and the RLE keeps a deep preloaded queue to a handful of
    /// runs instead of one word per message (checkpoint image size).
    /// Staged capture defers every stamp mutation to
    /// [`Telemetry::commit_staged`], which runs only after a flow
    /// transaction resolves — so bounded-mode rollback never needs to
    /// snapshot this queue (see [`CounterSnap`]).
    pub(crate) stamps: VecDeque<(u64, u64)>,
}

impl ChannelCounters {
    /// Stamps `n` just-queued messages with `round`.
    #[inline]
    pub(crate) fn push_stamps(&mut self, round: u64, n: u64) {
        if n == 0 {
            return;
        }
        match self.stamps.back_mut() {
            Some(run) if run.0 == round => run.1 += n,
            _ => self.stamps.push_back((round, n)),
        }
    }

    /// Removes and returns the head-of-queue stamp, if any.
    #[inline]
    pub(crate) fn pop_stamp(&mut self) -> Option<u64> {
        let run = self.stamps.front_mut()?;
        let round = run.0;
        run.1 -= 1;
        if run.1 == 0 {
            self.stamps.pop_front();
        }
        Some(round)
    }

    /// Captures the meter image a flow transaction saves on first touch.
    #[inline]
    pub(crate) fn snap(&self) -> CounterSnap {
        CounterSnap {
            sends: self.sends,
            receives: self.receives,
            high_water: self.high_water,
            consumer: self.consumer,
            blocked: self.blocked,
            shed: self.shed,
        }
    }

    /// Restores the meters from a rollback snapshot, leaving `stamps`
    /// alone — staged capture guarantees the queue was never touched
    /// inside the transaction.
    #[inline]
    pub(crate) fn restore(&mut self, s: CounterSnap) {
        self.sends = s.sends;
        self.receives = s.receives;
        self.high_water = s.high_water;
        self.consumer = s.consumer;
        self.blocked = s.blocked;
        self.shed = s.shed;
    }
}

/// The meter image a flow transaction snapshots per touched channel —
/// everything in [`ChannelCounters`] except `stamps`. Staged sketch
/// capture defers all stamp mutations to [`Telemetry::commit_staged`],
/// which runs only after the transaction resolves, so rollback restores
/// the meters and leaves the stamp queue alone. Keeping the snapshot
/// `Copy` keeps the bounded-mode save path allocation-free whether or
/// not sketches are enabled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CounterSnap {
    sends: usize,
    receives: usize,
    high_water: usize,
    consumer: Option<usize>,
    blocked: usize,
    shed: usize,
}

/// Who injected a fault event (resolved to a name when the report is
/// built).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultSource {
    /// The process at this index (a [`FaultyLink`](crate::FaultyLink) or
    /// custom fault process calling
    /// [`StepCtx::note_fault`](crate::StepCtx::note_fault)).
    Proc(usize),
    /// An engine-interposed link on this channel.
    Link(Chan),
}

/// A sketch observation staged by the step in flight. Bounded-mode steps
/// can roll back, and sketch inserts cannot be undone — so observations
/// queue here until the step commits ([`Telemetry::commit_staged`]) or
/// rolls back ([`Telemetry::discard_staged`]). Stamp-queue maintenance
/// rides the same deferral: a staged `Send` pushes its round stamp and a
/// staged `Recv` pops one only at commit, which keeps every stamp
/// mutation outside the flow transaction (rollback discards the staged
/// list and the stamps need no undo at all).
#[derive(Debug, Clone)]
pub(crate) enum SketchObs {
    /// A quantile-sampled send: the post-send queue depth, plus the
    /// channel whose stamp queue receives the round stamp at commit.
    /// (Channel traffic is *not* staged per event — the heavy-hitter
    /// sketch is synthesized from the exact per-channel send meters at
    /// report build, see [`Telemetry::finish_sketches`].)
    Send { chan: Chan, depth: u64 },
    /// A value-sampled send (see [`value_sampled`]): the full value hash
    /// for the HLL. Independent of the quantile sampling — a send may
    /// stage both observations.
    Distinct { vhash: u64 },
    /// A quantile-sampled pop: commit pops the channel's head stamp and
    /// turns it into a queue-wait latency observation.
    Recv { chan: Chan },
}

/// Run-wide telemetry accumulator threaded through [`crate::StepCtx`].
/// `Clone` so a [`Checkpoint`](crate::snapshot::Checkpoint) can carry the
/// meters mid-run — the sketch block, queue stamps, and round clock ride
/// along, which is exactly what makes resumed-segment roll-up exact.
#[derive(Default, Clone)]
pub(crate) struct Telemetry {
    /// Per-channel meters. Hash-keyed because every step looks one up
    /// (a send, a pop, a peek); ascending channel order is produced only
    /// where it can be observed (see [`crate::chanmap`]).
    pub(crate) channels: ChanMap<ChannelCounters>,
    /// `(chan, first reader index, second reader index)` — deduplicated.
    pub(crate) violations: Vec<(Chan, usize, usize)>,
    /// Injected fault events, in injection order.
    pub(crate) faults: Vec<(FaultSource, FaultEvent)>,
    /// The scheduler-round clock for latency stamps. The engines keep it
    /// in lockstep with their round counters (incremented at round
    /// boundaries, re-synchronized on resume).
    pub(crate) round: u64,
    /// Streaming sketches, `None` when disabled by
    /// [`RunOptions::sketches`](crate::RunOptions). Boxed: the sketch
    /// block is several KiB of fixed-footprint state and `Telemetry` is
    /// cloned into every checkpoint.
    pub(crate) sketches: Option<Box<TelemetrySketches>>,
    /// Observations staged by the step in flight (always empty at
    /// capture, commit, and report boundaries).
    pub(crate) staged: Vec<SketchObs>,
    /// When set, observations insert into the sketches directly instead
    /// of staging. Everything except bounded-mode runs qualifies: with
    /// flow control disarmed the engine has no rollback. Only runs with
    /// `channel_capacity` set must stage, because a blocked step rolls
    /// back and sketch inserts cannot be undone. Purely an
    /// execution-mode flag: excluded from `Debug` (and thus from
    /// checkpoint fingerprints), reset by every resume path.
    pub(crate) direct: bool,
}

/// Manual impl so `direct` — an execution-mode flag, not run state —
/// stays out of checkpoint fingerprints and report-identity comparisons,
/// and so the meters print in ascending channel order (the text an
/// ordered map would print) whatever the hash map's layout.
impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Ascending<'a>(&'a ChanMap<ChannelCounters>);
        impl fmt::Debug for Ascending<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(ascending(self.0)).finish()
            }
        }
        f.debug_struct("Telemetry")
            .field("channels", &Ascending(&self.channels))
            .field("violations", &self.violations)
            .field("faults", &self.faults)
            .field("round", &self.round)
            .field("sketches", &self.sketches)
            .field("staged", &self.staged)
            .finish()
    }
}

// The per-step meter notes are `#[inline]`: left to the compiler, they
// were not inlined into `StepCtx::send`/`pop`, which cost a two-channel
// pipeline 5–12% of its run time.
impl Telemetry {
    /// Records that process `reader` read (popped or peeked) channel `c`
    /// and returns `c`'s meters.
    #[inline]
    pub(crate) fn note_consumer(&mut self, c: Chan, reader: usize) -> &mut ChannelCounters {
        let counters = self.channels.entry(c).or_default();
        match counters.consumer {
            None => counters.consumer = Some(reader),
            Some(first) if first != reader => {
                if !self
                    .violations
                    .iter()
                    .any(|&(vc, _, second)| vc == c && second == reader)
                {
                    self.violations.push((c, first, reader));
                }
            }
            Some(_) => {}
        }
        counters
    }

    /// Records a send of `v` on `c` that left the queue at depth `depth`,
    /// first saving `c`'s meters into the flow transaction `txn`, if
    /// any (`None` when `c` had no meters yet, so rollback removes them).
    #[inline]
    pub(crate) fn note_send(&mut self, c: Chan, depth: usize, v: Value, txn: Option<&mut FlowTxn>) {
        let round = self.round;
        let sketching = self.sketches.is_some();
        let counters = match self.channels.entry(c) {
            Entry::Occupied(e) => {
                if let Some(txn) = txn {
                    txn.save(c, Some(e.get().snap()));
                }
                e.into_mut()
            }
            Entry::Vacant(e) => {
                if let Some(txn) = txn {
                    txn.save(c, None);
                }
                e.insert(ChannelCounters::default())
            }
        };
        counters.sends += 1;
        counters.high_water = counters.high_water.max(depth);
        if sketching {
            // Deterministic 1-in-2^QUANTILE_SAMPLE_LOG2 sampling for the
            // queue-depth and latency quantile sketches, keyed off the
            // message's per-channel *enqueue index* — `depth + receives`
            // counts preloads, sends, and pops alike, and every backend
            // (and every resumed segment) advances those meters
            // identically, so all of them sample the same messages.
            // FIFO order means the receive side recognizes a sampled
            // message by its pop index alone, so only sampled messages
            // need a queue stamp at all (the RLE degenerates to one run
            // per message in round-per-send workloads — sampling keeps
            // that off the hot path). The HLL is independently
            // value-sampled, see [`value_sampled`].
            let sampled = (depth as u64 + counters.receives as u64) & QUANTILE_SAMPLE_MASK == 1;
            let vsamp = value_sampled(v);
            if sampled || vsamp {
                self.sketch_send(c, depth as u64, v, sampled, vsamp, round);
            }
        }
    }

    /// The rarely-taken sampled-send path, outlined so the per-send hot
    /// path in [`Telemetry::note_send`] stays a pair of cheap tests.
    #[cold]
    #[inline(never)]
    fn sketch_send(
        &mut self,
        c: Chan,
        depth: u64,
        v: Value,
        sampled: bool,
        vsamp: bool,
        round: u64,
    ) {
        if sampled {
            if self.direct {
                if let Some(k) = self.channels.get_mut(&c) {
                    k.push_stamps(round, 1);
                }
                self.sketches
                    .as_deref_mut()
                    .expect("sketching checked")
                    .queue_depth
                    .insert(depth);
            } else {
                // stamp push deferred to commit: no stamp mutation may
                // happen inside a flow transaction
                self.staged.push(SketchObs::Send { chan: c, depth });
            }
        }
        if vsamp {
            let vhash = value_hash(v);
            if self.direct {
                self.sketches
                    .as_deref_mut()
                    .expect("sketching checked")
                    .distinct_values
                    .insert(vhash);
            } else {
                self.staged.push(SketchObs::Distinct { vhash });
            }
        }
    }

    /// Records a pop attempt on `c` by process `reader` in one meter
    /// lookup: the consumer note always, and, when a message came off
    /// the queue (`popped`), the receive meter. Under flow control the
    /// meters are saved into `txn` between the two (first touch only),
    /// so a rolled-back step restores the consumer note it made and
    /// undoes the receive.
    #[inline]
    pub(crate) fn note_pop(
        &mut self,
        c: Chan,
        reader: usize,
        popped: bool,
        txn: Option<&mut FlowTxn>,
    ) {
        let round = self.round;
        let sketching = self.sketches.is_some();
        let counters = self.note_consumer(c, reader);
        if !popped {
            return;
        }
        if let Some(txn) = txn {
            txn.save(c, Some(counters.snap()));
        }
        counters.receives += 1;
        if sketching && counters.receives as u64 & QUANTILE_SAMPLE_MASK == 1 {
            self.sketch_recv(c, round);
        }
    }

    /// The rarely-taken sampled-pop path, outlined like
    /// [`Telemetry::sketch_send`]. This pop's index matches a sampled
    /// enqueue index (see [`Telemetry::note_send`]), so its stamp — if
    /// any — is at the head of the sampled-stamp queue. A missing stamp
    /// means the message predates this run's stamping (e.g. re-queued
    /// during a supervised replay window) — skip the latency observation
    /// rather than invent one.
    #[cold]
    #[inline(never)]
    fn sketch_recv(&mut self, c: Chan, round: u64) {
        if self.direct {
            if let Some(stamp) = self
                .channels
                .get_mut(&c)
                .and_then(ChannelCounters::pop_stamp)
            {
                let wait = round.saturating_sub(stamp);
                self.sketches
                    .as_deref_mut()
                    .expect("sketching checked")
                    .latency
                    .insert(wait);
            }
        } else {
            // stamp pop deferred to commit, mirroring the push side
            self.staged.push(SketchObs::Recv { chan: c });
        }
    }

    /// Records preloaded messages on `c` (count towards high-water but
    /// not towards sends — preloads are environment input outside the
    /// trace).
    pub(crate) fn note_preload(&mut self, c: Chan, depth: usize) {
        let round = self.round;
        let sketching = self.sketches.is_some();
        let counters = self.channels.entry(c).or_default();
        counters.high_water = counters.high_water.max(depth);
        if sketching {
            // Stamp the *sampled* preloaded messages (enqueue indices
            // ≡ 1 mod 2^QUANTILE_SAMPLE_LOG2 — the same key the send
            // and receive sides use, see `note_send`). Preloads land
            // once, at engine construction, before any traffic, so a
            // message's enqueue index is just its queue position.
            debug_assert_eq!(
                counters.sends + counters.receives,
                0,
                "preloads precede channel traffic"
            );
            let sampled = (depth as u64 + QUANTILE_SAMPLE_MASK) >> QUANTILE_SAMPLE_LOG2;
            counters.stamps.clear();
            counters.push_stamps(round, sampled);
        }
    }

    /// Flushes the step-in-flight's staged observations into the
    /// sketches. Call once the step (or pump, or preload) has committed;
    /// observation order is the staging order, so every backend that
    /// commits in canonical plan order accumulates identical sketches.
    pub(crate) fn commit_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        // Taken (not drained in place) so the loop can touch the
        // per-channel stamp queues; the Vec goes back afterwards to keep
        // its capacity.
        let mut staged = std::mem::take(&mut self.staged);
        let round = self.round;
        if let Some(s) = self.sketches.as_deref_mut() {
            for obs in staged.drain(..) {
                match obs {
                    SketchObs::Send { chan, depth } => {
                        if let Some(k) = self.channels.get_mut(&chan) {
                            k.push_stamps(round, 1);
                        }
                        s.queue_depth.insert(depth);
                    }
                    SketchObs::Distinct { vhash } => {
                        s.distinct_values.insert(vhash);
                    }
                    SketchObs::Recv { chan } => {
                        if let Some(stamp) = self
                            .channels
                            .get_mut(&chan)
                            .and_then(ChannelCounters::pop_stamp)
                        {
                            s.latency.insert(round.saturating_sub(stamp));
                        }
                    }
                }
            }
        } else {
            staged.clear();
        }
        self.staged = staged;
    }

    /// Finalizes the run's sketch block for its report: takes the
    /// accumulated in-run sketches and synthesizes the heavy-hitter
    /// channel-traffic sketch from the exact per-channel send meters.
    /// Updating the heavy hitters per event would be redundant work in
    /// the engine hot loop — the exact counts already exist in
    /// `channels`, are byte-identical across backends, and one bulk
    /// insert per channel in canonical (sorted) channel order produces
    /// the same mergeable block. Mid-run checkpoints deliberately carry
    /// the *unsynthesized* state: the meters ride along and the resumed
    /// run's final report synthesizes from the cumulative counts,
    /// exactly as the uninterrupted run would.
    pub(crate) fn finish_sketches(&mut self) -> Option<TelemetrySketches> {
        let mut s = self.sketches.take().map(|b| *b)?;
        for (c, k) in ascending(&self.channels) {
            s.channel_traffic
                .insert(u64::from(c.index()), k.sends as u64);
        }
        Some(s)
    }

    /// Drops the step-in-flight's staged observations (bounded-mode
    /// rollback: the step never happened). Stamp-queue maintenance is
    /// deferred to commit, so there is nothing to undo there.
    pub(crate) fn discard_staged(&mut self) {
        self.staged.clear();
    }

    /// Records a fault injected by the process at index `who`.
    pub(crate) fn note_proc_fault(&mut self, who: usize, event: FaultEvent) {
        self.faults.push((FaultSource::Proc(who), event));
    }

    /// Records a fault injected by the engine-interposed link on `c`.
    pub(crate) fn note_link_fault(&mut self, c: Chan, event: FaultEvent) {
        self.faults.push((FaultSource::Link(c), event));
    }

    /// Records a send refused because `c` was at capacity.
    pub(crate) fn note_blocked_send(&mut self, c: Chan) {
        self.channels.entry(c).or_default().blocked += 1;
    }

    /// Records a message shed at capacity on `c`; returns the running
    /// shed count (used as the fault-event sequence number).
    pub(crate) fn note_shed(&mut self, c: Chan) -> usize {
        let counters = self.channels.entry(c).or_default();
        counters.shed += 1;
        counters.shed
    }
}
