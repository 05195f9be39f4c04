//! Fault injection: perturbed channel links and crashing processes.
//!
//! The conformance bridge ([`crate::conformance`]) makes the paper's
//! adequacy claim executable; this module supplies the perturbations that
//! stress it. Each [`Fault`] wraps a channel as a [`FaultyLink`] process
//! interposed between producer and consumer (the producer sends on a raw
//! channel, the link forwards — faultily — onto the real one), and
//! [`CrashAt`] wraps any process so it dies after a fixed number of
//! steps. For opaque networks that cannot be rewired (the zoo builders),
//! a [`FaultSchedule`] injects the same perturbations at the engine
//! level: [`CrashPoint`]s kill processes at global step counts and
//! [`LinkFaultSpec`]s intercept sends on a channel in-flight.
//!
//! Every harmful perturbation is logged as a [`FaultEvent`] in
//! [`RunReport::fault_log`](crate::RunReport::fault_log), so a convicting
//! run names the exact injected events alongside the violated equation.
//!
//! The taxonomy follows the paper's asynchronous-channel semantics:
//!
//! * **Delay** is *not* a fault at all — channels are unbounded FIFOs
//!   with no timing guarantees, so a delayed but order-and-content
//!   preserving link yields exactly the same quiescent channel histories
//!   and the conformance bridge still certifies the run.
//! * **Reorder** breaks the FIFO discipline: per-channel histories are
//!   permuted within a window, violating order-sensitive descriptions
//!   (though order-free specifications such as the bag accept it).
//! * **Duplicate** and **Drop** corrupt the history itself; at
//!   quiescence the description's limit condition `f(t) = g(t)` fails
//!   and [`diagnose`](eqp_core::diagnose::diagnose) names the component.
//! * **Crash** silences a process; whatever it still owed its
//!   description is missing at quiescence (a limit failure) — *unless* a
//!   supervisor ([`crate::supervisor`]) restores and replays it, in
//!   which case the recovered quiescent run still certifies.

use crate::process::{Process, StepCtx, StepResult};
use crate::snapshot::StateCell;
use eqp_trace::{Chan, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// A channel perturbation applied by a [`FaultyLink`] or a
/// [`LinkFaultSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Forward every message, order intact, but hold up to `slack`
    /// messages back. Benign: preserves quiescent channel histories.
    Delay {
        /// Messages the link may buffer before it must forward.
        slack: usize,
    },
    /// Forward every message, but release them in a random order from a
    /// sliding window of up to `window` buffered messages.
    Reorder {
        /// Maximum number of messages buffered for permutation.
        window: usize,
        /// Seed for the link's private release order RNG.
        seed: u64,
    },
    /// Forward every message, sending every `period`-th one twice.
    Duplicate {
        /// Duplicate each `period`-th message (1 = every message).
        period: usize,
    },
    /// Silently discard every `period`-th message.
    Drop {
        /// Drop each `period`-th message (1 = every message).
        period: usize,
    },
}

impl Fault {
    /// True iff the perturbation preserves quiescent channel histories
    /// (delay is the paper's own asynchrony; everything else corrupts
    /// order or content).
    pub fn is_benign(&self) -> bool {
        matches!(self, Fault::Delay { .. })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Delay { slack } => write!(f, "delay(slack {slack})"),
            Fault::Reorder { window, seed } => write!(f, "reorder(window {window}, seed {seed})"),
            Fault::Duplicate { period } => write!(f, "duplicate(every {period})"),
            Fault::Drop { period } => write!(f, "drop(every {period})"),
        }
    }
}

/// What an injected fault did to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was discarded.
    Dropped,
    /// The message was delivered twice.
    Duplicated,
    /// The message was released ahead of an earlier-arrived one.
    Reordered,
    /// A reliable link ([`crate::reliable`]) gave up retransmitting the
    /// message after exhausting its retry budget; the message and
    /// everything queued behind it were abandoned.
    RetryExhausted,
}

impl FaultKind {
    /// Stable numeric tag for snapshot encoding.
    pub(crate) fn code(self) -> u64 {
        match self {
            FaultKind::Dropped => 0,
            FaultKind::Duplicated => 1,
            FaultKind::Reordered => 2,
            FaultKind::RetryExhausted => 3,
        }
    }

    /// Inverse of [`code`](FaultKind::code).
    pub(crate) fn from_code(code: u64) -> Option<FaultKind> {
        Some(match code {
            0 => FaultKind::Dropped,
            1 => FaultKind::Duplicated,
            2 => FaultKind::Reordered,
            3 => FaultKind::RetryExhausted,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Dropped => "dropped",
            FaultKind::Duplicated => "duplicated",
            FaultKind::Reordered => "reordered",
            FaultKind::RetryExhausted => "retry budget exhausted on",
        })
    }
}

/// One injected fault event: exactly which message, on which channel, was
/// perturbed how. Collected in
/// [`RunReport::fault_log`](crate::RunReport::fault_log) so convictions
/// are actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The channel whose delivery was perturbed.
    pub chan: Chan,
    /// 1-based arrival index of the perturbed message on that link.
    pub seq: usize,
    /// What happened to it.
    pub kind: FaultKind,
    /// The message itself.
    pub value: Value,
}

impl FaultEvent {
    /// Encodes the event as a [`StateCell`] (snapshot participation: a
    /// restored [`FaultyLink`] must report the same
    /// [`fault_log`](FaultyLink::fault_log) as the uninterrupted run).
    pub(crate) fn to_cell(&self) -> StateCell {
        StateCell::List(vec![
            StateCell::Nat(u64::from(self.chan.index())),
            StateCell::Nat(self.seq as u64),
            StateCell::Nat(self.kind.code()),
            StateCell::Value(self.value),
        ])
    }

    /// Inverse of [`to_cell`](FaultEvent::to_cell).
    pub(crate) fn from_cell(cell: &StateCell) -> Option<FaultEvent> {
        let [chan, seq, kind, value] = cell.as_list().and_then(|l| <&[_; 4]>::try_from(l).ok())?;
        let StateCell::Value(value) = value else {
            return None;
        };
        Some(FaultEvent {
            chan: Chan::new(u32::try_from(chan.as_nat()?).ok()?),
            seq: seq.as_nat()? as usize,
            kind: FaultKind::from_code(kind.as_nat()?)?,
            value: *value,
        })
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} message #{} on {} ({})",
            self.kind, self.seq, self.chan, self.value
        )
    }
}

/// Kill a process once the network reaches a global progress-step count —
/// the engine-level crash used by chaos schedules on opaque networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Index of the process to kill (network insertion order).
    pub process: usize,
    /// Global progress-step count at which the crash fires.
    pub at_step: usize,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crash process #{} at step {}",
            self.process, self.at_step
        )
    }
}

/// An engine-interposed faulty link: every send on `chan` — by any
/// process — passes through the fault, no rewiring required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFaultSpec {
    /// The intercepted channel.
    pub chan: Chan,
    /// The perturbation.
    pub fault: Fault,
}

impl fmt::Display for LinkFaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}", self.fault, self.chan)
    }
}

/// A full engine-level fault schedule: crashes and link faults injected
/// into a run without touching the network's construction. Sampled and
/// shrunk by [`crate::chaos`].
///
/// When several link faults name the same channel, only the first one
/// intercepts sends — faults do not chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Engine-level crash injections.
    pub crashes: Vec<CrashPoint>,
    /// Engine-level link fault injections.
    pub links: Vec<LinkFaultSpec>,
}

impl FaultSchedule {
    /// The empty (fault-free) schedule.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Total number of injected fault elements (crashes + links) — the
    /// unit of delta-debugging in [`crate::chaos::shrink`].
    pub fn len(&self) -> usize {
        self.crashes.len() + self.links.len()
    }

    /// True iff the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.links.is_empty()
    }

    /// True iff every injected element preserves quiescent histories
    /// assuming crashed processes are recovered (delays only, plus any
    /// number of supervised crashes).
    pub fn is_benign(&self) -> bool {
        self.links.iter().all(|l| l.fault.is_benign())
    }

    /// The schedule with fault element `i` removed (crashes first, then
    /// links — the shrinker's removal order).
    pub fn without(&self, i: usize) -> FaultSchedule {
        let mut s = self.clone();
        if i < s.crashes.len() {
            s.crashes.remove(i);
        } else {
            s.links.remove(i - s.crashes.len());
        }
        s
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no faults");
        }
        let mut first = true;
        for c in &self.crashes {
            if !first {
                f.write_str("; ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        for l in &self.links {
            if !first {
                f.write_str("; ")?;
            }
            write!(f, "{l}")?;
            first = false;
        }
        Ok(())
    }
}

/// The state machine shared by in-flight link interception.
#[derive(Debug)]
enum LinkCore {
    Delay {
        buffer: VecDeque<Value>,
        slack: usize,
    },
    Reorder {
        /// `(arrival index, value)` pairs awaiting release.
        buffer: Vec<(usize, Value)>,
        window: usize,
        rng: StdRng,
    },
    Duplicate {
        period: usize,
    },
    Drop {
        period: usize,
    },
}

impl LinkCore {
    fn new(fault: &Fault) -> LinkCore {
        match *fault {
            Fault::Delay { slack } => LinkCore::Delay {
                buffer: VecDeque::new(),
                slack,
            },
            Fault::Reorder { window, seed } => {
                assert!(window > 0, "reorder window must be positive");
                LinkCore::Reorder {
                    buffer: Vec::new(),
                    window,
                    rng: StdRng::seed_from_u64(seed),
                }
            }
            Fault::Duplicate { period } => {
                assert!(period > 0, "duplicate period must be positive");
                LinkCore::Duplicate { period }
            }
            Fault::Drop { period } => {
                assert!(period > 0, "drop period must be positive");
                LinkCore::Drop { period }
            }
        }
    }
}

/// An engine-interposed faulty link instance (built from a
/// [`LinkFaultSpec`] for the duration of one run).
#[derive(Debug)]
pub struct EngineLink {
    chan: Chan,
    core: LinkCore,
    /// Messages ingested so far (1-based seq of the next is `seen + 1`).
    seen: usize,
}

impl EngineLink {
    pub(crate) fn new(spec: &LinkFaultSpec) -> EngineLink {
        EngineLink {
            chan: spec.chan,
            core: LinkCore::new(&spec.fault),
            seen: 0,
        }
    }

    pub(crate) fn chan(&self) -> Chan {
        self.chan
    }

    /// Messages buffered awaiting release.
    pub(crate) fn pending(&self) -> usize {
        match &self.core {
            LinkCore::Delay { buffer, .. } => buffer.len(),
            LinkCore::Reorder { buffer, .. } => buffer.len(),
            LinkCore::Duplicate { .. } | LinkCore::Drop { .. } => 0,
        }
    }

    /// Intercepts one send: returns the messages to deliver *now* and an
    /// optional fault event (drop/duplicate happen at ingestion).
    pub(crate) fn on_send(&mut self, v: Value) -> (Vec<Value>, Option<FaultEvent>) {
        self.seen += 1;
        let seq = self.seen;
        match &mut self.core {
            LinkCore::Delay { buffer, .. } => {
                buffer.push_back(v);
                (Vec::new(), None)
            }
            LinkCore::Reorder { buffer, .. } => {
                buffer.push((seq, v));
                (Vec::new(), None)
            }
            LinkCore::Duplicate { period } => {
                if seq.is_multiple_of(*period) {
                    (
                        vec![v, v],
                        Some(FaultEvent {
                            chan: self.chan,
                            seq,
                            kind: FaultKind::Duplicated,
                            value: v,
                        }),
                    )
                } else {
                    (vec![v], None)
                }
            }
            LinkCore::Drop { period } => {
                if seq.is_multiple_of(*period) {
                    (
                        Vec::new(),
                        Some(FaultEvent {
                            chan: self.chan,
                            seq,
                            kind: FaultKind::Dropped,
                            value: v,
                        }),
                    )
                } else {
                    (vec![v], None)
                }
            }
        }
    }

    /// End-of-round release: delay links release everything above their
    /// slack, reorder links release whenever the window is full. With
    /// `force` (the rest of the network made no progress) each buffering
    /// link additionally releases one message, so buffers drain before
    /// quiescence.
    pub(crate) fn pump(&mut self, force: bool) -> Vec<(Value, Option<FaultEvent>)> {
        let mut out = Vec::new();
        match &mut self.core {
            LinkCore::Delay { buffer, slack } => {
                while buffer.len() > *slack {
                    out.push((buffer.pop_front().expect("nonempty"), None));
                }
                if force {
                    if let Some(v) = buffer.pop_front() {
                        out.push((v, None));
                    }
                }
            }
            LinkCore::Reorder {
                buffer,
                window,
                rng,
            } => {
                let chan = self.chan;
                let release = |buffer: &mut Vec<(usize, Value)>, rng: &mut StdRng| {
                    let i = rng.random_range(0..buffer.len());
                    let (seq, v) = buffer.swap_remove(i);
                    let overtook = buffer.iter().any(|&(s, _)| s < seq);
                    let event = overtook.then_some(FaultEvent {
                        chan,
                        seq,
                        kind: FaultKind::Reordered,
                        value: v,
                    });
                    (v, event)
                };
                while buffer.len() >= *window {
                    out.push(release(buffer, rng));
                }
                if force && !buffer.is_empty() {
                    out.push(release(buffer, rng));
                }
            }
            LinkCore::Duplicate { .. } | LinkCore::Drop { .. } => {}
        }
        out
    }
}

/// A faulty channel: reads `input`, forwards onto `output` subject to a
/// [`Fault`]. Interpose it by renaming the producer's output channel to a
/// fresh raw channel and letting the link feed the original one.
///
/// All randomness (reorder release order) comes from the seed stored in
/// the fault, so two runs with identical construction produce identical
/// deliveries *and* identical [`fault_log`](FaultyLink::fault_log)s.
pub struct FaultyLink {
    name: String,
    input: Chan,
    output: Chan,
    fault: Fault,
    state: LinkState,
    /// Messages ingested so far (1-based event seq).
    seen: usize,
    /// Local copy of every injected event (also reported through
    /// [`StepCtx::note_fault`] into the run's fault log).
    log: Vec<FaultEvent>,
}

#[derive(Debug)]
enum LinkState {
    Delay {
        buffer: VecDeque<Value>,
        slack: usize,
    },
    Reorder {
        /// `(arrival index, value)` pairs buffered for permutation.
        buffer: Vec<(usize, Value)>,
        window: usize,
        rng: StdRng,
    },
    Duplicate {
        period: usize,
    },
    Drop {
        period: usize,
    },
}

impl LinkState {
    fn new(fault: &Fault) -> LinkState {
        match *fault {
            Fault::Delay { slack } => LinkState::Delay {
                buffer: VecDeque::new(),
                slack,
            },
            Fault::Reorder { window, seed } => {
                assert!(window > 0, "reorder window must be positive");
                LinkState::Reorder {
                    buffer: Vec::new(),
                    window,
                    rng: StdRng::seed_from_u64(seed),
                }
            }
            Fault::Duplicate { period } => {
                assert!(period > 0, "duplicate period must be positive");
                LinkState::Duplicate { period }
            }
            Fault::Drop { period } => {
                assert!(period > 0, "drop period must be positive");
                LinkState::Drop { period }
            }
        }
    }
}

impl FaultyLink {
    /// Creates a link forwarding `input` to `output` under `fault`.
    ///
    /// # Panics
    ///
    /// Panics if a periodic fault has `period == 0` or a reorder fault
    /// has `window == 0`.
    pub fn new(name: impl Into<String>, input: Chan, output: Chan, fault: Fault) -> FaultyLink {
        let state = LinkState::new(&fault);
        FaultyLink {
            name: name.into(),
            input,
            output,
            fault,
            state,
            seen: 0,
            log: Vec::new(),
        }
    }

    /// Every fault event this link injected so far, in order. The same
    /// events are reported into
    /// [`RunReport::fault_log`](crate::RunReport::fault_log) with this
    /// link's name attached.
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.log
    }

    fn emit_fault(&mut self, ctx: &mut StepCtx<'_>, event: FaultEvent) {
        ctx.note_fault(event.clone());
        self.log.push(event);
    }
}

impl Process for FaultyLink {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> Vec<Chan> {
        vec![self.input]
    }

    fn outputs(&self) -> Vec<Chan> {
        vec![self.output]
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepResult {
        match &mut self.state {
            LinkState::Delay { buffer, slack } => {
                // Hold up to `slack` messages; once the buffer exceeds the
                // slack (or the upstream goes quiet) release the oldest,
                // so every message is eventually delivered in order.
                if buffer.len() > *slack {
                    let v = buffer.pop_front().expect("nonempty");
                    ctx.send(self.output, v);
                    StepResult::Progress
                } else if ctx.available(self.input) > 0 {
                    let v = ctx.pop(self.input).expect("nonempty");
                    self.seen += 1;
                    buffer.push_back(v);
                    StepResult::Progress
                } else if let Some(v) = buffer.pop_front() {
                    ctx.send(self.output, v);
                    StepResult::Progress
                } else {
                    StepResult::Idle
                }
            }
            LinkState::Reorder {
                buffer,
                window,
                rng,
            } => {
                if ctx.available(self.input) > 0 && buffer.len() < *window {
                    let v = ctx.pop(self.input).expect("nonempty");
                    self.seen += 1;
                    buffer.push((self.seen, v));
                    StepResult::Progress
                } else if !buffer.is_empty() {
                    let i = rng.random_range(0..buffer.len());
                    let (seq, v) = buffer.swap_remove(i);
                    let overtook = buffer.iter().any(|&(s, _)| s < seq);
                    let event = overtook.then_some(FaultEvent {
                        chan: self.output,
                        seq,
                        kind: FaultKind::Reordered,
                        value: v,
                    });
                    ctx.send(self.output, v);
                    if let Some(e) = event {
                        self.emit_fault(ctx, e);
                    }
                    StepResult::Progress
                } else {
                    StepResult::Idle
                }
            }
            LinkState::Duplicate { period } => match ctx.pop(self.input) {
                Some(v) => {
                    self.seen += 1;
                    let seq = self.seen;
                    let dup = seq.is_multiple_of(*period);
                    ctx.send(self.output, v);
                    if dup {
                        ctx.send(self.output, v);
                        self.emit_fault(
                            ctx,
                            FaultEvent {
                                chan: self.output,
                                seq,
                                kind: FaultKind::Duplicated,
                                value: v,
                            },
                        );
                    }
                    StepResult::Progress
                }
                None => StepResult::Idle,
            },
            LinkState::Drop { period } => match ctx.pop(self.input) {
                Some(v) => {
                    self.seen += 1;
                    let seq = self.seen;
                    if !seq.is_multiple_of(*period) {
                        ctx.send(self.output, v);
                    } else {
                        self.emit_fault(
                            ctx,
                            FaultEvent {
                                chan: self.output,
                                seq,
                                kind: FaultKind::Dropped,
                                value: v,
                            },
                        );
                    }
                    StepResult::Progress
                }
                None => StepResult::Idle,
            },
        }
    }

    fn snapshot(&self) -> Option<StateCell> {
        let core = match &self.state {
            LinkState::Delay { buffer, .. } => StateCell::Values(buffer.iter().copied().collect()),
            LinkState::Reorder { buffer, rng, .. } => StateCell::List(vec![
                StateCell::Nats(buffer.iter().map(|&(s, _)| s as u64).collect()),
                StateCell::Values(buffer.iter().map(|&(_, v)| v).collect()),
                StateCell::Rng(rng.clone()),
            ]),
            LinkState::Duplicate { .. } | LinkState::Drop { .. } => StateCell::Unit,
        };
        // The in-flight buffer *and* the fault log participate in the
        // snapshot, so checkpoint/resume through a lossy link reproduces
        // both the deliveries and the attributed fault events.
        Some(StateCell::List(vec![
            StateCell::Nat(self.seen as u64),
            core,
            StateCell::List(self.log.iter().map(FaultEvent::to_cell).collect()),
        ]))
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        let Some([seen, core, log]) = state.as_list().and_then(|l| <&[_; 3]>::try_from(l).ok())
        else {
            return false;
        };
        let Some(seen) = seen.as_nat() else {
            return false;
        };
        let Some(log) = log
            .as_list()
            .map(|cells| cells.iter().map(FaultEvent::from_cell).collect())
            .and_then(|log: Option<Vec<FaultEvent>>| log)
        else {
            return false;
        };
        match (&mut self.state, core) {
            (LinkState::Delay { buffer, .. }, StateCell::Values(vs)) => {
                *buffer = vs.iter().copied().collect();
            }
            (LinkState::Reorder { buffer, rng, .. }, StateCell::List(parts)) => {
                let [seqs, values, saved_rng] = match <&[_; 3]>::try_from(parts.as_slice()) {
                    Ok(parts) => parts,
                    Err(_) => return false,
                };
                let (Some(seqs), Some(values), Some(saved_rng)) =
                    (seqs.as_nats(), values.as_values(), saved_rng.as_rng())
                else {
                    return false;
                };
                if seqs.len() != values.len() {
                    return false;
                }
                *buffer = seqs
                    .iter()
                    .zip(values)
                    .map(|(&s, &v)| (s as usize, v))
                    .collect();
                *rng = saved_rng.clone();
            }
            (LinkState::Duplicate { .. } | LinkState::Drop { .. }, StateCell::Unit) => {}
            _ => return false,
        }
        self.seen = seen as usize;
        self.log = log;
        true
    }

    fn reset(&mut self) -> bool {
        self.state = LinkState::new(&self.fault);
        self.seen = 0;
        self.log.clear();
        true
    }
}

/// Wraps a process so it crashes (silently idles forever) after making
/// `at_step` progress steps. The runtime detects the crash through
/// [`Process::crashed`]; a supervisor can then restore and
/// [`restart`](Process::restart) it — restarting defuses the fuse, so a
/// `CrashAt` fault is one-shot.
pub struct CrashAt<P> {
    name: String,
    inner: P,
    fuel: usize,
    initial_fuel: usize,
}

impl<P: Process> CrashAt<P> {
    /// Crashes `inner` after its `at_step`-th progress step (0 = dead on
    /// arrival).
    pub fn new(inner: P, at_step: usize) -> CrashAt<P> {
        CrashAt {
            name: format!("{}!crash@{at_step}", inner.name()),
            inner,
            fuel: at_step,
            initial_fuel: at_step,
        }
    }

    /// True iff the wrapper has exhausted its fuel.
    pub fn crashed(&self) -> bool {
        self.fuel == 0
    }
}

impl<P: Process> Process for CrashAt<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> Vec<Chan> {
        self.inner.inputs()
    }

    fn outputs(&self) -> Vec<Chan> {
        self.inner.outputs()
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepResult {
        if self.fuel == 0 {
            return StepResult::Idle;
        }
        let r = self.inner.step(ctx);
        if r == StepResult::Progress {
            self.fuel -= 1;
        }
        r
    }

    fn snapshot(&self) -> Option<StateCell> {
        self.inner
            .snapshot()
            .map(|inner| StateCell::List(vec![StateCell::Nat(self.fuel as u64), inner]))
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        let Some([fuel, inner]) = state.as_list().and_then(|l| <&[_; 2]>::try_from(l).ok()) else {
            return false;
        };
        let Some(fuel) = fuel.as_nat() else {
            return false;
        };
        if !self.inner.restore(inner) {
            return false;
        }
        self.fuel = fuel as usize;
        true
    }

    fn reset(&mut self) -> bool {
        if !self.inner.reset() {
            return false;
        }
        self.fuel = self.initial_fuel;
        true
    }

    fn crashed(&self) -> bool {
        self.fuel == 0
    }

    fn restart(&mut self) -> bool {
        // One-shot fault: a restarted process must not immediately
        // re-crash while replaying the very steps that exhausted it.
        self.fuel = usize::MAX;
        self.inner.restart()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, RunOptions};
    use crate::procs::{Apply, Source};
    use crate::scheduler::RoundRobin;
    use crate::RunReport;

    fn raw() -> Chan {
        Chan::new(200)
    }
    fn out() -> Chan {
        Chan::new(201)
    }

    fn faulted_pipeline(fault: Fault) -> Network {
        let mut net = Network::new();
        net.add(Source::new(
            "env",
            raw(),
            (1..=4).map(Value::Int).collect::<Vec<_>>(),
        ));
        net.add(FaultyLink::new("link", raw(), out(), fault));
        net
    }

    fn report(fault: Fault) -> RunReport {
        let report =
            faulted_pipeline(fault).run_report(&mut RoundRobin::new(), RunOptions::default());
        assert!(report.quiescent);
        report
    }

    fn delivered(fault: Fault) -> Vec<Value> {
        report(fault).trace.seq_on(out()).take(32)
    }

    #[test]
    fn delay_delivers_everything_in_order() {
        let r = report(Fault::Delay { slack: 2 });
        assert_eq!(
            r.trace.seq_on(out()).take(32),
            (1..=4).map(Value::Int).collect::<Vec<_>>()
        );
        assert!(r.fault_log().is_empty(), "delay is benign, not logged");
    }

    #[test]
    fn duplicate_doubles_periodically_and_logs() {
        let r = report(Fault::Duplicate { period: 2 });
        assert_eq!(
            r.trace.seq_on(out()).take(32),
            [1, 2, 2, 3, 4, 4].map(Value::Int).to_vec()
        );
        let log = r.fault_log();
        assert_eq!(log.len(), 2);
        assert!(log
            .iter()
            .all(|f| f.source == "link" && f.event.kind == FaultKind::Duplicated));
        assert_eq!(log[0].event.seq, 2);
        assert_eq!(log[1].event.seq, 4);
    }

    #[test]
    fn drop_discards_periodically_and_logs() {
        let r = report(Fault::Drop { period: 2 });
        assert_eq!(
            r.trace.seq_on(out()).take(32),
            [1, 3].map(Value::Int).to_vec()
        );
        let log = r.fault_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].event.value, Value::Int(2));
        assert_eq!(log[1].event.value, Value::Int(4));
        assert!(log.iter().all(|f| f.event.kind == FaultKind::Dropped));
    }

    #[test]
    fn reorder_permutes_but_preserves_content() {
        let mut got = delivered(Fault::Reorder { window: 3, seed: 5 });
        got.sort();
        assert_eq!(got, (1..=4).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn identical_runs_produce_identical_fault_logs() {
        // Satellite: delay/reorder determinism under the stored seed.
        for fault in [
            Fault::Reorder { window: 3, seed: 9 },
            Fault::Drop { period: 2 },
            Fault::Duplicate { period: 3 },
            Fault::Delay { slack: 1 },
        ] {
            let a = report(fault.clone());
            let b = report(fault.clone());
            assert_eq!(a.trace, b.trace, "{fault}: traces must be identical");
            assert_eq!(
                a.fault_log(),
                b.fault_log(),
                "{fault}: fault logs must be identical"
            );
        }
    }

    #[test]
    fn crash_at_k_stops_after_k_steps() {
        let mut net = Network::new();
        net.add(Source::new(
            "env",
            raw(),
            (1..=4).map(Value::Int).collect::<Vec<_>>(),
        ));
        net.add(CrashAt::new(
            Apply::int_affine("double", raw(), out(), 2, 0),
            2,
        ));
        let report = net.run_report(&mut RoundRobin::new(), RunOptions::default());
        assert!(
            report.quiescent,
            "a crashed process idles; the net quiesces"
        );
        assert_eq!(
            report.trace.seq_on(out()).take(8),
            [2, 4].map(Value::Int).to_vec()
        );
        // the crashed process leaves its input queued
        assert_eq!(report.channel(raw()).expect("metered").residual, 2);
        assert!(report
            .processes
            .iter()
            .any(|p| p.name.contains("crash@2") && p.progress == 2));
        // satellite: the dossier distinguishes crashed from starved
        let crashed = report
            .processes
            .iter()
            .find(|p| p.name.contains("crash@2"))
            .expect("wrapped process reported");
        assert!(crashed.crashed, "CrashAt feeds the crashed flag");
        assert_eq!(
            report.bottleneck().expect("crash with queued input").name,
            crashed.name,
            "a crashed process with waiting input is the bottleneck"
        );
    }

    #[test]
    fn fault_schedule_shrinking_surface() {
        let s = FaultSchedule {
            crashes: vec![CrashPoint {
                process: 1,
                at_step: 3,
            }],
            links: vec![
                LinkFaultSpec {
                    chan: raw(),
                    fault: Fault::Drop { period: 2 },
                },
                LinkFaultSpec {
                    chan: out(),
                    fault: Fault::Delay { slack: 1 },
                },
            ],
        };
        assert_eq!(s.len(), 3);
        assert!(!s.is_benign(), "drop convicts");
        let no_crash = s.without(0);
        assert!(no_crash.crashes.is_empty());
        assert_eq!(no_crash.links.len(), 2);
        let no_drop = s.without(1);
        assert!(no_drop.is_benign(), "crash + delay alone are benign");
        assert!(FaultSchedule::none().is_empty());
        assert!(s.to_string().contains("drop(every 2)"));
    }

    #[test]
    fn crash_at_snapshot_restore_restart_roundtrip() {
        let mut p = CrashAt::new(Apply::int_affine("f", raw(), out(), 1, 0), 2);
        let cell = p.snapshot().expect("Apply is hooked, so CrashAt is");
        assert!(p.reset(), "reset propagates to the (resettable) inner");
        assert!(!p.crashed());
        assert!(p.restore(&cell));
        assert!(p.restart(), "restart defuses the fuse");
        assert!(!Process::crashed(&p));
        // after restart the fuse is effectively infinite
        let again = p.snapshot().expect("still hooked");
        let fuel = again.as_list().unwrap()[0].as_nat().unwrap();
        assert_eq!(fuel, u64::MAX);
    }
}
