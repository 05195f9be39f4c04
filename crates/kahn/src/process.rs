//! The process trait and the step context through which processes touch
//! their channels.

use crate::chanmap::ChanMap;
use crate::faults::{EngineLink, FaultEvent};
use crate::network::OverflowPolicy;
use crate::reliable::ReliableLink;
use crate::report::{ChannelCounters, CounterSnap, Telemetry};
use crate::snapshot::StateCell;
use crate::supervisor::{Journal, Op, Replay};
use eqp_trace::{Chan, Event, Value};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt};
use std::collections::{BTreeSet, VecDeque};

/// What a process accomplished in one scheduled step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The process consumed input and/or produced output.
    Progress,
    /// The process cannot currently act (waiting for input, or done).
    Idle,
}

/// The channel interface handed to a process during a step: FIFO reads on
/// the input side, recorded sends on the output side, and a seeded RNG for
/// internal nondeterministic choices.
///
/// Reads ([`pop`](StepCtx::pop)/[`peek`](StepCtx::peek)) and sends are
/// also metered by the run's telemetry: the first reader of a channel is
/// recorded as its consumer, and a second distinct reader is reported as
/// a [`ConsumerViolation`](crate::report::ConsumerViolation) — the
/// runtime backstop for processes that don't declare
/// [`Process::inputs`].
///
/// Under a supervised run ([`crate::supervisor`]) the context journals
/// every observation a process makes (queue depths, peeks, pops, RNG
/// draws) and every send; after a crash the journal is replayed to the
/// restored process so its re-execution is deterministic even though the
/// rest of the network moved on. Engine-interposed faulty links
/// ([`crate::faults::FaultSchedule`]) intercept sends on their channel.
/// None of this machinery is active — or paid for — in bare runs.
pub struct StepCtx<'a> {
    pub(crate) queues: &'a mut ChanMap<VecDeque<Value>>,
    pub(crate) trace: &'a mut Vec<Event>,
    pub(crate) rng: &'a mut StdRng,
    /// Telemetry sink; `None` during quiescence probes and in bare test
    /// harnesses.
    pub(crate) telemetry: Option<&'a mut Telemetry>,
    /// Index of the process currently being stepped (for consumer
    /// attribution).
    pub(crate) current: usize,
    /// Observation journal for the current process (supervised runs
    /// only; `None` while its replay is active).
    pub(crate) journal: Option<&'a mut Journal>,
    /// Replay buffer for the current process — set while it re-executes
    /// its journaled history after a restart.
    pub(crate) replay: Option<&'a mut Replay>,
    /// Engine-interposed faulty links (chaos schedules only).
    pub(crate) links: Option<&'a mut [EngineLink]>,
    /// Engine-level reliable links (ARQ-protected channels) intercepting
    /// sends on their channel.
    pub(crate) reliables: Option<&'a mut [ReliableLink]>,
    /// Bounded-channel flow control (capacity-bounded runs only): the
    /// capacity configuration plus the per-step transaction that lets
    /// the engine roll a blocked step back.
    pub(crate) flow: Option<&'a mut FlowControl>,
}

/// Bounded-channel flow control: the run's capacity configuration plus
/// the per-step transaction used to roll a blocked step back (so
/// backpressure is purely a *scheduler restriction* — a blocked step
/// never happened, and is simply retried once credit frees up).
#[derive(Debug)]
pub(crate) struct FlowControl {
    /// Queue capacity applied to every managed channel.
    pub(crate) capacity: usize,
    /// What to do with a send on a full channel.
    pub(crate) policy: OverflowPolicy,
    /// Channels the capacity applies to: every *declared input* of some
    /// process. Channels nobody declares as input (environment-facing
    /// outputs) have no consumer to grant credit and stay unbounded.
    pub(crate) managed: BTreeSet<Chan>,
    /// The in-flight step's transaction.
    pub(crate) txn: FlowTxn,
}

/// Undo log for one step under flow control.
#[derive(Debug, Default)]
pub(crate) struct FlowTxn {
    /// Set when the step hit a full channel under
    /// [`OverflowPolicy::Block`] — the engine will roll the step back.
    pub(crate) blocked: Option<Chan>,
    /// Channels delivered to during the step, in delivery order.
    pub(crate) sends: Vec<Chan>,
    /// Values popped during the step, in pop order.
    pub(crate) pops: Vec<(Chan, Value)>,
    /// Per-channel telemetry meter snapshots saved before the step's
    /// first mutation (`None` = the channel had no counters entry yet).
    /// `Copy` meters only — stamp queues are never touched inside a
    /// transaction (see [`CounterSnap`]), so the save path never
    /// allocates.
    pub(crate) saved: Vec<(Chan, Option<CounterSnap>)>,
}

impl FlowTxn {
    /// Clears the transaction for a fresh step.
    pub(crate) fn begin(&mut self) {
        self.blocked = None;
        self.sends.clear();
        self.pops.clear();
        self.saved.clear();
    }
}

impl<'a> StepCtx<'a> {
    /// A context with no supervision or fault machinery attached (the
    /// bare-run configuration).
    pub(crate) fn bare(
        queues: &'a mut ChanMap<VecDeque<Value>>,
        trace: &'a mut Vec<Event>,
        rng: &'a mut StdRng,
        telemetry: Option<&'a mut Telemetry>,
        current: usize,
    ) -> StepCtx<'a> {
        StepCtx {
            queues,
            trace,
            rng,
            telemetry,
            current,
            journal: None,
            replay: None,
            links: None,
            reliables: None,
            flow: None,
        }
    }

    /// Saves channel `c`'s telemetry meters into the flow transaction
    /// (first touch only), so a rolled-back step restores them exactly.
    fn flow_save(&mut self, c: Chan) {
        let prev = self
            .telemetry
            .as_deref()
            .and_then(|t| t.channels.get(&c).map(ChannelCounters::snap));
        let Some(f) = self.flow.as_deref_mut() else {
            return;
        };
        if f.txn.saved.iter().any(|&(sc, _)| sc == c) {
            return;
        }
        f.txn.saved.push((c, prev));
    }

    /// Number of messages waiting on `c`.
    ///
    /// Journaled as an observation under supervision: during replay the
    /// recorded depth is served instead of the live one, so a restored
    /// process re-takes exactly the branches it took before the crash.
    pub fn available(&mut self, c: Chan) -> usize {
        if let Some(r) = self.replay.as_deref_mut() {
            if let Some(op) = r.ops.pop_front() {
                match op {
                    Op::Available(rc, n) if rc == c => return n,
                    other => replay_diverged(r, "available", c, &other),
                }
            }
        }
        let n = self.queues.get(&c).map_or(0, VecDeque::len);
        if let Some(j) = self.journal.as_deref_mut() {
            j.ops.push(Op::Available(c, n));
        }
        n
    }

    /// Looks at the `i`-th waiting message on `c` without consuming it.
    pub fn peek(&mut self, c: Chan, i: usize) -> Option<Value> {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.note_consumer(c, self.current);
        }
        if let Some(r) = self.replay.as_deref_mut() {
            if let Some(op) = r.ops.pop_front() {
                match op {
                    Op::Peek(rc, ri, v) if rc == c && ri == i => return v,
                    other => replay_diverged(r, "peek", c, &other),
                }
            }
        }
        let v = self.queues.get(&c).and_then(|q| q.get(i)).copied();
        if let Some(j) = self.journal.as_deref_mut() {
            j.ops.push(Op::Peek(c, i, v));
        }
        v
    }

    /// Consumes the head message of `c`.
    pub fn pop(&mut self, c: Chan) -> Option<Value> {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.note_consumer(c, self.current);
        }
        if let Some(r) = self.replay.as_deref_mut() {
            if let Some(op) = r.ops.pop_front() {
                match op {
                    Op::Pop(rc, expected) if rc == c => {
                        if expected.is_some() {
                            // the journaled value was re-queued at restart;
                            // consume it again (metering already counted it
                            // the first time around)
                            let live = self.queues.get_mut(&c).and_then(VecDeque::pop_front);
                            if live != expected {
                                replay_diverged(r, "pop", c, &Op::Pop(c, expected));
                                return live;
                            }
                        }
                        return expected;
                    }
                    other => replay_diverged(r, "pop", c, &other),
                }
            }
        }
        let v = self.queues.get_mut(&c).and_then(VecDeque::pop_front);
        if let Some(v) = v {
            if self.flow.is_some() {
                self.flow_save(c);
                self.flow
                    .as_deref_mut()
                    .expect("flow is present")
                    .txn
                    .pops
                    .push((c, v));
            }
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.note_receive(c);
            }
        }
        if let Some(j) = self.journal.as_deref_mut() {
            j.ops.push(Op::Pop(c, v));
        }
        v
    }

    /// Sends `v` along `c`: appended to the global trace and to `c`'s
    /// queue for its consumer. If a chaos schedule interposes a faulty
    /// link on `c`, the message passes through the link instead (and may
    /// be dropped, duplicated, or buffered for later release).
    pub fn send(&mut self, c: Chan, v: Value) {
        if let Some(r) = self.replay.as_deref_mut() {
            if let Some(op) = r.ops.pop_front() {
                match op {
                    // Re-emitted sends were already delivered (trace, queue
                    // and telemetry) before the crash: suppress.
                    Op::Sent(rc, rv) if rc == c && rv == v => return,
                    other => replay_diverged(r, "send", c, &other),
                }
            }
        }
        if let Some(j) = self.journal.as_deref_mut() {
            j.ops.push(Op::Sent(c, v));
        }
        if let Some(rels) = self.reliables.as_deref_mut() {
            if let Some(link) = rels.iter_mut().find(|l| l.chan() == c) {
                // ARQ-protected channel: the message enters the sender's
                // window/backlog; delivery happens (in order, exactly
                // once) when the engine pumps the link between rounds.
                // With clean media the protocol is the identity, so the
                // link steps aside and the send falls through to the
                // ordinary direct-delivery path below.
                if !link.is_passthrough() {
                    link.on_send(v, self.telemetry.as_deref_mut());
                    return;
                }
            }
        }
        if let Some(links) = self.links.as_deref_mut() {
            if let Some(link) = links.iter_mut().find(|l| l.chan() == c) {
                let (deliveries, event) = link.on_send(v);
                if let (Some(t), Some(e)) = (self.telemetry.as_deref_mut(), event) {
                    t.note_link_fault(c, e);
                }
                for d in deliveries {
                    raw_send(self.queues, self.trace, self.telemetry.as_deref_mut(), c, d);
                }
                return;
            }
        }
        let mut policy_if_full = None;
        if let Some(f) = self.flow.as_deref() {
            if f.txn.blocked.is_some() {
                // The step is already doomed to roll back; suppress
                // further deliveries.
                return;
            }
            if f.managed.contains(&c) && self.queues.get(&c).map_or(0, VecDeque::len) >= f.capacity
            {
                policy_if_full = Some(f.policy);
            }
        }
        match policy_if_full {
            Some(OverflowPolicy::Block) => {
                self.flow
                    .as_deref_mut()
                    .expect("flow is present")
                    .txn
                    .blocked = Some(c);
                return;
            }
            Some(OverflowPolicy::Shed) => {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    let _ = t.note_shed(c);
                }
                return;
            }
            None => {}
        }
        if self.flow.is_some() {
            self.flow_save(c);
            self.flow
                .as_deref_mut()
                .expect("flow is present")
                .txn
                .sends
                .push(c);
        }
        raw_send(self.queues, self.trace, self.telemetry.as_deref_mut(), c, v);
    }

    /// A nondeterministic coin flip (seeded at the network level, so runs
    /// are reproducible).
    pub fn flip(&mut self) -> bool {
        JournaledRng { ctx: self }.random_bool(0.5)
    }

    /// A nondeterministic choice in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0, "choose(0)");
        JournaledRng { ctx: self }.random_range(0..n)
    }

    /// Reports an injected fault event (used by [`crate::FaultyLink`] and
    /// available to custom fault processes) so convicting runs can name
    /// the exact perturbations alongside the violated equation — see
    /// [`RunReport::fault_log`](crate::RunReport::fault_log).
    pub fn note_fault(&mut self, event: FaultEvent) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.note_proc_fault(self.current, event);
        }
    }

    /// One raw RNG word: served from the replay buffer after a restart,
    /// journaled under supervision, drawn live otherwise.
    fn next_word(&mut self) -> u64 {
        if let Some(r) = self.replay.as_deref_mut() {
            if let Some(op) = r.ops.pop_front() {
                match op {
                    Op::Draw(w) => return w,
                    other => replay_diverged(r, "rng draw", Chan::new(0), &other),
                }
            }
        }
        let w = self.rng.next_u64();
        if let Some(j) = self.journal.as_deref_mut() {
            j.ops.push(Op::Draw(w));
        }
        w
    }
}

/// Delivers `v` on `c` for real: trace event, queue append, telemetry.
pub(crate) fn raw_send(
    queues: &mut ChanMap<VecDeque<Value>>,
    trace: &mut Vec<Event>,
    telemetry: Option<&mut Telemetry>,
    c: Chan,
    v: Value,
) {
    trace.push(Event::new(c, v));
    let q = queues.entry(c).or_default();
    q.push_back(v);
    let depth = q.len();
    if let Some(t) = telemetry {
        t.note_send(c, depth, v);
    }
}

/// Records a replay divergence on `r`: the restored process performed a
/// different operation than its journal records, so it is not
/// deterministic given its observations. The replay is abandoned (the
/// remaining ops are dropped and the caller falls through to the live
/// observation) and the engine escalates the process at the end of the
/// step — a diverging process fails its own recovery, never the whole
/// daemon.
#[cold]
fn replay_diverged(r: &mut Replay, what: &str, c: Chan, got: &Op) {
    if r.diverged.is_none() {
        r.diverged = Some(format!(
            "deterministic replay diverged at {what} on {c}: journal records {got:?}"
        ));
    }
    r.ops.clear();
}

/// Adapter routing `RngExt` sampling through the journaled word stream,
/// so rejection sampling draws the same number of words on replay.
struct JournaledRng<'a, 'b> {
    ctx: &'b mut StepCtx<'a>,
}

impl RngCore for JournaledRng<'_, '_> {
    fn next_u64(&mut self) -> u64 {
        self.ctx.next_word()
    }
}

/// A message-communicating process: a state machine stepped by the
/// scheduler.
///
/// `step` should perform a bounded amount of work (typically: consume at
/// most one input and/or emit at most one output) and report whether it
/// made progress; the network detects quiescence when every process
/// reports [`StepResult::Idle`] in a full round.
///
/// # Supervision hooks
///
/// The five defaulted methods below opt a process into the checkpointed
/// supervision runtime ([`crate::snapshot`], [`crate::supervisor`]). All
/// defaults are safe no-ops: a process that implements none of them still
/// runs everywhere, but cannot be checkpointed and can only be recovered
/// by the supervisor if it supports [`reset`](Process::reset)
/// (replay-from-genesis).
///
/// Processes are `Send` so a built [`Network`](crate::Network) can move
/// between threads — the shape of `eqpd`'s worker pool, where a parked
/// `SessionRun` resumes on whichever worker thread picks it up next
/// (today it parks a [`Checkpoint`](crate::Checkpoint) and rebuilds the
/// network there; the bound keeps handing over a live network possible).
/// A process owns its state outright (channels are the only
/// communication medium), so this costs nothing in practice.
pub trait Process: Send {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// The channels this process consumes from. Kahn networks require a
    /// single consumer per channel; [`crate::Network::add`] validates the
    /// declarations of all added processes for disjointness, and the
    /// runtime additionally meters actual reads (catching undeclared
    /// second readers). Declared inputs also drive starvation detection
    /// in [`RunReport`](crate::RunReport). The default (empty) opts out
    /// of the static validation — declare inputs wherever possible.
    fn inputs(&self) -> Vec<Chan> {
        Vec::new()
    }

    /// The channels this process sends on (diagnostic only).
    fn outputs(&self) -> Vec<Chan> {
        Vec::new()
    }

    /// Performs one step against the channel context.
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepResult;

    /// Captures the process's *mutable* state as a [`StateCell`] —
    /// positions, buffers, flags, private RNGs — never construction-time
    /// constants. Stateless processes should return
    /// `Some(StateCell::Unit)`; the default `None` marks the process as
    /// un-checkpointable.
    fn snapshot(&self) -> Option<StateCell> {
        None
    }

    /// Restores state previously captured by [`snapshot`](Process::snapshot)
    /// on an *identically constructed* process. Returns `false` if the
    /// cell does not have the expected shape (or the hook is unsupported,
    /// the default).
    fn restore(&mut self, state: &StateCell) -> bool {
        let _ = state;
        false
    }

    /// Resets the process to its just-constructed (genesis) state.
    /// Enables the supervisor's replay-from-genesis fallback for
    /// processes without snapshot hooks; also used to model the state
    /// loss of a crash. Returns `false` if unsupported (the default).
    fn reset(&mut self) -> bool {
        false
    }

    /// True iff the process has crashed and will never progress again on
    /// its own (see [`crate::CrashAt`]). The runtime polls this to feed
    /// the per-process `crashed` flag in [`RunReport`](crate::RunReport)
    /// and to trigger supervised recovery.
    fn crashed(&self) -> bool {
        false
    }

    /// Revives the process after a crash (called by the supervisor after
    /// state restoration; [`crate::CrashAt`] uses it to defuse its fuel).
    /// Returns `false` if the process cannot be revived. The default
    /// succeeds: an externally crashed process needs no cooperation.
    fn restart(&mut self) -> bool {
        true
    }
}

impl<P: Process + ?Sized> Process for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn inputs(&self) -> Vec<Chan> {
        (**self).inputs()
    }

    fn outputs(&self) -> Vec<Chan> {
        (**self).outputs()
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepResult {
        (**self).step(ctx)
    }

    fn snapshot(&self) -> Option<StateCell> {
        (**self).snapshot()
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        (**self).restore(state)
    }

    fn reset(&mut self) -> bool {
        (**self).reset()
    }

    fn crashed(&self) -> bool {
        (**self).crashed()
    }

    fn restart(&mut self) -> bool {
        (**self).restart()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx_parts() -> (ChanMap<VecDeque<Value>>, Vec<Event>, StdRng) {
        (ChanMap::default(), Vec::new(), StdRng::seed_from_u64(7))
    }

    #[test]
    fn send_records_and_queues() {
        let (mut q, mut t, mut r) = ctx_parts();
        let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, None, 0);
        let c = Chan::new(0);
        ctx.send(c, Value::Int(1));
        ctx.send(c, Value::Int(2));
        assert_eq!(ctx.available(c), 2);
        assert_eq!(ctx.peek(c, 1), Some(Value::Int(2)));
        assert_eq!(ctx.pop(c), Some(Value::Int(1)));
        assert_eq!(ctx.available(c), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pop_empty_is_none() {
        let (mut q, mut t, mut r) = ctx_parts();
        let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, None, 0);
        assert_eq!(ctx.pop(Chan::new(3)), None);
        assert_eq!(ctx.peek(Chan::new(3), 0), None);
        assert_eq!(ctx.available(Chan::new(3)), 0);
    }

    #[test]
    fn rng_choices_in_range() {
        let (mut q, mut t, mut r) = ctx_parts();
        let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, None, 0);
        for _ in 0..50 {
            assert!(ctx.choose(3) < 3);
            let _ = ctx.flip();
        }
    }

    #[test]
    fn telemetry_meters_reads_and_detects_second_reader() {
        let (mut q, mut t, mut r) = ctx_parts();
        let mut tel = Telemetry::default();
        let c = Chan::new(5);
        {
            let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, Some(&mut tel), 0);
            ctx.send(c, Value::Int(1));
            ctx.send(c, Value::Int(2));
            assert_eq!(ctx.pop(c), Some(Value::Int(1)));
        }
        {
            let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, Some(&mut tel), 1);
            assert_eq!(ctx.pop(c), Some(Value::Int(2)));
            // repeated reads by the same offender stay deduplicated
            assert_eq!(ctx.pop(c), None);
        }
        let counters = &tel.channels[&c];
        assert_eq!(counters.sends, 2);
        assert_eq!(counters.receives, 2);
        assert_eq!(counters.high_water, 2);
        assert_eq!(counters.consumer, Some(0));
        assert_eq!(tel.violations, vec![(c, 0, 1)]);
    }

    #[test]
    fn journal_records_observations_and_replay_serves_them() {
        let (mut q, mut t, mut r) = ctx_parts();
        let c = Chan::new(9);
        q.entry(c).or_default().push_back(Value::Int(4));
        let mut journal = Journal::default();
        let (word, flipped) = {
            let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, None, 0);
            ctx.journal = Some(&mut journal);
            assert_eq!(ctx.available(c), 1);
            assert_eq!(ctx.pop(c), Some(Value::Int(4)));
            ctx.send(c, Value::Int(8));
            let f = ctx.flip();
            let w = match journal_last_draw(&journal) {
                Some(w) => w,
                None => panic!("flip must journal its word"),
            };
            (w, f)
        };
        assert!(journal.ops.len() >= 4);
        // replay: re-queue the popped value, then serve every op back
        q.get_mut(&c).expect("queued").push_front(Value::Int(4));
        let mut replay = Replay::from_journal(&journal);
        {
            let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, None, 0);
            ctx.replay = Some(&mut replay);
            assert_eq!(ctx.available(c), 1);
            assert_eq!(ctx.pop(c), Some(Value::Int(4)));
            ctx.send(c, Value::Int(8)); // suppressed: no new trace event
            assert_eq!(ctx.flip(), flipped);
        }
        assert!(replay.ops.is_empty(), "replay fully consumed");
        assert_eq!(t.len(), 1, "the replayed send is suppressed");
        let _ = word;
    }

    fn journal_last_draw(j: &Journal) -> Option<u64> {
        j.ops.iter().rev().find_map(|op| match op {
            Op::Draw(w) => Some(*w),
            _ => None,
        })
    }

    #[test]
    fn replay_divergence_is_flagged_not_fatal() {
        let (mut q, mut t, mut r) = ctx_parts();
        let c = Chan::new(2);
        q.entry(c).or_default().push_back(Value::Int(7));
        let mut journal = Journal::default();
        journal.ops.push(Op::Available(c, 3));
        journal.ops.push(Op::Available(c, 3));
        let mut replay = Replay::from_journal(&journal);
        {
            let mut ctx = StepCtx::bare(&mut q, &mut t, &mut r, None, 0);
            ctx.replay = Some(&mut replay);
            // journal says `available`, process does `pop`: the replay is
            // abandoned, the live observation is served, and the marker is
            // set for the engine to escalate — no panic
            assert_eq!(ctx.pop(c), Some(Value::Int(7)));
        }
        let why = replay.diverged.expect("divergence recorded");
        assert!(why.contains("diverged at pop"), "{why}");
        assert!(replay.ops.is_empty(), "replay abandoned");
    }

    #[test]
    fn default_hooks_are_inert() {
        struct Plain;
        impl Process for Plain {
            fn name(&self) -> &str {
                "plain"
            }
            fn step(&mut self, _: &mut StepCtx<'_>) -> StepResult {
                StepResult::Idle
            }
        }
        let mut p = Plain;
        assert!(p.snapshot().is_none());
        assert!(!p.restore(&StateCell::Unit));
        assert!(!p.reset());
        assert!(!p.crashed());
        assert!(p.restart());
        // the blanket Box impl forwards
        let b: Box<dyn Process> = Box::new(Plain);
        assert!(b.snapshot().is_none());
        assert!(!b.crashed());
    }
}
