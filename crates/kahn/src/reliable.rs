//! Reliable transport: an ARQ link protocol that masks lossy channels.
//!
//! The paper's composition theorem says a network is described by the
//! pairing of its component descriptions — so a lossy channel wrapped in
//! a recovery protocol whose *composite* description is the identity
//! certifies exactly like a perfect wire. This module supplies that
//! wrapper at engine level ([`ReliableConfig`], attached through
//! [`RunWith::reliable`](crate::RunWith::reliable)): every send on a
//! protected channel enters an ARQ sender (sequence-numbered frames,
//! bounded in-flight window), crosses a faulty medium (the channel's
//! [`LinkFaultSpec`](crate::faults::LinkFaultSpec), if any), and is
//! re-sequenced by a receive-side dedup/reorder window before being
//! delivered — in order, exactly once — onto the real channel.
//! Cumulative acks flow back over their own (optionally faulty) medium;
//! unacked frames are retransmitted on a deterministic round-counted
//! timer with exponential backoff and a per-link retry budget. The
//! composite is the identity description, so drop/duplicate/reorder
//! schedules that convict a bare link certify as
//! [`Verdict::SmoothSolution`](crate::Verdict) once it is protected.
//!
//! On budget exhaustion the link degrades gracefully instead of hanging:
//! it abandons its in-flight state, logs a
//! [`FaultKind::RetryExhausted`] event, and the run terminates with
//! [`RunStatus::ReliabilityExhausted`](crate::RunStatus) naming the
//! link; the conformance bridge maps a clean truncated history under
//! that status to [`Verdict::Degraded`](crate::Verdict).

use crate::chanmap::ChanMap;
use crate::faults::{Fault, FaultEvent, FaultKind};
use crate::process::raw_send;
use crate::report::Telemetry;
use eqp_trace::{Chan, Event, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// ARQ protocol parameters. All timing is in deterministic scheduler
/// rounds — there are no wall clocks anywhere in the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqOptions {
    /// Maximum unacked frames in flight; further sends queue in the
    /// sender's backlog.
    pub window: usize,
    /// Rounds to wait for an ack before the first retransmission.
    pub timeout_rounds: usize,
    /// Cap on the exponentially doubling retransmission timeout.
    pub max_backoff_rounds: usize,
    /// Retransmissions allowed for the oldest unacked frame; one more
    /// expiry exhausts the link and degrades the run.
    pub max_retries: usize,
}

impl Default for ArqOptions {
    fn default() -> Self {
        ArqOptions {
            window: 8,
            timeout_rounds: 4,
            max_backoff_rounds: 64,
            max_retries: 12,
        }
    }
}

impl ArqOptions {
    /// The retransmission timeout after `attempt` retries: doubling from
    /// [`timeout_rounds`](ArqOptions::timeout_rounds), capped at
    /// [`max_backoff_rounds`](ArqOptions::max_backoff_rounds), never
    /// zero.
    pub fn backoff(&self, attempt: usize) -> usize {
        let shifted = u32::try_from(attempt)
            .ok()
            .and_then(|a| self.timeout_rounds.checked_shl(a))
            .unwrap_or(usize::MAX);
        shifted.min(self.max_backoff_rounds).max(1)
    }

    /// A tiny budget (one fast retry) — the configuration chaos uses to
    /// provoke graceful degradation.
    pub fn impatient() -> ArqOptions {
        ArqOptions {
            timeout_rounds: 1,
            max_backoff_rounds: 2,
            max_retries: 1,
            ..ArqOptions::default()
        }
    }
}

/// Engine-level reliable-transport configuration: which channels to
/// protect and how. Attached through
/// [`RunWith::reliable`](crate::RunWith::reliable);
/// any [`LinkFaultSpec`](crate::faults::LinkFaultSpec) naming a
/// protected channel becomes the ARQ *medium* for that channel instead
/// of a bare faulty link.
#[derive(Debug, Clone)]
pub struct ReliableConfig {
    /// The protected channels.
    pub channels: Vec<Chan>,
    /// Protocol parameters, shared by every protected channel.
    pub arq: ArqOptions,
    /// Optional perturbation of the ack path (the data path's fault
    /// comes from the run's fault schedule).
    pub ack_fault: Option<Fault>,
}

impl ReliableConfig {
    /// Protects `channels` with default [`ArqOptions`] and a clean ack
    /// path.
    pub fn new(channels: Vec<Chan>) -> ReliableConfig {
        ReliableConfig {
            channels,
            arq: ArqOptions::default(),
            ack_fault: None,
        }
    }

    /// Overrides the protocol parameters.
    pub fn arq(mut self, arq: ArqOptions) -> ReliableConfig {
        self.arq = arq;
        self
    }

    /// Perturbs the ack path too.
    pub fn ack_fault(mut self, fault: Fault) -> ReliableConfig {
        self.ack_fault = Some(fault);
        self
    }
}

/// What a faulty medium did to one in-transit item.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MediumEvent<T> {
    /// 1-based arrival index of the perturbed item on this medium.
    pub(crate) seq: usize,
    pub(crate) kind: FaultKind,
    pub(crate) item: T,
}

/// A lossy in-flight buffer generic over its payload — the transport
/// layer under an engine-level [`ReliableLink`]'s frames and acks. A
/// `Clean` medium still buffers for one pump (links have latency, which
/// is the paper's benign asynchrony); faulty media reuse the
/// [`Fault`] taxonomy's drop/duplicate/reorder/delay semantics.
#[derive(Debug)]
pub(crate) struct Medium<T> {
    kind: MediumKind,
    rng: Option<StdRng>,
    /// `(arrival index, item)` pairs awaiting release.
    buffer: VecDeque<(usize, T)>,
    /// Items ingested so far (1-based arrival seq of the next is
    /// `seen + 1`).
    seen: usize,
}

#[derive(Debug, Clone, Copy)]
enum MediumKind {
    Clean,
    Delay { slack: usize },
    Reorder { window: usize },
    Duplicate { period: usize },
    Drop { period: usize },
}

impl<T: Copy> Medium<T> {
    pub(crate) fn new(fault: Option<&Fault>) -> Medium<T> {
        let (kind, rng) = match fault {
            None => (MediumKind::Clean, None),
            Some(Fault::Delay { slack }) => (MediumKind::Delay { slack: *slack }, None),
            Some(Fault::Reorder { window, seed }) => {
                assert!(*window > 0, "reorder window must be positive");
                (
                    MediumKind::Reorder { window: *window },
                    Some(StdRng::seed_from_u64(*seed)),
                )
            }
            Some(Fault::Duplicate { period }) => {
                assert!(*period > 0, "duplicate period must be positive");
                (MediumKind::Duplicate { period: *period }, None)
            }
            Some(Fault::Drop { period }) => {
                assert!(*period > 0, "drop period must be positive");
                (MediumKind::Drop { period: *period }, None)
            }
        };
        Medium {
            kind,
            rng,
            buffer: VecDeque::new(),
            seen: 0,
        }
    }

    /// Items currently in transit.
    pub(crate) fn in_flight(&self) -> usize {
        self.buffer.len()
    }

    /// Ingests one item; drop/duplicate perturbations happen here.
    pub(crate) fn on_send(&mut self, item: T) -> Option<MediumEvent<T>> {
        self.seen += 1;
        let seq = self.seen;
        match self.kind {
            MediumKind::Duplicate { period } if seq.is_multiple_of(period) => {
                self.buffer.push_back((seq, item));
                self.buffer.push_back((seq, item));
                Some(MediumEvent {
                    seq,
                    kind: FaultKind::Duplicated,
                    item,
                })
            }
            MediumKind::Drop { period } if seq.is_multiple_of(period) => Some(MediumEvent {
                seq,
                kind: FaultKind::Dropped,
                item,
            }),
            _ => {
                self.buffer.push_back((seq, item));
                None
            }
        }
    }

    /// End-of-round release. Clean/duplicate/drop media release
    /// everything; delay media hold up to `slack` items; reorder media
    /// release (in random order) whenever the window is full. With
    /// `force` each holding medium additionally releases one item, so
    /// buffers provably drain before quiescence.
    pub(crate) fn pump(&mut self, force: bool) -> (Vec<T>, Vec<MediumEvent<T>>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        match self.kind {
            MediumKind::Clean | MediumKind::Duplicate { .. } | MediumKind::Drop { .. } => {
                out.extend(self.buffer.drain(..).map(|(_, item)| item));
            }
            MediumKind::Delay { slack } => {
                while self.buffer.len() > slack {
                    out.push(self.buffer.pop_front().expect("nonempty").1);
                }
                if force {
                    if let Some((_, item)) = self.buffer.pop_front() {
                        out.push(item);
                    }
                }
            }
            MediumKind::Reorder { window } => {
                let rng = self.rng.as_mut().expect("reorder media carry an RNG");
                let buffer = &mut self.buffer;
                let mut release = |buffer: &mut VecDeque<(usize, T)>| {
                    let i = rng.random_range(0..buffer.len());
                    let (seq, item) = buffer.swap_remove_back(i).expect("index in range");
                    let overtook = buffer.iter().any(|&(s, _)| s < seq);
                    if overtook {
                        events.push(MediumEvent {
                            seq,
                            kind: FaultKind::Reordered,
                            item,
                        });
                    }
                    item
                };
                while buffer.len() >= window {
                    let item = release(buffer);
                    out.push(item);
                }
                if force && !buffer.is_empty() {
                    let item = release(buffer);
                    out.push(item);
                }
            }
        }
        (out, events)
    }

    /// Discards everything in transit (link abandonment on exhaustion).
    pub(crate) fn abandon(&mut self) {
        self.buffer.clear();
    }
}

/// One engine-level reliable link: the full
/// sender → medium → receiver → ack-medium loop for a single protected
/// channel, run by the engine between scheduler rounds. Sends on the
/// channel are intercepted into the sender; in-order exactly-once
/// deliveries come out of the receiver onto the real channel.
#[derive(Debug)]
pub(crate) struct ReliableLink {
    chan: Chan,
    arq: ArqOptions,
    /// True iff both media are clean: the protocol is provably the
    /// identity, so the link steps aside entirely and sends take the
    /// ordinary direct-delivery path — reliability costs nothing when
    /// the link underneath is already reliable.
    passthrough: bool,
    // --- sender ---
    next_seq: u64,
    /// Accepted sends not yet framed (window full), oldest first.
    backlog: VecDeque<Value>,
    /// Framed but unacked, oldest first.
    unacked: VecDeque<(u64, Value)>,
    /// Rounds until the next retransmission of the oldest unacked frame.
    timer: usize,
    /// Retransmissions of the current oldest unacked frame.
    attempt: usize,
    exhausted: bool,
    /// Messages abandoned after exhaustion (diagnostic).
    abandoned: usize,
    retransmits: usize,
    // --- media ---
    data: Medium<(u64, Value)>,
    acks: Medium<u64>,
    // --- receiver ---
    /// Next in-order sequence number to deliver.
    expected: u64,
    /// Out-of-order frames buffered for re-sequencing (dedup by key).
    reorder: BTreeMap<u64, Value>,
}

impl ReliableLink {
    pub(crate) fn new(
        chan: Chan,
        fault: Option<&Fault>,
        ack_fault: Option<&Fault>,
        arq: ArqOptions,
    ) -> ReliableLink {
        ReliableLink {
            chan,
            arq,
            passthrough: fault.is_none() && ack_fault.is_none(),
            next_seq: 0,
            backlog: VecDeque::new(),
            unacked: VecDeque::new(),
            timer: 0,
            attempt: 0,
            exhausted: false,
            abandoned: 0,
            retransmits: 0,
            data: Medium::new(fault),
            acks: Medium::new(ack_fault),
            expected: 0,
            reorder: BTreeMap::new(),
        }
    }

    pub(crate) fn chan(&self) -> Chan {
        self.chan
    }

    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// True iff both media are clean and the link is a pure identity:
    /// sends bypass the protocol machinery entirely.
    pub(crate) fn is_passthrough(&self) -> bool {
        self.passthrough
    }

    /// Protocol state still owed to the channel. Zero once exhausted:
    /// the link has abandoned its obligations and the run may quiesce
    /// (degraded).
    pub(crate) fn pending(&self) -> usize {
        if self.exhausted {
            return 0;
        }
        self.unacked.len()
            + self.backlog.len()
            + self.data.in_flight()
            + self.acks.in_flight()
            + self.reorder.len()
    }

    fn frame_event(&self, e: MediumEvent<(u64, Value)>) -> FaultEvent {
        FaultEvent {
            chan: self.chan,
            seq: e.seq,
            kind: e.kind,
            value: e.item.1,
        }
    }

    /// Intercepts one send on the protected channel: framed immediately
    /// if the window has room, backlogged otherwise, discarded (counted)
    /// after exhaustion.
    pub(crate) fn on_send(&mut self, v: Value, telemetry: Option<&mut Telemetry>) {
        if self.exhausted {
            self.abandoned += 1;
            return;
        }
        if self.unacked.len() < self.arq.window {
            let s = self.next_seq;
            self.next_seq += 1;
            if self.unacked.is_empty() {
                self.timer = self.arq.timeout_rounds;
                self.attempt = 0;
            }
            self.unacked.push_back((s, v));
            if let Some(e) = self.data.on_send((s, v)) {
                let e = self.frame_event(e);
                if let Some(t) = telemetry {
                    t.note_link_fault(self.chan, e);
                }
            }
        } else {
            self.backlog.push_back(v);
        }
    }

    /// One end-of-round protocol turn: move frames through the data
    /// medium into the receiver (dedup, re-sequence, deliver in order
    /// onto the real channel, ack cumulatively), move acks back through
    /// the ack medium into the sender (advance the window, refill it
    /// from the backlog), and tick the retransmission timer. Returns
    /// true iff the link did (or is still waiting to do) anything — an
    /// armed retransmission timer keeps the run alive.
    pub(crate) fn pump(
        &mut self,
        queues: &mut ChanMap<VecDeque<Value>>,
        trace: &mut Vec<Event>,
        telemetry: &mut Telemetry,
        force: bool,
    ) -> bool {
        let mut activity = false;

        // Frames arriving at the receiver.
        let (arrivals, events) = self.data.pump(force);
        for e in events {
            let e = self.frame_event(e);
            telemetry.note_link_fault(self.chan, e);
        }
        let mut got_frame = false;
        for (seq, v) in arrivals {
            got_frame = true;
            if seq >= self.expected {
                // Duplicates inside the window collapse into the map.
                self.reorder.entry(seq).or_insert(v);
            }
        }
        while let Some(v) = self.reorder.remove(&self.expected) {
            raw_send(queues, trace, Some(telemetry), self.chan, v);
            self.expected += 1;
        }
        if got_frame {
            // Cumulative (re-)ack — re-acking duplicates is what recovers
            // from lost acks.
            let _ = self.acks.on_send(self.expected);
            activity = true;
        }

        // Acks arriving at the sender.
        let (ack_arrivals, _) = self.acks.pump(force);
        for ack in ack_arrivals {
            let before = self.unacked.len();
            while self.unacked.front().is_some_and(|&(s, _)| s < ack) {
                self.unacked.pop_front();
            }
            if self.unacked.len() != before {
                self.timer = self.arq.timeout_rounds;
                self.attempt = 0;
                activity = true;
            }
        }

        // Refill the window from the backlog.
        while !self.exhausted && self.unacked.len() < self.arq.window {
            let Some(v) = self.backlog.pop_front() else {
                break;
            };
            let s = self.next_seq;
            self.next_seq += 1;
            if self.unacked.is_empty() {
                self.timer = self.arq.timeout_rounds;
                self.attempt = 0;
            }
            self.unacked.push_back((s, v));
            if let Some(e) = self.data.on_send((s, v)) {
                let e = self.frame_event(e);
                telemetry.note_link_fault(self.chan, e);
            }
            activity = true;
        }

        // Retransmission timer.
        if !self.exhausted && !self.unacked.is_empty() {
            activity = true;
            self.timer = self.timer.saturating_sub(1);
            if self.timer == 0 {
                if self.attempt >= self.arq.max_retries {
                    let &(s, v) = self.unacked.front().expect("nonempty");
                    telemetry.note_link_fault(
                        self.chan,
                        FaultEvent {
                            chan: self.chan,
                            seq: s as usize + 1,
                            kind: FaultKind::RetryExhausted,
                            value: v,
                        },
                    );
                    self.exhausted = true;
                    self.abandoned += self.unacked.len() + self.backlog.len();
                    self.unacked.clear();
                    self.backlog.clear();
                    self.data.abandon();
                    self.acks.abandon();
                    self.reorder.clear();
                } else {
                    let frame = *self.unacked.front().expect("nonempty");
                    self.attempt += 1;
                    self.retransmits += 1;
                    self.timer = self.arq.backoff(self.attempt);
                    if let Some(e) = self.data.on_send(frame) {
                        let e = self.frame_event(e);
                        telemetry.note_link_fault(self.chan, e);
                    }
                }
            }
        }
        activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Copy>(m: &mut Medium<T>) -> Vec<T> {
        let mut out = Vec::new();
        for _ in 0..64 {
            let (items, _) = m.pump(true);
            if items.is_empty() && m.in_flight() == 0 {
                break;
            }
            out.extend(items);
        }
        out
    }

    #[test]
    fn clean_medium_is_one_round_of_latency() {
        let mut m: Medium<i64> = Medium::new(None);
        assert!(m.on_send(1).is_none());
        assert!(m.on_send(2).is_none());
        assert_eq!(m.in_flight(), 2);
        let (out, events) = m.pump(false);
        assert_eq!(out, vec![1, 2]);
        assert!(events.is_empty());
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn drop_medium_discards_periodically() {
        let mut m: Medium<i64> = Medium::new(Some(&Fault::Drop { period: 2 }));
        let mut dropped = Vec::new();
        for i in 1..=6 {
            if let Some(e) = m.on_send(i) {
                assert_eq!(e.kind, FaultKind::Dropped);
                dropped.push(e.item);
            }
        }
        assert_eq!(dropped, vec![2, 4, 6]);
        assert_eq!(drain(&mut m), vec![1, 3, 5]);
    }

    #[test]
    fn duplicate_medium_doubles_periodically() {
        let mut m: Medium<i64> = Medium::new(Some(&Fault::Duplicate { period: 3 }));
        for i in 1..=4 {
            let _ = m.on_send(i);
        }
        assert_eq!(drain(&mut m), vec![1, 2, 3, 3, 4]);
    }

    #[test]
    fn reorder_medium_permutes_but_preserves_content() {
        let mut m: Medium<i64> = Medium::new(Some(&Fault::Reorder { window: 3, seed: 9 }));
        for i in 1..=6 {
            assert!(m.on_send(i).is_none(), "reorder perturbs at release");
        }
        let mut out = drain(&mut m);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn delay_medium_holds_at_most_slack_without_force() {
        let mut m: Medium<i64> = Medium::new(Some(&Fault::Delay { slack: 2 }));
        for i in 1..=5 {
            let _ = m.on_send(i);
        }
        let (out, _) = m.pump(false);
        assert_eq!(out, vec![1, 2, 3], "releases above the slack, in order");
        let (out, _) = m.pump(true);
        assert_eq!(out, vec![4], "force releases one per pump");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let arq = ArqOptions {
            timeout_rounds: 3,
            max_backoff_rounds: 10,
            ..ArqOptions::default()
        };
        assert_eq!(arq.backoff(0), 3);
        assert_eq!(arq.backoff(1), 6);
        assert_eq!(arq.backoff(2), 10);
        assert_eq!(arq.backoff(500), 10, "shift saturates");
        let zero = ArqOptions {
            timeout_rounds: 0,
            ..ArqOptions::default()
        };
        assert_eq!(zero.backoff(0), 1, "never zero");
    }
}
