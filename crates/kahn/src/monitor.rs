//! Online incremental conformance monitoring: amortized O(1) per-event
//! certification of the smoothness condition.
//!
//! The post-hoc bridge in [`crate::conformance`] checks the *final* trace
//! in one linear walk once the run is over. But the smoothness condition
//! `∀ u pre v :: f(v) ⊑ g(u)` is exactly a per-step invariant: each new
//! event extends `u` to `v` by one, so a monitor that keeps *resumable*
//! evaluator states for both sides of every component equation
//! ([`eqp_seqfn::CompiledSideEval`], the register machine over the fused
//! IR of [`eqp_seqfn::compile`]) can check the new pair by freezing `g`'s
//! output length, stepping both sides one event, and comparing only the
//! freshly appended positions — amortized O(1) per event. The compiled
//! channel masks sharpen this further: a pair whose `f` side provably
//! ignores an event skips the check outright (sound once `f(ε) ⊑ g(ε)` is
//! established — see `PairState::base_ok`). A channel index built once
//! per description (`Routing`) applies the same locality to whole pairs:
//! an event reaches only the pairs whose sides read its channel, so both
//! the per-event and the batch paths cost O(readers), not O(equations),
//! per event. The limit condition
//! `f(t) = g(t)` is certified once at quiescence from the final states,
//! so the trace is never walked a second time — and a violating run can
//! stop at the offending event.
//!
//! Every side is a machine: a `Custom` function steps through its
//! `delta_init` hook, and an infinite constant (`trues`, `falses`) is its
//! own value, read cyclically — so no side is ever re-evaluated and a
//! pair against a constant costs the same O(1) per event as any other.
//!
//! The monitor produces the *same* [`SmoothReport`] / [`Conformance`] /
//! [`Verdict`] as the post-hoc path: violations are recorded in the same
//! `(u, v)`-pair-then-component order as the post-hoc walk
//! ([`eqp_core::diagnose`], through `eqp_core::smooth::smoothness`), and the
//! final verdict is derived by the same shared function
//! (`conformance::verdict_from_report`). The differential suite
//! `tests/monitor_equivalence.rs` pins this equivalence across the whole
//! zoo.

use crate::conformance::{verdict_from_report, Conformance, Verdict};
use crate::report::RunStatus;
use eqp_core::diagnose::{LimitVerdict, Outcome, SmoothReport, SmoothnessViolation};
use eqp_core::Description;
use eqp_seqfn::compile::{batch_advance, step_check};
use eqp_seqfn::{CompiledExpr, CompiledSideEval};
use eqp_trace::{Chan, ChanSet, Event, Seq, Trace};
use std::sync::Arc;

/// What the engine does when the monitor observes a smoothness violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorPolicy {
    /// Keep running; the violation is reported in the final
    /// [`Conformance`] exactly as the post-hoc check would.
    #[default]
    Observe,
    /// Halt the run at the violating step with
    /// [`RunStatus::MonitorAborted`] naming the convicted component
    /// equation — fault-injection and chaos trials stop at the offending
    /// event instead of running to the step bound and re-checking.
    AbortOnViolation,
}

/// Resumable evaluator pair for one component equation `f_k ⟸ g_k`,
/// running on the compiled IR ([`eqp_seqfn::compile`]).
#[derive(Debug, Clone)]
struct PairState {
    f: CompiledSideEval,
    g: CompiledSideEval,
    /// Positions of `f`'s output already verified against `g`'s — the
    /// amortization frontier of the incremental fast path.
    verified: usize,
    /// `f(ε) ⊑ g(ε)`, established once at construction. This is the base
    /// case of the skip argument: when it holds and `f` provably ignores
    /// an event (compiled channel mask), the new check `f(u·e) ⊑ g(u)`
    /// collapses to the already-established `f(u) ⊑ g(u)` — so the pair
    /// can skip freezing and checking entirely (stepping `g` only if `g`
    /// reads the event). When it does *not* hold, nothing is ever skipped:
    /// the very first check on a doubly-foreign event is exactly
    /// `f(ε) ⊑ g(ε)` and must be allowed to fail.
    base_ok: bool,
}

impl PairState {
    fn new(f: &CompiledExpr, g: &CompiledExpr) -> PairState {
        let f = CompiledSideEval::new(f);
        let g = CompiledSideEval::new(g);
        let mut verified = 0;
        let base_ok = step_check(&f, &g, &g.freeze(), &mut verified);
        PairState {
            f,
            g,
            verified,
            base_ok,
        }
    }

    /// The exact per-event step: advances both sides by `ev` and, when
    /// `checking`, checks `f(u·ev) ⊑ g(u)`. Returns the violating
    /// `(f(v), g(u))` on a failed check.
    fn feed(&mut self, ev: Event, checking: bool) -> Option<(Seq, Seq)> {
        if self.base_ok && !self.f.reads(ev.chan) {
            // `f` provably appends nothing on this event, so the pair's
            // check `f(u·e) ⊑ g(u)` collapses to the invariant
            // `f(u) ⊑ g(u)` already established (base case: `base_ok`;
            // step case: `g`'s output only grows). Keep `g` current and
            // move on — the skipped check would provably pass, so
            // first-violation ordering is untouched.
            if self.g.reads(ev.chan) {
                self.g.step(ev);
            }
            return None;
        }
        let frozen = self.g.freeze();
        self.f.step(ev);
        self.g.step(ev);
        if checking && !step_check(&self.f, &self.g, &frozen, &mut self.verified) {
            return Some((self.f.value(), self.g.frozen_value(&frozen)));
        }
        None
    }
}

/// Merges two ascending position lists into `out`.
fn merge_into(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Channel → slot lookup over the visible channel set: a dense table
/// indexed by channel id when the ids are compact (every netlang and zoo
/// network), else binary search over the sorted visible channels.
#[derive(Debug)]
enum SlotTable {
    /// `table[c.index()]` is `c`'s slot, or [`SlotTable::NONE`].
    Dense(Vec<u32>),
    /// The visible channels, sorted; a channel's slot is its position.
    Sparse(Vec<Chan>),
}

impl SlotTable {
    const NONE: u32 = u32::MAX;

    fn new(keep: &ChanSet) -> SlotTable {
        let chans: Vec<Chan> = keep.iter().collect();
        let span = chans.last().map_or(0, |c| c.index() as usize + 1);
        if span > 4 * chans.len() + 1024 {
            return SlotTable::Sparse(chans);
        }
        let mut table = vec![Self::NONE; span];
        for (s, c) in chans.iter().enumerate() {
            table[c.index() as usize] = s as u32;
        }
        SlotTable::Dense(table)
    }

    /// The slot of `c`, or `None` when the projection drops it.
    #[inline]
    fn slot(&self, c: Chan) -> Option<usize> {
        match self {
            SlotTable::Dense(table) => match table.get(c.index() as usize) {
                Some(&s) if s != Self::NONE => Some(s as usize),
                _ => None,
            },
            SlotTable::Sparse(chans) => chans.binary_search(&c).ok(),
        }
    }
}

/// Which pairs each visible channel reaches — a pure function of the
/// description and the visible set, derived once at
/// [`SmoothnessMonitor::new`] and shared by every clone (never checkpoint
/// state). An event on a channel neither side of a pair reads changes
/// neither side, so once a pair's entry invariant holds its check on such
/// an event collapses to the one already made: only the pair's readers
/// need to see the event.
#[derive(Debug)]
struct Routing {
    slots: SlotTable,
    /// Per pair: the ascending slots of the visible channels its `f` or
    /// `g` side reads ([`CompiledExpr::channels`]).
    pair_slots: Vec<Vec<usize>>,
    /// Per slot (one per visible channel): the ascending pairs whose `f`
    /// or `g` side reads it.
    readers: Vec<Vec<usize>>,
    /// Pairs whose base case `f(ε) ⊑ g(ε)` fails: their check must run on
    /// every event, read or not, so the first one can fail.
    unbased: Vec<usize>,
}

impl Routing {
    fn new(keep: &ChanSet, sides: &[(CompiledExpr, CompiledExpr)], pairs: &[PairState]) -> Self {
        let slots = SlotTable::new(keep);
        let mut readers = vec![Vec::new(); keep.len()];
        let pair_slots: Vec<Vec<usize>> = sides
            .iter()
            .enumerate()
            .map(|(k, (f, g))| {
                let mut read: Vec<usize> = f
                    .channels()
                    .iter()
                    .chain(g.channels().iter())
                    .filter_map(|c| slots.slot(c))
                    .collect();
                read.sort_unstable();
                read.dedup();
                for &s in &read {
                    readers[s].push(k);
                }
                read
            })
            .collect();
        Routing {
            slots,
            pair_slots,
            readers,
            unbased: (0..pairs.len()).filter(|&k| !pairs[k].base_ok).collect(),
        }
    }
}

/// An online smoothness monitor over one [`Description`].
///
/// Feed it every committed send via [`feed`](SmoothnessMonitor::feed)
/// (events outside the visible channel set are ignored, performing the
/// same projection as the post-hoc checker, without building a second
/// trace), then derive the final [`Conformance`] from the run status via
/// [`finish`](SmoothnessMonitor::finish).
///
/// The monitor is `Clone` so [`crate::snapshot::Checkpoint`] can carry it:
/// capturing and restoring mid-run resumes certification without
/// re-feeding the prefix.
#[derive(Debug, Clone)]
pub struct SmoothnessMonitor {
    /// Description name, owned — reports carry it without holding the
    /// whole `Description`.
    name: String,
    /// Pre-rendered `f ⟸ g` strings (cached on the description), so
    /// `finish` never formats.
    equations: Vec<String>,
    /// The compiled equation sides (cheap `Arc` handles) — kept so a dirty
    /// fused batch can rebuild fresh evaluators and replay exactly.
    sides: Vec<(CompiledExpr, CompiledExpr)>,
    /// The visible-channel projection and the channel → pairs index.
    routing: Arc<Routing>,
    policy: MonitorPolicy,
    pairs: Vec<PairState>,
    events: Vec<Event>,
    violation: Option<SmoothnessViolation>,
}

impl SmoothnessMonitor {
    /// Builds a monitor for `desc`. `visible` overrides the projection
    /// channel set (default: the description's own channels, matching
    /// [`crate::conformance::ConformanceOptions`]).
    pub fn new(desc: &Description, visible: Option<ChanSet>, policy: MonitorPolicy) -> Self {
        let keep = visible.unwrap_or_else(|| desc.channels());
        let sides: Vec<(CompiledExpr, CompiledExpr)> = desc
            .lhs_compiled()
            .iter()
            .cloned()
            .zip(desc.rhs_compiled().iter().cloned())
            .collect();
        let pairs: Vec<PairState> = sides.iter().map(|(f, g)| PairState::new(f, g)).collect();
        let routing = Arc::new(Routing::new(&keep, &sides, &pairs));
        SmoothnessMonitor {
            name: desc.name().to_owned(),
            equations: desc.equations_rendered().to_vec(),
            sides,
            routing,
            policy,
            pairs,
            events: Vec::new(),
            violation: None,
        }
    }

    /// The abort policy this monitor was built with.
    pub fn policy(&self) -> MonitorPolicy {
        self.policy
    }

    /// Number of events observed so far (after projection).
    pub fn observed(&self) -> usize {
        self.events.len()
    }

    /// The first smoothness violation's component index, if one has been
    /// observed.
    pub fn violation_component(&self) -> Option<usize> {
        self.violation.as_ref().map(|v| v.component)
    }

    /// Observes one committed send.
    ///
    /// Returns `Some(component)` exactly when this event produced the
    /// *first* smoothness violation and the policy is
    /// [`MonitorPolicy::AbortOnViolation`] — the engine's signal to halt.
    /// Events on channels outside the visible set are ignored. After a
    /// violation the monitor keeps stepping its evaluator states (the
    /// limit condition still needs the full trace) but checks nothing
    /// further, mirroring `diagnose`'s first-violation semantics.
    ///
    /// Cost: O(1) projection plus O(1) amortized work per pair that reads
    /// `ev`'s channel (and per pair whose base case failed) — pairs that
    /// read neither side of the event are never visited.
    pub fn feed(&mut self, ev: Event) -> Option<usize> {
        let slot = self.routing.slots.slot(ev.chan)?;
        let at = self.events.len();
        self.events.push(ev);
        // After the first violation the monitor only keeps its states
        // current (the limit condition still needs the full trace),
        // mirroring `diagnose`'s first-violation semantics.
        let checking = self.violation.is_none();
        let routing = &*self.routing;
        // (component, f(v), frozen g(u)) of this event's conviction, if
        // any — the lowest component index wins, matching `diagnose`.
        let mut convicted: Option<(usize, Seq, Seq)> = None;
        let mut visit = |k: usize, pair: &mut PairState| {
            if let Some((lhs_v, rhs_u)) = pair.feed(ev, checking) {
                if convicted.as_ref().is_none_or(|(j, ..)| k < *j) {
                    convicted = Some((k, lhs_v, rhs_u));
                }
            }
        };
        for &k in &routing.readers[slot] {
            visit(k, &mut self.pairs[k]);
        }
        // A pair whose base case failed is checked on every event; the
        // readers loop already covered those that read this channel.
        for &k in &routing.unbased {
            if routing.pair_slots[k].binary_search(&slot).is_err() {
                visit(k, &mut self.pairs[k]);
            }
        }
        let (k, lhs_v, rhs_u) = convicted?;
        self.violation = Some(SmoothnessViolation {
            component: k,
            u: Trace::finite(self.events[..at].to_vec()),
            v: Trace::finite(self.events[..=at].to_vec()),
            lhs_v,
            rhs_u,
        });
        match self.policy {
            MonitorPolicy::AbortOnViolation => Some(k),
            MonitorPolicy::Observe => None,
        }
    }

    /// Observes a batch of committed sends in order, semantically
    /// identical to calling [`feed`](SmoothnessMonitor::feed) per event:
    /// the first violation is selected by minimal `(event index,
    /// component index)`.
    ///
    /// Large batches (the engine's lazy Observe drain) take a fused fast
    /// path in O(batch + equations + visible channels)
    /// plus O(1) amortized per (event, reading pair): the batch is
    /// projected and bucketed by channel once, and each pair steps only
    /// the merged, in-order events of the channels its sides read (a
    /// two-way merge for the common chain×chain pair), with only the O(1)
    /// *length* half of the per-step check inline. The value half —
    /// comparing `f`'s appended tail against `g`'s output — is deferred to
    /// a single slice compare per pair. Both outputs are append-only, so a
    /// position compares equal at the end iff it compared equal the step
    /// it appeared: the deferred pass accepts exactly the batches the
    /// per-event loop accepts. Any pair that looks dirty triggers an exact
    /// per-event replay from a pre-batch snapshot to recover the precise
    /// first violation.
    pub fn feed_batch(&mut self, evs: &[Event]) -> Option<usize> {
        if evs.len() >= 8 {
            return self.feed_batch_fused(evs);
        }
        let mut aborted = None;
        for &ev in evs {
            if let Some(k) = self.feed(ev) {
                aborted.get_or_insert(k);
            }
        }
        aborted
    }

    /// The fused batch drain.
    fn feed_batch_fused(&mut self, evs: &[Event]) -> Option<usize> {
        let routing = &*self.routing;
        let start = self.events.len();
        // Project, remembering each kept event's slot, and count each
        // slot's events: `offset[s]..offset[s + 1]` becomes slot `s`'s
        // bucket.
        self.events.reserve(evs.len());
        let mut slot_of = Vec::with_capacity(evs.len());
        let width = routing.readers.len();
        let mut offset = vec![0usize; width + 1];
        for &ev in evs {
            if let Some(s) = routing.slots.slot(ev.chan) {
                self.events.push(ev);
                slot_of.push(s);
                offset[s + 1] += 1;
            }
        }
        if slot_of.is_empty() {
            return None;
        }
        for s in 0..width {
            offset[s + 1] += offset[s];
        }
        // Counting sort: each bucket lists its events' batch positions in
        // ascending order.
        let mut cursor = offset.clone();
        let mut pos = vec![0usize; slot_of.len()];
        for (i, &s) in slot_of.iter().enumerate() {
            pos[cursor[s]] = i;
            cursor[s] += 1;
        }
        let bucket = |s: usize| &pos[offset[s]..offset[s + 1]];
        let checking = self.violation.is_none();
        let new = &self.events[start..];
        let mut merged = Vec::new();
        let mut clean = true;
        for (pair, read) in self.pairs.iter_mut().zip(&routing.pair_slots) {
            let at: &[usize] = match read[..] {
                [] => &[],
                [s] => bucket(s),
                [a, b] => {
                    merge_into(bucket(a), bucket(b), &mut merged);
                    &merged
                }
                _ => {
                    merged.clear();
                    for &s in read {
                        merged.extend_from_slice(bucket(s));
                    }
                    merged.sort_unstable();
                    &merged
                }
            };
            let lengths_ok = batch_advance(&mut pair.f, &mut pair.g, new, at);
            if !checking {
                continue;
            }
            // The deferred value half: `f`'s appended tail against `g`'s
            // output at batch end.
            let frozen = pair.g.freeze();
            clean &= lengths_ok && step_check(&pair.f, &pair.g, &frozen, &mut pair.verified);
        }
        if !checking || clean {
            return None;
        }
        // Dirty: rebuild fresh evaluators from the compiled sides and
        // replay the whole observed stream through the exact per-event
        // path — first-violation placement (and the abort signal under
        // AbortOnViolation) comes out exactly as if every event had been
        // fed individually. At most one replay ever runs: after it the
        // violation is recorded and later batches skip checking.
        self.pairs = self
            .sides
            .iter()
            .map(|(f, g)| PairState::new(f, g))
            .collect();
        let all = std::mem::take(&mut self.events);
        let mut aborted = None;
        for &ev in &all {
            if let Some(k) = self.feed(ev) {
                aborted.get_or_insert(k);
            }
        }
        aborted
    }

    /// The diagnostic report over everything observed so far: limit
    /// verdicts straight from the final evaluator states (no re-walk),
    /// the first smoothness violation if any, and the checked depth.
    ///
    /// Identical to `diagnose(desc, &observed_trace)` on the finite trace
    /// observed so far — the differential suite pins this.
    pub fn report(&self) -> SmoothReport {
        // Build each verdict straight from the evaluator pair — the final
        // values move into the verdict instead of being cloned through an
        // intermediate slice pair.
        let limits = self
            .pairs
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let lhs = p.f.value();
                let rhs = p.g.value();
                LimitVerdict {
                    component: k,
                    holds: lhs == rhs,
                    lhs,
                    rhs,
                }
            })
            .collect();
        SmoothReport {
            description: self.name.clone(),
            limits,
            violation: self.violation.clone(),
            outcome: if self.violation.is_some() {
                Outcome::Violated
            } else {
                Outcome::Proved
            },
            depth: self.events.len(),
        }
    }

    /// Derives the final [`Conformance`] from the run's terminal status,
    /// mirroring [`crate::conformance::check_report`]: quiescent runs are
    /// held to the limit condition, bounded runs are excused, and a
    /// cleanly-passing run whose reliable link exhausted its retry budget
    /// is reported as [`Verdict::Degraded`] naming the link.
    pub fn finish(&self, status: &RunStatus) -> Conformance {
        if let RunStatus::ReliabilityExhausted { link } = status {
            let mut conf = self.conformance(false);
            if conf.verdict == Verdict::SmoothPrefix {
                conf.verdict = Verdict::Degraded { link: link.clone() };
            }
            return conf;
        }
        self.conformance(status.is_quiescent())
    }

    fn conformance(&self, quiescent: bool) -> Conformance {
        let report = self.report();
        let verdict = verdict_from_report(&report, quiescent);
        Conformance {
            description: self.name.clone(),
            verdict,
            report,
            quiescent,
            checked: Trace::finite(self.events.clone()),
            equations: self.equations.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{check_trace, ConformanceOptions};
    use eqp_seqfn::paper::{ch, even, odd};
    use eqp_seqfn::SeqExpr;
    use eqp_trace::Chan;

    fn b() -> Chan {
        Chan::new(0)
    }
    fn c() -> Chan {
        Chan::new(1)
    }
    fn d() -> Chan {
        Chan::new(2)
    }

    fn dfm() -> Description {
        Description::new("dfm")
            .equation(even(ch(d())), ch(b()))
            .equation(odd(ch(d())), ch(c()))
    }

    fn feed_all(m: &mut SmoothnessMonitor, events: &[Event]) -> Option<usize> {
        let mut aborted = None;
        for &ev in events {
            if let Some(k) = m.feed(ev) {
                aborted.get_or_insert(k);
            }
        }
        aborted
    }

    fn assert_matches_posthoc(events: Vec<Event>, quiescent: bool) {
        let desc = dfm();
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        feed_all(&mut m, &events);
        let online = m.conformance(quiescent);
        let posthoc = check_trace(
            &desc,
            &Trace::finite(events),
            quiescent,
            &ConformanceOptions::default(),
        );
        assert_eq!(online.verdict, posthoc.verdict);
        assert_eq!(online.report, posthoc.report);
        assert_eq!(online.checked, posthoc.checked);
    }

    #[test]
    fn solution_prefix_and_violations_match_posthoc() {
        let good = vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ];
        assert_matches_posthoc(good.clone(), true);
        assert_matches_posthoc(good[..3].to_vec(), false);
        // quiescent but incomplete: limit violation
        assert_matches_posthoc(good[..3].to_vec(), true);
        // output before any justifying input: smoothness violation
        assert_matches_posthoc(vec![Event::int(d(), 10), Event::int(b(), 10)], false);
    }

    #[test]
    fn projection_ignores_foreign_channels() {
        let desc = dfm();
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        assert_eq!(m.feed(Event::int(Chan::new(99), 7)), None);
        assert_eq!(m.observed(), 0);
    }

    #[test]
    fn abort_policy_convicts_at_the_violating_event() {
        let desc = dfm();
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::AbortOnViolation);
        assert_eq!(m.feed(Event::int(b(), 10)), None);
        // d echoes an even value no input justified — convicted
        // immediately, on the even-component (index 0), same as
        // diagnose's ordering.
        assert_eq!(m.feed(Event::int(d(), 98)), Some(0));
        assert_eq!(m.violation_component(), Some(0));
        // observe policy stays quiet on the same stream
        let mut obs = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        assert_eq!(
            feed_all(&mut obs, &[Event::int(b(), 10), Event::int(d(), 98)]),
            None
        );
        assert_eq!(obs.violation_component(), Some(0));
    }

    #[test]
    fn finish_maps_statuses_like_check_report() {
        let desc = dfm();
        let good = [
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ];
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        feed_all(&mut m, &good);
        assert_eq!(
            m.finish(&RunStatus::Quiescent).verdict,
            Verdict::SmoothSolution
        );
        assert_eq!(
            m.finish(&RunStatus::BudgetExhausted).verdict,
            Verdict::SmoothPrefix
        );
        assert_eq!(
            m.finish(&RunStatus::ReliabilityExhausted {
                link: "arq@ch2".into()
            })
            .verdict,
            Verdict::Degraded {
                link: "arq@ch2".into()
            }
        );
    }

    #[test]
    fn clone_resumes_certification_identically() {
        // snapshot mid-stream, keep feeding both: identical conformance.
        let desc = dfm();
        let events = [
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ];
        let mut m = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        feed_all(&mut m, &events[..2]);
        let mut resumed = m.clone();
        feed_all(&mut m, &events[2..]);
        feed_all(&mut resumed, &events[2..]);
        let a = m.conformance(true);
        let b = resumed.conformance(true);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.report, b.report);
        assert_eq!(a.checked, b.checked);
    }

    #[test]
    fn batch_drain_steps_each_pair_in_event_order() {
        // `c2 ⟸ c0 + c1` read from three buckets: the output on c2 comes
        // before the inputs that justify it, so only the interleaving —
        // not the final values, which agree — convicts. A drain that
        // stepped the buckets one after another would miss it.
        let (c0, c1, c2) = (b(), c(), d());
        let desc = Description::new("sum")
            .defines(c0, SeqExpr::const_ints([1, 2, 3, 4]))
            .defines(c1, SeqExpr::const_ints([10, 20, 30, 40]))
            .defines(c2, SeqExpr::add(ch(c0), ch(c1)));
        let mut events = vec![Event::int(c2, 11)];
        for (x, y) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            events.extend([Event::int(c0, x), Event::int(c1, y)]);
        }
        events.extend([22, 33, 44].map(|n| Event::int(c2, n)));
        let mut exact = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        feed_all(&mut exact, &events);
        assert_eq!(exact.violation_component(), Some(2));
        let mut batched = SmoothnessMonitor::new(&desc, None, MonitorPolicy::Observe);
        assert!(events.len() >= 8, "long enough for the fused drain");
        batched.feed_batch(&events);
        assert_eq!(batched.report(), exact.report());
    }
}
