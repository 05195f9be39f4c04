//! Differential suite: the monitor's bucketed batch drain
//! (`SmoothnessMonitor::feed_batch`) is indistinguishable from feeding the
//! same events one at a time (`SmoothnessMonitor::feed`).
//!
//! The batch drain projects each batch, buckets it by channel and lets
//! every equation pair step only the events on the channels its sides
//! read; the per-event path visits only the pairs that read the event's
//! channel (plus pairs whose base case failed). Both skip work, so both
//! are pinned here against each other and, on narrow programs, against
//! the post-hoc `check_trace`. Equality is field-exact on `SmoothReport`
//! (limits, the first violation's component and its `(u, v)` pair, depth),
//! on the observed count, and on the abort signal: under
//! `AbortOnViolation` the batch that returns `Some(k)` is the one holding
//! the event on which `feed` returned the same `Some(k)`.
//!
//! Cases are drawn from a seeded generator and cover random split points;
//! wide programs past the 128-bit support masks (inexact masks) and sparse
//! channel ids; multi-channel graph sides (zip, oracle select,
//! const-prefixed concat); events outside the visible set; equations
//! whose base case `f(ε) ⊑ g(ε)` fails; infinite constant sides; smooth
//! traces with a violation injected at a random position; and both
//! policies.

use eqp::core::diagnose::SmoothReport;
use eqp::core::Description;
use eqp::kahn::conformance::{check_trace, ConformanceOptions};
use eqp::kahn::{MonitorPolicy, SmoothnessMonitor};
use eqp::seqfn::paper::{ch, oracle_false, oracle_true, trues};
use eqp::seqfn::{CompiledSideEval, SeqExpr};
use eqp::trace::{Chan, ChanSet, Event, Lasso, Trace, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One generated scenario.
struct Case {
    desc: Description,
    visible: Option<ChanSet>,
    events: Vec<Event>,
}

/// The channels a case draws from. `bits` carry oracle bits; the rest
/// carry integers.
struct Chans {
    ints: Vec<Chan>,
    bits: Vec<Chan>,
}

impl Chans {
    /// `n` integer channels and a few bit channels, with compact ids or
    /// (one time in four) ids far apart, so the monitor's channel table
    /// takes both of its layouts.
    fn new(rng: &mut StdRng, n: usize) -> Chans {
        let sparse = rng.random_bool(0.25);
        let id = |i: usize| {
            if sparse {
                Chan::new(3_000_000 + 7_919 * i as u32)
            } else {
                Chan::new(i as u32)
            }
        };
        let bits = rng.random_range(1..3usize);
        Chans {
            ints: (0..n).map(id).collect(),
            bits: (n..n + bits).map(id).collect(),
        }
    }

    fn int(&self, rng: &mut StdRng) -> Chan {
        self.ints[rng.random_range(0..self.ints.len())]
    }

    fn bit(&self, rng: &mut StdRng) -> Chan {
        self.bits[rng.random_range(0..self.bits.len())]
    }

    /// A channel outside every description this case builds.
    fn foreign(&self, rng: &mut StdRng) -> Chan {
        Chan::new(900_000 + rng.random_range(0..50u32))
    }
}

fn ints(rng: &mut StdRng, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.random_range(0..9i64)).collect()
}

fn int_values(ns: &[i64]) -> Vec<Value> {
    ns.iter().map(|&n| Value::Int(n)).collect()
}

/// A balanced add-zip tree over `chans` — one side reading all of them.
fn wide_zip(chans: &[Chan]) -> SeqExpr {
    let mut layer: Vec<SeqExpr> = chans.iter().map(|&c| ch(c)).collect();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => SeqExpr::add(a, b),
                None => a,
            });
        }
        layer = next;
    }
    layer.pop().expect("at least one channel")
}

/// A random equation side over `chans`: single-channel chains, the
/// multi-channel graph shapes, constants and (when `infinite`) an infinite
/// constant, which is read cyclically.
fn side(rng: &mut StdRng, chans: &Chans, infinite: bool) -> SeqExpr {
    let c = chans.int(rng);
    match rng.random_range(0..if infinite { 11 } else { 10 }) {
        0 => ch(c),
        1 => SeqExpr::affine(rng.random_range(1..4i64), rng.random_range(0..3i64), ch(c)),
        2 => SeqExpr::even(ch(c)),
        3 => SeqExpr::odd(ch(c)),
        4 => SeqExpr::skip(1, ch(c)),
        5 => SeqExpr::concat(int_values(&ints(rng, 1)), ch(c)),
        6..=8 => graph_side(rng, chans),
        9 => {
            let n = rng.random_range(0..3usize);
            SeqExpr::const_ints(ints(rng, n))
        }
        _ => trues(),
    }
}

/// A random two-channel side: zip, oracle select or const-prefixed
/// concat over a zip.
fn graph_side(rng: &mut StdRng, chans: &Chans) -> SeqExpr {
    let (a, b) = (ch(chans.int(rng)), ch(chans.int(rng)));
    match rng.random_range(0..3) {
        0 => SeqExpr::add(a, b),
        1 => {
            let oracle = ch(chans.bit(rng));
            if rng.random_bool(0.5) {
                oracle_true(a, oracle)
            } else {
                oracle_false(a, oracle)
            }
        }
        _ => SeqExpr::concat(int_values(&ints(rng, 2)), SeqExpr::add(a, b)),
    }
}

/// A random event on a case's channels, now and then a foreign one.
fn event(rng: &mut StdRng, chans: &Chans) -> Event {
    match rng.random_range(0..10) {
        0 => Event::int(chans.foreign(rng), 1),
        1 => Event::bit(chans.bit(rng), rng.random_bool(0.5)),
        _ => Event::int(chans.int(rng), rng.random_range(0..9i64)),
    }
}

/// With probability 1/3, a visible set that drops some of the
/// description's channels and adds foreign ones.
fn visible(rng: &mut StdRng, desc: &Description, chans: &Chans) -> Option<ChanSet> {
    if !rng.random_bool(1.0 / 3.0) {
        return None;
    }
    let mut keep: ChanSet = desc
        .channels()
        .iter()
        .filter(|_| rng.random_bool(0.7))
        .collect();
    keep.insert(chans.foreign(rng));
    Some(keep)
}

/// Unconstrained: random sides on both halves of every equation and a
/// random event stream — violations come early and often, in every
/// component order.
fn random_case(rng: &mut StdRng, wide: bool) -> Case {
    let n = if wide {
        rng.random_range(130..170usize)
    } else {
        rng.random_range(2..8usize)
    };
    let chans = Chans::new(rng, n);
    let eqs = if wide {
        rng.random_range(3..8)
    } else {
        rng.random_range(1..7)
    };
    let infinite = rng.random_bool(0.15);
    let mut desc = Description::new("random");
    for _ in 0..eqs {
        // now and then an equation whose base case fails: its first
        // check must run (and fail) on the first visible event
        let lhs = if rng.random_bool(0.1) {
            SeqExpr::const_ints([9])
        } else {
            side(rng, &chans, infinite)
        };
        desc = desc.equation(lhs, side(rng, &chans, infinite));
    }
    if wide {
        desc = desc.equation(wide_zip(&chans.ints), side(rng, &chans, false));
    }
    let len = rng.random_range(0..if wide { 400 } else { 90 });
    let events = (0..len).map(|_| event(rng, &chans)).collect();
    Case {
        visible: visible(rng, &desc, &chans),
        desc,
        events,
    }
}

/// Smooth by construction, then corrupted: every channel is defined by
/// one equation over constants and earlier channels, the trace is a
/// random interleaving of what those equations justify (so it is smooth),
/// and with probability 1/2 one event at a random position then gets a
/// wrong value or is moved earlier, or an unjustified one is inserted.
fn smooth_case(rng: &mut StdRng, wide: bool) -> Case {
    let n = if wide {
        rng.random_range(130..160usize)
    } else {
        rng.random_range(3..9usize)
    };
    let chans = Chans::new(rng, n);
    let mut desc = Description::new("smooth");
    let mut defs: Vec<(Chan, SeqExpr)> = Vec::new();
    for &b in &chans.bits {
        let bits = (0..12).map(|_| Value::Bit(rng.random_bool(0.5)));
        defs.push((b, SeqExpr::constant(Lasso::finite(bits))));
    }
    for (i, &c) in chans.ints.iter().enumerate() {
        let rhs = if i == 0 || rng.random_bool(0.3) {
            let n = rng.random_range(1..6usize);
            SeqExpr::const_ints(ints(rng, n))
        } else if wide && i == chans.ints.len() - 1 {
            wide_zip(&chans.ints[..i])
        } else {
            let earlier = Chans {
                ints: chans.ints[..i].to_vec(),
                bits: chans.bits.clone(),
            };
            if rng.random_bool(0.5) {
                graph_side(rng, &earlier)
            } else {
                side(rng, &earlier, false)
            }
        };
        defs.push((c, rhs));
    }
    let mut evals: Vec<CompiledSideEval> = defs
        .iter()
        .map(|(_, rhs)| CompiledSideEval::new(&rhs.compile()))
        .collect();
    let mut sent = vec![0usize; defs.len()];
    let mut events = Vec::new();
    loop {
        let ready: Vec<usize> = (0..defs.len())
            .filter(|&k| evals[k].delta_out().len() > sent[k])
            .collect();
        if ready.is_empty() || events.len() >= 500 {
            break;
        }
        let k = ready[rng.random_range(0..ready.len())];
        let ev = Event::new(defs[k].0, evals[k].delta_out()[sent[k]]);
        sent[k] += 1;
        for e in evals.iter_mut() {
            e.step(ev);
        }
        events.push(ev);
        if rng.random_bool(0.05) {
            events.push(Event::int(chans.foreign(rng), 0));
        }
    }
    if rng.random_bool(0.5) {
        let at = rng.random_range(0..events.len() + 1);
        match rng.random_range(0..3) {
            // a wrong value
            0 if at < events.len() => {
                if let Value::Int(v) = &mut events[at].value {
                    *v += 1;
                }
            }
            // the right value, sent before the inputs of a channel that
            // has any justify it: the final values still agree, only the
            // order convicts
            1 if at < events.len() => {
                let derived = |e: &Event| {
                    defs.iter()
                        .any(|(c, rhs)| *c == e.chan && !rhs.channels().is_empty())
                };
                if let Some(from) = (at..events.len()).find(|&i| derived(&events[i])) {
                    let ev = events.remove(from);
                    events.insert(rng.random_range(0..at / 2 + 1), ev);
                }
            }
            // an unjustified send
            _ => events.insert(at, Event::int(chans.int(rng), 77)),
        }
    }
    for (c, rhs) in defs {
        desc = desc.defines(c, rhs);
    }
    Case {
        visible: visible(rng, &desc, &chans),
        desc,
        events,
    }
}

/// What one monitor run exposes.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: SmoothReport,
    observed: usize,
    violation_component: Option<usize>,
}

fn outcome(m: &SmoothnessMonitor) -> Outcome {
    Outcome {
        report: m.report(),
        observed: m.observed(),
        violation_component: m.violation_component(),
    }
}

/// Event by event; the abort signal as `(event index, component)`.
fn run_per_event(case: &Case, policy: MonitorPolicy) -> (Outcome, Option<(usize, usize)>) {
    let mut m = SmoothnessMonitor::new(&case.desc, case.visible.clone(), policy);
    let mut aborted = None;
    for (i, &ev) in case.events.iter().enumerate() {
        if let Some(k) = m.feed(ev) {
            assert!(aborted.is_none(), "feed signalled twice");
            aborted = Some((i, k));
        }
    }
    (outcome(&m), aborted)
}

/// In batches split at `cuts`; the abort signal as `(batch range,
/// component)`.
#[allow(clippy::type_complexity)]
fn run_batched(
    case: &Case,
    policy: MonitorPolicy,
    cuts: &[usize],
) -> (Outcome, Option<(std::ops::Range<usize>, usize)>) {
    let mut m = SmoothnessMonitor::new(&case.desc, case.visible.clone(), policy);
    let mut aborted = None;
    let mut lo = 0;
    for &hi in cuts.iter().chain([&case.events.len()]) {
        if let Some(k) = m.feed_batch(&case.events[lo..hi]) {
            assert!(aborted.is_none(), "feed_batch signalled twice");
            aborted = Some((lo..hi, k));
        }
        lo = hi;
    }
    (outcome(&m), aborted)
}

/// Random ascending split points, at least one batch long enough for the
/// fused drain.
fn cuts(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let n = rng.random_range(0..6);
    let mut cuts: Vec<usize> = (0..n).map(|_| rng.random_range(0..len + 1)).collect();
    cuts.sort_unstable();
    cuts
}

fn check_case(rng: &mut StdRng, label: &str, case: &Case, posthoc: bool) {
    let len = case.events.len();
    for policy in [MonitorPolicy::Observe, MonitorPolicy::AbortOnViolation] {
        let ctx = format!("{label} ({policy:?}, {len} events)");
        let (exact, signal) = run_per_event(case, policy);
        match policy {
            MonitorPolicy::Observe => assert_eq!(signal, None, "{ctx}: Observe never aborts"),
            MonitorPolicy::AbortOnViolation => assert_eq!(
                signal.map(|(_, k)| k),
                exact.violation_component,
                "{ctx}: abort names the first violation"
            ),
        }
        for split in [vec![], cuts(rng, len), cuts(rng, len)] {
            let (batched, batch_signal) = run_batched(case, policy, &split);
            assert_eq!(batched, exact, "{ctx}: split at {split:?}");
            match (&signal, &batch_signal) {
                (None, None) => {}
                (Some((i, k)), Some((range, j))) => {
                    assert!(range.contains(i), "{ctx}: abort at {i} outside {range:?}");
                    assert_eq!(k, j, "{ctx}: aborted component");
                }
                _ => panic!("{ctx}: split {split:?}: signals {signal:?} vs {batch_signal:?}"),
            }
        }
        if posthoc {
            let opts = ConformanceOptions {
                visible: case.visible.clone(),
            };
            let reference =
                check_trace(&case.desc, &Trace::finite(case.events.clone()), true, &opts);
            assert_eq!(exact.report, reference.report, "{ctx}: post-hoc report");
        }
    }
}

#[test]
fn batched_drain_equals_per_event_feed_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for i in 0..300 {
        let case = random_case(&mut rng, false);
        check_case(&mut rng, &format!("random #{i}"), &case, true);
    }
}

#[test]
fn batched_drain_equals_per_event_feed_on_smooth_traces_with_injected_violations() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let mut convicted = 0;
    for i in 0..1000 {
        let case = smooth_case(&mut rng, false);
        let (exact, _) = run_per_event(&case, MonitorPolicy::Observe);
        convicted += usize::from(exact.violation_component.is_some());
        check_case(&mut rng, &format!("smooth #{i}"), &case, true);
    }
    assert!(
        (100..=900).contains(&convicted),
        "the suite must mix convicted and clean traces ({convicted}/1000 convicted)"
    );
}

#[test]
fn batched_drain_equals_per_event_feed_past_the_support_mask() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for i in 0..6 {
        let case = random_case(&mut rng, true);
        assert!(
            case.desc.channels().len() > 128,
            "wide case must overflow the mask"
        );
        check_case(&mut rng, &format!("wide random #{i}"), &case, false);
        let case = smooth_case(&mut rng, true);
        assert!(
            case.desc.channels().len() > 128,
            "wide case must overflow the mask"
        );
        check_case(&mut rng, &format!("wide smooth #{i}"), &case, false);
    }
}
