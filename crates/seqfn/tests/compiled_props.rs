//! Differential property suite: the compiled IR (`eqp_seqfn::compile`)
//! is observationally identical to the tree-walking interpreter.
//!
//! Random `SeqExpr` trees over **all** constructors — including `Custom`
//! nodes both with and without the incremental `delta_init` hook — are
//! pitted against random finite and eventually-periodic (lasso) traces:
//!
//! * `CompiledExpr::eval` == `SeqExpr::eval` on every input;
//! * per-event `CompiledDeltaState` outputs == the appended diff of full
//!   `SeqExpr::eval` on each prefix;
//! * `CompiledSideEval` + `compile::step_check` accepts and rejects
//!   exactly as the paper's query `f(u·e) ⊑ g(u)`, evaluated directly,
//!   up to and including the first rejection;
//! * compiled support masks are sound: evaluation depends only on the
//!   (possibly optimizer-shrunk) compiled channel set, and out-of-support
//!   events step to no-ops;
//! * cloning a compiled machine mid-stream and resuming both copies gives
//!   identical results (the checkpoint/resume contract at this layer);
//! * equal `CompiledDeltaState::state_key`s mean equal appended values on
//!   random continuations, and a stateless machine's key ignores how much
//!   it has emitted.

use eqp_seqfn::compile::step_check;
use eqp_seqfn::{
    CompiledDeltaState, CompiledSideEval, SeqExpr, SeqFunction, ValueMap, ValuePred, ValueZip,
};
use eqp_trace::{Chan, ChanSet, Event, Lasso, Seq, Trace, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Hookless custom function: one `T` per message on the channel. Forces
/// the opaque (full re-evaluation) fallback.
#[derive(Debug)]
struct TickPerMsg(Chan);

impl SeqFunction for TickPerMsg {
    fn eval(&self, t: &Trace) -> Seq {
        t.seq_on(self.0).map(|_| Value::Bit(true))
    }
    fn channels(&self) -> ChanSet {
        ChanSet::from_chans([self.0])
    }
    fn name(&self) -> &str {
        "tick-per-msg"
    }
}

/// Custom function *with* the incremental hook: maps each message on the
/// channel to the parity bit of its integer value (non-integers count as
/// odd). Exercises the compiled machine's `Slot::Custom` path.
#[derive(Debug)]
struct ParityMap(Chan);

fn parity_bit(v: &Value) -> Value {
    match v {
        Value::Int(n) => Value::Bit(n % 2 == 0),
        _ => Value::Bit(false),
    }
}

#[derive(Debug)]
struct ParityState(Chan);

impl eqp_seqfn::CustomDeltaState for ParityState {
    fn clone_box(&self) -> Box<dyn eqp_seqfn::CustomDeltaState> {
        Box::new(ParityState(self.0))
    }
    fn step(&mut self, ev: Event) -> Vec<Value> {
        if ev.chan == self.0 {
            vec![parity_bit(&ev.value)]
        } else {
            Vec::new()
        }
    }
    fn encode(&self) -> Option<Vec<u8>> {
        // stateless: the channel is part of the program
        Some(Vec::new())
    }
}

impl SeqFunction for ParityMap {
    fn eval(&self, t: &Trace) -> Seq {
        t.seq_on(self.0).map(parity_bit)
    }
    fn channels(&self) -> ChanSet {
        ChanSet::from_chans([self.0])
    }
    fn name(&self) -> &str {
        "parity-map"
    }
    fn delta_init(&self) -> Option<(Box<dyn eqp_seqfn::CustomDeltaState>, Vec<Value>)> {
        Some((Box::new(ParityState(self.0)), Vec::new()))
    }
}

/// The syntactic condition for an incremental machine: no infinite
/// constant and no custom function without the `delta_init` hook
/// anywhere in the tree.
fn syntactically_incremental(e: &SeqExpr) -> bool {
    match e {
        SeqExpr::Chan(_) => true,
        SeqExpr::Const(s) => s.is_finite(),
        SeqExpr::Custom(f) => f.delta_init().is_some(),
        SeqExpr::Concat(_, e)
        | SeqExpr::Map(_, e)
        | SeqExpr::Filter(_, e)
        | SeqExpr::TakeWhile(_, e)
        | SeqExpr::Skip(_, e)
        | SeqExpr::CountTicks(e)
        | SeqExpr::EmitFirstAfter { input: e, .. } => syntactically_incremental(e),
        SeqExpr::Zip(_, a, b)
        | SeqExpr::OracleSelect {
            data: a, oracle: b, ..
        } => syntactically_incremental(a) && syntactically_incremental(b),
    }
}

fn leaf() -> impl Strategy<Value = SeqExpr> {
    prop_oneof![
        (0u32..3).prop_map(|c| SeqExpr::chan(Chan::new(c))),
        proptest::collection::vec(-3i64..4, 0..3).prop_map(SeqExpr::const_ints),
        Just(SeqExpr::constant(Lasso::repeat(vec![
            Value::Int(0),
            Value::Int(1)
        ]))),
        (0u32..3).prop_map(|c| SeqExpr::custom(Arc::new(TickPerMsg(Chan::new(c))))),
        (0u32..3).prop_map(|c| SeqExpr::custom(Arc::new(ParityMap(Chan::new(c))))),
    ]
}

fn pred() -> impl Strategy<Value = ValuePred> {
    prop_oneof![
        Just(ValuePred::IsEvenInt),
        Just(ValuePred::IsOddInt),
        Just(ValuePred::IsTrue),
        Just(ValuePred::IsFalse),
        Just(ValuePred::TagIs(0)),
        Just(ValuePred::IntIs(1)),
    ]
}

fn vmap() -> impl Strategy<Value = ValueMap> {
    prop_oneof![
        (-2i64..3, -2i64..3).prop_map(|(a, b)| ValueMap::Affine { a, b }),
        Just(ValueMap::R),
        Just(ValueMap::Tag(0)),
        Just(ValueMap::Untag),
    ]
}

/// Random trees over all 12 constructors (the 3+2 leaves above plus every
/// recursive combinator) — deliberately deeper than the interpreter suite
/// so fusion chains (`Map∘Map∘Filter…`) actually form.
fn expr() -> impl Strategy<Value = SeqExpr> {
    leaf().prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (proptest::collection::vec(-2i64..3, 0..3), inner.clone())
                .prop_map(|(ns, e)| SeqExpr::concat(ns.into_iter().map(Value::Int), e)),
            (vmap(), inner.clone()).prop_map(|(m, e)| SeqExpr::Map(m, Box::new(e))),
            (pred(), inner.clone()).prop_map(|(p, e)| SeqExpr::Filter(p, Box::new(e))),
            (pred(), inner.clone()).prop_map(|(p, e)| SeqExpr::TakeWhile(p, Box::new(e))),
            (0usize..4, inner.clone()).prop_map(|(n, e)| SeqExpr::Skip(n, Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SeqExpr::Zip(
                ValueZip::And,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(d, o, k)| {
                SeqExpr::OracleSelect {
                    data: Box::new(d),
                    oracle: Box::new(o),
                    keep: k,
                }
            }),
            inner.clone().prop_map(|e| SeqExpr::CountTicks(Box::new(e))),
            (1usize..4, -1i64..2, inner).prop_map(|(need, add, e)| {
                SeqExpr::EmitFirstAfter {
                    need,
                    add,
                    input: Box::new(e),
                }
            }),
        ]
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u32..3,
        prop_oneof![
            (-3i64..4).prop_map(Value::Int),
            any::<bool>().prop_map(Value::Bit),
            (0u8..2, -2i64..3).prop_map(|(t, n)| Value::Pair(t, n)),
        ],
    )
        .prop_map(|(c, v)| Event::new(Chan::new(c), v))
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(arb_event(), 0..8),
        proptest::collection::vec(arb_event(), 0..4),
    )
        .prop_map(|(p, c)| Trace::lasso(p, c))
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(arb_event(), 0..12)
}

proptest! {
    /// The headline theorem: compiled evaluation equals interpreted
    /// evaluation on arbitrary (finite or eventually-periodic) inputs.
    #[test]
    fn compiled_eval_equals_interpreted(e in expr(), t in arb_trace()) {
        let c = e.compile();
        prop_assert_eq!(
            c.eval(&t), e.eval(&t),
            "compiled != interpreted for {} (compiled to {} insts)", e, c.inst_count()
        );
    }

    /// …and on every finite prefix of the input, so the agreement is not
    /// an artifact of the limit.
    #[test]
    fn compiled_eval_equals_interpreted_on_prefixes(
        e in expr(),
        evs in arb_events(),
    ) {
        let c = e.compile();
        for n in 0..=evs.len() {
            let t = Trace::finite(evs[..n].to_vec());
            prop_assert_eq!(c.eval(&t), e.eval(&t), "prefix {} of {}", n, e);
        }
    }

    /// Per-event delta agreement: the compiled machine's appended values
    /// equal the interpreter's full evaluation's appended diff on every
    /// prefix.
    #[test]
    fn compiled_delta_matches_interpreted_per_event(
        e in expr(),
        evs in arb_events(),
    ) {
        let c = e.compile();
        // Optimization only ever *gains* incremental support (constant
        // folding can collapse an infinite-constant subtree); it must
        // never lose it.
        if syntactically_incremental(&e) {
            prop_assert!(c.delta_supported(), "compilation lost delta support for {}", e);
        }
        if let Some((mut cst, mut acc)) = c.delta_init() {
            prop_assert_eq!(
                Lasso::finite(acc.clone()), e.eval(&Trace::empty()),
                "init output wrong for {}", e
            );
            let mut prefix = Vec::new();
            for &ev in &evs {
                prefix.push(ev);
                // `acc` equalled eval on the previous prefix, so this pins
                // `delta` as exactly the appended diff
                acc.extend(cst.step(ev));
                prop_assert_eq!(
                    Lasso::finite(acc.clone()),
                    e.eval(&Trace::finite(prefix.clone())),
                    "delta diverged from eval for {} after {:?}", e, prefix
                );
            }
        }
    }

    /// Support soundness: the compiled channel set (which fusion and
    /// folding may have *shrunk* below the syntactic support) still
    /// captures everything evaluation depends on, and events outside it
    /// are no-ops for the delta machine.
    #[test]
    fn compiled_support_is_sound(e in expr(), t in arb_trace()) {
        let c = e.compile();
        prop_assert!(
            c.channels().is_subset(&e.channels()),
            "compiled support exceeds syntactic support for {}", e
        );
        prop_assert_eq!(c.eval(&t), c.eval(&t.project(c.channels())), "projection changed eval of {}", e);
        if let Some((mut st, _)) = c.delta_init() {
            let foreign = Event::int(Chan::new(77), 1);
            prop_assert!(!c.reads(Chan::new(77)));
            prop_assert!(st.step(foreign).is_empty(), "foreign event appended output for {}", e);
        }
    }

    /// The monitor-facing layer: `CompiledSideEval` + its `step_check`
    /// decide the paper's query `f(u·e) ⊑ g(u)` exactly, evaluated
    /// directly on every prefix up to and including the first rejection,
    /// with values and frozen snapshots equal to full evaluation.
    #[test]
    fn side_eval_step_check_agrees(
        f in expr(),
        g in expr(),
        evs in arb_events(),
    ) {
        let mut cf = CompiledSideEval::new(&f.compile());
        let mut cg = CompiledSideEval::new(&g.compile());
        let mut verified = 0usize;
        let mut prefix = Vec::new();
        for &ev in &evs {
            let u = Trace::finite(prefix.clone());
            prefix.push(ev);
            let v = Trace::finite(prefix.clone());
            let frozen = cg.freeze();
            cf.step(ev);
            cg.step(ev);
            let (fv, gu) = (f.eval(&v), g.eval(&u));
            prop_assert_eq!(cf.value(), fv.clone(), "f value diverged for {}", f);
            prop_assert_eq!(cg.value(), g.eval(&v), "g value diverged for {}", g);
            prop_assert_eq!(cg.frozen_value(&frozen), gu.clone(), "frozen g diverged for {}", g);
            let ok = fv.leq(&gu);
            prop_assert_eq!(
                step_check(&cf, &cg, &frozen, &mut verified), ok,
                "check verdict diverged for f={} g={} at {}", f, g, v
            );
            // `verified` is only meaningful while every earlier pair held
            if !ok {
                break;
            }
        }
    }

    /// Checkpoint/resume at the machine level: cloning a compiled side
    /// mid-stream and resuming both copies over the same suffix yields
    /// identical outputs — the contract `eqp_kahn::snapshot::Checkpoint`
    /// relies on when it carries monitor state.
    #[test]
    fn clone_resumes_identically(
        e in expr(),
        evs in arb_events(),
        cut in 0usize..12,
    ) {
        let cut = cut.min(evs.len());
        let mut a = CompiledSideEval::new(&e.compile());
        for &ev in &evs[..cut] {
            a.step(ev);
        }
        let mut b = a.clone();
        for &ev in &evs[cut..] {
            a.step(ev);
            b.step(ev);
        }
        prop_assert_eq!(a.value(), b.value(), "clone diverged for {}", e);
        prop_assert_eq!(
            format!("{a:?}"), format!("{b:?}"),
            "clone state diverged for {}", e
        );
    }
}

/// Events over a narrow alphabet, so two short histories often leave a
/// machine in the same state.
fn narrow_events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(
        (
            0u32..3,
            prop_oneof![
                (0i64..2).prop_map(Value::Int),
                any::<bool>().prop_map(Value::Bit),
            ],
        )
            .prop_map(|(c, v)| Event::new(Chan::new(c), v)),
        0..max,
    )
}

/// The shared generator, or one stateful stage straight over a channel
/// (where random histories do reach the stage's state), or a zip of two
/// channels (whose surplus they do fill).
fn keyed_expr() -> impl Strategy<Value = SeqExpr> {
    let stage = (0u8..4, 1usize..4, 0u32..3).prop_map(|(kind, n, c)| {
        let e = SeqExpr::chan(Chan::new(c));
        match kind {
            0 => SeqExpr::CountTicks(Box::new(e)),
            1 => SeqExpr::skip(n, e),
            2 => SeqExpr::TakeWhile(ValuePred::IsTrue, Box::new(e)),
            _ => SeqExpr::EmitFirstAfter {
                need: n,
                add: 0,
                input: Box::new(e),
            },
        }
    });
    let zip = (0u32..3, 0u32..3).prop_map(|(a, b)| {
        SeqExpr::Zip(
            ValueZip::And,
            Box::new(SeqExpr::chan(Chan::new(a))),
            Box::new(SeqExpr::chan(Chan::new(b))),
        )
    });
    prop_oneof![expr(), stage, zip]
}

/// Steps a fresh machine for `c` over `h`; `None` without one.
fn machine_after(c: &eqp_seqfn::CompiledExpr, h: &[Event]) -> Option<CompiledDeltaState> {
    let (mut m, _) = c.delta_init()?;
    for &ev in h {
        m.step(ev);
    }
    Some(m)
}

proptest! {
    // Random histories seldom land two stateful machines in one state;
    // enough cases that dozens of stateful keys do compare equal.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Key soundness: two machines of one program whose state keys are
    /// equal append equal values on every one of 64 random continuations.
    #[test]
    fn equal_state_keys_mean_equal_deltas(
        e in keyed_expr(),
        h1 in narrow_events(6),
        h2 in narrow_events(6),
        conts in proptest::collection::vec(narrow_events(8), 64),
    ) {
        let c = e.compile();
        let (Some(a), Some(b)) = (machine_after(&c, &h1), machine_after(&c, &h2)) else {
            return;
        };
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        if a.state_key(&mut ka) && b.state_key(&mut kb) && ka == kb {
            for cont in &conts {
                let (mut a, mut b) = (a.clone(), b.clone());
                for &ev in cont {
                    prop_assert_eq!(
                        a.step(ev), b.step(ev),
                        "equal keys, unequal deltas for {} after {:?} / {:?}", e, h1, h2
                    );
                }
            }
        }
    }

    /// The key leaves out output position: a stateless machine keys the
    /// same after histories of any lengths.
    #[test]
    fn state_key_ignores_output_position(
        e in expr(),
        h1 in narrow_events(4),
        h2 in narrow_events(12),
    ) {
        let c = e.compile();
        let (Some(a), Some(b)) = (machine_after(&c, &h1), machine_after(&c, &h2)) else {
            return;
        };
        if a.is_stateless() {
            let (mut ka, mut kb) = (Vec::new(), Vec::new());
            prop_assert!(a.state_key(&mut ka) && b.state_key(&mut kb));
            prop_assert_eq!(ka, kb, "stateless {} keyed by its history", e);
        }
    }
}

// ---------------------------------------------------------------------------
// Wide-network (mask-overflow) regime: programs with 129..=200 distinct
// channels run out of u128 support-mask bits, so `Program` must fall back
// to the exact `ChanSet` — an *under*-approximate support here would make
// the monitor skip real evaluation. `wide_networks.rs` pins fixed shapes;
// these properties fuzz random trees across the 128-bit boundary.
// ---------------------------------------------------------------------------

/// A random tree whose support is exactly channels `0..n` with
/// `n ∈ 129..=200`: a zip-fold over all `n` channel leaves (folding with
/// `Zip` keeps every leaf in the support — fusion cannot shrink it), with
/// a random stack of `Map`/`Filter` nodes on top so the optimizer still
/// has something to fuse.
fn wide_expr() -> impl Strategy<Value = (u32, SeqExpr)> {
    (
        129u32..=200,
        proptest::collection::vec(prop_oneof![vmap().prop_map(Ok), pred().prop_map(Err)], 0..4),
    )
        .prop_map(|(n, tops)| {
            // Balanced fold: depth ⌈log₂ n⌉, so the recursive interpreter
            // stays within test-thread stacks at width 200.
            let mut layer: Vec<SeqExpr> = (0..n).map(|i| SeqExpr::chan(Chan::new(i))).collect();
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
            let mut e = layer.pop().expect("n >= 129");
            for top in tops {
                e = match top {
                    Ok(m) => SeqExpr::Map(m, Box::new(e)),
                    Err(p) => SeqExpr::Filter(p, Box::new(e)),
                };
            }
            (n, e)
        })
}

/// Events over the wide channel space: raw indices are reduced mod `n` at
/// use so every generated stream stays inside the program's support.
fn wide_raw_events() -> impl Strategy<Value = Vec<(u32, i64)>> {
    proptest::collection::vec((0u32..4096, -3i64..4), 0..24)
}

proptest! {
    // Each case builds and evaluates a ~200-node tree; a handful of cases
    // already crosses the boundary at every width class, so keep the
    // count low enough for CI.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Compiled support == interpreted support past the mask horizon, and
    /// `reads` answers exactly — for present *and* absent channels.
    #[test]
    fn wide_compiled_support_equals_interpreted((n, e) in wide_expr()) {
        let c = e.compile();
        let interp = e.channels();
        prop_assert_eq!(
            c.channels(), &interp,
            "compiled support diverged from interpreted at width {}", n
        );
        for i in 0..n {
            prop_assert!(c.reads(Chan::new(i)), "dropped ch{} of {}", i, n);
        }
        prop_assert!(!c.reads(Chan::new(n + 7)));
        prop_assert!(!c.reads(Chan::new(4096)));
    }

    /// Compiled evaluation and the monitor-facing accept/reject sequence
    /// agree with the interpreter on wide programs — the verdict half of
    /// the mask-overflow pin.
    #[test]
    fn wide_verdicts_agree(
        (n, f) in wide_expr(),
        raw in wide_raw_events(),
    ) {
        let evs: Vec<Event> = raw
            .iter()
            .map(|&(c, v)| Event::int(Chan::new(c % n), v))
            .collect();
        let cf = f.compile();
        let t = Trace::finite(evs.clone());
        prop_assert_eq!(cf.eval(&t), f.eval(&t), "wide eval diverged at width {}", n);
        // f ⊑-checked against itself: the smoothness monitor's exact
        // query shape, against `f(u·e) ⊑ f(u)` evaluated directly.
        let mut sf = CompiledSideEval::new(&cf);
        let mut sg = CompiledSideEval::new(&cf);
        let mut verified = 0usize;
        let mut prefix = Vec::new();
        for &ev in &evs {
            let fu = f.eval(&Trace::finite(prefix.clone()));
            prefix.push(ev);
            let fv = f.eval(&Trace::finite(prefix.clone()));
            let frozen = sg.freeze();
            sf.step(ev);
            sg.step(ev);
            prop_assert_eq!(sf.value(), fv.clone(), "wide values diverged at width {}", n);
            let ok = fv.leq(&fu);
            prop_assert_eq!(
                step_check(&sf, &sg, &frozen, &mut verified), ok,
                "wide verdicts diverged at width {}", n
            );
            if !ok {
                break;
            }
        }
    }
}
