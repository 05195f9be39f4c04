//! The exact smoothness decision, on lassos and finite traces, against a
//! deep explicit-depth oracle.
//!
//! [`smoothness`] walks a lasso once and stops when every equation's keyed
//! state repeats at a cycle boundary. These properties pit it against
//! [`smoothness_violation`], which re-evaluates both sides at every
//! `u pre v` pair out to an explicit depth:
//!
//! * a `Smooth` verdict has no violation out to
//!   `D = prefix + cycle·(2·Σconsts + 2·Σsize + 8)`, where `Σconsts` sums
//!   the skip counts, `Concat` front lengths and `EmitFirstAfter::need`
//!   thresholds the old size-scaled depth left out;
//! * a `Violation` is the first pair the oracle finds, with the same
//!   component and side values;
//! * on a finite trace the verdict matches the oracle at `|t|`, and
//!   `diagnose` reports the same witness.
//!
//! The generated sides carry those constants up to 64. A last test pins
//! the verdict of every lasso the `denotational` benchmark certifies.

use eqp_core::description::Description;
use eqp_core::diagnose::diagnose;
use eqp_core::smooth::{is_smooth, limit_holds, smoothness, smoothness_violation, Smoothness};
use eqp_processes::{dfm, fair_random, finite_ticks, ticks};
use eqp_seqfn::paper::{ch, count_ticks, until_first_false};
use eqp_seqfn::SeqExpr;
use eqp_trace::{Chan, Event, Lasso, Trace, Value};
use proptest::prelude::*;

/// The constants inside an expression: skip counts, `Concat` front
/// lengths and `EmitFirstAfter` thresholds.
fn consts(e: &SeqExpr) -> usize {
    match e {
        SeqExpr::Chan(_) | SeqExpr::Const(_) | SeqExpr::Custom(_) => 0,
        SeqExpr::Skip(n, e) => n + consts(e),
        SeqExpr::Concat(front, e) => front.len() + consts(e),
        SeqExpr::EmitFirstAfter { need, input, .. } => need + consts(input),
        SeqExpr::Map(_, e)
        | SeqExpr::Filter(_, e)
        | SeqExpr::TakeWhile(_, e)
        | SeqExpr::CountTicks(e) => consts(e),
        SeqExpr::Zip(_, a, b)
        | SeqExpr::OracleSelect {
            data: a, oracle: b, ..
        } => consts(a) + consts(b),
    }
}

/// The explicit oracle depth for a lasso `t` against `desc`.
fn oracle_depth(desc: &Description, t: &Trace) -> usize {
    let sides = || desc.lhs().iter().chain(desc.rhs());
    let c: usize = sides().map(consts).sum();
    let size: usize = sides().map(SeqExpr::size).sum();
    t.as_lasso().prefix().len() + t.as_lasso().cycle().len() * (2 * c + 2 * size + 8)
}

fn chan(i: u32) -> Chan {
    Chan::new(i)
}

/// One side: a channel, a finite or infinite constant, under up to two
/// wrappers, among them the constant-carrying ones.
fn arb_side() -> impl Strategy<Value = SeqExpr> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|i| ch(chan(i))),
        (0u32..3).prop_map(|i| ch(chan(i))),
        proptest::collection::vec(0i64..2, 0..3).prop_map(SeqExpr::const_ints),
        proptest::collection::vec(0i64..2, 1..3)
            .prop_map(|ns| SeqExpr::constant(Lasso::repeat(ns.into_iter().map(Value::Int)))),
    ];
    leaf.prop_recursive(2, 4, 2, |inner| {
        prop_oneof![
            (0usize..=64, inner.clone()).prop_map(|(n, e)| SeqExpr::skip(n, e)),
            (0usize..=64, 0i64..2, inner.clone())
                .prop_map(|(n, v, e)| SeqExpr::concat(vec![Value::Int(v); n], e)),
            (0usize..=64, 0i64..2, inner.clone()).prop_map(|(need, add, e)| {
                SeqExpr::EmitFirstAfter {
                    need,
                    add,
                    input: Box::new(e),
                }
            }),
            inner.clone().prop_map(SeqExpr::even),
            inner.clone().prop_map(until_first_false),
            inner.clone().prop_map(count_ticks),
            (inner.clone(), inner).prop_map(|(a, b)| SeqExpr::add(a, b)),
        ]
    })
}

/// A 1–2 equation description. Most equations take a shape whose
/// verdict turns on a constant: one wrapper on two channels, a channel
/// against a head start of `n` zeros on another, or a channel against an
/// infinite constant.
fn arb_description() -> impl Strategy<Value = Description> {
    let mirrored = (0usize..=64, 0u8..3, 0u32..3, 0u32..3).prop_map(|(n, kind, a, b)| {
        let wrap = |e: SeqExpr| match kind {
            0 => SeqExpr::skip(n, e),
            1 => SeqExpr::concat(vec![Value::Int(0); n], e),
            _ => SeqExpr::EmitFirstAfter {
                need: n,
                add: 0,
                input: Box::new(e),
            },
        };
        (wrap(ch(chan(a))), wrap(ch(chan(b))))
    });
    let head_start = (0usize..=64, 0u32..3, 0u32..3).prop_map(|(n, a, b)| {
        (
            ch(chan(a)),
            SeqExpr::concat(vec![Value::Int(0); n], ch(chan(b))),
        )
    });
    let against_const = (0u32..3, proptest::collection::vec(0i64..2, 1..4)).prop_map(|(a, ns)| {
        let c = SeqExpr::constant(Lasso::repeat(ns.into_iter().map(Value::Int)));
        (ch(chan(a)), c)
    });
    let equation = prop_oneof![
        mirrored,
        head_start,
        against_const,
        (arb_side(), arb_side())
    ];
    proptest::collection::vec(equation, 1..3).prop_map(|eqs| {
        eqs.into_iter()
            .fold(Description::new("random"), |d, (f, g)| d.equation(f, g))
    })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u32..3,
        prop_oneof![
            Just(Value::Int(0)),
            Just(Value::Int(0)),
            Just(Value::Int(1)),
            any::<bool>().prop_map(Value::Bit),
        ],
    )
        .prop_map(|(c, v)| Event::new(chan(c), v))
}

/// A random lasso, or one whose every value is `0`: there the limit
/// often holds and a verdict turns on lengths alone.
fn arb_lasso() -> impl Strategy<Value = Trace> {
    let events = |n| proptest::collection::vec(arb_event(), n);
    let zeros = |n| proptest::collection::vec((0u32..3).prop_map(|c| Event::int(chan(c), 0)), n);
    prop_oneof![
        (events(0..4), events(1..5)).prop_map(|(p, c)| Trace::lasso(p, c)),
        (zeros(0..4), zeros(1..6)).prop_map(|(p, c)| Trace::lasso(p, c)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Smooth` is a proof: the deep oracle finds nothing. A `Violation`
    /// is the oracle's first pair, component and values included.
    #[test]
    fn exact_verdict_matches_the_deep_oracle(desc in arb_description(), t in arb_lasso()) {
        match smoothness(&desc, &t) {
            Smoothness::Smooth => {
                let depth = oracle_depth(&desc, &t);
                prop_assert_eq!(
                    smoothness_violation(&desc, &t, depth), None,
                    "proved smooth but violated within depth {} on {}", depth, t
                );
            }
            Smoothness::Violation(w) => {
                let n = w.v.len().as_finite().expect("a witness is finite");
                prop_assert_eq!(
                    smoothness_violation(&desc, &t, n),
                    Some((w.u.clone(), w.v.clone())),
                    "not the first violation on {}", t
                );
                let (lhs, rhs) = (desc.eval_lhs(&w.v), desc.eval_rhs(&w.u));
                let first = (0..desc.arity()).find(|&k| !lhs[k].leq(&rhs[k]));
                prop_assert_eq!(first, Some(w.component));
                prop_assert_eq!(&w.lhs_v, &lhs[w.component]);
                prop_assert_eq!(&w.rhs_u, &rhs[w.component]);
            }
            Smoothness::Unproven { events } => {
                prop_assert!(
                    smoothness_violation(&desc, &t, events.min(256)).is_none(),
                    "unproven past a violation on {}", t
                );
            }
        }
    }

    /// On a finite trace the same walk is exact at every pair: `Smooth`
    /// iff the oracle finds nothing at `|t|`, and a `Violation` is its
    /// first pair with the first failing component and both values —
    /// which is what [`diagnose`] reports, at depth `|t|`.
    #[test]
    fn finite_verdict_matches_the_pair_oracle(
        desc in arb_description(),
        events in proptest::collection::vec(arb_event(), 0..80),
    ) {
        let t = Trace::finite(events);
        let n = t.len().as_finite().expect("finite");
        let oracle = smoothness_violation(&desc, &t, n);
        let report = diagnose(&desc, &t);
        prop_assert_eq!(report.depth, n);
        match smoothness(&desc, &t) {
            Smoothness::Smooth => {
                prop_assert_eq!(oracle, None, "proved smooth but violated on {}", t);
                prop_assert_eq!(report.violation, None);
            }
            Smoothness::Violation(w) => {
                prop_assert_eq!(
                    oracle,
                    Some((w.u.clone(), w.v.clone())),
                    "not the first violation on {}", t
                );
                let (lhs, rhs) = (desc.eval_lhs(&w.v), desc.eval_rhs(&w.u));
                let first = (0..desc.arity()).find(|&k| !lhs[k].leq(&rhs[k]));
                prop_assert_eq!(first, Some(w.component));
                prop_assert_eq!(&w.lhs_v, &lhs[w.component]);
                prop_assert_eq!(&w.rhs_u, &rhs[w.component]);
                prop_assert_eq!(report.violation, Some(w));
            }
            Smoothness::Unproven { events } => {
                prop_assert!(false, "a finite trace is never unproven ({} events)", events);
            }
        }
    }
}

/// A dfm lasso of `len` events (a multiple of 4) echoing each input on
/// `d` right after it arrives; with `early` the first echo precedes its
/// input — the shape of the `denotational` benchmark's dfm lassos.
fn dfm_lasso(len: usize, early: bool, salt: i64) -> Trace {
    let mut cycle = Vec::with_capacity(len);
    for i in 0..(len / 4) as i64 {
        let e = 2 * ((i * 5 + salt) % 8);
        let o = 2 * ((i / 8 + salt) % 8) + 1;
        cycle.extend([
            Event::int(dfm::B, e),
            Event::int(dfm::D, e),
            Event::int(dfm::C, o),
            Event::int(dfm::D, o),
        ]);
    }
    if early {
        cycle.swap(0, 1);
    }
    Trace::lasso([], cycle)
}

/// Every lasso the `denotational` benchmark certifies gets its known
/// verdict, decided: a smooth one is proved, a rough one convicted, and
/// none is `Unproven`.
#[test]
fn denotational_lassos_are_decided() {
    let mut set: Vec<(Description, Trace, bool)> = Vec::new();
    for len in [8, 16, 32, 64, 128] {
        for salt in 0..3 {
            for early in [false, true] {
                set.push((dfm::dfm_description(), dfm_lasso(len, early, salt), !early));
            }
        }
    }
    for pattern in [
        &[true, false][..],
        &[false, true, true],
        &[true, true, false, false, true],
    ] {
        set.push((
            fair_random::description(),
            fair_random::fair_trace(pattern),
            true,
        ));
    }
    set.push((
        fair_random::description(),
        fair_random::fair_trace(&[true]),
        false,
    ));
    set.push((ticks::description(), ticks::omega_trace(), true));
    for n in 0..6 {
        set.push((
            finite_ticks::full_system().flatten(),
            finite_ticks::n_tick_trace(n),
            true,
        ));
    }
    for (desc, t, smooth) in &set {
        let verdict = smoothness(desc, t);
        assert!(
            !matches!(verdict, Smoothness::Unproven { .. }),
            "{} on {t}: {verdict:?}",
            desc.name()
        );
        assert_eq!(is_smooth(desc, t), *smooth, "{} on {t}", desc.name());
        // the unfair fair-random lasso is rough in its limit only
        if limit_holds(desc, t) {
            assert_eq!(
                verdict == Smoothness::Smooth,
                *smooth,
                "{} on {t}",
                desc.name()
            );
        }
    }
}
