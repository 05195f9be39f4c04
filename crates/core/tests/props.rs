//! Property tests for the core theory: Theorem 1 agreement, Lemma 2,
//! composition (Theorem 2), and variable elimination (Theorems 5/6) on
//! random instances.

use eqp_core::compose::{sublemma_agrees, Component};
use eqp_core::description::{Alphabet, Description, System};
use eqp_core::diagnose::{diagnose, limit_verdicts, SmoothnessViolation};
use eqp_core::smooth::{
    is_smooth, is_smooth_at_depth, is_smooth_independent, lemma2_consequent, limit_holds,
    smoothness, smoothness_holds, smoothness_violation, Smoothness,
};
use eqp_core::{eliminate, enumerate, reconstruct_witness, EnumOptions};
use eqp_seqfn::paper::{ch, even, odd, prepend_int, twice};
use eqp_seqfn::SeqExpr;
use eqp_trace::{Chan, ChanSet, Event, Trace, Value};
use proptest::prelude::*;

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

fn arb_event() -> impl Strategy<Value = Event> {
    (0u32..3, -2i64..4).prop_map(|(ci, n)| Event::int(Chan::new(ci), n))
}

fn arb_finite_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(arb_event(), 0..8).prop_map(Trace::finite)
}

/// The exact decision against explicit-depth search out to four times the
/// old size-scaled heuristic depth (on a finite trace, four times its
/// length): a proof finds nothing there, and a violation is the first one,
/// none is left unproven. [`diagnose`]'s report carries the same witness,
/// field for field, as one built from the pair oracle; its depth is `|t|`
/// on a finite trace, and on a lasso `|v|` of the witness or `usize::MAX`
/// for a proof.
fn assert_exact_against_deep(desc: &Description, t: &Trace) {
    let size: usize = desc.lhs().iter().chain(desc.rhs()).map(SeqExpr::size).sum();
    let (p, c) = (t.as_lasso().prefix().len(), t.as_lasso().cycle().len());
    let deep = 4 * (p + c * (8 + 2 * size));
    let oracle = smoothness_violation(desc, t, deep).map(|(u, v)| {
        let (lhs, rhs) = (desc.eval_lhs(&v), desc.eval_rhs(&u));
        let k = (0..desc.arity())
            .find(|&k| !lhs[k].leq(&rhs[k]))
            .expect("the oracle's pair fails in some component");
        SmoothnessViolation {
            component: k,
            u,
            v,
            lhs_v: lhs[k].clone(),
            rhs_u: rhs[k].clone(),
        }
    });
    match smoothness(desc, t) {
        Smoothness::Smooth => assert_eq!(oracle, None, "on {t}"),
        Smoothness::Violation(w) => assert_eq!(oracle.as_ref(), Some(&w), "on {t}"),
        Smoothness::Unproven { events } => panic!("unproven after {events} events on {t}"),
    }
    let report = diagnose(desc, t);
    assert_eq!(report.violation, oracle, "diagnose on {t}");
    assert_eq!(
        report.limits,
        limit_verdicts(&desc.eval_lhs(t), &desc.eval_rhs(t)),
        "diagnose limits on {t}"
    );
    let depth = match (t.len().as_finite(), &oracle) {
        (Some(n), _) => n,
        (None, Some(w)) => w.v.len().as_finite().expect("a witness is finite"),
        (None, None) => usize::MAX,
    };
    assert_eq!(report.depth, depth, "diagnose depth on {t}");
}

/// The Section 2.3 network description: its sides read the channel they
/// constrain, so `f(v) ⊑ g(u)` is a genuinely staggered check.
fn net23() -> Description {
    Description::new("net23")
        .equation(even(ch(d())), prepend_int(0, twice(ch(d()))))
        .equation(odd(ch(d())), SeqExpr::affine(2, 1, ch(d())))
}

/// A random lasso over `b`, `c`, `d`.
fn arb_lasso() -> impl Strategy<Value = Trace> {
    let events = |n| proptest::collection::vec(arb_event(), n);
    (events(0..4), events(1..4)).prop_map(|(p, c)| Trace::lasso(p, c))
}

proptest! {
    /// Theorem 1: for the independent dfm description, the general
    /// (staggered-pair) smooth check agrees with the per-prefix check on
    /// every trace.
    #[test]
    fn theorem1_agreement(t in arb_finite_trace()) {
        let desc = dfm();
        prop_assert_eq!(
            is_smooth(&desc, &t),
            is_smooth_independent(&desc, &t, 16)
        );
    }

    /// Lemma 2: every smooth solution satisfies f(v) ⊑ g(v) on all finite
    /// prefixes.
    #[test]
    fn lemma2_on_smooth_solutions(t in arb_finite_trace()) {
        let desc = dfm();
        if is_smooth(&desc, &t) {
            prop_assert!(lemma2_consequent(&desc, &t, 16));
        }
    }

    /// Theorem 2's sublemma: composite smooth ⇔ all projections smooth, on
    /// random traces over the Section 2.3 network.
    #[test]
    fn composition_sublemma(t in arb_finite_trace()) {
        let p = Description::new("P").defines(b(), prepend_int(0, twice(ch(d()))));
        let q = Description::new("Q").defines(c(), eqp_seqfn::paper::twice_plus_one(ch(d())));
        let comps = vec![
            Component::from_description(p),
            Component::from_description(q),
            Component::from_description(dfm()),
        ];
        prop_assert!(sublemma_agrees(&comps, &t, 24));
    }

    /// dc constraint holds by construction for expression-built components.
    #[test]
    fn dc_by_construction(t in arb_finite_trace()) {
        let comp = Component::from_description(dfm());
        prop_assert!(comp.dc_holds_on(&t));
    }

    /// Theorem 5 on random smooth solutions of the copy-through-b system:
    /// the projection of a D1-smooth trace is D2-smooth.
    #[test]
    fn theorem5_random(t in arb_finite_trace()) {
        let sys = System::new()
            .with(Description::new("defB").defines(b(), prepend_int(0, twice(ch(c())))))
            .with(Description::new("useB").defines(d(), ch(b())));
        let flat1 = sys.flatten();
        if is_smooth(&flat1, &t) {
            let d2 = eliminate(&sys, b()).unwrap().flatten();
            let tc = t.project(&ChanSet::from_chans([c(), d()]));
            prop_assert!(is_smooth(&d2, &tc), "Theorem 5 fails on {}", t);
        }
    }

    /// Theorem 6 round-trip: for random D2-smooth s, the reconstructed
    /// witness is D1-smooth and projects back to s.
    #[test]
    fn theorem6_random(t in arb_finite_trace()) {
        let sys = System::new()
            .with(Description::new("defB").defines(b(), prepend_int(0, twice(ch(c())))))
            .with(Description::new("useB").defines(d(), ch(b())));
        let d2sys = eliminate(&sys, b()).unwrap();
        let d2 = d2sys.flatten();
        // restrict to traces without b-events (s_c = s)
        let s = t.project(&ChanSet::from_chans([c(), d()]));
        if is_smooth(&d2, &s) {
            let h = prepend_int(0, twice(ch(c())));
            let w = reconstruct_witness(&s, b(), &h).expect("finite h");
            prop_assert_eq!(w.project(&ChanSet::from_chans([c(), d()])), s);
            let flat1 = sys.flatten();
            prop_assert!(is_smooth(&flat1, &w), "witness {} not D1-smooth", w);
        }
    }

    /// Everything the enumerator reports as a solution is smooth, and every
    /// smooth trace within the depth over the alphabet is reported.
    #[test]
    fn enumerator_sound_and_complete(seed in 0u64..50) {
        let _ = seed; // the check is deterministic; seed varies nothing yet
        let desc = dfm();
        let alpha = Alphabet::new()
            .with_chan(b(), [Value::Int(0), Value::Int(2)])
            .with_chan(c(), [Value::Int(1)])
            .with_ints(d(), 0, 2);
        let e = enumerate(&desc, &alpha, EnumOptions { max_depth: 3, max_nodes: 100_000 });
        prop_assert!(!e.truncated);
        for s in &e.solutions {
            prop_assert!(is_smooth(&desc, s));
        }
        // completeness: exhaustive cross-check over all traces ≤ 3 events
        let mut all = vec![Trace::empty()];
        let mut level = vec![Trace::empty()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for u in &level {
                for (cn, msgs) in alpha.iter() {
                    for m in msgs {
                        let v = u.pushed(Event::new(cn, *m)).unwrap();
                        next.push(v.clone());
                        all.push(v);
                    }
                }
            }
            level = next;
        }
        for t in &all {
            let smooth = limit_holds(&desc, t) && smoothness_holds(&desc, t, 8);
            prop_assert_eq!(
                smooth,
                e.solutions.contains(t),
                "enumerator completeness mismatch on {}", t
            );
        }
    }

    /// Section 6's note: the chain-based definition of smooth solution,
    /// instantiated at the cpo of traces with the prefix chain as witness,
    /// coincides with the Section 3.2.2 trace definition.
    #[test]
    fn chain_definition_coincides_on_traces(t in arb_finite_trace()) {
        use eqp_core::description::tuple_leq;
        use eqp_core::fixpoint::chain_witnesses_smooth;
        use eqp_cpo::chain::Chain;
        use eqp_trace::TraceDomain;
        let desc = dfm();
        let n = t.events().unwrap().len();
        let prefixes: Vec<Trace> = t.prefixes_up_to(n).collect();
        let chain = Chain::new(&TraceDomain, prefixes).expect("prefix chain");
        let via_chain = chain_witnesses_smooth(
            &TraceDomain,
            |u: &Trace| desc.eval_lhs(u),
            |u: &Trace| desc.eval_rhs(u),
            |a, b| tuple_leq(a, b),
            &chain,
        );
        prop_assert_eq!(via_chain, is_smooth(&desc, &t));
    }

    /// Lasso certification: on random `net23` lassos the exact decision
    /// agrees with the explicit-depth check 4× past the old heuristic
    /// depth — a proof finds nothing there, a violation is its first one.
    #[test]
    fn certificate_depth_sufficient_on_lassos(
        prefix in proptest::collection::vec(-2i64..4, 0..4),
        cycle in proptest::collection::vec(-2i64..4, 1..4),
    ) {
        let t = Trace::lasso(
            prefix.iter().map(|&n| Event::int(d(), n)).collect::<Vec<_>>(),
            cycle.iter().map(|&n| Event::int(d(), n)).collect::<Vec<_>>(),
        );
        assert_exact_against_deep(&net23(), &t);
    }

    /// The same lasso certification for the dfm description over random
    /// two-channel lassos.
    #[test]
    fn certificate_depth_sufficient_dfm(
        prefix in proptest::collection::vec((0u32..3usize as u32, -2i64..4), 0..4),
        cycle in proptest::collection::vec((0u32..3, -2i64..4), 1..4),
    ) {
        let desc = dfm();
        let mk = |v: &Vec<(u32, i64)>| {
            v.iter()
                .map(|&(c, n)| Event::int(Chan::new(c), n))
                .collect::<Vec<_>>()
        };
        let t = Trace::lasso(mk(&prefix), mk(&cycle));
        assert_exact_against_deep(&desc, &t);
    }

    /// The one walk decides finite traces exactly too: on random finite
    /// traces over dfm and the staggered net23 its verdict, witness and
    /// `diagnose` report match the pair oracle.
    #[test]
    fn finite_traces_exact_against_the_pair_oracle(t in arb_finite_trace()) {
        assert_exact_against_deep(&dfm(), &t);
        assert_exact_against_deep(&net23(), &t);
    }

    /// is_smooth_at_depth is monotone in depth: failing shallow ⇒ failing
    /// deep; passing deep ⇒ passing shallow. At every depth up to one past
    /// the trace (past a lasso's second round), the walk over `t.take(d)`
    /// agrees with the pair oracle at `d`.
    #[test]
    fn smooth_depth_monotone(
        t in arb_finite_trace(),
        lasso in arb_lasso(),
        d1 in 0usize..6,
        d2 in 6usize..16,
    ) {
        let desc = net23();
        if is_smooth_at_depth(&desc, &t, d2) {
            prop_assert!(is_smooth_at_depth(&desc, &t, d1));
        }
        let n = t.len().as_finite().expect("finite");
        let (p, c) = (lasso.as_lasso().prefix().len(), lasso.as_lasso().cycle().len());
        for desc in [dfm(), desc] {
            for (t, max) in [(&t, n + 1), (&lasso, p + 2 * c + 1)] {
                for d in 0..=max {
                    prop_assert_eq!(
                        smoothness_holds(&desc, t, d),
                        smoothness_violation(&desc, t, d).is_none(),
                        "depth {} on {}", d, t
                    );
                }
            }
        }
    }
}
