//! [`SeqExpr`]: the AST of continuous trace-to-sequence functions.

use crate::custom::SeqFunction;
use crate::ops::{ValueMap, ValuePred, ValueZip};
use eqp_trace::{Chan, ChanSet, Lasso, Seq, Trace, Value};
use std::fmt;
use std::sync::Arc;

/// A continuous function from traces to message sequences, as a first-order
/// expression tree.
///
/// Every constructor denotes a continuous function (monotone and
/// lub-preserving on the prefix order); composition preserves continuity,
/// so the whole language is continuous by construction. Evaluation is exact
/// on eventually periodic inputs: lassos map to lassos.
///
/// # Example
///
/// ```
/// use eqp_seqfn::SeqExpr;
/// use eqp_trace::{Chan, Event, Lasso, Trace, Value};
///
/// let d = Chan::new(0);
/// // even(2×d + 1) of an infinite alternating stream is empty forever:
/// let e = SeqExpr::even(SeqExpr::affine(2, 1, SeqExpr::chan(d)));
/// let t = Trace::lasso([], [Event::int(d, 1), Event::int(d, 2)]);
/// assert_eq!(e.eval(&t), Lasso::empty());
/// assert!(e.channels().contains(d));
/// let _ = Value::Int(0);
/// ```
#[derive(Debug, Clone)]
pub enum SeqExpr {
    /// The sequence carried by a channel: the paper writes a channel name
    /// `c` for "the function that maps a trace to the sequence associated
    /// with c in the trace" (Section 4).
    Chan(Chan),
    /// A constant sequence (e.g. `T̄` in Section 4.3, `0̄ 2̄` in Section 2.4).
    Const(Seq),
    /// Concatenation with a finite prefix: the paper's `v ; e` with finite
    /// `v`, as in `b = 0; c`.
    Concat(Vec<Value>, Box<SeqExpr>),
    /// Pointwise map (affine `2×d`, `R`, tagging, untagging).
    Map(ValueMap, Box<SeqExpr>),
    /// Subsequence selection (`even`, `odd`, `TRUE`, `FALSE`, `ZERO`,
    /// `ONE`).
    Filter(ValuePred, Box<SeqExpr>),
    /// Pointwise binary combination (`AND` of Section 4.5). The result
    /// length is the min of the operand lengths — the strictness the paper
    /// requires.
    Zip(ValueZip, Box<SeqExpr>, Box<SeqExpr>),
    /// Longest prefix whose elements all satisfy the predicate — Section
    /// 4.8's `g` is `TakeWhile(IsTrue, …)`.
    TakeWhile(ValuePred, Box<SeqExpr>),
    /// Drops the first `n` elements — the "tail" operator of classic Kahn
    /// feedback networks (continuous: dropping a fixed count is monotone
    /// and lub-preserving).
    Skip(usize, Box<SeqExpr>),
    /// Oracle selection (Section 4.6): the subsequence of `data` at the
    /// positions where `oracle` has bit `keep`. `g(c, b)` is
    /// `keep = true`, `h(c, b)` is `keep = false`.
    OracleSelect {
        /// The data stream to select from.
        data: Box<SeqExpr>,
        /// The bit stream steering the selection.
        oracle: Box<SeqExpr>,
        /// Which oracle bit selects an element.
        keep: bool,
    },
    /// Section 4.9's `h`: counts the `T`s before the first `F`, emitting
    /// the count (as a single integer) only once the `F` has arrived.
    CountTicks(Box<SeqExpr>),
    /// The Brock–Ackermann process-B function (Section 2.4), generalized:
    /// emit `first + add` once at least `need` elements are present;
    /// `f(ε) = f(⟨n⟩) = ε`, `f(n; m; x) = ⟨n + 1⟩` is
    /// `EmitFirstAfter { need: 2, add: 1 }`.
    EmitFirstAfter {
        /// How many input elements must be present before emitting.
        need: usize,
        /// Offset added to the first element.
        add: i64,
        /// The input stream.
        input: Box<SeqExpr>,
    },
    /// A user-supplied continuous function (no substitution support).
    Custom(Arc<dyn SeqFunction>),
}

impl SeqExpr {
    /// The projection onto channel `c`.
    pub fn chan(c: Chan) -> SeqExpr {
        SeqExpr::Chan(c)
    }

    /// A constant sequence.
    pub fn constant(s: Seq) -> SeqExpr {
        SeqExpr::Const(s)
    }

    /// The constant empty sequence `ε`.
    pub fn epsilon() -> SeqExpr {
        SeqExpr::Const(Lasso::empty())
    }

    /// A constant finite sequence of integers.
    pub fn const_ints<I: IntoIterator<Item = i64>>(ns: I) -> SeqExpr {
        SeqExpr::Const(Lasso::finite(ns.into_iter().map(Value::Int)))
    }

    /// `vals ; e` — finite prefix concatenation.
    pub fn concat<I: IntoIterator<Item = Value>>(vals: I, e: SeqExpr) -> SeqExpr {
        SeqExpr::Concat(vals.into_iter().collect(), Box::new(e))
    }

    /// The paper's `even(e)`.
    pub fn even(e: SeqExpr) -> SeqExpr {
        SeqExpr::Filter(ValuePred::IsEvenInt, Box::new(e))
    }

    /// The paper's `odd(e)`.
    pub fn odd(e: SeqExpr) -> SeqExpr {
        SeqExpr::Filter(ValuePred::IsOddInt, Box::new(e))
    }

    /// The affine image `a·e + b` (pointwise on integers).
    pub fn affine(a: i64, b: i64, e: SeqExpr) -> SeqExpr {
        SeqExpr::Map(ValueMap::Affine { a, b }, Box::new(e))
    }

    /// The tail operator `skip(n, e)`: drops the first `n` elements.
    pub fn skip(n: usize, e: SeqExpr) -> SeqExpr {
        SeqExpr::Skip(n, Box::new(e))
    }

    /// Pointwise integer addition of two streams (continuous; result
    /// length is the min of the operands) — the classic Kahn `+`.
    #[allow(clippy::should_implement_trait)] // static DSL constructor, not ops::Add
    pub fn add(a: SeqExpr, b: SeqExpr) -> SeqExpr {
        SeqExpr::Zip(crate::ops::ValueZip::AddInts, Box::new(a), Box::new(b))
    }

    /// Wraps a user-defined function.
    pub fn custom(f: Arc<dyn SeqFunction>) -> SeqExpr {
        SeqExpr::Custom(f)
    }

    /// Evaluates the expression on a trace. Exact for finite and
    /// eventually periodic traces alike.
    pub fn eval(&self, t: &Trace) -> Seq {
        match self {
            SeqExpr::Chan(c) => t.seq_on(*c),
            SeqExpr::Const(s) => s.clone(),
            SeqExpr::Concat(front, e) => e.eval(t).concat_front(front),
            SeqExpr::Map(m, e) => e.eval(t).map(|v| m.apply(v)),
            SeqExpr::Filter(p, e) => e.eval(t).filter(|v| p.test(v)),
            SeqExpr::Zip(z, a, b) => a.eval(t).zip_with(&b.eval(t), |x, y| z.apply(x, y)),
            SeqExpr::TakeWhile(p, e) => e.eval(t).take_while(|v| p.test(v)),
            SeqExpr::Skip(n, e) => e.eval(t).drop_front(*n),
            SeqExpr::OracleSelect { data, oracle, keep } => {
                let d = data.eval(t);
                let o = oracle.eval(t);
                d.zip_with(&o, |x, y| (*x, *y))
                    .filter(|(_, y)| *y == Value::Bit(*keep))
                    .map(|(x, _)| *x)
            }
            SeqExpr::CountTicks(e) => {
                let s = e.eval(t);
                match s.position(|v| ValuePred::IsFalse.test(v)) {
                    Some(i) => {
                        let ticks = s
                            .take(i)
                            .iter()
                            .filter(|v| ValuePred::IsTrue.test(v))
                            .count();
                        Lasso::finite(vec![Value::Int(ticks as i64)])
                    }
                    None => Lasso::empty(),
                }
            }
            SeqExpr::EmitFirstAfter { need, add, input } => {
                let s = input.eval(t);
                // emitting requires a first element, so the effective
                // threshold is max(need, 1)
                let enough = match s.len().as_finite() {
                    Some(n) => n >= (*need).max(1),
                    None => true,
                };
                if enough {
                    match s.get(0) {
                        Some(Value::Int(n)) => Lasso::finite(vec![Value::Int(n + add)]),
                        _ => Lasso::empty(),
                    }
                } else {
                    Lasso::empty()
                }
            }
            SeqExpr::Custom(f) => f.eval(t),
        }
    }

    /// The syntactic channel support: `eval(t) = eval(t_L)` for `L` the
    /// returned set (projection only reads the mentioned channels).
    pub fn channels(&self) -> ChanSet {
        match self {
            SeqExpr::Chan(c) => ChanSet::from_chans([*c]),
            SeqExpr::Const(_) => ChanSet::new(),
            SeqExpr::Concat(_, e)
            | SeqExpr::Map(_, e)
            | SeqExpr::Filter(_, e)
            | SeqExpr::TakeWhile(_, e)
            | SeqExpr::Skip(_, e)
            | SeqExpr::CountTicks(e)
            | SeqExpr::EmitFirstAfter { input: e, .. } => e.channels(),
            SeqExpr::Zip(_, a, b) => a.channels().union(&b.channels()),
            SeqExpr::OracleSelect { data, oracle, .. } => data.channels().union(&oracle.channels()),
            SeqExpr::Custom(f) => f.channels(),
        }
    }

    /// Substitutes `replacement` for every occurrence of channel `c`
    /// (Section 7: "replace `b` by `h` in `g`").
    ///
    /// # Errors
    ///
    /// Fails if a [`SeqExpr::Custom`] node's support mentions `c`; opaque
    /// functions cannot be rewritten syntactically.
    pub fn subst_chan(&self, c: Chan, replacement: &SeqExpr) -> Result<SeqExpr, SubstError> {
        let rec = |e: &SeqExpr| e.subst_chan(c, replacement);
        Ok(match self {
            SeqExpr::Chan(d) if *d == c => replacement.clone(),
            SeqExpr::Chan(d) => SeqExpr::Chan(*d),
            SeqExpr::Const(s) => SeqExpr::Const(s.clone()),
            SeqExpr::Concat(front, e) => SeqExpr::Concat(front.clone(), Box::new(rec(e)?)),
            SeqExpr::Map(m, e) => SeqExpr::Map(*m, Box::new(rec(e)?)),
            SeqExpr::Filter(p, e) => SeqExpr::Filter(*p, Box::new(rec(e)?)),
            SeqExpr::Zip(z, a, b) => SeqExpr::Zip(*z, Box::new(rec(a)?), Box::new(rec(b)?)),
            SeqExpr::TakeWhile(p, e) => SeqExpr::TakeWhile(*p, Box::new(rec(e)?)),
            SeqExpr::Skip(n, e) => SeqExpr::Skip(*n, Box::new(rec(e)?)),
            SeqExpr::OracleSelect { data, oracle, keep } => SeqExpr::OracleSelect {
                data: Box::new(rec(data)?),
                oracle: Box::new(rec(oracle)?),
                keep: *keep,
            },
            SeqExpr::CountTicks(e) => SeqExpr::CountTicks(Box::new(rec(e)?)),
            SeqExpr::EmitFirstAfter { need, add, input } => SeqExpr::EmitFirstAfter {
                need: *need,
                add: *add,
                input: Box::new(rec(input)?),
            },
            SeqExpr::Custom(f) => {
                if f.channels().contains(c) {
                    return Err(SubstError {
                        name: f.name().to_owned(),
                        chan: c,
                    });
                }
                SeqExpr::Custom(Arc::clone(f))
            }
        })
    }

    /// Structural node count (used by benches and diagnostics).
    pub fn size(&self) -> usize {
        1 + match self {
            SeqExpr::Chan(_) | SeqExpr::Const(_) | SeqExpr::Custom(_) => 0,
            SeqExpr::Concat(_, e)
            | SeqExpr::Map(_, e)
            | SeqExpr::Filter(_, e)
            | SeqExpr::TakeWhile(_, e)
            | SeqExpr::Skip(_, e)
            | SeqExpr::CountTicks(e)
            | SeqExpr::EmitFirstAfter { input: e, .. } => e.size(),
            SeqExpr::Zip(_, a, b) => a.size() + b.size(),
            SeqExpr::OracleSelect { data, oracle, .. } => data.size() + oracle.size(),
        }
    }
}

/// Error substituting into an opaque [`SeqExpr::Custom`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstError {
    /// Name of the opaque function.
    pub name: String,
    /// The channel that was to be replaced.
    pub chan: Chan,
}

impl fmt::Display for SubstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot substitute channel {} inside opaque function `{}`",
            self.chan, self.name
        )
    }
}

impl std::error::Error for SubstError {}

impl PartialEq for SeqExpr {
    fn eq(&self, other: &Self) -> bool {
        use SeqExpr::*;
        match (self, other) {
            (Chan(a), Chan(b)) => a == b,
            (Const(a), Const(b)) => a == b,
            (Concat(v, a), Concat(w, b)) => v == w && a == b,
            (Map(m, a), Map(n, b)) => m == n && a == b,
            (Filter(p, a), Filter(q, b)) => p == q && a == b,
            (Zip(z, a1, a2), Zip(w, b1, b2)) => z == w && a1 == b1 && a2 == b2,
            (TakeWhile(p, a), TakeWhile(q, b)) => p == q && a == b,
            (Skip(n, a), Skip(m, b)) => n == m && a == b,
            (
                OracleSelect {
                    data: d1,
                    oracle: o1,
                    keep: k1,
                },
                OracleSelect {
                    data: d2,
                    oracle: o2,
                    keep: k2,
                },
            ) => k1 == k2 && d1 == d2 && o1 == o2,
            (CountTicks(a), CountTicks(b)) => a == b,
            (
                EmitFirstAfter {
                    need: n1,
                    add: a1,
                    input: i1,
                },
                EmitFirstAfter {
                    need: n2,
                    add: a2,
                    input: i2,
                },
            ) => n1 == n2 && a1 == a2 && i1 == i2,
            (Custom(a), Custom(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for SeqExpr {}

impl fmt::Display for SeqExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqExpr::Chan(c) => write!(f, "{c}"),
            SeqExpr::Const(s) => write!(f, "{s}"),
            SeqExpr::Concat(front, e) => {
                for v in front {
                    write!(f, "{v}; ")?;
                }
                write!(f, "{e}")
            }
            SeqExpr::Map(m, e) => write!(f, "{m}({e})"),
            SeqExpr::Filter(p, e) => write!(f, "{p}({e})"),
            SeqExpr::Zip(z, a, b) => write!(f, "({a} {z} {b})"),
            SeqExpr::TakeWhile(p, e) => write!(f, "takeWhile[{p}]({e})"),
            SeqExpr::Skip(n, e) => write!(f, "skip[{n}]({e})"),
            SeqExpr::OracleSelect { data, oracle, keep } => {
                write!(
                    f,
                    "select[{}]({data}, {oracle})",
                    if *keep { "T" } else { "F" }
                )
            }
            SeqExpr::CountTicks(e) => write!(f, "countTicks({e})"),
            SeqExpr::EmitFirstAfter { need, add, input } => {
                write!(f, "emitFirst+{add}@{need}({input})")
            }
            SeqExpr::Custom(g) => write!(f, "{}", g.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::CustomDeltaState;
    use eqp_trace::Event;

    fn b() -> Chan {
        Chan::new(0)
    }
    fn c() -> Chan {
        Chan::new(1)
    }
    fn d() -> Chan {
        Chan::new(2)
    }

    fn ints(ns: &[i64]) -> Seq {
        Lasso::finite(ns.iter().copied().map(Value::Int))
    }

    #[test]
    fn chan_projection_evaluates() {
        let t = Trace::finite(vec![
            Event::int(b(), 1),
            Event::int(c(), 2),
            Event::int(b(), 3),
        ]);
        assert_eq!(SeqExpr::chan(b()).eval(&t), ints(&[1, 3]));
        assert_eq!(SeqExpr::chan(d()).eval(&t), Lasso::empty());
    }

    #[test]
    fn even_odd_filters() {
        let t = Trace::finite(vec![
            Event::int(d(), 0),
            Event::int(d(), 1),
            Event::int(d(), 2),
            Event::int(d(), 3),
        ]);
        assert_eq!(SeqExpr::even(SeqExpr::chan(d())).eval(&t), ints(&[0, 2]));
        assert_eq!(SeqExpr::odd(SeqExpr::chan(d())).eval(&t), ints(&[1, 3]));
    }

    #[test]
    fn affine_and_concat() {
        let t = Trace::finite(vec![Event::int(d(), 1), Event::int(d(), 2)]);
        let two_d = SeqExpr::affine(2, 0, SeqExpr::chan(d()));
        assert_eq!(two_d.eval(&t), ints(&[2, 4]));
        let zero_then = SeqExpr::concat([Value::Int(0)], two_d);
        assert_eq!(zero_then.eval(&t), ints(&[0, 2, 4]));
    }

    #[test]
    fn zip_and_truncates() {
        let t = Trace::finite(vec![
            Event::bit(b(), true),
            Event::bit(b(), false),
            Event::bit(c(), true),
        ]);
        let and = SeqExpr::Zip(
            ValueZip::And,
            Box::new(SeqExpr::chan(b())),
            Box::new(SeqExpr::chan(c())),
        );
        assert_eq!(and.eval(&t), Lasso::finite(vec![Value::tt()]));
    }

    #[test]
    fn oracle_select_splits() {
        // data on c: 1 2 3; oracle on b: T F T → keep-T: 1 3, keep-F: 2.
        let t = Trace::finite(vec![
            Event::int(c(), 1),
            Event::int(c(), 2),
            Event::int(c(), 3),
            Event::bit(b(), true),
            Event::bit(b(), false),
            Event::bit(b(), true),
        ]);
        let g = SeqExpr::OracleSelect {
            data: Box::new(SeqExpr::chan(c())),
            oracle: Box::new(SeqExpr::chan(b())),
            keep: true,
        };
        let h = SeqExpr::OracleSelect {
            data: Box::new(SeqExpr::chan(c())),
            oracle: Box::new(SeqExpr::chan(b())),
            keep: false,
        };
        assert_eq!(g.eval(&t), ints(&[1, 3]));
        assert_eq!(h.eval(&t), ints(&[2]));
    }

    #[test]
    fn count_ticks_until_first_false() {
        let seq = |bits: &[bool]| {
            Trace::finite(bits.iter().map(|&x| Event::bit(c(), x)).collect::<Vec<_>>())
        };
        let h = SeqExpr::CountTicks(Box::new(SeqExpr::chan(c())));
        assert_eq!(h.eval(&seq(&[true, true, false])), ints(&[2]));
        assert_eq!(h.eval(&seq(&[false])), ints(&[0]));
        assert_eq!(h.eval(&seq(&[true, true])), Lasso::empty());
        assert_eq!(h.eval(&Trace::empty()), Lasso::empty());
    }

    #[test]
    fn brock_ackermann_f() {
        let f = SeqExpr::EmitFirstAfter {
            need: 2,
            add: 1,
            input: Box::new(SeqExpr::chan(c())),
        };
        let t0 = Trace::empty();
        let t1 = Trace::finite(vec![Event::int(c(), 0)]);
        let t2 = Trace::finite(vec![Event::int(c(), 0), Event::int(c(), 2)]);
        let t3 = Trace::finite(vec![
            Event::int(c(), 0),
            Event::int(c(), 2),
            Event::int(c(), 9),
        ]);
        assert_eq!(f.eval(&t0), Lasso::empty());
        assert_eq!(f.eval(&t1), Lasso::empty());
        assert_eq!(f.eval(&t2), ints(&[1]));
        assert_eq!(f.eval(&t3), ints(&[1]));
    }

    #[test]
    fn eval_on_infinite_trace_is_lasso() {
        // d carries 0 1 0 1 …; even(d) = 0 0 …, 2×even(d) = 0 0 …
        let t = Trace::lasso([], [Event::int(d(), 0), Event::int(d(), 1)]);
        let e = SeqExpr::affine(2, 1, SeqExpr::even(SeqExpr::chan(d())));
        assert_eq!(e.eval(&t), Lasso::repeat(vec![Value::Int(1)]));
    }

    #[test]
    fn channels_support() {
        let e = SeqExpr::Zip(
            ValueZip::And,
            Box::new(SeqExpr::chan(b())),
            Box::new(SeqExpr::even(SeqExpr::chan(d()))),
        );
        assert_eq!(e.channels(), ChanSet::from_chans([b(), d()]));
        assert_eq!(SeqExpr::epsilon().channels(), ChanSet::new());
    }

    #[test]
    fn eval_depends_only_on_support() {
        let e = SeqExpr::even(SeqExpr::chan(d()));
        let t = Trace::finite(vec![Event::int(d(), 2), Event::int(b(), 7)]);
        let tp = t.project(&e.channels());
        assert_eq!(e.eval(&t), e.eval(&tp));
    }

    #[test]
    fn substitution_rewrites_channel() {
        // g = even(d) with d := 0; 2×c  ⇒ even(0; 2×c)
        let g = SeqExpr::even(SeqExpr::chan(d()));
        let h = SeqExpr::concat([Value::Int(0)], SeqExpr::affine(2, 0, SeqExpr::chan(c())));
        let g2 = g.subst_chan(d(), &h).unwrap();
        let t = Trace::finite(vec![Event::int(c(), 1), Event::int(c(), 2)]);
        // h(t) = 0; 2 4 → ⟨0 2 4⟩; even of that = ⟨0 2 4⟩.
        assert_eq!(g2.eval(&t), ints(&[0, 2, 4]));
        // untouched channels survive
        assert_eq!(g.subst_chan(b(), &h).unwrap(), g);
    }

    #[test]
    fn substitution_into_custom_fails_when_support_hits() {
        #[derive(Debug)]
        struct Ch2;
        impl SeqFunction for Ch2 {
            fn eval(&self, t: &Trace) -> Seq {
                t.seq_on(Chan::new(2))
            }
            fn channels(&self) -> ChanSet {
                ChanSet::from_chans([Chan::new(2)])
            }
            fn name(&self) -> &str {
                "opaque"
            }
            fn delta_init(&self) -> (Box<dyn CustomDeltaState>, Vec<Value>) {
                (Box::new(Ch2State), Vec::new())
            }
        }
        #[derive(Debug, Clone)]
        struct Ch2State;
        impl CustomDeltaState for Ch2State {
            fn clone_box(&self) -> Box<dyn CustomDeltaState> {
                Box::new(Ch2State)
            }
            fn step(&mut self, ev: Event) -> Vec<Value> {
                if ev.chan == Chan::new(2) {
                    vec![ev.value]
                } else {
                    Vec::new()
                }
            }
        }
        let e = SeqExpr::custom(Arc::new(Ch2));
        let err = e.subst_chan(d(), &SeqExpr::epsilon()).unwrap_err();
        assert!(err.to_string().contains("opaque"));
        // substituting a channel outside the support is fine
        assert!(e.subst_chan(b(), &SeqExpr::epsilon()).is_ok());
    }

    #[test]
    fn display_readable() {
        let e = SeqExpr::concat([Value::Int(0)], SeqExpr::affine(2, 0, SeqExpr::chan(d())));
        assert_eq!(e.to_string(), "0; 2×(ch2)");
        let f = SeqExpr::even(SeqExpr::chan(d()));
        assert_eq!(f.to_string(), "even(ch2)");
    }

    #[test]
    fn size_counts_nodes() {
        let e = SeqExpr::even(SeqExpr::affine(2, 0, SeqExpr::chan(d())));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn equality_structural() {
        assert_eq!(SeqExpr::chan(b()), SeqExpr::chan(b()));
        assert_ne!(SeqExpr::chan(b()), SeqExpr::chan(c()));
        assert_eq!(
            SeqExpr::even(SeqExpr::chan(d())),
            SeqExpr::even(SeqExpr::chan(d()))
        );
        assert_ne!(
            SeqExpr::even(SeqExpr::chan(d())),
            SeqExpr::odd(SeqExpr::chan(d()))
        );
    }
}
