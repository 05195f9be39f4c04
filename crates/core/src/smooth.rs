//! The smooth-solution predicate (Section 3.2.2) and Theorem 1's
//! simplification for independent descriptions.
//!
//! [`smoothness`] is the one walk behind every smoothness verdict —
//! [`is_smooth`], [`smoothness_holds`], [`crate::diagnose::diagnose`] and
//! the conformance bridge. On a finite trace it checks every `u pre v`
//! pair as it passes it, once. On an eventually periodic (lasso) trace
//! `p·c^ω` the limit condition is exact too — lassos evaluate to lassos
//! and lasso equality is semantic — but the smoothness condition
//! quantifies over infinitely many pairs. [`smoothness`] decides it by
//! walking the lasso once:
//!
//! 1. each component equation's compiled sides step over `p` and then
//!    round `c`, and every pair is checked as the walk passes it
//!    (`f(v) ⊑ g(u)` with [`step_check`], amortized O(1) per event);
//! 2. at each cycle boundary the equation's state is keyed: both
//!    machines' [`state_key`](eqp_seqfn::CompiledDeltaState::state_key)s
//!    plus `g`'s unmatched surplus over `f` (for an infinite constant
//!    `g`, `f`'s offset into it, reduced modulo the constant's cycle);
//! 3. the input after every boundary is the same `c^ω`, so when a key
//!    repeats, every later obligation repeats one already discharged: the
//!    repeat is a proof. Two weaker repeats prove too: `f`'s machine
//!    repeating without having grown (`f` is done, and `g(u)` only
//!    grows), and both machines repeating with a surplus that has not
//!    shrunk when the component's limit `f(t) = g(t)` holds (then `f(v)`
//!    and `g(u)` are prefixes of one sequence, and only a length race is
//!    left, which `f` can no longer win). Keys are compared against one
//!    saved key per equation (Brent's cycle finding), so the walk holds
//!    O(key) memory.
//!
//! An equation with no such repeat within a fixed cycle budget (a tick
//! counter on an all-`T` cycle counts without bound) or with no key (a
//! custom function without an encoding, a non-incremental side) is
//! [`Smoothness::Unproven`]: it never passes.
//!
//! No fixed depth certifies a lasso. The constants inside an expression —
//! skip counts, `Concat` fronts, `EmitFirstAfter::need` — delay behaviour
//! by any amount: `Skip(k, c) ⟸ Skip(k, d)` over `(c:0 d:0)^ω` first
//! fails at `|v| = 2k+1`, whatever the expression's size.

use crate::description::{tuple_leq, Description};
use crate::diagnose::SmoothnessViolation;
use eqp_seqfn::compile::{key_seq, step_check};
use eqp_seqfn::{CompiledExpr, CompiledSideEval};
use eqp_trace::lasso::Length;
use eqp_trace::{Event, Seq, Trace};

/// The limit condition `f(t) = g(t)` — exact for finite and lasso traces.
pub fn limit_holds(desc: &Description, t: &Trace) -> bool {
    desc.eval_lhs(t) == desc.eval_rhs(t)
}

/// The smoothness condition `∀ u pre v in t :: f(v) ⊑ g(u)`, checked for
/// all pairs with `|v| ≤ depth` — exactly the pairs of `t.take(depth)`,
/// which [`smoothness`] walks once. Complete for finite traces when
/// `depth ≥ |t|`.
pub fn smoothness_holds(desc: &Description, t: &Trace, depth: usize) -> bool {
    smoothness(desc, &t.take(depth)) == Smoothness::Smooth
}

/// Finds the first smoothness violation `(u, v)` with `|v| ≤ depth`, or
/// `None`, by re-evaluating both sides at every pair — quadratic in
/// `depth`. No library verdict path calls it: it is the reference oracle
/// that the property tests (`tests/props.rs`, `tests/lasso_exact.rs`)
/// hold [`smoothness`] to, and the Theorem 1 ablation's baseline.
pub fn smoothness_violation(desc: &Description, t: &Trace, depth: usize) -> Option<(Trace, Trace)> {
    t.pre_pairs_up_to(depth)
        .find(|(u, v)| !tuple_leq(&desc.eval_lhs(v), &desc.eval_rhs(u)))
}

/// The superseded lasso depth heuristic `prefix + cycle·(8 + 2·Σ size)`;
/// finite traces return their length. It is *not* a certificate (see the
/// module doc's counterexample), and no verdict path calls it. It stays
/// only because the frozen `eqpbench/src/denot.rs` imports it for its
/// traced `core.certificate_depth`/`core.pre_pairs` layers; the next
/// change to that harness drops it.
pub fn default_certificate_depth(desc: &Description, t: &Trace) -> usize {
    match t.len() {
        Length::Finite(n) => n,
        Length::Infinite => {
            let prefix = t.as_lasso().prefix().len();
            let cycle = t.as_lasso().cycle().len().max(1);
            let size: usize = desc
                .lhs()
                .iter()
                .chain(desc.rhs())
                .map(eqp_seqfn::SeqExpr::size)
                .sum();
            prefix + cycle * (8 + 2 * size)
        }
    }
}

/// Full smooth-solution check at an explicit smoothness depth: limit
/// condition (exact) plus smoothness out to `depth`.
pub fn is_smooth_at_depth(desc: &Description, t: &Trace, depth: usize) -> bool {
    limit_holds(desc, t) && smoothness_holds(desc, t, depth)
}

/// Smooth-solution check: the limit holds and [`smoothness`] proves the
/// smoothness condition — exact on finite traces, and an
/// [`Smoothness::Unproven`] lasso is `false`.
pub fn is_smooth(desc: &Description, t: &Trace) -> bool {
    limit_holds(desc, t) && smoothness(desc, t) == Smoothness::Smooth
}

/// **Theorem 1** check for *independent* descriptions: `t` is smooth iff
/// `f(t) = g(t)` and `f(s) ⊑ g(s)` for every finite prefix `s` (no
/// staggered pairs needed).
///
/// # Panics
///
/// Panics if the description is not independent — the equivalence only
/// holds under Theorem 1's premise (call
/// [`Description::is_independent`] first).
pub fn is_smooth_independent(desc: &Description, t: &Trace, depth: usize) -> bool {
    assert!(
        desc.is_independent(),
        "Theorem 1 requires independent sides (description `{}`)",
        desc.name()
    );
    limit_holds(desc, t)
        && t.prefixes_up_to(depth)
            .all(|s| tuple_leq(&desc.eval_lhs(&s), &desc.eval_rhs(&s)))
}

/// **Lemma 2**: if `t` is smooth then `f(v) ⊑ g(v)` for every finite
/// prefix `v`. Returns `true` when the consequent holds out to `depth`
/// (used by tests to validate the lemma on concrete smooth solutions).
pub fn lemma2_consequent(desc: &Description, t: &Trace, depth: usize) -> bool {
    t.prefixes_up_to(depth)
        .all(|v| tuple_leq(&desc.eval_lhs(&v), &desc.eval_rhs(&v)))
}

/// The verdict of [`smoothness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Smoothness {
    /// Every `u pre v` pair satisfies `f(v) ⊑ g(u)`; on a lasso, proved by
    /// a repeated state in every component equation.
    Smooth,
    /// The first failing pair in trace order, lowest component first —
    /// the pair [`smoothness_violation`] finds first — with both values.
    Violation(SmoothnessViolation),
    /// No pair with `|v| ≤ events` fails, and there is no proof: some
    /// equation's state did not repeat within the cycle budget, or has no
    /// key.
    Unproven {
        /// How many pairs were checked.
        events: usize,
    },
}

/// Cycle boundaries the lasso walk keys before it gives up on a proof.
const CYCLE_BUDGET: usize = 1 << 12;

/// Decides the smoothness condition exactly: by walking every pair of a
/// finite trace, and on a lasso by walking until each equation's keyed
/// state repeats at a cycle boundary (see the module doc). Linear in the
/// events walked; a lasso whose equations all repeat at the first two
/// boundaries costs `|prefix| + |cycle|` steps.
pub fn smoothness(desc: &Description, t: &Trace) -> Smoothness {
    let (prefix, cycle) = (t.as_lasso().prefix(), t.as_lasso().cycle());
    let mut eqs: Vec<Equation> = desc
        .walk_sides()
        .iter()
        .map(|sides| Equation::new(sides, cycle))
        .collect();
    let mut events = 0;
    for &ev in prefix {
        if let Some(k) = step_all(&mut eqs, ev) {
            return violation(desc, t, events, k);
        }
        events += 1;
    }
    if cycle.is_empty() {
        return Smoothness::Smooth;
    }
    let mut key = Vec::new();
    for round in 0..=CYCLE_BUDGET {
        let (mut open, mut opaque) = (false, false);
        for (k, eq) in eqs.iter_mut().enumerate().filter(|(_, eq)| !eq.proved) {
            if round > 0 && eq.f_still {
                // f's value is final and checked; g(u) only grows.
                eq.proved = true;
                continue;
            }
            match eq.key(&mut key) {
                Some(mark) if eq.repeats(round, &key, mark, || component_limit(desc, t, k)) => {
                    eq.proved = true
                }
                Some(mark) if mark.full => open = true,
                _ => opaque = true,
            }
        }
        if !open && !opaque {
            return Smoothness::Smooth;
        }
        if (opaque && round > 0) || round == CYCLE_BUDGET {
            break;
        }
        for &ev in cycle {
            if let Some(k) = step_all(&mut eqs, ev) {
                return violation(desc, t, events, k);
            }
            events += 1;
        }
    }
    Smoothness::Unproven { events }
}

/// The limit condition `f_k(t) = g_k(t)` of component `k` alone.
fn component_limit(desc: &Description, t: &Trace, k: usize) -> bool {
    desc.lhs_compiled()[k].eval(t) == desc.rhs_compiled()[k].eval(t)
}

/// Steps every unproved equation over `ev`, returning the first whose
/// check fails.
fn step_all(eqs: &mut [Equation], ev: Event) -> Option<usize> {
    eqs.iter_mut()
        .enumerate()
        .filter(|(_, eq)| !eq.proved)
        .find_map(|(k, eq)| (!eq.step(ev)).then_some(k))
}

/// The witness for a failure of component `k` at the pair `|u| = n`.
fn violation(desc: &Description, t: &Trace, n: usize, k: usize) -> Smoothness {
    let (u, v) = (t.take(n), t.take(n + 1));
    Smoothness::Violation(SmoothnessViolation {
        component: k,
        lhs_v: desc.lhs()[k].eval(&v),
        rhs_u: desc.rhs()[k].eval(&u),
        u,
        v,
    })
}

/// An equation side as the walk starts it: the compiled evaluator at `ε`,
/// or an infinite constant's value. Built once per description, by its
/// first walk ([`Description::walk_sides`]), so a walk only clones the
/// evaluators it steps.
#[derive(Debug, Clone)]
pub(crate) enum StartSide {
    Eval(CompiledSideEval),
    Const(Seq),
}

impl StartSide {
    pub(crate) fn new(e: &CompiledExpr) -> StartSide {
        if e.is_const() {
            let c = e.eval(&Trace::empty());
            if c.is_infinite() {
                return StartSide::Const(c);
            }
        }
        StartSide::Eval(CompiledSideEval::new(e))
    }
}

/// One side of an equation as the walk drives it.
enum Side<'a> {
    /// A compiled evaluator: incremental, or re-evaluating when opaque.
    Eval(CompiledSideEval),
    /// An infinite constant (`trues`, `falses`, …): no machine, no state.
    Const(&'a Seq),
}

impl<'a> Side<'a> {
    fn start(s: &'a StartSide) -> Side<'a> {
        match s {
            StartSide::Eval(e) => Side::Eval(e.clone()),
            StartSide::Const(c) => Side::Const(c),
        }
    }
}

/// One component equation `f ⟸ g` on the walk.
struct Equation<'a> {
    f: Side<'a>,
    g: Side<'a>,
    /// `f` positions already matched (see [`step_check`]).
    verified: usize,
    /// `f` reads no channel of the cycle, so past the prefix its value is
    /// final.
    f_still: bool,
    /// Brent's cycle finding over boundary keys: the saved key and its
    /// mark, the boundaries since it was saved, and when it is next
    /// replaced.
    saved: Vec<u8>,
    mark: Mark,
    lam: usize,
    power: usize,
    /// The component's limit `f(t) = g(t)`, once computed.
    limit: Option<bool>,
    proved: bool,
}

impl<'a> Equation<'a> {
    fn new([f, g]: &'a [StartSide; 2], cycle: &[Event]) -> Equation<'a> {
        let f = Side::start(f);
        let f_still = match &f {
            Side::Const(_) => true,
            Side::Eval(e) => !cycle.iter().any(|ev| e.reads(ev.chan)),
        };
        Equation {
            f,
            g: Side::start(g),
            verified: 0,
            f_still,
            saved: Vec::new(),
            mark: Mark::default(),
            lam: 0,
            power: 1,
            limit: None,
            proved: false,
        }
    }

    /// Steps both sides over `ev` (from `u` into `v`) and checks
    /// `f(v) ⊑ g(u)`.
    fn step(&mut self, ev: Event) -> bool {
        let frozen = match &self.g {
            Side::Eval(g) => Some(g.freeze()),
            Side::Const(_) => None,
        };
        if let Side::Eval(f) = &mut self.f {
            f.step(ev);
        }
        if let Side::Eval(g) = &mut self.g {
            g.step(ev);
        }
        match (&self.f, &self.g) {
            (Side::Eval(f), Side::Eval(g)) => {
                let frozen = frozen.expect("an evaluator side is frozen");
                step_check(f, g, &frozen, &mut self.verified)
            }
            (Side::Eval(CompiledSideEval::Delta { out, .. }), Side::Const(c)) => {
                let ok = (self.verified..out.len()).all(|i| c.get(i) == Some(&out[i]));
                if ok {
                    self.verified = out.len();
                }
                ok
            }
            (Side::Eval(f), Side::Const(c)) => f.value().leq(c),
            (Side::Const(c), Side::Eval(g)) => {
                c.leq(&g.frozen_value(&frozen.expect("an evaluator side is frozen")))
            }
            (Side::Const(a), Side::Const(b)) => a.leq(b),
        }
    }

    /// Writes the equation's boundary key into `key`: `f`'s machine key,
    /// then `g`'s, then what `f` has yet to match. `None` when `f` has no
    /// key.
    fn key(&self, key: &mut Vec<u8>) -> Option<Mark> {
        key.clear();
        let Side::Eval(CompiledSideEval::Delta { state, out: fo }) = &self.f else {
            return None;
        };
        if !state.state_key(key) {
            return None;
        }
        let mut mark = Mark {
            f_key: key.len(),
            f_len: fo.len(),
            ..Mark::default()
        };
        match &self.g {
            Side::Eval(CompiledSideEval::Delta { state, out: go }) => {
                // `|f| ≤ |g|` after every passed check; only the unchecked
                // start can break it, and then the first check fails.
                let Some(surplus) = go.get(mark.f_len..) else {
                    return Some(mark);
                };
                mark.full = state.state_key(key);
                mark.machines = key.len();
                mark.surplus = surplus.len();
                key_seq(surplus, key);
            }
            Side::Const(c) => {
                // f's next match is at offset |f| into the constant, which
                // repeats with the constant's cycle.
                let p = c.prefix().len();
                let at = match mark.f_len.checked_sub(p) {
                    Some(past) => p + past % c.cycle().len(),
                    None => mark.f_len,
                };
                mark.full = true;
                mark.machines = key.len();
                key.extend_from_slice(&(at as u64).to_le_bytes());
            }
            Side::Eval(CompiledSideEval::Opaque { .. }) => {}
        }
        Some(mark)
    }

    /// Records the key of boundary `round`; `true` iff it proves the
    /// equation against the saved key of an earlier boundary:
    ///
    /// * the whole key repeats;
    /// * `f`'s machine repeats without having grown, so `f` never grows
    ///   again and `g(u)` only does;
    /// * both machines repeat, the surplus has not shrunk, and the
    ///   component's limit `f(t) = g(t)` holds (`limit` computes it, at
    ///   most once). Then `f(v)` and `g(u)` are prefixes of one sequence,
    ///   so only lengths can fail, and every later round starts with at
    ///   least the surplus that carried this one.
    fn repeats(
        &mut self,
        round: usize,
        key: &[u8],
        mark: Mark,
        limit: impl FnOnce() -> bool,
    ) -> bool {
        if round > 0 {
            let old = self.mark;
            let both = mark.full && old.full;
            let f_dead = mark.f_len == old.f_len && key[..mark.f_key] == self.saved[..old.f_key];
            // the limit is evaluated last, and only for a race
            if f_dead
                || (both && key == self.saved)
                || (both
                    && mark.surplus >= old.surplus
                    && key[..mark.machines] == self.saved[..old.machines]
                    && *self.limit.get_or_insert_with(limit))
            {
                return true;
            }
            self.lam += 1;
            if self.lam < self.power {
                return false;
            }
            self.power *= 2;
            self.lam = 0;
        }
        self.saved.clear();
        self.saved.extend_from_slice(key);
        self.mark = mark;
        false
    }
}

/// The layout of a boundary key and the lengths behind it.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    /// Where `f`'s machine key ends.
    f_key: usize,
    /// Where `g`'s machine key ends.
    machines: usize,
    /// `|f|` at the boundary.
    f_len: usize,
    /// `|g| - |f|` at the boundary (0 against a constant).
    surplus: usize,
    /// Whether the key covers `g` too.
    full: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::Description;
    use eqp_seqfn::paper::{
        ch, count_ticks, even, odd, prepend_int, true_filter, trues, twice, twice_plus_one,
    };
    use eqp_seqfn::SeqExpr;
    use eqp_trace::{Chan, Event, Trace, Value};

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

    /// Section 2.3's network description:
    /// even(d) ⟸ 0; 2×d  ,  odd(d) ⟸ 2×d + 1
    fn section23() -> Description {
        Description::new("sec2.3")
            .equation(even(ch(d())), prepend_int(0, twice(ch(d()))))
            .equation(odd(ch(d())), twice_plus_one(ch(d())))
    }

    /// The block sequence B_0 B_1 … B_k as d-events: B_i = 0..2^i - 1.
    fn x_blocks(k: u32) -> Trace {
        let mut ev = Vec::new();
        for i in 0..=k {
            for n in 0..(1i64 << i) {
                ev.push(Event::int(d(), n));
            }
        }
        Trace::finite(ev)
    }

    #[test]
    fn dfm_quiescent_traces_are_smooth() {
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]);
        assert!(is_smooth(&dfm(), &t));
        // Section 3.1.1's longer example:
        // (b,0)(c,1)(c,3)(d,1)(d,3)(d,0)
        let t2 = Trace::finite(vec![
            Event::int(b(), 0),
            Event::int(c(), 1),
            Event::int(c(), 3),
            Event::int(d(), 1),
            Event::int(d(), 3),
            Event::int(d(), 0),
        ]);
        assert!(is_smooth(&dfm(), &t2));
        assert!(is_smooth(&dfm(), &Trace::empty()));
    }

    #[test]
    fn dfm_nonquiescent_histories_are_not_smooth() {
        let t = Trace::finite(vec![Event::int(b(), 0)]);
        assert!(!is_smooth(&dfm(), &t));
        let t2 = Trace::finite(vec![
            Event::int(b(), 0),
            Event::int(d(), 0),
            Event::int(c(), 1),
        ]);
        assert!(!is_smooth(&dfm(), &t2));
    }

    #[test]
    fn dfm_output_before_input_violates_smoothness() {
        // (d,0)(b,0): limit holds (even(d)=⟨0⟩=b) but output 0 precedes
        // the input that justifies it → smoothness fails.
        let t = Trace::finite(vec![Event::int(d(), 0), Event::int(b(), 0)]);
        assert!(limit_holds(&dfm(), &t));
        assert!(!smoothness_holds(&dfm(), &t, 10));
        let (u, v) = smoothness_violation(&dfm(), &t, 10).unwrap();
        assert_eq!(u, Trace::empty());
        assert_eq!(v, t.take(1));
    }

    #[test]
    fn theorem1_agrees_with_general_check_on_dfm() {
        let candidates = [
            Trace::empty(),
            Trace::finite(vec![Event::int(b(), 0)]),
            Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]),
            Trace::finite(vec![Event::int(d(), 0), Event::int(b(), 0)]),
            Trace::finite(vec![Event::int(c(), 1), Event::int(d(), 1)]),
        ];
        for t in &candidates {
            assert_eq!(
                is_smooth(&dfm(), t),
                is_smooth_independent(&dfm(), t, 10),
                "Theorem 1 disagreement on {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "independent")]
    fn theorem1_rejects_dependent_description() {
        let t = Trace::empty();
        let _ = is_smooth_independent(&section23(), &t, 5);
    }

    #[test]
    fn section23_x_prefix_is_on_smooth_path() {
        // Finite prefixes of the solution x are not themselves solutions
        // (limit fails — the network owes more output) but they satisfy
        // the smoothness condition along the way.
        let t = x_blocks(3);
        assert!(smoothness_holds(&section23(), &t, 64));
        assert!(!limit_holds(&section23(), &t));
    }

    #[test]
    fn section23_z_violates_smoothness_immediately() {
        // z starts with -1: odd(⟨-1⟩) = ⟨-1⟩ ⋢ 2×ε + 1 = ε.
        let z = Trace::finite(vec![Event::int(d(), -1), Event::int(d(), 0)]);
        let (u, v) = smoothness_violation(&section23(), &z, 8).unwrap();
        assert_eq!(u, Trace::empty());
        assert_eq!(v, z.take(1));
    }

    #[test]
    fn lemma2_holds_on_smooth_solution() {
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]);
        assert!(is_smooth(&dfm(), &t));
        assert!(lemma2_consequent(&dfm(), &t, 10));
    }

    #[test]
    fn ticks_infinite_solution_is_smooth() {
        // b ⟸ T; b : unique smooth solution (b,T)^ω (Section 4.2).
        let ticks = Description::new("ticks").defines(b(), SeqExpr::concat([Value::tt()], ch(b())));
        let w = Trace::lasso([], [Event::bit(b(), true)]);
        assert!(is_smooth(&ticks, &w));
        // ε is NOT smooth: limit fails (ε ≠ T; ε).
        assert!(!is_smooth(&ticks, &Trace::empty()));
        // finite tick bursts fail the limit too
        assert!(!is_smooth(&ticks, &w.take(3)));
    }

    #[test]
    fn certificate_depth_scales_with_cycle() {
        let ticks = Description::new("ticks").defines(b(), SeqExpr::concat([Value::tt()], ch(b())));
        let w = Trace::lasso([], [Event::bit(b(), true)]);
        let depth = default_certificate_depth(&ticks, &w);
        assert!(depth >= 8);
        let f = Trace::finite(vec![Event::bit(b(), true)]);
        assert_eq!(default_certificate_depth(&ticks, &f), 1);
    }

    /// The witness `smoothness` gives, checked against the first pair the
    /// explicit-depth oracle finds; returns `|v|`.
    fn exact_witness(desc: &Description, t: &Trace, deep: usize) -> usize {
        assert!(limit_holds(desc, t), "the limit holds on {t}");
        assert!(!is_smooth(desc, t), "{t} is not smooth");
        let Smoothness::Violation(w) = smoothness(desc, t) else {
            panic!("expected a violation on {t}");
        };
        let (u, v) = smoothness_violation(desc, t, deep).expect("the oracle finds it");
        assert_eq!((&w.u, &w.v), (&u, &v));
        assert!(!w.lhs_v.leq(&w.rhs_u));
        v.len().as_finite().unwrap()
    }

    /// Pins the blind spot of the old size-scaled depth for skip counts:
    /// `Skip(k, c) ⟸ Skip(k, d)` over `(c:0 d:0)^ω` first fails at
    /// `u = (cd)^k`, `v = u·c`, while the old depth was 32 for every `k`.
    #[test]
    fn skip_constant_beyond_old_certificate_depth_is_not_smooth() {
        for k in [3usize, 20, 100] {
            let desc = Description::new("skip-k")
                .equation(SeqExpr::skip(k, ch(c())), SeqExpr::skip(k, ch(d())));
            let t = Trace::lasso([], [Event::int(c(), 0), Event::int(d(), 0)]);
            assert_eq!(exact_witness(&desc, &t, 4 * k + 10), 2 * k + 1, "k = {k}");
        }
    }

    /// The same blind spot for `EmitFirstAfter::need`: with `need = 20`
    /// on both sides over `(c:0 d:0)^ω`, `f` fires at the 20th `c`, one
    /// event before `g` — `|v| = 39`, past the old depth of 32.
    #[test]
    fn emit_first_after_need_beyond_old_certificate_depth_is_not_smooth() {
        let emit = |e| SeqExpr::EmitFirstAfter {
            need: 20,
            add: 0,
            input: Box::new(e),
        };
        let desc = Description::new("emit-20").equation(emit(ch(c())), emit(ch(d())));
        let t = Trace::lasso([], [Event::int(c(), 0), Event::int(d(), 0)]);
        assert_eq!(exact_witness(&desc, &t, 100), 39);
    }

    /// The same blind spot for a `Concat` front: `c ⟸ 0^20; d` over
    /// `(c:0 c:0 d:0)^ω`. `f` gains two values a round and `g` one, so
    /// the 20-value head start runs out at `|v| = 59`, past the old depth
    /// of 42.
    #[test]
    fn concat_front_beyond_old_certificate_depth_is_not_smooth() {
        let desc = Description::new("front-20")
            .equation(ch(c()), SeqExpr::concat([Value::Int(0); 20], ch(d())));
        let t = Trace::lasso(
            [],
            [Event::int(c(), 0), Event::int(c(), 0), Event::int(d(), 0)],
        );
        assert_eq!(exact_witness(&desc, &t, 200), 59);
    }

    /// A tick counter on an all-`T` cycle counts without bound, so its
    /// state never repeats: the documented `Unproven` outcome, never a
    /// silent pass.
    #[test]
    fn count_ticks_on_all_true_cycle_is_unproven() {
        let desc = Description::new("count").equation(count_ticks(ch(b())), SeqExpr::epsilon());
        let t = Trace::lasso([], [Event::bit(b(), true)]);
        assert!(limit_holds(&desc, &t));
        assert_eq!(
            smoothness(&desc, &t),
            Smoothness::Unproven {
                events: CYCLE_BUDGET
            }
        );
        assert!(!is_smooth(&desc, &t));
        // once an F ends the count the counter is dead and the lasso proves
        let stopped = Trace::lasso([Event::bit(b(), false)], [Event::bit(b(), true)]);
        let desc =
            Description::new("count").equation(count_ticks(ch(b())), SeqExpr::const_ints([0]));
        assert_eq!(smoothness(&desc, &stopped), Smoothness::Smooth);
    }

    #[test]
    fn dfm_lassos_prove_in_one_cycle_or_convict() {
        let cycle = [
            Event::int(b(), 0),
            Event::int(d(), 0),
            Event::int(c(), 1),
            Event::int(d(), 1),
        ];
        let t = Trace::lasso([], cycle);
        assert_eq!(smoothness(&dfm(), &t), Smoothness::Smooth);
        assert!(is_smooth(&dfm(), &t));
        let mut early = cycle;
        early.swap(0, 1);
        let t = Trace::lasso([], early);
        let Smoothness::Violation(w) = smoothness(&dfm(), &t) else {
            panic!("an echo before its input is not smooth");
        };
        assert_eq!((w.component, w.u, w.v), (0, Trace::empty(), t.take(1)));
    }

    /// A copy that lags its source: `g`'s surplus grows every round, so
    /// the key never repeats, but under the limit only the length race
    /// is left and it is won for good.
    #[test]
    fn lagging_copy_is_proved_by_the_length_race() {
        let copy = Description::new("copy").equation(ch(c()), ch(d()));
        let lag = |x| {
            Trace::lasso(
                [],
                [Event::int(d(), 0), Event::int(c(), 0), Event::int(d(), x)],
            )
        };
        assert_eq!(smoothness(&copy, &lag(0)), Smoothness::Smooth);
        assert!(is_smooth(&copy, &lag(0)));
        // d:1 makes the limit fail, and the second c meets it
        let Smoothness::Violation(w) = smoothness(&copy, &lag(1)) else {
            panic!("c:0 cannot copy d:1");
        };
        assert_eq!(w.v, lag(1).take(5));
    }

    #[test]
    fn infinite_constant_sides_key_by_offset() {
        // TRUE(b) ⟸ trues: fair and unfair bit lassos.
        let desc = Description::new("true").equation(true_filter(ch(b())), trues());
        let fair = Trace::lasso([], [Event::bit(b(), true), Event::bit(b(), false)]);
        assert_eq!(smoothness(&desc, &fair), Smoothness::Smooth);
        assert!(is_smooth(&desc, &fair));
        // f's offset into a constant with a longer cycle is part of the
        // state: b:0 matches (0 1)^ω once, then fails
        let alternating =
            SeqExpr::constant(eqp_trace::Lasso::repeat([Value::Int(0), Value::Int(1)]));
        let desc = Description::new("alt").equation(ch(b()), alternating);
        let zeros = Trace::lasso([], [Event::int(b(), 0)]);
        let Smoothness::Violation(w) = smoothness(&desc, &zeros) else {
            panic!("⟨0 0⟩ is no prefix of (0 1)^ω");
        };
        assert_eq!(w.v, zeros.take(2));
        let both = Trace::lasso([], [Event::int(b(), 0), Event::int(b(), 1)]);
        assert_eq!(smoothness(&desc, &both), Smoothness::Smooth);
        // a constant on the left can never be justified by finite input
        let desc = Description::new("rev").equation(trues(), true_filter(ch(b())));
        assert!(matches!(smoothness(&desc, &fair), Smoothness::Violation(_)));
    }

    #[test]
    fn finite_traces_decide_exactly() {
        let t = Trace::finite(vec![Event::int(d(), 0), Event::int(b(), 0)]);
        let Smoothness::Violation(w) = smoothness(&dfm(), &t) else {
            panic!("(d,0)(b,0) is not smooth");
        };
        assert_eq!(w.v, t.take(1));
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]);
        assert_eq!(smoothness(&dfm(), &t), Smoothness::Smooth);
    }

    #[test]
    fn chaos_every_trace_smooth() {
        // K ⟸ K with K = ⟨⟩: every trace over any alphabet is smooth
        // (Section 4.1).
        let chaos = Description::new("chaos").equation(SeqExpr::epsilon(), SeqExpr::epsilon());
        for t in [
            Trace::empty(),
            Trace::finite(vec![Event::int(b(), 3)]),
            Trace::lasso([], [Event::int(b(), 1), Event::int(b(), 2)]),
        ] {
            assert!(is_smooth(&chaos, &t));
        }
    }
}
