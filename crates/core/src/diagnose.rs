//! Diagnostics: *why* is a trace not a smooth solution?
//!
//! The predicates in [`crate::smooth`] answer yes/no; this module produces
//! a structured, displayable report naming the failing component equation,
//! the offending prefix pair, and the values of both sides — the error
//! message a user debugging a description actually needs.

use crate::description::Description;
use crate::smooth::{smoothness, Smoothness};
use eqp_trace::{Seq, Trace};
use std::fmt;

/// Verdict for one component equation's limit condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitVerdict {
    /// Index of the component equation.
    pub component: usize,
    /// `f_k(t)`.
    pub lhs: Seq,
    /// `g_k(t)`.
    pub rhs: Seq,
    /// Whether they are equal.
    pub holds: bool,
}

/// A smoothness violation: the first failing `(u, v)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmoothnessViolation {
    /// Index of the violating component equation.
    pub component: usize,
    /// The shorter prefix `u`.
    pub u: Trace,
    /// The one-step extension `v`.
    pub v: Trace,
    /// `f_k(v)` — the output that lacks justification.
    pub lhs_v: Seq,
    /// `g_k(u)` — what the inputs so far justify.
    pub rhs_u: Seq,
}

/// What the smoothness walk established about a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every `u pre v` pair satisfies `f(v) ⊑ g(u)`: all of them checked
    /// on a finite trace, the rest proved by a repeated state on a lasso.
    Proved,
    /// A pair fails; [`SmoothReport::violation`] holds the first.
    Violated,
    /// No pair with `|v| ≤ pairs` fails, and nothing proves the rest.
    Unproven {
        /// How many pairs were checked.
        pairs: usize,
    },
}

/// A full report on a candidate trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmoothReport {
    /// The description's name.
    pub description: String,
    /// Per-component limit verdicts.
    pub limits: Vec<LimitVerdict>,
    /// First smoothness violation, if any (within the checked depth).
    pub violation: Option<SmoothnessViolation>,
    /// What the smoothness walk established.
    pub outcome: Outcome,
    /// Depth to which smoothness was checked; `usize::MAX` when a lasso
    /// was proved smooth at every depth.
    pub depth: usize,
}

impl SmoothReport {
    /// True iff the trace is a smooth solution: every limit holds and
    /// smoothness is proved. An unproven lasso is not.
    pub fn is_smooth(&self) -> bool {
        self.limits.iter().all(|l| l.holds) && self.outcome == Outcome::Proved
    }
}

impl fmt::Display for SmoothReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.depth {
            usize::MAX => writeln!(
                f,
                "smooth-solution report for `{}` (every depth):",
                self.description
            )?,
            depth => writeln!(
                f,
                "smooth-solution report for `{}` (depth {depth}):",
                self.description
            )?,
        }
        for l in &self.limits {
            if l.holds {
                writeln!(f, "  limit[{}]: ok ({} = {})", l.component, l.lhs, l.rhs)?;
            } else {
                writeln!(
                    f,
                    "  limit[{}]: FAILS — lhs {} ≠ rhs {}",
                    l.component, l.lhs, l.rhs
                )?;
            }
        }
        match (&self.violation, self.outcome) {
            (None, Outcome::Unproven { pairs }) => {
                writeln!(f, "  smoothness: unproven after {pairs} pairs")
            }
            (None, _) => writeln!(f, "  smoothness: ok"),
            (Some(v), _) => writeln!(
                f,
                "  smoothness[{}]: FAILS at u = {}, v = {} — f(v) = {} ⋢ g(u) = {}\n  (the step into v outputs more than the inputs of u justify)",
                v.component, v.u, v.v, v.lhs_v, v.rhs_u
            ),
        }
    }
}

/// Builds the per-component limit verdicts `f_k(t) = g_k(t)` from
/// already-evaluated sides — shared between the post-hoc [`diagnose`]
/// sweep and the online monitor so both derive verdicts identically.
pub fn limit_verdicts(lhs: &[Seq], rhs: &[Seq]) -> Vec<LimitVerdict> {
    lhs.iter()
        .zip(rhs)
        .enumerate()
        .map(|(k, (l, r))| LimitVerdict {
            component: k,
            lhs: l.clone(),
            rhs: r.clone(),
            holds: l == r,
        })
        .collect()
}

/// Produces a full report for `t` against `desc`: the limit verdicts from
/// one evaluation of `t`, and the first smoothness violation from the
/// linear walk [`smoothness`].
///
/// Exact on finite traces and on every lasso the walk decides; the
/// report's [`Outcome`] says whether it decided. The report's depth is
/// `|t|` for a finite trace; on a lasso it is `usize::MAX` once smoothness
/// is proved, `|v|` of the witness on a violation, and the number of pairs
/// checked when the lasso is [`Smoothness::Unproven`] — then the report
/// holds only to that depth.
/// A bounded diagnosis is `diagnose(desc, &t.take(depth))`.
pub fn diagnose(desc: &Description, t: &Trace) -> SmoothReport {
    let (violation, outcome, lasso_depth) = match smoothness(desc, t) {
        Smoothness::Smooth => (None, Outcome::Proved, usize::MAX),
        Smoothness::Violation(v) => {
            let depth = v.v.len().as_finite().expect("a witness pair is finite");
            (Some(v), Outcome::Violated, depth)
        }
        Smoothness::Unproven { events } => (None, Outcome::Unproven { pairs: events }, events),
    };
    SmoothReport {
        description: desc.name().to_owned(),
        limits: limit_verdicts(&desc.eval_lhs(t), &desc.eval_rhs(t)),
        violation,
        outcome,
        depth: t.len().as_finite().unwrap_or(lasso_depth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_seqfn::paper::{ch, even, odd, prepend_int, twice, twice_plus_one};
    use eqp_trace::{Chan, Event};

    fn d() -> Chan {
        Chan::new(2)
    }

    fn sec23() -> Description {
        Description::new("sec23")
            .equation(even(ch(d())), prepend_int(0, twice(ch(d()))))
            .equation(odd(ch(d())), twice_plus_one(ch(d())))
    }

    #[test]
    fn report_on_z_names_the_violation() {
        let z = Trace::finite(vec![Event::int(d(), -1), Event::int(d(), 0)]);
        let r = diagnose(&sec23(), &z);
        assert!(!r.is_smooth());
        let v = r.violation.as_ref().expect("violation");
        assert_eq!(v.component, 1, "the odd-equation fails first");
        assert!(v.u.is_empty());
        let shown = r.to_string();
        assert!(shown.contains("smoothness[1]: FAILS"));
        assert!(shown.contains("⋢"));
    }

    #[test]
    fn report_on_limit_failure() {
        // a prefix of a solution: smooth along the way, limit open.
        let t = Trace::finite(vec![Event::int(d(), 0)]);
        let r = diagnose(&sec23(), &t);
        assert!(!r.is_smooth());
        assert!(r.violation.is_none());
        assert!(r.limits.iter().any(|l| !l.holds));
        assert!(r.to_string().contains("limit[0]: FAILS"));
    }

    #[test]
    fn unproven_lasso_is_not_smooth() {
        // A tick counter on an all-T cycle never repeats its state: the
        // walk checks every pair it reaches but proves nothing.
        let b = Chan::new(0);
        let desc = Description::new("ticks-counted").equation(
            eqp_seqfn::paper::count_ticks(ch(b)),
            eqp_seqfn::SeqExpr::epsilon(),
        );
        let t = Trace::lasso([], [Event::new(b, eqp_trace::Value::tt())]);
        let r = diagnose(&desc, &t);
        assert!(r.limits.iter().all(|l| l.holds), "{r}");
        assert!(r.violation.is_none());
        let Outcome::Unproven { pairs } = r.outcome else {
            panic!("expected an unproven lasso, got {:?}", r.outcome);
        };
        assert!(!r.is_smooth(), "an unproven lasso is not a smooth solution");
        assert!(!crate::smooth::is_smooth(&desc, &t));
        assert_eq!(r.depth, pairs);
        assert!(r
            .to_string()
            .contains(&format!("smoothness: unproven after {pairs} pairs")));
    }

    #[test]
    fn report_on_genuine_solution_is_clean() {
        // ⊥ is not a solution of sec23 (limit fails: even(ε)=ε vs 0;…).
        // use dfm's ε instead:
        let dfm = Description::new("dfm")
            .equation(even(ch(d())), ch(Chan::new(0)))
            .equation(odd(ch(d())), ch(Chan::new(1)));
        let r = diagnose(&dfm, &Trace::empty());
        assert!(r.is_smooth());
        assert!(r.to_string().contains("smoothness: ok"));
    }
}
