//! The operational ⇄ denotational conformance bridge.
//!
//! The paper's Theorems 2 and 4 say that the quiescent traces of a
//! network are exactly the smooth solutions of its description `f ⟸ g`,
//! and that every finite computation is a smooth *prefix* on the way to
//! one. This module makes that claim executable: feed any run result and
//! the network's [`Description`] to [`check`], and the trace is projected
//! onto the description's channels and pushed through
//! [`eqp_core::diagnose`], which decides smoothness in one linear walk
//! over the trace ([`eqp_core::smooth::smoothness`]: each `u pre v` pair
//! is checked as the walk passes it, amortized O(1) per event):
//!
//! * a **quiescent** run must satisfy both the smoothness condition
//!   (every step's output justified by prior input: `f(v) ⊑ g(u)` for
//!   all `u pre v`) *and* the limit condition `f(t) = g(t)` — verdict
//!   [`Verdict::SmoothSolution`];
//! * a run cut by the step bound must satisfy smoothness but is excused
//!   from the limit — verdict [`Verdict::SmoothPrefix`];
//! * anything else is a violation with the failing component equation
//!   named — the bridge is exactly how the fault injection tests
//!   ([`crate::faults`]) detect dropped or duplicated messages.

use crate::network::RunResult;
use crate::report::RunReport;
use eqp_core::diagnose::{diagnose, Outcome, SmoothReport};
use eqp_core::Description;
use eqp_trace::{ChanSet, Trace};
use std::fmt;

/// Options for a conformance check.
#[derive(Debug, Clone, Default)]
pub struct ConformanceOptions {
    /// Project the trace onto these channels before checking; `None`
    /// projects onto the description's own channels (the common case —
    /// auxiliary wiring channels are invisible to the description).
    pub visible: Option<ChanSet>,
}

/// Outcome of checking one run against one description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Quiescent and both smooth-solution conditions hold: the trace *is*
    /// a smooth solution (Theorem 2's forward direction, observed).
    SmoothSolution,
    /// The run was cut by the step bound; the trace satisfies smoothness,
    /// so it lies on the way to a smooth solution (Theorem 4).
    SmoothPrefix,
    /// Some step emitted output its inputs did not justify: `f(v) ⋢ g(u)`
    /// in the named component equation.
    SmoothnessViolation {
        /// Index of the violating component equation.
        component: usize,
    },
    /// The run quiesced but the limit condition `f(t) = g(t)` fails in
    /// the named component equations — messages went missing or appeared
    /// from nowhere (drops, duplicates, crashes).
    LimitViolation {
        /// Indices of the failing component equations.
        components: Vec<usize>,
    },
    /// A reliable link ([`crate::reliable`]) exhausted its retry budget
    /// and the run degraded: it terminated cleanly and the delivered
    /// history is still smooth, but the abandoned tail means the trace is
    /// a *prefix*, not a complete solution. Named after the exhausted
    /// link so overload triage starts at the right channel.
    Degraded {
        /// Diagnostic name of the exhausted link (`arq@<chan>`).
        link: String,
    },
}

/// The result of a conformance check: the verdict plus the underlying
/// diagnostic report and enough context to display an actionable message.
#[derive(Debug, Clone)]
pub struct Conformance {
    /// The description's name.
    pub description: String,
    /// The verdict.
    pub verdict: Verdict,
    /// The full smooth-solution diagnostic underlying the verdict.
    pub report: SmoothReport,
    /// Whether the checked run was quiescent.
    pub quiescent: bool,
    /// The projected trace that was actually checked.
    pub checked: Trace,
    /// Rendered component equations, aligned with component indices.
    pub(crate) equations: Vec<String>,
}

impl Conformance {
    /// True iff the run conforms: a certified smooth solution, or a
    /// certified smooth prefix of one.
    pub fn is_conformant(&self) -> bool {
        matches!(
            self.verdict,
            Verdict::SmoothSolution | Verdict::SmoothPrefix
        )
    }

    /// True iff the run is a certified *complete* smooth solution.
    pub fn is_solution(&self) -> bool {
        self.verdict == Verdict::SmoothSolution
    }

    /// The first failing component equation's index, if any.
    pub fn failing_component(&self) -> Option<usize> {
        match &self.verdict {
            Verdict::SmoothnessViolation { component } => Some(*component),
            Verdict::LimitViolation { components } => components.first().copied(),
            _ => None,
        }
    }

    /// The rendered `f_k ⟸ g_k` text of component `k`.
    pub fn component_equation(&self, k: usize) -> Option<&str> {
        self.equations.get(k).map(String::as_str)
    }
}

impl fmt::Display for Conformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.verdict {
            Verdict::SmoothSolution => write!(
                f,
                "conformance(`{}`): certified smooth solution (quiescent trace {})",
                self.description, self.checked
            ),
            Verdict::SmoothPrefix => write!(
                f,
                "conformance(`{}`): certified smooth prefix (step bound hit before quiescence; trace {})",
                self.description, self.checked
            ),
            Verdict::SmoothnessViolation { component } => {
                writeln!(
                    f,
                    "conformance(`{}`): SMOOTHNESS VIOLATION in component {} (`{}`)",
                    self.description,
                    component,
                    self.equations
                        .get(*component)
                        .map_or("?", String::as_str)
                )?;
                write!(f, "{}", self.report)
            }
            Verdict::LimitViolation { components } => {
                let named: Vec<String> = components
                    .iter()
                    .map(|k| {
                        format!(
                            "{} (`{}`)",
                            k,
                            self.equations.get(*k).map_or("?", String::as_str)
                        )
                    })
                    .collect();
                writeln!(
                    f,
                    "conformance(`{}`): LIMIT VIOLATION at quiescence in component(s) {}",
                    self.description,
                    named.join(", ")
                )?;
                write!(f, "{}", self.report)
            }
            Verdict::Degraded { link } => write!(
                f,
                "conformance(`{}`): DEGRADED — reliable link `{}` exhausted its retry \
                 budget; the delivered history is a certified smooth prefix (trace {})",
                self.description, link, self.checked
            ),
        }
    }
}

/// Derives the verdict from a diagnostic report and the quiescence flag —
/// the single derivation shared by the post-hoc checkers and the online
/// [`SmoothnessMonitor`](crate::monitor::SmoothnessMonitor), so the two
/// paths agree by construction.
pub(crate) fn verdict_from_report(report: &SmoothReport, quiescent: bool) -> Verdict {
    if let Some(v) = &report.violation {
        return Verdict::SmoothnessViolation {
            component: v.component,
        };
    }
    if quiescent {
        let failing: Vec<usize> = report
            .limits
            .iter()
            .filter(|l| !l.holds)
            .map(|l| l.component)
            .collect();
        if failing.is_empty() {
            Verdict::SmoothSolution
        } else {
            Verdict::LimitViolation {
                components: failing,
            }
        }
    } else {
        Verdict::SmoothPrefix
    }
}

/// Renders the component equations `f_k ⟸ g_k`, aligned with component
/// indices — shared with the online monitor.
pub(crate) fn render_equations(desc: &Description) -> Vec<String> {
    desc.equations_rendered().to_vec()
}

/// Checks a raw trace (with its quiescence flag) against a description.
///
/// The trace is projected onto `opts.visible` (default: the
/// description's channels) and diagnosed in one linear walk
/// ([`diagnose`]): smoothness through every prefix pair — on a lasso,
/// until a repeated state proves the rest — and, for quiescent runs, the
/// limit condition. An unproven lasso is at best a
/// [`Verdict::SmoothPrefix`], never a solution; a failing limit at
/// quiescence still convicts.
///
/// Fast path: when no explicit `visible` set is given and every channel
/// the trace carries is already one of the description's, the projection
/// is the identity and the clone-per-event rebuild is skipped.
pub fn check_trace(
    desc: &Description,
    trace: &Trace,
    quiescent: bool,
    opts: &ConformanceOptions,
) -> Conformance {
    let keep = opts.visible.clone().unwrap_or_else(|| desc.channels());
    let projected = if opts.visible.is_none() && trace.channels().is_subset(&keep) {
        None
    } else {
        Some(trace.project(&keep))
    };
    let t = projected.as_ref().unwrap_or(trace);
    let report = diagnose(desc, t);
    let verdict = match verdict_from_report(&report, quiescent) {
        // a lasso whose smoothness is not proved is at most a prefix
        Verdict::SmoothSolution if matches!(report.outcome, Outcome::Unproven { .. }) => {
            Verdict::SmoothPrefix
        }
        verdict => verdict,
    };
    Conformance {
        description: desc.name().to_owned(),
        verdict,
        report,
        quiescent,
        checked: projected.unwrap_or_else(|| trace.clone()),
        equations: render_equations(desc),
    }
}

/// Checks a [`RunResult`] against a description.
pub fn check(desc: &Description, run: &RunResult, opts: &ConformanceOptions) -> Conformance {
    check_trace(desc, &run.trace, run.quiescent, opts)
}

/// Checks a telemetry [`RunReport`] against a description.
///
/// Status-aware: a run that ended in
/// [`RunStatus::ReliabilityExhausted`](crate::RunStatus) terminated
/// cleanly but abandoned an undelivered tail, so its history is checked
/// as a *prefix* (not against the limit condition) and a passing check is
/// reported as [`Verdict::Degraded`] naming the exhausted link — smooth
/// violations still convict as usual.
pub fn check_report(desc: &Description, run: &RunReport, opts: &ConformanceOptions) -> Conformance {
    if let crate::report::RunStatus::ReliabilityExhausted { link } = &run.status {
        let mut conf = check_trace(desc, &run.trace, false, opts);
        if conf.verdict == Verdict::SmoothPrefix {
            conf.verdict = Verdict::Degraded { link: link.clone() };
        }
        return conf;
    }
    check_trace(desc, &run.trace, run.quiescent, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_seqfn::paper::{ch, even, odd};
    use eqp_trace::{Chan, Event};

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

    fn good_trace() -> Trace {
        Trace::finite(vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
            Event::int(d(), 21),
        ])
    }

    #[test]
    fn quiescent_solution_certified() {
        let conf = check_trace(&dfm(), &good_trace(), true, &ConformanceOptions::default());
        assert_eq!(conf.verdict, Verdict::SmoothSolution);
        assert!(conf.is_conformant() && conf.is_solution());
        assert!(conf.to_string().contains("certified smooth solution"));
    }

    #[test]
    fn cut_run_certified_as_prefix() {
        let t = Trace::finite(vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
        ]);
        let conf = check_trace(&dfm(), &t, false, &ConformanceOptions::default());
        assert_eq!(conf.verdict, Verdict::SmoothPrefix);
        assert!(conf.is_conformant() && !conf.is_solution());
    }

    #[test]
    fn missing_output_is_limit_violation_with_named_component() {
        // quiescent but d never echoed c's message: odd-equation limit fails
        let t = Trace::finite(vec![
            Event::int(b(), 10),
            Event::int(c(), 21),
            Event::int(d(), 10),
        ]);
        let conf = check_trace(&dfm(), &t, true, &ConformanceOptions::default());
        assert_eq!(
            conf.verdict,
            Verdict::LimitViolation {
                components: vec![1]
            }
        );
        assert_eq!(conf.failing_component(), Some(1));
        let shown = conf.to_string();
        assert!(shown.contains("LIMIT VIOLATION"));
        assert!(shown.contains("odd"), "names the failing equation: {shown}");
    }

    #[test]
    fn unjustified_output_is_smoothness_violation() {
        // d speaks before any input justified it
        let t = Trace::finite(vec![Event::int(d(), 10), Event::int(b(), 10)]);
        let conf = check_trace(&dfm(), &t, false, &ConformanceOptions::default());
        assert!(matches!(
            conf.verdict,
            Verdict::SmoothnessViolation { component: 0 }
        ));
        assert!(!conf.is_conformant());
        assert!(conf.to_string().contains("SMOOTHNESS VIOLATION"));
    }

    #[test]
    fn lasso_traces_are_decided_exactly() {
        let opts = ConformanceOptions::default();
        let echo = [
            Event::int(b(), 10),
            Event::int(d(), 10),
            Event::int(c(), 21),
            Event::int(d(), 21),
        ];
        let conf = check_trace(&dfm(), &Trace::lasso([], echo), true, &opts);
        assert_eq!(conf.verdict, Verdict::SmoothSolution);
        assert!(conf.report.to_string().contains("(every depth)"));
        let mut early = echo;
        early.swap(0, 1);
        let conf = check_trace(&dfm(), &Trace::lasso([], early), true, &opts);
        assert_eq!(conf.verdict, Verdict::SmoothnessViolation { component: 0 });
        assert_eq!(conf.report.depth, 1);
        // a skip constant past the old heuristic depth still convicts
        let skip = Description::new("skip").equation(
            eqp_seqfn::SeqExpr::skip(20, ch(b())),
            eqp_seqfn::SeqExpr::skip(20, ch(c())),
        );
        let t = Trace::lasso([], [Event::int(b(), 0), Event::int(c(), 0)]);
        let conf = check_trace(&skip, &t, true, &opts);
        assert_eq!(conf.verdict, Verdict::SmoothnessViolation { component: 0 });
        assert_eq!(conf.report.depth, 41);
        // an unbounded tick count is never proved: a prefix, not a solution
        let count = Description::new("count").equation(
            eqp_seqfn::paper::count_ticks(ch(b())),
            eqp_seqfn::SeqExpr::epsilon(),
        );
        let ticks = Trace::lasso([], [Event::bit(b(), true)]);
        let conf = check_trace(&count, &ticks, true, &opts);
        assert_eq!(conf.verdict, Verdict::SmoothPrefix);
        assert!(conf.report.limits.iter().all(|l| l.holds));
    }

    #[test]
    fn projection_hides_auxiliary_channels() {
        // an extra wiring channel outside the description must not affect
        // the verdict
        let mut events = good_trace().events().unwrap().to_vec();
        events.insert(1, Event::int(Chan::new(99), 7));
        let t = Trace::finite(events);
        let conf = check_trace(&dfm(), &t, true, &ConformanceOptions::default());
        assert_eq!(conf.verdict, Verdict::SmoothSolution);
    }
}
