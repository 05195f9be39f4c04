//! The inspection surfaces — failure diagnosis, the materialized tree, and
//! verified infinite-solution synthesis — exercised end to end across the
//! zoo.

use eqp::core::diagnose::diagnose;
use eqp::core::enumerate::lasso_candidates;
use eqp::core::tree::SmoothTree;
use eqp::core::{enumerate, Alphabet, EnumOptions};
use eqp::processes::{brock_ackermann as ba, dfm, ticks};
use eqp::trace::{Event, Trace, Value};

/// The anomaly's diagnosis names the odd-equation and the exact pair.
#[test]
fn brock_ackermann_diagnosis_is_precise() {
    let desc = ba::eliminated_description();
    let report = diagnose(&desc, &ba::anomalous_trace());
    assert!(!report.is_smooth());
    // the limit holds for both components (it IS a solution)…
    assert!(report.limits.iter().all(|l| l.holds));
    // …and the violation is in component 1 (odd ⟸ f) at u = ⟨0⟩.
    let v = report.violation.as_ref().expect("violation");
    assert_eq!(v.component, 1);
    assert_eq!(v.u, ba::c_trace(&[0]));
    let text = report.to_string();
    assert!(text.contains("limit[0]: ok"));
    assert!(text.contains("smoothness[1]: FAILS"));
}

/// The genuine solution's diagnosis is entirely clean.
#[test]
fn genuine_solution_diagnosis_clean() {
    let report = diagnose(&ba::eliminated_description(), &ba::genuine_trace());
    assert!(report.is_smooth());
    assert!(report.to_string().contains("smoothness: ok"));
}

/// The Brock–Ackermann smooth tree is a single path — the paper's claim
/// "exactly one computation shape" made visual.
#[test]
fn brock_ackermann_tree_is_a_path() {
    let alpha = Alphabet::new().with_ints(ba::C, 0, 2);
    let tree = SmoothTree::build(&ba::eliminated_description(), &alpha, 4, 10_000);
    assert_eq!(tree.profile(), vec![1, 1, 1, 1]); // ⊥ → 0 → 0 2 → 0 2 1
    assert_eq!(tree.solutions().count(), 1);
    let dot = tree.to_dot("ba");
    assert_eq!(dot.matches("doublecircle").count(), 1);
}

/// The dfm tree branches; its DOT output stays well-formed at scale.
#[test]
fn dfm_tree_dot_wellformed() {
    let alpha = Alphabet::new()
        .with_chan(dfm::B, [Value::Int(0), Value::Int(2)])
        .with_chan(dfm::C, [Value::Int(1)])
        .with_ints(dfm::D, 0, 2);
    let tree = SmoothTree::build(&dfm::dfm_description(), &alpha, 3, 100_000);
    assert!(!tree.truncated());
    let dot = tree.to_dot("dfm");
    // every non-root node contributes exactly one edge
    assert_eq!(dot.matches("->").count(), tree.len() - 1);
}

/// Synthesis across the zoo: ticks yields its unique ω-solution; dfm
/// yields several periodic merges, all verified smooth; the (terminating)
/// Brock–Ackermann network yields none.
#[test]
fn lasso_synthesis_across_zoo() {
    // ticks
    let alpha = Alphabet::new().with_chan(ticks::B, [Value::tt()]);
    let e = enumerate(
        &ticks::description(),
        &alpha,
        EnumOptions {
            max_depth: 5,
            max_nodes: 1000,
        },
    );
    let found = lasso_candidates(&ticks::description(), &e.frontier, 3);
    assert_eq!(found, vec![ticks::omega_trace()]);

    // dfm: multiple periodic merges exist
    let alpha = Alphabet::new()
        .with_chan(dfm::B, [Value::Int(0)])
        .with_chan(dfm::C, [Value::Int(1)])
        .with_ints(dfm::D, 0, 1);
    let e = enumerate(
        &dfm::dfm_description(),
        &alpha,
        EnumOptions {
            max_depth: 4,
            max_nodes: 100_000,
        },
    );
    let found = lasso_candidates(&dfm::dfm_description(), &e.frontier, 4);
    assert!(!found.is_empty());
    assert!(found.contains(&Trace::lasso(
        [],
        [Event::int(dfm::B, 0), Event::int(dfm::D, 0)]
    )));

    // Brock–Ackermann: all computations terminate, no infinite solutions
    let alpha = Alphabet::new().with_ints(ba::C, 0, 2);
    let e = enumerate(
        &ba::eliminated_description(),
        &alpha,
        EnumOptions {
            max_depth: 4,
            max_nodes: 1000,
        },
    );
    assert!(e.frontier.is_empty());
    assert!(lasso_candidates(&ba::eliminated_description(), &e.frontier, 3).is_empty());
}
