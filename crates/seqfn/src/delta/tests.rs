use crate::compile::{step_check, CompiledSideEval};
use crate::paper::{ch, even, r_map};
use crate::{SeqExpr, ValuePred};
use eqp_trace::{Chan, Event, Lasso, Trace, Value};

fn b() -> Chan {
    Chan::new(0)
}
fn d() -> Chan {
    Chan::new(2)
}

/// Delta evaluation must agree with full evaluation on every prefix —
/// on both the allocating `step` and the in-place `step_into` the hot
/// loops use.
fn assert_delta_agrees(e: &SeqExpr, events: &[Event]) {
    let (mut st, mut acc) = e.compile().delta_init();
    let mut st2 = st.clone();
    let mut acc2 = acc.clone();
    assert_eq!(
        Lasso::finite(acc.clone()),
        e.eval(&Trace::empty()),
        "init mismatch for {e}"
    );
    let mut prefix = Vec::new();
    for &ev in events {
        prefix.push(ev);
        acc.extend(st.step(ev));
        st2.step_into(ev, &mut acc2);
        assert_eq!(
            Lasso::finite(acc.clone()),
            e.eval(&Trace::finite(prefix.clone())),
            "mismatch for {e} after {prefix:?}"
        );
        assert_eq!(acc2, acc, "step_into diverged for {e} after {prefix:?}");
    }
}

#[test]
fn chan_and_filters() {
    let evs = [
        Event::int(d(), 0),
        Event::int(b(), 7),
        Event::int(d(), 1),
        Event::int(d(), 2),
    ];
    assert_delta_agrees(&ch(d()), &evs);
    assert_delta_agrees(&even(ch(d())), &evs);
    assert_delta_agrees(&SeqExpr::affine(2, 1, ch(d())), &evs);
    assert_delta_agrees(&SeqExpr::concat([Value::Int(9)], ch(d())), &evs);
    assert_delta_agrees(&SeqExpr::skip(2, ch(d())), &evs);
}

#[test]
fn zip_and_select() {
    let evs = [
        Event::int(d(), 1),
        Event::int(b(), 10),
        Event::int(d(), 2),
        Event::bit(b(), true),
    ];
    assert_delta_agrees(&SeqExpr::add(ch(b()), ch(d())), &evs);
    let sel = SeqExpr::OracleSelect {
        data: Box::new(ch(d())),
        oracle: Box::new(ch(b())),
        keep: true,
    };
    let evs2 = [
        Event::int(d(), 1),
        Event::bit(b(), true),
        Event::int(d(), 2),
        Event::bit(b(), false),
        Event::int(d(), 3),
    ];
    assert_delta_agrees(&sel, &evs2);
}

#[test]
fn count_ticks_and_emit_first() {
    let count = SeqExpr::CountTicks(Box::new(ch(b())));
    let evs = [
        Event::bit(b(), true),
        Event::bit(b(), true),
        Event::bit(b(), false),
        Event::bit(b(), true),
    ];
    assert_delta_agrees(&count, &evs);

    let baf = SeqExpr::EmitFirstAfter {
        need: 2,
        add: 1,
        input: Box::new(ch(d())),
    };
    let evs2 = [Event::int(d(), 5), Event::int(b(), 0), Event::int(d(), 7)];
    assert_delta_agrees(&baf, &evs2);
    // need = 0 behaves like need = 1
    let baf0 = SeqExpr::EmitFirstAfter {
        need: 0,
        add: 3,
        input: Box::new(ch(d())),
    };
    assert_delta_agrees(&baf0, &evs2);
}

#[test]
fn r_map_and_takewhile() {
    let evs = [
        Event::bit(b(), false),
        Event::bit(b(), true),
        Event::bit(b(), false),
    ];
    assert_delta_agrees(&r_map(ch(b())), &evs);
    assert_delta_agrees(
        &SeqExpr::TakeWhile(ValuePred::IsTrue, Box::new(ch(b()))),
        &evs,
    );
}

#[test]
fn infinite_const_steps_cyclically() {
    let inf = SeqExpr::constant(Lasso::lasso(
        vec![Value::Int(5)],
        vec![Value::Int(0), Value::Int(1), Value::Int(2)],
    ));
    let evs = [
        Event::int(d(), 1),
        Event::int(b(), 7),
        Event::int(d(), 2),
        Event::int(d(), 3),
        Event::int(d(), 4),
        Event::int(d(), 5),
        Event::bit(b(), true),
        Event::int(d(), 6),
    ];
    // under a zip or an oracle select, an infinite constant is read
    // through a cyclic offset that wraps past its prefix
    assert_delta_agrees(&SeqExpr::add(ch(d()), inf.clone()), &evs);
    assert_delta_agrees(&SeqExpr::add(inf.clone(), ch(d())), &evs);
    let bits = SeqExpr::constant(Lasso::repeat(vec![Value::tt(), Value::ff()]));
    assert_delta_agrees(
        &SeqExpr::OracleSelect {
            data: Box::new(ch(d())),
            oracle: Box::new(bits),
            keep: true,
        },
        &evs,
    );
    assert_delta_agrees(
        &SeqExpr::OracleSelect {
            data: Box::new(inf.clone()),
            oracle: Box::new(ch(b())),
            keep: true,
        },
        &evs,
    );
    // folding under TakeWhile/CountTicks collapses it into a finite one
    let taken = SeqExpr::TakeWhile(ValuePred::IsTrue, Box::new(inf.clone()));
    assert_eq!(taken.compile().cycle(), 0);
    assert_delta_agrees(&taken, &evs);
    // a root one is its own value: prefix and one cycle, never stepped
    let c = inf.compile();
    assert_eq!(c.cycle(), 3);
    let (mut st, init) = c.delta_init();
    assert_eq!(init, [5, 0, 1, 2].map(Value::Int));
    assert!(evs.iter().all(|&ev| st.step(ev).is_empty()));
}

/// The side evaluator must agree with full evaluation on every prefix,
/// for sides that step and for a side that is an infinite constant.
fn assert_side_agrees(e: &SeqExpr, events: &[Event]) {
    let mut side = CompiledSideEval::new(&e.compile());
    assert_eq!(side.value(), e.eval(&Trace::empty()), "init value for {e}");
    let mut prefix = Vec::new();
    for &ev in events {
        prefix.push(ev);
        side.step(ev);
        let t = Trace::finite(prefix.clone());
        assert_eq!(
            side.value(),
            e.eval(&t),
            "side value mismatch for {e} after {prefix:?}"
        );
        for i in 0..12 {
            assert_eq!(side.get(i), e.eval(&t).get(i), "position {i} of {e}");
        }
    }
}

#[test]
fn side_eval_agrees_on_both_paths() {
    let evs = [
        Event::int(d(), 0),
        Event::int(b(), 7),
        Event::int(d(), 1),
        Event::int(d(), 2),
    ];
    let fast = even(ch(d()));
    assert_eq!(CompiledSideEval::new(&fast.compile()).cycle(), 0);
    assert_side_agrees(&fast, &evs);
    // an infinite constant is read cyclically
    let cyclic = SeqExpr::constant(Lasso::lasso(
        vec![Value::Int(3)],
        vec![Value::Int(0), Value::Int(1)],
    ));
    assert_eq!(CompiledSideEval::new(&cyclic.compile()).cycle(), 2);
    assert_side_agrees(&cyclic, &evs);
    // a nested one steps with the rest of the machine
    assert_side_agrees(&SeqExpr::add(ch(d()), cyclic), &evs);
}

/// `step_check` must decide exactly `f(v) ⊑ g(u)` for consecutive
/// prefix pairs, on every side-representation combination, up to and
/// including the first rejection; the frozen snapshot must read `g(u)`.
fn assert_step_check_agrees(fe: &SeqExpr, ge: &SeqExpr, events: &[Event]) {
    let mut f = CompiledSideEval::new(&fe.compile());
    let mut g = CompiledSideEval::new(&ge.compile());
    let mut verified = 0usize;
    let mut prefix = Vec::new();
    for &ev in events {
        let u = Trace::finite(prefix.clone());
        prefix.push(ev);
        let v = Trace::finite(prefix.clone());
        let frozen = g.freeze();
        f.step(ev);
        g.step(ev);
        assert_eq!(g.frozen_value(&frozen), ge.eval(&u), "frozen {ge} at {u}");
        let expect = fe.eval(&v).leq(&ge.eval(&u));
        assert_eq!(
            step_check(&f, &g, &frozen, &mut verified),
            expect,
            "step_check mismatch for {fe} vs {ge} at {v}"
        );
        // the incremental `verified` counter is only meaningful while
        // every earlier pair held, mirroring the monitor's usage
        if !expect {
            return;
        }
    }
}

#[test]
fn step_check_matches_posthoc_leq() {
    let smooth = [
        Event::int(b(), 0),
        Event::int(d(), 0),
        Event::int(d(), 1),
        Event::int(b(), 2),
    ];
    let rough = [Event::int(d(), 5), Event::int(b(), 5), Event::int(d(), 9)];
    for evs in [&smooth[..], &rough[..]] {
        // incremental/incremental
        assert_step_check_agrees(&ch(d()), &ch(b()), evs);
        assert_step_check_agrees(&even(ch(d())), &ch(b()), evs);
        // an infinite constant on either side, or on both
        let inf = SeqExpr::constant(Lasso::lasso(vec![Value::Int(0)], vec![Value::Int(1)]));
        assert_step_check_agrees(&ch(d()), &inf, evs);
        assert_step_check_agrees(&inf, &ch(d()), evs);
        assert_step_check_agrees(&inf, &inf, evs);
        let other = SeqExpr::constant(Lasso::repeat(vec![Value::Int(1)]));
        assert_step_check_agrees(&inf, &other, evs);
    }
}

#[test]
fn frozen_value_reads_the_prestep_output() {
    let mut g = CompiledSideEval::new(&ch(d()).compile());
    g.step(Event::int(d(), 1));
    let frozen = g.freeze();
    g.step(Event::int(d(), 2));
    assert_eq!(g.frozen_value(&frozen), Lasso::finite(vec![Value::Int(1)]));
    assert_eq!(g.value(), Lasso::finite(vec![Value::Int(1), Value::Int(2)]));
}
