//! Processes built *from* descriptions: a dynamic process computing an
//! arbitrary compiled [`SeqExpr`], and the predicate-filter step it
//! pairs with in tenant-defined networks.
//!
//! The paper goes from processes to equations; `ExprProc` goes the other
//! way — any expression of the description grammar becomes a runnable,
//! snapshot-capable network component, evaluated incrementally through
//! [`CompiledDeltaState`] so each consumed event costs amortized
//! O(live instructions). This is what lets `eqp-netlang` lower an `expr`
//! process declaration straight onto the existing runtime with full
//! checkpoint/evict/resume/migrate participation.

use crate::process::{Process, StepCtx, StepResult};
use crate::snapshot::StateCell;
use eqp_seqfn::{CompiledDeltaState, CompiledExpr, SeqExpr, ValuePred};
use eqp_trace::{Chan, Event, Trace, Value};

/// A process that computes a [`SeqExpr`] over its input channels and
/// emits the expression's value on its output channel.
///
/// Each step consumes at most one available input event (scanning its
/// declared inputs in ascending channel order), feeds it to the delta
/// evaluator, and sends whatever output values become determined. The
/// emitted *sequence* is scheduler-independent — it is the expression, a
/// continuous function of the per-channel input sequences (the Kahn
/// principle) — even though its interleaving with other processes'
/// events is the scheduler's business.
///
/// Snapshots record the consumed-event log; restore replays it through a
/// fresh delta state, so evict/resume and migration reproduce the exact
/// evaluator state without the state itself needing a wire format.
pub struct ExprProc {
    name: String,
    output: Chan,
    inputs: Vec<Chan>,
    compiled: CompiledExpr,
    delta: CompiledDeltaState,
    /// Values determined by the empty trace, emitted on the first step.
    init: Vec<Value>,
    booted: bool,
    /// Every event consumed so far, in consumption order.
    log: Vec<Event>,
}

impl ExprProc {
    /// Builds the process for `expr`, emitting on `output`.
    ///
    /// # Panics
    ///
    /// Panics if the expression's value on the empty trace is infinite (an
    /// infinite constant, which no process can emit) or if `output` occurs
    /// in the expression. `eqp-netlang` validates both at the trust
    /// boundary before construction; direct callers must uphold them.
    pub fn new(name: impl Into<String>, output: Chan, expr: &SeqExpr) -> ExprProc {
        let compiled = expr.compile();
        assert!(
            !compiled.channels().contains(output),
            "ExprProc output must not occur in its expression"
        );
        assert!(
            compiled.eval(&Trace::empty()).is_finite(),
            "ExprProc cannot emit an infinite value on the empty trace"
        );
        let (delta, init) = compiled.delta_init();
        let inputs: Vec<Chan> = compiled.channels().iter().collect();
        ExprProc {
            name: name.into(),
            output,
            inputs,
            compiled,
            delta,
            init,
            booted: false,
            log: Vec::new(),
        }
    }

    /// Re-derives the delta evaluator from the log (restore/reset path).
    fn replay(&mut self, log: &[Event]) {
        let (mut delta, init) = self.compiled.delta_init();
        let mut sink = Vec::new();
        for ev in log {
            delta.step_into(*ev, &mut sink);
            sink.clear();
        }
        self.delta = delta;
        self.init = init;
    }
}

impl std::fmt::Debug for ExprProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExprProc")
            .field("name", &self.name)
            .field("output", &self.output)
            .field("inputs", &self.inputs)
            .field("consumed", &self.log.len())
            .finish()
    }
}

impl Process for ExprProc {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> Vec<Chan> {
        self.inputs.clone()
    }

    fn outputs(&self) -> Vec<Chan> {
        vec![self.output]
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepResult {
        let mut progressed = false;
        if !self.booted {
            self.booted = true;
            for i in 0..self.init.len() {
                ctx.send(self.output, self.init[i]);
            }
            progressed = !self.init.is_empty();
        }
        for i in 0..self.inputs.len() {
            let c = self.inputs[i];
            if let Some(v) = ctx.pop(c) {
                let ev = Event::new(c, v);
                self.log.push(ev);
                let mut out = Vec::new();
                self.delta.step_into(ev, &mut out);
                for v in out {
                    ctx.send(self.output, v);
                }
                return StepResult::Progress;
            }
        }
        if progressed {
            StepResult::Progress
        } else {
            StepResult::Idle
        }
    }

    fn snapshot(&self) -> Option<StateCell> {
        let chans: Vec<u64> = self.log.iter().map(|e| e.chan.index() as u64).collect();
        let vals: Vec<Value> = self.log.iter().map(|e| e.value).collect();
        Some(StateCell::List(vec![
            StateCell::Flag(self.booted),
            StateCell::Nats(chans),
            StateCell::Values(vals),
        ]))
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        let Some([booted, chans, vals]) = state
            .as_list()
            .and_then(|l| <&[StateCell; 3]>::try_from(l).ok())
        else {
            return false;
        };
        let (Some(booted), Some(chans), Some(vals)) =
            (booted.as_flag(), chans.as_nats(), vals.as_values())
        else {
            return false;
        };
        if chans.len() != vals.len() {
            return false;
        }
        let log: Vec<Event> = chans
            .iter()
            .zip(vals.iter())
            .map(|(&c, &v)| Event::new(Chan::new(c as u32), v))
            .collect();
        self.replay(&log);
        self.log = log;
        self.booted = booted;
        true
    }

    fn reset(&mut self) -> bool {
        self.replay(&[]);
        self.log.clear();
        self.booted = false;
        true
    }
}

/// A predicate filter: forwards input values satisfying a [`ValuePred`],
/// silently dropping the rest — the process form of the description
/// grammar's `filter(p, e)`.
///
/// Unlike [`Apply`](crate::procs::Apply) (which must emit one output per
/// input), a filter's output can be shorter than its input, so it needs
/// its own process type with declared wiring.
#[derive(Debug, Clone)]
pub struct FilterStep {
    name: String,
    input: Chan,
    output: Chan,
    pred: ValuePred,
}

impl FilterStep {
    /// A filter forwarding values of `input` satisfying `pred` to
    /// `output`.
    pub fn new(name: impl Into<String>, input: Chan, output: Chan, pred: ValuePred) -> FilterStep {
        FilterStep {
            name: name.into(),
            input,
            output,
            pred,
        }
    }
}

impl Process for FilterStep {
    fn name(&self) -> &str {
        &self.name
    }

    fn inputs(&self) -> Vec<Chan> {
        vec![self.input]
    }

    fn outputs(&self) -> Vec<Chan> {
        vec![self.output]
    }

    fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepResult {
        match ctx.pop(self.input) {
            Some(v) => {
                if self.pred.test(&v) {
                    ctx.send(self.output, v);
                }
                StepResult::Progress
            }
            None => StepResult::Idle,
        }
    }

    fn snapshot(&self) -> Option<StateCell> {
        Some(StateCell::Unit)
    }

    fn restore(&mut self, state: &StateCell) -> bool {
        matches!(state, StateCell::Unit)
    }

    fn reset(&mut self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, RunOptions};
    use crate::procs::Source;
    use crate::scheduler::RoundRobin;
    use eqp_seqfn::{SeqExpr, ValueMap};
    use eqp_trace::Lasso;

    fn affine_expr(c: Chan) -> SeqExpr {
        SeqExpr::Map(ValueMap::Affine { a: 2, b: 1 }, Box::new(SeqExpr::Chan(c)))
    }

    #[test]
    fn expr_proc_computes_its_expression() {
        let b = Chan::new(0);
        let c = Chan::new(1);
        let mut net = Network::new();
        net.add(Source::new(
            "src",
            b,
            [Value::Int(1), Value::Int(2), Value::Int(3)],
        ));
        net.add(ExprProc::new("doubler", c, &affine_expr(b)));
        let run = net.run(&mut RoundRobin::new(), RunOptions::default());
        assert!(run.quiescent);
        assert_eq!(
            run.trace.seq_on(c).take(10),
            vec![Value::Int(3), Value::Int(5), Value::Int(7)]
        );
    }

    #[test]
    fn expr_proc_emits_constant_prefix_on_boot() {
        let b = Chan::new(0);
        let c = Chan::new(1);
        let expr = SeqExpr::Concat(vec![Value::Int(9)], Box::new(affine_expr(b)));
        let mut net = Network::new();
        net.add(Source::new("src", b, [Value::Int(1)]));
        net.add(ExprProc::new("p", c, &expr));
        let run = net.run(&mut RoundRobin::new(), RunOptions::default());
        assert_eq!(
            run.trace.seq_on(c).take(10),
            vec![Value::Int(9), Value::Int(3)]
        );
    }

    #[test]
    fn expr_proc_snapshot_roundtrip() {
        let b = Chan::new(0);
        let c = Chan::new(1);
        let mut p = ExprProc::new("p", c, &affine_expr(b));
        let mut out = Vec::new();
        p.delta.step_into(Event::int(b, 4), &mut out);
        p.log.push(Event::int(b, 4));
        p.booted = true;
        let cell = p.snapshot().unwrap();
        let mut q = ExprProc::new("p", c, &affine_expr(b));
        assert!(q.restore(&cell));
        assert_eq!(q.log, p.log);
        assert!(q.booted);
        // The restored delta must continue identically.
        let (a, b2) = (
            p.delta.step(Event::int(b, 5)),
            q.delta.step(Event::int(b, 5)),
        );
        assert_eq!(a, b2);
    }

    #[test]
    fn filter_step_drops_non_matching() {
        let b = Chan::new(0);
        let c = Chan::new(1);
        let mut net = Network::new();
        net.add(Source::new(
            "src",
            b,
            [Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
        ));
        net.add(FilterStep::new("evens", b, c, ValuePred::IsEvenInt));
        let run = net.run(&mut RoundRobin::new(), RunOptions::default());
        assert_eq!(
            run.trace.seq_on(c).take(10),
            vec![Value::Int(2), Value::Int(4)]
        );
    }

    #[test]
    fn expr_proc_rejects_infinite_constant() {
        let expr = SeqExpr::Const(Lasso::repeat([Value::Int(1)]));
        assert!(expr.compile().eval(&Trace::empty()).is_infinite());
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ExprProc::new("inf", Chan::new(1), &expr)
        }));
        assert!(built.is_err(), "an infinite constant cannot be emitted");
        // nested under a zip it is read cyclically, and the process runs
        let zipped = SeqExpr::add(
            SeqExpr::chan(Chan::new(0)),
            SeqExpr::Const(Lasso::repeat([Value::Int(1), Value::Int(10)])),
        );
        let mut net = Network::new();
        net.add(Source::new(
            "src",
            Chan::new(0),
            [Value::Int(1), Value::Int(2), Value::Int(3)],
        ));
        net.add(ExprProc::new("zip", Chan::new(1), &zipped));
        let run = net.run(&mut RoundRobin::new(), RunOptions::default());
        assert_eq!(
            run.trace.seq_on(Chan::new(1)).take(10),
            vec![Value::Int(2), Value::Int(12), Value::Int(4)]
        );
    }
}
