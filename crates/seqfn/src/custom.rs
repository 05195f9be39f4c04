//! User-defined continuous sequence functions (escape hatch).

use eqp_trace::{ChanSet, Event, Seq, Trace, Value};
use std::fmt::Debug;

/// A user-supplied continuous function from traces to sequences.
///
/// Implementors **assert** continuity (monotone + lub-preserving); the
/// workspace's property tests can check monotonicity on samples via
/// `eqp-core`'s helpers. A custom function must also report its channel
/// support so that Theorem 1's independence test and the composition
/// theorem's *dc* constraint remain meaningful; `eval` must depend only on
/// the projection of the trace onto [`SeqFunction::channels`].
pub trait SeqFunction: Debug + Send + Sync {
    /// Applies the function.
    fn eval(&self, t: &Trace) -> Seq;

    /// The channel support: `eval(t)` must equal `eval(t_L)` for `L` this
    /// set.
    fn channels(&self) -> ChanSet;

    /// Diagnostic name.
    fn name(&self) -> &str;

    /// The incremental-evaluation hook: the function's state and value at
    /// the empty trace.
    ///
    /// Returning `(state, out)` asserts that `out` is the (finite) value of
    /// this function on the empty trace and that stepping `state` with each
    /// appended event yields exactly the values `eval` would append — i.e.
    /// the function's output on finite traces is append-only under
    /// one-event extension (which continuity guarantees). The enumeration
    /// engine, the smoothness walk and the monitor step every side through
    /// this hook; none of them re-evaluates `eval`.
    fn delta_init(&self) -> (Box<dyn CustomDeltaState>, Vec<Value>);
}

/// Incremental per-path state of a custom function, built by
/// [`SeqFunction::delta_init`].
///
/// States are cloned at every branch of the enumeration tree, so they
/// should be small; `clone_box` stands in for `Clone` (which is not object
/// safe).
pub trait CustomDeltaState: Debug + Send + Sync {
    /// Clones the state for a sibling branch.
    fn clone_box(&self) -> Box<dyn CustomDeltaState>;

    /// Advances by one appended event, returning the appended output
    /// values.
    fn step(&mut self, ev: Event) -> Vec<Value>;

    /// Optional canonical encoding of the state, for
    /// [`CompiledDeltaState::state_key`](crate::CompiledDeltaState::state_key).
    ///
    /// Returning `Some(bytes)` asserts that two states of the same
    /// function with equal bytes append equal values under every
    /// continuation. The default is `None`: the state is *opaque*, so a
    /// machine holding it has no key and is never proved periodic.
    fn encode(&self) -> Option<Vec<u8>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_trace::{Chan, Lasso};

    #[derive(Debug)]
    struct LenCounter(Chan);

    #[derive(Debug, Clone)]
    struct LenCounterState(Chan);

    impl CustomDeltaState for LenCounterState {
        fn clone_box(&self) -> Box<dyn CustomDeltaState> {
            Box::new(self.clone())
        }
        fn step(&mut self, ev: Event) -> Vec<Value> {
            if ev.chan == self.0 {
                vec![Value::Bit(true)]
            } else {
                Vec::new()
            }
        }
    }

    impl SeqFunction for LenCounter {
        fn eval(&self, t: &Trace) -> Seq {
            // ⟨T, T, …⟩ one tick per message on the channel (continuous).
            t.seq_on(self.0).map(|_| eqp_trace::Value::Bit(true))
        }
        fn channels(&self) -> ChanSet {
            ChanSet::from_chans([self.0])
        }
        fn name(&self) -> &str {
            "len-counter"
        }
        fn delta_init(&self) -> (Box<dyn CustomDeltaState>, Vec<Value>) {
            (Box::new(LenCounterState(self.0)), Vec::new())
        }
    }

    #[test]
    fn trait_object_usable() {
        let f: Box<dyn SeqFunction> = Box::new(LenCounter(Chan::new(0)));
        let t = Trace::finite(vec![eqp_trace::Event::int(Chan::new(0), 5)]);
        assert_eq!(f.eval(&t), Lasso::finite(vec![eqp_trace::Value::tt()]));
        assert_eq!(f.name(), "len-counter");
        assert!(f.channels().contains(Chan::new(0)));
        let (mut st, init) = f.delta_init();
        assert!(init.is_empty());
        assert_eq!(st.step(Event::int(Chan::new(0), 5)), vec![Value::tt()]);
    }
}
