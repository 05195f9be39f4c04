//! Descriptions and smooth solutions — the core of Misra's *Equational
//! Reasoning About Nondeterministic Processes* (PODC 1989).
//!
//! A **description** is an ordered pair of continuous functions `f ⟸ g`
//! from traces into a cpo (here: tuples of message sequences). A trace `t`
//! is a **smooth solution** of `f ⟸ g` iff
//!
//! * `f(t) = g(t)` (the *limit condition*), and
//! * `f(v) ⊑ g(u)` for every `u pre v in t` (the *smoothness condition*).
//!
//! Smoothness is the causality constraint that rules out solutions in which
//! an output justifies itself as input — the root of the Brock–Ackermann
//! anomaly (Section 2.4).
//!
//! This crate implements the paper's theory end to end:
//!
//! * [`Description`] / [`System`] — descriptions with tuple-valued sides,
//!   built from the [`eqp_seqfn::SeqExpr`] combinator algebra
//!   ([`description`]).
//! * [`smooth`] — the smooth-solution predicate, exact on finite traces;
//!   on eventually periodic (lasso) traces [`smooth::smoothness`] proves
//!   smoothness by a repeated evaluator state at a cycle boundary, returns
//!   the first violation, or says it is unproven; plus **Theorem 1**'s
//!   simplification for independent sides.
//! * [`mod@enumerate`] — the operational tree of Section 3.3: breadth-first
//!   enumeration of all bounded computations/smooth solutions over a
//!   message alphabet. [`engine`] computes the same tree faster
//!   ([`enumerate_memo`]) by stepping each side on the compiled
//!   incremental machine ([`eqp_seqfn::CompiledDeltaState`]) once per
//!   distinct per-channel history; the seed [`enumerate()`] stays the
//!   reference it is tested against.
//! * [`mod@compose`] — **Theorem 2**: pairing component descriptions describes
//!   the network.
//! * [`fixpoint`] — **Theorem 4**: over any cpo, the unique smooth solution
//!   of `id ⟸ h` is the least fixpoint of `h` (smooth solutions generalize
//!   least fixpoints; Kahn's principle).
//! * [`mod@eliminate`] — **Theorems 5/6**: variable elimination (substituting a
//!   channel by its definition), including the explicit witness
//!   construction of Theorem 6 and the `f(⊥) = ⊥` side condition.
//! * [`induction`] — the smooth-solution induction rule of Section 8.4.
//! * [`properties`] — bounded progress/safety property checking in the
//!   equational style of Section 2.3.
//!
//! # Example: the dfm process (Section 2.2)
//!
//! ```
//! use eqp_core::{Description, smooth::is_smooth};
//! use eqp_seqfn::paper::{ch, even, odd};
//! use eqp_trace::{Chan, Event, Trace};
//!
//! let (b, c, d) = (Chan::new(0), Chan::new(1), Chan::new(2));
//! // even(d) = b , odd(d) = c
//! let dfm = Description::new("dfm")
//!     .equation(even(ch(d)), ch(b))
//!     .equation(odd(ch(d)), ch(c));
//!
//! // (b,0)(d,0) is a quiescent trace of dfm …
//! let t = Trace::finite(vec![Event::int(b, 0), Event::int(d, 0)]);
//! assert!(is_smooth(&dfm, &t));
//! // … but (b,0) alone is not (dfm still owes an output).
//! let nq = Trace::finite(vec![Event::int(b, 0)]);
//! assert!(!is_smooth(&dfm, &nq));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod description;
pub mod diagnose;
pub mod eliminate;
pub mod engine;
pub mod enumerate;
pub mod fixpoint;
pub mod induction;
pub mod kahn_eqs;
pub mod process_spec;
pub mod properties;
pub mod smooth;
pub mod tree;

pub use compose::compose;
pub use description::{Alphabet, Description, System};
pub use eliminate::{eliminate, reconstruct_witness, ElimError};
pub use engine::enumerate_memo;
pub use enumerate::{enumerate, EnumOptions, Enumeration};
pub use kahn_eqs::{KahnSystem, SolveOptions};
pub use smooth::{is_smooth, is_smooth_at_depth, limit_holds, smoothness_holds};
