//! A combinator algebra of continuous functions from traces to message
//! sequences — the building blocks of descriptions.
//!
//! The paper composes its descriptions from a small vocabulary of
//! continuous functions on sequences: channel projections, `even`/`odd`
//! filters, affine maps `2×d` and `2×d+1`, concatenation `0; c`, the
//! pointwise `R` of Section 4.3, `AND` (Section 4.5), oracle selection
//! (Section 4.6), `TRUE`/`FALSE` (Section 4.7), take-until-F (Section 4.8),
//! tick counting (Section 4.9), tagging and `ZERO`/`ONE` (Section 4.10),
//! and the Brock–Ackermann function `f` (Section 2.4).
//!
//! This crate represents such functions as a first-order AST, [`SeqExpr`],
//! rather than as closures, because the core theory needs to *inspect*
//! functions:
//!
//! * **Theorem 1** asks whether two functions have disjoint channel
//!   support — [`SeqExpr::channels`] computes the support syntactically;
//! * **variable elimination** (Section 7) replaces a channel by its
//!   defining expression — [`SeqExpr::subst_chan`] is that rewrite;
//! * the composition theorem's *dc* constraint (`fᵢ(t) = fᵢ(tᵢ)`) holds
//!   by construction for any expression whose support lies in process
//!   `i`'s channels.
//!
//! Every combinator is continuous (monotone and lub-preserving) *by
//! construction*, and evaluation is **exact on eventually periodic
//! sequences**: applying a combinator to a lasso yields a lasso. The
//! property-test suite validates monotonicity and finite-chain continuity
//! for randomly generated expressions, and the closure under lassos is what
//! makes the paper's limit conditions decidable. An escape hatch,
//! [`SeqExpr::custom`], admits user-defined functions at the cost of
//! syntactic substitution support.
//!
//! [`SeqExpr::eval`] is the reference semantics. Everything that runs per
//! event — the enumeration engine, the online monitor, described
//! processes — uses the [`compile`]d form instead: [`CompiledExpr`] lowers
//! a tree to a fused instruction arena, and [`CompiledSideEval`] steps it
//! incrementally, appending only the values one more event adds. Its
//! tests compare it with [`SeqExpr::eval`] on every prefix.
//!
//! # Example: the dfm description's functions (Section 2.2)
//!
//! ```
//! use eqp_seqfn::SeqExpr;
//! use eqp_trace::{Chan, Event, Trace};
//!
//! let (b, d) = (Chan::new(0), Chan::new(2));
//! let even_d = SeqExpr::even(SeqExpr::chan(d));
//! // On the trace (b,0)(d,0)(d,1): even(d) = ⟨0⟩ = sequence on b.
//! let t = Trace::finite(vec![
//!     Event::int(b, 0),
//!     Event::int(d, 0),
//!     Event::int(d, 1),
//! ]);
//! assert_eq!(even_d.eval(&t), SeqExpr::chan(b).eval(&t));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod custom;
pub mod expr;
pub mod ops;
pub mod paper;

pub use compile::{CompiledDeltaState, CompiledExpr, CompiledSideEval, FrozenSide};
pub use custom::{CustomDeltaState, SeqFunction};
pub use expr::SeqExpr;
pub use ops::{Conjunction, ValueMap, ValuePred, ValueZip};

/// Incremental ("delta") evaluation, pinned case by case: the compiled
/// machine and side evaluator against [`SeqExpr::eval`] on every prefix.
#[cfg(test)]
mod delta {
    mod tests;
}
