//! Channels, messages, and traces — finite and eventually periodic — for the
//! `eqp` workspace (Misra, *Equational Reasoning About Nondeterministic
//! Processes*, PODC 1989).
//!
//! Section 3.1 of the paper defines a **trace** as a sequence of pairs
//! `(c, m)` — channel `c`, message `m` — possibly infinite (a process that
//! always has something to output has an infinite quiescent trace, e.g. the
//! Ticks process of Section 4.2 whose only trace is `(b, T)^ω`).
//!
//! Infinite sequences do not fit in a `Vec`, and lazy self-referential
//! streams fight Rust's ownership model. Every infinite object the paper
//! actually manipulates, however, is *eventually periodic* — `0^ω`, the
//! tick stream, oracle cycles, fair-merge limits. This crate therefore
//! represents sequences as **lassos**: a finite prefix followed by a
//! (possibly empty) repeating cycle, kept in a canonical normal form so that
//! equality of lassos is exactly equality of the infinite words they denote.
//! Prefix ordering, projection, pointwise maps, filters, and zips are all
//! computed *exactly* on this representation — the limit condition of a
//! description is decided, not approximated.
//!
//! # Contents
//!
//! * [`Value`] / [`Chan`] / [`Event`] — messages, channel identifiers, and
//!   the `(c, m)` pairs of the paper.
//! * [`Lasso`] — canonical eventually-periodic sequences over any element
//!   type, with the algebra the rest of the workspace builds on.
//! * [`Trace`] — lassos of events, with projection (Fact F3), the
//!   `u pre v in t` relation, and per-channel sequence extraction.
//! * [`SeqDomain`] / [`TraceDomain`] — the corresponding cpos (Fact F1),
//!   with prefix ordering.
//! * [`facts`] — executable statements of the paper's Facts F2, F4, F5.
//!
//! # Example
//!
//! ```
//! use eqp_trace::{Chan, Event, Trace, Value};
//!
//! // The Ticks process's only quiescent trace: (b, T)^ω.
//! let b = Chan::new(0);
//! let t = Trace::lasso([], [Event::new(b, Value::tt())]);
//! assert!(t.is_infinite());
//! // Every finite prefix of it is a communication history of Ticks:
//! let p = t.take(3);
//! assert_eq!(p.events().unwrap().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod chan;
pub mod domain;
pub mod event;
pub mod facts;
pub mod lasso;
pub mod trace;
pub mod value;

pub use arena::{ChainArena, ChainId};
pub use chan::{Chan, ChanSet};
pub use domain::{SeqDomain, TraceDomain};
pub use event::Event;
pub use lasso::Lasso;
pub use trace::Trace;
pub use value::Value;

/// A sequence of message values: the per-channel projection of a trace,
/// which is what the paper's channel variables (`b`, `c`, `d`, …) denote.
pub type Seq = Lasso<Value>;
