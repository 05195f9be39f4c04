//! The validated in-memory form of a tenant program, and its lowering to
//! a runnable [`Network`] plus an equational [`Description`].

use eqp_core::Description;
use eqp_kahn::procs::{Apply, Copy, Delay, Merge2, Source, Zip2};
use eqp_kahn::{ExprProc, FilterStep, Network, Oracle};
use eqp_seqfn::{SeqExpr, ValueMap, ValuePred, ValueZip};
use eqp_trace::{Chan, Lasso, Value};
use std::sync::OnceLock;

/// One process declaration, drawn from the safe combinator vocabulary.
///
/// Every kind lowers to an existing, snapshot-capable process from
/// `eqp_kahn::procs` (or the [`ExprProc`]/[`FilterStep`] pair added for
/// this language), so tenant networks checkpoint, evict, resume, and
/// migrate exactly like built-in workloads.
#[derive(Debug, Clone)]
pub enum ProcKind {
    /// `const OUT [v...]` — emit a finite sequence, then quiesce.
    Const {
        /// Output channel.
        out: Chan,
        /// The values emitted, in order.
        values: Vec<Value>,
    },
    /// `lasso OUT [prefix...] [cycle...]` — emit the prefix, then the
    /// cycle forever (empty cycle means a finite source).
    Lasso {
        /// Output channel.
        out: Chan,
        /// Finite prefix.
        prefix: Vec<Value>,
        /// Repeated cycle.
        cycle: Vec<Value>,
    },
    /// `copy IN -> OUT` — the paper's Fig. 1 repeater.
    Copy {
        /// Input channel.
        input: Chan,
        /// Output channel.
        output: Chan,
    },
    /// `prelude [v...] IN -> OUT` — copy, after first emitting a seed.
    Prelude {
        /// Values emitted before copying begins.
        values: Vec<Value>,
        /// Input channel.
        input: Chan,
        /// Output channel.
        output: Chan,
    },
    /// `map SPEC IN -> OUT` — pointwise [`ValueMap`].
    Map {
        /// The map applied to each value.
        map: ValueMap,
        /// Input channel.
        input: Chan,
        /// Output channel.
        output: Chan,
    },
    /// `filter SPEC IN -> OUT` — drop values failing the predicate.
    Filter {
        /// The predicate values must satisfy.
        pred: ValuePred,
        /// Input channel.
        input: Chan,
        /// Output channel.
        output: Chan,
    },
    /// `merge L R -> OUT` / `merge(K) L R -> OUT` — fair merge steered by
    /// a seeded oracle with fairness bound `K`.
    Merge {
        /// Oracle fairness bound (max run of one side).
        bound: usize,
        /// Left input.
        left: Chan,
        /// Right input.
        right: Chan,
        /// Output channel.
        output: Chan,
    },
    /// `delay [v...] IN -> OUT` — emit initial values, then copy;
    /// the unit-delay of feedback networks.
    Delay {
        /// Initial values emitted before the first input.
        initial: Vec<Value>,
        /// Input channel.
        input: Chan,
        /// Output channel.
        output: Chan,
    },
    /// `zip SPEC A B -> OUT` — strict pointwise [`ValueZip`].
    Zip {
        /// The binary combination.
        zip: ValueZip,
        /// Left input.
        left: Chan,
        /// Right input.
        right: Chan,
        /// Output channel.
        output: Chan,
    },
    /// `expr OUT := EXPR` — a process computing a whole [`SeqExpr`]
    /// incrementally via the compiled delta evaluator. Its inputs are the
    /// expression's channels.
    Expr {
        /// Output channel (must not appear in the expression).
        output: Chan,
        /// The sequence function the process computes.
        expr: SeqExpr,
    },
}

impl ProcKind {
    /// The channel this process produces.
    pub fn output(&self) -> Chan {
        match self {
            ProcKind::Const { out, .. } | ProcKind::Lasso { out, .. } => *out,
            ProcKind::Copy { output, .. }
            | ProcKind::Prelude { output, .. }
            | ProcKind::Map { output, .. }
            | ProcKind::Filter { output, .. }
            | ProcKind::Merge { output, .. }
            | ProcKind::Delay { output, .. }
            | ProcKind::Zip { output, .. }
            | ProcKind::Expr { output, .. } => *output,
        }
    }

    /// The channels this process consumes.
    pub fn inputs(&self) -> Vec<Chan> {
        match self {
            ProcKind::Const { .. } | ProcKind::Lasso { .. } => Vec::new(),
            ProcKind::Copy { input, .. }
            | ProcKind::Prelude { input, .. }
            | ProcKind::Map { input, .. }
            | ProcKind::Filter { input, .. }
            | ProcKind::Delay { input, .. } => vec![*input],
            ProcKind::Merge { left, right, .. } | ProcKind::Zip { left, right, .. } => {
                vec![*left, *right]
            }
            ProcKind::Expr { expr, .. } => expr.channels().iter().collect(),
        }
    }
}

/// A named process declaration.
#[derive(Debug, Clone)]
pub struct ProcDecl {
    /// Process name (unique within the program).
    pub name: String,
    /// What the process does.
    pub kind: ProcKind,
    /// 1-based source line of the declaration (for diagnostics).
    pub line: usize,
}

/// A parsed, validated tenant program.
///
/// Only [`parse`](crate::parse) constructs these, so holding a
/// `NetProgram` is proof the program passed every [`NetLimits`] budget:
/// [`build`](NetProgram::build) and [`description`](NetProgram::description)
/// cannot panic on it.
///
/// [`NetLimits`]: crate::NetLimits
#[derive(Debug, Clone)]
pub struct NetProgram {
    pub(crate) name: String,
    pub(crate) steps: u64,
    pub(crate) source: String,
    pub(crate) chans: Vec<(String, Chan)>,
    pub(crate) procs: Vec<ProcDecl>,
    pub(crate) equations: Vec<(SeqExpr, SeqExpr)>,
    /// [`cached_description`](NetProgram::cached_description)'s store.
    pub(crate) described: OnceLock<Description>,
}

impl PartialEq for NetProgram {
    /// Programs compare by source text: parsing is deterministic, so
    /// equal sources mean equal programs.
    fn eq(&self, other: &NetProgram) -> bool {
        self.source == other.source
    }
}

impl Eq for NetProgram {}

impl NetProgram {
    /// The program name from the `net` directive (or `"net"` if omitted).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The requested step budget from the `steps` directive (or the
    /// language default of 10 000). The daemon clamps this further.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The original program text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Declared channels, in declaration order.
    pub fn channels(&self) -> &[(String, Chan)] {
        &self.chans
    }

    /// Declared processes, in declaration order (also the network's
    /// scheduling order).
    pub fn procs(&self) -> &[ProcDecl] {
        &self.procs
    }

    /// The description equations, in declaration order.
    pub fn equations(&self) -> &[(SeqExpr, SeqExpr)] {
        &self.equations
    }

    /// Lowers the program to a runnable [`Network`].
    ///
    /// Processes are added in declaration order, so scheduling (and hence
    /// traces, for a fixed scheduler) is a pure function of the program
    /// text and `seed`. The seed steers every `merge` oracle, exactly as
    /// the built-in zoo builders use it.
    pub fn build(&self, seed: u64) -> Network {
        let mut net = Network::new();
        for p in &self.procs {
            match &p.kind {
                ProcKind::Const { out, values } => {
                    net.add(Source::new(&p.name, *out, values.clone()));
                }
                ProcKind::Lasso { out, prefix, cycle } => {
                    net.add(Source::lasso(
                        &p.name,
                        *out,
                        Lasso::lasso(prefix.clone(), cycle.clone()),
                    ));
                }
                ProcKind::Copy { input, output } => {
                    net.add(Copy::new(&p.name, *input, *output));
                }
                ProcKind::Prelude {
                    values,
                    input,
                    output,
                } => {
                    net.add(Copy::with_prelude(&p.name, *input, *output, values.clone()));
                }
                ProcKind::Map { map, input, output } => {
                    let m = *map;
                    net.add(Apply::new(&p.name, *input, *output, move |v| m.apply(&v)));
                }
                ProcKind::Filter {
                    pred,
                    input,
                    output,
                } => {
                    net.add(FilterStep::new(&p.name, *input, *output, *pred));
                }
                ProcKind::Merge {
                    bound,
                    left,
                    right,
                    output,
                } => {
                    net.add(Merge2::new(
                        &p.name,
                        *left,
                        *right,
                        *output,
                        Oracle::fair(seed, *bound),
                    ));
                }
                ProcKind::Delay {
                    initial,
                    input,
                    output,
                } => {
                    net.add(Delay::new(&p.name, *input, *output, initial.clone()));
                }
                ProcKind::Zip {
                    zip,
                    left,
                    right,
                    output,
                } => {
                    let z = *zip;
                    net.add(Zip2::new(&p.name, *left, *right, *output, move |a, b| {
                        z.apply(&a, &b)
                    }));
                }
                ProcKind::Expr { output, expr } => {
                    net.add(ExprProc::new(&p.name, *output, expr));
                }
            }
        }
        net
    }

    /// The program's equational [`Description`] (`lhs ⟸ rhs` per `eq`
    /// line), ready for conformance checking against a run's trace.
    pub fn description(&self) -> Description {
        let mut d = Description::new(self.name.clone());
        for (lhs, rhs) in &self.equations {
            d = d.equation(lhs.clone(), rhs.clone());
        }
        d
    }

    /// The program's description, built on first use and kept, so every
    /// later check (through any `Arc` of the program) reuses its
    /// compiled sides and walk cache.
    pub fn cached_description(&self) -> &Description {
        self.described.get_or_init(|| self.description())
    }
}
