//! Resource budgets and the typed rejection error for the trust boundary.

use std::fmt;

/// Hard resource budgets enforced while parsing and validating a tenant
/// program.
///
/// Every limit names the field it protects; exceeding one produces a
/// typed [`NetError`] naming that field, never a panic. The defaults are
/// deliberately generous for honest programs and deliberately hostile to
/// resource bombs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetLimits {
    /// Maximum program text size in bytes.
    pub max_source_bytes: usize,
    /// Maximum number of declared channels.
    pub max_channels: usize,
    /// Maximum channel index a declaration may use. Kept well below the
    /// point where wide support masks get expensive; the runtime itself
    /// handles >128-channel networks, but tenants don't get to allocate
    /// sparse index space for free.
    pub max_chan_index: u32,
    /// Maximum number of declared processes.
    pub max_processes: usize,
    /// Maximum number of `eq` description equations.
    pub max_equations: usize,
    /// Maximum AST node count for any single expression.
    pub max_expr_nodes: usize,
    /// Maximum expression nesting depth the parser will recurse into.
    pub max_depth: usize,
    /// Maximum number of literal values in any one list (`[...]`).
    pub max_seq_values: usize,
    /// Maximum compiled-IR instruction count per expression.
    pub max_ir_insts: usize,
    /// Maximum `merge(K)` fairness bound.
    pub max_merge_bound: usize,
    /// Maximum session step budget a `steps` directive may request. The
    /// daemon clamps this to its own per-session ceiling.
    pub max_steps: u64,
}

impl Default for NetLimits {
    fn default() -> NetLimits {
        NetLimits {
            max_source_bytes: 64 * 1024,
            max_channels: 128,
            max_chan_index: 4096,
            max_processes: 64,
            max_equations: 32,
            max_expr_nodes: 512,
            max_depth: 24,
            max_seq_values: 256,
            max_ir_insts: 4096,
            max_merge_bound: 64,
            max_steps: 200_000,
        }
    }
}

/// Typed rejection produced at the trust boundary.
///
/// Every variant names the offending line and/or field so a tenant can
/// fix their program without access to daemon logs. The parser and
/// validator are total: hostile input yields one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The program (or one of its components) exceeded a size budget.
    Oversized {
        /// Which [`NetLimits`] field was exceeded.
        field: &'static str,
        /// The configured limit.
        limit: usize,
        /// What the program asked for.
        got: usize,
    },
    /// A line failed to parse.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        why: String,
    },
    /// An expression or statement referenced an undeclared channel.
    UnknownChannel {
        /// 1-based source line.
        line: usize,
        /// The unresolved name.
        name: String,
    },
    /// A channel or process name collides with a language keyword.
    Reserved {
        /// 1-based source line.
        line: usize,
        /// The reserved word.
        name: String,
    },
    /// A duplicate declaration (channel name, channel index, process
    /// name).
    Duplicate {
        /// 1-based source line.
        line: usize,
        /// What kind of declaration collided.
        what: &'static str,
        /// The colliding name or index.
        name: String,
    },
    /// Two processes produce (or consume) the same channel — Kahn wiring
    /// requires a unique producer and a unique consumer per channel.
    WiringConflict {
        /// `"producer"` or `"consumer"`.
        role: &'static str,
        /// The channel name.
        chan: String,
        /// The first process claiming the role.
        first: String,
        /// The second process claiming the role.
        second: String,
    },
    /// Expression nesting exceeded `max_depth`.
    TooDeep {
        /// 1-based source line.
        line: usize,
        /// The configured depth limit.
        limit: usize,
    },
    /// A numeric literal was outside its field's admissible range.
    OutOfRange {
        /// 1-based source line.
        line: usize,
        /// The field being parsed.
        field: &'static str,
        /// Human-readable bound, e.g. `"1..=4096"`.
        bound: String,
    },
    /// An `expr` process's expression cannot run as a process: it reads
    /// its own output channel, or it is an infinite constant, which no
    /// finite run can emit.
    NotIncremental {
        /// 1-based source line.
        line: usize,
        /// Why the expression was refused.
        why: String,
    },
    /// The program declared no processes (nothing to run).
    Empty,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Oversized { field, limit, got } => {
                write!(
                    f,
                    "over budget: {field} allows {limit}, program needs {got}"
                )
            }
            NetError::Parse { line, why } => write!(f, "parse error at line {line}: {why}"),
            NetError::UnknownChannel { line, name } => {
                write!(f, "line {line}: unknown channel `{name}`")
            }
            NetError::Reserved { line, name } => {
                write!(f, "line {line}: `{name}` is a reserved word")
            }
            NetError::Duplicate { line, what, name } => {
                write!(f, "line {line}: duplicate {what} `{name}`")
            }
            NetError::WiringConflict {
                role,
                chan,
                first,
                second,
            } => write!(
                f,
                "wiring conflict: channel `{chan}` has two {role}s (`{first}` and `{second}`)"
            ),
            NetError::TooDeep { line, limit } => {
                write!(
                    f,
                    "line {line}: expression nests deeper than max_depth = {limit}"
                )
            }
            NetError::OutOfRange { line, field, bound } => {
                write!(f, "line {line}: {field} out of range (expected {bound})")
            }
            NetError::NotIncremental { line, why } => {
                write!(
                    f,
                    "line {line}: expression is not incrementally runnable: {why}"
                )
            }
            NetError::Empty => write!(f, "program declares no processes"),
        }
    }
}

impl std::error::Error for NetError {}
