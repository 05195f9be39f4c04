//! The total, recursion-bounded parser and validation pass.
//!
//! Parsing is line-oriented: every statement fits on one line, `#` starts
//! a comment, blank lines are ignored. The statement forms:
//!
//! ```text
//! net NAME                               # program name (optional)
//! steps N                                # requested step budget (optional)
//! chan NAME = INDEX                      # declare a channel
//! proc NAME = const OUT [v ...]          # finite source
//! proc NAME = lasso OUT [pre ...] [cyc ...]
//! proc NAME = copy IN -> OUT
//! proc NAME = prelude [v ...] IN -> OUT
//! proc NAME = map MAPSPEC IN -> OUT      # affine(a,b) | r | tag(t) | untag
//! proc NAME = filter PRED IN -> OUT      # even|odd|true|false|tagis(t)|intis(n)
//! proc NAME = merge L R -> OUT           # merge(K) for fairness bound K
//! proc NAME = delay [v ...] IN -> OUT
//! proc NAME = zip ZIPSPEC A B -> OUT     # and | add
//! proc NAME = expr OUT := EXPR           # compiled SeqExpr process
//! eq EXPR <= EXPR                        # description equation lhs ⟸ rhs
//! ```
//!
//! Expressions: `CHAN`, `[v ...]`, `loop([pre],[cyc])`, `concat([v],E)`,
//! `map(M,E)`, `filter(P,E)`, `zip(Z,E,E)`, `takewhile(P,E)`,
//! `skip(N,E)`, `count(E)`. Values: integers, `T`, `F`, pairs `(tag,n)`.
//!
//! Every budget in [`NetLimits`] is enforced *during* the single pass, so
//! work is bounded by the source-size cap before anything else is
//! inspected; recursion is bounded by an explicit depth counter. Every
//! rejection is a typed [`NetError`]; no input can cause a panic.

use std::collections::{HashMap, HashSet};

use eqp_seqfn::{SeqExpr, ValueMap, ValuePred, ValueZip};
use eqp_trace::{Chan, Lasso, Trace, Value};

use crate::limits::{NetError, NetLimits};
use crate::program::{NetProgram, ProcDecl, ProcKind};

/// Words with grammatical meaning; channels and processes may not shadow
/// them.
const RESERVED: &[&str] = &[
    "net",
    "steps",
    "chan",
    "proc",
    "eq",
    "const",
    "lasso",
    "copy",
    "prelude",
    "map",
    "filter",
    "merge",
    "delay",
    "zip",
    "expr",
    "loop",
    "concat",
    "takewhile",
    "skip",
    "count",
    "affine",
    "r",
    "tag",
    "untag",
    "even",
    "odd",
    "true",
    "false",
    "tagis",
    "intis",
    "and",
    "add",
    "T",
    "F",
];

/// Default session step budget when the program omits a `steps` line.
const DEFAULT_STEPS: u64 = 10_000;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    LParen,
    RParen,
    LBrack,
    RBrack,
    Comma,
    Arrow,  // ->
    LeEq,   // <=
    Define, // :=
    Equals, // =
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBrack => "`[`".into(),
            Tok::RBrack => "`]`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Arrow => "`->`".into(),
            Tok::LeEq => "`<=`".into(),
            Tok::Define => "`:=`".into(),
            Tok::Equals => "`=`".into(),
        }
    }
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '+' | '-')
}

/// Tokenizes one line. Total: any byte sequence either tokenizes or
/// yields a typed parse error.
fn tokenize(raw: &str, line: usize) -> Result<Vec<Tok>, NetError> {
    let mut toks = Vec::new();
    let mut chars = raw.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '#' => break,
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            '[' => {
                chars.next();
                toks.push(Tok::LBrack);
            }
            ']' => {
                chars.next();
                toks.push(Tok::RBrack);
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push(Tok::LeEq);
                } else {
                    return Err(NetError::Parse {
                        line,
                        why: "stray `<` (expected `<=`)".into(),
                    });
                }
            }
            ':' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push(Tok::Define);
                } else {
                    return Err(NetError::Parse {
                        line,
                        why: "stray `:` (expected `:=`)".into(),
                    });
                }
            }
            '=' => {
                chars.next();
                toks.push(Tok::Equals);
            }
            '-' if {
                let mut ahead = chars.clone();
                ahead.next();
                ahead.peek() == Some(&'>')
            } =>
            {
                chars.next();
                chars.next();
                toks.push(Tok::Arrow);
            }
            c if is_word_char(c) => {
                let mut w = String::new();
                while let Some(&c) = chars.peek() {
                    if c == '-' {
                        // `->` terminates a word; a plain `-` (negative
                        // numbers, hyphenated names) continues it.
                        let mut ahead = chars.clone();
                        ahead.next();
                        if ahead.peek() == Some(&'>') {
                            break;
                        }
                        w.push(c);
                        chars.next();
                    } else if is_word_char(c) {
                        w.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                // `->` at word start is handled by the arm above, so `w`
                // is nonempty here; still, guard totality.
                if w.is_empty() {
                    return Err(NetError::Parse {
                        line,
                        why: "empty word".into(),
                    });
                }
                toks.push(Tok::Word(w));
            }
            other => {
                return Err(NetError::Parse {
                    line,
                    why: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    Ok(toks)
}

/// A cursor over one line's tokens.
struct Cursor<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(toks: &'a [Tok], line: usize) -> Cursor<'a> {
        Cursor { toks, pos: 0, line }
    }

    fn err(&self, why: impl Into<String>) -> NetError {
        NetError::Parse {
            line: self.line,
            why: why.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn word(&mut self, what: &str) -> Result<String, NetError> {
        match self.next() {
            Some(Tok::Word(w)) => Ok(w),
            Some(other) => Err(self.err(format!("expected {what}, found {}", other.describe()))),
            None => Err(self.err(format!("expected {what}, found end of line"))),
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), NetError> {
        match self.next() {
            Some(found) if found == t => Ok(()),
            Some(other) => Err(self.err(format!(
                "expected {}, found {}",
                t.describe(),
                other.describe()
            ))),
            None => Err(self.err(format!("expected {}, found end of line", t.describe()))),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn end(&self) -> Result<(), NetError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.err(format!("trailing {} after statement", t.describe()))),
        }
    }
}

/// Parser state threaded through the single pass.
struct Ctx<'l> {
    limits: &'l NetLimits,
    name: Option<String>,
    steps: Option<u64>,
    chans: Vec<(String, Chan)>,
    chan_by_name: HashMap<String, Chan>,
    chan_indices: HashSet<u32>,
    procs: Vec<ProcDecl>,
    proc_names: HashSet<String>,
    equations: Vec<(SeqExpr, SeqExpr)>,
}

impl Ctx<'_> {
    fn chan_ref(&self, cur: &mut Cursor<'_>) -> Result<Chan, NetError> {
        let w = cur.word("a channel name")?;
        match self.chan_by_name.get(&w) {
            Some(&c) => Ok(c),
            None => Err(NetError::UnknownChannel {
                line: cur.line,
                name: w,
            }),
        }
    }

    /// Parses `[v v ...]` with the alphabet-size cap.
    fn value_list(&self, cur: &mut Cursor<'_>) -> Result<Vec<Value>, NetError> {
        cur.expect(Tok::LBrack)?;
        let mut vals = Vec::new();
        loop {
            if cur.eat(&Tok::RBrack) {
                return Ok(vals);
            }
            if vals.len() == self.limits.max_seq_values {
                return Err(NetError::Oversized {
                    field: "max_seq_values",
                    limit: self.limits.max_seq_values,
                    got: vals.len() + 1,
                });
            }
            vals.push(self.value(cur)?);
        }
    }

    /// Parses one value: an integer, `T`, `F`, or a pair `(tag,n)`.
    fn value(&self, cur: &mut Cursor<'_>) -> Result<Value, NetError> {
        if cur.eat(&Tok::LParen) {
            let tag = parse_int::<u8>(cur, "pair tag", "0..=255")?;
            cur.expect(Tok::Comma)?;
            let n = parse_int::<i64>(cur, "pair payload", "an i64")?;
            cur.expect(Tok::RParen)?;
            return Ok(Value::Pair(tag, n));
        }
        let w = cur.word("a value")?;
        w.parse::<Value>()
            .map_err(|_| cur.err(format!("`{w}` is not a value (int, T, F, or (tag,n))")))
    }

    fn map_spec(&self, cur: &mut Cursor<'_>) -> Result<ValueMap, NetError> {
        let w = cur.word("a map spec (affine(a,b) | r | tag(t) | untag)")?;
        match w.as_str() {
            "affine" => {
                cur.expect(Tok::LParen)?;
                let a = parse_int::<i64>(cur, "affine multiplier", "an i64")?;
                cur.expect(Tok::Comma)?;
                let b = parse_int::<i64>(cur, "affine offset", "an i64")?;
                cur.expect(Tok::RParen)?;
                Ok(ValueMap::Affine { a, b })
            }
            "r" => Ok(ValueMap::R),
            "tag" => {
                cur.expect(Tok::LParen)?;
                let t = parse_int::<u8>(cur, "tag", "0..=255")?;
                cur.expect(Tok::RParen)?;
                Ok(ValueMap::Tag(t))
            }
            "untag" => Ok(ValueMap::Untag),
            other => Err(cur.err(format!("unknown map spec `{other}`"))),
        }
    }

    fn pred_spec(&self, cur: &mut Cursor<'_>) -> Result<ValuePred, NetError> {
        let w = cur.word("a predicate (even|odd|true|false|tagis(t)|intis(n))")?;
        match w.as_str() {
            "even" => Ok(ValuePred::IsEvenInt),
            "odd" => Ok(ValuePred::IsOddInt),
            "true" => Ok(ValuePred::IsTrue),
            "false" => Ok(ValuePred::IsFalse),
            "tagis" => {
                cur.expect(Tok::LParen)?;
                let t = parse_int::<u8>(cur, "tag", "0..=255")?;
                cur.expect(Tok::RParen)?;
                Ok(ValuePred::TagIs(t))
            }
            "intis" => {
                cur.expect(Tok::LParen)?;
                let n = parse_int::<i64>(cur, "intis constant", "an i64")?;
                cur.expect(Tok::RParen)?;
                Ok(ValuePred::IntIs(n))
            }
            other => Err(cur.err(format!("unknown predicate `{other}`"))),
        }
    }

    fn zip_spec(&self, cur: &mut Cursor<'_>) -> Result<ValueZip, NetError> {
        let w = cur.word("a zip spec (and | add)")?;
        match w.as_str() {
            "and" => Ok(ValueZip::And),
            "add" => Ok(ValueZip::AddInts),
            other => Err(cur.err(format!("unknown zip spec `{other}`"))),
        }
    }

    /// Recursion-bounded expression parser.
    fn expr(&self, cur: &mut Cursor<'_>, depth: usize) -> Result<SeqExpr, NetError> {
        if depth == 0 {
            return Err(NetError::TooDeep {
                line: cur.line,
                limit: self.limits.max_depth,
            });
        }
        if cur.peek() == Some(&Tok::LBrack) {
            let vals = self.value_list(cur)?;
            return Ok(SeqExpr::Const(Lasso::finite(vals)));
        }
        let w = cur.word("an expression")?;
        match w.as_str() {
            "loop" => {
                cur.expect(Tok::LParen)?;
                let prefix = self.value_list(cur)?;
                cur.expect(Tok::Comma)?;
                let cycle = self.value_list(cur)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::Const(Lasso::lasso(prefix, cycle)))
            }
            "concat" => {
                cur.expect(Tok::LParen)?;
                let vals = self.value_list(cur)?;
                cur.expect(Tok::Comma)?;
                let e = self.expr(cur, depth - 1)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::Concat(vals, Box::new(e)))
            }
            "map" => {
                cur.expect(Tok::LParen)?;
                let m = self.map_spec(cur)?;
                cur.expect(Tok::Comma)?;
                let e = self.expr(cur, depth - 1)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::Map(m, Box::new(e)))
            }
            "filter" => {
                cur.expect(Tok::LParen)?;
                let p = self.pred_spec(cur)?;
                cur.expect(Tok::Comma)?;
                let e = self.expr(cur, depth - 1)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::Filter(p, Box::new(e)))
            }
            "zip" => {
                cur.expect(Tok::LParen)?;
                let z = self.zip_spec(cur)?;
                cur.expect(Tok::Comma)?;
                let a = self.expr(cur, depth - 1)?;
                cur.expect(Tok::Comma)?;
                let b = self.expr(cur, depth - 1)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::Zip(z, Box::new(a), Box::new(b)))
            }
            "takewhile" => {
                cur.expect(Tok::LParen)?;
                let p = self.pred_spec(cur)?;
                cur.expect(Tok::Comma)?;
                let e = self.expr(cur, depth - 1)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::TakeWhile(p, Box::new(e)))
            }
            "skip" => {
                cur.expect(Tok::LParen)?;
                let n = parse_int::<u32>(cur, "skip count", "0..=4294967295")?;
                cur.expect(Tok::Comma)?;
                let e = self.expr(cur, depth - 1)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::Skip(n as usize, Box::new(e)))
            }
            "count" => {
                cur.expect(Tok::LParen)?;
                let e = self.expr(cur, depth - 1)?;
                cur.expect(Tok::RParen)?;
                Ok(SeqExpr::CountTicks(Box::new(e)))
            }
            name => match self.chan_by_name.get(name) {
                Some(&c) => Ok(SeqExpr::Chan(c)),
                None => Err(NetError::UnknownChannel {
                    line: cur.line,
                    name: name.to_string(),
                }),
            },
        }
    }

    /// Parses a full statement-level expression and enforces the node and
    /// compiled-IR budgets.
    fn bounded_expr(&self, cur: &mut Cursor<'_>) -> Result<SeqExpr, NetError> {
        let e = self.expr(cur, self.limits.max_depth)?;
        let nodes = e.size();
        if nodes > self.limits.max_expr_nodes {
            return Err(NetError::Oversized {
                field: "max_expr_nodes",
                limit: self.limits.max_expr_nodes,
                got: nodes,
            });
        }
        let insts = e.compile().inst_count();
        if insts > self.limits.max_ir_insts {
            return Err(NetError::Oversized {
                field: "max_ir_insts",
                limit: self.limits.max_ir_insts,
                got: insts,
            });
        }
        Ok(e)
    }

    fn fresh_name(&self, cur: &Cursor<'_>, w: &str, what: &'static str) -> Result<(), NetError> {
        if RESERVED.contains(&w) {
            return Err(NetError::Reserved {
                line: cur.line,
                name: w.to_string(),
            });
        }
        let taken = match what {
            "channel" => self.chan_by_name.contains_key(w),
            _ => self.proc_names.contains(w),
        };
        if taken {
            return Err(NetError::Duplicate {
                line: cur.line,
                what,
                name: w.to_string(),
            });
        }
        Ok(())
    }
}

fn parse_int<T: std::str::FromStr>(
    cur: &mut Cursor<'_>,
    field: &'static str,
    bound: &str,
) -> Result<T, NetError> {
    let w = cur.word(field)?;
    w.parse::<T>().map_err(|_| NetError::OutOfRange {
        line: cur.line,
        field,
        bound: bound.to_string(),
    })
}

/// Parses and validates a tenant program against `limits`.
///
/// Total and bounded: work is O(`max_source_bytes`) plus the cost of
/// compiling at most `max_equations + max_processes` expressions, each
/// capped at `max_expr_nodes` nodes / `max_ir_insts` instructions. Any
/// malformed or over-budget input yields a typed [`NetError`]; no input
/// panics.
pub fn parse(source: &str, limits: &NetLimits) -> Result<NetProgram, NetError> {
    if source.len() > limits.max_source_bytes {
        return Err(NetError::Oversized {
            field: "max_source_bytes",
            limit: limits.max_source_bytes,
            got: source.len(),
        });
    }
    let mut ctx = Ctx {
        limits,
        name: None,
        steps: None,
        chans: Vec::new(),
        chan_by_name: HashMap::new(),
        chan_indices: HashSet::new(),
        procs: Vec::new(),
        proc_names: HashSet::new(),
        equations: Vec::new(),
    };

    for (i, raw) in source.lines().enumerate() {
        let line = i + 1;
        let toks = tokenize(raw, line)?;
        if toks.is_empty() {
            continue;
        }
        let mut cur = Cursor::new(&toks, line);
        let head = cur.word("a statement keyword")?;
        match head.as_str() {
            "net" => {
                let w = cur.word("a program name")?;
                if ctx.name.replace(w).is_some() {
                    return Err(NetError::Duplicate {
                        line,
                        what: "net directive",
                        name: "net".into(),
                    });
                }
            }
            "steps" => {
                let n = parse_int::<u64>(&mut cur, "steps", "a u64")?;
                if n == 0 || n > limits.max_steps {
                    return Err(NetError::OutOfRange {
                        line,
                        field: "steps",
                        bound: format!("1..={}", limits.max_steps),
                    });
                }
                if ctx.steps.replace(n).is_some() {
                    return Err(NetError::Duplicate {
                        line,
                        what: "steps directive",
                        name: "steps".into(),
                    });
                }
            }
            "chan" => {
                if ctx.chans.len() == limits.max_channels {
                    return Err(NetError::Oversized {
                        field: "max_channels",
                        limit: limits.max_channels,
                        got: ctx.chans.len() + 1,
                    });
                }
                let name = cur.word("a channel name")?;
                ctx.fresh_name(&cur, &name, "channel")?;
                cur.expect(Tok::Equals)?;
                let idx = parse_int::<u32>(&mut cur, "chan index", "a u32")?;
                if idx > limits.max_chan_index {
                    return Err(NetError::OutOfRange {
                        line,
                        field: "chan index",
                        bound: format!("0..={}", limits.max_chan_index),
                    });
                }
                if !ctx.chan_indices.insert(idx) {
                    return Err(NetError::Duplicate {
                        line,
                        what: "channel index",
                        name: idx.to_string(),
                    });
                }
                let c = Chan::new(idx);
                ctx.chan_by_name.insert(name.clone(), c);
                ctx.chans.push((name, c));
            }
            "proc" => {
                if ctx.procs.len() == limits.max_processes {
                    return Err(NetError::Oversized {
                        field: "max_processes",
                        limit: limits.max_processes,
                        got: ctx.procs.len() + 1,
                    });
                }
                let name = cur.word("a process name")?;
                ctx.fresh_name(&cur, &name, "process")?;
                cur.expect(Tok::Equals)?;
                let kind = parse_proc_kind(&ctx, &mut cur)?;
                check_proc(&ctx, &cur, &name, &kind)?;
                ctx.proc_names.insert(name.clone());
                ctx.procs.push(ProcDecl { name, kind, line });
            }
            "eq" => {
                if ctx.equations.len() == limits.max_equations {
                    return Err(NetError::Oversized {
                        field: "max_equations",
                        limit: limits.max_equations,
                        got: ctx.equations.len() + 1,
                    });
                }
                let lhs = ctx.bounded_expr(&mut cur)?;
                cur.expect(Tok::LeEq)?;
                let rhs = ctx.bounded_expr(&mut cur)?;
                ctx.equations.push((lhs, rhs));
            }
            other => {
                return Err(NetError::Parse {
                    line,
                    why: format!("unknown statement `{other}`"),
                });
            }
        }
        cur.end()?;
    }

    if ctx.procs.is_empty() {
        return Err(NetError::Empty);
    }
    check_wiring(&ctx)?;

    Ok(NetProgram {
        name: ctx.name.unwrap_or_else(|| "net".into()),
        steps: ctx.steps.unwrap_or(DEFAULT_STEPS),
        source: source.to_string(),
        chans: ctx.chans,
        procs: ctx.procs,
        equations: ctx.equations,
    })
}

fn parse_proc_kind(ctx: &Ctx<'_>, cur: &mut Cursor<'_>) -> Result<ProcKind, NetError> {
    let kind = cur.word("a process kind")?;
    match kind.as_str() {
        "const" => {
            let out = ctx.chan_ref(cur)?;
            let values = ctx.value_list(cur)?;
            Ok(ProcKind::Const { out, values })
        }
        "lasso" => {
            let out = ctx.chan_ref(cur)?;
            let prefix = ctx.value_list(cur)?;
            let cycle = ctx.value_list(cur)?;
            Ok(ProcKind::Lasso { out, prefix, cycle })
        }
        "copy" => {
            let input = ctx.chan_ref(cur)?;
            cur.expect(Tok::Arrow)?;
            let output = ctx.chan_ref(cur)?;
            Ok(ProcKind::Copy { input, output })
        }
        "prelude" => {
            let values = ctx.value_list(cur)?;
            let input = ctx.chan_ref(cur)?;
            cur.expect(Tok::Arrow)?;
            let output = ctx.chan_ref(cur)?;
            Ok(ProcKind::Prelude {
                values,
                input,
                output,
            })
        }
        "map" => {
            let map = ctx.map_spec(cur)?;
            let input = ctx.chan_ref(cur)?;
            cur.expect(Tok::Arrow)?;
            let output = ctx.chan_ref(cur)?;
            Ok(ProcKind::Map { map, input, output })
        }
        "filter" => {
            let pred = ctx.pred_spec(cur)?;
            let input = ctx.chan_ref(cur)?;
            cur.expect(Tok::Arrow)?;
            let output = ctx.chan_ref(cur)?;
            Ok(ProcKind::Filter {
                pred,
                input,
                output,
            })
        }
        "merge" => {
            let bound = if cur.eat(&Tok::LParen) {
                let k = parse_int::<usize>(cur, "merge bound", "a usize")?;
                cur.expect(Tok::RParen)?;
                if k == 0 || k > ctx.limits.max_merge_bound {
                    return Err(NetError::OutOfRange {
                        line: cur.line,
                        field: "merge bound",
                        bound: format!("1..={}", ctx.limits.max_merge_bound),
                    });
                }
                k
            } else {
                2
            };
            let left = ctx.chan_ref(cur)?;
            let right = ctx.chan_ref(cur)?;
            cur.expect(Tok::Arrow)?;
            let output = ctx.chan_ref(cur)?;
            Ok(ProcKind::Merge {
                bound,
                left,
                right,
                output,
            })
        }
        "delay" => {
            let initial = ctx.value_list(cur)?;
            let input = ctx.chan_ref(cur)?;
            cur.expect(Tok::Arrow)?;
            let output = ctx.chan_ref(cur)?;
            Ok(ProcKind::Delay {
                initial,
                input,
                output,
            })
        }
        "zip" => {
            let zip = ctx.zip_spec(cur)?;
            let left = ctx.chan_ref(cur)?;
            let right = ctx.chan_ref(cur)?;
            cur.expect(Tok::Arrow)?;
            let output = ctx.chan_ref(cur)?;
            Ok(ProcKind::Zip {
                zip,
                left,
                right,
                output,
            })
        }
        "expr" => {
            let output = ctx.chan_ref(cur)?;
            cur.expect(Tok::Define)?;
            let expr = ctx.bounded_expr(cur)?;
            Ok(ProcKind::Expr { output, expr })
        }
        other => Err(cur.err(format!("unknown process kind `{other}`"))),
    }
}

/// Per-process semantic checks: distinct inputs, output disjoint from
/// inputs, and (for `expr` processes) incremental runnability.
fn check_proc(
    ctx: &Ctx<'_>,
    cur: &Cursor<'_>,
    _name: &str,
    kind: &ProcKind,
) -> Result<(), NetError> {
    let inputs = kind.inputs();
    let output = kind.output();
    for (i, a) in inputs.iter().enumerate() {
        if inputs[i + 1..].contains(a) {
            return Err(NetError::Duplicate {
                line: cur.line,
                what: "input channel",
                name: ctx.chan_name(*a),
            });
        }
    }
    if let ProcKind::Expr { expr, .. } = kind {
        if expr.channels().contains(output) {
            return Err(NetError::NotIncremental {
                line: cur.line,
                why: "expression reads its own output channel".into(),
            });
        }
        if expr.compile().eval(&Trace::empty()).is_infinite() {
            return Err(NetError::NotIncremental {
                line: cur.line,
                why: "expression is an infinite constant, which no process can emit".into(),
            });
        }
    } else if inputs.contains(&output) {
        return Err(NetError::Parse {
            line: cur.line,
            why: "process output must differ from its inputs".into(),
        });
    }
    Ok(())
}

impl Ctx<'_> {
    /// Best-effort reverse lookup for diagnostics.
    fn chan_name(&self, c: Chan) -> String {
        for (n, k) in &self.chans {
            if *k == c {
                return n.clone();
            }
        }
        format!("#{}", c.index())
    }
}

/// Whole-program wiring check: every channel has at most one producer and
/// at most one consumer — the Kahn single-writer/single-reader discipline
/// the runtime's `Network::add` enforces by panicking, which tenant input
/// must never be able to reach.
fn check_wiring(ctx: &Ctx<'_>) -> Result<(), NetError> {
    let mut producer: HashMap<u32, &str> = HashMap::new();
    let mut consumer: HashMap<u32, &str> = HashMap::new();
    for p in &ctx.procs {
        let out = p.kind.output();
        if let Some(first) = producer.insert(out.index(), &p.name) {
            return Err(NetError::WiringConflict {
                role: "producer",
                chan: ctx.chan_name(out),
                first: first.to_string(),
                second: p.name.clone(),
            });
        }
        for c in p.kind.inputs() {
            if let Some(first) = consumer.insert(c.index(), &p.name) {
                return Err(NetError::WiringConflict {
                    role: "consumer",
                    chan: ctx.chan_name(c),
                    first: first.to_string(),
                    second: p.name.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lim() -> NetLimits {
        NetLimits::default()
    }

    const FIG1: &str = "net fig1\n\
                        chan b = 0\n\
                        chan c = 1\n\
                        proc top = copy b -> c\n\
                        proc bottom = prelude [0] c -> b\n\
                        eq c <= b\n\
                        eq b <= concat([0], c)\n";

    #[test]
    fn parses_figure_one() {
        let p = parse(FIG1, &lim()).unwrap();
        assert_eq!(p.name(), "fig1");
        assert_eq!(p.channels().len(), 2);
        assert_eq!(p.procs().len(), 2);
        assert_eq!(p.equations().len(), 2);
        let net = p.build(0);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn comments_blanks_and_values() {
        let src = "# a comment\n\
                   chan b = 0\n\n\
                   proc s = const b [1 -2 T F (3,4)]  # trailing comment\n";
        let p = parse(src, &lim()).unwrap();
        match &p.procs()[0].kind {
            ProcKind::Const { values, .. } => {
                assert_eq!(
                    values,
                    &[
                        Value::Int(1),
                        Value::Int(-2),
                        Value::Bit(true),
                        Value::Bit(false),
                        Value::Pair(3, 4)
                    ]
                );
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn unknown_channel_is_typed() {
        let e = parse("chan b = 0\nproc p = copy b -> nope\n", &lim()).unwrap_err();
        assert_eq!(
            e,
            NetError::UnknownChannel {
                line: 2,
                name: "nope".into()
            }
        );
    }

    #[test]
    fn reserved_names_rejected() {
        let e = parse("chan filter = 0\n", &lim()).unwrap_err();
        assert!(matches!(e, NetError::Reserved { line: 1, .. }), "{e}");
    }

    #[test]
    fn duplicate_channel_index_rejected() {
        let e = parse("chan a = 0\nchan b = 0\n", &lim()).unwrap_err();
        assert!(
            matches!(
                e,
                NetError::Duplicate {
                    what: "channel index",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn two_consumers_rejected_before_network_add_can_panic() {
        let src = "chan b = 0\nchan c = 1\nchan d = 2\n\
                   proc s = const b [1]\n\
                   proc p = copy b -> c\n\
                   proc q = copy b -> d\n";
        let e = parse(src, &lim()).unwrap_err();
        assert!(
            matches!(
                e,
                NetError::WiringConflict {
                    role: "consumer",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn two_producers_rejected() {
        let src = "chan b = 0\nproc s = const b [1]\nproc t = const b [2]\n";
        let e = parse(src, &lim()).unwrap_err();
        assert!(
            matches!(
                e,
                NetError::WiringConflict {
                    role: "producer",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn deep_nesting_hits_depth_budget() {
        let mut expr = String::from("b");
        for _ in 0..100 {
            expr = format!("map(untag, {expr})");
        }
        let src = format!("chan b = 0\nchan c = 1\nproc p = expr c := {expr}\n");
        let e = parse(&src, &lim()).unwrap_err();
        assert!(matches!(e, NetError::TooDeep { .. }), "{e}");
    }

    #[test]
    fn depth_exactly_at_cap_is_accepted() {
        let l = lim();
        // Depth counts every expr() call; a chain of (max_depth - 1) maps
        // around a channel leaf uses exactly max_depth levels.
        let mut expr = String::from("b");
        for _ in 0..l.max_depth - 1 {
            expr = format!("map(untag, {expr})");
        }
        let src = format!("chan b = 0\nchan c = 1\nproc p = expr c := {expr}\n");
        parse(&src, &l).unwrap();
        let over = format!("chan b = 0\nchan c = 1\nproc p = expr c := map(untag, {expr})\n");
        assert!(matches!(
            parse(&over, &l).unwrap_err(),
            NetError::TooDeep { .. }
        ));
    }

    #[test]
    fn alphabet_budget_at_cap_and_over() {
        let l = NetLimits {
            max_seq_values: 4,
            ..lim()
        };
        parse("chan b = 0\nproc s = const b [1 2 3 4]\n", &l).unwrap();
        let e = parse("chan b = 0\nproc s = const b [1 2 3 4 5]\n", &l).unwrap_err();
        assert_eq!(
            e,
            NetError::Oversized {
                field: "max_seq_values",
                limit: 4,
                got: 5
            }
        );
    }

    #[test]
    fn channel_count_budget() {
        let l = NetLimits {
            max_channels: 3,
            ..lim()
        };
        let mut src = String::new();
        for i in 0..4 {
            src.push_str(&format!("chan c{i} = {i}\n"));
        }
        let e = parse(&src, &l).unwrap_err();
        assert_eq!(
            e,
            NetError::Oversized {
                field: "max_channels",
                limit: 3,
                got: 4
            }
        );
    }

    #[test]
    fn oversized_source_rejected_before_scanning() {
        let l = NetLimits {
            max_source_bytes: 16,
            ..lim()
        };
        let e = parse("chan b = 0\nproc s = const b [1]\n", &l).unwrap_err();
        assert!(
            matches!(
                e,
                NetError::Oversized {
                    field: "max_source_bytes",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(parse("", &lim()).unwrap_err(), NetError::Empty);
        assert_eq!(parse("chan b = 0\n", &lim()).unwrap_err(), NetError::Empty);
    }

    #[test]
    fn expr_proc_reading_own_output_rejected() {
        let src = "chan b = 0\nproc p = expr b := map(untag, b)\n";
        let e = parse(src, &lim()).unwrap_err();
        assert!(matches!(e, NetError::NotIncremental { .. }), "{e}");
    }

    #[test]
    fn infinite_constant_expr_proc_rejected() {
        let src = "chan b = 0\nproc p = expr b := loop([],[1])\n";
        let e = parse(src, &lim()).unwrap_err();
        assert!(matches!(e, NetError::NotIncremental { .. }), "{e}");
    }

    #[test]
    fn nested_cyclic_constant_expr_proc_runs() {
        let (a, b) = (Chan::new(0), Chan::new(1));
        let src = "chan a = 0\nchan b = 1\nproc s = const a [1 2 3 4 5]\n\
                   proc p = expr b := zip(add, a, loop([7],[1 10]))\n";
        let p = parse(src, &lim()).unwrap();
        let ProcKind::Expr { expr, .. } = &p.procs()[1].kind else {
            panic!("an expr process");
        };
        let run = p.build(0).run(
            &mut eqp_kahn::RoundRobin::new(),
            eqp_kahn::RunOptions::default(),
        );
        assert_eq!(run.trace.seq_on(a).take(9).len(), 5);
        assert_eq!(run.trace.seq_on(b), expr.eval(&run.trace));
        assert_eq!(
            run.trace.seq_on(b).take(9),
            [8, 3, 13, 5, 15].map(Value::Int)
        );
    }

    #[test]
    fn merge_bound_and_steps_ranges() {
        let src = "chan a = 0\nchan b = 1\nchan c = 2\n\
                   proc s = const a [1]\nproc t = const b [2]\n\
                   proc m = merge(0) a b -> c\n";
        assert!(matches!(
            parse(src, &lim()).unwrap_err(),
            NetError::OutOfRange {
                field: "merge bound",
                ..
            }
        ));
        assert!(matches!(
            parse("steps 0\nchan b = 0\nproc s = const b [1]\n", &lim()).unwrap_err(),
            NetError::OutOfRange { field: "steps", .. }
        ));
    }

    #[test]
    fn arrows_and_hyphenated_names_coexist() {
        let src = "chan env-c = 0\nchan out = 1\nproc env-src = const env-c [1]\nproc p = copy env-c -> out\n";
        let p = parse(src, &lim()).unwrap();
        assert_eq!(p.channels()[0].0, "env-c");
        assert_eq!(p.procs()[1].name, "p");
    }

    #[test]
    fn garbage_never_panics_and_always_types() {
        for src in [
            "proc",
            "chan = =",
            "eq <= <=",
            "proc p = merge",
            "\u{0}\u{1}\u{2}",
            "chan b = 99999999999999999999",
            "proc p = zip b",
            "net",
            "steps steps",
            "[1 2 3]",
            "chan b = 0\nproc p = expr b := skip(-1, b)\n",
        ] {
            let r = std::panic::catch_unwind(|| parse(src, &lim()));
            let inner = r.expect("parser panicked");
            assert!(inner.is_err(), "accepted garbage: {src:?}");
        }
    }
}
