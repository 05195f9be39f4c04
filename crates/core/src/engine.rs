//! The prefix-sharing, incrementally evaluating enumeration engine for the
//! Section 3.3 tree — sequential ([`enumerate_memo`]) and parallel
//! ([`enumerate_par`]) drivers over the same level-synchronous core.
//!
//! Both produce results **identical** to [`crate::enumerate::enumerate`]
//! (same solutions, dead ends, frontier, visit count, truncation flag, all
//! in the same order) while avoiding the seed engine's two per-node
//! O(depth) costs:
//!
//! * **Traces** live in a [`ChainArena`]: extending a node by one event is
//!   one arena push instead of a `Vec` copy, and sibling subtrees share
//!   their common prefix storage.
//! * **Description sides** are evaluated *incrementally* off the **compiled
//!   IR**: each side's [`CompiledExpr`] (fused instructions, interned
//!   channel masks — see [`eqp_seqfn::compile`]) is cached on the
//!   [`Description`], each node carries a [`CompiledDeltaState`] per
//!   supported side, and the feasibility test `f(u·e) ⊑ g(u)` inspects
//!   only the values *appended* by the new event. Sides that do not
//!   support delta evaluation (infinite constants, opaque custom functions
//!   without the [`eqp_seqfn::SeqFunction::delta_init`] hook) fall back to
//!   full re-evaluation, exactly as the seed engine does for every side.
//!
//! # Why the delta check is sound
//!
//! For every node `u` admitted into the tree (other than the root, which
//! is verified directly), the engine maintains the invariant
//! `f_i(u) ⊑ g_i(u)` per equation: admission checked `f_i(u) ⊑ g_i(p)` for
//! the parent `p`, and `g_i` is monotone, so `g_i(p) ⊑ g_i(u)`. Feasibility
//! of a child `u·e` therefore only requires comparing the values `Δ` that
//! `f_i` appends against `g_i(u)` at positions `|f_i(u)|‥|f_i(u)|+|Δ|` —
//! O(|Δ| log depth) instead of O(depth). The same invariant collapses the
//! limit condition `f_i(u) = g_i(u)` to a pair of length comparisons.
//!
//! # Flat level tables
//!
//! A BFS level is a handful of flat tables, not a `Vec` of node structs:
//! the nodes' trace chains, one table of sides with stride `2·arity`
//! (`f_0‥f_{a-1}`, then `g_0‥g_{a-1}`), and the depth, stored once. Each
//! worker writes one output buffer per level — a record per visited node,
//! then the event and `2·arity` sides of every admitted child, in order,
//! and one shared run of appended values that the child sides address by
//! count. The buffers, the level tables and the workers' scratch machines
//! keep their allocations from level to level.
//!
//! # Why a stateless machine can be shared
//!
//! A side whose compiled machine is a chain of pointwise maps and filters
//! ([`CompiledDeltaState::is_stateless`]) has no state that stepping can
//! change: the values an event appends depend on the event alone. Every
//! node of the tree can therefore hold the *same* machine — a child gets
//! an `Arc::clone` of its parent's, and candidates step it through `&self`
//! ([`CompiledDeltaState::step_shared`]). Any other machine is stepped on
//! the worker's scratch copy of that side, reset from the parent by
//! `clone_from` (which reuses the copy's allocations), and is cloned into
//! a fresh `Arc` only when the child is admitted; that clone leaves out
//! the machine's scratch append buffers.
//!
//! # Why probes and rejected candidates allocate nothing
//!
//! A candidate's appended values go straight into the worker's shared
//! output run, and its check reads them there. A rejected candidate — and
//! every candidate of the depth-bound `has_son` probe, which only asks
//! whether one exists — truncates the run back to where the candidate
//! began, so it leaves no trace and, once the buffers have grown, costs
//! no allocation. On the incremental path, only an admitted child that
//! stepped a stateful machine allocates: the `Arc` holding its copy of
//! that machine. (A `Full` side re-evaluates from a materialized trace,
//! which allocates, exactly as the seed does.)
//!
//! # Why the parallel driver is deterministic
//!
//! Levels are processed synchronously. Before a level is dispatched, the
//! node budget clamps it to a *prefix* (making the visited set independent
//! of thread timing), workers receive contiguous chunks of the level and
//! only ever read the (frozen) arenas, and the single-threaded merge then
//! appends results and child chains in level order. Every observable field
//! of the [`Enumeration`] is thus byte-identical for any thread count —
//! property-tested against the seed engine in `tests/engine_equiv.rs`.

use crate::description::{Alphabet, Description};
use crate::enumerate::{EnumOptions, Enumeration};
use eqp_seqfn::{CompiledDeltaState, CompiledExpr};
use eqp_trace::{ChainArena, ChainId, Event, Seq, Trace, Value};
use std::sync::Arc;

/// One side (one equation's `f_i` or `g_i`) of one node.
///
/// States are held behind `Arc` so that a child shares its parent's state
/// instead of copying it whenever the new event leaves that state as it
/// was: the event lies outside the side's channel support, or the machine
/// is stateless.
#[derive(Debug)]
enum Side {
    /// Incrementally evaluated: the delta state after this node's trace,
    /// and the (finite) output so far as a chain in the value arena.
    Inc {
        state: Arc<CompiledDeltaState>,
        chain: ChainId,
    },
    /// Delta evaluation unsupported: recompute from the trace on demand.
    Full,
}

/// One BFS level as flat tables: node `k` has trace `traces[k]` and sides
/// `sides[2a·k‥2a·(k+1)]` for arity `a` — `f_0‥f_{a-1}`, then
/// `g_0‥g_{a-1}`.
#[derive(Debug, Default)]
struct Level {
    depth: usize,
    traces: Vec<ChainId>,
    sides: Vec<Side>,
}

impl Level {
    fn clear(&mut self, depth: usize) {
        self.depth = depth;
        self.traces.clear();
        self.sides.clear();
    }
}

/// A side of an admitted child, as a worker reports it.
enum ChildSide {
    /// The child's machine, and how many values the side appended: they
    /// follow the previous `Inc` side's values in [`Out::deltas`].
    Inc {
        state: Arc<CompiledDeltaState>,
        appended: usize,
    },
    Full,
}

/// What a worker reports about one visited node.
struct NodeOut {
    is_solution: bool,
    /// Meaningful only at the depth bound (children are not expanded
    /// there).
    has_son: bool,
    /// Admitted children, whose events and sides follow the previous
    /// node's in [`Out`].
    children: usize,
}

/// One worker's output for its chunk of a level, in node order. Arena
/// pushes are deferred to the sequential merge, so workers never mutate
/// shared state.
#[derive(Default)]
struct Out {
    nodes: Vec<NodeOut>,
    child_events: Vec<Event>,
    /// `2·arity` per admitted child.
    child_sides: Vec<ChildSide>,
    /// The values every `Inc` child side appended, back to back.
    deltas: Vec<Value>,
}

/// `g_i(u)` at the current node, however it is represented.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    Chain(ChainId),
    Seq(&'a Seq),
}

impl Rhs<'_> {
    fn get(self, values: &ChainArena<Value>, k: usize) -> Option<Value> {
        match self {
            Rhs::Chain(c) => values.get(c, k).copied(),
            Rhs::Seq(s) => s.get(k).copied(),
        }
    }

    fn len_is(self, values: &ChainArena<Value>, n: usize) -> bool {
        match self {
            Rhs::Chain(c) => values.chain_len(c) == n,
            Rhs::Seq(s) => s.len().as_finite() == Some(n),
        }
    }

    fn len_at_least(self, values: &ChainArena<Value>, n: usize) -> bool {
        match self {
            Rhs::Chain(c) => values.chain_len(c) >= n,
            Rhs::Seq(s) => s.len().as_finite().is_none_or(|m| m >= n),
        }
    }
}

struct Ctx<'a> {
    alphabet: &'a Alphabet,
    max_depth: usize,
    arity: usize,
    /// Per-equation compiled IR for `f_i` / `g_i`, cached on the
    /// description.
    lhs_fns: &'a [CompiledExpr],
    rhs_fns: &'a [CompiledExpr],
    /// Per side slot (`f_0‥f_{a-1}`, then `g_0‥g_{a-1}`): the slot's
    /// machine is stateless, so nodes share it. Stepping changes no
    /// machine's shape, so the root's machines decide for the whole tree.
    stateless: Vec<bool>,
    /// Some side is `Full`, so every node needs its [`Fallback`] view.
    /// Fixed for the whole tree, like `stateless`.
    fallback: bool,
}

/// What the full re-evaluation fallback needs at a node: its trace, and
/// `g_i(u)` as a sequence for every `Full` `g_i` — and for every `g_i`
/// when some `f_i` is `Full` (compared by `⊑` on whole sequences).
struct Fallback {
    events: Vec<Event>,
    rhs: Vec<Option<Seq>>,
}

impl Fallback {
    fn new(sh: &Shared<'_>, trace: ChainId, lhs: &[Side], rhs: &[Side]) -> Fallback {
        let events = sh.events.items(trace);
        let t = Trace::finite(events.clone());
        let any_full_lhs = lhs.iter().any(|s| matches!(s, Side::Full));
        let rhs = rhs
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                Side::Full => Some(sh.ctx.rhs_fns[i].eval(&t)),
                Side::Inc { chain, .. } => {
                    any_full_lhs.then(|| Seq::finite(sh.values.items(*chain)))
                }
            })
            .collect();
        Fallback { events, rhs }
    }

    /// `g_i(u)` as a sequence, for comparing a `Full` `f_i`.
    fn rhs(&self, i: usize) -> &Seq {
        self.rhs[i]
            .as_ref()
            .expect("g_i(u) evaluated for this Full side")
    }

    /// `f_i` re-evaluated on the node's trace extended by `ev`.
    fn lhs_after(&self, ctx: &Ctx<'_>, i: usize, ev: Option<Event>) -> Seq {
        let mut evs = self.events.clone();
        evs.extend(ev);
        ctx.lhs_fns[i].eval(&Trace::finite(evs))
    }
}

/// What workers share while a level is processed: the frozen arenas and
/// the level's tables.
struct Shared<'a> {
    ctx: &'a Ctx<'a>,
    events: &'a ChainArena<Event>,
    values: &'a ChainArena<Value>,
    level: &'a Level,
    /// Only the root level lacks the prefix invariant.
    verify_base: bool,
}

/// One worker: its output buffer and, per side slot, the scratch machine a
/// stateful side is stepped on.
struct Worker {
    out: Out,
    scratch: Vec<Option<CompiledDeltaState>>,
    /// Per side slot, the end of its appended values in `out.deltas` for
    /// the candidate being tried.
    ends: Vec<usize>,
}

impl Worker {
    fn new(slots: usize) -> Worker {
        Worker {
            out: Out::default(),
            scratch: vec![None; slots],
            ends: vec![0; slots],
        }
    }

    /// Steps slot `j`'s machine `state` by `ev`, appending to
    /// `out.deltas`: through `&` when stateless, else on the scratch copy.
    fn step(&mut self, ctx: &Ctx<'_>, j: usize, state: &CompiledDeltaState, ev: Event) {
        if ctx.stateless[j] {
            state.step_shared(ev, &mut self.out.deltas);
            return;
        }
        let m = match &mut self.scratch[j] {
            Some(m) => {
                m.clone_from(state);
                m
            }
            none => none.insert(state.clone()),
        };
        m.step_into(ev, &mut self.out.deltas);
    }

    /// Visits node `k` of the level: its limit condition, then its
    /// children (or, at the depth bound, whether it has one).
    fn visit(&mut self, sh: &Shared<'_>, k: usize) {
        let ctx = sh.ctx;
        let a = ctx.arity;
        let sides = &sh.level.sides[2 * a * k..2 * a * (k + 1)];
        let (lhs, rhs) = sides.split_at(a);
        let fb = ctx
            .fallback
            .then(|| Fallback::new(sh, sh.level.traces[k], lhs, rhs));
        let fb = fb.as_ref();

        // Limit condition f(u) = g(u). With the prefix invariant (non-root),
        // per-equation equality is exactly length equality; the root
        // verifies contents too.
        let is_solution = lhs.iter().enumerate().all(|(i, side)| match side {
            Side::Inc { chain, .. } => {
                let l = sh.values.chain_len(*chain);
                let g = rhs_view(rhs, fb, i);
                g.len_is(sh.values, l)
                    && (!sh.verify_base
                        || (0..l).all(|p| sh.values.get(*chain, p).copied() == g.get(sh.values, p)))
            }
            Side::Full => {
                let fb = fb.expect("fallback view");
                fb.lhs_after(ctx, i, None) == *fb.rhs(i)
            }
        });

        let probe = sh.level.depth >= ctx.max_depth;
        let mut has_son = false;
        let mut children = 0;
        'events: for (c, msgs) in ctx.alphabet.iter() {
            for m in msgs {
                if self.try_child(sh, lhs, rhs, fb, Event::new(c, *m), !probe) {
                    if probe {
                        has_son = true;
                        break 'events;
                    }
                    children += 1;
                }
            }
        }
        self.out.nodes.push(NodeOut {
            is_solution,
            has_son,
            children,
        });
    }

    /// Tests `f(u·ev) ⊑ g(u)`. With `admit`, an admitted child's event and
    /// sides go to the output; without it (the depth-bound `has_son`
    /// probe) only existence matters and nothing is kept. Either way a
    /// rejected candidate leaves the output as it found it.
    fn try_child(
        &mut self,
        sh: &Shared<'_>,
        lhs: &[Side],
        rhs: &[Side],
        fb: Option<&Fallback>,
        ev: Event,
        admit: bool,
    ) -> bool {
        let ctx = sh.ctx;
        let values = sh.values;
        let a = ctx.arity;
        let mark = self.out.deltas.len();
        for (i, side) in lhs.iter().enumerate() {
            let ok = match side {
                Side::Inc { state, chain } => {
                    let reads = state.reads(ev.chan);
                    // A foreign event appends nothing; `f_i(u) ⊑ g_i(u)`
                    // (the invariant) is then already the whole check.
                    if reads || sh.verify_base {
                        let start = self.out.deltas.len();
                        if reads {
                            self.step(ctx, i, state, ev);
                        }
                        let l = values.chain_len(*chain);
                        let g = rhs_view(rhs, fb, i);
                        let delta = &self.out.deltas[start..];
                        g.len_at_least(values, l + delta.len())
                            // The root's prefix invariant is not
                            // established yet: verify the already-emitted
                            // values too.
                            && (!sh.verify_base
                                || (0..l).all(|p| {
                                    values.get(*chain, p).copied() == g.get(values, p)
                                }))
                            && delta
                                .iter()
                                .enumerate()
                                .all(|(p, v)| Some(*v) == g.get(values, l + p))
                    } else {
                        true
                    }
                }
                Side::Full => {
                    let fb = fb.expect("fallback view");
                    fb.lhs_after(ctx, i, Some(ev)).leq(fb.rhs(i))
                }
            };
            if !ok {
                self.out.deltas.truncate(mark);
                return false;
            }
            self.ends[i] = self.out.deltas.len();
        }
        if !admit {
            self.out.deltas.truncate(mark);
            return true;
        }
        for (i, side) in rhs.iter().enumerate() {
            if let Side::Inc { state, .. } = side {
                if state.reads(ev.chan) {
                    self.step(ctx, a + i, state, ev);
                }
            }
            self.ends[a + i] = self.out.deltas.len();
        }
        // Admitted: only now are stepped stateful machines copied out of
        // scratch.
        let mut prev = mark;
        for (j, side) in lhs.iter().chain(rhs).enumerate() {
            let child = match side {
                Side::Inc { state, .. } => {
                    let state = if state.reads(ev.chan) && !ctx.stateless[j] {
                        Arc::new(self.scratch[j].as_ref().expect("stepped").clone())
                    } else {
                        Arc::clone(state)
                    };
                    let appended = self.ends[j] - prev;
                    prev = self.ends[j];
                    ChildSide::Inc { state, appended }
                }
                Side::Full => ChildSide::Full,
            };
            self.out.child_sides.push(child);
        }
        self.out.child_events.push(ev);
        true
    }
}

/// `g_i(u)` at a node with right sides `rhs`.
fn rhs_view<'v>(rhs: &[Side], fb: Option<&'v Fallback>, i: usize) -> Rhs<'v> {
    match &rhs[i] {
        Side::Inc { chain, .. } => Rhs::Chain(*chain),
        Side::Full => Rhs::Seq(fb.expect("fallback view").rhs(i)),
    }
}

/// Visits every node of `sh.level` on up to `workers.len()` threads,
/// returning how many workers' outputs hold the level, in order.
fn process_level(sh: &Shared<'_>, workers: &mut [Worker]) -> usize {
    let len = sh.level.traces.len();
    // Contiguous chunks keep the merge a simple in-order concatenation:
    // determinism comes from *where* results land, not from when workers
    // finish.
    let chunk = len.div_ceil(workers.len());
    let used = len.div_ceil(chunk);
    if used == 1 {
        for k in 0..len {
            workers[0].visit(sh, k);
        }
        return 1;
    }
    std::thread::scope(|s| {
        for (i, w) in workers[..used].iter_mut().enumerate() {
            s.spawn(move || {
                for k in i * chunk..((i + 1) * chunk).min(len) {
                    w.visit(sh, k);
                }
            });
        }
    });
    used
}

fn run(desc: &Description, alphabet: &Alphabet, opts: EnumOptions, threads: usize) -> Enumeration {
    let (lhs_fns, rhs_fns) = (desc.lhs_compiled(), desc.rhs_compiled());
    let a = desc.arity();
    let mut events: ChainArena<Event> = ChainArena::new();
    let mut values: ChainArena<Value> = ChainArena::new();

    let mut level = Level::default();
    level.traces.push(ChainId::EMPTY);
    for f in lhs_fns.iter().chain(rhs_fns) {
        level.sides.push(match f.delta_init() {
            Some((state, out)) => {
                let mut chain = ChainId::EMPTY;
                for v in out {
                    chain = values.push(chain, v);
                }
                Side::Inc {
                    state: Arc::new(state),
                    chain,
                }
            }
            None => Side::Full,
        });
    }
    let ctx = Ctx {
        alphabet,
        max_depth: opts.max_depth,
        arity: a,
        lhs_fns,
        rhs_fns,
        stateless: level
            .sides
            .iter()
            .map(|s| matches!(s, Side::Inc { state, .. } if state.is_stateless()))
            .collect(),
        fallback: level.sides.iter().any(|s| matches!(s, Side::Full)),
    };

    let mut out = Enumeration {
        solutions: Vec::new(),
        dead_ends: Vec::new(),
        frontier: Vec::new(),
        nodes_visited: 0,
        truncated: false,
    };
    let mut next = Level::default();
    let mut workers: Vec<Worker> = Vec::new();
    let mut verify_base = true; // only the root level lacks the invariant

    while !level.traces.is_empty() {
        let remaining = opts.max_nodes.saturating_sub(out.nodes_visited);
        let truncated_here = remaining < level.traces.len();
        if truncated_here {
            // Matches the seed BFS exactly: it stops at the first pop past
            // the budget, having visited precisely `remaining` more nodes
            // of this level (FIFO ⇒ levels are contiguous in the queue).
            out.truncated = true;
            level.traces.truncate(remaining);
            level.sides.truncate(remaining * 2 * a);
        }
        if level.traces.is_empty() {
            break;
        }
        out.nodes_visited += level.traces.len();
        let want = threads.clamp(1, level.traces.len());
        while workers.len() < want {
            workers.push(Worker::new(2 * a));
        }
        let sh = Shared {
            ctx: &ctx,
            events: &events,
            values: &values,
            level: &level,
            verify_base,
        };
        let used = process_level(&sh, &mut workers[..want]);

        next.clear(level.depth + 1);
        let at_bound = level.depth >= ctx.max_depth;
        let mut k = 0;
        for w in &mut workers[..used] {
            let Out {
                nodes,
                child_events,
                child_sides,
                deltas,
            } = &mut w.out;
            let mut child_sides = child_sides.drain(..);
            let mut child_events = child_events.drain(..);
            let mut cursor = 0;
            for node in nodes.drain(..) {
                let trace = level.traces[k];
                let parent = &level.sides[2 * a * k..2 * a * (k + 1)];
                k += 1;
                if node.is_solution {
                    out.solutions.push(Trace::finite(events.items(trace)));
                }
                if at_bound {
                    if node.has_son {
                        out.frontier.push(Trace::finite(events.items(trace)));
                    } else if !node.is_solution {
                        out.dead_ends.push(Trace::finite(events.items(trace)));
                    }
                    continue;
                }
                if node.children == 0 && !node.is_solution {
                    out.dead_ends.push(Trace::finite(events.items(trace)));
                }
                if truncated_here {
                    continue; // children of the last visited nodes are never reached
                }
                for _ in 0..node.children {
                    let ev = child_events.next().expect("one event per child");
                    next.traces.push(events.push(trace, ev));
                    for p in parent {
                        let side = match (child_sides.next().expect("2a sides per child"), p) {
                            (ChildSide::Inc { state, appended }, Side::Inc { chain, .. }) => {
                                let mut c = *chain;
                                for v in &deltas[cursor..cursor + appended] {
                                    c = values.push(c, *v);
                                }
                                cursor += appended;
                                Side::Inc { state, chain: c }
                            }
                            _ => Side::Full,
                        };
                        next.sides.push(side);
                    }
                }
            }
            deltas.clear();
        }
        if truncated_here {
            break;
        }
        std::mem::swap(&mut level, &mut next);
        verify_base = false;
    }
    out
}

/// Sequential prefix-sharing, incrementally evaluating enumeration of the
/// Section 3.3 tree — same results as [`crate::enumerate::enumerate`],
/// without the per-node O(depth) replay.
pub fn enumerate_memo(desc: &Description, alphabet: &Alphabet, opts: EnumOptions) -> Enumeration {
    run(desc, alphabet, opts, 1)
}

/// Parallel frontier expansion over `threads` worker threads
/// (`threads = 0` uses the machine's available parallelism).
///
/// Results are **byte-identical** to [`enumerate_memo`] — and hence to the
/// seed [`crate::enumerate::enumerate`] — for every thread count; see the
/// module docs for why.
///
/// # Example
///
/// ```
/// use eqp_core::{enumerate, enumerate_par, Alphabet, Description, EnumOptions};
/// use eqp_seqfn::paper::{ch, r_map, t_bar};
/// use eqp_trace::Chan;
///
/// let b = Chan::new(0);
/// let desc = Description::new("random-bit").equation(r_map(ch(b)), t_bar());
/// let alpha = Alphabet::new().with_bits(b);
/// let seq = enumerate(&desc, &alpha, EnumOptions::default());
/// let par = enumerate_par(&desc, &alpha, EnumOptions::default(), 4);
/// assert_eq!(par.solutions, seq.solutions);
/// assert_eq!(par.nodes_visited, seq.nodes_visited);
/// ```
pub fn enumerate_par(
    desc: &Description,
    alphabet: &Alphabet,
    opts: EnumOptions,
    threads: usize,
) -> Enumeration {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    run(desc, alphabet, opts, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate;
    use eqp_seqfn::paper::{
        ch, count_ticks, even, odd, oracle_false, oracle_true, r_map, t_bar, until_first_false,
    };
    use eqp_seqfn::SeqExpr;
    use eqp_trace::{Chan, Value};

    fn b() -> Chan {
        Chan::new(0)
    }
    fn c() -> Chan {
        Chan::new(1)
    }
    fn d() -> Chan {
        Chan::new(2)
    }

    fn assert_same(a: &Enumeration, e: &Enumeration) {
        assert_eq!(a.solutions, e.solutions, "solutions differ");
        assert_eq!(a.dead_ends, e.dead_ends, "dead ends differ");
        assert_eq!(a.frontier, e.frontier, "frontier differs");
        assert_eq!(a.nodes_visited, e.nodes_visited, "visit count differs");
        assert_eq!(a.truncated, e.truncated, "truncation flag differs");
    }

    fn check_all_engines(desc: &Description, alpha: &Alphabet, opts: EnumOptions) {
        let seed = enumerate(desc, alpha, opts);
        assert_same(&enumerate_memo(desc, alpha, opts), &seed);
        for threads in [2, 3, 8] {
            assert_same(&enumerate_par(desc, alpha, opts, threads), &seed);
        }
    }

    #[test]
    fn random_bit_matches_seed() {
        let desc = Description::new("random-bit").equation(r_map(ch(b())), t_bar());
        let alpha = Alphabet::new().with_bits(b());
        check_all_engines(&desc, &alpha, EnumOptions::default());
    }

    #[test]
    fn dfm_matches_seed() {
        let dfm = Description::new("dfm")
            .equation(even(ch(d())), ch(b()))
            .equation(odd(ch(d())), ch(c()));
        let alpha = Alphabet::new()
            .with_chan(b(), [Value::Int(0), Value::Int(2)])
            .with_chan(c(), [Value::Int(1)])
            .with_ints(d(), 0, 2);
        check_all_engines(
            &dfm,
            &alpha,
            EnumOptions {
                max_depth: 4,
                max_nodes: 50_000,
            },
        );
    }

    #[test]
    fn ticks_infinite_rhs_falls_back_and_matches() {
        // t_bar() is the infinite constant T̄ — no delta support on that
        // side, exercising the Full fallback path.
        let ticks = Description::new("ticks").defines(b(), SeqExpr::concat([Value::tt()], ch(b())));
        let alpha = Alphabet::new().with_chan(b(), [Value::tt()]);
        check_all_engines(
            &ticks,
            &alpha,
            EnumOptions {
                max_depth: 5,
                max_nodes: 100,
            },
        );
    }

    #[test]
    fn truncation_matches_seed_exactly() {
        let chaos = Description::new("chaos").equation(SeqExpr::epsilon(), SeqExpr::epsilon());
        let alpha = Alphabet::new().with_ints(b(), 0, 9);
        // Sweep caps across level boundaries: 1+10+100+1000 node levels.
        for max_nodes in [0, 1, 5, 10, 11, 12, 110, 111, 500, 1111, 1112, 5000] {
            let opts = EnumOptions {
                max_depth: 3,
                max_nodes,
            };
            check_all_engines(&chaos, &alpha, opts);
        }
    }

    #[test]
    fn select_graphs_and_stateful_chains_match_seed() {
        // Fig. 6's fork: oracle-select graphs on the right, stepped on
        // scratch machines and copied into admitted children.
        let e = Chan::new(3);
        let fork = Description::new("fork")
            .equation(ch(d()), oracle_true(ch(c()), ch(b())))
            .equation(ch(e), oracle_false(ch(c()), ch(b())));
        let alpha = Alphabet::new()
            .with_ints(b(), 0, 1)
            .with_ints(c(), 0, 1)
            .with_ints(d(), 0, 1)
            .with_bits(e);
        let opts = EnumOptions {
            max_depth: 4,
            max_nodes: 50_000,
        };
        check_all_engines(&fork, &alpha, opts);
        // Stateful chains on both sides, over bits.
        let counted = Description::new("counted")
            .equation(ch(d()), count_ticks(ch(c())))
            .equation(until_first_false(ch(b())), SeqExpr::skip(1, ch(c())));
        let alpha = Alphabet::new()
            .with_bits(b())
            .with_bits(c())
            .with_ints(d(), 0, 2);
        check_all_engines(&counted, &alpha, opts);
    }

    #[test]
    fn brock_ackermann_root_with_nonempty_sides() {
        // The eliminated Brock–Ackermann description has rhs(ε) = ⟨0 2⟩ ≠ ε:
        // exercises the root verification path (no prefix invariant yet).
        let desc = crate::description::Description::new("ba")
            .equation(even(ch(d())), SeqExpr::const_ints([0, 2]))
            .equation(odd(ch(d())), SeqExpr::affine(1, 1, even(ch(d()))));
        let alpha = Alphabet::new().with_ints(d(), 0, 3);
        check_all_engines(
            &desc,
            &alpha,
            EnumOptions {
                max_depth: 4,
                max_nodes: 10_000,
            },
        );
    }
}
