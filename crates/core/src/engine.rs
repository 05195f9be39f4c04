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
//!   only the values *appended* by the new event. Sides that do not support delta evaluation (infinite
//!   constants, opaque custom functions without the
//!   [`eqp_seqfn::SeqFunction::delta_init`] hook) transparently fall back
//!   to full re-evaluation, exactly as the seed engine does for every
//!   side.
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
use eqp_trace::{ChainArena, ChainId, Event, Lasso, Seq, Trace, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One side (one equation's `f_i` or `g_i`) of one node.
///
/// States are held behind `Arc` so that a child whose new event lies
/// outside a side's channel support (the common case for multi-channel
/// descriptions: the side provably appends nothing and its state does not
/// change) shares the parent's state instead of deep-cloning it.
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

/// A node of the current BFS level.
#[derive(Debug)]
struct NodeRec {
    trace: ChainId,
    depth: usize,
    lhs: Vec<Side>,
    rhs: Vec<Side>,
}

/// Worker output for one admitted child (arena pushes are deferred to the
/// sequential merge, so workers never mutate shared state).
struct ChildOut {
    event: Event,
    lhs: Vec<SideOut>,
    rhs: Vec<SideOut>,
}

enum SideOut {
    Inc {
        state: Arc<CompiledDeltaState>,
        delta: Vec<Value>,
    },
    Full,
}

/// Worker output for one visited node.
struct NodeOut {
    is_solution: bool,
    /// Meaningful only at the depth bound (children are not expanded
    /// there).
    has_son: bool,
    children: Vec<ChildOut>,
}

/// The right side of one equation at the current node, however it is
/// represented.
enum RhsView {
    Chain(ChainId),
    Lasso(Seq),
}

fn rhs_get(values: &ChainArena<Value>, view: &RhsView, k: usize) -> Option<Value> {
    match view {
        RhsView::Chain(c) => values.get(*c, k).copied(),
        RhsView::Lasso(s) => s.get(k).copied(),
    }
}

fn rhs_len_is(values: &ChainArena<Value>, view: &RhsView, n: usize) -> bool {
    match view {
        RhsView::Chain(c) => values.chain_len(*c) == n,
        RhsView::Lasso(s) => s.len().as_finite() == Some(n),
    }
}

fn rhs_len_at_least(values: &ChainArena<Value>, view: &RhsView, n: usize) -> bool {
    match view {
        RhsView::Chain(c) => values.chain_len(*c) >= n,
        RhsView::Lasso(s) => s.len().as_finite().is_none_or(|m| m >= n),
    }
}

struct Ctx<'a> {
    desc: &'a Description,
    alphabet: &'a Alphabet,
    max_depth: usize,
    /// Per-equation compiled IR for `f_i` / `g_i`, cached on the
    /// description. `reads` is one bitmask test, and can be *smaller* than
    /// the syntactic support when the optimizer erased a subtree (e.g. a
    /// zip against a constant `ε`).
    lhs_fns: &'a [CompiledExpr],
    rhs_fns: &'a [CompiledExpr],
}

/// Everything `process_node` derives from a node before trying events.
struct NodeScratch {
    rhs_views: Vec<RhsView>,
    /// `g_i(u)` as lassos — needed only when some `f_i` lacks delta
    /// support and must be compared via [`Lasso::leq`].
    rhs_lassos: Option<Vec<Seq>>,
    /// The materialized trace events — needed only when some side lacks
    /// delta support.
    u_events: Option<Vec<Event>>,
}

fn make_scratch(
    ctx: &Ctx<'_>,
    events: &ChainArena<Event>,
    values: &ChainArena<Value>,
    node: &NodeRec,
) -> NodeScratch {
    let needs_trace = node
        .lhs
        .iter()
        .chain(node.rhs.iter())
        .any(|s| matches!(s, Side::Full));
    let u_events = needs_trace.then(|| events.items(node.trace));
    let u_trace = u_events.as_ref().map(|evs| Trace::finite(evs.clone()));
    let rhs_views: Vec<RhsView> = node
        .rhs
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            Side::Inc { chain, .. } => RhsView::Chain(*chain),
            Side::Full => RhsView::Lasso(ctx.rhs_fns[i].eval(u_trace.as_ref().expect("trace"))),
        })
        .collect();
    let any_full_lhs = node.lhs.iter().any(|s| matches!(s, Side::Full));
    let rhs_lassos = any_full_lhs.then(|| {
        rhs_views
            .iter()
            .map(|v| match v {
                RhsView::Chain(c) => Lasso::finite(values.items(*c)),
                RhsView::Lasso(s) => s.clone(),
            })
            .collect()
    });
    NodeScratch {
        rhs_views,
        rhs_lassos,
        u_events,
    }
}

/// Tests `f(u·ev) ⊑ g(u)`; on success returns the per-side states and
/// appended values for the child (with `want_child = false`, side outputs
/// are skipped — only existence matters, as in the seed's `has_son`).
#[allow(clippy::too_many_arguments)] // internal; grouping loses clarity
fn check_child(
    ctx: &Ctx<'_>,
    values: &ChainArena<Value>,
    node: &NodeRec,
    scratch: &NodeScratch,
    verify_base: bool,
    ev: Event,
    want_child: bool,
) -> Option<ChildOut> {
    let arity = ctx.desc.arity();
    let mut lhs_out = Vec::with_capacity(if want_child { arity } else { 0 });
    for i in 0..arity {
        match &node.lhs[i] {
            Side::Inc { state, chain } => {
                let foreign = !ctx.lhs_fns[i].reads(ev.chan);
                if foreign && !verify_base {
                    // Appends nothing; `f_i(u) ⊑ g_i(u)` (the invariant)
                    // is already the whole check. Share the state.
                    if want_child {
                        lhs_out.push(SideOut::Inc {
                            state: Arc::clone(state),
                            delta: Vec::new(),
                        });
                    }
                    continue;
                }
                let (next_state, delta) = if foreign {
                    (Arc::clone(state), Vec::new())
                } else {
                    let mut st = (**state).clone();
                    let delta = st.step(ev);
                    (Arc::new(st), delta)
                };
                let l = values.chain_len(*chain);
                let view = &scratch.rhs_views[i];
                if !rhs_len_at_least(values, view, l + delta.len()) {
                    return None;
                }
                if verify_base {
                    // The root's prefix invariant is not established yet:
                    // verify the already-emitted values too.
                    for k in 0..l {
                        if values.get(*chain, k).copied() != rhs_get(values, view, k) {
                            return None;
                        }
                    }
                }
                for (k, v) in delta.iter().enumerate() {
                    if Some(*v) != rhs_get(values, view, l + k) {
                        return None;
                    }
                }
                if want_child {
                    lhs_out.push(SideOut::Inc {
                        state: next_state,
                        delta,
                    });
                }
            }
            Side::Full => {
                let mut evs = scratch.u_events.as_ref().expect("trace").clone();
                evs.push(ev);
                let lhs_v = ctx.lhs_fns[i].eval(&Trace::finite(evs));
                if !lhs_v.leq(&scratch.rhs_lassos.as_ref().expect("lassos")[i]) {
                    return None;
                }
                if want_child {
                    lhs_out.push(SideOut::Full);
                }
            }
        }
    }
    if !want_child {
        return Some(ChildOut {
            event: ev,
            lhs: Vec::new(),
            rhs: Vec::new(),
        });
    }
    let rhs_out = node
        .rhs
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            Side::Inc { state, .. } if !ctx.rhs_fns[i].reads(ev.chan) => SideOut::Inc {
                state: Arc::clone(state),
                delta: Vec::new(),
            },
            Side::Inc { state, .. } => {
                let mut st = (**state).clone();
                let delta = st.step(ev);
                SideOut::Inc {
                    state: Arc::new(st),
                    delta,
                }
            }
            Side::Full => SideOut::Full,
        })
        .collect();
    Some(ChildOut {
        event: ev,
        lhs: lhs_out,
        rhs: rhs_out,
    })
}

fn process_node(
    ctx: &Ctx<'_>,
    events: &ChainArena<Event>,
    values: &ChainArena<Value>,
    node: &NodeRec,
    verify_base: bool,
) -> NodeOut {
    let arity = ctx.desc.arity();
    let scratch = make_scratch(ctx, events, values, node);

    // Limit condition f(u) = g(u). With the prefix invariant (non-root),
    // per-equation equality is exactly length equality; the root verifies
    // contents too.
    let is_solution = (0..arity).all(|i| match &node.lhs[i] {
        Side::Inc { chain, .. } => {
            let l = values.chain_len(*chain);
            rhs_len_is(values, &scratch.rhs_views[i], l)
                && (!verify_base
                    || (0..l).all(|k| {
                        values.get(*chain, k).copied() == rhs_get(values, &scratch.rhs_views[i], k)
                    }))
        }
        Side::Full => {
            let evs = scratch.u_events.as_ref().expect("trace").clone();
            ctx.lhs_fns[i].eval(&Trace::finite(evs))
                == scratch.rhs_lassos.as_ref().expect("lassos")[i]
        }
    });

    if node.depth >= ctx.max_depth {
        let has_son = ctx.alphabet.iter().any(|(c, msgs)| {
            msgs.iter().any(|m| {
                check_child(
                    ctx,
                    values,
                    node,
                    &scratch,
                    verify_base,
                    Event::new(c, *m),
                    false,
                )
                .is_some()
            })
        });
        return NodeOut {
            is_solution,
            has_son,
            children: Vec::new(),
        };
    }

    let mut children = Vec::new();
    for (c, msgs) in ctx.alphabet.iter() {
        for m in msgs {
            if let Some(child) = check_child(
                ctx,
                values,
                node,
                &scratch,
                verify_base,
                Event::new(c, *m),
                true,
            ) {
                children.push(child);
            }
        }
    }
    NodeOut {
        is_solution,
        has_son: false,
        children,
    }
}

fn process_level(
    ctx: &Ctx<'_>,
    events: &ChainArena<Event>,
    values: &ChainArena<Value>,
    level: &[NodeRec],
    verify_base: bool,
    threads: usize,
    visited: &AtomicUsize,
) -> Vec<NodeOut> {
    let workers = threads.clamp(1, level.len());
    if workers == 1 {
        return level
            .iter()
            .map(|nd| {
                visited.fetch_add(1, Ordering::Relaxed);
                process_node(ctx, events, values, nd, verify_base)
            })
            .collect();
    }
    // Contiguous chunks keep the merge a simple in-order concatenation:
    // determinism comes from *where* results land, not from when workers
    // finish.
    let chunk = level.len().div_ceil(workers);
    let mut results: Vec<Vec<NodeOut>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = level
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|nd| {
                            visited.fetch_add(1, Ordering::Relaxed);
                            process_node(ctx, events, values, nd, verify_base)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("enumeration worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

fn run(desc: &Description, alphabet: &Alphabet, opts: EnumOptions, threads: usize) -> Enumeration {
    let ctx = Ctx {
        desc,
        alphabet,
        max_depth: opts.max_depth,
        lhs_fns: desc.lhs_compiled(),
        rhs_fns: desc.rhs_compiled(),
    };
    let mut events: ChainArena<Event> = ChainArena::new();
    let mut values: ChainArena<Value> = ChainArena::new();

    let init_sides = |fns: &[CompiledExpr], values: &mut ChainArena<Value>| {
        fns.iter()
            .map(|f| match f.delta_init() {
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
            })
            .collect::<Vec<Side>>()
    };
    let root = NodeRec {
        trace: ChainId::EMPTY,
        depth: 0,
        lhs: init_sides(ctx.lhs_fns, &mut values),
        rhs: init_sides(ctx.rhs_fns, &mut values),
    };

    let mut out = Enumeration {
        solutions: Vec::new(),
        dead_ends: Vec::new(),
        frontier: Vec::new(),
        nodes_visited: 0,
        truncated: false,
    };
    let visited = AtomicUsize::new(0);
    let mut level = vec![root];
    let mut verify_base = true; // only the root level lacks the invariant

    while !level.is_empty() {
        let remaining = opts
            .max_nodes
            .saturating_sub(visited.load(Ordering::Relaxed));
        let truncated_here = remaining < level.len();
        if truncated_here {
            // Matches the seed BFS exactly: it stops at the first pop past
            // the budget, having visited precisely `remaining` more nodes
            // of this level (FIFO ⇒ levels are contiguous in the queue).
            out.truncated = true;
            level.truncate(remaining);
        }
        if level.is_empty() {
            break;
        }
        let outs = process_level(
            &ctx,
            &events,
            &values,
            &level,
            verify_base,
            threads,
            &visited,
        );

        let mut next: Vec<NodeRec> = Vec::new();
        for (node, nout) in level.iter().zip(outs) {
            if nout.is_solution {
                out.solutions.push(Trace::finite(events.items(node.trace)));
            }
            if node.depth >= ctx.max_depth {
                if nout.has_son {
                    out.frontier.push(Trace::finite(events.items(node.trace)));
                } else if !nout.is_solution {
                    out.dead_ends.push(Trace::finite(events.items(node.trace)));
                }
                continue;
            }
            if nout.children.is_empty() && !nout.is_solution {
                out.dead_ends.push(Trace::finite(events.items(node.trace)));
            }
            if truncated_here {
                continue; // children of the last visited nodes are never reached
            }
            for child in nout.children {
                let trace = events.push(node.trace, child.event);
                let attach =
                    |outs: Vec<SideOut>, parents: &[Side], values: &mut ChainArena<Value>| {
                        outs.into_iter()
                            .zip(parents)
                            .map(|(so, parent)| match (so, parent) {
                                (SideOut::Inc { state, delta }, Side::Inc { chain, .. }) => {
                                    let mut c = *chain;
                                    for v in delta {
                                        c = values.push(c, v);
                                    }
                                    Side::Inc { state, chain: c }
                                }
                                _ => Side::Full,
                            })
                            .collect::<Vec<Side>>()
                    };
                let lhs = attach(child.lhs, &node.lhs, &mut values);
                let rhs = attach(child.rhs, &node.rhs, &mut values);
                next.push(NodeRec {
                    trace,
                    depth: node.depth + 1,
                    lhs,
                    rhs,
                });
            }
        }
        if truncated_here {
            break;
        }
        level = next;
        verify_base = false;
    }
    out.nodes_visited = visited.load(Ordering::Relaxed);
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
    use eqp_seqfn::paper::{ch, even, odd, r_map, t_bar};
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
