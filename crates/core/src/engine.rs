//! The prefix-sharing, incrementally evaluating enumeration engine for the
//! Section 3.3 tree ([`enumerate_memo`]): a level-synchronous BFS that does
//! the machine work once per distinct per-channel history and only unfolds
//! the tree.
//!
//! It produces results **identical** to [`crate::enumerate::enumerate`]
//! (same solutions, dead ends, frontier, visit count, truncation flag, all
//! in the same order) while avoiding the seed engine's per-node costs:
//!
//! * **Histories** are visited once. Nodes with the same per-channel
//!   histories share one *history node*; its verdict and its admitted
//!   `(event, child history)` edges are computed once and every tree node
//!   on it is expanded through them (see below).
//! * **Traces** live in a [`ChainArena`]: extending a node by one event is
//!   one arena push instead of a `Vec` copy, and sibling subtrees share
//!   their common prefix storage.
//! * **Description sides** are evaluated *incrementally* off the **compiled
//!   IR**: each side's [`CompiledExpr`] (fused instructions, interned
//!   channel masks — see [`eqp_seqfn::compile`]) is cached on the
//!   [`Description`], each history node carries a [`CompiledDeltaState`]
//!   per side, and the feasibility test `f(u·e) ⊑ g(u)` inspects only the
//!   values *appended* by the new event. Every side is a machine: a custom
//!   function steps through its [`eqp_seqfn::SeqFunction::delta_init`]
//!   hook, and an infinite constant is its own value, held as its prefix
//!   and one cycle and read cyclically past them.
//!
//! # Why equal per-channel histories give equal subtrees
//!
//! A compiled side reads a trace `t` only through the sequences `t↾c` of
//! the channels it names — unless it calls a custom function, which
//! receives the whole trace. A custom function whose support is one
//! channel `c` depends on `t` only through its projection on `{c}`, which
//! is `t↾c` again. So when no side calls a custom function with two or
//! more channels in its support ([`CompiledExpr::per_channel`]), two nodes
//! `u`, `u'` with `u↾c = u'↾c` for every channel `c` have equal `f(u)`,
//! `g(u)`, and for every event `e`, `u·e` and `u'·e` again have equal
//! per-channel histories. Hence `u` satisfies the limit condition iff `u'`
//! does, `u·e` is a son of `u` iff `u'·e` is a son of `u'`, and, by
//! induction on depth, `v` is in the subtree of `u` iff `u'·(v − u)` is in
//! the subtree of `u'`: the subtrees are the same up to the prefix. The
//! engine keys each node by its per-channel histories, visits each key
//! once per level (a key's depth is the sum of its history lengths, so
//! keys never recur across levels) and unfolds every tree node through
//! the edges of its key.
//!
//! A custom function that reads two or more channels may see how they
//! interleave — the sequence of channel tags is one such function — and
//! then equal per-channel histories prove nothing. Such a description is
//! keyed by the whole trace: one key slot for every channel, so every tree
//! node has a history node of its own and the DAG is the tree. The code is
//! the same; only the slot count differs.
//!
//! Keys are interned, never compared as sequences. Each slot has a trie
//! `(history id, event) → history id`, so a child's key is its parent's
//! with one slot replaced by one trie lookup. Each level deduplicates keys
//! in one hash map from the key's fingerprint (a sum of mixed ids) to its
//! history node, confirmed by comparing the ids. Hashing costs one lookup
//! of each per *DAG* edge, not per tree edge, and allocates nothing per
//! key. A key of one slot (one channel, or the whole trace) is never
//! interned: a history node tries each event once, so every child's
//! one-slot key is new.
//!
//! # Why truncation comes before the distinct set
//!
//! The seed BFS stops at the first pop past the node budget, so the last
//! level it visits is a *prefix* of that level's tree nodes. The engine
//! clamps the level's tree nodes to that prefix first and only then picks
//! the history nodes the prefix reaches. A history only the cut-off nodes
//! reach is never visited, so the history nodes visited never outnumber
//! the tree nodes visited, and the merge needs no verdict the seed did not
//! compute. On a cut level no child is kept (the seed never reaches one),
//! so its history nodes only probe whether they have a son, as the
//! depth-bound level does.
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
//! the tree nodes (trace chain, history node), and per history node its
//! key (stride: the slot count) and its sides (stride `2·arity`:
//! `f_0‥f_{a-1}`, then `g_0‥g_{a-1}`). The
//! worker writes one output buffer per level — a record per history node
//! (its verdict and its range of edges), the `(event, child)` edge of
//! every admitted child, the `2·arity` sides of every child that adds a
//! history node, and one shared run of appended values that the child
//! sides address by count. The buffers, the level tables and the worker's
//! scratch machines keep their allocations from level to level.
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
//! output run, and its check reads them there. A rejected candidate, a
//! child whose history node already exists, and every candidate of a
//! `has_son` probe (which only asks whether one exists) truncate the run
//! back to where the candidate began, so they leave no trace and, once the
//! buffers have grown, cost no allocation. Only a child that adds a
//! history node and stepped a stateful machine allocates: the `Arc`
//! holding its copy of that machine.

use crate::description::{Alphabet, Description};
use crate::enumerate::{EnumOptions, Enumeration};
use eqp_seqfn::compile::cyclic_position;
use eqp_seqfn::{CompiledDeltaState, CompiledExpr};
use eqp_trace::{ChainArena, ChainId, Event, Trace, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// One side (one equation's `f_i` or `g_i`) of one history node.
///
/// The machine after this node's trace, and the output so far as a chain
/// in the value arena (for an infinite constant, its prefix and one
/// cycle). States are held behind `Arc` so that a child shares its
/// parent's state instead of copying it whenever the new event leaves that
/// state as it was: the event lies outside the side's channel support, or
/// the machine is stateless.
#[derive(Debug)]
struct Side {
    state: Arc<CompiledDeltaState>,
    chain: ChainId,
}

/// One BFS level as flat tables: the tree nodes, and the distinct history
/// nodes they stand on. History node `h` has key
/// `keys[s·h‥s·(h+1)]` for `s` key slots and sides
/// `sides[2a·h‥2a·(h+1)]` for arity `a` — `f_0‥f_{a-1}`, then
/// `g_0‥g_{a-1}`.
#[derive(Debug, Default)]
struct Level {
    depth: usize,
    /// Tree nodes in BFS order: the trace chain and the history node.
    tree: Vec<(ChainId, u32)>,
    keys: Vec<u32>,
    sides: Vec<Side>,
    /// Key fingerprint → history node (see [`Histories::intern`]).
    index: HashMap<u64, u32, KeyHash>,
}

impl Level {
    fn clear(&mut self, depth: usize) {
        self.depth = depth;
        self.tree.clear();
        self.keys.clear();
        self.sides.clear();
        self.index.clear();
    }

    /// The number of history nodes, for keys of `width` slots.
    fn histories(&self, width: usize) -> usize {
        self.keys.len() / width
    }
}

/// The hash of the engine's interning maps: a multiply and rotate per
/// word. Their keys are ids the engine assigns (history ids, event
/// positions in the alphabet, fingerprints of id tuples), never values
/// from outside, so nothing needs the default hasher's resistance to
/// chosen collisions.
type KeyHash = BuildHasherDefault<WordHasher>;

#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The per-channel tries of histories: a history id and the next event on
/// its channel (by the event's position in the alphabet) → the extended
/// history's id. Ids are unique across channels, and `0` is every
/// channel's empty history. Key slot `i` is alphabet channel `i`.
struct Histories {
    /// The key width: the alphabet's channel count, or `1` when the key
    /// is the whole trace.
    width: usize,
    next: HashMap<(u32, u32), u32, KeyHash>,
    /// Scratch for the key being interned.
    key: Vec<u32>,
}

impl Histories {
    fn new(desc: &Description, alphabet: &Alphabet) -> Histories {
        let per_channel = desc
            .lhs_compiled()
            .iter()
            .chain(desc.rhs_compiled())
            .all(CompiledExpr::per_channel);
        Histories {
            width: if per_channel {
                alphabet.iter().count().max(1)
            } else {
                1
            },
            next: HashMap::default(),
            key: Vec::new(),
        }
    }

    /// The history node of level `next` whose key is `parent` extended by
    /// event number `kind` of the alphabet, on its channel number `chan`,
    /// and whether this call added it.
    fn intern(&mut self, parent: &[u32], chan: usize, kind: u32, next: &mut Level) -> (u32, bool) {
        let width = self.width;
        if width == 1 {
            // One slot holds the whole trace (one channel, or a whole-trace
            // key): every child is a history node of its own.
            next.keys.push(0);
            return (next.keys.len() as u32 - 1, true);
        }
        let fresh = self.next.len() as u32 + 1;
        self.key.clear();
        self.key.extend_from_slice(parent);
        self.key[chan] = *self.next.entry((parent[chan], kind)).or_insert(fresh);
        // Open addressing over the key's fingerprint: a taken fingerprint
        // whose key differs moves on to the next one.
        let mut fp = self
            .key
            .iter()
            .fold(0u64, |acc, &id| acc.wrapping_add(mix(id)));
        loop {
            match next.index.entry(fp) {
                Entry::Occupied(e) => {
                    let h = *e.get();
                    let at = width * h as usize;
                    if next.keys[at..at + width] == self.key[..] {
                        return (h, false);
                    }
                    fp = fp.wrapping_add(1);
                }
                Entry::Vacant(e) => {
                    let h = (next.keys.len() / width) as u32;
                    e.insert(h);
                    next.keys.extend_from_slice(&self.key);
                    return (h, true);
                }
            }
        }
    }
}

/// A history id's share of a key's fingerprint (the SplitMix64 finalizer):
/// a key's fingerprint is the sum over its slots.
fn mix(id: u32) -> u64 {
    let mut z = u64::from(id).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A side of a new history node's first admitted child, as the worker
/// reports it: the child's machine, and how many values the side
/// appended — they follow the previous side's values in [`Out::deltas`].
struct ChildSide {
    state: Arc<CompiledDeltaState>,
    appended: usize,
}

/// What the worker reports about one history node: its verdict and its
/// edges.
#[derive(Default)]
struct NodeOut {
    is_solution: bool,
    has_son: bool,
    /// Its admitted children: a range of [`Out::children`].
    edges: Range<usize>,
}

/// The worker's output for a level, in history-node order. Arena pushes
/// are deferred to the merge, so visits only read the arenas.
#[derive(Default)]
struct Out {
    /// One per history node of the level; a node the cut tree does not
    /// reach is not visited and keeps the default.
    nodes: Vec<NodeOut>,
    /// Every admitted child: its event and its history node in the next
    /// level — the DAG's edges.
    children: Vec<(Event, u32)>,
    /// `2·arity` per child that added its history node.
    child_sides: Vec<ChildSide>,
    /// The values every `Inc` child side appended, back to back.
    deltas: Vec<Value>,
}

/// A side's value at the current node: its output chain, read cyclically
/// past its end when the side is an infinite constant (`cycle > 0`).
#[derive(Clone, Copy)]
struct View {
    chain: ChainId,
    cycle: usize,
}

impl View {
    fn get(self, values: &ChainArena<Value>, k: usize) -> Option<Value> {
        let k = match self.cycle {
            0 => k,
            c => cyclic_position(values.chain_len(self.chain), c, k)?,
        };
        values.get(self.chain, k).copied()
    }

    fn len_at_least(self, values: &ChainArena<Value>, n: usize) -> bool {
        self.cycle > 0 || values.chain_len(self.chain) >= n
    }

    /// Equal to `f`, given `f ⊑ self` unless `contents`. A cycle and a
    /// chain hold a canonical lasso's prefix and cycle, so equal cycle
    /// lengths and equal chains are equal values.
    fn equals(self, values: &ChainArena<Value>, f: View, contents: bool) -> bool {
        let l = values.chain_len(f.chain);
        self.cycle == f.cycle
            && values.chain_len(self.chain) == l
            && (!contents || (0..l).all(|p| values.get(f.chain, p) == values.get(self.chain, p)))
    }
}

struct Ctx<'a> {
    alphabet: &'a Alphabet,
    arity: usize,
    /// Per side slot (`f_0‥f_{a-1}`, then `g_0‥g_{a-1}`): the slot's
    /// machine is stateless, so nodes share it. Stepping changes no
    /// machine's shape, so the root's machines decide for the whole tree.
    stateless: Vec<bool>,
    /// Per side slot: the cycle of an infinite constant, else 0.
    cycles: Vec<usize>,
}

impl Ctx<'_> {
    /// Side slot `j`'s value at a node with sides `sides`.
    fn view(&self, sides: &[Side], j: usize) -> View {
        View {
            chain: sides[j].chain,
            cycle: self.cycles[j],
        }
    }
}

/// What a level's visits read: the frozen arenas and the level's tables.
struct Shared<'a> {
    ctx: &'a Ctx<'a>,
    values: &'a ChainArena<Value>,
    level: &'a Level,
    /// Only the root level lacks the prefix invariant.
    verify_base: bool,
    /// Only ask whether a son exists (the depth bound, or a level the node
    /// budget cut): no child is kept.
    probe: bool,
}

/// The worker: its output buffer, the history tries and, per side slot,
/// the scratch machine a stateful side is stepped on.
struct Worker {
    out: Out,
    histories: Histories,
    scratch: Vec<Option<CompiledDeltaState>>,
    /// Per side slot, the end of its appended values in `out.deltas` for
    /// the candidate being tried.
    ends: Vec<usize>,
}

impl Worker {
    fn new(slots: usize, histories: Histories) -> Worker {
        Worker {
            out: Out::default(),
            histories,
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

    /// Visits history node `k` of the level: its limit condition, then its
    /// children, interned into `next` (or, when probing, whether it has
    /// one).
    fn visit(&mut self, sh: &Shared<'_>, next: &mut Level, k: usize) {
        let ctx = sh.ctx;
        let a = ctx.arity;
        let sides = &sh.level.sides[2 * a * k..2 * a * (k + 1)];
        let width = self.histories.width;
        let key = &sh.level.keys[width * k..width * (k + 1)];

        // Limit condition f(u) = g(u). With the prefix invariant (non-root),
        // per-equation equality is exactly length equality; the root
        // verifies contents too.
        let is_solution = (0..a).all(|i| {
            ctx.view(sides, a + i)
                .equals(sh.values, ctx.view(sides, i), sh.verify_base)
        });

        let mut has_son = false;
        let start = self.out.children.len();
        let mut kind = 0;
        'events: for (chan, (c, msgs)) in ctx.alphabet.iter().enumerate() {
            for m in msgs {
                let ev = Event::new(c, *m);
                kind += 1;
                let mark = self.out.deltas.len();
                if !self.try_child(sh, sides, ev) {
                    continue;
                }
                if sh.probe {
                    self.out.deltas.truncate(mark);
                    has_son = true;
                    break 'events;
                }
                let (child, fresh) = self.histories.intern(key, chan, kind, next);
                self.out.children.push((ev, child));
                if fresh {
                    self.admit(ctx, sides, ev, mark);
                } else {
                    // The history node already has its sides.
                    self.out.deltas.truncate(mark);
                }
            }
        }
        let edges = start..self.out.children.len();
        self.out.nodes.push(NodeOut {
            is_solution,
            has_son: has_son || !edges.is_empty(),
            edges,
        });
    }

    /// Tests `f(u·ev) ⊑ g(u)`. An admitted candidate leaves the values the
    /// `f_i` appended in the output run (ending at `ends[i]`); a rejected
    /// one leaves the output as it found it.
    fn try_child(&mut self, sh: &Shared<'_>, sides: &[Side], ev: Event) -> bool {
        let ctx = sh.ctx;
        let a = ctx.arity;
        let values = sh.values;
        let mark = self.out.deltas.len();
        for (i, Side { state, chain }) in sides[..a].iter().enumerate() {
            let reads = state.reads(ev.chan);
            // A foreign event appends nothing; `f_i(u) ⊑ g_i(u)` (the
            // invariant) is then already the whole check.
            let ok = !(reads || sh.verify_base) || {
                let start = self.out.deltas.len();
                if reads {
                    self.step(ctx, i, state, ev);
                }
                let g = ctx.view(sides, a + i);
                if ctx.cycles[i] > 0 {
                    // An infinite constant reads nothing, so this is the
                    // root: only the same infinite word lies above it.
                    g.equals(values, ctx.view(sides, i), true)
                } else {
                    let l = values.chain_len(*chain);
                    let delta = &self.out.deltas[start..];
                    g.len_at_least(values, l + delta.len())
                        // The root's prefix invariant is not established
                        // yet: verify the already-emitted values too.
                        && (!sh.verify_base
                            || (0..l).all(|p| values.get(*chain, p).copied() == g.get(values, p)))
                        && delta
                            .iter()
                            .enumerate()
                            .all(|(p, v)| Some(*v) == g.get(values, l + p))
                }
            };
            if !ok {
                self.out.deltas.truncate(mark);
                return false;
            }
            self.ends[i] = self.out.deltas.len();
        }
        true
    }

    /// Completes an admitted child that adds a history node: steps the
    /// `g_i`, and reports all `2·arity` sides, whose appended values begin
    /// at `mark`.
    fn admit(&mut self, ctx: &Ctx<'_>, sides: &[Side], ev: Event, mark: usize) {
        let a = ctx.arity;
        for (j, side) in sides.iter().enumerate().skip(a) {
            if side.state.reads(ev.chan) {
                self.step(ctx, j, &side.state, ev);
            }
            self.ends[j] = self.out.deltas.len();
        }
        // Only now are stepped stateful machines copied out of scratch.
        let mut prev = mark;
        for (j, side) in sides.iter().enumerate() {
            let state = if side.state.reads(ev.chan) && !ctx.stateless[j] {
                Arc::new(self.scratch[j].as_ref().expect("stepped").clone())
            } else {
                Arc::clone(&side.state)
            };
            let appended = self.ends[j] - prev;
            prev = self.ends[j];
            self.out.child_sides.push(ChildSide { state, appended });
        }
    }
}

/// The enumeration, and how many history nodes were visited — never more
/// than the tree nodes visited (`nodes_visited`).
fn run(desc: &Description, alphabet: &Alphabet, opts: EnumOptions) -> (Enumeration, usize) {
    let sides = || desc.lhs_compiled().iter().chain(desc.rhs_compiled());
    let a = desc.arity();
    let mut events: ChainArena<Event> = ChainArena::new();
    let mut values: ChainArena<Value> = ChainArena::new();
    let histories = Histories::new(desc, alphabet);
    let width = histories.width;

    let mut level = Level::default();
    level.tree.push((ChainId::EMPTY, 0));
    level.keys.resize(width, 0);
    for f in sides() {
        let (state, out) = f.delta_init();
        let mut chain = ChainId::EMPTY;
        for v in out {
            chain = values.push(chain, v);
        }
        level.sides.push(Side {
            state: Arc::new(state),
            chain,
        });
    }
    let ctx = Ctx {
        alphabet,
        arity: a,
        stateless: level.sides.iter().map(|s| s.state.is_stateless()).collect(),
        cycles: sides().map(CompiledExpr::cycle).collect(),
    };

    let mut out = Enumeration {
        solutions: Vec::new(),
        dead_ends: Vec::new(),
        frontier: Vec::new(),
        nodes_visited: 0,
        truncated: false,
    };
    let mut visits = 0;
    let mut next = Level::default();
    let mut worker = Worker::new(2 * a, histories);
    let mut reached: Vec<bool> = Vec::new();
    let mut verify_base = true; // only the root level lacks the invariant

    loop {
        let remaining = opts.max_nodes.saturating_sub(out.nodes_visited);
        let truncated_here = remaining < level.tree.len();
        if truncated_here {
            // Matches the seed BFS exactly: it stops at the first pop past
            // the budget, having visited precisely `remaining` more nodes
            // of this level (FIFO ⇒ levels are contiguous in the queue).
            out.truncated = true;
            level.tree.truncate(remaining);
        }
        if level.tree.is_empty() {
            break;
        }
        out.nodes_visited += level.tree.len();

        let at_bound = level.depth >= opts.max_depth;
        let sh = Shared {
            ctx: &ctx,
            values: &values,
            level: &level,
            verify_base,
            probe: at_bound || truncated_here,
        };
        next.clear(level.depth + 1);
        // Only the history nodes the (clamped) tree prefix reaches are
        // visited: all of them unless the budget cut the level.
        if truncated_here {
            reached.clear();
            reached.resize(level.histories(width), false);
            for &(_, h) in &level.tree {
                reached[h as usize] = true;
            }
        }
        let cut_off = |k: usize| truncated_here && !reached[k];
        for k in 0..level.histories(width) {
            if cut_off(k) {
                worker.out.nodes.push(NodeOut::default());
            } else {
                worker.visit(&sh, &mut next, k);
                visits += 1;
            }
        }

        // The DAG: the sides of every history node the level's edges
        // added to the next level.
        let Out {
            nodes,
            children,
            child_sides,
            deltas,
        } = &mut worker.out;
        let mut child_sides = child_sides.drain(..);
        let (mut built, mut cursor) = (0, 0);
        for (h, node) in nodes.iter().enumerate() {
            let parent = &level.sides[2 * a * h..2 * a * (h + 1)];
            for &(_, child) in &children[node.edges.clone()] {
                if child as usize != built {
                    continue;
                }
                built += 1;
                for p in parent {
                    let ChildSide { state, appended } =
                        child_sides.next().expect("2a sides per child");
                    let mut chain = p.chain;
                    for v in &deltas[cursor..cursor + appended] {
                        chain = values.push(chain, *v);
                    }
                    cursor += appended;
                    next.sides.push(Side { state, chain });
                }
            }
        }
        deltas.clear();

        // The tree: every node takes its history node's verdict and is
        // expanded through its edges, in the seed's BFS order.
        for &(trace, h) in &level.tree {
            let m = &nodes[h as usize];
            if m.is_solution {
                out.solutions.push(Trace::finite(events.items(trace)));
            }
            if at_bound && m.has_son {
                out.frontier.push(Trace::finite(events.items(trace)));
            } else if !m.has_son && !m.is_solution {
                out.dead_ends.push(Trace::finite(events.items(trace)));
            }
            for &(ev, child) in &children[m.edges.clone()] {
                next.tree.push((events.push(trace, ev), child));
            }
        }
        nodes.clear();
        children.clear();
        if truncated_here {
            break;
        }
        std::mem::swap(&mut level, &mut next);
        verify_base = false;
    }
    (out, visits)
}

/// Prefix-sharing, incrementally evaluating enumeration of the Section 3.3
/// tree that visits each per-channel history once — same results as
/// [`crate::enumerate::enumerate`], without the per-node O(depth) replay
/// or the per-node machine work.
///
/// # Example
///
/// ```
/// use eqp_core::{enumerate, enumerate_memo, Alphabet, Description, EnumOptions};
/// use eqp_seqfn::paper::{ch, r_map, t_bar};
/// use eqp_trace::Chan;
///
/// let b = Chan::new(0);
/// let desc = Description::new("random-bit").equation(r_map(ch(b)), t_bar());
/// let alpha = Alphabet::new().with_bits(b);
/// let seed = enumerate(&desc, &alpha, EnumOptions::default());
/// let memo = enumerate_memo(&desc, &alpha, EnumOptions::default());
/// assert_eq!(memo.solutions, seed.solutions);
/// assert_eq!(memo.nodes_visited, seed.nodes_visited);
/// ```
pub fn enumerate_memo(desc: &Description, alphabet: &Alphabet, opts: EnumOptions) -> Enumeration {
    run(desc, alphabet, opts).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::tuple_leq;
    use crate::enumerate::enumerate;
    use eqp_seqfn::paper::{
        ch, count_ticks, even, odd, oracle_false, oracle_true, r_map, t_bar, until_first_false,
    };
    use eqp_seqfn::SeqExpr;
    use eqp_trace::{Chan, Value};
    use std::collections::HashSet;

    fn b() -> Chan {
        Chan::new(0)
    }
    fn c() -> Chan {
        Chan::new(1)
    }
    fn d() -> Chan {
        Chan::new(2)
    }

    fn dfm() -> (Description, Alphabet) {
        let dfm = Description::new("dfm")
            .equation(even(ch(d())), ch(b()))
            .equation(odd(ch(d())), ch(c()));
        let alpha = Alphabet::new()
            .with_chan(b(), [Value::Int(0), Value::Int(2)])
            .with_chan(c(), [Value::Int(1)])
            .with_ints(d(), 0, 2);
        (dfm, alpha)
    }

    fn assert_same(a: &Enumeration, e: &Enumeration) {
        assert_eq!(a.solutions, e.solutions, "solutions differ");
        assert_eq!(a.dead_ends, e.dead_ends, "dead ends differ");
        assert_eq!(a.frontier, e.frontier, "frontier differs");
        assert_eq!(a.nodes_visited, e.nodes_visited, "visit count differs");
        assert_eq!(a.truncated, e.truncated, "truncation flag differs");
    }

    /// The engine agrees with the seed and visits no more history nodes
    /// than the seed visits tree nodes.
    fn check_against_seed(desc: &Description, alpha: &Alphabet, opts: EnumOptions) -> usize {
        let seed = enumerate(desc, alpha, opts);
        let (memo, visits) = run(desc, alpha, opts);
        assert_same(&memo, &seed);
        assert!(
            visits <= memo.nodes_visited,
            "{visits} history visits for {} tree nodes",
            memo.nodes_visited
        );
        visits
    }

    /// The distinct per-channel histories (over `alpha`'s channels) of
    /// the tree nodes down to `max_depth`, by brute force: every node of
    /// the seed's tree, keyed by its per-channel event sequences.
    fn brute_force_histories(desc: &Description, alpha: &Alphabet, max_depth: usize) -> usize {
        let mut keys: HashSet<Vec<Vec<Event>>> = HashSet::new();
        let mut level = vec![Trace::empty()];
        for depth in 0..=max_depth {
            let mut sons = Vec::new();
            for u in &level {
                let evs = u.events().expect("finite node");
                keys.insert(
                    alpha
                        .iter()
                        .map(|(c, _)| evs.iter().filter(|e| e.chan == c).copied().collect())
                        .collect(),
                );
                if depth == max_depth {
                    continue;
                }
                let rhs = desc.eval_rhs(u);
                for (c, msgs) in alpha.iter() {
                    for m in msgs {
                        let v = u.pushed(Event::new(c, *m)).expect("finite node");
                        if tuple_leq(&desc.eval_lhs(&v), &rhs) {
                            sons.push(v);
                        }
                    }
                }
            }
            level = sons;
        }
        keys.len()
    }

    #[test]
    fn random_bit_matches_seed() {
        let desc = Description::new("random-bit").equation(r_map(ch(b())), t_bar());
        let alpha = Alphabet::new().with_bits(b());
        check_against_seed(&desc, &alpha, EnumOptions::default());
    }

    #[test]
    fn dfm_matches_seed() {
        let (dfm, alpha) = dfm();
        check_against_seed(
            &dfm,
            &alpha,
            EnumOptions {
                max_depth: 4,
                max_nodes: 50_000,
            },
        );
    }

    #[test]
    fn dfm_visits_each_distinct_history_once() {
        // Fig. 2 at depth 5: the history nodes visited are exactly the
        // distinct per-channel histories of the tree's nodes.
        let (dfm, alpha) = dfm();
        let opts = EnumOptions {
            max_depth: 5,
            max_nodes: 50_000,
        };
        let visits = check_against_seed(&dfm, &alpha, opts);
        assert_eq!(visits, brute_force_histories(&dfm, &alpha, 5));
        assert_eq!(visits, 234);
        assert_eq!(enumerate(&dfm, &alpha, opts).nodes_visited, 1225);
    }

    #[test]
    fn truncation_bounds_the_history_nodes_visited() {
        // One channel: every history is distinct, so a DAG that visited
        // the whole cut level (100 nodes at depth 2) would exceed the cap.
        let chaos = Description::new("chaos").equation(SeqExpr::epsilon(), SeqExpr::epsilon());
        let alpha = Alphabet::new().with_ints(b(), 0, 9);
        let opts = EnumOptions {
            max_depth: 10,
            max_nodes: 50,
        };
        let visits = check_against_seed(&chaos, &alpha, opts);
        assert!(
            visits <= 50,
            "{visits} history nodes visited under a cap of 50"
        );
    }

    #[test]
    fn ticks_infinite_rhs_reads_cyclically_and_matches() {
        // t_bar() is the infinite constant T̄: the right side is its own
        // value, read cyclically past its stored prefix and cycle.
        let ticks = Description::new("ticks").defines(b(), SeqExpr::concat([Value::tt()], ch(b())));
        let alpha = Alphabet::new().with_chan(b(), [Value::tt()]);
        check_against_seed(
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
            check_against_seed(&chaos, &alpha, opts);
        }
        // Two channels: cut levels whose tree nodes share history nodes.
        let (dfm, alpha) = dfm();
        for max_nodes in [3, 7, 30, 100, 400, 1000] {
            let opts = EnumOptions {
                max_depth: 6,
                max_nodes,
            };
            check_against_seed(&dfm, &alpha, opts);
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
        check_against_seed(&fork, &alpha, opts);
        // Stateful chains on both sides, over bits.
        let counted = Description::new("counted")
            .equation(ch(d()), count_ticks(ch(c())))
            .equation(until_first_false(ch(b())), SeqExpr::skip(1, ch(c())));
        let alpha = Alphabet::new()
            .with_bits(b())
            .with_bits(c())
            .with_ints(d(), 0, 2);
        check_against_seed(&counted, &alpha, opts);
    }

    #[test]
    fn brock_ackermann_root_with_nonempty_sides() {
        // The eliminated Brock–Ackermann description has rhs(ε) = ⟨0 2⟩ ≠ ε:
        // exercises the root verification path (no prefix invariant yet).
        let desc = crate::description::Description::new("ba")
            .equation(even(ch(d())), SeqExpr::const_ints([0, 2]))
            .equation(odd(ch(d())), SeqExpr::affine(1, 1, even(ch(d()))));
        let alpha = Alphabet::new().with_ints(d(), 0, 3);
        check_against_seed(
            &desc,
            &alpha,
            EnumOptions {
                max_depth: 4,
                max_nodes: 10_000,
            },
        );
    }
}
