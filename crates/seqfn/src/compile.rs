//! Compilation of [`SeqExpr`] trees to a flat, fused instruction arena.
//!
//! The interpreter in [`crate::expr`] walks the boxed combinator tree:
//! every evaluation pays one pointer chase and one enum dispatch per
//! combinator. The denotational objects, however, are fixed once a
//! description is built — so all per-event work can be straight-line.
//!
//! [`CompiledExpr::compile`] lowers a tree into a post-order `Vec<Inst>`
//! with `u32` node references (children always precede parents; the root
//! is last), running a peephole optimizer *during* lowering:
//!
//! * **constant folding** — any subtree whose children are constants is
//!   evaluated at compile time with the same exact lasso operations the
//!   interpreter uses, so the fold cannot disagree with it;
//! * **fusion** — `Map∘Map` composes via [`ValueMap::compose`],
//!   `Filter∘Filter` conjoins via [`ValuePred::conjoin`],
//!   `Map∘Filter`/`Filter∘Map` become a single [`Inst::FilterMap`],
//!   adjacent [`Inst::Skip`]s coalesce, and [`Inst::Concat`] fronts merge.
//!   Both composition operators are *total*: when two stages cannot
//!   legally fuse they are emitted unfused — the compiler never panics;
//! * **common subexpression elimination** — structurally identical pure
//!   instructions are deduplicated (the arena is a DAG; this is sound for
//!   evaluation and for the delta machine, where a shared slot is stepped
//!   once per event and parents only *read* its append buffer);
//! * **dead code elimination** — instructions orphaned by folding are
//!   swept before the program is sealed.
//!
//! Every node also gets a precomputed **channel-support bitmask** over a
//! small interned channel table, so "this event is irrelevant to this
//! node" is one `u128` AND instead of a `BTreeSet` lookup. The compiled
//! delta machine ([`CompiledDeltaState`]) exploits the masks: a step is a
//! single linear pass over instruction slots, skipping slots the event
//! cannot touch, and returning immediately when the event's channel is
//! outside the whole program's support.
//!
//! Fusion preserves the Section 3 smoothness arguments because each rule
//! rewrites a composition of continuous functions into one continuous
//! function with the *same* denotation: the differential property suite
//! (`tests/compiled_props.rs`) pins `compiled.eval == interpreted.eval`
//! and per-event [`CompiledDeltaState`] outputs against full
//! [`SeqExpr::eval`] on every prefix, on random trees × traces.

use crate::custom::{CustomDeltaState, SeqFunction};
use crate::ops::{Conjunction, ValueMap, ValuePred, ValueZip};
use crate::SeqExpr;
use eqp_trace::{Chan, ChanSet, Event, Lasso, Seq, Trace, Value};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A reference to an earlier instruction in the arena.
pub type NodeRef = u32;

/// Which stage of a fused filter+map pair runs first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuseOrder {
    /// `Filter(p, Map(m, e))`: map each value, keep it if the *mapped*
    /// value passes.
    MapThenFilter,
    /// `Map(m, Filter(p, e))`: keep values passing `p`, then map them.
    FilterThenMap,
}

/// One flat instruction. Operand references point at earlier slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Projection onto a channel.
    Chan(Chan),
    /// A constant sequence (index into the program's const pool).
    Const(u32),
    /// Finite-front concatenation (index into the front pool).
    Concat {
        /// Front pool index.
        front: u32,
        /// Operand.
        e: NodeRef,
    },
    /// Pointwise map.
    Map {
        /// The map.
        m: ValueMap,
        /// Operand.
        e: NodeRef,
    },
    /// Pointwise filter.
    Filter {
        /// The predicate.
        p: ValuePred,
        /// Operand.
        e: NodeRef,
    },
    /// Fused filter+map — one pass, order given by `order`.
    FilterMap {
        /// The predicate.
        p: ValuePred,
        /// The map.
        m: ValueMap,
        /// Which stage runs first.
        order: FuseOrder,
        /// Operand.
        e: NodeRef,
    },
    /// Pointwise binary zip (length = min of operands).
    Zip {
        /// The combiner.
        z: ValueZip,
        /// Left operand.
        a: NodeRef,
        /// Right operand.
        b: NodeRef,
    },
    /// Longest satisfying prefix.
    TakeWhile {
        /// The predicate.
        p: ValuePred,
        /// Operand.
        e: NodeRef,
    },
    /// Drop the first `n` elements.
    Skip {
        /// How many to drop.
        n: usize,
        /// Operand.
        e: NodeRef,
    },
    /// Oracle selection (Section 4.6).
    OracleSelect {
        /// Data operand.
        data: NodeRef,
        /// Oracle operand.
        oracle: NodeRef,
        /// Which oracle bit keeps an element.
        keep: bool,
    },
    /// Section 4.9's tick counter.
    CountTicks {
        /// Operand.
        e: NodeRef,
    },
    /// The generalized Brock–Ackermann emitter (Section 2.4).
    EmitFirstAfter {
        /// Threshold (raw; both eval and delta apply `max(need, 1)`).
        need: usize,
        /// Offset added to the first element.
        add: i64,
        /// Operand.
        e: NodeRef,
    },
    /// A user-supplied opaque function (index into the custom pool).
    Custom(u32),
}

impl Inst {
    /// Operand references of this instruction (at most two).
    fn children(self) -> [Option<NodeRef>; 2] {
        match self {
            Inst::Chan(_) | Inst::Const(_) | Inst::Custom(_) => [None, None],
            Inst::Concat { e, .. }
            | Inst::Map { e, .. }
            | Inst::Filter { e, .. }
            | Inst::FilterMap { e, .. }
            | Inst::TakeWhile { e, .. }
            | Inst::Skip { e, .. }
            | Inst::CountTicks { e }
            | Inst::EmitFirstAfter { e, .. } => [Some(e), None],
            Inst::Zip { a, b, .. } => [Some(a), Some(b)],
            Inst::OracleSelect { data, oracle, .. } => [Some(data), Some(oracle)],
        }
    }

    /// The same instruction with operand references remapped.
    fn retarget(self, remap: &[u32]) -> Inst {
        let r = |i: NodeRef| remap[i as usize];
        match self {
            Inst::Chan(_) | Inst::Const(_) | Inst::Custom(_) => self,
            Inst::Concat { front, e } => Inst::Concat { front, e: r(e) },
            Inst::Map { m, e } => Inst::Map { m, e: r(e) },
            Inst::Filter { p, e } => Inst::Filter { p, e: r(e) },
            Inst::FilterMap { p, m, order, e } => Inst::FilterMap {
                p,
                m,
                order,
                e: r(e),
            },
            Inst::Zip { z, a, b } => Inst::Zip {
                z,
                a: r(a),
                b: r(b),
            },
            Inst::TakeWhile { p, e } => Inst::TakeWhile { p, e: r(e) },
            Inst::Skip { n, e } => Inst::Skip { n, e: r(e) },
            Inst::OracleSelect { data, oracle, keep } => Inst::OracleSelect {
                data: r(data),
                oracle: r(oracle),
                keep,
            },
            Inst::CountTicks { e } => Inst::CountTicks { e: r(e) },
            Inst::EmitFirstAfter { need, add, e } => Inst::EmitFirstAfter { need, add, e: r(e) },
        }
    }
}

/// The sealed program: instructions plus interned pools and per-node
/// support masks. Shared by value handles ([`CompiledExpr`]) and by every
/// delta machine spawned from them.
#[derive(Debug)]
struct Program {
    insts: Vec<Inst>,
    /// Per-instruction channel-support bitmask over `chans`.
    support: Vec<u128>,
    /// Interned channel table; bit `i` of a mask is `chans[i]`.
    chans: Vec<Chan>,
    consts: Vec<Seq>,
    fronts: Vec<Vec<Value>>,
    customs: Vec<Arc<dyn SeqFunction>>,
    /// False when more than 128 distinct channels overflowed the mask
    /// width; masks are then conservative and skipping is disabled.
    exact: bool,
    /// The root's decoded channel support.
    channels: ChanSet,
    /// Node count of the source tree (the pre-fusion instruction count a
    /// naive lowering would have emitted).
    source_size: usize,
    /// Memoized machine state and output at the empty trace (`None` inside
    /// when the program has no incremental hook), so every
    /// [`CompiledExpr::delta_init`] after the first is a clone rather than
    /// a re-derivation. Holds [`Repr`], not the full state, to avoid an
    /// `Arc` cycle back to the program.
    bottom: OnceLock<Option<(Repr, Vec<Value>)>>,
}

impl Program {
    #[inline]
    fn chan_index(&self, c: Chan) -> Option<usize> {
        // Linear scan: the table is tiny (one entry per distinct channel)
        // and contiguous, which beats a BTreeSet probe on the hot path.
        self.chans.iter().position(|&k| k == c)
    }

    #[inline]
    fn root(&self) -> usize {
        self.insts.len() - 1
    }

    #[inline]
    fn reads(&self, c: Chan) -> bool {
        if self.exact {
            match self.chan_index(c) {
                Some(i) => self.support[self.root()] & (1u128 << i) != 0,
                None => false,
            }
        } else {
            self.channels.contains(c)
        }
    }
}

/// A compiled, optimized form of a [`SeqExpr`]: cheap to clone (one `Arc`),
/// exact on lassos, and the engine/monitor hot paths' evaluation substrate.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    prog: Arc<Program>,
}

impl SeqExpr {
    /// Compiles this expression — sugar for [`CompiledExpr::compile`].
    pub fn compile(&self) -> CompiledExpr {
        CompiledExpr::compile(self)
    }
}

impl CompiledExpr {
    /// Lowers and optimizes `e`. Total: every expression compiles.
    pub fn compile(e: &SeqExpr) -> CompiledExpr {
        let mut b = Builder::default();
        let root = b.lower(e);
        CompiledExpr {
            prog: Arc::new(b.finish(root, e)),
        }
    }

    /// Evaluates the compiled program on a trace: one linear pass over the
    /// arena into a register file. Agrees with [`SeqExpr::eval`] exactly.
    pub fn eval(&self, t: &Trace) -> Seq {
        let p = &self.prog;
        let mut regs: Vec<Seq> = Vec::with_capacity(p.insts.len());
        for inst in &p.insts {
            let v = match *inst {
                Inst::Chan(c) => t.seq_on(c),
                Inst::Const(k) => p.consts[k as usize].clone(),
                Inst::Concat { front, e } => {
                    regs[e as usize].concat_front(&p.fronts[front as usize])
                }
                Inst::Map { m, e } => regs[e as usize].map(|v| m.apply(v)),
                Inst::Filter { p: pr, e } => regs[e as usize].filter(|v| pr.test(v)),
                Inst::FilterMap { p: pr, m, order, e } => match order {
                    FuseOrder::MapThenFilter => {
                        regs[e as usize].map(|v| m.apply(v)).filter(|v| pr.test(v))
                    }
                    FuseOrder::FilterThenMap => {
                        regs[e as usize].filter(|v| pr.test(v)).map(|v| m.apply(v))
                    }
                },
                Inst::Zip { z, a, b } => {
                    regs[a as usize].zip_with(&regs[b as usize], |x, y| z.apply(x, y))
                }
                Inst::TakeWhile { p: pr, e } => regs[e as usize].take_while(|v| pr.test(v)),
                Inst::Skip { n, e } => regs[e as usize].drop_front(n),
                Inst::OracleSelect { data, oracle, keep } => {
                    fold_select(&regs[data as usize], &regs[oracle as usize], keep)
                }
                Inst::CountTicks { e } => fold_count(&regs[e as usize]),
                Inst::EmitFirstAfter { need, add, e } => fold_emit(&regs[e as usize], need, add),
                Inst::Custom(k) => p.customs[k as usize].eval(t),
            };
            regs.push(v);
        }
        regs.pop().expect("programs are never empty")
    }

    /// The program's channel support — possibly *smaller* than the source
    /// expression's syntactic support when folding erased a subtree, which
    /// is sound: evaluation provably ignores the erased channels.
    pub fn channels(&self) -> &ChanSet {
        &self.prog.channels
    }

    /// True iff an event on `c` can change the program's output — one
    /// bitmask test against the interned channel table.
    #[inline]
    pub fn reads(&self, c: Chan) -> bool {
        self.prog.reads(c)
    }

    /// True iff the program reads a trace only through its per-channel
    /// sequences: every custom function it calls has at most one channel
    /// in its support. Two traces with the same sequence on every channel
    /// then evaluate equally, however their events interleave.
    pub fn per_channel(&self) -> bool {
        self.prog.customs.iter().all(|f| f.channels().len() <= 1)
    }

    /// Instruction count after fusion/folding/DCE.
    pub fn inst_count(&self) -> usize {
        self.prog.insts.len()
    }

    /// Node count of the source tree (instructions *before* fusion).
    pub fn source_size(&self) -> usize {
        self.prog.source_size
    }

    /// True iff the whole program folded to a single constant.
    pub fn is_const(&self) -> bool {
        matches!(self.prog.insts[..], [Inst::Const(_)])
    }

    /// Human-readable disassembly of the instruction arena, one numbered
    /// `%slot: inst` line per instruction (operand refs point at earlier
    /// slots; the root is last). Diagnostics and examples only.
    pub fn disasm(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, inst) in self.prog.insts.iter().enumerate() {
            let _ = writeln!(s, "  %{i}: {inst:?}");
        }
        s
    }

    /// Builds the compiled incremental machine at the empty trace,
    /// returning it plus the program's (finite) value at `⊥`.
    ///
    /// Returns `None` exactly when the program contains an infinite
    /// constant or a hookless custom on a live path. Folding may first
    /// collapse an infinite constant under `TakeWhile`/`CountTicks`/…
    /// into a finite one, so only live infinite constants count.
    pub fn delta_init(&self) -> Option<(CompiledDeltaState, Vec<Value>)> {
        let bottom = self.prog.bottom.get_or_init(|| bottom_state(&self.prog));
        let (repr, out) = bottom.as_ref()?;
        Some((
            CompiledDeltaState {
                prog: Arc::clone(&self.prog),
                repr: repr.clone(),
            },
            out.clone(),
        ))
    }

    /// True iff [`CompiledExpr::delta_init`] succeeds.
    pub fn delta_supported(&self) -> bool {
        self.delta_init().is_some()
    }
}

/// Derives the machine shape and root output at the empty trace — the
/// computation behind [`CompiledExpr::delta_init`], memoized per program.
fn bottom_state(p: &Program) -> Option<(Repr, Vec<Value>)> {
    {
        let n = p.insts.len();
        let mut slots: Vec<Slot> = Vec::with_capacity(n);
        let mut outs: Vec<Vec<Value>> = Vec::with_capacity(n);
        for inst in &p.insts {
            let (slot, out) = match *inst {
                Inst::Chan(_) => (Slot::Pass, Vec::new()),
                Inst::Const(k) => {
                    let s = &p.consts[k as usize];
                    if !s.is_finite() {
                        return None;
                    }
                    (Slot::Pass, s.prefix().to_vec())
                }
                Inst::Concat { front, e } => {
                    let mut full = p.fronts[front as usize].clone();
                    full.extend_from_slice(&outs[e as usize]);
                    (Slot::Pass, full)
                }
                Inst::Map { m, e } => (
                    Slot::Pass,
                    outs[e as usize].iter().map(|v| m.apply(v)).collect(),
                ),
                Inst::Filter { p: pr, e } => (
                    Slot::Pass,
                    outs[e as usize]
                        .iter()
                        .filter(|v| pr.test(v))
                        .copied()
                        .collect(),
                ),
                Inst::FilterMap { p: pr, m, order, e } => {
                    let mut out = Vec::new();
                    apply_filter_map(pr, m, order, &outs[e as usize], &mut out);
                    (Slot::Pass, out)
                }
                Inst::Zip { z, a, b } => {
                    let mut pa: VecDeque<Value> = outs[a as usize].iter().copied().collect();
                    let mut pb: VecDeque<Value> = outs[b as usize].iter().copied().collect();
                    let mut out = Vec::new();
                    drain_zip(z, &mut pa, &mut pb, &mut out);
                    (Slot::Zip { pa, pb }, out)
                }
                Inst::TakeWhile { p: pr, e } => {
                    let mut done = false;
                    let mut out = Vec::new();
                    absorb_take_while(pr, &mut done, &outs[e as usize], &mut out);
                    (Slot::TakeWhile { done }, out)
                }
                Inst::Skip { n, e } => {
                    let mut remaining = n;
                    let mut out = Vec::new();
                    absorb_skip(&mut remaining, &outs[e as usize], &mut out);
                    (Slot::Skip { remaining }, out)
                }
                Inst::OracleSelect { data, oracle, keep } => {
                    let mut pd: VecDeque<Value> = outs[data as usize].iter().copied().collect();
                    let mut po: VecDeque<Value> = outs[oracle as usize].iter().copied().collect();
                    let mut out = Vec::new();
                    drain_select(keep, &mut pd, &mut po, &mut out);
                    (Slot::Select { pd, po }, out)
                }
                Inst::CountTicks { e } => {
                    let mut ticks = 0i64;
                    let mut done = false;
                    let mut out = Vec::new();
                    absorb_count(&mut ticks, &mut done, &outs[e as usize], &mut out);
                    (Slot::Count { ticks, done }, out)
                }
                Inst::EmitFirstAfter { need, add, e } => {
                    let mut st = EmitState::default();
                    let mut out = Vec::new();
                    absorb_emit(need.max(1), add, &mut st, &outs[e as usize], &mut out);
                    (Slot::Emit(st), out)
                }
                Inst::Custom(k) => {
                    let (st, out) = p.customs[k as usize].delta_init()?;
                    (Slot::Custom(st), out)
                }
            };
            slots.push(slot);
            outs.push(out);
        }
        let root_out = outs.pop().expect("programs are never empty");
        let repr = match chain_ops(p, &slots) {
            Some((chan, ops)) => Repr::Chain { chan, ops },
            None => Repr::Graph {
                slots,
                bufs: Vec::new(),
            },
        };
        Some((repr, root_out))
    }
}

impl fmt::Display for CompiledExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.prog;
        for (i, inst) in p.insts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "%{i} = ")?;
            match *inst {
                Inst::Chan(c) => write!(f, "{c}")?,
                Inst::Const(k) => write!(f, "const {}", p.consts[k as usize])?,
                Inst::Concat { front, e } => {
                    write!(f, "concat [")?;
                    for (j, v) in p.fronts[front as usize].iter().enumerate() {
                        if j > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    write!(f, "] %{e}")?;
                }
                Inst::Map { m, e } => write!(f, "map[{m}] %{e}")?,
                Inst::Filter { p: pr, e } => write!(f, "filter[{pr}] %{e}")?,
                Inst::FilterMap { p: pr, m, order, e } => match order {
                    FuseOrder::MapThenFilter => write!(f, "mapfilter[{m}; {pr}] %{e}")?,
                    FuseOrder::FilterThenMap => write!(f, "filtermap[{pr}; {m}] %{e}")?,
                },
                Inst::Zip { z, a, b } => write!(f, "zip[{z}] %{a} %{b}")?,
                Inst::TakeWhile { p: pr, e } => write!(f, "takewhile[{pr}] %{e}")?,
                Inst::Skip { n, e } => write!(f, "skip[{n}] %{e}")?,
                Inst::OracleSelect { data, oracle, keep } => write!(
                    f,
                    "select[{}] %{data} %{oracle}",
                    if keep { "T" } else { "F" }
                )?,
                Inst::CountTicks { e } => write!(f, "countticks %{e}")?,
                Inst::EmitFirstAfter { need, add, e } => {
                    write!(f, "emitfirst[+{add}@{need}] %{e}")?
                }
                Inst::Custom(k) => write!(f, "custom {}", p.customs[k as usize].name())?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Lowering + peephole optimizer
// ---------------------------------------------------------------------------

struct Builder {
    insts: Vec<Inst>,
    masks: Vec<u128>,
    chans: Vec<Chan>,
    consts: Vec<Seq>,
    fronts: Vec<Vec<Value>>,
    customs: Vec<Arc<dyn SeqFunction>>,
    cse: HashMap<Inst, NodeRef>,
    exact: bool,
}

impl Builder {
    fn lower(&mut self, e: &SeqExpr) -> NodeRef {
        match e {
            SeqExpr::Chan(c) => {
                let mask = self.chan_mask(*c);
                self.push(Inst::Chan(*c), mask)
            }
            SeqExpr::Const(s) => self.push_const(s.clone()),
            SeqExpr::Concat(front, inner) => {
                let r = self.lower(inner);
                self.emit_concat(front.clone(), r)
            }
            SeqExpr::Map(m, inner) => {
                let r = self.lower(inner);
                self.emit_map(*m, r)
            }
            SeqExpr::Filter(p, inner) => {
                let r = self.lower(inner);
                self.emit_filter(*p, r)
            }
            SeqExpr::Zip(z, a, b) => {
                let ra = self.lower(a);
                let rb = self.lower(b);
                self.emit_zip(*z, ra, rb)
            }
            SeqExpr::TakeWhile(p, inner) => {
                let r = self.lower(inner);
                self.emit_take_while(*p, r)
            }
            SeqExpr::Skip(n, inner) => {
                let r = self.lower(inner);
                self.emit_skip(*n, r)
            }
            SeqExpr::OracleSelect { data, oracle, keep } => {
                let rd = self.lower(data);
                let ro = self.lower(oracle);
                self.emit_select(rd, ro, *keep)
            }
            SeqExpr::CountTicks(inner) => {
                let r = self.lower(inner);
                self.emit_count(r)
            }
            SeqExpr::EmitFirstAfter { need, add, input } => {
                let r = self.lower(input);
                self.emit_emit_first(*need, *add, r)
            }
            SeqExpr::Custom(f) => {
                let mask = self.set_mask(&f.channels());
                let k = self.intern_custom(f);
                self.push(Inst::Custom(k), mask)
            }
        }
    }

    /// Appends an instruction (or reuses a structurally identical one).
    /// The mask is a deterministic function of the instruction, so CSE
    /// reuse never changes supports.
    fn push(&mut self, inst: Inst, mask: u128) -> NodeRef {
        if let Some(&r) = self.cse.get(&inst) {
            return r;
        }
        let r = self.insts.len() as NodeRef;
        self.insts.push(inst);
        self.masks.push(mask);
        self.cse.insert(inst, r);
        r
    }

    fn push_const(&mut self, s: Seq) -> NodeRef {
        let k = match self.consts.iter().position(|c| *c == s) {
            Some(k) => k,
            None => {
                self.consts.push(s);
                self.consts.len() - 1
            }
        };
        self.push(Inst::Const(k as u32), 0)
    }

    fn intern_front(&mut self, front: Vec<Value>) -> u32 {
        match self.fronts.iter().position(|f| *f == front) {
            Some(k) => k as u32,
            None => {
                self.fronts.push(front);
                (self.fronts.len() - 1) as u32
            }
        }
    }

    fn intern_custom(&mut self, f: &Arc<dyn SeqFunction>) -> u32 {
        match self.customs.iter().position(|g| Arc::ptr_eq(g, f)) {
            Some(k) => k as u32,
            None => {
                self.customs.push(Arc::clone(f));
                (self.customs.len() - 1) as u32
            }
        }
    }

    /// The mask bit for one channel, interning it into the table. Falls
    /// back to an all-ones mask (and flags the program inexact) past 128
    /// distinct channels — skipping degrades, correctness does not.
    fn chan_mask(&mut self, c: Chan) -> u128 {
        let i = match self.chans.iter().position(|&k| k == c) {
            Some(i) => i,
            None => {
                self.chans.push(c);
                self.chans.len() - 1
            }
        };
        if i >= 128 {
            self.exact = false;
            u128::MAX
        } else {
            1u128 << i
        }
    }

    fn set_mask(&mut self, cs: &ChanSet) -> u128 {
        let mut m = 0u128;
        for c in cs.iter() {
            m |= self.chan_mask(c);
        }
        m
    }

    fn const_seq(&self, r: NodeRef) -> Option<Seq> {
        match self.insts[r as usize] {
            Inst::Const(k) => Some(self.consts[k as usize].clone()),
            _ => None,
        }
    }

    fn is_empty_const(&self, r: NodeRef) -> bool {
        matches!(self.const_seq(r), Some(s) if s.len().as_finite() == Some(0))
    }

    fn mask(&self, r: NodeRef) -> u128 {
        self.masks[r as usize]
    }

    fn emit_concat(&mut self, front: Vec<Value>, e: NodeRef) -> NodeRef {
        if front.is_empty() {
            return e;
        }
        if let Some(s) = self.const_seq(e) {
            return self.push_const(s.concat_front(&front));
        }
        if let Inst::Concat { front: f2, e: e2 } = self.insts[e as usize] {
            let mut merged = front;
            merged.extend_from_slice(&self.fronts[f2 as usize]);
            let k = self.intern_front(merged);
            let mask = self.mask(e2);
            return self.push(Inst::Concat { front: k, e: e2 }, mask);
        }
        let k = self.intern_front(front);
        let mask = self.mask(e);
        self.push(Inst::Concat { front: k, e }, mask)
    }

    fn emit_map(&mut self, m: ValueMap, e: NodeRef) -> NodeRef {
        if m.is_identity() {
            return e;
        }
        if let Some(s) = self.const_seq(e) {
            return self.push_const(s.map(|v| m.apply(v)));
        }
        match self.insts[e as usize] {
            Inst::Map { m: m1, e: e1 } => {
                if let Some(m2) = m.compose(m1) {
                    return self.emit_map(m2, e1);
                }
            }
            Inst::Filter { p, e: e1 } => {
                let mask = self.mask(e1);
                return self.push(
                    Inst::FilterMap {
                        p,
                        m,
                        order: FuseOrder::FilterThenMap,
                        e: e1,
                    },
                    mask,
                );
            }
            Inst::FilterMap {
                p,
                m: m1,
                order: FuseOrder::FilterThenMap,
                e: e1,
            } => {
                if let Some(m2) = m.compose(m1) {
                    let mask = self.mask(e1);
                    return self.push(
                        Inst::FilterMap {
                            p,
                            m: m2,
                            order: FuseOrder::FilterThenMap,
                            e: e1,
                        },
                        mask,
                    );
                }
            }
            _ => {}
        }
        let mask = self.mask(e);
        self.push(Inst::Map { m, e }, mask)
    }

    fn emit_filter(&mut self, p: ValuePred, e: NodeRef) -> NodeRef {
        if let Some(s) = self.const_seq(e) {
            return self.push_const(s.filter(|v| p.test(v)));
        }
        match self.insts[e as usize] {
            Inst::Filter { p: q, e: e1 } => match q.conjoin(p) {
                Conjunction::Single(s) => return self.emit_filter(s, e1),
                Conjunction::Never => return self.push_const(Lasso::empty()),
                Conjunction::Both => {}
            },
            Inst::Map { m, e: e1 } => {
                let mask = self.mask(e1);
                return self.push(
                    Inst::FilterMap {
                        p,
                        m,
                        order: FuseOrder::MapThenFilter,
                        e: e1,
                    },
                    mask,
                );
            }
            Inst::FilterMap {
                p: p1,
                m,
                order: FuseOrder::MapThenFilter,
                e: e1,
            } => match p1.conjoin(p) {
                Conjunction::Single(s) => {
                    let mask = self.mask(e1);
                    return self.push(
                        Inst::FilterMap {
                            p: s,
                            m,
                            order: FuseOrder::MapThenFilter,
                            e: e1,
                        },
                        mask,
                    );
                }
                Conjunction::Never => return self.push_const(Lasso::empty()),
                Conjunction::Both => {}
            },
            _ => {}
        }
        let mask = self.mask(e);
        self.push(Inst::Filter { p, e }, mask)
    }

    fn emit_zip(&mut self, z: ValueZip, a: NodeRef, b: NodeRef) -> NodeRef {
        if self.is_empty_const(a) || self.is_empty_const(b) {
            // min-length zip with ε is ε, whatever the other side does
            return self.push_const(Lasso::empty());
        }
        if let (Some(sa), Some(sb)) = (self.const_seq(a), self.const_seq(b)) {
            return self.push_const(sa.zip_with(&sb, |x, y| z.apply(x, y)));
        }
        let mask = self.mask(a) | self.mask(b);
        self.push(Inst::Zip { z, a, b }, mask)
    }

    fn emit_take_while(&mut self, p: ValuePred, e: NodeRef) -> NodeRef {
        if let Some(s) = self.const_seq(e) {
            return self.push_const(s.take_while(|v| p.test(v)));
        }
        let mask = self.mask(e);
        self.push(Inst::TakeWhile { p, e }, mask)
    }

    fn emit_skip(&mut self, n: usize, e: NodeRef) -> NodeRef {
        if n == 0 {
            return e;
        }
        if let Some(s) = self.const_seq(e) {
            return self.push_const(s.drop_front(n));
        }
        if let Inst::Skip { n: m, e: e1 } = self.insts[e as usize] {
            if let Some(total) = n.checked_add(m) {
                return self.emit_skip(total, e1);
            }
        }
        if let Inst::Concat { front, e: e1 } = self.insts[e as usize] {
            let fr = self.fronts[front as usize].clone();
            if n >= fr.len() {
                return self.emit_skip(n - fr.len(), e1);
            }
            return self.emit_concat(fr[n..].to_vec(), e1);
        }
        let mask = self.mask(e);
        self.push(Inst::Skip { n, e }, mask)
    }

    fn emit_select(&mut self, data: NodeRef, oracle: NodeRef, keep: bool) -> NodeRef {
        if self.is_empty_const(data) || self.is_empty_const(oracle) {
            return self.push_const(Lasso::empty());
        }
        if let (Some(d), Some(o)) = (self.const_seq(data), self.const_seq(oracle)) {
            return self.push_const(fold_select(&d, &o, keep));
        }
        let mask = self.mask(data) | self.mask(oracle);
        self.push(Inst::OracleSelect { data, oracle, keep }, mask)
    }

    fn emit_count(&mut self, e: NodeRef) -> NodeRef {
        if let Some(s) = self.const_seq(e) {
            return self.push_const(fold_count(&s));
        }
        let mask = self.mask(e);
        self.push(Inst::CountTicks { e }, mask)
    }

    fn emit_emit_first(&mut self, need: usize, add: i64, e: NodeRef) -> NodeRef {
        if let Some(s) = self.const_seq(e) {
            return self.push_const(fold_emit(&s, need, add));
        }
        let mask = self.mask(e);
        self.push(Inst::EmitFirstAfter { need, add, e }, mask)
    }

    /// Sweeps instructions orphaned by folding, compacts the pools, and
    /// seals the program. Instructions stay in topological order with the
    /// root last.
    fn finish(self, root: NodeRef, source: &SeqExpr) -> Program {
        let n = self.insts.len();
        let mut live = vec![false; n];
        live[root as usize] = true;
        for i in (0..n).rev() {
            if !live[i] {
                continue;
            }
            for c in self.insts[i].children().into_iter().flatten() {
                live[c as usize] = true;
            }
        }
        let mut remap = vec![u32::MAX; n];
        let mut insts = Vec::new();
        let mut support = Vec::new();
        let mut consts: Vec<Seq> = Vec::new();
        let mut fronts: Vec<Vec<Value>> = Vec::new();
        let mut customs: Vec<Arc<dyn SeqFunction>> = Vec::new();
        let mut cmap: HashMap<u32, u32> = HashMap::new();
        let mut fmap: HashMap<u32, u32> = HashMap::new();
        let mut umap: HashMap<u32, u32> = HashMap::new();
        for i in 0..n {
            if !live[i] {
                continue;
            }
            remap[i] = insts.len() as u32;
            let mut inst = self.insts[i].retarget(&remap);
            match &mut inst {
                Inst::Const(k) => {
                    *k = *cmap.entry(*k).or_insert_with(|| {
                        consts.push(self.consts[*k as usize].clone());
                        (consts.len() - 1) as u32
                    });
                }
                Inst::Concat { front, .. } => {
                    *front = *fmap.entry(*front).or_insert_with(|| {
                        fronts.push(self.fronts[*front as usize].clone());
                        (fronts.len() - 1) as u32
                    });
                }
                Inst::Custom(k) => {
                    *k = *umap.entry(*k).or_insert_with(|| {
                        customs.push(Arc::clone(&self.customs[*k as usize]));
                        (customs.len() - 1) as u32
                    });
                }
                _ => {}
            }
            insts.push(inst);
            support.push(self.masks[i]);
        }
        // Masks are only trustworthy while every interned channel got a
        // real bit: `chan_mask` flips `exact` off at the 129th distinct
        // channel, and the reconstruction below must never *silently*
        // under-approximate if that invariant ever drifts — `reads()`
        // feeds the monitor's skip optimization and the enumeration
        // engines' support pruning, where an under-approximation skips
        // real evaluation instead of merely degrading. Re-derive
        // inexactness from the table size and fall back to the source's
        // exact `ChanSet` (a syntactically precise support, never an
        // under-approximation) whenever the masks cannot cover every
        // channel.
        debug_assert_eq!(
            self.exact,
            self.chans.len() <= 128,
            "exact flag out of sync with the channel table"
        );
        let exact = self.exact && self.chans.len() <= 128;
        let channels = if exact {
            let root_mask = *support.last().expect("programs are never empty");
            self.chans
                .iter()
                .enumerate()
                .filter(|(i, _)| root_mask & (1u128 << *i) != 0)
                .map(|(_, &c)| c)
                .collect()
        } else {
            source.channels()
        };
        Program {
            insts,
            support,
            chans: self.chans,
            consts,
            fronts,
            customs,
            exact,
            channels,
            source_size: source.size(),
            bottom: OnceLock::new(),
        }
    }
}

impl Default for Builder {
    fn default() -> Builder {
        Builder {
            insts: Vec::new(),
            masks: Vec::new(),
            chans: Vec::new(),
            consts: Vec::new(),
            fronts: Vec::new(),
            customs: Vec::new(),
            cse: HashMap::new(),
            exact: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared per-combinator semantics (used by init, step, and const folding)
// ---------------------------------------------------------------------------

#[inline]
fn apply_filter_map(
    p: ValuePred,
    m: ValueMap,
    order: FuseOrder,
    vals: &[Value],
    out: &mut Vec<Value>,
) {
    match order {
        FuseOrder::MapThenFilter => {
            for v in vals {
                let w = m.apply(v);
                if p.test(&w) {
                    out.push(w);
                }
            }
        }
        FuseOrder::FilterThenMap => {
            for v in vals {
                if p.test(v) {
                    out.push(m.apply(v));
                }
            }
        }
    }
}

#[inline]
fn drain_zip(
    z: ValueZip,
    pa: &mut VecDeque<Value>,
    pb: &mut VecDeque<Value>,
    out: &mut Vec<Value>,
) {
    while let (Some(x), Some(y)) = (pa.front(), pb.front()) {
        out.push(z.apply(x, y));
        pa.pop_front();
        pb.pop_front();
    }
}

#[inline]
fn drain_select(
    keep: bool,
    pd: &mut VecDeque<Value>,
    po: &mut VecDeque<Value>,
    out: &mut Vec<Value>,
) {
    while let (Some(x), Some(y)) = (pd.front(), po.front()) {
        if *y == Value::Bit(keep) {
            out.push(*x);
        }
        pd.pop_front();
        po.pop_front();
    }
}

#[inline]
fn absorb_take_while(p: ValuePred, done: &mut bool, vals: &[Value], out: &mut Vec<Value>) {
    for v in vals {
        if *done {
            break;
        }
        if p.test(v) {
            out.push(*v);
        } else {
            *done = true;
        }
    }
}

#[inline]
fn absorb_skip(remaining: &mut usize, vals: &[Value], out: &mut Vec<Value>) {
    let dropped = (*remaining).min(vals.len());
    *remaining -= dropped;
    out.extend_from_slice(&vals[dropped..]);
}

#[inline]
fn absorb_count(ticks: &mut i64, done: &mut bool, vals: &[Value], out: &mut Vec<Value>) {
    for v in vals {
        if *done {
            break;
        }
        if ValuePred::IsFalse.test(v) {
            out.push(Value::Int(*ticks));
            *done = true;
        } else if ValuePred::IsTrue.test(v) {
            *ticks += 1;
        }
        // Non-bit values neither tick nor terminate (matching eval).
    }
}

/// Mutable state of one [`Inst::EmitFirstAfter`] slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EmitState {
    seen: usize,
    first: Option<Value>,
    emitted: bool,
}

#[inline]
fn absorb_emit(need: usize, add: i64, st: &mut EmitState, vals: &[Value], out: &mut Vec<Value>) {
    if st.emitted {
        return;
    }
    for v in vals {
        if st.first.is_none() {
            st.first = Some(*v);
        }
        st.seen += 1;
    }
    if st.seen >= need {
        st.emitted = true;
        if let Some(Value::Int(n)) = st.first {
            out.push(Value::Int(n + add));
        }
        // A non-integer first element means empty forever (matching eval).
    }
}

/// Oracle selection on whole sequences (eval + const folding).
fn fold_select(d: &Seq, o: &Seq, keep: bool) -> Seq {
    d.zip_with(o, |x, y| (*x, *y))
        .filter(|(_, y)| *y == Value::Bit(keep))
        .map(|(x, _)| *x)
}

/// Tick counting on whole sequences (eval + const folding).
fn fold_count(s: &Seq) -> Seq {
    match s.position(|v| ValuePred::IsFalse.test(v)) {
        Some(i) => {
            let ticks = s
                .take(i)
                .iter()
                .filter(|v| ValuePred::IsTrue.test(v))
                .count();
            Lasso::finite(vec![Value::Int(ticks as i64)])
        }
        None => Lasso::empty(),
    }
}

/// First-element emission on whole sequences (eval + const folding).
fn fold_emit(s: &Seq, need: usize, add: i64) -> Seq {
    let enough = match s.len().as_finite() {
        Some(n) => n >= need.max(1),
        None => true,
    };
    if enough {
        match s.get(0) {
            Some(Value::Int(n)) => Lasso::finite(vec![Value::Int(n + add)]),
            _ => Lasso::empty(),
        }
    } else {
        Lasso::empty()
    }
}

// ---------------------------------------------------------------------------
// The compiled delta machine
// ---------------------------------------------------------------------------

/// Mutable per-slot state of the compiled machine. Stateless instructions
/// (channel, const, concat, map, filter, fused filter-map) share
/// [`Slot::Pass`].
#[derive(Debug)]
enum Slot {
    /// No per-event state.
    Pass,
    /// Zip surplus buffers (at most one non-empty).
    Zip {
        pa: VecDeque<Value>,
        pb: VecDeque<Value>,
    },
    /// Take-while absorbing flag.
    TakeWhile { done: bool },
    /// Elements still to be dropped.
    Skip { remaining: usize },
    /// Oracle-select surplus buffers.
    Select {
        pd: VecDeque<Value>,
        po: VecDeque<Value>,
    },
    /// Tick counter.
    Count { ticks: i64, done: bool },
    /// First-element emitter.
    Emit(EmitState),
    /// A custom function's own incremental state.
    Custom(Box<dyn CustomDeltaState>),
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        match self {
            Slot::Pass => Slot::Pass,
            Slot::Zip { pa, pb } => Slot::Zip {
                pa: pa.clone(),
                pb: pb.clone(),
            },
            Slot::TakeWhile { done } => Slot::TakeWhile { done: *done },
            Slot::Skip { remaining } => Slot::Skip {
                remaining: *remaining,
            },
            Slot::Select { pd, po } => Slot::Select {
                pd: pd.clone(),
                po: po.clone(),
            },
            Slot::Count { ticks, done } => Slot::Count {
                ticks: *ticks,
                done: *done,
            },
            Slot::Emit(st) => Slot::Emit(*st),
            Slot::Custom(st) => Slot::Custom(st.clone_box()),
        }
    }

    /// Reuses `self`'s surplus-buffer allocations when both slots are the
    /// same kind — the engine resets a scratch machine from its parent
    /// once per candidate event.
    fn clone_from(&mut self, src: &Slot) {
        match (self, src) {
            (Slot::Zip { pa, pb }, Slot::Zip { pa: sa, pb: sb }) => {
                pa.clone_from(sa);
                pb.clone_from(sb);
            }
            (Slot::Select { pd, po }, Slot::Select { pd: sd, po: so }) => {
                pd.clone_from(sd);
                po.clone_from(so);
            }
            (me, src) => *me = src.clone(),
        }
    }
}

/// One pointwise stage of a [`Repr::Chain`] program, with its mutable
/// state inline. Each step threads at most one scalar through the stages,
/// so the stateful combinators specialize their absorb loops to a single
/// value.
#[derive(Debug, Clone)]
enum ChainOp {
    Map(ValueMap),
    Filter(ValuePred),
    FilterMap {
        p: ValuePred,
        m: ValueMap,
        order: FuseOrder,
    },
    Skip {
        remaining: usize,
    },
    TakeWhile {
        p: ValuePred,
        done: bool,
    },
    Count {
        ticks: i64,
        done: bool,
    },
    Emit {
        need: usize,
        add: i64,
        st: EmitState,
    },
}

/// Runtime shape of a compiled delta machine.
enum Repr {
    /// A linear single-channel program: `inst[0]` is the channel leaf and
    /// every later instruction consumes exactly the one before it with a
    /// pointwise combinator. Post-fusion this is the overwhelmingly common
    /// shape (every zoo equation side, every fused pipeline), and it steps
    /// with zero buffer traffic: one scalar register threads the ops.
    /// Incrementally-inert concats are dropped at conversion — their front
    /// was consumed by the init value.
    Chain { chan: Chan, ops: Vec<ChainOp> },
    /// The general DAG: per-slot state plus reusable append buffers.
    /// `bufs` is scratch — every pass clears a buffer before anyone reads
    /// it — so clones leave it empty and the first step sizes it.
    Graph {
        slots: Vec<Slot>,
        bufs: Vec<Vec<Value>>,
    },
}

/// Shows the machine state only: `bufs` is scratch.
impl fmt::Debug for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Repr::Chain { chan, ops } => f
                .debug_struct("Chain")
                .field("chan", chan)
                .field("ops", ops)
                .finish(),
            Repr::Graph { slots, .. } => f
                .debug_struct("Graph")
                .field("slots", slots)
                .finish_non_exhaustive(),
        }
    }
}

impl Clone for Repr {
    fn clone(&self) -> Repr {
        match self {
            Repr::Chain { chan, ops } => Repr::Chain {
                chan: *chan,
                ops: ops.clone(),
            },
            Repr::Graph { slots, .. } => Repr::Graph {
                slots: slots.clone(),
                bufs: Vec::new(),
            },
        }
    }

    /// Copies the machine state into `self`'s allocations, keeping its
    /// own scratch `bufs`.
    fn clone_from(&mut self, src: &Repr) {
        match (self, src) {
            (Repr::Chain { chan, ops }, Repr::Chain { chan: sc, ops: so }) => {
                *chan = *sc;
                ops.clone_from(so);
            }
            (Repr::Graph { slots, .. }, Repr::Graph { slots: ss, .. }) => slots.clone_from(ss),
            (me, src) => *me = src.clone(),
        }
    }
}

/// Recognizes the [`Repr::Chain`] shape, harvesting each stateful op's
/// already-initialized state out of its slot.
fn chain_ops(prog: &Program, slots: &[Slot]) -> Option<(Chan, Vec<ChainOp>)> {
    let Inst::Chan(chan) = prog.insts[0] else {
        return None;
    };
    let mut ops = Vec::with_capacity(prog.insts.len() - 1);
    // Indexing two parallel arrays (insts and slots); zip would obscure
    // the `e == prev` chain-shape test.
    #[allow(clippy::needless_range_loop)]
    for i in 1..prog.insts.len() {
        let prev = (i - 1) as u32;
        let op = match prog.insts[i] {
            Inst::Concat { e, .. } if e == prev => None,
            Inst::Map { m, e } if e == prev => Some(ChainOp::Map(m)),
            Inst::Filter { p, e } if e == prev => Some(ChainOp::Filter(p)),
            Inst::FilterMap { p, m, order, e } if e == prev => {
                Some(ChainOp::FilterMap { p, m, order })
            }
            Inst::Skip { e, .. } if e == prev => {
                let Slot::Skip { remaining } = slots[i] else {
                    unreachable!("skip inst with non-skip slot");
                };
                Some(ChainOp::Skip { remaining })
            }
            Inst::TakeWhile { p, e } if e == prev => {
                let Slot::TakeWhile { done } = slots[i] else {
                    unreachable!("takewhile inst with non-takewhile slot");
                };
                Some(ChainOp::TakeWhile { p, done })
            }
            Inst::CountTicks { e } if e == prev => {
                let Slot::Count { ticks, done } = slots[i] else {
                    unreachable!("count inst with non-count slot");
                };
                Some(ChainOp::Count { ticks, done })
            }
            Inst::EmitFirstAfter { need, add, e } if e == prev => {
                let Slot::Emit(st) = slots[i] else {
                    unreachable!("emit inst with non-emit slot");
                };
                Some(ChainOp::Emit {
                    need: need.max(1),
                    add,
                    st,
                })
            }
            _ => return None,
        };
        ops.extend(op);
    }
    Some((chan, ops))
}

/// Incremental evaluation state for a [`CompiledExpr`]: a register
/// machine that computes the values one appended event adds to the
/// program's output, in O(|appended|) rather than a replay of the trace.
///
/// Linear single-channel programs step on the scalar `Repr::Chain` fast
/// path (a private repr). Everything else takes a linear pass over the
/// instruction slots:
/// each slot's appended values land in a reusable per-slot buffer, parent
/// slots read their children's buffers directly (children precede
/// parents), and slots whose channel-support mask excludes the event's
/// channel are skipped.
#[derive(Debug)]
pub struct CompiledDeltaState {
    prog: Arc<Program>,
    repr: Repr,
}

impl Clone for CompiledDeltaState {
    fn clone(&self) -> CompiledDeltaState {
        CompiledDeltaState {
            prog: Arc::clone(&self.prog),
            repr: self.repr.clone(),
        }
    }

    /// Resets `self` to `src` reusing `self`'s allocations: the op list,
    /// the slot table and its surplus buffers, and the scratch append
    /// buffers. The program handle is only re-pointed when it differs.
    fn clone_from(&mut self, src: &CompiledDeltaState) {
        if !Arc::ptr_eq(&self.prog, &src.prog) {
            self.prog = Arc::clone(&src.prog);
        }
        self.repr.clone_from(&src.repr);
    }
}

impl CompiledDeltaState {
    /// True iff an event on `c` can change the program's output.
    #[inline]
    pub fn reads(&self, c: Chan) -> bool {
        match &self.repr {
            // A chain's support is exactly its leaf channel — one compare,
            // no table probe.
            Repr::Chain { chan, .. } => c == *chan,
            Repr::Graph { .. } => self.prog.reads(c),
        }
    }

    /// Advances by one appended event, pushing the values the program's
    /// output gains onto `out` — amortized O(live instructions) with an
    /// O(1) early exit for events outside the program's support, and
    /// allocation-free in steady state.
    pub fn step_into(&mut self, ev: Event, out: &mut Vec<Value>) {
        let prog = &self.prog;
        match &mut self.repr {
            Repr::Chain { chan, ops } => {
                if ev.chan == *chan {
                    chain_step(ops, ev.value, out);
                }
            }
            Repr::Graph { slots, bufs } => {
                let ev_bit: Option<u128> = if prog.exact {
                    match prog.chan_index(ev.chan) {
                        Some(i) => Some(1u128 << i),
                        // Outside every node's support: nothing anywhere
                        // can change. (Stale per-slot buffers are fine —
                        // each pass clears a buffer before anyone reads
                        // it.)
                        None => return,
                    }
                } else {
                    None
                };
                let n = prog.insts.len();
                bufs.resize_with(n, Vec::new);
                // The index drives `split_at_mut` (operand buffers left
                // of the one being written) — not a simple iteration.
                #[allow(clippy::needless_range_loop)]
                for i in 0..n {
                    let (fed, rest) = bufs.split_at_mut(i);
                    let buf = &mut rest[0];
                    buf.clear();
                    if matches!(ev_bit, Some(b) if prog.support[i] & b == 0) {
                        continue;
                    }
                    match prog.insts[i] {
                        Inst::Chan(c) => {
                            if ev.chan == c {
                                buf.push(ev.value);
                            }
                        }
                        Inst::Const(_) => {}
                        Inst::Concat { e, .. } => buf.extend_from_slice(&fed[e as usize]),
                        Inst::Map { m, e } => {
                            for v in &fed[e as usize] {
                                buf.push(m.apply(v));
                            }
                        }
                        Inst::Filter { p, e } => {
                            for v in &fed[e as usize] {
                                if p.test(v) {
                                    buf.push(*v);
                                }
                            }
                        }
                        Inst::FilterMap { p, m, order, e } => {
                            apply_filter_map(p, m, order, &fed[e as usize], buf);
                        }
                        Inst::Zip { z, a, b } => {
                            let Slot::Zip { pa, pb } = &mut slots[i] else {
                                unreachable!("zip inst with non-zip slot");
                            };
                            pa.extend(fed[a as usize].iter().copied());
                            pb.extend(fed[b as usize].iter().copied());
                            drain_zip(z, pa, pb, buf);
                        }
                        Inst::TakeWhile { p, e } => {
                            let Slot::TakeWhile { done } = &mut slots[i] else {
                                unreachable!("takewhile inst with non-takewhile slot");
                            };
                            absorb_take_while(p, done, &fed[e as usize], buf);
                        }
                        Inst::Skip { e, .. } => {
                            let Slot::Skip { remaining } = &mut slots[i] else {
                                unreachable!("skip inst with non-skip slot");
                            };
                            absorb_skip(remaining, &fed[e as usize], buf);
                        }
                        Inst::OracleSelect { data, oracle, keep } => {
                            let Slot::Select { pd, po } = &mut slots[i] else {
                                unreachable!("select inst with non-select slot");
                            };
                            pd.extend(fed[data as usize].iter().copied());
                            po.extend(fed[oracle as usize].iter().copied());
                            drain_select(keep, pd, po, buf);
                        }
                        Inst::CountTicks { e } => {
                            let Slot::Count { ticks, done } = &mut slots[i] else {
                                unreachable!("count inst with non-count slot");
                            };
                            absorb_count(ticks, done, &fed[e as usize], buf);
                        }
                        Inst::EmitFirstAfter { need, add, e } => {
                            let Slot::Emit(st) = &mut slots[i] else {
                                unreachable!("emit inst with non-emit slot");
                            };
                            absorb_emit(need.max(1), add, st, &fed[e as usize], buf);
                        }
                        Inst::Custom(_) => {
                            let Slot::Custom(st) = &mut slots[i] else {
                                unreachable!("custom inst with non-custom slot");
                            };
                            buf.extend(st.step(ev));
                        }
                    }
                }
                out.extend_from_slice(&bufs[n - 1]);
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`CompiledDeltaState::step_into`].
    pub fn step(&mut self, ev: Event) -> Vec<Value> {
        let mut out = Vec::new();
        self.step_into(ev, &mut out);
        out
    }

    /// True iff stepping never changes this machine: a linear chain whose
    /// stages are all pointwise maps and filters. Such a machine is
    /// stepped through `&self` with [`CompiledDeltaState::step_shared`],
    /// so any number of traces can share one copy. Fixed for the
    /// machine's lifetime, since stepping changes no stage's kind.
    pub fn is_stateless(&self) -> bool {
        match &self.repr {
            Repr::Chain { ops, .. } => ops.iter().all(|op| {
                matches!(
                    op,
                    ChainOp::Map(_) | ChainOp::Filter(_) | ChainOp::FilterMap { .. }
                )
            }),
            Repr::Graph { .. } => false,
        }
    }

    /// Appends a canonical key of the machine's behaviour-relevant state to
    /// `out`: equal keys from two machines of the same program mean equal
    /// appended values under every continuation.
    ///
    /// The key holds the stateful stages' counters and flags and the
    /// `Zip`/`Select` surplus contents. It leaves out the scratch buffers
    /// and how much the machine has emitted, and it drops dead state: a
    /// finished tick counter forgets its count, a fired emitter its
    /// threshold progress. So a stateless machine keys to nothing,
    /// whatever history it was fed.
    ///
    /// Returns `false`, with `out` partly written, when a custom stage has
    /// no [`CustomDeltaState::encode`] hook: such a machine is opaque.
    pub fn state_key(&self, out: &mut Vec<u8>) -> bool {
        match &self.repr {
            Repr::Chain { ops, .. } => {
                for op in ops {
                    match *op {
                        ChainOp::Map(_) | ChainOp::Filter(_) | ChainOp::FilterMap { .. } => {}
                        ChainOp::Skip { remaining } => key_usize(remaining, out),
                        ChainOp::TakeWhile { done, .. } => out.push(done as u8),
                        ChainOp::Count { ticks, done } => key_count(ticks, done, out),
                        ChainOp::Emit { st, .. } => key_emit(&st, out),
                    }
                }
                true
            }
            Repr::Graph { slots, .. } => slots.iter().all(|slot| match slot {
                Slot::Pass => true,
                Slot::Zip { pa: x, pb: y } | Slot::Select { pd: x, po: y } => {
                    key_values(x.iter(), out);
                    key_values(y.iter(), out);
                    true
                }
                Slot::TakeWhile { done } => {
                    out.push(*done as u8);
                    true
                }
                Slot::Skip { remaining } => {
                    key_usize(*remaining, out);
                    true
                }
                Slot::Count { ticks, done } => {
                    key_count(*ticks, *done, out);
                    true
                }
                Slot::Emit(st) => {
                    key_emit(st, out);
                    true
                }
                Slot::Custom(st) => match st.encode() {
                    Some(bytes) => {
                        key_usize(bytes.len(), out);
                        out.extend_from_slice(&bytes);
                        true
                    }
                    None => false,
                },
            }),
        }
    }

    /// [`CompiledDeltaState::step_into`] for a stateless machine, through
    /// a shared reference: pushes the values one appended event adds.
    ///
    /// # Panics
    ///
    /// Panics unless [`CompiledDeltaState::is_stateless`] holds.
    #[inline]
    pub fn step_shared(&self, ev: Event, out: &mut Vec<Value>) {
        let Repr::Chain { chan, ops } = &self.repr else {
            panic!("step_shared on a stateful machine");
        };
        if ev.chan != *chan {
            return;
        }
        let mut val = ev.value;
        for op in ops {
            match *op {
                ChainOp::Map(m) => val = m.apply(&val),
                ChainOp::Filter(p) => {
                    if !p.test(&val) {
                        return;
                    }
                }
                ChainOp::FilterMap { p, m, order } => match order {
                    FuseOrder::MapThenFilter => {
                        val = m.apply(&val);
                        if !p.test(&val) {
                            return;
                        }
                    }
                    FuseOrder::FilterThenMap => {
                        if !p.test(&val) {
                            return;
                        }
                        val = m.apply(&val);
                    }
                },
                _ => panic!("step_shared on a stateful machine"),
            }
        }
        out.push(val);
    }
}

/// Threads one scalar through a chain's stages, pushing the survivor (if
/// any) onto `out` — the body of [`Repr::Chain`] stepping, shared with the
/// fused pair driver [`batch_advance`]. `inline(always)`: both callers
/// run it per event in their hottest loop, and the common chain is one or
/// two stages — the call overhead rivals the work.
#[inline(always)]
fn chain_step(ops: &mut [ChainOp], mut val: Value, out: &mut Vec<Value>) {
    for op in ops.iter_mut() {
        match op {
            ChainOp::Map(m) => val = m.apply(&val),
            ChainOp::Filter(p) => {
                if !p.test(&val) {
                    return;
                }
            }
            ChainOp::FilterMap { p, m, order } => match order {
                FuseOrder::MapThenFilter => {
                    val = m.apply(&val);
                    if !p.test(&val) {
                        return;
                    }
                }
                FuseOrder::FilterThenMap => {
                    if !p.test(&val) {
                        return;
                    }
                    val = m.apply(&val);
                }
            },
            ChainOp::Skip { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    return;
                }
            }
            ChainOp::TakeWhile { p, done } => {
                if *done || !p.test(&val) {
                    *done = true;
                    return;
                }
            }
            ChainOp::Count { ticks, done } => {
                if *done {
                    return;
                }
                if ValuePred::IsFalse.test(&val) {
                    *done = true;
                    val = Value::Int(*ticks);
                } else {
                    if ValuePred::IsTrue.test(&val) {
                        *ticks += 1;
                    }
                    // Ticks and non-bit values produce nothing.
                    return;
                }
            }
            ChainOp::Emit { need, add, st } => {
                if st.emitted {
                    return;
                }
                if st.first.is_none() {
                    st.first = Some(val);
                }
                st.seen += 1;
                if st.seen < *need {
                    return;
                }
                st.emitted = true;
                match st.first {
                    Some(Value::Int(n)) => val = Value::Int(n + *add),
                    // A non-integer first element: empty forever.
                    _ => return,
                }
            }
        }
    }
    out.push(val);
}

// ---------------------------------------------------------------------------
// Canonical state keys
// ---------------------------------------------------------------------------

fn key_usize(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u64).to_le_bytes());
}

fn key_value(v: &Value, out: &mut Vec<u8>) {
    match *v {
        Value::Int(n) => {
            out.push(0);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Bit(b) => out.extend_from_slice(&[1, b as u8]),
        Value::Pair(tag, n) => {
            out.extend_from_slice(&[2, tag]);
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

fn key_values<'a>(vals: impl ExactSizeIterator<Item = &'a Value>, out: &mut Vec<u8>) {
    key_usize(vals.len(), out);
    for v in vals {
        key_value(v, out);
    }
}

/// Appends the canonical, length-prefixed key of a value sequence — the
/// encoding [`CompiledDeltaState::state_key`] uses for surplus buffers,
/// for callers that key a side's unmatched output next to its machine.
pub fn key_seq(vals: &[Value], out: &mut Vec<u8>) {
    key_values(vals.iter(), out);
}

/// A finished counter's count is dead: it never emits again.
fn key_count(ticks: i64, done: bool, out: &mut Vec<u8>) {
    if done {
        out.push(1);
    } else {
        out.push(0);
        out.extend_from_slice(&ticks.to_le_bytes());
    }
}

/// A fired emitter's progress is dead: it never emits again.
fn key_emit(st: &EmitState, out: &mut Vec<u8>) {
    if st.emitted {
        out.push(1);
        return;
    }
    out.push(0);
    key_usize(st.seen, out);
    match &st.first {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            key_value(v, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled side evaluators (the monitor's building block)
// ---------------------------------------------------------------------------

/// A resumable evaluator for one side of a description equation, driven by
/// a [`CompiledExpr`].
///
/// Programs [`CompiledExpr::delta_init`] rejects (infinite constants,
/// hookless customs) degrade to an opaque fallback that re-evaluates the
/// compiled program per query; soundness never depends on the fast path.
#[derive(Debug)]
pub enum CompiledSideEval {
    /// Incremental: compiled machine plus the append-only output so far.
    Delta {
        /// The compiled machine.
        state: CompiledDeltaState,
        /// The side's full (finite) output so far, append-only.
        out: Vec<Value>,
    },
    /// Fallback: the program plus every event fed so far.
    Opaque {
        /// The program being tracked.
        expr: CompiledExpr,
        /// Events fed so far (already projected by the caller).
        events: Vec<Event>,
    },
}

impl Clone for CompiledSideEval {
    fn clone(&self) -> CompiledSideEval {
        match self {
            CompiledSideEval::Delta { state, out } => CompiledSideEval::Delta {
                state: state.clone(),
                out: out.clone(),
            },
            CompiledSideEval::Opaque { expr, events } => CompiledSideEval::Opaque {
                expr: expr.clone(),
                events: events.clone(),
            },
        }
    }
}

/// A cheap pre-step snapshot of a [`CompiledSideEval`]'s output, for the
/// smoothness query `f(v) ⊑ g(u)` where `u` is the trace *before* the
/// step into `v`: freeze `g`, step both sides, then compare against the
/// frozen state.
#[derive(Debug, Clone)]
pub enum FrozenSide {
    /// An incremental side is frozen by its output length alone — its
    /// output is append-only, so the pre-step value is the current
    /// output truncated to this length. O(1) to take.
    Len(usize),
    /// An opaque side is frozen by its fully evaluated value.
    Seq(Seq),
}

impl CompiledSideEval {
    /// Builds the evaluator for `e` at the empty trace.
    pub fn new(e: &CompiledExpr) -> CompiledSideEval {
        match e.delta_init() {
            Some((state, out)) => CompiledSideEval::Delta { state, out },
            None => CompiledSideEval::Opaque {
                expr: e.clone(),
                events: Vec::new(),
            },
        }
    }

    /// True iff the side runs on the incremental fast path.
    pub fn is_incremental(&self) -> bool {
        matches!(self, CompiledSideEval::Delta { .. })
    }

    /// True iff an event on `c` can change this side's value. The caller
    /// may skip feeding (and checking against) events outside the support:
    /// evaluation is projection-invariant on it.
    #[inline]
    pub fn reads(&self, c: Chan) -> bool {
        match self {
            CompiledSideEval::Delta { state, .. } => state.reads(c),
            CompiledSideEval::Opaque { expr, .. } => expr.reads(c),
        }
    }

    /// Advances the side by one appended event — allocation-free in steady
    /// state on the incremental path.
    #[inline]
    pub fn step(&mut self, ev: Event) {
        match self {
            CompiledSideEval::Delta { state, out } => state.step_into(ev, out),
            CompiledSideEval::Opaque { events, .. } => events.push(ev),
        }
    }

    /// The side's append-only output so far, when on the incremental
    /// path — the raw slice behind [`value`](CompiledSideEval::value),
    /// exposed so batch drivers can run length checks and deferred prefix
    /// compares without materializing a [`Seq`] per event.
    #[inline]
    pub fn delta_out(&self) -> Option<&[Value]> {
        match self {
            CompiledSideEval::Delta { out, .. } => Some(out),
            CompiledSideEval::Opaque { .. } => None,
        }
    }

    /// The side's full current value — exact, including opaque sides.
    pub fn value(&self) -> Seq {
        match self {
            CompiledSideEval::Delta { out, .. } => Lasso::finite(out.clone()),
            CompiledSideEval::Opaque { expr, events } => expr.eval(&Trace::finite(events.clone())),
        }
    }

    /// Snapshots the side's pre-step output: O(1) for incremental sides.
    #[inline]
    pub fn freeze(&self) -> FrozenSide {
        match self {
            CompiledSideEval::Delta { out, .. } => FrozenSide::Len(out.len()),
            CompiledSideEval::Opaque { .. } => FrozenSide::Seq(self.value()),
        }
    }

    /// The value this side had when `frozen` was taken from it.
    ///
    /// # Panics
    ///
    /// Panics if `frozen` was taken from a differently shaped side.
    pub fn frozen_value(&self, frozen: &FrozenSide) -> Seq {
        match (self, frozen) {
            (CompiledSideEval::Delta { out, .. }, FrozenSide::Len(n)) => {
                Lasso::finite(out[..*n].to_vec())
            }
            (_, FrozenSide::Seq(s)) => s.clone(),
            (CompiledSideEval::Opaque { .. }, FrozenSide::Len(_)) => {
                unreachable!("length freeze taken from an opaque side")
            }
        }
    }
}

/// Advances both sides of one component equation over the events
/// `evs[i]` for `i` in `at` (ascending batch positions), returning `true`
/// iff the *length* half of every per-event check held: `|f| ≤ |g|` at
/// entry, then `|f(u·e)| ≤ |g(u)|` at each stepped event. The caller
/// defers the *value* half to one prefix compare over the appended tails —
/// both outputs are append-only, so a position compares equal at batch end
/// iff it compared equal the step it appeared.
///
/// `at` needs to list only the events on channels `f` or `g` reads: any
/// other event changes neither side, so with the entry invariant its check
/// `|f(u)| ≤ |g(u)|` is implied by the last stepped one (or by the entry
/// check). Cost: O(|at|) amortized, independent of the batch length; the
/// monitor buckets each batch by channel once so that, summed over all
/// pairs, a drain costs O(batch + Σ pairs' read events).
///
/// A `false` return is a conviction *hint*, not a verdict: the caller
/// replays the batch through the exact per-event path to place the first
/// violation. Sides that are not both incremental step exactly and return
/// `false` (the replay is then the only checker).
///
/// The dominant chain×chain shape (every fused zoo equation) is matched
/// once up front and runs a dispatch-free loop: two channel compares and
/// the scalar stage thread per event.
pub fn batch_advance(
    f: &mut CompiledSideEval,
    g: &mut CompiledSideEval,
    evs: &[Event],
    at: &[usize],
) -> bool {
    match (f, g) {
        (
            CompiledSideEval::Delta {
                state:
                    CompiledDeltaState {
                        repr:
                            Repr::Chain {
                                chan: fc,
                                ops: fops,
                            },
                        ..
                    },
                out: fo,
            },
            CompiledSideEval::Delta {
                state:
                    CompiledDeltaState {
                        repr:
                            Repr::Chain {
                                chan: gc,
                                ops: gops,
                            },
                        ..
                    },
                out: go,
            },
        ) => {
            let (fc, gc) = (*fc, *gc);
            // One growth apiece up front: a chain appends at most one
            // value per event, and the bottom outputs are exact-sized, so
            // without this every side pays a realloc ladder mid-batch.
            fo.reserve(at.len());
            go.reserve(at.len());
            // Entry invariant: with it, events `f` ignores can't break the
            // length condition (g only grows), so only f-growth points are
            // checked — the same induction as the monitor's base_ok skip.
            let mut ok = fo.len() <= go.len();
            for &i in at {
                let ev = evs[i];
                let gl = go.len();
                if ev.chan == fc {
                    chain_step(fops, ev.value, fo);
                    ok &= fo.len() <= gl;
                }
                if ev.chan == gc {
                    chain_step(gops, ev.value, go);
                }
            }
            ok
        }
        (
            CompiledSideEval::Delta { state: fs, out: fo },
            CompiledSideEval::Delta { state: gs, out: go },
        ) => {
            // Entry invariant, as above: it stands in for the checks on
            // the events `at` leaves out.
            let mut ok = fo.len() <= go.len();
            for &i in at {
                let ev = evs[i];
                let gl = go.len();
                fs.step_into(ev, fo);
                gs.step_into(ev, go);
                ok &= fo.len() <= gl;
            }
            ok
        }
        (f, g) => {
            for &i in at {
                f.step(evs[i]);
                g.step(evs[i]);
            }
            false
        }
    }
}

/// The per-step smoothness query `f(v) ⊑ g(u)`: `f` has been stepped into
/// `v`, `g_frozen` is `g`'s snapshot at `u` (taken with
/// [`CompiledSideEval::freeze`] before the step), and `g` is `g`'s current
/// (post-step) state — needed because a length-freeze reads the frozen
/// values out of `g`'s append-only buffer.
///
/// `verified` is the caller-held count of `f` output positions already
/// certified against earlier frozen states. Because both outputs are
/// append-only and `g(u) ⊑ g(u')` for `u ⊑ u'`, certified positions stay
/// certified; on the incremental path only the newly appended positions
/// are compared, making the check amortized O(1) per event. Returns
/// `true` (and advances `verified`) iff the query holds; opaque sides
/// fall back to a full `⊑` comparison and leave `verified` untouched.
#[inline]
pub fn step_check(
    f: &CompiledSideEval,
    g: &CompiledSideEval,
    g_frozen: &FrozenSide,
    verified: &mut usize,
) -> bool {
    match (f, g, g_frozen) {
        (
            CompiledSideEval::Delta { out: fo, .. },
            CompiledSideEval::Delta { out: go, .. },
            FrozenSide::Len(gl),
        ) => {
            // finite prefix order is literal prefix: every f position must
            // exist (f no longer than the frozen g) and match g's value
            if fo.len() > *gl {
                return false;
            }
            if fo[*verified..] != go[*verified..fo.len()] {
                return false;
            }
            *verified = fo.len();
            true
        }
        _ => f.value().leq(&g.frozen_value(g_frozen)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_trace::Event;

    fn b() -> Chan {
        Chan::new(0)
    }
    fn c() -> Chan {
        Chan::new(1)
    }
    fn d() -> Chan {
        Chan::new(2)
    }
    fn ints(ns: &[i64]) -> Seq {
        Lasso::finite(ns.iter().copied().map(Value::Int))
    }

    /// Compiled evaluation must agree with the interpreter on every prefix
    /// of the given event list, and the compiled delta machine must agree
    /// with full evaluation event by event — on both the in-place
    /// [`CompiledDeltaState::step_into`] the hot loops use and the
    /// allocating [`CompiledDeltaState::step`].
    fn assert_compiled_agrees(e: &SeqExpr, events: &[Event]) {
        let ce = e.compile();
        assert_eq!(
            ce.eval(&Trace::empty()),
            e.eval(&Trace::empty()),
            "{e} at ⊥"
        );
        let delta = ce.delta_init();
        let mut acc = delta.as_ref().map(|(_, out)| out.clone());
        let mut st = delta.map(|(st, _)| st);
        let mut st2 = st.clone();
        let mut acc2 = acc.clone();
        if let Some(acc) = &acc {
            assert_eq!(
                Lasso::finite(acc.clone()),
                e.eval(&Trace::empty()),
                "compiled init mismatch for {e}"
            );
        }
        let mut prefix = Vec::new();
        for &ev in events {
            prefix.push(ev);
            let t = Trace::finite(prefix.clone());
            assert_eq!(
                ce.eval(&t),
                e.eval(&t),
                "compiled eval mismatch for {e} at {t}"
            );
            if let (Some(st), Some(acc)) = (st.as_mut(), acc.as_mut()) {
                st.step_into(ev, acc);
                assert_eq!(
                    Lasso::finite(acc.clone()),
                    e.eval(&t),
                    "compiled delta mismatch for {e} after {prefix:?}"
                );
            }
            if let (Some(st2), Some(acc2)) = (st2.as_mut(), acc2.as_mut()) {
                acc2.extend(st2.step(ev));
                assert_eq!(
                    acc2,
                    acc.as_ref().expect("both machines"),
                    "step diverged for {e}"
                );
            }
        }
        // lasso input too
        let t = Trace::lasso(prefix.clone(), prefix);
        assert_eq!(
            ce.eval(&t),
            e.eval(&t),
            "compiled lasso eval mismatch for {e}"
        );
    }

    fn mixed_events() -> Vec<Event> {
        vec![
            Event::int(d(), 0),
            Event::int(b(), 7),
            Event::bit(c(), true),
            Event::int(d(), 1),
            Event::bit(c(), false),
            Event::int(d(), 2),
            Event::bit(b(), true),
            Event::int(c(), 3),
        ]
    }

    #[test]
    fn map_map_fuses_to_one_inst() {
        let e = SeqExpr::affine(2, 1, SeqExpr::affine(3, 0, SeqExpr::chan(d())));
        let ce = e.compile();
        assert_eq!(ce.inst_count(), 2, "map∘map should fuse:\n{ce}");
        assert_eq!(ce.source_size(), 3);
        assert_compiled_agrees(&e, &mixed_events());
    }

    #[test]
    fn filter_filter_fuses_or_folds() {
        // even ∘ odd is unsatisfiable → constant ε
        let e = SeqExpr::even(SeqExpr::odd(SeqExpr::chan(d())));
        let ce = e.compile();
        assert!(ce.is_const(), "even∘odd should fold to ε:\n{ce}");
        assert_compiled_agrees(&e, &mixed_events());
        // even ∘ =4 → single filter
        let e2 = SeqExpr::even(SeqExpr::Filter(
            ValuePred::IntIs(4),
            Box::new(SeqExpr::chan(d())),
        ));
        let ce2 = e2.compile();
        assert_eq!(ce2.inst_count(), 2, "even∘(=4) should fuse:\n{ce2}");
        assert_compiled_agrees(&e2, &mixed_events());
    }

    #[test]
    fn filter_map_fuses_both_orders() {
        // Filter(even, Map(2×+1, …)): map first, then filter the mapped
        let e = SeqExpr::even(SeqExpr::affine(2, 1, SeqExpr::chan(d())));
        let ce = e.compile();
        assert_eq!(ce.inst_count(), 2, "filter∘map should fuse:\n{ce}");
        assert!(ce.to_string().contains("mapfilter"), "{ce}");
        assert_compiled_agrees(&e, &mixed_events());
        // Map(2×, Filter(even, …)): filter first, then map
        let e2 = SeqExpr::affine(2, 0, SeqExpr::even(SeqExpr::chan(d())));
        let ce2 = e2.compile();
        assert_eq!(ce2.inst_count(), 2, "map∘filter should fuse:\n{ce2}");
        assert!(ce2.to_string().contains("filtermap"), "{ce2}");
        assert_compiled_agrees(&e2, &mixed_events());
    }

    #[test]
    fn refused_fusions_emit_unfused_and_stay_correct() {
        // R after affine cannot fuse: two stacked map insts remain.
        let e = SeqExpr::Map(
            ValueMap::R,
            Box::new(SeqExpr::affine(2, 0, SeqExpr::chan(c()))),
        );
        let ce = e.compile();
        assert_eq!(ce.inst_count(), 3, "refusal keeps both maps:\n{ce}");
        assert_compiled_agrees(&e, &mixed_events());
        // Untag∘Tag is NOT erased to the identity — it fuses to Untag.
        let e2 = SeqExpr::Map(
            ValueMap::Untag,
            Box::new(SeqExpr::Map(ValueMap::Tag(1), Box::new(SeqExpr::chan(d())))),
        );
        let ce2 = e2.compile();
        assert_eq!(ce2.inst_count(), 2, "untag∘tag fuses to untag:\n{ce2}");
        let t = Trace::finite(vec![Event::new(d(), Value::Pair(0, 9))]);
        assert_eq!(ce2.eval(&t), e2.eval(&t));
        assert_eq!(ce2.eval(&t), ints(&[9]), "pairs must still be untagged");
        assert_compiled_agrees(&e2, &mixed_events());
    }

    #[test]
    fn skip_coalesces_and_concat_merges() {
        let e = SeqExpr::skip(2, SeqExpr::skip(1, SeqExpr::chan(d())));
        let ce = e.compile();
        assert_eq!(ce.inst_count(), 2, "skip∘skip should coalesce:\n{ce}");
        assert_compiled_agrees(&e, &mixed_events());

        let e2 = SeqExpr::concat(
            [Value::Int(1)],
            SeqExpr::concat([Value::Int(2), Value::Int(3)], SeqExpr::chan(d())),
        );
        let ce2 = e2.compile();
        assert_eq!(ce2.inst_count(), 2, "concat fronts should merge:\n{ce2}");
        assert_compiled_agrees(&e2, &mixed_events());

        // skip eats through a concat front
        let e3 = SeqExpr::skip(
            1,
            SeqExpr::concat([Value::Int(9), Value::Int(8)], SeqExpr::chan(d())),
        );
        let ce3 = e3.compile();
        assert_eq!(ce3.inst_count(), 2, "skip should eat the front:\n{ce3}");
        assert_compiled_agrees(&e3, &mixed_events());
        let e4 = SeqExpr::skip(
            3,
            SeqExpr::concat([Value::Int(9), Value::Int(8)], SeqExpr::chan(d())),
        );
        assert_compiled_agrees(&e4, &mixed_events());
    }

    #[test]
    fn const_subtrees_fold() {
        // even(2×const) folds entirely
        let e = SeqExpr::even(SeqExpr::affine(2, 0, SeqExpr::const_ints([1, 2, 3])));
        let ce = e.compile();
        assert!(ce.is_const(), "const subtree should fold:\n{ce}");
        assert_compiled_agrees(&e, &mixed_events());
        // zip with a constant ε folds to ε even with a live other side
        let e2 = SeqExpr::add(SeqExpr::chan(d()), SeqExpr::epsilon());
        let ce2 = e2.compile();
        assert!(ce2.is_const(), "zip with ε folds:\n{ce2}");
        assert!(ce2.channels().is_empty());
        assert_compiled_agrees(&e2, &mixed_events());
        // folding an infinite constant under CountTicks enables delta
        let inf = SeqExpr::constant(Lasso::lasso(
            vec![Value::Bit(true)],
            vec![Value::Bit(false)],
        ));
        let e3 = SeqExpr::CountTicks(Box::new(inf));
        let ce3 = e3.compile();
        assert!(ce3.is_const());
        assert!(ce3.delta_supported());
        assert_compiled_agrees(&e3, &mixed_events());
    }

    #[test]
    fn cse_dedupes_shared_subtrees() {
        let sub = SeqExpr::even(SeqExpr::chan(d()));
        let e = SeqExpr::add(sub.clone(), sub);
        let ce = e.compile();
        // chan, filter, zip — the duplicate filter/chan pair is shared
        assert_eq!(ce.inst_count(), 3, "shared subtree should dedupe:\n{ce}");
        assert_compiled_agrees(&e, &mixed_events());
    }

    #[test]
    fn support_masks_and_reads() {
        let e = SeqExpr::add(SeqExpr::chan(b()), SeqExpr::even(SeqExpr::chan(d())));
        let ce = e.compile();
        assert!(ce.reads(b()) && ce.reads(d()));
        assert!(!ce.reads(c()));
        assert_eq!(*ce.channels(), ChanSet::from_chans([b(), d()]));
        // folding shrinks the support below the syntactic one
        let e2 = SeqExpr::add(SeqExpr::chan(d()), SeqExpr::epsilon());
        let ce2 = e2.compile();
        assert!(!ce2.reads(d()));
        assert!(e2.channels().contains(d()));
    }

    #[test]
    fn out_of_support_events_are_noops() {
        let e = SeqExpr::even(SeqExpr::chan(d()));
        let ce = e.compile();
        let (mut st, mut acc) = ce.delta_init().unwrap();
        st.step_into(Event::int(d(), 2), &mut acc);
        assert_eq!(acc, vec![Value::Int(2)]);
        // events on foreign channels change nothing (early exit path)
        st.step_into(Event::int(b(), 4), &mut acc);
        st.step_into(Event::bit(c(), true), &mut acc);
        assert_eq!(acc, vec![Value::Int(2)]);
        // and the machine still works afterwards
        st.step_into(Event::int(d(), 6), &mut acc);
        assert_eq!(acc, vec![Value::Int(2), Value::Int(6)]);
    }

    #[test]
    fn stateful_combinators_agree() {
        let evs = mixed_events();
        assert_compiled_agrees(&SeqExpr::CountTicks(Box::new(SeqExpr::chan(c()))), &evs);
        assert_compiled_agrees(
            &SeqExpr::EmitFirstAfter {
                need: 2,
                add: 1,
                input: Box::new(SeqExpr::chan(d())),
            },
            &evs,
        );
        assert_compiled_agrees(
            &SeqExpr::OracleSelect {
                data: Box::new(SeqExpr::chan(d())),
                oracle: Box::new(SeqExpr::chan(c())),
                keep: true,
            },
            &evs,
        );
        assert_compiled_agrees(
            &SeqExpr::TakeWhile(ValuePred::IsTrue, Box::new(SeqExpr::chan(c()))),
            &evs,
        );
        assert_compiled_agrees(&SeqExpr::skip(2, SeqExpr::chan(d())), &evs);
    }

    /// Machines that steps can change must never be reported stateless:
    /// the enumeration engine shares a stateless machine between sibling
    /// nodes, so a wrong `true` would silently corrupt its results.
    #[test]
    fn stateless_predicate_matches_the_machine_shape() {
        let machine = |e: &SeqExpr| e.compile().delta_init().expect("incremental").0;
        let stateful_chains = [
            SeqExpr::skip(1, SeqExpr::chan(d())),
            SeqExpr::TakeWhile(ValuePred::IsTrue, Box::new(SeqExpr::chan(c()))),
            SeqExpr::CountTicks(Box::new(SeqExpr::chan(c()))),
            SeqExpr::EmitFirstAfter {
                need: 2,
                add: 1,
                input: Box::new(SeqExpr::chan(d())),
            },
            // A stateful stage anywhere in an otherwise pointwise chain.
            SeqExpr::even(SeqExpr::skip(1, SeqExpr::affine(2, 0, SeqExpr::chan(d())))),
        ];
        for e in &stateful_chains {
            let m = machine(e);
            assert!(
                matches!(m.repr, Repr::Chain { .. }),
                "{e} should be a chain"
            );
            assert!(!m.is_stateless(), "{e} has a stateful stage");
        }
        let graphs = [
            SeqExpr::add(SeqExpr::chan(b()), SeqExpr::chan(d())),
            SeqExpr::OracleSelect {
                data: Box::new(SeqExpr::chan(d())),
                oracle: Box::new(SeqExpr::chan(c())),
                keep: false,
            },
            // Pointwise on top, but the machine is still a graph.
            SeqExpr::even(SeqExpr::add(SeqExpr::chan(b()), SeqExpr::chan(d()))),
        ];
        for e in &graphs {
            let m = machine(e);
            assert!(
                matches!(m.repr, Repr::Graph { .. }),
                "{e} should be a graph"
            );
            assert!(!m.is_stateless(), "{e} is a graph");
        }
        let pointwise = [
            SeqExpr::chan(d()),
            SeqExpr::even(SeqExpr::chan(d())),
            SeqExpr::affine(2, 0, SeqExpr::even(SeqExpr::chan(d()))),
            SeqExpr::even(SeqExpr::affine(2, 1, SeqExpr::chan(d()))),
            SeqExpr::Map(
                ValueMap::R,
                Box::new(SeqExpr::affine(2, 0, SeqExpr::chan(c()))),
            ),
            SeqExpr::concat([Value::Int(5)], SeqExpr::odd(SeqExpr::chan(d()))),
        ];
        for e in &pointwise {
            assert!(machine(e).is_stateless(), "{e} is pointwise");
        }
    }

    proptest::proptest! {
        /// `&self` stepping of a stateless machine equals `step_into` on
        /// every prefix, and never changes the machine.
        #[test]
        fn shared_step_matches_step_into(
            stages in proptest::collection::vec((0u8..4, -2i64..3), 0..5),
            raw in proptest::collection::vec((0u32..3, 0u8..3, -3i64..4), 0..40),
        ) {
            let e = stages.iter().fold(SeqExpr::chan(d()), |e, &(kind, k)| match kind {
                0 => SeqExpr::affine(k, 1, e),
                1 => SeqExpr::even(e),
                2 => SeqExpr::Map(ValueMap::R, Box::new(e)),
                _ => SeqExpr::Filter(ValuePred::IntIs(k), Box::new(e)),
            });
            let ce = e.compile();
            // Contradictory filters fold to a constant, which is no chain.
            if !ce.is_const() {
                let (shared, init) = ce.delta_init().expect("incremental");
                proptest::prop_assert!(shared.is_stateless(), "{} is pointwise", e);
                let before = format!("{shared:?}");
                let mut stepped = shared.clone();
                let (mut a, mut b) = (init.clone(), init);
                for (ch, kind, n) in raw {
                    let value = match kind {
                        0 => Value::Int(n),
                        1 => Value::Bit(n > 0),
                        _ => Value::Pair(0, n),
                    };
                    let ev = Event::new(Chan::new(ch), value);
                    shared.step_shared(ev, &mut a);
                    stepped.step_into(ev, &mut b);
                    proptest::prop_assert_eq!(&a, &b, "{} diverged at {:?}", e, ev);
                }
                proptest::prop_assert_eq!(format!("{shared:?}"), before);
            }
        }
    }

    #[test]
    fn compiled_side_eval_and_step_check() {
        let fe = SeqExpr::even(SeqExpr::chan(d())).compile();
        let ge = SeqExpr::chan(b()).compile();
        let mut f = CompiledSideEval::new(&fe);
        let mut g = CompiledSideEval::new(&ge);
        assert!(f.is_incremental());
        assert!(f.reads(d()) && !f.reads(b()));
        let mut verified = 0;
        // b gets 0, then d gets 0: f grows to ⟨0⟩ ⊑ g(u) = ⟨0⟩
        let frozen = g.freeze();
        f.step(Event::int(b(), 0));
        g.step(Event::int(b(), 0));
        assert!(step_check(&f, &g, &frozen, &mut verified));
        let frozen = g.freeze();
        f.step(Event::int(d(), 0));
        g.step(Event::int(d(), 0));
        assert!(step_check(&f, &g, &frozen, &mut verified));
        assert_eq!(verified, 1);
        // d gets 2 with no new b: f = ⟨0,2⟩ ⋢ g(u) = ⟨0⟩
        let frozen = g.freeze();
        f.step(Event::int(d(), 2));
        g.step(Event::int(d(), 2));
        assert!(!step_check(&f, &g, &frozen, &mut verified));
        // opaque fallback still answers exactly
        let inf = SeqExpr::constant(Lasso::repeat(vec![Value::Int(0)])).compile();
        let o = CompiledSideEval::new(&inf);
        assert!(!o.is_incremental());
        assert_eq!(o.value(), Lasso::repeat(vec![Value::Int(0)]));
    }

    #[test]
    fn state_keys_drop_position_and_dead_state() {
        let key_after = |e: &SeqExpr, evs: &[Event]| {
            let (mut m, _) = e.compile().delta_init().expect("incremental");
            for &ev in evs {
                m.step(ev);
            }
            let mut key = Vec::new();
            assert!(m.state_key(&mut key), "{e} has a key");
            key
        };
        let ds = |ns: &[i64]| ns.iter().map(|&n| Event::int(d(), n)).collect::<Vec<_>>();
        let bits = |bs: &[bool]| bs.iter().map(|&b| Event::bit(c(), b)).collect::<Vec<_>>();
        // a stateless chain keys to nothing, however much it emitted
        let even = SeqExpr::even(SeqExpr::chan(d()));
        assert_eq!(
            key_after(&even, &ds(&[0])),
            key_after(&even, &ds(&[0, 2, 4, 6, 8]))
        );
        assert!(key_after(&even, &ds(&[2])).is_empty());
        // an exhausted skip forgets how long ago it ran out…
        let skip = SeqExpr::skip(2, SeqExpr::chan(d()));
        assert_eq!(
            key_after(&skip, &ds(&[1, 2, 3])),
            key_after(&skip, &ds(&[1, 2, 3, 4, 5]))
        );
        // …but not how much it still has to drop
        assert_ne!(key_after(&skip, &ds(&[1])), key_after(&skip, &ds(&[1, 2])));
        // a finished counter forgets its count, a running one does not
        let count = SeqExpr::CountTicks(Box::new(SeqExpr::chan(c())));
        assert_eq!(
            key_after(&count, &bits(&[false])),
            key_after(&count, &bits(&[true, true, false]))
        );
        assert_ne!(
            key_after(&count, &bits(&[])),
            key_after(&count, &bits(&[true]))
        );
        // a fired emitter forgets what it saw
        let emit = SeqExpr::EmitFirstAfter {
            need: 2,
            add: 0,
            input: Box::new(SeqExpr::chan(d())),
        };
        assert_eq!(
            key_after(&emit, &ds(&[1, 2])),
            key_after(&emit, &ds(&[5, 6, 7]))
        );
        assert_ne!(key_after(&emit, &ds(&[1])), key_after(&emit, &ds(&[5])));
        // a zip keys its surplus contents
        let zip = SeqExpr::add(SeqExpr::chan(b()), SeqExpr::chan(d()));
        let b1 = Event::int(b(), 1);
        assert_eq!(
            key_after(&zip, &[b1, Event::int(d(), 0), b1]),
            key_after(&zip, &[b1])
        );
        assert_ne!(
            key_after(&zip, &[b1]),
            key_after(&zip, &[Event::int(b(), 2)])
        );
    }

    #[test]
    fn custom_state_keys_need_the_encode_hook() {
        #[derive(Debug, Clone)]
        struct Echo(bool);
        impl CustomDeltaState for Echo {
            fn clone_box(&self) -> Box<dyn CustomDeltaState> {
                Box::new(self.clone())
            }
            fn step(&mut self, ev: Event) -> Vec<Value> {
                vec![ev.value]
            }
            fn encode(&self) -> Option<Vec<u8>> {
                self.0.then(Vec::new)
            }
        }
        #[derive(Debug)]
        struct EchoFn(bool);
        impl SeqFunction for EchoFn {
            fn eval(&self, t: &Trace) -> Seq {
                t.seq_on(Chan::new(0))
            }
            fn channels(&self) -> ChanSet {
                ChanSet::from_chans([Chan::new(0)])
            }
            fn name(&self) -> &str {
                "echo"
            }
            fn delta_init(&self) -> Option<(Box<dyn CustomDeltaState>, Vec<Value>)> {
                Some((Box::new(Echo(self.0)), Vec::new()))
            }
        }
        for encodes in [true, false] {
            let e = SeqExpr::custom(Arc::new(EchoFn(encodes)));
            let (m, _) = e.compile().delta_init().expect("incremental");
            assert_eq!(m.state_key(&mut Vec::new()), encodes);
        }
    }

    #[test]
    fn display_lists_instructions() {
        let e = SeqExpr::affine(2, 0, SeqExpr::even(SeqExpr::chan(d())));
        let ce = e.compile();
        let s = ce.to_string();
        assert!(s.contains("%0 = ch2"), "{s}");
        assert!(s.contains("filtermap"), "{s}");
    }
}
