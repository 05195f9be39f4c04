//! Differential property tests for the enumeration engine: on random
//! small descriptions, alphabets, depths, and node caps, [`enumerate_memo`]
//! must return an [`Enumeration`] *identical* to the seed [`enumerate`] —
//! same solutions, dead ends, frontier, visit count, and truncation flag,
//! all in the same order.
//!
//! The generated descriptions mix stepping sides with infinite constants,
//! which the engine reads cyclically — on the right, nested under a zip or
//! an oracle select, and alone on the left — and they hit budget expiries
//! in the middle of a BFS level. They also cover every machine shape the
//! engine treats differently: stateless chains (shared between nodes),
//! stateful chains (`TakeWhile`, `CountTicks`, `Skip`, `EmitFirstAfter`),
//! general graphs with zip and oracle-select surplus buffers, and a custom
//! function with its own incremental state — over integer and bit
//! alphabets. A custom function over two channels whose value depends on
//! how their events interleave checks that such descriptions are keyed by
//! the whole trace, not by per-channel histories. A third property keeps
//! only cases where per-channel keys decide the result: every alphabet
//! channel is read, the key has a slot per channel, and the seed tree is
//! not uniform (some visited node is not a solution).

use eqp_core::description::{Alphabet, Description};
use eqp_core::{enumerate, enumerate_memo, EnumOptions, Enumeration};
use eqp_seqfn::paper::{ch, count_ticks, oracle_false, oracle_true, r_map, until_first_false};
use eqp_seqfn::{CompiledExpr, CustomDeltaState, SeqExpr, SeqFunction};
use eqp_trace::{Chan, ChanSet, Event, Lasso, Seq, Trace, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn chan_pool() -> [Chan; 3] {
    [Chan::new(0), Chan::new(1), Chan::new(2)]
}

/// Custom function with the incremental hook and real state: the running
/// count of messages on its channel, one element per message (`⟨1 2 3…⟩`).
#[derive(Debug)]
struct RunningCount(Chan);

#[derive(Debug)]
struct RunningCountState {
    chan: Chan,
    seen: i64,
}

impl CustomDeltaState for RunningCountState {
    fn clone_box(&self) -> Box<dyn CustomDeltaState> {
        Box::new(RunningCountState {
            chan: self.chan,
            seen: self.seen,
        })
    }

    fn step(&mut self, ev: Event) -> Vec<Value> {
        if ev.chan != self.chan {
            return Vec::new();
        }
        self.seen += 1;
        vec![Value::Int(self.seen)]
    }
}

impl SeqFunction for RunningCount {
    fn eval(&self, t: &Trace) -> Seq {
        let n = t.seq_on(self.0).len().as_finite().expect("finite trace");
        Lasso::finite((1..=n as i64).map(Value::Int).collect::<Vec<_>>())
    }

    fn channels(&self) -> ChanSet {
        ChanSet::from_chans([self.0])
    }

    fn name(&self) -> &str {
        "running-count"
    }

    fn delta_init(&self) -> (Box<dyn CustomDeltaState>, Vec<Value>) {
        (
            Box::new(RunningCountState {
                chan: self.0,
                seen: 0,
            }),
            Vec::new(),
        )
    }
}

/// Custom function over two channels whose value is the sequence of
/// channel tags (`Int(index)`) of the events on either, in trace order: two
/// traces with the same per-channel histories but different
/// interleavings evaluate differently.
#[derive(Debug)]
struct Tags {
    chans: [Chan; 2],
}

#[derive(Debug)]
struct TagsState([Chan; 2]);

impl CustomDeltaState for TagsState {
    fn clone_box(&self) -> Box<dyn CustomDeltaState> {
        Box::new(TagsState(self.0))
    }

    fn step(&mut self, ev: Event) -> Vec<Value> {
        if self.0.contains(&ev.chan) {
            vec![Value::Int(i64::from(ev.chan.index()))]
        } else {
            Vec::new()
        }
    }
}

impl SeqFunction for Tags {
    fn eval(&self, t: &Trace) -> Seq {
        let evs = t.events().expect("finite trace");
        Lasso::finite(
            evs.iter()
                .filter(|e| self.chans.contains(&e.chan))
                .map(|e| Value::Int(i64::from(e.chan.index())))
                .collect::<Vec<_>>(),
        )
    }

    fn channels(&self) -> ChanSet {
        ChanSet::from_chans(self.chans)
    }

    fn name(&self) -> &str {
        "tags"
    }

    fn delta_init(&self) -> (Box<dyn CustomDeltaState>, Vec<Value>) {
        (Box::new(TagsState(self.chans)), Vec::new())
    }
}

/// A random continuous expression over the three pooled channels —
/// including infinite constants.
fn arb_expr() -> impl Strategy<Value = SeqExpr> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(|i| ch(chan_pool()[i as usize])),
        Just(SeqExpr::epsilon()),
        proptest::collection::vec(-1i64..3, 0..3).prop_map(SeqExpr::const_ints),
        // Infinite constant: read cyclically, alone or under a zip.
        (-1i64..3).prop_map(|n| SeqExpr::constant(Lasso::repeat(vec![Value::Int(n)]))),
        (0u32..3).prop_map(|i| SeqExpr::custom(Arc::new(RunningCount(chan_pool()[i as usize])))),
        (0u32..3, 1u32..3).prop_map(|(i, step)| {
            let pool = chan_pool();
            let chans = [pool[i as usize], pool[((i + step) % 3) as usize]];
            SeqExpr::custom(Arc::new(Tags { chans }))
        }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(SeqExpr::even),
            inner.clone().prop_map(SeqExpr::odd),
            inner.clone().prop_map(r_map),
            inner.clone().prop_map(until_first_false),
            inner.clone().prop_map(count_ticks),
            (inner.clone(), inner.clone()).prop_map(|(d, o)| oracle_true(d, o)),
            (inner.clone(), inner.clone()).prop_map(|(d, o)| oracle_false(d, o)),
            (-1i64..3, 0i64..2, inner.clone()).prop_map(|(a, b, e)| SeqExpr::affine(a, b, e)),
            (0usize..3, inner.clone()).prop_map(|(n, e)| SeqExpr::skip(n, e)),
            (-1i64..3, inner.clone()).prop_map(|(n, e)| SeqExpr::concat([Value::Int(n)], e)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SeqExpr::add(a, b)),
            (0usize..3, 0i64..2, inner).prop_map(|(need, add, e)| {
                SeqExpr::EmitFirstAfter {
                    need,
                    add,
                    input: Box::new(e),
                }
            }),
        ]
        .boxed()
    })
}

/// A random 1–2 equation description.
fn arb_description() -> impl Strategy<Value = Description> {
    let equation = prop_oneof![
        (arb_expr(), arb_expr()),
        // `c ⟸ g`: a bare channel on the left keeps the tree bushy, so
        // the right side's machine is stepped and stored at many nodes.
        (0u32..3, arb_expr()).prop_map(|(i, g)| (ch(chan_pool()[i as usize]), g)),
    ];
    proptest::collection::vec(equation, 1..3).prop_map(|eqs| {
        eqs.into_iter()
            .fold(Description::new("random"), |d, (f, g)| d.equation(f, g))
    })
}

/// A random alphabet over a subset of the pooled channels: each entry
/// is an integer range or the bits `{T, F}`.
fn arb_alphabet() -> impl Strategy<Value = Alphabet> {
    let entry = prop_oneof![
        (0u32..3, -1i64..2, 0i64..3).prop_map(|(ci, lo, width)| (ci, Some((lo, lo + width)))),
        (0u32..3).prop_map(|ci| (ci, None)),
    ];
    proptest::collection::vec(entry, 1..3).prop_map(|entries| {
        entries
            .into_iter()
            .fold(Alphabet::new(), |a, (ci, ints)| match ints {
                Some((lo, hi)) => a.with_ints(chan_pool()[ci as usize], lo, hi),
                None => a.with_bits(chan_pool()[ci as usize]),
            })
    })
}

/// A random description, alphabet and budget on which the per-channel
/// history key decides the result. Most draws of [`arb_description`] are
/// uniform — every node a solution, so any collapse of histories yields
/// the same [`Enumeration`] — and are rejected, as are draws whose key
/// is the whole trace or a single channel, or whose description ignores
/// an alphabet channel.
fn arb_keyed_case() -> impl Strategy<Value = (Description, Alphabet, EnumOptions)> {
    let budget = (1usize..5, 50usize..600).prop_map(|(max_depth, max_nodes)| EnumOptions {
        max_depth,
        max_nodes,
    });
    (arb_description(), arb_alphabet(), budget).prop_filter(
        "per-channel keys must decide the enumeration",
        |(desc, alpha, opts)| {
            let per_channel = desc
                .lhs_compiled()
                .iter()
                .chain(desc.rhs_compiled())
                .all(CompiledExpr::per_channel);
            let chans = alpha.channels();
            if !per_channel || chans.len() < 2 || !chans.is_subset(&desc.channels()) {
                return false;
            }
            let seed = enumerate(desc, alpha, *opts);
            seed.solutions.len() < seed.nodes_visited
        },
    )
}

fn assert_identical(tag: &str, got: &Enumeration, want: &Enumeration) {
    assert_eq!(got.solutions, want.solutions, "{tag}: solutions differ");
    assert_eq!(got.dead_ends, want.dead_ends, "{tag}: dead ends differ");
    assert_eq!(got.frontier, want.frontier, "{tag}: frontier differs");
    assert_eq!(
        got.nodes_visited, want.nodes_visited,
        "{tag}: visit count differs"
    );
    assert_eq!(got.truncated, want.truncated, "{tag}: truncation differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine agrees with the seed, including under mid-level budget
    /// expiry.
    #[test]
    fn engines_identical_to_seed(
        desc in arb_description(),
        alpha in arb_alphabet(),
        max_depth in 0usize..4,
        max_nodes in 0usize..400,
    ) {
        let opts = EnumOptions { max_depth, max_nodes };
        let seed = enumerate(&desc, &alpha, opts);
        assert_identical("memo", &enumerate_memo(&desc, &alpha, opts), &seed);
    }

    /// A description whose tree depends on interleavings: `x ⟸ tags(a,
    /// b)` makes `x` copy the order in which `a` and `b` events arrived,
    /// so two nodes with equal per-channel histories have different sons.
    /// The engine must key such a description by the whole trace. An
    /// optional random equation prunes the tree further.
    #[test]
    fn interleaving_dependent_custom_matches_seed(
        first in 0u32..3,
        step in 1u32..3,
        paired in any::<bool>(),
        extra in arb_description(),
        width in 0i64..2,
        max_depth in 0usize..6,
        max_nodes in 0usize..600,
    ) {
        let pool = chan_pool();
        let (a, b) = (pool[first as usize], pool[((first + step) % 3) as usize]);
        let x = pool[(3 - first - (first + step) % 3) as usize];
        let tags = SeqExpr::custom(Arc::new(Tags { chans: [a, b] }));
        let mut desc = Description::new("tags").equation(ch(x), tags);
        if paired {
            desc = desc.paired_with(&extra);
        }
        let alpha = Alphabet::new()
            .with_ints(a, 0, width)
            .with_ints(b, 0, width)
            .with_ints(x, 0, 2);
        let opts = EnumOptions { max_depth, max_nodes };
        let seed = enumerate(&desc, &alpha, opts);
        assert_identical("memo", &enumerate_memo(&desc, &alpha, opts), &seed);
    }

    /// The engine agrees with the seed on trees where merging two
    /// histories that differ on any one channel changes the result.
    #[test]
    fn keyed_descriptions_match_seed((desc, alpha, opts) in arb_keyed_case()) {
        let seed = enumerate(&desc, &alpha, opts);
        assert_identical("memo", &enumerate_memo(&desc, &alpha, opts), &seed);
    }

    /// `solutions_projected` after the hash-set dedup still returns
    /// distinct projections in first-occurrence order.
    #[test]
    fn projection_dedup_distinct_and_ordered(
        desc in arb_description(),
        alpha in arb_alphabet(),
    ) {
        let opts = EnumOptions { max_depth: 3, max_nodes: 2000 };
        let e = enumerate(&desc, &alpha, opts);
        let l = eqp_trace::ChanSet::from_chans([chan_pool()[0]]);
        let projected = e.solutions_projected(&l);
        // distinct…
        for (i, t) in projected.iter().enumerate() {
            prop_assert!(!projected[..i].contains(t), "duplicate projection");
        }
        // …and a subsequence of the naive first-occurrence scan.
        let mut naive: Vec<_> = Vec::new();
        for s in &e.solutions {
            let p = s.project(&l);
            if !naive.contains(&p) {
                naive.push(p);
            }
        }
        prop_assert_eq!(projected, naive);
    }
}
