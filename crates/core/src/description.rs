//! Descriptions: pairs of continuous tuple-valued functions `f ⟸ g`.

use eqp_seqfn::{CompiledExpr, CompiledSideEval, SeqExpr};
use eqp_trace::{Chan, ChanSet, Seq, Trace, Value};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A description `f ⟸ g` (Section 3.2.2): an *ordered* pair of continuous
/// functions from traces to a tuple of sequences.
///
/// Multiple equations are combined by pairing (the paper's "Note on
/// Multiple Descriptions", Section 4): each call to
/// [`equation`](Description::equation) appends one component to both sides,
/// and the tuple order is componentwise, so
/// `f(v) ⊑ g(u) ≡ ∀k :: fₖ(v) ⊑ gₖ(u)`.
///
/// # Example
///
/// ```
/// use eqp_core::Description;
/// use eqp_seqfn::paper::{ch, even, odd};
/// use eqp_trace::Chan;
///
/// let (b, c, d) = (Chan::new(0), Chan::new(1), Chan::new(2));
/// let dfm = Description::new("dfm")
///     .equation(even(ch(d)), ch(b))
///     .equation(odd(ch(d)), ch(c));
/// assert_eq!(dfm.arity(), 2);
/// assert!(dfm.is_independent()); // lhs reads d, rhs reads b and c
/// ```
#[derive(Debug, Clone)]
pub struct Description {
    name: String,
    lhs: Vec<SeqExpr>,
    rhs: Vec<SeqExpr>,
    /// Cached union of the left components' supports. Maintained by every
    /// construction path so the engine/monitor hot paths never recompute
    /// `SeqExpr::channels()` (which walks the tree and rebuilds a
    /// `BTreeSet` on each call).
    lhs_chans: ChanSet,
    /// Cached union of the right components' supports.
    rhs_chans: ChanSet,
    /// Cached union of both sides' supports, so `channels()` is a clone
    /// rather than a per-call merge (the monitor asks on every run).
    chans: ChanSet,
    /// Compiled form of each left component, built once at construction so
    /// the engine and monitor never re-lower on their hot paths (cloning a
    /// [`CompiledExpr`] is one `Arc` bump).
    lhs_c: Vec<CompiledExpr>,
    /// Compiled form of each right component.
    rhs_c: Vec<CompiledExpr>,
    /// Each equation's `[f, g]` as the smoothness walk starts them: built
    /// by the first walk, so later walks do not rebuild their evaluators,
    /// and shared by clones. Adding an equation resets it.
    walk: OnceLock<Arc<[[CompiledSideEval; 2]]>>,
    /// Pre-rendered `f ⟸ g` equation strings for diagnostics, so building
    /// a conformance report costs clones rather than tree formatting.
    rendered: Vec<String>,
}

/// Equality is over the name and the (source) equations; the compiled and
/// rendered caches are derived from them.
impl PartialEq for Description {
    fn eq(&self, other: &Description) -> bool {
        self.name == other.name && self.lhs == other.lhs && self.rhs == other.rhs
    }
}

impl Eq for Description {}

impl Description {
    /// Creates an empty description named `name` (add equations with
    /// [`equation`](Description::equation)).
    pub fn new(name: impl Into<String>) -> Description {
        Description {
            name: name.into(),
            lhs: Vec::new(),
            rhs: Vec::new(),
            lhs_chans: ChanSet::new(),
            rhs_chans: ChanSet::new(),
            chans: ChanSet::new(),
            lhs_c: Vec::new(),
            rhs_c: Vec::new(),
            walk: OnceLock::new(),
            rendered: Vec::new(),
        }
    }

    /// Appends one equation `lhs ⟸ rhs` to the tuple.
    #[must_use]
    pub fn equation(mut self, lhs: SeqExpr, rhs: SeqExpr) -> Description {
        self.lhs_chans.extend(lhs.channels().iter());
        self.rhs_chans.extend(rhs.channels().iter());
        self.chans
            .extend(self.lhs_chans.iter().chain(self.rhs_chans.iter()));
        self.lhs_c.push(lhs.compile());
        self.rhs_c.push(rhs.compile());
        self.walk = OnceLock::new();
        self.rendered.push(format!("{lhs} ⟸ {rhs}"));
        self.lhs.push(lhs);
        self.rhs.push(rhs);
        self
    }

    /// Convenience for the very common Kahn shape `chan ⟸ rhs`.
    #[must_use]
    pub fn defines(self, chan: Chan, rhs: SeqExpr) -> Description {
        self.equation(SeqExpr::chan(chan), rhs)
    }

    /// The diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of component equations.
    pub fn arity(&self) -> usize {
        self.lhs.len()
    }

    /// The left-side components (`f`).
    pub fn lhs(&self) -> &[SeqExpr] {
        &self.lhs
    }

    /// The right-side components (`g`).
    pub fn rhs(&self) -> &[SeqExpr] {
        &self.rhs
    }

    /// The left components' compiled forms (cached at construction).
    pub fn lhs_compiled(&self) -> &[CompiledExpr] {
        &self.lhs_c
    }

    /// The right components' compiled forms (cached at construction).
    pub fn rhs_compiled(&self) -> &[CompiledExpr] {
        &self.rhs_c
    }

    /// Each equation's `[f, g]` as the smoothness walk starts them (built
    /// on first use).
    pub(crate) fn walk_sides(&self) -> &[[CompiledSideEval; 2]] {
        self.walk.get_or_init(|| {
            self.lhs_c
                .iter()
                .zip(&self.rhs_c)
                .map(|(f, g)| [CompiledSideEval::new(f), CompiledSideEval::new(g)])
                .collect()
        })
    }

    /// Pre-rendered `f ⟸ g` equation strings (cached at construction).
    pub fn equations_rendered(&self) -> &[String] {
        &self.rendered
    }

    /// Evaluates the left side on a trace.
    pub fn eval_lhs(&self, t: &Trace) -> Vec<Seq> {
        self.lhs.iter().map(|e| e.eval(t)).collect()
    }

    /// Evaluates the right side on a trace.
    pub fn eval_rhs(&self, t: &Trace) -> Vec<Seq> {
        self.rhs.iter().map(|e| e.eval(t)).collect()
    }

    /// Channel support of the left side (cached at construction).
    pub fn lhs_channels(&self) -> ChanSet {
        self.lhs_chans.clone()
    }

    /// Channel support of the right side (cached at construction).
    pub fn rhs_channels(&self) -> ChanSet {
        self.rhs_chans.clone()
    }

    /// All channels the description mentions (cached at construction).
    pub fn channels(&self) -> ChanSet {
        self.chans.clone()
    }

    /// Theorem 1's premise: `f` and `g` are *independent* — no channel is
    /// named on both sides.
    pub fn is_independent(&self) -> bool {
        self.lhs_chans.is_disjoint(&self.rhs_chans)
    }

    /// Renames a channel throughout the description (both sides). Useful
    /// for instantiating a reusable description at fresh channels (e.g.
    /// the fair-random source reused by finite-ticks and random-number).
    ///
    /// # Errors
    ///
    /// Fails if an opaque custom function mentions `from` (substitution
    /// cannot rewrite it).
    pub fn rename_channel(
        &self,
        from: Chan,
        to: Chan,
    ) -> Result<Description, eqp_seqfn::expr::SubstError> {
        let target = SeqExpr::chan(to);
        let mut out = Description::new(self.name.clone());
        for (l, r) in self.lhs.iter().zip(&self.rhs) {
            out = out.equation(l.subst_chan(from, &target)?, r.subst_chan(from, &target)?);
        }
        Ok(out)
    }

    /// Pairs two descriptions into one (tuple concatenation) — the
    /// composition of Theorem 2 for two components.
    #[must_use]
    pub fn paired_with(mut self, other: &Description) -> Description {
        self.lhs.extend(other.lhs.iter().cloned());
        self.rhs.extend(other.rhs.iter().cloned());
        self.lhs_chans.extend(other.lhs_chans.iter());
        self.rhs_chans.extend(other.rhs_chans.iter());
        self.chans.extend(other.chans.iter());
        self.lhs_c.extend(other.lhs_c.iter().cloned());
        self.rhs_c.extend(other.rhs_c.iter().cloned());
        self.walk = OnceLock::new();
        self.rendered.extend(other.rendered.iter().cloned());
        self.name = format!("{}+{}", self.name, other.name);
        self
    }
}

impl fmt::Display for Description {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "description {}:", self.name)?;
        for (l, r) in self.lhs.iter().zip(&self.rhs) {
            writeln!(f, "  {l} ⟸ {r}")?;
        }
        Ok(())
    }
}

/// Pointwise prefix order on tuples of sequences (the product cpo of the
/// "Note on Multiple Descriptions").
pub fn tuple_leq(a: &[Seq], b: &[Seq]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.leq(y))
}

/// A named collection of descriptions — the unflattened form of a network,
/// convenient for variable elimination (Section 7), where individual
/// defining equations `b ⟸ h` must stay identifiable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct System {
    descs: Vec<Description>,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> System {
        System::default()
    }

    /// Adds a description.
    #[must_use]
    pub fn with(mut self, d: Description) -> System {
        self.descs.push(d);
        self
    }

    /// The descriptions.
    pub fn descriptions(&self) -> &[Description] {
        &self.descs
    }

    /// Flattens the system into a single paired description (Theorem 2).
    pub fn flatten(&self) -> Description {
        let mut out = Description::new("network");
        for d in &self.descs {
            out = out.paired_with(d);
            out.name = "network".to_owned();
        }
        out
    }

    /// All channels mentioned.
    pub fn channels(&self) -> ChanSet {
        self.descs
            .iter()
            .fold(ChanSet::new(), |acc, d| acc.union(&d.channels()))
    }

    /// Number of descriptions.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// True iff the system has no descriptions.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }
}

impl FromIterator<Description> for System {
    fn from_iter<I: IntoIterator<Item = Description>>(iter: I) -> Self {
        System {
            descs: iter.into_iter().collect(),
        }
    }
}

/// Per-channel message alphabets, used by the Section 3.3 enumerator to
/// generate the one-step extensions of a node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Alphabet {
    entries: Vec<(Chan, Vec<Value>)>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Alphabet {
        Alphabet::default()
    }

    /// Sets the message alphabet of channel `c` (replacing any previous).
    #[must_use]
    pub fn with_chan<I: IntoIterator<Item = Value>>(mut self, c: Chan, msgs: I) -> Alphabet {
        let msgs: Vec<Value> = msgs.into_iter().collect();
        if let Some(e) = self.entries.iter_mut().find(|(d, _)| *d == c) {
            e.1 = msgs;
        } else {
            self.entries.push((c, msgs));
        }
        self
    }

    /// Sets an integer-range alphabet `lo..=hi` for channel `c`.
    #[must_use]
    pub fn with_ints(self, c: Chan, lo: i64, hi: i64) -> Alphabet {
        self.with_chan(c, (lo..=hi).map(Value::Int))
    }

    /// Sets the bit alphabet `{T, F}` for channel `c`.
    #[must_use]
    pub fn with_bits(self, c: Chan) -> Alphabet {
        self.with_chan(c, [Value::tt(), Value::ff()])
    }

    /// The messages of channel `c` (empty if unknown).
    pub fn messages(&self, c: Chan) -> &[Value] {
        self.entries
            .iter()
            .find(|(d, _)| *d == c)
            .map(|(_, m)| m.as_slice())
            .unwrap_or(&[])
    }

    /// Iterates `(channel, messages)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Chan, &[Value])> {
        self.entries.iter().map(|(c, m)| (*c, m.as_slice()))
    }

    /// The channels with a declared alphabet.
    pub fn channels(&self) -> ChanSet {
        self.entries.iter().map(|(c, _)| *c).collect()
    }

    /// Total number of `(channel, message)` event kinds — the branching
    /// factor of the enumeration tree.
    pub fn event_kinds(&self) -> usize {
        self.entries.iter().map(|(_, m)| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqp_seqfn::paper::{ch, even, odd};
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

    fn dfm() -> Description {
        Description::new("dfm")
            .equation(even(ch(d())), ch(b()))
            .equation(odd(ch(d())), ch(c()))
    }

    #[test]
    fn arity_and_channels() {
        let dd = dfm();
        assert_eq!(dd.arity(), 2);
        assert_eq!(dd.lhs_channels(), ChanSet::from_chans([d()]));
        assert_eq!(dd.rhs_channels(), ChanSet::from_chans([b(), c()]));
        assert!(dd.is_independent());
        assert_eq!(dd.name(), "dfm");
    }

    #[test]
    fn dependent_description_detected() {
        // even(d) ⟸ 0; 2×d names d on both sides (Section 2.3's network).
        let net = Description::new("net").equation(
            even(ch(d())),
            SeqExpr::concat([Value::Int(0)], SeqExpr::affine(2, 0, ch(d()))),
        );
        assert!(!net.is_independent());
    }

    #[test]
    fn eval_sides() {
        let dd = dfm();
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]);
        let l = dd.eval_lhs(&t);
        let r = dd.eval_rhs(&t);
        assert_eq!(l, r);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn tuple_leq_componentwise() {
        let dd = dfm();
        let u = Trace::finite(vec![Event::int(b(), 0)]);
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(d(), 0)]);
        assert!(tuple_leq(&dd.eval_lhs(&u), &dd.eval_lhs(&t)));
        assert!(!tuple_leq(&dd.eval_rhs(&t), &dd.eval_lhs(&u)));
        assert!(!tuple_leq(&[], &dd.eval_lhs(&t)));
    }

    #[test]
    fn pairing_concatenates() {
        let p = Description::new("P").defines(b(), SeqExpr::const_ints([0]));
        let both = p.clone().paired_with(&dfm());
        assert_eq!(both.arity(), 3);
        assert_eq!(both.name(), "P+dfm");
    }

    #[test]
    fn system_flatten() {
        let sys = System::new()
            .with(Description::new("P").defines(b(), SeqExpr::const_ints([0])))
            .with(dfm());
        assert_eq!(sys.len(), 2);
        assert!(!sys.is_empty());
        let flat = sys.flatten();
        assert_eq!(flat.arity(), 3);
        assert_eq!(sys.channels(), ChanSet::from_chans([b(), c(), d()]));
    }

    #[test]
    fn alphabet_lookup() {
        let a = Alphabet::new()
            .with_ints(b(), 0, 2)
            .with_bits(c())
            .with_chan(d(), [Value::Int(9)]);
        assert_eq!(a.messages(b()).len(), 3);
        assert_eq!(a.messages(c()), &[Value::tt(), Value::ff()]);
        assert_eq!(a.messages(Chan::new(9)), &[]);
        assert_eq!(a.event_kinds(), 6);
        assert_eq!(a.channels(), ChanSet::from_chans([b(), c(), d()]));
        // replacing an alphabet
        let a = a.with_chan(d(), [Value::Int(1), Value::Int(2)]);
        assert_eq!(a.messages(d()).len(), 2);
    }

    #[test]
    fn rename_channel_rewrites_both_sides() {
        let dd = dfm();
        let e = Chan::new(9);
        let renamed = dd.rename_channel(d(), e).unwrap();
        assert!(!renamed.channels().contains(d()));
        assert!(renamed.lhs_channels().contains(e));
        // behaviour carries over: a renamed quiescent trace is smooth.
        let t = Trace::finite(vec![Event::int(b(), 0), Event::int(e, 0)]);
        assert!(crate::smooth::is_smooth(&renamed, &t));
        // renaming an absent channel is the identity
        assert_eq!(dd.rename_channel(Chan::new(42), e).unwrap().lhs(), dd.lhs());
    }

    #[test]
    fn display_shows_equations() {
        let s = dfm().to_string();
        assert!(s.contains("even(ch2) ⟸ ch0"));
        assert!(s.contains("odd(ch2) ⟸ ch1"));
    }
}
