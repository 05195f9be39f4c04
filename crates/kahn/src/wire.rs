//! Durable byte encoding for [`Checkpoint`]s.
//!
//! The in-memory checkpoint (PR 3) already proves byte-identical resume;
//! this module makes it *survive the process*: a checkpoint serializes to
//! a self-contained, versioned, checksummed byte image that a freshly
//! started process can decode and resume from. The `eqpd` daemon builds
//! its eviction journal and crash recovery on exactly this — an evicted
//! session's checkpoint goes to disk, and a `kill -9`'d daemon re-reads
//! every in-flight session's image on restart.
//!
//! Design constraints, in order:
//!
//! * **Fidelity** — decode(encode(c)) must reproduce the capture exactly:
//!   [`Checkpoint::fingerprint`] is preserved, so a resumed-from-disk run
//!   is byte-identical to the uninterrupted one (the same property the
//!   in-memory suite pins).
//! * **Robustness against torn/hostile bytes** — the decoder is total: a
//!   truncated, corrupted, or adversarial image yields a typed
//!   [`WireError`], never a panic or an unbounded allocation (lengths are
//!   validated against the remaining input before any reservation, and
//!   [`StateCell`] nesting is depth-limited).
//! * **Simplicity** — little-endian fixed-width integers, length-prefixed
//!   sequences, one-byte variant tags, an FNV-1a trailer. No
//!   self-description, no compression: an image is only ever read by the
//!   code that wrote it (the magic carries a format version).
//!
//! Monitored checkpoints are refused with [`WireError::Unsupported`]: the
//! online monitor's evaluator state is an in-memory acceleration, and a
//! durable consumer re-derives the verdict post-hoc from the restored
//! trace (the two paths are pinned equivalent by `tests/monitor_equivalence.rs`).

use crate::chanmap::{ascending, ChanMap};
use crate::network::ProcCounters;
use crate::report::{ChannelCounters, FaultSource, Telemetry};
use crate::snapshot::{Checkpoint, StateCell};
use eqp_sketch::TelemetrySketches;
use eqp_trace::{Chan, Event, Value};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::fmt;

/// Format magic + version. Bump the trailing digit on any layout change.
/// Version 2 added the sketch-telemetry block: per-channel queue stamps,
/// the round clock, and the embedded [`TelemetrySketches`] bytes.
const MAGIC: &[u8; 8] = b"EQPCKPT2";

/// Maximum [`StateCell`] nesting the decoder will follow — far above any
/// real process (the deepest zoo cell nests 3 levels), low enough that a
/// hostile image cannot overflow the stack.
const MAX_CELL_DEPTH: usize = 64;

/// Minimum encoded size of one per-channel telemetry record: channel id,
/// sends/receives/high_water, a one-byte consumer tag, blocked/shed, and
/// the stamp-queue length prefix. Used to validate the record count
/// against the bytes actually remaining.
const CHAN_RECORD_MIN: usize = 8 + 3 * 8 + 1 + 2 * 8 + 8;

/// Why a checkpoint image could not be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The image ends before the announced structure does.
    Truncated,
    /// The image does not start with the expected magic/version.
    BadMagic,
    /// An unknown variant tag for the named structure.
    BadTag {
        /// Which structure carried the tag.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The FNV-1a trailer does not match the body — a torn or corrupted
    /// write.
    ChecksumMismatch,
    /// Bytes remain after the announced structure — the image was not
    /// produced by this encoder.
    TrailingBytes,
    /// The checkpoint carries state this format deliberately does not
    /// encode (currently: online-monitor evaluator state).
    Unsupported(&'static str),
    /// A nested [`StateCell`] exceeded the decoder's depth limit.
    TooDeep,
    /// The embedded telemetry sketch block failed its own (checksummed,
    /// length-validated) codec.
    BadSketches,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("checkpoint image truncated"),
            WireError::BadMagic => f.write_str("not a checkpoint image (bad magic/version)"),
            WireError::BadTag { what, tag } => {
                write!(f, "checkpoint image has unknown {what} tag {tag}")
            }
            WireError::ChecksumMismatch => {
                f.write_str("checkpoint image checksum mismatch (torn or corrupted write)")
            }
            WireError::TrailingBytes => {
                f.write_str("checkpoint image has trailing bytes past the announced structure")
            }
            WireError::Unsupported(what) => {
                write!(f, "checkpoint carries undurable state: {what}")
            }
            WireError::TooDeep => f.write_str("checkpoint image nests state cells too deeply"),
            WireError::BadSketches => f.write_str("checkpoint image carries a bad sketch block"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- encode

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }
    fn u64(&mut self, n: u64) {
        self.buf.extend_from_slice(&n.to_le_bytes());
    }
    fn usize(&mut self, n: usize) {
        self.u64(n as u64);
    }
    fn i64(&mut self, n: i64) {
        self.u64(n as u64);
    }
    fn bool(&mut self, b: bool) {
        self.u8(u8::from(b));
    }
    fn chan(&mut self, c: Chan) {
        self.u64(u64::from(c.index()));
    }
    fn value(&mut self, v: Value) {
        match v {
            Value::Int(n) => {
                self.u8(0);
                self.i64(n);
            }
            Value::Bit(b) => {
                self.u8(1);
                self.bool(b);
            }
            Value::Pair(t, n) => {
                self.u8(2);
                self.u8(t);
                self.i64(n);
            }
        }
    }
    fn rng(&mut self, r: &StdRng) {
        for w in r.state() {
            self.u64(w);
        }
    }
    fn cell(&mut self, c: &StateCell) {
        match c {
            StateCell::Unit => self.u8(0),
            StateCell::Flag(b) => {
                self.u8(1);
                self.bool(*b);
            }
            StateCell::Nat(n) => {
                self.u8(2);
                self.u64(*n);
            }
            StateCell::Int(n) => {
                self.u8(3);
                self.i64(*n);
            }
            StateCell::Value(v) => {
                self.u8(4);
                self.value(*v);
            }
            StateCell::Values(vs) => {
                self.u8(5);
                self.usize(vs.len());
                for v in vs {
                    self.value(*v);
                }
            }
            StateCell::Nats(ns) => {
                self.u8(6);
                self.usize(ns.len());
                for n in ns {
                    self.u64(*n);
                }
            }
            StateCell::Rng(r) => {
                self.u8(7);
                self.rng(r);
            }
            StateCell::List(cells) => {
                self.u8(8);
                self.usize(cells.len());
                for c in cells {
                    self.cell(c);
                }
            }
        }
    }
    fn opt_cell(&mut self, c: &Option<StateCell>) {
        match c {
            None => self.u8(0),
            Some(c) => {
                self.u8(1);
                self.cell(c);
            }
        }
    }
}

/// The frame checksum: FNV-1a folded over 8-byte words, byte-wise over
/// the tail. Corruption detection needs the multiply-mix, not byte
/// granularity — folding words runs near memory bandwidth, which matters
/// because every megabyte-scale image is summed once at encode and once
/// per validation (decode *or* zero-copy view).
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Encodes `ckpt` as a self-contained durable image.
///
/// Fails with [`WireError::Unsupported`] if the checkpoint was captured
/// from a monitored run (re-derive verdicts post-hoc after resume) or if
/// any process state was not captured ([`Checkpoint::is_complete`] —
/// a partial capture cannot support whole-run resume anyway).
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Result<Vec<u8>, WireError> {
    if ckpt.monitor.is_some() {
        return Err(WireError::Unsupported("online-monitor evaluator state"));
    }
    if !ckpt.is_complete() {
        return Err(WireError::Unsupported(
            "partial process capture (a process opted out of snapshotting)",
        ));
    }
    let mut e = Enc {
        buf: MAGIC.to_vec(),
    };
    e.usize(ckpt.steps);
    e.usize(ckpt.rounds);
    // queues and meters, in channel order for a canonical image
    let chans = ascending(&ckpt.queues);
    e.usize(chans.len());
    for (c, q) in chans {
        e.chan(c);
        e.usize(q.len());
        for v in q {
            e.value(*v);
        }
    }
    e.usize(ckpt.trace.len());
    for ev in &ckpt.trace {
        e.chan(ev.chan);
        e.value(ev.value);
    }
    e.rng(&ckpt.rng);
    // telemetry
    let meters = ascending(&ckpt.telemetry.channels);
    e.usize(meters.len());
    for (c, k) in meters {
        e.chan(c);
        e.usize(k.sends);
        e.usize(k.receives);
        e.usize(k.high_water);
        match k.consumer {
            None => e.u8(0),
            Some(i) => {
                e.u8(1);
                e.usize(i);
            }
        }
        e.usize(k.blocked);
        e.usize(k.shed);
        e.usize(k.stamps.len());
        for (round, n) in &k.stamps {
            e.u64(*round);
            e.u64(*n);
        }
    }
    e.usize(ckpt.telemetry.violations.len());
    for (c, a, b) in &ckpt.telemetry.violations {
        e.chan(*c);
        e.usize(*a);
        e.usize(*b);
    }
    e.usize(ckpt.telemetry.faults.len());
    for (src, ev) in &ckpt.telemetry.faults {
        match src {
            FaultSource::Proc(i) => {
                e.u8(0);
                e.usize(*i);
            }
            FaultSource::Link(c) => {
                e.u8(1);
                e.chan(*c);
            }
        }
        e.chan(ev.chan);
        e.usize(ev.seq);
        e.u64(ev.kind.code());
        e.value(ev.value);
    }
    // sketch telemetry (v2): the round clock plus the embedded sketch
    // block, length-prefixed so the view walker can skip over it. Staged
    // observations are transient (always empty at a round/step boundary,
    // where every capture happens) and are not encoded.
    e.u64(ckpt.telemetry.round);
    match &ckpt.telemetry.sketches {
        None => e.u8(0),
        Some(s) => {
            e.u8(1);
            let raw = s.to_bytes();
            e.usize(raw.len());
            e.buf.extend_from_slice(&raw);
        }
    }
    e.usize(ckpt.counters.len());
    for k in &ckpt.counters {
        e.usize(k.progress);
        e.usize(k.idle);
        e.usize(k.starve_streak);
        e.usize(k.max_starved);
        e.usize(k.send_blocked);
        e.usize(k.blocked_streak);
        e.usize(k.max_blocked);
    }
    e.usize(ckpt.processes.len());
    for c in &ckpt.processes {
        e.opt_cell(c);
    }
    e.opt_cell(&ckpt.scheduler);
    e.usize(ckpt.pending_round.len());
    for i in &ckpt.pending_round {
        e.usize(*i);
    }
    e.bool(ckpt.round_progressed);
    let sum = fnv1a(&e.buf);
    e.u64(sum);
    Ok(e.buf)
}

// ---------------------------------------------------------------- decode

struct Dec<'a> {
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.rest.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
    /// A sequence length, validated against the bytes actually remaining
    /// (each element needs at least `min_elem` bytes) so a hostile length
    /// can never trigger a huge allocation.
    fn len(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let bound = (self.rest.len() / min_elem.max(1)) as u64;
        if n > bound {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }
    fn chan(&mut self) -> Result<Chan, WireError> {
        let n = self.u64()?;
        u32::try_from(n)
            .map(Chan::new)
            .map_err(|_| WireError::BadTag {
                what: "channel index",
                tag: 255,
            })
    }
    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Bit(self.bool()?)),
            2 => {
                let t = self.u8()?;
                Ok(Value::Pair(t, self.i64()?))
            }
            tag => Err(WireError::BadTag { what: "value", tag }),
        }
    }
    /// Owning twin of [`Dec::skim_events`]: decodes one trace record with
    /// a single bounds check instead of one per field. Accepts exactly
    /// what `chan` + `value` accept.
    fn event(&mut self) -> Result<Event, WireError> {
        let rest = self.rest;
        if rest.len() < 9 {
            return Err(WireError::Truncated);
        }
        let chan = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        let c = u32::try_from(chan)
            .map(Chan::new)
            .map_err(|_| WireError::BadTag {
                what: "channel index",
                tag: 255,
            })?;
        let (value, used) = match rest[8] {
            0 => {
                if rest.len() < 17 {
                    return Err(WireError::Truncated);
                }
                let n = i64::from_le_bytes(rest[9..17].try_into().expect("8 bytes"));
                (Value::Int(n), 17)
            }
            1 => {
                if rest.len() < 10 {
                    return Err(WireError::Truncated);
                }
                let b = match rest[9] {
                    0 => false,
                    1 => true,
                    tag => return Err(WireError::BadTag { what: "bool", tag }),
                };
                (Value::Bit(b), 10)
            }
            2 => {
                if rest.len() < 18 {
                    return Err(WireError::Truncated);
                }
                let n = i64::from_le_bytes(rest[10..18].try_into().expect("8 bytes"));
                (Value::Pair(rest[9], n), 18)
            }
            tag => return Err(WireError::BadTag { what: "value", tag }),
        };
        self.rest = &rest[used..];
        Ok(Event::new(c, value))
    }
    fn rng(&mut self) -> Result<StdRng, WireError> {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = self.u64()?;
        }
        Ok(StdRng::from_state(s))
    }
    fn cell(&mut self, depth: usize) -> Result<StateCell, WireError> {
        if depth > MAX_CELL_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.u8()? {
            0 => StateCell::Unit,
            1 => StateCell::Flag(self.bool()?),
            2 => StateCell::Nat(self.u64()?),
            3 => StateCell::Int(self.i64()?),
            4 => StateCell::Value(self.value()?),
            5 => {
                let n = self.len(2)?;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(self.value()?);
                }
                StateCell::Values(vs)
            }
            6 => {
                let n = self.len(8)?;
                let mut ns = Vec::with_capacity(n);
                for _ in 0..n {
                    ns.push(self.u64()?);
                }
                StateCell::Nats(ns)
            }
            7 => StateCell::Rng(self.rng()?),
            8 => {
                let n = self.len(1)?;
                let mut cells = Vec::with_capacity(n);
                for _ in 0..n {
                    cells.push(self.cell(depth + 1)?);
                }
                StateCell::List(cells)
            }
            tag => return Err(WireError::BadTag { what: "cell", tag }),
        })
    }
    fn opt_cell(&mut self) -> Result<Option<StateCell>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.cell(0)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    // --- skim variants: validate the same grammar without building
    // anything. Each mirrors its decoding twin exactly — same tags
    // accepted, same lengths demanded — so [`CheckpointView::new`] and
    // [`decode_checkpoint`] agree byte-for-byte on accept/reject.

    fn skim_value(&mut self) -> Result<(), WireError> {
        match self.u8()? {
            0 => {
                self.take(8)?;
            }
            1 => {
                self.bool()?;
            }
            2 => {
                self.take(9)?;
            }
            tag => return Err(WireError::BadTag { what: "value", tag }),
        }
        Ok(())
    }

    /// The trace fast path: validates `n` consecutive `(chan, value)`
    /// records with one length check per record instead of one per
    /// field. Mirrors [`Dec::chan`] + [`Dec::skim_value`] exactly — the
    /// same constraints (channel fits `u32`, value tag known, `Bit`
    /// payload is a bool) and the same errors — it only hoists the
    /// bounds arithmetic out of the field reads. The trace is the bulk
    /// of a long run's image, so this loop is most of a view's
    /// validation time.
    fn skim_events(&mut self, n: usize) -> Result<(), WireError> {
        for _ in 0..n {
            let rest = self.rest;
            if rest.len() < 9 {
                return Err(WireError::Truncated);
            }
            let chan = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            if chan >> 32 != 0 {
                return Err(WireError::BadTag {
                    what: "channel index",
                    tag: 255,
                });
            }
            let used = match rest[8] {
                0 => 17,
                1 => {
                    if rest.len() < 10 {
                        return Err(WireError::Truncated);
                    }
                    if rest[9] > 1 {
                        return Err(WireError::BadTag {
                            what: "bool",
                            tag: rest[9],
                        });
                    }
                    10
                }
                2 => 18,
                tag => return Err(WireError::BadTag { what: "value", tag }),
            };
            if rest.len() < used {
                return Err(WireError::Truncated);
            }
            self.rest = &rest[used..];
        }
        Ok(())
    }

    fn skim_cell(&mut self, depth: usize) -> Result<(), WireError> {
        if depth > MAX_CELL_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.u8()? {
            0 => {}
            1 => {
                self.bool()?;
            }
            2 | 3 => {
                self.take(8)?;
            }
            4 => self.skim_value()?,
            5 => {
                let n = self.len(2)?;
                for _ in 0..n {
                    self.skim_value()?;
                }
            }
            6 => {
                let n = self.len(8)?;
                self.take(n * 8)?;
            }
            7 => {
                self.take(32)?;
            }
            8 => {
                let n = self.len(1)?;
                for _ in 0..n {
                    self.skim_cell(depth + 1)?;
                }
            }
            tag => return Err(WireError::BadTag { what: "cell", tag }),
        }
        Ok(())
    }

    fn skim_opt_cell(&mut self) -> Result<(), WireError> {
        match self.u8()? {
            0 => Ok(()),
            1 => self.skim_cell(0),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

/// Splits an image into its body (past the magic) and validates the
/// framing: length, magic, FNV-1a trailer. Shared by the owning decoder
/// and the zero-copy view.
fn frame(bytes: &[u8]) -> Result<&[u8], WireError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    if &body[..MAGIC.len()] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let sum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if fnv1a(body) != sum {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(&body[MAGIC.len()..])
}

/// Decodes an image produced by [`encode_checkpoint`]. Total: any
/// malformed input yields a typed [`WireError`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, WireError> {
    let mut d = Dec {
        rest: frame(bytes)?,
    };
    let ckpt = decode_body(&mut d)?;
    if !d.rest.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(ckpt)
}

/// The body walk proper — everything between the magic and the trailer.
/// [`decode_checkpoint`] and [`CheckpointView::to_checkpoint`] both drive
/// this; the view's constructor runs the allocation-free mirror
/// ([`skim_body`]) over the same grammar.
fn decode_body(d: &mut Dec<'_>) -> Result<Checkpoint, WireError> {
    let steps = d.u64()? as usize;
    let rounds = d.u64()? as usize;
    let nq = d.len(16)?;
    let mut queues: ChanMap<VecDeque<Value>> = ChanMap::default();
    for _ in 0..nq {
        let c = d.chan()?;
        let n = d.len(2)?;
        let mut q = VecDeque::with_capacity(n);
        for _ in 0..n {
            q.push_back(d.value()?);
        }
        queues.insert(c, q);
    }
    let nt = d.len(10)?;
    let mut trace = Vec::with_capacity(nt);
    for _ in 0..nt {
        trace.push(d.event()?);
    }
    let rng = d.rng()?;
    let mut telemetry = Telemetry::default();
    let nc = d.len(CHAN_RECORD_MIN)?;
    let mut channels = ChanMap::default();
    for _ in 0..nc {
        let c = d.chan()?;
        let sends = d.u64()? as usize;
        let receives = d.u64()? as usize;
        let high_water = d.u64()? as usize;
        let consumer = match d.u8()? {
            0 => None,
            1 => Some(d.u64()? as usize),
            tag => {
                return Err(WireError::BadTag {
                    what: "option",
                    tag,
                })
            }
        };
        let blocked = d.u64()? as usize;
        let shed = d.u64()? as usize;
        let ns = d.len(16)?;
        let mut stamps = VecDeque::with_capacity(ns);
        for _ in 0..ns {
            let round = d.u64()?;
            let n = d.u64()?;
            stamps.push_back((round, n));
        }
        channels.insert(
            c,
            ChannelCounters {
                sends,
                receives,
                high_water,
                consumer,
                blocked,
                shed,
                stamps,
            },
        );
    }
    telemetry.channels = channels;
    let nv = d.len(24)?;
    for _ in 0..nv {
        let c = d.chan()?;
        let a = d.u64()? as usize;
        let b = d.u64()? as usize;
        telemetry.violations.push((c, a, b));
    }
    let nf = d.len(9)?;
    for _ in 0..nf {
        let src = match d.u8()? {
            0 => FaultSource::Proc(d.u64()? as usize),
            1 => FaultSource::Link(d.chan()?),
            tag => {
                return Err(WireError::BadTag {
                    what: "fault source",
                    tag,
                })
            }
        };
        let chan = d.chan()?;
        let seq = d.u64()? as usize;
        let kind = crate::faults::FaultKind::from_code(d.u64()?).ok_or(WireError::BadTag {
            what: "fault kind",
            tag: 255,
        })?;
        let value = d.value()?;
        telemetry.faults.push((
            src,
            crate::faults::FaultEvent {
                chan,
                seq,
                kind,
                value,
            },
        ));
    }
    telemetry.round = d.u64()?;
    telemetry.sketches = match d.u8()? {
        0 => None,
        1 => {
            let n = d.len(1)?;
            let raw = d.take(n)?;
            let s = TelemetrySketches::from_bytes(raw).map_err(|_| WireError::BadSketches)?;
            Some(Box::new(s))
        }
        tag => {
            return Err(WireError::BadTag {
                what: "option",
                tag,
            })
        }
    };
    let npc = d.len(7 * 8)?;
    let mut counters = Vec::with_capacity(npc);
    for _ in 0..npc {
        counters.push(ProcCounters {
            progress: d.u64()? as usize,
            idle: d.u64()? as usize,
            starve_streak: d.u64()? as usize,
            max_starved: d.u64()? as usize,
            send_blocked: d.u64()? as usize,
            blocked_streak: d.u64()? as usize,
            max_blocked: d.u64()? as usize,
        });
    }
    let np = d.len(1)?;
    let mut processes = Vec::with_capacity(np);
    for _ in 0..np {
        processes.push(d.opt_cell()?);
    }
    let scheduler = d.opt_cell()?;
    let npr = d.len(8)?;
    let mut pending_round = VecDeque::with_capacity(npr);
    for _ in 0..npr {
        pending_round.push_back(d.u64()? as usize);
    }
    let round_progressed = d.bool()?;
    Ok(Checkpoint {
        steps,
        rounds,
        queues,
        trace,
        rng,
        telemetry,
        counters,
        processes,
        scheduler,
        pending_round,
        round_progressed,
        monitor: None,
    })
}

/// The allocation-free mirror of [`decode_body`]: walks the whole image
/// grammar enforcing every constraint the owning decoder enforces —
/// channel ids fit `u32`, variant tags are known, cell nesting is
/// bounded, fault kinds decode, lengths fit the remaining bytes — while
/// building nothing. The one exception is the embedded sketch block,
/// which has a small fixed footprint and is validated by its own real
/// decoder. Returns the skimmed `(steps, rounds, trace_len)` header.
fn skim_body(d: &mut Dec<'_>) -> Result<(usize, usize, usize), WireError> {
    let steps = d.u64()? as usize;
    let rounds = d.u64()? as usize;
    let nq = d.len(16)?;
    for _ in 0..nq {
        d.chan()?;
        let n = d.len(2)?;
        for _ in 0..n {
            d.skim_value()?;
        }
    }
    let trace_len = d.len(10)?;
    d.skim_events(trace_len)?;
    d.take(32)?; // rng: four free-form words
    let nc = d.len(CHAN_RECORD_MIN)?;
    for _ in 0..nc {
        d.chan()?;
        d.take(3 * 8)?; // sends, receives, high_water
        match d.u8()? {
            0 => {}
            1 => {
                d.take(8)?;
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "option",
                    tag,
                })
            }
        }
        d.take(2 * 8)?; // blocked, shed
        let ns = d.len(16)?;
        d.take(ns * 16)?; // stamps (round, count) pairs
    }
    let nv = d.len(24)?;
    for _ in 0..nv {
        d.chan()?;
        d.take(16)?;
    }
    let nf = d.len(9)?;
    for _ in 0..nf {
        match d.u8()? {
            0 => {
                d.take(8)?;
            }
            1 => {
                d.chan()?;
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "fault source",
                    tag,
                })
            }
        }
        d.chan()?;
        d.take(8)?; // seq
        if crate::faults::FaultKind::from_code(d.u64()?).is_none() {
            return Err(WireError::BadTag {
                what: "fault kind",
                tag: 255,
            });
        }
        d.skim_value()?;
    }
    d.take(8)?; // round clock
    match d.u8()? {
        0 => {}
        1 => {
            let n = d.len(1)?;
            let raw = d.take(n)?;
            TelemetrySketches::from_bytes(raw).map_err(|_| WireError::BadSketches)?;
        }
        tag => {
            return Err(WireError::BadTag {
                what: "option",
                tag,
            })
        }
    }
    let npc = d.len(7 * 8)?;
    d.take(npc * 7 * 8)?;
    let np = d.len(1)?;
    for _ in 0..np {
        d.skim_opt_cell()?;
    }
    d.skim_opt_cell()?; // scheduler
    let npr = d.len(8)?;
    d.take(npr * 8)?; // pending round
    d.bool()?; // round_progressed
    Ok((steps, rounds, trace_len))
}

/// A validated zero-copy view over a checkpoint image.
///
/// Construction ([`CheckpointView::new`]) verifies the checksum and runs
/// an allocation-free structural walk over the *entire* image — every
/// constraint [`decode_checkpoint`] enforces is enforced here, so a view
/// that constructs is guaranteed to materialize. That makes validation of
/// a memory-mapped or sliced journal segment cheap (no queue/trace/cell
/// allocations), and [`CheckpointView::to_checkpoint`] an infallible
/// single materialization when the caller decides to actually resume.
///
/// The intended resume path materializes the view once and moves the
/// result into [`Network::resume`](crate::Network::resume), which takes
/// the checkpoint by value.
#[derive(Clone, Copy)]
pub struct CheckpointView<'a> {
    /// The image body past the magic, trailer excluded — already
    /// checksum- and structure-validated.
    body: &'a [u8],
    steps: usize,
    rounds: usize,
    trace_len: usize,
}

impl fmt::Debug for CheckpointView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointView")
            .field("steps", &self.steps)
            .field("rounds", &self.rounds)
            .field("trace_len", &self.trace_len)
            .field("image_bytes", &(self.body.len() + MAGIC.len() + 8))
            .finish()
    }
}

impl<'a> CheckpointView<'a> {
    /// Validates `bytes` as a checkpoint image without decoding it.
    ///
    /// Accepts exactly the images [`decode_checkpoint`] accepts and
    /// rejects exactly the ones it rejects (pinned by the consistency
    /// test below), but allocates nothing along the way.
    pub fn new(bytes: &'a [u8]) -> Result<CheckpointView<'a>, WireError> {
        let body = frame(bytes)?;
        let mut d = Dec { rest: body };
        let (steps, rounds, trace_len) = skim_body(&mut d)?;
        if !d.rest.is_empty() {
            return Err(WireError::TrailingBytes);
        }
        Ok(CheckpointView {
            body,
            steps,
            rounds,
            trace_len,
        })
    }

    /// Step count at capture, read during the validation skim.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Round count at capture, read during the validation skim.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Trace length at capture, read during the validation skim.
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// Materializes the checkpoint. Infallible: the constructor already
    /// walked the full grammar, so the owning decode cannot fail.
    pub fn to_checkpoint(&self) -> Checkpoint {
        let mut d = Dec { rest: self.body };
        decode_body(&mut d).expect("view was structure-validated at construction")
    }
}

impl Checkpoint {
    /// [`encode_checkpoint`] as a method.
    pub fn to_bytes(&self) -> Result<Vec<u8>, WireError> {
        encode_checkpoint(self)
    }

    /// [`decode_checkpoint`] as a constructor.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, WireError> {
        decode_checkpoint(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::procs::{Merge2, Source};
    use crate::scheduler::RandomSched;
    use crate::{Network, RunOptions, RunWith};

    fn a() -> Chan {
        Chan::new(0)
    }
    fn b() -> Chan {
        Chan::new(1)
    }
    fn out() -> Chan {
        Chan::new(2)
    }

    /// An oracle merge under a random scheduler — exercises RNG state,
    /// oracle cells, queues, and scheduler cells in the image.
    fn merge_net() -> Network {
        let mut net = Network::new();
        net.add(Source::new(
            "evens",
            a(),
            (0..20).map(|n| Value::Int(2 * n)),
        ));
        net.add(Source::new(
            "odds",
            b(),
            (0..20).map(|n| Value::Int(2 * n + 1)),
        ));
        net.add(Merge2::new("merge", a(), b(), out(), Oracle::fair(7, 4)));
        net
    }

    fn checkpoint_at(at: usize) -> RunWith<'static> {
        RunWith {
            checkpoint_at: Some(at),
            ..RunWith::default()
        }
    }

    fn opts() -> RunOptions {
        RunOptions {
            max_steps: 10_000,
            seed: 11,
            ..RunOptions::default()
        }
    }

    fn mid_checkpoint() -> Checkpoint {
        merge_net()
            .run_with(&mut RandomSched::new(5), opts(), checkpoint_at(25))
            .checkpoint
            .expect("run reaches step 25")
    }

    #[test]
    fn roundtrip_preserves_the_fingerprint() {
        let ckpt = mid_checkpoint();
        let bytes = encode_checkpoint(&ckpt).expect("unmonitored checkpoint encodes");
        let back = decode_checkpoint(&bytes).expect("own image decodes");
        assert_eq!(ckpt.fingerprint(), back.fingerprint());
        assert_eq!(ckpt.steps(), back.steps());
        assert_eq!(ckpt.trace_len(), back.trace_len());
    }

    #[test]
    fn decoded_checkpoint_resumes_byte_identically() {
        let full = merge_net().run_report(&mut RandomSched::new(5), opts());
        let ckpt = mid_checkpoint();
        let bytes = encode_checkpoint(&ckpt).expect("encodes");
        let back = decode_checkpoint(&bytes).expect("decodes");
        // resume the *decoded* image into a fresh network: a round-trip
        // through disk bytes must still be byte-identical to the
        // uninterrupted run
        let mut sched = RandomSched::new(5);
        let resumed = merge_net()
            .resume(back, &mut sched, opts(), None)
            .expect("resume")
            .report;
        assert_eq!(format!("{full:?}"), format!("{resumed:?}"));
    }

    #[test]
    fn chunked_resume_through_bytes_matches_uninterrupted() {
        // run in 25-step chunks, serializing every intermediate
        // checkpoint through its byte image — the daemon's
        // evict/resume loop in miniature
        let full = merge_net().run_report(&mut RandomSched::new(5), opts());
        let first = merge_net()
            .run_with(&mut RandomSched::new(5), opts(), checkpoint_at(25))
            .checkpoint;
        let mut ckpt = first.expect("captured");
        let final_report = loop {
            let bytes = ckpt.to_bytes().expect("encodes");
            let back = Checkpoint::from_bytes(&bytes).expect("decodes");
            let at = back.steps() + 25;
            let mut sched = RandomSched::new(5);
            let out = merge_net()
                .resume(back, &mut sched, opts(), Some(at))
                .expect("resume");
            match out.checkpoint {
                Some(n) => ckpt = n,
                None => break out.report,
            }
        };
        assert_eq!(format!("{full:?}"), format!("{final_report:?}"));
    }

    #[test]
    fn view_resumes_byte_identically_to_decode() {
        let full = merge_net().run_report(&mut RandomSched::new(5), opts());
        let ckpt = mid_checkpoint();
        let bytes = encode_checkpoint(&ckpt).expect("encodes");
        let view = CheckpointView::new(&bytes).expect("own image validates");
        assert_eq!(view.steps(), ckpt.steps());
        assert_eq!(view.trace_len(), ckpt.trace_len());
        // the zero-copy resume must match both the uninterrupted run and
        // the decode-then-resume path, byte for byte
        let via_decode = {
            let back = decode_checkpoint(&bytes).expect("decodes");
            merge_net()
                .resume(back, &mut RandomSched::new(5), opts(), None)
                .expect("resume")
                .report
        };
        let via_view = merge_net()
            .resume(view.to_checkpoint(), &mut RandomSched::new(5), opts(), None)
            .expect("resume")
            .report;
        assert_eq!(format!("{full:?}"), format!("{via_view:?}"));
        assert_eq!(format!("{via_decode:?}"), format!("{via_view:?}"));
        // materialization is infallible and fingerprint-faithful
        assert_eq!(view.to_checkpoint().fingerprint(), ckpt.fingerprint());
    }

    #[test]
    fn view_and_decode_agree_on_every_single_byte_corruption() {
        // the skim walk must mirror the owning decoder exactly: for every
        // single-byte corruption — with the trailer re-fixed so the
        // corruption reaches the structural walk instead of dying at the
        // checksum — View::new and decode_checkpoint accept or reject
        // together
        let ckpt = mid_checkpoint();
        let good = encode_checkpoint(&ckpt).expect("encodes");
        let body_len = good.len() - 8;
        for i in 0..body_len {
            let mut bad = good.clone();
            bad[i] ^= 0x5a;
            let sum = fnv1a(&bad[..body_len]);
            bad[body_len..].copy_from_slice(&sum.to_le_bytes());
            let owned = decode_checkpoint(&bad);
            let view = CheckpointView::new(&bad);
            assert_eq!(
                owned.is_ok(),
                view.is_ok(),
                "byte {i}: decode={owned:?} view={:?}",
                view.as_ref().map(|_| ()).map_err(Clone::clone),
            );
            if let (Ok(o), Ok(v)) = (owned, view) {
                assert_eq!(o.fingerprint(), v.to_checkpoint().fingerprint());
            }
        }
        // truncations agree too (every prefix fails framing in both)
        for cut in 0..good.len() {
            assert_eq!(
                decode_checkpoint(&good[..cut]).is_ok(),
                CheckpointView::new(&good[..cut]).is_ok(),
                "truncation at {cut} disagrees"
            );
        }
    }

    #[test]
    fn hostile_bytes_yield_typed_errors_never_panics() {
        assert_eq!(decode_checkpoint(&[]).err(), Some(WireError::Truncated));
        assert_eq!(
            decode_checkpoint(b"NOTCKPT0----------------").err(),
            Some(WireError::BadMagic)
        );
        let ckpt = mid_checkpoint();
        let good = encode_checkpoint(&ckpt).expect("encodes");
        // every truncation of a valid image is rejected cleanly
        for cut in 0..good.len() {
            let _ = decode_checkpoint(&good[..cut]);
        }
        // every single-byte corruption is rejected cleanly (almost all by
        // the checksum; none by panic)
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5a;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "corrupt byte {i} accepted"
            );
        }
        // a hostile length prefix must not allocate unboundedly
        let mut bomb = good[..16].to_vec();
        bomb.extend_from_slice(&u64::MAX.to_le_bytes());
        let _ = decode_checkpoint(&bomb);
    }
}
