//! In-memory spans around calls into the program's layers.
//!
//! The benchmark wraps each public call it makes into a layer in
//! [`span`]. A span records its name, start, end, parent and session id;
//! spans stay in a thread-local buffer while the workload runs and are
//! written out once, at the end. With tracing off, [`span`] only calls
//! through.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the buffer (1-based; 0 means "no parent").
    pub id: u32,
    /// Index of the enclosing span, or 0.
    pub parent: u32,
    /// Session (or request) the span belongs to.
    pub session: u64,
    /// Layer call, as `layer.call`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for this thread and clears the buffer.
pub fn enable(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.epoch = Instant::now();
        t.spans.clear();
        t.open.clear();
    });
}

/// Runs `f` inside a span named `name` for `session`.
pub fn span<R>(name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.spans.len() as u32 + 1;
        let parent = t.open.last().copied().unwrap_or(0);
        let start = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            id,
            parent,
            session,
            name,
            start,
            end: start,
        });
        t.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans[id as usize - 1].end = end;
            t.open.pop();
        });
    }
    out
}

/// Takes this thread's finished spans, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

impl Totals {
    /// Mean duration per span, microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            child[s.parent as usize - 1] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
    }
    out
}

/// Writes spans as tab-separated `id parent session name start_ns end_ns`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tsession\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.session, s.name, s.start, s.end
        )?;
    }
    out.flush()
}
