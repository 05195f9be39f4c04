//! Wide-network regression: programs whose channel count overflows the
//! 128-bit support masks must never *under*-approximate their support.
//!
//! `compile::chan_mask` hands out one u128 bit per distinct channel and
//! flags the program inexact at the 129th; every mask consumer
//! (`reads()`, the delta machines' event skipping, the monitor's
//! `batch_advance`) must then fall back to the exact `ChanSet`. The
//! historical bug: support reconstruction in `Builder::finish` filtered
//! interned indices with `*i < 128`, silently dropping the overflowed
//! channels — `reads(c)` returned false for them, and the monitor's
//! skip optimization (`base_ok && !f.reads(ev.chan)`) then skipped real
//! evaluation on wide networks. These tests pin the fixed behavior at
//! 129, 200, and 300 channels.

use eqp_seqfn::{CompiledSideEval, SeqExpr};
use eqp_trace::{Chan, Event, Trace};

/// A balanced add-zip tree over `n` distinct channels (depth ⌈log₂ n⌉ so
/// the recursive interpreter stays within test-thread stacks —
/// the mask-overflow bug is shape-independent, only width matters).
fn wide_zip(n: u32) -> SeqExpr {
    let mut layer: Vec<SeqExpr> = (0..n).map(|i| SeqExpr::chan(Chan::new(i))).collect();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => SeqExpr::add(a, b),
                None => a,
            });
        }
        layer = next;
    }
    layer.pop().expect("n >= 1")
}

/// One event per channel, in channel order — touches every leaf,
/// including those past the 128-bit mask horizon.
fn wide_trace(n: u32) -> Vec<Event> {
    (0..n).map(|i| Event::int(Chan::new(i), i as i64)).collect()
}

#[test]
fn support_is_never_under_approximated_past_128_channels() {
    for n in [129u32, 200, 300] {
        let e = wide_zip(n);
        let ce = e.compile();
        for i in 0..n {
            assert!(
                ce.reads(Chan::new(i)),
                "compiled program must read ch{i} (of {n})"
            );
        }
        assert_eq!(
            ce.channels().len(),
            n as usize,
            "{n}-channel support set dropped channels"
        );
        // channels outside the program stay outside the support
        assert!(!ce.reads(Chan::new(n + 1000)));
    }
}

#[test]
fn compiled_support_equals_interpreted_support_at_200_channels() {
    let n = 200u32;
    let e = wide_zip(n);
    let ce = e.compile();
    let interp = e.channels();
    for c in interp.iter() {
        assert!(ce.reads(c), "compiled dropped {c} from a 200-wide support");
        assert!(ce.channels().contains(c));
    }
    assert_eq!(ce.channels().len(), interp.len());
}

#[test]
fn wide_eval_and_delta_agree_with_interpreter() {
    let n = 200u32;
    let e = wide_zip(n);
    let ce = e.compile();
    let evs = wide_trace(n);
    let t = Trace::finite(evs.clone());
    assert_eq!(
        ce.eval(&t),
        e.eval(&t),
        "compiled eval diverges at width {n}"
    );
    // the incremental machine agrees with full evaluation event by event,
    // including events on channels whose interned index overflowed the
    // mask
    let mut cs = CompiledSideEval::new(&ce);
    for (i, &ev) in evs.iter().enumerate() {
        cs.step(ev);
        assert_eq!(
            cs.value(),
            e.eval(&Trace::finite(evs[..=i].to_vec())),
            "delta machine diverges on a {n}-channel trace after {} events",
            i + 1
        );
    }
}

#[test]
fn exactly_128_channels_stays_on_the_exact_mask_path() {
    // the boundary case: 128 distinct channels still fit the mask, so the
    // reconstruction must keep every one (bit 127 is the last valid bit)
    let n = 128u32;
    let e = wide_zip(n);
    let ce = e.compile();
    assert_eq!(ce.channels().len(), n as usize);
    for i in 0..n {
        assert!(ce.reads(Chan::new(i)));
    }
    let t = Trace::finite(wide_trace(n));
    assert_eq!(ce.eval(&t), e.eval(&t));
}
