//! The compiled-description pipeline end to end: lower a description's
//! `SeqExpr` sides to the flat fused instruction arena, inspect what the
//! peephole optimizer did (fusion, folding, skip coalescing), check the
//! compiled program against the tree interpreter, and run the §2.3
//! network under the monitor that steps the compiled registers — the
//! path whose measured overhead (`BENCH_runtime.json`,
//! `monitored_overhead`) is gated at ≤1.25× a bare run.
//!
//! Run with: `cargo run --example compiled_monitor`

use eqp::kahn::{MonitorPolicy, Oracle, RoundRobin, RunOptions, RunWith};
use eqp::processes::dfm;
use eqp::seqfn::paper::ch;
use eqp::seqfn::{CompiledSideEval, SeqExpr};
use eqp::trace::{Event, Trace};

fn main() {
    // 1. The §2.3 description compiles once, at construction; every
    //    engine/monitor consumer clones an Arc handle, not a tree.
    let desc = dfm::section23_description();
    println!("== Compiled sides of ==\n\n{desc}");
    for (k, (f, g)) in desc
        .lhs_compiled()
        .iter()
        .zip(desc.rhs_compiled())
        .enumerate()
    {
        println!(
            "component {k}: f {} nodes -> {} insts | g {} nodes -> {} insts",
            f.source_size(),
            f.inst_count(),
            g.source_size(),
            g.inst_count()
        );
        print!("{}", g.disasm());
    }

    // 2. What the optimizer does to a deliberately naive pipeline:
    //    two affine maps compose, the filter fuses into the map pass,
    //    and the two skips coalesce — 6 source nodes, 3 instructions.
    let naive = SeqExpr::skip(
        1,
        SeqExpr::skip(
            2,
            SeqExpr::even(SeqExpr::affine(3, 0, SeqExpr::affine(2, 1, ch(dfm::D)))),
        ),
    );
    let compiled = naive.compile();
    println!(
        "\n== Fusion ==\n\nsource: {naive}\n{} nodes -> {} insts:\n{}",
        compiled.source_size(),
        compiled.inst_count(),
        compiled.disasm()
    );
    assert!(compiled.inst_count() < compiled.source_size());

    // 3. Differential check, in miniature (the proptest suite
    //    `crates/seqfn/tests/compiled_props.rs` does this at scale):
    //    compiled eval ≡ tree eval, and the resumable register machine
    //    fed event by event lands on the same output. Every side is such a
    //    machine; an infinite constant is its own value, read cyclically.
    let t = Trace::finite((0..20).map(|i| Event::int(dfm::D, i)));
    assert_eq!(compiled.eval(&t), naive.eval(&t));
    let mut eval = CompiledSideEval::new(&compiled);
    assert_eq!(
        eval.cycle(),
        0,
        "a side that reads a channel is finite at every prefix"
    );
    for &ev in t.events().expect("finite") {
        eval.step(ev);
    }
    assert_eq!(eval.value(), naive.eval(&t));
    println!(
        "compiled ≡ interpreted on {} events",
        t.events().expect("finite").len()
    );

    // 4. The monitored run: the engine drains committed sends into a
    //    monitor whose pair states are compiled register machines
    //    (batched under Observe, per-step only under AbortOnViolation).
    let mut net = dfm::section23_network(Oracle::fair(7, 2));
    let opts = RunOptions {
        max_steps: 120,
        seed: 7,
        ..RunOptions::default()
    };
    let with = RunWith {
        monitor: Some((&desc, MonitorPolicy::Observe)),
        ..RunWith::default()
    };
    let out = net.run_with(&mut RoundRobin::new(), opts, with);
    let (report, conf) = (out.report, out.conformance.expect("monitored"));
    println!(
        "\n== Monitored run ==\n\n{} steps, quiescent={} -> {:?}",
        report.steps, report.quiescent, conf.verdict
    );
    // the run hits the step bound before quiescence, so the certificate
    // is a smooth prefix rather than a full limit solution
    assert!(conf.is_conformant());

    // 5. Channel-support queries are one u128 AND against the interned
    //    channel table — the monitor's keep-filter and the enumeration
    //    engine's delta skip both ride on this.
    let side = &desc.rhs_compiled()[0];
    assert!(side.reads(dfm::D));
    assert!(!side.reads(dfm::B));
    println!("support masks agree with {}", side.channels());
}
