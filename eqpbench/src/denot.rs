//! `denotational`: the paper's own computation, in `eqp-core` only.
//!
//! Each iteration runs `enumerate_memo` (the Section 3.3 tree) over the
//! Fig. 2, 5 and 6 descriptions at depths past those of the enumeration
//! micro-benchmarks, and `is_smooth` over a set of lasso traces: discrete
//! fair merge lassos of growing cycle length, smooth and not, plus
//! lassos and traces of the process zoo, Brock–Ackermann's anomalous one
//! among them. Enumerations must equal the seed `enumerate` engine's;
//! lasso verdicts must match each trace's known verdict, and the set
//! holds both smooth and non-smooth cases.
//!
//! `throughput_per_s` is enumeration nodes per second; the latency pair
//! is certifying the whole lasso set, one `is_smooth` call per lasso.
//! All three, and `setup_s`, are scaled to the reference host by
//! [`calib::slowdown`].

use crate::calib;
use crate::rng::Rng;
use crate::span::{self, span};
use crate::stats::{median, percentile};
use crate::{Config, Outcome};
use eqp_core::smooth::default_certificate_depth;
use eqp_core::{
    enumerate, enumerate_memo, is_smooth, Alphabet, Description, EnumOptions, Enumeration,
};
use eqp_processes::{
    brock_ackermann as ba, dfm, fair_random, finite_ticks, fork, implication, ticks,
};
use eqp_trace::{Event, Trace, Value};
use std::time::Instant;

/// One enumeration input.
struct Figure {
    span: &'static str,
    desc: Description,
    alpha: Alphabet,
    opts: EnumOptions,
}

fn figures(short: bool) -> Vec<Figure> {
    let d = |full: usize| EnumOptions {
        max_depth: if short { 3 } else { full },
        max_nodes: 2_000_000,
    };
    vec![
        Figure {
            span: "core.enumerate_memo.fig2",
            desc: dfm::dfm_description(),
            alpha: Alphabet::new()
                .with_chan(dfm::B, [Value::Int(0), Value::Int(2)])
                .with_chan(dfm::C, [Value::Int(1)])
                .with_ints(dfm::D, 0, 2),
            opts: d(7),
        },
        Figure {
            span: "core.enumerate_memo.fig5",
            desc: implication::description(),
            alpha: Alphabet::new()
                .with_bits(implication::B)
                .with_bits(implication::C)
                .with_bits(implication::D),
            opts: d(6),
        },
        Figure {
            span: "core.enumerate_memo.fig6",
            desc: fork::description(),
            alpha: Alphabet::new()
                .with_ints(fork::B, 0, 1)
                .with_ints(fork::C, 0, 1)
                .with_ints(fork::D, 0, 1)
                .with_bits(fork::E),
            opts: d(6),
        },
    ]
}

/// One lasso (or finite trace) with its description and known verdict.
struct Lasso {
    desc: Description,
    trace: Trace,
    smooth: bool,
}

/// A dfm lasso whose cycle has `len` events (a multiple of 4): each
/// input is echoed on `d` right after it arrives. With `early`, the
/// first echo precedes its input, which no computation can do.
fn dfm_lasso(rng: &mut Rng, len: usize, early: bool) -> Trace {
    let mut cycle = Vec::with_capacity(len);
    for _ in 0..len / 4 {
        let e = 2 * rng.below(8) as i64;
        let o = 2 * rng.below(8) as i64 + 1;
        cycle.extend([
            Event::int(dfm::B, e),
            Event::int(dfm::D, e),
            Event::int(dfm::C, o),
            Event::int(dfm::D, o),
        ]);
    }
    if early {
        cycle.swap(0, 1);
    }
    Trace::lasso([], cycle)
}

fn lassos(rng: &mut Rng, short: bool) -> Vec<Lasso> {
    let cycles: &[usize] = if short {
        &[4, 8]
    } else {
        &[8, 16, 32, 64, 128]
    };
    let mut set = Vec::new();
    for &c in cycles {
        for early in [false, true] {
            set.push(Lasso {
                desc: dfm::dfm_description(),
                trace: dfm_lasso(rng, c, early),
                smooth: !early,
            });
        }
    }
    let mut pattern: Vec<bool> = (0..2 + rng.below(5)).map(|_| rng.below(2) == 0).collect();
    pattern[0] = true;
    pattern[1] = false;
    set.push(Lasso {
        desc: fair_random::description(),
        trace: fair_random::fair_trace(&pattern),
        smooth: true,
    });
    set.push(Lasso {
        desc: fair_random::description(),
        trace: fair_random::fair_trace(&[true]),
        smooth: false,
    });
    set.push(Lasso {
        desc: ticks::description(),
        trace: ticks::omega_trace(),
        smooth: true,
    });
    set.push(Lasso {
        desc: finite_ticks::full_system().flatten(),
        trace: finite_ticks::n_tick_trace(rng.below(6) as usize),
        smooth: true,
    });
    set.push(Lasso {
        desc: ba::eliminated_description(),
        trace: ba::anomalous_trace(),
        smooth: false,
    });
    set.push(Lasso {
        desc: ba::eliminated_description(),
        trace: ba::genuine_trace(),
        smooth: true,
    });
    set
}

fn same(a: &Enumeration, b: &Enumeration) -> bool {
    a.solutions == b.solutions
        && a.dead_ends == b.dead_ends
        && a.frontier == b.frontier
        && a.nodes_visited == b.nodes_visited
        && a.truncated == b.truncated
}

/// Inputs and reference results.
struct Inputs {
    figures: Vec<Figure>,
    references: Vec<Enumeration>,
    lassos: Vec<Lasso>,
}

fn setup(cfg: &Config) -> Inputs {
    let figures = figures(cfg.short);
    let mut references: Vec<Enumeration> = figures
        .iter()
        .map(|f| enumerate(&f.desc, &f.alpha, f.opts))
        .collect();
    if cfg.corrupt_reference {
        references[0].nodes_visited += 1;
    }
    let mut rng = Rng::new(cfg.seed);
    Inputs {
        figures,
        references,
        lassos: lassos(&mut rng, cfg.short),
    }
}

/// What one measuring pass saw.
#[derive(Default)]
struct Pass {
    nodes: usize,
    /// Nodes per second of each iteration's three enumerations.
    rates: Vec<f64>,
    /// Host slow-down measured before each iteration.
    slowdown: Vec<f64>,
    lasso_ms: Vec<f64>,
    iterations: usize,
    wall_s: f64,
}

fn measure(inp: &Inputs, cfg: &Config, seconds: f64, out: &mut Outcome) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let (mut seen_smooth, mut seen_rough) = (false, false);
    while pass.iterations < 2 || start.elapsed().as_secs_f64() < seconds {
        pass.slowdown.push(calib::slowdown());
        let (mut nodes, mut enum_s) = (0, 0.0);
        for (f, want) in inp.figures.iter().zip(&inp.references) {
            let t = Instant::now();
            let got = span(f.span, 0, || enumerate_memo(&f.desc, &f.alpha, f.opts));
            enum_s += t.elapsed().as_secs_f64();
            nodes += got.nodes_visited;
            out.check(same(&got, want) && !got.truncated, || {
                format!("{}: enumerate_memo differs from enumerate", f.span)
            });
        }
        pass.nodes += nodes;
        pass.rates.push(nodes as f64 / enum_s.max(1e-9));
        for (i, l) in inp.lassos.iter().enumerate() {
            let t = Instant::now();
            let smooth = span("core.is_smooth", i as u64, || is_smooth(&l.desc, &l.trace));
            pass.lasso_ms.push(t.elapsed().as_secs_f64() * 1e3);
            seen_smooth |= smooth;
            seen_rough |= !smooth;
            out.check(smooth == l.smooth, || {
                format!("lasso {i}: is_smooth = {smooth}, expected {}", l.smooth)
            });
        }
        pass.iterations += 1;
        if cfg.short {
            break;
        }
    }
    out.check(seen_smooth && seen_rough, || {
        "the lasso set must hold smooth and non-smooth verdicts".to_owned()
    });
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// `denotational`.
pub fn run(cfg: &Config, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..crate::SETUPS {
        let slowdown = calib::slowdown();
        let t = Instant::now();
        inputs = Some(setup(cfg));
        setups.push(t.elapsed().as_secs_f64() / slowdown);
    }
    let inp = inputs.expect("at least one set-up");
    out.fact("lassos", inp.lassos.len());

    let plain_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let pass = measure(&inp, cfg, plain_s, out);
    let sets: Vec<f64> = pass
        .lasso_ms
        .chunks(inp.lassos.len())
        .map(|c| c.iter().sum())
        .collect();
    let scaled = |v: &[f64], up: bool| -> Vec<f64> {
        v.iter()
            .zip(&pass.slowdown)
            .map(|(x, f)| if up { x * f } else { x / f })
            .collect()
    };
    let sets_ref = scaled(&sets, false);
    out.e2e
        .insert("throughput_per_s", median(&scaled(&pass.rates, true)));
    out.e2e.insert("latency_p50_ms", median(&sets_ref));
    out.e2e
        .insert("latency_p90_ms", percentile(&sets_ref, 90.0));
    out.e2e.insert("setup_s", median(&setups));
    out.named("enum_nodes_per_s", median(&pass.rates), "1/s");
    out.named("lasso_certify_ms", median(&sets), "ms");
    out.named("host_slowdown", median(&pass.slowdown), "ratio");
    out.named("lasso_one_p50_ms", median(&pass.lasso_ms), "ms");
    out.named("lasso_samples", pass.lasso_ms.len() as f64, "count");
    out.fact("iterations", pass.iterations);

    if !cfg.trace {
        return;
    }
    span::enable(true);
    let traced = measure(&inp, cfg, cfg.seconds / 2.0, out);
    let spans = span::take();
    span::enable(false);
    let per_iter = |p: &Pass| p.wall_s / p.iterations.max(1) as f64;
    out.layers.insert(
        "trace.overhead_ratio",
        per_iter(&traced) / per_iter(&pass).max(1e-9),
    );
    let totals = span::totals(&spans);
    for (metric, name) in [
        ("core.enumerate_memo_us.fig2", "core.enumerate_memo.fig2"),
        ("core.enumerate_memo_us.fig5", "core.enumerate_memo.fig5"),
        ("core.enumerate_memo_us.fig6", "core.enumerate_memo.fig6"),
    ] {
        out.layers
            .insert(metric, totals.get(name).map_or(0.0, |t| t.mean_us()));
    }
    out.layers.insert(
        "core.nodes",
        (traced.nodes / traced.iterations.max(1)) as f64,
    );
    // Certificate size of the largest lasso: the depth checked and the
    // `u pre v` pairs it covers.
    if let Some(big) = inp
        .lassos
        .iter()
        .max_by_key(|l| l.trace.as_lasso().prefix().len() + l.trace.as_lasso().cycle().len())
    {
        let depth = default_certificate_depth(&big.desc, &big.trace);
        out.layers.insert("core.certificate_depth", depth as f64);
        out.layers.insert(
            "core.pre_pairs",
            big.trace.pre_pairs_up_to(depth).count() as f64,
        );
    }
    out.layers.insert(
        "core.is_smooth_ms",
        totals.get("core.is_smooth").map_or(0.0, |t| t.mean_us()) / 1e3,
    );
    out.spans = spans;
}
