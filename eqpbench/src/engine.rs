//! `engine-wide`: what a library user pays on a real-sized network.
//!
//! A seeded generator writes a wide netlang program: independent
//! pipelines of a source and several stages, every process with its
//! defining equation, parsed under raised [`NetLimits`]. Each iteration
//! runs the network to quiescence bare (sketches on and off), with the
//! online monitor, with a mid-run checkpoint that is encoded and then
//! resumed through a [`CheckpointView`] several times, and on two shards.
//! All variants must produce the same trace: the bare, monitored and
//! resumed runs hash-identical, the 2-shard run identical per channel
//! (its global interleaving is its own).
//!
//! `throughput_per_s` is certified (monitored) events per second; the
//! latency pair is the time from the checkpoint image to a finished
//! resumed run. Both, and `setup_s`, are scaled to the reference host by
//! [`calib::slowdown`].

use crate::calib;
use crate::rng::Rng;
use crate::span::{self, span};
use crate::stats::{median, percentile};
use crate::{Config, Outcome};
use eqp_core::Description;
use eqp_kahn::{CheckpointView, Network, RoundRobin, RunOptions, RunReport};
use eqp_netlang::{NetLimits, NetProgram};
use std::collections::BTreeMap;
use std::time::Instant;

/// Pipelines, stages per pipeline, and values per source.
const CHAINS: usize = 256;
const STAGES: usize = 4;
const VALUES: usize = 80;
/// Resumes from one checkpoint image per iteration.
const RESUMES: usize = 12;

fn limits() -> NetLimits {
    let procs = CHAINS * (STAGES + 1);
    NetLimits {
        max_source_bytes: 4 << 20,
        max_channels: procs,
        max_chan_index: procs as u32,
        max_processes: procs,
        max_equations: procs,
        max_seq_values: VALUES,
        max_steps: 100_000_000,
        ..NetLimits::default()
    }
}

/// The wide program for `seed`: `chains` pipelines of a `const` source
/// and `STAGES` stages drawn from copy, map, filter, delay and expr.
pub fn wide_program(seed: u64, chains: usize) -> String {
    let mut rng = Rng::new(seed);
    let mut src = format!("net wide-{seed}\nsteps 100000000\n");
    let chan = |c: usize, k: usize| c * (STAGES + 1) + k;
    for c in 0..chains {
        for k in 0..=STAGES {
            src.push_str(&format!("chan c{} = {}\n", chan(c, k), chan(c, k)));
        }
    }
    let mut eqs = Vec::new();
    for c in 0..chains {
        let vals: Vec<String> = (0..VALUES).map(|_| rng.below(100).to_string()).collect();
        let vals = vals.join(" ");
        let out = chan(c, 0);
        src.push_str(&format!("proc s{c} = const c{out} [{vals}]\n"));
        eqs.push(format!("eq c{out} <= [{vals}]"));
        for k in 1..=STAGES {
            let (a, b) = (chan(c, k - 1), chan(c, k));
            let p = format!("proc p{b} = ");
            match rng.below(5) {
                0 => {
                    src.push_str(&format!("{p}copy c{a} -> c{b}\n"));
                    eqs.push(format!("eq c{b} <= c{a}"));
                }
                1 => {
                    let (m, k) = (1 + rng.below(4), rng.below(5));
                    src.push_str(&format!("{p}map affine({m},{k}) c{a} -> c{b}\n"));
                    eqs.push(format!("eq c{b} <= map(affine({m},{k}), c{a})"));
                }
                2 => {
                    let pred = if rng.below(2) == 0 { "even" } else { "odd" };
                    src.push_str(&format!("{p}filter {pred} c{a} -> c{b}\n"));
                    eqs.push(format!("eq c{b} <= filter({pred}, c{a})"));
                }
                3 => {
                    let v = rng.below(10);
                    src.push_str(&format!("{p}delay [{v}] c{a} -> c{b}\n"));
                    eqs.push(format!("eq c{b} <= concat([{v}], c{a})"));
                }
                _ => {
                    let (m, k) = (1 + rng.below(3), rng.below(3));
                    src.push_str(&format!("{p}expr c{b} := map(affine({m},{k}), c{a})\n"));
                    eqs.push(format!("eq c{b} <= map(affine({m},{k}), c{a})"));
                }
            }
        }
    }
    for e in eqs {
        src.push_str(&e);
        src.push('\n');
    }
    src
}

/// FNV-1a over the rendered events.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash of the global trace.
fn trace_hash(r: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for ev in r.trace.events().unwrap_or_default() {
        fnv(&mut h, ev.to_string().as_bytes());
    }
    h
}

/// Hash of every channel's history, channel by channel.
fn channel_hash(r: &RunReport) -> u64 {
    let mut per: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in r.trace.events().unwrap_or_default() {
        let h = per.entry(ev.chan.index()).or_insert(0xcbf2_9ce4_8422_2325);
        fnv(h, ev.value.to_string().as_bytes());
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (c, v) in per {
        fnv(&mut h, &c.to_le_bytes());
        fnv(&mut h, &v.to_le_bytes());
    }
    h
}

fn events(r: &RunReport) -> usize {
    r.trace.events().map_or(0, <[_]>::len)
}

/// The parsed program, its description and the run options.
struct Wide {
    program: NetProgram,
    desc: Description,
    opts: RunOptions,
}

/// Generates, parses and describes the network: the workload's set-up.
fn setup(seed: u64, chains: usize) -> Result<Wide, String> {
    let src = wide_program(seed, chains);
    let program = span("netlang.parse", 0, || eqp_netlang::parse(&src, &limits()))
        .map_err(|e| e.to_string())?;
    span("seqfn.compile", 0, || {
        for (l, r) in program.equations() {
            std::hint::black_box((l.compile(), r.compile()));
        }
    });
    let desc = program.description();
    let opts = RunOptions {
        max_steps: program.steps() as usize,
        seed,
        ..RunOptions::default()
    };
    Ok(Wide {
        program,
        desc,
        opts,
    })
}

fn build(w: &Wide, seed: u64) -> Network {
    span("netlang.build", 0, || w.program.build(seed))
}

/// Wall time of each variant in one iteration, seconds.
#[derive(Default)]
struct Iter {
    bare: f64,
    nosketch: f64,
    monitored: f64,
    checkpointed: f64,
    shard2: f64,
    resume_ms: Vec<f64>,
    events: usize,
    image_bytes: usize,
    /// Host slow-down measured before the iteration.
    slowdown: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn iterate(w: &Wide, cfg: &Config, resumes: usize, out: &mut Outcome) -> Option<Iter> {
    let seed = cfg.seed;
    let mut it = Iter {
        slowdown: calib::slowdown(),
        ..Iter::default()
    };
    let mut net = build(w, seed);
    let (bare, t) = timed(|| {
        span("kahn.run", 0, || {
            net.run_report(&mut RoundRobin::new(), w.opts)
        })
    });
    it.bare = t;
    it.events = events(&bare);
    // The bare run is the reference the other variants must reproduce.
    let hash = trace_hash(&bare) ^ u64::from(cfg.corrupt_reference);
    let chash = channel_hash(&bare);
    out.check(bare.status.is_quiescent(), || {
        "bare run did not quiesce".to_owned()
    });

    let mut net = build(w, seed);
    let opts = w.opts.with_sketches(false);
    let (r, t) = timed(|| {
        span("kahn.run_nosketch", 0, || {
            net.run_report(&mut RoundRobin::new(), opts)
        })
    });
    it.nosketch = t;
    out.check(trace_hash(&r) == hash, || {
        "sketch-free run differs".to_owned()
    });

    let mut net = build(w, seed);
    let ((r, conf), t) = timed(|| {
        span("monitor.run", 0, || {
            net.run_report_monitored(&w.desc, &mut RoundRobin::new(), w.opts)
        })
    });
    it.monitored = t;
    out.check(trace_hash(&r) == hash && conf.is_solution(), || {
        format!(
            "monitored run differs or is not a solution: {:?}",
            conf.verdict
        )
    });

    let mut net = build(w, seed);
    let mid = bare.steps * 3 / 4;
    let ((r, ckpt), t) = timed(|| {
        span("snapshot.run_checkpointed", 0, || {
            net.run_report_checkpointed(&mut RoundRobin::new(), w.opts, mid)
        })
    });
    it.checkpointed = t;
    out.check(trace_hash(&r) == hash, || {
        "checkpointed run differs".to_owned()
    });
    let ckpt = ckpt?;
    let bytes = span("wire.encode", 0, || eqp_kahn::encode_checkpoint(&ckpt)).ok()?;
    it.image_bytes = bytes.len();
    for _ in 0..resumes {
        let mut net = build(w, seed);
        let (r, t) = timed(|| {
            let view = span("wire.view_validate", 0, || CheckpointView::new(&bytes)).ok()?;
            span("kahn.resume_view", 0, || {
                net.resume_report_view(&view, &mut RoundRobin::new(), w.opts)
            })
            .ok()
        });
        it.resume_ms.push(t * 1e3);
        out.check(r.is_some_and(|r| trace_hash(&r) == hash), || {
            "view-resumed run differs".to_owned()
        });
    }

    let mut net = build(w, seed);
    let opts = w.opts.with_shards(2);
    let (r, t) = timed(|| {
        span("shard.run2", 0, || {
            net.run_report_sharded(&mut RoundRobin::new(), opts)
        })
    });
    it.shard2 = t;
    out.check(channel_hash(&r) == chash, || {
        "2-shard run differs per channel".to_owned()
    });
    Some(it)
}

/// Iterates until `seconds` pass (at least twice).
fn measure(w: &Wide, cfg: &Config, seconds: f64, out: &mut Outcome) -> Vec<Iter> {
    let resumes = if cfg.short { 1 } else { RESUMES };
    let start = Instant::now();
    let mut iters = Vec::new();
    while iters.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        match iterate(w, cfg, resumes, out) {
            Some(it) => iters.push(it),
            None => {
                out.check(false, || "no checkpoint captured".to_owned());
                break;
            }
        }
        if cfg.short {
            break;
        }
    }
    iters
}

/// `engine-wide`.
pub fn wide(cfg: &Config, out: &mut Outcome) {
    let chains = if cfg.short { 8 } else { CHAINS };
    let mut setups = Vec::new();
    let mut wide = None;
    for _ in 0..crate::SETUPS {
        let slowdown = calib::slowdown();
        let t = Instant::now();
        let w = match setup(cfg.seed, chains) {
            Ok(w) => w,
            Err(e) => {
                out.check(false, || format!("wide program rejected: {e}"));
                return;
            }
        };
        drop(build(&w, cfg.seed));
        setups.push(t.elapsed().as_secs_f64() / slowdown);
        wide = Some(w);
    }
    let w = wide.expect("at least one set-up");
    out.fact("processes", w.program.procs().len());
    out.fact("equations", w.program.equations().len());

    let (plain_s, traced_s) = if cfg.trace {
        (cfg.seconds / 2.0, cfg.seconds / 2.0)
    } else {
        (cfg.seconds, 0.0)
    };
    let iters = measure(&w, cfg, plain_s, out);
    // Raw rates, and rates scaled to the reference host.
    let rate = |f: fn(&Iter) -> f64, scale: bool| {
        let r: Vec<f64> = iters
            .iter()
            .map(|i| i.events as f64 / f(i) * if scale { i.slowdown } else { 1.0 })
            .collect();
        median(&r)
    };
    let certified = rate(|i| i.monitored, false);
    let bare = rate(|i| i.bare, false);
    let resume_ms: Vec<f64> = iters.iter().flat_map(|i| i.resume_ms.clone()).collect();
    let resume_ref: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.resume_ms.iter().map(move |ms| ms / i.slowdown))
        .collect();
    out.e2e
        .insert("throughput_per_s", rate(|i| i.monitored, true));
    out.e2e.insert("latency_p50_ms", median(&resume_ref));
    out.e2e
        .insert("latency_p90_ms", percentile(&resume_ref, 90.0));
    out.e2e.insert("setup_s", median(&setups));
    let slowdown: Vec<f64> = iters.iter().map(|i| i.slowdown).collect();
    out.named("host_slowdown", median(&slowdown), "ratio");
    out.named("certified_events_per_s", certified, "1/s");
    out.named("run_events_per_s", bare, "1/s");
    out.named("resume_ms", median(&resume_ms), "ms");
    out.named("resume_samples", resume_ms.len() as f64, "count");
    out.named(
        "events_per_run",
        iters.first().map_or(0, |i| i.events) as f64,
        "count",
    );
    out.named(
        "checkpoint_bytes",
        iters.first().map_or(0, |i| i.image_bytes) as f64,
        "bytes",
    );
    out.fact("iterations", iters.len());

    if !cfg.trace {
        return;
    }
    // The traced half: setup and iterations again, with spans.
    span::enable(true);
    let traced = match setup(cfg.seed, chains) {
        Ok(tw) => measure(&tw, cfg, traced_s, out),
        Err(e) => {
            out.check(false, || format!("wide program rejected: {e}"));
            Vec::new()
        }
    };
    let spans = span::take();
    span::enable(false);
    let per_iter = |its: &[Iter]| {
        its.iter()
            .map(|i| i.bare + i.nosketch + i.monitored + i.checkpointed + i.shard2)
            .sum::<f64>()
            / its.len().max(1) as f64
    };
    out.layers.insert(
        "trace.overhead_ratio",
        per_iter(&traced) / per_iter(&iters).max(1e-9),
    );

    let totals = span::totals(&spans);
    let total_ns = |n: &str| totals.get(n).map_or(0.0, |t| t.total_ns as f64);
    let mean = |n: &str| totals.get(n).map_or(0.0, |t| t.mean_us());
    let ev = traced.iter().map(|i| i.events).sum::<usize>().max(1) as f64;
    out.layers
        .insert("netlang.parse_ms", mean("netlang.parse") / 1e3);
    out.layers
        .insert("netlang.build_ms", mean("netlang.build") / 1e3);
    out.layers.insert("seqfn.compile_us", mean("seqfn.compile"));
    let bare_ns = total_ns("kahn.run") / ev;
    out.layers.insert("kahn.run_ns_per_event", bare_ns);
    out.layers.insert(
        "sketch.capture_ns_per_event",
        bare_ns - total_ns("kahn.run_nosketch") / ev,
    );
    out.layers.insert(
        "monitor.ns_per_event",
        total_ns("monitor.run") / ev - bare_ns,
    );
    let runs = traced.len().max(1) as f64;
    out.layers.insert(
        "snapshot.capture_ms",
        (total_ns("snapshot.run_checkpointed") - total_ns("kahn.run")) / runs / 1e6,
    );
    out.layers.insert("wire.encode_us", mean("wire.encode"));
    out.layers.insert(
        "wire.image_bytes",
        traced.first().map_or(0, |i| i.image_bytes) as f64,
    );
    out.layers
        .insert("wire.view_validate_ms", mean("wire.view_validate") / 1e3);
    out.layers
        .insert("kahn.resume_view_ms", mean("kahn.resume_view") / 1e3);
    out.layers
        .insert("shard.run2_ns_per_event", total_ns("shard.run2") / ev);
    out.spans = spans;
}
