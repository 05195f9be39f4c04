//! E13 — the enumeration engine shootout: seed BFS ([`enumerate`]) vs the
//! quotiented engine ([`enumerate_memo`]: prefix-sharing, incremental,
//! one visit per distinct per-channel history), over the Fig. 1–7 process
//! zoo. Fig. 2 runs at two depths: the quotient matters most where the
//! tree grows fastest.
//!
//! Besides the usual criterion output this target emits a machine-readable
//! `BENCH_enumeration.json` at the repository root with a host block
//! (cores, commit), nodes/sec per engine and each engine's speedup over
//! the seed, so EXPERIMENTS.md can cite reproducible numbers. Before timing anything, every engine's
//! result is asserted identical to the seed's on every workload — a bench
//! of a wrong engine is worthless. Under `EQP_BENCH_SMOKE=1` those
//! equality gates still run but each timing body executes once and no
//! JSON is written.

use criterion::Criterion;
use eqp_core::description::Alphabet;
use eqp_core::{enumerate, enumerate_memo, Description, EnumOptions, Enumeration};
use eqp_processes::{brock_ackermann as ba, dfm, fork, implication, ticks};
use std::hint::black_box;

struct Workload {
    name: &'static str,
    desc: Description,
    alpha: Alphabet,
    opts: EnumOptions,
}

/// Fig. 2's discriminated fair merge at `max_depth`.
fn fig2(name: &'static str, max_depth: usize) -> Workload {
    Workload {
        name,
        desc: dfm::dfm_description(),
        alpha: Alphabet::new()
            .with_chan(dfm::B, [eqp_trace::Value::Int(0), eqp_trace::Value::Int(2)])
            .with_chan(dfm::C, [eqp_trace::Value::Int(1)])
            .with_ints(dfm::D, 0, 2),
        opts: EnumOptions {
            max_depth,
            max_nodes: 500_000,
        },
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "fig4-brock-ackermann",
            desc: ba::eliminated_description(),
            alpha: Alphabet::new().with_ints(ba::C, 0, 2),
            opts: EnumOptions {
                max_depth: 7,
                max_nodes: 500_000,
            },
        },
        Workload {
            name: "fig5-implication",
            desc: implication::description(),
            alpha: Alphabet::new()
                .with_bits(implication::B)
                .with_bits(implication::C)
                .with_bits(implication::D),
            opts: EnumOptions {
                max_depth: 4,
                max_nodes: 500_000,
            },
        },
        Workload {
            name: "fig6-fork",
            desc: fork::description(),
            alpha: Alphabet::new()
                .with_ints(fork::B, 0, 1)
                .with_ints(fork::C, 0, 1)
                .with_ints(fork::D, 0, 1)
                .with_bits(fork::E),
            opts: EnumOptions {
                max_depth: 4,
                max_nodes: 500_000,
            },
        },
        fig2("fig2-dfm", 5),
        // 117,086 tree nodes on 2,645 distinct per-channel histories.
        fig2("fig2-dfm-d8", 8),
        Workload {
            // Branching factor 1, depth 64: isolates the per-node O(depth)
            // replay cost the incremental engine removes.
            name: "ticks-deep",
            desc: ticks::description(),
            alpha: Alphabet::new().with_bits(ticks::B),
            opts: EnumOptions {
                max_depth: 64,
                max_nodes: 500_000,
            },
        },
    ]
}

fn assert_identical(name: &str, engine: &str, got: &Enumeration, want: &Enumeration) {
    assert!(
        got.solutions == want.solutions
            && got.dead_ends == want.dead_ends
            && got.frontier == want.frontier
            && got.nodes_visited == want.nodes_visited
            && got.truncated == want.truncated,
        "{name}: `{engine}` result differs from seed engine"
    );
}

struct EngineRow {
    engine: &'static str,
    median_ns: f64,
    nodes_per_sec: f64,
    speedup_vs_seed: f64,
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    let mut rows: Vec<(String, usize, usize, Vec<EngineRow>)> = Vec::new();

    for w in workloads() {
        let seed = enumerate(&w.desc, &w.alpha, w.opts);
        assert!(!seed.truncated, "{}: raise max_nodes", w.name);
        assert_identical(
            w.name,
            "memo",
            &enumerate_memo(&w.desc, &w.alpha, w.opts),
            &seed,
        );

        let mut g = c.benchmark_group(format!("enumeration/{}", w.name));
        g.sample_size(10);
        g.bench_function("seed", |b| {
            b.iter(|| black_box(enumerate(&w.desc, &w.alpha, w.opts).nodes_visited))
        });
        g.bench_function("memo", |b| {
            b.iter(|| black_box(enumerate_memo(&w.desc, &w.alpha, w.opts).nodes_visited))
        });
        g.finish();

        let results = c.take_results();
        let median = |engine: &str| {
            results
                .iter()
                .find(|r| r.id.ends_with(&format!("/{engine}")))
                .map(|r| r.median_ns)
                .expect("bench result present")
        };
        let seed_ns = median("seed");
        let engines = ["seed", "memo"]
            .into_iter()
            .map(|engine| {
                let ns = median(engine);
                EngineRow {
                    engine,
                    median_ns: ns,
                    nodes_per_sec: seed.nodes_visited as f64 * 1e9 / ns,
                    speedup_vs_seed: seed_ns / ns,
                }
            })
            .collect();
        rows.push((
            w.name.to_owned(),
            w.opts.max_depth,
            seed.nodes_visited,
            engines,
        ));
    }

    if criterion::smoke_mode() {
        println!("EQP_BENCH_SMOKE: equality gates passed; skipping BENCH_enumeration.json");
        return;
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"enumeration\",\n");
    json.push_str("  \"command\": \"cargo bench -p eqp-bench --bench enumeration\",\n");
    json.push_str(&format!("  \"host\": {},\n", eqp_bench::host_json()));
    json.push_str("  \"workloads\": [\n");
    for (wi, (name, depth, nodes, engines)) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{name}\",\n"));
        json.push_str(&format!("      \"max_depth\": {depth},\n"));
        json.push_str(&format!("      \"nodes\": {nodes},\n"));
        json.push_str("      \"engines\": {\n");
        for (ei, e) in engines.iter().enumerate() {
            json.push_str(&format!(
                "        \"{}\": {{\"median_ns\": {:.1}, \"nodes_per_sec\": {:.1}, \
                 \"speedup_vs_seed\": {:.3}}}{}\n",
                e.engine,
                e.median_ns,
                e.nodes_per_sec,
                e.speedup_vs_seed,
                if ei + 1 < engines.len() { "," } else { "" }
            ));
        }
        json.push_str("      }\n");
        json.push_str(&format!(
            "    }}{}\n",
            if wi + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_enumeration.json");
    std::fs::write(&path, &json).expect("write BENCH_enumeration.json");
    println!("wrote {}", path.display());
}
