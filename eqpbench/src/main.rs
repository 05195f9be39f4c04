//! `eqpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a source tree and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Lines before it give host facts and the workload's figures under
//! their descriptive names. The full report and, for traced runs, every
//! span are also written below `.bench_out/`.
//!
//! `--workload all` runs every workload, each ending with its own result
//! line. `--short` (where `all` is the default) runs on tiny inputs
//! through the same correctness gate, in seconds: a smoke test of the
//! whole benchmark. A run whose outputs are not all correct exits with
//! status 1 after printing its result.

use eqpbench::{prune_scratch, report_json, result_line, run, span, Config, WORKLOADS};
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "eqpbench: {why}\nusage: eqpbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--short]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut short = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => match value().parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes an integer"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value().as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--short" => short = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| if short { "all".into() } else { String::new() });
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        w => return usage(&format!("unknown workload `{w}`")),
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => return usage(&format!("no working directory: {e}")),
    };
    let out_dir = root.join(".bench_out");
    let _ = std::fs::create_dir_all(&out_dir);
    prune_scratch(&root);

    let mut all_correct = true;
    for name in names {
        let cfg = Config {
            workload: name.to_owned(),
            seed,
            seconds,
            trace,
            short,
            corrupt_reference: false,
            root: root.clone(),
        };
        let out = run(&cfg);
        for (k, v) in &out.facts {
            println!("# {name} {k}: {v}");
        }
        for (k, v, unit) in &out.named {
            println!("# {name} {k}: {v:.6} {unit}");
        }
        for f in &out.failures {
            println!("# {name} FAILED: {f}");
        }
        let stem = format!("{name}-seed{seed}-trace{}", u8::from(trace));
        let _ = std::fs::write(
            out_dir.join(format!("{stem}.json")),
            report_json(&cfg, &out),
        );
        if trace {
            let _ = span::write_tsv(&out_dir.join(format!("{stem}.spans.tsv")), &out.spans);
        }
        all_correct &= out.correct();
        println!("{}", result_line(&cfg, &out));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
