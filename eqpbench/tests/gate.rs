//! The benchmark's own tests: every workload passes the correctness gate
//! on short inputs, and a deliberately wrong reference fails it.

use eqpbench::{run, Config, Outcome, END_TO_END, WORKLOADS};
use std::path::PathBuf;

fn short(workload: &str, trace: bool, corrupt_reference: bool) -> Outcome {
    run(&Config {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 1.0,
        trace,
        short: true,
        corrupt_reference,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
    })
}

#[test]
fn every_workload_passes_the_gate_in_short_mode() {
    for w in WORKLOADS {
        let out = short(w, false, false);
        assert!(out.correct(), "{w}: {:?}", out.failures);
        for (name, _) in END_TO_END {
            let v = out.e2e.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
        }
    }
}

#[test]
fn traced_short_runs_record_spans() {
    for w in WORKLOADS {
        let out = short(w, true, false);
        assert!(out.correct(), "{w}: {:?}", out.failures);
        assert!(!out.spans.is_empty(), "{w}: no spans");
        assert!(out
            .layers
            .get("trace.overhead_ratio")
            .is_some_and(|r| *r > 0.0));
    }
}

#[test]
fn a_mismatched_reference_fails_the_run() {
    for w in WORKLOADS {
        let out = short(w, false, true);
        assert!(!out.correct(), "{w}: a wrong reference passed the gate");
        assert!(out.failed >= 1, "{w}: failed_ratio did not rise");
    }
}
