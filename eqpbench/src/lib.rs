//! The eqp benchmark: four workloads over the service, the engine and
//! the paper's denotational checks, each checked against a reference
//! computation.
//!
//! An untraced run reports the end-to-end metrics of [`END_TO_END`]; a
//! traced run ([`Config::trace`]) wraps spans ([`span`]) around the
//! calls into each layer and reports the per-layer metrics of
//! [`PER_LAYER`]. Every workload reports every metric of its run's kind;
//! a per-layer metric a workload does not exercise reads 0.

pub mod calib;
pub mod conn;
pub mod denot;
pub mod engine;
pub mod host;
pub mod rng;
pub mod service;
pub mod span;
pub mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "service-backlog",
    "service-open",
    "engine-wide",
    "denotational",
];

/// End-to-end metrics, reported by every untraced run. What each
/// measures depends on the workload (see each workload's module):
/// `throughput_per_s` is its certified work per second and the latency
/// pair is its user-facing call. The CPU-bound workloads report them
/// scaled to a reference host (see [`calib`]). Each run also prints the
/// workload's figures under their own names, raw.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Service admission path, replayed in-process.
    ("proto.parse_request_us", "us"),
    ("spec.validate_named_us", "us"),
    ("spec.validate_netlang_us", "us"),
    ("netlang.parse_us", "us"),
    ("admission.admit_us", "us"),
    ("journal.record_spec_us", "us"),
    // Service execution path.
    ("spec.build_network_us", "us"),
    ("kahn.run_chunk_us", "us"),
    ("session.certify_us", "us"),
    ("session.chunks", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("journal.record_checkpoint_us", "us"),
    ("journal.load_checkpoint_us", "us"),
    ("wire.image_bytes", "bytes"),
    ("journal.record_result_us", "us"),
    ("conformance.check_trace_us", "us"),
    ("journal.finished_results_ms", "ms"),
    ("sketch.decode_merge_us", "us"),
    // Daemon counts, sampled through the `stats` RPC.
    ("server.queued", "count"),
    ("server.resident", "count"),
    ("server.evicted", "count"),
    ("server.resumed", "count"),
    // Where a session's verdict latency goes.
    ("service.self_p50_us", "us"),
    ("service.verdict_p50_ms", "ms"),
    ("service.queue_wait_share", "ratio"),
    // Wide networks.
    ("netlang.parse_ms", "ms"),
    ("netlang.build_ms", "ms"),
    ("seqfn.compile_us", "us"),
    ("kahn.run_ns_per_event", "ns"),
    ("sketch.capture_ns_per_event", "ns"),
    ("monitor.ns_per_event", "ns"),
    ("snapshot.capture_ms", "ms"),
    ("wire.view_validate_ms", "ms"),
    ("kahn.resume_view_ms", "ms"),
    ("shard.run2_ns_per_event", "ns"),
    // The paper's computation.
    ("core.enumerate_memo_us.fig2", "us"),
    ("core.enumerate_memo_us.fig5", "us"),
    ("core.enumerate_memo_us.fig6", "us"),
    ("core.nodes", "count"),
    ("core.certificate_depth", "count"),
    ("core.pre_pairs", "count"),
    ("core.is_smooth_ms", "ms"),
    // The tracer itself and the gate.
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("gate.failed_ratio", "ratio"),
];

/// Times a workload repeats its set-up in one run; `setup_s` is the
/// median.
pub const SETUPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub short: bool,
    /// Corrupts one reference result, so the gate must fail the run.
    pub corrupt_reference: bool,
    /// Root of the source tree; journals and outputs go below it.
    pub root: PathBuf,
}

impl Config {
    /// A fresh directory name for a journal, below [`scratch_root`].
    pub fn scratch(&self, what: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        scratch_root(&self.root).join(format!(
            "{}-{}-{n}-{what}",
            self.workload,
            std::process::id()
        ))
    }
}

/// Where the service workloads' journals go: `.bench_tmp` below the root.
///
/// Journals outlive their run. Deleting thousands of small journal files
/// makes durable writes on a disk with online discard several times
/// slower for minutes afterwards: on ext4 over a virtual disk, an
/// open-loop verdict median rose from 1.4 ms to 3.3 ms over six
/// consecutive runs that deleted their journals, and stayed at
/// 1.3–1.4 ms over six that kept them. So no run deletes what it wrote,
/// and [`prune_scratch`] clears the directory only once it is large.
pub fn scratch_root(root: &Path) -> PathBuf {
    root.join(".bench_tmp")
}

/// Entries of [`scratch_root`] past which a run clears it before it
/// starts. A `service-backlog` run adds about a dozen journals of ~7 MB,
/// a `service-open` run one of ~30 MB, so the cap bounds the directory
/// near 6 GB, and one pass of 22 runs per workload stays below it.
const SCRATCH_CAP: usize = 800;

/// Clears [`scratch_root`] when it holds more than `SCRATCH_CAP` entries.
pub fn prune_scratch(root: &Path) {
    let dir = scratch_root(root);
    let entries = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    if entries > SCRATCH_CAP {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, sessions, runs, checks).
    pub attempted: u64,
    /// Operations that failed: shed, aborted, or unequal to the reference.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own figures under their descriptive names, with units.
    pub named: Vec<(String, f64, &'static str)>,
    /// Facts about the host and the inputs.
    pub facts: Vec<(&'static str, String)>,
    /// Spans recorded by a traced run.
    pub spans: Vec<span::Span>,
}

impl Outcome {
    /// Counts one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Records a named figure for the report.
    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }

    /// Records a fact.
    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// True iff something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    out.fact("nproc", host::nproc());
    out.fact("profile", host::profile());
    out.fact("commit", host::commit(&cfg.root));
    out.fact("source_digest", host::source_digest(&cfg.root));
    out.fact("seed", cfg.seed);
    span::enable(false);
    match cfg.workload.as_str() {
        "service-backlog" => service::backlog(cfg, &mut out),
        "service-open" => service::open(cfg, &mut out),
        "engine-wide" => engine::wide(cfg, &mut out),
        "denotational" => denot::run(cfg, &mut out),
        other => out.check(false, || format!("unknown workload `{other}`")),
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.named("failed_ratio", failed_ratio, "ratio");
    if cfg.trace {
        out.layers.insert("gate.failed_ratio", failed_ratio);
        out.layers.insert("trace.spans", out.spans.len() as f64);
    }
    out
}

/// Renders a number as JSON (non-finite values, which no metric should
/// produce, become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the run kind's
/// metrics, each with its unit.
pub fn result_line(cfg: &Config, out: &Outcome) -> String {
    let (table, values): (&[(&str, &str)], _) = if cfg.trace {
        (PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The full report as JSON: facts, named figures, failures and both
/// metric sets.
pub fn report_json(cfg: &Config, out: &Outcome) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)))
        .collect();
    let named: Vec<String> = out
        .named
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"facts\": {{{}}}, \"named\": {{{}}}, \"failures\": [{}], \"result\": {}}}\n",
        cfg.workload,
        cfg.seed,
        cfg.trace,
        facts.join(", "),
        named.join(", "),
        failures.join(", "),
        result_line(cfg, out)
    )
}
