//! The two `eqpd` workloads.
//!
//! `service-backlog` builds a fleet against a paused in-process daemon,
//! releases it and drains it, then calls `fleet_report` over the finished
//! journal. Chunks and the residency budget are far below the fleet, so
//! checkpoint eviction and resume carry the load.
//! `throughput_per_s` is certified sessions per second from release to
//! the last verdict; the latency pair is the `fleet_report` call.
//!
//! `service-open` sends requests on a fixed schedule (an open loop):
//! `submit` of named specs and of netlang programs, and one-shot `check`
//! of textual traces. Chunks are big enough that no session parks.
//! Every request is timed from when it was due. `throughput_per_s` is
//! requests completed per second; the latency pair is submit→verdict.
//!
//! Every verdict and trace hash is compared with a direct in-process run
//! of the same spec. A traced run replays the same sessions in-process,
//! in the order the daemon calls each layer, with a span around each
//! call: the daemon's internals cannot be spanned from outside.

use crate::calib;
use crate::conn::{self, Conn};
use crate::rng::Rng;
use crate::span::{self, span};
use crate::stats::{median, percentile, tail_percentile};
use crate::{host, Config, Outcome};
use eqp_kahn::conformance::{self, ConformanceOptions};
use eqp_kahn::snapshot::Checkpoint;
use eqp_kahn::{RandomSched, RunOptions, RunStatus, Scheduler, TelemetrySketches, Trace};
use eqp_processes::zoo::conformance_zoo;
use eqpd::json::{obj, s, Json};
use eqpd::proto;
use eqpd::session::verdict_name;
use eqpd::{
    Admission, AdmissionConfig, ChunkOutcome, Journal, ServerConfig, SessionResult, SessionRun,
    SessionSpec, SpecLimits, TraceSpec,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named zoo workloads tenants submit.
const NAMED: [&str; 5] = ["sec23-merge", "fair-merge", "ticks", "random-bit", "bag"];
/// Zoo workloads whose runs become `check` traces.
const CHECKED: [&str; 4] = ["fair-merge", "bag", "brock-ackermann", "random-bit-seq"];
/// Longest `check` trace, in events.
const CHECK_EVENTS: usize = 48;
const TENANT: &str = "tenant-0";

/// `service-backlog`: fleet size, chunk steps and residency budget.
const FLEET: usize = 500;
const FLEET_SHORT: usize = 24;
const BACKLOG_CHUNK: usize = 48;
const BACKLOG_RESIDENT: usize = 16;
/// Least number of fleet rounds in a run; setup and drain are medians
/// over the rounds.
const MIN_ROUNDS: usize = 5;

/// `service-open`: the fixed arrival rate, requests per second, chosen
/// once on a 2-core host with the journal on ext4. There
/// `service-backlog` certifies ~1000 sessions/s, but at half that rate
/// the one tenant connection, whose every `submit` waits for a journal
/// fsync, starts to queue and the latency median moved 2× between runs;
/// at 250/s it stays below saturation.
pub const OPEN_RATE: f64 = 250.0;
/// Distinct requests the open loop cycles through.
const OPEN_DISTINCT: usize = 1000;
/// Sessions the traced replay covers.
const REPLAY_LIMIT: usize = 160;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Named,
    Netlang,
    Check,
}

/// One generated request and the reference answer.
struct Request {
    kind: Kind,
    /// `submit` or `check` params.
    params: Json,
    verdict: String,
    conformant: bool,
    /// Reference trace hash (`submit` only).
    trace_hash: u64,
}

impl Request {
    fn method(&self) -> &'static str {
        if self.kind == Kind::Check {
            "check"
        } else {
            "submit"
        }
    }

    fn line(&self, id: u64) -> String {
        let mut line = obj([
            ("id", Json::UInt(id)),
            ("method", s(self.method())),
            ("params", self.params.clone()),
        ])
        .to_line();
        line.push('\n');
        line
    }
}

fn spec_json(rng: &mut Rng, netlang: bool) -> Json {
    let seed = rng.below(1_000_000);
    let sched = obj([("kind", s("random")), ("seed", Json::UInt(seed))]);
    let what = if netlang {
        ("netlang", s(eqp_netlang::random_program(rng.next_u64())))
    } else {
        ("workload", s(NAMED[rng.below(NAMED.len() as u64) as usize]))
    };
    obj([what, ("seed", Json::UInt(seed)), ("sched", sched)])
}

/// Textual traces of real zoo runs, some with a corrupted event, as
/// `check` params.
fn check_pool(rng: &mut Rng) -> Vec<Json> {
    let zoo = conformance_zoo();
    let mut pool = Vec::new();
    for name in CHECKED {
        let entry = zoo.iter().find(|e| e.name == name).expect("zoo entry");
        for variant in 0..4 {
            let seed = rng.below(1_000_000);
            let mut net = entry.network(seed);
            let report = net.run_report(
                &mut RandomSched::new(seed),
                RunOptions {
                    max_steps: entry.max_steps,
                    seed,
                    ..RunOptions::default()
                },
            );
            let events = report.trace.events().unwrap_or_default();
            let cut = events.len().min(CHECK_EVENTS);
            let mut text: Vec<String> = events[..cut]
                .iter()
                .map(|e| format!("{}:{}", e.chan.index(), e.value))
                .collect();
            if variant == 3 && !text.is_empty() {
                // A repeated first event: a history the process cannot make.
                text.insert(0, text[0].clone());
            }
            let quiescent = report.status.is_quiescent() && cut == events.len();
            pool.push(obj([
                ("workload", s(name)),
                ("events", Json::Arr(text.into_iter().map(s).collect())),
                ("quiescent", Json::Bool(quiescent)),
            ]));
        }
    }
    pool
}

/// The reference: a direct in-process run of the spec to its end.
fn reference_session(spec: &Json) -> Result<SessionResult, String> {
    let spec = SessionSpec::from_json(spec).map_err(|e| e.to_string())?;
    let chunk = spec.max_steps;
    let mut run = SessionRun::new(spec);
    loop {
        match run.advance(chunk).map_err(|e| e.to_string())? {
            ChunkOutcome::Finished(r) => return Ok(*r),
            ChunkOutcome::Parked(_) => {}
        }
    }
}

/// The reference for a `check`: the conformance checker called directly.
fn reference_check(params: &Json) -> Result<(String, bool), String> {
    let t = TraceSpec::from_json(params).map_err(|e| e.to_string())?;
    let entry = conformance_zoo()
        .into_iter()
        .find(|e| e.name == t.workload)
        .ok_or("unknown workload")?;
    let conf = conformance::check_trace(
        &entry.description(),
        &Trace::finite(t.events),
        t.quiescent,
        &ConformanceOptions::default(),
    );
    Ok((verdict_name(&conf.verdict), conf.is_conformant()))
}

/// Generates `n` requests (`checks` of them may be `check`s) and their
/// reference answers. A reference that cannot be computed is a failure.
fn generate(rng: &mut Rng, n: usize, with_checks: bool, out: &mut Outcome) -> Vec<Request> {
    let pool = if with_checks {
        check_pool(rng)
    } else {
        Vec::new()
    };
    let mut reqs = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.below(10);
        let kind = match roll {
            0..=3 => Kind::Named,
            4..=6 => Kind::Netlang,
            _ if with_checks => Kind::Check,
            _ => Kind::Named,
        };
        let req = if kind == Kind::Check {
            let params = pool[rng.below(pool.len() as u64) as usize].clone();
            match reference_check(&params) {
                Ok((verdict, conformant)) => Request {
                    kind,
                    params,
                    verdict,
                    conformant,
                    trace_hash: 0,
                },
                Err(e) => {
                    out.check(false, || format!("reference check failed: {e}"));
                    continue;
                }
            }
        } else {
            let spec = spec_json(rng, kind == Kind::Netlang);
            match reference_session(&spec) {
                Ok(r) => Request {
                    kind,
                    params: obj([("tenant", s(TENANT)), ("spec", spec)]),
                    verdict: r.verdict,
                    conformant: r.conformant,
                    trace_hash: r.trace_hash,
                },
                Err(e) => {
                    out.check(false, || format!("reference session failed: {e}"));
                    continue;
                }
            }
        };
        reqs.push(req);
    }
    reqs
}

fn corrupt(cfg: &Config, reqs: &mut [Request]) {
    if cfg.corrupt_reference {
        if let Some(r) = reqs.iter_mut().find(|r| r.kind != Kind::Check) {
            r.trace_hash ^= 1;
        }
    }
}

/// The daemon's worker count: one per core.
fn workers() -> usize {
    host::nproc()
}

fn journal_facts(out: &mut Outcome, dir: &std::path::Path) {
    out.fact("journal_fs", host::filesystem(dir));
    out.fact("workers", workers());
}

/// Daemon counters sampled through the `stats` RPC.
#[derive(Debug, Default, Clone, Copy)]
struct Sampled {
    queued: u64,
    resident: u64,
    evicted: u64,
    resumed: u64,
}

fn sample(client: &mut Conn, acc: &mut Sampled) -> bool {
    let Ok(Ok(st)) = client.call("stats", obj([])) else {
        return false;
    };
    let get = |k: &str| st.get(k).and_then(Json::as_u64).unwrap_or(0);
    acc.queued = acc.queued.max(get("queued"));
    acc.resident = acc.resident.max(get("resident"));
    acc.evicted = get("evicted");
    acc.resumed = get("resumed");
    true
}

/// One fleet round's measurements.
struct Round {
    setup_s: f64,
    drain_s: f64,
    verdict_ms: Vec<f64>,
    report_ms: Vec<f64>,
    sampled: Sampled,
    /// CPU slow-down around the `fleet_report` calls (see [`calib`]).
    cpu: f64,
}

/// Starts a paused daemon journaling to a fresh directory, builds the
/// fleet, releases and drains it, then calls `fleet_report` for
/// `report_s` seconds. The journal is kept (see [`crate::scratch_root`]).
fn backlog_round(
    cfg: &Config,
    reqs: &[Request],
    report_s: f64,
    round: usize,
    out: &mut Outcome,
) -> Result<Round, String> {
    let t_setup = Instant::now();
    let handle = eqpd::start(ServerConfig {
        journal_dir: cfg.scratch(&format!("round{round}")),
        workers: workers(),
        chunk_steps: BACKLOG_CHUNK,
        max_resident: BACKLOG_RESIDENT,
        admission: AdmissionConfig {
            max_in_flight: reqs.len() + 64,
            max_per_tenant: reqs.len() + 64,
            retry_after_ms: 50,
        },
        start_paused: true,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon start failed: {e}"))?;
    let addr = format!("127.0.0.1:{}", handle.port);
    let result = drive_round(&addr, reqs, report_s, t_setup, out);
    handle.stop();
    result
}

fn drive_round(
    addr: &str,
    reqs: &[Request],
    report_s: f64,
    t_setup: Instant,
    out: &mut Outcome,
) -> Result<Round, String> {
    let mut client = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    for (i, r) in reqs.iter().enumerate() {
        match client.call("submit", r.params.clone()) {
            Ok(Ok(ack)) => {
                let id = ack.get("session").and_then(Json::as_u64).unwrap_or(0);
                index_of.insert(id, i);
            }
            Ok(Err(e)) => out.check(false, || format!("submit shed: {e}")),
            Err(e) => return Err(format!("submit io: {e}")),
        }
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    // One sampler connection polls `stats` while the fleet drains.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        let mut stats_client = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        std::thread::spawn(move || {
            let mut acc = Sampled::default();
            while !stop.load(Ordering::Relaxed) {
                if !sample(&mut stats_client, &mut acc) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            sample(&mut stats_client, &mut acc);
            acc
        })
    };

    let released = Instant::now();
    let resumed = client.call("pause", obj([("paused", Json::Bool(false))]));
    if !matches!(resumed, Ok(Ok(_))) {
        stop.store(true, Ordering::Relaxed);
        let _ = sampler.join();
        return Err(format!("release failed: {resumed:?}"));
    }
    let mut verdict_ms = Vec::with_capacity(index_of.len());
    let mut seen = 0usize;
    while seen < index_of.len() {
        let ev = match client.next_event() {
            Ok(ev) => ev,
            Err(e) => {
                out.check(false, || format!("verdict stream: {e}"));
                break;
            }
        };
        if ev.get("event").and_then(Json::as_str) != Some("verdict") {
            continue;
        }
        verdict_ms.push(released.elapsed().as_secs_f64() * 1e3);
        seen += 1;
        let id = ev.get("session").and_then(Json::as_u64).unwrap_or(0);
        let Some(&i) = index_of.get(&id) else {
            out.check(false, || format!("verdict for unknown session {id}"));
            continue;
        };
        check_verdict(&reqs[i], &ev, out);
    }
    let drain_s = released.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let sampled = sampler.join().unwrap_or_default();

    let cpu_before = calib::slowdown();
    let mut report_ms = Vec::new();
    let t_reports = Instant::now();
    while t_reports.elapsed().as_secs_f64() < report_s || report_ms.len() < 3 {
        let t0 = Instant::now();
        let fleet = client.call("fleet_report", obj([]));
        report_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let count = |f: &Json, k: &str| f.get(k).and_then(Json::as_u64).unwrap_or(0);
        let ok = matches!(&fleet, Ok(Ok(f))
            if count(f, "sessions") == seen as u64 && count(f, "with_sketches") > 0);
        out.check(ok, || {
            format!("fleet_report over {seen} sessions: {fleet:?}")
        });
        if !ok {
            break;
        }
    }
    Ok(Round {
        setup_s,
        drain_s,
        verdict_ms,
        report_ms,
        sampled,
        cpu: (cpu_before + calib::slowdown()) / 2.0,
    })
}

/// Compares a daemon `verdict` event with the reference.
fn check_verdict(req: &Request, ev: &Json, out: &mut Outcome) {
    let verdict = ev.get("verdict").and_then(Json::as_str).unwrap_or("");
    let hash = ev.get("trace_hash").and_then(Json::as_u64).unwrap_or(0);
    out.check(verdict == req.verdict && hash == req.trace_hash, || {
        format!(
            "verdict {verdict} hash {hash:x}, reference {} hash {:x}",
            req.verdict, req.trace_hash
        )
    });
}

/// `service-backlog`.
pub fn backlog(cfg: &Config, out: &mut Outcome) {
    let t_gen = Instant::now();
    let mut rng = Rng::new(cfg.seed);
    let n = if cfg.short { FLEET_SHORT } else { FLEET };
    let mut reqs = generate(&mut rng, n, false, out);
    corrupt(cfg, &mut reqs);
    let gen_s = t_gen.elapsed().as_secs_f64();
    journal_facts(out, &cfg.root);
    out.fact("fleet", reqs.len());
    out.fact("chunk_steps", BACKLOG_CHUNK);
    out.fact("max_resident", BACKLOG_RESIDENT);

    let start = Instant::now();
    let report_s = cfg.seconds * 0.04;
    let mut rounds = Vec::new();
    let min_rounds = if cfg.short { 1 } else { MIN_ROUNDS };
    while rounds.len() < min_rounds || (!cfg.short && start.elapsed().as_secs_f64() < cfg.seconds) {
        match backlog_round(cfg, &reqs, report_s, rounds.len(), out) {
            Ok(r) => rounds.push(r),
            Err(e) => return out.check(false, || e),
        }
    }
    let rate: Vec<f64> = rounds
        .iter()
        .map(|r| reqs.len() as f64 / r.drain_s)
        .collect();
    let report_ms: Vec<f64> = rounds.iter().flat_map(|r| r.report_ms.clone()).collect();
    // `fleet_report` is CPU-bound (it reads the journal from the page
    // cache): scaled to the reference host like the CPU-bound workloads.
    let report_ref: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.report_ms.iter().map(move |ms| ms / r.cpu))
        .collect();
    let verdict_ms: Vec<f64> = rounds.iter().flat_map(|r| r.verdict_ms.clone()).collect();
    let setup: Vec<f64> = rounds.iter().map(|r| gen_s + r.setup_s).collect();
    out.fact("rounds", rounds.len());
    out.e2e.insert("throughput_per_s", median(&rate));
    out.e2e.insert("latency_p50_ms", median(&report_ref));
    out.e2e
        .insert("latency_p90_ms", percentile(&report_ref, 90.0));
    out.e2e.insert("setup_s", median(&setup));
    out.named("sessions_per_s", median(&rate), "1/s");
    out.named("fleet_report_ms", median(&report_ms), "ms");
    out.named("fleet_report_p90_ms", percentile(&report_ms, 90.0), "ms");
    out.named(
        "host_slowdown",
        median(&rounds.iter().map(|r| r.cpu).collect::<Vec<_>>()),
        "ratio",
    );
    out.named("fleet_report_samples", report_ms.len() as f64, "count");
    out.named(
        "drain_s",
        median(&rounds.iter().map(|r| r.drain_s).collect::<Vec<_>>()),
        "s",
    );
    out.named("verdict_p50_ms", median(&verdict_ms), "ms");

    if cfg.trace {
        let last = rounds.last().map(|r| r.sampled).unwrap_or_default();
        out.layers.insert("server.queued", last.queued as f64);
        out.layers.insert("server.resident", last.resident as f64);
        out.layers.insert("server.evicted", last.evicted as f64);
        out.layers.insert("server.resumed", last.resumed as f64);
        let replayed = trace_replay(cfg, &reqs, BACKLOG_CHUNK, true, out);
        let verdict_p50 = median(&verdict_ms);
        queue_share(out, &replayed, verdict_p50);
    }
}

/// Per-request arrival times, seconds since the loop's start.
#[derive(Default)]
struct Arrivals {
    /// Response time and body (or error) per request id.
    responses: HashMap<u64, (f64, Result<Json, String>)>,
    /// Verdict event time and body per session.
    verdicts: HashMap<u64, (f64, Json)>,
}

/// Reads one connection until every request has its response and every
/// admitted session its verdict (or the stream fails).
fn read_arrivals(mut conn: Conn, total: usize, start: Instant) -> Arrivals {
    let mut got = Arrivals::default();
    let mut admitted = 0usize;
    while got.responses.len() < total || got.verdicts.len() < admitted {
        let Ok(doc) = conn.read() else {
            break;
        };
        let t = start.elapsed().as_secs_f64();
        if doc.get("event").and_then(Json::as_str) == Some("verdict") {
            let id = doc.get("session").and_then(Json::as_u64).unwrap_or(0);
            got.verdicts.insert(id, (t, doc));
        } else if let Some(id) = doc.get("id").and_then(Json::as_u64) {
            let body = match (doc.get("result"), doc.get("error")) {
                (Some(r), None) => {
                    if r.get("session").is_some() {
                        admitted += 1;
                    }
                    Ok(r.clone())
                }
                (_, e) => Err(format!("{e:?}")),
            };
            got.responses.insert(id, (t, body));
        }
    }
    got
}

/// `service-open`.
pub fn open(cfg: &Config, out: &mut Outcome) {
    let n = if cfg.short {
        24
    } else {
        (OPEN_RATE * cfg.seconds).ceil() as usize
    };
    // Set-up is generating the distinct requests with their reference
    // answers, plus a daemon start; it is repeated and the median
    // reported. The generation is CPU-bound, so it is scaled to the
    // reference host (see `calib`). The loop cycles through the distinct
    // requests.
    let mut setups = Vec::new();
    let mut reqs = Vec::new();
    for _ in 0..crate::SETUPS {
        let slowdown = calib::slowdown();
        let t = Instant::now();
        let mut rng = Rng::new(cfg.seed);
        let mut scratch = Outcome::default();
        reqs = generate(&mut rng, n.min(OPEN_DISTINCT), true, &mut scratch);
        setups.push(t.elapsed().as_secs_f64() / slowdown);
        if setups.len() == crate::SETUPS {
            out.attempted += scratch.attempted;
            out.failed += scratch.failed;
            out.failures.extend(scratch.failures);
        }
    }
    corrupt(cfg, &mut reqs);

    let t_start = Instant::now();
    let handle = match eqpd::start(ServerConfig {
        journal_dir: cfg.scratch("open"),
        workers: workers(),
        // Bigger than any session's step budget: sessions never park.
        chunk_steps: eqpd::spec::MAX_SESSION_STEPS + 1,
        max_resident: n + 64,
        admission: AdmissionConfig {
            max_in_flight: n + 64,
            max_per_tenant: n + 64,
            retry_after_ms: 50,
        },
        ..ServerConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => {
            out.check(false, || format!("daemon start failed: {e}"));
            return;
        }
    };
    let start_s = t_start.elapsed().as_secs_f64();
    for s in &mut setups {
        *s += start_s;
    }
    journal_facts(out, &cfg.root);
    out.fact("rate_per_s", OPEN_RATE);
    out.fact("requests", n);
    out.fact("distinct_requests", reqs.len());
    let addr = format!("127.0.0.1:{}", handle.port);
    drive_open(cfg, &addr, &reqs, n, &setups, out);
    handle.stop();
}

fn drive_open(
    cfg: &Config,
    addr: &str,
    reqs: &[Request],
    total: usize,
    setups: &[f64],
    out: &mut Outcome,
) {
    let conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => return out.check(false, || format!("connect failed: {e}")),
    };
    let writer = conn.writer();
    let start = Instant::now() + Duration::from_millis(20);
    let reader = std::thread::spawn(move || read_arrivals(conn, total, start));

    // The generator: request i is due at start + i / rate, sent then or
    // as soon after as the generator can.
    let due = |i: usize| i as f64 / OPEN_RATE;
    let nth = |i: usize| &reqs[i % reqs.len()];
    let mut late_ms = Vec::with_capacity(total);
    for i in 0..total {
        let r = nth(i);
        let at = start + Duration::from_secs_f64(due(i));
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        late_ms.push((Instant::now().saturating_duration_since(at)).as_secs_f64() * 1e3);
        if conn::send(&writer, r.line(i as u64 + 1).as_bytes()).is_err() {
            out.check(false, || "request write failed".to_owned());
            break;
        }
    }
    let gen_end = start.elapsed().as_secs_f64();
    let got = reader.join().unwrap_or_default();
    let stats = Conn::connect(addr).ok().map(|mut c| {
        let mut acc = Sampled::default();
        sample(&mut c, &mut acc);
        acc
    });

    let (mut admit_ms, mut verdict_ms, mut check_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut done_at = Vec::with_capacity(total);
    for i in 0..total {
        let r = nth(i);
        let id = i as u64 + 1;
        let d = due(i);
        let Some((t_resp, body)) = got.responses.get(&id) else {
            out.check(false, || format!("request {id}: no response"));
            continue;
        };
        let body = match body {
            Ok(b) => b,
            Err(e) => {
                out.check(false, || format!("request {id} refused: {e}"));
                done_at.push(*t_resp);
                continue;
            }
        };
        if r.kind == Kind::Check {
            check_ms.push((t_resp - d) * 1e3);
            done_at.push(*t_resp);
            let verdict = body.get("verdict").and_then(Json::as_str).unwrap_or("");
            let conformant = body.get("conformant").and_then(Json::as_bool);
            out.check(
                verdict == r.verdict && conformant == Some(r.conformant),
                || format!("check {id}: {verdict} vs reference {}", r.verdict),
            );
            continue;
        }
        admit_ms.push((t_resp - d) * 1e3);
        let session = body.get("session").and_then(Json::as_u64).unwrap_or(0);
        match got.verdicts.get(&session) {
            Some((t_v, ev)) => {
                verdict_ms.push((t_v - d) * 1e3);
                done_at.push(*t_v);
                check_verdict(r, ev, out);
            }
            None => out.check(false, || format!("session {session}: no verdict")),
        }
    }
    let last_done = done_at.iter().copied().fold(0.0, f64::max);
    let backlog_at_end = done_at.iter().filter(|&&t| t > gen_end).count();
    let completed = done_at.len() as f64;

    out.e2e
        .insert("throughput_per_s", completed / last_done.max(1e-9));
    out.e2e.insert("latency_p50_ms", median(&verdict_ms));
    out.e2e
        .insert("latency_p90_ms", percentile(&verdict_ms, 90.0));
    out.e2e.insert("setup_s", median(setups));
    for (name, v) in [
        ("admit", &admit_ms),
        ("verdict", &verdict_ms),
        ("check", &check_ms),
    ] {
        let scale = if name == "verdict" { 1.0 } else { 1e3 };
        let unit = if name == "verdict" { "ms" } else { "us" };
        out.named(format!("{name}_p50_{unit}"), median(v) * scale, unit);
        if let Some(p) = tail_percentile(v.len(), &[90.0, 99.0, 99.9]) {
            out.named(
                format!("{name}_p{p}_{unit}"),
                percentile(v, p) * scale,
                unit,
            );
        }
        out.named(format!("{name}_samples"), v.len() as f64, "count");
    }
    out.named("generator_late_p50_ms", median(&late_ms), "ms");
    out.named("generator_late_p99_ms", percentile(&late_ms, 99.0), "ms");
    out.named(
        "generator_late_max_ms",
        late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.named("backlog_at_end", backlog_at_end as f64, "count");

    if cfg.trace {
        let st = stats.unwrap_or_default();
        out.layers.insert("server.queued", st.queued as f64);
        out.layers.insert("server.resident", st.resident as f64);
        out.layers.insert("server.evicted", st.evicted as f64);
        out.layers.insert("server.resumed", st.resumed as f64);
        let chunk = eqpd::spec::MAX_SESSION_STEPS + 1;
        let replayed = trace_replay(cfg, reqs, chunk, false, out);
        queue_share(out, &replayed, median(&verdict_ms));
    }
}

/// Reports how much of the verdict p50 is layer self time and how much
/// is queue wait.
fn queue_share(out: &mut Outcome, self_us: &[f64], verdict_p50_ms: f64) {
    let self_p50 = median(self_us);
    out.layers.insert("service.self_p50_us", self_p50);
    out.layers.insert("service.verdict_p50_ms", verdict_p50_ms);
    let share = if verdict_p50_ms > 0.0 {
        (1.0 - self_p50 / 1e3 / verdict_p50_ms).max(0.0)
    } else {
        0.0
    };
    out.layers.insert("service.queue_wait_share", share);
}

/// Replays the first sessions untraced and then traced, derives the
/// per-layer metrics from the traced pass, and returns each replayed
/// session's summed self time in microseconds.
fn trace_replay(
    cfg: &Config,
    reqs: &[Request],
    chunk: usize,
    evict: bool,
    out: &mut Outcome,
) -> Vec<f64> {
    let reqs = &reqs[..reqs.len().min(REPLAY_LIMIT)];
    let mut times = [0.0f64; 2];
    let mut image_bytes = 0;
    for (pass, on) in [false, true].into_iter().enumerate() {
        let journal = match Journal::open(cfg.scratch(&format!("replay{pass}"))) {
            Ok(j) => j,
            Err(e) => {
                out.check(false, || format!("replay journal: {e}"));
                return Vec::new();
            }
        };
        span::enable(on);
        let t = Instant::now();
        image_bytes = replay(reqs, chunk, evict, &journal, out, on);
        times[pass] = t.elapsed().as_secs_f64();
    }
    let spans = span::take();
    span::enable(false);
    out.layers
        .insert("trace.overhead_ratio", times[1] / times[0].max(1e-9));

    let totals = span::totals(&spans);
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    for (metric, name) in [
        ("proto.parse_request_us", "proto.parse_request"),
        ("spec.validate_named_us", "spec.validate_named"),
        ("spec.validate_netlang_us", "spec.validate_netlang"),
        ("netlang.parse_us", "netlang.parse"),
        ("admission.admit_us", "admission.admit"),
        ("journal.record_spec_us", "journal.record_spec"),
        ("spec.build_network_us", "spec.build_network"),
        ("kahn.run_chunk_us", "kahn.run_chunk"),
        ("session.certify_us", "session.certify"),
        ("wire.encode_us", "wire.encode"),
        ("wire.decode_us", "wire.decode"),
        ("journal.record_checkpoint_us", "journal.record_checkpoint"),
        ("journal.load_checkpoint_us", "journal.load_checkpoint"),
        ("journal.record_result_us", "journal.record_result"),
        ("conformance.check_trace_us", "conformance.check_trace"),
        ("sketch.decode_merge_us", "sketch.decode_merge"),
    ] {
        out.layers.insert(metric, mean(name));
    }
    out.layers.insert(
        "journal.finished_results_ms",
        mean("journal.finished_results") / 1e3,
    );
    let sessions = reqs.iter().filter(|r| r.kind != Kind::Check).count().max(1) as f64;
    let chunks = totals.get("kahn.run_chunk").map_or(0, |t| t.count) as f64;
    out.layers.insert("session.chunks", chunks / sessions);
    let encodes = totals.get("wire.encode").map_or(0, |t| t.count).max(1) as f64;
    out.layers
        .insert("wire.image_bytes", image_bytes as f64 / encodes);

    // A session's service time: its spans' self time, with the separate
    // netlang parse (already inside validation) left out.
    let mut per_session: HashMap<u64, f64> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(span::self_times(&spans)) {
        if s.name != "netlang.parse" && s.session != 0 {
            *per_session.entry(s.session).or_insert(0.0) += self_ns as f64 / 1e3;
        }
    }
    let submits: Vec<f64> = reqs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind != Kind::Check)
        .filter_map(|(i, _)| per_session.get(&(i as u64 + 1)).copied())
        .collect();
    out.spans = spans;
    submits
}

/// Calls each layer the way the daemon does for these requests, one
/// session at a time. `evict` journals every parked checkpoint and
/// resumes from the journaled bytes, as the daemon does under residency
/// pressure. Results are checked against the reference on the traced
/// pass. Returns the checkpoint image bytes encoded.
fn replay(
    reqs: &[Request],
    chunk: usize,
    evict: bool,
    journal: &Journal,
    out: &mut Outcome,
    check: bool,
) -> u64 {
    let limits = SpecLimits::default();
    let mut admission = Admission::new(AdmissionConfig {
        max_in_flight: reqs.len() + 1,
        max_per_tenant: reqs.len() + 1,
        retry_after_ms: 50,
    });
    let zoo = conformance_zoo();
    let mut image_bytes = 0;
    for (i, r) in reqs.iter().enumerate() {
        let sid = i as u64 + 1;
        let line = r.line(sid);
        let Ok(req) = span("proto.parse_request", sid, || {
            proto::parse_request_limited(line.trim_end(), proto::MAX_FRAME_BYTES)
        }) else {
            out.check(false, || format!("replay {sid}: request did not parse"));
            continue;
        };
        if r.kind == Kind::Check {
            let Ok(t) = span("spec.validate_trace", sid, || {
                TraceSpec::from_json_limited(&req.params, &limits)
            }) else {
                out.check(false, || format!("replay {sid}: trace rejected"));
                continue;
            };
            let desc = zoo
                .iter()
                .find(|e| e.name == t.workload)
                .expect("validated")
                .description();
            let conf = span("conformance.check_trace", sid, || {
                conformance::check_trace(
                    &desc,
                    &Trace::finite(t.events),
                    t.quiescent,
                    &ConformanceOptions::default(),
                )
            });
            if check {
                out.check(verdict_name(&conf.verdict) == r.verdict, || {
                    format!("replay check {sid}: verdict differs")
                });
            }
            continue;
        }
        let spec_json = req.params.get("spec").cloned().unwrap_or(Json::Null);
        if let Some(src) = spec_json.get("netlang").and_then(Json::as_str) {
            let _ = span("netlang.parse", sid, || {
                eqp_netlang::parse(src, &limits.netlang)
            });
        }
        let name = if r.kind == Kind::Netlang {
            "spec.validate_netlang"
        } else {
            "spec.validate_named"
        };
        let Ok(spec) = span(name, sid, || {
            SessionSpec::from_json_limited(&spec_json, &limits)
        }) else {
            out.check(false, || format!("replay {sid}: spec rejected"));
            continue;
        };
        span("admission.admit", sid, || admission.admit(TENANT));
        if span("journal.record_spec", sid, || {
            journal.record_spec(sid, TENANT, &spec)
        })
        .is_err()
        {
            out.check(false, || format!("replay {sid}: journal write failed"));
            continue;
        }
        let result = match run_chunks(sid, &spec, chunk, evict, journal, &mut image_bytes) {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("replay {sid}: {e}"));
                continue;
            }
        };
        let _ = span("journal.record_result", sid, || {
            journal.record_result(sid, &result)
        });
        admission.release(TENANT);
        if check {
            out.check(
                result.verdict == r.verdict && result.trace_hash == r.trace_hash,
                || format!("replay {sid}: verdict or trace hash differs from reference"),
            );
        }
    }
    if evict {
        // The fleet rollup over the finished journal, as `fleet_report`
        // computes it.
        for _ in 0..5 {
            let Ok(finished) = span("journal.finished_results", 0, || journal.finished_results())
            else {
                out.check(false, || "replay: journal scan failed".to_owned());
                break;
            };
            let mut merged = TelemetrySketches::default();
            for (id, result) in &finished {
                span("sketch.decode_merge", *id, || {
                    if let Some(sk) = result.decode_sketches() {
                        merged.merge(&sk);
                    }
                });
            }
        }
    }
    image_bytes
}

/// Runs one session chunk by chunk, as `SessionRun::advance` does, with
/// a span around each layer call; adds each encoded checkpoint image's
/// size to `image_bytes`.
fn run_chunks(
    sid: u64,
    spec: &SessionSpec,
    chunk: usize,
    evict: bool,
    journal: &Journal,
    image_bytes: &mut u64,
) -> Result<SessionResult, String> {
    let mut parked: Option<Checkpoint> = None;
    loop {
        let done = parked.as_ref().map_or(0, Checkpoint::steps);
        let bound = done
            .saturating_add(chunk.max(1))
            .min(spec.max_steps)
            .max(done + 1);
        let opts = spec.run_options(bound);
        let mut net = span("spec.build_network", sid, || spec.build_network(spec.seed));
        let mut sched: Box<dyn Scheduler> = spec.sched.build();
        let (report, captured) = span("kahn.run_chunk", sid, || match &parked {
            None => Ok(net.run_report_checkpointed(&mut &mut *sched, opts, bound)),
            Some(c) => net.resume_report_checkpointed(c, &mut &mut *sched, opts, bound),
        })
        .map_err(|e| format!("{e:?}"))?;
        if report.status == RunStatus::BudgetExhausted && report.steps < spec.max_steps {
            if let Some(ckpt) = captured {
                parked = Some(if evict {
                    let bytes = span("wire.encode", sid, || eqp_kahn::encode_checkpoint(&ckpt))
                        .map_err(|e| format!("{e:?}"))?;
                    *image_bytes += bytes.len() as u64;
                    span("journal.record_checkpoint", sid, || {
                        journal.record_checkpoint(sid, &bytes)
                    })
                    .map_err(|e| e.to_string())?;
                    let loaded = span("journal.load_checkpoint", sid, || {
                        journal.load_checkpoint(sid)
                    })
                    .map_err(|e| e.to_string())?
                    .ok_or("journaled checkpoint missing")?;
                    span("wire.decode", sid, || eqp_kahn::decode_checkpoint(&loaded))
                        .map_err(|e| format!("{e:?}"))?
                } else {
                    ckpt
                });
                continue;
            }
        }
        let run = SessionRun::new(spec.clone());
        return Ok(span("session.certify", sid, || run.certify(&report, false)));
    }
}
