//! The `eqpd` soak: a full-service stress run proving the daemon holds
//! 10k+ *concurrent* admitted sessions and certifies every one of them.
//!
//! Shape: an in-process daemon starts paused; the driver submits the
//! whole fleet (so every session is admitted, journaled, and in flight
//! simultaneously — peak concurrency is asserted, not hoped for), then
//! releases the workers and collects every streamed verdict. Tiny
//! residency and chunk budgets force the checkpoint-evict-resume path to
//! carry real load. The run must lose nothing: every admitted session
//! ends in a certified verdict, `aborted == 0`.
//!
//! Emits `BENCH_service.json` at the repository root with p50/p99
//! admission latency (submit→ack, fsync included), p50/p99 verdict
//! latency (release→verdict event), the daemon's eviction/resume
//! counters, the `fleet_report` rollup latency (the daemon's live
//! rollup of every finished session's telemetry sketch block), and the
//! host facts (`eqp_bench::host_json`). Under `EQP_BENCH_SMOKE=1` the
//! fleet is scaled down to 200 sessions but every gate still asserts and
//! the JSON is still written (tagged `"smoke": true`).

use eqpd::json::{obj, s, Json};
use eqpd::{percentile_us, AdmissionConfig, Client, ServerConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

const WORKLOADS: [&str; 5] = ["sec23-merge", "fair-merge", "ticks", "random-bit", "bag"];
const TENANTS: usize = 8;

fn spec_json(workload: &str, seed: u64) -> Json {
    obj([
        ("workload", s(workload)),
        ("seed", Json::UInt(seed)),
        (
            "sched",
            obj([("kind", s("random")), ("seed", Json::UInt(seed))]),
        ),
    ])
}

fn netlang_spec_json(source: &str, seed: u64) -> Json {
    obj([
        ("netlang", s(source.to_owned())),
        ("seed", Json::UInt(seed)),
        (
            "sched",
            obj([("kind", s("random")), ("seed", Json::UInt(seed))]),
        ),
    ])
}

fn main() {
    let smoke = std::env::var("EQP_BENCH_SMOKE").is_ok();
    let sessions: usize = if smoke { 200 } else { 10_000 };

    // The soak measures the service, not the disk: journal on tmpfs when
    // the platform offers one.
    let base = if std::path::Path::new("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("eqpd-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    // A residency budget far below the fleet size keeps eviction and
    // resume-from-bytes on the hot path for the whole drain.
    let max_resident = (sessions / 8).max(8);
    let handle = eqpd::start(ServerConfig {
        journal_dir: dir.clone(),
        workers,
        chunk_steps: 64,
        max_resident,
        admission: AdmissionConfig {
            max_in_flight: sessions + 64,
            max_per_tenant: sessions,
            retry_after_ms: 50,
        },
        start_paused: true,
        ..Default::default()
    })
    .expect("daemon starts");
    let addr = format!("127.0.0.1:{}", handle.port);

    let mut clients: Vec<Client> = (0..TENANTS)
        .map(|_| Client::connect(&addr).expect("connects"))
        .collect();

    // Build the fleet against paused workers: every submission is
    // admitted and stays in flight.
    let mut admission_us = Vec::with_capacity(sessions);
    let mut owned: Vec<usize> = vec![0; TENANTS];
    for i in 0..sessions {
        let t = i % TENANTS;
        let spec = spec_json(WORKLOADS[i % WORKLOADS.len()], 1 + i as u64);
        let t0 = Instant::now();
        clients[t]
            .submit(&format!("tenant-{t}"), spec)
            .expect("io")
            .expect("the soak must not shed: capacity covers the fleet");
        admission_us.push(t0.elapsed().as_micros() as u64);
        owned[t] += 1;
    }

    // Peak concurrency is a gate, not a side effect.
    let st = clients[0]
        .call("stats", obj([]))
        .expect("io")
        .expect("stats");
    assert_eq!(
        st.get("in_flight").and_then(Json::as_u64),
        Some(sessions as u64),
        "every admitted session must be concurrently in flight: {st:?}"
    );

    // Release the backlog and collect every verdict, one collector per
    // tenant connection so kernel socket buffers never skew arrival
    // times.
    clients[0]
        .call("pause", obj([("paused", Json::Bool(false))]))
        .expect("io")
        .expect("released");
    let released = Instant::now();
    let collectors: Vec<std::thread::JoinHandle<Vec<u64>>> = clients
        .into_iter()
        .zip(owned)
        .map(|(mut client, expect)| {
            std::thread::spawn(move || {
                let mut seen: HashMap<u64, u64> = HashMap::new();
                while seen.len() < expect {
                    let ev = client.next_event().expect("event stream alive");
                    if ev.get("event").and_then(Json::as_str) != Some("verdict") {
                        continue;
                    }
                    if let Some(id) = ev.get("session").and_then(Json::as_u64) {
                        seen.insert(id, released.elapsed().as_micros() as u64);
                    }
                }
                seen.into_values().collect()
            })
        })
        .collect();
    let mut verdict_us = Vec::with_capacity(sessions);
    for c in collectors {
        verdict_us.extend(c.join().expect("collector"));
    }
    let drain_s = released.elapsed().as_secs_f64();

    // Zero lost sessions: every admitted session produced a verdict and
    // none died on the panic backstop.
    assert_eq!(verdict_us.len(), sessions, "every session must certify");
    let stats = handle.stats();
    assert_eq!(stats.completed, sessions as u64, "{stats:?}");
    assert_eq!(stats.aborted, 0, "{stats:?}");
    assert!(
        stats.evicted > 0,
        "the soak must exercise eviction: {stats:?}"
    );
    assert!(
        stats.resumed > 0,
        "the soak must exercise resume: {stats:?}"
    );

    // Netlang admission gate, run as its own batch so the soak's
    // eviction dynamics stay untouched: alternate named zoo specs with
    // their tenant-netlang re-encodings on one connection, against
    // paused workers (the same methodology as the fleet above) so both
    // classes measure the pure admission path — validate, journal
    // fsync, enqueue — without contending with their own
    // certifications. The untrusted-source path may not tax admission:
    // parsing, budget-checking, and lowering a tenant program must stay
    // within 2x of the named-workload tail (fsync dominates both).
    let netlang = eqp_processes::netlang_zoo::pairs();
    let extra = if smoke { 50 } else { 500 };
    let mut gate_client = Client::connect(&addr).expect("connects");
    gate_client
        .call("pause", obj([("paused", Json::Bool(true))]))
        .expect("io")
        .expect("paused");
    let mut named_admission_us = Vec::with_capacity(extra);
    let mut netlang_admission_us = Vec::with_capacity(extra);
    for i in 0..2 * extra {
        let spec = if i % 2 == 0 {
            spec_json(WORKLOADS[(i / 2) % WORKLOADS.len()], 1 + i as u64)
        } else {
            netlang_spec_json(netlang[(i / 2) % netlang.len()].1, 1 + i as u64)
        };
        let t0 = Instant::now();
        gate_client
            .submit("tenant-gate", spec)
            .expect("io")
            .expect("gate batch must admit");
        let us = t0.elapsed().as_micros() as u64;
        if i % 2 == 0 {
            named_admission_us.push(us);
        } else {
            netlang_admission_us.push(us);
        }
    }
    gate_client
        .call("pause", obj([("paused", Json::Bool(false))]))
        .expect("io")
        .expect("released");
    let mut gate_verdicts = 0usize;
    while gate_verdicts < 2 * extra {
        let ev = gate_client.next_event().expect("event stream alive");
        if ev.get("event").and_then(Json::as_str) == Some("verdict") {
            gate_verdicts += 1;
        }
    }
    let named_p99 = percentile_us(&named_admission_us, 99.0);
    let netlang_p99 = percentile_us(&netlang_admission_us, 99.0);
    assert!(
        netlang_p99 <= 2 * named_p99.max(1),
        "netlang admission p99 ({netlang_p99}us) exceeds 2x named-workload p99 ({named_p99}us)"
    );

    // Fleet rollup over the RPC: the daemon absorbed each of the
    // `sessions + 2*extra` finished sessions' sketch blocks as it
    // finished, so a call copies, shrinks and encodes one block and
    // reads no journal file. The per-session linear bound (kept from
    // when each call scanned the journal) only catches a rollup that
    // goes superlinear, not machine drift.
    let fleet_sessions = (sessions + 2 * extra) as u64;
    let rollup_iters = if smoke { 10 } else { 30 };
    let mut rollup_us = Vec::with_capacity(rollup_iters);
    let mut fleet = None;
    for _ in 0..rollup_iters {
        let t0 = Instant::now();
        let report = gate_client
            .fleet_report()
            .expect("io")
            .expect("fleet_report");
        rollup_us.push(t0.elapsed().as_micros() as u64);
        fleet = Some(report);
    }
    let fleet = fleet.expect("at least one rollup");
    assert_eq!(
        fleet.sessions, fleet_sessions,
        "the rollup must count every finished session"
    );
    // Sessions whose sampled observation count is zero (tiny runs under
    // 1-in-32 sampling) store no sketch block at all, so contribution
    // is a strong-majority floor rather than an equality.
    assert!(
        fleet.with_sketches > fleet_sessions / 2 && fleet.with_sketches <= fleet_sessions,
        "most sessions must contribute a sketch block: {} of {fleet_sessions}",
        fleet.with_sketches
    );
    assert!(
        fleet.events > 0 && fleet.sketches.is_some(),
        "the merged fleet summary must carry observations: {fleet:?}"
    );
    let rollup_p50 = percentile_us(&rollup_us, 50.0);
    let rollup_p99 = percentile_us(&rollup_us, 99.0);
    assert!(
        rollup_p99 <= 200 * fleet_sessions.max(1),
        "fleet rollup p99 ({rollup_p99}us) exceeds 200us/session over {fleet_sessions} sessions"
    );

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service\",\n",
            "  \"command\": \"cargo bench -p eqp-bench --bench service\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"host\": {host},\n",
            "  \"sessions\": {sessions},\n",
            "  \"tenants\": {tenants},\n",
            "  \"workers\": {workers},\n",
            "  \"chunk_steps\": 64,\n",
            "  \"max_resident\": {max_resident},\n",
            "  \"admission_us\": {{\"p50\": {ap50}, \"p99\": {ap99}}},\n",
            "  \"named_admission_us\": {{\"p50\": {nap50}, \"p99\": {nap99}}},\n",
            "  \"netlang_admission_us\": {{\"p50\": {lap50}, \"p99\": {lap99}}},\n",
            "  \"verdict_us\": {{\"p50\": {vp50}, \"p99\": {vp99}}},\n",
            "  \"fleet_rollup_us\": {{\"p50\": {rp50}, \"p99\": {rp99}}},\n",
            "  \"fleet_sessions\": {fleet_sessions},\n",
            "  \"fleet_with_sketches\": {fleet_with_sketches},\n",
            "  \"fleet_events\": {fleet_events},\n",
            "  \"fleet_distinct_values\": {fleet_distinct},\n",
            "  \"drain_s\": {drain_s:.3},\n",
            "  \"evicted\": {evicted},\n",
            "  \"resumed\": {resumed},\n",
            "  \"completed\": {completed},\n",
            "  \"aborted\": {aborted}\n",
            "}}\n"
        ),
        smoke = smoke,
        host = eqp_bench::host_json(),
        sessions = sessions,
        tenants = TENANTS,
        workers = workers,
        max_resident = max_resident,
        ap50 = percentile_us(&admission_us, 50.0),
        ap99 = percentile_us(&admission_us, 99.0),
        nap50 = percentile_us(&named_admission_us, 50.0),
        nap99 = named_p99,
        lap50 = percentile_us(&netlang_admission_us, 50.0),
        lap99 = netlang_p99,
        vp50 = percentile_us(&verdict_us, 50.0),
        vp99 = percentile_us(&verdict_us, 99.0),
        rp50 = rollup_p50,
        rp99 = rollup_p99,
        fleet_sessions = fleet_sessions,
        fleet_with_sketches = fleet.with_sketches,
        fleet_events = fleet.events,
        fleet_distinct = fleet.distinct_values,
        drain_s = drain_s,
        evicted = stats.evicted,
        resumed = stats.resumed,
        completed = stats.completed,
        aborted = stats.aborted,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    std::fs::write(&path, &json).expect("write BENCH_service.json");
    println!(
        "service soak: {sessions} sessions, {} evictions, {} resumes, drain {drain_s:.2}s",
        stats.evicted, stats.resumed
    );
    println!("wrote {}", path.display());
}
