//! In-process integration tests for the daemon: admission control and
//! backpressure, budget/deadline enforcement, checkpoint-evict-resume
//! identity against direct library runs, the one-shot `check` method,
//! and graceful drain + recovery across incarnations.

use eqpd::json::{obj, s, Json};
use eqpd::{
    AdmissionConfig, ChunkOutcome, Client, ServerConfig, ServerHandle, SessionRun, SessionSpec,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eqpd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(cfg: ServerConfig) -> (ServerHandle, String) {
    let handle = eqpd::start(cfg).expect("daemon starts");
    let addr = format!("127.0.0.1:{}", handle.port);
    (handle, addr)
}

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

/// Ground truth: the same spec run uninterrupted, in-process, through
/// the library.
fn direct_result(workload: &str, seed: u64) -> eqpd::SessionResult {
    let spec = SessionSpec::from_json(&spec_json(workload, seed)).expect("valid spec");
    let mut run = SessionRun::new(spec);
    loop {
        match run.advance(usize::MAX / 2).expect("direct run is clean") {
            ChunkOutcome::Finished(r) => return *r,
            ChunkOutcome::Parked(_) => {}
        }
    }
}

/// Collects verdict events until every id in `sessions` has one.
/// Verdicts arrive in completion order, not submission order, so a
/// per-id wait would drop the events it is not looking for.
fn collect_verdicts(client: &mut Client, sessions: &[u64]) -> std::collections::HashMap<u64, Json> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut got = std::collections::HashMap::new();
    while got.len() < sessions.len() {
        assert!(
            Instant::now() < deadline,
            "verdicts timed out: have {got:?}"
        );
        let ev = client.next_event().expect("event stream alive");
        if ev.get("event").and_then(Json::as_str) != Some("verdict") {
            continue;
        }
        if let Some(id) = ev.get("session").and_then(Json::as_u64) {
            if sessions.contains(&id) {
                got.insert(id, ev);
            }
        }
    }
    got
}

fn poll_done(client: &mut Client, session: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "poll for session {session} timed out"
        );
        let r = client
            .call("poll", obj([("session", Json::UInt(session))]))
            .expect("io")
            .expect("poll succeeds");
        if r.get("done").and_then(Json::as_bool) == Some(true) {
            return r.get("result").cloned().expect("result present");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn served_verdicts_match_direct_library_runs_through_evict_resume() {
    let dir = temp_dir("identity");
    // Tiny chunks + a residency budget of 1 force constant parking and
    // eviction: every session round-trips through journal bytes. The
    // backlog is built while paused — otherwise each chunk finishes
    // faster than the next submission round-trips and sessions never
    // overlap enough to exceed the residency budget.
    let (handle, addr) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 2,
        chunk_steps: 16,
        max_resident: 1,
        start_paused: true,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(90)))
        .expect("timeout set");

    let jobs: Vec<(&str, u64)> = vec![
        ("fair-merge", 3),
        ("sec23-merge", 4),
        ("brock-ackermann", 5),
        ("bag", 6),
        ("ticks", 7),
    ];
    let mut sessions = Vec::new();
    for (w, seed) in &jobs {
        let id = client
            .submit("it", spec_json(w, *seed))
            .expect("io")
            .expect("admitted");
        sessions.push((id, *w, *seed));
    }
    client
        .call("pause", obj([("paused", Json::Bool(false))]))
        .expect("io")
        .expect("released");
    let ids: Vec<u64> = sessions.iter().map(|&(id, _, _)| id).collect();
    let verdicts = collect_verdicts(&mut client, &ids);
    for (id, w, seed) in sessions {
        let ev = &verdicts[&id];
        let truth = direct_result(w, seed);
        assert_eq!(
            ev.get("verdict").and_then(Json::as_str),
            Some(truth.verdict.as_str()),
            "{w}"
        );
        assert_eq!(
            ev.get("trace_hash").and_then(Json::as_u64),
            Some(truth.trace_hash),
            "{w}"
        );
        assert_eq!(
            ev.get("steps").and_then(Json::as_u64),
            Some(truth.steps),
            "{w}"
        );
        assert_eq!(
            ev.get("trace_len").and_then(Json::as_u64),
            Some(truth.trace_len),
            "{w}"
        );
    }

    // The tiny residency budget must actually have exercised the
    // evict/resume path.
    let stats = client.call("stats", obj([])).expect("io").expect("ok");
    assert!(
        stats.get("evicted").and_then(Json::as_u64).unwrap_or(0) > 0,
        "evictions expected: {stats:?}"
    );
    assert!(
        stats.get("resumed").and_then(Json::as_u64).unwrap_or(0) > 0,
        "resumes expected: {stats:?}"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_rejects_with_typed_errors_and_retry_hints() {
    let dir = temp_dir("admission");
    let (handle, addr) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 1,
        start_paused: true, // sessions queue forever: capacity never frees
        admission: AdmissionConfig {
            max_in_flight: 3,
            max_per_tenant: 2,
            retry_after_ms: 111,
        },
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connects");

    // Tenant quota: alice's third submission is rejected by quota while
    // global capacity remains.
    for seed in 0..2 {
        client
            .submit("alice", spec_json("ticks", seed))
            .expect("io")
            .expect("admitted");
    }
    let quota = client
        .submit("alice", spec_json("ticks", 9))
        .expect("io")
        .expect_err("quota exceeded");
    assert_eq!(quota.code, -32004);
    assert!(quota.message.contains("alice"), "{}", quota.message);

    // Global backpressure: bob fills the last slot; carol is shed with a
    // retry hint.
    client
        .submit("bob", spec_json("ticks", 10))
        .expect("io")
        .expect("admitted");
    let shed = client
        .submit("carol", spec_json("ticks", 11))
        .expect("io")
        .expect_err("backpressured");
    assert_eq!(shed.code, -32005);
    assert_eq!(shed.retry_after_ms, Some(111));

    // Malformed specs are typed protocol errors, not admissions.
    let bad = client
        .submit("dave", obj([("workload", s("no-such-net"))]))
        .expect("io")
        .expect_err("unknown workload");
    assert_eq!(bad.code, -32602);
    assert!(bad.message.contains("unknown workload"), "{}", bad.message);

    // Releasing capacity (unpause → verdicts) reopens admission.
    client
        .call("pause", obj([("paused", Json::Bool(false))]))
        .expect("io")
        .expect("ok");
    let stats_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.call("stats", obj([])).expect("io").expect("ok");
        if stats.get("in_flight").and_then(Json::as_u64) == Some(0) {
            break;
        }
        assert!(Instant::now() < stats_deadline, "sessions must drain");
        std::thread::sleep(Duration::from_millis(20));
    }
    client
        .submit("carol", spec_json("ticks", 12))
        .expect("io")
        .expect("admitted after drain");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budgets_and_deadlines_produce_named_degraded_verdicts() {
    let dir = temp_dir("deadline");
    let (handle, addr) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 1,
        chunk_steps: 8,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connects");

    // A step budget below quiescence: certified SmoothPrefix, not an error.
    let id = client
        .submit(
            "t",
            obj([
                ("workload", s("fair-merge")),
                ("seed", Json::UInt(5)),
                ("max_steps", Json::UInt(9)),
            ]),
        )
        .expect("io")
        .expect("admitted");
    let r = poll_done(&mut client, id);
    assert_eq!(
        r.get("verdict").and_then(Json::as_str),
        Some("SmoothPrefix")
    );
    assert_eq!(r.get("conformant").and_then(Json::as_bool), Some(true));
    assert_eq!(r.get("steps").and_then(Json::as_u64), Some(9));

    // A zero wall-clock deadline on a non-quiescing workload: cut at the
    // first park, certified as a prefix, and named as a deadline cut.
    let id = client
        .submit(
            "t",
            obj([
                ("workload", s("ticks")),
                ("seed", Json::UInt(6)),
                ("deadline_ms", Json::UInt(0)),
            ]),
        )
        .expect("io")
        .expect("admitted");
    let r = poll_done(&mut client, id);
    assert_eq!(
        r.get("wall_deadline_expired").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        r.get("verdict").and_then(Json::as_str),
        Some("SmoothPrefix")
    );
    assert!(
        r.get("status")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("wall-clock deadline"),
        "{r:?}"
    );

    // A round deadline maps to the engine's DeadlineExpired status.
    let id = client
        .submit(
            "t",
            obj([
                ("workload", s("ticks")),
                ("seed", Json::UInt(7)),
                ("deadline_rounds", Json::UInt(3)),
            ]),
        )
        .expect("io")
        .expect("admitted");
    let r = poll_done(&mut client, id);
    assert!(
        r.get("status")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("deadline"),
        "{r:?}"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shot_check_certifies_textual_traces() {
    let dir = temp_dir("check");
    let (handle, addr) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 1,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connects");

    // A genuine ticks prefix: T T T on the tick channel.
    let tick_chan = {
        // Derive the channel from a real tiny run so the test does not
        // hard-code wiring.
        let truth = direct_result("ticks", 1);
        assert!(truth.trace_len > 0);
        // ticks emits on one channel only; read it from a direct run.
        let spec = SessionSpec::from_json(&spec_json("ticks", 1)).expect("valid");
        let mut net = spec.build_network(1);
        let report = net.run_report(
            &mut eqp_kahn::RoundRobin::new(),
            eqp_kahn::RunOptions {
                max_steps: 3,
                ..Default::default()
            },
        );
        report.trace.events().expect("finite")[0].chan.index()
    };
    let events: Vec<Json> = (0..3).map(|_| s(format!("{tick_chan}:T"))).collect();
    let ok = client
        .call(
            "check",
            obj([
                ("workload", s("ticks")),
                ("events", Json::Arr(events)),
                ("quiescent", Json::Bool(false)),
            ]),
        )
        .expect("io")
        .expect("check succeeds");
    assert_eq!(
        ok.get("conformant").and_then(Json::as_bool),
        Some(true),
        "{ok:?}"
    );

    // A corrupted trace (wrong value shape for ticks) is convicted, not
    // an error: certification worked and said no.
    let bad = client
        .call(
            "check",
            obj([
                ("workload", s("ticks")),
                ("events", Json::Arr(vec![s(format!("{tick_chan}:99"))])),
                ("quiescent", Json::Bool(false)),
            ]),
        )
        .expect("io")
        .expect("check runs");
    assert_eq!(
        bad.get("conformant").and_then(Json::as_bool),
        Some(false),
        "{bad:?}"
    );

    // Malformed events are typed spec errors.
    let err = client
        .call(
            "check",
            obj([
                ("workload", s("ticks")),
                ("events", Json::Arr(vec![s("zap")])),
            ]),
        )
        .expect("io")
        .expect_err("typed error");
    assert_eq!(err.code, -32602);
    assert!(err.message.contains("events[0]"), "{}", err.message);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_report_merges_durable_session_sketches() {
    let dir = temp_dir("fleet");
    let (handle, addr) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 2,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connects");
    let jobs: Vec<(&str, u64)> = vec![
        ("fair-merge", 31),
        ("bag", 32),
        ("ticks", 33),
        ("sec23-merge", 34),
    ];
    let mut per_session = Vec::new();
    for (w, seed) in &jobs {
        let id = client
            .submit("fleet", spec_json(w, *seed))
            .expect("io")
            .expect("admitted");
        // every certified verdict carries its hex sketch block
        let r = poll_done(&mut client, id);
        let hex = r
            .get("sketches")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{w} verdict has no sketches: {r:?}"));
        let bytes = eqpd::session::from_hex(hex).expect("hex decodes");
        per_session.push(eqp_kahn::TelemetrySketches::from_bytes(&bytes).expect("block decodes"));
    }

    // The daemon's rollup must equal a client-side fold of the same
    // per-session blocks — the merge is a commutative monoid, so both
    // sides summarize the identical union stream.
    let mut manual = eqp_kahn::TelemetrySketches::default();
    for sk in &per_session {
        manual.merge(sk);
    }
    let mut fleet = client.fleet_report().expect("io").expect("rpc ok");
    assert_eq!(fleet.sessions, jobs.len() as u64, "{fleet:?}");
    assert_eq!(fleet.with_sketches, jobs.len() as u64, "{fleet:?}");
    let merged = fleet.sketches.take().expect("merged image decodes");
    assert_eq!(merged, manual, "daemon rollup == client-side fold");
    let st = manual.stats();
    assert_eq!(fleet.events, st.events);
    assert_eq!(fleet.depth_p99, st.depth_p99);
    assert!(fleet.events > 0 && fleet.distinct_values > 0, "{fleet:?}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A netlang relay chain over `len` channels starting at index `base`,
/// fed `vals` values: one session's sketch block then names `len`
/// channel keys, and sessions at different bases name different ones.
fn relay_spec(base: u64, len: u64, vals: u64) -> Json {
    let mut src = format!("net relay-{base}\nsteps 2000\n");
    for c in base..base + len {
        src.push_str(&format!("chan c{c} = {c}\n"));
    }
    let vals: Vec<String> = (0..vals).map(|v| v.to_string()).collect();
    let vals = vals.join(" ");
    src.push_str(&format!(
        "proc s = const c{base} [{vals}]\neq c{base} <= [{vals}]\n"
    ));
    for c in base + 1..base + len {
        src.push_str(&format!("proc p{c} = copy c{} -> c{c}\n", c - 1));
        src.push_str(&format!("eq c{c} <= c{}\n", c - 1));
    }
    obj([("netlang", s(src))])
}

/// Submits each spec, waits for its verdict, and returns the decoded
/// sketch block every verdict carries.
fn finish_all(client: &mut Client, specs: &[Json]) -> Vec<eqp_kahn::TelemetrySketches> {
    specs
        .iter()
        .map(|spec| {
            let id = client
                .submit("fleet", spec.clone())
                .expect("io")
                .expect("admitted");
            let r = poll_done(client, id);
            let hex = r.get("sketches").and_then(Json::as_str).expect("sketches");
            let bytes = eqpd::session::from_hex(hex).expect("hex decodes");
            eqp_kahn::TelemetrySketches::from_bytes(&bytes).expect("block decodes")
        })
        .collect()
}

#[test]
fn fleet_report_is_live_across_a_restart_past_candidate_capacity() {
    let dir = temp_dir("fleet-restart");
    let cfg = ServerConfig {
        journal_dir: dir.clone(),
        workers: 2,
        ..Default::default()
    };
    // Eight sessions of 12 channels at bases 7 apart: 61 channel keys
    // in all, past the heavy-hitter capacity of 32, with uneven traffic.
    let specs: Vec<Json> = (0..8u64)
        .map(|j| relay_spec(7 * j, 12, 3 + 2 * j))
        .collect();
    let (before, after) = specs.split_at(4);
    let report = |client: &mut Client| {
        client
            .call("fleet_report", obj([]))
            .expect("io")
            .expect("rpc ok")
    };

    let (handle, addr) = start(cfg.clone());
    let mut client = Client::connect(&addr).expect("connects");
    let mut blocks = finish_all(&mut client, before);
    let last_before = report(&mut client);
    handle.stop();

    let (handle, addr) = start(cfg);
    let mut client = Client::connect(&addr).expect("connects");
    assert_eq!(
        report(&mut client),
        last_before,
        "a restart keeps the report"
    );
    blocks.extend(finish_all(&mut client, after));
    let fleet = client.fleet_report().expect("io").expect("rpc ok");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(fleet.sessions, specs.len() as u64, "{fleet:?}");
    assert_eq!(fleet.with_sketches, specs.len() as u64, "{fleet:?}");
    let mut manual = eqp_kahn::TelemetrySketches::default();
    for b in &blocks {
        manual.absorb(b);
    }
    assert!(
        manual.channel_traffic.top(usize::MAX).len() > 32,
        "the fleet's channel keys must overflow the candidate list"
    );
    manual.shrink();
    assert_eq!(
        fleet.sketches.expect("image decodes").to_bytes(),
        manual.to_bytes(),
        "daemon rollup == client-side absorb-then-shrink"
    );
}

#[test]
fn failed_verdict_write_is_counted_and_left_out_of_the_fleet() {
    let dir = temp_dir("verdict-write");
    let (handle, addr) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 1,
        start_paused: true,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connects");
    let id = client
        .submit("t", spec_json("ticks", 5))
        .expect("io")
        .expect("admitted");
    // The spec is journaled; a regular file in place of the session's
    // directory makes every later write under it fail.
    let sdir = dir.join(format!("s{id}"));
    std::fs::remove_dir_all(&sdir).expect("session dir");
    std::fs::write(&sdir, b"not a directory").expect("blocker file");
    client
        .call("pause", obj([("paused", Json::Bool(false))]))
        .expect("io")
        .expect("unpaused");
    let verdicts = collect_verdicts(&mut client, &[id]);
    assert!(verdicts.contains_key(&id), "the verdict is still streamed");

    let stats = client.call("stats", obj([])).expect("io").expect("stats");
    let count = |k: &str| stats.get(k).and_then(Json::as_u64);
    assert_eq!(count("verdict_write_failed"), Some(1), "{stats:?}");
    assert_eq!(count("completed"), Some(1), "{stats:?}");
    let fleet = client.fleet_report().expect("io").expect("rpc ok");
    assert_eq!(
        fleet.sessions, 0,
        "a verdict no restart can find: {fleet:?}"
    );
    assert_eq!(fleet.with_sketches, 0, "{fleet:?}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_checkpoints_and_next_incarnation_finishes_identically() {
    let dir = temp_dir("drain");
    // Incarnation 1: paused workers, so submitted sessions are accepted
    // and journaled but never run; drain parks them all.
    let (handle, addr) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 2,
        chunk_steps: 16,
        start_paused: true,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connects");
    let jobs: Vec<(&str, u64)> = vec![("fair-merge", 21), ("bag", 22), ("sec23-merge", 23)];
    let mut ids = Vec::new();
    for (w, seed) in &jobs {
        ids.push(
            client
                .submit("drain", spec_json(w, *seed))
                .expect("io")
                .expect("admitted"),
        );
    }
    client
        .call("shutdown", obj([("mode", s("drain"))]))
        .expect("io")
        .expect("drain acked");
    handle.wait();

    // Incarnation 2 on the same journal: every session recovers and
    // finishes with the verdict an uninterrupted run produces.
    let (handle2, addr2) = start(ServerConfig {
        journal_dir: dir.clone(),
        workers: 2,
        chunk_steps: 16,
        ..Default::default()
    });
    let mut client2 = Client::connect(&addr2).expect("connects");
    let stats = client2.call("stats", obj([])).expect("io").expect("ok");
    assert_eq!(
        stats.get("recovered").and_then(Json::as_u64),
        Some(jobs.len() as u64),
        "{stats:?}"
    );
    for (id, (w, seed)) in ids.iter().zip(&jobs) {
        let r = poll_done(&mut client2, *id);
        let truth = direct_result(w, *seed);
        assert_eq!(
            r.get("verdict").and_then(Json::as_str),
            Some(truth.verdict.as_str()),
            "{w}"
        );
        assert_eq!(
            r.get("trace_hash").and_then(Json::as_u64),
            Some(truth.trace_hash),
            "{w}"
        );
    }
    handle2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
