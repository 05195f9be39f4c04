//! The certification daemon: a TCP line-protocol server running admitted
//! sessions on a worker pool with checkpoint-evict-resume and crash
//! recovery over the durable [`Journal`].
//!
//! Life of a session: `submit` → admission control ([`Admission`]) →
//! spec journaled (durable **before** the ack: an acked session is
//! always recoverable) → queued → workers execute it in
//! [`SessionRun::advance`] chunks. Between chunks the session is parked;
//! parked sessions past the residency budget are *evicted* — their
//! checkpoint image is journaled and the in-memory state dropped — and
//! transparently resumed from bytes later (the engine guarantees the
//! resumed run is byte-identical). Verdicts are journaled, rolled into
//! the live fleet rollup `fleet_report` answers from, capacity released,
//! and a `verdict` event streamed to the submitting connection.
//!
//! Crash recovery: on start the journal is scanned; every interrupted
//! session (spec without verdict) is re-admitted and re-queued, resuming
//! from its latest durable checkpoint or from genesis — determinism
//! makes either path produce the identical verdict. Graceful shutdown
//! (`shutdown {"mode":"drain"}`) parks every in-flight session to a
//! journaled checkpoint and exits; the next incarnation picks them up.

use crate::admission::{Admission, AdmissionConfig, Decision};
use crate::journal::Journal;
use crate::json::{obj, s, Json};
use crate::proto::{self, Frame, ProtoError, Request};
use crate::session::{ChunkOutcome, SessionResult, SessionRun};
use crate::spec::{zoo, zoo_entry, SessionSpec, SpecLimits, TraceSpec};
use eqp_kahn::conformance::{self, ConformanceOptions};
use eqp_kahn::TelemetrySketches;
use eqp_trace::Trace;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (written to
    /// `port_file` when set).
    pub addr: String,
    /// Journal root directory.
    pub journal_dir: PathBuf,
    /// Worker threads executing session chunks.
    pub workers: usize,
    /// Steps per execution chunk (the evict/resume granularity).
    pub chunk_steps: usize,
    /// Parked sessions kept in memory before eviction to the journal.
    pub max_resident: usize,
    /// Admission control knobs.
    pub admission: AdmissionConfig,
    /// Where to write the bound port (for test harnesses and clients).
    pub port_file: Option<PathBuf>,
    /// Start with workers paused (sessions queue but do not run) — lets
    /// harnesses build large concurrent backlogs deterministically.
    pub start_paused: bool,
    /// Per-tenant admission limits (step/trace/netlang budgets),
    /// CLI-configurable per daemon.
    pub limits: SpecLimits,
    /// Protocol frame-size cap in bytes (`--max-frame-bytes`).
    pub max_frame_bytes: usize,
    /// Destination-side fault injection: exit hard at a named migration
    /// point (`offer` or `commit`). Test-harness only.
    pub fault_halt: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            journal_dir: PathBuf::from("eqpd-journal"),
            workers: 4,
            chunk_steps: 2_000,
            max_resident: 64,
            admission: AdmissionConfig::default(),
            port_file: None,
            start_paused: false,
            limits: SpecLimits::default(),
            max_frame_bytes: proto::MAX_FRAME_BYTES,
            fault_halt: None,
        }
    }
}

/// Monotonic daemon counters, surfaced by the `stats` method.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Sessions admitted (including recovered ones).
    pub admitted: u64,
    /// Submissions rejected by per-tenant quota.
    pub rejected_quota: u64,
    /// Submissions shed by global backpressure.
    pub rejected_backpressure: u64,
    /// Sessions finished with a certified verdict.
    pub completed: u64,
    /// Sessions killed by the panic/restore backstop.
    pub aborted: u64,
    /// Parked sessions evicted to the journal.
    pub evicted: u64,
    /// Sessions resumed from a journaled checkpoint image.
    pub resumed: u64,
    /// Interrupted sessions re-admitted at startup.
    pub recovered: u64,
    /// Sessions parked to the journal by a draining shutdown.
    pub drained: u64,
    /// Recovery-scan session dirs with no spec (crash before spec write).
    pub recovery_partial: u64,
    /// Recovery-scan session dirs skipped as unreadable or invalid.
    pub recovery_skipped: u64,
    /// Sessions handed off to a peer daemon (source side).
    pub migrated_out: u64,
    /// Sessions received from a peer daemon (destination side).
    pub migrated_in: u64,
    /// Verdicts whose journal write failed: streamed to the client but
    /// not durable, so they are left out of `fleet_report` and a
    /// restart runs the session again.
    pub verdict_write_failed: u64,
}

struct Entry {
    tenant: String,
    spec: SessionSpec,
    /// In-memory progress. `None` means fresh or evicted — the worker
    /// reloads from the journal image (or genesis) on next dispatch.
    run: Option<SessionRun>,
    /// True once this session has a durable checkpoint image.
    has_image: bool,
    subscriber: Option<Arc<Mutex<TcpStream>>>,
    done: Option<SessionResult>,
    /// True while a worker is stepping this session right now.
    executing: bool,
    /// Frozen for migration: workers must not re-enqueue or step it.
    migrating: bool,
    /// Set once the handoff is done: `(peer addr, peer session id)`.
    migrated_to: Option<(String, u64)>,
}

impl Entry {
    fn new(tenant: String, spec: SessionSpec, subscriber: Option<Arc<Mutex<TcpStream>>>) -> Entry {
        Entry {
            tenant,
            spec,
            run: None,
            has_image: false,
            subscriber,
            done: None,
            executing: false,
            migrating: false,
            migrated_to: None,
        }
    }
}

struct Core {
    admission: Admission,
    queue: VecDeque<u64>,
    sessions: HashMap<u64, Entry>,
    /// Ids currently holding in-memory parked state, oldest first.
    resident: VecDeque<u64>,
    /// Inbound transfer tokens → local session id (migration idempotency).
    imports: HashMap<String, u64>,
    next_id: u64,
    paused: bool,
    draining: bool,
    stopping: bool,
    running: usize,
    stats: Stats,
}

/// The live `fleet_report` rollup: every durable verdict's sketch block,
/// absorbed once when the session finishes. Absorbing is exact and
/// order-free, so the rollup does not depend on the order sessions
/// finish in; the report shrinks a copy before encoding it.
#[derive(Clone, Default)]
struct Fleet {
    /// Finished sessions with a durable verdict.
    sessions: u64,
    /// How many of them carried a sketch block.
    with_sketches: u64,
    sketches: TelemetrySketches,
}

impl Fleet {
    fn add(&mut self, block: Option<&TelemetrySketches>) {
        self.sessions += 1;
        if let Some(block) = block {
            self.sketches.absorb(block);
            self.with_sketches += 1;
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    journal: Journal,
    port: u16,
    core: Mutex<Core>,
    work: Condvar,
    /// Locked after `core` when both are held.
    fleet: Mutex<Fleet>,
}

/// A started daemon: its bound port plus the handles to join.
pub struct ServerHandle {
    /// The bound TCP port.
    pub port: u16,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Blocks until the daemon shuts down.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Requests an immediate (non-draining) shutdown and joins.
    pub fn stop(self) {
        {
            let mut core = self.shared.core.lock().expect("core lock");
            core.stopping = true;
            self.shared.work.notify_all();
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        self.wait();
    }

    /// Current stats snapshot (for in-process harnesses).
    pub fn stats(&self) -> Stats {
        self.shared.core.lock().expect("core lock").stats.clone()
    }
}

/// Starts the daemon: recovers the journal, binds, spawns the worker
/// pool and accept loop, and returns the handle.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let journal = Journal::open(&cfg.journal_dir)?;
    let scan = journal.recover_scan(&cfg.limits)?;
    let (interrupted, next_id) = (scan.sessions, scan.next_id);

    let mut core = Core {
        admission: Admission::new(cfg.admission.clone()),
        queue: VecDeque::new(),
        sessions: HashMap::new(),
        resident: VecDeque::new(),
        imports: HashMap::new(),
        next_id,
        paused: cfg.start_paused,
        draining: false,
        stopping: false,
        running: 0,
        stats: Stats {
            recovery_partial: scan.partial,
            recovery_skipped: scan.skipped,
            ..Stats::default()
        },
    };
    // Re-admit every interrupted session: the work was already accepted
    // by a previous incarnation, so recovery bypasses admission limits —
    // losing acked work to a quota would violate the crash-safety
    // contract.
    let mut redrives = Vec::new();
    for r in interrupted {
        let has_image = r.checkpoint.is_some();
        let mut entry = Entry::new(r.tenant.clone(), r.spec, None);
        entry.has_image = has_image;
        if let Some(rec) = r.migration {
            // An interrupted outbound handoff: this daemon may no longer
            // own the session (phase `released`), so it must re-drive
            // the transfer rather than re-run the work.
            entry.migrating = true;
            core.stats.admitted += 1;
            core.stats.recovered += 1;
            let _ = core.admission.admit(&r.tenant);
            core.sessions.insert(r.id, entry);
            redrives.push((r.id, rec));
            continue;
        }
        let _ = core.admission.admit(&r.tenant);
        core.stats.admitted += 1;
        core.stats.recovered += 1;
        core.sessions.insert(r.id, entry);
        core.queue.push_back(r.id);
    }

    // Seed the fleet rollup from the verdicts earlier incarnations left;
    // from here on `finish_session` keeps it current.
    let mut fleet = Fleet::default();
    for (_, result) in journal.finished_results()? {
        fleet.add(result.decode_sketches().as_ref());
    }

    let listener = TcpListener::bind(&cfg.addr)?;
    let port = listener.local_addr()?.port();
    if let Some(pf) = &cfg.port_file {
        std::fs::write(pf, format!("{port}\n"))?;
    }

    let shared = Arc::new(Shared {
        cfg,
        journal,
        port,
        core: Mutex::new(core),
        work: Condvar::new(),
        fleet: Mutex::new(fleet),
    });

    let mut threads = Vec::new();
    for i in 0..shared.cfg.workers.max(1) {
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("eqpd-worker-{i}"))
                .spawn(move || worker_loop(&sh))?,
        );
    }
    {
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("eqpd-accept".to_owned())
                .spawn(move || accept_loop(&sh, listener))?,
        );
    }
    for (id, rec) in redrives {
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("eqpd-migrate-{id}"))
                .spawn(move || redrive_migration(&sh, id, rec))?,
        );
    }
    Ok(ServerHandle {
        port,
        shared,
        threads,
    })
}

fn write_line(stream: &Mutex<TcpStream>, doc: &Json) {
    // A dead subscriber is not an error: the verdict is journaled, the
    // client can reconnect and poll.
    if let Ok(mut s) = stream.lock() {
        let mut line = doc.to_line();
        line.push('\n');
        let _ = s.write_all(line.as_bytes());
    }
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(sh: &Shared) {
    loop {
        // Dequeue one runnable session.
        let (id, run_slot) = {
            let mut core = sh.core.lock().expect("core lock");
            loop {
                if core.stopping {
                    return;
                }
                if !core.paused {
                    if let Some(id) = core.queue.pop_front() {
                        let entry = core.sessions.get_mut(&id).expect("queued session exists");
                        if entry.migrating {
                            // Frozen for handoff after it was enqueued:
                            // leave it to the migration driver.
                            continue;
                        }
                        entry.executing = true;
                        let run = entry.run.take();
                        core.running += 1;
                        core.resident.retain(|&r| r != id);
                        break (id, run);
                    }
                }
                if core.draining && core.queue.is_empty() && core.running == 0 {
                    // Drain complete: stop the pool and unblock accept.
                    core.stopping = true;
                    sh.work.notify_all();
                    drop(core);
                    let _ = TcpStream::connect(("127.0.0.1", sh.port));
                    return;
                }
                core = sh.work.wait(core).expect("core lock");
            }
        };

        step_session(sh, id, run_slot);

        let mut core = sh.core.lock().expect("core lock");
        core.running -= 1;
        if let Some(e) = core.sessions.get_mut(&id) {
            e.executing = false;
        }
        sh.work.notify_all();
    }
}

/// Executes one chunk of session `id`, handling load/park/evict/finish.
fn step_session(sh: &Shared, id: u64, run_slot: Option<SessionRun>) {
    let (tenant, spec, draining) = {
        let core = sh.core.lock().expect("core lock");
        let e = &core.sessions[&id];
        (e.tenant.clone(), e.spec.clone(), core.draining)
    };

    // Materialize the run: in-memory parked state, a journaled image
    // (evicted or recovered), or a fresh run from the spec.
    let mut run = match run_slot {
        Some(r) => r,
        None => match sh.journal.load_checkpoint(id) {
            Ok(Some(bytes)) => match SessionRun::from_checkpoint_bytes(spec.clone(), &bytes) {
                Ok(r) => {
                    sh.core.lock().expect("core lock").stats.resumed += 1;
                    r
                }
                Err(e) => {
                    // A corrupt image is a dead session, not a dead daemon.
                    finish_session(sh, id, &tenant, SessionResult::aborted(&e), true);
                    return;
                }
            },
            _ => SessionRun::new(spec.clone()),
        },
    };

    if draining {
        park_to_journal(sh, id, &run);
        return;
    }

    match run.advance(sh.cfg.chunk_steps) {
        Err(e) => {
            finish_session(sh, id, &tenant, SessionResult::aborted(&e), true);
        }
        Ok(ChunkOutcome::Finished(result)) => {
            finish_session(sh, id, &tenant, *result, false);
        }
        Ok(ChunkOutcome::Parked(report)) => {
            if run.wall_deadline_expired() {
                // Budget/deadline enforcement: the daemon cuts the
                // session here and certifies what it has — a named
                // degraded outcome, not an error.
                let result = run.certify(&report, true);
                finish_session(sh, id, &tenant, result, false);
                return;
            }
            drop(report);
            let mut core = sh.core.lock().expect("core lock");
            if core.draining {
                drop(core);
                park_to_journal(sh, id, &run);
                return;
            }
            // Keep the parked state resident if the budget allows;
            // otherwise evict the oldest resident to the journal.
            let entry = core.sessions.get_mut(&id).expect("session exists");
            entry.run = Some(run);
            if entry.migrating {
                // A migrate request froze this session mid-chunk: park
                // it in memory for the handoff driver, don't re-enqueue.
                sh.work.notify_all();
                return;
            }
            core.resident.push_back(id);
            core.queue.push_back(id);
            while core.resident.len() > sh.cfg.max_resident.max(1) {
                let victim = core.resident.pop_front().expect("nonempty");
                let v = core.sessions.get_mut(&victim).expect("resident session");
                if let Some(vrun) = v.run.take() {
                    core.stats.evicted += 1;
                    drop(core);
                    park_to_journal(sh, victim, &vrun);
                    core = sh.core.lock().expect("core lock");
                }
            }
            sh.work.notify_all();
        }
    }
}

/// Journals a parked session's checkpoint image (evict / drain path).
fn park_to_journal(sh: &Shared, id: u64, run: &SessionRun) {
    match run.checkpoint_bytes() {
        Ok(Some(bytes)) => {
            if sh.journal.record_checkpoint(id, &bytes).is_ok() {
                let mut core = sh.core.lock().expect("core lock");
                if let Some(e) = core.sessions.get_mut(&id) {
                    e.has_image = true;
                }
                if core.draining {
                    core.stats.drained += 1;
                }
            }
        }
        // Fresh (no progress) sessions restart from their journaled
        // spec; nothing to persist.
        Ok(None) => {
            let mut core = sh.core.lock().expect("core lock");
            if core.draining {
                core.stats.drained += 1;
            }
        }
        Err(e) => {
            let tenant = {
                let core = sh.core.lock().expect("core lock");
                core.sessions[&id].tenant.clone()
            };
            finish_session(sh, id, &tenant, SessionResult::aborted(&e), true);
        }
    }
}

/// Records a finished session: durable verdict, fleet rollup, released
/// capacity, streamed `verdict` event.
fn finish_session(sh: &Shared, id: u64, tenant: &str, result: SessionResult, aborted: bool) {
    // Durable before observable: the verdict hits the journal (and a
    // durable one the fleet rollup) before the event hits the wire.
    let durable = match sh.journal.record_result(id, &result) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("eqpd: journal: verdict of s{id} not recorded ({e}); a restart re-runs it");
            false
        }
    };
    let block = durable.then(|| result.decode_sketches()).flatten();
    let subscriber = {
        let mut core = sh.core.lock().expect("core lock");
        core.admission.release(tenant);
        if aborted {
            core.stats.aborted += 1;
        } else {
            core.stats.completed += 1;
        }
        if !durable {
            core.stats.verdict_write_failed += 1;
        }
        let entry = core.sessions.get_mut(&id).expect("session exists");
        // An eviction victim whose image fails to encode is finished
        // while still queued, so a worker may finish it again: roll it
        // up once.
        if durable && entry.done.is_none() {
            sh.fleet.lock().expect("fleet lock").add(block.as_ref());
        }
        entry.done = Some(result.clone());
        entry.run = None;
        entry.subscriber.clone()
    };
    if let Some(sub) = subscriber {
        let ev = proto::event(
            "verdict",
            id,
            vec![
                ("verdict", s(result.verdict.clone())),
                ("conformant", Json::Bool(result.conformant)),
                ("status", s(result.status.clone())),
                ("steps", Json::UInt(result.steps)),
                ("trace_len", Json::UInt(result.trace_len)),
                ("trace_hash", Json::UInt(result.trace_hash)),
            ],
        );
        write_line(&sub, &ev);
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

fn accept_loop(sh: &Arc<Shared>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if sh.core.lock().expect("core lock").stopping {
            return;
        }
        let sh = Arc::clone(sh);
        std::thread::Builder::new()
            .name("eqpd-conn".to_owned())
            .spawn(move || connection_loop(&sh, stream))
            .ok();
    }
}

fn connection_loop(sh: &Arc<Shared>, stream: TcpStream) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match proto::read_frame_limited(&mut reader, sh.cfg.max_frame_bytes) {
            Err(_) | Ok(Frame::Eof) => return,
            Ok(Frame::Oversized { discarded }) => {
                let e = ProtoError::Oversized { discarded };
                write_line(
                    &writer,
                    &proto::response_err(0, e.code(), &e.to_string(), None),
                );
            }
            Ok(Frame::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match proto::parse_request_limited(&line, sh.cfg.max_frame_bytes) {
                    Err(e) => {
                        write_line(
                            &writer,
                            &proto::response_err(0, e.code(), &e.to_string(), None),
                        );
                    }
                    Ok(req) => {
                        let shutdown = req.method == "shutdown";
                        let resp = dispatch(sh, &req, &writer);
                        write_line(&writer, &resp);
                        if shutdown {
                            return;
                        }
                    }
                }
            }
        }
    }
}

fn dispatch(sh: &Arc<Shared>, req: &Request, writer: &Arc<Mutex<TcpStream>>) -> Json {
    match req.method.as_str() {
        "submit" => handle_submit(sh, req, writer),
        "status" => handle_status(sh, req),
        "poll" => handle_poll(sh, req),
        "check" => handle_check(sh, req),
        "migrate" => handle_migrate(sh, req),
        "migrate_offer" => handle_migrate_offer(sh, req),
        "migrate_commit" => handle_migrate_commit(sh, req),
        "workloads" => handle_workloads(req),
        "stats" => handle_stats(sh, req),
        "fleet_report" => handle_fleet_report(sh, req),
        "pause" => handle_pause(sh, req),
        "shutdown" => handle_shutdown(sh, req),
        other => proto::response_err(req.id, -32601, &format!("unknown method `{other}`"), None),
    }
}

fn handle_submit(sh: &Arc<Shared>, req: &Request, writer: &Arc<Mutex<TcpStream>>) -> Json {
    let tenant = req
        .params
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("anon")
        .to_owned();
    let Some(spec_json) = req.params.get("spec") else {
        return proto::response_err(req.id, -32602, "missing `spec` object", None);
    };
    let spec = match SessionSpec::from_json_limited(spec_json, &sh.cfg.limits) {
        Ok(s) => s,
        Err(e) => return proto::response_err(req.id, -32602, &e.to_string(), None),
    };

    // Reserve capacity and an id under the lock; journal outside it.
    let id = {
        let mut core = sh.core.lock().expect("core lock");
        if core.draining || core.stopping {
            return proto::response_err(req.id, -32003, "daemon is shutting down", None);
        }
        match core.admission.admit(&tenant) {
            Decision::TenantQuotaExceeded { limit } => {
                core.stats.rejected_quota += 1;
                return proto::response_err(
                    req.id,
                    -32004,
                    &format!("tenant `{tenant}` at quota ({limit} in flight)"),
                    Some(sh.cfg.admission.retry_after_ms),
                );
            }
            Decision::Backpressured { retry_after_ms } => {
                core.stats.rejected_backpressure += 1;
                return proto::response_err(
                    req.id,
                    -32005,
                    "daemon at capacity, retry later",
                    Some(retry_after_ms),
                );
            }
            Decision::Admitted => {}
        }
        let id = core.next_id;
        core.next_id += 1;
        id
    };

    // Durability before the ack: if the spec cannot be journaled, the
    // session was never accepted.
    if let Err(e) = sh.journal.record_spec(id, &tenant, &spec) {
        let mut core = sh.core.lock().expect("core lock");
        core.admission.release(&tenant);
        return proto::response_err(req.id, -32000, &format!("journal write failed: {e}"), None);
    }

    {
        let mut core = sh.core.lock().expect("core lock");
        core.stats.admitted += 1;
        core.sessions
            .insert(id, Entry::new(tenant, spec, Some(Arc::clone(writer))));
        core.queue.push_back(id);
        sh.work.notify_all();
    }
    proto::response_ok(req.id, obj([("session", Json::UInt(id))]))
}

fn session_param(req: &Request) -> Option<u64> {
    req.params.get("session").and_then(Json::as_u64)
}

// ---------------------------------------------------------------------
// Live migration
//
// Source protocol, each phase durable before the next step:
//   freeze session → journal `intent` → `migrate_offer` to the peer
//   (idempotent by token; the peer durably stores spec + checkpoint as
//   an *uncommitted* import and acks with its session id) → journal
//   `released` (this daemon will never run the session again) →
//   `migrate_commit` (the peer durably commits and enqueues) → journal
//   `done` → release local admission.
//
// Exactly-one-owner invariant: before `released` the source owns the
// session (the peer's uncommitted import is inert and never runs);
// from `released` on, the peer owns the bytes and the source only ever
// re-drives the commit. A kill -9 of either side at any point therefore
// leaves one owner after restart: source recovery re-drives from the
// journaled phase, destination recovery runs committed imports and
// keeps uncommitted ones inert.
// ---------------------------------------------------------------------

/// FNV-1a over the checkpoint image — the transfer integrity witness.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    (0..text.len() / 2)
        .map(|i| u8::from_str_radix(text.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

/// Deterministic fault injection: exit hard (as if kill -9) at a named
/// protocol point. `requested` comes from the `migrate` request
/// (source side) or `--fault-halt` (destination side).
fn halt_if(requested: Option<&str>, point: &str) {
    if requested == Some(point) {
        eprintln!("eqpd: fault injection: halting at `{point}`");
        std::process::exit(86);
    }
}

/// One RPC to the peer daemon with a bounded read timeout.
fn peer_call(peer: &str, method: &str, params: Json) -> Result<Json, String> {
    let mut client = crate::load::Client::connect(peer).map_err(|e| e.to_string())?;
    let _ = client.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    match client.call(method, params) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("peer rejected {method}: {e}")),
        Err(e) => Err(format!("peer unreachable for {method}: {e}")),
    }
}

/// Retries a peer RPC across connection failures. The offer and commit
/// are idempotent by token, so a duplicate send after a lost ack is
/// safe. `attempts == 0` retries until the daemon stops.
fn peer_call_retry(
    sh: &Shared,
    peer: &str,
    method: &str,
    params: &Json,
    attempts: usize,
) -> Result<Json, String> {
    let mut tried = 0usize;
    loop {
        match peer_call(peer, method, params.clone()) {
            Ok(v) => return Ok(v),
            Err(why) => {
                tried += 1;
                if attempts != 0 && tried >= attempts {
                    return Err(why);
                }
                if sh.core.lock().expect("core lock").stopping {
                    return Err(format!("daemon stopping during {method} retry"));
                }
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
        }
    }
}

/// Aborts a not-yet-released migration: drop the journal record and hand
/// the session back to the worker pool. Safe because before `released`
/// the peer's copy (if any) is an uncommitted, inert import.
fn abort_migration(sh: &Shared, id: u64, why: &str) {
    eprintln!("eqpd: migration of s{id} aborted ({why}); resuming locally");
    let _ = sh.journal.clear_migration(id);
    let mut core = sh.core.lock().expect("core lock");
    if let Some(e) = core.sessions.get_mut(&id) {
        e.migrating = false;
        if e.done.is_none() {
            core.queue.push_back(id);
        }
    }
    sh.work.notify_all();
}

/// Drives a journaled migration from its current phase to `done`.
/// `halt_after` is the source-side fault-injection point. Returns the
/// destination session id.
fn drive_migration(
    sh: &Shared,
    id: u64,
    mut rec: crate::journal::MigrateRecord,
    halt_after: Option<&str>,
) -> Result<u64, String> {
    use crate::journal::MigratePhase;

    let (tenant, spec, ckpt) = {
        let core = sh.core.lock().expect("core lock");
        let e = core
            .sessions
            .get(&id)
            .ok_or_else(|| "session vanished".to_owned())?;
        let ckpt = match &e.run {
            Some(run) => run
                .checkpoint_bytes()
                .map_err(|e| format!("checkpoint encode failed: {e}"))?,
            None => sh.journal.load_checkpoint(id).unwrap_or(None),
        };
        (e.tenant.clone(), e.spec.clone(), ckpt)
    };

    if rec.phase == MigratePhase::Intent {
        let mut pairs = vec![
            ("token", s(rec.token.clone())),
            ("tenant", s(tenant.clone())),
            ("spec", spec.to_json()),
            ("src_session", Json::UInt(id)),
        ];
        if let Some(bytes) = &ckpt {
            pairs.push(("ckpt", s(hex_encode(bytes))));
            pairs.push(("checksum", Json::UInt(fnv64(bytes))));
        }
        let params = Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
        let resp = peer_call_retry(sh, &rec.peer, "migrate_offer", &params, 20)?;
        let dst = resp
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| "offer ack missing `session`".to_owned())?;
        rec.phase = MigratePhase::Released;
        rec.dst_session = Some(dst);
        sh.journal
            .record_migration(id, &rec)
            .map_err(|e| format!("journal write failed: {e}"))?;
        halt_if(halt_after, "released");
    }

    let dst = rec
        .dst_session
        .ok_or_else(|| "released migration has no destination session recorded".to_owned())?;
    // From `released` on the peer owns the bytes: retry the commit until
    // it lands (the peer may be restarting), never resume locally.
    let commit = obj([("token", s(rec.token.clone()))]);
    peer_call_retry(sh, &rec.peer, "migrate_commit", &commit, 0)?;
    rec.phase = MigratePhase::Done;
    sh.journal
        .record_migration(id, &rec)
        .map_err(|e| format!("journal write failed: {e}"))?;

    let mut core = sh.core.lock().expect("core lock");
    if let Some(e) = core.sessions.get_mut(&id) {
        e.run = None;
        e.has_image = false;
        e.migrated_to = Some((rec.peer.clone(), dst));
    }
    core.resident.retain(|&r| r != id);
    core.admission.release(&tenant);
    core.stats.migrated_out += 1;
    Ok(dst)
}

/// Recovery re-drive: a restarted source finishes (or safely abandons)
/// an interrupted handoff found in the journal.
fn redrive_migration(sh: &Arc<Shared>, id: u64, rec: crate::journal::MigrateRecord) {
    use crate::journal::MigratePhase;
    let phase = rec.phase;
    match drive_migration(sh, id, rec, None) {
        Ok(dst) => eprintln!("eqpd: re-drove migration of s{id} to peer session {dst}"),
        Err(why) => {
            if phase == MigratePhase::Intent {
                // The offer never durably landed: this daemon still owns
                // the session (an unacked import is inert), so run it.
                abort_migration(sh, id, &why);
            } else {
                eprintln!("eqpd: migration re-drive of s{id} failed: {why} (session frozen)");
            }
        }
    }
}

fn handle_migrate(sh: &Arc<Shared>, req: &Request) -> Json {
    let Some(id) = session_param(req) else {
        return proto::response_err(req.id, -32602, "missing `session` id", None);
    };
    let Some(peer) = req
        .params
        .get("peer")
        .and_then(Json::as_str)
        .map(str::to_owned)
    else {
        return proto::response_err(req.id, -32602, "missing `peer` address", None);
    };
    let halt_after = req
        .params
        .get("halt_after")
        .and_then(Json::as_str)
        .map(str::to_owned);

    // Freeze: mark migrating, pull it off the queue, wait out any
    // in-flight chunk. After this the session cannot step locally.
    {
        let mut core = sh.core.lock().expect("core lock");
        if core.draining || core.stopping {
            return proto::response_err(req.id, -32003, "daemon is shutting down", None);
        }
        match core.sessions.get_mut(&id) {
            None => return proto::response_err(req.id, -32002, "unknown session", None),
            Some(e) => {
                if e.done.is_some() {
                    return proto::response_err(req.id, -32007, "session already finished", None);
                }
                if e.migrating {
                    return proto::response_err(
                        req.id,
                        -32008,
                        "migration already in progress",
                        None,
                    );
                }
                e.migrating = true;
            }
        }
        core.queue.retain(|&q| q != id);
        while core.sessions.get(&id).is_some_and(|e| e.executing) {
            core = sh.work.wait(core).expect("core lock");
        }
        if core.sessions.get(&id).is_none_or(|e| e.done.is_some()) {
            // The in-flight chunk finished the session under us.
            if let Some(e) = core.sessions.get_mut(&id) {
                e.migrating = false;
            }
            return proto::response_err(req.id, -32007, "session already finished", None);
        }
    }

    let token = format!(
        "m{}-{}-{}",
        sh.port,
        id,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
    );
    let rec = crate::journal::MigrateRecord {
        token,
        peer,
        phase: crate::journal::MigratePhase::Intent,
        dst_session: None,
    };
    if let Err(e) = sh.journal.record_migration(id, &rec) {
        abort_migration(sh, id, &format!("journal write failed: {e}"));
        return proto::response_err(req.id, -32000, &format!("journal write failed: {e}"), None);
    }
    halt_if(halt_after.as_deref(), "intent");

    let intent_phase = rec.phase;
    match drive_migration(sh, id, rec, halt_after.as_deref()) {
        Ok(dst) => proto::response_ok(
            req.id,
            obj([
                ("migrated", Json::Bool(true)),
                ("peer_session", Json::UInt(dst)),
            ]),
        ),
        Err(why) => {
            // Only an unacked offer can be safely abandoned; a released
            // handoff stays frozen (the recovery path will re-drive it).
            if intent_phase == crate::journal::MigratePhase::Intent
                && sh
                    .journal
                    .load_migration(id)
                    .ok()
                    .flatten()
                    .is_none_or(|r| r.phase == crate::journal::MigratePhase::Intent)
            {
                abort_migration(sh, id, &why);
            }
            proto::response_err(req.id, -32009, &format!("migration failed: {why}"), None)
        }
    }
}

fn handle_migrate_offer(sh: &Arc<Shared>, req: &Request) -> Json {
    let Some(token) = req
        .params
        .get("token")
        .and_then(Json::as_str)
        .map(str::to_owned)
    else {
        return proto::response_err(req.id, -32602, "missing `token`", None);
    };
    {
        let core = sh.core.lock().expect("core lock");
        if core.draining || core.stopping {
            return proto::response_err(req.id, -32003, "daemon is shutting down", None);
        }
        // In-process idempotency (covers concurrent duplicate offers).
        if let Some(&existing) = core.imports.get(&token) {
            return proto::response_ok(req.id, obj([("session", Json::UInt(existing))]));
        }
    }
    // Cross-restart idempotency: the durable import marker.
    if let Ok(Some((existing, _))) = sh.journal.find_import(&token) {
        let mut core = sh.core.lock().expect("core lock");
        core.imports.insert(token, existing);
        return proto::response_ok(req.id, obj([("session", Json::UInt(existing))]));
    }

    let Some(spec_json) = req.params.get("spec") else {
        return proto::response_err(req.id, -32602, "missing `spec` object", None);
    };
    // The transfer crosses a trust boundary between daemons too: the
    // destination revalidates against *its own* limits.
    let spec = match SessionSpec::from_json_limited(spec_json, &sh.cfg.limits) {
        Ok(s) => s,
        Err(e) => return proto::response_err(req.id, -32602, &e.to_string(), None),
    };
    let tenant = req
        .params
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("anon")
        .to_owned();
    let ckpt = match req.params.get("ckpt").map(|v| v.as_str()) {
        None => None,
        Some(Some(hex)) => match hex_decode(hex) {
            Some(bytes) => {
                let want = req.params.get("checksum").and_then(Json::as_u64);
                if want != Some(fnv64(&bytes)) {
                    return proto::response_err(
                        req.id,
                        -32010,
                        "checkpoint checksum mismatch",
                        None,
                    );
                }
                Some(bytes)
            }
            None => return proto::response_err(req.id, -32602, "`ckpt` is not valid hex", None),
        },
        Some(None) => {
            return proto::response_err(req.id, -32602, "`ckpt` must be a hex string", None)
        }
    };

    halt_if(sh.cfg.fault_halt.as_deref(), "offer");

    // Reserve the id and the token under the lock; journal outside it.
    let id = {
        let mut core = sh.core.lock().expect("core lock");
        if let Some(&existing) = core.imports.get(&token) {
            return proto::response_ok(req.id, obj([("session", Json::UInt(existing))]));
        }
        let id = core.next_id;
        core.next_id += 1;
        core.imports.insert(token.clone(), id);
        id
    };
    // Durable before the ack, import marker last: only once everything
    // is on disk does the token become findable across restarts.
    let write = sh
        .journal
        .record_spec(id, &tenant, &spec)
        .and_then(|()| match &ckpt {
            Some(bytes) => sh.journal.record_checkpoint(id, bytes),
            None => Ok(()),
        })
        .and_then(|()| sh.journal.record_import(id, &token, false));
    if let Err(e) = write {
        sh.core.lock().expect("core lock").imports.remove(&token);
        return proto::response_err(req.id, -32000, &format!("journal write failed: {e}"), None);
    }
    proto::response_ok(req.id, obj([("session", Json::UInt(id))]))
}

fn handle_migrate_commit(sh: &Arc<Shared>, req: &Request) -> Json {
    let Some(token) = req.params.get("token").and_then(Json::as_str) else {
        return proto::response_err(req.id, -32602, "missing `token`", None);
    };
    let found = {
        let core = sh.core.lock().expect("core lock");
        core.imports.get(token).copied()
    };
    let (id, committed) = match found {
        Some(id) => (
            id,
            sh.journal
                .load_import(id)
                .ok()
                .flatten()
                .is_some_and(|(_, c)| c),
        ),
        None => match sh.journal.find_import(token) {
            Ok(Some(pair)) => pair,
            _ => return proto::response_err(req.id, -32002, "unknown transfer token", None),
        },
    };
    if committed {
        // Duplicate commit after a lost ack: already owned here.
        return proto::response_ok(
            req.id,
            obj([("committed", Json::Bool(true)), ("session", Json::UInt(id))]),
        );
    }

    halt_if(sh.cfg.fault_halt.as_deref(), "commit");

    let Some((tenant, spec)) = sh.journal.load_spec(id, &sh.cfg.limits).ok().flatten() else {
        return proto::response_err(req.id, -32000, "imported spec unreadable", None);
    };
    // Durable commit before the ack: once the source hears `committed`,
    // it may forget the session forever.
    if let Err(e) = sh.journal.record_import(id, token, true) {
        return proto::response_err(req.id, -32000, &format!("journal write failed: {e}"), None);
    }
    {
        let mut core = sh.core.lock().expect("core lock");
        core.imports.insert(token.to_owned(), id);
        if !core.sessions.contains_key(&id) {
            // Accepted work transfers with its admission: forced admit,
            // like crash recovery — quota must not drop acked sessions.
            let _ = core.admission.admit(&tenant);
            let has_image = sh.journal.load_checkpoint(id).is_ok_and(|c| c.is_some());
            let mut entry = Entry::new(tenant, spec, None);
            entry.has_image = has_image;
            core.sessions.insert(id, entry);
            core.queue.push_back(id);
            core.stats.admitted += 1;
            core.stats.migrated_in += 1;
        }
        sh.work.notify_all();
    }
    proto::response_ok(
        req.id,
        obj([("committed", Json::Bool(true)), ("session", Json::UInt(id))]),
    )
}

fn handle_status(sh: &Arc<Shared>, req: &Request) -> Json {
    let Some(id) = session_param(req) else {
        return proto::response_err(req.id, -32602, "missing `session` id", None);
    };
    let core = sh.core.lock().expect("core lock");
    match core.sessions.get(&id) {
        None => proto::response_err(req.id, -32002, "unknown session", None),
        Some(e) => {
            if let Some((peer, dst)) = &e.migrated_to {
                return proto::response_ok(
                    req.id,
                    obj([
                        ("phase", s("migrated")),
                        ("peer", s(peer.clone())),
                        ("peer_session", Json::UInt(*dst)),
                        ("workload", s(e.spec.workload_name().to_owned())),
                    ]),
                );
            }
            let phase = if e.done.is_some() {
                "done"
            } else if e.migrating {
                "migrating"
            } else if e.run.is_some() {
                "parked"
            } else if e.has_image {
                "evicted"
            } else {
                "queued"
            };
            let steps = e.run.as_ref().map_or(0, SessionRun::steps_done);
            proto::response_ok(
                req.id,
                obj([
                    ("phase", s(phase)),
                    ("steps_done", Json::UInt(steps)),
                    ("workload", s(e.spec.workload_name().to_owned())),
                ]),
            )
        }
    }
}

fn handle_poll(sh: &Arc<Shared>, req: &Request) -> Json {
    let Some(id) = session_param(req) else {
        return proto::response_err(req.id, -32602, "missing `session` id", None);
    };
    let done = {
        let core = sh.core.lock().expect("core lock");
        match core.sessions.get(&id) {
            Some(e) => e.done.clone(),
            // Not in memory: a finished session from a previous
            // incarnation may still be answerable from the journal.
            None => sh.journal.load_result(id).unwrap_or_default(),
        }
    };
    match done {
        Some(r) => proto::response_ok(
            req.id,
            obj([("done", Json::Bool(true)), ("result", r.to_json())]),
        ),
        None => proto::response_ok(req.id, obj([("done", Json::Bool(false))])),
    }
}

fn handle_check(sh: &Arc<Shared>, req: &Request) -> Json {
    let trace = match TraceSpec::from_json_limited(&req.params, &sh.cfg.limits) {
        Ok(t) => t,
        Err(e) => return proto::response_err(req.id, -32602, &e.to_string(), None),
    };
    let desc = zoo_entry(&trace.workload)
        .expect("validated at parse")
        .cached_description();
    let conf = conformance::check_trace(
        desc,
        &Trace::finite(trace.events),
        trace.quiescent,
        &ConformanceOptions::default(),
    );
    proto::response_ok(
        req.id,
        obj([
            ("verdict", s(crate::session::verdict_name(&conf.verdict))),
            ("conformant", Json::Bool(conf.is_conformant())),
        ]),
    )
}

fn handle_workloads(req: &Request) -> Json {
    let list = zoo()
        .iter()
        .map(|e| {
            obj([
                ("name", s(e.name)),
                ("quiesces", Json::Bool(e.quiesces)),
                ("deterministic", Json::Bool(e.deterministic)),
                ("max_steps", Json::UInt(e.max_steps as u64)),
            ])
        })
        .collect();
    proto::response_ok(req.id, obj([("workloads", Json::Arr(list))]))
}

fn handle_stats(sh: &Arc<Shared>, req: &Request) -> Json {
    let core = sh.core.lock().expect("core lock");
    let st = &core.stats;
    proto::response_ok(
        req.id,
        obj([
            ("admitted", Json::UInt(st.admitted)),
            ("rejected_quota", Json::UInt(st.rejected_quota)),
            (
                "rejected_backpressure",
                Json::UInt(st.rejected_backpressure),
            ),
            ("completed", Json::UInt(st.completed)),
            ("aborted", Json::UInt(st.aborted)),
            ("evicted", Json::UInt(st.evicted)),
            ("resumed", Json::UInt(st.resumed)),
            ("recovered", Json::UInt(st.recovered)),
            ("recovery_partial", Json::UInt(st.recovery_partial)),
            ("recovery_skipped", Json::UInt(st.recovery_skipped)),
            ("migrated_out", Json::UInt(st.migrated_out)),
            ("migrated_in", Json::UInt(st.migrated_in)),
            ("drained", Json::UInt(st.drained)),
            ("verdict_write_failed", Json::UInt(st.verdict_write_failed)),
            ("in_flight", Json::UInt(core.admission.in_flight() as u64)),
            ("queued", Json::UInt(core.queue.len() as u64)),
            ("resident", Json::UInt(core.resident.len() as u64)),
        ]),
    )
}

/// `fleet_report`: the durable sketch summaries of every finished
/// session, rolled up into one fleet-level telemetry block. Answered
/// from the live [`Fleet`] rollup, never from the journal. The response
/// carries the rolled-up image itself (hex), so rollups compose *across*
/// daemons the same way they compose across sessions.
fn handle_fleet_report(sh: &Arc<Shared>, req: &Request) -> Json {
    let Fleet {
        sessions,
        with_sketches,
        sketches: mut merged,
    } = sh.fleet.lock().expect("fleet lock").clone();
    merged.shrink();
    let st = merged.stats();
    let top = Json::Arr(
        st.top_channels
            .iter()
            .map(|(c, n)| Json::Arr(vec![Json::UInt(*c), Json::UInt(*n)]))
            .collect(),
    );
    proto::response_ok(
        req.id,
        obj([
            ("sessions", Json::UInt(sessions)),
            ("with_sketches", Json::UInt(with_sketches)),
            ("events", Json::UInt(st.events)),
            ("depth_p50", Json::UInt(st.depth_p50)),
            ("depth_p99", Json::UInt(st.depth_p99)),
            ("latency_p50", Json::UInt(st.latency_p50)),
            ("latency_p99", Json::UInt(st.latency_p99)),
            ("distinct_values", Json::UInt(st.distinct_values)),
            ("top_channels", top),
            ("sketches", s(crate::session::to_hex(&merged.to_bytes()))),
        ]),
    )
}

fn handle_pause(sh: &Arc<Shared>, req: &Request) -> Json {
    let Some(paused) = req.params.get("paused").and_then(Json::as_bool) else {
        return proto::response_err(req.id, -32602, "missing boolean `paused`", None);
    };
    let mut core = sh.core.lock().expect("core lock");
    core.paused = paused;
    sh.work.notify_all();
    proto::response_ok(req.id, obj([("paused", Json::Bool(paused))]))
}

fn handle_shutdown(sh: &Arc<Shared>, req: &Request) -> Json {
    let drain = match req.params.get("mode").map(|m| m.as_str()) {
        None | Some(Some("drain")) => true,
        Some(Some("abort")) => false,
        Some(_) => {
            return proto::response_err(req.id, -32602, "`mode` must be `drain` or `abort`", None)
        }
    };
    {
        let mut core = sh.core.lock().expect("core lock");
        if drain {
            core.draining = true;
            core.paused = false;
        } else {
            core.stopping = true;
        }
        sh.work.notify_all();
    }
    if !drain {
        let _ = TcpStream::connect(("127.0.0.1", sh.port));
    }
    proto::response_ok(
        req.id,
        obj([("stopping", Json::Bool(true)), ("drain", Json::Bool(drain))]),
    )
}
