//! Client library: line-protocol RPC plus the load/soak driver.
//!
//! [`Client`] is the blocking connection used by `eqpd-load`, the
//! integration tests, and the service benchmark: it multiplexes
//! request/response pairs and streamed lifecycle events over one
//! socket. [`run_load`] drives the conformance zoo through a daemon —
//! submit a fleet of sessions, collect every verdict event, and report
//! admission/verdict latency percentiles plus the daemon's
//! eviction/resume counters.

use crate::json::{obj, s, Json};
use crate::proto::{self, Frame};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A typed RPC-level error response.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcError {
    /// Stable numeric code.
    pub code: i64,
    /// Human-readable message.
    pub message: String,
    /// Backpressure hint, when the daemon shed the request.
    pub retry_after_ms: Option<u64>,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rpc error {}: {}", self.code, self.message)
    }
}

impl std::error::Error for RpcError {}

/// A blocking daemon connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Events read while waiting for a response, in arrival order.
    pending_events: VecDeque<Json>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4100`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 1,
            pending_events: VecDeque::new(),
        })
    }

    /// Bounds every blocking read; a quiet daemon then yields a timeout
    /// error instead of wedging the caller (used by test harnesses).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(dur)
    }

    fn read_doc(&mut self) -> io::Result<Json> {
        loop {
            match proto::read_frame(&mut self.reader)? {
                Frame::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Frame::Oversized { .. } => continue,
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match Json::parse(&line) {
                        Ok(doc) => return Ok(doc),
                        Err(_) => continue,
                    }
                }
            }
        }
    }

    /// Sends `method` and blocks until its response arrives; events that
    /// arrive in between are buffered for [`next_event`](Client::next_event).
    pub fn call(&mut self, method: &str, params: Json) -> io::Result<Result<Json, RpcError>> {
        let id = self.next_id;
        self.next_id += 1;
        let req = obj([
            ("id", Json::UInt(id)),
            ("method", s(method)),
            ("params", params),
        ]);
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        loop {
            let doc = self.read_doc()?;
            if doc.get("event").is_some() {
                self.pending_events.push_back(doc);
                continue;
            }
            if doc.get("id").and_then(Json::as_u64) != Some(id) {
                continue;
            }
            if let Some(err) = doc.get("error") {
                return Ok(Err(RpcError {
                    code: err.get("code").and_then(Json::as_i64).unwrap_or(0),
                    message: err
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    retry_after_ms: err.get("retry_after_ms").and_then(Json::as_u64),
                }));
            }
            return Ok(Ok(doc.get("result").cloned().unwrap_or(Json::Null)));
        }
    }

    /// Blocks until the next streamed event (buffered or fresh).
    pub fn next_event(&mut self) -> io::Result<Json> {
        if let Some(ev) = self.pending_events.pop_front() {
            return Ok(ev);
        }
        loop {
            let doc = self.read_doc()?;
            if doc.get("event").is_some() {
                return Ok(doc);
            }
        }
    }

    /// Convenience: submits a session spec for `tenant`.
    pub fn submit(&mut self, tenant: &str, spec: Json) -> io::Result<Result<u64, RpcError>> {
        Ok(self
            .call("submit", obj([("tenant", s(tenant)), ("spec", spec)]))?
            .map(|r| r.get("session").and_then(Json::as_u64).unwrap_or(0)))
    }

    /// Convenience: fetches the daemon's merged fleet telemetry rollup
    /// (the `fleet_report` RPC). The result carries headline percentiles
    /// plus the rolled-up sketch image (hex in `sketches`) — absorb that
    /// image and other daemons' and shrink once to roll a whole fleet up
    /// client-side.
    pub fn fleet_report(&mut self) -> io::Result<Result<FleetReport, RpcError>> {
        Ok(self.call("fleet_report", obj([]))?.map(|r| FleetReport {
            sessions: r.get("sessions").and_then(Json::as_u64).unwrap_or(0),
            with_sketches: r.get("with_sketches").and_then(Json::as_u64).unwrap_or(0),
            events: r.get("events").and_then(Json::as_u64).unwrap_or(0),
            depth_p50: r.get("depth_p50").and_then(Json::as_u64).unwrap_or(0),
            depth_p99: r.get("depth_p99").and_then(Json::as_u64).unwrap_or(0),
            latency_p50: r.get("latency_p50").and_then(Json::as_u64).unwrap_or(0),
            latency_p99: r.get("latency_p99").and_then(Json::as_u64).unwrap_or(0),
            distinct_values: r.get("distinct_values").and_then(Json::as_u64).unwrap_or(0),
            sketches: r
                .get("sketches")
                .and_then(Json::as_str)
                .and_then(crate::session::from_hex)
                .and_then(|b| eqp_kahn::TelemetrySketches::from_bytes(&b).ok()),
        }))
    }
}

/// A decoded `fleet_report` response.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Finished sessions with a durable verdict in the journal.
    pub sessions: u64,
    /// How many of them contributed a sketch block.
    pub with_sketches: u64,
    /// Total send observations across the fleet.
    pub events: u64,
    /// Fleet-wide median queue depth after a send.
    pub depth_p50: u64,
    /// Fleet-wide 99th-percentile queue depth after a send.
    pub depth_p99: u64,
    /// Fleet-wide median message wait, in scheduler rounds.
    pub latency_p50: u64,
    /// Fleet-wide 99th-percentile message wait, in scheduler rounds.
    pub latency_p99: u64,
    /// Estimated distinct message values across the fleet.
    pub distinct_values: u64,
    /// The rolled-up sketch block itself — absorb other daemons'
    /// responses into it and shrink once for a cross-fleet rollup.
    pub sketches: Option<eqp_kahn::TelemetrySketches>,
}

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Total sessions to submit.
    pub sessions: usize,
    /// Distinct tenant names to spread them over.
    pub tenants: usize,
    /// Submissions share one connection per tenant.
    pub seed: u64,
    /// Submit generated tenant netlang programs instead of named zoo
    /// workloads, driving the full untrusted-source admission path.
    pub netlang: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            sessions: 100,
            tenants: 4,
            seed: 1,
            netlang: false,
        }
    }
}

/// The measured outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Sessions submitted and admitted.
    pub admitted: usize,
    /// Sessions shed by admission control (retried elsewhere or dropped).
    pub shed: usize,
    /// Verdicts received, by rendered verdict name.
    pub verdicts: HashMap<String, usize>,
    /// Submit→ack latencies, microseconds.
    pub admission_us: Vec<u64>,
    /// Submit→verdict latencies, microseconds.
    pub verdict_us: Vec<u64>,
}

/// `p`-th percentile (0–100) of an unsorted sample, microseconds.
pub fn percentile_us(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64) as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Drives `opts.sessions` zoo certifications through the daemon at
/// `addr`, round-robining workloads and tenants, and collects every
/// verdict. Backpressured submissions are retried after the hinted
/// delay (up to a few attempts), then counted as shed.
pub fn run_load(addr: &str, opts: &LoadOptions) -> io::Result<LoadReport> {
    // One connection per tenant: verdicts stream back to the submitting
    // connection, so each tenant's client owns its sessions' events.
    let workloads = ["sec23-merge", "fair-merge", "ticks", "random-bit", "bag"];
    let tenants = opts.tenants.max(1);
    let mut clients: Vec<Client> = (0..tenants)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<_>>()?;
    let mut report = LoadReport::default();
    // session id → (submit instant, owning client index)
    let mut inflight: HashMap<u64, (Instant, usize)> = HashMap::new();

    for i in 0..opts.sessions {
        let t = i % tenants;
        let source = if opts.netlang {
            // Each tenant ships its own generated program: the daemon
            // must parse, budget-check, and lower every one of them.
            (
                "netlang",
                s(eqp_netlang::random_program(opts.seed + i as u64)),
            )
        } else {
            ("workload", s(workloads[i % workloads.len()]))
        };
        let spec = obj([
            source,
            ("seed", Json::UInt(opts.seed + i as u64)),
            (
                "sched",
                obj([
                    ("kind", s("random")),
                    ("seed", Json::UInt(opts.seed + i as u64)),
                ]),
            ),
        ]);
        let tenant = format!("tenant-{t}");
        let submitted = Instant::now();
        let mut attempt = 0;
        loop {
            match clients[t].submit(&tenant, spec.clone())? {
                Ok(id) => {
                    report
                        .admission_us
                        .push(submitted.elapsed().as_micros() as u64);
                    report.admitted += 1;
                    inflight.insert(id, (submitted, t));
                    break;
                }
                Err(e) if e.retry_after_ms.is_some() && attempt < 3 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(
                        e.retry_after_ms.unwrap_or(50).min(250),
                    ));
                }
                Err(_) => {
                    report.shed += 1;
                    break;
                }
            }
        }
    }

    // Collect every verdict event from each tenant connection.
    while !inflight.is_empty() {
        let waiting_on: Vec<usize> = inflight.values().map(|&(_, t)| t).collect();
        let t = waiting_on[0];
        let ev = clients[t].next_event()?;
        if ev.get("event").and_then(Json::as_str) != Some("verdict") {
            continue;
        }
        let Some(id) = ev.get("session").and_then(Json::as_u64) else {
            continue;
        };
        if let Some((submitted, _)) = inflight.remove(&id) {
            report
                .verdict_us
                .push(submitted.elapsed().as_micros() as u64);
            let name = ev
                .get("verdict")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned();
            *report.verdicts.entry(name).or_insert(0) += 1;
        }
    }
    Ok(report)
}

/// The measured outcome of a migration storm.
#[derive(Debug, Clone, Default)]
pub struct StormReport {
    /// Sessions submitted to the source daemon.
    pub submitted: usize,
    /// Sessions handed off to the peer.
    pub migrated: usize,
    /// Sessions that certified locally before the handoff could freeze
    /// them (a race the storm tolerates by design).
    pub completed_locally: usize,
    /// Migrations that failed outright.
    pub failed: usize,
    /// Freeze→handoff-complete latencies, microseconds.
    pub migrate_us: Vec<u64>,
    /// Verdicts of the migrated sessions, certified on the peer.
    pub dst_verdicts: HashMap<String, usize>,
}

/// Drives a live-migration storm: pauses the source daemon's workers,
/// builds a fleet of `opts.sessions` in-flight tenant netlang sessions,
/// hands every one of them off to `peer` back-to-back, then releases
/// the source and waits for the peer to certify each migrated session.
/// Pausing makes the storm deterministic — every admitted session is
/// still live when its handoff arrives, so `migrated == submitted`
/// measures the handoff path, not a race against cheap certifications.
/// The source is unpaused on exit (including on error where possible);
/// point the storm at a dedicated daemon, not one serving live traffic.
pub fn run_migration_storm(addr: &str, peer: &str, opts: &LoadOptions) -> io::Result<StormReport> {
    let mut src = Client::connect(addr)?;
    let mut dst = Client::connect(peer)?;
    let mut report = StormReport::default();

    let pause = |src: &mut Client, on: bool| -> io::Result<()> {
        src.call("pause", obj([("paused", Json::Bool(on))]))?
            .map_err(|e| io::Error::other(format!("pause: {e}")))?;
        Ok(())
    };
    pause(&mut src, true)?;

    // Zero-equation programs: the peer certifies each one in
    // microseconds per step, and a parked-at-admission checkpoint is a
    // few hundred bytes — far under any frame cap.
    let mut ids = Vec::with_capacity(opts.sessions);
    for i in 0..opts.sessions {
        let n = i as u64;
        let program = format!(
            "net storm-{i}\nsteps 20000\nchan b = {}\nproc t = lasso b [] [T]\n",
            i % 64
        );
        let spec = obj([
            ("netlang", s(program)),
            ("seed", Json::UInt(opts.seed + n)),
            (
                "sched",
                obj([("kind", s("random")), ("seed", Json::UInt(opts.seed + n))]),
            ),
        ]);
        let tenant = format!("tenant-{}", i % opts.tenants.max(1));
        match src.submit(&tenant, spec)? {
            Ok(id) => {
                ids.push(id);
                report.submitted += 1;
            }
            Err(_) => report.failed += 1,
        }
    }

    // Hand the whole fleet off while it is in flight.
    let mut moved: Vec<u64> = Vec::new();
    for id in ids {
        let t0 = Instant::now();
        match src.call(
            "migrate",
            obj([("session", Json::UInt(id)), ("peer", s(peer.to_owned()))]),
        )? {
            Ok(r) => {
                report.migrate_us.push(t0.elapsed().as_micros() as u64);
                report.migrated += 1;
                if let Some(d) = r.get("peer_session").and_then(Json::as_u64) {
                    moved.push(d);
                }
            }
            // -32007: certified before the freeze won the race (only
            // possible when the operator races an unpause).
            Err(e) if e.code == -32007 => report.completed_locally += 1,
            Err(_) => report.failed += 1,
        }
    }
    pause(&mut src, false)?;

    // Every handed-off session must certify on the peer.
    for d in moved {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let r = dst
                .call("poll", obj([("session", Json::UInt(d))]))?
                .map_err(|e| io::Error::other(format!("peer poll {d}: {e}")))?;
            if r.get("done").and_then(Json::as_bool) == Some(true) {
                let v = r
                    .get("result")
                    .and_then(|res| res.get("verdict"))
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned();
                *report.dst_verdicts.entry(v).or_insert(0) += 1;
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "peer session {d} never certified"
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_sane() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&xs, 50.0), 50);
        assert_eq!(percentile_us(&xs, 99.0), 99);
        assert_eq!(percentile_us(&xs, 100.0), 100);
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[7], 99.0), 7);
    }
}
