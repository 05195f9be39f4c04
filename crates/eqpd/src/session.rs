//! Chunked session execution: run a spec for a bounded slice of steps,
//! park the [`Checkpoint`], resume later — possibly after the checkpoint
//! round-tripped through the durable journal, possibly in a different
//! daemon incarnation.
//!
//! The kahn engine guarantees a resumed run is byte-identical to an
//! uninterrupted one (pinned by `crates/kahn/src/wire.rs` tests); this
//! module builds the daemon's unit of work on top of that: one
//! [`SessionRun::advance`] call executes one chunk inside a
//! `catch_unwind` backstop, so a poisoned session becomes a typed
//! [`SessionError`] and an `Aborted` verdict instead of taking a worker
//! thread — and the daemon — down.

use crate::json::{obj, s, Json};
use crate::spec::SessionSpec;
use eqp_kahn::conformance::Verdict;
use eqp_kahn::snapshot::Checkpoint;
use eqp_kahn::{RunOutcome, RunReport, RunStatus, RunWith, Scheduler};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Why a chunk failed. Every variant is a *session* failure — the
/// daemon records an aborted result and moves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The engine panicked mid-chunk (caught by the backstop).
    Panicked(String),
    /// Checkpoint restore was rejected (corrupt or mismatched state).
    Restore(String),
    /// The durable checkpoint image failed to decode or encode.
    Wire(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Panicked(m) => write!(f, "engine panicked: {m}"),
            SessionError::Restore(m) => write!(f, "checkpoint restore rejected: {m}"),
            SessionError::Wire(m) => write!(f, "checkpoint image invalid: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The certified outcome of a finished session — what the journal
/// persists as `verdict.json` and the client receives in the `verdict`
/// event. `trace_hash` lets the crash-recovery suite prove a recovered
/// session produced the *identical* history, not merely the same label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionResult {
    /// Rendered conformance verdict (`SmoothSolution`, `SmoothPrefix`,
    /// `Degraded(link)`, … or `Aborted` for backstopped failures).
    pub verdict: String,
    /// True iff the run certified (solution or prefix).
    pub conformant: bool,
    /// Rendered engine [`RunStatus`] (or the abort reason).
    pub status: String,
    /// Progress-making steps performed, whole run.
    pub steps: u64,
    /// Scheduler rounds completed, whole run.
    pub rounds: u64,
    /// Communication events in the whole-run trace.
    pub trace_len: u64,
    /// Fault events in the run's fault log (drops, duplicates, reorders,
    /// retry exhaustion).
    pub faults: u64,
    /// FNV-1a hash over the rendered trace — the byte-identity witness.
    pub trace_hash: u64,
    /// True iff the daemon cut the session on its wall-clock deadline.
    pub wall_deadline_expired: bool,
    /// Hex-encoded [`eqp_kahn::TelemetrySketches`] byte image of the
    /// run's sketch telemetry, if the run captured any. Mergeable: the
    /// `fleet_report` RPC folds these across every finished session.
    /// Absent for sketch-disabled runs, aborted sessions, and verdicts
    /// journaled by older daemons (`from_json` tolerates the missing
    /// field).
    pub sketches: Option<String>,
}

impl SessionResult {
    /// The result recorded for a session the backstop had to kill.
    pub fn aborted(err: &SessionError) -> SessionResult {
        SessionResult {
            verdict: "Aborted".to_owned(),
            conformant: false,
            status: err.to_string(),
            steps: 0,
            rounds: 0,
            trace_len: 0,
            faults: 0,
            trace_hash: 0,
            wall_deadline_expired: false,
            sketches: None,
        }
    }

    /// Journal/wire form.
    pub fn to_json(&self) -> Json {
        let mut doc = obj([
            ("verdict", s(self.verdict.clone())),
            ("conformant", Json::Bool(self.conformant)),
            ("status", s(self.status.clone())),
            ("steps", Json::UInt(self.steps)),
            ("rounds", Json::UInt(self.rounds)),
            ("trace_len", Json::UInt(self.trace_len)),
            ("faults", Json::UInt(self.faults)),
            ("trace_hash", Json::UInt(self.trace_hash)),
            (
                "wall_deadline_expired",
                Json::Bool(self.wall_deadline_expired),
            ),
        ]);
        if let (Json::Obj(pairs), Some(hex)) = (&mut doc, &self.sketches) {
            pairs.insert("sketches".to_owned(), s(hex.clone()));
        }
        doc
    }

    /// Parses the journal form back. Total.
    pub fn from_json(j: &Json) -> Option<SessionResult> {
        Some(SessionResult {
            verdict: j.get("verdict")?.as_str()?.to_owned(),
            conformant: j.get("conformant")?.as_bool()?,
            status: j.get("status")?.as_str()?.to_owned(),
            steps: j.get("steps")?.as_u64()?,
            rounds: j.get("rounds")?.as_u64()?,
            trace_len: j.get("trace_len")?.as_u64()?,
            faults: j.get("faults")?.as_u64()?,
            trace_hash: j.get("trace_hash")?.as_u64()?,
            wall_deadline_expired: j.get("wall_deadline_expired")?.as_bool()?,
            sketches: j.get("sketches").and_then(Json::as_str).map(str::to_owned),
        })
    }

    /// Decodes the hex sketch field back into mergeable sketches.
    /// `None` when absent or malformed — a fleet rollup skips such
    /// sessions rather than failing.
    pub fn decode_sketches(&self) -> Option<eqp_kahn::TelemetrySketches> {
        let bytes = from_hex(self.sketches.as_deref()?)?;
        eqp_kahn::TelemetrySketches::from_bytes(&bytes).ok()
    }
}

/// Lowercase hex encoding — the journal-safe form of a sketch image.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
    }
    out
}

/// Inverse of [`to_hex`]. Total: odd length or a non-hex digit is `None`.
pub fn from_hex(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let digits: Vec<u8> = text
        .bytes()
        .map(|c| match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some(digits.chunks(2).map(|p| (p[0] << 4) | p[1]).collect())
}

/// Renders a [`Verdict`] into its stable wire name.
pub fn verdict_name(v: &Verdict) -> String {
    match v {
        Verdict::SmoothSolution => "SmoothSolution".to_owned(),
        Verdict::SmoothPrefix => "SmoothPrefix".to_owned(),
        Verdict::SmoothnessViolation { component } => {
            format!("SmoothnessViolation(component {component})")
        }
        Verdict::LimitViolation { components } => {
            format!("LimitViolation(components {components:?})")
        }
        Verdict::Degraded { link } => format!("Degraded({link})"),
    }
}

/// FNV-1a over the rendered trace: stable, dependency-free identity
/// witness for crash-recovery equivalence checks.
fn trace_hash(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    if let Some(events) = report.trace.events() {
        for ev in events {
            eat(ev.to_string().as_bytes());
            eat(b";");
        }
    }
    h
}

/// Where a live session's progress lives between chunks.
enum Progress {
    /// Never stepped.
    Fresh,
    /// Parked mid-run: the in-memory checkpoint to resume from.
    Parked(Box<Checkpoint>),
}

/// The outcome of one [`SessionRun::advance`] chunk.
pub enum ChunkOutcome {
    /// The run ended (quiesced, exhausted its full budget, hit its round
    /// deadline, escalated, …) and was certified.
    Finished(Box<SessionResult>),
    /// The chunk bound cut the run; the checkpoint is parked inside the
    /// [`SessionRun`]. The chunk's whole-run-so-far report rides along so
    /// the daemon can finalize without re-running if the wall-clock
    /// deadline has expired.
    Parked(Box<RunReport>),
}

/// One admitted session's execution state: spec + parked progress +
/// accounting. Cheap to drop and rebuild from journal bytes — that *is*
/// the evict/resume path.
pub struct SessionRun {
    spec: SessionSpec,
    progress: Progress,
    /// Wall-clock spent executing chunks (survives eviction in-process;
    /// resets on crash recovery — recovered sessions get a fresh clock).
    pub elapsed: Duration,
    /// Times this session resumed from an evicted (byte-image) state.
    pub resumes: u64,
}

impl SessionRun {
    /// A fresh, never-stepped session.
    pub fn new(spec: SessionSpec) -> SessionRun {
        SessionRun {
            spec,
            progress: Progress::Fresh,
            elapsed: Duration::ZERO,
            resumes: 0,
        }
    }

    /// Rebuilds a session from a durable checkpoint image (journal
    /// `ckpt.bin`) — the resume half of evict/resume and the recovery
    /// path after a crash.
    pub fn from_checkpoint_bytes(
        spec: SessionSpec,
        bytes: &[u8],
    ) -> Result<SessionRun, SessionError> {
        let ckpt =
            eqp_kahn::decode_checkpoint(bytes).map_err(|e| SessionError::Wire(format!("{e:?}")))?;
        Ok(SessionRun {
            spec,
            progress: Progress::Parked(Box::new(ckpt)),
            elapsed: Duration::ZERO,
            resumes: 1,
        })
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Steps completed so far (0 while fresh; exact while parked).
    pub fn steps_done(&self) -> u64 {
        match &self.progress {
            Progress::Fresh => 0,
            Progress::Parked(c) => c.steps() as u64,
        }
    }

    /// Encodes the parked checkpoint into its durable byte image —
    /// the evict half of evict/resume. `None` while fresh (nothing to
    /// persist; a fresh session restarts from its spec).
    pub fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, SessionError> {
        match &self.progress {
            Progress::Fresh => Ok(None),
            Progress::Parked(c) => eqp_kahn::encode_checkpoint(c)
                .map(Some)
                .map_err(|e| SessionError::Wire(format!("{e:?}"))),
        }
    }

    /// True iff the session's wall-clock deadline (if any) has expired.
    pub fn wall_deadline_expired(&self) -> bool {
        match self.spec.deadline_ms {
            Some(ms) => self.elapsed >= Duration::from_millis(ms),
            None => false,
        }
    }

    /// Executes one chunk of at most `chunk` steps inside the panic
    /// backstop. The parked checkpoint is moved into the resumed engine;
    /// on [`ChunkOutcome::Parked`] the fresh checkpoint takes its place.
    /// On error the session is dead (record [`SessionResult::aborted`]).
    pub fn advance(&mut self, chunk: usize) -> Result<ChunkOutcome, SessionError> {
        let done = self.steps_done() as usize;
        let bound = (done + chunk.max(1)).min(self.spec.max_steps).max(done + 1);
        let opts = self.spec.run_options(bound);
        let seed = self.spec.seed;
        let sched_spec = self.spec.sched;
        let progress = std::mem::replace(&mut self.progress, Progress::Fresh);
        let started = std::time::Instant::now();

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut net = self.spec.build_network(seed);
            let mut sched: Box<dyn Scheduler> = sched_spec.build();
            match progress {
                Progress::Fresh => {
                    let with = RunWith {
                        checkpoint_at: Some(bound),
                        ..RunWith::default()
                    };
                    Ok(net.run_with(&mut &mut *sched, opts, with))
                }
                Progress::Parked(ckpt) => net
                    .resume(*ckpt, &mut &mut *sched, opts, Some(bound))
                    .map_err(|e| SessionError::Restore(format!("{e:?}"))),
            }
        }));
        self.elapsed += started.elapsed();

        let RunOutcome {
            report,
            checkpoint: captured,
            ..
        } = match outcome {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => return Err(e),
            Err(payload) => return Err(SessionError::Panicked(panic_message(&payload))),
        };

        // Parked iff the *chunk* bound (not the session budget) cut the
        // run and the engine captured a resumable checkpoint there.
        if report.status == RunStatus::BudgetExhausted && report.steps < self.spec.max_steps {
            if let Some(ckpt) = captured {
                self.progress = Progress::Parked(Box::new(ckpt));
                return Ok(ChunkOutcome::Parked(Box::new(report)));
            }
        }
        Ok(ChunkOutcome::Finished(Box::new(
            self.certify(&report, false),
        )))
    }

    /// Certifies a (possibly partial) report into a [`SessionResult`].
    /// Used by [`advance`](SessionRun::advance) for natural endings and by
    /// the daemon to finalize a parked session whose wall-clock deadline
    /// expired (`expired = true`).
    pub fn certify(&self, report: &RunReport, expired: bool) -> SessionResult {
        let conf = self.spec.check(report);
        SessionResult {
            verdict: verdict_name(&conf.verdict),
            conformant: conf.is_conformant(),
            status: if expired {
                format!("wall-clock deadline expired after {} steps", report.steps)
            } else {
                report.status.to_string()
            },
            steps: report.steps as u64,
            rounds: report.rounds as u64,
            trace_len: report.trace.events().map_or(0, |e| e.len()) as u64,
            faults: report.fault_log().len() as u64,
            trace_hash: trace_hash(report),
            wall_deadline_expired: expired,
            sketches: report
                .sketches
                .as_ref()
                .filter(|s| !s.is_empty())
                .map(|s| to_hex(&s.to_bytes())),
        }
    }
}

/// Best-effort rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchedSpec;

    fn spec(workload: &str, max_steps: usize) -> SessionSpec {
        SessionSpec {
            workload: crate::spec::Workload::Zoo(workload.to_owned()),
            seed: 11,
            sched: SchedSpec::Random(5),
            max_steps,
            capacity: None,
            overflow: eqp_kahn::OverflowPolicy::Block,
            deadline_rounds: None,
            deadline_ms: None,
        }
    }

    fn run_to_end(mut run: SessionRun, chunk: usize) -> (SessionResult, u64) {
        let mut parked = 0;
        loop {
            match run.advance(chunk).expect("chunks never error here") {
                ChunkOutcome::Finished(r) => return (*r, parked),
                ChunkOutcome::Parked(_) => parked += 1,
            }
        }
    }

    #[test]
    fn chunked_run_matches_uninterrupted_run() {
        let (whole, parked0) = run_to_end(SessionRun::new(spec("fair-merge", 10_000)), 10_000);
        assert_eq!(parked0, 0, "one big chunk never parks");
        assert_eq!(whole.verdict, "SmoothSolution");
        let (chunked, parked) = run_to_end(SessionRun::new(spec("fair-merge", 10_000)), 3);
        assert!(
            parked >= 2,
            "3-step chunks must park repeatedly (run took {} steps, parked {parked}x)",
            whole.steps
        );
        assert_eq!(chunked, whole, "chunked result identical, hash included");
    }

    #[test]
    fn evict_resume_through_bytes_is_identical() {
        let (whole, _) = run_to_end(SessionRun::new(spec("fair-merge", 10_000)), 10_000);
        let mut run = SessionRun::new(spec("fair-merge", 10_000));
        let result = loop {
            match run.advance(13).expect("ok") {
                ChunkOutcome::Finished(r) => break *r,
                ChunkOutcome::Parked(_) => {
                    // Evict: drop everything but the byte image; resume
                    // from it — the journal round trip in miniature.
                    let bytes = run
                        .checkpoint_bytes()
                        .expect("parked checkpoints encode")
                        .expect("parked");
                    run = SessionRun::from_checkpoint_bytes(run.spec().clone(), &bytes)
                        .expect("image decodes");
                }
            }
        };
        assert!(run.resumes >= 1);
        assert_eq!(result, whole, "evicted/resumed run must be byte-identical");
    }

    #[test]
    fn session_budget_cuts_to_a_smooth_prefix() {
        let (r, _) = run_to_end(SessionRun::new(spec("ticks", 50)), 8);
        assert_eq!(r.verdict, "SmoothPrefix");
        assert!(r.conformant);
        assert_eq!(r.steps, 50);
    }

    #[test]
    fn hostile_checkpoint_bytes_are_a_typed_error() {
        let e = SessionRun::from_checkpoint_bytes(spec("ticks", 50), b"EQPCKPT1 garbage")
            .err()
            .expect("must not panic");
        assert!(matches!(e, SessionError::Wire(_)));
        let aborted = SessionResult::aborted(&e);
        assert_eq!(aborted.verdict, "Aborted");
        assert!(!aborted.conformant);
    }

    #[test]
    fn results_roundtrip_through_json() {
        let (r, _) = run_to_end(SessionRun::new(spec("ticks", 50)), 50);
        let back = SessionResult::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }
}
