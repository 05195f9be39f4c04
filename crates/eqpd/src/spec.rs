//! Spec ingestion: the textual parse-and-validate layer between tenant
//! JSON and library types.
//!
//! A [`SessionSpec`] either names a conformance-zoo workload or carries a
//! full tenant-defined `eqp-netlang` program (the `netlang` field),
//! validated at this trust boundary against the daemon's [`SpecLimits`];
//! a [`TraceSpec`] carries a textual trace (parsed with `Value`'s total
//! `FromStr` impl) for the one-shot `check` method. Everything validates
//! with typed [`SpecError`]s — a malformed spec is a protocol error
//! response, never a panic.

use crate::json::{obj, s, Json};
use eqp_kahn::conformance::{self, Conformance, ConformanceOptions};
use eqp_kahn::{
    Adversarial, Network, OverflowPolicy, RandomSched, RoundRobin, RunOptions, RunReport, Scheduler,
};
use eqp_netlang::{parse as parse_netlang, NetError, NetLimits, NetProgram};
use eqp_processes::zoo::{conformance_zoo, ZooEntry};
use eqp_trace::{Chan, Event, Value};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Default ceiling on per-session step budgets: a tenant can ask for
/// less, never more — budget enforcement is what keeps one runaway
/// session from starving the fleet. Per-daemon configurable via
/// [`SpecLimits`] (`--max-session-steps`).
pub const MAX_SESSION_STEPS: usize = 200_000;

/// Default ceiling on a one-shot `check` trace length. Per-daemon
/// configurable via [`SpecLimits`] (`--max-trace-events`).
pub const MAX_TRACE_EVENTS: usize = 100_000;

/// Per-daemon admission limits, applied to every tenant spec. The
/// hard-coded constants of PR 8 became these fields; the constants remain
/// as defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecLimits {
    /// Ceiling on a session's step budget.
    pub max_session_steps: usize,
    /// Ceiling on a one-shot `check` trace length.
    pub max_trace_events: usize,
    /// Budgets for tenant-defined netlang programs.
    pub netlang: NetLimits,
}

impl Default for SpecLimits {
    fn default() -> SpecLimits {
        SpecLimits {
            max_session_steps: MAX_SESSION_STEPS,
            max_trace_events: MAX_TRACE_EVENTS,
            netlang: NetLimits::default(),
        }
    }
}

impl SpecLimits {
    /// Limits with the given session-step ceiling, keeping the netlang
    /// `steps` directive ceiling consistent with it.
    pub fn with_session_steps(mut self, n: usize) -> SpecLimits {
        self.max_session_steps = n;
        self.netlang.max_steps = n as u64;
        self
    }

    /// Limits with the given `check` trace-length ceiling.
    pub fn with_trace_events(mut self, n: usize) -> SpecLimits {
        self.max_trace_events = n;
        self
    }
}

/// What a session runs: a registry workload or a tenant-defined network.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A conformance-zoo entry, by registry name.
    Zoo(String),
    /// A validated tenant netlang program (programs compare by source).
    NetLang(Arc<NetProgram>),
}

/// The conformance zoo, built once per process and shared, so each
/// entry's cached description is too.
pub fn zoo() -> &'static [ZooEntry] {
    static ZOO: OnceLock<Vec<ZooEntry>> = OnceLock::new();
    ZOO.get_or_init(conformance_zoo)
}

/// The conformance-zoo entry registered as `name`.
pub fn zoo_entry(name: &str) -> Option<&'static ZooEntry> {
    zoo().iter().find(|e| e.name == name)
}

/// Which scheduler drives a session. Constructed fresh for every chunk
/// of a session's execution — checkpoint restore rebuilds its state, so
/// the (kind, seed) pair fully determines the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedSpec {
    /// Deterministic round-robin.
    RoundRobin,
    /// Seeded uniform-random scheduler.
    Random(u64),
    /// Seeded adversarial (starvation-seeking) scheduler.
    Adversarial(u64),
}

impl SchedSpec {
    /// Builds a fresh scheduler (genesis state; resume restores mid-run
    /// state from the checkpoint).
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedSpec::RoundRobin => Box::new(RoundRobin::new()),
            SchedSpec::Random(seed) => Box::new(RandomSched::new(seed)),
            SchedSpec::Adversarial(seed) => Box::new(Adversarial::new(seed)),
        }
    }

    fn to_json(self) -> Json {
        match self {
            SchedSpec::RoundRobin => obj([("kind", s("round-robin"))]),
            SchedSpec::Random(seed) => obj([("kind", s("random")), ("seed", Json::UInt(seed))]),
            SchedSpec::Adversarial(seed) => {
                obj([("kind", s("adversarial")), ("seed", Json::UInt(seed))])
            }
        }
    }
}

/// A validated tenant session spec: which workload to run, under which
/// scheduler, with which bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// What to run: a registry workload or a validated tenant program.
    pub workload: Workload,
    /// Network seed (oracle-driven networks derive their oracle from it).
    pub seed: u64,
    /// Scheduler driving the session.
    pub sched: SchedSpec,
    /// Step budget (clamped to [`MAX_SESSION_STEPS`]; defaults to the
    /// zoo entry's own bound).
    pub max_steps: usize,
    /// Optional managed-channel capacity (bounded-run backpressure).
    pub capacity: Option<usize>,
    /// Overflow policy under `capacity`.
    pub overflow: OverflowPolicy,
    /// Optional scheduler-round deadline (`DeadlineExpired` on expiry).
    pub deadline_rounds: Option<usize>,
    /// Optional wall-clock deadline, milliseconds, enforced by the
    /// daemon between execution chunks.
    pub deadline_ms: Option<u64>,
}

/// Why a spec was rejected. Maps to an error response naming the field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The named workload is not in the conformance zoo.
    UnknownWorkload(String),
    /// A field is missing or has the wrong type.
    BadField {
        /// Dotted field path.
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
    /// A field value is outside the daemon's accepted range.
    OutOfRange {
        /// Dotted field path.
        field: &'static str,
        /// The enforced bound, rendered.
        bound: String,
    },
    /// A textual trace event failed to parse.
    BadEvent {
        /// 0-based index into the `events` array.
        index: usize,
        /// The parse failure.
        why: String,
    },
    /// A tenant netlang program failed parsing or budget validation.
    Net(NetError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownWorkload(w) => {
                write!(f, "unknown workload `{w}` (see the `workloads` method)")
            }
            SpecError::BadField { field, expected } => {
                write!(f, "field `{field}`: expected {expected}")
            }
            SpecError::OutOfRange { field, bound } => {
                write!(f, "field `{field}` out of range: {bound}")
            }
            SpecError::BadEvent { index, why } => {
                write!(f, "events[{index}]: {why}")
            }
            SpecError::Net(e) => write!(f, "netlang: {e}"),
        }
    }
}

impl From<NetError> for SpecError {
    fn from(e: NetError) -> SpecError {
        SpecError::Net(e)
    }
}

impl std::error::Error for SpecError {}

fn u64_field(p: &Json, field: &'static str, default: u64) -> Result<u64, SpecError> {
    match p.get(field) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or(SpecError::BadField {
            field,
            expected: "a non-negative integer",
        }),
    }
}

fn opt_usize_field(p: &Json, field: &'static str) -> Result<Option<usize>, SpecError> {
    match p.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or(SpecError::BadField {
                field,
                expected: "a non-negative integer",
            }),
    }
}

impl SessionSpec {
    /// Parses and validates a spec object under the default limits.
    pub fn from_json(p: &Json) -> Result<SessionSpec, SpecError> {
        SessionSpec::from_json_limited(p, &SpecLimits::default())
    }

    /// Parses and validates a spec object against the zoo registry (the
    /// `workload` field) or the netlang trust boundary (the `netlang`
    /// field), enforcing this daemon's admission limits.
    pub fn from_json_limited(p: &Json, limits: &SpecLimits) -> Result<SessionSpec, SpecError> {
        let workload = match (
            p.get("workload").map(|v| v.as_str()),
            p.get("netlang").map(|v| v.as_str()),
        ) {
            (Some(_), Some(_)) => {
                return Err(SpecError::BadField {
                    field: "workload",
                    expected: "either `workload` or `netlang`, not both",
                })
            }
            (Some(Some(name)), None) => {
                if zoo_entry(name).is_none() {
                    return Err(SpecError::UnknownWorkload(name.to_owned()));
                }
                Workload::Zoo(name.to_owned())
            }
            (None, Some(Some(src))) => {
                let program = parse_netlang(src, &limits.netlang)?;
                Workload::NetLang(Arc::new(program))
            }
            (Some(None), _) => {
                return Err(SpecError::BadField {
                    field: "workload",
                    expected: "a string workload name",
                })
            }
            (None, Some(None)) => {
                return Err(SpecError::BadField {
                    field: "netlang",
                    expected: "a string netlang program",
                })
            }
            (None, None) => {
                return Err(SpecError::BadField {
                    field: "workload",
                    expected: "a string workload name (or a `netlang` program)",
                })
            }
        };
        let seed = u64_field(p, "seed", 0)?;
        let sched = match p.get("sched") {
            None => SchedSpec::RoundRobin,
            Some(sp) => {
                let kind = sp
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or(SpecError::BadField {
                        field: "sched.kind",
                        expected: "`round-robin`, `random`, or `adversarial`",
                    })?;
                let sseed = u64_field(sp, "seed", seed)?;
                match kind {
                    "round-robin" => SchedSpec::RoundRobin,
                    "random" => SchedSpec::Random(sseed),
                    "adversarial" => SchedSpec::Adversarial(sseed),
                    _ => {
                        return Err(SpecError::BadField {
                            field: "sched.kind",
                            expected: "`round-robin`, `random`, or `adversarial`",
                        })
                    }
                }
            }
        };
        let default_steps = match &workload {
            Workload::Zoo(name) => zoo_entry(name)
                .expect("validated against the registry above")
                .max_steps
                .min(limits.max_session_steps),
            Workload::NetLang(program) => (program.steps() as usize).min(limits.max_session_steps),
        };
        let max_steps = match opt_usize_field(p, "max_steps")? {
            None => default_steps,
            Some(0) => {
                return Err(SpecError::OutOfRange {
                    field: "max_steps",
                    bound: "must be at least 1".to_owned(),
                })
            }
            Some(n) if n > limits.max_session_steps => {
                return Err(SpecError::OutOfRange {
                    field: "max_steps",
                    bound: format!("at most {}", limits.max_session_steps),
                })
            }
            Some(n) => n,
        };
        let capacity = match opt_usize_field(p, "capacity")? {
            Some(0) => {
                return Err(SpecError::OutOfRange {
                    field: "capacity",
                    bound: "must be at least 1".to_owned(),
                })
            }
            c => c,
        };
        let overflow = match p.get("overflow").map(|v| v.as_str()) {
            None => OverflowPolicy::Block,
            Some(Some("block")) => OverflowPolicy::Block,
            Some(Some("shed")) => OverflowPolicy::Shed,
            Some(_) => {
                return Err(SpecError::BadField {
                    field: "overflow",
                    expected: "`block` or `shed`",
                })
            }
        };
        let deadline_rounds = opt_usize_field(p, "deadline_rounds")?;
        let deadline_ms = match p.get("deadline_ms") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or(SpecError::BadField {
                field: "deadline_ms",
                expected: "a non-negative integer (milliseconds)",
            })?),
        };
        Ok(SessionSpec {
            workload,
            seed,
            sched,
            max_steps,
            capacity,
            overflow,
            deadline_rounds,
            deadline_ms,
        })
    }

    /// Serializes back to the wire/journal form (parse ∘ to_json = id).
    pub fn to_json(&self) -> Json {
        let workload_pair = match &self.workload {
            Workload::Zoo(name) => ("workload", s(name.clone())),
            Workload::NetLang(program) => ("netlang", s(program.source().to_owned())),
        };
        let mut pairs = vec![
            workload_pair,
            ("seed", Json::UInt(self.seed)),
            ("sched", self.sched.to_json()),
            ("max_steps", Json::UInt(self.max_steps as u64)),
        ];
        if let Some(c) = self.capacity {
            pairs.push(("capacity", Json::UInt(c as u64)));
            pairs.push((
                "overflow",
                s(match self.overflow {
                    OverflowPolicy::Block => "block",
                    OverflowPolicy::Shed => "shed",
                }),
            ));
        }
        if let Some(r) = self.deadline_rounds {
            pairs.push(("deadline_rounds", Json::UInt(r as u64)));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::UInt(ms)));
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The workload's display name: the zoo registry name, or the
    /// netlang program's `net` name.
    pub fn workload_name(&self) -> &str {
        match &self.workload {
            Workload::Zoo(name) => name,
            Workload::NetLang(program) => program.name(),
        }
    }

    /// The zoo entry a [`Workload::Zoo`] spec names (validated at parse,
    /// so present); `None` for tenant netlang workloads.
    pub fn entry(&self) -> Option<&'static ZooEntry> {
        match &self.workload {
            Workload::Zoo(name) => {
                Some(zoo_entry(name).expect("validated against the registry at parse"))
            }
            Workload::NetLang(_) => None,
        }
    }

    /// Builds the runnable network for this spec at the given seed.
    pub fn build_network(&self, seed: u64) -> Network {
        match &self.workload {
            Workload::Zoo(_) => self.entry().expect("zoo workload").network(seed),
            Workload::NetLang(program) => program.build(seed),
        }
    }

    /// Checks a run report against the workload's equational
    /// description. The description is built once: a zoo entry's by the
    /// first check of any spec naming it, a netlang program's by the
    /// first check through any clone of this spec.
    pub fn check(&self, report: &RunReport) -> Conformance {
        match &self.workload {
            Workload::Zoo(_) => self.entry().expect("zoo workload").check(report),
            Workload::NetLang(program) => conformance::check_report(
                program.cached_description(),
                report,
                &ConformanceOptions::default(),
            ),
        }
    }

    /// The library run options for one execution chunk ending at
    /// `bound` total steps.
    pub fn run_options(&self, bound: usize) -> RunOptions {
        RunOptions {
            max_steps: bound,
            seed: self.seed,
            channel_capacity: self.capacity,
            overflow: self.overflow,
            deadline_rounds: self.deadline_rounds,
            ..RunOptions::default()
        }
    }
}

/// A one-shot textual trace to check against a workload's description —
/// the `check` method's payload. Events are `"<chan>:<value>"` strings
/// (e.g. `"2:7"`, `"0:T"`, `"1:(0,4)"`) parsed with the total
/// [`Value`] parser.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Workload whose description the trace is checked against.
    pub workload: String,
    /// Parsed events, in order.
    pub events: Vec<Event>,
    /// Whether the trace claims to be a complete (quiescent) history.
    pub quiescent: bool,
}

impl TraceSpec {
    /// Parses and validates a `check` payload under the default limits.
    pub fn from_json(p: &Json) -> Result<TraceSpec, SpecError> {
        TraceSpec::from_json_limited(p, &SpecLimits::default())
    }

    /// Parses and validates a `check` payload against this daemon's
    /// trace-length ceiling.
    pub fn from_json_limited(p: &Json, limits: &SpecLimits) -> Result<TraceSpec, SpecError> {
        let workload = p
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(SpecError::BadField {
                field: "workload",
                expected: "a string workload name",
            })?
            .to_owned();
        if zoo_entry(&workload).is_none() {
            return Err(SpecError::UnknownWorkload(workload));
        }
        let events_json = p
            .get("events")
            .and_then(Json::as_arr)
            .ok_or(SpecError::BadField {
                field: "events",
                expected: "an array of `\"<chan>:<value>\"` strings",
            })?;
        if events_json.len() > limits.max_trace_events {
            return Err(SpecError::OutOfRange {
                field: "events",
                bound: format!("at most {} events", limits.max_trace_events),
            });
        }
        let mut events = Vec::with_capacity(events_json.len());
        for (index, ev) in events_json.iter().enumerate() {
            let text = ev.as_str().ok_or(SpecError::BadEvent {
                index,
                why: "expected a `\"<chan>:<value>\"` string".to_owned(),
            })?;
            events.push(parse_event(text).map_err(|why| SpecError::BadEvent { index, why })?);
        }
        let quiescent = match p.get("quiescent") {
            None => true,
            Some(v) => v.as_bool().ok_or(SpecError::BadField {
                field: "quiescent",
                expected: "a boolean",
            })?,
        };
        Ok(TraceSpec {
            workload,
            events,
            quiescent,
        })
    }
}

/// Parses one `"<chan>:<value>"` event. Total.
fn parse_event(text: &str) -> Result<Event, String> {
    let (chan, value) = text
        .split_once(':')
        .ok_or_else(|| format!("`{text}` is not `<chan>:<value>`"))?;
    let chan: u32 = chan
        .trim()
        .parse()
        .map_err(|_| format!("`{chan}` is not a channel index"))?;
    let value: Value = value.parse().map_err(|e| format!("{e}"))?;
    Ok(Event::new(Chan::new(chan), value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_spec(text: &str) -> Result<SessionSpec, SpecError> {
        SessionSpec::from_json(&Json::parse(text).expect("test specs are valid JSON"))
    }

    #[test]
    fn minimal_spec_fills_zoo_defaults() {
        let spec = parse_spec(r#"{"workload":"sec23-merge"}"#).expect("valid");
        assert_eq!(spec.workload_name(), "sec23-merge");
        assert_eq!(spec.sched, SchedSpec::RoundRobin);
        assert_eq!(spec.max_steps, spec.entry().expect("zoo").max_steps);
        assert!(spec.capacity.is_none());
    }

    #[test]
    fn netlang_spec_parses_builds_and_roundtrips() {
        let program = "net doubler\nsteps 200\nchan b = 0\nchan c = 1\n\
                       proc src = const b [1 2 3]\n\
                       proc dbl = map affine(2,0) b -> c\n\
                       eq c <= map(affine(2,0), b)\n";
        let spec = SessionSpec::from_json(&obj([("netlang", s(program.to_owned()))]))
            .expect("valid netlang spec");
        assert_eq!(spec.workload_name(), "doubler");
        assert!(spec.entry().is_none());
        assert_eq!(spec.max_steps, 200, "defaults to the program's steps");
        let mut net = spec.build_network(0);
        let report = net.run_report(&mut RoundRobin::new(), spec.run_options(200));
        let conf = spec.check(&report);
        assert!(
            matches!(
                conf.verdict,
                eqp_kahn::Verdict::SmoothSolution | eqp_kahn::Verdict::SmoothPrefix
            ),
            "{:?}",
            conf.verdict
        );
        let back = SessionSpec::from_json(&spec.to_json()).expect("own json reparses");
        assert_eq!(back, spec);
    }

    #[test]
    fn netlang_rejections_are_typed() {
        // Both workload kinds at once is ambiguous.
        let both = r#"{"workload":"ticks","netlang":"net x\nchan b = 0\nproc p = copy b -> b\n"}"#;
        let e = parse_spec(both).expect_err("ambiguous");
        assert!(e.to_string().contains("not both"), "{e}");
        // A hostile program is rejected with the netlang error inside.
        let bad = SessionSpec::from_json(&obj([(
            "netlang",
            s("net x\nchan b = 0\nproc p = copy b -> q\n".to_owned()),
        )]))
        .expect_err("unknown channel");
        assert!(matches!(bad, SpecError::Net(_)), "{bad:?}");
        assert!(bad.to_string().contains("netlang"), "{bad}");
    }

    #[test]
    fn limits_clamp_max_steps_and_netlang_budgets() {
        let limits = SpecLimits::default().with_session_steps(100);
        let j = Json::parse(r#"{"workload":"ticks","max_steps":101}"#).expect("json");
        let e = SessionSpec::from_json_limited(&j, &limits).expect_err("over budget");
        assert!(e.to_string().contains("at most 100"), "{e}");
        // The netlang `steps` directive obeys the same per-daemon ceiling.
        let big = "net x\nsteps 5000\nchan b = 0\nchan c = 1\nproc p = copy b -> c\n";
        let j = obj([("netlang", s(big.to_owned()))]);
        let e = SessionSpec::from_json_limited(&j, &limits).expect_err("steps over budget");
        assert!(matches!(e, SpecError::Net(_)), "{e:?}");
    }

    #[test]
    fn full_spec_roundtrips_through_json() {
        let spec = parse_spec(
            r#"{"workload":"fair-merge","seed":9,"sched":{"kind":"random","seed":3},
                "max_steps":500,"capacity":4,"overflow":"shed",
                "deadline_rounds":100,"deadline_ms":2000}"#,
        )
        .expect("valid");
        assert_eq!(spec.sched, SchedSpec::Random(3));
        assert_eq!(spec.overflow, OverflowPolicy::Shed);
        let back = SessionSpec::from_json(&spec.to_json()).expect("own json reparses");
        assert_eq!(back, spec);
    }

    #[test]
    fn rejections_are_typed_and_name_the_field() {
        for (text, needle) in [
            (r#"{}"#, "workload"),
            (r#"{"workload":"no-such-network"}"#, "unknown workload"),
            (r#"{"workload":"ticks","seed":-1}"#, "seed"),
            (r#"{"workload":"ticks","max_steps":0}"#, "max_steps"),
            (r#"{"workload":"ticks","max_steps":99999999}"#, "max_steps"),
            (r#"{"workload":"ticks","capacity":0}"#, "capacity"),
            (r#"{"workload":"ticks","overflow":"explode"}"#, "overflow"),
            (r#"{"workload":"ticks","sched":{"kind":"fifo"}}"#, "sched"),
        ] {
            let e = parse_spec(text).expect_err(text);
            assert!(e.to_string().contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn trace_spec_parses_textual_events() {
        let j = Json::parse(
            r#"{"workload":"sec23-merge","quiescent":false,
                "events":["0:10","1:21","2: 10","2:(0,4)","0:T"]}"#,
        )
        .expect("valid json");
        let t = TraceSpec::from_json(&j).expect("valid");
        assert_eq!(t.events.len(), 5);
        assert_eq!(t.events[0], Event::int(Chan::new(0), 10));
        assert_eq!(t.events[3].value, Value::Pair(0, 4));
        assert_eq!(t.events[4].value, Value::tt());
        assert!(!t.quiescent);
        for (bad, needle) in [
            (
                r#"{"workload":"sec23-merge","events":["nocolon"]}"#,
                "events[0]",
            ),
            (
                r#"{"workload":"sec23-merge","events":["x:1"]}"#,
                "channel index",
            ),
            (
                r#"{"workload":"sec23-merge","events":["0:zap"]}"#,
                "not a value",
            ),
            (r#"{"workload":"sec23-merge","events":[7]}"#, "events[0]"),
        ] {
            let e = TraceSpec::from_json(&Json::parse(bad).expect("json")).expect_err(bad);
            assert!(e.to_string().contains(needle), "{bad}: {e}");
        }
    }
}
