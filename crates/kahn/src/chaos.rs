//! The chaos harness: seeded fault storms with delta-debugged convictions.
//!
//! The conformance bridge ([`crate::conformance`]) turns the paper's
//! adequacy theorems into an executable oracle; the supervision runtime
//! ([`crate::supervisor`]) claims that crash recovery preserves it. This
//! module stress-tests both claims at once: [`storm`] samples seeded
//! random [`FaultSchedule`]s — crash points × link faults × scheduler
//! choices — runs each against a [`Scenario`] under supervision, and
//! classifies the outcome through [`check_report`]:
//!
//! * a **benign** schedule (delays plus supervised crashes within the
//!   restart budget) must stay conformant — a non-conformant benign run
//!   is a harness conviction of the *runtime*, and fails
//!   [`ChaosReport::harness_ok`];
//! * a **harmful** schedule (drop, duplicate, reorder, or an escalated
//!   crash) is *expected* to convict — the interesting artifact is the
//!   minimal reproducer, so every conviction is [`shrink`]-ed by greedy
//!   delta debugging over the schedule's fault elements until no single
//!   removal still convicts;
//! * every verdict must be **reproducible**: the same trial re-run yields
//!   the same trace and verdict, or the harness itself is convicted.
//!
//! A surviving [`Conviction`] names the violated component equation and
//! the exact injected fault events, so the failure is actionable without
//! re-running anything.

use crate::conformance::{check_report, ConformanceOptions, Verdict};
use crate::faults::{CrashPoint, Fault, FaultSchedule, LinkFaultSpec};
use crate::monitor::MonitorPolicy;
use crate::network::{Network, RunOptions, RunWith};
use crate::reliable::{ArqOptions, ReliableConfig};
use crate::report::{FaultRecord, RunReport, RunStatus};
use crate::scheduler::{Adversarial, RandomSched, RoundRobin, Scheduler};
use crate::supervisor::SupervisorOptions;
use eqp_core::Description;
use eqp_trace::Chan;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::fmt;

/// A network under chaos test: a builder (fresh, identically constructed
/// network per run — chaos needs many runs), its description for the
/// conformance oracle, and a step budget. Deliberately opaque boxed
/// closures so zoo crates can adapt their entries without this crate
/// depending on them.
pub struct Scenario {
    name: String,
    max_steps: usize,
    build: Box<dyn Fn(u64) -> Network + Send + Sync>,
    describe: Box<dyn Fn() -> Description + Send + Sync>,
    /// Channels wrapped in reliable (ARQ) links for every trial run —
    /// sampled faults on them are masked, not physics.
    protect: Vec<Chan>,
    /// ARQ configuration for the protected channels.
    arq: ArqOptions,
}

impl Scenario {
    /// Creates a scenario from a seeded network builder and a description
    /// builder.
    pub fn new(
        name: impl Into<String>,
        max_steps: usize,
        build: impl Fn(u64) -> Network + Send + Sync + 'static,
        describe: impl Fn() -> Description + Send + Sync + 'static,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            max_steps,
            build: Box::new(build),
            describe: Box::new(describe),
            protect: Vec::new(),
            arq: ArqOptions::default(),
        }
    }

    /// Wraps `channels` in reliable (ARQ) links for every trial run:
    /// storms whose link faults all land on protected channels are masked
    /// by retransmission and classified *benign* — they must never
    /// convict. A schedule that exhausts a link's retry budget
    /// ([`RunStatus::ReliabilityExhausted`]) is still harmful and shrinks
    /// to a minimal reproducer naming the exhausted link.
    #[must_use]
    pub fn with_reliable(
        mut self,
        channels: impl IntoIterator<Item = Chan>,
        arq: ArqOptions,
    ) -> Scenario {
        self.protect = channels.into_iter().collect();
        self.arq = arq;
        self
    }

    /// The channels wrapped in reliable links for every trial run.
    pub fn protected(&self) -> &[Chan] {
        &self.protect
    }

    /// The scenario's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-run step budget.
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// Builds a fresh network for the given seed.
    pub fn build(&self, seed: u64) -> Network {
        (self.build)(seed)
    }

    /// The description the conformance oracle checks runs against.
    pub fn description(&self) -> Description {
        (self.describe)()
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("max_steps", &self.max_steps)
            .finish_non_exhaustive()
    }
}

/// Which scheduler a trial runs under — part of the sampled fault space,
/// since different schedules expose different crash interleavings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerChoice {
    /// Rotating round-robin.
    RoundRobin,
    /// Seeded uniform-random permutations.
    Random(u64),
    /// Seeded adversarial bursts.
    Adversarial(u64),
}

impl SchedulerChoice {
    fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerChoice::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerChoice::Random(seed) => Box::new(RandomSched::new(seed)),
            SchedulerChoice::Adversarial(seed) => Box::new(Adversarial::new(seed)),
        }
    }
}

impl fmt::Display for SchedulerChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerChoice::RoundRobin => f.write_str("round-robin"),
            SchedulerChoice::Random(s) => write!(f, "random(seed {s})"),
            SchedulerChoice::Adversarial(s) => write!(f, "adversarial(seed {s})"),
        }
    }
}

/// One sampled point in the chaos space: a network seed, a scheduler, and
/// a fault schedule. Fully determines a run.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Seed fed to the scenario's network builder (oracles etc.).
    pub net_seed: u64,
    /// The scheduler the run uses.
    pub scheduler: SchedulerChoice,
    /// The injected faults.
    pub schedule: FaultSchedule,
}

impl fmt::Display for Trial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} under {}: {}",
            self.net_seed, self.scheduler, self.schedule
        )
    }
}

/// Options bounding a chaos [`storm`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Number of trials to sample.
    pub trials: usize,
    /// Master seed: everything else — network seeds, scheduler choices,
    /// fault schedules — derives from it, so a storm is reproducible.
    pub seed: u64,
    /// Maximum crash points per schedule.
    pub max_crashes: usize,
    /// Maximum link faults per schedule.
    pub max_link_faults: usize,
    /// Supervision configuration for every trial run.
    pub supervisor: SupervisorOptions,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            trials: 16,
            seed: 0xC4A05,
            max_crashes: 1,
            max_link_faults: 2,
            supervisor: SupervisorOptions::one_for_one(),
        }
    }
}

/// A non-conformant trial, shrunk to its minimal reproducer.
#[derive(Debug, Clone)]
pub struct Conviction {
    /// The originally sampled trial.
    pub trial: Trial,
    /// The delta-debugged minimal schedule that still convicts.
    pub minimal: FaultSchedule,
    /// The verdict of the minimal run.
    pub verdict: Verdict,
    /// The violated component equation (`f_k ⟸ g_k`), if the verdict
    /// names one.
    pub equation: Option<String>,
    /// The fault events the minimal run actually injected.
    pub fault_log: Vec<FaultRecord>,
    /// How the minimal run ended.
    pub status: RunStatus,
    /// True iff the convicting schedule was benign — recovery should have
    /// preserved conformance, so this convicts the *runtime*.
    pub benign: bool,
    /// False iff re-running the original trial changed its trace or
    /// verdict — a harness failure.
    pub reproducible: bool,
    /// True iff the minimal schedule is non-empty and the empty schedule
    /// runs clean: the conviction is genuinely caused by the injected
    /// faults. An unshrinkable conviction means the scenario fails even
    /// fault-free.
    pub shrinkable: bool,
}

impl fmt::Display for Conviction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conviction: {}", self.trial)?;
        writeln!(f, "  minimal reproducer: {}", self.minimal)?;
        writeln!(f, "  run ended: {}", self.status)?;
        match &self.equation {
            Some(eq) => writeln!(f, "  violated equation: {eq}")?,
            None => writeln!(f, "  verdict: {:?}", self.verdict)?,
        }
        for rec in &self.fault_log {
            writeln!(f, "  injected: {rec}")?;
        }
        if self.benign {
            writeln!(f, "  !! benign schedule convicted — runtime bug")?;
        }
        if !self.reproducible {
            writeln!(f, "  !! verdict not reproducible — harness bug")?;
        }
        if !self.shrinkable {
            writeln!(f, "  !! unshrinkable — scenario fails fault-free")?;
        }
        Ok(())
    }
}

/// The outcome of one chaos [`storm`].
#[derive(Debug)]
pub struct ChaosReport {
    /// The scenario's name.
    pub scenario: String,
    /// Trials sampled.
    pub trials: usize,
    /// Trials whose runs stayed conformant.
    pub conformant: usize,
    /// Non-conformant trials, each shrunk to a minimal reproducer.
    pub convictions: Vec<Conviction>,
}

impl ChaosReport {
    /// True iff the harness's own invariants held: every conviction is
    /// reproducible, shrinkable, and caused by a harmful schedule. (A
    /// conviction from drop/duplicate faults is the *expected* physics —
    /// it does not fail the harness.)
    pub fn harness_ok(&self) -> bool {
        self.convictions
            .iter()
            .all(|c| !c.benign && c.reproducible && c.shrinkable)
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos(`{}`): {} trials, {} conformant, {} convictions",
            self.scenario,
            self.trials,
            self.conformant,
            self.convictions.len()
        )?;
        for c in &self.convictions {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Runs one trial (fresh network, fresh scheduler, supervised, faulted,
/// the scenario's protected channels ARQ-wrapped) and certifies it
/// against the scenario's description. With a `monitor` policy the
/// online [`SmoothnessMonitor`](crate::monitor) certifies as events
/// commit — under [`MonitorPolicy::AbortOnViolation`] a
/// smoothness-violating candidate halts at the convicting step, the
/// ddmin speedup. With `None` the finished run is checked post-hoc
/// through [`check_report`], the reference path [`shrink`] uses.
pub fn run_trial(
    scenario: &Scenario,
    trial: &Trial,
    sup: SupervisorOptions,
    monitor: Option<MonitorPolicy>,
) -> (RunReport, crate::conformance::Conformance) {
    let mut net = scenario.build(trial.net_seed);
    let mut sched = trial.scheduler.build();
    let opts = RunOptions {
        max_steps: scenario.max_steps,
        seed: trial.net_seed,
        ..RunOptions::default()
    };
    let desc = scenario.description();
    // with no protected channel the ARQ config wraps nothing and the run
    // is the plain faulted one
    let cfg = ReliableConfig::new(scenario.protect.clone()).arq(scenario.arq);
    let with = RunWith {
        monitor: monitor.map(|policy| (&desc, policy)),
        faults: Some(&trial.schedule),
        reliable: Some(&cfg),
        supervisor: Some(sup),
        checkpoint_at: None,
    };
    let out = net.run_with(&mut sched, opts, with);
    let conf = out
        .conformance
        .unwrap_or_else(|| check_report(&desc, &out.report, &ConformanceOptions::default()));
    (out.report, conf)
}

/// The outcome of a [`shrink_report`] pass: the minimal schedule plus the
/// cost counters the early-abort monitor saved.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The delta-debugged minimal schedule that still convicts —
    /// identical to what the post-hoc [`shrink`] finds (pinned in
    /// `tests/chaos_zoo.rs`).
    pub minimal: FaultSchedule,
    /// Candidate trials executed during the shrink.
    pub trials_run: usize,
    /// Step budget saved by early abort, summed over the candidate runs
    /// the monitor halted: `Σ (max_steps − steps_at_abort)` — each such
    /// run would otherwise have been free to grind to the scenario's
    /// step bound before the post-hoc check convicted it.
    pub steps_saved: usize,
}

/// Greedy delta debugging (ddmin-lite): repeatedly removes single fault
/// elements from the schedule while the trial still convicts, returning
/// the locally minimal schedule. A convicting drop-fault schedule
/// typically shrinks to the single dropped-message injection.
///
/// This is the post-hoc reference path (a full run to the step bound, then
/// one linear walk of its trace, per candidate); [`shrink_report`] finds
/// the same minimal schedule with early-abort monitored candidates and
/// reports the cost saved.
pub fn shrink(scenario: &Scenario, trial: &Trial, sup: SupervisorOptions) -> FaultSchedule {
    let mut current = trial.schedule.clone();
    loop {
        let mut progressed = false;
        for i in 0..current.len() {
            let candidate = Trial {
                schedule: current.without(i),
                ..trial.clone()
            };
            if !run_trial(scenario, &candidate, sup, None).1.is_conformant() {
                current = candidate.schedule;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// [`shrink`] with every candidate run under the early-abort online
/// monitor: a smoothness-violating candidate halts at the convicting
/// step (amortized O(1) certification, no post-hoc re-walk), so noisy
/// schedules shrink in a fraction of the step budget. The minimal
/// schedule is identical to the post-hoc path's — the monitored verdict
/// equals the post-hoc verdict on every run (differential suite), and a
/// run the monitor aborts is convicted by the post-hoc check too (the
/// violating prefix pair is already in the trace and smoothness never
/// heals).
pub fn shrink_report(scenario: &Scenario, trial: &Trial, sup: SupervisorOptions) -> ShrinkResult {
    let mut current = trial.schedule.clone();
    let mut trials_run = 0;
    let mut steps_saved = 0;
    loop {
        let mut progressed = false;
        for i in 0..current.len() {
            let candidate = Trial {
                schedule: current.without(i),
                ..trial.clone()
            };
            let (report, conf) = run_trial(
                scenario,
                &candidate,
                sup,
                Some(MonitorPolicy::AbortOnViolation),
            );
            trials_run += 1;
            if matches!(report.status, RunStatus::MonitorAborted { .. }) {
                steps_saved += scenario.max_steps.saturating_sub(report.steps);
            }
            if !conf.is_conformant() {
                current = candidate.schedule;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return ShrinkResult {
                minimal: current,
                trials_run,
                steps_saved,
            };
        }
    }
}

/// Samples one fault schedule over the scenario's processes and channels.
fn sample_schedule(
    rng: &mut StdRng,
    n_procs: usize,
    channels: &[eqp_trace::Chan],
    max_steps: usize,
    opts: &ChaosOptions,
) -> FaultSchedule {
    let mut schedule = FaultSchedule::none();
    if n_procs > 0 {
        let n_crashes = rng.random_range(0..opts.max_crashes + 1);
        for _ in 0..n_crashes {
            schedule.crashes.push(CrashPoint {
                process: rng.random_range(0..n_procs),
                at_step: rng.random_range(1..(max_steps / 2).max(2)),
            });
        }
    }
    if !channels.is_empty() {
        let n_links = rng.random_range(0..opts.max_link_faults + 1);
        for _ in 0..n_links {
            let chan = channels[rng.random_range(0..channels.len())];
            let fault = match rng.random_range(0..4u32) {
                0 => Fault::Delay {
                    slack: rng.random_range(1..4usize),
                },
                1 => Fault::Reorder {
                    window: rng.random_range(2..5usize),
                    seed: rng.next_u64(),
                },
                2 => Fault::Duplicate {
                    period: rng.random_range(1..4usize),
                },
                _ => Fault::Drop {
                    period: rng.random_range(1..4usize),
                },
            };
            schedule.links.push(LinkFaultSpec { chan, fault });
        }
    }
    schedule
}

/// Samples one full trial.
fn sample_trial(
    rng: &mut StdRng,
    n_procs: usize,
    channels: &[eqp_trace::Chan],
    max_steps: usize,
    opts: &ChaosOptions,
) -> Trial {
    let net_seed = rng.next_u64();
    let scheduler = match rng.random_range(0..3u32) {
        0 => SchedulerChoice::RoundRobin,
        1 => SchedulerChoice::Random(rng.next_u64()),
        _ => SchedulerChoice::Adversarial(rng.next_u64()),
    };
    let schedule = sample_schedule(rng, n_procs, channels, max_steps, opts);
    Trial {
        net_seed,
        scheduler,
        schedule,
    }
}

/// Whether a run's outcome counts as benign for invariant purposes: the
/// schedule injected only history-preserving perturbations *and* the
/// supervisor actually kept up (an escalated or budget-cut-mid-recovery
/// run legitimately loses history even under a benign schedule). With
/// reliable-wrapped channels, any fault on a protected channel is also
/// benign — ARQ masks it — unless the run actually exhausted a retry
/// budget, which legitimately abandons history.
fn counts_as_benign(scenario: &Scenario, trial: &Trial, status: &RunStatus) -> bool {
    trial
        .schedule
        .links
        .iter()
        .all(|l| l.fault.is_benign() || scenario.protect.contains(&l.chan))
        && !matches!(
            status,
            RunStatus::Escalated { .. }
                | RunStatus::BudgetExhaustedDuringRecovery
                | RunStatus::ReliabilityExhausted { .. }
        )
}

/// Runs a seeded chaos storm against the scenario: samples
/// [`ChaosOptions::trials`] trials, classifies each through the
/// conformance bridge, verifies reproducibility, and shrinks every
/// conviction to a minimal reproducer.
pub fn storm(scenario: &Scenario, opts: &ChaosOptions) -> ChaosReport {
    let probe = scenario.build(opts.seed);
    let n_procs = probe.len();
    let channels = probe.channels();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut conformant = 0;
    let mut convictions = Vec::new();
    for _ in 0..opts.trials {
        let trial = sample_trial(&mut rng, n_procs, &channels, scenario.max_steps, opts);
        let (report, conf) = run_trial(scenario, &trial, opts.supervisor, None);
        let benign_run = counts_as_benign(scenario, &trial, &report.status);
        if conf.is_conformant() {
            conformant += 1;
            continue;
        }
        // reproducibility: the identical trial must reproduce the verdict
        let (report2, conf2) = run_trial(scenario, &trial, opts.supervisor, None);
        let reproducible = conf2.verdict == conf.verdict && report2.trace == report.trace;
        // shrink to a minimal reproducer (early-abort monitored
        // candidates — same minimum, fraction of the step budget), then
        // characterize it
        let minimal = shrink_report(scenario, &trial, opts.supervisor).minimal;
        let min_trial = Trial {
            schedule: minimal.clone(),
            ..trial.clone()
        };
        let (min_report, min_conf) = run_trial(scenario, &min_trial, opts.supervisor, None);
        // an empty minimal schedule means removal-to-nothing still
        // convicted: the scenario fails fault-free — unshrinkable
        let shrinkable = !minimal.is_empty();
        let equation = min_conf
            .failing_component()
            .and_then(|k| min_conf.component_equation(k))
            .map(str::to_owned);
        convictions.push(Conviction {
            trial,
            minimal,
            verdict: min_conf.verdict.clone(),
            equation,
            fault_log: min_report.fault_log().to_vec(),
            status: min_report.status.clone(),
            benign: benign_run,
            reproducible,
            shrinkable,
        });
    }
    ChaosReport {
        scenario: scenario.name().to_owned(),
        trials: opts.trials,
        conformant,
        convictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procs::{Apply, Source};
    use eqp_seqfn::paper::ch;
    use eqp_seqfn::SeqExpr;
    use eqp_trace::{Chan, Value};

    fn c() -> Chan {
        Chan::new(0)
    }
    fn d() -> Chan {
        Chan::new(1)
    }

    /// The doubling pipeline: d = 2·c, c = 1 2 3.
    fn scenario() -> Scenario {
        Scenario::new(
            "double-pipeline",
            10_000,
            |_seed| {
                let mut net = Network::new();
                net.add(Source::new(
                    "env",
                    c(),
                    [Value::Int(1), Value::Int(2), Value::Int(3)],
                ));
                net.add(Apply::int_affine("double", c(), d(), 2, 0));
                net
            },
            || {
                Description::new("double-pipeline")
                    .equation(ch(c()), SeqExpr::const_ints([1, 2, 3]))
                    .equation(ch(d()), SeqExpr::affine(2, 0, ch(c())))
            },
        )
    }

    #[test]
    fn clean_trial_is_conformant() {
        let s = scenario();
        let trial = Trial {
            net_seed: 1,
            scheduler: SchedulerChoice::RoundRobin,
            schedule: FaultSchedule::none(),
        };
        let (_, conf) = run_trial(&s, &trial, SupervisorOptions::one_for_one(), None);
        assert_eq!(conf.verdict, Verdict::SmoothSolution);
    }

    #[test]
    fn drop_fault_shrinks_to_single_event_reproducer() {
        // A noisy schedule — a benign delay, a supervised crash, and one
        // drop — must shrink to the drop alone.
        let s = scenario();
        let trial = Trial {
            net_seed: 7,
            scheduler: SchedulerChoice::RoundRobin,
            schedule: FaultSchedule {
                crashes: vec![CrashPoint {
                    process: 1,
                    at_step: 2,
                }],
                links: vec![
                    LinkFaultSpec {
                        chan: d(),
                        fault: Fault::Delay { slack: 1 },
                    },
                    LinkFaultSpec {
                        chan: c(),
                        fault: Fault::Drop { period: 2 },
                    },
                ],
            },
        };
        let sup = SupervisorOptions::one_for_one();
        let (_, conf) = run_trial(&s, &trial, sup, None);
        assert!(!conf.is_conformant(), "the drop convicts");
        let minimal = shrink(&s, &trial, sup);
        assert_eq!(minimal.len(), 1, "shrinks to a single fault: {minimal}");
        assert!(minimal.crashes.is_empty());
        assert_eq!(
            minimal.links[0].fault,
            Fault::Drop { period: 2 },
            "the surviving element is the drop"
        );
    }

    #[test]
    fn monitored_shrink_finds_the_same_minimum_and_saves_steps() {
        let s = scenario();
        let trial = Trial {
            net_seed: 7,
            scheduler: SchedulerChoice::RoundRobin,
            schedule: FaultSchedule {
                crashes: vec![CrashPoint {
                    process: 1,
                    at_step: 2,
                }],
                links: vec![
                    LinkFaultSpec {
                        chan: d(),
                        fault: Fault::Delay { slack: 1 },
                    },
                    LinkFaultSpec {
                        chan: c(),
                        fault: Fault::Drop { period: 2 },
                    },
                ],
            },
        };
        let sup = SupervisorOptions::one_for_one();
        let posthoc = shrink(&s, &trial, sup);
        let monitored = shrink_report(&s, &trial, sup);
        assert_eq!(
            monitored.minimal, posthoc,
            "early-abort shrink must find the post-hoc minimum"
        );
        assert!(monitored.trials_run > 0);
        // the surviving drop convicts by smoothness ([1,3] ⋢ [1,2,3]), so
        // convicting candidates abort at the violating step instead of
        // exhausting the 10k step budget
        assert!(
            monitored.steps_saved > 0,
            "smoothness-convicting candidates must abort early"
        );
    }

    #[test]
    fn storm_over_clean_scenario_upholds_harness_invariants() {
        let s = scenario();
        let opts = ChaosOptions {
            trials: 12,
            seed: 0xD15EA5E,
            ..ChaosOptions::default()
        };
        let report = storm(&s, &opts);
        assert_eq!(report.trials, 12);
        assert!(report.harness_ok(), "harness invariants hold:\n{report}");
        // with drops and duplicates in the fault space, some trials convict
        for conviction in &report.convictions {
            assert!(!conviction.minimal.is_empty());
            assert!(conviction.reproducible);
            assert!(!conviction.benign);
        }
        assert!(report.to_string().contains("chaos(`double-pipeline`)"));
    }
}
