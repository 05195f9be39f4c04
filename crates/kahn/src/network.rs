//! Networks: processes wired by FIFO channels, run to quiescence — with
//! optional checkpointing, supervision, and engine-level fault injection.

use crate::chanmap::{ascending, ChanMap};
use crate::conformance::Conformance;
use crate::faults::{CrashPoint, EngineLink, FaultSchedule};
use crate::monitor::{MonitorPolicy, SmoothnessMonitor};
use crate::process::{raw_send, FlowControl, FlowTxn, Process, StepCtx, StepResult};
use crate::reliable::{ReliableConfig, ReliableLink};
use crate::report::{
    ChannelReport, ConsumerViolation, FaultRecord, FaultSource, ProcessReport, RunReport,
    RunStatus, Telemetry,
};
use crate::scheduler::Scheduler;
use crate::snapshot::{Checkpoint, SnapshotError, StateCell};
use crate::supervisor::{Journal, RecoveryRecord, Replay, RestoreMethod, SupervisorOptions};
use crate::wire::CheckpointView;
use eqp_core::Description;
use eqp_trace::{Chan, ChanSet, Event, Trace, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// What a bounded run does with a send on a channel already at capacity
/// (see [`RunOptions::channel_capacity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Roll the whole step back and retry it once the consumer frees
    /// credit — classic credit-based backpressure. The blocked step
    /// *never happened*: its pops, sends, and telemetry are undone, so
    /// backpressure is purely a scheduler restriction and every quiescent
    /// bounded run certifies identically to the unbounded run.
    #[default]
    Block,
    /// Silently discard the overflowing message (load shedding). The shed
    /// count is metered per channel in
    /// [`ChannelReport::shed`](crate::ChannelReport); note that shedding
    /// — unlike blocking — *does* change the history, so a shed run is
    /// compared against a deadline or overload budget, not against the
    /// unbounded trace.
    Shed,
}

/// Options bounding a network run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Maximum total process steps (guards non-quiescing networks like
    /// Ticks).
    pub max_steps: usize,
    /// Seed for the in-process nondeterminism RNG ([`StepCtx::flip`]).
    pub seed: u64,
    /// Queue capacity applied to every *managed* channel — a channel some
    /// process declares as an input. `None` (the default) is the classic
    /// Kahn model: unbounded FIFO queues. Terminal channels nobody reads
    /// stay unbounded either way (they model the observable history, not
    /// a buffer).
    pub channel_capacity: Option<usize>,
    /// What to do when a send hits a full channel (bounded runs only).
    pub overflow: OverflowPolicy,
    /// Ends the run with [`RunStatus::DeadlineExpired`] once this many
    /// scheduler rounds have completed without quiescence — the overload
    /// exit for throttled runs that would otherwise grind to the step
    /// bound.
    pub deadline_rounds: Option<usize>,
    /// Accumulate mergeable telemetry sketches inline during the run
    /// (queue-depth/latency quantiles, heavy-hitter channels,
    /// distinct-value cardinality — see
    /// [`RunReport::sketches`](crate::RunReport)). On by default; the
    /// capture cost is a few arithmetic ops per event against a fixed
    /// memory footprint. Disable for the leanest possible hot loop.
    pub sketches: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_steps: 10_000,
            seed: 0,
            channel_capacity: None,
            overflow: OverflowPolicy::Block,
            deadline_rounds: None,
            sketches: true,
        }
    }
}

impl RunOptions {
    /// Default options with every managed channel bounded to `capacity`
    /// messages under [`OverflowPolicy::Block`].
    pub fn bounded(capacity: usize) -> RunOptions {
        RunOptions::default().with_capacity(capacity)
    }

    /// Sets the managed-channel capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> RunOptions {
        self.channel_capacity = Some(capacity);
        self
    }

    /// Sets the overflow policy for bounded runs.
    #[must_use]
    pub fn with_overflow(mut self, policy: OverflowPolicy) -> RunOptions {
        self.overflow = policy;
        self
    }

    /// Sets the round deadline for overload runs.
    #[must_use]
    pub fn with_deadline(mut self, rounds: usize) -> RunOptions {
        self.deadline_rounds = Some(rounds);
        self
    }

    /// Compatibility shim: returns `self` unchanged — every run steps
    /// on the one engine. Kept only because the benchmark package
    /// (`eqpbench/`) still calls it; removed once the next benchmark
    /// change drops that call.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_shards(self, n: usize) -> RunOptions {
        assert!(n >= 1, "a run needs at least one shard");
        self
    }

    /// Enables or disables inline sketch telemetry capture.
    #[must_use]
    pub fn with_sketches(mut self, on: bool) -> RunOptions {
        self.sketches = on;
        self
    }
}

/// What a run carries besides its [`RunOptions`]: an online monitor, an
/// engine-level fault schedule, reliable (ARQ) links, a supervisor and a
/// checkpoint capture point. Every field is optional and the default is
/// the bare run; [`Network::run_with`] combines whichever are set.
///
/// A captured [`Checkpoint`] saves no link, ARQ, crash-point or
/// supervisor-journal state, so `checkpoint_at` cannot be combined with
/// `faults`, `reliable` or `supervisor` — [`Network::run_with`] panics
/// on those pairings rather than capture a checkpoint that would resume
/// into a different run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunWith<'a> {
    /// Certify the trace against the description *as events commit* —
    /// amortized O(1) per event — under the given violation policy.
    /// [`MonitorPolicy::Observe`] certifies without perturbing the run;
    /// [`MonitorPolicy::AbortOnViolation`] halts at the convicting step
    /// with [`RunStatus::MonitorAborted`]. The verdict equals
    /// `check_report(desc, &report, &Default::default())` on the same
    /// run.
    pub monitor: Option<(&'a Description, MonitorPolicy)>,
    /// Engine-level faults: crash points kill processes at global step
    /// counts and link faults intercept sends in flight — no rewiring of
    /// the network required.
    pub faults: Option<&'a FaultSchedule>,
    /// Wrap the channels named in the config in reliable (ARQ) links: a
    /// drop/duplicate/reorder fault scheduled in `faults` on a protected
    /// channel becomes the link's lossy medium, and retransmission plus
    /// dedup/reorder recovery makes the composite the identity. On retry
    /// budget exhaustion the run degrades to
    /// [`RunStatus::ReliabilityExhausted`] instead of hanging.
    pub reliable: Option<&'a ReliableConfig>,
    /// Supervise the run: crashed processes (reported by
    /// [`Process::crashed`] or fired by a crash point) are restored from
    /// the latest periodic checkpoint, or reset and replayed from
    /// genesis, per the restart policy.
    pub supervisor: Option<SupervisorOptions>,
    /// Capture a whole-run [`Checkpoint`] when the global progress-step
    /// count reaches exactly this value (0 captures the genesis state).
    /// Capture is pure observation: the run is unchanged.
    pub checkpoint_at: Option<usize>,
}

/// What [`Network::run_with`] and [`Network::resume`] return.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The run's full telemetry report.
    pub report: RunReport,
    /// The online monitor's verdict — `Some` exactly when a monitor was
    /// attached (or, on resume, when the checkpoint carries one).
    pub conformance: Option<Conformance>,
    /// The checkpoint captured at `checkpoint_at`; `None` if none was
    /// asked for or the run ended before reaching it.
    pub checkpoint: Option<Checkpoint>,
}

/// Result of a network run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The communication history: every send, in global order.
    pub trace: Trace,
    /// True iff the network quiesced (no process can make further
    /// progress); false iff the step bound cut the run short. On hitting
    /// the bound the runner probes one extra zero-cost round, so a
    /// network that quiesces in exactly `max_steps` steps still reports
    /// `true`.
    pub quiescent: bool,
    /// How the run ended — distinguishes a genuine step-bound cut from
    /// one that fired mid-recovery, and surfaces supervisor escalation.
    pub status: RunStatus,
    /// Progress-making steps performed.
    pub steps: usize,
}

/// The network was already converted into a [`PreloadedNetwork`] by a
/// previous `preload` call — its processes have moved, and running the
/// leftover husk would silently do nothing. Returned by
/// [`Network::try_preload_all`]; the panicking `preload`/`preload_all`
/// wrappers turn it into an assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainedError;

impl std::fmt::Display for DrainedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(
            "network already drained by a previous `preload`; \
             chain `.preload(..)` on the returned PreloadedNetwork instead",
        )
    }
}

impl std::error::Error for DrainedError {}

/// A dataflow network: a bag of processes communicating over unbounded
/// FIFO channels. Channels are implicit — any channel a process sends on
/// is queued for whoever reads it. Single-reader discipline is validated
/// statically at [`Network::add`] for processes that declare their
/// [`Process::inputs`], and dynamically by run telemetry (see
/// [`RunReport::consumer_violations`]).
#[derive(Default)]
pub struct Network {
    processes: Vec<Box<dyn Process>>,
    /// Set once `preload` converts this network into a
    /// [`PreloadedNetwork`]; guards against silently running the drained
    /// husk.
    drained: bool,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a process.
    ///
    /// # Panics
    ///
    /// Panics if the process declares an input channel already consumed by
    /// a previously added process — Kahn networks require a single
    /// consumer per channel, and a second reader would silently steal
    /// messages.
    pub fn add<P: Process + 'static>(&mut self, p: P) -> &mut Network {
        for c in p.inputs() {
            for q in &self.processes {
                assert!(
                    !q.inputs().contains(&c),
                    "channel {c} already consumed by process `{}`; `{}` cannot also read it",
                    q.name(),
                    p.name()
                );
            }
        }
        self.processes.push(Box::new(p));
        self
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// True iff the network has no processes.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Diagnostic names of the processes, in insertion order.
    pub fn process_names(&self) -> Vec<String> {
        self.processes.iter().map(|p| p.name().to_owned()).collect()
    }

    /// Every channel any process declares (inputs and outputs), sorted
    /// and deduplicated — the chaos harness samples link faults from
    /// this set.
    pub fn channels(&self) -> Vec<Chan> {
        let mut cs: Vec<Chan> = self
            .processes
            .iter()
            .flat_map(|p| {
                let mut v = p.inputs();
                v.extend(p.outputs());
                v
            })
            .collect();
        cs.sort();
        cs.dedup();
        cs
    }

    /// Wraps the process at index `i` in a [`CrashAt`](crate::CrashAt)
    /// fuse that fires after `at_step` of *its* progress steps — the way
    /// to crash-test an opaque, already built network (the zoo builders).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn wrap_crash_at(&mut self, i: usize, at_step: usize) -> &mut Network {
        assert!(i < self.processes.len(), "no process at index {i}");
        let inner = std::mem::replace(&mut self.processes[i], Box::new(Tombstone));
        self.processes[i] = Box::new(crate::faults::CrashAt::new(inner, at_step));
        self
    }

    /// Pre-loads messages on a channel (environment input that is *not*
    /// recorded in the trace — prefer a `Source` process when the sends
    /// should appear in the history, as the paper's traces include them).
    ///
    /// Moves the processes into the returned [`PreloadedNetwork`]; load
    /// further channels by chaining [`PreloadedNetwork::preload`].
    ///
    /// # Panics
    ///
    /// Panics if this network was already converted by a previous
    /// `preload` call — the processes have moved, and running the
    /// leftover empty network would silently do nothing.
    pub fn preload<I: IntoIterator<Item = Value>>(
        &mut self,
        chan: Chan,
        values: I,
    ) -> PreloadedNetwork {
        self.preload_all([(chan, values.into_iter().collect::<Vec<Value>>())])
    }

    /// Pre-loads several channels at once from `(channel, values)` pairs.
    ///
    /// # Panics
    ///
    /// Panics under the same already-drained condition as
    /// [`Network::preload`].
    pub fn preload_all<I>(&mut self, pairs: I) -> PreloadedNetwork
    where
        I: IntoIterator<Item = (Chan, Vec<Value>)>,
    {
        self.try_preload_all(pairs)
            .expect("this Network was already converted by `preload`; chain `.preload(..)` calls on the returned PreloadedNetwork instead")
    }

    /// Non-panicking [`preload_all`](Network::preload_all): returns a
    /// typed [`DrainedError`] instead of panicking when the network was
    /// already drained by a previous `preload`. The form server-side
    /// code (the `eqpd` daemon) uses, where a tenant-driven misuse must
    /// degrade to an error response rather than a process abort.
    pub fn try_preload_all<I>(&mut self, pairs: I) -> Result<PreloadedNetwork, DrainedError>
    where
        I: IntoIterator<Item = (Chan, Vec<Value>)>,
    {
        if self.drained {
            return Err(DrainedError);
        }
        self.drained = true;
        let mut pre = PreloadedNetwork {
            net: Network {
                processes: std::mem::take(&mut self.processes),
                drained: false,
            },
            queues: ChanMap::default(),
        };
        for (chan, values) in pairs {
            pre.load(chan, values);
        }
        Ok(pre)
    }

    fn assert_live(&self) {
        assert!(
            !self.drained,
            "this Network was drained by `preload`; run the PreloadedNetwork it returned"
        );
    }

    /// The resume prologue: checks the checkpoint's arity against this
    /// network, restores each process's state cell and the scheduler, and
    /// returns an engine over the restored processes for the caller to
    /// load the checkpoint's run state into.
    fn restored_engine<S: Scheduler>(
        &mut self,
        ckpt: &Checkpoint,
        sched: &mut S,
        opts: RunOptions,
    ) -> Result<Engine<'_>, SnapshotError> {
        self.assert_live();
        if ckpt.processes.len() != self.processes.len() {
            return Err(SnapshotError::ArityMismatch {
                expected: ckpt.processes.len(),
                found: self.processes.len(),
            });
        }
        for (i, cell) in ckpt.processes.iter().enumerate() {
            let cell = cell
                .as_ref()
                .ok_or_else(|| SnapshotError::UnsupportedProcess {
                    index: i,
                    name: self.processes[i].name().to_owned(),
                })?;
            if !self.processes[i].restore(cell) {
                return Err(SnapshotError::RestoreRejected {
                    index: i,
                    name: self.processes[i].name().to_owned(),
                });
            }
        }
        ckpt.restore_scheduler(sched)?;
        Ok(Engine::new(&mut self.processes, ChanMap::default(), opts))
    }

    /// Runs the network under `sched` until quiescence or the step bound.
    pub fn run<S: Scheduler>(&mut self, sched: &mut S, opts: RunOptions) -> RunResult {
        self.run_report(sched, opts).into_result()
    }

    /// Runs the network and returns the full telemetry [`RunReport`].
    pub fn run_report<S: Scheduler>(&mut self, sched: &mut S, opts: RunOptions) -> RunReport {
        self.assert_live();
        Engine::new(&mut self.processes, ChanMap::default(), opts).run(sched)
    }

    /// Runs the network with the attachments in `with` — monitor,
    /// faults, reliable links, supervisor, checkpoint capture — all on
    /// the one engine.
    ///
    /// # Panics
    ///
    /// Panics if `with.checkpoint_at` is combined with `faults`,
    /// `reliable` or `supervisor` (see [`RunWith`]).
    pub fn run_with<S: Scheduler>(
        &mut self,
        sched: &mut S,
        opts: RunOptions,
        with: RunWith<'_>,
    ) -> RunOutcome {
        self.assert_live();
        let mut engine = Engine::new(&mut self.processes, ChanMap::default(), opts);
        engine.attach(&with);
        engine.run_outcome(sched)
    }

    /// Restores `ckpt` into this (identically built) network and `sched`
    /// (identically constructed scheduler) and continues the run to its
    /// end, capturing a fresh checkpoint at `checkpoint_at` if given
    /// (counted from run genesis, so it must exceed `ckpt.steps()`). The
    /// resumed run is byte-identical — trace and report meters — to the
    /// uninterrupted one. The checkpoint is moved into the engine, not
    /// copied.
    ///
    /// The outcome carries a conformance exactly when the checkpoint
    /// carries a monitor: certification resumes from the captured
    /// evaluator state without re-feeding the prefix.
    /// `opts.max_steps` still bounds the total step count; `opts.seed`
    /// is ignored (the RNG resumes mid-stream from the checkpoint).
    pub fn resume<S: Scheduler>(
        &mut self,
        ckpt: Checkpoint,
        sched: &mut S,
        opts: RunOptions,
        checkpoint_at: Option<usize>,
    ) -> Result<RunOutcome, SnapshotError> {
        let mut engine = self.restored_engine(&ckpt, sched, opts)?;
        engine.resume_from(ckpt);
        engine.checkpoint_at = checkpoint_at;
        Ok(engine.run_outcome(sched))
    }

    /// Compatibility shim for [`run_with`](Network::run_with) with an
    /// [`Observe`](MonitorPolicy::Observe) monitor. Kept only because the
    /// benchmark package (`eqpbench/`) still calls it; removed once the
    /// next benchmark change drops that call.
    pub fn run_report_monitored<S: Scheduler>(
        &mut self,
        desc: &Description,
        sched: &mut S,
        opts: RunOptions,
    ) -> (RunReport, Conformance) {
        let with = RunWith {
            monitor: Some((desc, MonitorPolicy::Observe)),
            ..RunWith::default()
        };
        let out = self.run_with(sched, opts, with);
        (out.report, out.conformance.expect("monitor attached"))
    }

    /// Compatibility shim for [`run_with`](Network::run_with) with a
    /// checkpoint capture point. Kept only because the benchmark package
    /// (`eqpbench/`) still calls it; removed once the next benchmark
    /// change drops that call.
    pub fn run_report_checkpointed<S: Scheduler>(
        &mut self,
        sched: &mut S,
        opts: RunOptions,
        at_step: usize,
    ) -> (RunReport, Option<Checkpoint>) {
        let with = RunWith {
            checkpoint_at: Some(at_step),
            ..RunWith::default()
        };
        let out = self.run_with(sched, opts, with);
        (out.report, out.checkpoint)
    }

    /// Compatibility shim for [`resume`](Network::resume) from a
    /// validated [`CheckpointView`]. Kept only because the benchmark
    /// package (`eqpbench/`) still calls it; removed once the next
    /// benchmark change drops that call.
    pub fn resume_report_view<S: Scheduler>(
        &mut self,
        view: &CheckpointView<'_>,
        sched: &mut S,
        opts: RunOptions,
    ) -> Result<RunReport, SnapshotError> {
        Ok(self.resume(view.to_checkpoint(), sched, opts, None)?.report)
    }

    /// Compatibility shim for [`resume`](Network::resume) from a borrowed
    /// checkpoint, which it clones. Kept only because the benchmark
    /// package (`eqpbench/`) still calls it; removed once the next
    /// benchmark change drops that call.
    pub fn resume_report_checkpointed<S: Scheduler>(
        &mut self,
        ckpt: &Checkpoint,
        sched: &mut S,
        opts: RunOptions,
        at_step: usize,
    ) -> Result<(RunReport, Option<Checkpoint>), SnapshotError> {
        let out = self.resume(ckpt.clone(), sched, opts, Some(at_step))?;
        Ok((out.report, out.checkpoint))
    }

    /// Compatibility shim: calls [`run_report`](Network::run_report).
    /// Kept only because the benchmark package (`eqpbench/`) still calls
    /// it; removed once the next benchmark change drops that call.
    pub fn run_report_sharded<S: Scheduler>(
        &mut self,
        sched: &mut S,
        opts: RunOptions,
    ) -> RunReport {
        self.run_report(sched, opts)
    }
}

/// Placeholder swapped in momentarily by [`Network::wrap_crash_at`].
struct Tombstone;

impl Process for Tombstone {
    fn name(&self) -> &str {
        "<tombstone>"
    }
    fn step(&mut self, _: &mut StepCtx<'_>) -> StepResult {
        StepResult::Idle
    }
}

/// A network with pre-loaded channel contents (see [`Network::preload`]).
pub struct PreloadedNetwork {
    net: Network,
    queues: ChanMap<VecDeque<Value>>,
}

impl PreloadedNetwork {
    /// Pre-loads further messages on another channel (or appends to an
    /// already-loaded one), consuming and returning `self` so loads
    /// chain: `net.preload(a, ..).preload(b, ..)`.
    #[must_use]
    pub fn preload<I: IntoIterator<Item = Value>>(
        mut self,
        chan: Chan,
        values: I,
    ) -> PreloadedNetwork {
        self.load(chan, values);
        self
    }

    fn load<I: IntoIterator<Item = Value>>(&mut self, chan: Chan, values: I) {
        self.queues.entry(chan).or_default().extend(values);
    }

    /// Runs the preloaded network.
    pub fn run<S: Scheduler>(&mut self, sched: &mut S, opts: RunOptions) -> RunResult {
        self.run_report(sched, opts).into_result()
    }

    /// Runs the preloaded network and returns the full [`RunReport`].
    pub fn run_report<S: Scheduler>(&mut self, sched: &mut S, opts: RunOptions) -> RunReport {
        Engine::new(
            &mut self.net.processes,
            std::mem::take(&mut self.queues),
            opts,
        )
        .run(sched)
    }
}

/// Per-process counters tracked during a run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ProcCounters {
    pub(crate) progress: usize,
    pub(crate) idle: usize,
    pub(crate) starve_streak: usize,
    pub(crate) max_starved: usize,
    /// Steps rolled back because a send hit a full channel.
    pub(crate) send_blocked: usize,
    /// Consecutive rounds blocked (cleared by any committed step).
    pub(crate) blocked_streak: usize,
    pub(crate) max_blocked: usize,
}

/// The run engine: the bare quiescence loop plus (all optional, all
/// zero-cost when unused) checkpointing, supervision with journaled
/// replay, and engine-interposed fault injection.
struct Engine<'a> {
    procs: &'a mut [Box<dyn Process>],
    declared: Vec<Vec<Chan>>,
    /// Declared output channels, for the hookless-process capacity
    /// pre-check under flow control.
    declared_out: Vec<Vec<Chan>>,
    queues: ChanMap<VecDeque<Value>>,
    trace: Vec<Event>,
    rng: StdRng,
    telemetry: Telemetry,
    counters: Vec<ProcCounters>,
    steps: usize,
    rounds: usize,
    max_steps: usize,
    /// Engine-interposed faulty links (chaos schedules).
    links: Vec<EngineLink>,
    /// Engine-level ARQ links protecting channels (reliable transport).
    reliables: Vec<ReliableLink>,
    /// Bounded-channel flow control (`RunOptions::channel_capacity`).
    flow: Option<FlowControl>,
    /// First `(process, channel)` blocked on a full send this round.
    round_blocked: Option<(usize, Chan)>,
    /// Round deadline for overload runs.
    deadline_rounds: Option<usize>,
    /// Unfired engine crash points.
    crash_points: Vec<CrashPoint>,
    /// Engine view of which processes are currently dead.
    crashed: Vec<bool>,
    /// Step count at which each currently-dead process crashed.
    crash_steps: Vec<usize>,
    /// Completed restarts per process.
    restarts: Vec<usize>,
    /// Rounds remaining until a pending restart (`None` = no restart
    /// pending).
    backoff: Vec<Option<usize>>,
    /// Per-process observation journals (supervised runs only).
    journals: Option<Vec<Journal>>,
    /// Armed replays for restored processes.
    replays: Vec<Option<Replay>>,
    supervision: Option<SupervisorOptions>,
    /// Latest periodic whole-network checkpoint (supervised runs).
    last_checkpoint: Option<Checkpoint>,
    recoveries: Vec<RecoveryRecord>,
    /// Set when a crash escalates; the run fails at the next check.
    escalated: Option<String>,
    /// Step count at which to capture `captured` (whole-run
    /// checkpointing).
    checkpoint_at: Option<usize>,
    captured: Option<Checkpoint>,
    /// Process indices not yet offered a step this round.
    pending: VecDeque<usize>,
    /// Whether anything progressed in the round in flight.
    round_progressed: bool,
    /// Online smoothness monitor (monitored runs only).
    monitor: Option<SmoothnessMonitor>,
    /// Cached `monitor armed with AbortOnViolation` — probed twice per
    /// step in the run loop, so the Option+enum walk is hoisted here.
    abort_armed: bool,
    /// Trace index up to which committed sends have been fed to the
    /// monitor. Invariant: `fed == trace.len()` at every drain point —
    /// in particular before every checkpoint capture, so a captured
    /// monitor has observed exactly the captured trace.
    fed: usize,
}

impl<'a> Engine<'a> {
    fn new(
        processes: &'a mut [Box<dyn Process>],
        queues: ChanMap<VecDeque<Value>>,
        opts: RunOptions,
    ) -> Engine<'a> {
        let n = processes.len();
        let declared: Vec<Vec<Chan>> = processes.iter().map(|p| p.inputs()).collect();
        let declared_out: Vec<Vec<Chan>> = processes.iter().map(|p| p.outputs()).collect();
        let mut telemetry = Telemetry::default();
        if opts.sketches {
            telemetry.sketches = Some(crate::report::capture_sketches());
            // Without flow control no transaction can roll a step back,
            // so observations may skip the staging buffer entirely.
            telemetry.direct = opts.channel_capacity.is_none();
        }
        for (c, q) in &queues {
            telemetry.note_preload(*c, q.len());
        }
        let flow = opts.channel_capacity.map(|capacity| {
            assert!(capacity >= 1, "channel_capacity must be at least 1");
            // managed = every channel some process consumes; terminal
            // channels nobody reads model the observable history, not a
            // buffer, and stay unbounded
            let managed = ChanSet::from_chans(declared.iter().flatten().copied());
            FlowControl {
                capacity,
                policy: opts.overflow,
                managed,
                txn: FlowTxn::default(),
            }
        });
        Engine {
            procs: processes,
            declared,
            declared_out,
            queues,
            trace: Vec::new(),
            rng: StdRng::seed_from_u64(opts.seed),
            telemetry,
            counters: vec![ProcCounters::default(); n],
            steps: 0,
            rounds: 0,
            max_steps: opts.max_steps,
            links: Vec::new(),
            reliables: Vec::new(),
            flow,
            round_blocked: None,
            deadline_rounds: opts.deadline_rounds,
            crash_points: Vec::new(),
            crashed: vec![false; n],
            crash_steps: vec![0; n],
            restarts: vec![0; n],
            backoff: vec![None; n],
            journals: None,
            replays: (0..n).map(|_| None).collect(),
            supervision: None,
            last_checkpoint: None,
            recoveries: Vec::new(),
            escalated: None,
            checkpoint_at: None,
            captured: None,
            pending: VecDeque::new(),
            round_progressed: false,
            monitor: None,
            abort_armed: false,
            fed: 0,
        }
    }

    /// Installs the run's attachments. Panics on the pairings a
    /// checkpoint cannot capture (see [`RunWith`]).
    fn attach(&mut self, with: &RunWith<'_>) {
        if with.checkpoint_at.is_some() {
            for (name, set) in [
                ("faults", with.faults.is_some()),
                ("reliable", with.reliable.is_some()),
                ("supervisor", with.supervisor.is_some()),
            ] {
                assert!(
                    !set,
                    "`checkpoint_at` cannot be combined with `{name}`: a checkpoint saves no \
                     link, ARQ, crash-point or supervisor-journal state, so its resume would \
                     diverge from the run"
                );
            }
        }
        if let Some(sup) = with.supervisor {
            self.journals = Some(vec![Journal::default(); self.procs.len()]);
            self.supervision = Some(sup);
        }
        if with.faults.is_some() || with.reliable.is_some() {
            self.inject(with.faults.unwrap_or(&FaultSchedule::none()), with.reliable);
        }
        if let Some((desc, policy)) = with.monitor {
            self.monitor = Some(SmoothnessMonitor::new(desc, None, policy));
            self.abort_armed = policy == MonitorPolicy::AbortOnViolation;
        }
        self.checkpoint_at = with.checkpoint_at;
    }

    /// Runs to completion and collects the outcome: the report, the
    /// monitor's verdict derived from its evaluator states (no post-hoc
    /// trace re-walk), and the captured checkpoint.
    fn run_outcome(&mut self, sched: &mut dyn Scheduler) -> RunOutcome {
        let report = self.run(sched);
        let conformance = self.monitor.as_ref().map(|m| m.finish(&report.status));
        RunOutcome {
            report,
            conformance,
            checkpoint: self.captured.take(),
        }
    }

    /// Injects `schedule`, with the channels in `cfg` (if any) wrapped in
    /// reliable (ARQ) links: a scheduled fault on a protected channel
    /// becomes that link's lossy medium (masked by retransmission)
    /// instead of a bare [`EngineLink`]; protected channels without a
    /// scheduled fault (and no ack fault) get a pass-through link — over
    /// clean media the protocol is provably the identity, so it costs
    /// nothing. Faults on unprotected channels become bare links.
    fn inject(&mut self, schedule: &FaultSchedule, cfg: Option<&ReliableConfig>) {
        let mut protected: Vec<Chan> = cfg.map_or_else(Vec::new, |cfg| cfg.channels.clone());
        protected.sort();
        protected.dedup();
        if let Some(cfg) = cfg {
            self.reliables = protected
                .iter()
                .map(|&c| {
                    let fault = schedule
                        .links
                        .iter()
                        .find(|l| l.chan == c)
                        .map(|l| &l.fault);
                    ReliableLink::new(c, fault, cfg.ack_fault.as_ref(), cfg.arq)
                })
                // identity links never frame, retransmit, or buffer —
                // keeping them around would tax every send and every
                // round for nothing
                .filter(|l| !l.is_passthrough())
                .collect();
        }
        self.links = schedule
            .links
            .iter()
            .filter(|l| !protected.contains(&l.chan))
            .map(EngineLink::new)
            .collect();
        self.crash_points = schedule.crashes.clone();
    }

    /// Loads a checkpoint's run state, *moving* its queues, trace,
    /// telemetry and counters into the engine.
    fn resume_from(&mut self, ckpt: Checkpoint) {
        self.queues = ckpt.queues;
        self.trace = ckpt.trace;
        self.rng = ckpt.rng;
        self.telemetry = ckpt.telemetry;
        self.counters = ckpt.counters;
        self.steps = ckpt.steps;
        self.rounds = ckpt.rounds;
        self.pending = ckpt.pending_round;
        self.round_progressed = ckpt.round_progressed;
        // the captured monitor observed exactly the captured trace (the
        // engine drains before every capture), so certification resumes
        // without re-feeding the prefix
        self.monitor = ckpt.monitor;
        self.abort_armed = self
            .monitor
            .as_ref()
            .is_some_and(|m| m.policy() == MonitorPolicy::AbortOnViolation);
        self.fed = self.trace.len();
        // `capture` advances `rounds` past a just-finished round but the
        // telemetry clone predates that adjustment — re-sync so resumed
        // latency stamps use the same round clock the uninterrupted run
        // would.
        self.telemetry.round = self.rounds as u64;
        // execution-mode flag, not run state: recompute for *this*
        // engine's flow configuration, whatever the capturer's was
        self.telemetry.direct = self.telemetry.sketches.is_some() && self.flow.is_none();
    }

    fn run(&mut self, sched: &mut dyn Scheduler) -> RunReport {
        let n = self.procs.len();
        self.maybe_capture(&*sched);
        loop {
            if self.pending.is_empty() {
                self.pending = sched.round(n).into_iter().collect();
                self.round_progressed = false;
                self.round_blocked = None;
            }
            while let Some(i) = self.pending.pop_front() {
                if self.steps >= self.max_steps {
                    return self.finish_at_bound();
                }
                if !self.crash_points.is_empty() {
                    self.fire_due_crashes();
                }
                if let Some(p) = self.escalated.take() {
                    return self.build(RunStatus::Escalated { process: p });
                }
                if self.crashed[i] {
                    self.account_idle(i);
                    continue;
                }
                let progressed = self.step_slot(i);
                // under Observe the monitor is drained lazily (in batches
                // at capture points and at run end — cheaper than
                // interleaving a feed into every step); only an aborting
                // monitor needs the per-step drain
                if self.abort_armed {
                    if let Some(k) = self.drain_monitor() {
                        return self.build(RunStatus::MonitorAborted { component: k });
                    }
                }
                if progressed {
                    self.maybe_capture(&*sched);
                }
                if self.supervision.is_some() && !self.crashed[i] && self.procs[i].crashed() {
                    self.handle_crash(i);
                }
                if let Some(p) = self.escalated.take() {
                    return self.build(RunStatus::Escalated { process: p });
                }
            }
            self.rounds += 1;
            self.telemetry.round = self.rounds as u64;
            // both pumps see the same pre-pump progress picture: `force`
            // makes buffering media release even in no-progress rounds,
            // so link buffers drain (or ARQ timers tick) before
            // quiescence can be declared
            let force = !self.round_progressed;
            let mut pumped = false;
            if !self.links.is_empty() && self.pump_links(force) {
                pumped = true;
            }
            if !self.reliables.is_empty() && self.pump_reliables(force) {
                pumped = true;
            }
            // pump deliveries commit outside step_slot and never roll
            // back — flush their sketch observations immediately
            self.telemetry.commit_staged();
            if pumped {
                self.round_progressed = true;
            }
            // link/ARQ pumps commit sends outside step_slot — feed those
            // too before any abort decision
            if self.abort_armed {
                if let Some(k) = self.drain_monitor() {
                    return self.build(RunStatus::MonitorAborted { component: k });
                }
            }
            self.tick_backoffs();
            if let Some(p) = self.escalated.take() {
                return self.build(RunStatus::Escalated { process: p });
            }
            if !self.round_progressed
                && !self.recovery_pending()
                && self.links_drained()
                && self.reliables_drained()
            {
                return match self.round_blocked.take() {
                    // a full no-progress round with a send still blocked:
                    // the bounded network is flow-control deadlocked
                    Some((i, c)) => {
                        let process = self.procs[i].name().to_owned();
                        self.build(RunStatus::Backpressured { process, chan: c })
                    }
                    None => self.build(RunStatus::Quiescent),
                };
            }
            if let Some(deadline) = self.deadline_rounds {
                if self.rounds >= deadline {
                    return self.build(RunStatus::DeadlineExpired);
                }
            }
        }
    }

    /// Feeds every not-yet-observed committed send to the online monitor.
    /// Amortized O(1) per event. Returns the convicted component index
    /// exactly when the monitor observed the *first* smoothness violation
    /// under [`MonitorPolicy::AbortOnViolation`]; all trailing events are
    /// still fed (the monitor keeps its evaluator states complete) so the
    /// final report covers everything committed.
    ///
    /// Safe against bounded-mode rollback: a rolled-back step truncates
    /// the trace to its pre-step length, and `fed` always equals the
    /// trace length when a step begins, so `fed` never points past the
    /// truncation.
    fn drain_monitor(&mut self) -> Option<usize> {
        let m = self.monitor.as_mut()?;
        if self.fed >= self.trace.len() {
            return None;
        }
        let convicted = m.feed_batch(&self.trace[self.fed..]);
        self.fed = self.trace.len();
        convicted
    }

    /// Offers process `i` one step; returns true on progress.
    fn step_slot(&mut self, i: usize) -> bool {
        let replay_active = self.replays[i].is_some();
        let input_waiting = self.declared[i]
            .iter()
            .any(|c| self.queues.get(c).is_some_and(|q| !q.is_empty()));
        // Bounded mode wraps the step in a transaction: snapshot the
        // process, arm the flow-control undo log, and roll everything
        // back if the step blocked on a full channel — so a blocked step
        // *never happened* and backpressure is purely a scheduler
        // restriction. Replayed steps re-consume journaled observations
        // and run unflowed (their sends are suppressed anyway).
        let mut guard: Option<(StateCell, StdRng, usize, usize)> = None;
        if self.flow.is_some() && !replay_active {
            match self.procs[i].snapshot() {
                Some(cell) => {
                    let journal_mark = self.journals.as_ref().map_or(0, |j| j[i].ops.len());
                    guard = Some((cell, self.rng.clone(), self.trace.len(), journal_mark));
                    self.flow.as_mut().expect("flow armed").txn.begin();
                }
                None => {
                    // a hookless process cannot be rolled back, so apply a
                    // conservative pre-check: with a declared output
                    // already at capacity, count the slot as blocked
                    // without stepping at all
                    let full = {
                        let f = self.flow.as_ref().expect("flow armed");
                        self.declared_out[i]
                            .iter()
                            .find(|c| {
                                f.managed.contains(**c)
                                    && self.queues.get(c).map_or(0, VecDeque::len) >= f.capacity
                            })
                            .copied()
                    };
                    if let Some(c) = full {
                        self.account_blocked(i, c);
                        return false;
                    }
                    // no managed output is full (or none is declared):
                    // step unguarded — the step may overshoot capacity by
                    // one step's worth of sends, which the high-water
                    // meter reports
                }
            }
        }
        let flow_armed = guard.is_some();
        let Engine {
            procs,
            queues,
            trace,
            rng,
            telemetry,
            journals,
            replays,
            links,
            reliables,
            flow,
            ..
        } = self;
        let mut ctx = StepCtx {
            queues,
            trace,
            rng,
            telemetry: Some(telemetry),
            current: i,
            journal: journals.as_mut().map(|j| &mut j[i]),
            replay: replays[i].as_mut(),
            links: if links.is_empty() {
                None
            } else {
                Some(links.as_mut_slice())
            },
            reliables: if reliables.is_empty() {
                None
            } else {
                Some(reliables.as_mut_slice())
            },
            flow: if flow_armed { flow.as_mut() } else { None },
        };
        let r = procs[i].step(&mut ctx);
        // a diverging replay abandons itself (ops cleared) and records
        // why; capture the reason before the empty-replay cleanup below
        // discards the marker
        let diverged = replays[i].as_mut().and_then(|rp| rp.diverged.take());
        if replays[i].as_ref().is_some_and(|rp| rp.ops.is_empty()) {
            // the restored process has fully re-reached its pre-crash
            // state; subsequent observations are live (and journaled)
            replays[i] = None;
        }
        let blocked = if flow_armed {
            flow.as_ref().and_then(|f| f.txn.blocked)
        } else {
            None
        };
        // consuming replay ops is progress toward recovery even when the
        // replayed observation was an idle one — the network must keep
        // rounding until the revived process is fully live again
        if replay_active {
            self.round_progressed = true;
        }
        if let Some(why) = diverged {
            // the restored process is not deterministic given its
            // observations — its recovery is invalid. Escalate this
            // process (the run ends with RunStatus::Escalated naming it)
            // instead of panicking the whole runtime.
            self.escalated = Some(format!("{} ({why})", self.procs[i].name()));
        }
        if let Some(chan) = blocked {
            let (cell, rng_save, trace_mark, journal_mark) =
                guard.take().expect("guard saved before the step");
            self.rollback_step(i, &cell, rng_save, trace_mark, journal_mark);
            self.account_blocked(i, chan);
            return false;
        }
        // the step committed: fold its staged sketch observations in
        self.telemetry.commit_staged();
        self.counters[i].blocked_streak = 0;
        match r {
            StepResult::Progress => {
                self.round_progressed = true;
                self.steps += 1;
                self.counters[i].progress += 1;
                self.counters[i].starve_streak = 0;
                true
            }
            StepResult::Idle => {
                self.note_idle(i, input_waiting);
                false
            }
        }
    }

    /// Undoes a blocked step: re-queues its pops, removes its sends,
    /// truncates the trace and journal, restores the channel telemetry it
    /// touched, restores the process snapshot, and rewinds the RNG — the
    /// step leaves no observable footprint.
    fn rollback_step(
        &mut self,
        i: usize,
        cell: &StateCell,
        rng_save: StdRng,
        trace_mark: usize,
        journal_mark: usize,
    ) {
        // sketch observations staged by the undone step never happened
        self.telemetry.discard_staged();
        let mut txn = std::mem::take(&mut self.flow.as_mut().expect("flow armed").txn);
        for c in txn.sends.iter().rev() {
            let undone = self.queues.get_mut(c).and_then(VecDeque::pop_back);
            debug_assert!(undone.is_some(), "rolled-back send must still be queued");
        }
        for (c, v) in txn.pops.drain(..).rev() {
            self.queues.entry(c).or_default().push_front(v);
        }
        self.trace.truncate(trace_mark);
        for (c, saved) in txn.saved.drain(..) {
            match saved {
                // restore the meters in place; the stamp queue was not
                // touched inside the transaction (stamp maintenance is
                // deferred to commit) and survives as-is
                Some(snap) => {
                    self.telemetry.channels.entry(c).or_default().restore(snap);
                }
                None => {
                    self.telemetry.channels.remove(&c);
                }
            }
        }
        if let Some(journals) = self.journals.as_mut() {
            journals[i].ops.truncate(journal_mark);
        }
        assert!(
            self.procs[i].restore(cell),
            "backpressure rollback: `{}` rejected its own snapshot",
            self.procs[i].name()
        );
        self.rng = rng_save;
    }

    /// Accounts process `i` as blocked on a full send to `c` this round.
    /// Blocked is neither progress nor idleness: the step was rolled back
    /// (or skipped) and will be retried once the consumer frees credit.
    fn account_blocked(&mut self, i: usize, c: Chan) {
        self.counters[i].send_blocked += 1;
        self.counters[i].blocked_streak += 1;
        self.counters[i].max_blocked = self.counters[i]
            .max_blocked
            .max(self.counters[i].blocked_streak);
        self.telemetry.note_blocked_send(c);
        if self.round_blocked.is_none() {
            self.round_blocked = Some((i, c));
        }
    }

    fn account_idle(&mut self, i: usize) {
        let input_waiting = self.declared[i]
            .iter()
            .any(|c| self.queues.get(c).is_some_and(|q| !q.is_empty()));
        self.note_idle(i, input_waiting);
    }

    fn note_idle(&mut self, i: usize, input_waiting: bool) {
        self.counters[i].idle += 1;
        if input_waiting {
            self.counters[i].starve_streak += 1;
            self.counters[i].max_starved = self.counters[i]
                .max_starved
                .max(self.counters[i].starve_streak);
        } else {
            self.counters[i].starve_streak = 0;
        }
    }

    /// Fires every engine crash point whose step count has been reached.
    fn fire_due_crashes(&mut self) {
        let steps = self.steps;
        let (due, rest): (Vec<CrashPoint>, Vec<CrashPoint>) = self
            .crash_points
            .drain(..)
            .partition(|cp| steps >= cp.at_step);
        self.crash_points = rest;
        for cp in due {
            if cp.process < self.procs.len() {
                self.handle_crash(cp.process);
            }
        }
    }

    /// Marks process `i` crashed and decides its fate per the policy.
    fn handle_crash(&mut self, i: usize) {
        if self.crashed[i] {
            return;
        }
        self.crashed[i] = true;
        self.crash_steps[i] = self.steps;
        let Some(sup) = self.supervision else {
            // unsupervised: the process simply stays dead
            return;
        };
        // a crash mid-replay abandons the replay; drain the re-queued
        // values it had not yet re-consumed so the coming restart can
        // re-queue the full journal without duplication
        if let Some(r) = self.replays[i].take() {
            for (c, v) in r.pending_pops() {
                let front = self.queues.get_mut(&c).and_then(VecDeque::pop_front);
                debug_assert_eq!(front, Some(v), "re-queued value must still be at the front");
                let _ = (front, v);
            }
        }
        // model the state loss of a real crash (best-effort; restore or
        // genesis replay rebuilds the state either way)
        let _ = self.procs[i].reset();
        if self.restarts[i] >= sup.max_restarts {
            self.escalated = Some(self.procs[i].name().to_owned());
            return;
        }
        match sup.backoff_for(self.restarts[i]) {
            Some(b) => self.backoff[i] = Some(b),
            None => self.escalated = Some(self.procs[i].name().to_owned()),
        }
    }

    /// Counts down pending restarts at the end of each round, performing
    /// those that reach zero.
    fn tick_backoffs(&mut self) {
        for i in 0..self.backoff.len() {
            match self.backoff[i] {
                Some(0) => {
                    self.backoff[i] = None;
                    self.perform_restart(i);
                }
                Some(b) => self.backoff[i] = Some(b - 1),
                None => {}
            }
        }
    }

    /// Restores process `i` (snapshot or genesis reset), re-queues the
    /// values its journal shows it consumed, and arms the replay.
    fn perform_restart(&mut self, i: usize) {
        let name = self.procs[i].name().to_owned();
        let (method, from_step) = match self
            .last_checkpoint
            .as_ref()
            .and_then(|c| c.process_state(i))
        {
            Some(cell) => {
                let from = self.last_checkpoint.as_ref().map_or(0, Checkpoint::steps);
                let cell = cell.clone();
                if !self.procs[i].restore(&cell) {
                    self.escalated = Some(name);
                    return;
                }
                (RestoreMethod::Snapshot, from)
            }
            None => {
                if !self.procs[i].reset() {
                    // no snapshot hook and no reset hook: unrecoverable
                    self.escalated = Some(name);
                    return;
                }
                (RestoreMethod::ReplayFromGenesis, 0)
            }
        };
        if !self.procs[i].restart() {
            self.escalated = Some(name);
            return;
        }
        let journal = &self.journals.as_ref().expect("supervised")[i];
        for (c, v) in journal.popped().iter().rev() {
            self.queues.entry(*c).or_default().push_front(*v);
        }
        let replay = Replay::from_journal(journal);
        let replayed_ops = replay.ops.len();
        if replayed_ops > 0 {
            self.replays[i] = Some(replay);
        }
        self.crashed[i] = false;
        self.restarts[i] += 1;
        // a restart is progress: the revived process must be offered
        // steps before the network may quiesce
        self.round_progressed = true;
        self.recoveries.push(RecoveryRecord {
            process: name,
            crash_step: self.crash_steps[i],
            restart_step: self.steps,
            restored_from_step: from_step,
            replayed_ops,
            method,
        });
    }

    /// End-of-round release from engine-interposed links; returns true if
    /// anything was delivered. Forces one release per buffering link when
    /// the processes themselves made no progress, so link buffers drain
    /// before quiescence.
    fn pump_links(&mut self, force: bool) -> bool {
        let mut any = false;
        let Engine {
            links,
            queues,
            trace,
            telemetry,
            ..
        } = self;
        for link in links.iter_mut() {
            let c = link.chan();
            for (v, event) in link.pump(force) {
                if let Some(e) = event {
                    telemetry.note_link_fault(c, e);
                }
                raw_send(queues, trace, Some(telemetry), None, c, v);
                any = true;
            }
        }
        any
    }

    /// End-of-round tick for the reliable (ARQ) links: media deliver,
    /// acks advance windows, retransmit timers count down. Returns true
    /// if any link did observable work — retry timers ticking count, so a
    /// network waiting out a retransmission backoff cannot quiesce.
    fn pump_reliables(&mut self, force: bool) -> bool {
        let mut any = false;
        let Engine {
            reliables,
            queues,
            trace,
            telemetry,
            ..
        } = self;
        for link in reliables.iter_mut() {
            if link.pump(queues, trace, telemetry, force) {
                any = true;
            }
        }
        any
    }

    fn links_drained(&self) -> bool {
        self.links.iter().all(|l| l.pending() == 0)
    }

    fn reliables_drained(&self) -> bool {
        self.reliables.iter().all(|r| r.pending() == 0)
    }

    /// True while any crash is unhandled: a dead process, a pending
    /// backoff, or an armed replay. The network must not quiesce (and a
    /// step-bound cut is reported as mid-recovery) until this clears.
    fn recovery_pending(&self) -> bool {
        self.supervision.is_some()
            && (0..self.crashed.len())
                .any(|i| self.crashed[i] || self.backoff[i].is_some() || self.replays[i].is_some())
    }

    /// Captures the whole-run checkpoint at `checkpoint_at`, and the
    /// supervisor's periodic checkpoint when due. Pure observation: the
    /// run is unaffected.
    fn maybe_capture(&mut self, sched: &dyn Scheduler) {
        if self.checkpoint_at == Some(self.steps) && self.captured.is_none() {
            // a checkpointed monitor must have observed exactly the
            // checkpointed trace (any conviction here was already taken
            // by the per-step drain when aborting is armed)
            let _ = self.drain_monitor();
            self.captured = Some(self.capture(sched));
        }
        if let Some(sup) = self.supervision {
            let due = self.last_checkpoint.is_none()
                || (self.steps > 0 && self.steps.is_multiple_of(sup.checkpoint_every));
            // deferred while a recovery is in flight: a checkpoint taken
            // mid-replay would not cohere with the truncated journals
            if due && !self.recovery_pending() {
                let _ = self.drain_monitor();
                let ckpt = self.capture(sched);
                if let Some(journals) = self.journals.as_mut() {
                    for (j, cell) in journals.iter_mut().zip(&ckpt.processes) {
                        // hooked processes restart from the cell plus the
                        // journal since this point; hookless ones replay
                        // from genesis, so their journals never truncate
                        if cell.is_some() {
                            j.ops.clear();
                        }
                    }
                }
                self.last_checkpoint = Some(ckpt);
            }
        }
    }

    fn capture(&self, sched: &dyn Scheduler) -> Checkpoint {
        // A capture at the last slot of a round stores the end-of-round
        // state: resume refills a fresh round immediately, so the
        // in-flight round's counter increment would otherwise be lost.
        let round_done = self.steps > 0 && self.pending.is_empty();
        Checkpoint {
            steps: self.steps,
            rounds: if round_done {
                self.rounds + 1
            } else {
                self.rounds
            },
            queues: self.queues.clone(),
            trace: self.trace.clone(),
            rng: self.rng.clone(),
            telemetry: self.telemetry.clone(),
            counters: self.counters.clone(),
            processes: self.procs.iter().map(|p| p.snapshot()).collect(),
            scheduler: sched.snapshot(),
            pending_round: self.pending.clone(),
            round_progressed: if round_done {
                false
            } else {
                self.round_progressed
            },
            monitor: self.monitor.clone(),
        }
    }

    fn finish_at_bound(&mut self) -> RunReport {
        if self.recovery_pending() {
            // part of the history is missing, not merely truncated —
            // flag it so prefix checks don't mislead
            return self.build(RunStatus::BudgetExhaustedDuringRecovery);
        }
        let probe = probe_quiescent(
            self.procs,
            &self.crashed,
            &mut self.queues,
            &mut self.trace,
            &mut self.rng,
        );
        if probe && self.links_drained() && self.reliables_drained() {
            self.build(RunStatus::Quiescent)
        } else {
            self.build(RunStatus::BudgetExhausted)
        }
    }

    fn build(&mut self, status: RunStatus) -> RunReport {
        // final safety drain: whatever path ended the run, the monitor
        // must have observed every committed send before `finish` reads
        // its state (abort no longer applies — the run is over)
        let _ = self.drain_monitor();
        // a quiescent run through an exhausted reliable link terminated
        // cleanly but abandoned the undelivered tail — degrade the
        // status so the conformance bridge can name the link
        let status = if status.is_quiescent() {
            match self.reliables.iter().find(|r| r.exhausted()) {
                Some(r) => RunStatus::ReliabilityExhausted {
                    link: format!("arq@{}", r.chan()),
                },
                None => status,
            }
        } else {
            status
        };
        let quiescent = status.is_quiescent();
        let procs: &[Box<dyn Process>] = self.procs;
        let name_of = |i: usize| procs[i].name().to_owned();
        let process_reports = procs
            .iter()
            .enumerate()
            .zip(&self.counters)
            .map(|((i, p), c)| ProcessReport {
                name: p.name().to_owned(),
                progress: c.progress,
                idle: c.idle,
                max_starved_rounds: c.max_starved,
                crashed: self.crashed[i] || p.crashed(),
                restarts: self.restarts[i],
                send_blocked: c.send_blocked,
                max_blocked_rounds: c.max_blocked,
            })
            .collect();
        let flow = self.flow.as_ref();
        let channel_reports = ascending(&self.telemetry.channels)
            .into_iter()
            .map(|(c, k)| ChannelReport {
                chan: c,
                sends: k.sends,
                receives: k.receives,
                high_water: k.high_water,
                residual: self.queues.get(&c).map_or(0, VecDeque::len),
                consumer: k.consumer.map(name_of),
                capacity: flow.filter(|f| f.managed.contains(c)).map(|f| f.capacity),
                blocked_sends: k.blocked,
                shed: k.shed,
            })
            .collect();
        let consumer_violations = self
            .telemetry
            .violations
            .iter()
            .map(|&(chan, first, second)| ConsumerViolation {
                chan,
                first: name_of(first),
                second: name_of(second),
            })
            .collect();
        let faults = self
            .telemetry
            .faults
            .iter()
            .map(|(src, e)| FaultRecord {
                source: match src {
                    FaultSource::Proc(i) => name_of(*i),
                    FaultSource::Link(c) => format!("link@{c}"),
                },
                event: e.clone(),
            })
            .collect();
        debug_assert!(
            self.telemetry.staged.is_empty(),
            "sketch observations staged past their commit point"
        );
        RunReport {
            trace: Trace::finite(std::mem::take(&mut self.trace)),
            quiescent,
            status,
            steps: self.steps,
            rounds: self.rounds,
            processes: process_reports,
            channels: channel_reports,
            consumer_violations,
            faults,
            recoveries: std::mem::take(&mut self.recoveries),
            sketches: self.telemetry.finish_sketches(),
        }
    }
}

/// Zero-cost quiescence probe at the step bound: offer every live process
/// one step with telemetry off, then roll the channel state and trace
/// back. Returns true iff no process could make progress — i.e. the
/// network had already quiesced when the bound fired. Engine-crashed
/// processes are skipped (they are dead, not idle).
///
/// The rollback restores queues and trace exactly; a process that *did*
/// progress during the probe may have advanced internal state, which is
/// harmless because the run is over either way (the network must not be
/// re-run after hitting the bound).
fn probe_quiescent(
    processes: &mut [Box<dyn Process>],
    crashed: &[bool],
    queues: &mut ChanMap<VecDeque<Value>>,
    trace: &mut Vec<Event>,
    rng: &mut StdRng,
) -> bool {
    let saved_queues = queues.clone();
    let saved_len = trace.len();
    for (i, p) in processes.iter_mut().enumerate() {
        if crashed[i] {
            continue;
        }
        let mut ctx = StepCtx::bare(queues, trace, rng, None, i);
        if p.step(&mut ctx) == StepResult::Progress {
            *queues = saved_queues;
            trace.truncate(saved_len);
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CrashPoint, Fault, LinkFaultSpec};
    use crate::procs::{Apply, Source, Zip2};
    use crate::scheduler::{Adversarial, RandomSched, RoundRobin};

    fn c() -> Chan {
        Chan::new(0)
    }
    fn d() -> Chan {
        Chan::new(1)
    }

    fn supervised(sup: SupervisorOptions) -> RunWith<'static> {
        RunWith {
            supervisor: Some(sup),
            ..RunWith::default()
        }
    }

    fn faulted(schedule: &FaultSchedule) -> RunWith<'_> {
        RunWith {
            faults: Some(schedule),
            ..RunWith::default()
        }
    }

    fn pipeline() -> Network {
        let mut net = Network::new();
        net.add(Source::new(
            "env",
            c(),
            [Value::Int(1), Value::Int(2), Value::Int(3)],
        ));
        net.add(Apply::int_affine("double", c(), d(), 2, 0));
        net
    }

    #[test]
    fn pipeline_quiesces_with_expected_history() {
        let run = pipeline().run(&mut RoundRobin::new(), RunOptions::default());
        assert!(run.quiescent);
        assert_eq!(run.status, RunStatus::Quiescent);
        assert_eq!(
            run.trace.seq_on(d()).take(10),
            vec![Value::Int(2), Value::Int(4), Value::Int(6)]
        );
        assert_eq!(
            run.trace.seq_on(c()).take(10),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn kahn_determinism_across_schedulers() {
        // per-channel histories agree under all schedulers (Kahn's
        // determinism theorem for deterministic processes).
        let a = pipeline().run(&mut RoundRobin::new(), RunOptions::default());
        let b = pipeline().run(&mut RandomSched::new(9), RunOptions::default());
        let cc = pipeline().run(&mut Adversarial::new(5), RunOptions::default());
        for run in [&b, &cc] {
            assert!(run.quiescent);
            assert_eq!(run.trace.seq_on(c()), a.trace.seq_on(c()));
            assert_eq!(run.trace.seq_on(d()), a.trace.seq_on(d()));
        }
    }

    #[test]
    fn step_bound_halts_runaway() {
        // a source with an infinite lasso never quiesces
        let mut net = Network::new();
        net.add(Source::lasso(
            "ticks",
            c(),
            eqp_trace::Lasso::repeat(vec![Value::tt()]),
        ));
        let run = net.run(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 25,
                seed: 0,
                ..RunOptions::default()
            },
        );
        assert!(!run.quiescent);
        assert_eq!(run.status, RunStatus::BudgetExhausted);
        assert_eq!(run.steps, 25);
        assert_eq!(run.trace.seq_on(c()).take(100).len(), 25);
    }

    #[test]
    fn quiescence_in_exactly_max_steps_is_reported() {
        // Regression: the pipeline quiesces after exactly 6 progress
        // steps (3 source sends + 3 doubles). With max_steps == 6 the
        // bound fires before the engine observes a no-progress round; the
        // probe must still report quiescence (and leave the trace exact).
        let run = pipeline().run(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 6,
                seed: 0,
                ..RunOptions::default()
            },
        );
        assert!(
            run.quiescent,
            "network quiescing in exactly max_steps must report quiescent"
        );
        assert_eq!(run.steps, 6);
        assert_eq!(
            run.trace.seq_on(d()).take(10),
            vec![Value::Int(2), Value::Int(4), Value::Int(6)]
        );
    }

    #[test]
    fn bound_cut_mid_stream_still_reports_nonquiescent() {
        // the same pipeline cut after 4 of its 6 steps: genuinely cut.
        let run = pipeline().run(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 4,
                seed: 0,
                ..RunOptions::default()
            },
        );
        assert!(!run.quiescent);
        assert_eq!(run.steps, 4);
    }

    #[test]
    #[should_panic(expected = "already consumed")]
    fn double_consumer_rejected() {
        let mut net = Network::new();
        net.add(Apply::int_affine("w1", c(), d(), 1, 0));
        net.add(Apply::int_affine("w2", c(), Chan::new(9), 1, 0));
    }

    #[test]
    fn empty_network_quiesces_immediately() {
        let mut net = Network::new();
        assert!(net.is_empty());
        let run = net.run(&mut RoundRobin::new(), RunOptions::default());
        assert!(run.quiescent);
        assert_eq!(run.steps, 0);
        assert!(run.trace.is_empty());
    }

    #[test]
    fn preloaded_input_consumed_but_unrecorded() {
        let mut net = Network::new();
        net.add(Apply::int_affine("double", c(), d(), 2, 0));
        let mut pre = net.preload(c(), [Value::Int(5)]);
        let run = pre.run(&mut RoundRobin::new(), RunOptions::default());
        assert!(run.quiescent);
        assert_eq!(run.trace.seq_on(d()).take(4), vec![Value::Int(10)]);
        // the preloaded input itself is not in the trace
        assert_eq!(run.trace.seq_on(c()).take(4), Vec::<Value>::new());
    }

    #[test]
    fn preload_two_channels_chained() {
        // Regression: preloading a second channel used to operate on the
        // drained husk and silently run zero processes.
        let (l, r, o) = (Chan::new(10), Chan::new(11), Chan::new(12));
        let mut net = Network::new();
        net.add(Zip2::add("sum", l, r, o));
        let run = net
            .preload(l, [Value::Int(1), Value::Int(2)])
            .preload(r, [Value::Int(10), Value::Int(20)])
            .run(&mut RoundRobin::new(), RunOptions::default());
        assert!(run.quiescent);
        assert_eq!(
            run.trace.seq_on(o).take(4),
            vec![Value::Int(11), Value::Int(22)]
        );
    }

    #[test]
    fn preload_all_pairs() {
        let (l, r, o) = (Chan::new(10), Chan::new(11), Chan::new(12));
        let mut net = Network::new();
        net.add(Zip2::add("sum", l, r, o));
        let run = net
            .preload_all([(l, vec![Value::Int(3)]), (r, vec![Value::Int(4)])])
            .run(&mut RoundRobin::new(), RunOptions::default());
        assert!(run.quiescent);
        assert_eq!(run.trace.seq_on(o).take(4), vec![Value::Int(7)]);
    }

    #[test]
    #[should_panic(expected = "already converted by `preload`")]
    fn second_preload_on_drained_network_fails_fast() {
        let mut net = Network::new();
        net.add(Apply::int_affine("double", c(), d(), 2, 0));
        let _first = net.preload(c(), [Value::Int(1)]);
        let _second = net.preload(d(), [Value::Int(2)]);
    }

    #[test]
    fn report_counts_progress_idle_and_channels() {
        let mut net = pipeline();
        let report = net.run_report(&mut RoundRobin::new(), RunOptions::default());
        assert!(report.quiescent);
        assert_eq!(report.steps, 6);
        let env = &report.processes[0];
        let dbl = &report.processes[1];
        assert_eq!((env.name.as_str(), env.progress), ("env", 3));
        assert_eq!((dbl.name.as_str(), dbl.progress), ("double", 3));
        let on_c = report.channel(c()).expect("channel c metered");
        assert_eq!(on_c.sends, 3);
        assert_eq!(on_c.receives, 3);
        assert_eq!(on_c.residual, 0);
        assert_eq!(on_c.consumer.as_deref(), Some("double"));
        assert!(report.single_consumer_ok());
        assert!(report.to_string().contains("process `double`"));
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let full = pipeline().run_report(&mut RoundRobin::new(), RunOptions::default());
        let with = RunWith {
            checkpoint_at: Some(3),
            ..RunWith::default()
        };
        let out = pipeline().run_with(&mut RoundRobin::new(), RunOptions::default(), with);
        let (partial, ckpt) = (out.report, out.checkpoint);
        // capture is pure observation: the checkpointed run is unchanged
        assert_eq!(partial.trace, full.trace);
        assert_eq!(partial.steps, full.steps);
        let ckpt = ckpt.expect("captured at step 3");
        assert_eq!(ckpt.steps(), 3);
        assert!(ckpt.is_complete());
        let mut fresh = pipeline();
        let mut sched = RoundRobin::new();
        let resumed = fresh
            .resume(ckpt, &mut sched, RunOptions::default(), None)
            .expect("identically built network resumes")
            .report;
        assert_eq!(resumed.trace, full.trace);
        assert_eq!(resumed.steps, full.steps);
        assert_eq!(resumed.rounds, full.rounds);
        assert_eq!(resumed.processes, full.processes);
        assert_eq!(resumed.channels, full.channels);
    }

    #[test]
    fn resume_rejects_mismatched_networks() {
        let with = RunWith {
            checkpoint_at: Some(2),
            ..RunWith::default()
        };
        let ckpt = pipeline()
            .run_with(&mut RoundRobin::new(), RunOptions::default(), with)
            .checkpoint
            .expect("captured");
        let mut small = Network::new();
        small.add(Source::new("env", c(), [Value::Int(1)]));
        let err = small
            .resume(ckpt, &mut RoundRobin::new(), RunOptions::default(), None)
            .expect_err("arity mismatch");
        assert!(matches!(err, SnapshotError::ArityMismatch { .. }));
    }

    #[test]
    fn supervised_run_recovers_a_crashed_process() {
        let baseline = pipeline().run_report(&mut RoundRobin::new(), RunOptions::default());
        let mut net = pipeline();
        net.wrap_crash_at(1, 2);
        let report = net
            .run_with(
                &mut RoundRobin::new(),
                RunOptions::default(),
                supervised(SupervisorOptions::one_for_one()),
            )
            .report;
        assert!(report.quiescent, "recovered run quiesces:\n{report}");
        assert_eq!(report.status, RunStatus::Quiescent);
        assert_eq!(report.trace.seq_on(c()), baseline.trace.seq_on(c()));
        assert_eq!(report.trace.seq_on(d()), baseline.trace.seq_on(d()));
        assert_eq!(report.recoveries.len(), 1);
        let dbl = &report.processes[1];
        assert_eq!(dbl.restarts, 1);
        assert!(!dbl.crashed, "recovered, not dead");
        assert!(report.to_string().contains("recovery:"));
    }

    #[test]
    fn supervised_recovery_with_backoff() {
        let baseline = pipeline().run_report(&mut RoundRobin::new(), RunOptions::default());
        let mut net = pipeline();
        net.wrap_crash_at(1, 1);
        let report = net
            .run_with(
                &mut RoundRobin::new(),
                RunOptions::default(),
                supervised(SupervisorOptions::with_backoff(2, 8)),
            )
            .report;
        assert!(report.quiescent);
        assert_eq!(report.trace.seq_on(d()), baseline.trace.seq_on(d()));
        let rec = &report.recoveries[0];
        assert!(
            rec.restart_step >= rec.crash_step,
            "backoff delays the restart"
        );
    }

    #[test]
    fn escalate_policy_fails_the_run_on_first_crash() {
        let mut net = pipeline();
        net.wrap_crash_at(1, 2);
        let report = net
            .run_with(
                &mut RoundRobin::new(),
                RunOptions::default(),
                supervised(SupervisorOptions::escalate()),
            )
            .report;
        assert!(!report.quiescent);
        assert!(
            matches!(report.status, RunStatus::Escalated { ref process } if process.contains("double")),
            "unexpected status {:?}",
            report.status
        );
    }

    #[test]
    fn restart_budget_escalates_when_exceeded() {
        let mut net = pipeline();
        net.wrap_crash_at(1, 2);
        let report = net
            .run_with(
                &mut RoundRobin::new(),
                RunOptions::default(),
                supervised(SupervisorOptions::one_for_one().max_restarts(0)),
            )
            .report;
        assert!(matches!(report.status, RunStatus::Escalated { .. }));
    }

    #[test]
    fn budget_hit_mid_recovery_reports_distinct_status() {
        // the fuse fires on `double`'s 2nd progress step — the run's 5th —
        // so with max_steps == 5 the bound lands while the replay is
        // still armed
        let mut net = pipeline();
        net.wrap_crash_at(1, 2);
        let report = net
            .run_with(
                &mut RoundRobin::new(),
                RunOptions {
                    max_steps: 5,
                    seed: 0,
                    ..RunOptions::default()
                },
                supervised(SupervisorOptions::one_for_one()),
            )
            .report;
        assert_eq!(report.status, RunStatus::BudgetExhaustedDuringRecovery);
        assert!(!report.quiescent);
        // the same bound without supervision is plain exhaustion
        let mut net = pipeline();
        net.wrap_crash_at(1, 2);
        let report = net.run_report(
            &mut RoundRobin::new(),
            RunOptions {
                max_steps: 4,
                seed: 0,
                ..RunOptions::default()
            },
        );
        assert_eq!(report.status, RunStatus::BudgetExhausted);
    }

    #[test]
    fn engine_link_drop_convicts_with_named_fault() {
        let schedule = FaultSchedule {
            crashes: vec![],
            links: vec![LinkFaultSpec {
                chan: c(),
                fault: Fault::Drop { period: 2 },
            }],
        };
        let report = pipeline()
            .run_with(
                &mut RoundRobin::new(),
                RunOptions::default(),
                faulted(&schedule),
            )
            .report;
        assert!(report.quiescent);
        // message #2 on c is swallowed before it ever reaches the trace
        assert_eq!(
            report.trace.seq_on(c()).take(8),
            vec![Value::Int(1), Value::Int(3)]
        );
        assert_eq!(
            report.trace.seq_on(d()).take(8),
            vec![Value::Int(2), Value::Int(6)]
        );
        let log = report.fault_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].source.starts_with("link@"));
        assert_eq!(log[0].event.value, Value::Int(2));
    }

    #[test]
    fn engine_link_delay_is_benign_and_drains() {
        let schedule = FaultSchedule {
            crashes: vec![],
            links: vec![LinkFaultSpec {
                chan: c(),
                fault: Fault::Delay { slack: 2 },
            }],
        };
        let baseline = pipeline().run_report(&mut RoundRobin::new(), RunOptions::default());
        let report = pipeline()
            .run_with(
                &mut RoundRobin::new(),
                RunOptions::default(),
                faulted(&schedule),
            )
            .report;
        assert!(report.quiescent, "delayed links drain before quiescence");
        assert_eq!(report.trace.seq_on(c()), baseline.trace.seq_on(c()));
        assert_eq!(report.trace.seq_on(d()), baseline.trace.seq_on(d()));
        assert!(report.fault_log().is_empty());
    }

    #[test]
    fn engine_crash_point_recovers_under_supervision() {
        let baseline = pipeline().run_report(&mut RoundRobin::new(), RunOptions::default());
        let schedule = FaultSchedule {
            crashes: vec![CrashPoint {
                process: 1,
                at_step: 3,
            }],
            links: vec![],
        };
        let with = RunWith {
            supervisor: Some(SupervisorOptions::one_for_one()),
            ..faulted(&schedule)
        };
        let report = pipeline()
            .run_with(&mut RoundRobin::new(), RunOptions::default(), with)
            .report;
        assert!(report.quiescent, "recovered:\n{report}");
        assert_eq!(report.trace.seq_on(c()), baseline.trace.seq_on(c()));
        assert_eq!(report.trace.seq_on(d()), baseline.trace.seq_on(d()));
        assert_eq!(report.recoveries.len(), 1);
        // unsupervised, the same crash loses the tail of d's history
        let report = pipeline()
            .run_with(
                &mut RoundRobin::new(),
                RunOptions::default(),
                faulted(&schedule),
            )
            .report;
        assert!(report.processes[1].crashed);
        assert!(report.trace.seq_on(d()).take(8).len() < 3);
    }

    /// A checkpointed run with `extra` attached must be refused.
    fn checkpoint_with(extra: RunWith<'_>) {
        let with = RunWith {
            checkpoint_at: Some(2),
            ..extra
        };
        let _ = pipeline().run_with(&mut RoundRobin::new(), RunOptions::default(), with);
    }

    #[test]
    #[should_panic(expected = "`checkpoint_at` cannot be combined with `faults`")]
    fn checkpoint_with_faults_is_rejected() {
        checkpoint_with(faulted(&FaultSchedule::none()));
    }

    #[test]
    #[should_panic(expected = "`checkpoint_at` cannot be combined with `reliable`")]
    fn checkpoint_with_reliable_is_rejected() {
        let cfg = ReliableConfig::new(vec![c()]);
        checkpoint_with(RunWith {
            reliable: Some(&cfg),
            ..RunWith::default()
        });
    }

    #[test]
    #[should_panic(expected = "`checkpoint_at` cannot be combined with `supervisor`")]
    fn checkpoint_with_supervisor_is_rejected() {
        checkpoint_with(supervised(SupervisorOptions::one_for_one()));
    }

    #[test]
    fn wrap_crash_at_out_of_range_panics() {
        let mut net = pipeline();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.wrap_crash_at(9, 1);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn channels_and_names_enumerate_the_surface() {
        let net = pipeline();
        assert_eq!(net.channels(), vec![c(), d()]);
        assert_eq!(net.process_names(), vec!["env", "double"]);
    }

    /// Fills `full` once, then every step sends on the fresh `side`
    /// channel before `full` again: that step blocks and rolls back.
    struct SideThenFull {
        sent: u64,
    }

    impl Process for SideThenFull {
        fn name(&self) -> &str {
            "side-then-full"
        }

        fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepResult {
            if self.sent > 0 {
                ctx.send(Chan::new(7), Value::Int(0));
            }
            ctx.send(Chan::new(8), Value::Int(1));
            self.sent += 1;
            StepResult::Progress
        }

        fn snapshot(&self) -> Option<StateCell> {
            Some(StateCell::Nat(self.sent))
        }

        fn restore(&mut self, state: &StateCell) -> bool {
            state.as_nat().map(|n| self.sent = n).is_some()
        }
    }

    /// Declares `full` as its input (so the channel is capacity-managed)
    /// and never reads it.
    struct Deaf;

    impl Process for Deaf {
        fn name(&self) -> &str {
            "deaf"
        }

        fn inputs(&self) -> Vec<Chan> {
            vec![Chan::new(8)]
        }

        fn step(&mut self, _: &mut StepCtx<'_>) -> StepResult {
            StepResult::Idle
        }
    }

    #[test]
    fn rolled_back_first_send_leaves_no_meters() {
        let mut net = Network::new();
        net.add(SideThenFull { sent: 0 });
        net.add(Deaf);
        let report = net.run_report(&mut RoundRobin::new(), RunOptions::bounded(1));
        assert_eq!(
            report.status,
            RunStatus::Backpressured {
                process: "side-then-full".into(),
                chan: Chan::new(8),
            }
        );
        assert!(report.trace.events().is_some_and(|e| e.len() == 1));
        // the rolled-back step's send on channel 7 never happened: it has
        // no meters, so no report row
        let rows: Vec<(Chan, usize, usize)> = report
            .channels
            .iter()
            .map(|r| (r.chan, r.sends, r.blocked_sends))
            .collect();
        assert_eq!(
            rows,
            vec![(Chan::new(8), 1, report.processes[0].send_blocked)]
        );
        assert!(report.processes[0].send_blocked > 0);
    }
}
