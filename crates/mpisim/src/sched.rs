//! The event-driven world: a deterministic virtual-clock scheduler.
//!
//! Where the thread engine gives every rank an OS thread and pays wall
//! clock for every timeout, the [`EventEngine`] runs all ranks inside
//! one event loop on a **virtual clock**:
//!
//! * virtual time is a `u64` nanosecond counter that only ever jumps to
//!   the timestamp of the next scheduled event — nothing sleeps;
//! * a send is stamped at the sender's local virtual time and delivered
//!   `latency` later as a calendar event;
//! * a bounded receive registers a **timer event** at its virtual
//!   deadline — timeouts are first-class events, so a reduction that
//!   waits out seconds of (virtual) timeout budget for dead partners
//!   completes in microseconds of wall-clock time, with zero spinning;
//! * scripted [`FaultPlan`] delays advance the rank's local clock
//!   instead of sleeping, and kills drop the rank's task at exactly the
//!   scripted communication op.
//!
//! # Determinism
//!
//! Pending events sit in a **calendar**: per virtual timestamp, that
//! timestamp's events in the order they were scheduled, which is
//! deterministic because events are only scheduled while effects are
//! applied, in rank-ascending order. All events of the earliest
//! timestamp form a **batch**, popped whole: its ranks are stepped —
//! split into runs of whole ranks, one per worker of a bounded pool,
//! each with one reused effects buffer — against the liveness at the
//! batch's start, and their effects (sends, timers, deaths) are applied
//! in rank order afterwards. Worker-pool size therefore cannot change
//! any outcome: runs are byte-identical for 1, 2, or N workers, and the
//! event count and final virtual time are identical too (pinned by the
//! determinism tests, which also pin the order events are processed
//! in).
//!
//! # Virtual deadlock
//!
//! If the calendar empties while live tasks still wait without a
//! timeout, no message can ever arrive: the scheduler reports a
//! structured [`SchedError::Deadlock`] naming the blocked ranks and any
//! wait cycles among them in [`Run::outputs`] ([`Executor::run`]; the
//! [`EventEngine::run_tasks_with_stats`] shortcut panics with the
//! error's message) — the event-loop analogue of the thread engine's
//! watchdog-guarded deadlock tests.
//!
//! # Tracing
//!
//! [`Executor::run`] with `trace` set records a structured
//! happens-before trace ([`HbTrace`]) of the run for the offline
//! analyzer in [`crate::hb`]. The hook is a per-batch boolean: when
//! tracing is off, the only cost is testing that flag, and the recorded
//! trace — timestamps included, since the clock is virtual — is
//! byte-identical for any worker-pool size.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use crate::comm::{CommError, Tag};
use crate::fault::{FaultPlan, RankKilled};
use crate::task::{Action, Executor, Msg, Payload, RankTask, Run, TaskCtx, Wake};
use crate::trace::{HbTrace, TraceEvent, TraceKind};

/// Virtual time, in nanoseconds since the start of the run.
pub type SimTime = u64;

/// Virtual delivery latency per message (1 µs). At least 1, so a
/// message can never arrive in the batch that sent it.
const LATENCY_NS: SimTime = 1_000;

/// Tuning knobs for the [`EventEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Worker threads stepping ready tasks within one batch. `0` and
    /// `1` both mean the single-threaded core. Pool size never changes
    /// results — only wall-clock time.
    pub workers: usize,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig { workers: 1 }
    }
}

/// What one event-engine run did, in virtual-clock terms. Everything
/// here is deterministic for a fixed (size, plan, tasks) tuple,
/// independent of the worker-pool size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events processed (messages delivered, timers fired, rank
    /// starts), including stale timers skipped after their receive was
    /// satisfied.
    pub events: u64,
    /// Virtual timestamp of the last *acted-upon* event — the virtual
    /// makespan of the run (stale timers do not extend it).
    pub virtual_time_ns: SimTime,
    /// High-water mark of the events pending in the calendar.
    pub max_queue_depth: usize,
    /// Messages sent (and accepted for delivery).
    pub messages: u64,
    /// Messages dropped because the destination died before delivery.
    pub dropped: u64,
    /// Timer events that woke a task with [`Wake::Timeout`].
    pub timeouts: u64,
    /// Timer events skipped because their receive had been satisfied.
    pub stale_timers: u64,
    /// Ranks killed by the fault plan.
    pub ranks_lost: u64,
}

/// A structured scheduler failure — the event engine's replacement for
/// the former bare "virtual deadlock" panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The calendar emptied while live ranks still waited on messages
    /// that can never arrive.
    Deadlock {
        /// Wait cycles among the blocked ranks, each listed in wait
        /// order and rotated to start at its smallest member (a rank in
        /// a cycle waits on the next; the last waits on the first).
        /// Empty when every blocked rank waits on something outside any
        /// cycle — a dead, finished, or wildcard peer.
        cycles: Vec<Vec<usize>>,
        /// Every blocked rank, ascending.
        blocked: Vec<usize>,
        /// Virtual time at which the calendar emptied.
        at_ns: SimTime,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Deadlock {
                cycles,
                blocked,
                at_ns,
            } => {
                write!(
                    f,
                    "virtual deadlock: ranks {blocked:?} wait on messages that can never \
                     arrive (no events left at virtual time {at_ns} ns)"
                )?;
                for cycle in cycles {
                    let chain: Vec<String> = cycle
                        .iter()
                        .chain(cycle.first())
                        .map(|r| r.to_string())
                        .collect();
                    write!(f, "; wait cycle: {}", chain.join(" -> "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// The event-driven executor. See the module docs for semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventEngine {
    /// Scheduler configuration.
    pub config: SchedConfig,
}

impl EventEngine {
    /// Engine with the default configuration (single-threaded core,
    /// 1 µs message latency).
    pub fn new() -> EventEngine {
        EventEngine::default()
    }

    /// Engine with a bounded worker pool of `workers` threads.
    pub fn with_workers(workers: usize) -> EventEngine {
        EventEngine {
            config: SchedConfig { workers },
        }
    }
}

/// A scheduled event of one rank.
enum EvKind {
    /// Initial wake of `rank` at time 0.
    Start { rank: usize },
    /// Deliver a message to `dest`.
    Deliver { dest: usize, msg: Msg },
    /// A receive deadline for `rank`; stale if `gen` no longer matches.
    Timer { rank: usize, gen: u64 },
}

impl EvKind {
    fn rank(&self) -> usize {
        match *self {
            EvKind::Start { rank } | EvKind::Timer { rank, .. } => rank,
            EvKind::Deliver { dest, .. } => dest,
        }
    }
}

/// Pending events: per timestamp, that timestamp's events in the order
/// they were scheduled. Every event is scheduled while a batch's effects
/// are applied, in rank order, so that order is deterministic, and a
/// timestamp's events are popped as one batch.
#[derive(Default)]
struct Calendar {
    slots: BTreeMap<SimTime, Vec<EvKind>>,
    /// Events in `slots`.
    pending: usize,
}

impl Calendar {
    fn push(&mut self, at: SimTime, kind: EvKind) {
        self.slots.entry(at).or_default().push(kind);
        self.pending += 1;
    }

    /// The earliest timestamp and all its events.
    fn pop(&mut self) -> Option<(SimTime, Vec<EvKind>)> {
        let (at, batch) = self.slots.pop_first()?;
        self.pending -= batch.len();
        Some((at, batch))
    }
}

/// An active bounded or unbounded receive.
struct Wait {
    src: Option<usize>,
    tag: Tag,
}

impl Wait {
    fn matches(&self, msg: &Msg) -> bool {
        msg.tag == self.tag && self.src.map(|s| s == msg.src).unwrap_or(true)
    }
}

/// Everything the scheduler tracks per rank.
struct RankState<T: RankTask> {
    life: Life<T>,
    /// Delivered but unmatched messages, in delivery order.
    buffer: Vec<Msg>,
    wait: Option<Wait>,
    /// Bumped on every new registered wait; timers carry the
    /// generation they were armed for, so satisfied waits make their
    /// timers stale instead of firing.
    wait_gen: u64,
    /// The rank's local virtual clock: max of the global clock and any
    /// scripted delays it has served. Sends and deadlines are stamped
    /// with this, so a delayed rank's messages arrive late — exactly
    /// like a straggler thread, minus the wall-clock sleep.
    local_now: SimTime,
    /// Communication ops issued — the [`FaultPlan`] time axis.
    ops: u64,
}

/// Where a rank is: stepping its task, finished with its output, or
/// killed by the fault plan.
enum Life<T: RankTask> {
    Running(T),
    Done(T::Out),
    Dead,
}

impl<T: RankTask> RankState<T> {
    fn new(task: T) -> RankState<T> {
        RankState {
            life: Life::Running(task),
            buffer: Vec::new(),
            wait: None,
            wait_gen: 0,
            local_now: 0,
            ops: 0,
        }
    }

    fn running(&self) -> bool {
        matches!(self.life, Life::Running(_))
    }

    /// The fault plan kills the rank here.
    fn die(&mut self, rank: usize, effects: &mut Effects) {
        self.life = Life::Dead;
        self.wait = None;
        self.buffer.clear();
        effects.died.push(rank);
        effects.rec(rank, self.local_now, TraceKind::Killed);
    }
}

/// The side effects of stepping one worker chunk of a batch, in the
/// order the chunk's ranks (ascending) produced them. One buffer per
/// worker, reused batch after batch.
#[derive(Default)]
struct Effects {
    /// Events to schedule, in the order they are scheduled: each rank's
    /// deliveries, then its timers.
    scheduled: Vec<(SimTime, EvKind)>,
    /// `(deadline, generation)` timers the rank being stepped armed,
    /// moved to `scheduled` once its events are stepped.
    timers: Vec<(SimTime, u64)>,
    /// Ranks the fault plan killed.
    died: Vec<usize>,
    /// Local tallies folded into [`SchedStats`] at apply time.
    sent: u64,
    dropped: u64,
    timeouts: u64,
    stale_timers: u64,
    /// Happens-before events recorded during the step, appended to
    /// their rank's trace lane at apply time. Only populated when
    /// `tracing`.
    trace: Vec<(usize, TraceEvent)>,
    /// The trace hook: when false (the default), recording is a single
    /// branch per call site and nothing allocates.
    tracing: bool,
}

impl Effects {
    /// Record `kind` of `rank` at virtual time `at` — a no-op unless
    /// tracing.
    fn rec(&mut self, rank: usize, at: SimTime, kind: TraceKind) {
        if self.tracing {
            self.trace.push((rank, TraceEvent { kind, at_ns: at }));
        }
    }
}

/// The [`TaskCtx`] a task sees while stepped by the event engine.
struct EventCtx<'a> {
    rank: usize,
    size: usize,
    ops: &'a mut u64,
    local_now: &'a mut SimTime,
    plan: &'a FaultPlan,
    /// Liveness at batch start: sends observe it, so results are
    /// independent of intra-batch stepping order.
    alive: &'a [bool],
    effects: &'a mut Effects,
}

impl TaskCtx for EventCtx<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dest: usize, tag: Tag, payload: Payload) -> Result<(), CommError> {
        assert!(dest < self.size, "send to rank {dest} out of range");
        let op = *self.ops;
        *self.ops += 1;
        if let Some(d) = self.plan.delay_at(self.rank, op) {
            *self.local_now += d.as_nanos() as SimTime;
        }
        if self.plan.kill_at(self.rank, op) {
            std::panic::panic_any(RankKilled);
        }
        let ok = self.alive[dest];
        let at = *self.local_now;
        self.effects
            .rec(self.rank, at, TraceKind::Send { dest, tag, ok });
        if !ok {
            return Err(CommError::disconnected(format!("send to rank {dest}")));
        }
        let msg = Msg {
            src: self.rank,
            tag,
            payload,
        };
        let deliver = (at + LATENCY_NS, EvKind::Deliver { dest, msg });
        self.effects.scheduled.push(deliver);
        self.effects.sent += 1;
        Ok(())
    }
}

/// Steps `state`'s task until it blocks (registering a wait and
/// possibly a timer in `effects`), finishes, or dies.
fn feed<T: RankTask>(
    state: &mut RankState<T>,
    mut wake: Wake,
    size: usize,
    plan: &FaultPlan,
    alive: &[bool],
    effects: &mut Effects,
    rank: usize,
) {
    loop {
        let Life::Running(task) = &mut state.life else {
            return;
        };
        let mut ctx = EventCtx {
            rank,
            size,
            ops: &mut state.ops,
            local_now: &mut state.local_now,
            plan,
            alive,
            effects,
        };
        let action = match std::panic::catch_unwind(AssertUnwindSafe(|| task.step(&mut ctx, wake)))
        {
            Ok(action) => action,
            Err(payload) if payload.is::<RankKilled>() => return state.die(rank, effects),
            // A genuine bug in task code: propagate, as the thread
            // engine does — fault injection must not swallow it.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        match action {
            Action::Done => {
                let Life::Running(task) = std::mem::replace(&mut state.life, Life::Dead) else {
                    unreachable!("the task just stepped");
                };
                state.life = Life::Done(task.into_output());
                effects.rec(rank, state.local_now, TraceKind::Done);
                return;
            }
            Action::Recv { src, tag, timeout } => {
                // The receive is a communication op: the fault point
                // fires before any matching, as on the thread engine.
                let op = state.ops;
                state.ops += 1;
                if let Some(d) = plan.delay_at(rank, op) {
                    state.local_now += d.as_nanos() as SimTime;
                }
                if plan.kill_at(rank, op) {
                    return state.die(rank, effects);
                }
                let wait = Wait { src, tag };
                if let Some(i) = state.buffer.iter().position(|m| wait.matches(m)) {
                    let msg = state.buffer.remove(i);
                    effects.rec(
                        rank,
                        state.local_now,
                        TraceKind::Match {
                            src: msg.src,
                            tag: msg.tag,
                            wildcard: wait.src.is_none(),
                        },
                    );
                    wake = Wake::Message(msg);
                    continue;
                }
                state.wait_gen += 1;
                if let Some(t) = timeout {
                    let deadline = state
                        .local_now
                        .saturating_add(t.as_nanos().min(u128::from(u64::MAX)) as SimTime);
                    effects.timers.push((deadline, state.wait_gen));
                }
                effects.rec(
                    rank,
                    state.local_now,
                    TraceKind::WaitPost {
                        src: wait.src,
                        tag,
                        timeout_ns: timeout.map(|t| t.as_nanos().min(u128::from(u64::MAX)) as u64),
                    },
                );
                state.wait = Some(wait);
                return;
            }
        }
    }
}

/// Routes one popped event into the rank's state, stepping the task as
/// far as it will go. The rank's local clock first catches up to the
/// event's timestamp, so sends it performs are stamped no earlier than
/// the wake that caused them and timer deadlines are always in the
/// future — which also makes the final virtual time a true makespan
/// (one latency per tree level, plus any timeout budgets waited out).
fn process_event<T: RankTask>(
    state: &mut RankState<T>,
    now: SimTime,
    kind: EvKind,
    size: usize,
    plan: &FaultPlan,
    alive: &[bool],
    effects: &mut Effects,
) {
    state.local_now = state.local_now.max(now);
    let rank = kind.rank();
    match kind {
        EvKind::Start { .. } => {
            effects.rec(rank, state.local_now, TraceKind::Start);
            feed(state, Wake::Start, size, plan, alive, effects, rank)
        }
        EvKind::Deliver { msg, .. } => {
            if !state.running() {
                // The thread-engine analogue: a send that raced the
                // destination's death succeeded, and the message is
                // simply lost.
                effects.dropped += 1;
                return;
            }
            match &state.wait {
                Some(w) if w.matches(&msg) => {
                    let wildcard = w.src.is_none();
                    state.wait = None;
                    effects.rec(
                        rank,
                        state.local_now,
                        TraceKind::Match {
                            src: msg.src,
                            tag: msg.tag,
                            wildcard,
                        },
                    );
                    feed(state, Wake::Message(msg), size, plan, alive, effects, rank);
                }
                _ => state.buffer.push(msg),
            }
        }
        EvKind::Timer { gen, .. } => {
            if state.running() && state.wait.is_some() && gen == state.wait_gen {
                let w = state.wait.take().expect("checked above");
                effects.timeouts += 1;
                effects.rec(
                    rank,
                    state.local_now,
                    TraceKind::Timeout {
                        src: w.src,
                        tag: w.tag,
                    },
                );
                feed(state, Wake::Timeout, size, plan, alive, effects, rank);
            } else {
                effects.stale_timers += 1;
            }
        }
    }
}

/// One worker's share of a batch: a run of whole ranks' events, sorted
/// by rank, the states of the ranks `base..base + states.len()` they
/// name, and the worker's effects buffer.
struct Chunk<'a, T: RankTask> {
    base: usize,
    states: &'a mut [RankState<T>],
    events: &'a mut [EvKind],
    effects: &'a mut Effects,
}

impl<T: RankTask> Chunk<'_, T> {
    /// Steps every event of the chunk, rank by rank in rank order and
    /// each rank's events in the order they were scheduled.
    fn step(self, now: SimTime, size: usize, plan: &FaultPlan, alive: &[bool]) {
        let Chunk {
            base,
            states,
            events,
            effects,
        } = self;
        for i in 0..events.len() {
            let rank = events[i].rank();
            // A spent `Start` stays behind; the batch is dropped once stepped.
            let kind = std::mem::replace(&mut events[i], EvKind::Start { rank });
            process_event(
                &mut states[rank - base],
                now,
                kind,
                size,
                plan,
                alive,
                effects,
            );
            // A rank's timers are scheduled after all its deliveries.
            if events.get(i + 1).is_none_or(|next| next.rank() != rank) {
                let timers = effects.timers.drain(..);
                effects
                    .scheduled
                    .extend(timers.map(|(at, gen)| (at, EvKind::Timer { rank, gen })));
            }
        }
    }
}

/// Splits the rank-sorted `batch` into at most `effects.len()` chunks of
/// whole ranks, of about equal event counts, each lent the states of
/// its ranks and an effects buffer of its own.
fn chunks<'a, T: RankTask>(
    batch: &'a mut [EvKind],
    states: &'a mut [RankState<T>],
    effects: &'a mut [Effects],
) -> Vec<Chunk<'a, T>> {
    let per_chunk = batch.len().div_ceil(effects.len());
    let mut chunks = Vec::with_capacity(effects.len());
    let (mut rest_events, mut rest_states, mut base) = (batch, states, 0);
    let mut buffers = effects.iter_mut();
    while !rest_events.is_empty() {
        let mut cut = per_chunk.min(rest_events.len());
        let last = rest_events[cut - 1].rank();
        while rest_events.get(cut).is_some_and(|ev| ev.rank() == last) {
            cut += 1;
        }
        let (events, later_events) = rest_events.split_at_mut(cut);
        let (states, later_states) = rest_states.split_at_mut(last + 1 - base);
        let effects = buffers.next().expect("at most one chunk per buffer");
        chunks.push(Chunk {
            base,
            states,
            events,
            effects,
        });
        (rest_events, rest_states, base) = (later_events, later_states, last + 1);
    }
    chunks
}

impl EventEngine {
    /// [`Executor::run`] untraced, returning the outputs with the
    /// run's [`SchedStats`], for a `make` that need not be shared
    /// across threads. Panics with the [`SchedError`] message on a
    /// virtual deadlock.
    pub fn run_tasks_with_stats<T, F>(
        &self,
        size: usize,
        plan: FaultPlan,
        make: F,
    ) -> (Vec<Option<T::Out>>, SchedStats)
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T,
    {
        let run = self.run_core(size, plan, make, false);
        match run.outputs {
            Ok(outs) => (outs, run.stats.expect("the event engine counts")),
            Err(e) => panic!("{e}"),
        }
    }

    fn run_core<T, F>(&self, size: usize, plan: FaultPlan, make: F, tracing: bool) -> Run<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T,
    {
        assert!(size > 0, "world size must be positive");
        crate::world::silence_injected_kill_panics();
        let workers = self.config.workers.max(1);
        let mut stats = SchedStats::default();
        let mut trace = if tracing {
            HbTrace::new(size)
        } else {
            HbTrace::default()
        };

        let mut states: Vec<RankState<T>> = (0..size)
            .map(|rank| RankState::new(make(rank, size)))
            .collect();
        let mut alive = vec![true; size];
        let mut calendar = Calendar::default();
        for rank in 0..size {
            calendar.push(0, EvKind::Start { rank });
        }
        stats.max_queue_depth = calendar.pending;
        let armed = || Effects {
            tracing,
            ..Effects::default()
        };
        let mut effects: Vec<Effects> = (0..workers).map(|_| armed()).collect();

        while let Some((now, mut batch)) = calendar.pop() {
            let batch_len = batch.len() as u64;
            stats.events += batch_len;

            // --- step the batch's ranks against the liveness at its start ---
            // The sort is stable, so each rank's events stay in the
            // order they were scheduled, and ranks come out ascending:
            // each chunk is a run of whole ranks, stepped where their
            // states lie. The calling thread steps the first chunk; with
            // one worker there is no other.
            batch.sort_by_key(EvKind::rank);
            std::thread::scope(|scope| {
                let mut chunks = chunks(&mut batch, &mut states, &mut effects).into_iter();
                let first = chunks.next();
                let (plan, alive) = (&plan, &alive);
                let handles: Vec<_> = chunks
                    .map(|chunk| scope.spawn(move || chunk.step(now, size, plan, alive)))
                    .collect();
                if let Some(chunk) = first {
                    chunk.step(now, size, plan, alive);
                }
                for handle in handles {
                    if let Err(e) = handle.join() {
                        std::panic::resume_unwind(e);
                    }
                }
            });

            // --- apply effects in rank order: deterministic event order ---
            let mut stale_in_batch = 0u64;
            for effects in &mut effects {
                stale_in_batch += effects.stale_timers;
                stats.messages += std::mem::take(&mut effects.sent);
                stats.dropped += std::mem::take(&mut effects.dropped);
                stats.timeouts += std::mem::take(&mut effects.timeouts);
                stats.stale_timers += std::mem::take(&mut effects.stale_timers);
                stats.ranks_lost += effects.died.len() as u64;
                for rank in effects.died.drain(..) {
                    alive[rank] = false;
                }
                for (rank, event) in effects.trace.drain(..) {
                    trace.events[rank].push(event);
                }
                for (at, event) in effects.scheduled.drain(..) {
                    calendar.push(at, event);
                }
            }
            // Stale timers fire after their receive was satisfied;
            // a batch of nothing else must not stretch the makespan.
            if stale_in_batch < batch_len {
                stats.virtual_time_ns = stats.virtual_time_ns.max(now);
            }
            stats.max_queue_depth = stats.max_queue_depth.max(calendar.pending);
        }

        // --- calendar empty: every live task must have finished ---
        let blocked_waits: Vec<(usize, Option<usize>, Tag)> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.running())
            .map(|(r, s)| match &s.wait {
                Some(w) => (r, w.src, w.tag),
                None => (r, None, 0),
            })
            .collect();
        let outcome = if blocked_waits.is_empty() {
            let out = |s: RankState<T>| match s.life {
                Life::Done(out) => Some(out),
                _ => None,
            };
            Ok(states.into_iter().map(out).collect())
        } else {
            Err(SchedError::Deadlock {
                cycles: crate::hb::find_wait_cycles(&blocked_waits).cycles,
                blocked: blocked_waits.iter().map(|&(r, _, _)| r).collect(),
                at_ns: stats.virtual_time_ns,
            })
        };

        let metrics = caliper_data::metrics::global();
        metrics
            .counter_volatile("mpisim.comm.messages")
            .add(stats.messages);
        metrics
            .counter_volatile("mpisim.comm.timeouts")
            .add(stats.timeouts);
        metrics
            .counter_volatile("mpisim.ranks_lost")
            .add(stats.ranks_lost);

        Run {
            outputs: outcome,
            stats: Some(stats),
            trace,
        }
    }
}

impl Executor for EventEngine {
    fn name(&self) -> &'static str {
        "event"
    }

    fn run<T, F>(&self, size: usize, plan: FaultPlan, make: F, trace: bool) -> Run<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        self.run_core(size, plan, make, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ReduceTask, ResilienceOptions, Topology};
    use std::time::Duration;

    type SumOutputs = Vec<Option<Option<(u64, crate::ReduceCoverage)>>>;

    fn sum_reduce(
        engine: &EventEngine,
        size: usize,
        plan: FaultPlan,
        topology: Topology,
        opts: ResilienceOptions,
    ) -> (SumOutputs, SchedStats) {
        engine.run_tasks_with_stats(size, plan, move |rank, size| {
            ReduceTask::new(
                rank,
                size,
                topology,
                move || rank as u64,
                |a: u64, b: u64| a + b,
                opts,
            )
        })
    }

    #[test]
    fn clean_reduction_sums_every_rank() {
        for size in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let (outs, stats) = sum_reduce(
                &EventEngine::new(),
                size,
                FaultPlan::new(),
                Topology::Flat,
                ResilienceOptions::default(),
            );
            let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
            assert_eq!(total, (0..size as u64).sum::<u64>(), "size {size}");
            assert!(coverage.is_complete());
            assert!(outs[1..].iter().all(|o| o.as_ref().unwrap().is_none()));
            assert_eq!(stats.messages, size as u64 - 1);
            assert_eq!(stats.ranks_lost, 0);
        }
    }

    #[test]
    fn killed_subtree_is_charged_exactly() {
        // Rank 4 of 8 dies before doing anything: its subtree {4..8}
        // never reaches the root.
        let (outs, stats) = sum_reduce(
            &EventEngine::new(),
            8,
            FaultPlan::new().kill(4, 0),
            Topology::Flat,
            ResilienceOptions::default(),
        );
        let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
        assert_eq!(coverage.included, vec![0, 1, 2, 3]);
        assert_eq!(coverage.lost, vec![4, 5, 6, 7]);
        assert_eq!(total, 6, "sum of the surviving ranks 0..4");
        assert!(outs[4].is_none(), "killed rank yields None");
        assert_eq!(stats.ranks_lost, 1);
        assert!(
            stats.timeouts > 0,
            "the root must wait out virtual timeouts"
        );
    }

    #[test]
    fn virtual_delays_cost_no_wall_clock() {
        // A 90-second (virtual) straggler: the run must still finish
        // promptly in wall-clock terms and with full coverage.
        let wall = std::time::Instant::now();
        let opts = ResilienceOptions {
            timeout: Duration::from_secs(300),
            retries: 1,
            backoff: Duration::from_secs(10),
        };
        let (outs, stats) = sum_reduce(
            &EventEngine::new(),
            2,
            FaultPlan::new().delay(1, 0, Duration::from_secs(90)),
            Topology::Flat,
            opts,
        );
        let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
        assert_eq!(total, 1);
        assert!(coverage.is_complete());
        assert!(stats.virtual_time_ns >= 90_000_000_000);
        assert!(
            wall.elapsed() < Duration::from_secs(5),
            "virtual waits must not spin wall-clock time"
        );
    }

    #[test]
    fn two_level_topology_reduces_everything() {
        for (size, nodes) in [(8, 2), (13, 4), (64, 8), (100, 7)] {
            let topo = Topology::two_level_for(size, nodes);
            let (outs, _) = sum_reduce(
                &EventEngine::new(),
                size,
                FaultPlan::new(),
                topo,
                ResilienceOptions::default(),
            );
            let (total, coverage) = outs[0].as_ref().unwrap().as_ref().unwrap().clone();
            assert_eq!(total, (0..size as u64).sum::<u64>(), "size {size}");
            assert!(coverage.is_complete(), "size {size} nodes {nodes}");
        }
    }

    #[test]
    fn worker_pool_size_changes_nothing() {
        let run = |workers: usize| {
            let (outs, stats) = sum_reduce(
                &EventEngine::with_workers(workers),
                64,
                FaultPlan::new()
                    .kill(9, 1)
                    .delay(3, 0, Duration::from_millis(2)),
                Topology::TwoLevel { ranks_per_node: 8 },
                ResilienceOptions::default(),
            );
            (format!("{outs:?}"), stats)
        };
        let (base_out, base_stats) = run(1);
        for workers in [2, 4] {
            let (out, stats) = run(workers);
            assert_eq!(out, base_out, "workers {workers}");
            assert_eq!(stats, base_stats, "workers {workers}");
        }
    }

    #[test]
    fn unbounded_wait_with_no_sender_is_a_structured_deadlock() {
        struct WaitForever;
        impl RankTask for WaitForever {
            type Out = ();
            fn step(&mut self, _ctx: &mut dyn TaskCtx, _wake: Wake) -> Action {
                Action::Recv {
                    src: None,
                    tag: 7,
                    timeout: None,
                }
            }
            fn into_output(self) {}
        }
        let err = EventEngine::new()
            .run(1, FaultPlan::new(), |_, _| WaitForever, false)
            .outputs
            .unwrap_err();
        let SchedError::Deadlock {
            cycles, blocked, ..
        } = &err;
        assert_eq!(blocked, &vec![0]);
        assert!(cycles.is_empty(), "a wildcard wait is not a cycle");
        let msg = err.to_string();
        assert!(msg.contains("virtual deadlock"), "{msg}");
        assert!(msg.contains("[0]"), "{msg}");
    }

    #[test]
    fn mutual_waits_name_the_exact_cycle() {
        /// Waits forever on a specific peer; never sends.
        struct WaitOn(usize);
        impl RankTask for WaitOn {
            type Out = ();
            fn step(&mut self, _ctx: &mut dyn TaskCtx, _wake: Wake) -> Action {
                Action::Recv {
                    src: Some(self.0),
                    tag: 1,
                    timeout: None,
                }
            }
            fn into_output(self) {}
        }
        // A 3-cycle: 0 waits on 1 waits on 2 waits on 0.
        let err = EventEngine::new()
            .run(
                3,
                FaultPlan::new(),
                |rank, size| WaitOn((rank + 1) % size),
                false,
            )
            .outputs
            .unwrap_err();
        let SchedError::Deadlock {
            cycles, blocked, ..
        } = &err;
        assert_eq!(blocked, &vec![0, 1, 2]);
        assert_eq!(cycles, &vec![vec![0, 1, 2]]);
        assert!(
            err.to_string().contains("wait cycle: 0 -> 1 -> 2 -> 0"),
            "{err}"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_is_worker_invariant() {
        let plan = || {
            FaultPlan::new()
                .kill(9, 1)
                .delay(3, 0, Duration::from_millis(2))
        };
        let run = |workers: usize| {
            let engine = EventEngine::with_workers(workers);
            let make = move |rank, size| {
                ReduceTask::new(
                    rank,
                    size,
                    Topology::TwoLevel { ranks_per_node: 8 },
                    move || rank as u64,
                    |a: u64, b: u64| a + b,
                    ResilienceOptions::default(),
                )
            };
            engine.run(64, plan(), make, true)
        };
        let base = run(1);
        let (outs, stats) = sum_reduce(
            &EventEngine::new(),
            64,
            plan(),
            Topology::TwoLevel { ranks_per_node: 8 },
            ResilienceOptions::default(),
        );
        // Tracing must not perturb the run itself.
        assert_eq!(
            format!("{:?}", base.outputs.as_ref().unwrap()),
            format!("{outs:?}")
        );
        assert_eq!(base.stats, Some(stats));
        assert!(!base.trace.is_empty());
        for workers in [2, 4] {
            let other = run(workers);
            assert_eq!(base.trace, other.trace, "workers {workers}");
        }
    }
}
