//! Ranks as resumable state machines.
//!
//! Every simulated rank is a [`RankTask`]: it owns its protocol state,
//! is advanced one communication event at a time, and between events
//! occupies nothing but its own struct. That is what lets the world
//! reach the cluster-scale rank counts the paper measures (1 000–16 000)
//! in one process.
//!
//! The same task runs on two engines behind the [`Executor`] trait:
//!
//! * [`EventEngine`](crate::sched::EventEngine) — a deterministic
//!   virtual-clock event loop (see `sched.rs`): timeouts and delays are
//!   calendar events costing zero wall-clock time, and 16k ranks fit in one
//!   process comfortably.
//! * [`ThreadEngine`](crate::world::ThreadEngine) — one OS thread per
//!   rank, blocking channel receives, wall-clock timeouts.
//!
//! The centerpiece task is [`ReduceTask`]: the paper's binomial-tree
//! reduction (§IV-C) — "'leaf' processes send the local aggregation
//! results to their parent, where the partial results are aggregated
//! again" — made fault-tolerant and generalized over a [`Topology`]:
//! flat, or node-local two-level pre-reduction (intra-node merge, then
//! a cross-node binomial tree, as in the Caliper/Benchpark
//! MPI-communication-patterns study). Both engines drive *this* state
//! machine, so there is exactly one implementation of the collective to
//! trust.

use std::any::Any;
use std::time::Duration;

use crate::comm::{CommError, Tag};
use crate::fault::FaultPlan;
use crate::sched::{SchedError, SchedStats};
use crate::trace::HbTrace;

/// Base tag of the reduction; each tree level uses its own tag
/// (`TAG_RESIL + level`) so a straggler's late message from one level
/// can never be mistaken for traffic of a later one.
const TAG_RESIL: Tag = 0xC0DE + 0x100;

/// A type-erased message payload, exactly what the thread engine's
/// channels carry.
pub type Payload = Box<dyn Any + Send>;

/// One delivered message: source rank, tag, and the payload.
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Type-erased payload; the task downcasts to its protocol type.
    pub payload: Payload,
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Msg(src {}, tag {:#x})", self.src, self.tag)
    }
}

/// What woke the task up: the reason [`RankTask::step`] is being called.
#[derive(Debug)]
pub enum Wake {
    /// First call; no receive is pending yet.
    Start,
    /// The pending receive matched this message.
    Message(Msg),
    /// The pending receive's timeout elapsed with no matching message.
    Timeout,
}

/// What the task wants next: returned from [`RankTask::step`].
#[derive(Debug)]
pub enum Action {
    /// Wait for a message matching `(src, tag)`; `src == None` matches
    /// any source. With a `timeout`, the engine wakes the task with
    /// [`Wake::Timeout`] if nothing matches in time — on the event
    /// engine that deadline is a virtual-clock event and costs no
    /// wall-clock time at all.
    Recv {
        /// Required source rank, or `None` for any.
        src: Option<usize>,
        /// Required tag.
        tag: Tag,
        /// Bound on the wait; `None` waits forever (the event engine
        /// reports a virtual deadlock if nothing can ever arrive).
        timeout: Option<Duration>,
    },
    /// The task is finished; the engine collects
    /// [`RankTask::into_output`].
    Done,
}

/// Engine services available to a task during a step.
///
/// Sends are non-blocking (buffered) on both engines and count as
/// communication ops for [`FaultPlan`] scripting, exactly like the
/// receives a task asks for with [`Action::Recv`].
pub trait TaskCtx {
    /// This rank's id.
    fn rank(&self) -> usize;
    /// World size.
    fn size(&self) -> usize;
    /// Send `payload` to `dest`. Fails with
    /// [`CommError::Disconnected`] if `dest` is already dead.
    fn send(&mut self, dest: usize, tag: Tag, payload: Payload) -> Result<(), CommError>;
}

/// A rank as a resumable state machine.
///
/// The engine calls [`step`](RankTask::step) with the [`Wake`] that
/// resumed the task; the task performs any number of non-blocking sends
/// through the [`TaskCtx`] and returns the next [`Action`]. A task
/// must be driven by exactly one engine at a time; it never blocks.
pub trait RankTask: 'static {
    /// The per-rank result collected by [`Executor::run`].
    type Out;

    /// Advance the state machine by one event.
    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action;

    /// Consume the task after it returned [`Action::Done`].
    fn into_output(self) -> Self::Out;
}

/// An execution engine: runs one [`RankTask`] per rank under a
/// [`FaultPlan`] and collects the outputs in rank order (`None` for
/// ranks the plan killed).
///
/// Both engines run the *same* task code; for any plan whose delays are
/// decisively smaller than the tasks' timeout budgets, their outputs
/// are byte-identical (pinned by the engine-equivalence proptests).
pub trait Executor {
    /// Engine name, for logs and CLI output.
    fn name(&self) -> &'static str;

    /// Run `make(rank, size)` tasks on all `size` ranks under `plan`.
    ///
    /// With `trace`, the happens-before hook is armed (see
    /// [`crate::trace`]) and the [`Run`] carries the recorded
    /// [`HbTrace`]: on the event engine it is deterministic (virtual
    /// timestamps, worker-pool invariant) and survives a deadlock; on
    /// the thread engine timestamps are wall-clock but the
    /// happens-before structure is faithful.
    fn run<T, F>(&self, size: usize, plan: FaultPlan, make: F, trace: bool) -> Run<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static;
}

/// The outcome of one [`Executor::run`]: the per-rank outputs (or the
/// structured scheduler error a deadlocked event-engine run ends in),
/// the scheduler stats when the engine has them, and the recorded
/// trace — which is present *even when the run deadlocked*, so the
/// analyzer can name the wait cycle.
#[derive(Debug)]
pub struct Run<Out> {
    /// Per-rank outputs in rank order (`None` for killed ranks), or
    /// the scheduler error that ended the run. Only the event engine
    /// can *detect* a virtual deadlock; the thread engine's blocked
    /// ranks simply block.
    pub outputs: Result<Vec<Option<Out>>, SchedError>,
    /// Event-engine scheduler stats; `None` on the thread engine.
    pub stats: Option<SchedStats>,
    /// The recorded happens-before trace; empty when the run was not
    /// traced.
    pub trace: HbTrace,
}

/// Tuning knobs for [`ReduceTask`].
///
/// `timeout` and `backoff` are *base* (tree level 0) values; the
/// reduction doubles them per level, because a partner at level *l* may
/// legitimately stall for its own full timeout budget at every level
/// below before it can forward. With doubling, the budget at level *l*
/// strictly exceeds the sum of all lower-level budgets, so cascaded
/// waits below a slow-but-alive partner never get misread as a death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceOptions {
    /// Base wait per receive before suspecting the partner.
    pub timeout: Duration,
    /// Additional receive attempts after the first timeout. Retries
    /// exist for stragglers, not corpses: a delayed partner's message
    /// arrives during a retry, a dead partner's never does.
    pub retries: u32,
    /// Extra wait added per retry attempt (linear backoff): attempt
    /// *n* waits `timeout + n * backoff`.
    pub backoff: Duration,
}

impl Default for ResilienceOptions {
    fn default() -> ResilienceOptions {
        ResilienceOptions {
            timeout: Duration::from_millis(250),
            retries: 2,
            backoff: Duration::from_millis(100),
        }
    }
}

impl ResilienceOptions {
    /// Worst-case total wait for one level-0 partner before declaring
    /// it lost. (At level *l* the budget is this, times `2^l`.)
    pub fn total_wait(&self) -> Duration {
        let mut total = Duration::ZERO;
        for attempt in 0..=self.retries {
            total += self.timeout + self.backoff * attempt;
        }
        total
    }

    /// The options with timeout and backoff scaled for tree `level`.
    fn at_level(&self, level: u32) -> ResilienceOptions {
        let scale = 1u32 << level.min(20); // 2^20 × base ≫ any sane tree
        ResilienceOptions {
            timeout: self.timeout * scale,
            retries: self.retries,
            backoff: self.backoff * scale,
        }
    }
}

/// Which ranks' contributions made it into a reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceCoverage {
    /// Ranks whose values are folded into the result, ascending.
    pub included: Vec<usize>,
    /// Ranks whose values were lost (dead, or stranded behind a dead
    /// ancestor), ascending. Complement of `included` in `0..size`.
    pub lost: Vec<usize>,
}

impl ReduceCoverage {
    /// True if every rank's contribution arrived.
    pub fn is_complete(&self) -> bool {
        self.lost.is_empty()
    }
}

/// Reduction tree shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One binomial tree over all ranks (the paper's §IV-C scheme).
    Flat,
    /// Node-local two-level pre-reduction: ranks are grouped into nodes
    /// of `ranks_per_node` consecutive ranks; each node reduces to its
    /// first rank (the node leader) over an intra-node binomial tree,
    /// then the leaders reduce over a cross-node binomial tree. Models
    /// the intra-node shared-memory merge + inter-node network phase of
    /// real clusters; `ranks_per_node: 1` degenerates to
    /// [`Flat`](Topology::Flat).
    TwoLevel {
        /// Ranks per node; clamped to at least 1.
        ranks_per_node: usize,
    },
}

impl Topology {
    /// Parse `"flat"` or a node count into a topology for `size` ranks:
    /// `nodes` evenly divides ranks into that many nodes (rounding the
    /// per-node count up).
    pub fn two_level_for(size: usize, nodes: usize) -> Topology {
        let nodes = nodes.max(1);
        Topology::TwoLevel {
            ranks_per_node: size.div_ceil(nodes).max(1),
        }
    }
}

/// One round of a rank's reduction schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Round {
    /// Receive a partial result from `from` (tag `TAG_RESIL + level`).
    Recv { from: usize, level: u32 },
    /// Send the accumulated partial to `to` and retire.
    Send { to: usize, level: u32 },
}

fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// The round of participant `idx` of an `n`-wide binomial tree at tree
/// level `level` or the first level after it that has one, with levels
/// numbered from `level_base` and participant indices mapped to global
/// ranks through `map`; `None` past the last. `level` must be one the
/// participant reaches: its first, or one past a level it received at.
fn binomial_round(
    idx: usize,
    n: usize,
    level_base: u32,
    level: u32,
    map: impl Fn(usize) -> usize,
) -> Option<Round> {
    let mut level = level.max(level_base);
    loop {
        let step = 1usize.checked_shl(level - level_base)?;
        if step >= n {
            return None;
        }
        if !idx.is_multiple_of(2 * step) {
            return Some(Round::Send {
                to: map(idx - step),
                level,
            });
        }
        if idx + step < n {
            return Some(Round::Recv {
                from: map(idx + step),
                level,
            });
        }
        level += 1;
    }
}

/// The round of `rank`'s reduction schedule in a world of `size` under
/// `topology` at tree level `level` or the first level after it that
/// has one; `None` once the schedule is exhausted. Every non-root
/// rank's schedule ends in exactly one `Send`; rank 0's never sends (it
/// is the root). A schedule is walked from level 0, each `Recv` at
/// level `l` followed by the round at `l + 1` or later.
///
/// Level numbers are globally consistent — a `Recv { from, level }`
/// pairs with `from`'s `Send { level }` on tag `TAG_RESIL + level` —
/// and strictly increase along every rank's schedule, so the per-level
/// timeout doubling of [`ResilienceOptions`] stays sound: the budget at
/// a level strictly exceeds the sum of all lower-level budgets.
pub(crate) fn round_at(rank: usize, size: usize, topology: Topology, level: u32) -> Option<Round> {
    match topology {
        Topology::Flat => binomial_round(rank, size, 0, level, |r| r),
        Topology::TwoLevel { ranks_per_node } => {
            let rpn = ranks_per_node.max(1);
            let node = rank / rpn;
            let local = rank % rpn;
            let base = node * rpn;
            let node_size = rpn.min(size - base);
            // All nodes share one level numbering sized for the largest
            // node, so intra- and cross-node tags can never collide.
            let intra_levels = ceil_log2(rpn);
            // Past its node's rounds, a node leader reduces across nodes.
            let nodes = size.div_ceil(rpn);
            let across = || binomial_round(node, nodes, intra_levels, level, |n| n * rpn);
            binomial_round(local, node_size, 0, level, |i| base + i)
                .or_else(|| (local == 0).then(across).flatten())
        }
    }
}

/// The fault-tolerant binomial-tree reduction toward rank 0, as a
/// [`RankTask`] — the one reduction of the crate, on either engine.
///
/// Dead subtrees are routed around instead of deadlocking or aborting
/// the survivors:
///
/// * every internal receive is bounded and retried per
///   [`ResilienceOptions`], with per-level budget doubling; a partner
///   that stays silent is written off and the reduction continues
///   without its subtree;
/// * the payload carries, alongside the partial value, the list of
///   ranks folded into it, so the root's [`ReduceCoverage`] states
///   *exactly* which contributions the result covers.
///
/// Rank 0's output is `Some((merged, coverage))`, every other rank's
/// `None`. When a partner dies *mid*-protocol (after receiving its
/// children's values, before forwarding), its whole subtree is lost
/// with it — the coverage charges every rank of that subtree, exactly
/// the values the dead rank had already absorbed. The merge order is
/// the tree order restricted to surviving subtrees, so for an
/// associative `merge` the result equals the serial in-order fold over
/// `coverage.included`.
///
/// `init` produces the rank's local value lazily on the first step, so
/// on the event engine the (possibly expensive) local phase runs inside
/// the scheduler's worker pool.
///
/// A task stores no schedule: it works out each round from its rank,
/// the world size, the topology and the level it has reached, and holds
/// its `init`, its partial or its output in one slot, so a rank costs a
/// few words and allocates only what it sends.
pub struct ReduceTask<T, F, I> {
    rank: usize,
    size: usize,
    topology: Topology,
    /// The level of the round in progress, or the first level to look
    /// for the next round at.
    level: u32,
    attempt: u32,
    merge: F,
    opts: ResilienceOptions,
    slot: Slot<T, I>,
}

/// What a [`ReduceTask`] holds: one of these at a time.
enum Slot<T, I> {
    /// Before the first step: the local phase, not yet run.
    Init(I),
    /// The partial so far and the ranks folded into it.
    Acc(T, Vec<usize>),
    /// The finished task's output.
    Out(Option<(T, ReduceCoverage)>),
}

impl<T, F, I> ReduceTask<T, F, I>
where
    T: Send + 'static,
    F: FnMut(T, T) -> T + Send + 'static,
    I: FnOnce() -> T + Send + 'static,
{
    /// Build the task for `rank` of `size` under `topology`.
    pub fn new(
        rank: usize,
        size: usize,
        topology: Topology,
        init: I,
        merge: F,
        opts: ResilienceOptions,
    ) -> ReduceTask<T, F, I> {
        assert!(size > 0, "world size must be positive");
        assert!(rank < size, "rank {rank} out of range for size {size}");
        ReduceTask {
            rank,
            size,
            topology,
            level: 0,
            attempt: 0,
            merge,
            opts,
            slot: Slot::Init(init),
        }
    }

    /// The partial and its ranks, leaving the slot empty-handed.
    fn take_acc(&mut self) -> (T, Vec<usize>) {
        match std::mem::replace(&mut self.slot, Slot::Out(None)) {
            Slot::Acc(acc, included) => (acc, included),
            _ => panic!("rank {} holds no partial", self.rank),
        }
    }

    /// The bounded wait for the current attempt at `level` (linear
    /// backoff, scaled by the per-level doubling).
    fn wait_for(&self, level: u32) -> Duration {
        let level_opts = self.opts.at_level(level);
        level_opts.timeout + level_opts.backoff * self.attempt
    }

    /// Move to the next blocking receive, retirement, or completion.
    fn advance(&mut self, ctx: &mut dyn TaskCtx) -> Action {
        match round_at(self.rank, self.size, self.topology, self.level) {
            Some(Round::Recv { from, level }) => {
                self.level = level;
                self.attempt = 0;
                Action::Recv {
                    src: Some(from),
                    tag: TAG_RESIL + level,
                    timeout: Some(self.wait_for(level)),
                }
            }
            Some(Round::Send { to, level }) => {
                let (acc, included) = self.take_acc();
                // A failed send means the parent is already dead:
                // this subtree is stranded and shows up in the
                // root's lost set — exactly the wanted semantics,
                // so the error is swallowed and the rank retires.
                let _ = ctx.send(to, TAG_RESIL + level, Box::new((acc, included)));
                Action::Done
            }
            None => {
                // Schedule exhausted without a Send: this rank is the root.
                let (acc, mut included) = self.take_acc();
                included.sort_unstable();
                included.dedup();
                // `included` is sorted: the lost ranks are the gaps
                // between its entries, found in one walk.
                let mut lost = Vec::new();
                let mut next = 0;
                for &rank in &included {
                    lost.extend(next..rank);
                    next = rank + 1;
                }
                lost.extend(next..self.size);
                self.slot = Slot::Out(Some((acc, ReduceCoverage { included, lost })));
                Action::Done
            }
        }
    }
}

impl<T, F, I> RankTask for ReduceTask<T, F, I>
where
    T: Send + 'static,
    F: FnMut(T, T) -> T + Send + 'static,
    I: FnOnce() -> T + Send + 'static,
{
    type Out = Option<(T, ReduceCoverage)>;

    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        match wake {
            Wake::Start => {
                let Slot::Init(init) = std::mem::replace(&mut self.slot, Slot::Out(None)) else {
                    panic!("start wake arrives once");
                };
                self.slot = Slot::Acc(init(), vec![self.rank]);
                self.advance(ctx)
            }
            Wake::Message(msg) => {
                let (theirs, their_ranks) = *msg
                    .payload
                    .downcast::<(T, Vec<usize>)>()
                    .unwrap_or_else(|_| {
                        panic!("type mismatch on reduce payload from rank {}", msg.src)
                    });
                let (mine, mut included) = self.take_acc();
                included.extend(their_ranks);
                self.slot = Slot::Acc((self.merge)(mine, theirs), included);
                self.level += 1;
                self.advance(ctx)
            }
            Wake::Timeout => {
                let Some(Round::Recv { from, level }) =
                    round_at(self.rank, self.size, self.topology, self.level)
                else {
                    panic!("timeout wake outside a receive round");
                };
                self.attempt += 1;
                if self.attempt <= self.opts.retries {
                    // Retries exist for stragglers, not corpses: a
                    // delayed partner's message arrives during a retry.
                    Action::Recv {
                        src: Some(from),
                        tag: TAG_RESIL + level,
                        timeout: Some(self.wait_for(level)),
                    }
                } else {
                    // Partner presumed dead; continue without its
                    // subtree — its ranks never reach any included
                    // list, so the root charges the loss exactly.
                    self.level += 1;
                    self.advance(ctx)
                }
            }
        }
    }

    fn into_output(self) -> Self::Out {
        match self.slot {
            Slot::Out(out) => out,
            _ => panic!("task is done"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binomial-tree rounds for participant `idx` of `n`, with tree
    /// levels starting at `level_base` and participant indices mapped
    /// to global ranks through `map`.
    fn binomial_rounds(
        idx: usize,
        n: usize,
        level_base: u32,
        map: impl Fn(usize) -> usize,
    ) -> Vec<Round> {
        let mut rounds = Vec::new();
        let mut step = 1usize;
        let mut level = level_base;
        while step < n {
            if idx.is_multiple_of(2 * step) {
                if idx + step < n {
                    rounds.push(Round::Recv {
                        from: map(idx + step),
                        level,
                    });
                }
            } else {
                rounds.push(Round::Send {
                    to: map(idx - step),
                    level,
                });
                break;
            }
            step *= 2;
            level += 1;
        }
        rounds
    }

    /// The complete reduction schedule of `rank` in a world of `size`
    /// under `topology`, written out round by round: the oracle
    /// [`round_at`] is held to.
    fn reduce_schedule(rank: usize, size: usize, topology: Topology) -> Vec<Round> {
        match topology {
            Topology::Flat => binomial_rounds(rank, size, 0, |r| r),
            Topology::TwoLevel { ranks_per_node } => {
                let rpn = ranks_per_node.max(1);
                let node = rank / rpn;
                let local = rank % rpn;
                let base = node * rpn;
                let node_size = rpn.min(size - base);
                let intra_levels = ceil_log2(rpn);
                let mut rounds = binomial_rounds(local, node_size, 0, |i| base + i);
                if local == 0 {
                    let nnodes = size.div_ceil(rpn);
                    rounds.extend(binomial_rounds(node, nnodes, intra_levels, |n| n * rpn));
                }
                rounds
            }
        }
    }

    /// `rank`'s rounds as a task walks them: from level 0, each `Recv`
    /// at level `l` followed by the round at `l + 1` or later.
    fn walked(rank: usize, size: usize, topology: Topology) -> Vec<Round> {
        let mut rounds = Vec::new();
        let mut level = 0;
        while let Some(round) = round_at(rank, size, topology, level) {
            rounds.push(round);
            match round {
                Round::Recv { level: l, .. } => level = l + 1,
                Round::Send { .. } => break,
            }
        }
        rounds
    }

    #[test]
    fn the_walked_rounds_are_the_written_out_schedule() {
        for size in (1..=70).chain([127, 128, 129, 1000, 1024]) {
            let nodes =
                [1, 2, 3, 5, 8, 13, 64].map(|ranks_per_node| Topology::TwoLevel { ranks_per_node });
            for topology in std::iter::once(Topology::Flat).chain(nodes) {
                for rank in 0..size {
                    assert_eq!(
                        walked(rank, size, topology),
                        reduce_schedule(rank, size, topology),
                        "rank {rank} of {size}, {topology:?}"
                    );
                }
            }
        }
    }

    fn recv_from(rounds: &[Round]) -> Vec<usize> {
        rounds
            .iter()
            .filter_map(|r| match r {
                Round::Recv { from, .. } => Some(*from),
                Round::Send { .. } => None,
            })
            .collect()
    }

    #[test]
    fn flat_schedule_is_the_binomial_tree() {
        assert_eq!(recv_from(&reduce_schedule(0, 8, Topology::Flat)), vec![1, 2, 4]);
        assert_eq!(
            reduce_schedule(3, 8, Topology::Flat),
            vec![Round::Send { to: 2, level: 0 }]
        );
        assert_eq!(
            reduce_schedule(2, 8, Topology::Flat),
            vec![
                Round::Recv { from: 3, level: 0 },
                Round::Send { to: 0, level: 1 }
            ]
        );
        assert!(reduce_schedule(0, 1, Topology::Flat).is_empty());
    }

    #[test]
    fn two_level_with_rpn_one_degenerates_to_flat() {
        for size in [1, 2, 3, 8, 13] {
            for rank in 0..size {
                assert_eq!(
                    reduce_schedule(rank, size, Topology::TwoLevel { ranks_per_node: 1 }),
                    reduce_schedule(rank, size, Topology::Flat),
                    "rank {rank} of {size}"
                );
            }
        }
    }

    #[test]
    fn two_level_schedules_pair_up() {
        // Every Send must have exactly one matching Recv on the same
        // (level, peer) pair, for several sizes and node widths.
        for (size, rpn) in [(8, 4), (13, 4), (16, 3), (9, 2), (5, 8), (64, 8)] {
            let topo = Topology::TwoLevel { ranks_per_node: rpn };
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for rank in 0..size {
                for round in reduce_schedule(rank, size, topo) {
                    match round {
                        Round::Send { to, level } => sends.push((rank, to, level)),
                        Round::Recv { from, level } => recvs.push((from, rank, level)),
                    }
                }
            }
            sends.sort_unstable();
            recvs.sort_unstable();
            assert_eq!(sends, recvs, "size {size}, rpn {rpn}");
            // Exactly one sender per non-root rank.
            let mut senders: Vec<usize> = sends.iter().map(|&(s, _, _)| s).collect();
            senders.sort_unstable();
            senders.dedup();
            assert_eq!(senders, (1..size).collect::<Vec<_>>());
        }
    }

    #[test]
    fn two_level_levels_increase_along_every_schedule() {
        for (size, rpn) in [(16, 4), (13, 4), (64, 8)] {
            let topo = Topology::TwoLevel { ranks_per_node: rpn };
            for rank in 0..size {
                let rounds = reduce_schedule(rank, size, topo);
                let levels: Vec<u32> = rounds
                    .iter()
                    .map(|r| match r {
                        Round::Recv { level, .. } | Round::Send { level, .. } => *level,
                    })
                    .collect();
                assert!(
                    levels.windows(2).all(|w| w[0] < w[1]),
                    "rank {rank} of {size} rpn {rpn}: {levels:?}"
                );
            }
        }
    }
}
