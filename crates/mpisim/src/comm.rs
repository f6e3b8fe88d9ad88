//! Point-to-point communication between the thread engine's ranks.
//!
//! Each rank owns one inbox (an MPMC channel); a send deposits a tagged,
//! type-erased [`Msg`] into the destination's inbox, a receive blocks
//! until a message matching `(source, tag)` arrives — `source` may be a
//! wildcard — buffering mismatched messages: the standard MPI matching
//! semantics, minus wildcards on tags. `Comm` is the thread engine's
//! transport under [`TaskCtx`](crate::task::TaskCtx) and
//! [`Action::Recv`](crate::task::Action::Recv); [`CommError`] and
//! [`Tag`] are what tasks see of it.
//!
//! # Failure semantics
//!
//! A rank that dies (panics or is killed by a [`FaultPlan`]) drops its
//! inbox receiver while the senders — shared from an `Arc` by every
//! surviving rank — stay alive. The consequences, which fault-tolerant
//! tasks must handle, are:
//!
//! * **sends to a dead rank fail** with [`CommError::Disconnected`]
//!   (the channel sees zero receivers), *but only after the victim's
//!   thread has finished unwinding* — a send that races the death may
//!   still succeed and the message is simply lost;
//! * **receives from a dead rank never match**: nothing will ever
//!   arrive, yet the channel never disconnects because the receiving
//!   rank itself keeps every sender alive. Only a bounded receive ends,
//!   in a [`CommError::Timeout`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::fault::{FaultPlan, RankKilled};
use crate::task::{Msg, Payload};
use crate::trace::{SharedTrace, TraceKind};

/// Message tag (as in MPI).
pub type Tag = u32;

/// A point-to-point communication failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer (or the whole world) has shut down: its channel
    /// endpoint is gone, so the operation can never complete.
    Disconnected {
        /// What was being attempted, e.g. `"send to rank 3"`.
        context: String,
    },
    /// No matching message arrived before the deadline. The peer may be
    /// dead, delayed, or deadlocked — from the caller's side these are
    /// indistinguishable, which is precisely why bounded waits exist.
    Timeout {
        /// What was being attempted, e.g. `"recv from rank 1, tag 5"`.
        context: String,
        /// How long the caller waited.
        after: Duration,
    },
}

impl CommError {
    pub(crate) fn disconnected(context: impl Into<String>) -> CommError {
        CommError::Disconnected {
            context: context.into(),
        }
    }

    pub(crate) fn timeout(context: impl Into<String>, after: Duration) -> CommError {
        CommError::Timeout {
            context: context.into(),
            after,
        }
    }

    /// True for [`CommError::Timeout`].
    pub fn is_timeout(&self) -> bool {
        matches!(self, CommError::Timeout { .. })
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Disconnected { context } => {
                write!(f, "communication error: {context}: peer has shut down")
            }
            CommError::Timeout { context, after } => {
                write!(
                    f,
                    "communication error: {context}: timed out after {:.3}s",
                    after.as_secs_f64()
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A rank's communicator handle on the thread engine. Messages are the
/// task layer's own [`Msg`], so a payload boxed once by a task travels
/// to the channel and back without re-boxing.
pub(crate) struct Comm {
    rank: usize,
    size: usize,
    inboxes: Arc<Vec<Sender<Msg>>>,
    inbox: Receiver<Msg>,
    /// Messages received but not yet matched.
    pending: Vec<Msg>,
    /// Faults scripted for this world, if any.
    faults: Option<Arc<FaultPlan>>,
    /// Happens-before trace collector, when the run is traced. `None`
    /// (the common case) costs one branch per communication op.
    trace: Option<Arc<SharedTrace>>,
    /// Number of communication operations this rank has issued; the
    /// fault plan's notion of time.
    ops: u64,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        inboxes: Arc<Vec<Sender<Msg>>>,
        inbox: Receiver<Msg>,
        faults: Option<Arc<FaultPlan>>,
        trace: Option<Arc<SharedTrace>>,
    ) -> Comm {
        Comm {
            rank,
            size,
            inboxes,
            inbox,
            pending: Vec::new(),
            faults,
            trace,
            ops: 0,
        }
    }

    /// Record `kind` into the trace, when armed.
    pub(crate) fn rec(&self, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            trace.record(self.rank, kind);
        }
    }

    /// This rank's id, 0-based.
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Consults the fault plan before a communication operation: sleeps
    /// through any scripted delay, then unwinds if this is the op the
    /// rank is scripted to die at.
    fn fault_point(&mut self) {
        let op = self.ops;
        self.ops += 1;
        let Some(plan) = &self.faults else { return };
        if let Some(d) = plan.delay_at(self.rank, op) {
            std::thread::sleep(d);
        }
        if plan.kill_at(self.rank, op) {
            // The rank's clock freezes here: this is its last event.
            self.rec(TraceKind::Killed);
            std::panic::panic_any(RankKilled);
        }
    }

    /// Send `payload` to `dest` with `tag`. Non-blocking (buffered
    /// send); fails with [`CommError::Disconnected`] if `dest` has shut
    /// down. Counts as one fault-plan op.
    pub(crate) fn send_payload(
        &mut self,
        dest: usize,
        tag: Tag,
        payload: Payload,
    ) -> Result<(), CommError> {
        assert!(dest < self.size, "send to rank {dest} out of range");
        self.fault_point();
        let sent = self.inboxes[dest]
            .send(Msg {
                src: self.rank,
                tag,
                payload,
            })
            .map_err(|_| CommError::disconnected(format!("send to rank {dest}")));
        self.rec(TraceKind::Send {
            dest,
            tag,
            ok: sent.is_ok(),
        });
        if sent.is_ok() {
            caliper_data::metrics::global()
                .counter_volatile("mpisim.comm.messages")
                .inc();
        }
        sent
    }

    /// Receive: blocks (bounded by `timeout` when given) until a
    /// message matching `(src, tag)` arrives — `src == None` matches
    /// any source — and returns it whole. Counts as one fault-plan op.
    pub(crate) fn recv_msg(
        &mut self,
        src: Option<usize>,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Msg, CommError> {
        self.fault_point();
        let matches = |m: &Msg| m.tag == tag && src.is_none_or(|s| s == m.src);
        if let Some(i) = self.pending.iter().position(matches) {
            let m = self.pending.remove(i);
            self.rec(TraceKind::Match {
                src: m.src,
                tag,
                wildcard: src.is_none(),
            });
            return Ok(m);
        }
        self.rec(TraceKind::WaitPost {
            src,
            tag,
            timeout_ns: timeout.map(|t| t.as_nanos().min(u128::from(u64::MAX)) as u64),
        });
        let context = || match src {
            Some(s) => format!("recv from rank {s}, tag {tag}"),
            None => format!("recv from any rank, tag {tag}"),
        };
        let deadline = timeout.map(|t| (Instant::now() + t, t));
        loop {
            let m = match deadline {
                None => self
                    .inbox
                    .recv()
                    .map_err(|_| CommError::disconnected(context()))?,
                Some((deadline, total)) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match self.inbox.recv_timeout(remaining) {
                        Ok(m) => m,
                        Err(RecvTimeoutError::Timeout) => {
                            caliper_data::metrics::global()
                                .counter_volatile("mpisim.comm.timeouts")
                                .inc();
                            self.rec(TraceKind::Timeout { src, tag });
                            return Err(CommError::timeout(context(), total));
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(CommError::disconnected(context()));
                        }
                    }
                }
            };
            if matches(&m) {
                self.rec(TraceKind::Match {
                    src: m.src,
                    tag,
                    wildcard: src.is_none(),
                });
                return Ok(m);
            }
            self.pending.push(m);
        }
    }
}
