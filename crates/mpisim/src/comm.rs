//! Point-to-point communication between simulated ranks.
//!
//! Each rank owns one inbox (an MPMC channel); `send` deposits a tagged,
//! type-erased message into the destination's inbox, `recv` blocks until
//! a message matching `(source, tag)` arrives, buffering mismatched
//! messages — the standard MPI matching semantics, minus wildcards on
//! tags (a wildcard source is supported via [`Comm::recv_any`]).
//!
//! # Failure semantics
//!
//! A rank that dies (panics or is killed by a
//! [`FaultPlan`]) drops its inbox receiver while the
//! senders — shared from an `Arc` by every surviving rank — stay alive.
//! The consequences, which fault-tolerant collectives must handle, are:
//!
//! * **sends to a dead rank fail** with [`CommError::Disconnected`]
//!   (the channel sees zero receivers), *but only after the victim's
//!   thread has finished unwinding* — a send that races the death may
//!   still succeed and the message is simply lost;
//! * **receives from a dead rank hang forever** under plain
//!   [`recv`](Comm::recv): nothing will ever arrive, yet the channel
//!   never disconnects because the receiving rank itself keeps every
//!   sender alive. Bounded waiting therefore requires
//!   [`recv_timeout`](Comm::recv_timeout), which turns the silent peer
//!   into a [`CommError::Timeout`].

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::fault::{FaultPlan, RankKilled};
use crate::task::{Msg, Payload};
use crate::trace::{SharedTrace, TraceKind};

/// Message tag (as in MPI).
pub type Tag = u32;

/// What travels over the channels: the same [`Msg`] the task layer
/// sees, so [`drive_task`](crate::world::drive_task) forwards payloads
/// without re-boxing.
pub(crate) type Packet = Msg;

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

/// A rank's communicator handle.
pub struct Comm {
    rank: usize,
    size: usize,
    inboxes: Arc<Vec<Sender<Packet>>>,
    inbox: Receiver<Packet>,
    /// Messages received but not yet matched.
    pending: Vec<Packet>,
    /// Faults scripted for this world, if any.
    faults: Option<Arc<FaultPlan>>,
    /// Happens-before trace collector, when the run is traced. `None`
    /// (the common case) costs one branch per communication op.
    trace: Option<Arc<SharedTrace>>,
    /// Number of communication operations this rank has issued; the
    /// fault plan's notion of time.
    ops: Cell<u64>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        inboxes: Arc<Vec<Sender<Packet>>>,
        inbox: Receiver<Packet>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Comm {
        Comm {
            rank,
            size,
            inboxes,
            inbox,
            pending: Vec::new(),
            faults,
            trace: None,
            ops: Cell::new(0),
        }
    }

    /// Arm the happens-before trace hook (world launcher only).
    pub(crate) fn set_trace(&mut self, trace: Arc<SharedTrace>) {
        self.trace = Some(trace);
    }

    /// Record `kind` into the trace, when armed.
    fn rec(&self, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            trace.record(self.rank, kind);
        }
    }

    /// This rank's id, 0-based.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of communication operations this rank has issued so far —
    /// the time axis a [`FaultPlan`] is scripted in.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Consults the fault plan before a communication operation: sleeps
    /// through any scripted delay, then unwinds if this is the op the
    /// rank is scripted to die at.
    fn fault_point(&self) {
        let op = self.ops.get();
        self.ops.set(op + 1);
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

    /// Send `value` to `dest` with `tag`. Non-blocking (buffered send).
    /// Fails with [`CommError::Disconnected`] if `dest` has shut down.
    pub fn send<T: Send + 'static>(&self, dest: usize, tag: Tag, value: T) -> Result<(), CommError> {
        self.send_payload(dest, tag, Box::new(value))
    }

    /// Type-erased send — the form the task layer
    /// ([`TaskCtx`](crate::task::TaskCtx)) uses, so a payload boxed once
    /// by a state machine travels to the channel without re-boxing.
    /// Counts as one fault-plan op, like any other communication.
    pub fn send_payload(&self, dest: usize, tag: Tag, payload: Payload) -> Result<(), CommError> {
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

    /// Type-erased receive: blocks (bounded by `timeout` when given)
    /// until a message matching `(src, tag)` arrives and returns it
    /// whole. The task layer's receive path; typed wrappers below
    /// downcast on top of it.
    pub fn recv_msg(
        &mut self,
        src: Option<usize>,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Msg, CommError> {
        self.recv_packet(src, tag, timeout)
    }

    fn take_pending(&mut self, src: Option<usize>, tag: Tag) -> Option<Packet> {
        let idx = self
            .pending
            .iter()
            .position(|p| p.tag == tag && src.map(|s| s == p.src).unwrap_or(true))?;
        Some(self.pending.remove(idx))
    }

    fn recv_context(src: Option<usize>, tag: Tag) -> String {
        match src {
            Some(s) => format!("recv from rank {s}, tag {tag}"),
            None => format!("recv from any rank, tag {tag}"),
        }
    }

    fn recv_packet(
        &mut self,
        src: Option<usize>,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Packet, CommError> {
        self.fault_point();
        if let Some(p) = self.take_pending(src, tag) {
            self.rec(TraceKind::Match {
                src: p.src,
                tag: p.tag,
                wildcard: src.is_none(),
            });
            return Ok(p);
        }
        self.rec(TraceKind::WaitPost {
            src,
            tag,
            timeout_ns: timeout.map(|t| t.as_nanos().min(u128::from(u64::MAX)) as u64),
        });
        let deadline = timeout.map(|t| (Instant::now() + t, t));
        loop {
            let packet = match deadline {
                None => self
                    .inbox
                    .recv()
                    .map_err(|_| CommError::disconnected(Self::recv_context(src, tag)))?,
                Some((deadline, total)) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match self.inbox.recv_timeout(remaining) {
                        Ok(p) => p,
                        Err(RecvTimeoutError::Timeout) => {
                            caliper_data::metrics::global()
                                .counter_volatile("mpisim.comm.timeouts")
                                .inc();
                            self.rec(TraceKind::Timeout { src, tag });
                            return Err(CommError::timeout(Self::recv_context(src, tag), total));
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(CommError::disconnected(Self::recv_context(src, tag)));
                        }
                    }
                }
            };
            let matches = packet.tag == tag && src.map(|s| s == packet.src).unwrap_or(true);
            if matches {
                self.rec(TraceKind::Match {
                    src: packet.src,
                    tag: packet.tag,
                    wildcard: src.is_none(),
                });
                return Ok(packet);
            }
            self.pending.push(packet);
        }
    }

    fn downcast<T: Send + 'static>(packet: Packet, context: &str) -> T {
        *packet
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch on {context}"))
    }

    /// Blocking receive of a `T` from `src` with `tag`. Panics if the
    /// matching message's payload has a different type — a type-level
    /// protocol mismatch is a bug, not a runtime condition.
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> Result<T, CommError> {
        let packet = self.recv_packet(Some(src), tag, None)?;
        Ok(Self::downcast(packet, &Self::recv_context(Some(src), tag)))
    }

    /// Like [`recv`](Comm::recv), but gives up with
    /// [`CommError::Timeout`] once `timeout` elapses without a matching
    /// message. The building block of fault-tolerant collectives: a dead
    /// peer never disconnects this rank's inbox (every surviving rank
    /// keeps all senders alive), it just goes silent.
    pub fn recv_timeout<T: Send + 'static>(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<T, CommError> {
        let packet = self.recv_packet(Some(src), tag, Some(timeout))?;
        Ok(Self::downcast(packet, &Self::recv_context(Some(src), tag)))
    }

    /// Blocking receive from any source; returns `(source, value)`.
    pub fn recv_any<T: Send + 'static>(&mut self, tag: Tag) -> Result<(usize, T), CommError> {
        let packet = self.recv_packet(None, tag, None)?;
        let src = packet.src;
        Ok((src, Self::downcast(packet, &Self::recv_context(None, tag))))
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Comm(rank {} of {})", self.rank, self.size)
    }
}
