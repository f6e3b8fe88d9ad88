//! Structured happens-before communication traces.
//!
//! Both execution engines can record — when
//! [`Executor::run`](crate::task::Executor::run) is asked to trace,
//! behind a hook that costs nothing otherwise — every
//! communication-relevant event a rank performs: sends (including
//! refused sends to dead peers), receive posts, matches, timeout
//! firings, scripted kills, and task completion. The
//! result is an [`HbTrace`]: one event list per rank, in that rank's
//! program order, which is exactly the input the offline
//! happens-before analyzer ([`crate::hb`]) needs — program order plus
//! the match/kill edges recoverable from the events themselves.
//!
//! On the [`EventEngine`](crate::sched::EventEngine) the trace is
//! **deterministic**: events are recorded while effects are applied in
//! rank order, timestamps are virtual nanoseconds, and the whole trace
//! is byte-identical for any worker-pool size (pinned by tests). On the
//! [`ThreadEngine`](crate::world::ThreadEngine) per-rank order is exact
//! but timestamps are wall-clock nanoseconds and therefore vary run to
//! run; the happens-before *structure* (which the analyzer consumes) is
//! still faithful.

use std::sync::Mutex;
use std::time::Instant;

use crate::comm::Tag;

/// What one recorded communication event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The rank's first wake.
    Start,
    /// A send to `dest` with `tag`; `ok` is false when the send was
    /// refused because `dest` was already observably dead (the refusal
    /// is how a kill propagates into the sender's timeline).
    Send {
        /// Destination rank.
        dest: usize,
        /// Message tag.
        tag: Tag,
        /// False when the destination was already dead.
        ok: bool,
    },
    /// A receive was posted and did not match a buffered message: the
    /// rank blocked waiting for `(src, tag)` (`src == None` is a
    /// wildcard), bounded by `timeout_ns` when given.
    WaitPost {
        /// Required source, or `None` for a wildcard receive.
        src: Option<usize>,
        /// Required tag.
        tag: Tag,
        /// Virtual-nanosecond bound on the wait, if any.
        timeout_ns: Option<u64>,
    },
    /// A receive completed by consuming a message from `src` with
    /// `tag`. `wildcard` records whether the posted receive named its
    /// source (`false`) or matched any source (`true`) — the property
    /// that decides whether alternative matches are a schedule hazard.
    Match {
        /// Actual source of the consumed message.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// True when the receive was posted with a wildcard source.
        wildcard: bool,
    },
    /// A bounded receive for `(src, tag)` gave up at its deadline.
    Timeout {
        /// Required source, or `None` for a wildcard receive.
        src: Option<usize>,
        /// Required tag.
        tag: Tag,
    },
    /// The fault plan killed the rank at this point; its clock freezes
    /// here — no later event can ever belong to this rank.
    Killed,
    /// The rank's task completed normally.
    Done,
}

impl TraceKind {
    /// Short stable name, used by trace dumps and reports.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Start => "start",
            TraceKind::Send { ok: true, .. } => "send",
            TraceKind::Send { ok: false, .. } => "send-refused",
            TraceKind::WaitPost { .. } => "wait",
            TraceKind::Match { .. } => "match",
            TraceKind::Timeout { .. } => "timeout",
            TraceKind::Killed => "killed",
            TraceKind::Done => "done",
        }
    }

    /// The peer rank this event names, if any (send destination, match
    /// source, or a named wait/timeout source).
    pub fn peer(&self) -> Option<usize> {
        match *self {
            TraceKind::Send { dest, .. } => Some(dest),
            TraceKind::Match { src, .. } => Some(src),
            TraceKind::WaitPost { src, .. } | TraceKind::Timeout { src, .. } => src,
            _ => None,
        }
    }

    /// The message tag this event names, if any.
    pub fn tag(&self) -> Option<Tag> {
        match *self {
            TraceKind::Send { tag, .. }
            | TraceKind::WaitPost { tag, .. }
            | TraceKind::Match { tag, .. }
            | TraceKind::Timeout { tag, .. } => Some(tag),
            _ => None,
        }
    }
}

/// One recorded event: what happened and when (virtual nanoseconds on
/// the event engine, wall-clock nanoseconds since run start on the
/// thread engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The event.
    pub kind: TraceKind,
    /// Timestamp in nanoseconds (virtual or wall-clock; see module docs).
    pub at_ns: u64,
}

/// A complete happens-before trace of one run: per-rank event lists in
/// program order. An [`Executor::run`](crate::task::Executor::run)
/// with `trace` set records one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HbTrace {
    /// One event list per rank, in that rank's program order.
    pub events: Vec<Vec<TraceEvent>>,
}

impl HbTrace {
    /// An empty trace for `size` ranks.
    pub fn new(size: usize) -> HbTrace {
        HbTrace {
            events: (0..size).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of ranks in the traced world.
    pub fn size(&self) -> usize {
        self.events.len()
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publish `mpisim.hb.*` event/edge counters for this trace into
    /// the process-global metrics registry (volatile class: counts
    /// depend on world size and faults, not on thread/worker counts —
    /// but not on anything stable across different runs either).
    pub fn record_metrics(&self) {
        let mut events = 0u64;
        let mut matches = 0u64;
        let mut timeouts = 0u64;
        let mut kill_edges = 0u64;
        for ev in self.events.iter().flatten() {
            events += 1;
            match ev.kind {
                TraceKind::Match { .. } => matches += 1,
                TraceKind::Timeout { .. } => timeouts += 1,
                TraceKind::Send { ok: false, .. } => kill_edges += 1,
                _ => {}
            }
        }
        let m = caliper_data::metrics::global();
        m.counter_volatile("mpisim.hb.events").add(events);
        m.counter_volatile("mpisim.hb.edges.match").add(matches);
        m.counter_volatile("mpisim.hb.edges.wake")
            .add(matches + timeouts);
        m.counter_volatile("mpisim.hb.edges.kill").add(kill_edges);
    }
}

/// Shared trace collector for the thread engine: one mutex-guarded
/// event list per rank, so recording never contends across ranks, and a
/// common clock origin for wall-clock timestamps.
#[derive(Debug)]
pub(crate) struct SharedTrace {
    lanes: Vec<Mutex<Vec<TraceEvent>>>,
    t0: Instant,
}

impl SharedTrace {
    pub(crate) fn new(size: usize) -> SharedTrace {
        SharedTrace {
            lanes: (0..size).map(|_| Mutex::new(Vec::new())).collect(),
            t0: Instant::now(),
        }
    }

    /// Record `kind` for `rank`, stamped with wall-clock nanoseconds
    /// since the collector was created.
    pub(crate) fn record(&self, rank: usize, kind: TraceKind) {
        let at_ns = self.t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut lane = match self.lanes[rank].lock() {
            Ok(lane) => lane,
            Err(poisoned) => poisoned.into_inner(),
        };
        lane.push(TraceEvent { kind, at_ns });
    }

    /// Consume the collector into an [`HbTrace`].
    pub(crate) fn into_trace(self) -> HbTrace {
        HbTrace {
            events: self
                .lanes
                .into_iter()
                .map(|lane| match lane.into_inner() {
                    Ok(events) => events,
                    Err(poisoned) => poisoned.into_inner(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_trace_collects_per_rank_in_order() {
        let shared = SharedTrace::new(2);
        shared.record(1, TraceKind::Start);
        shared.record(0, TraceKind::Start);
        shared.record(1, TraceKind::Done);
        let trace = shared.into_trace();
        assert_eq!(trace.events[1].len(), 2);
        assert_eq!(trace.events[1][0].kind, TraceKind::Start);
        assert_eq!(trace.events[1][1].kind, TraceKind::Done);
        assert_eq!(trace.len(), 3);
    }
}
