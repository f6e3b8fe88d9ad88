//! The thread engine: runs N ranks as OS threads.
//!
//! Every rank is an OS thread, its receives block on channels (a
//! crate-private `Comm`), and timeouts cost real wall-clock time.
//! [`ThreadEngine`] runs the same [`RankTask`] state machines as the
//! virtual-clock [`EventEngine`](crate::sched::EventEngine), behind the
//! same [`Executor`] trait: a private driver turns each
//! [`Action::Recv`] into one blocking receive, each [`TaskCtx::send`]
//! into one channel send.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Once};

use crossbeam::channel::unbounded;

use crate::comm::{Comm, CommError, Tag};
use crate::fault::{FaultPlan, RankKilled};
use crate::task::{Action, Executor, Msg, Payload, RankTask, Run, TaskCtx, Wake};
use crate::trace::{HbTrace, SharedTrace, TraceKind};

/// The thread-per-rank engine behind the [`Executor`] trait: one OS
/// thread per rank, blocking receives, wall-clock timeouts. Accurate to
/// real concurrency (including races) but capped at a few hundred
/// ranks; use [`EventEngine`](crate::sched::EventEngine) beyond that.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadEngine;

impl Executor for ThreadEngine {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn run<T, F>(&self, size: usize, plan: FaultPlan, make: F, trace: bool) -> Run<T::Out>
    where
        T: RankTask + Send,
        T::Out: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        let shared = trace.then(|| Arc::new(SharedTrace::new(size)));
        let outputs = launch(size, plan, shared.clone(), move |comm| {
            let task = make(comm.rank(), comm.size());
            drive_task(comm, task)
        });
        let trace = shared.map_or_else(HbTrace::default, |shared| {
            Arc::try_unwrap(shared)
                .expect("all rank threads joined, no collector clones remain")
                .into_trace()
        });
        Run {
            outputs: Ok(outputs),
            stats: None,
            trace,
        }
    }
}

/// Runs `body` on `size` ranks, each on its own thread over its own
/// [`Comm`], under `plan`, and collects the return values in rank
/// order: `None` for a rank the plan killed. A rank that panics for any
/// *other* reason propagates — fault injection must not swallow genuine
/// bugs in rank code (including test assertions).
fn launch<R, F>(
    size: usize,
    plan: FaultPlan,
    trace: Option<Arc<SharedTrace>>,
    body: F,
) -> Vec<Option<R>>
where
    R: Send + 'static,
    F: Fn(&mut Comm) -> R + Send + Sync + 'static,
{
    assert!(size > 0, "world size must be positive");
    if plan.has_kills() {
        silence_injected_kill_panics();
    }
    let faults = (!plan.is_empty()).then(|| Arc::new(plan));
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..size).map(|_| unbounded::<Msg>()).unzip();
    let inboxes = Arc::new(senders);
    let body = Arc::new(body);

    let handles: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| {
            let (inboxes, body) = (Arc::clone(&inboxes), Arc::clone(&body));
            let (faults, trace) = (faults.clone(), trace.clone());
            std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || {
                    let mut comm = Comm::new(rank, size, inboxes, inbox, faults, trace);
                    comm.rec(TraceKind::Start);
                    // Catch the unwind here, so the thread returns and
                    // drops the Comm (and with it the rank's inbox
                    // receiver) the moment the rank dies — that drop is
                    // what lets survivors see sends to this rank fail.
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| body(&mut comm)));
                    if out.is_ok() {
                        comm.rec(TraceKind::Done);
                    }
                    out
                })
                .expect("spawn rank thread")
        })
        .collect();
    handles
        .into_iter()
        .enumerate()
        .map(|(rank, h)| match h.join().unwrap_or_else(Err) {
            Ok(r) => Some(r),
            Err(e) if e.is::<RankKilled>() => {
                caliper_data::metrics::global()
                    .counter_volatile("mpisim.ranks_lost")
                    .inc();
                None
            }
            Err(e) => std::panic::resume_unwind(Box::new(format!(
                "rank {rank} panicked: {:?}",
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            ))),
        })
        .collect()
}

/// Drives a [`RankTask`] to completion against a blocking [`Comm`].
/// Every [`Action::Recv`] becomes one (bounded or unbounded) blocking
/// receive and counts one communication op, every [`TaskCtx::send`] one
/// send op, so [`FaultPlan`] schedules mean the same thing here as on
/// the event engine.
fn drive_task<T: RankTask>(comm: &mut Comm, mut task: T) -> T::Out {
    let mut wake = Wake::Start;
    loop {
        match task.step(&mut CommTaskCtx { comm }, wake) {
            Action::Done => return task.into_output(),
            Action::Recv { src, tag, timeout } => {
                // The inbox cannot disconnect while this rank lives (it
                // holds every sender, its own included), so an error is
                // a timeout, or a shutdown race indistinguishable from
                // silence.
                wake = comm
                    .recv_msg(src, tag, timeout)
                    .map_or(Wake::Timeout, Wake::Message);
            }
        }
    }
}

struct CommTaskCtx<'a> {
    comm: &'a mut Comm,
}

impl TaskCtx for CommTaskCtx<'_> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn size(&self) -> usize {
        self.comm.size()
    }

    fn send(&mut self, dest: usize, tag: Tag, payload: Payload) -> Result<(), CommError> {
        self.comm.send_payload(dest, tag, payload)
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" stderr message for [`RankKilled`] unwinds — those
/// are scripted, expected deaths, not noise-worthy failures. All other
/// panics go to the previously installed hook untouched.
pub(crate) fn silence_injected_kill_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<RankKilled>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Current value of a named counter in the process-global registry.
    fn global_counter(name: &str) -> u64 {
        caliper_data::metrics::global()
            .snapshot()
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or(0)
    }

    /// Run `body` on `size` fault-free ranks; every rank returns.
    fn run<R: Send + 'static>(
        size: usize,
        body: impl Fn(&mut Comm) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        launch(size, FaultPlan::new(), None, body)
            .into_iter()
            .map(|r| r.expect("no rank is killed without faults"))
            .collect()
    }

    fn send(comm: &mut Comm, dest: usize, tag: Tag, value: u64) -> Result<(), CommError> {
        comm.send_payload(dest, tag, Box::new(value))
    }

    /// A blocking receive of a `u64` from `src` (`None`: any source),
    /// with its source.
    fn recv(comm: &mut Comm, src: Option<usize>, tag: Tag) -> (usize, u64) {
        let msg = comm.recv_msg(src, tag, None).unwrap();
        (msg.src, *msg.payload.downcast::<u64>().unwrap())
    }

    #[test]
    fn a_killed_rank_is_none_and_feeds_the_metrics_registry() {
        // Other tests in this process also send messages and kill
        // ranks, so assert on deltas, not absolute values.
        let msgs_before = global_counter("mpisim.comm.messages");
        let lost_before = global_counter("mpisim.ranks_lost");
        let out = launch(3, FaultPlan::new().kill(2, 0), None, |comm| {
            match comm.rank() {
                0 => recv(comm, Some(1), 0).1,
                1 => {
                    send(comm, 0, 0, 17).unwrap();
                    0
                }
                _ => {
                    let _ = send(comm, 0, 0, 0); // scripted death here
                    unreachable!("rank 2 is killed at op 0")
                }
            }
        });
        assert_eq!(out, vec![Some(17), Some(0), None]);
        assert!(global_counter("mpisim.comm.messages") > msgs_before);
        assert!(global_counter("mpisim.ranks_lost") > lost_before);
    }

    #[test]
    fn ranks_see_their_ids() {
        let ids = run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ring_pass() {
        let sums = run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            send(comm, next, 0, comm.rank() as u64).unwrap();
            recv(comm, Some(prev), 0).1 + comm.rank() as u64
        });
        assert_eq!(sums, vec![3, 1, 3, 5]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                // Send tag 1 first, then tag 0.
                send(comm, 1, 1, 2).unwrap();
                send(comm, 1, 0, 1).unwrap();
                Vec::new()
            } else {
                // Receive in the opposite order.
                vec![recv(comm, Some(0), 0).1, recv(comm, Some(0), 1).1]
            }
        });
        assert_eq!(results[1], vec![1, 2]);
    }

    #[test]
    fn wildcard_receive_matches_any_source() {
        let totals = run(4, |comm| {
            if comm.rank() == 0 {
                let mut sources = Vec::new();
                let mut total = 0;
                for _ in 1..comm.size() {
                    let (src, v) = recv(comm, None, 7);
                    sources.push(src);
                    total += v;
                }
                sources.sort_unstable();
                assert_eq!(sources, vec![1, 2, 3]);
                total
            } else {
                send(comm, 0, 7, comm.rank() as u64).unwrap();
                0
            }
        });
        assert_eq!(totals[0], 6);
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn bounded_receive_times_out() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                // Rank 1 never sends: the wait must end in a timeout.
                let err = comm
                    .recv_msg(Some(1), 9, Some(Duration::from_millis(40)))
                    .unwrap_err();
                assert!(err.is_timeout(), "{err}");
            }
            true
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn delays_make_stragglers_not_corpses() {
        let t0 = std::time::Instant::now();
        let plan = FaultPlan::new().delay(1, 0, Duration::from_millis(50));
        let out = launch(2, plan, None, |comm| {
            if comm.rank() == 0 {
                recv(comm, Some(1), 0).1
            } else {
                send(comm, 0, 0, 7).unwrap();
                7
            }
        });
        assert_eq!(out, vec![Some(7), Some(7)]);
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn sends_to_a_dead_rank_eventually_disconnect() {
        let out = launch(2, FaultPlan::new().kill(1, 0), None, |comm| {
            if comm.rank() == 0 {
                // Rank 1 dies on its first op; once its inbox is gone our
                // sends fail. Retry until the death becomes observable.
                while send(comm, 1, 0, 1).is_ok() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            } else {
                let _ = recv(comm, Some(0), 0);
                unreachable!("rank 1 is killed at op 0")
            }
        });
        assert_eq!(out, vec![Some(true), None]);
    }
}
