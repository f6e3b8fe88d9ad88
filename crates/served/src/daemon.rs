//! The daemon's state and its one transition function.
//!
//! Everything the daemon's threads coordinate on is one value, a
//! [`Daemon`]: the phase, the queued batches, the live workers, the
//! replies owed and the connection handlers per listener. It changes
//! only through [`Daemon::step`], which does no I/O, takes no lock and
//! reads no clock. The threads in `server.rs` are its drivers: lock the
//! one `Mutex`, step, unlock, then perform the [`Effects`] returned —
//! wake a worker, spawn or refuse a handler, run a batch, return. So
//! the lifecycle can be explored over every interleaving of its events,
//! which this module's tests do (DESIGN.md §11).
//!
//! The queue is the ESS streaming lesson: bounded, and overload is
//! explicit. A push past capacity is answered [`Effects::Busy`] at
//! once, never waited out; a push once the drain began is refused;
//! a worker killed mid-batch puts its batch back at the head, past the
//! capacity and past the drain's close, so redelivery — not loss — is
//! the crash outcome.

use std::collections::VecDeque;

/// Connection handlers each listener runs at once. Past it a
/// connection is refused: `503` on HTTP, one `ERR` line on ingest. One
/// ingest connection may carry many streams (`HELLO` again), so this
/// bounds threads, not streams.
pub(crate) const MAX_HANDLERS: usize = 32;

/// The daemon's phases, in the only order they are passed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Phase {
    /// Batches are admitted.
    Serving,
    /// Batches are refused; the workers empty the queue and exit.
    Draining,
    /// Nothing more is handed out and the accept loops exit. `drained`:
    /// every worker had exited with the queue empty.
    Stopped { drained: bool },
}

/// The two listeners; handlers are counted and bounded per listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Listener {
    Ingest,
    Http,
}

/// What happened, told to [`Daemon::step`] by the thread it happened on.
#[derive(Debug)]
pub(crate) enum Event<B> {
    /// A listener accepted a connection.
    Accept(Listener),
    /// A connection's handler returned.
    HandlerDone(Listener),
    /// A handler read a request whole, an HTTP request or a batch it
    /// cannot offer: a reply is owed.
    Read,
    /// The reply owed for a `Read` or a `Push` is written, or failed;
    /// `ack`: it answers a batch the queue admitted.
    Replied { ack: bool },
    /// A handler read a batch whole and offers it to the queue: a reply
    /// is owed, whatever the queue says.
    Push(B),
    /// A worker asks for a batch.
    Pop,
    /// A worker about to die hands its batch back (`served.ingest`).
    Requeue(B),
    /// A supervised worker thread ended: clean exit, or tripped.
    WorkerExit,
    /// `POST /shutdown`: begin the drain (idempotent).
    BeginShutdown,
    /// The drain's deadline passed.
    Deadline,
}

/// What the stepping thread does next, or whom it wakes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Effects<B> {
    /// Nothing.
    None,
    /// A batch was queued: wake one waiting worker.
    WakeOne,
    /// The phase changed: wake every waiting worker, and `run`.
    WakeAll,
    /// (`Pop`) Process this batch.
    Run(B),
    /// (`Pop`) Wait to be woken, then pop again.
    Wait,
    /// (`Pop`, `Accept`) Return: the queue is closed and empty, or the
    /// daemon stopped.
    Exit,
    /// (`Accept`) Serve the connection on a handler of its own.
    Spawn,
    /// (`Accept`) Refuse the connection: the listener is at its bound.
    /// (`Push`) Refuse the batch: the drain began.
    Refuse,
    /// (`Push`) The queue is full: answer `BUSY`.
    Busy,
}

/// The daemon's one piece of shared state (module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Daemon<B> {
    phase: Phase,
    queue: VecDeque<B>,
    capacity: usize,
    /// Supervised worker threads that have not ended.
    live_workers: usize,
    /// Batches and HTTP requests read whose reply is not written.
    owed: usize,
    /// Of those, the batches the queue admitted: a clean drain writes
    /// every one of their replies.
    acks: usize,
    /// Running handlers, per [`Listener`].
    handlers: [usize; 2],
    max_handlers: usize,
}

impl<B> Daemon<B> {
    /// A serving daemon with `workers` live workers and a queue of
    /// `capacity` batches (at least one).
    pub(crate) fn new(capacity: usize, workers: usize, max_handlers: usize) -> Daemon<B> {
        Daemon {
            phase: Phase::Serving,
            queue: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            live_workers: workers,
            owed: 0,
            acks: 0,
            handlers: [0; 2],
            max_handlers,
        }
    }

    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    pub(crate) fn depth(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Replies owed, of those the acks, and the running handlers per
    /// listener.
    #[cfg(test)]
    pub(crate) fn owing(&self) -> (usize, usize, [usize; 2]) {
        (self.owed, self.acks, self.handlers)
    }

    /// The transition function: the only way the daemon changes.
    pub(crate) fn step(&mut self, event: Event<B>) -> Effects<B> {
        let serving = self.phase == Phase::Serving;
        let stopped = matches!(self.phase, Phase::Stopped { .. });
        let deadline = matches!(event, Event::Deadline);
        let effects = match event {
            Event::Accept(_) if stopped => Effects::Exit,
            Event::Accept(l) if self.handlers[l as usize] >= self.max_handlers => Effects::Refuse,
            Event::Accept(l) => {
                self.handlers[l as usize] += 1;
                Effects::Spawn
            }
            Event::HandlerDone(l) => {
                self.handlers[l as usize] -= 1;
                Effects::None
            }
            Event::Read => {
                self.owed += 1;
                Effects::None
            }
            Event::Replied { ack } => {
                self.owed -= 1;
                self.acks -= usize::from(ack);
                Effects::None
            }
            Event::Push(batch) => {
                self.owed += 1;
                if !serving {
                    Effects::Refuse
                } else if self.queue.len() >= self.capacity {
                    Effects::Busy
                } else {
                    self.queue.push_back(batch);
                    self.acks += 1;
                    Effects::WakeOne
                }
            }
            Event::Pop if stopped => Effects::Exit,
            Event::Pop => match self.queue.pop_front() {
                Some(batch) => Effects::Run(batch),
                None if serving => Effects::Wait,
                None => Effects::Exit,
            },
            Event::Requeue(batch) => {
                self.queue.push_front(batch);
                Effects::WakeOne
            }
            Event::WorkerExit => {
                self.live_workers -= 1;
                Effects::None
            }
            Event::BeginShutdown if serving => {
                self.phase = Phase::Draining;
                Effects::WakeAll
            }
            Event::BeginShutdown | Event::Deadline => Effects::None,
        };
        // The drain ends at its deadline, or by itself once every worker
        // is out and every reply owed is written but those of queued
        // batches: with no worker left, their verdicts are not coming.
        // It is clean when every admitted batch was run and acked — at
        // the deadline a verdict may be in its handler's hands, unwritten.
        let over = self.live_workers == 0 && self.owed <= self.queue.len();
        if self.phase == Phase::Draining && (deadline || over) {
            let drained = self.live_workers == 0 && self.queue.is_empty() && self.acks == 0;
            self.phase = Phase::Stopped { drained };
            return Effects::WakeAll;
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasherDefault, Hash, Hasher};

    // ---- `step` alone: what the bounded queue's own tests checked ----

    fn serving(capacity: usize) -> Daemon<u32> {
        Daemon::new(capacity, 1, MAX_HANDLERS)
    }

    #[test]
    fn a_full_queue_answers_busy_at_once_and_keeps_what_it_holds() {
        let mut d = serving(2);
        assert_eq!(d.step(Event::Push(1)), Effects::WakeOne);
        assert_eq!(d.step(Event::Push(2)), Effects::WakeOne);
        assert_eq!(d.step(Event::Push(3)), Effects::Busy);
        assert_eq!(d.depth(), 2);
        assert_eq!(d.step(Event::Pop), Effects::Run(1));
        assert_eq!(d.step(Event::Push(3)), Effects::WakeOne);
        assert_eq!(d.queue, [2, 3]);
    }

    #[test]
    fn a_requeued_batch_goes_first_past_capacity_and_past_the_drain() {
        let mut d = serving(1);
        assert_eq!(d.step(Event::Push(1)), Effects::WakeOne);
        assert_eq!(d.step(Event::Requeue(9)), Effects::WakeOne);
        assert_eq!(d.depth(), 2, "redelivery may exceed capacity by one");
        assert_eq!(d.step(Event::Pop), Effects::Run(9));
        assert_eq!(d.step(Event::BeginShutdown), Effects::WakeAll);
        assert_eq!(d.step(Event::Pop), Effects::Run(1));
        // Killed during the drain: the closed queue still takes it back
        // and hands it out again.
        assert_eq!(d.step(Event::Requeue(1)), Effects::WakeOne);
        assert_eq!(d.step(Event::Pop), Effects::Run(1));
        assert_eq!(d.step(Event::Pop), Effects::Exit);
    }

    #[test]
    fn an_empty_queue_makes_a_worker_wait_until_the_drain_then_exit() {
        let mut d = serving(4);
        assert_eq!(d.step(Event::Pop), Effects::Wait);
        // A push wakes one waiting worker, the drain every one of them.
        assert_eq!(d.step(Event::Push(7)), Effects::WakeOne);
        assert_eq!(d.step(Event::Pop), Effects::Run(7));
        assert_eq!(d.step(Event::BeginShutdown), Effects::WakeAll);
        assert_eq!(d.step(Event::Pop), Effects::Exit);
        assert_eq!(d.step(Event::Pop), Effects::Exit, "the end is told to every worker");
    }

    #[test]
    fn the_drain_refuses_pushes_and_hands_out_what_was_queued_in_order() {
        let mut d = serving(4);
        for i in 0..3 {
            assert_eq!(d.step(Event::Push(i)), Effects::WakeOne);
        }
        assert_eq!(d.step(Event::BeginShutdown), Effects::WakeAll);
        assert_eq!(d.step(Event::BeginShutdown), Effects::None, "idempotent");
        assert_eq!(d.step(Event::Push(3)), Effects::Refuse, "a draining queue admits nothing");
        assert_eq!(d.depth(), 3);
        let popped = [d.step(Event::Pop), d.step(Event::Pop), d.step(Event::Pop)];
        assert_eq!(popped, [Effects::Run(0), Effects::Run(1), Effects::Run(2)]);
        assert_eq!(d.step(Event::Pop), Effects::Exit);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut d = serving(0);
        assert_eq!(d.capacity(), 1);
        assert_eq!(d.step(Event::Push(1)), Effects::WakeOne);
        assert_eq!(d.step(Event::Push(2)), Effects::Busy);
    }

    #[test]
    fn each_listener_admits_up_to_its_bound_and_stops_admitting_once_stopped() {
        let mut d: Daemon<u32> = Daemon::new(1, 0, 2);
        for l in [Listener::Ingest, Listener::Http] {
            assert_eq!(d.step(Event::Accept(l)), Effects::Spawn);
            assert_eq!(d.step(Event::Accept(l)), Effects::Spawn);
            assert_eq!(d.step(Event::Accept(l)), Effects::Refuse);
        }
        assert_eq!(d.step(Event::HandlerDone(Listener::Ingest)), Effects::None);
        assert_eq!(d.step(Event::Accept(Listener::Ingest)), Effects::Spawn);
        // No worker and nothing owed: the drain is over as it begins.
        assert_eq!(d.step(Event::BeginShutdown), Effects::WakeAll);
        assert_eq!(d.phase(), Phase::Stopped { drained: true });
        assert_eq!(d.step(Event::Accept(Listener::Http)), Effects::Exit);
    }

    // ---- the explorer: every interleaving of a small daemon ----
    //
    // The threads of `server.rs` become small programs over the real
    // `step`: ingest connections sending batches, one `POST /shutdown`,
    // the workers, `run`. Each state is one position per thread plus the
    // daemon; the explorer visits every state reachable by any order of
    // the threads' moves, and checks every state against what the
    // threads' positions say it must be.

    /// Batch ids: connection `c`'s batch `k` is `c * BATCHES_MAX + k`.
    type Id = u8;
    const BATCHES_MAX: u8 = 3;

    /// Where a connection's handler is. The last connection of a world
    /// is the one `POST /shutdown`; the others are ingest connections.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Conn {
        /// Not accepted yet.
        Connecting,
        /// Handler running, `k` requests answered.
        Idle(u8),
        /// (HTTP) The request read: the drain is about to begin.
        Read,
        /// Batch `k` queued; the handler waits for its verdict.
        Waiting(u8),
        /// The reply to request `k` is in hand: write it.
        Writing(u8),
        /// Refused, or the handler returned.
        Closed,
    }

    /// Where a supervised worker is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Worker {
        /// In `worker_loop`, about to pop.
        Ready,
        /// Blocked on the workers' condition variable; `true` once notified.
        Waiting(bool),
        /// Processing a batch.
        Busy(Id),
        /// `worker_loop` returned, or the supervisor gave up: it is about
        /// to report the exit.
        Exiting,
        /// The thread ended.
        Gone,
    }

    /// Where `Server::run` is: waiting for the phase to leave `Serving`,
    /// then for `Stopped` under the deadline. (What it does when woken
    /// reads the phase and nothing else, so it is taken as it is woken.)
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Run {
        Serving,
        Draining,
        Done,
    }

    /// One move of one thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Move {
        Conn(usize),
        Worker(usize),
        /// `served.ingest` kills a busy worker: it puts the batch back
        /// and panics, and the supervisor restarts it.
        Kill(usize),
        /// The same kill, past the restart budget: the slot trips.
        Trip(usize),
        Deadline,
    }

    /// A world's shape. One kill (or trip) and one deadline may happen
    /// on any path, or not at all.
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        ingest_conns: usize,
        batches: u8,
        workers: usize,
        capacity: usize,
        max_handlers: usize,
    }

    /// Thread slots; a world's unused slots are `Closed` and `Gone`.
    const CONNS_MAX: usize = 4;
    const WORKERS_MAX: usize = 2;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct World {
        daemon: Daemon<Id>,
        /// The ingest connections, then the HTTP one.
        conns: [Conn; CONNS_MAX],
        http: usize,
        workers: [Worker; WORKERS_MAX],
        run: Run,
        /// Batches admitted to the queue, and those whose reply is written.
        admitted: u16,
        replied: u16,
        kills: u8,
        deadlines: u8,
    }

    impl World {
        fn new(shape: &Shape) -> World {
            let mut conns = [Conn::Closed; CONNS_MAX];
            conns[..=shape.ingest_conns].fill(Conn::Connecting);
            let mut workers = [Worker::Gone; WORKERS_MAX];
            workers[..shape.workers].fill(Worker::Ready);
            World {
                daemon: Daemon::new(shape.capacity, shape.workers, shape.max_handlers),
                conns,
                http: shape.ingest_conns,
                workers,
                run: Run::Serving,
                admitted: 0,
                replied: 0,
                kills: 1,
                deadlines: 1,
            }
        }

        fn is_http(&self, c: usize) -> bool {
            c == self.http
        }

        fn moves(&self) -> Vec<Move> {
            let mut moves = Vec::new();
            for (c, conn) in self.conns.iter().enumerate() {
                if !matches!(conn, Conn::Waiting(_) | Conn::Closed) {
                    moves.push(Move::Conn(c));
                }
            }
            for (w, worker) in self.workers.iter().enumerate() {
                match worker {
                    Worker::Waiting(false) | Worker::Gone => {}
                    Worker::Busy(_) if self.kills > 0 => {
                        moves.extend([Move::Worker(w), Move::Kill(w), Move::Trip(w)])
                    }
                    _ => moves.push(Move::Worker(w)),
                }
            }
            if self.run == Run::Draining && self.deadlines > 0 {
                moves.push(Move::Deadline);
            }
            moves
        }

        /// Step the daemon as a driver would, and wake whom it says.
        fn step(&mut self, event: Event<Id>) -> Effects<Id> {
            let (phase, depth) = (self.daemon.phase, self.daemon.queue.len());
            let pushed = matches!(event, Event::Push(_));
            let effects = self.daemon.step(event);
            if pushed && phase != Phase::Serving {
                assert_eq!(effects, Effects::Refuse, "a batch admitted once the drain began");
                assert_eq!(self.daemon.queue.len(), depth, "a refused batch was queued");
            }
            let woken = match effects {
                Effects::WakeOne => 1,
                Effects::WakeAll => {
                    self.run = match self.daemon.phase {
                        Phase::Serving => self.run,
                        Phase::Draining => Run::Draining,
                        Phase::Stopped { .. } => Run::Done,
                    };
                    usize::MAX
                }
                _ => 0,
            };
            // Workers are alike, so which one a `notify_one` wakes does
            // not matter.
            for w in self.workers.iter_mut().filter(|w| **w == Worker::Waiting(false)).take(woken) {
                *w = Worker::Waiting(true);
            }
            effects
        }

        fn apply(&mut self, m: Move, shape: &Shape) {
            match m {
                Move::Conn(c) => self.conn_moves(c, shape),
                Move::Worker(w) => self.worker_moves(w),
                Move::Kill(w) | Move::Trip(w) => {
                    let Worker::Busy(id) = self.workers[w] else { unreachable!() };
                    self.kills -= 1;
                    self.step(Event::Requeue(id));
                    let restarted = matches!(m, Move::Kill(_));
                    self.workers[w] = if restarted { Worker::Ready } else { Worker::Exiting };
                }
                Move::Deadline => {
                    self.deadlines -= 1;
                    self.step(Event::Deadline);
                    assert_eq!(self.run, Run::Done, "the deadline stops the drain");
                }
            }
        }

        fn conn_moves(&mut self, c: usize, shape: &Shape) {
            let id = |k: u8| c as u8 * BATCHES_MAX + k;
            self.conns[c] = match self.conns[c] {
                Conn::Connecting => {
                    let listener = if self.is_http(c) { Listener::Http } else { Listener::Ingest };
                    match self.step(Event::Accept(listener)) {
                        Effects::Spawn => Conn::Idle(0),
                        Effects::Refuse | Effects::Exit => Conn::Closed,
                        other => panic!("accept stepped to {other:?}"),
                    }
                }
                Conn::Idle(0) if self.is_http(c) => {
                    self.step(Event::Read);
                    Conn::Read
                }
                Conn::Read => {
                    self.step(Event::BeginShutdown);
                    Conn::Writing(0)
                }
                // The one HTTP handler's count bounds nothing: it goes
                // with the reply.
                Conn::Writing(_) if self.is_http(c) => {
                    self.step(Event::Replied { ack: false });
                    self.step(Event::HandlerDone(Listener::Http));
                    Conn::Closed
                }
                Conn::Idle(k) if k < shape.batches => match self.step(Event::Push(id(k))) {
                    Effects::WakeOne => {
                        self.admitted |= 1 << id(k);
                        Conn::Waiting(k)
                    }
                    Effects::Busy | Effects::Refuse => Conn::Writing(k),
                    other => panic!("push stepped to {other:?}"),
                },
                Conn::Idle(_) => {
                    self.step(Event::HandlerDone(Listener::Ingest));
                    Conn::Closed
                }
                Conn::Writing(k) => {
                    let ack = self.admitted & (1 << id(k)) != 0;
                    self.step(Event::Replied { ack });
                    if ack {
                        self.replied |= 1 << id(k);
                    }
                    Conn::Idle(k + 1)
                }
                Conn::Waiting(_) | Conn::Closed => unreachable!(),
            };
        }

        fn worker_moves(&mut self, w: usize) {
            self.workers[w] = match self.workers[w] {
                Worker::Ready | Worker::Waiting(true) => match self.step(Event::Pop) {
                    Effects::Run(id) => Worker::Busy(id),
                    Effects::Wait => Worker::Waiting(false),
                    Effects::Exit => Worker::Exiting,
                    other => panic!("pop stepped to {other:?}"),
                },
                // The verdict goes to the handler waiting for it.
                Worker::Busy(id) => {
                    let (c, k) = (usize::from(id / BATCHES_MAX), id % BATCHES_MAX);
                    assert_eq!(self.conns[c], Conn::Waiting(k), "a verdict nobody waits for");
                    self.conns[c] = Conn::Writing(k);
                    Worker::Ready
                }
                Worker::Exiting => {
                    self.step(Event::WorkerExit);
                    Worker::Gone
                }
                Worker::Waiting(false) | Worker::Gone => unreachable!(),
            };
        }

        /// What must hold in every state: the daemon's counters are the
        /// ones the threads' positions give, no admitted batch is lost or
        /// doubled, and a clean drain left no admitted batch without its
        /// reply written.
        fn check(&self, shape: &Shape) {
            let d = &self.daemon;
            let owing = |c: &&Conn| matches!(c, Conn::Read | Conn::Waiting(_) | Conn::Writing(_));
            let running = |c: &&Conn| !matches!(c, Conn::Connecting | Conn::Closed);
            let (ingest, http) = (&self.conns[..self.http], &self.conns[self.http..]);
            assert_eq!(d.owed, self.conns.iter().filter(owing).count(), "replies owed");
            let unacked = self.admitted & !self.replied;
            assert_eq!(d.acks, unacked.count_ones() as usize, "acks owed");
            assert_eq!(d.handlers[0], ingest.iter().filter(running).count(), "ingest handlers");
            assert_eq!(d.handlers[1], http.iter().filter(running).count(), "HTTP handlers");
            assert!(d.handlers.iter().all(|&h| h <= shape.max_handlers), "past the bound");
            let live = self.workers.iter().filter(|&&w| w != Worker::Gone).count();
            assert_eq!(d.live_workers, live, "live workers");
            // The batch a handler waits for is queued once or held by one
            // worker, and nothing else is queued or held.
            let mut waiting = 0;
            for (c, conn) in ingest.iter().enumerate() {
                if let Conn::Waiting(k) = conn {
                    let id = c as u8 * BATCHES_MAX + k;
                    let queued = d.queue.iter().filter(|&&q| q == id).count();
                    let held = self.workers.iter().filter(|&&w| w == Worker::Busy(id)).count();
                    assert_eq!(queued + held, 1, "batch {id} lost or doubled");
                    waiting += 1;
                }
            }
            let held = self.workers.iter().filter(|w| matches!(w, Worker::Busy(_))).count();
            assert_eq!(d.queue.len() + held, waiting, "a batch nobody waits for");
            if d.phase == (Phase::Stopped { drained: true }) {
                assert_eq!(unacked, 0, "drained, yet an admitted batch's reply is not written");
            }
        }

        /// The same world with its ingest connections, then its workers,
        /// in a canonical order. Each kind runs one program, so states
        /// that differ only in which thread is which are one state.
        fn canonical(mut self) -> World {
            let n = self.http;
            let bits = |mask: u16, c: usize| (mask >> (c as u8 * BATCHES_MAX)) & 0b111;
            let queued = |w: &World, c: usize| match w.conns[c] {
                Conn::Waiting(k) => w.daemon.queue.iter().position(|&q| q == c as u8 * BATCHES_MAX + k),
                _ => None,
            };
            let mut order = [0, 1, 2];
            let order = &mut order[..n];
            order.sort_by_key(|&c| (self.conns[c], queued(&self, c), bits(self.admitted, c), bits(self.replied, c)));
            let mut rank = [0u8; 8];
            for (new, &old) in order.iter().enumerate() {
                rank[old] = new as u8;
            }
            let remap = |id: Id| rank[usize::from(id / BATCHES_MAX)] * BATCHES_MAX + id % BATCHES_MAX;
            let conns = self.conns;
            for (new, &old) in order.iter().enumerate() {
                self.conns[new] = conns[old];
            }
            self.daemon.queue.iter_mut().for_each(|q| *q = remap(*q));
            for worker in &mut self.workers {
                if let Worker::Busy(id) = worker {
                    *id = remap(*id);
                }
            }
            self.workers.sort();
            let remask = |mask: u16| (0..n).fold(0, |acc, c| acc | bits(mask, c) << (rank[c] * BATCHES_MAX));
            (self.admitted, self.replied) = (remask(self.admitted), remask(self.replied));
            self
        }
    }

    /// A multiply-rotate hash, finished with a 64-bit mix: the state
    /// hashes stay apart, and the explorer spends its time exploring.
    #[derive(Default)]
    struct Fx(u64);

    impl Hasher for Fx {
        fn write(&mut self, bytes: &[u8]) {
            bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
        fn write_usize(&mut self, n: usize) {
            self.write_u64(n as u64);
        }
        fn finish(&self) -> u64 {
            let mut h = self.0;
            h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            h ^ (h >> 33)
        }
    }

    fn hash(world: &World) -> u64 {
        let mut h = Fx::default();
        world.hash(&mut h);
        h.finish()
    }

    /// Visit every state reachable from the start, once each (by hash,
    /// up to which thread is which), checking each; returns how many.
    fn explore(shape: Shape) -> usize {
        let start = World::new(&shape);
        let mut seen = HashSet::<u64, BuildHasherDefault<Fx>>::default();
        seen.insert(hash(&start));
        let mut stack = vec![start];
        while let Some(world) = stack.pop() {
            world.check(&shape);
            let moves = world.moves();
            assert_ne!(moves, [Move::Deadline], "the drain waits for nothing but its deadline:\n{world:#?}");
            if moves.is_empty() {
                assert_ends(&world);
            }
            for m in moves {
                let mut next = world.clone();
                next.apply(m, &shape);
                let next = next.canonical();
                if seen.insert(hash(&next)) {
                    stack.push(next);
                }
            }
        }
        seen.len()
    }

    /// Nothing can move: the drain reached `Stopped`, `run` returned,
    /// every worker thread ended, and an admitted batch left without a
    /// reply is one the exit summary owns up to.
    fn assert_ends(world: &World) {
        let Phase::Stopped { drained } = world.daemon.phase else {
            panic!("stuck before Stopped:\n{world:#?}");
        };
        assert_eq!(world.run, Run::Done, "{world:#?}");
        assert!(world.workers.iter().all(|&w| w == Worker::Gone), "{world:#?}");
        if world.admitted & !world.replied != 0 {
            assert!(!drained, "an admitted batch has no reply, yet drained=true:\n{world:#?}");
        }
    }

    const SMALL: Shape = Shape {
        ingest_conns: 1,
        batches: 1,
        workers: 1,
        capacity: 1,
        max_handlers: 2,
    };

    /// Every interleaving of every shape up to 3 ingest connections × 3
    /// batches × 2 workers but the two largest, each with a `POST
    /// /shutdown`, one kill or trip and one deadline, and the listener
    /// bound below the number of connections (≈ 3 s unoptimised).
    #[test]
    fn every_interleaving_keeps_the_invariants() {
        let shapes = [(3, 1, 2), (1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 3, 1), (3, 2, 1)];
        let states: usize = shapes.into_iter().map(explore_shape).sum();
        assert!(states > 250_000, "explored only {states} states");
    }

    /// The two largest shapes, 3 × 3 × 1 and 3 × 3 × 2: 1.1 million
    /// states, ≈ 2 s optimised and ten times that without, so
    /// `scripts/check.sh` runs them under `--release -- --ignored`.
    #[test]
    #[ignore]
    fn every_interleaving_of_the_largest_shapes_keeps_the_invariants() {
        let states: usize = [(3, 3, 1), (3, 3, 2)].into_iter().map(explore_shape).sum();
        assert!(states > 1_000_000, "explored only {states} states");
    }

    fn explore_shape((ingest_conns, batches, workers): (usize, u8, usize)) -> usize {
        explore(Shape { ingest_conns, batches, workers, ..SMALL })
    }

    /// Replays `moves` from the start of `shape`'s world, checking each
    /// state, and returns where it ends.
    fn replay(shape: Shape, moves: &[Move]) -> World {
        let mut world = World::new(&shape);
        for &m in moves {
            assert!(world.moves().contains(&m), "{m:?} is not enabled in\n{world:#?}");
            world.apply(m, &shape);
            world.check(&shape);
        }
        world
    }

    /// `chaos_served.rs`'s case: one worker, no restart budget, killed by
    /// its first batch. The batch goes back to the queue with nobody to
    /// take it, so once `POST /shutdown` is answered the drain ends at
    /// once — no deadline — and owns up to the batch left behind.
    #[test]
    fn drain_does_not_wait_for_a_verdict_no_worker_is_left_to_give() {
        let (batch, shutdown) = (Move::Conn(0), Move::Conn(1));
        // Accepted, queued, popped, tripped (the batch back in the queue).
        let mut moves = vec![batch, batch, Move::Worker(0), Move::Trip(0), Move::Worker(0)];
        let world = replay(SMALL, &moves);
        assert_eq!((world.daemon.live_workers, world.daemon.queue.len()), (0, 1));
        // Accepted, read, the drain begun: the `200 draining` is owed.
        moves.extend([shutdown; 3]);
        assert_eq!(replay(SMALL, &moves).daemon.phase, Phase::Draining);
        // Written: nothing is left to wait for, and `run` is told.
        moves.push(shutdown);
        let world = replay(SMALL, &moves);
        assert_eq!(world.daemon.phase, Phase::Stopped { drained: false });
        assert_eq!(world.run, Run::Done);
        assert_eq!(world.conns[0], Conn::Waiting(0), "its verdict is not coming");
        assert!(world.moves().is_empty());
    }

    /// `chaos_served.rs`'s case: one worker holds a batch past the
    /// deadline while another waits in the queue; the deadline ends the
    /// drain, `drained=false`, and neither handler is answered by it.
    #[test]
    fn wedged_worker_ends_the_drain_at_the_deadline_with_exit_2() {
        let shape = Shape { ingest_conns: 2, ..SMALL };
        let (a, b, shutdown) = (Move::Conn(0), Move::Conn(1), Move::Conn(2));
        // `a` is popped, `b` queued; `POST /shutdown` answered, its
        // handler gone; `run` waits for the drain, and the deadline passes.
        let mut moves = vec![a, a, Move::Worker(0), b, b];
        moves.extend([shutdown; 4]);
        moves.push(Move::Deadline);
        let world = replay(shape, &moves);
        assert_eq!(world.daemon.phase, Phase::Stopped { drained: false });
        assert_eq!(world.conns[..2], [Conn::Waiting(0), Conn::Waiting(0)]);
        // The wedged worker finishes after the exit was decided: its
        // verdict is handed over, nothing more is handed out, and the
        // worker thread ends.
        moves.extend([Move::Worker(0); 3]);
        let world = replay(shape, &moves);
        assert_eq!(world.workers[0], Worker::Gone);
        assert_eq!(world.conns[..2], [Conn::Writing(0), Conn::Waiting(0)]);
        assert_eq!(world.daemon.queue, [BATCHES_MAX], "b was never run");
    }

    /// The deadline passes after the worker handed its verdict over but
    /// before the handler wrote the `OK`: the drain is not clean, so the
    /// exit says the ack may be lost.
    #[test]
    fn a_deadline_before_the_ack_is_written_is_not_a_clean_drain() {
        let (batch, shutdown) = (Move::Conn(0), Move::Conn(1));
        // Accepted, queued, popped; `POST /shutdown` read and the drain
        // begun; the verdict handed over; the worker finds the queue
        // closed and empty, and its thread ends.
        let mut moves = vec![batch, batch, Move::Worker(0)];
        moves.extend([shutdown; 3]);
        moves.extend([Move::Worker(0); 3]);
        let world = replay(SMALL, &moves);
        assert_eq!((world.conns[0], world.workers[0]), (Conn::Writing(0), Worker::Gone));
        assert_eq!(world.daemon.phase, Phase::Draining, "the ack is owed");
        moves.push(Move::Deadline);
        let world = replay(SMALL, &moves);
        assert_eq!(world.daemon.phase, Phase::Stopped { drained: false });
        // The handler writes the `OK` after the exit was decided.
        moves.push(batch);
        assert_eq!(replay(SMALL, &moves).replied, 1);
    }

    /// `chaos_served.rs`'s case: a worker killed mid-batch puts it back,
    /// the restarted worker runs it, the handler gets its verdict, and
    /// the drain is clean.
    #[test]
    fn worker_kill_mid_batch_loses_nothing() {
        let (batch, shutdown) = (Move::Conn(0), Move::Conn(1));
        let mut moves = vec![batch, batch, Move::Worker(0), Move::Kill(0)];
        // The batch redelivered, its verdict handed over, the reply
        // written and the handler gone.
        moves.extend([Move::Worker(0), Move::Worker(0), batch, batch]);
        moves.extend([shutdown; 4]);
        // The worker finds the closed queue empty and exits; `run` is told.
        moves.extend([Move::Worker(0), Move::Worker(0)]);
        let world = replay(SMALL, &moves);
        assert_eq!((world.kills, world.workers[0]), (0, Worker::Gone));
        assert_eq!(world.daemon.phase, Phase::Stopped { drained: true });
        assert_eq!((world.admitted, world.replied), (1, 1));
        assert!(world.moves().is_empty());
    }
}
