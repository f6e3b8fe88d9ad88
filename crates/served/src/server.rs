//! The daemon: accept loops, supervised ingest workers, the query
//! plane, graceful drain, and the exit-code contract.
//!
//! What the threads coordinate on is one value behind one lock, the
//! `Daemon` of `daemon.rs`, changed only by its pure `step`. Every
//! thread here is a driver: lock, step, unlock, then do what the step
//! returned (wake a worker, spawn or refuse a handler, process a batch,
//! return). Thread layout (each blocks on the event it waits for; the
//! phases and the drain order are DESIGN.md §11):
//!
//! * one ingest and one HTTP accept loop in a blocking `accept()`
//!   (handlers run elsewhere, so an overloaded daemon never stops
//!   answering `BUSY`/`503`; injected `served.accept` faults drop
//!   connections here without touching the loop);
//! * at most `MAX_HANDLERS` (32) connection handlers per listener, a thread
//!   each; past the bound an HTTP connection is answered `503` and an
//!   ingest connection one `ERR` line, then closed;
//! * `workers` supervised ingest workers, waiting for a batch on a
//!   condition variable of the one lock ([`supervise`]: restart on
//!   panic with seeded backoff, trip after the restart budget);
//! * the caller's thread in [`Server::run`], waiting for the phase.
//!
//! Shutdown is cooperative (`POST /shutdown` or the client `--shutdown`
//! flag): refuse batches, let workers empty the closed queue, write
//! every reply owed, flush and fsync every journal, then return. A
//! non-graceful death (`kill -9`) is also safe — acknowledged batches
//! are journaled before the ack, so restart replays them losslessly;
//! only un-acked work is lost, which well-behaved clients retry.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use caliper_data::metrics::{self, Gauge, MetricsRegistry};
use caliper_data::Deadline;
use caliper_faults::{sites, stable_hash};
use caliper_format::retry::RetryPolicy;
use caliper_query::{parse_query, AggregationSpec};

use crate::config::ServedConfig;
use crate::daemon::{Daemon, Effects, Event, Listener, Phase, MAX_HANDLERS};
use crate::http::{read_request, text_response, Budgeted, Request};
use crate::protocol::{read_line, read_payload, Command, Reply};
use crate::state::{journal_path, stream_of_journal, valid_stream_name, StreamState, WarmQuery};
use crate::supervisor::{supervise, WorkerHealth};

/// The `retry-after-ms` hint sent with `BUSY` replies.
const BUSY_RETRY_AFTER_MS: u64 = 100;
/// How long a connection handler waits for its batch's worker verdict.
const BATCH_REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Ingest connection read timeout (idle clients are dropped).
const CONN_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One queued ingest batch, carrying its reply channel back to the
/// connection handler.
struct Batch {
    stream: String,
    payload: Vec<u8>,
    /// Global admission ordinal: the deterministic fault key for
    /// `served.ingest` rules (`<stream>#<ordinal>`).
    ordinal: u64,
    reply: SyncSender<Reply>,
}

/// A connection's handler as the daemon counts it: made when the
/// handler starts and dropped when it returns or unwinds, which steps
/// `HandlerDone` — after the `Replied` of a reply still owed. So a
/// handler that panics gives its slot back and keeps no drain waiting.
struct Handler<'a> {
    state: &'a ServerState,
    kind: Listener,
    /// The reply owed, if one is; `Some(true)`: it answers a batch the
    /// queue admitted.
    owed: Option<bool>,
}

impl Handler<'_> {
    /// Step `event` — a `Read`, or a batch's `Push` — after which a
    /// reply is owed.
    fn owe(&mut self, event: Event<Batch>) -> Effects<Batch> {
        let push = matches!(event, Event::Push(_));
        let effects = self.state.step(event);
        self.owed = Some(push && !matches!(effects, Effects::Refuse | Effects::Busy));
        effects
    }

    /// The reply owed, if one is, is written, or failed.
    fn replied(&mut self) {
        if let Some(ack) = self.owed.take() {
            self.state.step(Event::Replied { ack });
        }
    }
}

impl Drop for Handler<'_> {
    fn drop(&mut self) {
        self.replied();
        self.state.step(Event::HandlerDone(self.kind));
    }
}

/// Everything the daemon's threads share.
pub struct ServerState {
    cfg: ServedConfig,
    spec: AggregationSpec,
    streams: Mutex<BTreeMap<String, Arc<Mutex<StreamState>>>>,
    /// The one lock: changed only through [`ServerState::step`] and the
    /// workers' pops.
    daemon: Mutex<Daemon<Batch>>,
    /// Workers wait here for a batch.
    work: Condvar,
    /// [`Server::run`] waits here for the phase.
    changed: Condvar,
    /// `served.queue.depth`, set at every step.
    depth: Gauge,
    batch_ordinal: AtomicU64,
    conn_ordinal: AtomicU64,
}

impl ServerState {
    fn new(cfg: ServedConfig) -> Result<ServerState, String> {
        let spec_query = cfg.aggregate_query();
        let spec = parse_query(&spec_query)
            .map_err(|e| format!("served.aggregate.*: invalid scheme '{spec_query}': {e}"))?;
        Ok(ServerState {
            daemon: Mutex::new(Daemon::new(cfg.queue_depth, cfg.workers.max(1), MAX_HANDLERS)),
            cfg,
            spec: AggregationSpec::from_query(&spec),
            streams: Mutex::new(BTreeMap::new()),
            work: Condvar::new(),
            changed: Condvar::new(),
            depth: metrics::global().gauge_volatile("served.queue.depth"),
            batch_ordinal: AtomicU64::new(0),
            conn_ordinal: AtomicU64::new(0),
        })
    }

    fn metrics(&self) -> &'static MetricsRegistry {
        metrics::global()
    }

    fn daemon(&self) -> MutexGuard<'_, Daemon<Batch>> {
        self.daemon.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock, step, unlock, then wake whom the step says to wake.
    fn step(&self, event: Event<Batch>) -> Effects<Batch> {
        let mut daemon = self.daemon();
        let effects = daemon.step(event);
        self.depth.set(daemon.depth() as u64);
        drop(daemon);
        match effects {
            Effects::WakeOne => self.work.notify_one(),
            Effects::WakeAll => {
                self.work.notify_all();
                self.changed.notify_all();
            }
            _ => {}
        }
        effects
    }

    /// Begin the graceful drain (idempotent): refuse batches from now
    /// on; each worker exits once the queue is empty.
    pub fn begin_shutdown(&self) {
        self.step(Event::BeginShutdown);
    }

    /// Readiness: the queue below its high-watermark (full = not
    /// ready: new batches would only bounce) and not draining. Replay
    /// is over before [`Server::bind`] hands out a server to ask.
    fn ready(&self) -> (bool, String) {
        let daemon = self.daemon();
        let (depth, capacity) = (daemon.depth(), daemon.capacity());
        let draining = daemon.phase() != Phase::Serving;
        drop(daemon);
        let detail = format!("replay_complete=true queue_depth={depth}/{capacity} draining={draining}");
        (depth < capacity && !draining, detail)
    }

    /// Get or open a stream's state. Opening journals + replays under
    /// the map lock so two HELLOs for a new stream cannot race a
    /// double-create.
    fn stream(&self, name: &str) -> Result<Arc<Mutex<StreamState>>, String> {
        if !valid_stream_name(name) {
            return Err(format!("invalid stream name '{name}'"));
        }
        let mut map = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = map.get(name) {
            return Ok(Arc::clone(s));
        }
        let state = StreamState::open(name, &self.cfg, &self.spec)?;
        let state = Arc::new(Mutex::new(state));
        map.insert(name.to_string(), Arc::clone(&state));
        self.metrics().gauge("served.streams").set(map.len() as u64);
        Ok(state)
    }

    fn sorted_streams(&self) -> Vec<(String, Arc<Mutex<StreamState>>)> {
        let map = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
    }

    fn degraded_streams(&self) -> Vec<String> {
        self.sorted_streams()
            .into_iter()
            .filter(|(_, s)| s.lock().unwrap_or_else(|e| e.into_inner()).degraded())
            .map(|(name, _)| name)
            .collect()
    }

    fn refresh_degraded_gauge(&self) -> usize {
        let n = self.degraded_streams().len();
        self.metrics().gauge("served.streams.degraded").set(n as u64);
        n
    }

    /// Process one batch on a worker thread. May panic deliberately:
    /// an armed `served.ingest` fault requeues the batch at the queue
    /// head and then panics, simulating a worker killed mid-ingest
    /// with zero accepted-batch loss (the supervisor restarts the
    /// worker; the restarted worker redelivers the batch).
    fn process(&self, batch: Batch) {
        let label = format!("{}#{}", batch.stream, batch.ordinal);
        let key = stable_hash(&label);
        if caliper_faults::trigger(sites::SERVED_INGEST, key, &label).is_some() {
            self.step(Event::Requeue(batch));
            panic!("injected worker kill at {} ({label})", sites::SERVED_INGEST);
        }
        let mut payload = batch.payload;
        caliper_faults::mutate(sites::SERVED_INGEST, key, &label, &mut payload);

        let reply = match self.stream(&batch.stream) {
            Err(e) => Reply::Error(e),
            Ok(stream) => {
                let mut s = stream.lock().unwrap_or_else(|e| e.into_inner());
                let was_degraded = s.degraded();
                match s.process_batch(&payload) {
                    Ok(ack) => {
                        self.metrics().counter("served.ingest.accepted").inc();
                        self.metrics().counter("served.ingest.records").add(ack.records);
                        Reply::Ok(format!("seq={} records={}", ack.last_seq, ack.records))
                    }
                    Err(msg) => {
                        self.metrics().counter("served.ingest.failed").inc();
                        if s.degraded() {
                            if !was_degraded {
                                drop(s);
                                self.refresh_degraded_gauge();
                            }
                            Reply::Degraded(msg)
                        } else {
                            Reply::Error(msg)
                        }
                    }
                }
            }
        };
        // The handler may have timed out and gone; that's its problem.
        let _ = batch.reply.try_send(reply);
    }

    /// Pop and process batches until the step says the queue is
    /// closed and empty, or the daemon stopped.
    fn worker_loop(&self) {
        let mut daemon = self.daemon();
        loop {
            match daemon.step(Event::Pop) {
                Effects::Run(batch) => {
                    self.depth.set(daemon.depth() as u64);
                    drop(daemon);
                    self.process(batch);
                    daemon = self.daemon();
                }
                Effects::Wait => daemon = self.work.wait(daemon).unwrap_or_else(|e| e.into_inner()),
                _ => return,
            }
        }
    }

    /// The query plane: `q` over the warm streams (all or one), one
    /// stream's flushed block at a time ([`WarmQuery`]), under the
    /// per-query deadline — checked before each stream, and a stream it
    /// finds expired is left out of a 408 partial answer. Returns
    /// `(status, body)`.
    fn run_http_query(&self, q: &str, stream_filter: Option<&str>) -> (u16, String) {
        self.metrics().counter("served.query.count").inc();
        let deadline = Deadline::after(self.cfg.query_deadline);
        // Fault site: `delay(ms)` rules sleep here (consuming budget —
        // the deterministic "slow query"); `err`/`fail` rules refuse
        // the query outright.
        let key = stable_hash(q);
        if caliper_faults::trigger(sites::SERVED_QUERY, key, q).is_some() {
            self.metrics().counter("served.query.failed").inc();
            return (503, format!("injected fault at {}\n", sites::SERVED_QUERY));
        }

        let selected: Vec<_> = self
            .sorted_streams()
            .into_iter()
            .filter(|(name, _)| stream_filter.is_none_or(|f| f == name))
            .collect();
        if let Some(f) = stream_filter.filter(|_| selected.is_empty()) {
            return (404, format!("unknown stream '{f}'\n"));
        }
        let mut query = match WarmQuery::new(q) {
            Ok(query) => query,
            Err(e) => return (400, format!("query error: {e}\n")),
        };
        let (mut streams_seen, mut streams_skipped) = (0usize, 0usize);
        for (_, stream) in &selected {
            if deadline.expired() {
                streams_skipped += 1;
                continue;
            }
            // The stream is locked for its flush only.
            let block = query.block_of(&stream.lock().unwrap_or_else(|e| e.into_inner()));
            query.fold(&block);
            streams_seen += 1;
        }

        let answer = query.finish().render();
        if streams_skipped == 0 {
            return (200, answer);
        }
        self.metrics().counter("served.query.deadline_exceeded").inc();
        let (ms, total) = (self.cfg.query_deadline.as_millis(), streams_seen + streams_skipped);
        let warning = format!("deadline exceeded ({ms} ms): partial result over {streams_seen} of {total} streams");
        (408, format!("warning: {warning}\n{answer}"))
    }

    /// Serve one admitted connection on its own thread, then give its
    /// handler count back — also when the handler panics.
    fn serve(&self, kind: Listener, conn: TcpStream) {
        let mut handler = Handler { state: self, kind, owed: None };
        match kind {
            Listener::Ingest => self.handle_ingest(conn, &mut handler),
            Listener::Http => self.handle_http(conn, &mut handler),
        }
    }

    /// Whether an armed `served.accept` rule drops this connection.
    fn accept_fault(&self) -> bool {
        let ordinal = self.conn_ordinal.fetch_add(1, Ordering::SeqCst);
        let hit = caliper_faults::trigger(sites::SERVED_ACCEPT, ordinal, &format!("conn#{ordinal}")).is_some();
        if hit {
            self.metrics().counter("served.accept.rejected").inc();
        }
        hit
    }

    /// Serve one HTTP connection (one request, `Connection: close`).
    fn handle_http(&self, conn: TcpStream, handler: &mut Handler<'_>) {
        let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
        let Ok(mut writer) = conn.try_clone() else { return };
        // The whole request line and headers within 10 s, however the
        // client paces its bytes.
        let mut reader = BufReader::new(Budgeted::new(conn, Duration::from_secs(10)));
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                let _ = writer.write_all(&text_response(400, &format!("{e}\n")));
                return;
            }
        };
        handler.owe(Event::Read);
        let (status, body) = self.route(&req);
        let _ = writer.write_all(&text_response(status, &body));
        handler.replied();
    }

    fn route(&self, req: &Request) -> (u16, String) {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => (200, "ok\n".to_string()),
            ("GET", "/readyz") => match self.ready() {
                (true, detail) => (200, format!("ready\n{detail}\n")),
                (false, detail) => (503, format!("not ready\n{detail}\n")),
            },
            ("GET", "/stats") => {
                self.refresh_health_gauges();
                (200, self.metrics().render_text(true))
            }
            ("POST", "/shutdown") => {
                self.begin_shutdown();
                (200, "draining\n".to_string())
            }
            ("GET", "/query") => match req.params.get("q") {
                Some(q) => self.run_http_query(q, req.params.get("stream").map(String::as_str)),
                None => (400, "missing q parameter\n".to_string()),
            },
            ("GET", _) => (404, format!("no such endpoint: {}\n", req.path)),
            _ => (405, format!("method {} not allowed\n", req.method)),
        }
    }

    /// Keep the stable `served.*` health gauges current (they are
    /// reported in `--stats` sorted with the rest of the registry).
    fn refresh_health_gauges(&self) {
        let m = self.metrics();
        m.gauge("served.healthy").set(1);
        let (ready, _) = self.ready();
        m.gauge("served.ready").set(u64::from(ready));
        self.refresh_degraded_gauge();
    }

    /// Serve one ingest connection.
    fn handle_ingest(&self, conn: TcpStream, handler: &mut Handler<'_>) {
        let _ = conn.set_read_timeout(Some(CONN_READ_TIMEOUT));
        let _ = conn.set_write_timeout(Some(Duration::from_secs(10)));
        let Ok(mut writer) = conn.try_clone() else { return };
        let mut reader = BufReader::new(conn);
        let mut bound: Option<String> = None;
        let send = |writer: &mut TcpStream, reply: Reply| -> std::io::Result<()> {
            writer.write_all((reply.to_line() + "\n").as_bytes())
        };
        loop {
            let command = match read_line(&mut reader) {
                Ok(Some(line)) => Command::parse(&line),
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Err(e.to_string()),
                Ok(None) | Err(_) => return,
            };
            let command = match command {
                Ok(c) => c,
                Err(e) => {
                    // Over-long or malformed, and an unframed payload
                    // may follow: reply, then drop the desynced stream.
                    let _ = send(&mut writer, Reply::Error(e));
                    return;
                }
            };
            // A batch read is owed its reply until the reply is written:
            // the drain waits for it.
            let reply = match command {
                Command::Ping => Reply::Ok("pong".to_string()),
                Command::Quit => {
                    let _ = send(&mut writer, Reply::Ok("bye".to_string()));
                    return;
                }
                Command::Hello(name) => match self.stream(&name) {
                    Ok(_) => {
                        bound = Some(name.clone());
                        Reply::Ok(format!("stream={name}"))
                    }
                    Err(e) => {
                        let _ = send(&mut writer, Reply::Error(e));
                        return;
                    }
                },
                Command::Batch(len) => {
                    let max = self.cfg.batch_max_bytes;
                    if len > max {
                        let e = format!("batch of {len} bytes exceeds served.batch.max.bytes={max}");
                        let _ = send(&mut writer, Reply::Error(e));
                        return; // payload unread: stream is desynced
                    }
                    let Ok(payload) = read_payload(&mut reader, len) else { return };
                    match &bound {
                        None => {
                            handler.owe(Event::Read);
                            Reply::Error("HELLO <stream> must precede BATCH".to_string())
                        }
                        // Owed from the push on, whatever the queue says.
                        Some(stream) => self.admit_batch(stream.clone(), payload, handler),
                    }
                }
            };
            let sent = send(&mut writer, reply);
            handler.replied();
            if sent.is_err() {
                return;
            }
        }
    }

    /// Admit one batch to the bounded queue and wait for its verdict.
    /// A full queue answers `BUSY` immediately — admission never
    /// blocks, so the accept path stays responsive under overload.
    fn admit_batch(&self, stream: String, payload: Vec<u8>, handler: &mut Handler<'_>) -> Reply {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let batch = Batch {
            stream,
            payload,
            ordinal: self.batch_ordinal.fetch_add(1, Ordering::SeqCst),
            reply: tx,
        };
        match handler.owe(Event::Push(batch)) {
            // The drain began: `BUSY` would ask the client to retry a
            // daemon that is going away.
            Effects::Refuse => Reply::Error("draining: not accepting batches".to_string()),
            Effects::Busy => {
                self.metrics().counter("served.ingest.rejected").inc();
                Reply::Busy { retry_after_ms: BUSY_RETRY_AFTER_MS }
            }
            _ => rx.recv_timeout(BATCH_REPLY_TIMEOUT).unwrap_or_else(|_| {
                Reply::Error("ingest verdict timed out; batch state unknown, safe to retry".to_string())
            }),
        }
    }
}

/// What [`Server::run`] reports back when the daemon exits.
#[derive(Debug, Clone)]
pub struct ExitSummary {
    /// 0 = clean; 2 = degraded (tripped workers, degraded streams, or
    /// an incomplete drain).
    pub exit_code: i32,
    /// Streams whose circuit breaker was open at exit.
    pub degraded_streams: Vec<String>,
    /// Worker slots whose supervisor gave up restarting.
    pub tripped_workers: usize,
    /// Whether the queue fully drained within the shutdown deadline.
    pub drained: bool,
}

/// A running daemon: bound listeners plus the shared state. Create
/// with [`Server::bind`], then [`Server::run`] to serve until drained.
pub struct Server {
    state: Arc<ServerState>,
    ingest_listener: TcpListener,
    http_listener: TcpListener,
}

impl Server {
    /// Bind both listeners (loopback only) and replay every journal
    /// found in the data directory.
    pub fn bind(cfg: ServedConfig) -> Result<Server, String> {
        let state = Arc::new(ServerState::new(cfg)?);
        let bind = |port: u16| -> Result<TcpListener, String> {
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))
        };
        let ingest_listener = bind(state.cfg.port)?;
        let http_listener = bind(state.cfg.http_port)?;

        // Replay existing journals before serving: queries answered
        // after readiness reflect every previously acknowledged batch.
        std::fs::create_dir_all(&state.cfg.data_dir)
            .map_err(|e| format!("creating data dir: {e}"))?;
        let entries = std::fs::read_dir(&state.cfg.data_dir)
            .map_err(|e| format!("scanning data dir: {e}"))?;
        let mut names: Vec<String> = entries.flatten().filter_map(|e| stream_of_journal(&e.path())).collect();
        names.sort();
        for name in names {
            let stream = state.stream(&name).map_err(|e| {
                format!(
                    "recovering stream '{name}' from {}: {e}",
                    journal_path(&state.cfg.data_dir, &name).display()
                )
            })?;
            // What a replay could not salvage — a torn batch, a corrupt
            // one, a replay out of budget — is said, not kept quiet.
            let stream = stream.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(report) = stream.recovery.as_ref().filter(|r| r.data_lost()) {
                eprintln!("cali-served: replaying stream '{name}': {}", report.summary());
            }
        }
        state.refresh_health_gauges();
        Ok(Server { state, ingest_listener, http_listener })
    }

    /// The bound ingest address.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_listener.local_addr().expect("bound listener")
    }

    /// The bound HTTP address.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_listener.local_addr().expect("bound listener")
    }

    /// Shared state handle (tests and the binary use it to trigger
    /// shutdown in-process).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serve until a graceful shutdown request finishes draining.
    /// Returns the exit summary; the process exit code is
    /// [`ExitSummary::exit_code`].
    pub fn run(self) -> ExitSummary {
        let state = &self.state;
        let mut worker_health = Vec::new();
        for i in 0..state.cfg.workers.max(1) {
            let health = Arc::new(WorkerHealth::default());
            worker_health.push(Arc::clone(&health));
            let st = Arc::clone(state);
            let restart_metric = state.metrics().counter("served.supervisor.restarts");
            // Backoff seeded per worker slot: crash-looping workers
            // restart on decorrelated, reproducible schedules.
            let backoff = RetryPolicy {
                max_attempts: state.cfg.max_restarts.saturating_add(1).max(2),
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(100),
                jitter_seed: None,
            }
            .with_jitter(stable_hash(&format!("served.worker.{i}")));
            // The supervised thread's end, clean exit or tripped, is the
            // worker's exit: the count is the join.
            let exited = Arc::clone(state);
            supervise(
                &format!("served-worker-{i}"),
                state.cfg.max_restarts,
                backoff,
                health,
                move |_| restart_metric.inc(),
                move || {
                    exited.step(Event::WorkerExit);
                },
                move || st.worker_loop(),
            );
        }

        let spawn_accept = |(listener, kind): (TcpListener, Listener)| {
            let addr = listener.local_addr().expect("bound listener");
            let st = Arc::clone(state);
            let accept_loop = move || loop {
                let Ok((mut conn, _peer)) = listener.accept() else {
                    // E.g. out of descriptors: back off, so a failing
                    // `accept` is not a busy loop.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                };
                match st.step(Event::Accept(kind)) {
                    // Injected accept failure: drop the connection; the
                    // loop itself never dies.
                    Effects::Spawn if st.accept_fault() => {
                        st.step(Event::HandlerDone(kind));
                    }
                    Effects::Spawn => {
                        let _ = conn.set_nodelay(true);
                        let handler = Arc::clone(&st);
                        std::thread::spawn(move || handler.serve(kind, conn));
                    }
                    Effects::Refuse => {
                        let _ = conn.write_all(&match kind {
                            Listener::Ingest => b"ERR too many connections\n".to_vec(),
                            Listener::Http => text_response(503, "too many concurrent requests\n"),
                        });
                    }
                    // Stopped: `run`'s wake-up connection, or a peer that
                    // came too late: no ordinal, no fault site, no handler.
                    _ => return,
                }
            };
            let accept_loop = std::thread::Builder::new()
                .name(format!("served-accept-{kind:?}"))
                .spawn(accept_loop)
                .expect("spawning an accept loop");
            (addr, accept_loop)
        };
        let listeners = [(self.ingest_listener, Listener::Ingest), (self.http_listener, Listener::Http)];
        let accept_threads = listeners.map(spawn_accept);

        // Serving until somebody asks for the drain, then draining until
        // the step stops it — every worker out and every reply owed
        // written, but those no worker is left to give — or the deadline
        // passes.
        let daemon = state
            .changed
            .wait_while(state.daemon(), |d| d.phase() == Phase::Serving)
            .unwrap_or_else(|e| e.into_inner());
        let (daemon, _) = state
            .changed
            .wait_timeout_while(daemon, state.cfg.shutdown_deadline, |d| d.phase() == Phase::Draining)
            .unwrap_or_else(|e| e.into_inner());
        drop(daemon);
        state.step(Event::Deadline);
        let Phase::Stopped { mut drained } = state.daemon().phase() else {
            unreachable!("the deadline stops a drain")
        };

        // A blocked `accept()` returns only for a connection. A loop
        // whose wake-up failed is left behind, not waited for.
        for (addr, handle) in accept_threads {
            if TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok() {
                let _ = handle.join();
            }
        }

        // Final flush + fsync of every journal.
        for (name, stream) in state.sorted_streams() {
            let mut s = stream.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = s.finalize() {
                eprintln!("cali-served: finalizing stream '{name}': {e}");
                drained = false;
            }
        }

        let tripped_workers = worker_health.iter().filter(|h| h.tripped()).count();
        let degraded_streams = state.degraded_streams();
        state.refresh_health_gauges();
        let degraded = tripped_workers > 0 || !degraded_streams.is_empty() || !drained;
        let exit_code = if degraded { 2 } else { 0 };
        ExitSummary {
            exit_code,
            degraded_streams,
            tripped_workers,
            drained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IngestClient;
    use caliper_data::RecordBuilder;
    use caliper_format::Dataset;
    use std::path::PathBuf;
    use std::time::Instant;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cali-served-server-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(dir: &std::path::Path) -> ServedConfig {
        ServedConfig {
            data_dir: dir.to_path_buf(),
            aggregate_ops: "count,sum(t)".to_string(),
            aggregate_key: "kernel".to_string(),
            ..ServedConfig::default()
        }
    }

    fn batch(kernels: &[(&str, i64)]) -> Vec<u8> {
        let mut ds = Dataset::new();
        for (kernel, t) in kernels {
            let rec = RecordBuilder::new(&ds.store)
                .with("kernel", *kernel)
                .with("t", *t)
                .build();
            ds.push(caliper_data::SnapshotRecord::from(&rec));
        }
        caliper_format::cali::to_bytes(&ds)
    }

    /// A handler that panics with a reply owed — an HTTP request's, a
    /// batch's the queue admitted — gives its slot back and owes
    /// nothing: the listener's bound and the drain do not wait for it.
    #[test]
    fn a_handler_that_panics_gives_its_slot_back_and_owes_no_reply() {
        let dir = tmpdir("handler-panic");
        let state = ServerState::new(cfg(&dir)).unwrap();
        for kind in [Listener::Http, Listener::Ingest] {
            assert!(matches!(state.step(Event::Accept(kind)), Effects::Spawn));
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut handler = Handler { state: &state, kind, owed: None };
                let event = match kind {
                    Listener::Http => Event::Read,
                    Listener::Ingest => {
                        let (reply, _) = std::sync::mpsc::sync_channel(1);
                        let (stream, payload) = ("r0".to_string(), batch(&[("k", 1)]));
                        Event::Push(Batch { stream, payload, ordinal: 0, reply })
                    }
                };
                handler.owe(event);
                assert_eq!(state.daemon().owing().0, 1, "{kind:?}: a reply is owed");
                panic!("a handler bug");
            }));
            assert!(panicked.is_err());
            assert_eq!(state.daemon().owing(), (0, 0, [0, 0]), "{kind:?}");
        }
        // The admitted batch is still queued for a worker.
        assert_eq!(state.daemon().depth(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut conn =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut body = String::new();
        use std::io::Read;
        conn.read_to_string(&mut body).unwrap();
        let status: u16 = body
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let payload = body
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    fn http_post(addr: SocketAddr, path: &str) -> u16 {
        let mut conn =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        conn.write_all(format!("POST {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut body = String::new();
        use std::io::Read;
        conn.read_to_string(&mut body).unwrap();
        body.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line")
    }

    /// `served.ingest.accepted` is the process's: the tests that ingest
    /// take turns, so each can pin exactly what its own batches added.
    static INGESTING: Mutex<()> = Mutex::new(());

    #[test]
    fn ingest_query_drain_roundtrip() {
        let _turn = INGESTING.lock().unwrap_or_else(|e| e.into_inner());
        let accepted_before = metrics::global().counter("served.ingest.accepted").get();
        let dir = tmpdir("roundtrip");
        let server = Server::bind(cfg(&dir)).unwrap();
        let ingest = server.ingest_addr();
        let http = server.http_addr();
        let runner = std::thread::spawn(move || server.run());

        let mut client = IngestClient::connect(ingest, Duration::from_secs(5)).unwrap();
        assert!(client.hello("s1").unwrap().is_ok());
        assert!(client.ping().unwrap().is_ok());
        let reply = client.send_batch(&batch(&[("a", 10), ("b", 2)])).unwrap();
        assert_eq!(reply, Reply::Ok("seq=1 records=2".to_string()));
        let reply = client.send_batch(&batch(&[("a", 5)])).unwrap();
        assert_eq!(reply, Reply::Ok("seq=2 records=1".to_string()));

        let (status, _) = http_get(http, "/healthz");
        assert_eq!(status, 200);
        let (status, ready) = http_get(http, "/readyz");
        assert_eq!(status, 200, "{ready}");

        let (status, body) = http_get(
            http,
            "/query?q=SELECT+kernel,count,sum%23t+ORDER+BY+kernel+FORMAT+csv",
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "kernel,count,sum#t\na,2,15\nb,1,2\n");

        let (status, stats) = http_get(http, "/stats");
        assert_eq!(status, 200);
        // Two batches, each counted once: none redelivered, none lost.
        let accepted = format!("served.ingest.accepted={}", accepted_before + 2);
        assert!(stats.lines().any(|l| l == accepted), "{accepted}:\n{stats}");
        assert!(stats.contains("served.ready=1"), "{stats}");

        assert_eq!(http_post(http, "/shutdown"), 200);
        let summary = runner.join().unwrap();
        assert_eq!(summary.exit_code, 0, "{summary:?}");
        assert!(summary.drained);

        // Restart over the same data dir: recovery must reproduce the
        // pre-shutdown answer byte-for-byte.
        let server = Server::bind(cfg(&dir)).unwrap();
        let http = server.http_addr();
        let runner = std::thread::spawn(move || server.run());
        let (status, body2) = http_get(
            http,
            "/query?q=SELECT+kernel,count,sum%23t+ORDER+BY+kernel+FORMAT+csv",
        );
        assert_eq!(status, 200, "{body2}");
        assert_eq!(body2, body, "post-recovery result differs");
        assert_eq!(http_post(http, "/shutdown"), 200);
        assert_eq!(runner.join().unwrap().exit_code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn median(mut samples: Vec<Duration>) -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    }

    /// An idle daemon is blocked in `accept()`, not asleep between
    /// polls: a round trip costs what it costs, not a poll interval.
    #[test]
    fn idle_daemon_answers_healthz_without_waiting_out_a_timer() {
        let dir = tmpdir("healthz-latency");
        let server = Server::bind(cfg(&dir)).unwrap();
        let http = server.http_addr();
        let state = server.state();
        let runner = std::thread::spawn(move || server.run());
        let round_trips = (0..50)
            .map(|_| {
                let start = Instant::now();
                assert_eq!(http_get(http, "/healthz").0, 200);
                start.elapsed()
            })
            .collect();
        let p50 = median(round_trips);
        assert!(p50 < Duration::from_millis(2), "GET /healthz p50 {p50:?}");
        state.begin_shutdown();
        assert_eq!(runner.join().unwrap().exit_code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With nothing queued and nothing in flight, the drain has nothing
    /// to wait for.
    #[test]
    fn idle_shutdown_returns_without_waiting_out_a_timer() {
        let dir = tmpdir("shutdown-latency");
        let drains = (0..5)
            .map(|_| {
                let server = Server::bind(cfg(&dir)).unwrap();
                let http = server.http_addr();
                let state = server.state();
                let runner = std::thread::spawn(move || server.run());
                // Answered, so the accept loops are up and blocked.
                assert_eq!(http_get(http, "/healthz").0, 200);
                let start = Instant::now();
                state.begin_shutdown();
                let summary = runner.join().unwrap();
                let elapsed = start.elapsed();
                assert_eq!(summary.exit_code, 0, "{summary:?}");
                elapsed
            })
            .collect();
        let p50 = median(drains);
        assert!(
            p50 < Duration::from_millis(10),
            "begin_shutdown -> run returned: p50 {p50:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A push the drain's closed queue refuses is not a full queue:
    /// `BUSY` would tell the client to retry a daemon that is going away.
    #[test]
    fn batch_that_loses_the_race_with_shutdown_is_refused_not_busy() {
        let dir = tmpdir("drain-race");
        let state = ServerState::new(cfg(&dir)).unwrap();
        state.begin_shutdown();
        assert!(matches!(state.step(Event::Accept(Listener::Ingest)), Effects::Spawn));
        let mut handler = Handler { state: &state, kind: Listener::Ingest, owed: None };
        assert_eq!(
            state.admit_batch("s1".to_string(), batch(&[("a", 1)]), &mut handler),
            Reply::Error("draining: not accepting batches".to_string())
        );
        assert_eq!(handler.owed, Some(false), "a reply is owed, and no ack");
        drop(handler);
        assert_eq!(state.daemon().depth(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The drain order: a batch admitted before the drain is processed
    /// and answered, a batch arriving during it is refused, and `run`
    /// returns only when no reply is owed. The worker is held on the
    /// stream's own lock, so every step happens in a known state.
    #[test]
    fn drain_finishes_admitted_batches_and_refuses_new_ones() {
        let _turn = INGESTING.lock().unwrap_or_else(|e| e.into_inner());
        let accepted = metrics::global().counter("served.ingest.accepted");
        let accepted_before = accepted.get();
        let dir = tmpdir("drain-order");
        let server = Server::bind(cfg(&dir)).unwrap();
        let ingest = server.ingest_addr();
        let http = server.http_addr();
        let state = server.state();
        let runner = std::thread::spawn(move || server.run());

        let mut early = IngestClient::connect(ingest, Duration::from_secs(10)).unwrap();
        assert!(early.hello("s1").unwrap().is_ok());
        let mut late = IngestClient::connect(ingest, Duration::from_secs(10)).unwrap();
        assert!(late.hello("s1").unwrap().is_ok());

        let stream = state.stream("s1").unwrap();
        let wedge = stream.lock().unwrap();
        // Wait for a worker to hold the stream: only a batch that made
        // it into the queue gets there. (A reply is owed from
        // before the push, and a drain begun in between refuses it.)
        let held = Arc::strong_count(&stream);
        let sender = std::thread::spawn(move || early.send_batch(&batch(&[("a", 10)])).unwrap());
        while Arc::strong_count(&stream) == held {
            std::thread::yield_now();
        }

        state.begin_shutdown();
        assert_eq!(
            late.send_batch(&batch(&[("b", 1)])).unwrap(),
            Reply::Error("draining: not accepting batches".to_string())
        );
        assert_eq!(
            http_get(http, "/readyz"),
            (
                503,
                "not ready\nreplay_complete=true queue_depth=0/64 draining=true\n".to_string()
            )
        );
        assert_eq!(
            state.daemon().phase(),
            Phase::Draining,
            "a reply is still owed"
        );

        drop(wedge);
        assert_eq!(
            sender.join().unwrap(),
            Reply::Ok("seq=0 records=1".to_string())
        );
        let summary = runner.join().unwrap();
        assert_eq!(summary.exit_code, 0, "{summary:?}");
        assert!(summary.drained);
        // The admitted batch once, the refused one never.
        assert_eq!(accepted.get() - accepted_before, 1);
        // Drained: every worker exited and no reply is owed.
        assert_eq!(state.daemon().phase(), Phase::Stopped { drained: true });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A line over the cap is refused after `MAX_LINE_BYTES + 1` bytes,
    /// with a reply: `ERR` on the ingest side, `400` on the HTTP side.
    #[test]
    fn overlong_lines_are_answered_then_dropped() {
        use std::io::Read;
        let dir = tmpdir("overlong");
        let server = Server::bind(cfg(&dir)).unwrap();
        let ingest = server.ingest_addr();
        let http = server.http_addr();
        let state = server.state();
        let runner = std::thread::spawn(move || server.run());

        // Exactly the bytes the daemon reads before it gives up, so its
        // close is a clean FIN and the reply is not lost to a reset.
        let overlong = vec![b'x'; crate::protocol::MAX_LINE_BYTES + 1];
        for (addr, prefix, expected) in [
            (ingest, &b""[..], "ERR line exceeds 8192 bytes\n"),
            (http, &b"GET /"[..], "HTTP/1.1 400 Bad Request\r\n"),
        ] {
            let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            conn.write_all(prefix).unwrap();
            conn.write_all(&overlong[prefix.len()..]).unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with(expected), "{reply}");
        }

        state.begin_shutdown();
        assert_eq!(runner.join().unwrap().exit_code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_paths_and_bad_queries_are_clean_errors() {
        let dir = tmpdir("errors");
        let server = Server::bind(cfg(&dir)).unwrap();
        let http = server.http_addr();
        let state = server.state();
        let runner = std::thread::spawn(move || server.run());

        assert_eq!(http_get(http, "/nope").0, 404);
        assert_eq!(http_get(http, "/query").0, 400);
        assert_eq!(http_get(http, "/query?q=AGGREGATE+sum(").0, 400);
        assert_eq!(http_get(http, "/query?q=SELECT+*&stream=ghost").0, 404);

        state.begin_shutdown();
        assert_eq!(runner.join().unwrap().exit_code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
