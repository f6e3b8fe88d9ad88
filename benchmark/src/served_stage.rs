//! The `served` stage: `cali-served` as a black box — closed-loop
//! ingest on one connection, warm queries, reads beside writes,
//! `kill -9`, journal replay, and the answers compared across the crash.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use caliper_served::protocol::read_line;
use caliper_served::Reply;

use crate::calib::Timed;
use crate::corpus::Corpus;
use crate::env::{Env, Tally};
use crate::plan::{Plan, ServedCounts, Stage};

/// The resident aggregation the daemon maintains.
const AGGREGATE: &str = "count,sum(sum#time.duration)";
const GROUP_BY: &str = "kernel,mpi.function,iteration";
/// The query the clients ask of the warm state, `AGGREGATE sum(count)
/// GROUP BY kernel ORDER BY kernel FORMAT csv`, as a request path.
const QUERY_PATH: &str = "/query?q=AGGREGATE+sum(count)+GROUP+BY+kernel+ORDER+BY+kernel+FORMAT+csv";
const STREAM: &str = "bench";
/// Small batches per ingest-rate sample. Short slices, so that a rare
/// multi-millisecond stall (a descheduled vCPU on a shared box) spoils
/// one sample of many and the median rate stays the sustained one.
const RATE_SLICE: usize = 16;
const IO_TIMEOUT: Duration = Duration::from_secs(20);
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon; killed on drop so no process outlives the run.
pub struct Daemon {
    child: Child,
    ingest: SocketAddr,
    http: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 request on a fresh connection (`Connection: close`).
fn http(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    conn.write_all(format!("{method} {path} HTTP/1.1\r\nHost: cali-bench\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed HTTP status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

impl Daemon {
    /// Start the daemon on `data_dir` (ephemeral ports, one ingest
    /// worker, default flush policy, no fsync) and wait for the first
    /// `/readyz` 200. Returns the daemon and spawn → ready seconds —
    /// on a data dir with a journal, that is the replay time.
    pub fn spawn(env: &Env, data_dir: &Path) -> Result<(Daemon, f64), String> {
        let ports_file = data_dir.with_extension("ports");
        let _ = std::fs::remove_file(&ports_file);
        let start = Instant::now();
        let child = Command::new(&env.cali_served)
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--ports-file")
            .arg(&ports_file)
            .args([
                "--workers",
                "1",
                "--aggregate",
                AGGREGATE,
                "--group-by",
                GROUP_BY,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning cali-served: {e}"))?;
        let mut daemon = Daemon {
            child,
            ingest: SocketAddr::from(([127, 0, 0, 1], 0)),
            http: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut have_ports = false;
        loop {
            if !have_ports {
                let text = std::fs::read_to_string(&ports_file).unwrap_or_default();
                let port = |key: &str| {
                    text.lines()
                        .find_map(|l| l.strip_prefix(key))
                        .and_then(|p| p.parse::<u16>().ok())
                };
                if let (Some(ingest), Some(http)) = (port("ingest="), port("http=")) {
                    daemon.ingest.set_port(ingest);
                    daemon.http.set_port(http);
                    have_ports = true;
                }
            }
            if have_ports && matches!(http(daemon.http, "GET", "/readyz"), Ok((200, _))) {
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("cali-served exited before ready ({status})"));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("cali-served not ready in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// `kill -9`, then reap (what dropping a daemon does).
    pub fn kill(self) {
        drop(self);
    }

    /// `POST /shutdown` and wait for a clean exit; true on exit code 0.
    pub fn shutdown(mut self) -> bool {
        let posted = matches!(http(self.http, "POST", "/shutdown"), Ok((200, _)));
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return posted && status.success();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// One warm query: `(seconds, body)`; `None` (and a tally failure)
    /// on anything but a 200.
    fn query(&self, tally: &mut Tally) -> Option<(f64, String)> {
        let start = Instant::now();
        let reply = http(self.http, "GET", QUERY_PATH);
        let seconds = start.elapsed().as_secs_f64();
        let ok = matches!(reply, Ok((200, _)));
        tally.check(ok, || format!("GET /query: {reply:?}"));
        reply.ok().filter(|_| ok).map(|(_, body)| (seconds, body))
    }
}

/// A closed-loop producer on one connection: the next batch is sent
/// only after the previous durability ack arrived. Each `BATCH` goes
/// out as one write on a no-delay socket, so the ack time is the
/// daemon's and not a Nagle / delayed-ACK stall between header and body.
struct Producer {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
    /// Records the daemon acknowledged.
    acked: u64,
    /// `BUSY` replies (backpressure; expected 0 with one producer).
    busy: u64,
}

impl Producer {
    fn connect(addr: SocketAddr) -> Result<Producer, String> {
        let open = || -> std::io::Result<Producer> {
            let writer = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
            writer.set_nodelay(true)?;
            writer.set_read_timeout(Some(IO_TIMEOUT))?;
            writer.set_write_timeout(Some(IO_TIMEOUT))?;
            Ok(Producer {
                reader: BufReader::new(writer.try_clone()?),
                writer,
                frame: Vec::new(),
                acked: 0,
                busy: 0,
            })
        };
        let mut producer = open().map_err(|e| format!("ingest connect: {e}"))?;
        match producer.round_trip(format!("HELLO {STREAM}\n").as_bytes()) {
            Ok(reply) if reply.is_ok() => Ok(producer),
            other => Err(format!("HELLO refused: {other:?}")),
        }
    }

    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let line = read_line(&mut self.reader)?
            .ok_or_else(|| std::io::Error::other("daemon closed the ingest connection"))?;
        Reply::parse(&line).map_err(std::io::Error::other)
    }

    /// Send one batch; returns write → ack seconds. Anything but
    /// `OK seq=… records=<records>` counts as a failure.
    fn send(&mut self, payload: &[u8], records: usize, tally: &mut Tally) -> f64 {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.extend_from_slice(format!("BATCH {}\n", payload.len()).as_bytes());
        frame.extend_from_slice(payload);
        let start = Instant::now();
        let reply = self.round_trip(&frame);
        let seconds = start.elapsed().as_secs_f64();
        self.frame = frame;
        let acked = match &reply {
            Ok(Reply::Ok(detail)) => detail
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("records="))
                .and_then(|n| n.parse::<u64>().ok()),
            Ok(Reply::Busy { .. }) => {
                self.busy += 1;
                None
            }
            _ => None,
        };
        tally.check(acked == Some(records as u64), || {
            format!("BATCH: {reply:?}")
        });
        self.acked += acked.unwrap_or(0);
        seconds
    }
}

/// Samples pooled over the stage's daemon cycles.
#[derive(Default)]
pub struct ServedSamples {
    /// Seconds per record of each 16-batch slice of the small-batch
    /// phases (first `BATCH` written → last `OK` read).
    pub small_s_per_rec: Vec<Timed>,
    /// Seconds per record of each large-batch phase.
    pub large_s_per_rec: Vec<f64>,
    /// Write → ack seconds of every small batch of those phases.
    pub ack_s: Vec<Timed>,
    /// Warm query seconds, idle daemon.
    pub query_s: Vec<f64>,
    /// Query seconds while a second connection ingests.
    pub mixed_query_s: Vec<f64>,
    /// Restart spawn → first `/readyz` 200 after `kill -9`, seconds.
    pub replay_s: Vec<Timed>,
    /// First query after each restart, seconds.
    pub cold_query_s: Vec<f64>,
    /// Rows of the warm aggregate (groups), last cycle.
    pub warm_rows: u64,
    /// Records acknowledged per cycle (what a replay re-reads).
    pub records_per_cycle: u64,
    /// Journal bytes after the last cycle's ingest.
    pub journal_bytes: u64,
    /// `BUSY` replies over all batches sent.
    pub busy: u64,
    /// Batches sent.
    pub batches: u64,
}

/// Sum of the `sum#count` column: the records behind the answer.
fn counted_records(csv: &str) -> Option<u64> {
    let mut lines = csv.lines();
    let column = lines.next()?.split(',').position(|c| c == "sum#count")?;
    lines
        .map(|l| l.split(',').nth(column)?.parse::<u64>().ok())
        .sum()
}

/// One daemon lifetime on a fresh data dir: ingest, query, crash,
/// replay, compare, shut down.
fn cycle(
    env: &Env,
    corpus: &Corpus,
    counts: ServedCounts,
    data_dir: &Path,
    samples: &mut ServedSamples,
    tally: &mut Tally,
) -> Result<(), String> {
    let (daemon, _) = Daemon::spawn(env, data_dir)?;
    let mut producer = Producer::connect(daemon.ingest)?;

    // The small-batch phase, timed in slices (first `BATCH` written →
    // last `OK` read of each) so one cycle yields several rate samples.
    // One bracket around the phase (some 80 ms): kernel passes between
    // the slices would cool the daemon's caches and show in the acks.
    let small = &corpus.small[..counts.small];
    let ((acks, slices), speed) = env.cal.bracket(|| {
        let (mut acks, mut slices) = (Vec::new(), Vec::new());
        for slice in small.chunks(RATE_SLICE) {
            let start = Instant::now();
            for payload in slice {
                acks.push(producer.send(payload, corpus.small_batch, tally));
            }
            let seconds = start.elapsed().as_secs_f64();
            slices.push(seconds / (slice.len() * corpus.small_batch) as f64);
        }
        (acks, slices)
    });
    let timed = |raw| Timed { raw, speed };
    samples.ack_s.extend(acks.into_iter().map(timed));
    samples
        .small_s_per_rec
        .extend(slices.into_iter().map(timed));

    let large = &corpus.large[..counts.large];
    let start = Instant::now();
    for payload in large {
        producer.send(payload, corpus.large_batch, tally);
    }
    let seconds = start.elapsed().as_secs_f64();
    samples
        .large_s_per_rec
        .push(seconds / (large.len() * corpus.large_batch) as f64);

    for _ in 0..counts.warm {
        samples.query_s.extend(daemon.query(tally).map(|(s, _)| s));
    }

    // Reads beside writes: a second producer appends to the same
    // stream while this thread keeps querying it.
    let mixed = &corpus.small[counts.small..counts.small + counts.mixed];
    let mut second = Producer::connect(daemon.ingest)?;
    let mut writer_tally = Tally::default();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for payload in mixed {
                second.send(payload, corpus.small_batch, &mut writer_tally);
            }
        });
        for _ in 0..counts.mixed_queries {
            samples
                .mixed_query_s
                .extend(daemon.query(tally).map(|(s, _)| s));
        }
        writer.join().expect("mixed-phase producer panicked");
    });
    tally.attempted += writer_tally.attempted;
    tally.failed += writer_tally.failed;
    tally.notes.append(&mut writer_tally.notes);

    let acked = producer.acked + second.acked;
    samples.busy += producer.busy + second.busy;
    samples.batches += (small.len() + large.len() + mixed.len()) as u64;
    samples.records_per_cycle = acked;
    let before = daemon
        .query(tally)
        .map(|(_, body)| body)
        .unwrap_or_default();
    tally.check(counted_records(&before) == Some(acked), || {
        format!(
            "warm answer counts {:?} records, {acked} were acknowledged",
            counted_records(&before)
        )
    });
    samples.warm_rows = match http(daemon.http, "GET", "/query?q=SELECT+*+FORMAT+csv") {
        Ok((200, body)) => body.lines().count().saturating_sub(1) as u64,
        _ => 0,
    };
    samples.journal_bytes =
        std::fs::metadata(data_dir.join(format!("{STREAM}.journal.cali"))).map_or(0, |m| m.len());
    drop(producer);
    drop(second);

    // Every batch above was acknowledged, so all of it must survive.
    daemon.kill();
    let (respawned, speed) = env.cal.bracket(|| Daemon::spawn(env, data_dir));
    let (daemon, replay_s) = respawned?;
    samples.replay_s.push(Timed {
        raw: replay_s,
        speed,
    });
    let after = daemon.query(tally);
    samples.cold_query_s.extend(after.as_ref().map(|(s, _)| *s));
    let after = after.map(|(_, body)| body).unwrap_or_default();
    tally.check(after == before, || {
        "answer after kill -9 + replay differs from before".to_string()
    });
    let clean = daemon.shutdown();
    tally.check(clean, || {
        "POST /shutdown did not end in exit code 0".to_string()
    });
    Ok(())
}

/// One round of the `served` stage: a daemon cycle on a fresh data dir
/// (two when `served` is the workload).
pub fn round(
    env: &Env,
    corpus: &Corpus,
    plan: &Plan,
    samples: &mut ServedSamples,
    tally: &mut Tally,
) {
    for _ in 0..plan.pick(Stage::Served, 2, 1) {
        let data_dir = env.work.fresh("served-data").expect("fresh data dir");
        let outcome = cycle(env, corpus, plan.served(), &data_dir, samples, tally);
        tally.check(outcome.is_ok(), || {
            format!("served cycle: {}", outcome.unwrap_err())
        });
    }
}
