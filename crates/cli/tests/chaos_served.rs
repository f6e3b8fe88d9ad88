//! Black-box chaos suite for `cali-served` (docs/SERVED.md §runbook,
//! docs/CHAOS.md): the daemon is started as a real child process and
//! abused over its real sockets, under deterministic `--faults` specs.
//!
//! Invariants:
//!
//! * an injected worker kill mid-batch loses nothing: the supervisor
//!   restarts the worker, the batch is redelivered, and the final query
//!   result is byte-identical to a fault-free run;
//! * `kill -9` + restart reproduces every acknowledged batch
//!   byte-identically (ack-after-flush + journal replay), and a batch
//!   whose frame a crash tore costs that batch alone, said on stderr;
//! * a payload carrying a frame's header line is refused (`ERR`) and
//!   leaves the journal as it was;
//! * everything a query serves is durable: a batch whose journal write
//!   fails is answered `DEGRADED` and contributes nothing to the warm
//!   state — the degraded daemon, and a restart over the same journals,
//!   answer what was answered before the batch;
//! * a full ingest queue answers `BUSY` promptly — clients never hang —
//!   and the well-behaved retry loop eventually lands every batch;
//! * a slow query returns a prompt 408 partial-with-warning, not a
//!   wedged connection;
//! * graceful shutdown (`POST /shutdown`) drains, exits 0, and a
//!   restart answers the pre-shutdown query byte-identically — every
//!   time, with the `draining` reply read in full before the exit;
//! * a worker wedged past `served.shutdown.deadline.ms` ends the drain
//!   at the deadline, and a batch no worker is left to process ends it
//!   at once: exit 2, `drained=false` on stderr;
//! * each listener runs a bounded number of connection handlers: 256
//!   idle ingest connections cost the bound in threads, and those past
//!   it are refused with one `ERR` line;
//! * hostile names and lying requests never panic it: an 8 KB stream
//!   name or one that escapes the data directory is refused and creates
//!   no journal, an 8 KB `stream=` is a 404, and a request whose
//!   `Content-Length` is huge, short or long is answered and closed
//!   within the 10 s request budget — and the daemon serves on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use caliper_served::{IngestClient, Reply};

/// Deterministic self-describing `.cali` batch payload.
fn batch_payload(seed: usize, records: usize) -> Vec<u8> {
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType};
    let mut ds = caliper_format::Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let time = ds.attribute(
        "time",
        ValueType::Int,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let names = ["alpha", "beta", "gamma"];
    for i in 0..records {
        let node = ds.tree.get_child(
            caliper_data::NODE_NONE,
            kernel.id(),
            &Value::str(names[(seed + i) % names.len()]),
        );
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        rec.push_imm(time.id(), Value::Int((i * (seed + 1)) as i64));
        ds.push(rec);
    }
    caliper_format::cali::to_bytes(&ds)
}

const QUERY: &str = "AGGREGATE count, sum(time) GROUP BY kernel, stream \
                     ORDER BY stream, kernel FORMAT csv";

struct Daemon {
    child: Child,
    ingest: SocketAddr,
    http: SocketAddr,
}

impl Daemon {
    /// Spawn `cali-served` over `dir` and wait until it is ready.
    fn start(dir: &Path, extra: &[&str]) -> Daemon {
        Daemon::start_with(dir, extra, &[], Stdio::null())
    }

    /// [`start`](Self::start) with environment variables and a place
    /// for the daemon's stderr.
    fn start_with(dir: &Path, extra: &[&str], env: &[(&str, &str)], stderr: Stdio) -> Daemon {
        std::fs::create_dir_all(dir).unwrap();
        let ports = dir.join("ports.txt");
        let _ = std::fs::remove_file(&ports);
        let child = Command::new(env!("CARGO_BIN_EXE_cali-served"))
            .arg("--data-dir")
            .arg(dir.join("data"))
            .arg("--ports-file")
            .arg(&ports)
            .args(["--aggregate", "count,sum(time)", "--group-by", "kernel"])
            .args(extra)
            .envs(env.iter().copied())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .expect("spawn cali-served");
        let deadline = Instant::now() + Duration::from_secs(20);
        let parse_ports = |text: &str| -> Option<(u16, u16)> {
            let mut ingest = None;
            let mut http = None;
            for line in text.lines() {
                if let Some(p) = line.strip_prefix("ingest=") {
                    ingest = p.parse().ok();
                }
                if let Some(p) = line.strip_prefix("http=") {
                    http = p.parse().ok();
                }
            }
            Some((ingest?, http?))
        };
        let (ingest_port, http_port) = loop {
            assert!(Instant::now() < deadline, "cali-served never wrote {ports:?}");
            if let Ok(text) = std::fs::read_to_string(&ports) {
                if let Some(pair) = parse_ports(&text) {
                    break pair;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let daemon = Daemon {
            child,
            ingest: SocketAddr::from(([127, 0, 0, 1], ingest_port)),
            http: SocketAddr::from(([127, 0, 0, 1], http_port)),
        };
        loop {
            assert!(Instant::now() < deadline, "cali-served never became ready");
            if let Ok((200, _)) = daemon.http_req("GET", "/readyz") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn http_req(&self, method: &str, path: &str) -> std::io::Result<(u16, String)> {
        let timeout = Duration::from_secs(10);
        let mut conn = TcpStream::connect_timeout(&self.http, timeout)?;
        conn.set_read_timeout(Some(timeout))?;
        conn.set_write_timeout(Some(timeout))?;
        conn.write_all(format!("{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())?;
        let mut raw = String::new();
        conn.read_to_string(&mut raw)?;
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, body))
    }

    fn query(&self) -> (u16, String) {
        let encoded: String = QUERY
            .split_whitespace()
            .collect::<Vec<_>>()
            .join("+")
            .replace(',', "%2C")
            .replace('(', "%28")
            .replace(')', "%29");
        self.http_req("GET", &format!("/query?q={encoded}")).unwrap()
    }

    fn client(&self, stream: &str) -> IngestClient {
        let mut client = IngestClient::connect(self.ingest, Duration::from_secs(10)).unwrap();
        let reply = client.hello(stream).unwrap();
        assert!(reply.is_ok(), "HELLO refused: {}", reply.to_line());
        client
    }

    /// Graceful drain; asserts that the reply arrived whole and the
    /// daemon's exit code. Returns request → exit.
    fn shutdown(mut self, expect_exit: i32) -> Duration {
        let started = Instant::now();
        let reply = self.http_req("POST", "/shutdown").unwrap();
        assert_eq!(reply, (200, "draining\n".to_string()));
        let deadline = started + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                assert_eq!(status.code(), Some(expect_exit), "daemon exit code");
                break;
            }
            assert!(Instant::now() < deadline, "daemon never exited after drain");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Prevent the Drop kill from firing on the reaped child.
        std::mem::forget(self);
        started.elapsed()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cali-chaos-served-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ingest the standard three batches over two streams; returns acks.
fn ingest_standard(daemon: &Daemon) -> Vec<Reply> {
    let mut acks = Vec::new();
    let mut a = daemon.client("rank0");
    acks.push(a.send_batch(&batch_payload(0, 12)).unwrap());
    acks.push(a.send_batch(&batch_payload(1, 12)).unwrap());
    let _ = a.quit();
    let mut b = daemon.client("rank1");
    acks.push(b.send_batch(&batch_payload(2, 12)).unwrap());
    let _ = b.quit();
    acks
}

#[test]
fn worker_kill_mid_batch_loses_nothing() {
    // Clean run first: the reference answer.
    let clean_dir = tmpdir("workerkill-clean");
    let clean = Daemon::start(&clean_dir, &[]);
    for ack in ingest_standard(&clean) {
        assert!(ack.is_ok(), "{}", ack.to_line());
    }
    let (status, reference) = clean.query();
    assert_eq!(status, 200, "{reference}");
    clean.shutdown(0);

    // Faulty run: every batch's first processing attempt kills the
    // worker mid-ingest (fail(1) per fault key = per batch). The
    // supervisor restarts the worker, the batch is redelivered, and
    // the ack still arrives on the same send.
    let dir = tmpdir("workerkill");
    let daemon = Daemon::start(&dir, &["--faults", "served.ingest=fail(1)"]);
    for ack in ingest_standard(&daemon) {
        assert!(ack.is_ok(), "{}", ack.to_line());
    }
    let (status, result) = daemon.query();
    assert_eq!(status, 200, "{result}");
    assert_eq!(result, reference, "worker kills changed the answer");
    let (status, stats) = daemon.http_req("GET", "/stats").unwrap();
    assert_eq!(status, 200);
    assert!(
        stats.contains("served.supervisor.restarts=3"),
        "expected exactly one restart per batch:\n{stats}"
    );
    assert!(stats.contains("served.ingest.accepted=3"), "{stats}");
    daemon.shutdown(0);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_then_restart_is_byte_identical() {
    let dir = tmpdir("sigkill");
    let mut daemon = Daemon::start(&dir, &["--fsync"]);
    for ack in ingest_standard(&daemon) {
        assert!(ack.is_ok(), "{}", ack.to_line());
    }
    let (status, before) = daemon.query();
    assert_eq!(status, 200, "{before}");

    // Hard kill: no drain, no flush beyond the per-batch ack path.
    daemon.child.kill().unwrap();
    daemon.child.wait().unwrap();
    std::mem::forget(daemon);

    let daemon = Daemon::start(&dir, &["--fsync"]);
    let (status, after) = daemon.query();
    assert_eq!(status, 200, "{after}");
    assert_eq!(after, before, "acknowledged batches lost across kill -9");
    daemon.shutdown(0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_the_journal_refuses_is_not_served() {
    // Every warm row in full: one more record in any group shows.
    fn warm_rows(daemon: &Daemon) -> (u16, String) {
        let path = "/query?q=SELECT+*+ORDER+BY+stream%2Ckernel+FORMAT+csv";
        daemon.http_req("GET", path).unwrap()
    }
    let dir = tmpdir("journal-refuses");
    // A first life without faults, so there is acknowledged state.
    let daemon = Daemon::start(&dir, &[]);
    for ack in ingest_standard(&daemon) {
        assert!(ack.is_ok(), "{}", ack.to_line());
    }
    let (status, acknowledged) = warm_rows(&daemon);
    assert_eq!(status, 200, "{acknowledged}");
    daemon.shutdown(0);

    // A second life in which no journal write succeeds. The batch is
    // decoded and stamped, its journal flush fails — and so it must not
    // reach the warm aggregate either.
    let daemon = Daemon::start(&dir, &["--faults", "journal.write=err(1.0)"]);
    let (status, before) = warm_rows(&daemon);
    assert_eq!((status, &before), (200, &acknowledged), "replay");
    let mut client = daemon.client("rank0");
    let reply = client.send_batch(&batch_payload(5, 2)).unwrap();
    match &reply {
        Reply::Degraded(reason) => assert!(
            reason.starts_with("journal flush: ") && !reason.contains("may exceed"),
            "{reason}"
        ),
        other => panic!("expected DEGRADED, got {}", other.to_line()),
    }
    // The breaker is open for that stream; the other one is refused by
    // its own journal the same way.
    assert!(matches!(client.send_batch(&batch_payload(6, 2)).unwrap(), Reply::Degraded(_)));
    let _ = client.quit();
    let mut other = daemon.client("rank1");
    assert!(matches!(other.send_batch(&batch_payload(7, 3)).unwrap(), Reply::Degraded(_)));
    let _ = other.quit();
    let (status, degraded) = warm_rows(&daemon);
    assert_eq!(status, 200, "{degraded}");
    assert_eq!(degraded, before, "an unacknowledged, unjournaled batch is being served");
    daemon.shutdown(2);

    // A third life, fault-free: the journals never got those batches,
    // and the answer says so.
    let daemon = Daemon::start(&dir, &[]);
    let (status, after) = warm_rows(&daemon);
    assert_eq!((status, &after), (200, &acknowledged), "restart");
    daemon.shutdown(0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_frame_costs_its_batch_and_nothing_else() {
    let dir = tmpdir("torn-frame");
    let mut daemon = Daemon::start(&dir, &["--fsync"]);
    for ack in ingest_standard(&daemon) {
        assert!(ack.is_ok(), "{}", ack.to_line());
    }
    let (status, acknowledged) = daemon.query();
    assert_eq!(status, 200, "{acknowledged}");
    // A fourth batch, which the kill below tears: its frame is cut short
    // of its last 17 bytes, as a crash mid-write leaves it.
    let journal = dir.join("data").join("rank0.journal.cali");
    let before = std::fs::read(&journal).unwrap();
    let mut client = daemon.client("rank0");
    assert!(client.send_batch(&batch_payload(3, 12)).unwrap().is_ok());
    let _ = client.quit();
    let (status, with_fourth) = daemon.query();
    assert_eq!(status, 200, "{with_fourth}");
    daemon.child.kill().unwrap();
    daemon.child.wait().unwrap();
    std::mem::forget(daemon);
    let whole = std::fs::read(&journal).unwrap();
    assert_eq!(&whole[..before.len()], &before[..], "a batch rewrote the journal before it");
    std::fs::write(&journal, &whole[..whole.len() - 17]).unwrap();

    // Every acknowledged batch but the torn one is served, and the
    // replay says what it dropped.
    let stderr_path = dir.join("stderr.txt");
    let stderr = || Stdio::from(std::fs::File::create(&stderr_path).unwrap());
    let daemon = Daemon::start_with(&dir, &["--fsync"], &[], stderr());
    let (status, replayed) = daemon.query();
    assert_eq!((status, &replayed), (200, &acknowledged), "replay over a torn frame");
    // Sent again, the batch lands after the torn frame, and a restart
    // serves it once.
    let mut client = daemon.client("rank0");
    let ack = client.send_batch(&batch_payload(3, 12)).unwrap();
    assert_eq!(ack.to_line(), "OK seq=35 records=12");
    let _ = client.quit();
    daemon.shutdown(0);
    let log = std::fs::read_to_string(&stderr_path).unwrap();
    assert!(log.contains("replaying stream 'rank0'") && log.contains("torn frame"), "{log}");
    let daemon = Daemon::start_with(&dir, &[], &[], stderr());
    let (status, restarted) = daemon.query();
    assert_eq!((status, &restarted), (200, &with_fourth), "restart after the resent batch");
    daemon.shutdown(0);
    let log = std::fs::read_to_string(&stderr_path).unwrap();
    assert!(log.contains("truncated"), "the torn frame is still reported: {log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_payload_with_a_frame_line_is_refused_and_not_journaled() {
    let dir = tmpdir("frame-line");
    let daemon = Daemon::start(&dir, &[]);
    let mut client = daemon.client("rank0");
    assert!(client.send_batch(&batch_payload(0, 4)).unwrap().is_ok());
    let journal = dir.join("data").join("rank0.journal.cali");
    let clean = batch_payload(1, 4);
    let mut seq = 3;
    for line in [&b"__rec=batch,seq=4,bytes=9\n"[..], b"bytes=9,__rec=batch,seq=4\n"] {
        for payload in [[line, &clean[..]].concat(), [&clean[..], line].concat()] {
            let before = std::fs::read(&journal).unwrap();
            match client.send_batch(&payload).unwrap() {
                Reply::Error(reason) => assert!(reason.contains("unknown record kind 'batch'"), "{reason}"),
                other => panic!("expected ERR, got {}", other.to_line()),
            }
            assert_eq!(std::fs::read(&journal).unwrap(), before, "a refused batch was journaled");
            // The stream is none the worse.
            seq += 4;
            let ack = client.send_batch(&clean).unwrap().to_line();
            assert_eq!(ack, format!("OK seq={seq} records=4"));
        }
    }
    let _ = client.quit();
    daemon.shutdown(0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_replies_busy_and_never_hangs() {
    let dir = tmpdir("busy");
    // One worker, queue depth 1, and every batch held 300 ms inside
    // the worker: three simultaneous senders cannot all fit.
    let daemon = Daemon::start(
        &dir,
        &[
            "--queue-depth",
            "1",
            "--workers",
            "1",
            "--faults",
            "served.ingest=delay(300)",
        ],
    );
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
    let started = Instant::now();
    let mut handles = Vec::new();
    for i in 0..3 {
        let barrier = std::sync::Arc::clone(&barrier);
        let mut client = daemon.client(&format!("s{i}"));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let first = client.send_batch(&batch_payload(i, 6)).unwrap();
            let landed = match &first {
                Reply::Busy { .. } => {
                    // The well-behaved backpressure loop: retry until
                    // accepted.
                    client.send_batch_retrying(&batch_payload(i, 6), 100).unwrap()
                }
                other => other.clone(),
            };
            let _ = client.quit();
            (first, landed)
        }));
    }
    let outcomes: Vec<(Reply, Reply)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "backpressure path took {elapsed:?} — a full queue must not hang clients"
    );
    let busy = outcomes
        .iter()
        .filter(|(first, _)| matches!(first, Reply::Busy { .. }))
        .count();
    assert!(busy >= 1, "expected at least one BUSY: {outcomes:?}");
    for (_, landed) in &outcomes {
        assert!(landed.is_ok(), "retry loop never landed: {}", landed.to_line());
    }
    // Every batch accepted exactly once: 3 streams × 6 records. The
    // query plane sees warm per-(kernel,stream) rows, so summing their
    // `count` column recovers the raw record total.
    let (status, body) = daemon
        .http_req("GET", "/query?q=AGGREGATE+sum%28count%29+FORMAT+csv")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.trim(), "sum#count\n18", "every batch must land exactly once");
    daemon.shutdown(0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_query_returns_prompt_408_partial() {
    let dir = tmpdir("deadline");
    let daemon = Daemon::start(
        &dir,
        &[
            "--deadline-ms",
            "50",
            "--faults",
            "served.query=delay(150)",
        ],
    );
    let mut client = daemon.client("rank0");
    assert!(client.send_batch(&batch_payload(0, 12)).unwrap().is_ok());
    let _ = client.quit();

    let started = Instant::now();
    let (status, body) = daemon.query();
    let elapsed = started.elapsed();
    assert_eq!(status, 408, "{body}");
    assert!(
        body.contains("deadline exceeded"),
        "408 body must carry the partial-result warning: {body}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline query took {elapsed:?} — must return promptly"
    );
    // Health plane is unaffected by slow queries.
    assert_eq!(daemon.http_req("GET", "/healthz").unwrap().0, 200);
    daemon.shutdown(0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_restart_matches() {
    let dir = tmpdir("graceful");
    let daemon = Daemon::start(&dir, &[]);
    for ack in ingest_standard(&daemon) {
        assert!(ack.is_ok(), "{}", ack.to_line());
    }
    let (status, before) = daemon.query();
    assert_eq!(status, 200, "{before}");
    daemon.shutdown(0);

    let daemon = Daemon::start(&dir, &[]);
    let (status, ready) = daemon.http_req("GET", "/readyz").unwrap();
    assert_eq!(status, 200, "{ready}");
    let (status, after) = daemon.query();
    assert_eq!(status, 200, "{after}");
    assert_eq!(after, before, "graceful restart changed the answer");
    // Draining daemons refuse new batches instead of dropping them.
    // The client is connected first: an idle daemon has nothing to
    // drain and may be gone before a connection could be made.
    let mut client = daemon.client("late");
    let (s, _) = daemon.http_req("POST", "/shutdown").unwrap();
    assert_eq!(s, 200);
    // An I/O error (connection closed by the exit) is also fine; only
    // an accepted batch would be a bug.
    if let Ok(reply) = client.send_batch(&batch_payload(9, 3)) {
        assert!(!reply.is_ok(), "draining daemon accepted a batch");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawn, ingest, drain, over and over on one data directory: every
/// cycle reads the whole `draining` reply and its batch's `OK seq=`,
/// sees exit 0, and the restart answers the same bytes. (The order
/// "reply written, then exit" itself is pinned in-process, by
/// `drain_finishes_admitted_batches_and_refuses_new_ones`.)
#[test]
fn every_shutdown_cycle_answers_in_full_and_restarts_identically() {
    let dir = tmpdir("cycles");
    let mut before: Option<String> = None;
    for cycle in 0..3 {
        let daemon = Daemon::start(&dir, &[]);
        if let Some(before) = &before {
            let (status, after) = daemon.query();
            assert_eq!(status, 200, "{after}");
            assert_eq!(&after, before, "cycle {cycle}: restart changed the answer");
        }
        let mut client = daemon.client("rank0");
        let ack = client.send_batch(&batch_payload(cycle, 6)).unwrap();
        assert!(
            matches!(&ack, Reply::Ok(detail) if detail.starts_with("seq=")),
            "cycle {cycle}: {}",
            ack.to_line()
        );
        let (status, answer) = daemon.query();
        assert_eq!(status, 200, "{answer}");
        before = Some(answer);
        daemon.shutdown(0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wedged_worker_ends_the_drain_at_the_deadline_with_exit_2() {
    let dir = tmpdir("drain-deadline");
    std::fs::create_dir_all(&dir).unwrap();
    let stderr_path = dir.join("stderr.txt");
    // One worker that holds every batch for 1.5 s, and a drain budget
    // of 100 ms.
    let daemon = Daemon::start_with(
        &dir,
        &["--workers", "1", "--faults", "served.ingest=delay(1500)"],
        &[("CALI_SERVED_SHUTDOWN_DEADLINE_MS", "100")],
        Stdio::from(std::fs::File::create(&stderr_path).unwrap()),
    );
    // Two batches in flight: once one of them waits in the queue, the
    // worker holds the other, or is about to. Either way the drain
    // below has 1.5 s of admitted work ahead of it.
    let senders: Vec<_> = (0..2)
        .map(|i| {
            let mut client = daemon.client(&format!("s{i}"));
            std::thread::spawn(move || client.send_batch(&batch_payload(i, 6)))
        })
        .collect();
    let patience = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, detail) = daemon.http_req("GET", "/readyz").unwrap();
        if detail.contains("queue_depth=1/64") {
            break;
        }
        assert!(Instant::now() < patience, "batches never queued: {detail}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let wall = daemon.shutdown(2);
    assert!(
        wall >= Duration::from_millis(100) && wall < Duration::from_secs(1),
        "an incomplete drain must end at the 100 ms deadline, took {wall:?}"
    );
    let stderr = std::fs::read_to_string(&stderr_path).unwrap();
    assert!(stderr.contains("degraded exit: drained=false"), "{stderr}");
    for sender in senders {
        // The daemon left before either verdict: no ack, no promise.
        assert!(!matches!(sender.join().unwrap(), Ok(Reply::Ok(_))));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_does_not_wait_for_a_verdict_no_worker_is_left_to_give() {
    let dir = tmpdir("drain-tripped");
    std::fs::create_dir_all(&dir).unwrap();
    let stderr_path = dir.join("stderr.txt");
    // One worker with no restart budget, killed by its first batch: the
    // batch goes back to the queue and stays there, its handler waiting
    // for a verdict. The drain deadline is the default 10 s.
    let daemon = Daemon::start_with(
        &dir,
        &["--workers", "1", "--max-restarts", "0", "--faults", "served.ingest=fail(1)"],
        &[],
        Stdio::from(std::fs::File::create(&stderr_path).unwrap()),
    );
    let mut client = daemon.client("s0");
    let sender = std::thread::spawn(move || client.send_batch(&batch_payload(0, 6)));
    let patience = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, stats) = daemon.http_req("GET", "/stats").unwrap();
        if stats.contains("served.supervisor.restarts=1") {
            break;
        }
        assert!(Instant::now() < patience, "worker never tripped:\n{stats}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let wall = daemon.shutdown(2);
    assert!(
        wall < Duration::from_secs(5),
        "nothing to wait for, yet the drain took {wall:?}"
    );
    let stderr = std::fs::read_to_string(&stderr_path).unwrap();
    assert!(
        stderr.contains("degraded exit: drained=false tripped_workers=1"),
        "{stderr}"
    );
    assert!(!matches!(sender.join().unwrap(), Ok(Reply::Ok(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each listener runs at most 32 connection handlers, a thread each: 256
/// idle ingest connections cost 32 threads, not 256. The first 32 are
/// served (a `PING` is answered), every one past them reads one `ERR`
/// line and then EOF, and the daemon still answers `/readyz` and drains.
#[test]
fn connections_past_the_handler_bound_are_refused_and_cost_no_thread() {
    const BOUND: usize = 32;
    const WORKERS: usize = 2;
    let dir = tmpdir("handler-bound");
    let daemon = Daemon::start(&dir, &["--workers", &WORKERS.to_string()]);
    let mut conns: Vec<TcpStream> = (0..256)
        .map(|_| {
            let conn = TcpStream::connect_timeout(&daemon.ingest, Duration::from_secs(10)).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            conn
        })
        .collect();
    // Accepted in the order they connected: the first BOUND hold the
    // handlers, the rest are refused as they come.
    for (i, conn) in conns.iter_mut().enumerate().skip(BOUND) {
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "ERR too many connections\n", "connection {i}");
    }
    let tasks = format!("/proc/{}/task", daemon.child.id());
    let threads = std::fs::read_dir(tasks).unwrap().count();
    assert!(threads <= 2 * BOUND + WORKERS + 3, "{threads} threads for 256 connections");
    for conn in &mut conns[..BOUND] {
        conn.write_all(b"PING\n").unwrap();
        let mut reply = [0u8; 8];
        conn.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"OK pong\n");
    }
    assert_eq!(daemon.http_req("GET", "/readyz").unwrap().0, 200);
    drop(conns);
    daemon.shutdown(0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write `request` whole to `addr`, then read until the daemon closes
/// the connection: what it answered, and how long that took.
fn exchange(addr: SocketAddr, request: &[u8]) -> (String, Duration) {
    let started = Instant::now();
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    conn.set_write_timeout(Some(Duration::from_secs(15))).unwrap();
    conn.write_all(request).unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("the daemon answers and closes");
    (String::from_utf8_lossy(&raw).into_owned(), started.elapsed())
}

#[test]
fn hostile_names_and_lying_requests_never_panic() {
    let dir = tmpdir("hostile");
    let daemon = Daemon::start(&dir, &["--workers", "1"]);
    let data = dir.join("data");
    let journals = || {
        let mut names: Vec<_> = walk(&dir).into_iter().filter(|p| !p.ends_with("ports.txt")).collect();
        names.sort();
        names
    };
    let before = journals();

    // HELLO: a name of 8 KB — the longest line the protocol reads, and
    // one byte over — or one that leaves the data directory.
    let long = "n".repeat(8 * 1024);
    let hostile = [
        long[..8 * 1024 - "HELLO ".len()].to_string(),
        long.clone(),
        "../escape".to_string(),
        "../../escape".to_string(),
        "a/b".to_string(),
        "/tmp/abs".to_string(),
        ".hidden".to_string(),
        "..".to_string(),
        "a\\b".to_string(),
    ];
    for name in &hostile {
        let (reply, _) = exchange(daemon.ingest, format!("HELLO {name}\n").as_bytes());
        let what = &name[..name.len().min(16)];
        assert!(reply.starts_with("ERR "), "HELLO {what}…: {}", &reply[..reply.len().min(80)]);
        assert_eq!(reply.matches('\n').count(), 1, "HELLO {what}…: one reply, then closed");
    }
    assert_eq!(journals(), before, "a refused HELLO created a file");
    assert!(!dir.join("escape.journal.cali").exists() && !data.join("a").exists());

    // A query over an 8 KB stream name names no stream.
    let (status, body) = daemon.http_req("GET", &format!("/query?q=SELECT+*&stream={}", &long[..8000])).unwrap();
    assert_eq!(status, 404, "{}", &body[..body.len().min(80)]);

    // Content-Length: huge, past u64, longer than the body sent,
    // shorter than it — with and without a body, GET and POST.
    for (method, path, want) in [("GET", "/healthz", 200), ("POST", "/stats", 405)] {
        for (length, body) in [
            ("18446744073709551615", ""),
            ("99999999999999999999999", "x"),
            ("1048576", "only a little"),
            ("3", "rather more than three bytes"),
            ("-1", "negative"),
            ("ten", ""),
        ] {
            let request = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n{body}");
            let (reply, took) = exchange(daemon.http, request.as_bytes());
            let ctx = format!("{method} {path} Content-Length: {length}");
            assert!(reply.starts_with(&format!("HTTP/1.1 {want} ")), "{ctx}: {reply}");
            assert!(took < Duration::from_secs(10), "{ctx}: closed after {took:?}");
        }
    }

    // Still serving: ingest and query as ever.
    assert_eq!(daemon.http_req("GET", "/readyz").unwrap().0, 200);
    let mut client = daemon.client("rank0");
    assert!(client.send_batch(&batch_payload(0, 4)).unwrap().is_ok());
    let _ = client.quit();
    let (status, body) = daemon.query();
    assert_eq!(status, 200);
    assert!(body.contains("rank0"), "{body}");
    daemon.shutdown(0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, recursively.
fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}
