//! `cali-served` — the resident aggregation daemon, plus the thin
//! client used by scripts and tests (so the smoke path needs neither
//! `curl` nor `nc`).
//!
//! Server mode (default):
//!
//! ```text
//! cali-served --data-dir DIR [--port P] [--http-port P] [--ports-file F]
//!             [--aggregate OPS] [--group-by KEY] [--queue-depth N]
//!             [--workers N] [--deadline-ms MS] [--max-restarts N]
//!             [--max-groups N] [--batch-max-bytes N] [--fsync]
//!             [--config FILE] [--faults SPEC] [--stats]
//! ```
//!
//! Client modes (mutually exclusive with serving):
//!
//! ```text
//! cali-served --connect ADDR --stream NAME INPUT.cali...   # ingest batches
//! cali-served --http ADDR --client-query QUERY [--query-stream NAME]
//! cali-served --http ADDR --probe PATH                     # GET, print body
//! cali-served --http ADDR --shutdown                       # begin drain
//! ```
//!
//! Exit codes: 0 success; 1 usage/protocol error; 2 degraded (daemon:
//! tripped workers, degraded streams, or incomplete drain; query
//! client: partial result under deadline, HTTP 408).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

use cali_cli::parse_args;
use caliper_runtime::Config;
use caliper_served::{IngestClient, Reply, ServedConfig, Server};

const USAGE: &str = "usage: cali-served [server flags] | --connect ADDR ... | --http ADDR ...

Server flags:
  --data-dir DIR       journal directory (created if missing; default .)
  --port P             ingest TCP port (default 0 = ephemeral)
  --http-port P        query/health HTTP port (default 0 = ephemeral)
  --ports-file FILE    write \"ingest=PORT\\nhttp=PORT\\n\" after binding
  --aggregate OPS      aggregation ops, e.g. \"count,sum(time.duration)\"
  --group-by KEY       aggregation key attribute(s), comma separated
  --queue-depth N      bounded ingest queue capacity (full => BUSY)
  --workers N          supervised ingest worker threads
  --deadline-ms MS     per-query deadline (slow queries => HTTP 408)
  --max-restarts N     worker restarts before the supervisor trips
  --max-groups N       cap aggregate groups per stream (0 = unbounded)
  --batch-max-bytes N  largest accepted ingest batch (default 4194304)
  --fsync              fsync journals on every flush
  --config FILE        caliper config profile (served.* keys; CLI wins)
  --faults SPEC        arm fault injection (same grammar as CALI_FAULTS)
  --stats              print the metrics block on stderr at exit

Client flags:
  --connect ADDR       ingest endpoint, e.g. 127.0.0.1:9090
  --stream NAME        stream to bind (with --connect)
  --http ADDR          HTTP endpoint, e.g. 127.0.0.1:9091
  --client-query Q     run a CalQL query via GET /query
  --query-stream NAME  restrict --client-query to one stream
  --probe PATH         GET an endpoint (/healthz, /readyz, /stats)
  --shutdown           POST /shutdown (graceful drain)
  --timeout-ms MS      client socket timeout (default 10000)
";

/// One-shot HTTP request; returns `(status, body)`.
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.write_all(format!("{method} {path} HTTP/1.1\r\nHost: cali-served\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed HTTP status line",
            )
        })?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Percent-encode a query value (conservative: everything but
/// unreserved characters).
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    s.parse().map_err(|e| format!("bad address '{s}': {e}"))
}

fn client_main(args: &cali_cli::CliArgs) -> ExitCode {
    let timeout = Duration::from_millis(
        args.get(&["timeout-ms"])
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000),
    );

    if let Some(addr) = args.get(&["connect"]) {
        let addr = match parse_addr(addr) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("cali-served: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(stream) = args.get(&["stream"]) else {
            eprintln!("cali-served: --connect requires --stream NAME\n{USAGE}");
            return ExitCode::FAILURE;
        };
        if args.positional.is_empty() {
            eprintln!("cali-served: --connect requires input files to ingest\n{USAGE}");
            return ExitCode::FAILURE;
        }
        let mut client = match IngestClient::connect(addr, timeout) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cali-served: connecting {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match client.hello(stream) {
            Ok(reply) if reply.is_ok() => {}
            Ok(reply) => {
                eprintln!("cali-served: HELLO refused: {}", reply.to_line());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cali-served: HELLO: {e}");
                return ExitCode::FAILURE;
            }
        }
        let mut degraded = false;
        for file in &args.positional {
            let payload = match std::fs::read(file) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cali-served: reading {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match client.send_batch_retrying(&payload, 50) {
                Ok(Reply::Ok(detail)) => println!("{file}: OK {detail}"),
                Ok(reply) => {
                    eprintln!("cali-served: {file}: {}", reply.to_line());
                    degraded = true;
                }
                Err(e) => {
                    eprintln!("cali-served: {file}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let _ = client.quit();
        return if degraded {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }

    let addr = match args.get(&["http"]).map(parse_addr) {
        Some(Ok(a)) => a,
        Some(Err(e)) => {
            eprintln!("cali-served: {e}");
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!("cali-served: client mode needs --connect or --http\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let (method, path) = if args.has(&["shutdown"]) {
        ("POST", "/shutdown".to_string())
    } else if let Some(q) = args.get(&["client-query"]) {
        let mut path = format!("/query?q={}", percent_encode(q));
        if let Some(stream) = args.get(&["query-stream"]) {
            path.push_str(&format!("&stream={}", percent_encode(stream)));
        }
        ("GET", path)
    } else if let Some(p) = args.get(&["probe"]) {
        ("GET", p.to_string())
    } else {
        eprintln!("cali-served: --http needs --client-query, --probe, or --shutdown\n{USAGE}");
        return ExitCode::FAILURE;
    };

    match http_request(addr, method, &path, timeout) {
        Ok((status, body)) => {
            print!("{body}");
            match status {
                200 => ExitCode::SUCCESS,
                408 => ExitCode::from(2), // partial result under deadline
                other => {
                    eprintln!("cali-served: {method} {path}: HTTP {other}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("cali-served: {method} {path} on {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn server_main(args: &cali_cli::CliArgs) -> ExitCode {
    // Profile file (if any) under environment overrides, with CLI
    // flags taking final precedence via `set`.
    let mut config = match args.get(&["config"]) {
        Some(file) => match std::fs::read_to_string(file) {
            Ok(text) => match Config::from_text(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cali-served: parsing {file}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cali-served: reading {file}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Config::from_env(),
    };
    let flag_keys = [
        ("data-dir", "served.data.dir"),
        ("port", "served.port"),
        ("http-port", "served.http.port"),
        ("aggregate", "served.aggregate.ops"),
        ("group-by", "served.aggregate.key"),
        ("queue-depth", "served.queue.depth"),
        ("workers", "served.workers"),
        ("deadline-ms", "served.query.deadline.ms"),
        ("max-restarts", "served.supervisor.max.restarts"),
        ("max-groups", "served.max.groups"),
        ("batch-max-bytes", "served.batch.max.bytes"),
    ];
    for (flag, key) in flag_keys {
        if let Some(value) = args.get(&[flag]) {
            config = config.set(key, value);
        }
    }
    if args.has(&["fsync"]) {
        config = config.set("served.fsync", "true");
    }

    let cfg = match ServedConfig::from_config(&config) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("cali-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cali-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ingest = server.ingest_addr();
    let http = server.http_addr();
    if let Some(file) = args.get(&["ports-file"]) {
        let contents = format!("ingest={}\nhttp={}\n", ingest.port(), http.port());
        if let Err(e) = std::fs::write(file, contents) {
            eprintln!("cali-served: writing {file}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("cali-served listening ingest={ingest} http={http}");

    let summary = server.run();
    if args.has(&["stats"]) {
        eprint!("{}", caliper_data::metrics::global().render_text(true));
    }
    if summary.exit_code != 0 {
        eprintln!(
            "cali-served: degraded exit: drained={} tripped_workers={} degraded_streams={:?}",
            summary.drained, summary.tripped_workers, summary.degraded_streams
        );
    }
    ExitCode::from(summary.exit_code as u8)
}

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &[
            "data-dir",
            "port",
            "http-port",
            "ports-file",
            "aggregate",
            "group-by",
            "queue-depth",
            "workers",
            "deadline-ms",
            "max-restarts",
            "max-groups",
            "batch-max-bytes",
            "config",
            "faults",
            "connect",
            "stream",
            "http",
            "client-query",
            "query-stream",
            "probe",
            "timeout-ms",
        ],
        &["h", "help", "fsync", "shutdown", "stats"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cali-served: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(spec) = args.get(&["faults"]) {
        if let Err(e) = caliper_faults::install_spec(spec) {
            eprintln!("cali-served: --faults: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    if args.get(&["connect"]).is_some() || args.get(&["http"]).is_some() {
        client_main(&args)
    } else {
        server_main(&args)
    }
}
