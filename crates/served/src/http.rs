//! Minimal HTTP/1.1 for the query/health plane — just enough of the
//! protocol, hand-rolled over `std::net`, to serve:
//!
//! * `GET /query?q=<calql>[&stream=<name>]` — run a CalQL query over
//!   the warm aggregate state (all streams, or one);
//! * `GET /healthz` — liveness (the process answers);
//! * `GET /readyz` — readiness (journal replay finished AND the ingest
//!   queue is below its high-watermark);
//! * `GET /stats` — the metrics registry, stable block first;
//! * `POST /shutdown` — begin the graceful drain (see `docs/SERVED.md`
//!   for why drain is an endpoint rather than a signal handler).
//!
//! One request per connection (`Connection: close`), bodies ignored on
//! GET, percent-encoding decoded for query parameters. Anything the
//! parser does not understand is a 400 — never a panic, never a hang
//! (a request is read within one time budget, [`Budgeted`]).

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A parsed request line + query parameters. Headers are read and
/// discarded (none affect these endpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` / `POST` / anything else (rejected by the router).
    pub method: String,
    /// Path without the query string, e.g. `/query`.
    pub path: String,
    /// Decoded query parameters (last occurrence wins).
    pub params: BTreeMap<String, String>,
}

/// Most header lines a request may carry (each at most
/// [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES) long).
const MAX_HEADER_LINES: usize = 100;

/// Decode `%xx` escapes and `+`-as-space in a query component. Invalid
/// escapes are kept literally (lenient, like browsers).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse the request line and headers from `reader`. `Ok(None)` on a
/// clean EOF before any byte (client connected and left).
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let request_line = match crate::protocol::read_line(reader)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed request line: '{request_line}'"),
            ))
        }
    };
    // Drain headers up to the blank line; none are interpreted.
    for header in 0.. {
        match crate::protocol::read_line(reader)? {
            Some(line) if line.is_empty() => break,
            Some(_) if header < MAX_HEADER_LINES => continue,
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("more than {MAX_HEADER_LINES} header lines"),
                ))
            }
            None => break,
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let mut params = BTreeMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(percent_decode(k), percent_decode(v));
    }
    Ok(Some(Request {
        method,
        path,
        params,
    }))
}

/// A connection read under one time budget for the whole request:
/// before each read the socket's read timeout is set to what is left of
/// it. A client that trickles bytes, each just before a read would time
/// out, so holds a handler no longer than one that sends nothing.
pub struct Budgeted {
    conn: TcpStream,
    deadline: Instant,
}

impl Budgeted {
    /// Read from `conn` until `budget` from now.
    pub fn new(conn: TcpStream, budget: Duration) -> Budgeted {
        Budgeted {
            conn,
            deadline: Instant::now() + budget,
        }
    }
}

impl Read for Budgeted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            let msg = "request not read within its time budget";
            return Err(io::Error::new(io::ErrorKind::TimedOut, msg));
        }
        self.conn.set_read_timeout(Some(left))?;
        self.conn.read(buf)
    }
}

/// Render a complete HTTP/1.1 response (status + minimal headers +
/// body), `Connection: close`.
pub fn response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Plain-text response with the conventional reason phrase for the
/// status codes this server emits.
pub fn text_response(status: u16, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Response",
    };
    response(status, reason, "text/plain; charset=utf-8", body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn decodes_percent_and_plus() {
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(
            percent_decode("AGGREGATE%20count%2Csum(t)%20GROUP%20BY%20kernel"),
            "AGGREGATE count,sum(t) GROUP BY kernel"
        );
        // Lenient on malformed escapes.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn parses_request_with_params() {
        let raw =
            "GET /query?q=AGGREGATE+count&stream=s1 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        let req = read_request(&mut Cursor::new(raw.as_bytes()))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(
            req.params.get("q").map(String::as_str),
            Some("AGGREGATE count")
        );
        assert_eq!(req.params.get("stream").map(String::as_str), Some("s1"));
    }

    #[test]
    fn empty_connection_is_none_and_garbage_is_error() {
        assert_eq!(read_request(&mut Cursor::new(b"".to_vec())).unwrap(), None);
        assert!(read_request(&mut Cursor::new(b"NONSENSE\r\n\r\n".to_vec())).is_err());
    }

    #[test]
    fn oversized_requests_are_refused_without_reading_them_out() {
        let mut endless = Cursor::new(vec![b'G'; 1 << 20]);
        let err = read_request(&mut endless).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            endless.position(),
            crate::protocol::MAX_LINE_BYTES as u64 + 1
        );

        let request = |headers: usize| {
            Cursor::new(format!(
                "GET /healthz HTTP/1.1\r\n{}\r\n",
                "X-Pad: 1\r\n".repeat(headers)
            ))
        };
        let mut flood = request(10_000);
        let err = read_request(&mut flood).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "more than 100 header lines");
        assert!(
            flood.position() < 2048,
            "read {} bytes of headers",
            flood.position()
        );
        let accepted = read_request(&mut request(MAX_HEADER_LINES))
            .unwrap()
            .unwrap();
        assert_eq!(accepted.path, "/healthz");
    }

    /// Damaged requests — an over-long request line and a header flood
    /// among them — never panic the reader, which reads at most a
    /// request line and the headers it allows, and whatever request it
    /// makes of them is no longer than its lines.
    #[test]
    fn damaged_requests_are_read_within_bounds() {
        use crate::protocol::{tests::mutants, MAX_LINE_BYTES};
        let plain = "GET /query?q=AGGREGATE+count%2Csum(t)&stream=s1&format=csv HTTP/1.1\r\n\
                     Host: x\r\nAccept: */*\r\n\r\n";
        let flood = format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-Pad: 1\r\n".repeat(MAX_HEADER_LINES + 1)
        );
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        for base in [plain, &flood, &long] {
            for bytes in mutants(base.as_bytes()) {
                let mut reader = Cursor::new(&bytes[..]);
                if let Ok(Some(req)) = read_request(&mut reader) {
                    assert!(req.method.len() + req.path.len() <= MAX_LINE_BYTES);
                    // A byte decodes to at most a replacement character.
                    let params: usize = req.params.iter().map(|(k, v)| k.len() + v.len()).sum();
                    assert!(params <= 3 * MAX_LINE_BYTES);
                }
                let most = (MAX_HEADER_LINES + 2) * (MAX_LINE_BYTES + 2);
                assert!(reader.position() <= most as u64);
            }
        }
        assert!(read_request(&mut Cursor::new(flood.as_bytes())).is_err());
        assert!(read_request(&mut Cursor::new(long.as_bytes())).is_err());
    }

    /// A client that sends a byte every 50 ms — well inside any one
    /// read's wait — is cut off when the request's budget runs out, not
    /// after its last header line.
    #[test]
    fn a_trickled_request_is_cut_off_at_its_budget() {
        use std::io::{BufReader, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            let request = format!("GET /healthz HTTP/1.1\r\n{}\r\n", "X-Pad: 1\r\n".repeat(10));
            for byte in request.bytes() {
                if conn.write_all(&[byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (conn, _) = listener.accept().unwrap();
        let start = Instant::now();
        let budget = Duration::from_millis(300);
        let read = read_request(&mut BufReader::new(Budgeted::new(conn, budget)));
        let took = start.elapsed();
        assert!(read.is_err(), "{read:?}");
        assert!(
            took >= budget && took < Duration::from_secs(2),
            "gave up after {took:?}"
        );
        client.join().unwrap();
    }

    #[test]
    fn responses_carry_length_and_close() {
        let resp = String::from_utf8(text_response(408, "deadline exceeded")).unwrap();
        assert!(
            resp.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{resp}"
        );
        assert!(resp.contains("Content-Length: 17\r\n"));
        assert!(resp.contains("Connection: close\r\n"));
        assert!(resp.ends_with("deadline exceeded"));
    }
}
