//! The ingest wire protocol: a hand-rolled line + length-prefixed
//! framing over plain TCP (`std::net` only — no external deps).
//!
//! Commands are single `\n`-terminated ASCII lines; the only binary
//! payload is the batch body, length-prefixed by its command line:
//!
//! ```text
//! client → HELLO <stream>            server → OK stream=<stream>
//! client → BATCH <len>\n<len bytes>  server → OK seq=<n> records=<m>
//!                                           | BUSY retry-after-ms=<m>
//!                                           | DEGRADED <reason>
//!                                           | ERR <reason>
//! client → PING                      server → OK pong
//! client → QUIT                      server → OK bye   (then close)
//! ```
//!
//! A batch body is a complete, self-describing `.cali` text stream
//! (attribute declarations included) — exactly what
//! [`caliper_format::cali::to_bytes`] produces. `BUSY` is the
//! backpressure reply: the queue was full, nothing was accepted, and
//! the client should retry after the hinted delay. `OK seq=...` is the
//! durability ack: the batch is journaled (and fsynced, per policy)
//! *before* this line is sent.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One server reply line, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `OK <detail>` — the command succeeded.
    Ok(String),
    /// `BUSY retry-after-ms=<m>` — backpressure; retry after the hint.
    Busy {
        /// Suggested client-side wait before retrying.
        retry_after_ms: u64,
    },
    /// `DEGRADED <reason>` — the stream's circuit breaker is open; the
    /// batch was refused and retrying will not help until an operator
    /// intervenes.
    Degraded(String),
    /// `ERR <reason>` — the command failed (bad frame, rejected batch).
    Error(String),
}

impl Reply {
    /// Render as the wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Reply::Ok(detail) if detail.is_empty() => "OK".to_string(),
            Reply::Ok(detail) => format!("OK {detail}"),
            Reply::Busy { retry_after_ms } => format!("BUSY retry-after-ms={retry_after_ms}"),
            Reply::Degraded(reason) => format!("DEGRADED {reason}"),
            Reply::Error(reason) => format!("ERR {reason}"),
        }
    }

    /// Parse a wire line (trailing newline optional).
    pub fn parse(line: &str) -> Result<Reply, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
        match word {
            "OK" => Ok(Reply::Ok(rest.to_string())),
            "BUSY" => {
                let ms = rest
                    .strip_prefix("retry-after-ms=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("malformed BUSY reply: '{line}'"))?;
                Ok(Reply::Busy { retry_after_ms: ms })
            }
            "DEGRADED" => Ok(Reply::Degraded(rest.to_string())),
            "ERR" => Ok(Reply::Error(rest.to_string())),
            _ => Err(format!("unrecognized reply: '{line}'")),
        }
    }

    /// True for `OK`.
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok(_))
    }
}

/// One client command, parsed from its line (the `BATCH` body is read
/// separately by the caller, using the returned length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `HELLO <stream>` — bind this connection to a stream.
    Hello(String),
    /// `BATCH <len>` — a payload of `len` bytes follows.
    Batch(usize),
    /// `PING` — liveness probe.
    Ping,
    /// `QUIT` — close the connection cleanly.
    Quit,
}

impl Command {
    /// Parse a command line (trailing newline optional).
    pub fn parse(line: &str) -> Result<Command, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (word, rest) = line.split_once(' ').map_or((line, ""), |(w, r)| (w, r.trim()));
        match (word, rest) {
            ("HELLO", stream) if !stream.is_empty() => Ok(Command::Hello(stream.to_string())),
            ("HELLO", _) => Err("HELLO needs a stream name".to_string()),
            ("BATCH", len) => len
                .parse::<usize>()
                .map(Command::Batch)
                .map_err(|_| format!("malformed BATCH length: '{len}'")),
            ("PING", "") => Ok(Command::Ping),
            ("QUIT", "") => Ok(Command::Quit),
            _ => Err(format!("unrecognized command: '{line}'")),
        }
    }
}

/// Longest command, reply, request or header line accepted, without
/// its terminator. The peer chooses the length, so it is bounded.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Read one `\n`-terminated line (returned without the terminator).
/// `Ok(None)` = clean EOF before any byte; `InvalidData` for a line
/// over [`MAX_LINE_BYTES`], with at most one byte more than that read.
pub fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut capped = reader.take(MAX_LINE_BYTES as u64 + 1);
    let n = capped.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        let msg = format!("line exceeds {MAX_LINE_BYTES} bytes");
        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    }
    while buf.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 command line"))
}

/// The ingest-side client: connects, speaks the protocol, enforces
/// socket timeouts so a wedged daemon surfaces as an I/O error instead
/// of a hang (the chaos tests and the check.sh smoke rely on this).
pub struct IngestClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl IngestClient {
    /// Connect with `timeout` applied to connect, reads, and writes.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<IngestClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        // Every request waits for its reply: there is nothing for Nagle's
        // algorithm to coalesce, only acknowledgements to wait out.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(IngestClient {
            reader,
            writer: stream,
        })
    }

    fn round_trip(&mut self, line: &str) -> io::Result<Reply> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let line = read_line(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        Reply::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Bind this connection to `stream` (must be first).
    pub fn hello(&mut self, stream: &str) -> io::Result<Reply> {
        self.round_trip(&format!("HELLO {stream}"))
    }

    /// Send one batch payload; the reply is the ack / backpressure /
    /// degradation verdict.
    pub fn send_batch(&mut self, payload: &[u8]) -> io::Result<Reply> {
        // One frame, one write: a header segment followed by a body
        // segment makes the body wait for the header's (delayed) ACK.
        let mut frame = format!("BATCH {}\n", payload.len()).into_bytes();
        frame.extend_from_slice(payload);
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// [`send_batch`](Self::send_batch), retrying `BUSY` replies up to
    /// `max_retries` times, honoring (but capping at 1 s) the server's
    /// retry-after hint — the well-behaved client's backpressure loop.
    pub fn send_batch_retrying(
        &mut self,
        payload: &[u8],
        max_retries: u32,
    ) -> io::Result<Reply> {
        let mut attempts = 0;
        loop {
            let reply = self.send_batch(payload)?;
            match reply {
                Reply::Busy { retry_after_ms } if attempts < max_retries => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(1000)));
                }
                other => return Ok(other),
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<Reply> {
        self.round_trip("PING")
    }

    /// Close cleanly.
    pub fn quit(&mut self) -> io::Result<Reply> {
        self.round_trip("QUIT")
    }
}

/// Read exactly `len` payload bytes (the `BATCH` body); fewer is
/// `UnexpectedEof`. The peer chooses `len`, so the buffer starts at
/// 64 KiB at most and grows with the bytes that arrive: a peer that
/// announces a large batch and goes silent pins no more than that.
pub fn read_payload(reader: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(len.min(64 * 1024));
    reader.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "batch payload cut short"));
    }
    Ok(buf)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use caliper_faults::{corrupt_bytes, CorruptMode};

    /// `base`, corrupted one to three times over by each of
    /// `caliper_faults`' modes, for a fixed budget of seeds.
    pub(crate) fn mutants(base: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let modes = [CorruptMode::Bitflip, CorruptMode::Truncate, CorruptMode::GarbageBlock];
        (0..600u64).map(move |seed| {
            let mut bytes = base.to_vec();
            for round in 0..=seed % 3 {
                corrupt_bytes(modes[(seed + round) as usize % 3], seed * 3 + round, &mut bytes);
            }
            bytes
        })
    }

    /// Damaged command streams — an over-long line among them — never
    /// panic the reader or the parser: every line read is within the
    /// cap, every command and error within what was read.
    #[test]
    fn damaged_command_lines_are_read_and_parsed_within_bounds() {
        let long = format!("HELLO {}\nPING\n", "s".repeat(MAX_LINE_BYTES));
        let bases = ["HELLO rank0\nBATCH 4096\n", "PING\r\nQUIT\n", &long];
        for base in bases {
            for bytes in mutants(base.as_bytes()) {
                let mut reader = io::Cursor::new(&bytes[..]);
                while let Ok(Some(line)) = read_line(&mut reader) {
                    assert!(line.len() <= MAX_LINE_BYTES);
                    match Command::parse(&line) {
                        Ok(Command::Hello(stream)) => assert!(stream.len() <= line.len()),
                        Ok(_) => {}
                        Err(e) => assert!(e.len() <= line.len() + 64, "{e}"),
                    }
                }
                assert!(reader.position() <= bytes.len() as u64);
            }
        }
        // Undamaged, the over-long line is refused.
        assert!(read_line(&mut io::Cursor::new(long.as_bytes())).is_err());
    }

    /// A `Read` that delivers `prefix` and then nothing, keeping the
    /// largest buffer it was handed.
    struct Silent<'a> {
        prefix: &'a [u8],
        largest: usize,
    }

    impl Read for Silent<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.prefix.read(buf)
        }
    }

    /// `BATCH 4194304` and silence pins at most 64 KiB, not 4 MiB; a
    /// payload cut short is an error, and a whole one comes back whole.
    #[test]
    fn a_payload_buffer_grows_with_the_bytes_that_arrive() {
        let mut peer = Silent { prefix: b"__rec=ctx", largest: 0 };
        let err = read_payload(&mut peer, 4 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(peer.largest <= 64 * 1024, "handed a buffer of {} bytes", peer.largest);
        let whole = vec![b'x'; 200_000];
        assert_eq!(read_payload(&mut &whole[..], whole.len()).unwrap(), whole);
        assert_eq!(read_payload(&mut &whole[..], 10).unwrap(), &whole[..10]);
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Ok("seq=41 records=7".to_string()),
            Reply::Ok(String::new()),
            Reply::Busy { retry_after_ms: 250 },
            Reply::Degraded("stream 's1' circuit open".to_string()),
            Reply::Error("batch rejected: no records".to_string()),
        ] {
            let line = reply.to_line();
            assert_eq!(Reply::parse(&line).unwrap(), reply, "{line}");
            assert_eq!(Reply::parse(&format!("{line}\r\n")).unwrap(), reply);
        }
        assert!(Reply::parse("NOPE what").is_err());
        assert!(Reply::parse("BUSY sometime").is_err());
    }

    #[test]
    fn commands_parse() {
        assert_eq!(
            Command::parse("HELLO node-1\n").unwrap(),
            Command::Hello("node-1".to_string())
        );
        assert_eq!(Command::parse("BATCH 512").unwrap(), Command::Batch(512));
        assert_eq!(Command::parse("PING").unwrap(), Command::Ping);
        assert_eq!(Command::parse("QUIT").unwrap(), Command::Quit);
        for bad in ["HELLO", "HELLO  ", "BATCH", "BATCH twelve", "FETCH 1", "PING now"] {
            assert!(Command::parse(bad).is_err(), "{bad}");
        }
    }

    /// A header written apart from its body on a Nagle-enabled socket
    /// costs every batch a delayed ACK (~40 ms on Linux): 100 acked
    /// batches took over 4 s.
    #[test]
    fn sequential_acked_batches_do_not_wait_out_delayed_acks() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        const BATCHES: usize = 100;
        let payload = vec![b'x'; 4096];
        let expected = payload.len();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..BATCHES {
                let line = read_line(&mut reader).unwrap().unwrap();
                let Command::Batch(len) = Command::parse(&line).unwrap() else {
                    panic!("expected BATCH, got {line}");
                };
                assert_eq!(read_payload(&mut reader, len).unwrap().len(), expected);
                writer.write_all(b"OK\n").unwrap();
            }
        });
        let mut client = IngestClient::connect(addr, Duration::from_secs(10)).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..BATCHES {
            assert_eq!(client.send_batch(&payload).unwrap(), Reply::Ok(String::new()));
        }
        let elapsed = start.elapsed();
        server.join().unwrap();
        assert!(elapsed < Duration::from_secs(2), "{BATCHES} batches took {elapsed:?}");
    }

    #[test]
    fn read_line_stops_buffering_one_byte_past_the_cap() {
        // A megabyte without a newline: refused, with the rest unread.
        let mut endless = io::Cursor::new(vec![b'x'; 1 << 20]);
        let err = read_line(&mut endless).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line exceeds 8192 bytes");
        assert_eq!(endless.position(), MAX_LINE_BYTES as u64 + 1);

        // The longest line allowed, terminated or cut off by EOF.
        let longest = "y".repeat(MAX_LINE_BYTES);
        let mut buf = io::Cursor::new(format!("{longest}\n{longest}").into_bytes());
        assert_eq!(read_line(&mut buf).unwrap().as_deref(), Some(&*longest));
        assert_eq!(read_line(&mut buf).unwrap().as_deref(), Some(&*longest));
        assert_eq!(read_line(&mut buf).unwrap(), None);
    }

    #[test]
    fn read_line_handles_eof_and_crlf() {
        let mut buf = io::Cursor::new(b"HELLO s\r\nPING\n".to_vec());
        assert_eq!(read_line(&mut buf).unwrap().as_deref(), Some("HELLO s"));
        assert_eq!(read_line(&mut buf).unwrap().as_deref(), Some("PING"));
        assert_eq!(read_line(&mut buf).unwrap(), None);
    }
}
