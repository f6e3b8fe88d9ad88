//! Write-ahead journaling: append-only `.cali` journals and the
//! recovery path that salvages them after a crash.
//!
//! The runtime's on-line aggregation (paper §IV) lives *inside* the
//! measured application, so an OOM kill or `kill -9` loses everything
//! buffered since startup. A journal closes that gap on the writer
//! side, pairing with the lenient readers in [`crate::policy`]. After
//! its header comment a journal holds one of two shapes, or the first
//! and then the second:
//!
//! * **Lines.** [`JournalWriter::append_snapshot`] appends a snapshot as
//!   one text `.cali` line, with attribute and context-tree metadata
//!   emitted in dependency order *before* first use (the
//!   [`crate::cali::CaliWriter`] invariant). A crash therefore tears at
//!   most the final line; every complete line is independently
//!   decodable. The runtime journals this way.
//! * **Frames.** [`JournalWriter::append_batch`] appends a batch of
//!   snapshots as it was received — a self-describing text stream —
//!   behind one header line: `__rec=batch,seq=<first seq>,bytes=<L>`,
//!   then the `L` bytes of the payload (a `\n` added when it lacks one,
//!   counted in `L`). Nothing is decoded or encoded on the way in.
//!   `cali-served` journals this way.
//!
//! Records are buffered in memory and drained to the file by a
//! [`FlushPolicy`]: every `flush_interval` records, whenever the buffer
//! exceeds `max_buffer` bytes (a forced flush, counted for backpressure
//! accounting), and optionally `fsync`ed for durability across OS
//! crashes rather than just process crashes.
//!
//! There is one recovery routine, in two forms ([`recover_blocks`] over
//! bytes, [`recover_file_blocks`] over a path). It reads the lines
//! before the first frame under the caller's [`ReadPolicy`] (lenient,
//! for a journal), then decodes each frame with the decoder the batch
//! took at ingest, [`CaliReader::read_batch`], its rows stamped with
//! [`SEQ_ATTR`] from the frame's `seq` on: a frame replays whole or not
//! at all. It hands the salvaged snapshots to a [`BlockSink`] as typed
//! columns, deduplicates a double-written tail by the monotonic
//! [`SEQ_ATTR`] column and reports exactly what was salvaged and what
//! was lost in a [`RecoveryReport`]. [`recover_file`], the one row
//! view, is that routine with the sink that derives records from
//! blocks.
//!
//! A frame ends after its `L` bytes, or earlier, at a line that starts
//! with `__rec=batch,`: the reader refuses a `batch` record (`unknown
//! record kind`), so no batch that was accepted holds such a line. A
//! frame that ends early — cut by a crash, the next frame appended
//! after a restart — or whose header line is cut is torn: it is dropped
//! and the report marked truncated, whatever the policy, as a torn
//! final line is.
//!
//! Crash-consistency contract: for a journal written with
//! `flush_interval = k`, a process death at any instant loses at most
//! the last `k - 1` appended records plus the one torn line or frame;
//! every record flushed before the death is recovered verbatim.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use caliper_data::{FlatRecord, FxHashSet, Properties, SnapshotRecord, ValueType};

use crate::binary_v2::{append_rows, Block, BlockSink, StringTable};
use crate::cali::{CaliError, CaliReader, CaliWriter};
use crate::dataset::Dataset;
use crate::policy::{ReadPolicy, ReadReport};

/// Label of the monotonically increasing snapshot sequence attribute
/// stamped on every journaled snapshot. Recovery deduplicates a
/// double-written tail by keeping the first occurrence of each sequence
/// number and reports gaps in the sequence as lost records.
pub const SEQ_ATTR: &str = "journal.seq";

/// Header comment written at the top of a fresh journal file. Readers
/// skip `#` comments, so the marker costs nothing and identifies the
/// file as a journal to humans and tools.
pub const JOURNAL_HEADER: &str = "# caliper snapshot journal v1";

/// What the header line of a batch frame starts with (see the module
/// docs).
const FRAME: &[u8] = b"__rec=batch,";

/// What [`JournalWriter::open_append`] ends a torn final line with.
const TORN_END: &[u8] = b",attr=torn\n";

/// When buffered journal records are drained to the backing file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushPolicy {
    /// Flush after this many buffered records (1 = every record).
    pub flush_interval: u64,
    /// Flush whenever the in-memory buffer exceeds this many bytes,
    /// regardless of the record count — bounds journal memory and is
    /// counted as a *forced* flush (backpressure accounting).
    pub max_buffer: usize,
    /// `fsync` the file after each flush: survives OS crashes, not just
    /// process crashes, at a substantial per-flush cost.
    pub fsync: bool,
}

impl Default for FlushPolicy {
    fn default() -> FlushPolicy {
        FlushPolicy {
            flush_interval: 1,
            max_buffer: 1 << 20,
            fsync: false,
        }
    }
}

/// Counters describing what a [`JournalWriter`] has done so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalCounters {
    /// Records (snapshots + globals) appended to the in-memory buffer.
    pub appended: u64,
    /// Records drained to the file (durable against process death).
    pub durable: u64,
    /// Buffer drains performed.
    pub flushes: u64,
    /// Flushes forced by the `max_buffer` byte cap rather than the
    /// record interval.
    pub forced_flushes: u64,
    /// `fsync` calls performed.
    pub syncs: u64,
    /// Transient write/fsync errors absorbed by bounded retry
    /// (mirrored as the `runtime.journal.retries` gauge).
    pub retries: u64,
}

/// Appends snapshots — as lines, or batches as frames — to an
/// append-only `.cali` journal file.
///
/// Complete records and frames are buffered in memory (so a crash never
/// tears the file mid-line on our account — only the OS can tear the
/// end of a flush) and drained according to the [`FlushPolicy`].
pub struct JournalWriter {
    /// Encodes records into the in-memory buffer (its sink), which
    /// frames are appended to as they are.
    writer: CaliWriter<Vec<u8>>,
    drain: Drain,
}

/// Where the line buffer goes and when: the file, the policy, and the
/// bookkeeping done after every appended record.
struct Drain {
    file: std::fs::File,
    path: PathBuf,
    /// The path as the `journal.*` failpoints' label, and its key.
    label: String,
    key: u64,
    policy: FlushPolicy,
    pending: u64,
    counters: JournalCounters,
}

impl JournalWriter {
    /// Create (truncate) a journal at `path` and write the header line.
    pub fn create(path: impl Into<PathBuf>, policy: FlushPolicy) -> io::Result<JournalWriter> {
        let path = path.into();
        let mut file = std::fs::File::create(&path)?;
        file.write_all(format!("{JOURNAL_HEADER}\n").as_bytes())?;
        Ok(JournalWriter::over(file, path, policy))
    }

    /// Open an existing journal for appending — e.g. to resume after a
    /// restart. If the file does not end with a newline (a torn final
    /// line from the previous incarnation), a newline is appended first
    /// so the torn fragment becomes one lenient-skippable record and
    /// new records start on a fresh line. The writer re-declares
    /// attribute/node metadata lazily; the reader's id remapping merges
    /// the incarnations' overlapping id spaces correctly.
    ///
    /// Creates the file (with header) if it does not exist.
    pub fn open_append(path: impl Into<PathBuf>, policy: FlushPolicy) -> io::Result<JournalWriter> {
        let path = path.into();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let len = file.seek(SeekFrom::End(0))?;
        if len == 0 {
            file.write_all(format!("{JOURNAL_HEADER}\n").as_bytes())?;
        } else {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                // A bare newline is not enough: a torn data record with
                // its tail entries cut off can still parse as a shorter
                // — wrong — record. `attr=torn` cannot parse as an
                // attribute id, so the fragment reliably fails as one
                // lenient-skippable line instead. (On a torn `attr`
                // metadata line the field is ignored; such a fragment
                // is harmless because the resumed writer re-declares
                // all metadata before referencing it. A frame cut short
                // ends at the next frame's header line all the same.)
                file.write_all(TORN_END)?;
            }
            file.seek(SeekFrom::End(0))?;
        }
        Ok(JournalWriter::over(file, path, policy))
    }

    fn over(file: std::fs::File, path: PathBuf, policy: FlushPolicy) -> JournalWriter {
        let label = path.to_string_lossy().into_owned();
        JournalWriter {
            writer: CaliWriter::new(Vec::new()),
            drain: Drain {
                file,
                key: caliper_faults::stable_hash(&label),
                label,
                path,
                policy: FlushPolicy {
                    flush_interval: policy.flush_interval.max(1),
                    ..policy
                },
                pending: 0,
                counters: JournalCounters::default(),
            },
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.drain.path
    }

    /// Counter snapshot.
    pub fn counters(&self) -> JournalCounters {
        self.drain.counters.clone()
    }

    /// Records appended but not yet drained to the file.
    pub fn pending(&self) -> u64 {
        self.drain.pending
    }

    /// Append one snapshot record (metadata it references is emitted
    /// first, on first use). `ds` supplies the attribute store and
    /// context tree the record's ids refer to.
    pub fn append_snapshot(&mut self, ds: &Dataset, record: &SnapshotRecord) -> io::Result<()> {
        self.writer.write_snapshot(ds, record)?;
        self.drain.after_append(self.writer.sink_mut(), 1)
    }

    /// Append one batch as it was received: a frame of the header line
    /// `__rec=batch,seq=<first_seq>,bytes=<L>` and the `L` bytes of
    /// `payload`, plus a `\n` when it does not end in one (counted in
    /// `L`). `rows` — the snapshots the batch holds — goes to the
    /// counters, as that many [`append_snapshot`](Self::append_snapshot)
    /// calls would; the flush policy is asked once, after the frame.
    ///
    /// Recovery reads a journal's lines only up to its first frame, so a
    /// journal that takes a frame takes nothing but frames after it.
    pub fn append_batch(&mut self, first_seq: u64, rows: u64, payload: &[u8]) -> io::Result<()> {
        let buffer = self.writer.sink_mut();
        let newline = !payload.ends_with(b"\n");
        let len = payload.len() + usize::from(newline);
        buffer.extend_from_slice(FRAME);
        writeln!(buffer, "seq={first_seq},bytes={len}")?;
        buffer.extend_from_slice(payload);
        if newline {
            buffer.push(b'\n');
        }
        self.drain.after_append(buffer, rows)
    }

    /// Append one globals (dataset metadata) record.
    pub fn append_globals(&mut self, ds: &Dataset, record: &FlatRecord) -> io::Result<()> {
        self.writer.write_globals(ds, record)?;
        self.drain.after_append(self.writer.sink_mut(), 1)
    }

    /// Drain the buffered records to the file (and `fsync` if the
    /// policy asks for it). A no-op when nothing is buffered.
    ///
    /// Both the write-out and the `fsync` pass through the
    /// `journal.write` / `journal.fsync` failpoints and retry transient
    /// errors with bounded backoff ([`crate::retry`]); retries taken
    /// are counted in [`JournalCounters::retries`]. A `write_all` that
    /// fails mid-buffer may leave a torn partial flush in the file —
    /// exactly the torn-tail shape recovery already handles — so the
    /// buffer is retained and re-draining after a failed flush is safe:
    /// recovery deduplicates the double-written span via [`SEQ_ATTR`].
    pub fn flush(&mut self) -> io::Result<()> {
        self.drain.flush(self.writer.sink_mut())
    }
}

impl Drain {
    /// Account `records` appended to `buffer`, and drain it when the
    /// policy says so.
    fn after_append(&mut self, buffer: &mut Vec<u8>, records: u64) -> io::Result<()> {
        self.counters.appended += records;
        self.pending += records;
        if self.pending >= self.policy.flush_interval {
            self.flush(buffer)
        } else if buffer.len() >= self.policy.max_buffer {
            self.counters.forced_flushes += 1;
            self.flush(buffer)
        } else {
            Ok(())
        }
    }

    /// See [`JournalWriter::flush`].
    fn flush(&mut self, buffer: &mut Vec<u8>) -> io::Result<()> {
        use crate::retry::{injected_error, RetryPolicy};
        use caliper_faults::sites;

        if buffer.is_empty() {
            return Ok(());
        }
        let (file, key, label) = (&mut self.file, self.key, self.label.as_str());
        let (result, retries) = RetryPolicy::default().with_jitter(key).run(|| {
            if caliper_faults::trigger(sites::JOURNAL_WRITE, key, label).is_some() {
                return Err(injected_error(sites::JOURNAL_WRITE));
            }
            file.write_all(buffer)
        });
        self.counters.retries += u64::from(retries);
        result?;
        buffer.clear();
        self.counters.durable += self.pending;
        self.pending = 0;
        self.counters.flushes += 1;
        if self.policy.fsync {
            let (result, retries) = RetryPolicy::default().with_jitter(key).run(|| {
                if caliper_faults::trigger(sites::JOURNAL_FSYNC, key, label).is_some() {
                    return Err(injected_error(sites::JOURNAL_FSYNC));
                }
                file.sync_data()
            });
            self.counters.retries += u64::from(retries);
            result?;
            self.counters.syncs += 1;
        }
        Ok(())
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // Best-effort final drain; errors cannot be reported from drop.
        let _ = self.flush();
    }
}

/// What a journal recovery salvaged — and what it could not.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The underlying lenient read's accounting (skips, truncation,
    /// error messages).
    pub read: ReadReport,
    /// Snapshot records salvaged after deduplication.
    pub salvaged: u64,
    /// Globals (dataset metadata) records salvaged.
    pub globals: u64,
    /// Duplicate tail records dropped (same [`SEQ_ATTR`] value seen
    /// twice — a double-written tail after a resumed append).
    pub duplicates: u64,
    /// Snapshots without a [`SEQ_ATTR`] entry (kept, but they cannot be
    /// deduplicated or gap-checked).
    pub unsequenced: u64,
    /// Highest sequence number observed, if any.
    pub max_seq: Option<u64>,
    /// Sequence numbers in `0..=max_seq` with no surviving record —
    /// records lost to mid-stream corruption (a pure tail truncation
    /// leaves no gaps).
    pub missing: u64,
}

impl RecoveryReport {
    /// True when the journal was not recovered in full: lines were
    /// skipped, the stream was truncated, or the sequence has gaps.
    pub fn data_lost(&self) -> bool {
        self.read.skipped > 0 || self.read.truncated || self.missing > 0
    }

    /// One-line human-readable summary for stderr reporting.
    pub fn summary(&self) -> String {
        let name = self
            .read
            .path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "<journal>".to_string());
        let mut line = format!(
            "{name}: salvaged {} snapshots + {} globals, {} corrupt lines skipped",
            self.salvaged, self.globals, self.read.skipped
        );
        if self.duplicates > 0 {
            line.push_str(&format!(", {} duplicate tail records dropped", self.duplicates));
        }
        if self.missing > 0 {
            line.push_str(&format!(", {} lost to sequence gaps", self.missing));
        }
        if self.read.truncated {
            line.push_str(", truncated");
        }
        if let Some(first) = self.read.errors.first() {
            line.push_str(&format!("; first error: {first}"));
        }
        line
    }
}

/// Recover a journal file into a dataset of its own: lenient read, then
/// tail deduplication by [`SEQ_ATTR`] ([`recover_file_blocks`] with the
/// sink that derives records). The returned dataset holds the salvaged
/// records (sequence entries are kept, for provenance). I/O errors
/// opening the file are returned with the path attached
/// ([`CaliError::File`]); the report's read accounting also names the
/// path.
pub fn recover_file(
    path: impl AsRef<Path>,
    policy: ReadPolicy,
) -> Result<(Dataset, RecoveryReport), CaliError> {
    let mut reader = CaliReader::new();
    let report = recover_file_blocks(&mut reader, path, policy, None, &mut append_rows)?;
    Ok((reader.finish(), report))
}

/// [`recover_blocks`] over the file at `path`, errors and the report's
/// read accounting naming it.
pub fn recover_file_blocks(
    reader: &mut CaliReader,
    path: impl AsRef<Path>,
    policy: ReadPolicy,
    deadline: Option<&caliper_data::Deadline>,
    on_block: &mut BlockSink<'_>,
) -> Result<RecoveryReport, CaliError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| CaliError::from(e).with_path(path))?;
    let mut report = recover_blocks(reader, &bytes, policy, deadline, on_block)
        .map_err(|e| e.with_path(path))?;
    report.read.path = Some(path.to_path_buf());
    Ok(report)
}

/// The recovery routine: read the journal `bytes` through `reader` —
/// into its dataset, as one more stream — and hand the salvaged
/// snapshots to `on_block` as columns, a block at a time, in journal
/// order.
///
/// * The lines before the first frame are read under `policy` (lenient,
///   for a journal: a corrupt line costs that line) and `deadline`, as
///   any text stream is: out of budget, the read stops with the
///   salvaged prefix (report marked truncated, `read cancelled` note),
///   and the sequence accounting below still covers whatever was
///   decoded. A final line without a newline is a torn write and is
///   dropped before parsing, whatever the policy.
/// * Each frame after them is decoded whole and strictly, as its batch
///   was at ingest ([`CaliReader::read_batch`]), one block per frame: a
///   frame that does not decode is one record skipped under `policy`,
///   and a torn frame is dropped and the report marked truncated,
///   whatever the policy. The deadline is asked before each frame.
/// * Every row's sequence number is read from the block's [`SEQ_ATTR`]
///   column. A row whose number was seen before — a double-written tail,
///   in this block or an earlier one — is counted and taken out of the
///   block before `on_block` sees it, so what arrives is what a clean
///   journal of the same acknowledged records would have delivered.
///   Gaps in the sequence are counted as `missing`.
pub fn recover_blocks(
    reader: &mut CaliReader,
    bytes: &[u8],
    policy: ReadPolicy,
    deadline: Option<&caliper_data::Deadline>,
    on_block: &mut BlockSink<'_>,
) -> Result<RecoveryReport, CaliError> {
    let mut read = ReadReport::default();
    // The writer terminates every record with a newline, so a final
    // line without one is a torn write and can never be a complete
    // record — but it might still *parse* as a shorter record with its
    // tail entries cut off. Drop it before parsing (regardless of
    // policy: this is the expected crash signature, not corruption).
    // (A torn frame is the frames' business: lines that a frame
    // follows end in a newline.)
    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |pos| pos + 1);
    if whole < bytes.len() && frame_within(bytes, 0, whole).is_none() {
        read.skipped += 1;
        read.truncated = true;
        read.note_error("torn final line (no trailing newline) dropped");
    }
    let mut lines = UntilFrame::new(&bytes[..whole]);
    let globals_before = reader.dataset().globals.len();
    let mut sequence = Sequence::default();
    let salvage: &mut BlockSink<'_> = &mut |ds, strings, block| {
        sequence.dedup(ds, strings, block);
        if block.rows() > 0 {
            on_block(ds, strings, block);
        }
    };
    reader.begin_stream();
    reader.scan_stream(&mut lines, policy, &mut read, deadline, salvage)?;
    if let Some(first_frame) = lines.frame.filter(|_| !read.truncated) {
        let replayed = replay_frames(reader, bytes, first_frame, policy, &mut read, deadline, salvage);
        // The last frame's block has been handed on: the reader keeps
        // none of its rows (and forgets its ids, as after any stream).
        reader.begin_stream();
        replayed?;
    }
    Ok(RecoveryReport {
        globals: (reader.dataset().globals.len() - globals_before) as u64,
        read,
        salvaged: sequence.salvaged,
        duplicates: sequence.duplicates,
        unsequenced: sequence.unsequenced,
        max_seq: sequence.max,
        missing: sequence
            .max
            .map_or(0, |max| (max + 1).saturating_sub(sequence.seen.len() as u64)),
    })
}

/// A journal's lines as a stream that ends where its first frame
/// starts, found as the reader takes the lines: the line after each one
/// read is looked at, nothing is searched twice.
struct UntilFrame<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Where the first frame starts, once met.
    frame: Option<usize>,
}

impl<'a> UntilFrame<'a> {
    fn new(bytes: &'a [u8]) -> UntilFrame<'a> {
        let mut lines = UntilFrame { bytes, at: 0, frame: None };
        lines.end_at_a_frame();
        lines
    }

    /// End the stream here if a frame starts here.
    fn end_at_a_frame(&mut self) {
        if self.bytes[self.at..].starts_with(FRAME) {
            self.frame = Some(self.at);
            self.bytes = &self.bytes[..self.at];
        }
    }
}

impl io::Read for UntilFrame<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = io::BufRead::fill_buf(self)?.read(buf)?;
        io::BufRead::consume(self, n);
        Ok(n)
    }
}

impl io::BufRead for UntilFrame<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        Ok(&self.bytes[self.at..])
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        if self.bytes[..self.at].ends_with(b"\n") {
            self.end_at_a_frame();
        }
    }
}

/// Replay the frames of `bytes` from `at` — where the first starts —
/// on, each decoded as its batch was at ingest and handed to `salvage`
/// as one block, accounting into `read`. See [`recover_blocks`].
fn replay_frames(
    reader: &mut CaliReader,
    bytes: &[u8],
    mut at: usize,
    policy: ReadPolicy,
    read: &mut ReadReport,
    deadline: Option<&caliper_data::Deadline>,
    salvage: &mut BlockSink<'_>,
) -> Result<(), CaliError> {
    let mut lines = LineNumbers::default();
    let mut seq_attr = None;
    while at < bytes.len() {
        if deadline.is_some_and(caliper_data::Deadline::expired) {
            read.truncated = true;
            let line = lines.of(bytes, at);
            read.note_error(format!("read cancelled by deadline before the frame at line {line}"));
            return Ok(());
        }
        let (frame, mut next) = Frame::at(bytes, at);
        match frame {
            Frame::Whole { seq, start, payload } => {
                // Stamped as at ingest: `journal.seq`, an unsigned
                // integer, in the reader's store.
                let stamp = seq_attr.get_or_insert_with(|| {
                    let store = &reader.dataset().store;
                    let attr = store.create(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE);
                    attr.map(|attr| attr.id()).map_err(|e| e.to_string())
                });
                let decoded = match stamp {
                    Ok(stamp) => reader.read_batch(payload, *stamp, seq),
                    // Line 0 of the payload: the frame's header line.
                    Err(e) => Err(CaliError::Parse {
                        line: 0,
                        message: format!("frame not stamped: {e}"),
                    }),
                };
                match decoded {
                    Ok((ds, strings, block)) => {
                        read.records += block.rows() as u64;
                        salvage(ds, strings, block);
                    }
                    Err(e) => {
                        // A frame that does not decode is torn, not
                        // corrupt, when the next one's header line cuts
                        // it off — the next frame starts there — or when
                        // it ends the way `open_append` ends a torn line.
                        let cut = frame_within(bytes, start, next);
                        if cut.is_some() || payload.ends_with(TORN_END) {
                            let got = cut.map_or(payload.len() - TORN_END.len(), |cut| cut - start);
                            torn(read, lines.of(bytes, at), got, Some(payload.len()));
                            next = cut.unwrap_or(next);
                        } else {
                            // The payload's line numbers, as the journal's.
                            let e = match e {
                                CaliError::Parse { line, message } => CaliError::Parse {
                                    line: lines.of(bytes, start) - 1 + line,
                                    message,
                                },
                                other => other,
                            };
                            read.skip_or_fail(e, policy)?;
                        }
                    }
                }
            }
            Frame::Torn { got, want } => torn(read, lines.of(bytes, at), got, want),
            Frame::Corrupt(message) => {
                let line = lines.of(bytes, at);
                read.skip_or_fail(CaliError::Parse { line, message }, policy)?;
            }
        }
        at = next;
    }
    Ok(())
}

/// Account a torn frame: `got` of the `want` bytes its header at `line`
/// declares, or a header cut short (`want` unknown).
fn torn(read: &mut ReadReport, line: usize, got: usize, want: Option<usize>) {
    read.skipped += 1;
    read.truncated = true;
    read.note_error(match want {
        Some(want) => format!("torn frame at line {line} dropped: {got} of {want} bytes"),
        None => format!("torn frame header at line {line} dropped"),
    });
}

/// A frame as [`Frame::at`] finds it.
enum Frame<'a> {
    /// Whole, if it decodes: the batch's first sequence number and its
    /// payload, which starts at byte `start` of the journal and ends in
    /// a newline where its header says.
    Whole { seq: u64, start: usize, payload: &'a [u8] },
    /// Torn: `got` of the `want` bytes its header declares before the
    /// journal or the next frame begins, or a header line cut short
    /// (`want` unknown).
    Torn { got: usize, want: Option<usize> },
    /// Bytes after a frame that start none, or a frame whose declared
    /// bytes are there, hold no frame's header line and do not end in a
    /// newline (the length is not the one written): what is wrong.
    Corrupt(String),
}

impl Frame<'_> {
    /// The frame whose header line starts at `at` (a line start), and
    /// where the next one starts — or the journal ends.
    fn at(bytes: &[u8], at: usize) -> (Frame<'_>, usize) {
        let next_frame = |from| frame_within(bytes, from, bytes.len()).unwrap_or(bytes.len());
        if !bytes[at..].starts_with(FRAME) {
            // A header line cut before its prefix is whole, at the end
            // of the journal or ended by `open_append`, is torn too.
            let Some(end) = bytes[at..].iter().position(|&b| b == b'\n').map(|nl| at + nl + 1) else {
                return (Frame::Torn { got: 0, want: None }, bytes.len());
            };
            let cut = bytes[at..end].strip_suffix(TORN_END);
            if cut.is_some_and(|cut| FRAME.starts_with(cut)) {
                return (Frame::Torn { got: 0, want: None }, end);
            }
            return (Frame::Corrupt("bytes outside a frame".into()), next_frame(at));
        }
        let Some(start) = bytes[at..].iter().position(|&b| b == b'\n').map(|nl| at + nl + 1) else {
            return (Frame::Torn { got: 0, want: None }, bytes.len());
        };
        let Some((seq, want)) = header(&bytes[at + FRAME.len()..start - 1]) else {
            return (Frame::Torn { got: 0, want: None }, next_frame(start));
        };
        let end = start.saturating_add(want);
        if end <= bytes.len() && want > 0 && bytes[end - 1] == b'\n' {
            // Whole if it decodes: a frame that holds the next one's
            // header line does not (see `replay_frames`).
            return (Frame::Whole { seq, start, payload: &bytes[start..end] }, end);
        }
        if let Some(next) = frame_within(bytes, start, end.min(bytes.len())) {
            return (Frame::Torn { got: next - start, want: Some(want) }, next);
        }
        if end > bytes.len() {
            let got = bytes.len() - start;
            return (Frame::Torn { got, want: Some(want) }, bytes.len());
        }
        // Cut short, its gap filled by `open_append`'s line end and part
        // of that: torn, like a frame the next one cuts off.
        let line_end = bytes[end..].iter().position(|&b| b == b'\n').map(|nl| end + nl + 1);
        if let Some(line_end) = line_end.filter(|&e| want > 0 && bytes[..e].ends_with(TORN_END)) {
            let got = (line_end - TORN_END.len()).saturating_sub(start);
            return (Frame::Torn { got, want: Some(want) }, line_end);
        }
        let what = format!("a frame of {want} bytes that do not end a line");
        (Frame::Corrupt(what), next_frame(start))
    }
}

/// The `seq` and `bytes` fields of a frame's header line, the
/// [`FRAME`] prefix and the newline taken off — if they are all it has.
fn header(fields: &[u8]) -> Option<(u64, usize)> {
    let fields = std::str::from_utf8(fields).ok()?;
    let (seq, len) = fields.strip_prefix("seq=")?.split_once(",bytes=")?;
    Some((seq.parse().ok()?, len.parse().ok()?))
}

/// Where the first line of `bytes[from..to]` that opens a frame starts
/// (`from` a line start). Such a line may run on past `to`.
fn frame_within(bytes: &[u8], mut from: usize, to: usize) -> Option<usize> {
    use std::io::BufRead;
    while from < to {
        if bytes[from..].starts_with(FRAME) {
            return Some(from);
        }
        let mut rest = &bytes[from..to];
        from += rest.skip_until(b'\n').expect("a slice reads without error");
    }
    None
}

/// Line numbers of byte offsets of a journal, counted forward as a
/// replay's errors meet them (nothing is counted for a clean frame; an
/// offset behind the last one asked about counts from the start).
#[derive(Default)]
struct LineNumbers {
    offset: usize,
    newlines: usize,
}

impl LineNumbers {
    /// The 1-based number of the line byte `offset` lies in.
    fn of(&mut self, bytes: &[u8], offset: usize) -> usize {
        if offset < self.offset {
            *self = LineNumbers::default();
        }
        self.newlines += bytes[self.offset..offset].iter().filter(|&&b| b == b'\n').count();
        self.offset = offset;
        self.newlines + 1
    }
}

/// The sequence numbers a recovery has met, across its blocks.
#[derive(Default)]
struct Sequence {
    seen: FxHashSet<u64>,
    max: Option<u64>,
    salvaged: u64,
    duplicates: u64,
    unsequenced: u64,
    /// Scratch: which rows of the current block repeat a number.
    repeated: Vec<bool>,
}

impl Sequence {
    /// Account the rows of `block` and take out those whose sequence
    /// number — their last [`SEQ_ATTR`] immediate that reads as one: the
    /// writer's stamp, which follows any number a record carried of its
    /// own — has been seen before (first occurrences are kept).
    fn dedup(&mut self, ds: &Dataset, strings: &StringTable, block: &mut Block) {
        let seq_attr = ds.store.find(SEQ_ATTR).map(|attr| attr.id());
        let seq_column = block
            .columns()
            .iter()
            .position(|column| Some(column.attr) == seq_attr && !column.data.is_empty());
        let Some(seq_column) = seq_column else {
            self.unsequenced += block.rows() as u64;
            self.salvaged += block.rows() as u64;
            return;
        };
        let values = &block.columns()[seq_column].data;
        let mut next = 0;
        self.repeated.clear();
        for row in 0..block.rows() {
            let mut seq = None;
            for &column in block.row_imms(row) {
                if column as usize == seq_column {
                    seq = strings.get(values.get(next)).to_u64().or(seq);
                    next += 1;
                }
            }
            let repeated = match seq {
                Some(seq) if self.seen.insert(seq) => {
                    self.max = self.max.max(Some(seq));
                    false
                }
                Some(_) => true,
                None => {
                    self.unsequenced += 1;
                    false
                }
            };
            self.repeated.push(repeated);
        }
        let before = block.rows();
        if self.repeated.contains(&true) {
            block.retain_rows(|row| !self.repeated[row]);
        }
        self.duplicates += (before - block.rows()) as u64;
        self.salvaged += block.rows() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{Properties, Value, ValueType, NODE_NONE};

    /// A context dataset plus `n` snapshot records with stamped
    /// sequence numbers, mirroring what the runtime sink produces.
    fn journal_input(n: u64) -> (Dataset, Vec<SnapshotRecord>) {
        let ds = Dataset::new();
        let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
        let time = ds.attribute(
            "time.duration",
            ValueType::Float,
            Properties::AS_VALUE | Properties::AGGREGATABLE,
        );
        let seq = ds.attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE);
        let names = ["alpha", "beta", "gamma"];
        let records = (0..n)
            .map(|i| {
                let node = ds.tree.get_child(
                    NODE_NONE,
                    kernel.id(),
                    &Value::str(names[(i % 3) as usize]),
                );
                let mut rec = SnapshotRecord::new();
                rec.push_node(node);
                rec.push_imm(time.id(), Value::Float(i as f64));
                rec.push_imm(seq.id(), Value::UInt(i));
                rec
            })
            .collect();
        (ds, records)
    }

    fn write_journal(n: u64, policy: FlushPolicy) -> (PathBuf, Dataset) {
        let dir = std::env::temp_dir().join(format!(
            "caliper-journal-test-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("j{n}-{:?}.cali", policy.flush_interval));
        let (ds, records) = journal_input(n);
        let mut w = JournalWriter::create(&path, policy).unwrap();
        for rec in &records {
            w.append_snapshot(&ds, rec).unwrap();
        }
        w.flush().unwrap();
        (path, ds)
    }

    #[test]
    fn roundtrip_is_lossless() {
        let (path, ds) = write_journal(9, FlushPolicy::default());
        let (back, report) = recover_file(&path, ReadPolicy::lenient()).unwrap();
        assert_eq!(report.salvaged, 9);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.missing, 0);
        assert!(!report.data_lost(), "{}", report.summary());
        assert_eq!(report.max_seq, Some(8));
        let orig: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
        let read: Vec<String> = back
            .flat_records()
            .map(|r| r.describe(&back.store))
            .collect();
        // `ds` holds no records (they were journaled, not pushed), so
        // compare against a freshly rebuilt copy instead.
        assert!(orig.is_empty());
        let (mut full, records) = journal_input(9);
        for rec in records {
            full.push(rec);
        }
        let expect: Vec<String> = full
            .flat_records()
            .map(|r| r.describe(&full.store))
            .collect();
        assert_eq!(read, expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_interval_batches_writes() {
        let (ds, records) = journal_input(10);
        let dir = std::env::temp_dir().join(format!("caliper-journal-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batched.cali");
        let policy = FlushPolicy {
            flush_interval: 4,
            ..FlushPolicy::default()
        };
        let mut w = JournalWriter::create(&path, policy).unwrap();
        for (i, rec) in records.iter().enumerate() {
            w.append_snapshot(&ds, rec).unwrap();
            // After 8 records, exactly two interval flushes happened.
            if i == 7 {
                assert_eq!(w.counters().flushes, 2);
                assert_eq!(w.counters().durable, 8);
            }
        }
        assert_eq!(w.pending(), 2);
        // The unflushed tail is not yet on disk.
        let (_, mid) = recover_file(&path, ReadPolicy::lenient()).unwrap();
        assert_eq!(mid.salvaged, 8);
        drop(w); // drop drains the tail
        let (_, after) = recover_file(&path, ReadPolicy::lenient()).unwrap();
        assert_eq!(after.salvaged, 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn max_buffer_forces_flushes() {
        let (ds, records) = journal_input(6);
        let dir = std::env::temp_dir().join(format!("caliper-journal-forced-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forced.cali");
        let policy = FlushPolicy {
            flush_interval: u64::MAX,
            max_buffer: 1, // every append overflows the buffer
            fsync: true,
        };
        let mut w = JournalWriter::create(&path, policy).unwrap();
        for rec in &records {
            w.append_snapshot(&ds, rec).unwrap();
        }
        let c = w.counters();
        assert_eq!(c.forced_flushes, 6);
        assert_eq!(c.durable, 6);
        assert_eq!(c.syncs, c.flushes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let (path, _) = write_journal(5, FlushPolicy::default());
        let mut bytes = std::fs::read(&path).unwrap();
        // Simulate a crash mid-write: keep half of the final line.
        let keep = bytes.len() - 9;
        bytes.truncate(keep);
        let (_, report) = recover_rows(&bytes, ReadPolicy::lenient(), None);
        assert_eq!(report.salvaged, 4);
        assert_eq!(report.read.skipped, 1);
        assert!(report.data_lost());
        assert!(report.summary().contains("salvaged 4 snapshots"), "{}", report.summary());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_tail_is_deduplicated() {
        let (path, _) = write_journal(5, FlushPolicy::default());
        let text = std::fs::read_to_string(&path).unwrap();
        let last_ctx = text
            .lines()
            .rfind(|l| l.starts_with("__rec=ctx"))
            .unwrap()
            .to_string();
        // A resumed append re-wrote the final record.
        let doubled = format!("{text}{last_ctx}\n");
        let (ds, report) = recover_rows(doubled.as_bytes(), ReadPolicy::lenient(), None);
        assert_eq!(report.salvaged, 5);
        assert_eq!(report.duplicates, 1);
        assert_eq!(ds.records.len(), 5);
        assert!(!report.data_lost());
        assert!(report.summary().contains("duplicate tail"), "{}", report.summary());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_gaps_are_counted_as_lost() {
        let (path, _) = write_journal(6, FlushPolicy::default());
        let text = std::fs::read_to_string(&path).unwrap();
        // Corrupt a mid-stream ctx record (not the tail): the sequence
        // skips one number.
        let mut ctx_seen = 0;
        let damaged: String = text
            .lines()
            .map(|l| {
                if l.starts_with("__rec=ctx") {
                    ctx_seen += 1;
                    if ctx_seen == 3 {
                        return "__rec=ctx,ref=9999\n".to_string();
                    }
                }
                format!("{l}\n")
            })
            .collect();
        let (_, report) = recover_rows(damaged.as_bytes(), ReadPolicy::lenient(), None);
        assert_eq!(report.salvaged, 5);
        assert_eq!(report.missing, 1);
        assert!(report.data_lost());
        assert!(report.summary().contains("lost to sequence gaps"), "{}", report.summary());
        std::fs::remove_file(&path).ok();
    }

    /// The routine with the sink that derives records: [`recover_file`]
    /// over bytes, and under a deadline.
    fn recover_rows(
        bytes: &[u8],
        policy: ReadPolicy,
        deadline: Option<&caliper_data::Deadline>,
    ) -> (Dataset, RecoveryReport) {
        let mut reader = CaliReader::new();
        let sink = &mut append_rows;
        let report = recover_blocks(&mut reader, bytes, policy, deadline, sink).unwrap();
        (reader.finish(), report)
    }

    /// The recovery this module had before it read blocks, kept as the
    /// oracle: every line into records first, then one pass over the
    /// records that drops repeated sequence numbers (a record's last
    /// `journal.seq`, the stamp).
    fn row_recovery(
        bytes: &[u8],
        deadline: Option<&caliper_data::Deadline>,
    ) -> (Dataset, RecoveryReport) {
        let mut read = ReadReport::default();
        let body = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(pos) if pos + 1 == bytes.len() => bytes,
            Some(pos) => {
                read.skipped += 1;
                read.truncated = true;
                read.note_error("torn final line (no trailing newline) dropped");
                &bytes[..pos + 1]
            }
            None => {
                if !bytes.is_empty() {
                    read.skipped += 1;
                    read.truncated = true;
                    read.note_error("torn final line (no trailing newline) dropped");
                }
                &bytes[..0]
            }
        };
        let mut reader = CaliReader::new();
        reader
            .scan_stream(body, ReadPolicy::lenient(), &mut read, deadline, &mut append_rows)
            .unwrap();
        let mut ds = reader.finish();
        let seq_attr = ds.store.find(SEQ_ATTR).map(|a| a.id());
        let mut report = RecoveryReport {
            globals: ds.globals.len() as u64,
            read,
            ..RecoveryReport::default()
        };
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut kept = Vec::new();
        for rec in std::mem::take(&mut ds.records) {
            let seq = seq_attr.and_then(|id| {
                let mut numbers = rec.entries().iter().filter_map(|e| match e {
                    caliper_data::Entry::Imm(attr, value) if *attr == id => value.to_u64(),
                    _ => None,
                });
                numbers.next_back()
            });
            match seq {
                Some(s) if seen.insert(s) => {
                    report.max_seq = Some(report.max_seq.map_or(s, |m: u64| m.max(s)));
                    kept.push(rec);
                }
                Some(_) => report.duplicates += 1,
                None => {
                    report.unsequenced += 1;
                    kept.push(rec);
                }
            }
        }
        report.salvaged = kept.len() as u64;
        report.missing = report
            .max_seq
            .map_or(0, |m| (m + 1).saturating_sub(seen.len() as u64));
        ds.records = kept;
        (ds, report)
    }

    /// Recover `bytes` both ways; reports and records must agree, and the
    /// block sink must have seen exactly the salvaged rows.
    fn assert_recovers_like_rows(bytes: &[u8], deadline: Option<&caliper_data::Deadline>) -> RecoveryReport {
        let (want_ds, want) = row_recovery(bytes, deadline);
        let (ds, report) = recover_rows(bytes, ReadPolicy::lenient(), deadline);
        assert_eq!(format!("{report:?}"), format!("{want:?}"));
        let describe = |ds: &Dataset| -> Vec<String> {
            ds.flat_records().map(|r| r.describe(&ds.store)).collect()
        };
        assert_eq!(describe(&ds), describe(&want_ds));

        let mut reader = CaliReader::new();
        let (mut rows, mut blocks) = (0, 0);
        let blocks_report = recover_blocks(
            &mut reader,
            bytes,
            ReadPolicy::lenient(),
            deadline,
            &mut |_, _, block| {
                assert!(block.rows() > 0, "an emptied block is not handed on");
                rows += block.rows() as u64;
                blocks += 1;
            },
        )
        .unwrap();
        assert_eq!(format!("{blocks_report:?}"), format!("{want:?}"));
        assert_eq!(rows, want.salvaged);
        assert!(reader.dataset().records.is_empty());
        assert!(blocks <= 1 + want.read.records / 1024);
        report
    }

    /// A journal of `n` sequenced records as text, and its `ctx` lines.
    fn journal_text(n: u64) -> (String, Vec<String>) {
        let (path, _) = write_journal(n, FlushPolicy::default());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let ctx = text
            .lines()
            .filter(|l| l.starts_with("__rec=ctx"))
            .map(|l| format!("{l}\n"))
            .collect();
        (text, ctx)
    }

    #[test]
    fn block_recovery_agrees_with_the_row_dedup() {
        // Three blocks' worth, so duplicates can sit in one block or
        // straddle two.
        let (text, ctx) = journal_text(2500);
        let clean = assert_recovers_like_rows(text.as_bytes(), None);
        assert_eq!((clean.salvaged, clean.duplicates, clean.missing), (2500, 0, 0));

        // kill -9 mid-write.
        let torn = assert_recovers_like_rows(&text.as_bytes()[..text.len() - 9], None);
        assert_eq!((torn.salvaged, torn.read.skipped), (2499, 1));

        // A double-written tail: inside the last block...
        let doubled = format!("{text}{}{}", ctx[2498], ctx[2499]);
        let report = assert_recovers_like_rows(doubled.as_bytes(), None);
        assert_eq!((report.salvaged, report.duplicates), (2500, 2));
        // ...the same number twice in a row, and a span that starts in
        // the first block and is written again two blocks later...
        let across = format!("{text}{}{}{}", ctx[7], ctx[7], ctx[1000..1030].concat());
        let report = assert_recovers_like_rows(across.as_bytes(), None);
        assert_eq!((report.salvaged, report.duplicates), (2500, 32));
        // ...and a block of nothing but repeats.
        let again = format!("{text}{}", ctx[100..1400].concat());
        let report = assert_recovers_like_rows(again.as_bytes(), None);
        assert_eq!((report.salvaged, report.duplicates), (2500, 1300));

        // A corrupt line mid-file is a gap in the sequence.
        let damaged = text.replacen(ctx[1500].as_str(), "__rec=ctx,ref=9999\n", 1);
        let report = assert_recovers_like_rows(damaged.as_bytes(), None);
        assert_eq!((report.salvaged, report.missing, report.max_seq), (2499, 1, Some(2499)));

        // Records without a number, and with one that does not read as
        // one, are kept and counted.
        let odd = format!("{text}__rec=ctx,attr=1,data=1.5\n__rec=ctx,attr=1,data=2,attr=2,data=7\n");
        let report = assert_recovers_like_rows(odd.as_bytes(), None);
        assert_eq!((report.salvaged, report.unsequenced, report.duplicates), (2501, 1, 1));

        // A record that carried a number of its own ahead of the stamp
        // is known by the stamp.
        let own = format!("{text}__rec=ctx,attr=2,data=3,attr=1,data=1,attr=2,data=2600\n");
        let report = assert_recovers_like_rows(own.as_bytes(), None);
        assert_eq!((report.salvaged, report.duplicates, report.max_seq), (2501, 0, Some(2600)));

        // Out of budget before the first line, and after some.
        let expired = caliper_data::Deadline::after(std::time::Duration::ZERO);
        let report = assert_recovers_like_rows(text.as_bytes(), Some(&expired));
        assert_eq!(report.salvaged, 0);
        assert!(report.read.truncated && report.data_lost());
        assert_recovers_like_rows(b"", None);
        assert_recovers_like_rows(b"torn", None);
    }

    /// A batch as a producer sends it: `n` snapshots as a
    /// self-describing text stream, without a sequence number.
    fn payload(first: u64, n: u64) -> Vec<u8> {
        let mut ds = Dataset::new();
        let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
        let time = ds.attribute("time.duration", ValueType::Float, Properties::AS_VALUE);
        for i in first..first + n {
            let name = Value::str(["alpha", "beta", "gamma"][(i % 3) as usize]);
            let mut rec = SnapshotRecord::new();
            rec.push_node(ds.tree.get_child(NODE_NONE, kernel.id(), &name));
            rec.push_imm(time.id(), Value::Float(i as f64 * 0.5));
            ds.push(rec);
        }
        crate::cali::to_bytes(&ds)
    }

    /// The frame of a batch, as the module docs state it.
    fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut body = payload.to_vec();
        if !body.ends_with(b"\n") {
            body.push(b'\n');
        }
        [format!("__rec=batch,seq={seq},bytes={}\n", body.len()).into_bytes(), body].concat()
    }

    /// Journal `batches` (first sequence number, rows, payload) under
    /// `policy`, checking the books after each; returns the bytes.
    fn framed_journal(tag: &str, policy: FlushPolicy, batches: &[(u64, u64, Vec<u8>)]) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!("caliper-journal-frames-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.cali"));
        let mut w = JournalWriter::create(&path, policy).unwrap();
        let (mut appended, mut pending, mut buffered) = (0, 0, 0);
        let (mut flushes, mut forced) = (0, 0);
        for (seq, rows, payload) in batches {
            w.append_batch(*seq, *rows, payload).unwrap();
            // One check of the policy per frame, on the whole frame.
            appended += rows;
            pending += rows;
            buffered += frame(*seq, payload).len();
            if pending >= policy.flush_interval.max(1) || buffered >= policy.max_buffer {
                forced += u64::from(pending < policy.flush_interval.max(1));
                flushes += 1;
                (pending, buffered) = (0, 0);
            }
            let c = w.counters();
            assert_eq!((c.appended, c.durable, w.pending()), (appended, appended - pending, pending));
            assert_eq!((c.flushes, c.forced_flushes), (flushes, forced));
            assert_eq!(c.syncs, if policy.fsync { flushes } else { 0 });
        }
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// Three batches of 5, 12 and 3 snapshots; the second payload does
    /// not end in a newline.
    fn three_batches() -> Vec<(u64, u64, Vec<u8>)> {
        let mut second = payload(5, 12);
        second.pop();
        vec![(0, 5, payload(0, 5)), (5, 12, second), (17, 3, payload(17, 3))]
    }

    #[test]
    fn append_batch_journals_the_payload_as_sent() {
        let policies = [1, 7, u64::MAX].map(|flush_interval| FlushPolicy {
            flush_interval,
            ..FlushPolicy::default()
        });
        let forced = FlushPolicy {
            flush_interval: u64::MAX,
            max_buffer: 400, // more than one frame, less than two
            fsync: true,
        };
        let batches = three_batches();
        let want = [
            format!("{JOURNAL_HEADER}\n").into_bytes(),
            batches.iter().map(|(seq, _, payload)| frame(*seq, payload)).collect::<Vec<_>>().concat(),
        ]
        .concat();
        for (i, policy) in policies.into_iter().chain([forced]).enumerate() {
            let bytes = framed_journal(&format!("as-sent{i}"), policy, &batches);
            assert_eq!(bytes, want, "policy {i}");
            // Replayed as the batches decode at ingest, every row stamped.
            let (ds, report) = recover_rows(&bytes, ReadPolicy::Strict, None);
            assert!(!report.data_lost(), "{}", report.summary());
            assert_eq!((report.salvaged, report.max_seq, report.read.records), (20, Some(19), 20));
            let mut reader = CaliReader::new();
            let seq = reader.dataset().attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE).id();
            for (first, _, payload) in &batches {
                let (ds, strings, block) = reader.read_batch(payload, seq, *first).unwrap();
                block.append_records(strings, &mut ds.records);
            }
            reader.begin_stream(); // the last batch's block is not handed out again
            let expect = reader.finish();
            let describe = |ds: &Dataset| -> Vec<String> {
                ds.flat_records().map(|r| r.describe(&ds.store)).collect()
            };
            expect.flat_records().for_each(|r| assert!(r.get(seq).is_some(), "{r:?}"));
            assert_eq!(describe(&ds), describe(&expect));
        }
    }

    #[test]
    fn a_frame_replays_whole_or_not_at_all() {
        let batches = three_batches();
        let clean = framed_journal("whole", FlushPolicy::default(), &batches);
        let last = clean.len() - frame(17, &batches[2].2).len();
        // (salvaged, duplicates, missing, skipped, truncated)
        let salvage = |bytes: &[u8], policy| {
            let (_, r) = recover_rows(bytes, policy, None);
            (r.salvaged, r.duplicates, r.missing, r.read.skipped, r.read.truncated)
        };
        assert_eq!(salvage(&clean, ReadPolicy::Strict), (20, 0, 0, 0, false));

        // Cut anywhere in the last frame, its header line included: the
        // first two batches, and the third reported torn. Resumed after
        // the cut (`open_append`), the next batch takes its numbers.
        let dir = std::env::temp_dir().join(format!("caliper-journal-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.cali");
        for cut in last..clean.len() {
            let torn = &clean[..cut];
            let want = if cut == last { (17, 0, 0, 0, false) } else { (17, 0, 0, 1, true) };
            assert_eq!(salvage(torn, ReadPolicy::lenient()), want, "cut at {cut}");
            assert_eq!(salvage(torn, ReadPolicy::Strict), want, "cut at {cut}");
            std::fs::write(&path, torn).unwrap();
            let mut w = JournalWriter::open_append(&path, FlushPolicy::default()).unwrap();
            w.append_batch(17, 4, &payload(40, 4)).unwrap();
            drop(w);
            let resumed = std::fs::read(&path).unwrap();
            for policy in [ReadPolicy::lenient(), ReadPolicy::Strict] {
                let (ds, report) = recover_rows(&resumed, policy, None);
                let want = if cut == last { (21, 0, 0, 0, false) } else { (21, 0, 0, 1, true) };
                let got = (report.salvaged, report.duplicates, report.missing, report.read.skipped, report.read.truncated);
                assert_eq!(got, want, "cut at {cut}, resumed: {}", report.summary());
                assert_eq!((report.max_seq, ds.records.len()), (Some(20), 21));
            }
        }
        std::fs::remove_dir_all(&dir).ok();

        // A frame written twice (a flush retried after a write that
        // landed) is a double-written tail.
        let doubled = [clean.clone(), frame(5, &batches[1].2)].concat();
        assert_eq!(salvage(&doubled, ReadPolicy::Strict), (20, 12, 0, 0, false));

        // A line of the middle frame that does not parse, its length
        // kept: lenient drops that frame whole, strict names the line.
        let text = String::from_utf8(clean.clone()).unwrap();
        let ctx = text.lines().filter(|l| l.starts_with("__rec=ctx")).nth(7).unwrap();
        let bad = format!("__rec=ctx,ref={}", "9".repeat(ctx.len() - 14));
        let damaged = text.replacen(ctx, &bad, 1);
        assert_eq!(damaged.len(), text.len());
        assert_eq!(salvage(damaged.as_bytes(), ReadPolicy::lenient()), (8, 0, 12, 1, false));
        let line = text.lines().position(|l| l == ctx).unwrap() + 1;
        let mut reader = CaliReader::new();
        let err = recover_blocks(&mut reader, damaged.as_bytes(), ReadPolicy::Strict, None, &mut |_, _, _| {})
            .unwrap_err()
            .to_string();
        assert!(err.contains(&format!("line {line}:")), "{err}");

        // A header whose length ends inside a line, and bytes after a
        // frame that open none, cost what they spoil.
        let first = frame(0, &batches[0].2);
        let short = text.replacen(
            &format!("bytes={}", first.len() - first.iter().position(|&b| b == b'\n').unwrap() - 1),
            "bytes=30",
            1,
        );
        assert_eq!(salvage(short.as_bytes(), ReadPolicy::lenient()), (15, 0, 5, 1, false));
        assert!(recover_blocks(&mut CaliReader::new(), short.as_bytes(), ReadPolicy::Strict, None, &mut |_, _, _| {}).is_err());
        let stray = [&clean[..last], b"__rec=ctx,ref=0\n", &clean[last..]].concat();
        assert_eq!(salvage(&stray, ReadPolicy::lenient()), (20, 0, 0, 1, false));

        // A frame whose length runs into the next frame ends there, torn.
        let long = text.replacen("bytes=", "bytes=9", 1);
        assert_eq!(salvage(long.as_bytes(), ReadPolicy::Strict), (15, 0, 5, 1, true));

        // Out of budget: nothing, and said so.
        let expired = caliper_data::Deadline::after(std::time::Duration::ZERO);
        let (_, report) = recover_rows(&clean, ReadPolicy::lenient(), Some(&expired));
        assert!(report.read.truncated && report.salvaged == 0, "{}", report.summary());

        // Lines that declared `journal.seq` of another type leave no
        // column to stamp a frame's rows in: the frame is skipped, at its
        // header line.
        let odd = [b"__rec=attr,id=0,name=journal.seq,type=string,prop=default\n".to_vec(), frame(0, &batches[0].2)]
            .concat();
        let (_, report) = recover_rows(&odd, ReadPolicy::lenient(), None);
        assert_eq!((report.salvaged, report.read.skipped), (0, 1));
        assert!(report.read.errors[0].contains("line 2: frame not stamped"), "{:?}", report.read.errors);
    }

    #[test]
    fn lines_then_frames_replay_as_one_sequence() {
        // A journal of lines — the runtime's, or a daemon's from before
        // it journaled frames — resumed with frames.
        let (path, _) = write_journal(7, FlushPolicy::default());
        let mut w = JournalWriter::open_append(&path, FlushPolicy::default()).unwrap();
        w.append_batch(7, 3, &payload(7, 3)).unwrap();
        w.append_batch(10, 2, &payload(10, 2)).unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let (ds, report) = recover_rows(&bytes, ReadPolicy::Strict, None);
        assert!(!report.data_lost(), "{}", report.summary());
        assert_eq!((report.salvaged, report.max_seq, report.unsequenced), (12, Some(11), 0));
        let seq = ds.store.find(SEQ_ATTR).unwrap().id();
        let seqs: Vec<u64> = ds.flat_records().map(|r| r.get(seq).unwrap().to_u64().unwrap()).collect();
        assert_eq!(seqs, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn open_append_terminates_a_torn_line() {
        let dir = std::env::temp_dir().join(format!("caliper-journal-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resumed.cali");
        let (ds, records) = journal_input(4);
        {
            let mut w = JournalWriter::create(&path, FlushPolicy::default()).unwrap();
            for rec in &records[..2] {
                w.append_snapshot(&ds, rec).unwrap();
            }
        }
        // Tear the final line (no trailing newline).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();
        // Resume: the torn fragment must not swallow the first resumed
        // record. The resumed writer re-declares all metadata.
        {
            let mut w = JournalWriter::open_append(&path, FlushPolicy::default()).unwrap();
            for rec in &records[2..] {
                w.append_snapshot(&ds, rec).unwrap();
            }
        }
        let (back, report) = recover_file(&path, ReadPolicy::lenient()).unwrap();
        assert_eq!(report.salvaged, 3); // seq 0 survives, 1 torn, 2 and 3 resumed
        assert_eq!(report.read.skipped, 1);
        assert_eq!(report.missing, 1);
        assert_eq!(back.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_creates_missing_files() {
        let dir = std::env::temp_dir().join(format!("caliper-journal-create-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.cali");
        std::fs::remove_file(&path).ok();
        let (ds, records) = journal_input(2);
        let mut w = JournalWriter::open_append(&path, FlushPolicy::default()).unwrap();
        for rec in &records {
            w.append_snapshot(&ds, rec).unwrap();
        }
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(JOURNAL_HEADER));
        let (_, report) = recover_file(&path, ReadPolicy::lenient()).unwrap();
        assert_eq!(report.salvaged, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn globals_are_journaled_and_counted() {
        let dir = std::env::temp_dir().join(format!("caliper-journal-globals-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("globals.cali");
        let mut ds = Dataset::new();
        ds.set_global("mpi.rank", 3i64);
        let mut w = JournalWriter::create(&path, FlushPolicy::default()).unwrap();
        let globals = ds.globals.clone();
        for g in &globals {
            w.append_globals(&ds, g).unwrap();
        }
        drop(w);
        let (back, report) = recover_file(&path, ReadPolicy::lenient()).unwrap();
        assert_eq!(report.globals, 1);
        assert_eq!(back.global("mpi.rank"), Some(Value::Int(3)));
        std::fs::remove_file(&path).ok();
    }
}
