//! Write-ahead snapshot journaling: append-only `.cali` journals and
//! the recovery path that salvages them after a crash.
//!
//! The runtime's on-line aggregation (paper §IV) lives *inside* the
//! measured application, so an OOM kill or `kill -9` loses everything
//! buffered since startup. A journal closes that gap on the writer
//! side, pairing with the lenient readers in [`crate::policy`]:
//!
//! * [`JournalWriter`] appends snapshots to an append-only text `.cali`
//!   stream, one line per record, with attribute and context-tree
//!   metadata emitted in dependency order *before* first use (the
//!   [`crate::cali::CaliWriter`] invariant). A crash therefore tears at
//!   most the final line; every complete line is independently
//!   decodable.
//! * Records are buffered in memory and drained to the file by a
//!   [`FlushPolicy`]: every `flush_interval` records, whenever the
//!   buffer exceeds `max_buffer` bytes (a forced flush, counted for
//!   backpressure accounting), and optionally `fsync`ed for durability
//!   across OS crashes rather than just process crashes.
//! * [`recover_blocks`] reads a (possibly torn) journal under
//!   [`ReadPolicy::Lenient`], deduplicates a double-written tail using
//!   the monotonic [`SEQ_ATTR`] sequence attribute and reports exactly
//!   what was salvaged and what was lost in a [`RecoveryReport`].
//!
//! Both directions work on [`Block`]s as well as on records, through
//! the same code. [`JournalWriter::append_block`] journals the rows of a
//! decoded block — the bytes and the flush-policy bookkeeping of one
//! [`append_snapshot`](JournalWriter::append_snapshot) per row, without
//! the records. And there is one recovery routine, in two forms
//! ([`recover_blocks`] over bytes, [`recover_file_blocks`] over a path):
//! it hands the journal's snapshots to a [`BlockSink`] as typed columns,
//! sequence numbers read from the [`SEQ_ATTR`] column and duplicate rows
//! already taken out. [`recover_file`], the one row view, is that
//! routine with the sink that derives records from blocks.
//!
//! Crash-consistency contract: for a journal written with
//! `flush_interval = k`, a process death at any instant loses at most
//! the last `k - 1` appended records plus the one torn line; every
//! record flushed before the death is recovered verbatim.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use caliper_data::{FlatRecord, FxHashSet, SnapshotRecord};

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

/// Appends snapshots to an append-only `.cali` journal file.
///
/// Complete records are buffered in memory (so a crash never tears the
/// file mid-line on our account — only the OS can tear the final line
/// of a flush) and drained according to the [`FlushPolicy`].
pub struct JournalWriter {
    /// Encodes records into the in-memory line buffer (its sink).
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
                // all metadata before referencing it.)
                file.write_all(b",attr=torn\n")?;
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
        self.drain.after_append(self.writer.sink_mut())
    }

    /// Append every row of a decoded block: the bytes, the flushes and
    /// the counters of one [`append_snapshot`](Self::append_snapshot)
    /// per record [`Block::append_records`] would derive, without
    /// deriving them. `strings` is the table the block's string codes
    /// refer to.
    pub fn append_block(
        &mut self,
        ds: &Dataset,
        strings: &StringTable,
        block: &Block,
    ) -> io::Result<()> {
        let drain = &mut self.drain;
        self.writer
            .write_rows(ds, strings, block, |buffer| drain.after_append(buffer))
    }

    /// Append one globals (dataset metadata) record.
    pub fn append_globals(&mut self, ds: &Dataset, record: &FlatRecord) -> io::Result<()> {
        self.writer.write_globals(ds, record)?;
        self.drain.after_append(self.writer.sink_mut())
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
    /// Account one record appended to `buffer`, and drain it when the
    /// policy says so.
    fn after_append(&mut self, buffer: &mut Vec<u8>) -> io::Result<()> {
        self.counters.appended += 1;
        self.pending += 1;
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
/// * A final line without a newline is a torn write and is dropped
///   before parsing, whatever the policy.
/// * The rest is read under `policy` (lenient, for a journal: a corrupt
///   line costs that line) and `deadline`, as any text stream is: out of
///   budget, the read stops with the salvaged prefix (report marked
///   truncated, `read cancelled` note), and the sequence accounting
///   below still covers whatever was decoded.
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
    let body = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(pos) if pos + 1 == bytes.len() => bytes,
        torn => {
            if !bytes.is_empty() {
                read.skipped += 1;
                read.truncated = true;
                read.note_error("torn final line (no trailing newline) dropped");
            }
            &bytes[..torn.map_or(0, |pos| pos + 1)]
        }
    };
    let globals_before = reader.dataset().globals.len();
    let mut sequence = Sequence::default();
    reader.begin_stream();
    reader.scan_stream(body, policy, &mut read, deadline, &mut |ds, strings, block| {
        sequence.dedup(ds, strings, block);
        if block.rows() > 0 {
            on_block(ds, strings, block);
        }
    })?;
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
    /// number — their first [`SEQ_ATTR`] immediate that reads as one —
    /// has been seen before (first occurrences are kept).
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
                    seq = seq.or_else(|| strings.get(values.get(next)).to_u64());
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
    /// records that drops repeated sequence numbers.
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
                rec.entries().iter().find_map(|e| match e {
                    caliper_data::Entry::Imm(attr, value) if *attr == id => value.to_u64(),
                    _ => None,
                })
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

        // Out of budget before the first line, and after some.
        let expired = caliper_data::Deadline::after(std::time::Duration::ZERO);
        let report = assert_recovers_like_rows(text.as_bytes(), Some(&expired));
        assert_eq!(report.salvaged, 0);
        assert!(report.read.truncated && report.data_lost());
        assert_recovers_like_rows(b"", None);
        assert_recovers_like_rows(b"torn", None);
    }

    #[test]
    fn append_block_keeps_the_books_of_append_snapshot() {
        let (text, _) = journal_text(300);
        let dir = std::env::temp_dir().join(format!("caliper-journal-block-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let policies = [1, 7, u64::MAX].map(|flush_interval| FlushPolicy {
            flush_interval,
            ..FlushPolicy::default()
        });
        let forced = FlushPolicy {
            flush_interval: u64::MAX,
            max_buffer: 400, // a few lines: dozens of forced flushes inside the block
            fsync: true,
        };
        for (i, policy) in policies.into_iter().chain([forced]).enumerate() {
            let (by_block, by_row) = (dir.join(format!("block{i}.cali")), dir.join(format!("row{i}.cali")));
            let mut blocks = JournalWriter::create(&by_block, policy).unwrap();
            let mut rows = JournalWriter::create(&by_row, policy).unwrap();
            let mut reader = CaliReader::new();
            let mut report = ReadReport::default();
            let sink: &mut BlockSink<'_> = &mut |ds, strings, block| {
                blocks.append_block(ds, strings, block).unwrap();
                let mut records = Vec::new();
                block.append_records(strings, &mut records);
                for record in &records {
                    rows.append_snapshot(ds, record).unwrap();
                }
                assert_eq!(blocks.counters(), rows.counters());
                assert_eq!(blocks.pending(), rows.pending());
            };
            reader
                .scan_stream(text.as_bytes(), ReadPolicy::Strict, &mut report, None, sink)
                .unwrap();
            let counters = blocks.counters();
            assert_eq!(counters.appended, 300);
            if i == 3 {
                assert!(counters.forced_flushes > 10, "{counters:?}");
                assert_eq!(counters.syncs, counters.flushes);
            }
            drop((blocks, rows));
            let written = std::fs::read(&by_block).unwrap();
            assert_eq!(written, std::fs::read(&by_row).unwrap());
            assert_eq!(recover_rows(&written, ReadPolicy::Strict, None).1.salvaged, 300);
        }
        std::fs::remove_dir_all(&dir).ok();
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
