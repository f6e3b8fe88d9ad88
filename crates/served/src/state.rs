//! Per-stream resident state: warm aggregate + write-ahead journal +
//! circuit breaker.
//!
//! Each ingest stream owns a resident [`CaliReader`] (the stream's
//! dictionary — attribute store and context tree, grown as batches
//! arrive — its string table and its decode buffers), a warm
//! [`Aggregator`], which owns the fold that feeds it
//! ([`Aggregator::fold_block`]), and a [`JournalWriter`]. A batch is
//! decoded once, into one [`Block`] of typed columns, and never becomes
//! records:
//!
//! 1. **decode** the payload whole, strictly, every row stamped with its
//!    `journal.seq` ([`CaliReader::read_batch`]) — a bad line at any
//!    ordinal, or no row at all, rejects the batch and leaves journal
//!    bytes, the warm aggregate and the sequence counter untouched;
//! 2. **frame** the payload as it was received, behind one header line
//!    naming its first sequence number and its length
//!    ([`JournalWriter::append_batch`]): nothing is encoded again;
//! 3. **flush** (+ fsync per policy);
//! 4. **fold** the block into the warm aggregate;
//! 5. **ack**.
//!
//! The order carries two invariants. *Every ack is durable:* the ack is
//! built after the flush returns, so a `kill -9` at any instant can lose
//! only batches that were never acknowledged, and clients that retry
//! un-acked batches observe zero accepted-batch loss. *Everything a
//! query serves is durable:* nothing is folded that was not flushed, so
//! a batch whose journal append or flush fails contributes nothing to
//! the warm aggregate — the stream degrades, and its answers stay those
//! of its journal.
//!
//! On restart, [`StreamState::open`] replays the stream's journal with
//! [`recover_file_blocks`] (lenient, torn frames expected,
//! sequence-deduplicated) through the same resident reader: each frame
//! is decoded as its batch was at ingest and folded by the same
//! aggregator, the string table bounded between frames as between
//! batches — ingest without the journal. Post-recovery query results
//! are therefore byte-identical to an uninterrupted run over the same
//! accepted batches. (A journal written before the daemon journaled
//! frames, one line per record, replays too, and takes frames after
//! it.)
//!
//! A query reads a stream the way a batch arrives: as one block
//! ([`WarmQuery`]). The warm aggregate flushes its groups as typed
//! columns, and the query's pipeline folds them with its own fold
//! ([`Pipeline::fold_block`]).
//!
//! A resident stream's memory is bounded by its dictionary and its
//! groups. Records leave with the batch, and globals — which the
//! reader hands over with each batch, and which the journal keeps as
//! they were sent — are dropped after each batch and once after the
//! replay. The string table — which a string attribute with ever-new
//! values would otherwise grow for as long as the daemon runs — is
//! started over, a new table, once it holds more than
//! `MAX_STREAM_STRINGS` (65 536) strings: before a batch is decoded,
//! so a rejected batch cannot grow it past that, and the fold, which
//! knows the table by its id, starts its caches over with it.
//!
//! A stream whose batches keep failing (parse errors, journal I/O
//! errors) trips a circuit breaker after
//! [`max_stream_failures`](crate::ServedConfig::max_stream_failures)
//! *consecutive* failures: further batches are refused with `DEGRADED`
//! while queries keep serving the warm state — graceful degradation,
//! not collapse.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use caliper_data::{AttrId, Deadline, Properties, ValueType};
use caliper_format::journal::{recover_file_blocks, RecoveryReport};
use caliper_format::{
    Block, CaliReader, Cell, Dataset, FlushPolicy, JournalWriter, ReadPolicy, StringTable, SEQ_ATTR,
};
use caliper_query::{
    AggregationSpec, Aggregator, ParseError, Pipeline, QueryResult, MAX_STREAM_STRINGS,
};

use crate::config::ServedConfig;

/// Acknowledgement data for one accepted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// Sequence number of the batch's last record (`journal.seq`).
    pub last_seq: u64,
    /// Records the batch contributed.
    pub records: u64,
}

/// One ingest stream's resident state. See the module docs.
pub struct StreamState {
    name: String,
    reader: CaliReader,
    aggregator: Aggregator,
    journal: JournalWriter,
    seq_attr: AttrId,
    next_seq: u64,
    consecutive_failures: u32,
    max_stream_failures: u32,
    degraded: bool,
    accepted_batches: u64,
    accepted_records: u64,
    /// Replay outcome when the stream was resumed from a journal.
    pub recovery: Option<RecoveryReport>,
}

/// Stream names become journal file names, so they are restricted to a
/// path-safe alphabet: ASCII alphanumerics plus `_`, `-`, `.` (no
/// leading `.`), at most 128 bytes.
pub fn valid_stream_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

/// The journal path for a stream under `data_dir`.
pub fn journal_path(data_dir: &Path, stream: &str) -> PathBuf {
    data_dir.join(format!("{stream}.journal.cali"))
}

/// The stream name a journal file under `data_dir` belongs to, if its
/// name has the `<stream>.journal.cali` shape.
pub fn stream_of_journal(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let stream = name.strip_suffix(".journal.cali")?;
    valid_stream_name(stream).then(|| stream.to_string())
}

impl StreamState {
    /// Open a stream: replay its journal if one exists (resuming the
    /// sequence counter past the salvaged maximum), then append to it.
    /// `replay_deadline` bounds the replay — an over-budget replay
    /// keeps the salvaged prefix and the report says so.
    pub fn open(
        name: &str,
        cfg: &ServedConfig,
        spec: &AggregationSpec,
    ) -> Result<StreamState, String> {
        let path = journal_path(&cfg.data_dir, name);
        let policy = FlushPolicy {
            flush_interval: u64::MAX, // the batch path flushes explicitly
            max_buffer: 8 << 20,
            fsync: cfg.fsync,
        };
        let mut reader = CaliReader::new();
        let store = std::sync::Arc::clone(&reader.dataset().store);
        let mut aggregator = Aggregator::new(spec.clone(), store);
        aggregator.set_max_groups(cfg.max_groups);

        // Replay: the salvaged blocks are folded as live batches are,
        // and the string table bounded between them as between batches.
        let recovery = if path.exists() {
            let deadline = Deadline::after(cfg.replay_deadline);
            let report = recover_file_blocks(
                &mut reader,
                &path,
                ReadPolicy::lenient(),
                Some(&deadline),
                &mut |ds, strings, block| {
                    aggregator.fold_block(&ds.tree, strings, block);
                    if strings.len() > MAX_STREAM_STRINGS {
                        *strings = StringTable::default();
                    }
                },
            )
            .map_err(|e| format!("replaying journal {}: {e}", path.display()))?;
            reader.clear_globals();
            Some(report)
        } else {
            None
        };
        let journal = if recovery.is_some() {
            JournalWriter::open_append(&path, policy)
        } else {
            std::fs::create_dir_all(&cfg.data_dir)
                .map_err(|e| format!("creating data dir: {e}"))?;
            JournalWriter::create(&path, policy)
        }
        .map_err(|e| format!("opening journal {}: {e}", path.display()))?;

        let seq_attr = reader
            .dataset()
            .attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE)
            .id();
        Ok(StreamState {
            name: name.to_string(),
            next_seq: recovery
                .as_ref()
                .and_then(|report| report.max_seq)
                .map_or(0, |max| max + 1),
            seq_attr,
            aggregator,
            journal,
            reader,
            consecutive_failures: 0,
            max_stream_failures: cfg.max_stream_failures,
            degraded: false,
            accepted_batches: 0,
            accepted_records: recovery.as_ref().map_or(0, |report| report.salvaged),
            recovery,
        })
    }

    /// The stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True once the circuit breaker tripped: ingest refused, queries
    /// still served from the warm state.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Batches accepted (journaled + acknowledged) since this process
    /// opened the stream.
    pub fn accepted_batches(&self) -> u64 {
        self.accepted_batches
    }

    /// Records accepted, including journal-replayed ones.
    pub fn accepted_records(&self) -> u64 {
        self.accepted_records
    }

    /// Distinct groups in the warm aggregate.
    pub fn groups(&self) -> usize {
        self.aggregator.len()
    }

    /// Process one ingest batch: decode (strict — a batch is accepted
    /// whole or not at all) with `journal.seq` stamped on every row,
    /// journal + flush (+fsync per policy), then fold into the warm
    /// aggregate. Only after the flush returns is anything folded or
    /// the ack constructed: see the module docs for why that ordering
    /// is the durability contract.
    ///
    /// A failure leaves the warm aggregate and the sequence counter as
    /// they were; the consecutive-failure counter advances, and crossing
    /// `max_stream_failures` trips the breaker.
    pub fn process_batch(&mut self, payload: &[u8]) -> Result<BatchAck, String> {
        if self.degraded {
            return Err(format!(
                "stream '{}' degraded (circuit breaker open)",
                self.name
            ));
        }
        match self.try_process(payload) {
            Ok(ack) => {
                self.consecutive_failures = 0;
                self.accepted_batches += 1;
                self.accepted_records += ack.records;
                Ok(ack)
            }
            Err(e) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.max_stream_failures {
                    self.degraded = true;
                }
                Err(e)
            }
        }
    }

    fn try_process(&mut self, payload: &[u8]) -> Result<BatchAck, String> {
        if self.reader.strings().len() > MAX_STREAM_STRINGS {
            self.reader.reset_strings();
        }

        // Decode the whole batch before anything is journaled or
        // folded. Strict: a bad line rejects the batch. The stream keeps
        // the batch's dictionary and nothing else.
        let (ds, strings, block) = self
            .reader
            .read_batch(payload, self.seq_attr, self.next_seq)
            .map_err(|e| format!("batch rejected: {e}"))?;
        ds.globals.clear();
        if block.rows() == 0 {
            return Err("batch rejected: no records".to_string());
        }
        let records = block.rows() as u64;

        // Journal the payload as it came and flush, and only then fold:
        // a batch the journal did not take is not served either. The
        // journal may hold the batch all the same (written, and then
        // its fsync failed), which is why the stream stops taking
        // batches — a restart replays whatever got there.
        let journaled = match self.journal.append_batch(self.next_seq, records, payload) {
            Ok(()) => self.journal.flush().map_err(|e| format!("journal flush: {e}")),
            Err(e) => Err(format!("journal append: {e}")),
        };
        if let Err(e) = journaled {
            self.degraded = true;
            return Err(format!(
                "{e} (stream '{}' degraded: batch not applied)",
                self.name
            ));
        }
        self.aggregator.fold_block(&ds.tree, strings, block);
        self.next_seq += records;
        Ok(BatchAck {
            last_seq: self.next_seq - 1,
            records,
        })
    }

    /// Final drain: flush (+fsync) the journal. Called on graceful
    /// shutdown after the queue is empty.
    pub fn finalize(&mut self) -> Result<(), String> {
        self.journal
            .flush()
            .map_err(|e| format!("final flush of stream '{}': {e}", self.name))
    }
}

/// One query over warm streams — the query plane. Each stream's warm
/// aggregate is flushed as one block of typed columns, a row per group
/// ([`Aggregator::flush_into`]), every row ending in `stream=<name>` the
/// way a batch's rows end in their `journal.seq`, and the block is
/// folded into the query's pipeline ([`Pipeline::fold_block`]): no row
/// is built unless a pass-through query keeps it. The streams' result
/// attributes share one store, in which `stream` is the first, and
/// their strings one table.
pub struct WarmQuery {
    pipeline: Pipeline,
    /// The pipeline's store, and an empty context tree: a flushed block
    /// refers to no node and carries no row record.
    ds: Dataset,
    strings: StringTable,
    stream_attr: AttrId,
}

impl WarmQuery {
    /// Parse `q` for a query over warm streams.
    pub fn new(q: &str) -> Result<WarmQuery, ParseError> {
        let ds = Dataset::new();
        let stream_attr = ds
            .store
            .create("stream", ValueType::Str, Properties::DEFAULT)
            .expect("a fresh store takes any label")
            .id();
        let pipeline = Pipeline::from_text(q, Arc::clone(&ds.store))?;
        Ok(WarmQuery {
            pipeline,
            ds,
            strings: StringTable::default(),
            stream_attr,
        })
    }

    /// `stream`'s warm aggregate as a block for [`fold`](Self::fold).
    /// Non-destructive (a flush borrows) and deterministic (rows in key
    /// order), so identical warm state flushes identical blocks — and
    /// the only part of a query that needs the stream.
    pub fn block_of(&mut self, stream: &StreamState) -> Block {
        let mut block = Block::default();
        let name = Cell::Str(self.strings.intern(&stream.name));
        let stamp = Some((self.stream_attr, name));
        stream
            .aggregator
            .flush_into(&self.ds.store, &mut block, &mut self.strings, stamp);
        block
    }

    /// Fold a block [`block_of`](Self::block_of) made into the answer.
    pub fn fold(&mut self, block: &Block) {
        self.pipeline.fold_block(&mut self.ds, &mut self.strings, block);
    }

    /// The answer over the streams folded.
    pub fn finish(self) -> QueryResult {
        self.pipeline.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{RecordBuilder, SnapshotRecord, Value, NODE_NONE};
    use caliper_format::Dataset;
    use caliper_query::parse_query;
    use proptest::prelude::*;

    fn test_cfg(dir: &Path) -> ServedConfig {
        ServedConfig {
            data_dir: dir.to_path_buf(),
            ..ServedConfig::default()
        }
    }

    fn spec() -> AggregationSpec {
        AggregationSpec::from_query(
            &parse_query("AGGREGATE count,sum(t) GROUP BY kernel").unwrap(),
        )
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

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cali-served-state-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn render(state: &StreamState) -> String {
        answer(
            state,
            "SELECT kernel, count, sum#t, stream ORDER BY kernel FORMAT csv",
        )
        .1
    }

    /// `query` over the stream as the query plane answers it: the
    /// result's records, described, and the answer rendered.
    fn answer(state: &StreamState, query: &str) -> (Vec<String>, String) {
        let mut warm = WarmQuery::new(query).unwrap();
        let block = warm.block_of(state);
        warm.fold(&block);
        described(warm.finish())
    }

    fn described(result: QueryResult) -> (Vec<String>, String) {
        let records = result
            .records
            .iter()
            .map(|r| r.describe(&result.store))
            .collect();
        (records, result.render())
    }

    /// The stream as it was while it handled records, kept as the
    /// oracle: a batch's rows derived from the decoded block
    /// (`Block::append_records`, behind `read_stream`), each stamped,
    /// unpacked and `add`ed one by one; replay by the row recovery; a
    /// query over the flushed rows, each tagged with the stream, fed to
    /// `Pipeline::process` one by one. Its journal is written by hand,
    /// as the journal module states it: the header, then for each
    /// accepted batch the line `__rec=batch,seq=<first seq>,bytes=<L>`
    /// and the payload as sent (`\n`-terminated, counted in `L`); a
    /// journal that ends torn is resumed after `,attr=torn\n`. (No
    /// circuit breaker: the tests drive it with one that never trips.)
    struct RowStream {
        name: String,
        ds: Dataset,
        aggregator: Aggregator,
        journal: PathBuf,
        seq_attr: AttrId,
        next_seq: u64,
        recovery: Option<RecoveryReport>,
    }

    /// A batch's frame, as the journal module states it.
    fn frame(first_seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = payload.to_vec();
        if !bytes.ends_with(b"\n") {
            bytes.push(b'\n');
        }
        [format!("__rec=batch,seq={first_seq},bytes={}\n", bytes.len()).into_bytes(), bytes].concat()
    }

    /// Append `bytes` to the file at `path`.
    fn append(path: &Path, bytes: &[u8]) {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(bytes).unwrap();
    }

    impl RowStream {
        fn open(name: &str, cfg: &ServedConfig, spec: &AggregationSpec) -> RowStream {
            let path = journal_path(&cfg.data_dir, name);
            let (mut ds, recovery) = if path.exists() {
                let deadline = Deadline::after(cfg.replay_deadline);
                let mut reader = CaliReader::new();
                let report = recover_file_blocks(
                    &mut reader,
                    &path,
                    ReadPolicy::lenient(),
                    Some(&deadline),
                    &mut |ds, strings, block| block.append_records(strings, &mut ds.records),
                )
                .unwrap();
                (reader.finish(), Some(report))
            } else {
                (Dataset::new(), None)
            };
            if recovery.is_none() {
                std::fs::create_dir_all(&cfg.data_dir).unwrap();
                std::fs::write(&path, format!("{}\n", caliper_format::journal::JOURNAL_HEADER)).unwrap();
            } else if !std::fs::read(&path).unwrap().ends_with(b"\n") {
                append(&path, b",attr=torn\n");
            }
            let seq_attr = ds.attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE).id();
            let mut aggregator = Aggregator::new(spec.clone(), std::sync::Arc::clone(&ds.store));
            aggregator.set_max_groups(cfg.max_groups);
            for rec in ds.flat_records() {
                aggregator.add(&rec);
            }
            ds.records.clear();
            RowStream {
                name: name.to_string(),
                next_seq: recovery.as_ref().and_then(|r| r.max_seq).map_or(0, |m| m + 1),
                ds,
                aggregator,
                journal: path,
                seq_attr,
                recovery,
            }
        }

        fn process_batch(&mut self, payload: &[u8]) -> Result<BatchAck, String> {
            let mut reader = CaliReader::into_dataset(std::mem::take(&mut self.ds));
            let parse = reader.read_stream(payload);
            self.ds = reader.finish();
            let records = std::mem::take(&mut self.ds.records);
            self.ds.globals.clear();
            parse.map_err(|e| format!("batch rejected: {e}"))?;
            if records.is_empty() {
                return Err("batch rejected: no records".to_string());
            }
            append(&self.journal, &frame(self.next_seq, payload));
            let mut folded = 0;
            for mut stamped in records {
                stamped.push_imm(self.seq_attr, Value::UInt(self.next_seq));
                self.aggregator.add(&stamped.unpack(&self.ds.tree));
                self.next_seq += 1;
                folded += 1;
            }
            Ok(BatchAck {
                last_seq: self.next_seq - 1,
                records: folded,
            })
        }

        fn answer(&self, query: &str) -> (Vec<String>, String) {
            let out = Arc::new(caliper_data::AttributeStore::new());
            let stream = out
                .create("stream", ValueType::Str, Properties::DEFAULT)
                .unwrap();
            let rows = self.aggregator.flush(&out);
            let mut pipeline = Pipeline::from_text(query, out).unwrap();
            for mut row in rows.iter() {
                row.push(stream.id(), Value::str(self.name.as_str()));
                pipeline.process(row);
            }
            described(pipeline.finish())
        }
    }

    /// A stream and its oracle, each over its own data directory, fed
    /// the same batches and held to the same acks and answers to
    /// `queries` — and the stream's journal to the oracle's: what it was
    /// when opened, then a frame per accepted batch, its bytes the
    /// payload as sent.
    struct Pair {
        dirs: [PathBuf; 2],
        cfg: ServedConfig,
        spec: AggregationSpec,
        queries: Vec<String>,
        state: StreamState,
        oracle: RowStream,
    }

    const ALL: &str = "SELECT * FORMAT csv";

    impl Pair {
        fn open(tag: &str, cfg: ServedConfig, spec: AggregationSpec) -> Pair {
            Pair::asking(tag, cfg, spec, vec![ALL.to_string()])
        }

        /// [`open`](Self::open), asking `queries` after every step.
        fn asking(
            tag: &str,
            cfg: ServedConfig,
            spec: AggregationSpec,
            queries: Vec<String>,
        ) -> Pair {
            let dirs = [tmpdir(&format!("{tag}-blocks")), tmpdir(&format!("{tag}-rows"))];
            Pair::reopen(dirs, cfg, spec, queries)
        }

        /// Open both over whatever their directories hold.
        fn reopen(
            dirs: [PathBuf; 2],
            cfg: ServedConfig,
            spec: AggregationSpec,
            queries: Vec<String>,
        ) -> Pair {
            let [blocks, rows] = dirs.clone().map(|data_dir| ServedConfig {
                data_dir,
                max_stream_failures: u32::MAX,
                ..cfg.clone()
            });
            let pair = Pair {
                state: StreamState::open("s1", &blocks, &spec).unwrap(),
                oracle: RowStream::open("s1", &rows, &spec),
                dirs,
                cfg,
                spec,
                queries,
            };
            // Replayed alike, report for report (but for where it was).
            let pathless = |report: &Option<RecoveryReport>| {
                let mut report = report.clone();
                if let Some(report) = &mut report {
                    report.read.path = None;
                }
                format!("{report:?}")
            };
            assert_eq!(pathless(&pair.state.recovery), pathless(&pair.oracle.recovery));
            assert_eq!(pair.state.next_seq, pair.oracle.next_seq);
            pair.assert_same_answers("after open");
            pair
        }

        fn journals(&self) -> [Vec<u8>; 2] {
            self.dirs
                .clone()
                .map(|dir| std::fs::read(journal_path(&dir, "s1")).unwrap())
        }

        fn assert_same_answers(&self, when: &str) {
            for query in &self.queries {
                let blocks = answer(&self.state, query);
                assert_eq!(blocks, self.oracle.answer(query), "{when}: {query}");
            }
            assert_eq!(self.state.groups(), self.oracle.aggregator.len(), "{when}");
        }

        /// One batch through both; returns what the stream answered.
        fn process_batch(&mut self, payload: &[u8], when: &str) -> Result<BatchAck, String> {
            let ack = self.feed(payload, when);
            self.assert_journal_is_the_payloads_as_sent(when);
            ack
        }

        /// [`process_batch`](Self::process_batch) short of reading the
        /// journals back.
        fn feed(&mut self, payload: &[u8], when: &str) -> Result<BatchAck, String> {
            let ack = self.state.process_batch(payload);
            assert_eq!(ack, self.oracle.process_batch(payload), "{when}");
            self.assert_same_answers(when);
            ack
        }

        fn assert_journal_is_the_payloads_as_sent(&self, when: &str) {
            let [journal, as_sent] = self.journals();
            assert!(journal == as_sent, "the journal is not the payloads as sent {when}");
        }

        /// Drop both (the final flush) and open them again.
        fn restart(self) -> Pair {
            let Pair {
                dirs,
                cfg,
                spec,
                queries,
                ..
            } = self;
            Pair::reopen(dirs, cfg, spec, queries)
        }

        fn remove(self) {
            for dir in &self.dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// One generated row: a path into the payload's context tree (which
    /// of two nested attributes, which text), then immediates (which
    /// attribute, which text, arbitrary bits).
    type Row = (Vec<(u8, u8)>, Vec<(u8, u8, u64)>);

    /// `size` rows cycling through `templates`, as the self-describing
    /// text stream a producer sends: node declarations for nested paths,
    /// immediates of all five types (`late` only when `late` is set),
    /// sometimes the same attribute twice in a row, sometimes a
    /// `journal.seq` of the payload's own.
    fn payload(texts: &[String], templates: &[Row], size: usize, late: bool) -> Vec<u8> {
        let mut ds = Dataset::new();
        let nested = ["region", "kernel"].map(|n| ds.attribute(n, ValueType::Str, Properties::NESTED));
        let attr = |name: &str, vtype| ds.attribute(name, vtype, Properties::AS_VALUE).id();
        let (s, i, u) = (attr("s", ValueType::Str), attr("i", ValueType::Int), attr("u", ValueType::UInt));
        let (f, b) = (attr("f", ValueType::Float), attr("b", ValueType::Bool));
        let (late_attr, own_seq) = (attr("late", ValueType::Str), attr(SEQ_ATTR, ValueType::UInt));
        let text = |pick: u8| Value::str(texts[pick as usize % texts.len()].as_str());
        let mut records = Vec::new();
        for row in 0..size {
            let (path, imms) = &templates[row % templates.len()];
            let mut node = NODE_NONE;
            for (which, pick) in path {
                node = ds.tree.get_child(node, nested[*which as usize % 2].id(), &text(*pick));
            }
            let mut rec = SnapshotRecord::new();
            if node != NODE_NONE {
                rec.push_node(node);
            }
            for (which, pick, bits) in imms {
                match which % 8 {
                    0 => rec.push_imm(s, text(*pick)),
                    1 => rec.push_imm(i, Value::Int((bits % 5) as i64 - 2 + (row % 3) as i64)),
                    2 => rec.push_imm(u, Value::UInt(if bits % 7 == 0 { u64::MAX } else { bits % 4 })),
                    3 => rec.push_imm(f, Value::Float((bits % 64) as f64 / 8.0 - 2.0)),
                    4 => rec.push_imm(b, Value::Bool(bits % 2 == 0)),
                    5 if late => rec.push_imm(late_attr, text(*pick)),
                    6 => rec.push_imm(own_seq, Value::UInt(bits % 6)),
                    _ => rec.push_imm(i, Value::Int(row as i64 % 4)),
                }
            }
            records.push(rec);
        }
        ds.records = records;
        caliper_format::cali::to_bytes(&ds)
    }

    /// Text that needs every escape.
    fn arb_text() -> impl Strategy<Value = String> {
        prop::collection::vec((any::<u8>(), any::<char>()), 0..10).prop_map(|picks| {
            let pick = |(pick, c): (u8, char)| match pick % 10 {
                0 => ',',
                1 => '=',
                2 => '\\',
                3 => '\n',
                4 => '\r',
                5..=7 => (b'a' + pick % 26) as char,
                _ => c,
            };
            picks.into_iter().map(pick).collect()
        })
    }

    fn arb_row() -> impl Strategy<Value = Row> {
        (
            prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..6),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The daemon against the row path, batch by batch: journal file
        /// bytes, acks (and rejections, word for word) and the answers —
        /// the result's records and their rendering — to `SELECT *` and
        /// to a generated query, aggregating or not, with a WHERE or a
        /// `GROUP BY stream`, are the oracle's after every batch — of 0,
        /// 1, a few, 64, 1 024 or 2 500 rows, clean or with a bad line
        /// somewhere — and again after a restart replays the lot.
        #[test]
        fn a_stream_of_blocks_is_the_stream_of_rows(
            texts in prop::collection::vec(arb_text(), 1..5),
            key in 0usize..6,
            max_groups in 0usize..3,
            (asked, bound) in (0usize..6, 0u64..4),
            batches in prop::collection::vec(
                (0usize..14, prop::collection::vec(arb_row(), 1..5), any::<u16>()),
                1..5,
            ),
        ) {
            static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let key = [
                "kernel",
                "region,kernel,s",
                "i,b,journal.seq",
                "late,f",
                "s,never.sent,u",
                "journal.seq",
            ][key];
            let query = format!(
                "AGGREGATE count,sum(f),max(i),min(u),sum(journal.seq) GROUP BY {key}"
            );
            let cfg = ServedConfig {
                max_groups: [None, Some(2), Some(40)][max_groups],
                ..ServedConfig::default()
            };
            let spec = AggregationSpec::from_query(&parse_query(&query).unwrap());
            let first = key.split(',').next().unwrap();
            let asked = [
                "AGGREGATE sum(count), max(max#i), min(min#u) GROUP BY stream FORMAT csv".to_string(),
                format!("AGGREGATE count, sum(sum#f) WHERE {first} GROUP BY {first}, stream ORDER BY {first} FORMAT json"),
                format!("SELECT {first}, count, sum#f, stream WHERE count > {bound} FORMAT expand"),
                format!("SELECT * WHERE not({first}) ORDER BY count desc FORMAT csv"),
                format!("AGGREGATE count, percent_total(sum#journal.seq) WHERE min#u < {bound} GROUP BY {first} FORMAT table"),
                "LET n = scale(count, 2) AGGREGATE sum(n), avg(sum#f) WHERE stream = s1 GROUP BY stream FORMAT cali".to_string(),
            ][asked].clone();
            let queries = vec![ALL.to_string(), asked];
            let mut pair = Pair::asking(&format!("oracle{case}"), cfg, spec, queries);
            for (n, (size, templates, damage)) in batches.iter().enumerate() {
                let size = [0, 1, 1, 2, 3, 5, 7, 17, 17, 64, 64, 64, 1024, 2500][*size];
                let mut bytes = payload(&texts, templates, size, n > 0);
                if damage % 5 == 0 {
                    // A line that cannot parse, at any ordinal.
                    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                    let at = *damage as usize % (lines.len() + 1);
                    let bad: &[u8] = if damage % 2 == 0 { b"__rec=ctx,ref=4000\n" } else { b"\xff\n" };
                    bytes = [lines[..at].concat(), bad.to_vec(), lines[at..].concat()].concat();
                }
                let ack = pair.process_batch(&bytes, &format!("after batch {n} ({size} rows)"));
                prop_assert_eq!(ack.is_ok(), size > 0 && damage % 5 != 0);
            }
            let mut pair = pair.restart();
            pair.process_batch(&payload(&texts, &batches[0].1, 3, true), "after the restart").unwrap();
            pair.remove();
        }
    }

    /// Three batches of 600, 436 and 64 records as sent, and the
    /// journal a stream writes of them.
    fn journal_of_three_batches(tag: &str) -> (Vec<u8>, Vec<Vec<u8>>) {
        let dir = tmpdir(tag);
        let mut state = StreamState::open("s1", &test_cfg(&dir), &spec()).unwrap();
        let mut payloads = Vec::new();
        for (n, size) in [(0, 600), (1, 436), (2, 64)] {
            let kernels: Vec<(String, i64)> =
                (0..size).map(|i| (format!("k{}", (i + n) % 7), i)).collect();
            let kernels: Vec<(&str, i64)> = kernels.iter().map(|(k, t)| (k.as_str(), *t)).collect();
            payloads.push(batch(&kernels));
            state.process_batch(payloads.last().unwrap()).unwrap();
        }
        drop(state);
        let bytes = std::fs::read(journal_path(&dir, "s1")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (bytes, payloads)
    }

    /// The answer to [`ALL`] of a stream that was sent `payloads`.
    fn live_answer(tag: &str, payloads: &[&[u8]]) -> (Vec<String>, String) {
        let dir = tmpdir(tag);
        let mut state = StreamState::open("s1", &test_cfg(&dir), &spec()).unwrap();
        for payload in payloads {
            state.process_batch(payload).unwrap();
        }
        let live = answer(&state, ALL);
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
        live
    }

    #[test]
    fn replay_folds_what_the_row_recovery_salvages() {
        let (clean, payloads) = journal_of_three_batches("replay-source");
        let header = format!("{}\n", caliper_format::journal::JOURNAL_HEADER).into_bytes();
        let frames = [frame(0, &payloads[0]), frame(600, &payloads[1]), frame(1036, &payloads[2])];
        assert_eq!(clean, [header, frames.concat()].concat(), "the journal is the payloads as sent");
        let torn = clean[..clean.len() - 11].to_vec();
        let doubled_tail = [clean.clone(), frames[2].clone()].concat();
        // The first frame twice more: every number of it seen before.
        let doubled_across = [clean.clone(), frames[0].clone(), frames[0].clone()].concat();
        // A line of the middle frame that does not parse, its length
        // kept: that frame is dropped whole.
        let ctx = payloads[1]
            .split_inclusive(|&b| b == b'\n')
            .find(|line| line.starts_with(b"__rec=ctx"))
            .unwrap();
        let at = clean.windows(ctx.len()).rposition(|w| w == ctx).unwrap();
        assert!((frames[0].len()..frames[0].len() + frames[1].len()).contains(&(at - 30)));
        let mut corrupt = clean.clone();
        let bad = format!("__rec=ctx,ref={}\n", "9".repeat(ctx.len() - 15));
        corrupt.splice(at..at + ctx.len(), bad.bytes());
        assert_eq!(corrupt.len(), clean.len());

        // (salvaged, duplicates, missing, skipped, truncated), and the
        // batches a stream sent the survivors answers as.
        let all = [&payloads[0][..], &payloads[1], &payloads[2]];
        let cases = [
            ("clean", &clean, (1100, 0, 0, 0, false), all.to_vec()),
            ("torn", &torn, (1036, 0, 0, 1, true), all[..2].to_vec()),
            ("doubled-tail", &doubled_tail, (1100, 64, 0, 0, false), all.to_vec()),
            ("doubled-across", &doubled_across, (1100, 1200, 0, 0, false), all.to_vec()),
            ("corrupt", &corrupt, (664, 0, 436, 1, false), vec![all[0], all[2]]),
        ];
        for (tag, journal, want, survivors) in cases {
            let dirs = [tmpdir(&format!("replay-{tag}-blocks")), tmpdir(&format!("replay-{tag}-rows"))];
            for dir in &dirs {
                std::fs::write(journal_path(dir, "s1"), journal).unwrap();
            }
            let mut pair =
                Pair::reopen(dirs, ServedConfig::default(), spec(), vec![ALL.to_string()]);
            let report = pair.state.recovery.clone().unwrap();
            let read = &report.read;
            assert_eq!(
                (report.salvaged, report.duplicates, report.missing, read.skipped, read.truncated),
                want,
                "{tag}: {}",
                report.summary()
            );
            assert_eq!(pair.state.accepted_records(), want.0, "{tag}");
            // Replayed, the stream answers what a stream sent the
            // surviving batches answers.
            assert_eq!(answer(&pair.state, ALL), live_answer(&format!("live-{tag}"), &survivors), "{tag}");
            // Both carry on from the same sequence number, on the same
            // (possibly resynchronized) file.
            let ack = pair.process_batch(&batch(&[("k1", 5), ("new", 6)]), tag).unwrap();
            assert_eq!(ack.last_seq, report.max_seq.unwrap() + 2, "{tag}");
            pair.restart().remove();
        }

        // A replay out of budget keeps what it had: nothing.
        let dirs = [tmpdir("replay-expired-blocks"), tmpdir("replay-expired-rows")];
        for dir in &dirs {
            std::fs::write(journal_path(dir, "s1"), &clean).unwrap();
        }
        let cfg = ServedConfig {
            replay_deadline: std::time::Duration::ZERO,
            ..ServedConfig::default()
        };
        let pair = Pair::reopen(dirs, cfg, spec(), vec![ALL.to_string()]);
        let report = pair.state.recovery.clone().unwrap();
        assert!(report.read.truncated && report.salvaged == 0, "{}", report.summary());
        assert_eq!(pair.state.groups(), 0);
        pair.remove();
    }

    #[test]
    fn a_cut_anywhere_in_the_last_frame_costs_that_batch_alone() {
        let dir = tmpdir("cut");
        let cfg = ServedConfig {
            max_stream_failures: u32::MAX,
            ..test_cfg(&dir)
        };
        let payloads = [
            batch(&[("a", 10), ("b", 5), ("a", 1)]),
            batch_with_globals(&[("c", 2)]),
            batch(&[("b", 7), ("d", 3)]),
        ];
        let next = batch(&[("a", 100), ("e", 1)]);
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        for payload in &payloads {
            state.process_batch(payload).unwrap();
        }
        drop(state);
        let path = journal_path(&dir, "s1");
        let journal = std::fs::read(&path).unwrap();
        let last = journal.len() - frame(4, &payloads[2]).len();
        let acked = live_answer("cut-acked", &[&payloads[0], &payloads[1]]);
        let resumed = live_answer("cut-resumed", &[&payloads[0], &payloads[1], &next]);
        for cut in last..journal.len() {
            std::fs::write(&path, &journal[..cut]).unwrap();
            let torn = cut > last;
            let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
            let report = state.recovery.clone().unwrap();
            assert_eq!((report.salvaged, report.read.truncated), (4, torn), "cut at {cut}: {}", report.summary());
            assert_eq!(answer(&state, ALL), acked, "cut at {cut}");
            let ack = state.process_batch(&next).unwrap();
            assert_eq!((ack.last_seq, ack.records), (5, 2), "cut at {cut}");
            assert_eq!(answer(&state, ALL), resumed, "cut at {cut}");
            drop(state);
            // Restarted, every acknowledged batch is served, and the torn
            // one is still reported.
            let state = StreamState::open("s1", &cfg, &spec()).unwrap();
            let report = state.recovery.clone().unwrap();
            assert_eq!(
                (report.salvaged, report.read.truncated, report.read.skipped),
                (6, torn, u64::from(torn)),
                "cut at {cut}, restarted: {}",
                report.summary()
            );
            assert_eq!(answer(&state, ALL), resumed, "cut at {cut}, restarted");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_payload_carrying_a_frame_line_is_refused() {
        let dir = tmpdir("frame-line");
        let cfg = ServedConfig {
            max_stream_failures: u32::MAX,
            ..test_cfg(&dir)
        };
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        state.process_batch(&batch(&[("a", 1)])).unwrap();
        let path = journal_path(&dir, "s1");
        let before = std::fs::read(&path).unwrap();
        let clean = batch(&[("b", 2)]);
        for line in [&b"__rec=batch,seq=0,bytes=2\n"[..], b"seq=0,__rec=batch,bytes=2\n"] {
            for at in [0, clean.len()] {
                let payload = [&clean[..at], line, &clean[at..]].concat();
                let err = state.process_batch(&payload).unwrap_err();
                assert!(err.contains("unknown record kind 'batch'"), "{err}");
                assert!(!state.degraded());
                assert_eq!(std::fs::read(&path).unwrap(), before, "{err}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_payload_with_a_journal_seq_of_its_own_replays_in_full() {
        // A runtime's journal sent as a batch: every record carries the
        // `journal.seq` its writer stamped, which the daemon's stamp
        // follows. Replay knows the rows by the daemon's stamp.
        let dir = tmpdir("own-seq");
        let cfg = test_cfg(&dir);
        let payload = b"__rec=attr,id=0,name=kernel,type=string,prop=asvalue\n\
                        __rec=attr,id=1,name=journal.seq,type=uint,prop=asvalue\n\
                        __rec=ctx,attr=0,data=a,attr=1,data=0\n\
                        __rec=ctx,attr=0,data=b,attr=1,data=0\n";
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        for _ in 0..3 {
            state.process_batch(payload).unwrap();
        }
        let live = render(&state);
        drop(state);
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        let report = state.recovery.clone().unwrap();
        assert_eq!((report.salvaged, report.duplicates, report.max_seq), (6, 0, Some(5)));
        assert_eq!(render(&state), live);
        assert_eq!(state.process_batch(payload).unwrap().last_seq, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_of_lines_then_frames_replays_to_the_live_answer() {
        let dir = tmpdir("upgrade");
        let cfg = test_cfg(&dir);
        let payloads: Vec<Vec<u8>> = (0..6)
            .map(|n| batch_with_globals(&[("a", n), ("b", 2 * n), (["c", "d"][n as usize % 2], 1)]))
            .collect();
        // The journal as the daemon wrote it one line per record: each
        // decoded batch's records, stamped, through `append_snapshot`.
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, "s1");
        let policy = FlushPolicy::default();
        let mut lines = JournalWriter::create(&path, policy).unwrap();
        let mut reader = CaliReader::new();
        let seq = reader.dataset().attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE).id();
        let mut next_seq = 0;
        for payload in &payloads[..3] {
            let (ds, strings, block) = reader.read_batch(payload, seq, next_seq).unwrap();
            let mut records = Vec::new();
            block.append_records(strings, &mut records);
            for record in &records {
                lines.append_snapshot(ds, record).unwrap();
            }
            next_seq += records.len() as u64;
        }
        drop(lines);
        let old = std::fs::read(&path).unwrap();
        assert!(!old.windows(12).any(|w| w == b"__rec=batch,"));

        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        assert_eq!(state.recovery.as_ref().unwrap().salvaged, 9);
        let ack = state.process_batch(&payloads[3]).unwrap();
        assert_eq!(ack.last_seq, 11);
        for payload in &payloads[4..] {
            state.process_batch(payload).unwrap();
        }
        let live = answer(&state, ALL);
        drop(state);
        let journal = std::fs::read(&path).unwrap();
        let frames = [frame(9, &payloads[3]), frame(12, &payloads[4]), frame(15, &payloads[5])];
        assert_eq!(journal, [old, frames.concat()].concat());

        let state = StreamState::open("s1", &cfg, &spec()).unwrap();
        let report = state.recovery.as_ref().unwrap();
        assert!(!report.data_lost(), "{}", report.summary());
        assert_eq!((report.salvaged, report.max_seq), (18, Some(17)));
        assert_eq!(answer(&state, ALL), live);
        let all: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        assert_eq!(live, live_answer("upgrade-live", &all));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_bounds_the_string_table_frame_by_frame() {
        // 70 batches of 1 024 records, each with a string of its own:
        // 71 680 distinct strings in the journal.
        let dir = tmpdir("replay-strings");
        let cfg = test_cfg(&dir);
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        for n in 0..70 {
            let mut ds = Dataset::new();
            let kernel = ds.attribute("kernel", ValueType::Str, Properties::AS_VALUE).id();
            let t = ds.attribute("t", ValueType::Int, Properties::AS_VALUE).id();
            let note = ds.attribute("note", ValueType::Str, Properties::AS_VALUE).id();
            for i in 0..1024 {
                let mut rec = SnapshotRecord::new();
                rec.push_imm(kernel, Value::str(format!("k{}", (i + n) % 5)));
                rec.push_imm(t, Value::Int(i));
                rec.push_imm(note, Value::str(format!("note {n}.{i}")));
                ds.push(rec);
            }
            state.process_batch(&caliper_format::cali::to_bytes(&ds)).unwrap();
        }
        let live = render(&state);
        drop(state);
        let bound = MAX_STREAM_STRINGS + 1024 + 8;

        // Never above the bound by more than one batch, at any frame.
        let (mut reader, spec) = (CaliReader::new(), spec());
        let mut aggregator = Aggregator::new(spec.clone(), Arc::clone(&reader.dataset().store));
        let mut resets = 0;
        let report = recover_file_blocks(
            &mut reader,
            journal_path(&dir, "s1"),
            ReadPolicy::lenient(),
            None,
            &mut |ds, strings, block| {
                let held = strings.len();
                assert!(held <= bound, "{held} strings");
                // As `StreamState::open` replays a frame.
                aggregator.fold_block(&ds.tree, strings, block);
                if strings.len() > MAX_STREAM_STRINGS {
                    *strings = StringTable::default();
                }
                resets += usize::from(strings.len() < held);
            },
        )
        .unwrap();
        assert_eq!(report.salvaged, 70 * 1024);
        assert_eq!(resets, 1, "the table did start over");

        let state = StreamState::open("s1", &cfg, &spec).unwrap();
        assert!(state.reader.strings().len() <= bound, "{}", state.reader.strings().len());
        assert_eq!(render(&state), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_then_reopen_recovers_identical_state() {
        let dir = tmpdir("roundtrip");
        let cfg = test_cfg(&dir);
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        state
            .process_batch(&batch(&[("a", 10), ("b", 5)]))
            .unwrap();
        let ack = state.process_batch(&batch(&[("a", 7)])).unwrap();
        assert_eq!(ack.last_seq, 2);
        assert_eq!(state.accepted_batches(), 2);
        let live = render(&state);
        drop(state); // final flush via JournalWriter::drop

        let reopened = StreamState::open("s1", &cfg, &spec()).unwrap();
        let report = reopened.recovery.as_ref().unwrap();
        assert_eq!(report.salvaged, 3);
        assert!(!report.data_lost());
        assert_eq!(render(&reopened), live, "byte-identical post-recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_batch_is_rejected_whole_and_trips_breaker() {
        let dir = tmpdir("breaker");
        let cfg = ServedConfig {
            max_stream_failures: 2,
            ..test_cfg(&dir)
        };
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        state.process_batch(&batch(&[("a", 1)])).unwrap();
        let before = render(&state);

        let garbage = b"__rec=ctx,this is not\xffvalid\n".to_vec();
        assert!(state.process_batch(&garbage).is_err());
        assert!(!state.degraded(), "one failure below the threshold");
        assert_eq!(render(&state), before, "reject leaves warm state intact");
        assert!(state.process_batch(&garbage).is_err());
        assert!(state.degraded(), "second consecutive failure trips");
        // Breaker open: even a good batch is refused...
        let err = state.process_batch(&batch(&[("b", 1)])).unwrap_err();
        assert!(err.contains("degraded"), "{err}");
        // ...but queries still serve the warm state.
        assert_eq!(render(&state), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch the way the runtime writes a stream: a globals line ahead
    /// of the snapshots.
    fn batch_with_globals(kernels: &[(&str, i64)]) -> Vec<u8> {
        let mut bytes = b"__rec=attr,id=90,name=run,type=string,prop=global\n\
                          __rec=globals,attr=90,data=nightly\n"
            .to_vec();
        bytes.extend_from_slice(&batch(kernels));
        bytes
    }

    #[test]
    fn a_resident_stream_keeps_no_globals_and_no_records() {
        let dir = tmpdir("globals");
        let cfg = ServedConfig {
            max_stream_failures: u32::MAX,
            ..test_cfg(&dir)
        };
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        let good = batch_with_globals(&[("a", 1), ("b", 2)]);
        let mut bad = batch_with_globals(&[("a", 1)]);
        bad.extend_from_slice(b"__rec=ctx,attr=4000,data=1\n");
        for round in 0..1000 {
            state.process_batch(&good).unwrap();
            if round % 10 == 0 {
                assert!(state.process_batch(&bad).is_err());
            }
            let ds = state.reader.dataset();
            assert!(ds.globals.is_empty() && ds.records.is_empty());
        }
        assert_eq!(state.accepted_batches(), 1000);
        assert_eq!(state.accepted_records(), 2000);
        let _ = std::fs::remove_dir_all(&dir);

        // Nor an unbounded string table: a string attribute nobody
        // groups by, with a new value in every record, for 300 batches
        // of 1 024. The table starts over whenever it has passed its
        // bound — and the groups, found by codes of it (of a node's
        // path and of an immediate, which every batch meets in another
        // order, so that a code kept across a reset would name another
        // group), answer on as the row path does.
        let by_region = AggregationSpec::from_query(
            &parse_query("AGGREGATE count,sum(t) GROUP BY region,kernel").unwrap(),
        );
        let mut pair = Pair::open("strings", ServedConfig::default(), by_region);
        let (mut held, mut resets) = (0, 0);
        for n in 0..300 {
            let mut ds = Dataset::new();
            let region = ds.attribute("region", ValueType::Str, Properties::NESTED).id();
            let kernel = ds.attribute("kernel", ValueType::Str, Properties::AS_VALUE).id();
            let t = ds.attribute("t", ValueType::Int, Properties::AS_VALUE).id();
            let note = ds.attribute("note", ValueType::Str, Properties::AS_VALUE).id();
            for i in 0..1024 {
                let mut rec = SnapshotRecord::new();
                let name = Value::str(format!("r{}", (i + n) % 3));
                rec.push_node(ds.tree.get_child(NODE_NONE, region, &name));
                rec.push_imm(kernel, Value::str(format!("k{}", (i + n) % 5)));
                rec.push_imm(t, Value::Int(i));
                rec.push_imm(note, Value::str(format!("note {n}.{i}")));
                ds.push(rec);
            }
            if held > MAX_STREAM_STRINGS {
                // The table starts over before a batch is decoded, so a
                // rejected batch is a restart and nothing else: the warm
                // answer is what it was.
                let warm = |pair: &Pair| answer(&pair.state, ALL);
                let before = warm(&pair);
                assert!(pair.feed(b"garbage\n", "a rejected batch").is_err());
                assert!(pair.state.reader.strings().len() < held, "the table did start over");
                assert_eq!(warm(&pair), before, "across the restart before batch {n}");
            }
            pair.feed(&caliper_format::cali::to_bytes(&ds), &format!("after batch {n}")).unwrap();
            let now = pair.state.reader.strings().len();
            assert!(now <= MAX_STREAM_STRINGS + 1024 + 8, "{now} strings after batch {n}");
            resets += usize::from(now < held);
            held = now;
        }
        assert_eq!(resets, 300 * 1024 / MAX_STREAM_STRINGS, "the table did start over");
        pair.assert_journal_is_the_payloads_as_sent("after 300 batches");
        // Replayed, the table is bounded as it was at ingest.
        let pair = pair.restart();
        let now = pair.state.reader.strings().len();
        assert!(now <= MAX_STREAM_STRINGS + 1024 + 8, "{now} strings after the replay");
        pair.remove();
    }

    #[test]
    fn rejected_batches_keep_the_resident_table_bounded() {
        // 300 batches that each intern 1 024 fresh strings and then fail
        // on their last line: the table starts over before a batch is
        // decoded, so a rejected batch grows it by one batch at most.
        let dir = tmpdir("rejected-strings");
        let cfg = ServedConfig {
            max_stream_failures: u32::MAX,
            ..test_cfg(&dir)
        };
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        let mut resets = 0;
        for n in 0..300 {
            let mut ds = Dataset::new();
            let note = ds.attribute("note", ValueType::Str, Properties::AS_VALUE).id();
            for i in 0..1024 {
                let mut rec = SnapshotRecord::new();
                rec.push_imm(note, Value::str(format!("note {n}.{i}")));
                ds.push(rec);
            }
            let mut bad = caliper_format::cali::to_bytes(&ds);
            bad.extend_from_slice(b"__rec=ctx,attr=4000,data=1\n");
            let held = state.reader.strings().len();
            assert!(state.process_batch(&bad).is_err(), "batch {n}");
            let now = state.reader.strings().len();
            assert!(now <= MAX_STREAM_STRINGS + 1024 + 8, "{now} strings after batch {n}");
            resets += usize::from(now < held);
        }
        assert!(resets > 0, "the table did start over");
        assert_eq!(state.accepted_batches(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_served_journal_keeps_the_globals_each_batch_sent() {
        let dir = tmpdir("recover-globals");
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../cli/tests/golden/data/rank0.cali");
        let payload = std::fs::read(&golden).unwrap();
        let mut state = StreamState::open("s1", &test_cfg(&dir), &spec()).unwrap();
        for _ in 0..2 {
            state.process_batch(&payload).unwrap();
            assert!(state.reader.dataset().globals.is_empty(), "a resident stream keeps none");
        }
        drop(state);
        // Replayed, the stream keeps none either.
        let state = StreamState::open("s1", &test_cfg(&dir), &spec()).unwrap();
        assert!(state.reader.dataset().globals.is_empty());
        drop(state);

        let (salvaged, report) =
            caliper_format::journal::recover_file(journal_path(&dir, "s1"), ReadPolicy::lenient())
                .unwrap();
        // rank0 sends its globals as two records (`mpi.rank`, then
        // `experiment`): two a batch.
        let sent = caliper_format::read_path(&golden).unwrap();
        assert_eq!(sent.globals.len(), 2);
        assert!(report.summary().contains(" + 4 globals,"), "{}", report.summary());
        assert_eq!(report.globals, 4);
        let described = |ds: &Dataset| -> Vec<String> {
            ds.globals.iter().map(|g| g.describe(&ds.store)).collect()
        };
        assert_eq!(described(&salvaged), [described(&sent), described(&sent)].concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bad_line_at_any_ordinal_rejects_the_batch_whole() {
        let dir = tmpdir("ordinals");
        let cfg = ServedConfig {
            max_stream_failures: u32::MAX,
            ..test_cfg(&dir)
        };
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        state.process_batch(&batch(&[("a", 10), ("b", 5)])).unwrap();
        let journal = journal_path(&dir, "s1");
        let (rows, bytes) = (render(&state), std::fs::read(&journal).unwrap());
        let untouched = |state: &StreamState, what: &str| {
            assert_eq!(render(state), rows, "{what}");
            assert_eq!(std::fs::read(&journal).unwrap(), bytes, "{what}");
            assert_eq!((state.next_seq, state.accepted_records()), (2, 2), "{what}");
        };

        let clean = batch_with_globals(&[("a", 1), ("c", 2), ("b", 3), ("c", 4)]);
        let lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
        for ordinal in 0..=lines.len() {
            let mut damaged = lines[..ordinal].concat();
            damaged.extend_from_slice(match ordinal % 3 {
                0 => b"__rec=ctx,attr=0,data=x,attr=torn\n".as_slice(),
                1 => b"\xff\xfe\n".as_slice(),
                _ => b"__rec=ctx,ref=77\n".as_slice(),
            });
            damaged.extend_from_slice(&lines[ordinal..].concat());
            let err = state.process_batch(&damaged).unwrap_err();
            assert!(err.contains(&format!("line {}", ordinal + 1)), "{err}");
            untouched(&state, &format!("bad line at {ordinal}"));
        }
        // So does a batch without a record: empty, or all dictionary.
        for empty in [&b""[..], &lines[..2].concat()] {
            assert_eq!(state.process_batch(empty).unwrap_err(), "batch rejected: no records");
            untouched(&state, "empty batch");
        }
        // The stream is none the worse: the clean batch is accepted whole.
        let ack = state.process_batch(&clean).unwrap();
        assert_eq!((ack.records, ack.last_seq), (4, 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let dir = tmpdir("reset");
        let cfg = ServedConfig {
            max_stream_failures: 2,
            ..test_cfg(&dir)
        };
        let mut state = StreamState::open("s1", &cfg, &spec()).unwrap();
        let garbage = b"not a cali line at all \xff\n".to_vec();
        assert!(state.process_batch(&garbage).is_err());
        state.process_batch(&batch(&[("a", 1)])).unwrap();
        assert!(state.process_batch(&garbage).is_err());
        assert!(!state.degraded(), "counter is consecutive, reset by success");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_names_are_path_safe() {
        assert!(valid_stream_name("node-01.rank_3"));
        assert!(!valid_stream_name(""));
        assert!(!valid_stream_name(".hidden"));
        assert!(!valid_stream_name("../escape"));
        assert!(!valid_stream_name("a/b"));
        assert!(!valid_stream_name("spaced name"));
        assert!(!valid_stream_name(&"x".repeat(129)));
        assert_eq!(
            stream_of_journal(Path::new("/data/s1.journal.cali")).as_deref(),
            Some("s1")
        );
        assert_eq!(stream_of_journal(Path::new("/data/other.cali")), None);
    }
}
