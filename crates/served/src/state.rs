//! Per-stream resident state: warm aggregate + write-ahead journal +
//! circuit breaker.
//!
//! Each ingest stream owns a [`Dataset`] (attribute dictionary +
//! context tree, grown incrementally as batches arrive), a warm
//! [`Aggregator`] holding the resident aggregation, and a
//! [`JournalWriter`] through which every accepted batch is made durable
//! *before* it is acknowledged. The ack-after-flush ordering is the
//! whole durability story: a `kill -9` at any instant can lose only
//! batches that were never acknowledged, so clients that retry
//! un-acked batches observe zero accepted-batch loss.
//!
//! On restart, [`StreamState::open`] replays the stream's journal with
//! [`recover_file_cancellable`] (lenient, torn tails expected,
//! sequence-deduplicated) and re-feeds the salvaged records through a
//! fresh aggregator — the identical `add` path live batches take — so
//! post-recovery query results are byte-identical to an uninterrupted
//! run over the same accepted batches.
//!
//! A stream whose batches keep failing (parse errors, journal I/O
//! errors) trips a circuit breaker after
//! [`max_stream_failures`](crate::ServedConfig::max_stream_failures)
//! *consecutive* failures: further batches are refused with `DEGRADED`
//! while queries keep serving the warm state — graceful degradation,
//! not collapse.

use std::path::{Path, PathBuf};

use caliper_data::{AttrId, Deadline, FlatRecord, Properties, Value, ValueType};
use caliper_format::journal::{recover_file_cancellable, RecoveryReport};
use caliper_format::{CaliReader, Dataset, FlushPolicy, JournalWriter, ReadPolicy, SEQ_ATTR};
use caliper_query::{AggregationSpec, Aggregator};

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
    ds: Dataset,
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
        let (ds, recovery) = if path.exists() {
            let deadline = Deadline::after(cfg.replay_deadline);
            let (ds, report) =
                recover_file_cancellable(&path, ReadPolicy::lenient(), Some(&deadline))
                    .map_err(|e| format!("replaying journal {}: {e}", path.display()))?;
            (ds, Some(report))
        } else {
            (Dataset::new(), None)
        };
        let journal = if recovery.is_some() {
            JournalWriter::open_append(&path, policy)
        } else {
            std::fs::create_dir_all(&cfg.data_dir)
                .map_err(|e| format!("creating data dir: {e}"))?;
            JournalWriter::create(&path, policy)
        }
        .map_err(|e| format!("opening journal {}: {e}", path.display()))?;

        let seq_attr = ds.attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE).id();
        let mut aggregator = Aggregator::new(spec.clone(), std::sync::Arc::clone(&ds.store));
        aggregator.set_max_groups(cfg.max_groups);

        let mut state = StreamState {
            name: name.to_string(),
            next_seq: 0,
            seq_attr,
            aggregator,
            journal,
            ds,
            consecutive_failures: 0,
            max_stream_failures: cfg.max_stream_failures,
            degraded: false,
            accepted_batches: 0,
            accepted_records: 0,
            recovery: None,
        };
        if let Some(report) = recovery {
            state.next_seq = report.max_seq.map_or(0, |m| m + 1);
            // Re-feed the salvage through the live aggregation path.
            for rec in state.ds.flat_records() {
                state.aggregator.add(&rec);
            }
            state.accepted_records = state.ds.records.len() as u64;
            state.ds.records.clear();
            state.recovery = Some(report);
        }
        Ok(state)
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

    /// Process one ingest batch: parse (strict — a batch is accepted
    /// whole or not at all), stamp `journal.seq`, journal + flush
    /// (+fsync per policy), then fold into the warm aggregate. Only
    /// after the flush returns is the ack constructed: see the module
    /// docs for why that ordering is the durability contract.
    ///
    /// On failure the dataset is left without the batch's records, the
    /// consecutive-failure counter advances, and crossing
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
        // Decode the whole batch before anything is stamped, journaled
        // or folded. Strict: a bad line rejects the batch. The stream's
        // dataset keeps the batch's dictionary and nothing else — the
        // records are taken out here, dropped if the batch is rejected,
        // and so are its globals, which the daemon has no use for and
        // which would otherwise pile up for as long as it runs.
        let mut reader = CaliReader::into_dataset(std::mem::take(&mut self.ds));
        let parse = reader.read_stream(payload);
        self.ds = reader.finish();
        let records = std::mem::take(&mut self.ds.records);
        self.ds.globals.clear();
        parse.map_err(|e| format!("batch rejected: {e}"))?;
        if records.is_empty() {
            return Err("batch rejected: no records".to_string());
        }

        // Stamp, journal, aggregate. A journal error mid-batch leaves
        // the aggregate ahead of the journal for already-folded
        // records, so it immediately degrades the stream below (the
        // conservative reading of an inconsistent pair).
        let mut folded = 0u64;
        let mut journal_err = None;
        for rec in records {
            let mut stamped = rec;
            stamped.push_imm(self.seq_attr, Value::UInt(self.next_seq));
            if let Err(e) = self.journal.append_snapshot(&self.ds, &stamped) {
                journal_err = Some(format!("journal append: {e}"));
                break;
            }
            let flat = stamped.unpack(&self.ds.tree);
            self.aggregator.add(&flat);
            self.next_seq += 1;
            folded += 1;
        }
        if journal_err.is_none() {
            if let Err(e) = self.journal.flush() {
                journal_err = Some(format!("journal flush: {e}"));
            }
        }
        if let Some(e) = journal_err {
            // Aggregate state may now be ahead of the durable journal:
            // refuse further ingest on this stream outright.
            self.degraded = true;
            return Err(format!(
                "{e} (stream '{}' degraded: warm state may exceed journal)",
                self.name
            ));
        }
        Ok(BatchAck {
            last_seq: self.next_seq - 1,
            records: folded,
        })
    }

    /// Snapshot the warm aggregate as result rows interned into `out`,
    /// each tagged `stream=<name>` via `stream_attr`. Non-destructive
    /// ([`Aggregator::flush`] borrows), deterministic (rows sorted by
    /// group key), so identical warm state renders identical rows.
    pub fn warm_rows(&self, out: &caliper_data::AttributeStore, stream_attr: AttrId) -> Vec<FlatRecord> {
        let mut rows = self.aggregator.flush(out);
        for row in &mut rows {
            row.push(stream_attr, Value::str(self.name.as_str()));
        }
        rows
    }

    /// Final drain: flush (+fsync) the journal. Called on graceful
    /// shutdown after the queue is empty.
    pub fn finalize(&mut self) -> Result<(), String> {
        self.journal
            .flush()
            .map_err(|e| format!("final flush of stream '{}': {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::RecordBuilder;
    use caliper_query::parse_query;

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
            let entries = rec
                .pairs()
                .iter()
                .map(|(a, v)| caliper_data::Entry::Imm(*a, v.clone()))
                .collect();
            ds.push(caliper_data::SnapshotRecord::from_entries(entries));
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
        let out = std::sync::Arc::new(caliper_data::AttributeStore::new());
        let stream_attr = out
            .create("stream", ValueType::Str, Properties::DEFAULT)
            .unwrap()
            .id();
        let rows = state.warm_rows(&out, stream_attr);
        let run = caliper_query::run_records_with_deadline(
            out,
            &rows,
            "SELECT kernel, count, sum#t, stream ORDER BY kernel FORMAT csv",
            &Deadline::unbounded(),
        )
        .unwrap();
        assert!(run.complete);
        run.result.render()
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
            assert!(state.ds.globals.is_empty() && state.ds.records.is_empty());
        }
        assert_eq!(state.accepted_batches(), 1000);
        assert_eq!(state.accepted_records(), 2000);
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
            assert_eq!(render(&state), rows, "bad line at {ordinal}");
            let journaled = std::fs::read(&journal).unwrap();
            assert_eq!(journaled, bytes, "bad line at {ordinal}");
        }
        // The stream is none the worse: the clean batch is accepted whole.
        assert_eq!(state.process_batch(&clean).unwrap().records, 4);
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
