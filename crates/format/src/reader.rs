//! File-level reading entry points and decoded record batches.
//!
//! This module is the input side of the query engines and CLI tools:
//!
//! * [`read_path`] / [`read_path_into`] — read one `.cali` (text) or
//!   `CALB` (binary) file, auto-detecting the flavor from the stream
//!   header, and attribute any failure to the file's path via
//!   [`CaliError::File`];
//! * [`read_path_reported_filtered`] / [`read_path_into_filtered`] —
//!   the same two under a [`ReadPolicy`] and an optional [`Pushdown`],
//!   returning the file's [`ReadReport`];
//! * [`scan_path`] — the same read, but the snapshots of a text or
//!   CALB v2 file are handed over as blocks of typed columns instead of
//!   being expanded to rows (`caliper-query`'s `scan` module folds them
//!   directly);
//! * [`scan_dictionary`] — the same read again, for whoever wants only
//!   what the file declares (an attribute schema): snapshots are passed
//!   over unread;
//! * [`RecordBatch`] / [`for_each_flat`] — a contiguous, cheaply
//!   cloneable slice of a decoded [`Dataset`]'s snapshot records, and
//!   their expansion to flat records in stream order.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use caliper_data::{
    AttrId, ContextTree, Entry, FlatRecord, FxHashMap, NodeId, SnapshotRecord, Value,
};

use crate::binary;
use crate::binary_v2::{append_rows, BlockSink};
use crate::cali::{CaliError, CaliReader};
use crate::dataset::Dataset;
use crate::policy::{ReadPolicy, ReadReport};
use crate::pushdown::Pushdown;

/// Reads one `.cali` or `CALB` file into a fresh dataset, sniffing the
/// format from the stream header (not the file name). Errors carry the
/// path ([`CaliError::File`]).
pub fn read_path(path: impl AsRef<Path>) -> Result<Dataset, CaliError> {
    read_path_into(path, Dataset::new())
}

/// Reads one `.cali` or `CALB` file, appending into `ds` (ids are
/// remapped into the shared dictionary, as with
/// [`CaliReader::into_dataset`]). Errors carry the path.
pub fn read_path_into(path: impl AsRef<Path>, ds: Dataset) -> Result<Dataset, CaliError> {
    read_path_into_filtered(path, ds, ReadPolicy::Strict, None).map(|(ds, _)| ds)
}

/// Reads one `.cali` or `CALB` file into a fresh dataset under `policy`
/// with an optional WHERE-predicate [`Pushdown`], returning the per-file
/// [`ReadReport`].
///
/// Block-structured streams (CALB v2) use the pushdown to skip whole
/// record blocks whose zone maps prove no record can match — accounted
/// in [`ReadReport::blocks_skipped`] and the
/// `format.reader.blocks_skipped` metric. Text and v1 binary streams
/// decode fully; the pushdown never changes which records *match* a
/// query, only how many provably-irrelevant ones get decoded.
pub fn read_path_reported_filtered(
    path: impl AsRef<Path>,
    policy: ReadPolicy,
    pushdown: Option<&Pushdown>,
) -> Result<(Dataset, ReadReport), CaliError> {
    read_path_into_filtered(path, Dataset::new(), policy, pushdown)
}

/// Reads one `.cali` or `CALB` file under `policy` with an optional
/// pushdown, appending into `ds` (see [`read_path_reported_filtered`]).
///
/// The report is attributed to the file's path. Failing to *open* the
/// file is an error regardless of policy — a mistyped path must never
/// be silently "skipped" — whereas decode problems inside the file
/// follow the policy (skip-and-count when lenient, abort when strict).
pub fn read_path_into_filtered(
    path: impl AsRef<Path>,
    ds: Dataset,
    policy: ReadPolicy,
    pushdown: Option<&Pushdown>,
) -> Result<(Dataset, ReadReport), CaliError> {
    scan_path(path, ds, policy, pushdown, &mut append_rows)
}

/// Reads one `.cali` or `CALB` file like [`read_path_into_filtered`],
/// but hands the snapshots of a text or CALB v2 file to `on_block` as
/// typed columns ([`Block`](crate::binary_v2::Block)) instead of
/// materialising their rows: in stream order, one block in memory at a
/// time, each holding only validated rows. A v2 file's blocks are the
/// ones its writer framed; a text file's are cut every
/// [`DEFAULT_BLOCK_RECORDS`](crate::binary_v2::DEFAULT_BLOCK_RECORDS)
/// snapshot lines, which is where the default v2 writer cuts them too.
/// The file's dictionary and globals still land in `ds`; its snapshot
/// records do not.
///
/// Which path a file gets is decided by its stream header alone. CALB
/// v1 has no columns and no block decoder: its snapshot records are
/// appended to `ds.records` as ever and `on_block` is never called.
pub fn scan_path(
    path: impl AsRef<Path>,
    ds: Dataset,
    policy: ReadPolicy,
    pushdown: Option<&Pushdown>,
    on_block: &mut BlockSink<'_>,
) -> Result<(Dataset, ReadReport), CaliError> {
    open_and_scan(path.as_ref(), ds, policy, pushdown, Some(on_block))
}

/// Reads what one `.cali` or `CALB` file *declares* — its attributes,
/// context tree and globals — into `ds`, for a caller nobody will show
/// a snapshot to: the same open, retry, fault sites, metrics and error
/// attribution as [`scan_path`], and the same decoders for every
/// dictionary record, but a text reader passes over a snapshot line at
/// its `__rec=ctx` prefix and a v2 reader hops over a block at its
/// length frame, so neither validates what it does not read (the
/// report counts no snapshot, and damage inside one goes unseen). CALB
/// v1 frames nothing: its snapshots are decoded, then dropped.
pub fn scan_dictionary(
    path: impl AsRef<Path>,
    ds: Dataset,
    policy: ReadPolicy,
) -> Result<(Dataset, ReadReport), CaliError> {
    let held = ds.records.len();
    let (mut ds, report) = open_and_scan(path.as_ref(), ds, policy, None, None)?;
    ds.records.truncate(held);
    Ok((ds, report))
}

/// The one way in for an input file: its bytes through the failpoints
/// and the retry, the decoder its header names, the read metrics, and
/// any error attributed to `path`.
fn open_and_scan(
    path: &Path,
    mut ds: Dataset,
    policy: ReadPolicy,
    pushdown: Option<&Pushdown>,
    on_block: Option<&mut BlockSink<'_>>,
) -> Result<(Dataset, ReadReport), CaliError> {
    let attribute = |e: CaliError| e.with_path(path);
    let mut report = ReadReport::for_path(path);
    let bytes = read_bytes_with_faults(path).map_err(|e| attribute(CaliError::Io(e)))?;
    let ds = if bytes.starts_with(binary::MAGIC) {
        binary::scan_binary_into(&bytes, &mut ds, policy, &mut report, pushdown, on_block)
            .map_err(attribute)?;
        ds
    } else {
        let mut reader = CaliReader::into_dataset(ds);
        match on_block {
            Some(on_block) => reader.scan_stream(&bytes[..], policy, &mut report, None, on_block),
            None => reader.read_dictionary(&bytes[..], policy, &mut report),
        }
        .map_err(attribute)?;
        reader.finish()
    };
    record_read_metrics(bytes.len() as u64, &report);
    Ok((ds, report))
}

/// Read a file's bytes through the `io.open` / `io.read` failpoints
/// with bounded-backoff retry on transient errors.
///
/// Fault decisions key on the hashed path (stable across runs and
/// thread counts) with a per-path attempt counter, so a `fail(n)` spec
/// makes the first `n` attempts on each file fail and an `err(p, seed)`
/// spec fails a reproducible subset of (file, attempt) pairs. Retries
/// taken are published as `format.reader.retries` — a function of the
/// spec and the file set alone, so the metric stays stable across
/// `--threads`.
fn read_bytes_with_faults(path: &Path) -> std::io::Result<Vec<u8>> {
    use crate::retry::{injected_error, RetryPolicy};
    use caliper_faults::sites;

    let label = path.to_string_lossy();
    let key = caliper_faults::stable_hash(&label);
    // Jitter seeded by the hashed path: shards retrying *different*
    // files back off on decorrelated schedules (no stampede), while any
    // given file backs off identically on every run.
    let (result, retries) = RetryPolicy::default().with_jitter(key).run(|| {
        if caliper_faults::trigger(sites::IO_OPEN, key, &label).is_some() {
            return Err(injected_error(sites::IO_OPEN));
        }
        let mut bytes = std::fs::read(path)?;
        if caliper_faults::trigger(sites::IO_READ, key, &label).is_some() {
            return Err(injected_error(sites::IO_READ));
        }
        caliper_faults::mutate(sites::IO_READ, key, &label, &mut bytes);
        Ok(bytes)
    });
    if retries > 0 {
        caliper_data::metrics::global()
            .counter("format.reader.retries")
            .add(u64::from(retries));
    }
    result
}

/// Fold one file's read outcome into the global `format.reader.*`
/// metrics. Every value is a function of the input bytes alone, so the
/// metrics stay [`Stability::Stable`](caliper_data::Stability) no
/// matter how many threads read files concurrently.
fn record_read_metrics(bytes: u64, report: &ReadReport) {
    let m = caliper_data::metrics::global();
    m.counter("format.reader.files").inc();
    m.counter("format.reader.bytes").add(bytes);
    m.counter("format.reader.records").add(report.records);
    m.counter("format.reader.skipped").add(report.skipped);
    m.counter("format.reader.dangling_dropped")
        .add(report.dangling_dropped);
    m.counter("format.reader.truncated")
        .add(u64::from(report.truncated));
    m.counter("format.reader.errors")
        .add(report.errors.len() as u64 + report.suppressed_errors);
    m.counter("format.reader.blocks_skipped")
        .add(report.blocks_skipped);
}

/// A contiguous run of one dataset's snapshot records, sharing the
/// dataset (store, tree, records) behind an `Arc`.
///
/// This is the unit of work the parallel query engine distributes:
/// cloning or sending a batch to another thread is O(1).
#[derive(Clone, Debug)]
pub struct RecordBatch {
    dataset: Arc<Dataset>,
    range: Range<usize>,
}

impl RecordBatch {
    /// The batch covering `range` of `dataset`'s records. Panics if the
    /// range is out of bounds.
    pub fn new(dataset: Arc<Dataset>, range: Range<usize>) -> RecordBatch {
        assert!(
            range.end <= dataset.records.len(),
            "batch range {range:?} out of bounds for {} records",
            dataset.records.len()
        );
        RecordBatch { dataset, range }
    }

    /// The dataset this batch slices.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Number of snapshot records in the batch.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Iterates the batch's snapshot records expanded to flat records
    /// against the dataset's context tree, in stream order.
    pub fn flat_records(&self) -> impl Iterator<Item = FlatRecord> + '_ {
        self.dataset.records[self.range.clone()]
            .iter()
            .map(|r| r.unpack(&self.dataset.tree))
    }

    /// Visit the batch's records expanded to flat records, in stream
    /// order (see [`for_each_flat`]).
    pub fn for_each_flat(&self, f: impl FnMut(FlatRecord)) {
        for_each_flat(&self.dataset.tree, &self.dataset.records[self.range.clone()], f)
    }
}

/// Visit `records` expanded to flat records against `tree`, in order,
/// caching node-path expansions across the call.
///
/// This is the row path's aggregation hot loop: records overwhelmingly
/// share context-tree nodes, so walking the tree once per *unique* node
/// (instead of once per record as [`SnapshotRecord::unpack`] does)
/// removes most locking and allocation from the per-record cost.
pub fn for_each_flat(
    tree: &ContextTree,
    records: &[SnapshotRecord],
    mut f: impl FnMut(FlatRecord),
) {
    let mut cache: FxHashMap<NodeId, Vec<(AttrId, Value)>> = FxHashMap::default();
    for rec in records {
        let mut pairs: Vec<(AttrId, Value)> = Vec::with_capacity(rec.len() * 2);
        for entry in rec.entries() {
            match entry {
                Entry::Node(id) => {
                    let path = cache.entry(*id).or_insert_with(|| tree.path(*id));
                    pairs.extend_from_slice(path);
                }
                Entry::Imm(attr, value) => pairs.push((*attr, value.clone())),
            }
        }
        f(FlatRecord::from_pairs(pairs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType};

    fn dataset_with(n: usize) -> Dataset {
        let mut ds = Dataset::new();
        let iter = ds.attribute("i", ValueType::Int, Properties::AS_VALUE);
        for i in 0..n {
            let mut rec = SnapshotRecord::new();
            rec.push_imm(iter.id(), Value::Int(i as i64));
            ds.push(rec);
        }
        ds
    }

    #[test]
    fn read_path_reports_the_failing_file() {
        let err = read_path("/nonexistent/dir/x.cali").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("/nonexistent/dir/x.cali"), "{text}");

        let dir = std::env::temp_dir().join("caliper-reader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.cali");
        std::fs::write(&bad, "__rec=node,id=0,attr=99,data=1\n").unwrap();
        let err = read_path(&bad).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("bad.cali") && text.contains("undeclared"), "{text}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn read_path_reported_attributes_and_accounts() {
        let dir = std::env::temp_dir().join("caliper-reader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.cali");
        let ds = dataset_with(3);
        let mut text = String::from_utf8(crate::cali::to_bytes(&ds)).unwrap();
        text.push_str("garbage line\n");
        std::fs::write(&path, &text).unwrap();

        assert!(read_path(&path).is_err());
        let (back, report) =
            read_path_reported_filtered(&path, ReadPolicy::lenient(), None).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(report.records, 3);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.path.as_deref(), Some(path.as_path()));

        // Opening a missing path errors even under Lenient.
        let missing = "/nonexistent/x.cali";
        assert!(read_path_reported_filtered(missing, ReadPolicy::lenient(), None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_path_sniffs_binary() {
        let dir = std::env::temp_dir().join("caliper-reader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dataset_with(5);
        let text_path = dir.join("t.cali");
        let bin_path = dir.join("b.calb");
        crate::cali::write_file(&ds, &text_path).unwrap();
        crate::binary::write_file(&ds, &bin_path).unwrap();
        assert_eq!(read_path(&text_path).unwrap().len(), 5);
        assert_eq!(read_path(&bin_path).unwrap().len(), 5);
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&bin_path).ok();
    }
}
