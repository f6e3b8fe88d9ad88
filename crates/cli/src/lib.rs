//! # cali-cli — the off-line query applications
//!
//! Library backing the two binaries (paper §IV-C):
//!
//! * `cali-query` — analytical aggregation over `.cali` files, folded
//!   by [`caliper_query::parallel_query_files`] on `--threads N` workers.
//! * `mpi-caliquery` — the scalable parallel query application: each
//!   (simulated) MPI process folds its assigned input files locally, by
//!   the same fold, then partial results are combined up a binomial
//!   reduction tree to rank 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod lint;
pub mod parallel;

pub use args::{parse_args, CliArgs, UsageError};
pub use lint::{check_query, exit_code, infer_schema, summary_line, CheckedQuery};
pub use parallel::{parallel_query, ParallelError, ParallelTimings, QueryRun};

use std::io::Write;

use caliper_data::{Properties, ValueType};
use caliper_format::{
    scan_path, Block, BlockSink, CaliError, CaliWriter, Cell, Dataset, ReadPolicy, ReadReport,
    StringTable,
};
use mpisim::HbTrace;

/// Read and merge multiple `.cali` (text) or `.calb` (binary) files
/// into one dataset (shared attribute dictionary and context tree).
/// The flavor is sniffed from the stream header, not the file name, and
/// errors name the offending file ([`CaliError::File`]).
pub fn read_files<P: AsRef<std::path::Path>>(paths: &[P]) -> Result<Dataset, CaliError> {
    read_files_reported(paths, ReadPolicy::Strict).map(|(ds, _)| ds)
}

/// [`read_files`] under a [`ReadPolicy`], returning the per-file
/// [`ReadReport`]s (input order) alongside the merged dataset.
pub fn read_files_reported<P: AsRef<std::path::Path>>(
    paths: &[P],
    policy: ReadPolicy,
) -> Result<(Dataset, Vec<ReadReport>), CaliError> {
    scan_files(paths, policy, &mut |ds, strings, block| {
        block.append_records(strings, &mut ds.records)
    })
}

/// [`read_files_reported`] for whoever lists what the files declare:
/// the merged dictionary — attributes, context tree, globals — and the
/// per-file reports of the same validating read, one block in memory at
/// a time and no snapshot record kept.
pub fn read_dictionaries<P: AsRef<std::path::Path>>(
    paths: &[P],
    policy: ReadPolicy,
) -> Result<(Dataset, Vec<ReadReport>), CaliError> {
    let (mut dict, reports) = scan_files(paths, policy, &mut |_, _, _| {})?;
    // What a CALB v1 file decoded: it frames no blocks to drop.
    dict.records.clear();
    Ok((dict, reports))
}

/// Scan `paths` in order into one dataset, every block to `on_block`.
fn scan_files<P: AsRef<std::path::Path>>(
    paths: &[P],
    policy: ReadPolicy,
    on_block: &mut BlockSink<'_>,
) -> Result<(Dataset, Vec<ReadReport>), CaliError> {
    let mut ds = Dataset::new();
    let mut reports = Vec::with_capacity(paths.len());
    for path in paths {
        // One reader per file: each stream has its own id space, which
        // the reader remaps into the shared dataset.
        let (merged, report) = scan_path(path, ds, policy, None, on_block)?;
        ds = merged;
        reports.push(report);
    }
    Ok((ds, reports))
}

/// Write a happens-before trace to `path` as text `.cali`: one snapshot
/// per event, carrying `mpisim.rank`, `hb.event`, `hb.time.ns`,
/// `hb.clock` (the rank's own clock component, i.e. the event's 1-based
/// position in its rank's program order) and — when the event names
/// them — `hb.peer` and `hb.tag`, so `cali-query` aggregates a
/// communication schedule like any other profile. The dump of
/// `mpi-caliquery --trace` and `cali-race --trace`.
pub fn write_trace(trace: &HbTrace, path: &std::path::Path) -> std::io::Result<()> {
    let ds = Dataset::new();
    let (mut strings, mut block) = (StringTable::default(), Block::default());
    let summed = Properties::AS_VALUE | Properties::AGGREGATABLE;
    let [rank, event, time, clock, peer, tag] = [
        ("mpisim.rank", ValueType::Int, Properties::AS_VALUE),
        ("hb.event", ValueType::Str, Properties::AS_VALUE),
        ("hb.time.ns", ValueType::UInt, summed),
        ("hb.clock", ValueType::UInt, summed),
        ("hb.peer", ValueType::Int, Properties::AS_VALUE),
        ("hb.tag", ValueType::UInt, Properties::AS_VALUE),
    ]
    .map(|(name, vtype, props)| block.column_for(ds.attribute(name, vtype, props).id(), vtype));
    for (r, events) in trace.events.iter().enumerate() {
        for (i, ev) in events.iter().enumerate() {
            block.push_imm(rank, Cell::Int(r as i64));
            block.push_imm(event, Cell::Str(strings.intern(ev.kind.name())));
            block.push_imm(time, Cell::UInt(ev.at_ns));
            block.push_imm(clock, Cell::UInt(i as u64 + 1));
            if let Some(p) = ev.kind.peer() {
                block.push_imm(peer, Cell::Int(p as i64));
            }
            if let Some(t) = ev.kind.tag() {
                block.push_imm(tag, Cell::UInt(u64::from(t)));
            }
            assert!(block.end_row(), "a trace of more than 2^32 entries");
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    CaliWriter::new(&mut out).write_block(&ds, &strings, &block)?;
    out.flush()
}
