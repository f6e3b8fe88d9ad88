//! # cali-cli — the off-line query applications
//!
//! Library backing the two binaries (paper §IV-C):
//!
//! * `cali-query` — analytical aggregation over `.cali` files, folded
//!   by [`caliper_query::parallel_query_files`] on `--threads N` workers.
//! * `mpi-caliquery` — the scalable parallel query application: each
//!   (simulated) MPI process aggregates its assigned input files
//!   locally, then partial results are combined up a binomial reduction
//!   tree to rank 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod lint;
pub mod parallel;

pub use args::{parse_args, CliArgs, UsageError};
pub use lint::{check_query, exit_code, infer_schema, summary_line, CheckedQuery};
pub use parallel::{local_pipeline, parallel_query, ParallelError, ParallelTimings, QueryRun};

use caliper_format::{scan_path, BlockSink, CaliError, Dataset, ReadPolicy, ReadReport};

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
