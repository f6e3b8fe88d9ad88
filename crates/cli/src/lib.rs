//! # cali-cli — the off-line query applications
//!
//! Library backing the two binaries (paper §IV-C):
//!
//! * `cali-query` — serial analytical aggregation over `.cali` files.
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
pub use parallel::{parallel_query, ParallelError, ParallelTimings, QueryRun};

use caliper_format::{CaliError, Dataset, Pushdown, ReadPolicy, ReadReport};

/// Read one `.cali` (text) or `CALB` (binary) file into a fresh
/// dataset, sniffing the flavor from the stream header. Errors name the
/// offending file ([`CaliError::File`]).
pub fn read_one(path: impl AsRef<std::path::Path>) -> Result<Dataset, CaliError> {
    caliper_format::read_path(path)
}

/// What [`query_files_streaming`] produces: the query result, one
/// [`ReadReport`] per file that was actually read (input order), and
/// one [`caliper_query::ShardFailure`] per file that was dropped.
pub type DegradedQueryOutcome = Result<
    (
        caliper_query::QueryResult,
        Vec<ReadReport>,
        Vec<caliper_query::ShardFailure>,
    ),
    Box<dyn std::error::Error>,
>;

/// Run an aggregation query over many files in streaming fashion: one
/// file is in memory at a time, partial aggregations are merged — the
/// serial analogue of the parallel query engine, bounding `cali-query`'s
/// memory by the largest input file instead of the whole dataset.
/// Pass-through (non-aggregating) queries need all records at once and
/// fall back to [`read_files_reported`], unfiltered.
///
/// Files are decoded under `policy`, and every pipeline — per-file
/// shards and the merged root alike — carries the `max_groups` cap, so
/// serial runs bound memory and overflow identically to the
/// thread-parallel engine. With a zone-map [`Pushdown`], CALB v2 blocks
/// whose zone maps prove no record can satisfy the pushed predicates
/// are skipped without decoding (counted in each [`ReadReport`]'s
/// `blocks_skipped`); pass the same instance the parallel engine uses
/// ([`caliper_query::ParallelOptions::with_pushdown`]) and the result —
/// and the skip counts — stay byte-identical across `--threads`.
///
/// When `degrade` is set, a file whose read fails terminally (retries
/// exhausted) or whose `shard.merge` failpoint fires is *dropped* —
/// recorded as a [`caliper_query::ShardFailure`] — instead of aborting
/// the query. This mirrors [`caliper_query::ParallelOptions::degrade`]
/// exactly: the same per-file-index fault decisions, the same surviving
/// files merged in the same order, so a degraded serial run is
/// byte-identical to a degraded `--threads N` run.
pub fn query_files_streaming<P: AsRef<std::path::Path>>(
    query: &str,
    paths: &[P],
    policy: ReadPolicy,
    max_groups: Option<usize>,
    pushdown: Option<&Pushdown>,
    degrade: bool,
) -> DegradedQueryOutcome {
    let spec = caliper_query::parse_query(query)?;
    if !spec.is_aggregation() {
        let (ds, reports) = read_files_reported(paths, policy)?;
        return Ok((caliper_query::run_query(&ds, query)?, reports, Vec::new()));
    }
    let mut reports = Vec::with_capacity(paths.len());
    let mut failures = Vec::new();
    let mut acc: Option<caliper_query::Pipeline> = None;
    for (file, path) in paths.iter().enumerate() {
        let path = path.as_ref();
        // One pipeline per file, however large: the whole file is one
        // work unit on the serial path.
        let dict = Dataset::new();
        let mut pipeline =
            caliper_query::Pipeline::new(spec.clone(), std::sync::Arc::clone(&dict.store))
                .with_max_groups(max_groups);
        let scanned = pipeline.scan_file(path, dict, policy, pushdown, usize::MAX);
        let fault = match &scanned {
            // Fire the merge failpoint only after a successful read, so
            // the per-key attempt counters advance exactly as on the
            // parallel path (which never reaches the root merge for a
            // file whose read failed).
            Ok(_) => caliper_query::shard_merge_fault(file, path),
            Err(_) => None,
        };
        let error = match (scanned, fault) {
            (Ok(scanned), None) => {
                reports.push(scanned.report);
                match &mut acc {
                    Some(root) => root.merge(pipeline),
                    None => acc = Some(pipeline),
                }
                continue;
            }
            (Ok(scanned), Some(e)) => {
                reports.push(scanned.report);
                e
            }
            (Err(e), _) => e,
        };
        if !degrade {
            return Err(error.into());
        }
        caliper_data::metrics::global()
            .counter("query.shards_failed")
            .inc();
        failures.push(caliper_query::ShardFailure {
            file,
            path: path.to_path_buf(),
            error: error.to_string(),
        });
    }
    let acc = acc.unwrap_or_else(|| {
        caliper_query::Pipeline::new(spec, std::sync::Arc::new(Default::default()))
            .with_max_groups(max_groups)
    });
    Ok((acc.finish(), reports, failures))
}

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
    let mut ds = Dataset::new();
    let mut reports = Vec::with_capacity(paths.len());
    for path in paths {
        // One reader per file: each stream has its own id space, which
        // the reader remaps into the shared dataset.
        let (merged, report) = caliper_format::read_path_into_reported(path, ds, policy)?;
        ds = merged;
        reports.push(report);
    }
    Ok((ds, reports))
}
