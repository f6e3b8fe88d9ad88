//! The file-set fold: analytical aggregation over many input files.
//!
//! This is the shared-memory sibling of the cross-process tree reduction
//! (paper §IV-C): where `mpi-caliquery` distributes input files over
//! simulated MPI ranks and reduces partial aggregations up a binomial
//! tree, this module distributes them over a pool of worker threads in
//! one process and folds the partials into a root [`Pipeline`]. Both
//! lean on the same algebraic property — partial aggregation databases
//! are mergeable ([`Aggregator::merge`](crate::Aggregator::merge)) — so
//! the two scaling strategies compose: each rank of a distributed query
//! could itself shard over local cores.
//!
//! [`parallel_query_files`] is the only aggregation driver `cali-query`
//! has. `--threads 1` is this pool with one worker — the calling thread,
//! nothing spawned — not a second code path.
//!
//! # Design: a local accumulate and an ordered eager merge
//!
//! * **The file is the work unit.** A file's contribution is its records
//!   folded in stream order into a private [`Pipeline`] (LET → WHERE →
//!   aggregate) by [`Pipeline::scan_file`] — decode and aggregation are
//!   one pass, one block in memory at a time. It is a function of the
//!   file's bytes and the query alone, and the same fold a rank of
//!   `mpi-caliquery` runs over the file.
//! * **Worker pool.** The calling thread is worker 0 and up to
//!   `threads − 1` more are spawned — never more workers than files, a
//!   worker beyond the file count could not be handed one. Workers take
//!   files off a shared counter, and the hot record-processing path
//!   takes **zero cross-thread locks**: a worker touches only its local
//!   aggregation database, exactly like the runtime's per-thread on-line
//!   databases (§IV-B).
//! * **Ordered eager merge.** A worker that finishes a file parks the
//!   file's pipeline under the one lock of the run. Whoever then holds
//!   the next file in input order merges it — and any parked successors
//!   — into the root pipeline, in ascending file order. With one worker
//!   every file is the next file: it is merged the moment it is scanned
//!   and before the next one is opened, so memory is bounded by the
//!   largest file's database plus the root. With N workers only files
//!   that finished ahead of a slower predecessor stay parked. The root
//!   then runs the ordinary [`finish`](Pipeline::finish) (ORDER BY →
//!   SELECT → FORMAT).
//! * **Failures in file order.** A file fails when its read fails or,
//!   after a successful read, its `shard.merge` failpoint fires — both
//!   decided when the file's turn to merge comes, so per file index.
//!   Without [`ParallelOptions::degrade`] the lowest-index failing
//!   file's error is returned and workers stop taking files; with it the
//!   file is dropped, recorded as a [`ShardFailure`], and the fold goes
//!   on.
//!
//! # The result does not depend on the worker count
//!
//! A file's contribution is its records folded in stream order,
//! whichever worker reads it, and files merge into the root in input
//! order (the merge-order contract, DESIGN.md §6), so the root performs
//! the same sequence of [`Aggregator::merge`](crate::Aggregator::merge)
//! operations every time: scheduling can only change *who* computes a
//! partial and *when*. This is why the root is merged in input order
//! instead of letting each worker pre-merge the files it happens to
//! process: for integer reductions pre-merging would be fine
//! (count/sum/min/max are associative and commutative), but
//! floating-point addition is not associative, so any
//! scheduling-dependent merge order could flip low-order bits between
//! runs. Ordered merging buys bit-for-bit reproducibility at the cost of
//! parking the databases of out-of-order files — key-count sized, not
//! record-count sized.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use caliper_format::{CaliError, Dataset, Pushdown, ReadPolicy, ReadReport, Schema};

use crate::parser::{parse_query, ParseError};
use crate::pushdown::build_pushdown;
use crate::query::{Pipeline, QueryResult};

/// Tuning knobs for [`parallel_query_files`].
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Worker thread count; `0` means "use available parallelism". A
    /// run never has more workers than files.
    pub threads: usize,
    /// How workers treat malformed input files (strict by default; see
    /// [`ReadPolicy::Lenient`] for skip-and-report ingest).
    pub read_policy: ReadPolicy,
    /// Group capacity per aggregation shard and for the merged root
    /// database (`None` = unbounded). See
    /// [`Aggregator::set_max_groups`](crate::Aggregator::set_max_groups).
    pub max_groups: Option<usize>,
    /// WHERE-predicate pushdown handed to every worker's reader so
    /// block-structured inputs (CALB v2) can skip irrelevant blocks.
    /// `None` builds it from the query (see [`build_pushdown`]); pass an
    /// empty one to scan every block.
    pub pushdown: Option<Arc<Pushdown>>,
    /// Graceful degradation: when a file's shard fails terminally (its
    /// read exhausted the transient-error retries, or the `shard.merge`
    /// failpoint fired), drop that file's contribution and record a
    /// [`ShardFailure`] instead of aborting the whole query. Failures
    /// are decided per *file index*, so degraded output is byte-identical
    /// across thread counts.
    pub degrade: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 0,
            read_policy: ReadPolicy::Strict,
            max_groups: None,
            pushdown: None,
            degrade: false,
        }
    }
}

impl ParallelOptions {
    /// Options for a fixed worker count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelOptions {
            threads,
            ..Default::default()
        }
    }

    /// Builder-style read-policy override.
    pub fn with_read_policy(mut self, policy: ReadPolicy) -> Self {
        self.read_policy = policy;
        self
    }

    /// Builder-style group-capacity override.
    pub fn with_max_groups(mut self, cap: Option<usize>) -> Self {
        self.max_groups = cap;
        self
    }

    /// Builder-style pushdown override (see
    /// [`ParallelOptions::pushdown`]).
    pub fn with_pushdown(mut self, pushdown: Option<Arc<Pushdown>>) -> Self {
        self.pushdown = pushdown;
        self
    }

    /// Builder-style graceful-degradation override (see
    /// [`ParallelOptions::degrade`]).
    pub fn with_degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// The effective worker count: `threads`, or the machine's available
    /// parallelism when `threads` is 0.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Errors from the parallel query engine.
#[derive(Debug)]
pub enum ParallelQueryError {
    /// The query text does not parse.
    Parse(ParseError),
    /// The query has no AGGREGATE clause: a pass-through query needs
    /// every record in one place and gains nothing from sharding — run
    /// it on the serial path instead.
    NotAnAggregation,
    /// An input file failed to read or parse; the error names the file
    /// ([`CaliError::File`]).
    Read(CaliError),
}

impl std::fmt::Display for ParallelQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelQueryError::Parse(e) => write!(f, "query error: {e}"),
            ParallelQueryError::NotAnAggregation => {
                write!(f, "parallel execution requires an aggregation query")
            }
            ParallelQueryError::Read(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParallelQueryError {}

impl From<ParseError> for ParallelQueryError {
    fn from(e: ParseError) -> Self {
        ParallelQueryError::Parse(e)
    }
}

/// One worker's contribution to a run, for the per-worker timing
/// breakdown (the shared-memory analogue of `ParallelTimings` in
/// `cali-cli`).
#[derive(Debug, Clone, Default)]
pub struct WorkerTimings {
    /// Seconds spent reading and decoding input files.
    pub read_s: f64,
    /// Seconds spent aggregating records into the files' pipelines.
    pub process_s: f64,
    /// Files this worker read and aggregated.
    pub files: usize,
    /// Snapshot records this worker aggregated.
    pub records: u64,
}

/// One file's shard dropped from a degraded run
/// ([`ParallelOptions::degrade`]).
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Input-file index of the dropped shard.
    pub file: usize,
    /// Path of the dropped file.
    pub path: PathBuf,
    /// Why the shard failed (retry-exhausted read error or injected
    /// merge fault), as reported to the user.
    pub error: String,
}

/// Timing breakdown of one parallel query run, plus what reading the
/// files turned up: the per-file read reports (what lenient ingest
/// skipped) and the attribute schema they declare.
#[derive(Debug, Clone, Default)]
pub struct ShardTimings {
    /// Per-worker read/process breakdown, indexed by worker id: one per
    /// worker the run had, `min(threads, files)` and at least one.
    pub workers: Vec<WorkerTimings>,
    /// Seconds spent under the merge lock, merging files into the root
    /// as their turn came.
    pub merge_s: f64,
    /// Seconds the root spent finishing: the flush, ORDER BY, LIMIT and
    /// SELECT ([`Pipeline::finish`]), up to the result and short of its
    /// rendering.
    pub finish_s: f64,
    /// Per-file [`ReadReport`]s in input-file order (one per file that
    /// was read; under [`ReadPolicy::Strict`] these are all clean).
    pub reports: Vec<ReadReport>,
    /// Shards dropped under [`ParallelOptions::degrade`], in ascending
    /// file order (empty when the run was complete). A non-empty list
    /// means the result is partial — `cali-query` reports each failure
    /// on stderr and exits 2.
    pub failures: Vec<ShardFailure>,
    /// The attributes the files that were read declare: each file's
    /// dictionary as its scan built it, observed in input-file order (one
    /// name with two types across files is `mixed`). What the query is
    /// linted against — the streams describe themselves, so the read
    /// that answers the query is the read that learns the schema.
    pub schema: Schema,
}

impl ShardTimings {
    /// The slowest worker's busy time (read + process, merging aside) —
    /// the critical path of the parallel phase.
    pub fn worker_max_s(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.read_s + w.process_s)
            .fold(0.0, f64::max)
    }

    /// Critical-path total: slowest worker, then merge, then finish.
    pub fn total_s(&self) -> f64 {
        self.worker_max_s() + self.merge_s + self.finish_s
    }
}

/// A scanned file waiting for its turn to merge: its pipeline and its
/// read report, or why the read failed.
type Scan = Result<(Pipeline, ReadReport), CaliError>;

/// The root of the fold and everything decided in file order. One lock
/// guards it; workers hold it to park a file and to merge.
#[derive(Default)]
struct OrderedMerge<'a> {
    paths: &'a [PathBuf],
    degrade: bool,
    root: Option<Pipeline>,
    /// The file whose turn it is: every file below is merged or dropped.
    next: usize,
    /// Files scanned ahead of `next`.
    parked: BTreeMap<usize, Scan>,
    /// Without `degrade`: the lowest-index failing file's error.
    error: Option<CaliError>,
    /// The run's `reports`, `failures` and `merge_s`, filled in as files
    /// take their turn.
    timings: ShardTimings,
}

impl OrderedMerge<'_> {
    /// Park `file`, then merge every parked file whose turn has come, in
    /// ascending file order. The order — and with it the fault
    /// decisions, which are keyed on the file index — depends on the
    /// file list alone, never on which worker gets here when.
    fn park(&mut self, file: usize, scan: Scan) {
        self.parked.insert(file, scan);
        let start = Instant::now();
        let paths = self.paths;
        while self.error.is_none() {
            let Some(scan) = self.parked.remove(&self.next) else { break };
            let path = &paths[self.next];
            // The merge failpoint fires only after a successful read, so
            // a file that fails both ways is reported as unreadable.
            let merged = scan.and_then(|(pipeline, report)| {
                self.timings.reports.push(report);
                self.timings.schema.extend(pipeline.input_attributes());
                shard_merge_fault(self.next, path).map_or(Ok(pipeline), Err)
            });
            match merged {
                Ok(pipeline) => match &mut self.root {
                    Some(root) => root.merge(pipeline),
                    None => self.root = Some(pipeline),
                },
                Err(e) if self.degrade => {
                    // Stable, so degraded `--stats` output is the same
                    // for every thread count.
                    caliper_data::metrics::global()
                        .counter("query.shards_failed")
                        .inc();
                    self.timings.failures.push(ShardFailure {
                        file: self.next,
                        path: path.clone(),
                        error: e.to_string(),
                    });
                }
                Err(e) => self.error = Some(e),
            }
            self.next += 1;
        }
        self.timings.merge_s += start.elapsed().as_secs_f64();
    }
}

/// Runs an aggregation `query` over `paths` with a pool of
/// `min(`[`ParallelOptions::threads`]`, paths.len())` workers, at least
/// one — the calling thread and the rest spawned — returning the result
/// and the per-worker timing breakdown.
///
/// The output is deterministic and independent of the worker count —
/// see the [module docs](self) for the argument. Pass-through queries
/// are rejected with [`ParallelQueryError::NotAnAggregation`]: they need
/// every record in one place, so there is nothing to fold.
pub fn parallel_query_files<P: AsRef<Path>>(
    query: &str,
    paths: &[P],
    options: &ParallelOptions,
) -> Result<(QueryResult, ShardTimings), ParallelQueryError> {
    let spec = parse_query(query)?;
    if !spec.is_aggregation() {
        return Err(ParallelQueryError::NotAnAggregation);
    }
    // The file is the work unit: a worker beyond the file count could
    // never be handed one.
    let threads = options.effective_threads().min(paths.len()).max(1);
    let max_groups = options.max_groups;
    // One pushdown instance for every worker: block skipping is a pure
    // function of (input bytes, pushdown), so sharing it keeps reads —
    // and the `blocks_skipped` accounting — thread-count independent.
    let pushdown: Option<Arc<Pushdown>> = options.pushdown.clone().or_else(|| {
        let pd = build_pushdown(&spec, None);
        (!pd.is_empty()).then(|| Arc::new(pd))
    });
    let paths: Vec<PathBuf> = paths.iter().map(|p| p.as_ref().to_path_buf()).collect();

    let merge = Mutex::new(OrderedMerge {
        paths: &paths,
        degrade: options.degrade,
        ..Default::default()
    });
    // Workers take the next unread file until none is left.
    let next_file = AtomicUsize::new(0);
    let worker = || -> WorkerTimings {
        let mut timings = WorkerTimings::default();
        loop {
            // Relaxed: the counter hands out indices and publishes nothing.
            let file = next_file.fetch_add(1, Ordering::Relaxed);
            let Some(path) = paths.get(file) else { break };
            let start = Instant::now();
            let dict = Dataset::new();
            let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store))
                .with_max_groups(max_groups);
            let scanned =
                pipeline.scan_file(path, dict, options.read_policy, pushdown.as_deref());
            timings.files += 1;
            timings.read_s += start.elapsed().as_secs_f64();
            let scan = scanned.map(|scanned| {
                timings.read_s -= scanned.fold_s;
                timings.process_s += scanned.fold_s;
                timings.records += scanned.records;
                (pipeline, scanned.report)
            });
            let mut merge = merge.lock().expect("no worker panics while merging");
            merge.park(file, scan);
            if merge.error.is_some() {
                // Every file below the failing one is already taken, so
                // what is left to hand out cannot change the answer.
                next_file.store(paths.len(), Ordering::Relaxed);
            }
        }
        timings
    };
    let workers: Vec<WorkerTimings> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut workers = vec![worker()];
        workers.extend(
            spawned
                .into_iter()
                .map(|handle| handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))),
        );
        workers
    });

    let merge = merge.into_inner().expect("no worker panics while merging");
    if let Some(e) = merge.error {
        return Err(ParallelQueryError::Read(e));
    }
    let metrics = caliper_data::metrics::global();
    metrics
        .gauge_volatile("query.parallel.workers")
        .set_max(threads as u64);
    let root = merge.root.unwrap_or_else(|| {
        Pipeline::new(spec, Arc::new(caliper_data::AttributeStore::new()))
            .with_max_groups(max_groups)
    });
    let mut timings = merge.timings;
    timings.workers = workers;
    let t0 = Instant::now();
    let result = root.finish();
    timings.finish_s = t0.elapsed().as_secs_f64();
    Ok((result, timings))
}

/// Fire the `shard.merge` failpoint for input file `file`. Keyed on the
/// file index with the path as the filter label, so a spec drops the
/// same files' shards on every run and every thread count. Returns the
/// injected error to attribute to the shard.
fn shard_merge_fault(file: usize, path: &Path) -> Option<CaliError> {
    let label = path.to_string_lossy();
    caliper_faults::trigger(caliper_faults::sites::SHARD_MERGE, file as u64, &label).map(|_| {
        CaliError::Io(caliper_format::retry::injected_error(
            caliper_faults::sites::SHARD_MERGE,
        ))
        .with_path(path)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType};
    use caliper_format::{cali, Dataset};

    fn write_inputs(dir: &Path, files: usize, records: usize) -> Vec<PathBuf> {
        std::fs::create_dir_all(dir).unwrap();
        (0..files)
            .map(|f| {
                let mut ds = Dataset::new();
                let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
                let time = ds.attribute(
                    "time",
                    ValueType::Int,
                    Properties::AS_VALUE | Properties::AGGREGATABLE,
                );
                let names = ["alpha", "beta", "gamma"];
                for i in 0..records {
                    let node = ds.tree.get_child(
                        caliper_data::NODE_NONE,
                        kernel.id(),
                        &Value::str(names[(f + i) % names.len()]),
                    );
                    let mut rec = SnapshotRecord::new();
                    rec.push_node(node);
                    rec.push_imm(time.id(), Value::Int((i * (f + 1)) as i64));
                    ds.push(rec);
                }
                let path = dir.join(format!("rank{f}.cali"));
                cali::write_file(&ds, &path).unwrap();
                path
            })
            .collect()
    }

    const QUERY: &str = "AGGREGATE count, sum(time), min(time), max(time) GROUP BY kernel";

    #[test]
    fn thread_counts_agree_bytewise() {
        let dir = std::env::temp_dir().join("caliper-parallel-test-agree");
        let paths = write_inputs(&dir, 5, 40);
        let mut renders = Vec::new();
        for threads in [1, 2, 3, 8] {
            let (result, _) = parallel_query_files(
                QUERY,
                &paths,
                &ParallelOptions::with_threads(threads),
            )
            .unwrap();
            renders.push(result.render());
        }
        assert!(renders.windows(2).all(|w| w[0] == w[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capped_parallel_runs_agree_across_thread_counts() {
        let dir = std::env::temp_dir().join("caliper-parallel-test-capped");
        let paths = write_inputs(&dir, 4, 60);
        // Fewer groups than the 3 kernels in the workload.
        let opts = |threads| ParallelOptions::with_threads(threads).with_max_groups(Some(2));
        let (reference, _) = parallel_query_files(QUERY, &paths, &opts(1)).unwrap();
        assert!(reference.overflow_records > 0);
        for threads in [2, 3, 8] {
            let (result, _) = parallel_query_files(QUERY, &paths, &opts(threads)).unwrap();
            assert_eq!(result.render(), reference.render(), "threads = {threads}");
            assert_eq!(result.overflow_records, reference.overflow_records);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_parallel_reads_collect_per_file_reports() {
        let dir = std::env::temp_dir().join("caliper-parallel-test-lenient");
        let mut paths = write_inputs(&dir, 3, 20);
        // Append a corrupt line to the middle file.
        let damaged = paths[1].clone();
        let mut text = std::fs::read_to_string(&damaged).unwrap();
        text.push_str("this is not a cali record\n");
        std::fs::write(&damaged, text).unwrap();

        // Strict mode fails and names the file.
        let err =
            parallel_query_files(QUERY, &paths, &ParallelOptions::with_threads(4)).unwrap_err();
        assert!(err.to_string().contains("rank1.cali"), "{err}");

        // Lenient mode succeeds; reports come back in file order.
        let opts = ParallelOptions::with_threads(4).with_read_policy(ReadPolicy::lenient());
        let (result, timings) = parallel_query_files(QUERY, &paths, &opts).unwrap();
        assert!(!result.render().is_empty());
        assert_eq!(timings.reports.len(), 3);
        let skipped: Vec<u64> = timings.reports.iter().map(|r| r.skipped).collect();
        assert_eq!(skipped, [0, 1, 0]);
        assert!(timings.reports[1]
            .path
            .as_deref()
            .is_some_and(|p| p.ends_with("rank1.cali")));

        // Clean-file results are unaffected by the damaged file's policy:
        // strict over the clean subset == lenient over everything, because
        // the corrupt trailing line contributed no records either way.
        paths.remove(1);
        let damaged_only = [damaged];
        let (strict_two, _) = parallel_query_files(
            QUERY,
            &damaged_only,
            &ParallelOptions::with_threads(1).with_read_policy(ReadPolicy::lenient()),
        )
        .unwrap();
        assert!(!strict_two.render().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_errors_name_the_file() {
        let dir = std::env::temp_dir().join("caliper-parallel-test-err");
        let mut paths = write_inputs(&dir, 2, 10);
        paths.push(dir.join("missing.cali"));
        let err =
            parallel_query_files(QUERY, &paths, &ParallelOptions::with_threads(4)).unwrap_err();
        assert!(err.to_string().contains("missing.cali"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pass_through_queries_are_rejected() {
        let err = parallel_query_files(
            "SELECT kernel FORMAT csv",
            &Vec::<PathBuf>::new(),
            &ParallelOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ParallelQueryError::NotAnAggregation));
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let (result, timings) = parallel_query_files(
            QUERY,
            &Vec::<PathBuf>::new(),
            &ParallelOptions::with_threads(2),
        )
        .unwrap();
        assert!(result.records.is_empty());
        // No file, no second worker: the calling thread is the pool.
        assert_eq!(timings.workers.len(), 1);
    }
}
