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
//! [`fold_files`] is the only code that folds a list of files into a
//! pipeline. [`parallel_query_files`] — all of `cali-query` — is a parse,
//! that fold and the root's [`finish`](Pipeline::finish); each rank of
//! `mpi-caliquery` calls the fold over its own files with one worker and
//! ships the unfinished root up the tree. `--threads 1` is this pool with
//! one worker — the calling thread, nothing spawned — not a second code
//! path. A pass-through query keeps its matching rows against one
//! dictionary, so it always runs on one worker, and each file after the
//! first scans into the root whole: no part, and one store for every
//! kept row.
//!
//! # Design: a lent root, and an ordered eager merge for the rest
//!
//! * **The file is the work unit.** A file's contribution is its records
//!   folded in stream order (LET → WHERE → aggregate) by
//!   [`Pipeline::scan_file`] — decode and aggregation are one pass, one
//!   block in memory at a time — as if into a database that held
//!   nothing. It is a function of the file's bytes and the query alone,
//!   and the same fold a rank of `mpi-caliquery` runs over the file.
//! * **Worker pool.** The calling thread is worker 0 and up to
//!   `threads − 1` more are spawned — never more workers than files, a
//!   worker beyond the file count could not be handed one. The hot
//!   record-processing path takes **zero cross-thread locks**: a worker
//!   touches only the database it folds into, exactly like the
//!   runtime's per-thread on-line databases (§IV-B).
//! * **One step per file boundary.** Everything decided in file order
//!   sits under the run's one lock, and a worker takes it once between
//!   two files, to *settle* the file it read and be handed the next
//!   (`OrderedMerge::settle`): the file is settled at once if its turn
//!   has come — parked only if it is ahead of its turn — then every
//!   parked successor whose turn has come, in ascending file order; then
//!   the next unread file is handed out, with the root if its turn has
//!   come. At one worker every file is settled in its turn, and nothing
//!   is ever parked.
//! * **The root is lent to the file whose turn it is.** A file handed
//!   out in its turn — the root existing and no group capacity set — can
//!   have nothing merge before it, so its worker takes the root along and
//!   folds the file into an open *part* of it (`Pipeline::scan_part`): a
//!   second set of state columns over the root's groups, which the file
//!   fills as a database of its own would be filled, while its new keys
//!   join the root's one group table. The file's own dictionary and store
//!   stay its own; the fold resolves against them. When the file is
//!   settled the part is closed — each group it touched combines its part
//!   row into its root row through the one column-at-a-time combine that
//!   [`Aggregator::merge`](crate::Aggregator::merge) also runs, with no
//!   key hashed and no string translated — or dropped, leaving no trace.
//!   With one worker every file after the first is folded this way: one
//!   pipeline, one group table and no key-by-key merge.
//! * **Ordered eager merge for the rest.** The first file (there is no
//!   root yet; its pipeline becomes the root, and its store the root's
//!   dictionary), every file a worker opened ahead of its turn, and every
//!   file of a capped run fold into a private [`Pipeline`], which is
//!   merged into the root, key by key, when the file is settled. A capped
//!   run never lends the root: `--max-groups` admits a file's keys
//!   first-come and then the root admits them in sorted key order, which
//!   a part cannot reproduce. The root then runs the ordinary
//!   [`finish`](Pipeline::finish) (ORDER BY → SELECT → FORMAT).
//! * **What the files declare, kept per file.** A scan reports the
//!   attributes it added to its dictionary
//!   ([`Scanned::declared`](crate::Scanned::declared)); settling a file
//!   keeps that list, and [`ShardTimings::schema`] builds the run's
//!   schema from the lists only when asked — `cali-query`'s lint does, a
//!   rank of `mpi-caliquery` does not.
//! * **Failures in file order.** A file fails when its read fails or,
//!   after a successful read, its `shard.merge` failpoint fires — both
//!   decided when the file is settled, so per file index. A failed read
//!   drops its part at once; a fired failpoint drops it then. Without
//!   [`ParallelOptions::degrade`] the lowest-index failing file's error
//!   is returned and no file is handed out after it; with it the file is
//!   dropped, recorded as a [`ShardFailure`], and the fold goes on.
//!
//! # The result does not depend on the worker count
//!
//! A file's contribution is its records folded in stream order,
//! whichever worker reads it and whether into a pipeline of its own or
//! into a part, and contributions merge into the root in input order
//! (the merge-order contract, DESIGN.md §6): each group of the root
//! receives the same per-file partials, by the same per-group merge, in
//! the same order, every time — a group new to the root receives its
//! first partial by a merge into an empty group either way. Scheduling
//! can only change *who* computes a partial, *when*, and whether it is
//! parked. This is why contributions merge in input order instead of
//! letting each worker pre-merge the files it happens to process: for
//! integer reductions pre-merging would be fine (count/sum/min/max are
//! associative and commutative), but floating-point addition is not
//! associative, so any scheduling-dependent merge order could flip
//! low-order bits between runs. It is also why a part is closed per
//! file rather than once at the end: one part over every file would fold
//! them all left to right, another order of additions. Ordered merging
//! buys bit-for-bit reproducibility at the cost of parking the databases
//! of out-of-order files — key-count sized, not record-count sized.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use caliper_data::Attribute;
use caliper_format::{CaliError, Dataset, Pushdown, ReadPolicy, ReadReport, Schema};

use crate::aggregator::Aggregator;
use crate::ast::QuerySpec;
use crate::parser::{parse_query, ParseError};
use crate::pushdown::build_pushdown;
use crate::query::{Pipeline, QueryResult};

/// Tuning knobs for [`parallel_query_files`]. The default: available
/// parallelism, strict reads, no group capacity, the query's own
/// pushdown, no degradation.
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// Worker thread count; `0` means "use available parallelism". A
    /// run never has more workers than files.
    pub threads: usize,
    /// How workers treat malformed input files (strict by default; see
    /// [`ReadPolicy::Lenient`] for skip-and-report ingest).
    pub read_policy: ReadPolicy,
    /// Group capacity per aggregation shard and for the merged root
    /// database (`None` = unbounded; a pass-through query holds rows, not
    /// groups, and ignores it). See
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
    /// across thread counts. Aggregations only: a pass-through run stops
    /// at its first failed file.
    pub degrade: bool,
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
    /// An input file failed to read or parse; the error names the file
    /// ([`CaliError::File`]).
    Read(CaliError),
}

impl std::fmt::Display for ParallelQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelQueryError::Parse(e) => write!(f, "query error: {e}"),
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
/// skipped) and the attributes they declare.
#[derive(Debug, Clone, Default)]
pub struct ShardTimings {
    /// Per-worker read/process breakdown, indexed by worker id: one per
    /// worker the run had, `min(threads, files)` and at least one.
    pub workers: Vec<WorkerTimings>,
    /// Seconds spent under the merge lock as files took their turn:
    /// closing the parts of the root files were folded into, and merging
    /// parked files into the root.
    pub merge_s: f64,
    /// Seconds the root spent finishing: the flush, ORDER BY, LIMIT and
    /// SELECT ([`Pipeline::finish`]), up to the result and short of its
    /// rendering (0 from [`fold_files`], which leaves the root unfinished).
    pub finish_s: f64,
    /// Per-file [`ReadReport`]s in input-file order (one per file that
    /// was read; under [`ReadPolicy::Strict`] these are all clean).
    pub reports: Vec<ReadReport>,
    /// Shards dropped under [`ParallelOptions::degrade`], in ascending
    /// file order (empty when the run was complete). A non-empty list
    /// means the result is partial — `cali-query` reports each failure
    /// on stderr and exits 2.
    pub failures: Vec<ShardFailure>,
    /// Per file that was read, in input-file order, what it declares
    /// ([`Scanned::declared`](crate::Scanned::declared)); see
    /// [`schema`](Self::schema).
    declared: Vec<Vec<Attribute>>,
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

    /// The attributes the files that were read declare, observed in
    /// input-file order (one name with two types across files is
    /// `mixed`): what the query is linted against — the streams describe
    /// themselves, so the read that answers the query is the read that
    /// learns the schema. Built when asked for; a run keeps each file's
    /// list alone.
    pub fn schema(&self) -> Schema {
        self.declared.iter().flatten().cloned().collect()
    }
}

/// A scanned file waiting for its turn: the pipeline of its own it was
/// folded into, to merge into the root — `None` where it was folded into
/// an open part of the root, lent to its worker, to close — what it
/// declares and its read report; or why the read failed.
type Scan = Result<(Option<Pipeline>, Vec<Attribute>, ReadReport), CaliError>;

/// A file a worker is done with: its index, its scan, and the root if
/// it was lent for the file.
type Done = (usize, Scan, Option<Pipeline>);

/// The root of the fold and everything decided in file order. One lock
/// guards it, and a worker holds it once per file boundary
/// ([`settle`](Self::settle)).
#[derive(Default)]
struct OrderedMerge<'a> {
    paths: &'a [&'a Path],
    degrade: bool,
    /// Whether the root may be lent: not under a group capacity.
    lendable: bool,
    root: Option<Pipeline>,
    /// The next file to hand out.
    unread: usize,
    /// The file whose turn it is: every file below is merged or dropped.
    next: usize,
    /// Files scanned ahead of their turn.
    parked: BTreeMap<usize, Scan>,
    /// Without `degrade`: the lowest-index failing file's error.
    error: Option<CaliError>,
    /// The run's `reports`, `failures`, declared attributes and
    /// `merge_s`, filled in as files take their turn.
    timings: ShardTimings,
}

impl OrderedMerge<'_> {
    /// A worker's one step at a file boundary. It settles the file it is
    /// `done` with — at once if its turn has come, else parked — and then
    /// every parked file whose turn has come, in ascending file order: a
    /// file's part is closed, a file's own pipeline merged into the root.
    /// Then it hands out the next unread file, with the root if that
    /// file's turn has come: nothing else can settle before it, so the
    /// worker folds it straight into a part of the root, which comes
    /// back with the file. After an error nothing is handed out: every
    /// file below the failing one is taken already, so what is left
    /// cannot change the answer. The order — and with it the fault
    /// decisions, which are keyed on the file index — depends on the
    /// file list alone, never on which worker gets here when.
    fn settle(&mut self, done: Option<Done>) -> Option<(usize, Option<Pipeline>)> {
        let start = Instant::now();
        let mut turn = None;
        if let Some((file, scan, lent)) = done {
            self.root = self.root.take().or(lent);
            if file == self.next {
                turn = Some(scan);
            } else {
                self.parked.insert(file, scan);
            }
        }
        while self.error.is_none() {
            let Some(scan) = turn.take().or_else(|| self.parked.remove(&self.next)) else {
                break;
            };
            self.take_turn(scan);
        }
        self.timings.merge_s += start.elapsed().as_secs_f64();
        let file = self.unread;
        if self.error.is_some() || file == self.paths.len() {
            return None;
        }
        self.unread += 1;
        let lent = if self.lendable && file == self.next {
            self.root.take()
        } else {
            None
        };
        Some((file, lent))
    }

    /// Settle the file whose turn it is, `next`, from its scan.
    fn take_turn(&mut self, scan: Scan) {
        let path = self.paths[self.next];
        // The merge failpoint fires only after a successful read, so a
        // file that fails both ways is reported as unreadable. (A failed
        // read dropped its part already.)
        let merged = scan.and_then(|(own, declared, report)| {
            self.timings.reports.push(report);
            self.timings.declared.push(declared);
            let Some(e) = shard_merge_fault(self.next, path) else {
                return Ok(own);
            };
            if let Some(part) = part_of(&mut self.root).filter(|_| own.is_none()) {
                part.drop_part();
            }
            Err(e)
        });
        match merged {
            Ok(Some(pipeline)) => match &mut self.root {
                Some(root) => root.merge(pipeline),
                None => self.root = Some(pipeline),
            },
            Ok(None) => {
                if let Some(part) = part_of(&mut self.root) {
                    part.close_part();
                }
            }
            Err(e) if self.degrade => {
                // Stable, so degraded `--stats` output is the same for
                // every thread count.
                caliper_data::metrics::global()
                    .counter("query.shards_failed")
                    .inc();
                self.timings.failures.push(ShardFailure {
                    file: self.next,
                    path: path.to_path_buf(),
                    error: e.to_string(),
                });
            }
            Err(e) => self.error = Some(e),
        }
        self.next += 1;
    }
}

/// The aggregation of the root a file was folded into a part of — none
/// for a pass-through root, which its files scan into whole.
fn part_of(root: &mut Option<Pipeline>) -> Option<&mut Aggregator> {
    root.as_mut()?.aggregator.as_deref_mut()
}

/// Folds `paths` into one unfinished root [`Pipeline`] for `spec` with a
/// pool of `min(`[`ParallelOptions::threads`]`, paths.len())` workers, at
/// least one — the calling thread and the rest spawned; a pass-through
/// query takes one — and returns it with the run's timing breakdown
/// (whose `finish_s` is left 0). The root is what finishing turns into
/// the result: [`parallel_query_files`] finishes it, a rank of
/// `mpi-caliquery` ships it up the tree.
///
/// The root does not depend on the worker count — see the
/// [module docs](self) for the argument. Errors name the lowest-index
/// failing file.
pub fn fold_files<P: AsRef<Path>>(
    spec: &QuerySpec,
    paths: &[P],
    options: &ParallelOptions,
) -> Result<(Pipeline, ShardTimings), CaliError> {
    let aggregation = spec.is_aggregation();
    // The file is the work unit: a worker beyond the file count could
    // never be handed one. A pass-through query's kept rows refer to one
    // store, which one worker lends from file to file.
    let threads = if aggregation {
        options.effective_threads().min(paths.len()).max(1)
    } else {
        1
    };
    let max_groups = options.max_groups.filter(|_| aggregation);
    // One pushdown instance for every worker: block skipping is a pure
    // function of (input bytes, pushdown), so sharing it keeps reads —
    // and the `blocks_skipped` accounting — thread-count independent.
    let pushdown: Option<Arc<Pushdown>> = options.pushdown.clone().or_else(|| {
        let pd = build_pushdown(spec, None);
        (!pd.is_empty()).then(|| Arc::new(pd))
    });
    let paths: Vec<&Path> = paths.iter().map(AsRef::as_ref).collect();

    let merge = Mutex::new(OrderedMerge {
        paths: &paths,
        degrade: options.degrade && aggregation,
        lendable: max_groups.is_none(),
        ..Default::default()
    });
    // A worker settles the file it read and takes the next, in one step
    // under the lock, until none is left.
    let worker = || -> WorkerTimings {
        let mut timings = WorkerTimings::default();
        let mut done = None;
        loop {
            let Some((file, mut lent)) = merge.lock().expect("no worker panics").settle(done)
            else {
                break;
            };
            let start = Instant::now();
            let (path, policy, pushdown) = (paths[file], options.read_policy, pushdown.as_deref());
            let scanned = match &mut lent {
                Some(root) if !aggregation => {
                    let dict =
                        Dataset::with_context(Arc::clone(&root.input_store), Default::default());
                    root.scan_file(path, dict, policy, pushdown)
                        .map(|s| (None, s))
                }
                Some(root) => root
                    .scan_part(path, Dataset::new(), policy, pushdown)
                    .map(|s| (None, s)),
                None => {
                    let dict = Dataset::new();
                    let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store))
                        .with_max_groups(max_groups);
                    let scanned = pipeline.scan_file(path, dict, policy, pushdown);
                    scanned.map(|s| (Some(pipeline), s))
                }
            };
            timings.files += 1;
            timings.read_s += start.elapsed().as_secs_f64();
            let scan = scanned.map(|(own, scanned)| {
                timings.read_s -= scanned.fold_s;
                timings.process_s += scanned.fold_s;
                timings.records += scanned.records;
                (own, scanned.declared, scanned.report)
            });
            done = Some((file, scan, lent));
        }
        timings
    };
    let workers: Vec<WorkerTimings> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut workers = vec![worker()];
        workers.extend(spawned.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        workers
    });

    let merge = merge.into_inner().expect("no worker panics while merging");
    if let Some(e) = merge.error {
        return Err(e);
    }
    let root = merge
        .root
        .unwrap_or_else(|| Pipeline::new(spec.clone(), Arc::default()).with_max_groups(max_groups));
    let mut timings = merge.timings;
    timings.workers = workers;
    Ok((root, timings))
}

/// Runs `query` over `paths`: parses it, folds the files
/// ([`fold_files`]) and finishes the root, returning the result and the
/// run's timing breakdown. The output is deterministic and independent
/// of the worker count.
pub fn parallel_query_files<P: AsRef<Path>>(
    query: &str,
    paths: &[P],
    options: &ParallelOptions,
) -> Result<(QueryResult, ShardTimings), ParallelQueryError> {
    let spec = parse_query(query)?;
    let (root, mut timings) =
        fold_files(&spec, paths, options).map_err(ParallelQueryError::Read)?;
    caliper_data::metrics::global()
        .gauge_volatile("query.parallel.workers")
        .set_max(timings.workers.len() as u64);
    let start = Instant::now();
    let result = root.finish();
    timings.finish_s = start.elapsed().as_secs_f64();
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
pub(crate) mod tests {
    use super::*;
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType};
    use caliper_format::{cali, Dataset};

    thread_local! {
        /// Pipelines made and aggregations merged on this thread (a
        /// run at one worker runs on the calling thread).
        pub(crate) static BUILT: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
    }

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
            let (result, _) =
                parallel_query_files(QUERY, &paths, &ParallelOptions::with_threads(threads))
                    .unwrap();
            renders.push(result.render());
        }
        assert!(renders.windows(2).all(|w| w[0] == w[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_worker_folds_every_file_into_the_one_root_and_merges_none() {
        let dir = std::env::temp_dir().join("caliper-parallel-test-lent");
        let paths = write_inputs(&dir, 5, 40);
        let run = |cap| {
            BUILT.with(|built| built.set((0, 0)));
            let opts = ParallelOptions::with_threads(1).with_max_groups(cap);
            let (result, _) = parallel_query_files(QUERY, &paths, &opts).unwrap();
            (result.render(), BUILT.with(|built| built.get()))
        };
        // The first file's pipeline is the root; every other file folds
        // into a part of it.
        let (lent, built) = run(None);
        assert_eq!(built, (1, 0), "(pipelines, merges) uncapped");
        // Capped, every file folds into a pipeline of its own and merges.
        let (parked, built) = run(Some(100));
        assert_eq!(built, (5, 4), "(pipelines, merges) capped");
        assert_eq!(lent, parked);
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

    /// A pass-through query folds on one worker, whatever `threads`
    /// asks, each file scanning into the root whole: the rows it keeps
    /// are the rows a fold over every file read into one dataset keeps,
    /// in file order, and a group capacity changes nothing.
    #[test]
    fn a_pass_through_query_folds_on_one_worker_into_one_pipeline() {
        let dir = std::env::temp_dir().join("caliper-parallel-test-pass-through");
        let paths = write_inputs(&dir, 3, 12);
        let text = "LET t2 = scale(time, 2) SELECT kernel, time, t2 WHERE time > 4 FORMAT csv";
        let mut all = Dataset::new();
        for path in &paths {
            all = caliper_format::read_path_into(path, all).unwrap();
        }
        let expect = crate::run_query(&all, text).unwrap().render();
        for cap in [None, Some(1)] {
            BUILT.with(|built| built.set((0, 0)));
            let opts = ParallelOptions::with_threads(4).with_max_groups(cap);
            let (result, timings) = parallel_query_files(text, &paths, &opts).unwrap();
            assert_eq!(
                BUILT.with(|built| built.get()),
                (1, 0),
                "(pipelines, merges)"
            );
            assert_eq!(result.render(), expect);
            assert_eq!(timings.workers.len(), 1);
            assert_eq!(timings.workers[0].files, 3);
            assert_eq!(timings.reports.len(), 3);
            // The schema is what the files declare: no LET output.
            let schema = timings.schema();
            assert!(schema.get("time").is_some() && schema.get("t2").is_none());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The run's schema is each file's declarations observed in input
    /// order, however the files were folded: one name of two types is
    /// `mixed`.
    #[test]
    fn a_name_two_files_declare_with_two_types_is_mixed_in_the_run_schema() {
        let dir = std::env::temp_dir().join("caliper-parallel-test-schema");
        let mut paths = write_inputs(&dir, 3, 8);
        let declared = [
            (ValueType::Int, Value::Int(3)),
            (ValueType::Float, Value::Float(0.5)),
        ];
        for (f, (vtype, value)) in declared.into_iter().enumerate() {
            let mut ds = Dataset::new();
            let x = ds.attribute("x", vtype, Properties::AS_VALUE);
            let mut rec = SnapshotRecord::new();
            rec.push_imm(x.id(), value);
            ds.push(rec);
            paths[f] = dir.join(format!("x{f}.cali"));
            cali::write_file(&ds, &paths[f]).unwrap();
        }
        for threads in [1, 2, 3] {
            let opts = ParallelOptions::with_threads(threads);
            let (_, timings) = parallel_query_files(QUERY, &paths, &opts).unwrap();
            let schema = timings.schema();
            let type_of = |name| schema.get(name).map(|attr| attr.type_name());
            assert_eq!(type_of("x"), Some("mixed"), "{threads} workers");
            assert_eq!(type_of("time"), Some("int"), "{threads} workers");
        }
        std::fs::remove_dir_all(&dir).ok();
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
