//! The parallel cross-process query engine (§IV-C).
//!
//! "In the MPI version, each process is assigned a subset of the data
//! files, and first applies the query on its assigned dataset. Then, we
//! organize the processes in a tree based on their rank, and perform a
//! logarithmic reduction: 'leaf' processes send the local aggregation
//! results to their parent, where the partial results are aggregated
//! again."
//!
//! The engine additionally reports the timing breakdown that Figure 4
//! plots: per-rank local read+process time, and the per-tree-level
//! merge times from which the critical-path reduction time is computed.
//! On a laptop all "ranks" share a few cores, so wall-clock weak
//! scaling is not observable directly; the critical path over the tree
//! levels is the machine-independent quantity (see DESIGN.md §3).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use caliper_format::{Dataset, ReadPolicy};
use caliper_query::{parse_query, ParseError, Pipeline, QueryResult, QuerySpec};
use mpisim::{
    gather, reduce_tree_resilient, Comm, Executor, FaultPlan, HbTrace, ReduceCoverage, ReduceTask,
    ResilienceOptions, SchedError, Topology,
};

/// Timing breakdown of one parallel query run.
#[derive(Debug, Clone, Default)]
pub struct ParallelTimings {
    /// Per-rank wall time for reading and processing the local input.
    pub local_s: Vec<f64>,
    /// Per-tree-level maximum merge time (critical path per level).
    pub level_merge_max_s: Vec<f64>,
    /// Critical-path reduction time: the sum of the level maxima.
    pub reduction_s: f64,
    /// Time rank 0 spent finishing (flush + sort + column resolution).
    pub finish_s: f64,
}

impl ParallelTimings {
    /// Maximum local read+process time over ranks.
    pub fn local_max_s(&self) -> f64 {
        self.local_s.iter().copied().fold(0.0, f64::max)
    }

    /// Estimated total critical-path runtime including I/O:
    /// max local + reduction + root finish.
    pub fn total_s(&self) -> f64 {
        self.local_max_s() + self.reduction_s + self.finish_s
    }
}

/// Errors from the parallel query engine.
#[derive(Debug)]
pub enum ParallelError {
    /// Query text failed to parse.
    Parse(ParseError),
    /// The query has no aggregation — partial results of a pass-through
    /// query cannot be merged across processes.
    NotAnAggregation,
    /// A rank failed to read its input files.
    Io(String),
    /// The scheduler detected that the run can never finish — a
    /// virtual deadlock, with the blocked ranks and wait cycles named.
    Deadlock(SchedError),
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::Parse(e) => write!(f, "query parse error: {e}"),
            ParallelError::NotAnAggregation => {
                f.write_str("parallel queries must aggregate (use AGGREGATE and/or GROUP BY)")
            }
            ParallelError::Io(m) => write!(f, "input error: {m}"),
            ParallelError::Deadlock(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParallelError {}

/// Tag used for the per-rank timing report.
struct RankReport {
    local_s: f64,
    /// (tree level, merge seconds) for each merge this rank performed.
    merges: Vec<(usize, f64)>,
}

/// Run `query` over `files_per_rank.len()` simulated query processes,
/// one thread each; rank `i` reads `files_per_rank[i]`. Returns the
/// result (from rank 0) and the timing breakdown.
pub fn parallel_query(
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
) -> Result<(QueryResult, ParallelTimings), ParallelError> {
    let spec = parse_query(query).map_err(ParallelError::Parse)?;
    if !spec.is_aggregation() {
        return Err(ParallelError::NotAnAggregation);
    }
    let size = files_per_rank.len().max(1);
    let spec = Arc::new(spec);
    let files = Arc::new(files_per_rank);

    let results = mpisim::run(size, move |mut comm: Comm| {
        let rank = comm.rank();
        let size = comm.size();

        // --- local phase: read + process assigned files ---
        let start = Instant::now();
        let pipeline = local_pipeline(&spec, &files[rank])?;
        let local_s = start.elapsed().as_secs_f64();

        // --- binomial-tree reduction, timing each merge ---
        let mut merges = Vec::new();
        let mut step = 1usize;
        let mut level = 0usize;
        let mut mine = Some(pipeline);
        while step < size {
            if rank.is_multiple_of(2 * step) {
                let partner = rank + step;
                if partner < size {
                    let theirs: Pipeline =
                        comm.recv(partner, 1).map_err(|e| e.to_string())?;
                    let t = Instant::now();
                    mine.as_mut().expect("receiver holds a pipeline").merge(theirs);
                    merges.push((level, t.elapsed().as_secs_f64()));
                }
            } else {
                let parent = rank - step;
                comm.send(parent, 1, mine.take().expect("sender holds a pipeline"))
                    .map_err(|e| e.to_string())?;
                break;
            }
            step *= 2;
            level += 1;
        }

        // --- gather timing reports at rank 0 ---
        let report = RankReport { local_s, merges };
        let reports = gather(&mut comm, report).map_err(|e| e.to_string())?;
        Ok::<_, String>((mine, reports))
    });

    let mut root_pipeline = None;
    let mut reports = None;
    for (rank, r) in results.into_iter().enumerate() {
        let (pipeline, rank_reports) = r.map_err(ParallelError::Io)?;
        if rank == 0 {
            root_pipeline = pipeline;
            reports = rank_reports;
        }
    }
    let root_pipeline = root_pipeline.expect("rank 0 holds the merged pipeline");
    let reports = reports.expect("rank 0 gathered the reports");

    let t = Instant::now();
    let result = root_pipeline.finish();
    let finish_s = t.elapsed().as_secs_f64();

    let levels = (usize::BITS - (size - 1).leading_zeros()) as usize;
    let mut level_merge_max_s = vec![0.0f64; levels];
    let mut local_s = Vec::with_capacity(size);
    for report in &reports {
        local_s.push(report.local_s);
        for &(level, seconds) in &report.merges {
            level_merge_max_s[level] = level_merge_max_s[level].max(seconds);
        }
    }
    let reduction_s = level_merge_max_s.iter().sum();
    Ok((
        result,
        ParallelTimings {
            local_s,
            level_merge_max_s,
            reduction_s,
            finish_s,
        },
    ))
}

/// Outcome of a fault-injected parallel query: the merged result from
/// rank 0 plus the coverage report of the resilient reduction.
#[derive(Debug)]
pub struct ResilientReport {
    /// Ranks whose local aggregations are folded into the result.
    pub included: Vec<usize>,
    /// Ranks whose contributions were lost to the injected faults
    /// (dead, or stranded behind a dead ancestor in the tree).
    pub lost: Vec<usize>,
}

impl ResilientReport {
    fn from_coverage(c: ReduceCoverage) -> ResilientReport {
        ResilientReport {
            included: c.included,
            lost: c.lost,
        }
    }
}

/// Like [`parallel_query`], but executed under a scripted
/// [`FaultPlan`] with the fault-tolerant tree reduction: dead ranks are
/// routed around instead of deadlocking the run, and the report states
/// exactly which ranks' data the result covers.
///
/// Differences from the fault-free engine, both deliberate:
///
/// * no timing gather — a collective over all ranks would hang on the
///   dead ones; resilience and timing harvesting don't mix;
/// * the result covers `report.included` only. It equals a serial
///   aggregation over exactly those ranks' files (pipeline merge is
///   associative, and the tree merges survivors in rank order).
pub fn parallel_query_resilient(
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    opts: ResilienceOptions,
) -> Result<(QueryResult, ResilientReport), ParallelError> {
    let spec = parse_query(query).map_err(ParallelError::Parse)?;
    if !spec.is_aggregation() {
        return Err(ParallelError::NotAnAggregation);
    }
    let size = files_per_rank.len().max(1);
    let spec = Arc::new(spec);
    let files = Arc::new(files_per_rank);

    let results = mpisim::run_with_faults(size, plan, move |mut comm: Comm| {
        let pipeline = local_pipeline(&spec, &files[comm.rank()])?;
        reduce_tree_resilient(
            &mut comm,
            pipeline,
            |mut acc, incoming| {
                acc.merge(incoming);
                acc
            },
            &opts,
        )
        .map_err(|e| e.to_string())
    });

    // Rank 0 is never scripted to die in a meaningful run; if it was,
    // there is no result to salvage.
    let root = results
        .into_iter()
        .next()
        .expect("world has at least one rank")
        .ok_or_else(|| ParallelError::Io("rank 0 was killed by the fault plan".to_string()))?;
    let (pipeline, coverage) = root
        .map_err(ParallelError::Io)?
        .expect("rank 0 is the reduction root");
    Ok((
        pipeline.finish(),
        ResilientReport::from_coverage(coverage),
    ))
}

/// Like [`parallel_query_resilient`], but generic over the execution
/// [`Executor`] and reduction [`Topology`]: the same fault-tolerant
/// reduction state machine runs either on the thread engine
/// ([`mpisim::ThreadEngine`], one OS thread per rank) or on the
/// event engine ([`mpisim::EventEngine`], a deterministic virtual-clock
/// scheduler that handles thousands of ranks in one process).
///
/// Each rank's local phase (read + aggregate its files) runs lazily
/// inside its task's first step, so on the event engine the worker pool
/// parallelizes the file reads. A rank whose input fails to read
/// poisons its partial result; the error surfaces at the root as
/// [`ParallelError::Io`] rather than silently shrinking coverage.
pub fn parallel_query_on<E: Executor>(
    engine: &E,
    topology: Topology,
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    opts: ResilienceOptions,
) -> Result<(QueryResult, ResilientReport), ParallelError> {
    let (spec, size, files) = prepare_query(query, files_per_rank)?;
    let outputs = engine
        .try_run_tasks(size, plan, query_task_factory(spec, files, topology, opts))
        .map_err(ParallelError::Deadlock)?;
    finish_query_outputs(outputs)
}

/// The outcome of a traced engine-generic query run (see
/// [`parallel_query_on_traced`]): the query outcome — which may itself
/// be a [`ParallelError::Deadlock`] — and the recorded happens-before
/// trace, present either way so the analyzer can explain failures.
#[derive(Debug)]
pub struct TracedQueryRun {
    /// The query result and coverage report, or what went wrong.
    pub outcome: Result<(QueryResult, ResilientReport), ParallelError>,
    /// The communication trace of the run.
    pub trace: HbTrace,
}

/// Like [`parallel_query_on`], but with the engine's happens-before
/// trace hook armed: returns the recorded [`HbTrace`] alongside the
/// query outcome, for `mpi-caliquery --analyze` / `--trace` and
/// `cali-race`. The outer `Err` covers pre-run failures only (parse
/// errors, non-aggregations); once the world runs, failures land in
/// [`TracedQueryRun::outcome`] with the trace preserved.
pub fn parallel_query_on_traced<E: Executor>(
    engine: &E,
    topology: Topology,
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    opts: ResilienceOptions,
) -> Result<TracedQueryRun, ParallelError> {
    let (spec, size, files) = prepare_query(query, files_per_rank)?;
    let run = engine.run_tasks_traced(size, plan, query_task_factory(spec, files, topology, opts));
    let outcome = match run.outputs {
        Ok(outputs) => finish_query_outputs(outputs),
        Err(e) => Err(ParallelError::Deadlock(e)),
    };
    Ok(TracedQueryRun {
        outcome,
        trace: run.trace,
    })
}

/// Per-rank local aggregation state: the pipeline, or the read error
/// that poisoned it.
type RankPipeline = Result<Pipeline, String>;

/// A rank's local phase: one pipeline over its files, scanned in order
/// through one shared dictionary.
fn local_pipeline(spec: &QuerySpec, files: &[PathBuf]) -> RankPipeline {
    let mut dict = Dataset::new();
    let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store));
    for path in files {
        dict = pipeline
            .scan_file(path, dict, ReadPolicy::Strict, None, usize::MAX)
            .map_err(|e| e.to_string())?
            .dict;
    }
    Ok(pipeline)
}

/// A validated query run setup: the parsed spec, the world size, and
/// the shared per-rank file assignment.
type PreparedQuery = (Arc<QuerySpec>, usize, Arc<Vec<Vec<PathBuf>>>);

/// Parse + validate the query and fix the world size.
fn prepare_query(
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
) -> Result<PreparedQuery, ParallelError> {
    let spec = parse_query(query).map_err(ParallelError::Parse)?;
    if !spec.is_aggregation() {
        return Err(ParallelError::NotAnAggregation);
    }
    let size = files_per_rank.len().max(1);
    Ok((Arc::new(spec), size, Arc::new(files_per_rank)))
}

/// The boxed closure forms of the query reduction, so the task type is
/// nameable from both the plain and the traced entry points.
type MergeFn = Box<dyn FnMut(RankPipeline, RankPipeline) -> RankPipeline + Send>;
type InitFn = Box<dyn FnOnce() -> RankPipeline + Send>;
type QueryTask = ReduceTask<RankPipeline, MergeFn, InitFn>;

/// The shared task factory of the engine-generic query paths: each
/// rank lazily reads + aggregates its files, then reduces up the tree.
fn query_task_factory(
    spec: Arc<QuerySpec>,
    files: Arc<Vec<Vec<PathBuf>>>,
    topology: Topology,
    opts: ResilienceOptions,
) -> impl Fn(usize, usize) -> QueryTask + Send + Sync + 'static {
    move |rank, size| {
        let spec = Arc::clone(&spec);
        let files = Arc::clone(&files);
        let init: InitFn = Box::new(move || local_pipeline(&spec, &files[rank]));
        let merge: MergeFn = Box::new(|a: RankPipeline, b| match (a, b) {
            (Ok(mut acc), Ok(incoming)) => {
                acc.merge(incoming);
                Ok(acc)
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        });
        ReduceTask::new(rank, size, topology, init, merge, opts)
    }
}

/// Extract rank 0's merged pipeline + coverage from the task outputs.
fn finish_query_outputs(
    mut outputs: Vec<Option<Option<(RankPipeline, ReduceCoverage)>>>,
) -> Result<(QueryResult, ResilientReport), ParallelError> {
    let root = outputs
        .first_mut()
        .and_then(Option::take)
        .ok_or_else(|| ParallelError::Io("rank 0 was killed by the fault plan".to_string()))?;
    let (pipeline, coverage) = root.expect("rank 0 is the reduction root");
    let pipeline = pipeline.map_err(ParallelError::Io)?;
    Ok((
        pipeline.finish(),
        ResilientReport::from_coverage(coverage),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_files;
    use caliper_query::run_query;
    use miniapps::paradis::{self, ParaDisParams};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("caliquery-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parallel_matches_serial() {
        let dir = temp_dir("match");
        let params = ParaDisParams {
            iterations: 3,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 8, &dir).unwrap();

        let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

        // Serial: read everything into one dataset.
        let ds = read_files(&paths).unwrap();
        let serial = run_query(&ds, query).unwrap();

        // Parallel: one file per rank.
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        let (parallel, timings) = parallel_query(query, per_rank).unwrap();

        assert_eq!(serial.to_table().render(), parallel.to_table().render());
        assert_eq!(timings.local_s.len(), 8);
        assert_eq!(timings.level_merge_max_s.len(), 3);
        assert!(timings.total_s() > 0.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uneven_file_distribution() {
        let dir = temp_dir("uneven");
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 5, &dir).unwrap();
        // 3 ranks, round-robin distribution: [0,3], [1,4], [2]
        let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); 3];
        for (i, p) in paths.iter().enumerate() {
            per_rank[i % 3].push(p.clone());
        }
        let query = "AGGREGATE sum(aggregate.count) GROUP BY mpi.rank";
        let (result, _) = parallel_query(query, per_rank).unwrap();
        // One output record per input rank.
        assert_eq!(result.records.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resilient_query_covers_exactly_the_surviving_ranks() {
        let dir = temp_dir("resilient");
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 4, &dir).unwrap();
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

        // Kill rank 2 at its first comm op (receiving rank 3's partial):
        // the {2, 3} subtree is lost, ranks 0 and 1 survive.
        let opts = ResilienceOptions {
            timeout: std::time::Duration::from_millis(150),
            retries: 1,
            backoff: std::time::Duration::from_millis(50),
        };
        let (result, report) =
            parallel_query_resilient(query, per_rank, FaultPlan::new().kill(2, 0), opts).unwrap();
        assert_eq!(report.lost, vec![2, 3]);
        assert_eq!(report.included, vec![0, 1]);

        // The merged result equals a serial aggregation over exactly
        // the surviving ranks' files.
        let survivor_paths: Vec<PathBuf> =
            report.included.iter().map(|&r| paths[r].clone()).collect();
        let ds = read_files(&survivor_paths).unwrap();
        let serial = run_query(&ds, query).unwrap();
        assert_eq!(serial.to_table().render(), result.to_table().render());

        // A fault-free resilient run covers everyone and matches the
        // plain engine.
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        let (clean, clean_report) =
            parallel_query_resilient(query, per_rank.clone(), FaultPlan::new(), opts).unwrap();
        assert_eq!(clean_report.included, vec![0, 1, 2, 3]);
        assert!(clean_report.lost.is_empty());
        let (plain, _) = parallel_query(query, per_rank).unwrap();
        assert_eq!(plain.to_table().render(), clean.to_table().render());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_generic_query_agrees_across_engines_and_topologies() {
        let dir = temp_dir("engines");
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, 8, &dir).unwrap();
        let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
        let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

        let (plain, _) = parallel_query(query, per_rank.clone()).unwrap();
        let expect = plain.to_table().render();

        let opts = ResilienceOptions::default();
        for topology in [Topology::Flat, Topology::TwoLevel { ranks_per_node: 3 }] {
            let (result, report) = parallel_query_on(
                &mpisim::EventEngine::new(),
                topology,
                query,
                per_rank.clone(),
                FaultPlan::new(),
                opts,
            )
            .unwrap();
            assert!(report.lost.is_empty(), "{topology:?}");
            assert_eq!(result.to_table().render(), expect, "{topology:?}");
        }

        let (result, report) = parallel_query_on(
            &mpisim::ThreadEngine,
            Topology::Flat,
            query,
            per_rank,
            FaultPlan::new(),
            opts,
        )
        .unwrap();
        assert!(report.lost.is_empty());
        assert_eq!(result.to_table().render(), expect);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_generic_query_reports_read_failures() {
        let err = parallel_query_on(
            &mpisim::EventEngine::new(),
            Topology::Flat,
            "AGGREGATE count GROUP BY x",
            vec![vec![PathBuf::from("/nonexistent/file.cali")], vec![]],
            FaultPlan::new(),
            ResilienceOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ParallelError::Io(_)));
    }

    #[test]
    fn passthrough_queries_are_rejected() {
        let err = parallel_query("SELECT *", vec![vec![]]).unwrap_err();
        assert!(matches!(err, ParallelError::NotAnAggregation));
    }

    #[test]
    fn missing_files_are_reported() {
        let err = parallel_query(
            "AGGREGATE count GROUP BY x",
            vec![vec![PathBuf::from("/nonexistent/file.cali")]],
        )
        .unwrap_err();
        assert!(matches!(err, ParallelError::Io(_)));
    }
}
