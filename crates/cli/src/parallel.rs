//! The parallel cross-process query engine (§IV-C).
//!
//! "In the MPI version, each process is assigned a subset of the data
//! files, and first applies the query on its assigned dataset. Then, we
//! organize the processes in a tree based on their rank, and perform a
//! logarithmic reduction: 'leaf' processes send the local aggregation
//! results to their parent, where the partial results are aggregated
//! again."
//!
//! There is one entry point, [`parallel_query`], and one reduction
//! behind it: [`ReduceTask`], on either engine, either topology, with
//! or without scripted faults or the happens-before trace. The timing
//! breakdown that Figure 4 plots — local read+process time and the
//! per-tree-level merge times whose sum is the critical-path reduction
//! time — is not gathered by a second collective: each rank's partial
//! carries its times, and the merge that folds two pipelines folds
//! their times by `max`. On a laptop all "ranks" share a few cores, so
//! wall-clock weak scaling is not observable directly; the critical
//! path over the tree levels is the machine-independent quantity (see
//! DESIGN.md §3).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use caliper_format::{CaliError, Dataset, Pushdown, ReadPolicy, ReadReport};
use caliper_query::{
    build_pushdown, parse_query, ParseError, Pipeline, QueryResult, QuerySpec,
};
use mpisim::{
    Executor, FaultPlan, HbTrace, ReduceCoverage, ReduceTask, ResilienceOptions, SchedError,
    Topology,
};

/// Timing breakdown of one parallel query run, over the ranks the
/// result covers.
#[derive(Debug, Clone, Default)]
pub struct ParallelTimings {
    /// Maximum over ranks of the wall time for reading and processing
    /// the local input.
    pub local_max_s: f64,
    /// Per-tree-level maximum merge time (critical path per level). A
    /// merge counts at the level given by how many merges its receiving
    /// rank had absorbed before — in a fault-free flat tree, the tree
    /// level.
    pub level_merge_max_s: Vec<f64>,
    /// Time rank 0 spent finishing: the flush, ORDER BY, LIMIT and
    /// SELECT ([`Pipeline::finish`]), short of rendering the result.
    pub finish_s: f64,
}

impl ParallelTimings {
    /// Critical-path reduction time: the sum of the level maxima.
    pub fn reduction_s(&self) -> f64 {
        // (`sum()` of no levels is -0.0, which prints as "-0.000000")
        self.level_merge_max_s.iter().fold(0.0, |sum, t| sum + t)
    }

    /// Estimated total critical-path runtime including I/O:
    /// max local + reduction + root finish.
    pub fn total_s(&self) -> f64 {
        self.local_max_s + self.reduction_s() + self.finish_s
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

/// What a parallel query run produced at rank 0.
#[derive(Debug)]
pub struct QueryRun {
    /// The merged query result. It covers `coverage.included` only, and
    /// equals a serial aggregation over exactly those ranks' files
    /// (pipeline merge is associative, and the tree merges survivors in
    /// rank order).
    pub result: QueryResult,
    /// Which ranks' local aggregations are folded into the result, and
    /// which were lost to injected faults (dead, or stranded behind a
    /// dead ancestor in the tree).
    pub coverage: ReduceCoverage,
    /// The per-phase timing breakdown.
    pub timings: ParallelTimings,
}

/// Run `query` over `files_per_rank.len()` simulated query processes on
/// `engine` — [`mpisim::EventEngine`], a deterministic virtual-clock
/// scheduler that handles thousands of ranks in one process, or
/// [`mpisim::ThreadEngine`], one OS thread per rank — reducing the
/// per-rank partial results up the `topology` tree to rank 0 under the
/// scripted `plan`: dead ranks are routed around instead of deadlocking
/// the run, and the coverage states exactly which ranks' data the
/// result covers.
///
/// Rank `i` reads and aggregates `files_per_rank[i]` inside its task's
/// first step, so on the event engine the worker pool parallelizes the
/// file reads and a slow read costs no virtual time. A rank whose input
/// fails to read poisons its partial result; the error surfaces at the
/// root as [`ParallelError::Io`] rather than silently shrinking
/// coverage.
///
/// With `trace`, the engine's happens-before hook is armed and the
/// recorded [`HbTrace`] comes back beside the outcome — also when the
/// run itself failed ([`ParallelError::Deadlock`]), so the analyzer can
/// explain the failure. Only a query rejected before the world ran
/// yields no trace.
pub fn parallel_query<E: Executor>(
    engine: &E,
    topology: Topology,
    query: &str,
    files_per_rank: Vec<Vec<PathBuf>>,
    plan: FaultPlan,
    opts: ResilienceOptions,
    trace: bool,
) -> (Result<QueryRun, ParallelError>, Option<HbTrace>) {
    let spec = match parse_query(query) {
        Ok(spec) if spec.is_aggregation() => Arc::new(spec),
        Ok(_) => return (Err(ParallelError::NotAnAggregation), None),
        Err(e) => return (Err(ParallelError::Parse(e)), None),
    };
    // One schema-free pushdown for every rank, as `cali-query` builds
    // for its workers: which blocks a file's scan skips depends on the
    // file and the query alone.
    let pushdown = Arc::new(build_pushdown(&spec, None));
    let size = files_per_rank.len().max(1);
    let files = Arc::new(files_per_rank);
    let root_spec = Arc::clone(&spec);
    let make = move |rank: usize, size: usize| {
        let spec = Arc::clone(&spec);
        let files = Arc::clone(&files);
        let pushdown = Arc::clone(&pushdown);
        let init = move || {
            let start = Instant::now();
            let files = files.get(rank).map_or(&[][..], Vec::as_slice);
            let contents = if files.is_empty() {
                Contents::Nothing
            } else {
                match local_pipeline(&spec, files, ReadPolicy::Strict, &pushdown) {
                    Ok((pipeline, _)) => Contents::Pipeline(Box::new(pipeline)),
                    Err(e) => Contents::Failed(e.to_string()),
                }
            };
            let times = ParallelTimings {
                local_max_s: start.elapsed().as_secs_f64(),
                ..ParallelTimings::default()
            };
            Partial {
                contents,
                times,
                merges: 0,
            }
        };
        ReduceTask::new(rank, size, topology, init, Partial::merge, opts)
    };
    let mpisim::Run { outputs, trace: hb, .. } = engine.run(size, plan, make, trace);
    let run = outputs.map_err(ParallelError::Deadlock).and_then(|mut outputs| {
        let (partial, coverage) = outputs
            .first_mut()
            .and_then(Option::take)
            .ok_or_else(|| ParallelError::Io("rank 0 was killed by the fault plan".to_string()))?
            .expect("rank 0 is the reduction root");
        let pipeline = match partial.contents {
            Contents::Pipeline(pipeline) => *pipeline,
            // No rank read anything: `local_pipeline` over no files.
            Contents::Nothing => {
                Pipeline::new(root_spec.as_ref().clone(), Arc::clone(&Dataset::new().store))
            }
            Contents::Failed(e) => return Err(ParallelError::Io(e)),
        };
        let mut timings = partial.times;
        let start = Instant::now();
        let result = pipeline.finish();
        timings.finish_s = start.elapsed().as_secs_f64();
        Ok(QueryRun {
            result,
            coverage,
            timings,
        })
    });
    (run, trace.then_some(hb))
}

/// What travels up the tree: what the subtree read, and its times.
struct Partial {
    contents: Contents,
    times: ParallelTimings,
    /// Merges the holding rank has absorbed: the level its next merge
    /// counts at.
    merges: usize,
}

/// What a subtree read. Most ranks of a large world hold no file, and
/// theirs is nothing: no pipeline is built for them, and merging one
/// is the identity.
enum Contents {
    /// No rank of the subtree had a file.
    Nothing,
    /// The subtree's merged pipeline. Boxed, so a partial stays a few
    /// words wherever the reduction moves it.
    Pipeline(Box<Pipeline>),
    /// The read error that poisoned the subtree.
    Failed(String),
}

impl Partial {
    /// The associative merge of the reduction: pipelines merge (an
    /// error on either side wins, nothing on either side is the
    /// identity), times fold by `max`, and the merge times itself into
    /// the receiving side's next level.
    fn merge(mut self, incoming: Partial) -> Partial {
        let start = Instant::now();
        self.contents = match (self.contents, incoming.contents) {
            (Contents::Failed(e), _) | (_, Contents::Failed(e)) => Contents::Failed(e),
            (Contents::Pipeline(mut acc), Contents::Pipeline(theirs)) => {
                acc.merge(*theirs);
                Contents::Pipeline(acc)
            }
            (Contents::Nothing, other) | (other, Contents::Nothing) => other,
        };
        let merge_s = start.elapsed().as_secs_f64();

        let times = &mut self.times;
        times.local_max_s = times.local_max_s.max(incoming.times.local_max_s);
        let levels = &mut times.level_merge_max_s;
        let theirs = incoming.times.level_merge_max_s;
        levels.resize(levels.len().max(theirs.len()).max(self.merges + 1), 0.0);
        for (mine, theirs) in levels.iter_mut().zip(theirs) {
            *mine = mine.max(theirs);
        }
        levels[self.merges] = levels[self.merges].max(merge_s);
        self.merges += 1;
        self
    }
}

/// One pipeline over `files`, scanned in order through one shared
/// dictionary — per file the step `cali-query`'s workers run — with the
/// per-file read reports. It is a rank's local phase, and all there is
/// to a pass-through query, whose matching rows need one dictionary to
/// refer to: one block is in memory at a time, and only rows that pass
/// WHERE are kept.
pub fn local_pipeline<P: AsRef<Path>>(
    spec: &QuerySpec,
    files: &[P],
    policy: ReadPolicy,
    pushdown: &Pushdown,
) -> Result<(Pipeline, Vec<ReadReport>), CaliError> {
    let mut dict = Dataset::new();
    let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store));
    let mut reports = Vec::with_capacity(files.len());
    for path in files {
        let scanned = pipeline.scan_file(path, dict, policy, Some(pushdown))?;
        dict = scanned.dict;
        reports.push(scanned.report);
    }
    Ok((pipeline, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_files;
    use caliper_query::run_query;
    use miniapps::paradis::{self, ParaDisParams};
    use mpisim::{EventEngine, ThreadEngine};

    const QUERY: &str = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("caliquery-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `ranks` ParaDiS files, one per rank.
    fn one_file_per_rank(dir: &std::path::Path, ranks: usize) -> (Vec<PathBuf>, Vec<Vec<PathBuf>>) {
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let paths = paradis::write_files(&params, ranks, dir).unwrap();
        let per_rank = paths.iter().map(|p| vec![p.clone()]).collect();
        (paths, per_rank)
    }

    fn serial(paths: &[PathBuf]) -> String {
        run_query(&read_files(paths).unwrap(), QUERY).unwrap().render()
    }

    /// One run; the trace comes back exactly when asked for.
    fn run_on<E: Executor>(
        engine: &E,
        topology: Topology,
        per_rank: &[Vec<PathBuf>],
        plan: &FaultPlan,
        opts: ResilienceOptions,
        trace: bool,
    ) -> QueryRun {
        let (run, hb) =
            parallel_query(engine, topology, QUERY, per_rank.to_vec(), plan.clone(), opts, trace);
        assert_eq!(hb.is_some(), trace, "{} {topology:?}", engine.name());
        run.unwrap()
    }

    /// One run per engine (event with 1 and 4 workers, threads) ×
    /// topology × trace off/on.
    fn run_everywhere(
        per_rank: &[Vec<PathBuf>],
        plan: &FaultPlan,
        opts: ResilienceOptions,
        mut check: impl FnMut(&str, Topology, QueryRun),
    ) {
        for topology in [Topology::Flat, Topology::TwoLevel { ranks_per_node: 3 }] {
            for trace in [false, true] {
                let one = EventEngine::new();
                check("event/1", topology, run_on(&one, topology, per_rank, plan, opts, trace));
                let four = EventEngine::with_workers(4);
                check("event/4", topology, run_on(&four, topology, per_rank, plan, opts, trace));
                check(
                    "threads",
                    topology,
                    run_on(&ThreadEngine, topology, per_rank, plan, opts, trace),
                );
            }
        }
    }

    #[test]
    fn every_engine_topology_and_trace_setting_matches_serial() {
        let dir = temp_dir("match");
        let (paths, per_rank) = one_file_per_rank(&dir, 8);
        let expect = serial(&paths);
        run_everywhere(
            &per_rank,
            &FaultPlan::new(),
            ResilienceOptions::default(),
            |name, topology, run| {
                assert_eq!(run.result.render(), expect, "{name} {topology:?}");
                assert!(run.coverage.is_complete(), "{name} {topology:?}");
                assert!(run.timings.total_s() > 0.0, "{name} {topology:?}");
                if topology == Topology::Flat {
                    // ceil(log2(8)) tree levels, each with a timed merge.
                    assert_eq!(run.timings.level_merge_max_s.len(), 3, "{name}");
                }
            },
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uneven_file_distribution() {
        let dir = temp_dir("uneven");
        let (paths, _) = one_file_per_rank(&dir, 5);
        // 3 ranks, round-robin distribution: [0,3], [1,4], [2]
        let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); 3];
        for (i, p) in paths.iter().enumerate() {
            per_rank[i % 3].push(p.clone());
        }
        let (run, _) = parallel_query(
            &EventEngine::new(),
            Topology::Flat,
            "AGGREGATE sum(aggregate.count) GROUP BY mpi.rank",
            per_rank,
            FaultPlan::new(),
            ResilienceOptions::default(),
            false,
        );
        let run = run.unwrap();
        // One output record per input rank; 3 ranks make 2 tree levels.
        assert_eq!(run.result.records.len(), 5);
        assert_eq!(run.timings.level_merge_max_s.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_killed_rank_leaves_exactly_the_survivors_and_their_timings() {
        let dir = temp_dir("resilient");
        let (paths, per_rank) = one_file_per_rank(&dir, 4);
        // Kill rank 2 at its first comm op. In the flat tree that is
        // receiving rank 3's partial, so the {2, 3} subtree is lost; in
        // nodes of three it is rank 2's send to its leader, and rank 3
        // leads a node of its own. Either way the merged result equals
        // a serial aggregation over exactly the survivors' files.
        // Short budgets: the thread engine waits them out on the wall
        // clock.
        let opts = ResilienceOptions {
            timeout: std::time::Duration::from_millis(150),
            retries: 1,
            backoff: std::time::Duration::from_millis(50),
        };
        let check = |name: &str, topology, run: QueryRun| {
            let lost = if topology == Topology::Flat { vec![2, 3] } else { vec![2] };
            assert_eq!(run.coverage.lost, lost, "{name} {topology:?}");
            let survivors: Vec<PathBuf> =
                run.coverage.included.iter().map(|&r| paths[r].clone()).collect();
            assert_eq!(run.result.render(), serial(&survivors), "{name} {topology:?}");
            // Timings ride the same fold, so they survive the kill: the
            // root timed one merge per partial that reached it.
            assert_eq!(
                run.timings.level_merge_max_s.len(),
                survivors.len() - 1,
                "{name} {topology:?}"
            );
            assert!(run.timings.local_max_s > 0.0, "{name} {topology:?}");
        };
        run_everywhere(&per_rank, &FaultPlan::new().kill(2, 0), opts, check);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `paths[i]` on rank `i * stride` of `ranks`, every other rank
    /// empty: with a stride above 1, empty ranks receive partials that
    /// hold a pipeline as well as send nothing to ranks that hold one.
    fn spread(paths: &[PathBuf], ranks: usize, stride: usize) -> Vec<Vec<PathBuf>> {
        let mut per_rank = vec![Vec::new(); ranks];
        for (i, path) in paths.iter().enumerate() {
            per_rank[i * stride].push(path.clone());
        }
        per_rank
    }

    #[test]
    fn mostly_empty_worlds_match_serial() {
        let dir = temp_dir("sparse");
        let (paths, _) = one_file_per_rank(&dir, 5);
        let expect = serial(&paths);
        for (ranks, stride) in [(37, 9), (5, 1)] {
            run_everywhere(
                &spread(&paths, ranks, stride),
                &FaultPlan::new(),
                ResilienceOptions::default(),
                |name, topology, run| {
                    assert_eq!(run.result.render(), expect, "{ranks} ranks, {name} {topology:?}");
                    assert!(run.coverage.is_complete(), "{ranks} ranks, {name} {topology:?}");
                },
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killing_an_empty_rank_or_a_full_one_covers_exactly_the_survivors() {
        let dir = temp_dir("sparse-kill");
        let (paths, _) = one_file_per_rank(&dir, 5);
        let per_rank = spread(&paths, 37, 9);
        let opts = ResilienceOptions {
            timeout: std::time::Duration::from_millis(150),
            retries: 1,
            backoff: std::time::Duration::from_millis(50),
        };
        // Each victim dies at its first comm op. Rank 5 (empty) and rank
        // 9 (the second file) are leaves of the flat tree; in nodes of
        // three, rank 5 is a leaf and rank 9 leads {9, 10, 11}.
        for (victim, flat_lost, nodes_lost) in [(5, vec![5], vec![5]), (9, vec![9], vec![9, 10, 11])]
        {
            let check = |name: &str, topology, run: QueryRun| {
                let lost = if topology == Topology::Flat { &flat_lost } else { &nodes_lost };
                assert_eq!(&run.coverage.lost, lost, "victim {victim}, {name} {topology:?}");
                let survivors: Vec<PathBuf> =
                    run.coverage.included.iter().flat_map(|&r| per_rank[r].clone()).collect();
                assert_eq!(
                    run.result.render(),
                    serial(&survivors),
                    "victim {victim}, {name} {topology:?}"
                );
            };
            run_everywhere(&per_rank, &FaultPlan::new().kill(victim, 0), opts, check);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_world_without_files_renders_the_empty_pipeline() {
        let spec = parse_query(QUERY).unwrap();
        let pushdown = build_pushdown(&spec, None);
        let none: &[PathBuf] = &[];
        let (empty, _) = local_pipeline(&spec, none, ReadPolicy::Strict, &pushdown).unwrap();
        let expect = empty.finish().render();
        assert_eq!(expect, serial(none));
        run_everywhere(
            &vec![Vec::new(); 6],
            &FaultPlan::new(),
            ResilienceOptions::default(),
            |name, topology, run| {
                assert_eq!(run.result.render(), expect, "{name} {topology:?}");
                assert!(run.coverage.is_complete(), "{name} {topology:?}");
            },
        );
    }

    #[test]
    fn read_failures_surface_as_io_errors() {
        let missing = PathBuf::from("/nonexistent/file.cali");
        for per_rank in [vec![vec![missing.clone()]], vec![vec![], vec![missing.clone()]]] {
            let (run, _) = parallel_query(
                &EventEngine::new(),
                Topology::Flat,
                "AGGREGATE count GROUP BY x",
                per_rank,
                FaultPlan::new(),
                ResilienceOptions::default(),
                false,
            );
            assert!(matches!(run.unwrap_err(), ParallelError::Io(_)));
        }
    }

    /// Every rank hands its scan the query's pushdown, as `cali-query`'s
    /// workers do: over small-block v2 files a selective WHERE skips the
    /// blocks whose zone maps rule it out, and answers what reading
    /// every record answers.
    #[test]
    fn a_selective_where_skips_blocks_on_every_rank() {
        const WHERE_RANK_2: &str = "AGGREGATE count, sum(sum#time.duration) WHERE mpi.rank = 2 \
                                    GROUP BY kernel ORDER BY kernel";
        fn check<E: Executor>(engine: &E, paths: &[PathBuf], expect: &str, ruled_out: u64) {
            let skipped = caliper_data::metrics::global().counter("format.reader.blocks_skipped");
            let before = skipped.get();
            let (run, _) = parallel_query(
                engine,
                Topology::Flat,
                WHERE_RANK_2,
                paths.iter().map(|p| vec![p.clone()]).collect(),
                FaultPlan::new(),
                ResilienceOptions::default(),
                false,
            );
            assert_eq!(run.unwrap().result.render(), expect, "{}", engine.name());
            // At least: other tests of this process may skip blocks too.
            assert!(skipped.get() - before >= ruled_out, "{}", engine.name());
        }

        let dir = temp_dir("pushdown");
        let params = ParaDisParams {
            iterations: 2,
            ..Default::default()
        };
        let opts = caliper_format::V2WriteOptions {
            block_records: 16,
            footer: true,
        };
        let (mut paths, mut blocks) = (Vec::new(), Vec::new());
        for (rank, ds) in paradis::generate(&params, 4).iter().enumerate() {
            paths.push(dir.join(format!("rank{rank}.calb2")));
            std::fs::write(&paths[rank], caliper_format::to_binary_v2_with(ds, &opts)).unwrap();
            blocks.push(ds.len().div_ceil(16) as u64);
        }
        let expect = run_query(&read_files(&paths).unwrap(), WHERE_RANK_2).unwrap().render();
        assert!(expect.lines().count() > 10, "{expect}");
        // No block of ranks 0, 1 and 3 can hold a match.
        let ruled_out = blocks[0] + blocks[1] + blocks[3];
        check(&EventEngine::new(), &paths, &expect, ruled_out);
        check(&ThreadEngine, &paths, &expect, ruled_out);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn passthrough_queries_are_rejected() {
        let (run, hb) = parallel_query(
            &ThreadEngine,
            Topology::Flat,
            "SELECT *",
            vec![vec![]],
            FaultPlan::new(),
            ResilienceOptions::default(),
            true,
        );
        assert!(matches!(run.unwrap_err(), ParallelError::NotAnAggregation));
        assert!(hb.is_none(), "the world never ran");
    }
}
