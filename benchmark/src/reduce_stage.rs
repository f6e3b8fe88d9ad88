//! The `reduce` stage: `mpi-caliquery --engine event` as a black box —
//! Fig. 4's cross-process tree reduction, once scheduler-bound (16k
//! rank state machines, almost all merging empties) and once
//! merge-bound (every tree edge carries a real 85-group partial).

use std::path::PathBuf;
use std::process::Command;

use crate::calib::Timed;
use crate::corpus::Corpus;
use crate::env::{run_child, ChildRun, Env, Tally};
use crate::plan::{Plan, Stage};

/// The reduction query: 85 groups keyed by kernel and MPI function.
pub const QUERY: &str =
    "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel, mpi.function";

/// One `mpi-caliquery` run; `extra` carries flags such as `--workers 2`.
pub fn run(env: &Env, engine: &str, ranks: usize, files: &[PathBuf], extra: &[&str]) -> ChildRun {
    let mut cmd = Command::new(&env.mpi_caliquery);
    cmd.args([
        "--engine",
        engine,
        "--ranks",
        &ranks.to_string(),
        "-q",
        QUERY,
    ])
    .args(extra)
    .args(files);
    run_child(&mut cmd).expect("spawning mpi-caliquery")
}

/// Sizes of the two reductions in this run.
pub struct ReduceShape {
    /// Simulated ranks of the sparse reduction.
    pub sparse_ranks: usize,
    /// The few files spread over those ranks.
    pub sparse_files: Vec<PathBuf>,
    /// Ranks (= files) of the dense reduction.
    pub dense_files: Vec<PathBuf>,
}

/// This run's reduction sizes.
pub fn shape(corpus: &Corpus, plan: &Plan) -> ReduceShape {
    let full = plan.full(Stage::Reduce);
    let files = if full {
        corpus.v2.len()
    } else {
        corpus.v2.len() / 4
    };
    let dense = if full {
        corpus.dense.len()
    } else {
        corpus.dense.len() / 4
    };
    let sparse_ranks = match (plan.quick, full) {
        (true, _) => 1024,
        (false, true) => 16384,
        (false, false) => 4096,
    };
    ReduceShape {
        sparse_ranks,
        sparse_files: corpus.v2[..files].to_vec(),
        dense_files: corpus.dense[..dense].to_vec(),
    }
}

/// The `reduce` stage: both reductions per round; output identical
/// across rounds and across `--workers 1|2`.
pub struct Reduce {
    shape: ReduceShape,
    sparse_reference: Vec<u8>,
    dense_reference: Vec<u8>,
    /// Many ranks, few files: wall seconds per run.
    pub sparse: Vec<Timed>,
    /// One file per rank.
    pub dense: Vec<Timed>,
}

fn checked(tally: &mut Tally, what: &str, run: &ChildRun, reference: &[u8]) {
    tally.check(
        run.ok && run.stdout == reference && !reference.is_empty(),
        || {
            format!(
                "reduce {what}: exit or output differs ({})",
                run.stderr.trim()
            )
        },
    );
}

impl Reduce {
    /// Take both references from `--workers 2` runs; the timed rounds
    /// use the default single worker and must answer the same.
    pub fn new(env: &Env, shape: ReduceShape, tally: &mut Tally) -> Reduce {
        let sparse = run(
            env,
            "event",
            shape.sparse_ranks,
            &shape.sparse_files,
            &["--workers", "2"],
        );
        checked(tally, "sparse --workers 2", &sparse, &sparse.stdout);
        let dense = run(
            env,
            "event",
            shape.dense_files.len(),
            &shape.dense_files,
            &["--workers", "2"],
        );
        checked(tally, "dense --workers 2", &dense, &dense.stdout);
        Reduce {
            shape,
            sparse_reference: sparse.stdout,
            dense_reference: dense.stdout,
            sparse: Vec::new(),
            dense: Vec::new(),
        }
    }

    /// Two samples of each reduction (they are short next to the other
    /// stages' rounds, and a second sample halves their noise).
    pub fn round(&mut self, env: &Env, tally: &mut Tally) {
        for _ in 0..2 {
            let (sparse, speed) = env.cal.bracket(|| {
                run(
                    env,
                    "event",
                    self.shape.sparse_ranks,
                    &self.shape.sparse_files,
                    &[],
                )
            });
            checked(tally, "sparse", &sparse, &self.sparse_reference);
            self.sparse.push(Timed {
                raw: sparse.wall_s,
                speed,
            });
            let (dense, speed) = env.cal.bracket(|| {
                run(
                    env,
                    "event",
                    self.shape.dense_files.len(),
                    &self.shape.dense_files,
                    &[],
                )
            });
            checked(tally, "dense", &dense, &self.dense_reference);
            self.dense.push(Timed {
                raw: dense.wall_s,
                speed,
            });
        }
    }
}
