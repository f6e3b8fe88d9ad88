//! What one run does: which workload mix, at what sizes, for how long.

use crate::corpus::Scale;

/// The five stages. A workload is named after the stage it measures at
/// full size; the other four run reduced in the same run, because every
/// run must report every end-to-end metric. The stages take turns, one
/// round each, until `--seconds` are used: every metric's samples then
/// span the whole run, so a slow spell of the machine reaches all of
/// them alike instead of landing on whichever stage ran during it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `cali-query`, 85 groups, once per encoding: decode-bound.
    Scan,
    /// `cali-query`, thousands of groups: aggregator-bound.
    Wide,
    /// `cali-served`: ingest, warm queries, crash, replay.
    Served,
    /// The runtime as a library: per-snapshot cost.
    Online,
    /// `mpi-caliquery --engine event`: the tree reduction.
    Reduce,
}

impl Stage {
    /// All stages, in the order a run executes them.
    pub const ALL: [Stage; 5] = [
        Stage::Scan,
        Stage::Wide,
        Stage::Served,
        Stage::Online,
        Stage::Reduce,
    ];

    /// The workload name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Scan => "scan",
            Stage::Wide => "wide",
            Stage::Served => "served",
            Stage::Online => "online",
            Stage::Reduce => "reduce",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload: the stage run at full size.
    pub focus: Stage,
    /// Generator seed.
    pub seed: u64,
    /// Measuring time for the whole run, seconds.
    pub seconds: f64,
    /// Smoke sizes: same checks, numbers not for comparison.
    pub quick: bool,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

impl Plan {
    /// True when `stage` is this run's workload.
    pub fn full(&self, stage: Stage) -> bool {
        stage == self.focus
    }

    /// `full` when the stage is the workload, else `reduced`.
    pub fn pick<T>(&self, stage: Stage, full: T, reduced: T) -> T {
        if self.full(stage) {
            full
        } else {
            reduced
        }
    }

    /// Corpus sizes. The traced run prepares more small batches so the
    /// ack distribution supports a p99 (≥ 1000 samples in one cycle).
    pub fn scale(&self) -> Scale {
        let served = self.served();
        if self.quick {
            Scale {
                ranks: 8,
                iterations: 10,
                dense_files: 64,
                small_batch: 64,
                small_batches: served.small + served.mixed,
                large_batch: 256,
                large_batches: served.large,
            }
        } else {
            Scale {
                ranks: 32,
                iterations: 50,
                dense_files: 512,
                small_batch: 64,
                small_batches: served.small + served.mixed,
                large_batch: 1024,
                large_batches: served.large,
            }
        }
    }

    /// Operation counts of one daemon cycle.
    pub fn served(&self) -> ServedCounts {
        match (self.quick, self.trace) {
            (true, _) => ServedCounts {
                small: 40,
                large: 4,
                warm: 5,
                mixed: 10,
                mixed_queries: 3,
            },
            (false, false) => ServedCounts {
                small: 320,
                large: 16,
                warm: 10,
                mixed: 50,
                mixed_queries: 4,
            },
            (false, true) => ServedCounts {
                small: 1000,
                large: 32,
                warm: 110,
                mixed: 50,
                mixed_queries: 20,
            },
        }
    }
}

/// How many operations each phase of a daemon cycle performs.
#[derive(Debug, Clone, Copy)]
pub struct ServedCounts {
    /// Small batches in the closed-loop small-batch phase.
    pub small: usize,
    /// Large batches in the large-batch phase.
    pub large: usize,
    /// Warm queries against the idle daemon.
    pub warm: usize,
    /// Small batches a second connection ingests during the mixed phase.
    pub mixed: usize,
    /// Queries issued while that ingest runs.
    pub mixed_queries: usize,
}
