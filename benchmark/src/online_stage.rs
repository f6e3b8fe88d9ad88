//! The `online` stage: the runtime driven in-process (it is a library),
//! CleverLeaf on a virtual clock so no spin work dilutes the per-event
//! cost — Fig. 3's per-snapshot overhead, measuring `runtime` + `data`
//! and none of the file paths.

use std::path::Path;
use std::time::Instant;

use caliper_runtime::{Caliper, Clock, Config};
use miniapps::{CleverLeaf, CleverLeafParams, WorkMode};

use crate::calib::{Calibrator, Timed};
use crate::env::Tally;
use crate::plan::{Plan, Stage};

/// Scheme A: all attributes except the iteration number.
pub const SCHEME_A: &str = "function,annotation,kernel,amr.level,mpi.function,mpi.rank";
/// Scheme B: only two attributes.
pub const SCHEME_B: &str = "kernel,mpi.function";
/// Scheme C: all attributes including the main loop iteration.
pub const SCHEME_C: &str =
    "function,annotation,kernel,amr.level,iteration#mainloop,mpi.function,mpi.rank";
/// The operators every scheme aggregates with.
pub const OPS: &str = "count,sum(time.duration),min(time.duration),max(time.duration)";

/// Ranks run back to back per round, like one node-filling job.
const RANKS: usize = 4;

/// One runtime configuration under measurement.
pub struct OnlineConfig {
    /// Short name (`trace`, `a`, `b`, `c`, `journal`).
    pub name: &'static str,
    /// The runtime profile.
    pub config: Config,
}

/// The two configurations behind the end-to-end metrics.
pub fn end_to_end_configs() -> Vec<OnlineConfig> {
    vec![
        OnlineConfig {
            name: "trace",
            config: Config::event_trace(),
        },
        OnlineConfig {
            name: "a",
            config: Config::event_aggregate(SCHEME_A, OPS),
        },
    ]
}

/// Schemes B and C and scheme A with the write-ahead journal on: key
/// width, group count and journal cost around `snapshot_agg_ns`.
pub fn layer_configs(journal: &Path) -> Vec<OnlineConfig> {
    vec![
        OnlineConfig {
            name: "b",
            config: Config::event_aggregate(SCHEME_B, OPS),
        },
        OnlineConfig {
            name: "c",
            config: Config::event_aggregate(SCHEME_C, OPS),
        },
        OnlineConfig {
            name: "journal",
            config: Config::event_aggregate(SCHEME_A, OPS)
                .set("journal.enable", "true")
                .set("journal.path", &journal.to_string_lossy()),
        },
    ]
}

/// The CleverLeaf proxy at this run's size.
pub fn app(plan: &Plan) -> CleverLeaf {
    let timesteps = match (plan.quick, plan.full(Stage::Online)) {
        (true, _) => 2,
        (false, true) => 25,
        (false, false) => 10,
    };
    CleverLeaf::new(CleverLeafParams {
        timesteps,
        ranks: RANKS,
        seed: plan.seed,
        ..CleverLeafParams::overhead_study()
    })
}

/// What one pass over all ranks under one configuration did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Wall nanoseconds inside `run_rank`, summed over ranks.
    pub wall_ns: f64,
    /// Snapshots processed, summed over ranks.
    pub snapshots: u64,
    /// Output records, summed over ranks.
    pub outputs: usize,
}

/// Run every rank once under `config` on a fresh runtime each.
pub fn pass(app: &CleverLeaf, config: &Config) -> Pass {
    let mut out = Pass {
        wall_ns: 0.0,
        snapshots: 0,
        outputs: 0,
    };
    for rank in 0..app.params.ranks {
        let caliper = Caliper::with_clock(config.clone(), Clock::virtual_clock());
        let start = Instant::now();
        app.run_rank(rank, &caliper, WorkMode::Virtual);
        out.wall_ns += start.elapsed().as_nanos() as f64;
        out.snapshots += caliper.total_snapshots();
        out.outputs += caliper.take_dataset().len();
    }
    out
}

/// Per-configuration samples of ns/snapshot.
pub struct OnlineSamples {
    /// Configuration name.
    pub name: &'static str,
    /// Wall ns ÷ snapshots, one sample per measured round.
    pub ns_per_snapshot: Vec<Timed>,
}

/// The `online` stage: the configurations measured round-robin (so
/// machine drift hits all of them alike) after one discarded warm-up
/// pass; snapshot and output counts must not change between rounds.
pub struct Online {
    app: CleverLeaf,
    configs: Vec<OnlineConfig>,
    warmup: Vec<Pass>,
    /// One entry per configuration, in order.
    pub samples: Vec<OnlineSamples>,
}

impl Online {
    /// Run the warm-up pass of every configuration.
    pub fn new(app: CleverLeaf, configs: Vec<OnlineConfig>) -> Online {
        let warmup: Vec<Pass> = configs.iter().map(|c| pass(&app, &c.config)).collect();
        let samples = configs
            .iter()
            .map(|c| OnlineSamples {
                name: c.name,
                ns_per_snapshot: Vec::new(),
            })
            .collect();
        Online {
            app,
            configs,
            warmup,
            samples,
        }
    }

    /// One measured pass of every configuration.
    pub fn round(&mut self, cal: &Calibrator, tally: &mut Tally) {
        for ((config, first), out) in self.configs.iter().zip(&self.warmup).zip(&mut self.samples) {
            let (p, speed) = cal.bracket(|| pass(&self.app, &config.config));
            tally.check(
                p.snapshots == first.snapshots && p.outputs == first.outputs && p.snapshots > 0,
                || {
                    format!(
                        "online {}: counts changed between rounds: {first:?} vs {p:?}",
                        config.name
                    )
                },
            );
            out.ns_per_snapshot.push(Timed {
                raw: p.wall_ns / p.snapshots as f64,
                speed,
            });
        }
    }
}
