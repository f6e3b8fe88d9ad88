//! The instrumented CleverLeaf proxy application.
//!
//! Reproduces the instrumentation described in §V-B/§VI-A of the paper:
//! Caliper source-code annotations for computational kernels, the AMR
//! refinement level, main-loop iterations and user-defined source-code
//! regions, plus MPI function/rank capture à la the MPI wrapper — seven
//! attributes in total:
//!
//! `function`, `annotation`, `kernel`, `amr.level`,
//! `iteration#mainloop`, `mpi.function`, `mpi.rank`.
//!
//! The simulated work is driven by the deterministic model in
//! [`crate::model`]; time is either virtual (deterministic datasets for
//! the case-study figures) or real spinning (for the genuine overhead
//! measurements of Figure 3).

use std::sync::Arc;
use std::time::Instant;

use caliper_data::{Attribute, Properties, ValueType};
use caliper_format::Dataset;
use caliper_runtime::{Caliper, Clock, Config, ThreadScope};

use crate::model::{CleverLeafParams, KERNELS};

/// How simulated work is accounted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkMode {
    /// Advance a virtual clock — deterministic, instant.
    Virtual,
    /// Busy-spin for `scale` × the modelled time on the real clock —
    /// for wall-clock overhead measurements.
    Spin {
        /// Factor applied to modelled nanoseconds before spinning.
        scale: f64,
    },
    /// Advance a virtual clock like [`WorkMode::Virtual`] but *also*
    /// sleep `scale` × the modelled time in real time. All measurement
    /// comes from the virtual clock, so the collected data (and any
    /// journal written from it) is byte-identical to a `Virtual` run —
    /// while the process stays alive long enough to be killed mid-run.
    /// Used by the crash-recovery smoke test.
    Paced {
        /// Factor applied to modelled nanoseconds before sleeping.
        scale: f64,
    },
}

/// The seven instrumentation attributes (§V-B: "In total, we collected
/// 7 attributes").
pub struct CleverLeafAttrs {
    /// Nested function annotation (`main`, `hydro_cycle`, ...).
    pub function: Attribute,
    /// User-defined source-code regions (`init`, `simulation`, `io`).
    pub annotation: Attribute,
    /// Computational kernel names.
    pub kernel: Attribute,
    /// AMR mesh refinement level (0..levels).
    pub amr_level: Attribute,
    /// Main loop iteration number.
    pub iteration: Attribute,
    /// Intercepted MPI function name.
    pub mpi_function: Attribute,
    /// MPI rank id.
    pub mpi_rank: Attribute,
}

impl CleverLeafAttrs {
    /// Intern all instrumentation attributes in a runtime.
    pub fn new(caliper: &Arc<Caliper>) -> CleverLeafAttrs {
        let nested = |name: &str| caliper.attribute(name, ValueType::Str, Properties::NESTED);
        let value_int = |name: &str| caliper.attribute(name, ValueType::Int, Properties::AS_VALUE);
        CleverLeafAttrs {
            function: nested("function"),
            annotation: nested("annotation"),
            kernel: nested("kernel"),
            amr_level: value_int("amr.level"),
            iteration: value_int("iteration#mainloop"),
            mpi_function: nested("mpi.function"),
            mpi_rank: value_int("mpi.rank"),
        }
    }

    /// All seven attribute labels, as used in aggregation keys.
    pub fn all_labels() -> [&'static str; 7] {
        [
            "function",
            "annotation",
            "kernel",
            "amr.level",
            "iteration#mainloop",
            "mpi.function",
            "mpi.rank",
        ]
    }
}

/// Busy-spin for `ns` nanoseconds of real time.
fn spin(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    let target = std::time::Duration::from_nanos(ns);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

/// The CleverLeaf proxy.
#[derive(Debug, Clone, Default)]
pub struct CleverLeaf {
    /// Workload model parameters.
    pub params: CleverLeafParams,
}

impl CleverLeaf {
    /// Create with the given parameters.
    pub fn new(params: CleverLeafParams) -> CleverLeaf {
        CleverLeaf { params }
    }

    fn work(&self, scope: &mut ThreadScope, ns: u64, mode: WorkMode) {
        match mode {
            WorkMode::Virtual => scope.advance_time(ns),
            WorkMode::Spin { scale } => {
                spin((ns as f64 * scale) as u64);
                // Let the sampler catch up on the real clock.
                scope.advance_time(0);
            }
            WorkMode::Paced { scale } => {
                // Accumulate the scaled time as a sleep debt and pay it
                // in >= 1 ms chunks: per-call sleeps would drown the
                // pacing in syscall overhead (work items are ~us-scale).
                thread_local! {
                    static PACE_DEBT_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
                }
                PACE_DEBT_NS.with(|debt| {
                    let owed = debt.get() + (ns as f64 * scale) as u64;
                    if owed >= 1_000_000 {
                        std::thread::sleep(std::time::Duration::from_nanos(owed));
                        debt.set(0);
                    } else {
                        debt.set(owed);
                    }
                });
                scope.advance_time(ns);
            }
        }
    }

    fn mpi_call(
        &self,
        scope: &mut ThreadScope,
        attrs: &CleverLeafAttrs,
        name: &str,
        ns: u64,
        mode: WorkMode,
    ) {
        scope.begin(&attrs.mpi_function, name);
        self.work(scope, ns, mode);
        scope
            .end(&attrs.mpi_function)
            .expect("balanced MPI wrapper");
    }

    /// Run the instrumented application for one rank on the given
    /// runtime. The caller chooses the runtime's clock to match `mode`
    /// (virtual clock for [`WorkMode::Virtual`], real for spin).
    pub fn run_rank(&self, rank: usize, caliper: &Arc<Caliper>, mode: WorkMode) {
        let p = &self.params;
        let attrs = CleverLeafAttrs::new(caliper);
        caliper.set_global("mpi.rank", rank as i64);
        caliper.set_global("mpi.world.size", p.ranks as u64);
        caliper.set_global("experiment", "cleverleaf-triple-point");

        let mut scope = caliper.make_thread_scope();
        // The MPI rank stays on the blackboard for the whole run, so
        // every snapshot carries it (the MPI wrapper exports it once).
        scope.begin(&attrs.mpi_rank, rank as i64);
        scope.begin(&attrs.function, "main");

        // --- initialization phase ---
        scope.begin(&attrs.annotation, "init");
        self.mpi_call(&mut scope, &attrs, "MPI_Comm_dup", 1_200, mode);
        self.mpi_call(&mut scope, &attrs, "MPI_Bcast", 4_000, mode);
        self.work(&mut scope, (p.coarse_cells_per_rank() * 40.0) as u64, mode);
        scope.end(&attrs.annotation).expect("init balanced");

        // --- main simulation loop ---
        scope.begin(&attrs.annotation, "simulation");
        scope.begin(&attrs.function, "hydro_cycle");
        for t in 0..p.timesteps {
            scope.begin(&attrs.iteration, t as i64);

            // Computational kernels, per refinement level.
            for level in 0..p.levels {
                scope.begin(&attrs.amr_level, level as i64);
                let patches = p.patches(level, t);
                for (kernel, cost) in KERNELS {
                    // One kernel invocation per mesh patch, as in
                    // SAMRAI-based AMR codes — this is what drives the
                    // large event-mode snapshot counts of Table I.
                    let ns = p.kernel_time_ns(*cost, rank, level, t) / patches as u64;
                    for _ in 0..patches {
                        scope.begin(&attrs.kernel, *kernel);
                        self.work(&mut scope, ns, mode);
                        scope.end(&attrs.kernel).expect("kernel balanced");
                    }
                }
                // Halo exchange for this level (point-to-point, small —
                // Figure 6 shows p2p time is comparatively minor).
                self.mpi_call(&mut scope, &attrs, "MPI_Isend", 900, mode);
                self.mpi_call(&mut scope, &attrs, "MPI_Irecv", 700, mode);
                self.mpi_call(&mut scope, &attrs, "MPI_Waitall", 5_000, mode);
                scope.end(&attrs.amr_level).expect("level balanced");
            }

            // Un-annotated computation (regridding, SAMRAI internals).
            self.work(&mut scope, p.unannotated_time_ns(rank, t), mode);

            // dt reduction and synchronization. Both are synchronizing
            // collectives, so both absorb imbalance wait — the barrier
            // most of it, which makes MPI_Barrier the top MPI function
            // with MPI_Allreduce a substantial second (Figure 6).
            let wait = p.barrier_wait_ns(rank, t);
            self.mpi_call(
                &mut scope,
                &attrs,
                "MPI_Allreduce",
                14_000 + (p.ranks as f64).log2() as u64 * 2_000 + wait * 3 / 10,
                mode,
            );
            self.mpi_call(
                &mut scope,
                &attrs,
                "MPI_Barrier",
                wait * 7 / 10 + 2_000,
                mode,
            );

            // Periodic collectives: load-balance checks and output.
            if t % 10 == 0 {
                self.mpi_call(&mut scope, &attrs, "MPI_Allgather", 8_000, mode);
                self.mpi_call(&mut scope, &attrs, "MPI_Reduce", 6_000, mode);
            }
            if t % 25 == 0 {
                scope.begin(&attrs.annotation, "io");
                self.mpi_call(&mut scope, &attrs, "MPI_Gather", 3_500, mode);
                self.work(&mut scope, 50_000, mode);
                scope.end(&attrs.annotation).expect("io balanced");
            }

            scope.end(&attrs.iteration).expect("iteration balanced");
        }
        scope.end(&attrs.function).expect("hydro_cycle balanced");
        scope.end(&attrs.annotation).expect("simulation balanced");

        // --- final output phase ---
        scope.begin(&attrs.annotation, "io");
        self.mpi_call(&mut scope, &attrs, "MPI_Gather", 3_500, mode);
        self.work(&mut scope, 200_000, mode);
        scope.end(&attrs.annotation).expect("final io balanced");

        scope.end(&attrs.function).expect("main balanced");
        scope.flush();
    }

    /// Run all ranks sequentially with virtual clocks, producing one
    /// per-process dataset per rank — the per-process `.cali` outputs
    /// the paper's post-processing step consumes.
    pub fn run_all(&self, config: &Config) -> Vec<Dataset> {
        (0..self.params.ranks)
            .map(|rank| {
                let caliper = Caliper::with_clock(config.clone(), Clock::virtual_clock());
                self.run_rank(rank, &caliper, WorkMode::Virtual);
                caliper.take_dataset()
            })
            .collect()
    }

    /// Run one rank with a real clock and spinning work; returns the
    /// process dataset, the wall-clock seconds elapsed, and the number
    /// of snapshots processed. Used by the Figure 3 overhead harness.
    pub fn run_rank_timed(&self, rank: usize, config: &Config, scale: f64) -> (Dataset, f64, u64) {
        let caliper = Caliper::new(config.clone());
        let start = Instant::now();
        self.run_rank(rank, &caliper, WorkMode::Spin { scale });
        let elapsed = start.elapsed().as_secs_f64();
        (caliper.take_dataset(), elapsed, caliper.total_snapshots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_query::run_query;

    fn small() -> CleverLeaf {
        CleverLeaf::new(CleverLeafParams {
            timesteps: 10,
            ranks: 4,
            ..CleverLeafParams::default()
        })
    }

    #[test]
    fn produces_one_dataset_per_rank() {
        let app = small();
        let config = Config::event_aggregate("kernel,mpi.function", "count,sum(time.duration)");
        let datasets = app.run_all(&config);
        assert_eq!(datasets.len(), 4);
        for (rank, ds) in datasets.iter().enumerate() {
            assert!(!ds.is_empty());
            assert_eq!(
                ds.global("mpi.rank"),
                Some(caliper_data::Value::Int(rank as i64))
            );
        }
    }

    #[test]
    fn datasets_are_deterministic() {
        let app = small();
        let config = Config::event_aggregate("kernel", "count,sum(time.duration)");
        let a = app.run_all(&config);
        let b = app.run_all(&config);
        for (da, db) in a.iter().zip(&b) {
            assert_eq!(
                caliper_format::cali::to_bytes(da),
                caliper_format::cali::to_bytes(db)
            );
        }
    }

    #[test]
    fn paced_mode_matches_virtual_byte_for_byte() {
        // The crash-recovery smoke test relies on this: pacing only
        // stretches wall-clock time, never the measured data.
        let app = CleverLeaf::new(CleverLeafParams {
            timesteps: 3,
            ranks: 1,
            ..CleverLeafParams::default()
        });
        let config = Config::event_trace();
        let run = |mode: WorkMode| {
            let caliper = Caliper::with_clock(config.clone(), Clock::virtual_clock());
            app.run_rank(0, &caliper, mode);
            caliper_format::cali::to_bytes(&caliper.take_dataset())
        };
        assert_eq!(run(WorkMode::Virtual), run(WorkMode::Paced { scale: 1e-6 }));
    }

    #[test]
    fn kernel_profile_shows_calc_dt_dominant() {
        let app = small();
        let config = Config::event_aggregate("kernel", "sum(time.duration)");
        let datasets = app.run_all(&config);
        let result = run_query(
            &datasets[0],
            "AGGREGATE sum(sum#time.duration) WHERE kernel GROUP BY kernel ORDER BY sum#sum#time.duration desc",
        )
        .unwrap();
        let kernel = result.store.find("kernel").unwrap();
        let top = result.records.row(0).get(kernel.id()).unwrap().to_string();
        assert_eq!(top, "calc-dt");
    }

    #[test]
    fn barrier_dominates_mpi_time() {
        let app = small();
        let config = Config::event_aggregate("mpi.function", "sum(time.duration)");
        let datasets = app.run_all(&config);
        // Merge all ranks' profiles.
        let mut total: std::collections::HashMap<String, f64> = Default::default();
        for ds in &datasets {
            let result = run_query(
                ds,
                "AGGREGATE sum(sum#time.duration) WHERE mpi.function GROUP BY mpi.function",
            )
            .unwrap();
            let f = result.store.find("mpi.function").unwrap();
            let s = result.store.find("sum#sum#time.duration").unwrap();
            for rec in result.records.iter() {
                let name = rec.get(f.id()).unwrap().to_string();
                let val = rec.get(s.id()).unwrap().to_f64().unwrap();
                *total.entry(name).or_default() += val;
            }
        }
        let barrier = total["MPI_Barrier"];
        for (name, val) in &total {
            if name != "MPI_Barrier" {
                assert!(barrier >= *val, "{name} = {val} > barrier {barrier}");
            }
        }
        // Point-to-point stays comparatively small.
        assert!(total["MPI_Isend"] < 0.2 * barrier);
    }

    #[test]
    fn sampling_mode_counts_scale_with_runtime() {
        let app = small();
        // 1 ms sampling period.
        let config = Config::sampled_aggregate(1_000_000, "kernel", "count");
        let datasets = app.run_all(&config);
        assert!(!datasets[0].is_empty());
    }

    #[test]
    fn seven_attributes_are_collected() {
        let app = small();
        let config = Config::event_trace();
        let datasets = app.run_all(&config);
        for label in CleverLeafAttrs::all_labels() {
            assert!(
                datasets[0].store.find(label).is_some(),
                "missing attribute {label}"
            );
        }
    }
}
