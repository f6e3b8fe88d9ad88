//! ParaDiS dataset generator.
//!
//! §V-C of the paper evaluates cross-process aggregation scalability on
//! "a distributed Caliper dataset collected from ParaDiS, a dislocation
//! dynamics application, using 4096 MPI processes … The dataset contains
//! a per-process time-series profile over computational kernels, MPI
//! functions, MPI rank, and main loop iterations, with visit count and
//! aggregate runtime of each unique region. Each of the 4096 input files
//! contains 2174 snapshot records" and the evaluation query produces 85
//! output records.
//!
//! This generator produces statistically equivalent per-rank datasets:
//! 85 unique kernel/MPI-function regions (the query's output keys)
//! crossed with main-loop iterations, visit counts, and aggregated
//! runtimes, ~2174 records per rank.

use caliper_data::{FlatRecord, Properties, SnapshotRecord, Value, ValueType};
use caliper_format::Dataset;

use crate::model::noise;

/// ParaDiS kernel names (dislocation dynamics phases).
pub const PARADIS_KERNELS: &[&str] = &[
    "SortNativeNodes",
    "CommSendGhosts",
    "CalcSegForces",
    "CalcNodeVelocities",
    "SplitMultiNodes",
    "CrossSlip",
    "HandleCollisions",
    "RemeshRefine",
    "RemeshCoarsen",
    "TimestepIntegrator",
    "FixRemesh",
    "MigrateNodes",
    "GenerateOutput",
    "LoadCurve",
    "OsmoticForce",
    "DeltaPlasticStrain",
    "CellCharge",
    "FMMUpdate",
    "LocalSegForces",
    "RemoteSegForces",
    "NodeForce",
    "PartialForces",
    "SortNodes",
    "InitializeCell",
    "FreeCell",
    "WriteRestart",
    "WriteProps",
    "Plot",
    "ParadisStep",
    "ParadisFinish",
    "RecycleNodes",
    "AssignNodesToDomains",
    "CommSendVelocity",
    "CommSendCoord",
    "FindPreciseGlidePlane",
    "AdjustNodePosition",
    "PickScrewGlidePlane",
    "ResetGlidePlanes",
    "InitRemoteDomains",
    "BuildRecvDomList",
    "ZeroNodeForces",
    "SetOneNodeForce",
    "ExtraNodeForce",
    "SegSegForce",
    "ComputeForces",
    "ComputeSegSigbRem",
    "DistributeForces",
    "ApplyNodeConstraints",
    "EnforceGlidePlanes",
    "CheckMemUsage",
    "SortTelescope",
    "FreeInitArrays",
    "VerifyBurgersVectors",
    "InitCellNatives",
    "InitCellNeighbors",
    "InitCellDomains",
    "UpdateCellsCharge",
    "MonopoleCellCharge",
    "AverageBurgers",
    "SegmentListSort",
    "CollisionDetection",
    "ProximityCollision",
    "RetroactiveCollision",
    "SplinterSegments",
    "CrossSlipBCC",
    "CrossSlipFCC",
    "OsmoticVelocity",
    "MobilityLaw",
    "MobilityBCC0",
    "MobilityFCC0",
];

/// ParaDiS MPI functions.
pub const PARADIS_MPI: &[&str] = &[
    "MPI_Isend",
    "MPI_Irecv",
    "MPI_Wait",
    "MPI_Waitall",
    "MPI_Allreduce",
    "MPI_Reduce",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Allgather",
    "MPI_Gather",
    "MPI_Alltoall",
    "MPI_Pack",
    "MPI_Unpack",
    "MPI_Sendrecv",
    "MPI_Scatter",
];

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct ParaDisParams {
    /// Main-loop iterations in the time-series profile.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ParaDisParams {
    fn default() -> ParaDisParams {
        // 85 regions x 25 iterations = 2125 records, plus the
        // per-region grand-total records: 2125 + 49 partial = ~2174.
        ParaDisParams {
            iterations: 25,
            seed: 0xD15C,
        }
    }
}

/// Number of unique regions = the paper's 85 query output records.
pub fn region_count() -> usize {
    PARADIS_KERNELS.len() + PARADIS_MPI.len()
}

/// Generate the per-rank time-series profile dataset for `rank`.
///
/// Each record carries: the region (kernel **or** mpi.function), the
/// rank, the iteration number, the visit count (`aggregate.count`) and
/// aggregated runtime (`sum#time.duration`) — exactly the shape the
/// on-line aggregation service would produce with
/// `AGGREGATE count, sum(time.duration)
///  GROUP BY kernel, mpi.function, mpi.rank, iteration`.
pub fn generate_rank(params: &ParaDisParams, rank: usize) -> Dataset {
    let mut ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let mpi_function = ds.attribute("mpi.function", ValueType::Str, Properties::NESTED);
    let mpi_rank = ds.attribute("mpi.rank", ValueType::Int, Properties::AS_VALUE);
    let iteration = ds.attribute("iteration", ValueType::Int, Properties::AS_VALUE);
    let count = ds.attribute(
        "aggregate.count",
        ValueType::UInt,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let duration = ds.attribute(
        "sum#time.duration",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    ds.set_global("experiment", "paradis");
    ds.set_global("mpi.rank", rank as i64);

    let mut push = |region_attr: u32, region: &str, iter: i64, visits: u64, time_us: f64| {
        let mut rec = FlatRecord::new();
        rec.push(region_attr, Value::str(region));
        rec.push(mpi_rank.id(), Value::Int(rank as i64));
        rec.push(iteration.id(), Value::Int(iter));
        rec.push(count.id(), Value::UInt(visits));
        rec.push(duration.id(), Value::Float(time_us));
        ds.records.push(SnapshotRecord::from(&rec));
    };

    for iter in 0..params.iterations {
        for (i, name) in PARADIS_KERNELS.iter().enumerate() {
            let visits = 1 + (noise(params.seed, &[rank as u64, i as u64, iter as u64]) * 6.0) as u64;
            let base = 20.0 + 400.0 * noise(params.seed, &[i as u64]);
            let jitter = 0.8 + 0.4 * noise(params.seed, &[rank as u64, i as u64, iter as u64, 1]);
            push(kernel.id(), name, iter as i64, visits, base * jitter);
        }
        for (i, name) in PARADIS_MPI.iter().enumerate() {
            let key = 1000 + i as u64;
            let visits =
                2 + (noise(params.seed, &[rank as u64, key, iter as u64]) * 10.0) as u64;
            let base = 10.0 + 250.0 * noise(params.seed, &[key]);
            let jitter = 0.8 + 0.4 * noise(params.seed, &[rank as u64, key, iter as u64, 1]);
            push(mpi_function.id(), name, iter as i64, visits, base * jitter);
        }
    }
    // Grand-total records for the hottest regions (the per-run summary
    // rows ParaDiS profiles carry), bringing the record count to ~2174.
    for (i, name) in PARADIS_KERNELS.iter().take(49).enumerate() {
        let visits = 40 + (noise(params.seed, &[rank as u64, i as u64, 9999]) * 60.0) as u64;
        let base = 600.0 + 4000.0 * noise(params.seed, &[i as u64, 7]);
        push(kernel.id(), name, -1, visits, base);
    }
    ds
}

/// Generate the whole distributed dataset (one per rank).
pub fn generate(params: &ParaDisParams, ranks: usize) -> Vec<Dataset> {
    (0..ranks).map(|r| generate_rank(params, r)).collect()
}

/// Write per-rank `.cali` files under `dir`, returning the paths.
pub fn write_files(
    params: &ParaDisParams,
    ranks: usize,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let ds = generate_rank(params, rank);
        let path = dir.join(format!("paradis-{rank:05}.cali"));
        caliper_format::cali::write_file(&ds, &path)?;
        paths.push(path);
    }
    Ok(paths)
}

/// The paper's evaluation query for this dataset: "compute the total CPU
/// time spent in computational kernels and MPI functions across MPI
/// ranks, producing 85 output records."
pub const EVALUATION_QUERY: &str = "LET region = first(kernel, mpi.function) \
     AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
     GROUP BY region";

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_query::run_query;

    #[test]
    fn record_count_matches_paper() {
        let ds = generate_rank(&ParaDisParams::default(), 0);
        assert_eq!(ds.len(), 2174);
    }

    #[test]
    fn unique_region_count_is_85() {
        assert_eq!(region_count(), 85);
        let ds = generate_rank(&ParaDisParams::default(), 3);
        let result = run_query(&ds, EVALUATION_QUERY).unwrap();
        assert_eq!(result.records.len(), 85);
    }

    #[test]
    fn generation_is_deterministic_per_rank() {
        let p = ParaDisParams::default();
        let a = caliper_format::cali::to_bytes(&generate_rank(&p, 5));
        let b = caliper_format::cali::to_bytes(&generate_rank(&p, 5));
        assert_eq!(a, b);
        let c = caliper_format::cali::to_bytes(&generate_rank(&p, 6));
        assert_ne!(a, c);
    }

    #[test]
    fn files_roundtrip() {
        let dir = std::env::temp_dir().join("paradis-test");
        let paths = write_files(&ParaDisParams { iterations: 2, ..Default::default() }, 3, &dir)
            .unwrap();
        assert_eq!(paths.len(), 3);
        let ds = caliper_format::cali::read_file(&paths[0]).unwrap();
        assert!(!ds.is_empty());
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn durations_are_positive() {
        let ds = generate_rank(&ParaDisParams::default(), 0);
        let dur = ds.store.find("sum#time.duration").unwrap();
        for rec in ds.flat_records() {
            let v = rec.get(dur.id()).unwrap().to_f64().unwrap();
            assert!(v > 0.0);
        }
    }
}
