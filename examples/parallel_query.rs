//! Scalable cross-process aggregation (§IV-C / §V-C), driven through
//! the library API: generate a distributed ParaDiS-style dataset (one
//! `.cali` file per MPI process), run the evaluation query with the
//! parallel query engine — the one `parallel_query` entry point, here
//! on the event engine and the flat binomial tree, as `mpi-caliquery`
//! runs it by default — and print the result with the per-phase timing
//! breakdown Figure 4 plots, then drill down interactively with
//! `requery`.
//!
//! Run with: `cargo run --release --example parallel_query [-- --ranks N]`

use std::path::PathBuf;

use cali_cli::{parallel_query, QueryRun};
use caliper_repro::apps::paradis::{self, ParaDisParams, EVALUATION_QUERY};
use caliper_repro::mpi::{EventEngine, FaultPlan, ResilienceOptions, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);

    // One profile file per (simulated) application process.
    let dir = std::env::temp_dir().join(format!("caliper-example-{}", std::process::id()));
    eprintln!("generating {ranks} per-process ParaDiS profiles under {dir:?} ...");
    let params = ParaDisParams::default();
    let paths = paradis::write_files(&params, ranks, &dir).expect("write profiles");
    eprintln!(
        "each file carries {} pre-aggregated snapshot records\n",
        paradis::generate_rank(&params, 0).len()
    );

    // The paper's evaluation query: total CPU time over computational
    // kernels and MPI functions, across all ranks.
    let per_rank: Vec<Vec<PathBuf>> = paths.iter().map(|p| vec![p.clone()]).collect();
    let (run, _) = parallel_query(
        &EventEngine::new(),
        Topology::Flat,
        EVALUATION_QUERY,
        per_rank,
        FaultPlan::new(),
        ResilienceOptions::default(),
        false,
    );
    let QueryRun {
        result,
        timings,
        coverage,
        ..
    } = run.expect("parallel query");

    println!(
        "== {} output records (paper: 85); top 10 by total time ==\n",
        result.records.len()
    );
    let top = result
        .requery(
            "AGGREGATE sum(sum#sum#time.duration) AS total_us, sum(sum#aggregate.count) AS visits \
             GROUP BY region ORDER BY total_us desc",
        )
        .expect("requery");
    for line in top.render().lines().take(11) {
        println!("{line}");
    }

    println!("\n== timing breakdown (Figure 4's three curves) ==\n");
    println!(
        "local read+process (max over {} ranks): {:.4} s",
        coverage.included.len(),
        timings.local_max_s
    );
    println!(
        "tree reduction (critical path, {} levels): {:.6} s",
        timings.level_merge_max_s.len(),
        timings.reduction_s()
    );
    for (level, t) in timings.level_merge_max_s.iter().enumerate() {
        println!("  level {level}: {t:.6} s");
    }
    println!("total: {:.4} s", timings.total_s());

    std::fs::remove_dir_all(&dir).ok();
}
