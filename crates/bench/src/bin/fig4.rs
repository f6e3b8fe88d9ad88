//! Figure 4: scalability of cross-process aggregation in the MPI-based
//! query application — total runtime (including I/O), reading and
//! processing process-local input, and tree-based cross-process
//! reduction, in a weak-scaling mode (one ParaDiS input file per query
//! process).
//!
//! The paper runs 1…4096 MPI processes on a cluster. On a laptop all
//! "ranks" share a few cores, so wall-clock cannot show weak scaling;
//! instead this harness reports the *critical path* on an uncontended
//! core (see DESIGN.md §3). Every point is one `cali_cli::parallel_query`
//! call — the code path `mpi-caliquery` runs — on the event engine with
//! a single worker, so local phases and merges execute one after the
//! other and each is timed undisturbed:
//!
//! * local time  = max over ranks of the time to read + aggregate one
//!   input file (constant per process under weak scaling, by
//!   construction);
//! * reduction   = sum over tree levels of the maximum merge time on
//!   that level;
//! * total       = local max + reduction + root finish.
//!
//! The times are folded up the reduction tree with the data; the
//! harness re-implements nothing.
//!
//! With `--kill RANK`, the run finishes with a failure-injection
//! check: the same parallel query executed under a [`FaultPlan`] that
//! kills the given (non-root) rank at its first communication op. The
//! reduction routes around the dead subtree; the harness reports the
//! reduction coverage (which ranks' contributions made it) and verifies
//! the merged result equals a serial aggregation over exactly the
//! surviving ranks' files.
//!
//! # Synthetic scale mode (`--ranks N`)
//!
//! With `--ranks N` the harness instead runs one fault-tolerant tree
//! reduction over N *simulated* ranks with synthetic per-rank payloads
//! (no input files — at 16 384 ranks, file I/O would dwarf the thing
//! being measured), on the deterministic virtual-clock scheduler of
//! `mpisim::sched`. Everything written to stdout — the merged value, the
//! coverage, the event count, the virtual-clock makespan — is
//! byte-identical across runs and across `--workers` values, which is
//! exactly what `scripts/check.sh` pins.
//! Wall-clock time (machine-dependent) goes to stderr.
//!
//! Usage: `fig4 [--quick] [--max-np N] [--kill RANK]`
//!        `fig4 --ranks N [--nodes N] [--workers W] [--kills K]
//!              [--kill-seed S]`

use std::path::PathBuf;
use std::time::Instant;

use cali_cli::{parallel_query, read_files, QueryRun};
use caliper_query::run_query;
use miniapps::paradis::{self, ParaDisParams, EVALUATION_QUERY};
use mpisim::{EventEngine, FaultPlan, ReduceCoverage, ReduceTask, ResilienceOptions, Topology};

/// The evaluation query over the first `np` files, one per rank, on
/// the single-worker event engine.
fn query_run(paths: &[PathBuf], np: usize, plan: FaultPlan) -> QueryRun {
    let per_rank = paths[..np].iter().map(|p| vec![p.clone()]).collect();
    let opts = ResilienceOptions::default();
    parallel_query(&EventEngine::new(), Topology::Flat, EVALUATION_QUERY, per_rank, plan, opts, false)
        .0
        .expect("parallel query")
}

/// Run the fault-injected cross-process reduction at `np` ranks, report
/// coverage, and check the survivors-only equality.
fn failure_injection_check(paths: &[PathBuf], np: usize, victim: usize) {
    assert!(
        victim > 0 && victim < np,
        "--kill takes a non-root rank below np (got {victim}, np {np})"
    );
    eprintln!();
    eprintln!("# failure injection: killing rank {victim} at its first comm op, np = {np}");
    let QueryRun { result, coverage, .. } = query_run(paths, np, FaultPlan::new().kill(victim, 0));
    eprintln!(
        "# reduction coverage: {}/{} ranks included; lost subtree: {:?}",
        coverage.included.len(),
        np,
        coverage.lost
    );
    let survivor_paths: Vec<PathBuf> = coverage.included.iter().map(|&r| paths[r].clone()).collect();
    let ds = read_files(&survivor_paths).expect("read survivor files");
    let serial = run_query(&ds, EVALUATION_QUERY).expect("serial reference query");
    assert_eq!(
        serial.to_table().render(),
        result.to_table().render(),
        "resilient result must equal a serial aggregation over the surviving ranks"
    );
    eprintln!(
        "# resilient result matches the serial aggregation over survivors ({} output records)",
        result.records.len()
    );
}

/// Numeric flag value, e.g. `flag(&args, "--ranks")`.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Render coverage deterministically: counts plus the full lost set
/// (compact enough even when a kill strands a large subtree).
fn coverage_line(c: &ReduceCoverage) -> String {
    let lost: Vec<String> = c.lost.iter().map(|r| r.to_string()).collect();
    format!(
        "included,{},lost,{},lost_ranks,[{}]",
        c.included.len(),
        c.lost.len(),
        lost.join(" ")
    )
}

/// The synthetic scale mode: one resilient tree reduction over `ranks`
/// simulated ranks, payload = rank index, merge = sum. Deterministic
/// results to stdout, wall-clock to stderr.
fn synthetic_scale_run(args: &[String], ranks: usize) {
    let nodes: usize = flag(args, "--nodes").unwrap_or(1);
    let workers: usize = flag(args, "--workers").unwrap_or(1);
    let kills: usize = flag(args, "--kills").unwrap_or(0);
    let seed: u64 = flag(args, "--kill-seed").unwrap_or(0x5EED);
    let topology = if nodes > 1 {
        Topology::two_level_for(ranks, nodes)
    } else {
        Topology::Flat
    };
    let plan = FaultPlan::seeded_kills(seed, kills, ranks);
    let opts = ResilienceOptions::default();
    let make = move |rank: usize, size: usize| {
        ReduceTask::new(rank, size, topology, move || rank as u64, |a, b| a + b, opts)
    };

    eprintln!(
        "# synthetic scale run: {ranks} ranks, {nodes} node(s), \
         {workers} worker(s), {kills} seeded kill(s) (seed {seed:#x})"
    );
    let t = Instant::now();
    let engine = EventEngine::with_workers(workers);
    let (mut outputs, stats) = engine.run_tasks_with_stats(ranks, plan, make);
    let wall = t.elapsed().as_secs_f64();

    let (sum, coverage) = outputs[0]
        .take()
        .expect("rank 0 is never a seeded victim")
        .expect("rank 0 is the reduction root");
    println!("engine,event,ranks,{ranks},nodes,{nodes},kills,{kills}");
    println!("sum,{sum}");
    println!("{}", coverage_line(&coverage));
    println!(
        "sched_events,{},virtual_time_ns,{}",
        stats.events, stats.virtual_time_ns
    );
    eprintln!("# wall: {wall:.3} s");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(ranks) = flag::<usize>(&args, "--ranks") {
        synthetic_scale_run(&args, ranks);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let max_np: usize = args
        .iter()
        .position(|a| a == "--max-np")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 16 } else { 1024 });
    let kill: Option<usize> = args
        .iter()
        .position(|a| a == "--kill")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let dir = std::env::temp_dir().join(format!("caliper-fig4-{}", std::process::id()));
    let params = ParaDisParams::default();
    eprintln!("# Figure 4 reproduction: generating {max_np} ParaDiS input files under {dir:?}");
    let paths = paradis::write_files(&params, max_np, &dir).expect("write input files");
    eprintln!(
        "# each file: {} snapshot records (paper: 2174)",
        paradis::generate_rank(&params, 0).len()
    );
    println!("np,total_s,local_max_s,reduction_s,levels,output_records,wall_s");
    let mut np = 1;
    while np <= max_np {
        let t = Instant::now();
        let QueryRun { result, timings, .. } = query_run(&paths, np, FaultPlan::new());
        let wall = t.elapsed().as_secs_f64();
        let (total, local_max, reduction, finish) = (
            timings.total_s(),
            timings.local_max_s,
            timings.reduction_s(),
            timings.finish_s,
        );
        let levels = timings.level_merge_max_s.len();
        println!(
            "{np},{total:.6},{local_max:.6},{reduction:.6},{levels},{},{wall:.6}",
            result.records.len()
        );
        eprintln!(
            "# np {np:>5}: total {total:.4} s = local {local_max:.4} + reduction {reduction:.5} ({levels} levels) + finish {finish:.5}; {} output records (paper: 85)",
            result.records.len()
        );
        np *= 2;
    }

    if let Some(victim) = kill {
        failure_injection_check(&paths, max_np, victim);
    }

    std::fs::remove_dir_all(&dir).ok();
    eprintln!();
    eprintln!("# Expected shape (paper §V-C): local input time roughly constant");
    eprintln!("# (weak scaling), reduction time growing logarithmically with np,");
    eprintln!("# total dominated by local processing + I/O.");
}
