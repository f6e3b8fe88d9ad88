//! `mpi-caliquery` — scalable cross-process aggregation (paper §IV-C).
//!
//! Distributes the input files over N simulated MPI query processes,
//! aggregates locally on each, reduces the partial results up a
//! binomial tree to rank 0, and prints the result plus — with
//! `--timings` — the breakdown that Figure 4 of the paper reports.
//! Every flag combination is the same run: one `parallel_query` call,
//! one report.
//!
//! ```text
//! mpi-caliquery --np N [-q QUERY] [--timings] INPUT.cali...
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use cali_cli::{parallel_query, parse_args, write_trace, CliArgs, ParallelError, QueryRun};
use mpisim::{EventEngine, FaultPlan, HbTrace, ResilienceOptions, ThreadEngine, Topology};

const USAGE: &str = "usage: mpi-caliquery --np N [-q QUERY] [--timings] INPUT.cali...

Runs an aggregation query across many Caliper data files in parallel
(N simulated MPI processes; files are distributed round-robin).

Options:
  --np, --ranks N     number of query processes (default: number of inputs)
  -q, --query QUERY   the aggregation scheme (must aggregate)
                      default: \"AGGREGATE sum(sum#time.duration),
                      sum(aggregate.count) GROUP BY kernel\"
  --timings           print the per-phase timing breakdown to stderr:
                      local read+process (max over ranks), tree
                      reduction (critical path and per level), root
                      finish, render, total; on the event engine also the
                      scheduler's counters. The times ride the same
                      reduction as the data, so this works with every
                      other flag, --faults included.
  --engine NAME       execution engine: 'event' (the default: a
                      deterministic virtual-clock scheduler, good for
                      rank counts in the thousands; a rank's local
                      phase costs no virtual time, so a slow rank is
                      never mistaken for a dead one) or 'threads' (one
                      OS thread per rank; receive timeouts are
                      wall-clock, so a rank that reads for longer than
                      about a second can be written off as lost)
  --nodes N           two-level reduction topology: ranks are grouped
                      into N nodes, each node pre-reduces locally, then
                      node leaders reduce across nodes (default: flat
                      binomial tree over all ranks)
  --workers N         event engine only: worker threads stepping ready
                      ranks (default: the available parallelism;
                      results are identical for any value)
  --faults SPEC       chaos testing: script simulated rank faults with
                      the shared fault grammar, e.g.
                      \"mpi.kill=at(2,0);mpi.delay=at(1,0,20)\" kills
                      rank 2 at its first comm op and stalls rank 1 by
                      20 ms; the reduction routes around dead ranks and
                      the run reports which ranks' data the result
                      covers (also read from CALI_FAULTS)
  --analyze           record the happens-before communication trace and
                      run the race/deadlock analysis on it after the
                      query; the certificate is printed to stderr and
                      analysis errors fail the run (see cali-race for
                      the standalone analyzer)
  --trace FILE        dump the happens-before trace as .cali records to
                      FILE (aggregatable with cali-query)
  -h, --help          show this help

Exit codes: 0 success, 1 error, 2 success but the result is partial
(injected faults lost some ranks' contributions).
";

/// Report one run: dump (`--trace FILE`) and/or analyze (`--analyze`)
/// the happens-before trace when one was recorded, print the result,
/// the `--timings` breakdown — with the scheduler's counters when the
/// event engine (`sched`) ran — and the coverage. Analysis errors
/// (message races, deadlock cycles) fail the run even when the query
/// itself produced a result.
fn report(
    outcome: Result<QueryRun, ParallelError>,
    trace: Option<HbTrace>,
    args: &CliArgs,
    sched: bool,
) -> ExitCode {
    let mut analysis_errors = false;
    if let Some(trace) = trace {
        trace.record_metrics();
        if let Some(path) = args.get(&["trace"]) {
            if let Err(e) = write_trace(&trace, std::path::Path::new(path)) {
                eprintln!("mpi-caliquery: --trace {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "mpi-caliquery: wrote {} trace events ({} ranks) to {path}",
                trace.len(),
                trace.size()
            );
        }
        if args.has(&["analyze"]) {
            let analysis = mpisim::analyze(&trace);
            eprint!("{}", analysis.render());
            analysis_errors = analysis.exit_code(false) == 2;
        }
    }
    let code = match outcome {
        Ok(run) => {
            let start = std::time::Instant::now();
            let rendered = run.result.render();
            let render_s = start.elapsed().as_secs_f64();
            print!("{rendered}");
            if args.has(&["timings"]) {
                let t = &run.timings;
                eprintln!("# local read+process (max over ranks): {:.6} s", t.local_max_s);
                eprintln!("# tree reduction (critical path):      {:.6} s", t.reduction_s());
                for (level, t) in t.level_merge_max_s.iter().enumerate() {
                    eprintln!("#   level {level}: {t:.6} s");
                }
                eprintln!("# root finish:                         {:.6} s", t.finish_s);
                eprintln!("# render:                              {render_s:.6} s");
                eprintln!(
                    "# total:                               {:.6} s",
                    t.total_s() + render_s
                );
                if sched {
                    let m = caliper_data::metrics::global();
                    eprintln!(
                        "# sched events:          {}",
                        m.counter_volatile("mpisim.sched.events").get()
                    );
                    eprintln!(
                        "# sched virtual time:    {} ns",
                        m.gauge_volatile("mpisim.sched.virtual_time_ns").get()
                    );
                    eprintln!(
                        "# sched max queue depth: {}",
                        m.gauge_volatile("mpisim.sched.max_queue_depth").get()
                    );
                }
            }
            let coverage = &run.coverage;
            if coverage.is_complete() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "mpi-caliquery: partial result: covers {} of {} ranks; lost ranks {:?}",
                    coverage.included.len(),
                    coverage.included.len() + coverage.lost.len(),
                    coverage.lost
                );
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("mpi-caliquery: {e}");
            ExitCode::FAILURE
        }
    };
    if analysis_errors {
        eprintln!("mpi-caliquery: --analyze found communication errors");
        return ExitCode::FAILURE;
    }
    code
}

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &["q", "query", "np", "ranks", "faults", "engine", "nodes", "workers", "trace"],
        &["h", "help", "analyze", "timings"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mpi-caliquery: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.positional.is_empty() {
        eprintln!("mpi-caliquery: no input files\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let np: usize = match args.get(&["np", "ranks"]) {
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("mpi-caliquery: invalid --np '{v}'");
                return ExitCode::FAILURE;
            }
        },
        None => args.positional.len(),
    };
    let query = args
        .get(&["q", "query"])
        .unwrap_or("AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel");

    // Scripted rank faults: an explicit --faults spec wins, otherwise
    // lift any mpi.* schedule from the process-wide CALI_FAULTS
    // registry (which also arms the I/O failpoints on the read paths).
    let plan = match args.get(&["faults"]) {
        Some(spec) => match FaultPlan::from_spec(spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("mpi-caliquery: --faults: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => FaultPlan::from_global(),
    };

    // Reduction topology: flat binomial tree unless --nodes asks for
    // the two-level (intra-node, then cross-node) scheme.
    let topology = match args.get(&["nodes"]) {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Topology::two_level_for(np, n),
            _ => {
                eprintln!("mpi-caliquery: invalid --nodes '{v}'");
                return ExitCode::FAILURE;
            }
        },
        None => Topology::Flat,
    };
    let workers: usize = match args.get(&["workers"]) {
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("mpi-caliquery: invalid --workers '{v}'");
                return ExitCode::FAILURE;
            }
        },
        // The rule `cali-query --threads` follows: what the machine has.
        None => caliper_query::ParallelOptions::default().effective_threads(),
    };

    // Round-robin file distribution, one subset per query process.
    let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); np];
    for (i, path) in args.positional.iter().enumerate() {
        per_rank[i % np].push(PathBuf::from(path));
    }

    let engine = args.get(&["engine"]).unwrap_or("event");
    // --analyze and --trace both need the happens-before hook armed.
    let traced = args.has(&["analyze"]) || args.get(&["trace"]).is_some();
    let opts = ResilienceOptions::default();
    let (outcome, trace) = match engine {
        "event" => {
            let engine = EventEngine::with_workers(workers);
            parallel_query(&engine, topology, query, per_rank, plan, opts, traced)
        }
        "threads" if args.get(&["workers"]).is_some() => {
            eprintln!("mpi-caliquery: --workers requires --engine event\n{USAGE}");
            return ExitCode::FAILURE;
        }
        "threads" => parallel_query(&ThreadEngine, topology, query, per_rank, plan, opts, traced),
        other => {
            eprintln!("mpi-caliquery: unknown --engine '{other}' (use 'event' or 'threads')");
            return ExitCode::FAILURE;
        }
    };
    report(outcome, trace, &args, engine == "event")
}
