//! `cali-race` — happens-before analysis of mpisim communication.
//!
//! Runs a rank program on a simulated MPI engine with the
//! happens-before trace hook armed, then analyzes the trace for message
//! races, wait-cycle deadlocks, and determinism hazards, printing a
//! race-freedom certificate (or the diagnostics) to stdout.
//!
//! ```text
//! cali-race [--program NAME] [--ranks N] [--engine event|threads] ...
//! ```

use std::process::ExitCode;
use std::time::Duration;

use cali_cli::{parse_args, write_trace};
use mpisim::{
    analyze, Action, EventEngine, Executor, FaultPlan, HbTrace, RankTask, ReduceCoverage,
    ReduceTask, ResilienceOptions, Run, SchedError, TaskCtx, ThreadEngine, Topology, Wake,
};

const USAGE: &str =
    "usage: cali-race [--program NAME] [--ranks N] [--engine event|threads] [options]

Runs a rank program under the happens-before trace hook and analyzes
the communication trace for message races (M001), wait-cycle deadlocks
(M002/M003), and timing hazards (N001..N003). Prints the analysis
certificate to stdout; the output is byte-identical across --workers
values on the event engine.

Options:
  --program NAME      rank program to run and analyze:
                        reduce         fault-tolerant tree reduction
                                       (the default; race-free)
                        wildcard-race  root gathers via wildcard
                                       receives from concurrent
                                       senders (a deliberate M001)
                        deadlock       ring of unbounded waits with no
                                       sender (M002; event engine only)
                        straggler      sender delayed past the
                                       receiver's timeout (N001)
  --ranks, --np N     world size (default 64)
  --engine NAME       'event' (deterministic virtual clock; default) or
                      'threads' (one OS thread per rank)
  --workers N         event engine worker threads (default 1; the
                      certificate is identical for any value)
  --nodes N           two-level reduction topology over N nodes
                      (default: flat binomial tree)
  --kills K           kill K ranks at seeded positions (reduce demo)
  --kill-seed S       seed for --kills victim selection (default 42)
  --faults SPEC       explicit fault plan in the shared fault grammar,
                      e.g. 'mpi.kill=at(3,0)' (overrides --kills)
  --trace FILE        also dump the raw happens-before trace as .cali
                      records to FILE
  --deny-warnings     treat warnings (N-codes) as fatal
  -h, --help          show this help

Exit codes: 0 clean (or warnings tolerated), 1 warnings with
--deny-warnings, 2 errors found.
";

/// Tag used by the demo programs' messages.
const TAG: mpisim::Tag = 0x7ace;

/// Deliberately racy gather: the root posts wildcard receives that any
/// of the concurrent senders can match, so with three or more ranks the
/// analyzer must report an M001 message race.
struct WildcardGather {
    rank: usize,
    size: usize,
    got: usize,
}

impl RankTask for WildcardGather {
    type Out = usize;

    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        if self.rank != 0 {
            let _ = ctx.send(0, TAG, Box::new(()));
            return Action::Done;
        }
        match wake {
            Wake::Start => {}
            Wake::Message(_) => self.got += 1,
            Wake::Timeout => return Action::Done,
        }
        if self.got + 1 >= self.size {
            return Action::Done;
        }
        Action::Recv {
            src: None,
            tag: TAG,
            timeout: Some(Duration::from_secs(5)),
        }
    }

    fn into_output(self) -> usize {
        self.got
    }
}

/// Deliberate deadlock: every rank waits forever on its ring successor
/// and nobody ever sends, so the analyzer must name the full wait
/// cycle (M002).
struct WaitRing {
    rank: usize,
    size: usize,
}

impl RankTask for WaitRing {
    type Out = ();

    fn step(&mut self, _ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        match wake {
            Wake::Start => Action::Recv {
                src: Some((self.rank + 1) % self.size),
                tag: TAG,
                timeout: None,
            },
            _ => Action::Done,
        }
    }

    fn into_output(self) {}
}

/// Deliberate timing hazard: rank 1's send is delayed past rank 0's
/// receive timeout, so the message can arrive after the receiver gave
/// up — the analyzer must report an N001 timeout hazard.
struct Straggler {
    rank: usize,
}

impl RankTask for Straggler {
    type Out = ();

    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        match (self.rank, wake) {
            (0, Wake::Start) => Action::Recv {
                src: Some(1),
                tag: TAG,
                timeout: Some(Duration::from_millis(10)),
            },
            (1, Wake::Start) => {
                let _ = ctx.send(0, TAG, Box::new(()));
                Action::Done
            }
            _ => Action::Done,
        }
    }

    fn into_output(self) {}
}

/// The per-run facts the certificate reports besides the analysis:
/// whether the run completed and how many ranks produced output.
struct RunSummary {
    finished: usize,
    size: usize,
    deadlocked: Option<SchedError>,
    trace: HbTrace,
}

fn summarize<Out>(run: Run<Out>, size: usize) -> RunSummary {
    match run.outputs {
        Ok(outs) => RunSummary {
            finished: outs.iter().filter(|o| o.is_some()).count(),
            size,
            deadlocked: None,
            trace: run.trace,
        },
        Err(e) => RunSummary {
            finished: 0,
            size,
            deadlocked: Some(e),
            trace: run.trace,
        },
    }
}

/// Run the selected program on the selected engine, trace hook armed.
fn run_program<E: Executor>(
    engine: &E,
    program: &str,
    size: usize,
    plan: FaultPlan,
    topology: Topology,
) -> Result<RunSummary, String> {
    match program {
        "reduce" => {
            let opts = ResilienceOptions::default();
            let make = move |rank, size| {
                ReduceTask::new(
                    rank,
                    size,
                    topology,
                    move || rank as u64,
                    |a: u64, b: u64| a + b,
                    opts,
                )
            };
            let run: Run<Option<(u64, ReduceCoverage)>> = engine.run(size, plan, make, true);
            Ok(summarize(run, size))
        }
        "wildcard-race" => {
            let make = |rank, size| WildcardGather { rank, size, got: 0 };
            let run = engine.run(size, plan, make, true);
            Ok(summarize(run, size))
        }
        "deadlock" => {
            let run = engine.run(size, plan, |rank, size| WaitRing { rank, size }, true);
            Ok(summarize(run, size))
        }
        "straggler" => {
            if size < 2 {
                return Err("--program straggler needs at least 2 ranks".into());
            }
            let plan = plan.delay(1, 0, Duration::from_millis(50));
            let run = engine.run(size, plan, |rank, _| Straggler { rank }, true);
            Ok(summarize(run, size))
        }
        other => Err(format!(
            "unknown --program '{other}' (use reduce, wildcard-race, deadlock, or straggler)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &[
            "program",
            "ranks",
            "np",
            "engine",
            "workers",
            "nodes",
            "kills",
            "kill-seed",
            "faults",
            "trace",
        ],
        &["h", "help", "deny-warnings"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cali-race: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if !args.positional.is_empty() {
        eprintln!(
            "cali-race: unexpected positional arguments {:?}\n{USAGE}",
            args.positional
        );
        return ExitCode::FAILURE;
    }

    let program = args.get(&["program"]).unwrap_or("reduce");
    let size: usize = match args.get(&["ranks", "np"]).unwrap_or("64").parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("cali-race: invalid --ranks");
            return ExitCode::FAILURE;
        }
    };
    let workers: usize = match args.get(&["workers"]).unwrap_or("1").parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("cali-race: invalid --workers");
            return ExitCode::FAILURE;
        }
    };
    let engine_name = args.get(&["engine"]).unwrap_or("event");

    // Fault plan: explicit grammar spec wins, else seeded kills.
    let (plan, faults_desc) = match args.get(&["faults"]) {
        Some(spec) => match FaultPlan::from_spec(spec) {
            Ok(plan) => (plan, format!("spec '{spec}'")),
            Err(e) => {
                eprintln!("cali-race: --faults: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let kills: usize = match args.get(&["kills"]).unwrap_or("0").parse() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("cali-race: invalid --kills");
                    return ExitCode::FAILURE;
                }
            };
            let seed: u64 = match args.get(&["kill-seed"]).unwrap_or("42").parse() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("cali-race: invalid --kill-seed");
                    return ExitCode::FAILURE;
                }
            };
            if kills > 0 {
                (
                    FaultPlan::seeded_kills(seed, kills, size),
                    format!("kills={kills} seed={seed}"),
                )
            } else {
                (FaultPlan::new(), "none".to_string())
            }
        }
    };

    // Topology: flat binomial tree, or two-level over --nodes groups.
    let (topology, topo_desc) = match args.get(&["nodes"]) {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => (
                Topology::two_level_for(size, n),
                format!("two-level ({n} nodes)"),
            ),
            _ => {
                eprintln!("cali-race: invalid --nodes '{v}'");
                return ExitCode::FAILURE;
            }
        },
        None => (Topology::Flat, "flat".to_string()),
    };

    let summary = match engine_name {
        "event" => {
            let engine = EventEngine::with_workers(workers);
            run_program(&engine, program, size, plan, topology)
        }
        "threads" => {
            if program == "deadlock" {
                // A blocked OS thread blocks forever; only the virtual
                // clock can observe that no event can ever arrive.
                eprintln!("cali-race: --program deadlock requires --engine event");
                return ExitCode::FAILURE;
            }
            if args.get(&["workers"]).is_some() {
                eprintln!("cali-race: --workers requires --engine event\n{USAGE}");
                return ExitCode::FAILURE;
            }
            run_program(&ThreadEngine, program, size, plan, topology)
        }
        other => {
            eprintln!("cali-race: unknown --engine '{other}' (use 'event' or 'threads')");
            return ExitCode::FAILURE;
        }
    };
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cali-race: {e}");
            return ExitCode::FAILURE;
        }
    };

    summary.trace.record_metrics();
    if let Some(path) = args.get(&["trace"]) {
        if let Err(e) = write_trace(&summary.trace, std::path::Path::new(path)) {
            eprintln!("cali-race: --trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let analysis = analyze(&summary.trace);

    // The certificate. Everything below is deterministic on the event
    // engine for any --workers value, so runs can be cmp'd byte for
    // byte.
    println!("cali-race certificate");
    println!("program:  {program}");
    match engine_name {
        "event" => println!("engine:   event"),
        _ => println!("engine:   threads"),
    }
    println!("ranks:    {size}");
    println!("topology: {topo_desc}");
    println!("faults:   {faults_desc}");
    match &summary.deadlocked {
        Some(e) => println!("run:      {e}"),
        None => println!(
            "run:      completed, {} of {} ranks finished",
            summary.finished, summary.size
        ),
    }
    print!("{}", analysis.render());

    let deny = args.has(&["deny-warnings"]);
    ExitCode::from(analysis.exit_code(deny))
}
