//! `cali-bench` — the repository's benchmark.
//!
//! ```text
//! cali-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!            [--quick] [--runs N] [--out FILE]
//! cali-bench compare A.json B.json
//! ```
//!
//! One run builds the release binaries, generates a seeded corpus,
//! drives five stages (`scan`, `wide`, `served`, `online`, `reduce`),
//! checks every output, and prints every metric by name with its unit;
//! its last line of standard output is the one JSON object described in
//! `BENCHMARK.json`'s contract. The workload chooses which stage runs
//! at full size with the largest share of `--seconds`. See `README.md`.

mod affinity;
mod alloc;
mod calib;
mod compare;
mod corpus;
mod env;
mod layers;
mod online_stage;
mod plan;
mod query_stage;
mod reduce_stage;
mod report;
mod served_stage;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use corpus::Corpus;
use env::{Budget, Env, Tally};
use plan::{Plan, Stage};
use report::{Metrics, RunResult};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: cali-bench [--workload scan|wide|served|online|reduce] [--seed N]
                  [--seconds S] [--trace 0|1] [--quick] [--runs N] [--out FILE]
       cali-bench compare A.json B.json

Without --workload every workload runs in turn (with --quick: only `scan`,
whose reduced stages still cover every check); without --trace each runs
untraced (end-to-end metrics) and then traced (per-layer metrics).
--runs N repeats each N times with seeds --seed, --seed+1, ... and prints the spread;
--out FILE saves all results for `cali-bench compare`.";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 1;

/// Generate and encode the corpus and bring a daemon up to its first
/// `/readyz` 200 — everything a run computes before its first timed
/// operation. Done several times; the median is `setup_s`, so work moved
/// into set-up shows. Two waits are left out: writing the corpus files
/// (see [`corpus::Encoded`]) and taking the daemon down again, whose
/// drain sits on 50 ms and 10 ms poll timers. Each set-up's seconds
/// are at reference speed.
fn setup(env: &Env, plan: &Plan) -> Result<(Corpus, Vec<f64>), String> {
    let reps = if plan.quick { 1 } else { 5 };
    let mut seconds = Vec::new();
    let mut corpus = None;
    for _ in 0..reps {
        let dir = env
            .work
            .fresh("corpus")
            .map_err(|e| format!("corpus dir: {e}"))?;
        let data_dir = env
            .work
            .fresh("setup-data")
            .map_err(|e| format!("data dir: {e}"))?;
        let (generated, generate_speed) = env.cal.bracket(|| {
            let start = Instant::now();
            let encoded = corpus::generate(&dir, plan.seed, &plan.scale());
            (encoded, start.elapsed().as_secs_f64())
        });
        let (encoded, generate_s) = generated;
        corpus = Some(
            encoded
                .and_then(corpus::Encoded::write)
                .map_err(|e| format!("generating the corpus: {e}"))?,
        );
        let (spawned, ready_speed) = env
            .cal
            .bracket(|| served_stage::Daemon::spawn(env, &data_dir));
        let (daemon, ready_s) = spawned?;
        seconds.push(generate_s * generate_speed + ready_s * ready_speed);
        if !daemon.shutdown() {
            return Err("the daemon did not shut down cleanly during set-up".to_string());
        }
    }
    Ok((corpus.expect("at least one set-up"), seconds))
}

/// The untraced run: all five stages as black boxes, taking turns one
/// round each until `--seconds` are used (at least three rounds). The
/// one-off reference and cross-check runs count against the same time.
fn end_to_end(env: &Env, corpus: &Corpus, plan: &Plan, tally: &mut Tally, m: &mut Metrics) {
    let mut budget = Budget::new(plan.seconds, 3);
    let mut scan = query_stage::Scan::new(env, corpus, plan, tally);
    let mut wide = query_stage::Wide::new(env, corpus, plan, tally);
    let mut served = served_stage::ServedSamples::default();
    let mut online =
        online_stage::Online::new(online_stage::app(plan), online_stage::end_to_end_configs());
    let mut reduce = reduce_stage::Reduce::new(env, reduce_stage::shape(corpus, plan), tally);
    while budget.next_round() {
        scan.round(env, tally);
        wide.round(env, tally);
        served_stage::round(env, corpus, plan, &mut served, tally);
        online.round(&env.cal, tally);
        reduce.round(env, tally);
    }
    m.speed = env.cal.speed();

    m.rate_at_reference("scan_text_rec_per_s", scan.records, &scan.text);
    m.rate_at_reference("scan_v2_rec_per_s", scan.records, &scan.v2);
    m.rate_at_reference("wide_rec_per_s", wide.wide_records, &wide.wide);
    m.rate_at_reference("distinct_rec_per_s", wide.distinct_records, &wide.distinct);
    m.median_at_reference("select_ms", &wide.select, 1e3);
    m.rate_at_reference("ingest_rec_per_s", 1, &served.small_s_per_rec);
    m.median_at_reference("ack_p50_us", &served.ack_s, 1e6);
    // Mostly the daemon's 10 ms accept poll, a timer: reported raw.
    m.median("query_p50_ms", &served.query_s, 1e3);
    m.median_at_reference("replay_s", &served.replay_s, 1.0);
    for (name, samples) in ["snapshot_trace_ns", "snapshot_agg_ns"]
        .into_iter()
        .zip(&online.samples)
    {
        m.median_at_reference(name, &samples.ns_per_snapshot, 1.0);
    }
    m.median_at_reference("reduce_16k_s", &reduce.sparse, 1.0);
    m.median_at_reference("reduce_dense_s", &reduce.dense, 1.0);
}

/// One run of one workload in one mode.
fn run_once(env: &Env, plan: &Plan) -> Result<RunResult, String> {
    env.cal.reset();
    let (corpus, setup_s) = setup(env, plan)?;
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if plan.trace {
        let trace_file = layers::traced_run(env, &corpus, plan, &mut tally, &mut m);
        eprintln!("cali-bench: span trace written to {}", trace_file.display());
    } else {
        end_to_end(env, &corpus, plan, &mut tally, &mut m);
        m.median("setup_s", &setup_s, 1.0);
    }
    for note in &tally.notes {
        eprintln!("cali-bench: FAILED: {note}");
    }
    // Report in the order the metric lists state them.
    let position = |name: &str| {
        spec::END_TO_END
            .iter()
            .chain(&spec::PER_LAYER)
            .position(|d| d.name == name)
    };
    m.list.sort_by_key(|measured| position(&measured.name));
    let result = RunResult {
        workload: plan.focus.name().to_string(),
        seed: plan.seed,
        trace: plan.trace,
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m.list,
    };
    result.validate()?;
    Ok(result)
}

/// Value of `--flag` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn compare_main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::parse_file(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, pass) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(pass)
}

/// Per workload × end-to-end metric: median and quartile spread over
/// the runs, against a third of the metric's bound.
fn print_spreads(results: &[RunResult]) {
    println!("# spread over runs: interquartile distance as a share of the median");
    for stage in Stage::ALL {
        for def in &spec::END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter(|r| !r.trace && r.workload == stage.name())
                .flat_map(|r| {
                    r.metrics
                        .iter()
                        .filter(|m| m.name == def.name)
                        .map(|m| m.value)
                })
                .collect();
            if values.len() >= 2 {
                let (spread, bound) = (stats::spread(&values), def.bound.unwrap_or(0.0));
                println!(
                    "{:<8} {:<22} median {:>14.4} {:<6} spread {:>6.2}% of bound {:>4.0}%{}",
                    stage.name(),
                    def.name,
                    stats::median(&values),
                    def.unit,
                    100.0 * spread,
                    100.0 * bound,
                    if spread > bound / 3.0 && def.name != "setup_s" {
                        "  > bound/3"
                    } else {
                        ""
                    }
                );
            }
        }
    }
}

fn bench_main(args: &[String]) -> Result<bool, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let number = |name: &str, default: f64| match flag(args, name) {
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("{name} takes a number, got '{v}'\n{USAGE}")),
        None => Ok(default),
    };
    let seed = number("--seed", DEFAULT_SEED as f64)? as u64;
    let seconds = number("--seconds", if quick { 1.0 } else { DEFAULT_SECONDS })?;
    let runs = number("--runs", 1.0)? as u64;
    let workloads =
        match flag(args, "--workload") {
            Some(name) => vec![Stage::from_name(name)
                .ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?],
            None if quick => vec![Stage::Scan],
            None => Stage::ALL.to_vec(),
        };
    let modes = match flag(args, "--trace") {
        Some("0") => vec![false],
        Some("1") => vec![true],
        Some(other) => return Err(format!("--trace takes 0 or 1, got '{other}'\n{USAGE}")),
        None => vec![false, true],
    };

    let env = Env::prepare(&std::process::id().to_string())?;
    let mut results = Vec::new();
    let mut pass = true;
    for run in 0..runs {
        for &focus in &workloads {
            for &trace in &modes {
                let plan = Plan {
                    focus,
                    seed: seed + run,
                    seconds,
                    quick,
                    trace,
                };
                let result = run_once(&env, &plan)?;
                pass &= result.correct;
                print!("{}", result.human());
                println!("{}", result.contract_json());
                results.push(result);
            }
        }
    }
    if runs >= 2 {
        print_spreads(&results);
    }
    if let Some(path) = flag(args, "--out") {
        std::fs::write(path, report::file_json(&results)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => bench_main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cali-bench: {message}");
            ExitCode::FAILURE
        }
    }
}
