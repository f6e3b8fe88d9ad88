//! `cali-query` — off-line analytical aggregation over `.cali` files
//! (paper §IV-C).
//!
//! ```text
//! cali-query [-q|--query QUERY] [-o|--output FILE] [--threads N] INPUT.cali...
//! ```

use std::io::Write;
use std::process::ExitCode;

use cali_cli::{lint, parse_args, read_dictionaries};
use caliper_format::{ReadPolicy, ReadReport};
use caliper_query::{
    analyze, parallel_query_files, parse_query_spanned, ParallelOptions, QueryResult, ShardFailure,
    ShardTimings, OVERFLOW_KEY,
};

const USAGE: &str = "usage: cali-query [-q QUERY] [-o FILE] [--threads N] INPUT.cali...

Runs an aggregation query over Caliper data files and prints the result.

Options:
  -q, --query QUERY   the aggregation scheme, e.g.
                      \"AGGREGATE count, sum(time.duration) GROUP BY function\"
                      Clauses: AGGREGATE, GROUP BY, WHERE, SELECT,
                      ORDER BY, LET, FORMAT (table|csv|json|expand|cali|flamegraph)
                      (see docs/CALQL.md for the full language reference)
  -o, --output FILE   write the result to FILE instead of stdout
  --threads N         aggregate with up to N workers, each folding whole
                      files, handed out in input order — never more
                      workers than files (default: available
                      parallelism; 1 = one worker, the same path;
                      output is identical for every N). Aggregations
                      only: a pass-through SELECT has one worker,
                      which reads its files in order into one pipeline,
                      whatever N is
  --lenient           skip corrupt records instead of aborting; a per-file
                      summary of skipped work is printed on stderr
                      (opening a missing file is still an error)
  --max-errors N      like --lenient, but give up on a file after
                      skipping more than N corrupt records; a file that
                      lands exactly on the cap succeeds with a
                      \"budget exhausted\" note on stderr and exit code 2
  --max-groups N      cap the aggregation database at N groups; once at
                      capacity, records with new keys fold into a single
                      \"__overflow__\" bucket (memory stays bounded, totals
                      stay exact, output stays identical for every --threads;
                      a usage error with a pass-through query)
  --check[=json]      validate the query against the inputs' attribute
                      schema and exit without aggregating (the inputs
                      are read for what they declare, their snapshots
                      passed over): diagnostics go to stdout (text
                      carets, or JSON with --check=json), a summary to
                      stderr; exit 0 clean, 1 on errors, 2 on warnings
                      only
  --no-lint           suppress the advisory lint warnings normal runs
                      print on stderr after the query (the run reads,
                      skips and answers the same with or without it)
  --faults SPEC       arm the deterministic fault-injection registry,
                      e.g. \"io.read=fail(2);v2.block=corrupt(bitflip,7)\"
                      (equivalent to the CALI_FAULTS environment
                      variable; see docs/CHAOS.md for the grammar)
  --degrade           partial results instead of aborting: drop an input
                      file whose read exhausts the transient-error
                      retries, report the dropped shard on stderr, and
                      exit 2; output stays identical for every --threads
                      (aggregations only: a usage error with a
                      pass-through query)
  --timings           report the run's timing breakdown on stderr, one
                      line per worker the run had (for every --threads
                      N; a pass-through run has one); a worker's read
                      time starts once it holds its file (and the root,
                      if lent), so waiting for the lock is in no line;
                      `root merge` is the time spent closing the parts
                      of the root files were folded into, and merging
                      the files parked in their own pipelines
  --stats[=FORMAT]    report pipeline self-instrumentation metrics on
                      stderr after the query: sorted name=value lines
                      (or one JSON object with --stats=json). The block
                      contains only deterministic metrics and is
                      byte-identical for every --threads N;
                      --stats=full adds the volatile class
                      (scheduling-dependent counts and levels)
  --list-attributes   print the attribute dictionary instead of querying
  --list-globals      print dataset-global metadata instead of querying
  -h, --help          show this help

Exit codes: 0 success, 1 error, 2 success but the result is partial
(lenient reads skipped records, a file hit the --max-errors budget
exactly, or --degrade dropped a failed shard).
";

/// Render the attribute dictionary (name, type, properties).
fn list_attributes(ds: &caliper_format::Dataset) -> String {
    let mut out = String::from("attribute,type,properties\n");
    let mut attrs = ds.store.all();
    attrs.sort_by(|a, b| a.name().cmp(b.name()));
    for attr in attrs {
        out.push_str(&format!(
            "{},{},{}\n",
            attr.name(),
            attr.value_type(),
            attr.properties().encode()
        ));
    }
    out
}

/// Render the dataset-global metadata records.
fn list_globals(ds: &caliper_format::Dataset) -> String {
    let mut out = String::new();
    for global in &ds.globals {
        out.push_str(&global.describe(&ds.store));
        out.push('\n');
    }
    out
}

/// Print the run's per-worker breakdown and the `render_s` seconds the
/// result took to render, mirroring `mpi-caliquery --timings`.
fn report_timings(timings: &ShardTimings, render_s: f64) {
    for (id, w) in timings.workers.iter().enumerate() {
        eprintln!(
            "# worker {id}: read {:.6} s, process {:.6} s ({} files, {} records)",
            w.read_s, w.process_s, w.files, w.records
        );
    }
    eprintln!("# slowest worker:    {:.6} s", timings.worker_max_s());
    eprintln!("# root merge:        {:.6} s", timings.merge_s);
    eprintln!("# finish:            {:.6} s", timings.finish_s);
    eprintln!("# render:            {render_s:.6} s");
    eprintln!("# critical path:     {:.6} s", timings.total_s() + render_s);
}

/// Print the per-file skipped-work summaries for every file the lenient
/// reader had to repair, plus one combined total line, so dropped data
/// is loud even when the run succeeds. Returns true when any data was
/// skipped — the caller exits with code 2 so scripts can detect a
/// partial result.
fn report_skipped(reports: &[ReadReport], policy: ReadPolicy) -> bool {
    let mut files_with_errors = 0usize;
    let mut total = ReadReport::default();
    for report in reports {
        total.absorb(report);
        if !report.is_clean() {
            files_with_errors += 1;
            eprintln!("cali-query: {}", report.summary());
        }
        // Landing exactly on the --max-errors cap is the boundary
        // between "partial result" (exit 2) and "abort" (exit 1): one
        // more error would have failed the file. Say so explicitly, so
        // a run that barely survived is distinguishable from one with
        // budget to spare.
        if let ReadPolicy::Lenient { max_errors } = policy {
            if report.skipped == max_errors && max_errors > 0 {
                eprintln!(
                    "cali-query: {}: error budget exhausted ({} of {} allowed); \
                     one more error would abort (exit 1)",
                    report
                        .path
                        .as_deref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| "<input>".into()),
                    report.skipped,
                    max_errors
                );
            }
        }
    }
    if files_with_errors > 0 {
        eprintln!(
            "cali-query: total: {} records decoded, {} skipped, {}/{} files with errors",
            total.records,
            total.skipped,
            files_with_errors,
            reports.len()
        );
    }
    !total.is_clean()
}

/// Print each shard `--degrade` dropped, plus one combined line.
/// Returns true when any shard was dropped — the result is partial and
/// the caller exits 2. Failures are listed in ascending file order with
/// deterministic messages, so degraded stderr is byte-identical across
/// `--threads N` for a fixed fault seed.
fn report_failures(failures: &[ShardFailure]) -> bool {
    for f in failures {
        eprintln!("cali-query: dropped shard: {}", f.error);
    }
    if !failures.is_empty() {
        eprintln!(
            "cali-query: partial result: {} input file(s) dropped after retries",
            failures.len()
        );
    }
    !failures.is_empty()
}

/// How `--stats` renders the metrics block.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    /// Sorted `name=value` lines, stable metrics only.
    Text,
    /// One flat JSON object, stable metrics only.
    Json,
    /// Sorted `name=value` lines including the volatile class.
    Full,
}

/// Emit the self-instrumentation block on stderr. Stable formats print
/// only deterministic metrics, so the block is byte-identical for every
/// `--threads N` over the same inputs.
fn report_stats(format: StatsFormat) {
    let metrics = caliper_data::metrics::global();
    match format {
        StatsFormat::Text => eprint!("{}", metrics.render_text(true)),
        StatsFormat::Json => eprintln!("{}", metrics.render_json(true)),
        StatsFormat::Full => eprint!("{}", metrics.render_text(false)),
    }
}

/// Print the overflow-bucket summary when `--max-groups` evicted work
/// into the `__overflow__` row.
fn report_overflow(result: &QueryResult, max_groups: Option<usize>) {
    if result.overflow_records > 0 {
        eprintln!(
            "cali-query: aggregation capped at {} groups; {} records folded into the \"{}\" bucket",
            max_groups.unwrap_or(0),
            result.overflow_records,
            OVERFLOW_KEY
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &[
            "q",
            "query",
            "o",
            "output",
            "threads",
            "max-errors",
            "max-groups",
            "faults",
        ],
        &[
            "h",
            "help",
            "check",
            "degrade",
            "lenient",
            "list-attributes",
            "list-globals",
            "no-lint",
            "stats",
            "timings",
        ],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cali-query: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // Arm the fault registry before anything reads a file, so the
    // --faults flag and the CALI_FAULTS environment variable behave
    // identically.
    if let Some(spec) = args.get(&["faults"]) {
        if let Err(e) = caliper_faults::install_spec(spec) {
            eprintln!("cali-query: --faults: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let degrade = args.has(&["degrade"]);
    let query = args.get(&["q", "query"]).unwrap_or("SELECT *");
    let policy = match args.get(&["max-errors"]).map(str::parse::<u64>) {
        Some(Ok(n)) => ReadPolicy::Lenient { max_errors: n },
        Some(Err(_)) => {
            eprintln!("cali-query: --max-errors takes a non-negative integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None if args.has(&["lenient"]) => ReadPolicy::lenient(),
        None => ReadPolicy::Strict,
    };
    // --check: validate and exit without touching any snapshot data.
    // Works without input files too (schema-dependent checks are
    // simply skipped then).
    let check_json = match args.get(&["check"]) {
        Some("json") => Some(true),
        Some(other) => {
            eprintln!(
                "cali-query: unknown check format '{other}' (use --check or --check=json)\n{USAGE}"
            );
            return ExitCode::FAILURE;
        }
        None if args.has(&["check"]) => Some(false),
        None => None,
    };
    if let Some(json) = check_json {
        let schema = if args.positional.is_empty() {
            None
        } else {
            match lint::infer_schema(&args.positional, policy) {
                Ok(schema) => Some(schema),
                Err(e) => {
                    eprintln!("cali-query: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let checked = lint::check_query("<query>", query, schema.as_ref());
        if json {
            println!("{}", checked.render_json());
        } else {
            print!("{}", checked.render_text());
        }
        let checked = [checked];
        eprintln!("cali-query: {}", lint::summary_line(&checked));
        return ExitCode::from(lint::exit_code(&checked));
    }
    if args.positional.is_empty() {
        eprintln!("cali-query: no input files\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let threads = match args.get(&["threads"]).map(str::parse::<usize>) {
        None => ParallelOptions::default().effective_threads(),
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("cali-query: --threads takes a positive integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let max_groups = match args.get(&["max-groups"]).map(str::parse::<usize>) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => {
            eprintln!("cali-query: --max-groups takes a positive integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let stats = match args.get(&["stats"]) {
        Some("text") => Some(StatsFormat::Text),
        Some("json") => Some(StatsFormat::Json),
        Some("full") => Some(StatsFormat::Full),
        Some(other) => {
            eprintln!("cali-query: unknown stats format '{other}' (text|json|full)\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None if args.has(&["stats"]) => Some(StatsFormat::Text),
        None => None,
    };

    let mut partial = false;
    let rendered = if args.has(&["list-attributes"]) || args.has(&["list-globals"]) {
        // The listings show what the files declare, so no snapshot is
        // kept — but every one is validated, as a query's read would.
        let dict = match read_dictionaries(&args.positional, policy) {
            Ok((dict, reports)) => {
                partial |= report_skipped(&reports, policy);
                dict
            }
            Err(e) => {
                eprintln!("cali-query: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.has(&["list-attributes"]) {
            list_attributes(&dict)
        } else {
            list_globals(&dict)
        }
    } else {
        // Every file is read once, by the run: the worker pool, which
        // --threads 1 is with one worker — the calling thread — and a
        // pass-through query always. WHERE is pushed down to the blocks,
        // by the query alone.
        let spanned = parse_query_spanned(query).ok();
        if spanned
            .as_ref()
            .is_some_and(|(spec, _)| !spec.is_aggregation())
        {
            let refused = [
                ("--degrade", degrade),
                ("--max-groups", max_groups.is_some()),
            ];
            if let Some((flag, _)) = refused.iter().find(|(_, given)| *given) {
                eprintln!("cali-query: {flag} applies to aggregations, not to a pass-through query\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        let options = ParallelOptions::with_threads(threads)
            .with_read_policy(policy)
            .with_max_groups(max_groups)
            .with_degrade(degrade);
        let (result, found) = match parallel_query_files(query, &args.positional, &options) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("cali-query: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Advisory lint: the query against the schema the run's own read
        // of the inputs built. Never alters the result or the exit code;
        // --no-lint silences it and changes nothing else.
        if let Some((spec, spans)) = spanned.as_ref().filter(|_| !args.has(&["no-lint"])) {
            for diag in analyze(spec, Some(spans), Some(&found.schema())) {
                eprint!("{}", diag.render("<query>", query));
            }
        }
        partial |= report_skipped(&found.reports, policy);
        partial |= report_failures(&found.failures);
        report_overflow(&result, max_groups);
        let start = std::time::Instant::now();
        let rendered = result.render();
        let render_s = start.elapsed().as_secs_f64();
        if args.has(&["timings"]) {
            report_timings(&found, render_s);
        }
        rendered
    };
    match args.get(&["o", "output"]) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("cali-query: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            if lock.write_all(rendered.as_bytes()).is_err() {
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(format) = stats {
        report_stats(format);
    }
    if partial {
        // Distinct exit code for "succeeded, but some input records
        // were skipped" so scripts can detect partial data.
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
