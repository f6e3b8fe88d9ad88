//! `cali-query` — off-line analytical aggregation over `.cali` files
//! (paper §IV-C).
//!
//! ```text
//! cali-query [-q|--query QUERY] [-o|--output FILE] [--threads N] INPUT.cali...
//! ```

use std::io::Write;
use std::process::ExitCode;

use std::sync::Arc;

use cali_cli::{lint, parse_args, read_files_reported};
use caliper_format::{Pushdown, ReadPolicy, ReadReport};
use caliper_query::{
    analyze, build_pushdown, parallel_query_files, parse_query_spanned, run_query,
    ParallelOptions, QueryResult, ShardFailure, ShardTimings, OVERFLOW_KEY,
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
                      files taken off a shared counter — never more
                      workers than files (default: available
                      parallelism; 1 = one worker, the same path;
                      output is identical for every N)
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
                      stay exact, output stays identical for every --threads)
  --check[=json]      validate the query against the inputs' attribute
                      schema and exit without aggregating: diagnostics
                      go to stdout (text carets, or JSON with
                      --check=json), a summary to stderr; exit 0 clean,
                      1 on errors, 2 on warnings only
  --no-lint           suppress the advisory lint warnings normal runs
                      print on stderr
  --faults SPEC       arm the deterministic fault-injection registry,
                      e.g. \"io.read=fail(2);v2.block=corrupt(bitflip,7)\"
                      (equivalent to the CALI_FAULTS environment
                      variable; see docs/CHAOS.md for the grammar)
  --degrade           partial results instead of aborting: drop an input
                      file whose read exhausts the transient-error
                      retries, report the dropped shard on stderr, and
                      exit 2; output stays identical for every --threads
  --timings           report a timing breakdown on stderr, one line per
                      worker the run had (for every --threads N)
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

/// Print the run's per-worker breakdown, mirroring
/// `mpi-caliquery --timings`.
fn report_timings(timings: &ShardTimings) {
    for (id, w) in timings.workers.iter().enumerate() {
        eprintln!(
            "# worker {id}: read {:.6} s, process {:.6} s ({} files, {} records)",
            w.read_s, w.process_s, w.files, w.records
        );
    }
    eprintln!("# slowest worker:    {:.6} s", timings.worker_max_s());
    eprintln!("# root merge:        {:.6} s", timings.merge_s);
    eprintln!("# order/select/format: {:.6} s", timings.finish_s);
    eprintln!("# critical path:     {:.6} s", timings.total_s());
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
        &["q", "query", "o", "output", "threads", "max-errors", "max-groups", "faults"],
        &[
            "h", "help", "check", "degrade", "lenient", "list-attributes", "list-globals",
            "no-lint", "stats", "timings",
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
    // --check: validate and exit without touching any snapshot data.
    // Works without input files too (schema-dependent checks are
    // simply skipped then).
    let check_json = match args.get(&["check"]) {
        Some("json") => Some(true),
        Some(other) => {
            eprintln!("cali-query: unknown check format '{other}' (use --check or --check=json)\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None if args.has(&["check"]) => Some(false),
        None => None,
    };
    if let Some(json) = check_json {
        let schema = if args.positional.is_empty() {
            None
        } else {
            match lint::infer_schema(&args.positional) {
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
    let policy = match args.get(&["max-errors"]).map(str::parse::<u64>) {
        Some(Ok(n)) => ReadPolicy::Lenient { max_errors: n },
        Some(Err(_)) => {
            eprintln!("cali-query: --max-errors takes a non-negative integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None if args.has(&["lenient"]) => ReadPolicy::lenient(),
        None => ReadPolicy::Strict,
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

    // Advisory lint: before running, check the query against the
    // inputs' schema and surface findings on stderr. Never alters the
    // result or the exit code; parse errors are left to the engine's
    // own error path. --no-lint silences it.
    let listing = args.has(&["list-attributes"]) || args.has(&["list-globals"]);
    let spanned = if listing { None } else { parse_query_spanned(query).ok() };
    // The schema pre-pass reads every input once more, so it runs only
    // when the lint will print what it finds.
    let schema = match &spanned {
        Some(_) if !args.has(&["no-lint"]) => lint::infer_schema(&args.positional).ok(),
        _ => None,
    };
    if let (Some((spec, spans)), Some(schema)) = (&spanned, &schema) {
        for diag in analyze(spec, Some(spans), Some(schema)) {
            eprint!("{}", diag.render("<query>", query));
        }
    }
    // Build the zone-map pushdown once and hand the same instance to
    // every worker, so `--stats` skip counts match for every --threads
    // N. A schema that happens to exist keeps comparisons on mixed-typed
    // attributes out of it; without one they are pushed too, which is
    // sound because every file is decoded, and its zone maps judged,
    // against the types that file declares.
    let pushdown: Option<Arc<Pushdown>> = spanned.as_ref().and_then(|(spec, _)| {
        let pd = build_pushdown(spec, schema.as_ref());
        (!pd.is_empty()).then(|| Arc::new(pd))
    });

    // A pass-through query needs every record in one place, like the
    // listings; a query that does not parse goes to the engine, which
    // reports the error.
    let pass_through = matches!(&spanned, Some((spec, _)) if !spec.is_aggregation());
    let mut partial = false;
    let rendered = if listing || pass_through {
        let ds = match read_files_reported(&args.positional, policy) {
            Ok((ds, reports)) => {
                partial |= report_skipped(&reports, policy);
                ds
            }
            Err(e) => {
                eprintln!("cali-query: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.has(&["list-attributes"]) {
            list_attributes(&ds)
        } else if args.has(&["list-globals"]) {
            list_globals(&ds)
        } else {
            match run_query(&ds, query) {
                Ok(result) => result.render(),
                Err(e) => {
                    eprintln!("cali-query: query error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        // Every aggregation runs on the worker pool; --threads 1 is the
        // pool with one worker, the calling thread.
        let options = ParallelOptions::with_threads(threads)
            .with_read_policy(policy)
            .with_max_groups(max_groups)
            .with_pushdown(pushdown)
            .with_degrade(degrade);
        match parallel_query_files(query, &args.positional, &options) {
            Ok((result, timings)) => {
                partial |= report_skipped(&timings.reports, policy);
                partial |= report_failures(&timings.failures);
                report_overflow(&result, max_groups);
                if args.has(&["timings"]) {
                    report_timings(&timings);
                }
                result.render()
            }
            Err(e) => {
                eprintln!("cali-query: {e}");
                return ExitCode::FAILURE;
            }
        }
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
