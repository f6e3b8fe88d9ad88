//! `cali-recover` — salvage snapshot journals left behind by crashed
//! profiling runs.
//!
//! A journaling runtime (`journal.enable=true`) appends every completed
//! snapshot to an append-only `.cali` journal; when the process dies —
//! panic, OOM kill, `kill -9` — the journal holds a valid prefix of the
//! run's data, possibly ending in a torn line. `cali-served` journals
//! each accepted batch as it was received, one frame per batch, which
//! a crash can tear the same way. This tool ingests such journals
//! through the lenient reader — a frame decoded whole or dropped whole —
//! deduplicates double-written tails via the `journal.seq` sequence
//! attribute, reports exactly what was salvaged and what was lost, and
//! either re-emits the salvaged data as a clean `.cali` file or feeds
//! it straight into the CalQL aggregator.
//!
//! ```text
//! cali-recover [-q QUERY] [-o FILE] [--max-errors N] JOURNAL.cali...
//! ```

use std::io::Write;
use std::process::ExitCode;

use cali_cli::parse_args;
use caliper_format::journal::{recover_file, RecoveryReport};
use caliper_format::{cali, CaliReader, ReadPolicy, ReadReport};

const USAGE: &str = "usage: cali-recover [-q QUERY] [-o FILE] [--max-errors N] JOURNAL.cali...

Salvages snapshot journals written by a journaling profiling run that
died mid-flight, or by cali-served. Torn trailing lines are dropped,
corrupt lines are skipped, double-written tail records (after an
append-mode resume) are deduplicated by their journal.seq stamp, and
sequence gaps are reported as lost records. A cali-served journal holds
one frame per batch, as the batch was received: a frame is salvaged
whole or not at all, one that a crash tore is dropped (reported as
truncated), and one that does not decode counts as one corrupt line.
A per-journal and a combined salvage summary go to stderr.

Options:
  -q, --query QUERY   aggregate the salvaged snapshots with a CalQL
                      query and print the result (see docs/CALQL.md)
  -o, --output FILE   write the output to FILE instead of stdout;
                      without -q, the output is the merged salvaged
                      data as a clean .cali stream
  --max-errors N      give up on a journal after skipping more than N
                      corrupt lines (default: unlimited)
  -h, --help          show this help

Exit codes: 0 everything salvaged cleanly, 1 hard error (unreadable
journal, bad query), 2 salvage succeeded but some data was lost.
";

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &["q", "query", "o", "output", "max-errors"],
        &["h", "help"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cali-recover: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.positional.is_empty() {
        eprintln!("cali-recover: no journal files\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let policy = match args.get(&["max-errors"]).map(str::parse::<u64>) {
        Some(Ok(n)) => ReadPolicy::Lenient { max_errors: n },
        Some(Err(_)) => {
            eprintln!("cali-recover: --max-errors takes a non-negative integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None => ReadPolicy::lenient(),
    };

    // Salvage every journal, then merge the recovered datasets by
    // re-reading their serialized forms through one reader (the .cali
    // reader remaps ids, so overlapping id spaces merge cleanly).
    let mut merger = CaliReader::new();
    let mut reports: Vec<RecoveryReport> = Vec::new();
    let mut hard_error = false;
    for path in &args.positional {
        match recover_file(path, policy) {
            Ok((salvaged, report)) => {
                eprintln!("cali-recover: {}", report.summary());
                let mut remap = ReadReport::default();
                if let Err(e) = merger.read_stream_with(
                    cali::to_bytes(&salvaged).as_slice(),
                    ReadPolicy::Strict,
                    &mut remap,
                ) {
                    // Cannot happen for bytes we just serialized; treat
                    // it as a hard error rather than dropping data.
                    eprintln!("cali-recover: {path}: cannot merge salvaged data: {e}");
                    hard_error = true;
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("cali-recover: {e}");
                hard_error = true;
            }
        }
    }
    let merged = merger.finish();

    if reports.len() > 1 {
        let salvaged: u64 = reports.iter().map(|r| r.salvaged).sum();
        let skipped: u64 = reports.iter().map(|r| r.read.skipped).sum();
        let duplicates: u64 = reports.iter().map(|r| r.duplicates).sum();
        let missing: u64 = reports.iter().map(|r| r.missing).sum();
        eprintln!(
            "cali-recover: total: {salvaged} snapshots salvaged from {} journals, \
             {skipped} lines skipped, {duplicates} duplicates dropped, {missing} lost",
            reports.len()
        );
    }

    let rendered = match args.get(&["q", "query"]) {
        Some(query) => match caliper_query::run_query(&merged, query) {
            Ok(result) => result.render(),
            Err(e) => {
                eprintln!("cali-recover: query error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => String::from_utf8_lossy(&cali::to_bytes(&merged)).into_owned(),
    };
    match args.get(&["o", "output"]) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("cali-recover: cannot write {path}: {e}");
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

    if hard_error {
        ExitCode::FAILURE
    } else if reports.iter().any(|r| r.data_lost()) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
