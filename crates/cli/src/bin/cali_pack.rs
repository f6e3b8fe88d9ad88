//! `cali-pack` — re-encode Caliper streams into the block-columnar
//! CALB v2 layout (or back to record-oriented v1).
//!
//! ```text
//! cali-pack [-o FILE] [--v1] [--block-records N] INPUT...
//! ```
//!
//! Inputs may be text `.cali` or binary CALB v1/v2 (sniffed from the
//! stream header, not the file name); they are merged into one dataset
//! and re-encoded. See `docs/CALB.md` for both on-disk layouts.

use std::io::Write;
use std::process::ExitCode;

use cali_cli::{parse_args, read_files_reported};
use caliper_format::binary_v2::{DEFAULT_BLOCK_RECORDS, MAX_BLOCK_RECORDS};
use caliper_format::{binary, to_binary_v2_with, ReadPolicy};

const USAGE: &str = "usage: cali-pack [-o FILE] [--v1] [--block-records N] INPUT...

Re-encodes Caliper data files (text .cali or binary CALB v1/v2, sniffed
from the stream header) into the block-columnar CALB v2 layout, merging
all inputs into one output stream. v2 groups records into blocks with
per-attribute min/max zone maps, so selective queries can skip whole
blocks without decoding them (see docs/CALB.md).

Options:
  -o, --output FILE    write the re-encoded stream to FILE
                       (default: stdout)
  --v1                 emit record-oriented CALB v1 instead of v2
  --block-records N    records per v2 block (default: 1024, at most
                       1048576)
  --lenient            skip corrupt input records instead of aborting
  --max-errors N       like --lenient, but give up on a file after
                       skipping more than N corrupt records
  --mutate MODE        chaos-testing helper: instead of re-encoding,
                       deterministically damage each input file's raw
                       bytes in place (bitflip | truncate | garbage-block),
                       seeded by --seed and the file path; prints what
                       was done to stderr
  --seed N             mutation seed (default 0); the same seed, mode,
                       and file always produce the same damage
  -h, --help           show this help

Exit codes: 0 success, 1 error, 2 success but some input records were
skipped (lenient reads over partially corrupt input).
";

/// `--mutate`: damage each input file's raw bytes in place, seeded by
/// `--seed` and the file path — the file-level fuzz half of the chaos
/// suite (the failpoint registry injects faults at runtime; this makes
/// reproducibly *bad files* for the lenient readers to survive).
fn mutate_files(mode: &str, seed: Option<&str>, paths: &[String]) -> ExitCode {
    let mode = match caliper_faults::CorruptMode::parse(mode) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("cali-pack: --mutate: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let seed = match seed.map(str::parse::<u64>) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("cali-pack: --seed takes a non-negative integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    for path in paths {
        let mut bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("cali-pack: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let before = bytes.len();
        // Mix the path into the seed so a multi-file corpus doesn't get
        // the same damage offset in every file.
        let file_seed = seed ^ caliper_faults::stable_hash(path);
        let changed = caliper_faults::corrupt_bytes(mode, file_seed, &mut bytes);
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("cali-pack: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "cali-pack: mutated {path}: {mode:?} seed {seed}: {before} -> {} bytes{}",
            bytes.len(),
            if changed {
                ""
            } else {
                " (no change: empty file)"
            }
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &[
            "o",
            "output",
            "block-records",
            "max-errors",
            "mutate",
            "seed",
        ],
        &["h", "help", "lenient", "v1"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cali-pack: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.positional.is_empty() {
        eprintln!("cali-pack: no input files\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if let Some(mode) = args.get(&["mutate"]) {
        return mutate_files(mode, args.get(&["seed"]), &args.positional);
    }
    let block_records = match args.get(&["block-records"]).map(str::parse::<usize>) {
        None => DEFAULT_BLOCK_RECORDS,
        Some(Ok(n)) if (1..=MAX_BLOCK_RECORDS).contains(&n) => n,
        Some(_) => {
            let most = MAX_BLOCK_RECORDS;
            eprintln!("cali-pack: --block-records takes an integer from 1 to {most}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let policy = match args.get(&["max-errors"]).map(str::parse::<u64>) {
        Some(Ok(n)) => ReadPolicy::Lenient { max_errors: n },
        Some(Err(_)) => {
            eprintln!("cali-pack: --max-errors takes a non-negative integer\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None if args.has(&["lenient"]) => ReadPolicy::lenient(),
        None => ReadPolicy::Strict,
    };

    let (ds, reports) = match read_files_reported(&args.positional, policy) {
        Ok(read) => read,
        Err(e) => {
            eprintln!("cali-pack: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut partial = false;
    for report in &reports {
        if !report.is_clean() {
            partial = true;
            eprintln!("cali-pack: {}", report.summary());
        }
    }

    let bytes = if args.has(&["v1"]) {
        binary::to_binary(&ds)
    } else {
        to_binary_v2_with(&ds, block_records)
    };
    match args.get(&["o", "output"]) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &bytes) {
                eprintln!("cali-pack: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            if lock.write_all(&bytes).and_then(|()| lock.flush()).is_err() {
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "cali-pack: {} records from {} file(s) -> {} bytes ({})",
        ds.len(),
        args.positional.len(),
        bytes.len(),
        if args.has(&["v1"]) {
            "CALB v1".to_string()
        } else {
            format!("CALB v2, {block_records} records/block")
        }
    );
    if partial {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
