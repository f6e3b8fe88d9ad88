//! `cali-lint` — static validation of CalQL queries against a data
//! schema, without running them.
//!
//! ```text
//! cali-lint [-q QUERY]... [-i INPUT.cali]... [--schema FILE] QUERY_FILE...
//! ```

use std::process::ExitCode;

use cali_cli::{lint, parse_args};
use caliper_format::{ReadPolicy, Schema};

const USAGE: &str = "usage: cali-lint [-q QUERY]... [-i INPUT.cali]... [--schema FILE] QUERY_FILE...

Checks CalQL queries for errors (unknown attributes, type mismatches,
contradictory filters, ...) without aggregating any data. Queries come
from positional files (one query per file; blank lines and '#' comment
lines are ignored) and/or repeated -q flags.

Options:
  -q, --query QUERY   check this query string (repeatable)
  -i, --input FILE    take the attribute schema this .cali/CALB data
                      file declares (repeatable; the file is read as a
                      query reads it, but its snapshots are passed over)
      --schema FILE   load the attribute schema from a saved schema
                      file (merged with any --input inference)
      --save-schema FILE
                      write the merged schema to FILE and exit
                      (requires at least one --input or --schema)
      --json          print diagnostics as JSON, one object per query
  -h, --help          show this help

Without a schema source, schema-dependent checks (unknown attributes,
operator/type mismatches) are skipped; purely structural checks still
run.

Exit codes: 0 clean, 1 at least one error, 2 warnings only.
";

/// Read a query file: the query is the concatenation of its
/// non-comment, non-blank lines (so long queries can be wrapped).
fn read_query_file(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let query: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    Ok(query.join(" "))
}

fn main() -> ExitCode {
    let args = match parse_args(
        std::env::args().skip(1),
        &["q", "query", "i", "input", "schema", "save-schema"],
        &["h", "help", "json"],
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cali-lint: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    // Assemble the schema: saved schema file, plus inference over any
    // data files, merged (conflicts degrade to `mixed`).
    let inputs = args.get_all(&["i", "input"]);
    let mut schema: Option<Schema> = None;
    if let Some(path) = args.get(&["schema"]) {
        match std::fs::read_to_string(path) {
            Ok(text) => schema = Some(Schema::parse_text(&text)),
            Err(e) => {
                eprintln!("cali-lint: cannot read schema {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !inputs.is_empty() {
        match lint::infer_schema(&inputs, ReadPolicy::Strict) {
            Ok(inferred) => match &mut schema {
                Some(s) => s.merge(&inferred),
                None => schema = Some(inferred),
            },
            Err(e) => {
                eprintln!("cali-lint: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = args.get(&["save-schema"]) {
        let Some(schema) = &schema else {
            eprintln!("cali-lint: --save-schema needs a schema source (--input or --schema)\n{USAGE}");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, schema.to_text()) {
            eprintln!("cali-lint: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("cali-lint: wrote {} attributes to {path}", schema.len());
        return ExitCode::SUCCESS;
    }

    // Collect the queries: inline strings first, then query files.
    let mut queries: Vec<(String, String)> = Vec::new();
    for q in args.get_all(&["q", "query"]) {
        queries.push(("<query>".to_string(), q.to_string()));
    }
    for path in &args.positional {
        match read_query_file(path) {
            Ok(query) => queries.push((path.clone(), query)),
            Err(e) => {
                eprintln!("cali-lint: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if queries.is_empty() {
        eprintln!("cali-lint: nothing to check (give -q QUERY or a query file)\n{USAGE}");
        return ExitCode::FAILURE;
    }

    let checked: Vec<_> = queries
        .iter()
        .map(|(source, query)| lint::check_query(source, query, schema.as_ref()))
        .collect();
    if args.has(&["json"]) {
        for c in &checked {
            println!("{}", c.render_json());
        }
    } else {
        for c in &checked {
            print!("{}", c.render_text());
        }
    }
    eprintln!("cali-lint: {}", lint::summary_line(&checked));
    ExitCode::from(lint::exit_code(&checked))
}
