//! Golden-file conformance suite for the semantic analyzer's CLI
//! surface: `cali-query --check` and `cali-lint`.
//!
//! Each fixture under `tests/golden/checks/*.calql` is checked against
//! the checked-in `.cali` inputs; the diagnostic output is compared
//! byte-for-byte against `tests/golden/expected/check/<name>.txt` and
//! must be identical across runs and across `--threads` values (the
//! check never aggregates, so thread count cannot matter).
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cali-cli --test check_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// One fixture: the query file's stem, and the exit code `--check`
/// must produce (1 = errors, 2 = warnings only, 0 = clean).
struct Case {
    name: &'static str,
    exit: i32,
}

/// Every diagnostic family has at least one fixture here; `clean`
/// pins the zero-diagnostics path.
const CASES: &[Case] = &[
    Case {
        name: "unknown-attr",
        exit: 1,
    }, // E002 + suggestion
    Case {
        name: "sum-over-string",
        exit: 1,
    }, // E003
    Case {
        name: "bad-histogram-bounds",
        exit: 1,
    }, // E004
    Case {
        name: "percentile-range",
        exit: 1,
    }, // E004
    Case {
        name: "duplicate-alias",
        exit: 1,
    }, // E005
    Case {
        name: "order-by-unknown",
        exit: 1,
    }, // E006
    Case {
        name: "contradictory-where",
        exit: 1,
    }, // E007
    Case {
        name: "bad-format-option",
        exit: 1,
    }, // E008
    Case {
        name: "unused-let",
        exit: 2,
    }, // W001
    Case {
        name: "self-referential-let",
        exit: 2,
    }, // W002
    Case {
        name: "where-type-mismatch",
        exit: 2,
    }, // W004
    Case {
        name: "pushdown-ineligible",
        exit: 2,
    }, // W007
    Case {
        name: "clean",
        exit: 0,
    },
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn update_golden() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1")
}

fn input_files() -> Vec<PathBuf> {
    let paths: Vec<PathBuf> = (0..2)
        .map(|rank| golden_dir().join(format!("data/rank{rank}.cali")))
        .collect();
    for path in &paths {
        assert!(
            path.exists(),
            "golden input {} missing — run UPDATE_GOLDEN=1 cargo test -p cali-cli --test cli_golden",
            path.display()
        );
    }
    paths
}

/// The query text of a fixture, the same way `cali-lint` reads it
/// (comment and blank lines dropped, remaining lines joined).
fn fixture_query(name: &str) -> String {
    let path = golden_dir().join(format!("checks/{name}.calql"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join(" ")
}

fn check_golden(name: &str, actual: &str) {
    let expected_path = golden_dir().join(format!("expected/check/{name}.txt"));
    if update_golden() {
        std::fs::create_dir_all(expected_path.parent().unwrap()).unwrap();
        std::fs::write(&expected_path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}) — run UPDATE_GOLDEN=1 cargo test -p cali-cli --test check_golden",
            expected_path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "check output for '{name}' diverged from the golden file \
         (UPDATE_GOLDEN=1 regenerates expectations after intentional changes)"
    );
}

fn run_check(query: &str, extra: &[&str], inputs: &[PathBuf]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg(query)
        .arg("--check")
        .args(extra)
        .args(inputs)
        .output()
        .expect("run cali-query --check")
}

#[test]
fn check_diagnostics_are_stable() {
    let inputs = input_files();
    for case in CASES {
        let query = fixture_query(case.name);
        let out = run_check(&query, &[], &inputs);
        assert_eq!(
            out.status.code(),
            Some(case.exit),
            "case '{}': {}",
            case.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 output");
        if case.exit == 0 {
            assert!(stdout.is_empty(), "clean query still printed: {stdout}");
        }
        check_golden(case.name, &stdout);

        // Determinism: byte-identical on a second run and under a
        // different --threads (which --check must ignore).
        let again = run_check(&query, &[], &inputs);
        assert_eq!(
            out.stdout, again.stdout,
            "case '{}' not deterministic",
            case.name
        );
        let threaded = run_check(&query, &["--threads", "4"], &inputs);
        assert_eq!(
            out.stdout, threaded.stdout,
            "case '{}' varies with --threads",
            case.name
        );
        assert_eq!(threaded.status.code(), Some(case.exit));
    }
}

/// `--check=json`: every line of output must parse with the repo's own
/// JSON reader; the rendering is pinned as a golden file.
#[test]
fn check_json_is_valid_and_stable() {
    let inputs = input_files();
    let query = fixture_query("unknown-attr");
    let out = run_check(&query, &["--check=json"], &inputs);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for line in stdout.lines() {
        caliper_format::parse_json(line).unwrap_or_else(|e| panic!("bad JSON '{line}': {e}"));
    }
    check_golden("unknown-attr-json", &stdout);
}

/// A clean check must not perturb the query result: running the same
/// clean query for real produces output identical to a `--no-lint` run.
#[test]
fn clean_check_leaves_results_unchanged() {
    let inputs = input_files();
    let query = fixture_query("clean");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .arg("-q")
            .arg(&query)
            .args(extra)
            .args(&inputs)
            .output()
            .expect("run cali-query");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let linted = run(&[]);
    let unlinted = run(&["--no-lint"]);
    assert_eq!(linted.stdout, unlinted.stdout);
    // The advisory lint found nothing, so stderr is silent too.
    assert!(
        linted.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&linted.stderr)
    );
}

/// `cali-lint` over the fixture files themselves: file-path sources,
/// one combined run, deterministic aggregate exit code.
#[test]
fn cali_lint_checks_query_files() {
    input_files(); // ensure the data fixtures exist
    let out = Command::new(env!("CARGO_BIN_EXE_cali-lint"))
        .current_dir(golden_dir())
        .args(["-i", "data/rank0.cali", "-i", "data/rank1.cali"])
        .args(CASES.iter().map(|c| format!("checks/{}.calql", c.name)))
        .output()
        .expect("run cali-lint");
    // Errors dominate warnings across the whole batch.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Sources are the file paths, so findings are attributable.
    assert!(stdout.contains("checks/unknown-attr.calql:1:"), "{stdout}");
    assert!(!stdout.contains("checks/clean.calql"), "{stdout}");
    check_golden("cali-lint-batch", &stdout);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("in 13 queries"), "{stderr}");
}

/// The advisory lint on a normal run prints findings on stderr but
/// never changes the exit code or the result.
#[test]
fn advisory_lint_warns_without_failing() {
    let inputs = input_files();
    let query = fixture_query("where-type-mismatch");
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg(&query)
        .args(&inputs)
        .output()
        .expect("run cali-query");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("W004"), "{stderr}");
}
