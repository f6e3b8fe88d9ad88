//! Golden-file conformance suite for `cali-query`.
//!
//! Each case runs the real binary over the checked-in `.cali` inputs
//! under `tests/golden/data/` and compares stdout **byte-for-byte**
//! against `tests/golden/expected/<name>.txt`, so any change to the
//! query pipeline or an output formatter shows up as a reviewable diff.
//!
//! To regenerate the inputs and expectations after an intentional
//! output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cali-cli --test cli_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use caliper_runtime::{Caliper, Clock, Config};

/// One golden case: a query (plus extra CLI flags) whose stdout is
/// pinned in `expected/<name>.txt`.
struct Case {
    name: &'static str,
    query: &'static str,
    extra_args: &'static [&'static str],
    /// Input files under `tests/golden/data/`.
    inputs: &'static [&'static str],
}

/// The two ranks of the Listing 1 workload ([`generate_rank`]).
const RANKS: &[&str] = &["rank0.cali", "rank1.cali"];
/// Nested regions two and three deep ([`generate_nested`]).
const NESTED: &[&str] = &["nested.cali"];
/// One key label declared `int` in one file and `double` in the other
/// ([`generate_phases`]): the flush carries the values the key's type
/// does not take in a block column of their own type.
const PHASES: &[&str] = &["phase-int.cali", "phase-float.cali"];

/// The conformance queries. Together they cover every output format,
/// WHERE/SELECT/ORDER BY/LIMIT/LET, the bucketing and distribution
/// operators, and the `--max-groups` overflow fold.
const CASES: &[Case] = &[
    Case {
        name: "count-by-function",
        query: "AGGREGATE count GROUP BY function ORDER BY function",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "sum-by-function-iteration",
        query: "AGGREGATE sum(time.duration) GROUP BY function, loop.iteration \
                ORDER BY function, loop.iteration",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "csv-avg",
        query: "AGGREGATE avg(time.duration) GROUP BY function ORDER BY function FORMAT csv",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "json-min-max",
        query: "AGGREGATE min(time.duration), max(time.duration) GROUP BY function \
                ORDER BY function FORMAT json",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "where-filter",
        query: "AGGREGATE count WHERE function GROUP BY function ORDER BY function",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "let-scale",
        query: "LET time.ms = scale(time.duration, 0.001) \
                AGGREGATE sum(time.ms) GROUP BY function ORDER BY function",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "order-desc-limit",
        query: "AGGREGATE sum(time.duration) GROUP BY function \
                SELECT function, sum#time.duration ORDER BY sum#time.duration desc LIMIT 2",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "histogram",
        query: "AGGREGATE histogram(time.duration, 0, 60, 6) GROUP BY function \
                ORDER BY function",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "percentile",
        query: "AGGREGATE percentile(time.duration, 95) GROUP BY function ORDER BY function",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "percent-total",
        query: "AGGREGATE percent_total(time.duration) GROUP BY function ORDER BY function",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "expand-passthrough",
        query: "SELECT function, time.duration LIMIT 4 FORMAT expand",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "flamegraph",
        query: "AGGREGATE sum(time.duration) WHERE function GROUP BY function FORMAT flamegraph",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "cali-reaggregation",
        query: "AGGREGATE count, sum(time.duration) GROUP BY function FORMAT cali",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "max-groups-overflow",
        query: "AGGREGATE count, sum(time.duration) GROUP BY function ORDER BY function",
        extra_args: &["--max-groups", "2"],
        inputs: RANKS,
    },
    Case {
        name: "csv-noheader",
        query: "AGGREGATE count, sum(time.duration) GROUP BY function ORDER BY function \
                FORMAT csv(noheader)",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "table-noheader",
        query: "AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration \
                ORDER BY function, loop.iteration FORMAT table(noheader)",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "json-pretty",
        query: "AGGREGATE count, avg(time.duration) GROUP BY function ORDER BY function \
                FORMAT json(pretty)",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "nested-passthrough-csv",
        query: "SELECT function, time.duration WHERE function FORMAT csv",
        extra_args: &[],
        inputs: NESTED,
    },
    Case {
        name: "nested-passthrough-json",
        query: "SELECT function, time.duration WHERE function FORMAT json",
        extra_args: &[],
        inputs: NESTED,
    },
    Case {
        name: "nested-passthrough-table",
        query: "SELECT function, time.duration ORDER BY function desc FORMAT table",
        extra_args: &[],
        inputs: NESTED,
    },
    Case {
        name: "order-desc-absent-limit",
        query: "AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration \
                ORDER BY function desc LIMIT 7 FORMAT csv",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "select-missing-label",
        query: "AGGREGATE count GROUP BY function SELECT function, no.such.label, count \
                ORDER BY function",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "select-missing-label-csv",
        query: "AGGREGATE count GROUP BY function SELECT no.such.label, function \
                ORDER BY function FORMAT csv",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "cali-passthrough",
        query: "SELECT * WHERE function LIMIT 6 FORMAT cali",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "json-select",
        query: "AGGREGATE count, sum(time.duration) GROUP BY function \
                SELECT function, count ORDER BY function FORMAT json",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "cali-select",
        query: "AGGREGATE count, sum(time.duration) GROUP BY function \
                SELECT count, function ORDER BY function desc FORMAT cali",
        extra_args: &[],
        inputs: RANKS,
    },
    Case {
        name: "mixed-key-csv",
        query: "AGGREGATE count, sum(t) GROUP BY phase ORDER BY phase FORMAT csv",
        extra_args: &[],
        inputs: PHASES,
    },
    Case {
        name: "mixed-key-json",
        query: "AGGREGATE count, sum(t) GROUP BY phase ORDER BY phase desc FORMAT json",
        extra_args: &[],
        inputs: PHASES,
    },
    Case {
        name: "mixed-key-table",
        query: "AGGREGATE count, sum(t) GROUP BY phase FORMAT table",
        extra_args: &[],
        inputs: PHASES,
    },
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn update_golden() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1")
}

/// The deterministic workload the inputs are generated from: the
/// paper's Listing 1 shape (4 iterations of foo/foo/bar inside an
/// annotated loop) under an event-trace profile and a virtual clock,
/// with per-rank time scaling so the two files differ.
fn generate_rank(rank: u64) -> caliper_format::Dataset {
    let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
    caliper.set_global("mpi.rank", rank as i64);
    caliper.set_global("experiment", "golden");
    let function = caliper.region_attribute("function");
    let iteration = caliper.attribute(
        "loop.iteration",
        caliper_data::ValueType::Int,
        caliper_data::Properties::AS_VALUE,
    );
    let mut scope = caliper.make_thread_scope();
    for i in 0..4i64 {
        scope.begin(&iteration, i);
        for (name, time_us) in [("foo", 15u64), ("foo", 25), ("bar", 20)] {
            scope.begin(&function, name);
            scope.advance_time(time_us * 1_000 * (rank + 1));
            scope.end(&function).unwrap();
        }
        scope.end(&iteration).unwrap();
    }
    scope.flush();
    caliper.take_dataset()
}

/// Nested `function` regions under a virtual clock: `main`, `main/foo`,
/// `main/bar/baz`, so pass-through rows carry paths two and three deep,
/// and one record outside every region.
fn generate_nested() -> caliper_format::Dataset {
    let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    scope.advance_time(3_000);
    for step in 0..2u64 {
        scope.begin(&function, "main");
        scope.begin(&function, "foo");
        scope.advance_time((10 + step) * 1_000);
        scope.end(&function).unwrap();
        scope.begin(&function, "bar");
        scope.begin(&function, "baz");
        scope.advance_time((5 + step) * 1_000);
        scope.end(&function).unwrap();
        scope.end(&function).unwrap();
        scope.end(&function).unwrap();
    }
    scope.flush();
    caliper.take_dataset()
}

/// One rank's `phase`/`t` records with `phase` declared as `vtype`.
fn generate_phases(vtype: caliper_data::ValueType, phases: &[&str]) -> caliper_format::Dataset {
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType};
    let mut ds = caliper_format::Dataset::new();
    let phase = ds.attribute("phase", vtype, Properties::AS_VALUE);
    let t = ds.attribute("t", ValueType::Float, Properties::AS_VALUE);
    for (i, text) in phases.iter().enumerate() {
        let mut rec = SnapshotRecord::new();
        if !text.is_empty() {
            rec.push_imm(phase.id(), Value::parse_typed(text, vtype).unwrap());
        }
        rec.push_imm(t.id(), Value::Float(1.5 + i as f64));
        ds.push(rec);
    }
    ds
}

/// Every checked-in input file by name, generated.
fn generate_inputs() -> Vec<(&'static str, caliper_format::Dataset)> {
    use caliper_data::ValueType;
    vec![
        ("rank0.cali", generate_rank(0)),
        ("rank1.cali", generate_rank(1)),
        ("nested.cali", generate_nested()),
        ("phase-int.cali", generate_phases(ValueType::Int, &["1", "3", "", "2"])),
        ("phase-float.cali", generate_phases(ValueType::Float, &["1.5", "3", "2.25"])),
    ]
}

/// The checked-in input files named `names`, regenerating every input
/// under `UPDATE_GOLDEN=1`.
fn data_files(names: &[&str]) -> Vec<PathBuf> {
    let data_dir = golden_dir().join("data");
    if update_golden() {
        std::fs::create_dir_all(&data_dir).unwrap();
        for (name, ds) in generate_inputs() {
            caliper_format::cali::write_file(&ds, data_dir.join(name)).unwrap();
        }
    }
    let paths: Vec<PathBuf> = names.iter().map(|name| data_dir.join(name)).collect();
    for path in &paths {
        assert!(
            path.exists(),
            "golden input {} missing — run UPDATE_GOLDEN=1 cargo test -p cali-cli --test cli_golden",
            path.display()
        );
    }
    paths
}

/// The checked-in rank files.
fn input_files() -> Vec<PathBuf> {
    data_files(RANKS)
}

fn run_cali_query(query: &str, extra_args: &[&str], inputs: &[PathBuf]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg(query)
        .args(extra_args)
        .args(inputs)
        .output()
        .expect("run cali-query")
}

/// Compare `actual` to the checked-in expectation (or rewrite it under
/// `UPDATE_GOLDEN=1`), reporting a unified-ish diff on mismatch.
fn check_golden(name: &str, actual: &str) {
    let expected_path = golden_dir().join("expected").join(format!("{name}.txt"));
    if update_golden() {
        std::fs::create_dir_all(expected_path.parent().unwrap()).unwrap();
        std::fs::write(&expected_path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}) — run UPDATE_GOLDEN=1 cargo test -p cali-cli --test cli_golden",
            expected_path.display()
        )
    });
    if expected != actual {
        let mut diff = String::new();
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            if e != a {
                diff.push_str(&format!("line {}:\n- {e}\n+ {a}\n", i + 1));
            }
        }
        panic!(
            "golden mismatch for '{name}' ({} expected lines, {} actual):\n{diff}\
             full actual output:\n{actual}\n\
             (UPDATE_GOLDEN=1 regenerates expectations after intentional changes)",
            expected.lines().count(),
            actual.lines().count(),
        );
    }
}

#[test]
fn golden_query_outputs_are_stable() {
    for case in CASES {
        let out = run_cali_query(case.query, case.extra_args, &data_files(case.inputs));
        assert!(
            out.status.success(),
            "case '{}' failed: {}",
            case.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        check_golden(case.name, &stdout);
    }
}

/// The `--stats` block is part of the conformance surface too: its
/// stable metrics are pure functions of the input bytes, so the stderr
/// block is pinned as a golden file *and* must be byte-identical for
/// every `--threads N` (the determinism contract from DESIGN.md §8).
#[test]
fn golden_stats_block_is_stable_across_thread_counts() {
    let inputs = input_files();
    let query = "AGGREGATE count, sum(time.duration) GROUP BY function ORDER BY function";
    let run_with_threads = |threads: &str| {
        let out = run_cali_query(query, &["--stats", "--threads", threads], &inputs);
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };
    let (stdout1, stats1) = run_with_threads("1");
    check_golden("stats-stderr", &stats1);
    for threads in ["2", "4"] {
        let (stdout_n, stats_n) = run_with_threads(threads);
        assert_eq!(stdout1, stdout_n, "--threads {threads} stdout diverged");
        assert_eq!(stats1, stats_n, "--threads {threads} --stats block diverged");
    }
}

/// CALB v2 predicate pushdown is part of the determinism contract too:
/// over a block-columnar input, a selective WHERE must produce stdout
/// byte-identical to the text-encoded inputs, and the `--stats` block —
/// including a nonzero `format.reader.blocks_skipped` — must be
/// byte-identical for every `--threads N`.
#[test]
fn v2_pushdown_skips_blocks_identically_across_thread_counts() {
    let inputs = input_files();
    let (ds, _) = cali_cli::read_files_reported(&inputs, caliper_format::ReadPolicy::Strict)
        .expect("read golden inputs");
    let dir = std::env::temp_dir().join(format!("cali-v2-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v2_path = dir.join("golden.calb2");
    // Tiny blocks so the selective WHERE below has whole blocks to skip.
    let bytes = caliper_format::to_binary_v2_with(
        &ds,
        &caliper_format::V2WriteOptions { block_records: 4, footer: true },
    );
    std::fs::write(&v2_path, bytes).unwrap();

    let query = "AGGREGATE count, sum(time.duration) WHERE loop.iteration > 2 \
                 GROUP BY function ORDER BY function";
    let text_out = run_cali_query(query, &[], &inputs);
    assert!(text_out.status.success());

    let run_v2 = |threads: &str| {
        let out = run_cali_query(
            query,
            &["--stats", "--threads", threads],
            std::slice::from_ref(&v2_path),
        );
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };
    let (stdout1, stats1) = run_v2("1");
    assert_eq!(text_out.stdout, stdout1, "v2 stdout diverged from the text encoding");
    let skipped = stats1
        .lines()
        .find_map(|l| l.strip_prefix("format.reader.blocks_skipped="))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("blocks_skipped metric present");
    assert!(skipped > 0, "selective WHERE should skip blocks:\n{stats1}");
    for threads in ["2", "4"] {
        let (stdout_n, stats_n) = run_v2(threads);
        assert_eq!(stdout1, stdout_n, "--threads {threads} stdout diverged");
        assert_eq!(stats1, stats_n, "--threads {threads} --stats block diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// CleverLeaf profiles are what the ParaDiS corpus is not: records made
/// of context-tree node references with nested `function` paths next to
/// immediates. As CALB v2 they take the columnar fold; every query
/// shape must print what the text encoding (row path) prints, and the
/// `--stats` block must not depend on `--threads`.
#[test]
fn cleverleaf_v2_matches_text_across_thread_counts() {
    let app = miniapps::CleverLeaf::new(miniapps::CleverLeafParams {
        timesteps: 3,
        ranks: 3,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join(format!("cali-golden-cleverleaf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut text, mut v2) = (Vec::new(), Vec::new());
    for (rank, ds) in app.run_all(&Config::event_trace()).iter().enumerate() {
        assert!(ds.len() > 64, "rank {rank}: {} records", ds.len());
        text.push(dir.join(format!("rank{rank}.cali")));
        caliper_format::cali::write_file(ds, &text[rank]).unwrap();
        v2.push(dir.join(format!("rank{rank}.calb2")));
        // Small blocks: several per file, so skips happen.
        let opts = caliper_format::V2WriteOptions { block_records: 64, footer: true };
        std::fs::write(&v2[rank], caliper_format::to_binary_v2_with(ds, &opts)).unwrap();
    }
    let cases: &[(&str, &[&str])] = &[
        (
            "AGGREGATE count, sum(time.duration) GROUP BY function, kernel \
             ORDER BY function, kernel FORMAT csv",
            &[],
        ),
        (
            "LET region = first(kernel, mpi.function, annotation) \
             AGGREGATE count, min(time.duration), max(time.duration), avg(time.duration) \
             WHERE not(mpi.function) GROUP BY region, amr.level ORDER BY region, amr.level",
            &[],
        ),
        (
            "AGGREGATE sum(time.duration), percent_total(time.duration) \
             WHERE iteration#mainloop > 0 GROUP BY annotation, mpi.rank \
             ORDER BY annotation, mpi.rank FORMAT json",
            &[],
        ),
        (
            "AGGREGATE count, sum(time.duration) GROUP BY function ORDER BY function",
            &["--max-groups", "3"],
        ),
    ];
    for (query, extra) in cases {
        let reference = run_cali_query(query, &[extra as &[&str], &["--threads", "1"]].concat(), &text);
        assert!(reference.status.success(), "{query}: {}", String::from_utf8_lossy(&reference.stderr));
        assert!(reference.stdout.len() > 40, "{query}: empty result");
        let mut stats = None;
        for threads in ["1", "2", "4"] {
            let args = [extra as &[&str], &["--stats", "--threads", threads]].concat();
            let out = run_cali_query(query, &args, &v2);
            assert!(out.status.success(), "{query}: {}", String::from_utf8_lossy(&out.stderr));
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&reference.stdout),
                "{query} --threads {threads}: v2 diverged from text"
            );
            let block = String::from_utf8(out.stderr).unwrap();
            assert_eq!(stats.get_or_insert_with(|| block.clone()), &block, "{query} --threads {threads}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--stats=json` must parse with the repo's own JSON reader, contain
/// the same values as the text form, and keep its keys sorted — the
/// machine-readable schema smoke test.
#[test]
fn stats_json_parses_and_matches_schema() {
    let inputs = input_files();
    let query = "AGGREGATE count GROUP BY function";
    let out = run_cali_query(query, &["--stats=json"], &inputs);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let json = caliper_format::parse_json(stderr.trim()).expect("valid JSON on stderr");
    let keys = json.keys();
    assert!(!keys.is_empty(), "top-level object with members");
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "stats keys must be sorted");
    // Non-zero pipeline activity is visible through the report.
    let reader_records = json
        .get("format.reader.records")
        .and_then(|v| v.as_num())
        .expect("format.reader.records present");
    assert!(reader_records > 0.0);
    let agg_records = json
        .get("query.aggregator.records")
        .and_then(|v| v.as_num())
        .expect("query.aggregator.records present");
    assert!(agg_records > 0.0);
    assert_eq!(
        json.get("format.reader.files").and_then(|v| v.as_num()),
        Some(2.0)
    );
}

/// The golden inputs themselves regenerate bit-identically: guards
/// against accidental nondeterminism in the runtime → writer path
/// (which would make UPDATE_GOLDEN churn unrelated bytes).
#[test]
fn golden_inputs_regenerate_deterministically() {
    let a = caliper_format::cali::to_bytes(&generate_rank(0));
    let b = caliper_format::cali::to_bytes(&generate_rank(0));
    assert_eq!(a, b);
    for (name, ds) in generate_inputs() {
        let checked_in = std::fs::read(golden_dir().join("data").join(name)).unwrap();
        assert_eq!(
            caliper_format::cali::to_bytes(&ds),
            checked_in,
            "generator drifted from the checked-in golden input {name} — \
             run UPDATE_GOLDEN=1 to refresh data and expectations together"
        );
    }
}

/// Dogfood end-to-end: a runtime channel with `metrics.enable = true`
/// writes its own metrics as snapshot records, and the `cali-query`
/// binary aggregates them with ordinary CalQL.
#[test]
fn dogfooded_metrics_are_queryable_with_calql() {
    let dir = std::env::temp_dir().join(format!("cali-golden-dogfood-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let caliper = Caliper::with_clock(
        Config::event_trace().set("metrics.enable", "true"),
        Clock::virtual_clock(),
    );
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    for _ in 0..3 {
        scope.begin(&function, "work");
        scope.advance_time(1_000);
        scope.end(&function).unwrap();
    }
    scope.flush();
    drop(scope);
    let path = dir.join("dogfood.cali");
    caliper_format::cali::write_file(&caliper.take_dataset(), &path).unwrap();
    drop::<Arc<Caliper>>(caliper);

    let out = run_cali_query(
        "AGGREGATE sum(metric.value) GROUP BY metric.name WHERE metric.name \
         ORDER BY metric.name FORMAT csv",
        &[],
        &[path],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // 3 x (begin + end) = 6 ops / 6 event snapshots.
    assert!(stdout.contains("runtime.blackboard.ops,6"), "{stdout}");
    assert!(stdout.contains("runtime.snapshots,6"), "{stdout}");
    assert!(stdout.contains("runtime.flushed_threads,1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
