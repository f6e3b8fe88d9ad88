//! The block fold's own cases, held to the reference evaluator: for
//! generated datasets × generated aggregation queries, `Pipeline::scan_file`
//! over text `.cali`, CALB v1 and CALB v2 must answer what the oracle
//! folds of the same records, and the query layer's `--stats` metrics
//! must be equal across the three encodings.
//!
//! The datasets carry everything the ParaDiS corpus of the benchmark
//! does not: node references with nested paths, an attribute both on a
//! node path and immediate, repeated immediates, absent keys, every
//! value type, strings that need every escape, integer sums that
//! overflow into floats, and blocks of 1, 8 and 1024 rows. Each
//! generated row comes 1–64 times with fresh values, so blocks hold the
//! long runs of one shape the fold takes a column at a time, cut by
//! shape changes and block ends — on one node, or on a different node
//! each row. The text files are further roughed up the way hand-edited
//! and foreign streams are (`\r\n` line ends, comments, blank lines,
//! `__rec` not first).
//!
//! Blocks built by hand add what no reader makes: an attribute in two
//! type columns, in one row and in one run.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use caliper_data::{Entry, Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_format::{
    binary, cali, read_footer, read_path_into_filtered, scan_path, to_binary_v2_with, Block,
    Dataset, ReadPolicy, ReadReport, StringTable,
};
use caliper_query::{
    build_pushdown, parse_query, AggregationSpec, Aggregator, LetExpr, Pipeline, QueryResult,
    QuerySpec,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crate::oracle::{Row, Schema};
use crate::{check, check_in_order, folded, rows_of, CASE, METRICS};

/// One generated record: (node choice, phase choice, immediates mask,
/// iteration, time, count).
type Generated = (u8, u8, u8, i8, i16, u8);

/// Each row `1 + repeat % 64` times in a row: the same immediates with
/// fresh values each time, and — unless `repeat & 64` cycles through
/// the node choices — the same node.
fn repeated(rows: &[(Generated, u8)]) -> Vec<Generated> {
    let mut out = Vec::new();
    for &((node, phase, mask, it, t, count), repeat) in rows {
        for k in 0..=(repeat % 64) {
            out.push((
                if repeat & 64 != 0 {
                    node.wrapping_add(k)
                } else {
                    node
                },
                phase.wrapping_add(k / 3),
                mask,
                it.wrapping_add(k as i8),
                t.wrapping_add(k as i16 * 7),
                count.wrapping_add(k),
            ));
        }
    }
    out
}

/// Strategy of one generated row and its repeat count.
fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<(Generated, u8)>> {
    prop::collection::vec(
        (
            (any::<u8>(), any::<u8>(), any::<u8>()),
            (any::<i8>(), any::<i16>(), any::<u8>()),
            any::<u8>(),
        )
            .prop_map(|((a, b, c), (d, e, f), repeat)| ((a, b, c, d, e, f), repeat)),
        0..max,
    )
}

/// Label values; two of them need every escape the text encoding has.
const LABELS: [&str; 4] = ["L0", "L1,x=y\\z", "L2", "L3\nnext\rline\\"];

/// The type each attribute of [`dataset_of`] is declared with.
fn declared_type(label: &str) -> Option<ValueType> {
    Some(match label {
        "region" | "phase" | "label" => ValueType::Str,
        "iter" => ValueType::Int,
        "time" => ValueType::Float,
        "n" | "big" => ValueType::UInt,
        "flag" => ValueType::Bool,
        _ => return None,
    })
}

fn dataset_of(rows: &[Generated]) -> Dataset {
    let mut ds = Dataset::new();
    let region = ds.attribute("region", ValueType::Str, Properties::NESTED);
    let phase = ds.attribute("phase", ValueType::Str, Properties::NESTED);
    let iter = ds.attribute("iter", ValueType::Int, Properties::AS_VALUE);
    let time = ds.attribute("time", ValueType::Float, Properties::AS_VALUE);
    let n = ds.attribute("n", ValueType::UInt, Properties::AS_VALUE);
    let big = ds.attribute("big", ValueType::UInt, Properties::AS_VALUE);
    let flag = ds.attribute("flag", ValueType::Bool, Properties::AS_VALUE);
    let label = ds.attribute("label", ValueType::Str, Properties::AS_VALUE);
    ds.set_global("experiment", "differential");

    let child = |parent, attr: &caliper_data::Attribute, text: &str| {
        ds.tree.get_child(parent, attr.id(), &Value::str(text))
    };
    let main = child(NODE_NONE, &region, "main");
    let solver = child(main, &region, "solver");
    let kernel = child(solver, &region, "kernel");
    let main_init = child(main, &phase, "init");
    let solve = child(NODE_NONE, &phase, "solve");
    let phases = ["init", "solve", "io"];

    for &(node, phase_choice, mask, it, t, count) in rows {
        let mut rec = SnapshotRecord::new();
        match node % 6 {
            0 => {}
            1 => rec.push_node(main),
            2 => rec.push_node(solver),
            3 => rec.push_node(kernel),
            4 => rec.push_node(main_init),
            _ => {
                rec.push_node(solver);
                rec.push_node(solve);
            }
        }
        let imms = [
            (
                1,
                phase.id(),
                Value::str(phases[phase_choice as usize % phases.len()]),
            ),
            (2, iter.id(), Value::Int(it as i64)),
            (4, time.id(), Value::Float(t as f64 * 0.25)),
            (8, time.id(), Value::Float(t as f64 * 0.5 + 1.0)),
            (16, n.id(), Value::UInt(count as u64)),
            (32, flag.id(), Value::Bool(count % 2 == 0)),
            (
                64,
                label.id(),
                Value::str(LABELS[count as usize % LABELS.len()]),
            ),
            (128, big.id(), Value::UInt(u64::MAX - count as u64)),
        ];
        for (bit, attr, value) in imms {
            if mask & bit != 0 {
                rec.push_imm(attr, value);
            }
        }
        ds.push(rec);
    }
    ds
}

/// `ds`'s records as the oracle reads them: node paths, then immediates.
fn records_of(ds: &Dataset) -> Vec<Row> {
    rows_of(&ds.store, ds.flat_records())
}

const LETS: &[&str] = &[
    "",
    "LET bin = truncate(iter, 4)",
    "LET r2 = first(label, phase, region)",
    "LET scaled = scale(time, 1000), per = ratio(time, n)",
    "LET iter = truncate(iter, 2)",
    "LET f = first(iter, n), bin = truncate(time, 10)",
];

const OPS: &[&str] = &[
    "count",
    "count, sum(time), min(time), max(time)",
    "avg(time), sum(iter), sum(n)",
    "sum(big), count",
    "min(label), max(phase), max(region)",
    "histogram(time, 0, 100, 5), percentile(time, 90)",
    "percent_total(time), variance(time), stddev(n)",
    "sum(scaled), sum(per), max(bin)",
];

const WHERES: &[&str] = &[
    "",
    "WHERE region",
    "WHERE not(phase)",
    "WHERE iter > 0",
    "WHERE phase = init",
    "WHERE time < 10.5, n != 3",
    "WHERE label = 5",
    "WHERE time = 3",
    "WHERE bin >= 4",
];

const KEYS: &[&str] = &[
    "region",
    "phase",
    "region, iter",
    "flag, label",
    "missing",
    "bin, region",
    "r2",
    "f, n",
];

const CAPS: &[Option<usize>] = &[None, None, Some(1), Some(3)];

fn query_of(choice: (u8, u8, u8, u8)) -> String {
    let pick = |list: &[&'static str], i: u8| list[i as usize % list.len()];
    let keys = pick(KEYS, choice.3);
    format!(
        "{} AGGREGATE {} {} GROUP BY {keys} ORDER BY {keys} FORMAT csv",
        pick(LETS, choice.0),
        pick(OPS, choice.1),
        pick(WHERES, choice.2),
    )
}

/// The key label types a pipeline's store holds: a label the data
/// declared keeps the data's type (`carried`: only labels some record
/// carries, as a writer declares a label at its first use), a LET output
/// the data does not declare has its expression's.
fn declarations<'a>(
    spec: &'a QuerySpec,
    carried: Option<&'a [Row]>,
) -> impl Fn(&str) -> Option<ValueType> + 'a {
    move |label| {
        let declared = carried.is_none_or(|rows| rows.iter().flatten().any(|(l, _)| l == label));
        let data = declared.then(|| declared_type(label)).flatten();
        data.or_else(|| {
            let def = spec.lets.iter().find(|def| def.name == label)?;
            Some(match def.expr {
                LetExpr::First(_) => ValueType::Str,
                _ => ValueType::Float,
            })
        })
    }
}

/// The oracle's answer to `spec` over `files`, a partial per file merged
/// in file order: its rows and its overflow count.
fn oracle(spec: &QuerySpec, cap: Option<usize>, files: &[Vec<Row>]) -> (Vec<Row>, u64) {
    let mut want = folded(spec, "count", cap, &files[0]);
    files[1..]
        .iter()
        .for_each(|file| want.merge(folded(spec, "count", cap, file)));
    let rows = want.finish(&declarations(spec, Some(&files[0])), &mut Schema::new());
    (rows, want.overflow_records())
}

/// A finished query's rows and overflow count.
fn answer(result: QueryResult) -> (Vec<Row>, u64) {
    (
        rows_of(&result.store, result.records.iter()),
        result.overflow_records,
    )
}

/// The query layer's own metrics since the last reset.
/// `query.filter.type_mismatch` is left out: it counts occurrences
/// WHERE looked at, and a v2 read skips whole blocks of them that text
/// and v1 must decode.
fn query_stats() -> String {
    let stats = caliper_data::metrics::global().render_text(true);
    let lines = stats.lines().filter(|line| {
        line.starts_with("query.") && !line.starts_with("query.filter.type_mismatch=")
    });
    lines.collect::<Vec<_>>().join("\n")
}

/// What one scan produced: the answer, the query layer's metrics and
/// each file's read report.
struct Outcome {
    rows: Vec<Row>,
    overflow: u64,
    stats: String,
    reports: Vec<String>,
}

fn report_text(report: &ReadReport) -> String {
    // The path differs between encodings; everything else must not.
    let mut report = report.clone();
    report.path = None;
    format!("{report:?}")
}

/// One pipeline per file, merged in file order — what `cali-query` does.
fn scan_files(
    spec: &QuerySpec,
    cap: Option<usize>,
    files: &[PathBuf],
    policy: ReadPolicy,
) -> Outcome {
    caliper_data::metrics::global().reset();
    let pushdown = build_pushdown(spec, None);
    let mut root: Option<Pipeline> = None;
    let mut reports = Vec::new();
    for path in files {
        let dict = Dataset::new();
        let mut pipeline =
            Pipeline::new(spec.clone(), Arc::clone(&dict.store)).with_max_groups(cap);
        let scanned = pipeline.scan_file(path, dict, policy, Some(&pushdown));
        let scanned = scanned.expect("file scans");
        assert!(scanned.dict.records.is_empty());
        reports.push(report_text(&scanned.report));
        match &mut root {
            Some(root) => root.merge(pipeline),
            None => root = Some(pipeline),
        }
    }
    let (rows, overflow) = answer(root.expect("at least one file").finish());
    Outcome {
        rows,
        overflow,
        stats: query_stats(),
        reports,
    }
}

/// The read reports of the row reader over `files`.
fn row_reports(spec: &QuerySpec, files: &[PathBuf], policy: ReadPolicy) -> Vec<String> {
    let pushdown = build_pushdown(spec, None);
    let report = |path: &PathBuf| {
        let read = read_path_into_filtered(path, Dataset::new(), policy, Some(&pushdown));
        report_text(&read.expect("file reads").1)
    };
    files.iter().map(report).collect()
}

/// One pipeline over all the files, through one shared dictionary —
/// what a rank of `mpi-caliquery` does with the files it is dealt.
fn one_pipeline(spec: &QuerySpec, cap: Option<usize>, files: &[PathBuf]) -> (Vec<Row>, u64) {
    let pushdown = build_pushdown(spec, None);
    let mut dict = Dataset::new();
    let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store)).with_max_groups(cap);
    for path in files {
        let scanned = pipeline.scan_file(path, dict, ReadPolicy::Strict, Some(&pushdown));
        dict = scanned.expect("file scans").dict;
    }
    answer(pipeline.finish())
}

fn case_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "caliper-columnar-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, bytes: Vec<u8>) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

fn v2_bytes(ds: &Dataset, block_records: usize) -> Vec<u8> {
    to_binary_v2_with(ds, block_records)
}

/// `ds` as text, then roughed up without changing what it says: every
/// third line ends `\r\n`, every fifth is preceded by a comment and a
/// blank line, and every fourth carries its `__rec` field last. The
/// writer declares attributes and nodes right before their first use,
/// so declarations arrive in the middle of blocks as it is.
fn rough_text(ds: &Dataset) -> Vec<u8> {
    let text = String::from_utf8(cali::to_bytes(ds)).unwrap();
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if i % 5 == 0 {
            out.push_str("# a comment, with=separators\n\n");
        }
        match line.split_once(',') {
            Some((rec, rest)) if i % 4 == 1 => out.push_str(&format!("{rest},{rec}")),
            _ => out.push_str(line),
        }
        out.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
    }
    out.into_bytes()
}

/// One generated case: see the module docs.
fn columns_fold(
    files: Vec<Vec<(Generated, u8)>>,
    choice: (u8, u8, u8, u8),
    cap: Option<usize>,
    block_records: usize,
) -> Result<(), TestCaseError> {
    let query = query_of(choice);
    let spec = parse_query(&query).expect("generated query parses");
    let dir = case_dir();
    let (mut records, mut text, mut v1, mut v2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, rows) in files.iter().enumerate() {
        let ds = dataset_of(&repeated(rows));
        records.push(records_of(&ds));
        text.push(write(&dir, &format!("f{i}.cali"), rough_text(&ds)));
        v1.push(write(&dir, &format!("f{i}.calb"), binary::to_binary(&ds)));
        v2.push(write(
            &dir,
            &format!("f{i}.calb2"),
            v2_bytes(&ds, block_records),
        ));
    }
    let (want, overflow) = oracle(&spec, cap, &records);

    // Across encodings the reader's byte and block counts differ by
    // construction; the answer and the query's own metrics do not.
    let mut stats = None;
    for (encoding, paths) in [("v2", &v2), ("text", &text), ("v1", &v1)] {
        let outcome = scan_files(&spec, cap, paths, ReadPolicy::Strict);
        check(&format!("{encoding}: {query}"), &outcome.rows, &want)?;
        prop_assert_eq!(outcome.overflow, overflow, "{}: {}", encoding, query);
        let stats = stats.get_or_insert_with(|| outcome.stats.clone());
        prop_assert_eq!(&outcome.stats, stats, "{}: {}", encoding, query);
    }

    // Several streams, each with codes of its own, all into one
    // aggregator. (Not with the LET that shadows `iter`: it retypes the
    // attribute in the shared store, and the next file's declaration is
    // refused.)
    let mixed: Vec<PathBuf> = (0..files.len())
        .map(|i| [&v2, &text, &v1][i % 3][i].clone())
        .collect();
    if !query.starts_with("LET iter") {
        let all = records.concat();
        let want = folded(&spec, "count", cap, &all);
        let want_rows = want.finish(&declarations(&spec, Some(&all)), &mut Schema::new());
        let (rows, got_overflow) = one_pipeline(&spec, cap, &mixed);
        check(&format!("one pipeline: {query}"), &rows, &want_rows)?;
        prop_assert_eq!(
            got_overflow,
            want.overflow_records(),
            "one pipeline: {}",
            query
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn columns_fold_what_the_oracle_folds(
        files in prop::collection::vec(rows_strategy(24), 1..4),
        choice in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        cap in 0usize..4,
        blocks in 0usize..3,
    ) {
        let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
        columns_fold(files, choice, CAPS[cap], [1, 8, 1024][blocks])?;
    }
}

/// Byte offset of the payload of the block whose tag byte sits at
/// `offset` (skipping the tag and the LEB128 length frame).
fn payload_start(bytes: &[u8], offset: usize) -> usize {
    let mut pos = offset + 1;
    while bytes[pos] & 0x80 != 0 {
        pos += 1;
    }
    pos + 1
}

/// Corrupt each block ordinal in turn: under a lenient policy the scan
/// loses exactly that block — nothing of it is folded, every later
/// block resyncs — and answers what the oracle folds of the other
/// blocks' records, with the row reader's `ReadReport`.
#[test]
fn a_corrupt_block_costs_exactly_that_block() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Generated> = (0..50u8)
        .map(|i| {
            (
                i,
                i / 3,
                0b0111_0111 ^ (i % 8),
                i as i8 - 20,
                i as i16 * 7,
                i,
            )
        })
        .collect();
    let ds = dataset_of(&rows);
    let records = records_of(&ds);
    let clean = v2_bytes(&ds, 8);
    let index = read_footer(&clean).expect("footer present");
    assert_eq!(index.len(), 7);
    let spec = parse_query(
        "LET bin = truncate(iter, 4) AGGREGATE count, sum(time), max(n) \
         GROUP BY region, bin ORDER BY region, bin FORMAT csv",
    )
    .unwrap();
    let dir = case_dir();
    let mut start = 0;
    for (ordinal, block) in index.iter().enumerate() {
        let mut damaged = clean.clone();
        // The row-count varint: 0xff makes the payload claim more rows
        // than it holds.
        damaged[payload_start(&clean, block.offset as usize)] = 0xff;
        let files = [write(&dir, &format!("damaged{ordinal}.calb2"), damaged)];

        let lenient = ReadPolicy::lenient();
        let outcome = scan_files(&spec, None, &files, lenient);
        let end = start + block.rows as usize;
        let survivors = [&records[..start], &records[end..]].concat();
        let (want, _) = oracle(&spec, None, &[survivors]);
        check(&format!("block {ordinal}"), &outcome.rows, &want).unwrap();
        assert_eq!(
            outcome.reports,
            row_reports(&spec, &files, lenient),
            "block {ordinal}"
        );
        assert!(
            outcome.reports[0].contains("skipped: 1"),
            "{}",
            outcome.reports[0]
        );
        assert!(
            outcome.reports[0].contains("truncated: false"),
            "{}",
            outcome.reports[0]
        );
        start = end;

        // Strict: the file fails, and says which.
        let dict = Dataset::new();
        let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store));
        let err = pipeline
            .scan_file(&files[0], dict, ReadPolicy::Strict, None)
            .err()
            .expect("strict scan of a corrupt block fails");
        assert!(
            err.to_string().contains(&format!("damaged{ordinal}.calb2")),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupt each line of a text file in turn. Under a lenient policy the
/// scan loses exactly that line — a snapshot row that was half appended
/// is taken back, a lost declaration costs the lines that needed it,
/// every other line folds — which is to say: the answer of the file
/// *without* the line, one more skip, and the row reader's
/// `ReadReport`. Under a strict policy the scan fails with the row
/// reader's error, naming the line.
#[test]
fn a_corrupt_line_costs_exactly_that_line() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Generated> = (0..40u8)
        .map(|i| {
            (
                i,
                i / 3,
                0b0111_0111 ^ (i % 8),
                i as i8 - 20,
                i as i16 * 7,
                i,
            )
        })
        .collect();
    let clean = String::from_utf8(rough_text(&dataset_of(&rows))).unwrap();
    let lines: Vec<&str> = clean.split_inclusive('\n').collect();
    let spec = parse_query(
        "LET bin = truncate(iter, 4) AGGREGATE count, sum(time), max(n) \
         GROUP BY region, label, bin ORDER BY region, label, bin FORMAT csv",
    )
    .unwrap();
    let field = |report: &str, name: &str| -> u64 {
        let rest = &report[report.find(&format!(" {name}: ")).unwrap() + name.len() + 3..];
        rest[..rest.find([',', ' ']).unwrap()].parse().unwrap()
    };
    let dir = case_dir();
    let lenient = ReadPolicy::lenient();
    let mut corrupted = 0;
    for (ordinal, line) in lines.iter().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        corrupted += 1;
        let body = line.trim_end();
        let damaged_line: Vec<u8> = if body.contains("__rec=ctx") && body.contains("data=") {
            // Fails at its last field, after the row's entries went in.
            format!("{body},attr=torn\n").into_bytes()
        } else if ordinal % 2 == 0 {
            b"no record kind, just=text\n".to_vec()
        } else {
            b"__rec=ctx,\xff\xfe not UTF-8\n".to_vec()
        };
        let splice = |middle: &[u8]| -> Vec<u8> {
            let mut bytes = lines[..ordinal].concat().into_bytes();
            bytes.extend_from_slice(middle);
            bytes.extend_from_slice(lines[ordinal + 1..].concat().as_bytes());
            bytes
        };
        let damaged = [write(
            &dir,
            &format!("damaged{ordinal}.cali"),
            splice(&damaged_line),
        )];
        let without = [write(&dir, &format!("without{ordinal}.cali"), splice(b""))];

        let columns = scan_files(&spec, None, &damaged, lenient);
        assert_eq!(
            columns.reports,
            row_reports(&spec, &damaged, lenient),
            "line {}",
            ordinal + 1
        );
        let removed = scan_files(&spec, None, &without, lenient);
        let at = format!("line {}", ordinal + 1);
        check_in_order(&at, &columns.rows, &removed.rows).unwrap();
        let (got, want) = (&columns.reports[0], &removed.reports[0]);
        assert_eq!(field(got, "skipped"), field(want, "skipped") + 1, "{got}");
        assert_eq!(field(got, "records"), field(want, "records"), "{got}");
        assert_eq!(
            field(got, "dangling_dropped"),
            field(want, "dangling_dropped"),
            "{got}"
        );
        assert!(got.contains("truncated: false"), "{got}");
        assert!(
            got.contains(&format!("parse error at line {}:", ordinal + 1)),
            "{got}"
        );

        // Strict: the row reader's first error, naming the line.
        let dict = Dataset::new();
        let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store));
        let scan_err = pipeline
            .scan_file(&damaged[0], dict, ReadPolicy::Strict, None)
            .err()
            .expect("strict scan of a corrupt line fails");
        let rows_err =
            read_path_into_filtered(&damaged[0], Dataset::new(), ReadPolicy::Strict, None)
                .expect_err("strict read of a corrupt line fails");
        assert_eq!(scan_err.to_string(), rows_err.to_string());
        let named = format!(
            "damaged{ordinal}.cali: parse error at line {}:",
            ordinal + 1
        );
        assert!(scan_err.to_string().contains(&named), "{scan_err}");
    }
    assert!(corrupted > 50, "{corrupted} lines corrupted");
    std::fs::remove_dir_all(&dir).ok();
}

/// A pass-through query keeps whole rows — node paths, immediates and
/// LET outputs — in stream order, out of every block WHERE looks at.
#[test]
fn pass_through_queries_keep_their_rows() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Generated> = (0..40u8)
        .map(|i| (i, i, 0b0101_0111, i as i8 - 9, i as i16, i))
        .collect();
    let ds = dataset_of(&rows);
    let dir = case_dir();
    let files = [
        write(&dir, "rows.calb2", v2_bytes(&ds, 8)),
        write(&dir, "rows.cali", rough_text(&ds)),
        write(&dir, "rows.calb", binary::to_binary(&ds)),
    ];
    let query = "LET bin = truncate(iter, 4) SELECT region, phase, iter, time, bin \
                 WHERE iter > 0 FORMAT csv";
    let spec = parse_query(query).unwrap();
    let want = folded(&spec, "count", None, &records_of(&ds)).finish(&|_| None, &mut Schema::new());
    assert!(want.len() > 10, "{}", want.len());
    for file in &files {
        let outcome = scan_files(&spec, None, std::slice::from_ref(file), ReadPolicy::Strict);
        check_in_order(&file.display().to_string(), &outcome.rows, &want).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The reader accepts v1 snapshot records (`TAG_CTX`) inside a v2 stream.
/// They keep their place between the blocks: with a group capacity,
/// which keys are admitted depends on it.
#[test]
fn row_records_between_blocks_fold_in_stream_order() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let labelled = |counts: &[u8]| -> Dataset {
        let rows: Vec<Generated> = counts.iter().map(|&c| (1, 0, 64, 0, 0, c)).collect();
        dataset_of(&rows)
    };
    // Every stream starts with the four magic bytes and a version byte,
    // and a v2 stream ends with its footer, which indexes its own blocks
    // only: the footer's record, its length and the end magic go.
    let footerless = |ds: &Dataset| {
        let mut bytes = to_binary_v2_with(ds, 8);
        let trailer = bytes.len() - 8;
        let footer = u32::from_le_bytes(bytes[trailer..trailer + 4].try_into().unwrap());
        bytes.truncate(trailer - footer as usize);
        bytes
    };
    let parts = [labelled(&[0, 1]), labelled(&[2, 2]), labelled(&[3, 0])];
    let mut bytes = footerless(&parts[0]);
    bytes.extend_from_slice(&binary::to_binary(&parts[1])[5..]);
    bytes.extend_from_slice(&footerless(&parts[2])[5..]);
    let dir = case_dir();
    let mixed = write(&dir, "mixed.calb2", bytes);

    let spec = parse_query("AGGREGATE count GROUP BY label ORDER BY label FORMAT csv").unwrap();
    let records: Vec<Row> = parts.iter().flat_map(records_of).collect();
    let (want, overflow) = oracle(&spec, Some(3), &[records]);
    let dict = Dataset::new();
    let mut pipeline = Pipeline::new(spec, Arc::clone(&dict.store)).with_max_groups(Some(3));
    let scanned = pipeline
        .scan_file(&mixed, dict, ReadPolicy::Strict, None)
        .unwrap();
    assert_eq!((scanned.records, scanned.report.blocks), (6, 2));
    let (rows, got_overflow) = answer(pipeline.finish());
    check("mixed", &rows, &want).unwrap();
    // L0, L1 and L2 are admitted; L3 comes after the cap.
    assert_eq!((got_overflow, overflow), (1, 1));
    std::fs::remove_dir_all(&dir).ok();
}

/// What a fold remembers is about the stream, not about the aggregator:
/// the fold an aggregator keeps when it restarts ([`Aggregator::restart`])
/// deals a stream's blocks out to the databases it hands back, each of
/// which ends up with what the oracle folds of its blocks' rows.
#[test]
fn one_fold_may_feed_several_aggregators() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Generated> = (0..60u8)
        .map(|i| (i, i / 7, 1 | 4 | 64, 0, i as i16, i / 5))
        .collect();
    let dir = case_dir();
    let file = write(&dir, "dealt.calb2", v2_bytes(&dataset_of(&rows), 8));
    let query = parse_query("AGGREGATE count, sum(time) GROUP BY label, region, phase").unwrap();
    let spec = AggregationSpec::from_query(&query);

    let dict = Dataset::new();
    let mut aggregator = Aggregator::new(spec.clone(), Arc::clone(&dict.store));
    let mut aggregators = Vec::new();
    let mut dealt: [Vec<Row>; 3] = Default::default();
    let mut block_no = 0;
    scan_path(
        &file,
        dict,
        ReadPolicy::Strict,
        None,
        &mut |ds, strings, block| {
            if block_no % 3 == 0 && block_no > 0 {
                aggregators.push(aggregator.restart());
            }
            aggregator.fold_block(&ds.tree, strings, block);
            let records = block.records(strings).map(|record| record.unpack(&ds.tree));
            dealt[block_no / 3].extend(rows_of(&ds.store, records));
            block_no += 1;
        },
    )
    .expect("file scans");
    aggregators.push(aggregator);
    assert_eq!(block_no, 8);
    for (agg, records) in aggregators.iter().zip(&dealt) {
        let out = caliper_data::AttributeStore::new();
        let want = folded(&query, "count", None, records);
        let want = want.finish(&declarations(&query, None), &mut Schema::new());
        assert!(want.len() > 3);
        check("dealt", &rows_of(&out, agg.flush(&out).iter()), &want).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `path` scanned block by block into one pipeline, as `scan_file`
/// does: the answer, and the rows the pipeline's fold gathered.
fn scan_counting(spec: &QuerySpec, cap: Option<usize>, path: &Path) -> ((Vec<Row>, u64), u64) {
    let dict = Dataset::new();
    let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store)).with_max_groups(cap);
    scan_path(
        path,
        dict,
        ReadPolicy::Strict,
        None,
        &mut |ds, strings, block| pipeline.fold_block(ds, strings, block),
    )
    .expect("file scans");
    let gathered = pipeline.gathered_rows();
    (answer(pipeline.finish()), gathered)
}

/// `ds`'s records as blocks of `block_rows` rows built by hand, strings
/// as codes of the returned table — with a twist no reader makes: where
/// `retype(i, k)` says so, the `k`th float immediate of record `i` goes
/// into an `Int` column of its attribute, truncated, so that the
/// attribute arrives in two type columns. The records are taken out of
/// `ds`, which keeps their tree and store; the oracle's rows are those
/// the blocks hold.
fn hand_built(
    ds: &mut Dataset,
    block_rows: usize,
    retype: impl Fn(usize, usize) -> bool,
) -> (StringTable, Vec<Block>, Vec<Row>) {
    let mut strings = StringTable::default();
    let mut blocks = vec![Block::default()];
    for (i, record) in std::mem::take(&mut ds.records).iter().enumerate() {
        if blocks.last().expect("one block at least").rows() == block_rows {
            blocks.push(Block::default());
        }
        let block = blocks.last_mut().expect("one block at least");
        let mut floats = 0;
        for entry in record.entries() {
            match entry {
                Entry::Node(node) => block.push_ref(*node),
                Entry::Imm(attr, value) => {
                    let value = match value {
                        Value::Float(x) => {
                            floats += 1;
                            if retype(i, floats - 1) {
                                Value::Int(*x as i64)
                            } else {
                                Value::Float(*x)
                            }
                        }
                        other => other.clone(),
                    };
                    let column = block.column_for(*attr, value.value_type());
                    block.push_imm(column, strings.cell(&value));
                }
            }
        }
        assert!(block.end_row());
    }
    let records = blocks.iter().flat_map(|block| block.records(&strings));
    let rows = rows_of(
        &ds.store,
        records
            .map(|record| record.unpack(&ds.tree))
            .collect::<Vec<_>>(),
    );
    (strings, blocks, rows)
}

/// `blocks` folded into one pipeline: the answer, and the rows the
/// pipeline's fold gathered.
fn fold_hand_built(
    spec: &QuerySpec,
    cap: Option<usize>,
    ds: &mut Dataset,
    strings: &StringTable,
    blocks: &[Block],
) -> ((Vec<Row>, u64), u64) {
    let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&ds.store)).with_max_groups(cap);
    let mut strings = strings.clone();
    for block in blocks {
        pipeline.fold_block(ds, &mut strings, block);
    }
    let gathered = pipeline.gathered_rows();
    (answer(pipeline.finish()), gathered)
}

/// What the oracle folds of `records` in memory, whose store declares
/// every attribute of [`dataset_of`].
fn in_memory(spec: &QuerySpec, cap: Option<usize>, records: &[Row]) -> (Vec<Row>, u64) {
    let want = folded(spec, "count", cap, records);
    (
        want.finish(&declarations(spec, None), &mut Schema::new()),
        want.overflow_records(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocks with long runs, built by hand: `twist` 1 and 2 put the
    /// first or the second float of every record into an `Int` column
    /// (a record with both `time`s then has it in two type columns),
    /// 3 the first float of every other record (the runs alternate
    /// between the two columns).
    #[test]
    fn hand_built_blocks_fold_what_the_oracle_folds(
        rows in rows_strategy(24),
        choice in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        cap in 0usize..4,
        blocks in 0usize..3,
        twist in 0u8..4,
    ) {
        let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
        let query = query_of(choice);
        let spec = parse_query(&query).expect("generated query parses");
        let cap = CAPS[cap];
        let mut ds = dataset_of(&repeated(&rows));
        let retype = |i: usize, k: usize| match twist {
            1 => k == 0,
            2 => k == 1,
            3 => k == 0 && i.is_multiple_of(2),
            _ => false,
        };
        let (strings, blocks, records) = hand_built(&mut ds, [1, 8, 1024][blocks], retype);
        let ((rows, overflow), _) = fold_hand_built(&spec, cap, &mut ds, &strings, &blocks);
        let (want, want_overflow) = in_memory(&spec, cap, &records);
        check(&format!("{query} (twist {twist})"), &rows, &want)?;
        prop_assert_eq!(overflow, want_overflow);
    }
}

/// A run whose rows carry `time` twice sits between two runs that carry
/// it once, all in one block: the fold gathers exactly that run's rows
/// and folds the others a column at a time, with the oracle's answer.
#[test]
fn a_run_with_repeated_occurrences_is_gathered_between_columnar_runs() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let run = |mask: u8, n: u8| -> Vec<Generated> {
        (0..n)
            .map(|k| (1, k, mask, k as i8, k as i16 * 3 - 20, k))
            .collect()
    };
    let (once, twice) = (1 | 2 | 4 | 16 | 64, 1 | 2 | 4 | 8 | 16 | 64);
    let ds = dataset_of(&[run(once, 20), run(twice, 10), run(once, 20)].concat());
    let records = records_of(&ds);
    let dir = case_dir();
    let files = [
        write(&dir, "runs.calb2", v2_bytes(&ds, 1024)),
        write(&dir, "runs.cali", rough_text(&ds)),
    ];
    for query in [
        "AGGREGATE count, sum(time), min(time), max(time) GROUP BY phase, label \
         ORDER BY phase, label FORMAT csv",
        "LET scaled = scale(time, 1000) AGGREGATE sum(scaled), count, avg(time) \
         WHERE n != 3 GROUP BY region, iter ORDER BY region, iter FORMAT csv",
        "AGGREGATE percentile(time, 50), histogram(time, -20, 40, 6) GROUP BY label \
         ORDER BY label FORMAT csv",
    ] {
        let spec = parse_query(query).unwrap();
        let (want, _) = oracle(&spec, None, std::slice::from_ref(&records));
        for file in &files {
            let ((rows, _), gathered) = scan_counting(&spec, None, file);
            check(&format!("{query}: {}", file.display()), &rows, &want).unwrap();
            assert_eq!(gathered, 10, "{query}: {}", file.display());
        }
    }
    // A query that does not mention `time` gathers nothing.
    let spec = parse_query("AGGREGATE count, sum(n) GROUP BY label").unwrap();
    assert_eq!(scan_counting(&spec, None, &files[0]).1, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `max_groups` is reached in the middle of a run of one shape: the
/// keys admitted, those turned into the overflow bucket and every
/// reduction are the oracle's, for a key of one string (looked up by
/// stream code), a number key and a key of both.
#[test]
fn max_groups_is_reached_in_the_middle_of_a_run() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Generated> = (0..60u8)
        .map(|k| (0, k, 1 | 2 | 4 | 64, k as i8 - 30, k as i16, k / 2))
        .collect();
    let ds = dataset_of(&rows);
    let records = records_of(&ds);
    let dir = case_dir();
    let files = [
        write(&dir, "capped.calb2", v2_bytes(&ds, 1024)),
        write(&dir, "capped.cali", rough_text(&ds)),
    ];
    for (keys, cap) in [("label", 2), ("iter", 5), ("label, iter", 7), ("phase", 1)] {
        let query = format!(
            "AGGREGATE count, sum(time), max(label) GROUP BY {keys} ORDER BY {keys} FORMAT csv"
        );
        let spec = parse_query(&query).unwrap();
        let (want, overflow) = oracle(&spec, Some(cap), std::slice::from_ref(&records));
        assert!(overflow > 0, "{query}");
        for file in &files {
            let ((rows, got_overflow), gathered) = scan_counting(&spec, Some(cap), file);
            check(&query, &rows, &want).unwrap();
            assert_eq!((got_overflow, gathered), (overflow, 0), "{query}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An attribute in two type columns: a run with `time` in the `Float`
/// column alone and one with it in the `Int` column alone are folded a
/// column at a time, every row of a run with it in both is gathered —
/// the oracle's answer either way, down to which of two equal values of
/// two types `min` and `max` keep (the first).
#[test]
fn an_attribute_in_two_type_columns_folds_as_its_rows() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let run = |mask: u8| -> Vec<Generated> {
        (0..30u8)
            .map(|k| (2, k, mask, k as i8, k as i16 * 5 - 40, k))
            .collect()
    };
    let rows = [run(1 | 4 | 16), run(1 | 4 | 16), run(1 | 4 | 8 | 16)].concat();
    let retype = |i: usize, k: usize| ((30..60).contains(&i) && k == 0) || (i >= 60 && k == 1);
    for query in [
        "AGGREGATE count, sum(time), min(time), max(time), avg(time) GROUP BY phase \
         ORDER BY phase FORMAT csv",
        "LET bin = truncate(time, 10), f = first(time, n) AGGREGATE count, sum(n) \
         WHERE time > -10 GROUP BY bin, f ORDER BY bin, f FORMAT csv",
        "AGGREGATE count, variance(time) GROUP BY time ORDER BY time FORMAT csv",
        "AGGREGATE min(time), max(time) GROUP BY n ORDER BY n FORMAT json",
    ] {
        let spec = parse_query(query).unwrap();
        let mut ds = dataset_of(&rows);
        let (strings, blocks, records) = hand_built(&mut ds, 1024, retype);
        let time = ds.store.find("time").expect("declared").id();
        let columns = blocks[0].columns().iter().filter(|c| c.attr == time);
        assert_eq!((blocks.len(), columns.count()), (1, 2));
        let ((got, _), gathered) = fold_hand_built(&spec, None, &mut ds, &strings, &blocks);
        check(query, &got, &in_memory(&spec, None, &records).0).unwrap();
        assert_eq!(gathered, 30, "{query}");
    }
}
