//! Every execution path of a query held to one reference evaluator
//! (`oracle`, which shares no code with the engine): generated files and
//! a generated aggregation go through
//!
//! * `parallel_query_files` at 1, 2 and 4 workers over text, CALB v2
//!   and CALB v2 with pushdown, with and without `--degrade` (no faults)
//!   and a group cap — each file folded on its own, the partials merged
//!   in file order;
//! * `run_query` over the rows in memory, and a capped `Pipeline` over
//!   them — one stream;
//! * `cali_cli::parallel_query` on the event engine, flat and two-level,
//!   a file per rank — the oracle's partials combined by an
//!   `mpisim::ReduceTask` of the same topology;
//! * the runtime's `AggregateService` with a spill capacity — one stream,
//!   flushed and started over whenever it holds that many groups — a
//!   capped aggregator's fold of the snapshots' block, and a
//!   re-aggregation of what was flushed;
//! * `cali-served`'s `StreamState`, a stream per file, queried through
//!   `WarmQuery`, reopened from its journal and queried again.
//!
//! Each path's rows must be the oracle's composed in that path's merge
//! order (DESIGN.md §6) — label, type and bits of every pair — and the
//! runs that share a merge order must render the same bytes.
//!
//! A generated pass-through query (`LET … SELECT * WHERE …`) goes
//! through `parallel_query_files` (asked for two workers, run on one)
//! over text, CALB v1 and CALB v2 (with and without pushdown),
//! `run_query` over the rows and
//! `Pipeline::process` record by record; and pass-through queries over
//! the served streams' warm answers through `WarmQuery`. Their rows must
//! be the oracle's kept rows in stream order.
//!
//! Snapshot shapes built by hand — node-less, on a node the tree does
//! not know, a nested key label that is also an op target, a WHERE or
//! LET input or an immediate, key strings turned away at the group cap
//! — go through the runtime's `AggregateService`, unbounded and
//! spilling, and a capped `Aggregator::fold_block` (or, with a WHERE or
//! LET, a `Pipeline`), each held to the oracle's fold of the unpacked
//! records.
//!
//! `columnar` holds the block fold's own cases to the oracle: runs of
//! 1–64 rows, nested paths, an attribute in two type columns and blocks
//! built by hand.

mod columnar;
mod oracle;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cali_cli::parallel_query;
use caliper_data::{
    AttributeStore, ContextTree, Entry, FlatRecord, Properties, SnapshotRecord, Value, ValueType,
    NODE_NONE,
};
use caliper_format::{
    binary, cali, to_binary_v2_with, Block, Dataset, Pushdown, StringTable,
};
use caliper_query::{
    build_pushdown, parallel_query_files, parse_query, run_query, AggregationSpec, Aggregator,
    LetExpr, ParallelOptions, Pipeline, QuerySpec,
};
use caliper_runtime::{AggregateService, Clock, ProcCtx, Service, Trigger};
use caliper_served::state::{StreamState, WarmQuery};
use caliper_served::ServedConfig;
use mpisim::{EventEngine, Executor, FaultPlan, ReduceTask, ResilienceOptions, Topology};
use oracle::{Oracle, Row, Schema};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The immediate labels; `k` is the context-tree path's.
const LABELS: [&str; 8] = ["i", "f", "u", "x", "n", "s", "b", "v"];

/// `k` paths, root first: nested keys, and a value that is a joined path.
const PATHS: [&[&str]; 6] = [&[], &["a"], &["a", "b"], &["b"], &["a/b"], &["b", "a", "c"]];

/// How often a row repeats (runs), and how often a file's rows do —
/// enough for the percentile reservoir to thin.
const REPEATS: [usize; 8] = [1, 1, 1, 2, 3, 5, 64, 64];
const CYCLES: [usize; 4] = [1, 1, 2, 8];

const KEYS: [&str; 10] = ["", "k", "i", "k, f", "u, k", "i, s", "L", "f, i, k", "v", "k, v"];
const LETS: [&str; 5] = [
    "",
    "LET L = scale(x, 0.5)",
    "LET L = ratio(n, v)",
    "LET L = first(s, v, b)",
    "LET L = truncate(f, 2)",
];
const WHERES: [&str; 7] =
    ["", "WHERE x > 0", "WHERE not(s)", "WHERE i != 3", "WHERE k", "WHERE s = s1", "WHERE v <= 1"];
const OPS: &str = "count, sum(x), sum(n), sum(u), sum(s), sum(v), sum(b), min(v), max(v), \
                   min(s), max(b), avg(v), percent_total(x), variance(v), stddev(n), \
                   histogram(x, -4, 4, 4), percentile(x, 50), sum(L)";

/// The type each label is declared with — `v`'s is the file's.
fn label_type(label: &str, v: ValueType) -> ValueType {
    match label {
        "i" | "n" => ValueType::Int,
        "f" | "x" => ValueType::Float,
        "u" => ValueType::UInt,
        "k" | "s" => ValueType::Str,
        "b" => ValueType::Bool,
        _ => v,
    }
}

/// The `pick`th value of label `LABELS[label]`: distinct integers of one
/// `f64` image, integers next to overflow, `-0.0` beside `0.0`, strings
/// that parse as numbers and one that looks like a path.
fn value(label: usize, pick: u8, v: ValueType) -> Value {
    let (p, big) = (pick as usize, 1i64 << 53);
    match (LABELS[label], v) {
        ("i", _) => Value::Int([-3, 0, 3, big, big + 1, big + 2, 7][p % 7]),
        ("f", _) => Value::Float([0.5, -0.0, 0.0, 1.5, 2.0, -2.5][p % 6]),
        ("u", _) => Value::UInt([0, 7, u64::MAX - 1, u64::MAX][p % 4]),
        ("x", _) => Value::Float([0.1, -0.7, 2.5, 1e-3, 3.25, -4.5, 7.0, 0.3][p % 8]),
        ("n", _) => Value::Int([1, -2, i64::MAX, i64::MAX - 1, 5][p % 5]),
        ("s", _) => Value::str(["s0", "s1", "2.5", "-1", "a/b"][p % 5]),
        ("b", _) => Value::Bool(p % 2 == 0),
        (_, ValueType::Int) => Value::Int([1, -2, 3, 0][p % 4]),
        (_, ValueType::UInt) => Value::UInt([1, 2, 0, 5][p % 4]),
        _ => Value::Float([0.5, 1.0, -1.25, 3.0][p % 4]),
    }
}

/// A file: the class of its `v` values, and its records in stream order,
/// each its `k` path's values, then its immediates.
struct File {
    v: ValueType,
    rows: Vec<Row>,
}

/// Generated: per file a `v` class, how many times its rows repeat as
/// a whole, and rows of (path, `x` value unless 8 or 9, immediates,
/// repeat).
type Generated = Vec<(u8, usize, Vec<(usize, u8, Vec<(usize, u8)>, usize)>)>;

fn files_of(generated: Generated) -> Vec<File> {
    let file = |(v, cycles, rows): (u8, usize, Vec<_>)| {
        let v = [ValueType::Int, ValueType::UInt, ValueType::Float][v as usize % 3];
        let rows = rows.into_iter().flat_map(|(path, x, imms, repeat): (usize, u8, Vec<_>, _)| {
            let path = PATHS[path].iter().map(|seg| (0, Value::str(*seg)));
            let x = (x < 8).then(|| (4, value(3, x, v)));
            let imms = imms.into_iter().map(|(l, pick)| (l + 1, value(l, pick, v)));
            let label = |l: usize| if l == 0 { "k" } else { LABELS[l - 1] }.to_string();
            let row: Row = path.chain(x).chain(imms).map(|(l, v)| (label(l), v)).collect();
            std::iter::repeat_n(row, REPEATS[repeat])
        });
        let rows: Vec<Row> = rows.collect();
        File { v, rows: std::iter::repeat_n(rows, CYCLES[cycles]).flatten().collect() }
    };
    generated.into_iter().map(file).collect()
}

/// Append `rows`, `v` of class `v`, to `ds` as snapshot records — the
/// `k` values a node path, the rest immediates — declaring each label as
/// a row first carries it.
fn fill(ds: &mut Dataset, v: ValueType, rows: &[Row]) {
    for row in rows {
        let mut rec = SnapshotRecord::new();
        let (path, imms): (Vec<_>, Vec<_>) = row.iter().partition(|(l, _)| l == "k");
        let node = path.iter().fold(NODE_NONE, |parent, (_, seg)| {
            let k = ds.attribute("k", ValueType::Str, Properties::NESTED).id();
            ds.tree.get_child(parent, k, seg)
        });
        if node != NODE_NONE {
            rec.push_node(node);
        }
        for (l, value) in imms {
            rec.push_imm(
                ds.attribute(l, label_type(l, v), Properties::AS_VALUE).id(),
                value.clone(),
            );
        }
        ds.push(rec);
    }
}

fn dataset(v: ValueType, rows: &[Row]) -> Dataset {
    let mut ds = Dataset::new();
    fill(&mut ds, v, rows);
    ds
}

/// The key label types a query's store holds when the data declared the
/// labels of `records` (a writer declares a label as it first writes
/// it), `v` as of class `v`: theirs, and the LET outputs'.
fn declarations<'a>(
    query: &'a QuerySpec,
    records: &'a [Row],
    v: ValueType,
) -> impl Fn(&str) -> Option<ValueType> + 'a {
    move |label| match query.lets.iter().find(|def| def.name == label) {
        Some(def) if matches!(def.expr, LetExpr::First(_)) => Some(ValueType::Str),
        Some(_) => Some(ValueType::Float),
        None => records.iter().flatten().any(|(l, _)| l == label).then(|| label_type(label, v)),
    }
}

/// `records` folded by `query` into one partial.
fn folded<'r>(
    query: &QuerySpec,
    count: &str,
    cap: Option<usize>,
    records: impl IntoIterator<Item = &'r Row>,
) -> Oracle {
    let mut oracle = Oracle::new(query, count, cap);
    records.into_iter().for_each(|r| oracle.fold(r));
    oracle
}

/// Flushed or queried rows as the oracle's, labels from `store`.
fn rows_of(store: &AttributeStore, rows: impl IntoIterator<Item = FlatRecord>) -> Vec<Row> {
    let pair = |(a, v): &(u32, Value)| (store.name_of(*a).unwrap().to_string(), v.clone());
    rows.into_iter().map(|rec| rec.pairs().iter().map(pair).collect()).collect()
}

/// `got` and `want` hold the same rows, in any order: each pair's label,
/// type and value — a float by its bits.
fn check(path: &str, got: &[Row], want: &[Row]) -> Result<(), TestCaseError> {
    let sorted = |rows: &[Row]| {
        let mut rows = encoded(rows);
        rows.sort();
        rows
    };
    same(path, sorted(got), sorted(want), "sorted order")
}

/// `got` and `want` hold the same rows in the same order.
fn check_in_order(path: &str, got: &[Row], want: &[Row]) -> Result<(), TestCaseError> {
    same(path, encoded(got), encoded(want), "order")
}

/// Each row as its pairs' labels, types and values — a float by its bits.
fn encoded(rows: &[Row]) -> Vec<String> {
    let pair = |(label, v): &(String, Value)| match v {
        Value::Float(x) => format!("{label}=float:{:#018x}", x.to_bits()),
        v => format!("{label}={}:{v}", v.value_type().name()),
    };
    rows.iter().map(|row| row.iter().map(pair).collect::<Vec<_>>().join(",")).collect()
}

fn same(path: &str, got: Vec<String>, want: Vec<String>, order: &str) -> Result<(), TestCaseError> {
    let at = got.iter().zip(&want).take_while(|(g, w)| g == w).count();
    prop_assert!(
        got == want,
        "{path}: {} rows, the oracle {}; first difference in {order}: {:#?} where the oracle has {:#?}",
        got.len(),
        want.len(),
        got.get(at),
        want.get(at)
    );
    Ok(())
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// The metrics registry is process-wide, and `columnar` reads it: cases
/// take turns.
static METRICS: Mutex<()> = Mutex::new(());

/// One generated case through every path: see the module docs.
fn every_path(
    files: Vec<File>,
    (key, let_, where_, cap): (usize, usize, usize, usize),
) -> Result<(), TestCaseError> {
    let group_by = match KEYS[key] {
        "" => String::new(),
        key => format!("GROUP BY {key}"),
    };
    // Without a LET, an op on the path's attribute instead.
    let last = if let_ == 0 { "max(k)" } else { "max(L)" };
    let (lets, wheres) = (LETS[let_], WHERES[where_]);
    let text = format!("{lets} AGGREGATE {OPS}, {last} {wheres} {group_by} FORMAT expand");
    let query = parse_query(&text).unwrap();
    let cap = [None, Some(1), Some(3), Some(6)][cap];
    let records: Vec<&[Row]> = files.iter().map(|f| &f.rows[..]).collect();
    let all: Vec<Row> = records.concat();
    // The root of a file set is the first file's pipeline.
    let declared = declarations(&query, records[0], files[0].v);

    let dir = std::env::temp_dir().join(format!(
        "caliper-every-path-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut text_paths, mut v2_paths) = (Vec::new(), Vec::new());
    for (i, file) in files.iter().enumerate() {
        let ds = dataset(file.v, &file.rows);
        text_paths.push(dir.join(format!("f{i}.cali")));
        cali::write_file(&ds, &text_paths[i]).unwrap();
        v2_paths.push(dir.join(format!("f{i}.calb2")));
        std::fs::write(&v2_paths[i], to_binary_v2_with(&ds, 16)).unwrap();
    }

    // `parallel_query_files`: a partial per file, merged in file order.
    for cap in [None, cap] {
        let mut want = folded(&query, "count", cap, records[0]);
        records[1..].iter().for_each(|file| want.merge(folded(&query, "count", cap, *file)));
        let want_rows = want.finish(&declared, &mut Schema::new());
        let no_pushdown = Some(Arc::new(Pushdown::default()));
        let mut render = None;
        for (encoding, paths, pushdown) in [
            ("text", &text_paths, None),
            ("v2", &v2_paths, no_pushdown),
            ("v2+pushdown", &v2_paths, None),
        ] {
            for threads in [1, 2, 4] {
                let options = ParallelOptions::with_threads(threads)
                    .with_max_groups(cap)
                    .with_degrade(threads == 2)
                    .with_pushdown(pushdown.clone());
                let (result, timings) = parallel_query_files(&text, paths, &options).unwrap();
                let path = format!("parallel_query_files {encoding} threads={threads} cap={cap:?}");
                check(&path, &rows_of(&result.store, result.records.iter()), &want_rows)?;
                prop_assert_eq!(result.overflow_records, want.overflow_records(), "{}", path);
                prop_assert_eq!(timings.workers.len(), threads.min(files.len()), "{}", path);
                prop_assert!(timings.failures.is_empty(), "{}", path);
                if encoding == "text" {
                    // Every record is scanned once, by one worker.
                    let scanned: u64 = timings.workers.iter().map(|w| w.records).sum();
                    let read: usize = timings.workers.iter().map(|w| w.files).sum();
                    prop_assert_eq!((scanned as usize, read), (all.len(), files.len()));
                }
                let render = render.get_or_insert_with(|| result.render());
                prop_assert_eq!(&result.render(), render, "{}", path);
            }
        }
    }

    // `run_query` and a capped pipeline over the rows: one stream.
    let rows_ds = dataset(files[0].v, &all);
    for cap in [None, cap] {
        let want = folded(&query, "count", cap, &all);
        let result = match cap {
            None => run_query(&rows_ds, &text).unwrap(),
            cap => {
                let mut pipeline =
                    Pipeline::new(query.clone(), Arc::clone(&rows_ds.store)).with_max_groups(cap);
                pipeline.process_dataset(&rows_ds);
                pipeline.finish()
            }
        };
        let path = format!("rows cap={cap:?}");
        let want_rows = want.finish(&declarations(&query, &all, files[0].v), &mut Schema::new());
        check(&path, &rows_of(&result.store, result.records.iter()), &want_rows)?;
        prop_assert_eq!(result.overflow_records, want.overflow_records(), "{}", path);
    }

    // `mpi-caliquery`: a file per rank, partials merged up the tree.
    let shared =
        Arc::new((query.clone(), files.iter().map(|f| f.rows.clone()).collect::<Vec<_>>()));
    for topology in [Topology::Flat, Topology::TwoLevel { ranks_per_node: 2 }] {
        let shared = Arc::clone(&shared);
        let make = move |rank: usize, size: usize| {
            let shared = Arc::clone(&shared);
            let init = move || folded(&shared.0, "count", None, &shared.1[rank]);
            let merge = |mut mine: Oracle, theirs: Oracle| {
                mine.merge(theirs);
                mine
            };
            ReduceTask::new(rank, size, topology, init, merge, ResilienceOptions::default())
        };
        let mut roots = EventEngine::new().run(files.len(), FaultPlan::new(), make, false).outputs.unwrap();
        let (want, _) = roots[0].take().flatten().unwrap();
        let want = want.finish(&declared, &mut Schema::new());
        let mut render = None;
        for paths in [&text_paths, &v2_paths] {
            let per_rank = paths.iter().map(|p| vec![p.clone()]).collect();
            let (engine, faults, opts) =
                (EventEngine::new(), FaultPlan::new(), ResilienceOptions::default());
            let (run, _) = parallel_query(&engine, topology, &text, per_rank, faults, opts, false);
            let result = run.unwrap().result;
            let path = format!("parallel_query {topology:?} {}", paths[0].display());
            check(&path, &rows_of(&result.store, result.records.iter()), &want)?;
            let render = render.get_or_insert_with(|| result.render());
            prop_assert_eq!(&result.render(), render, "{}", path);
        }
    }

    // The runtime: snapshots, each annotating attributes it is the first
    // to carry, into a service that spills at capacity and into a capped
    // aggregator; the spilled and final blocks re-aggregated off-line.
    let online = QuerySpec { lets: Vec::new(), filters: Vec::new(), ..query.clone() };
    let capacity = [4, 1, 3, 6][key % 4];
    let (store, tree) = (Arc::new(AttributeStore::new()), Arc::new(ContextTree::new()));
    let mut snapshots = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
    let clock = Clock::virtual_clock();
    let ctx = ProcCtx { store: &store, tree: &tree, clock: &clock, trigger: Trigger::User };
    let online_spec = AggregationSpec::from_query(&query);
    let mut service =
        AggregateService::with_capacity(online_spec.clone(), Arc::clone(&store), capacity);
    let mut capped = Aggregator::new(online_spec.clone(), Arc::clone(&store));
    capped.set_max_groups(cap);
    let (mut strings, mut block) = (StringTable::default(), Block::default());
    // The oracle's view of the store: what the rows declared so far, and
    // the results each spill declared.
    let mut schema = Schema::new();
    let fresh = || Oracle::new(&online, AggregateService::COUNT_ATTR, None);
    let (mut want, mut partial) = (Vec::new(), fresh());
    for (i, record) in all.iter().enumerate() {
        fill(&mut snapshots, files[0].v, &all[i..=i]);
        service.consume(&ctx, &snapshots.records[i]);
        assert!(block.push_snapshot(&mut strings, &snapshots.records[i]));
        for (label, _) in record {
            schema.entry(label.clone()).or_insert_with(|| label_type(label, files[0].v));
        }
        partial.fold(record);
        if partial.len() >= capacity || i + 1 == all.len() {
            let declared = schema.clone();
            want.extend(partial.finish(&|l| declared.get(l).copied(), &mut schema));
            partial = fresh();
        }
    }
    capped.fold_block(&tree, &mut strings, &block);
    let mut flushed = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
    service.flush(&ctx, &mut flushed);
    check(
        "AggregateService",
        &rows_of(&store, flushed.flat_records()),
        &want,
    )?;
    let out = AttributeStore::new();
    let want_capped = folded(&online, "count", cap, &all);
    let want_rows =
        want_capped.finish(&declarations(&online, &all, files[0].v), &mut Schema::new());
    check("Aggregator::fold_block capped", &rows_of(&out, capped.flush(&out).iter()), &want_rows)?;
    prop_assert_eq!(capped.overflow_records(), want_capped.overflow_records());
    prop_assert_eq!(capped.records_processed(), all.len() as u64);
    let requery = format!(
        "AGGREGATE count, sum(aggregate.count), max(sum#x), min(min#s) {group_by} FORMAT expand"
    );
    let result = run_query(&flushed, &requery).unwrap();
    let requeried = folded(&parse_query(&requery).unwrap(), "count", None, &want)
        .finish(&|l| schema.get(l).copied(), &mut Schema::new());
    check("AggregateService re-aggregated", &rows_of(&result.store, result.records.iter()), &requeried)?;

    // `cali-served`: a stream per file, two batches each, queried warm,
    // then reopened from the journals and queried again.
    let cfg =
        ServedConfig { data_dir: dir.join("served"), max_groups: cap, ..ServedConfig::default() };
    let spec = AggregationSpec::from_query(&query);
    let names: Vec<String> = (0..files.len()).map(|i| format!("r{i}")).collect();
    let open = || names.iter().map(|n| StreamState::open(n, &cfg, &spec).unwrap()).collect();
    let mut out = Schema::from([("stream".to_string(), ValueType::Str)]);
    let mut want = Vec::new();
    for (name, file) in names.iter().zip(&files) {
        // A stream's store declares what its batches carried.
        let declared = declarations(&online, &file.rows, file.v);
        for mut row in folded(&online, "count", cap, &file.rows).finish(&declared, &mut out) {
            row.push(("stream".to_string(), Value::str(name.as_str())));
            want.push(row);
        }
    }
    let mut streams: Vec<StreamState> = open();
    for (stream, file) in streams.iter_mut().zip(&files) {
        let (first, second) = file.rows.split_at(file.rows.len() / 2);
        for batch in [first, second].into_iter().filter(|b| !b.is_empty()) {
            stream.process_batch(&cali::to_bytes(&dataset(file.v, batch))).unwrap();
        }
    }
    // A pass-through query over the streams' warm answers keeps what
    // the oracle keeps of their rows, in stream order and key order.
    let warm_query = WARM[(key + where_) % WARM.len()];
    let warm_want = folded(&parse_query(warm_query).unwrap(), "count", None, &want)
        .finish(&|_| None, &mut Schema::new());
    let mut renders = Vec::new();
    for pass in ["warm", "replayed"] {
        let mut warm = WarmQuery::new("SELECT * FORMAT expand").unwrap();
        let mut kept = WarmQuery::new(warm_query).unwrap();
        for stream in &streams {
            let block = warm.block_of(stream);
            warm.fold(&block);
            let block = kept.block_of(stream);
            kept.fold(&block);
        }
        let result = warm.finish();
        check_in_order(&format!("cali-served {pass}"), &rows_of(&result.store, result.records.iter()), &want)?;
        let path = format!("cali-served {pass}: {warm_query}");
        let kept = kept.finish();
        check_in_order(&path, &rows_of(&kept.store, kept.records.iter()), &warm_want)?;
        renders.push(result.render());
        drop(std::mem::take(&mut streams));
        streams = open();
    }
    prop_assert_eq!(&renders[0], &renders[1]);
    drop(streams);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// The runtime's snapshot shapes, built by hand (see the module docs):
/// each through an `AggregateService` that never spills and ones that
/// spill at 1 and 2 groups, and through the fold of the snapshots' block
/// by an aggregator capped at the shape's cap — or, for a query
/// with a WHERE or LET, through a capped `Pipeline` — against the
/// oracle's fold of the unpacked records.
#[test]
fn every_snapshot_shape_folds_what_the_oracle_folds() {
    let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let declared = [
        ("n.str", ValueType::Str, Properties::NESTED),
        ("n.tag", ValueType::Str, Properties::NESTED),
        ("n.num", ValueType::Int, Properties::NESTED),
        ("v.str", ValueType::Str, Properties::AS_VALUE),
        ("v.float", ValueType::Float, Properties::AS_VALUE),
    ];
    let inputs: Schema = declared.iter().map(|&(label, t, _)| (label.to_string(), t)).collect();
    let input = |label: &str| inputs.get(label).copied();
    // A store and tree per shape, so that a shape's flushes declare their
    // results in a store of their own; the ids come out alike each time.
    let setup = || {
        let (store, tree) = (Arc::new(AttributeStore::new()), Arc::new(ContextTree::new()));
        let id = |&(label, vtype, properties)| store.create(label, vtype, properties).unwrap().id();
        let [n, tag, num, v, f] = declared.each_ref().map(id);
        let main = tree.get_child(NODE_NONE, n, &Value::str("main"));
        let foo = tree.get_child(main, n, &Value::str("foo"));
        let tagged = tree.get_child(foo, tag, &Value::str("t"));
        let three = tree.get_child(tagged, num, &Value::Int(3));
        let counted = tree.get_child(three, num, &Value::Int(4));
        (store, tree, [n, tag, num, v, f], [main, foo, tagged, three, counted])
    };
    let (_, _, [n, _, _, v, f], [main, foo, tagged, three, counted]) = setup();
    let node = Entry::Node;
    let text = |attr, s: &str| Entry::Imm(attr, Value::str(s));
    let time = || Entry::Imm(f, Value::Float(1.5));

    // (shape, query, group cap, records)
    let shapes = [
        (
            "node-less and plain",
            "AGGREGATE count, sum(v.float) GROUP BY n.str, v.str, n.tag",
            None,
            vec![vec![node(foo), text(v, "a"), time()], vec![node(tagged), time()], vec![text(v, "b")], vec![]],
        ),
        (
            "two node entries",
            "AGGREGATE count, sum(v.float) GROUP BY n.str",
            None,
            vec![vec![node(main), node(tagged), time()], vec![node(foo)]],
        ),
        (
            "a key label on the path and an immediate",
            "AGGREGATE count GROUP BY n.str",
            None,
            vec![vec![node(foo), text(n, "x")], vec![node(foo)], vec![node(main), text(n, "x")]],
        ),
        (
            "a key label twice an immediate",
            "AGGREGATE count GROUP BY v.str",
            None,
            vec![vec![text(v, "a"), text(v, "b")], vec![text(v, "a")]],
        ),
        (
            "an op target on the path",
            "AGGREGATE count, max(n.tag) GROUP BY v.str",
            None,
            vec![vec![node(tagged), text(v, "a")], vec![node(foo)]],
        ),
        (
            "a node the tree does not know",
            "AGGREGATE count GROUP BY n.str",
            None,
            vec![vec![node(99)], vec![node(NODE_NONE)], vec![node(foo)]],
        ),
        (
            "key strings turned away at the cap",
            "AGGREGATE count GROUP BY n.str, v.str",
            Some(1),
            vec![vec![text(v, "a")], vec![node(foo), text(v, "a")], vec![text(v, "b")], vec![text(v, "a")]],
        ),
        (
            "at the cap, a key of no new string",
            "AGGREGATE count GROUP BY v.str, n.tag",
            Some(1),
            vec![vec![text(v, "a")], vec![node(foo)], vec![text(v, "a"), time()]],
        ),
        (
            "a nested key label that is also a sum target",
            "AGGREGATE count, sum(n.num) GROUP BY n.num, n.str",
            None,
            vec![vec![node(counted)], vec![node(counted), time()], vec![node(three)], vec![node(tagged)]],
        ),
        (
            "a nested key label that a WHERE compares",
            "AGGREGATE count, sum(v.float) WHERE n.str = foo GROUP BY n.str",
            Some(2),
            vec![vec![node(foo), time()], vec![node(main), time()], vec![node(counted)], vec![text(v, "a")]],
        ),
        (
            "a nested key label that a LET reads",
            "LET L = first(n.str) AGGREGATE count GROUP BY n.str, L",
            None,
            vec![vec![node(foo)], vec![node(tagged), time()], vec![node(main)]],
        ),
        (
            "a nested key label that also arrives as an immediate",
            "AGGREGATE count, sum(v.float) GROUP BY n.str, v.str",
            None,
            vec![
                vec![node(foo), text(n, "x"), text(v, "a")],
                vec![node(foo), text(v, "a")],
                vec![node(counted), text(n, "y"), time()],
                vec![node(foo), text(n, "x"), text(v, "a")],
            ],
        ),
    ];
    let clock = Clock::virtual_clock();
    for (shape, text, cap, entries) in shapes {
        let query = parse_query(text).unwrap();
        let (store, tree, ..) = setup();
        let records: Vec<SnapshotRecord> =
            entries.into_iter().map(SnapshotRecord::from_entries).collect();
        let rows = rows_of(&store, records.iter().map(|record| record.unpack(&tree)));
        let want = folded(&query, "count", cap, &rows);

        if !query.filters.is_empty() || !query.lets.is_empty() {
            let mut ds = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
            records.into_iter().for_each(|record| ds.push(record));
            let mut pipeline = Pipeline::new(query.clone(), Arc::clone(&store)).with_max_groups(cap);
            pipeline.process_dataset(&ds);
            let result = pipeline.finish();
            // The LETs here are `first()`s: strings.
            let lets = |label: &str| query.lets.iter().any(|def| def.name == label);
            let declared = |label: &str| if lets(label) { Some(ValueType::Str) } else { input(label) };
            let want_rows = want.finish(&declared, &mut Schema::new());
            let got = rows_of(&result.store, result.records.iter());
            check(&format!("{shape}: Pipeline"), &got, &want_rows).unwrap();
            assert_eq!(result.overflow_records, want.overflow_records(), "{shape}");
            continue;
        }

        // The service: spilled blocks and the last one, in the store the
        // snapshots' attributes are in.
        let spec = AggregationSpec::from_query(&query);
        let ctx = ProcCtx { store: &store, tree: &tree, clock: &clock, trigger: Trigger::User };
        let mut schema = inputs.clone();
        for capacity in [0, 1, 2] {
            let mut service =
                AggregateService::with_capacity(spec.clone(), Arc::clone(&store), capacity);
            let fresh = || Oracle::new(&query, AggregateService::COUNT_ATTR, None);
            let (mut want, mut partial) = (Vec::new(), fresh());
            for (i, (record, row)) in records.iter().zip(&rows).enumerate() {
                service.consume(&ctx, record);
                partial.fold(row);
                if capacity > 0 && partial.len() >= capacity || i + 1 == rows.len() {
                    let declared = schema.clone();
                    want.extend(partial.finish(&|l| declared.get(l).copied(), &mut schema));
                    partial = fresh();
                }
            }
            let mut flushed = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
            service.flush(&ctx, &mut flushed);
            let path = format!("{shape}: AggregateService capacity {capacity}");
            check(&path, &rows_of(&store, flushed.flat_records()), &want).unwrap();
        }

        // The snapshots' block folded into a capped aggregator.
        let mut capped = Aggregator::new(spec.clone(), Arc::clone(&store));
        capped.set_max_groups(cap);
        let (mut strings, mut block) = (StringTable::default(), Block::default());
        records.iter().for_each(|record| assert!(block.push_snapshot(&mut strings, record)));
        capped.fold_block(&tree, &mut strings, &block);
        let out = AttributeStore::new();
        let want_rows = want.finish(&input, &mut Schema::new());
        let path = format!("{shape}: Aggregator::fold_block cap {cap:?}");
        check(&path, &rows_of(&out, capped.flush(&out).iter()), &want_rows).unwrap();
        assert_eq!(capped.overflow_records(), want.overflow_records(), "{shape}");
    }

    // A fold's node cache answers for one tree: another tree with the
    // same node ids — here, one after another — starts it over.
    let (store, ..) = setup();
    let query = parse_query("AGGREGATE count GROUP BY n.str").unwrap();
    let spec = AggregationSpec::from_query(&query);
    let mut agg = Aggregator::new(spec.clone(), Arc::clone(&store));
    let mut strings = StringTable::default();
    let mut rows = Vec::new();
    for name in ["main", "other"] {
        let tree = ContextTree::new();
        let record = SnapshotRecord::from_entries(vec![node(tree.get_child(NODE_NONE, n, &Value::str(name)))]);
        let mut block = Block::default();
        assert!(block.push_snapshot(&mut strings, &record));
        agg.fold_block(&tree, &mut strings, &block);
        rows.extend(rows_of(&store, [record.unpack(&tree)]));
    }
    let out = AttributeStore::new();
    let want = folded(&query, "count", None, &rows).finish(&input, &mut Schema::new());
    assert_eq!(want.len(), 2);
    check("another tree", &rows_of(&out, agg.flush(&out).iter()), &want).unwrap();
}

/// Pass-through queries over the served streams' warm answers: rows of
/// keys, results and `stream`.
const WARM: [&str; 4] = [
    "SELECT * FORMAT expand",
    "LET L = scale(count, 0.5) SELECT * WHERE count > 1 FORMAT expand",
    "LET L = first(k, i, stream) SELECT * WHERE not(sum#x) FORMAT expand",
    "SELECT * WHERE stream = r0 FORMAT expand",
];

/// One generated pass-through query through every path that keeps rows
/// (see the module docs). The files share one class of `v`, since
/// `cali-query` reads them through one dictionary.
fn every_pass_through_path(files: Vec<File>, (let_, where_): (usize, usize)) -> Result<(), TestCaseError> {
    let text = format!("{} SELECT * {} FORMAT expand", LETS[let_], WHERES[where_]);
    let query = parse_query(&text).unwrap();
    let all: Vec<Row> = files.iter().flat_map(|f| f.rows.clone()).collect();
    let want = folded(&query, "count", None, &all).finish(&|_| None, &mut Schema::new());

    let dir = std::env::temp_dir().join(format!(
        "caliper-every-pass-through-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths: [Vec<_>; 3] = Default::default();
    for (i, file) in files.iter().enumerate() {
        let ds = dataset(file.v, &file.rows);
        let bytes = [cali::to_bytes(&ds), binary::to_binary(&ds), to_binary_v2_with(&ds, 16)];
        for ((encoded, paths), ext) in bytes.into_iter().zip(&mut paths).zip(["cali", "calb", "calb2"]) {
            paths.push(dir.join(format!("f{i}.{ext}")));
            std::fs::write(paths.last().unwrap(), encoded).unwrap();
        }
    }
    let [text_paths, v1_paths, v2_paths] = &paths;
    let (none, pushdown) = (Pushdown::default(), build_pushdown(&query, None));
    for (encoding, paths, pushdown) in [
        ("text", text_paths, &none),
        ("v1", v1_paths, &none),
        ("v2", v2_paths, &none),
        ("v2+pushdown", v2_paths, &pushdown),
    ] {
        let opts = ParallelOptions::with_threads(2).with_pushdown(Some(Arc::new(pushdown.clone())));
        let (result, _) = parallel_query_files(&text, paths, &opts).unwrap();
        let path = format!("parallel_query_files {encoding}: {text}");
        check_in_order(&path, &rows_of(&result.store, result.records.iter()), &want)?;
    }

    let rows_ds = dataset(files[0].v, &all);
    let result = run_query(&rows_ds, &text).unwrap();
    check_in_order(&format!("run_query: {text}"), &rows_of(&result.store, result.records.iter()), &want)?;
    let mut pipeline = Pipeline::new(query, Arc::clone(&rows_ds.store));
    rows_ds.flat_records().for_each(|record| pipeline.process(record));
    let result = pipeline.finish();
    check_in_order(&format!("process: {text}"), &rows_of(&result.store, result.records.iter()), &want)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Generated files (see [`Generated`]).
fn generated_files() -> impl Strategy<Value = Generated> {
    prop::collection::vec(
        (
            0u8..3,
            0usize..CYCLES.len(),
            prop::collection::vec(
                (
                    0usize..PATHS.len(),
                    0u8..10,
                    prop::collection::vec((0usize..LABELS.len(), any::<u8>()), 0..4),
                    0usize..REPEATS.len(),
                ),
                0..10,
            ),
        ),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_path_folds_what_the_oracle_folds(
        generated in generated_files(),
        choices in (0usize..KEYS.len(), 0usize..LETS.len(), 0usize..WHERES.len(), 0usize..4),
    ) {
        let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
        every_path(files_of(generated), choices)?;
    }

    #[test]
    fn every_pass_through_path_keeps_what_the_oracle_keeps(
        generated in generated_files(),
        choices in (0usize..LETS.len(), 0usize..WHERES.len()),
    ) {
        let _turn = METRICS.lock().unwrap_or_else(|e| e.into_inner());
        let v = generated[0].0;
        let one_class = generated.into_iter().map(|(_, cycles, rows)| (v, cycles, rows));
        every_pass_through_path(files_of(one_class.collect()), choices)?;
    }
}
