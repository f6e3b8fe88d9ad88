//! Property-based tests for the thread-parallel query engine: for any
//! workload, worker count and encoding, what the engine renders equals
//! an aggregation computed here with none of its code — to the last bit
//! of every float, because both fold a file's records in stream order
//! and merge files in input order.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_format::{cali, to_binary_v2_with, Dataset, V2WriteOptions};
use caliper_query::{parallel_query_files, ParallelOptions};
use proptest::prelude::*;

/// A synthetic record: (kernel index, value in tenths — written as a
/// non-integer `double`, so the order of additions shows in the sums).
type Row = (u8, i32);

static CASE: AtomicUsize = AtomicUsize::new(0);

const KERNELS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// A row's kernel; none for index 0, to exercise partial keys.
fn kernel_of(k: u8) -> Option<&'static str> {
    (k > 0).then(|| KERNELS[k as usize % KERNELS.len()])
}

fn dataset_of(rows: &[Row]) -> Dataset {
    let mut ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let time = ds.attribute(
        "time",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    for (k, v) in rows {
        let mut rec = SnapshotRecord::new();
        if let Some(name) = kernel_of(*k) {
            rec.push_node(ds.tree.get_child(NODE_NONE, kernel.id(), &Value::str(name)));
        }
        rec.push_imm(time.id(), Value::Float(*v as f64 / 10.0));
        ds.push(rec);
    }
    ds
}

/// Writes each file's rows to a fresh temp directory, as text and as
/// CALB v2 (blocks of 16 rows, so a file spans several), returning it
/// and the two encodings' file paths in order.
fn write_workload(files: &[Vec<Row>]) -> (PathBuf, [Vec<PathBuf>; 2]) {
    let dir = std::env::temp_dir().join(format!(
        "caliper-parallel-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let v2_options = V2WriteOptions {
        block_records: 16,
        footer: true,
    };
    let (text, v2) = files
        .iter()
        .enumerate()
        .map(|(i, rows)| {
            let ds = dataset_of(rows);
            let text = dir.join(format!("rank{i}.cali"));
            cali::write_file(&ds, &text).unwrap();
            let v2 = dir.join(format!("rank{i}.calb2"));
            std::fs::write(&v2, to_binary_v2_with(&ds, &v2_options)).unwrap();
            (text, v2)
        })
        .unzip();
    (dir, [text, v2])
}

/// A group's count, sum, min and max.
type Partial = (u64, f64, f64, f64);

/// One result row with its floats as bits: the kernel, the count, then
/// sum, min, max and avg.
type RowBits = (Option<String>, u64, [u64; 4]);

/// The oracle: an ordered map folded by hand — each file's rows in
/// stream order into the file's partials, the files' partials in file
/// order into the result — sharing no code with the engine.
fn oracle(files: &[Vec<Row>]) -> Vec<RowBits> {
    fn fold(
        groups: &mut BTreeMap<Option<&'static str>, Partial>,
        key: Option<&'static str>,
        p: Partial,
    ) {
        groups
            .entry(key)
            .and_modify(|g| *g = (g.0 + p.0, g.1 + p.1, g.2.min(p.2), g.3.max(p.3)))
            .or_insert(p);
    }
    let mut result = BTreeMap::new();
    for rows in files {
        let mut file = BTreeMap::new();
        for &(k, v) in rows {
            let time = v as f64 / 10.0;
            fold(&mut file, kernel_of(k), (1, time, time, time));
        }
        for (key, partial) in file {
            fold(&mut result, key, partial);
        }
    }
    let row = |(key, (n, sum, min, max)): (Option<&str>, Partial)| {
        let floats = [sum, min, max, sum / n as f64].map(f64::to_bits);
        (key.map(str::to_string), n, floats)
    };
    result.into_iter().map(row).collect()
}

/// The rows of a rendered `FORMAT expand` result (`label=value,...`, one
/// line per row, floats in their shortest round-trip form — the table
/// and CSV renderers print six decimals, which hide the low bits).
fn rendered_rows(text: &str) -> Vec<RowBits> {
    let row = |line: &str| {
        let fields: BTreeMap<&str, &str> = line
            .split(',')
            .map(|field| field.split_once('=').unwrap())
            .collect();
        let float = |label| fields[label].parse::<f64>().unwrap().to_bits();
        (
            fields.get("kernel").map(|name| name.to_string()),
            fields["count"].parse().unwrap(),
            ["sum#time", "min#time", "max#time", "avg#time"].map(float),
        )
    };
    text.lines().map(row).collect()
}

/// `ORDER BY kernel` puts the group without one first, as the oracle's
/// ordered map does.
const QUERY: &str = "AGGREGATE count, sum(time), min(time), max(time), avg(time) \
                     GROUP BY kernel ORDER BY kernel FORMAT expand";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine matches the oracle field by field, for every worker
    /// count, one included, and for both encodings — float aggregates
    /// too, which only stay bit-identical because the engine merges
    /// files in input order.
    #[test]
    fn parallel_matches_the_oracle_for_any_thread_count(
        files in prop::collection::vec(
            prop::collection::vec((0u8..5, -1000i32..1000), 0..40),
            1..6,
        ),
    ) {
        let (dir, encodings) = write_workload(&files);
        let expected = oracle(&files);
        for paths in &encodings {
            for threads in [1usize, 2, 3, 8] {
                let (result, timings) = parallel_query_files(
                    QUERY,
                    paths,
                    &ParallelOptions::with_threads(threads),
                )
                .unwrap();
                prop_assert_eq!(
                    &rendered_rows(&result.render()),
                    &expected,
                    "{} at threads = {}",
                    paths[0].display(),
                    threads
                );
                prop_assert_eq!(timings.workers.len(), threads.min(paths.len()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Worker record counts partition the input: however scheduling
    /// distributes files, every record is aggregated exactly once.
    #[test]
    fn workers_process_every_record_exactly_once(
        files in prop::collection::vec(
            prop::collection::vec((0u8..5, -1000i32..1000), 0..30),
            1..5,
        ),
    ) {
        let (dir, [paths, _]) = write_workload(&files);
        let total: usize = files.iter().map(Vec::len).sum();
        let (_, timings) =
            parallel_query_files(QUERY, &paths, &ParallelOptions::with_threads(4)).unwrap();
        let processed: u64 = timings.workers.iter().map(|w| w.records).sum();
        prop_assert_eq!(processed, total as u64);
        let read: usize = timings.workers.iter().map(|w| w.files).sum();
        prop_assert_eq!(read, paths.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
