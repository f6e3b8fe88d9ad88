//! Property-based tests for the thread-parallel query engine: for any
//! workload and worker count, the result renders byte-identically to an
//! independently computed serial aggregation — float sums included,
//! because both fold a file's records in stream order and merge files in
//! input order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_format::{cali, Dataset};
use caliper_query::{
    parallel_query_files, parse_query, ParallelOptions, Pipeline,
};
use proptest::prelude::*;

/// A synthetic record: (kernel index, value in tenths — written as a
/// non-integer `double`, so the order of additions shows in the sums).
type Row = (u8, i32);

static CASE: AtomicUsize = AtomicUsize::new(0);

fn dataset_of(rows: &[Row]) -> Dataset {
    let mut ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let time = ds.attribute(
        "time",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let names = ["alpha", "beta", "gamma", "delta"];
    for (k, v) in rows {
        let mut rec = SnapshotRecord::new();
        // Leave the kernel out for k == 0 to exercise partial keys.
        if *k > 0 {
            let node = ds.tree.get_child(
                NODE_NONE,
                kernel.id(),
                &Value::str(names[*k as usize % names.len()]),
            );
            rec.push_node(node);
        }
        rec.push_imm(time.id(), Value::Float(*v as f64 / 10.0));
        ds.push(rec);
    }
    ds
}

/// Writes each file's rows to a fresh temp directory, returning it and
/// the file paths in order.
fn write_workload(files: &[Vec<Row>]) -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!(
        "caliper-parallel-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = files
        .iter()
        .enumerate()
        .map(|(i, rows)| {
            let path = dir.join(format!("rank{i}.cali"));
            cali::write_file(&dataset_of(rows), &path).unwrap();
            path
        })
        .collect();
    (dir, paths)
}

/// The serial reference: per-file pipelines merged in path order,
/// written out by hand over the row API — no worker pool, no blocks.
fn serial_reference(query: &str, paths: &[PathBuf]) -> String {
    let spec = parse_query(query).unwrap();
    let mut acc: Option<Pipeline> = None;
    for path in paths {
        let ds = caliper_format::read_path(path).unwrap();
        let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
        pipeline.process_dataset(&ds);
        match &mut acc {
            Some(root) => root.merge(pipeline),
            None => acc = Some(pipeline),
        }
    }
    acc.expect("non-empty workload").finish().render()
}

const QUERY: &str = "AGGREGATE count, sum(time), min(time), max(time), avg(time) \
                     GROUP BY kernel ORDER BY kernel";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine matches the serial per-file fold byte for byte, for
    /// every worker count, one included — float aggregates too, which
    /// only stay bit-identical because the engine merges files in input
    /// order.
    #[test]
    fn parallel_matches_serial_for_any_thread_count(
        files in prop::collection::vec(
            prop::collection::vec((0u8..5, -1000i32..1000), 0..40),
            1..6,
        ),
    ) {
        let (dir, paths) = write_workload(&files);
        let expected = serial_reference(QUERY, &paths);
        for threads in [1usize, 2, 3, 8] {
            let (result, timings) = parallel_query_files(
                QUERY,
                &paths,
                &ParallelOptions::with_threads(threads),
            )
            .unwrap();
            prop_assert_eq!(&result.render(), &expected, "threads = {}", threads);
            prop_assert_eq!(timings.workers.len(), threads.min(paths.len()));
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
        let (dir, paths) = write_workload(&files);
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
