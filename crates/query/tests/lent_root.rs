//! A file that fails while it is folded into a part of the lent root
//! (`parallel_query_files` with one worker folds every file after the
//! first into the root itself): its part is dropped, and the answer is
//! the answer over the other files, byte for byte, at every worker
//! count. So is the answer when the first file fails, whose own
//! pipeline would have become the root, and when the last one does.
//!
//! Two ways to fail, both for files 0, 3 and 5 of 6 CALB v2 files,
//! under `degrade`: a corrupt middle block (the strict read fails after
//! the part folded the blocks before it, new keys included), and the
//! `shard.merge` failpoint (after a whole successful read). This binary
//! holds the one test that arms the process-wide fault set.

use std::path::{Path, PathBuf};

use caliper_data::{Properties, SnapshotRecord, Value, ValueType};
use caliper_format::binary_v2::{read_footer, to_binary_v2_with};
use caliper_format::Dataset;
use caliper_query::{parallel_query_files, ParallelOptions};

const QUERY: &str = "AGGREGATE count, sum(t), min(t), max(t), avg(t), variance(t), \
     percentile(t, 50) GROUP BY kernel, it ORDER BY kernel, it FORMAT csv";

/// File `f`: 96 records over keys the files share, non-integer times;
/// file 3 starts with 20 records of keys no other file has.
fn dataset(f: usize) -> Dataset {
    let mut ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let it = ds.attribute("it", ValueType::Int, Properties::AS_VALUE);
    let t = ds.attribute("t", ValueType::Float, Properties::AS_VALUE);
    for i in 0..96usize {
        let name = match i {
            0..20 if f == 3 => format!("only3-{}", i % 5),
            _ => ["alpha", "beta", "gamma", "delta"][(i + f) % 4].to_string(),
        };
        let node = ds.tree.get_child(
            caliper_data::NODE_NONE,
            kernel.id(),
            &Value::str(name.as_str()),
        );
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        rec.push_imm(it.id(), Value::Int((i % 3) as i64));
        rec.push_imm(
            t.id(),
            Value::Float(0.1 * (i * (f + 3)) as f64 + 1.0 / (i + 7) as f64),
        );
        ds.push(rec);
    }
    ds
}

/// The six files under `dir`, blocks of 16 records, each with a footer.
fn write_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).unwrap();
    (0..6)
        .map(|f| {
            let path = dir.join(format!("f{f}.calb2"));
            std::fs::write(&path, to_binary_v2_with(&dataset(f), 16)).unwrap();
            path
        })
        .collect()
}

/// Overwrite the middle block of `path` past its tag and length frame.
fn corrupt_middle_block(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let blocks = read_footer(&bytes).expect("a footer");
    assert_eq!(blocks.len(), 6);
    let start = blocks[3].offset as usize + 8;
    let end = blocks[4].offset as usize;
    bytes[start..end].fill(0xff);
    std::fs::write(path, bytes).unwrap();
}

/// The answer over `paths` at `threads` workers under `degrade`, and
/// the files it dropped.
fn run(paths: &[PathBuf], threads: usize) -> (String, Vec<usize>) {
    let opts = ParallelOptions::with_threads(threads).with_degrade(true);
    let (result, timings) = parallel_query_files(QUERY, paths, &opts).unwrap();
    let dropped = timings
        .failures
        .iter()
        .map(|failure| failure.file)
        .collect();
    (result.render(), dropped)
}

#[test]
fn a_file_that_fails_inside_the_lent_root_leaves_no_trace() {
    let root = std::env::temp_dir().join(format!("caliper-lent-root-{}", std::process::id()));
    const FAILING: [usize; 3] = [0, 3, 5];
    let spec: Vec<String> = FAILING
        .iter()
        .map(|f| format!("shard.merge~merge-case/f{f}.=fail(1000)"))
        .collect();
    caliper_faults::install_spec(&spec.join(";")).unwrap();
    let block_case = write_files(&root.join("block-case"));
    for f in FAILING {
        corrupt_middle_block(&block_case[f]);
    }
    let merge_case = write_files(&root.join("merge-case"));
    for paths in [block_case, merge_case] {
        let others: Vec<PathBuf> = [1, 2, 4].iter().map(|&f| paths[f].clone()).collect();
        let (want, dropped) = run(&others, 1);
        assert!(dropped.is_empty());
        let case = paths[0].parent().expect("a case directory").display();
        for threads in [1, 2, 3, 4] {
            let (got, dropped) = run(&paths, threads);
            assert_eq!(dropped, FAILING, "{case}, {threads} workers");
            assert_eq!(got, want, "{case}, {threads} workers");
        }
        // No group the dropped file brought is left behind, empty.
        assert!(!want.contains("only3"));
        let rows: Vec<&str> = want.lines().skip(1).collect();
        assert_eq!(rows.len(), 12);
        assert!(rows
            .iter()
            .all(|row| row.split(',').nth(2).is_some_and(|count| count != "0")));
    }
    std::fs::remove_dir_all(&root).ok();
}
