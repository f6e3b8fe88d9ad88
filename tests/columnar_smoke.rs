//! Tier-1 smoke of the row/column equality: a CALB v2 file and a text
//! `.cali` file scanned as columns (`Pipeline::scan_file`) answer exactly
//! what the same records answer as rows. The full differential suite
//! lives in `crates/query/tests/columnar_differential.rs`.

use std::sync::Arc;

use caliper_format::{for_each_flat, read_path, Dataset, ReadPolicy, V2WriteOptions};
use caliper_query::{parse_query, Pipeline};
use caliper_runtime::Config;
use miniapps::{CleverLeaf, CleverLeafParams};

#[test]
fn v2_columns_answer_what_rows_answer() {
    columns_answer_what_rows_answer(false);
}

#[test]
fn text_columns_answer_what_rows_answer() {
    columns_answer_what_rows_answer(true);
}

fn columns_answer_what_rows_answer(text: bool) {
    // CleverLeaf: node references with nested `function` paths.
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 2,
        ranks: 1,
        ..Default::default()
    });
    let ds = app.run_all(&Config::event_trace()).remove(0);
    let dir = std::env::temp_dir().join(format!(
        "caliper-columnar-smoke-{}-{text}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = V2WriteOptions {
        block_records: 32,
        footer: true,
    };
    let bytes = if text {
        caliper_format::cali::to_bytes(&ds)
    } else {
        caliper_format::to_binary_v2_with(&ds, &opts)
    };
    let path = dir.join("rank0.data");
    std::fs::write(&path, bytes).unwrap();

    for query in [
        "AGGREGATE count, sum(time.duration) GROUP BY function, kernel ORDER BY function, kernel",
        "LET region = first(kernel, mpi.function) AGGREGATE count, max(time.duration) \
         WHERE not(mpi.function) GROUP BY region, amr.level ORDER BY region, amr.level FORMAT csv",
    ] {
        let spec = parse_query(query).unwrap();

        let rows = read_path(&path).unwrap();
        assert_eq!(rows.len(), ds.len());
        let mut by_rows = Pipeline::new(spec.clone(), Arc::clone(&rows.store));
        for_each_flat(&rows.tree, &rows.records, |record| by_rows.process(record));

        let dict = Dataset::new();
        let mut by_columns = Pipeline::new(spec, Arc::clone(&dict.store));
        let scanned = by_columns
            .scan_file(&path, dict, ReadPolicy::Strict, None)
            .unwrap();
        assert_eq!(scanned.records, ds.len() as u64);
        assert!(
            scanned.dict.records.is_empty(),
            "columns materialise no rows"
        );

        let expected = by_rows.finish().render();
        assert!(expected.lines().count() > 3, "{expected}");
        assert_eq!(by_columns.finish().render(), expected, "{query}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
