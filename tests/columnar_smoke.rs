//! Tier-1 smoke of the row/column equality: a CALB v2 file and a text
//! `.cali` file scanned as columns (`Pipeline::scan_file`) answer exactly
//! what the same records answer read as rows (`read_path`, then
//! `Pipeline::process_dataset`) — and a flat ParaDiS profile takes the
//! column-at-a-time fold all the way, gathering no row. The fold's own
//! suite, held to the reference evaluator, is `tests/columnar/`.

use std::path::Path;
use std::sync::Arc;

use caliper_format::{read_path, scan_path, Dataset, ReadPolicy, V2WriteOptions};
use caliper_query::{parse_query, Pipeline};
use caliper_runtime::Config;
use miniapps::paradis::{generate_rank, ParaDisParams};
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
        by_rows.process_dataset(&rows);

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

#[test]
fn paradis_v2_folds_as_columns_and_gathers_no_row() {
    paradis_folds_as_columns_and_gathers_no_row(false);
}

#[test]
fn paradis_text_folds_as_columns_and_gathers_no_row() {
    paradis_folds_as_columns_and_gathers_no_row(true);
}

/// The benchmark's `scan` and `wide` queries over two ParaDiS ranks:
/// the fold's answer is the rows' answer, and every run of every block
/// is folded a column at a time.
fn paradis_folds_as_columns_and_gathers_no_row(text: bool) {
    let dir = std::env::temp_dir().join(format!(
        "caliper-columnar-paradis-{}-{text}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let params = ParaDisParams {
        iterations: 12,
        ..Default::default()
    };
    let paths: Vec<_> = (0..2)
        .map(|rank| {
            let ds = generate_rank(&params, rank);
            let bytes = if text {
                caliper_format::cali::to_bytes(&ds)
            } else {
                caliper_format::to_binary_v2(&ds)
            };
            let path = dir.join(format!("paradis-{rank}.data"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();

    for query in [
        "LET region = first(kernel, mpi.function) \
         AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
         GROUP BY region ORDER BY region FORMAT csv",
        "AGGREGATE count, sum(sum#time.duration), \
         min(sum#time.duration), max(sum#time.duration) \
         GROUP BY kernel, mpi.function, iteration \
         ORDER BY kernel, mpi.function, iteration FORMAT csv",
    ] {
        let spec = parse_query(query).unwrap();
        let mut expected = Vec::new();
        let mut answers = Vec::new();
        for path in &paths {
            let rows = read_path(path).unwrap();
            let mut by_rows = Pipeline::new(spec.clone(), Arc::clone(&rows.store));
            by_rows.process_dataset(&rows);
            expected.push(by_rows.finish().render());
            answers.push(fold_by_columns(&spec, path));
        }
        assert!(expected[0].lines().count() > 80, "{}", expected[0]);
        assert_eq!(answers, expected, "{query}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `path` folded block by block through one pipeline, whose fold must
/// have gathered no row.
fn fold_by_columns(spec: &caliper_query::QuerySpec, path: &Path) -> String {
    let dict = Dataset::new();
    let mut pipeline = Pipeline::new(spec.clone(), Arc::clone(&dict.store));
    let (mut blocks, mut rows) = (0, 0);
    scan_path(
        path,
        dict,
        ReadPolicy::Strict,
        None,
        &mut |ds, strings, block| {
            pipeline.fold_block(ds, strings, block);
            (blocks, rows) = (blocks + 1, rows + block.rows());
        },
    )
    .unwrap();
    assert!(blocks >= 1 && rows > 1000, "{blocks} blocks, {rows} rows");
    assert_eq!(pipeline.gathered_rows(), 0, "{}", path.display());
    pipeline.finish().render()
}
