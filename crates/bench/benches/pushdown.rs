//! Criterion micro-benchmarks: CALB v2 zone-map predicate pushdown.
//!
//! One group, `selective_where`, runs the same high-selectivity query
//! (`WHERE rank = <last>` matches 1 of 64 block-aligned rank clusters)
//! over the same dataset in three configurations:
//!
//! * `v1_scan`      — record-oriented CALB v1: decode everything.
//! * `v2_scan`      — block-columnar v2 without a pushdown: decode
//!   every block (measures pure format overhead).
//! * `v2_pushdown`  — v2 with the WHERE clause pushed down to the
//!   per-block zone maps: 63 of 64 blocks are skipped undecoded.
//!
//! The v2_pushdown/v1_scan ratio is the headline number quoted in
//! `docs/CALB.md` (§ motivation) — expect roughly an order of magnitude
//! on this shape.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use std::sync::Arc;

use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_format::{Dataset, Pushdown, V2WriteOptions};
use caliper_query::{build_pushdown, parallel_query_files, parse_query, ParallelOptions};

/// Records per block — kept equal to the v2 writer's block size so
/// every block holds exactly one rank cluster.
const PER_BLOCK: usize = 1024;
/// Rank clusters (= v2 blocks).
const BLOCKS: i64 = 64;

/// A block-clustered dataset: `BLOCKS` runs of `PER_BLOCK` records,
/// each run carrying a single `rank` value — the layout a per-rank
/// merge of process streams naturally produces.
fn clustered_dataset() -> Dataset {
    let mut ds = Dataset::new();
    let rank = ds.attribute("rank", ValueType::Int, Properties::AS_VALUE);
    let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
    let dur = ds.attribute(
        "time.duration",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let regions = ["main", "solve", "exchange", "io"];
    for b in 0..BLOCKS {
        for i in 0..PER_BLOCK {
            let node = ds
                .tree
                .get_child(NODE_NONE, func.id(), &Value::str(regions[i % regions.len()]));
            let mut rec = SnapshotRecord::new();
            rec.push_node(node);
            rec.push_imm(rank.id(), Value::Int(b));
            rec.push_imm(dur.id(), Value::Float(0.5 * i as f64 + b as f64));
            ds.push(rec);
        }
    }
    ds
}

fn bench_selective_where(c: &mut Criterion) {
    let ds = clustered_dataset();
    let dir = std::env::temp_dir().join(format!("cali-bench-pushdown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1_path = dir.join("clustered.calb");
    let v2_path = dir.join("clustered.calb2");
    caliper_format::binary::write_file(&ds, &v1_path).unwrap();
    std::fs::write(
        &v2_path,
        caliper_format::to_binary_v2_with(
            &ds,
            &V2WriteOptions { block_records: PER_BLOCK, footer: true },
        ),
    )
    .unwrap();

    let query = format!(
        "AGGREGATE count, sum(time.duration) WHERE rank = {} \
         GROUP BY function ORDER BY function",
        BLOCKS - 1
    );
    // The engine builds a pushdown from the query unless handed one; an
    // empty one is how a full scan is asked for.
    let full_scan = Arc::new(Pushdown::new());
    let pushdown = Arc::new(build_pushdown(&parse_query(&query).unwrap(), None));
    let run = |path: &std::path::Path, pd: &Arc<Pushdown>| {
        let options = ParallelOptions::with_threads(1).with_pushdown(Some(Arc::clone(pd)));
        parallel_query_files(&query, &[path], &options).unwrap().0
    };
    // All three configurations must agree before we time them.
    let baseline = run(&v1_path, &full_scan).render();
    assert_eq!(baseline, run(&v2_path, &full_scan).render());
    assert_eq!(baseline, run(&v2_path, &pushdown).render());

    let mut group = c.benchmark_group("selective_where");
    group.throughput(Throughput::Elements(ds.len() as u64));
    group.sample_size(10);
    group.bench_function("v1_scan", |b| {
        b.iter(|| black_box(run(&v1_path, &full_scan)))
    });
    group.bench_function("v2_scan", |b| {
        b.iter(|| black_box(run(&v2_path, &full_scan)))
    });
    group.bench_function("v2_pushdown", |b| {
        b.iter(|| black_box(run(&v2_path, &pushdown)))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_selective_where);
criterion_main!(benches);
