//! Criterion benchmarks: the thread-parallel sharded query engine.
//!
//! Groups:
//! * `parallel_query` — end-to-end `AGGREGATE ... GROUP BY` over a
//!   multi-file ParaDiS workload at 1/2/4/8 worker shards, against the
//!   serial streaming fold as the baseline. The acceptance bar is a
//!   ≥1.5× speedup at 4 shards over 1 shard.
//! * `shard_merge` — the root's ordered merge of per-unit partials, the
//!   only serial section of the parallel phase.

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use caliper_query::{parallel_query_files, ParallelOptions};
use miniapps::paradis::{self, ParaDisParams};

const QUERY: &str = "AGGREGATE count, sum(sum#time.duration), min(sum#time.duration), \
                     max(sum#time.duration) GROUP BY kernel ORDER BY kernel";

/// Writes a `ranks`-file ParaDiS workload (each file several thousand
/// snapshot records) and returns the paths plus total record count.
fn workload(ranks: usize) -> (PathBuf, Vec<PathBuf>, u64) {
    let dir = std::env::temp_dir().join(format!("caliper-bench-parallel-{}", std::process::id()));
    let params = ParaDisParams {
        iterations: 40,
        ..Default::default()
    };
    let paths = paradis::write_files(&params, ranks, &dir).unwrap();
    let records = paths
        .iter()
        .map(|p| caliper_format::read_path(p).unwrap().len() as u64)
        .sum();
    (dir, paths, records)
}

fn bench_parallel_query(c: &mut Criterion) {
    let (dir, paths, records) = workload(16);
    let mut group = c.benchmark_group("parallel_query");
    group.throughput(Throughput::Elements(records));
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("serial_stream", "baseline"), |b| {
        b.iter(|| {
            let strict = caliper_format::ReadPolicy::Strict;
            cali_cli::query_files_streaming(black_box(QUERY), &paths, strict, None, None, false)
                .unwrap()
        })
    });
    for threads in [1usize, 2, 4, 8] {
        let options = ParallelOptions::with_threads(threads);
        group.bench_function(BenchmarkId::new("shards", threads), |b| {
            b.iter(|| parallel_query_files(black_box(QUERY), &paths, &options).unwrap())
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_shard_merge(c: &mut Criterion) {
    let (dir, paths, _) = workload(8);
    let mut group = c.benchmark_group("shard_merge");
    // Tiny batches force many partials, isolating root-merge overhead.
    let options = ParallelOptions {
        threads: 4,
        batch_records: 64,
        ..Default::default()
    };
    group.bench_function(BenchmarkId::new("many_partials", "batch64"), |b| {
        b.iter(|| parallel_query_files(black_box(QUERY), &paths, &options).unwrap())
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_parallel_query, bench_shard_merge);
criterion_main!(benches);
