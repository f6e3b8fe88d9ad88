//! The five design ablations of DESIGN.md §4: each times the design
//! the repo uses against the alternative it decided against, on the
//! same input. (Everything else that is measured is a `cali-bench`
//! row; see the coverage table in DESIGN.md §4.)
//!
//! * `context_tree`    — a snapshot holds one context-tree node
//!   reference (§III-A) vs. a flat copy of the eight-deep blackboard.
//! * `key_hash`        — FxHash vs. SipHash (std's default) over one
//!   aggregation key.
//! * `agg_concurrency` — four threads feeding per-thread aggregation
//!   databases (§IV-B) vs. one database behind a mutex. Needs ≥ 2
//!   cores to mean anything; the core count is printed with it.
//! * `stream_vs_trace` — streaming aggregation vs. buffering the trace
//!   first and aggregating the buffer (Fig. 3's two ends).
//! * `selective_where` — `WHERE rank = <last>` over 64 block-aligned
//!   rank clusters: CALB v1 scan, v2 scan, v2 with the predicate pushed
//!   down to the zone maps (63 of 64 blocks skipped undecoded).
//!
//! `ns_per_op` is the median over fixed batches of one call of the
//! variant: one snapshot, one hash, one pass over the input, one query.
//!
//! Usage: `ablations [--quick]`

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use caliper_bench::median;
use caliper_data::{
    fxhash, AttributeStore, ContextTree, FlatRecord, Properties, SnapshotRecord, Value, ValueType,
    NODE_NONE,
};
use caliper_format::{Dataset, Pushdown};
use caliper_query::{
    build_pushdown, parallel_query_files, parse_query, AggregationSpec, Aggregator, ParallelOptions,
};
use miniapps::paradis::{self, ParaDisParams};

/// Batches per variant, and the divisor `--quick` applies to every
/// batch size.
struct Scale {
    batches: usize,
    shrink: usize,
}

impl Scale {
    /// Times `op` (after one warm-up call) in batches of `per_batch`
    /// calls and prints the variant's row.
    fn row(&self, ablation: &str, variant: &str, per_batch: usize, mut op: impl FnMut()) {
        let per_batch = (per_batch / self.shrink).max(1);
        op();
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..per_batch {
                    op();
                }
                start.elapsed().as_nanos() as f64 / per_batch as f64
            })
            .collect();
        println!("{ablation},{variant},{:.1}", median(&samples));
    }
}

fn context_tree(scale: &Scale) {
    const DEPTH: usize = 8;
    let tree = ContextTree::new();
    let mut node = NODE_NONE;
    for i in 0..DEPTH {
        node = tree.get_child(node, 0, &Value::str(format!("f{i}")));
    }
    scale.row("context_tree", "node_ref", 100_000, || {
        let mut rec = SnapshotRecord::new();
        rec.push_node(black_box(node));
        black_box(rec);
    });
    let values: Vec<Value> = (0..DEPTH).map(|i| Value::str(format!("f{i}"))).collect();
    scale.row("context_tree", "flat_copy", 100_000, || {
        let mut rec = FlatRecord::new();
        for v in &values {
            rec.push(0, v.clone());
        }
        black_box(rec);
    });
}

fn key_hash(scale: &Scale) {
    use std::hash::{BuildHasher, RandomState};
    let key: Vec<Option<Value>> = vec![
        Some(Value::str("main/hydro_cycle")),
        Some(Value::str("calc-dt")),
        Some(Value::Int(2)),
        Some(Value::Int(57)),
        None,
        Some(Value::Int(11)),
    ];
    scale.row("key_hash", "fxhash", 100_000, || {
        black_box(fxhash(black_box(&key)));
    });
    let sip = RandomState::new();
    scale.row("key_hash", "siphash", 100_000, || {
        black_box(sip.hash_one(black_box(&key)));
    });
}

fn agg_concurrency(scale: &Scale) {
    const THREADS: usize = 4;
    let store = Arc::new(AttributeStore::new());
    let kernel = store.create_simple("kernel", ValueType::Str);
    let rank = store.create_simple("mpi.rank", ValueType::Int);
    let dur = store.create_simple("time.duration", ValueType::Float);
    let kernels = ["calc-dt", "pdv", "advec-cell", "advec-mom"];
    let records: Vec<FlatRecord> = (0..4096)
        .map(|i| {
            let mut rec = FlatRecord::new();
            rec.push(kernel.id(), Value::str(kernels[i % kernels.len()]));
            rec.push(rank.id(), Value::Int((i % 8) as i64));
            rec.push(dur.id(), Value::Float(i as f64));
            rec
        })
        .collect();
    let spec = AggregationSpec::from_query(
        &parse_query("AGGREGATE count, sum(time.duration) GROUP BY kernel, mpi.rank").unwrap(),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("# agg_concurrency: {THREADS} threads on {cores} core(s)");

    scale.row("agg_concurrency", "per_thread_dbs", 10, || {
        let groups: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut agg = Aggregator::new(spec.clone(), Arc::clone(&store));
                        records.iter().for_each(|rec| agg.add(rec));
                        agg.len()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        black_box(groups);
    });
    scale.row("agg_concurrency", "shared_locked_db", 10, || {
        let shared = Mutex::new(Aggregator::new(spec.clone(), Arc::clone(&store)));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    records
                        .iter()
                        .for_each(|rec| shared.lock().unwrap().add(rec))
                });
            }
        });
        black_box(shared.into_inner().unwrap().len());
    });
}

fn stream_vs_trace(scale: &Scale) {
    let ds = paradis::generate_rank(&ParaDisParams::default(), 0);
    let records: Vec<FlatRecord> = ds.flat_records().collect();
    let spec = AggregationSpec::from_query(
        &parse_query("AGGREGATE sum(sum#time.duration) GROUP BY kernel, iteration").unwrap(),
    );
    let aggregate = |records: &[FlatRecord]| {
        let mut agg = Aggregator::new(spec.clone(), Arc::clone(&ds.store));
        records.iter().for_each(|rec| agg.add(rec));
        black_box(agg.len());
    };
    scale.row("stream_vs_trace", "stream", 20, || aggregate(&records));
    // The clone is what a trace service stores before anything is
    // aggregated.
    scale.row("stream_vs_trace", "trace_then_aggregate", 20, || {
        aggregate(&records.to_vec())
    });
}

fn selective_where(scale: &Scale) {
    // One rank cluster per v2 block, the layout a per-rank merge of
    // process streams produces.
    const PER_BLOCK: usize = 1024;
    const BLOCKS: i64 = 64;
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
            let region = Value::str(regions[i % regions.len()]);
            let mut rec = SnapshotRecord::new();
            rec.push_node(ds.tree.get_child(NODE_NONE, func.id(), &region));
            rec.push_imm(rank.id(), Value::Int(b));
            rec.push_imm(dur.id(), Value::Float(0.5 * i as f64 + b as f64));
            ds.push(rec);
        }
    }
    let dir = std::env::temp_dir().join(format!("cali-ablations-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = dir.join("clustered.calb");
    let v2 = dir.join("clustered.calb2");
    caliper_format::binary::write_file(&ds, &v1).unwrap();
    std::fs::write(&v2, caliper_format::to_binary_v2_with(&ds, PER_BLOCK)).unwrap();

    let query = format!(
        "AGGREGATE count, sum(time.duration) WHERE rank = {} GROUP BY function ORDER BY function",
        BLOCKS - 1
    );
    // The engine builds a pushdown from the query unless handed one; an
    // empty one is how a full scan is asked for.
    let scan = Arc::new(Pushdown::new());
    let pushdown = Arc::new(build_pushdown(&parse_query(&query).unwrap(), None));
    let run = |path: &std::path::Path, pushdown: &Arc<Pushdown>| {
        let options = ParallelOptions::with_threads(1).with_pushdown(Some(Arc::clone(pushdown)));
        parallel_query_files(&query, &[path], &options).unwrap().0
    };
    let variants = [
        ("v1_scan", &v1, &scan),
        ("v2_scan", &v2, &scan),
        ("v2_pushdown", &v2, &pushdown),
    ];
    let expected = run(&v1, &scan).render();
    for (variant, path, pushdown) in variants {
        assert_eq!(
            expected,
            run(path, pushdown).render(),
            "{variant} renders differently"
        );
    }
    for (variant, path, pushdown) in variants {
        scale.row("selective_where", variant, 5, || {
            black_box(run(path, pushdown));
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (batches, shrink) = if quick { (3, 20) } else { (15, 1) };
    let scale = Scale { batches, shrink };
    println!("ablation,variant,ns_per_op");
    context_tree(&scale);
    key_hash(&scale);
    agg_concurrency(&scale);
    stream_vs_trace(&scale);
    selective_where(&scale);
}
