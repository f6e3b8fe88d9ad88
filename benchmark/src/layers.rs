//! The traced run: per-layer metrics, taken from outside the crates.
//!
//! Three kinds of rows, all reported under the crate (= layer) they
//! describe:
//!
//! * *replays* — each binary's path rebuilt in-process from the same
//!   public calls, run with the span recorder off, on, and off again;
//!   the spans give self time per layer, the difference between traced
//!   and untraced is the tracing overhead;
//! * *calls* — one public function timed on in-memory inputs, with the
//!   allocations it makes (which repeat exactly where time does not);
//! * *black-box extras* — numbers only the running binaries can give
//!   (ack tail, mixed-phase queries, peak RSS, scheduler counters).
//!
//! End-to-end metrics are never taken from this run.

use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use caliper_data::{
    AttributeStore, ContextTree, FlatRecord, Properties, Value, ValueType, NODE_NONE,
};
use caliper_format::{
    read_path, read_path_into, read_path_into_filtered, read_path_reported_filtered, Dataset,
    FlushPolicy, JournalWriter, ReadPolicy, RecordBatch, SEQ_ATTR,
};
use caliper_query::{
    build_pushdown, parallel_query_files, parse_query, AggOp, AggregationSpec, Aggregator, OpKind,
    ParallelOptions, Pipeline, Reducer,
};
use caliper_runtime::{Caliper, Clock, Config};
use caliper_served::{ServedConfig, StreamState};
use miniapps::{CleverLeaf, WorkMode};
use mpisim::{EventEngine, FaultPlan, ReduceTask, ResilienceOptions, Topology};

use crate::corpus::Corpus;
use crate::env::{peak_rss_mb, Env, Tally};
use crate::plan::{Plan, Stage};
use crate::query_stage::{self, DISTINCT_QUERY, SCAN_QUERY, WIDE_QUERY};
use crate::report::Metrics;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{self, Recorder};
use crate::{alloc, calib, online_stage, reduce_stage, served_stage};

/// Median seconds of `reps` timed calls of `f`; each result is dropped
/// after its clock stops.
fn time_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let out = black_box(f());
            let seconds = start.elapsed().as_secs_f64();
            drop(out);
            seconds
        })
        .collect();
    median(&samples)
}

const REPS: usize = 5;

/// Replay `cali-query`'s aggregation path over `files`: per file read →
/// flatten → process → merge into the root, then finish and render.
/// Flattened records are materialised per file so that flattening and
/// processing are separate spans; the untraced twin does the same.
fn replay_query(rec: &mut Recorder, root: &'static str, query: &str, files: &[PathBuf]) -> String {
    rec.span(root, |rec| {
        let spec = rec.span("query.parse", |_| {
            (parse_query(query).expect("query parses"), 1)
        });
        let mut acc: Option<Pipeline> = None;
        let mut records = 0;
        for path in files {
            let ds = rec.span("format.read", |_| {
                let (ds, _) = read_path_reported_filtered(path, ReadPolicy::Strict, None)
                    .expect("corpus file reads");
                let n = ds.len() as u64;
                (Arc::new(ds), n)
            });
            records += ds.len() as u64;
            let flats = rec.span("format.flatten", |_| {
                let mut flats = Vec::with_capacity(ds.len());
                RecordBatch::new(Arc::clone(&ds), 0..ds.len()).for_each_flat(|r| flats.push(r));
                let n = flats.len() as u64;
                (flats, n)
            });
            let shard = rec.span("query.process", |_| {
                let n = flats.len() as u64;
                let mut shard = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
                for r in flats {
                    shard.process(r);
                }
                (shard, n)
            });
            rec.span("query.merge", |_| {
                let groups = shard.len() as u64;
                match &mut acc {
                    Some(root) => root.merge(shard),
                    None => acc = Some(shard),
                }
                ((), groups)
            });
            rec.span("format.release", |_| {
                let n = ds.len() as u64;
                drop(ds);
                ((), n)
            });
        }
        let result = rec.span("query.finish", |_| {
            let result = acc.expect("at least one input file").finish();
            let rows = result.records.len() as u64;
            (result, rows)
        });
        let out = rec.span("query.render", |_| {
            let rows = result.records.len() as u64;
            (result.render(), rows)
        });
        (out, records)
    })
}

/// Replay the daemon's ingest path: `StreamState::process_batch` over
/// the small then the large payloads on a fresh journal. Returns the
/// per-batch seconds of each phase.
fn replay_served(
    rec: &mut Recorder,
    data_dir: &Path,
    small: &[Vec<u8>],
    large: &[Vec<u8>],
) -> (Vec<f64>, Vec<f64>) {
    let cfg = ServedConfig {
        data_dir: data_dir.to_path_buf(),
        aggregate_ops: "count,sum(sum#time.duration)".to_string(),
        aggregate_key: "kernel,mpi.function,iteration".to_string(),
        ..ServedConfig::default()
    };
    let spec = AggregationSpec::from_query(
        &parse_query(&cfg.aggregate_query()).expect("daemon query parses"),
    );
    rec.span("harness.served", |rec| {
        let mut state = rec.span("served.open", |_| {
            (
                StreamState::open("replay", &cfg, &spec).expect("fresh stream opens"),
                1,
            )
        });
        let mut phase =
            |rec: &mut Recorder, name: &'static str, payloads: &[Vec<u8>]| -> Vec<f64> {
                payloads
                    .iter()
                    .map(|payload| {
                        rec.span(name, |_| {
                            let start = Instant::now();
                            let ack = state
                                .process_batch(payload)
                                .expect("generated batch is accepted");
                            (start.elapsed().as_secs_f64(), ack.records)
                        })
                    })
                    .collect()
            };
        let small_s = phase(rec, "served.process_batch_small", small);
        let large_s = phase(rec, "served.process_batch_large", large);
        let batches = (small_s.len() + large_s.len()) as u64;
        ((small_s, large_s), batches)
    })
}

/// Replay the `online` stage under scheme A; returns output records.
fn replay_online(rec: &mut Recorder, app: &CleverLeaf) -> usize {
    let config = Config::event_aggregate(online_stage::SCHEME_A, online_stage::OPS);
    rec.span("harness.online", |rec| {
        let mut outputs = 0;
        let mut snapshots = 0;
        for rank in 0..app.params.ranks {
            let caliper = Caliper::with_clock(config.clone(), Clock::virtual_clock());
            snapshots += rec.span("runtime.run_rank", |_| {
                app.run_rank(rank, &caliper, WorkMode::Virtual);
                let n = caliper.total_snapshots();
                (n, n)
            });
            outputs += rec.span("runtime.take_dataset", |_| {
                let n = caliper.take_dataset().len();
                (n, n as u64)
            });
        }
        (outputs, snapshots)
    })
}

/// Replay the reduction with the file work removed: the event engine
/// driving one `ReduceTask` per rank over `u64` payloads — what moves
/// with the scheduler alone. Returns events processed.
fn replay_reduce(rec: &mut Recorder, ranks: usize) -> u64 {
    rec.span("harness.reduce", |rec| {
        let events = rec.span("mpisim.run_tasks", |_| {
            let opts = ResilienceOptions::default();
            let make = move |rank: usize, size: usize| {
                ReduceTask::new(
                    rank,
                    size,
                    Topology::Flat,
                    move || rank as u64,
                    |a, b| a + b,
                    opts,
                )
            };
            let (outputs, stats) =
                EventEngine::with_workers(1).run_tasks_with_stats(ranks, FaultPlan::new(), make);
            let (sum, _) = outputs[0]
                .clone()
                .expect("root finishes")
                .expect("root holds the result");
            assert_eq!(
                sum,
                (ranks as u64 * (ranks as u64 - 1)) / 2,
                "reduction lost a contribution"
            );
            (stats.events, stats.events)
        });
        (events, ranks as u64)
    })
}

/// Everything flattened out of `files`, read into one shared store.
fn flat_records(files: &[PathBuf]) -> (Arc<Dataset>, Vec<FlatRecord>) {
    let mut ds = Dataset::new();
    for path in files {
        ds = read_path_into(path, ds).expect("corpus file reads");
    }
    let ds = Arc::new(ds);
    let mut flats = Vec::with_capacity(ds.len());
    RecordBatch::new(Arc::clone(&ds), 0..ds.len()).for_each_flat(|r| flats.push(r));
    (ds, flats)
}

fn aggregator(query: &str, store: &Arc<AttributeStore>) -> Aggregator {
    let spec = AggregationSpec::from_query(&parse_query(query).expect("query parses"));
    Aggregator::new(spec, Arc::clone(store))
}

/// The `format` and `query` calls, on the corpus's first file(s).
fn format_and_query_calls(
    env: &Env,
    corpus: &Corpus,
    select_query: &str,
    wide_files: &[PathBuf],
    m: &mut Metrics,
) {
    let n = corpus.records_per_file as f64;
    let per_rec = |seconds: f64| seconds * 1e9 / n;
    let how = format!("median of {REPS} calls over {n} records");

    let text = std::fs::read(&corpus.text[0]).expect("corpus file reads");
    let decode_text = || caliper_format::cali::from_bytes(&text).expect("text decodes");
    m.put(
        "format.text_decode_ns_per_rec",
        per_rec(time_reps(REPS, decode_text)),
        &how,
    );
    m.put(
        "format.text_decode_allocs_per_rec",
        alloc::count(decode_text).1 as f64 / n,
        "exact count",
    );
    m.put(
        "format.v1_decode_ns_per_rec",
        per_rec(time_reps(REPS, || {
            read_path(&corpus.v1[0]).expect("v1 decodes")
        })),
        &how,
    );
    let decode_v2 = || read_path(&corpus.v2[0]).expect("v2 decodes");
    m.put(
        "format.v2_decode_ns_per_rec",
        per_rec(time_reps(REPS, decode_v2)),
        &how,
    );
    m.put(
        "format.v2_decode_allocs_per_rec",
        alloc::count(decode_v2).1 as f64 / n,
        "exact count",
    );

    let ds = Arc::new(decode_v2());
    let batch = RecordBatch::new(Arc::clone(&ds), 0..ds.len());
    let flatten = || batch.for_each_flat(|r| drop(black_box(r)));
    m.put(
        "format.flatten_ns_per_rec",
        per_rec(time_reps(REPS, flatten)),
        &how,
    );
    m.put(
        "format.flatten_allocs_per_rec",
        alloc::count(flatten).1 as f64 / n,
        "exact count",
    );

    let pushdown = build_pushdown(&parse_query(select_query).expect("query parses"), None);
    let (mut blocks, mut skipped) = (0, 0);
    for path in wide_files {
        let (_, report) =
            read_path_into_filtered(path, Dataset::new(), ReadPolicy::Strict, Some(&pushdown))
                .expect("v2 decodes");
        blocks += report.blocks;
        skipped += report.blocks_skipped;
    }
    m.put(
        "format.v2_blocks_skipped_share",
        skipped as f64 / blocks.max(1) as f64,
        format!("{skipped} of {blocks} blocks"),
    );

    let total = corpus.records(corpus.text.len()) as f64;
    let bytes = |files: &[PathBuf]| {
        files
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum::<u64>() as f64
    };
    m.put(
        "format.text_bytes_per_rec",
        bytes(&corpus.text) / total,
        "file bytes / records",
    );
    m.put(
        "format.v1_bytes_per_rec",
        bytes(&corpus.v1) / total,
        "file bytes / records",
    );
    m.put(
        "format.v2_bytes_per_rec",
        bytes(&corpus.v2) / total,
        "file bytes / records",
    );
    m.put(
        "format.text_encode_ns_per_rec",
        per_rec(time_reps(REPS, || caliper_format::cali::to_bytes(&ds))),
        &how,
    );
    m.put(
        "format.v2_encode_ns_per_rec",
        per_rec(time_reps(REPS, || caliper_format::to_binary_v2(&ds))),
        &how,
    );

    // The journal the daemon writes: records stamped with a sequence
    // number, appended, flushed once per 64 (one small batch).
    let seq = ds
        .attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE)
        .id();
    let stamped: Vec<_> = ds
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = r.clone();
            r.push_imm(seq, Value::UInt(i as u64));
            r
        })
        .collect();
    let journal = env.work.path().join("layer.journal.cali");
    let policy = FlushPolicy {
        flush_interval: u64::MAX,
        max_buffer: 8 << 20,
        fsync: false,
    };
    let append = || {
        let mut writer = JournalWriter::create(&journal, policy).expect("journal opens");
        for chunk in stamped.chunks(64) {
            for r in chunk {
                writer.append_snapshot(&ds, r).expect("journal append");
            }
            writer.flush().expect("journal flush");
        }
    };
    m.put(
        "format.journal_append_ns_per_rec",
        per_rec(time_reps(REPS, append)),
        &how,
    );
    let recover = || {
        caliper_format::journal::recover_file(&journal, ReadPolicy::lenient())
            .expect("journal recovers")
    };
    assert_eq!(
        recover().0.len(),
        stamped.len(),
        "journal round-trip lost records"
    );
    m.put(
        "format.journal_recover_ns_per_rec",
        per_rec(time_reps(REPS, recover)),
        &how,
    );

    const PARSES: usize = 1000;
    let parse = || (0..PARSES).for_each(|_| drop(black_box(parse_query(black_box(SCAN_QUERY)))));
    m.put(
        "query.parse_us",
        time_reps(REPS, parse) * 1e6 / PARSES as f64,
        format!("median of {REPS} x {PARSES} calls"),
    );

    let (ds, flats) = flat_records(&corpus.v2[..1]);
    let scan_spec = parse_query(SCAN_QUERY).expect("query parses");
    let process = time_reps(REPS, || {
        // Cloning the input is part of the sample; it is the same
        // `Vec` + `Arc` bump `for_each_flat` hands `process` per record.
        let mut pipeline = Pipeline::new(scan_spec.clone(), Arc::clone(&ds.store));
        for r in &flats {
            pipeline.process(r.clone());
        }
        pipeline
    });
    m.put("query.process_ns_per_rec", per_rec(process), &how);

    // Aggregator::add at 85 groups, (regions x iterations) groups, and
    // one group per record (rank 0 only, so every key is new).
    for (name, query) in [
        ("query.add_few_ns_per_rec", reduce_stage::QUERY),
        ("query.add_wide_ns_per_rec", WIDE_QUERY),
        ("query.add_distinct_ns_per_rec", DISTINCT_QUERY),
    ] {
        let add = || {
            let mut agg = aggregator(query, &ds.store);
            flats.iter().for_each(|r| agg.add(r));
            agg
        };
        m.put(name, per_rec(time_reps(REPS, add)), &how);
        if query == WIDE_QUERY {
            m.put(
                "query.add_allocs_per_rec",
                alloc::count(add).1 as f64 / n,
                "exact count, wide grouping",
            );
        }
    }

    const UPDATES: usize = 1_000_000;
    let value = Value::Float(1.5);
    let update = || {
        let mut reducer = Reducer::new(&AggOp::new(OpKind::Sum, Some("x")));
        (0..UPDATES).for_each(|_| reducer.update(black_box(&value)));
        reducer
    };
    m.put(
        "query.reducer_update_ns",
        time_reps(REPS, update) * 1e9 / UPDATES as f64,
        format!("median of {REPS} x {UPDATES} calls"),
    );

    // Two ranks' worth of the wide grouping in one store: every group
    // of the incoming aggregator already exists in the receiver.
    let (both, flats2) = flat_records(&corpus.v2[..2]);
    let (first, second) = flats2.split_at(flats2.len() / 2);
    let filled = |records: &[FlatRecord]| {
        let mut agg = aggregator(WIDE_QUERY, &both.store);
        records.iter().for_each(|r| agg.add(r));
        agg
    };
    let groups = filled(second).len() as f64;
    let merges: Vec<f64> = (0..REPS)
        .map(|_| {
            let (mut a, b) = (filled(first), filled(second));
            let start = Instant::now();
            a.merge(b);
            let seconds = start.elapsed().as_secs_f64();
            black_box(a.len());
            seconds
        })
        .collect();
    m.put(
        "query.merge_ns_per_group",
        median(&merges) * 1e9 / groups,
        format!("median of {REPS} merges of {groups} groups"),
    );
    let agg = filled(first);
    let flush = time_reps(REPS, || agg.flush(&AttributeStore::new()));
    m.put(
        "query.flush_ns_per_group",
        flush * 1e9 / agg.len() as f64,
        format!("median of {REPS} flushes of {} groups", agg.len()),
    );
    let wide_spec = parse_query(WIDE_QUERY).expect("query parses");
    let renders: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut pipeline = Pipeline::new(wide_spec.clone(), Arc::clone(&both.store));
            first.iter().for_each(|r| pipeline.process(r.clone()));
            let start = Instant::now();
            let rendered = pipeline.finish().render();
            let seconds = start.elapsed().as_secs_f64();
            black_box(rendered.len());
            seconds
        })
        .collect();
    m.put(
        "query.render_ns_per_row",
        median(&renders) * 1e9 / agg.len() as f64,
        format!("median of {REPS} finish+render of {} rows", agg.len()),
    );

    let (_, timings) = env.cpus.all(|| {
        parallel_query_files(WIDE_QUERY, wide_files, &ParallelOptions::with_threads(2))
            .expect("parallel query runs")
    });
    m.put(
        "query.parallel_worker_max_s",
        timings.worker_max_s(),
        format!("2 threads, {} files", wide_files.len()),
    );
    m.put(
        "query.parallel_merge_s",
        timings.merge_s,
        format!("2 threads, {} files", wide_files.len()),
    );
}

/// The `data` and `runtime` calls.
fn data_and_runtime_calls(
    env: &Env,
    plan: &Plan,
    app: &CleverLeaf,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    const LOOKUPS: usize = 1_000_000;
    let tree = ContextTree::new();
    let values: Vec<Value> = (0..64).map(|i| Value::str(format!("kernel-{i}"))).collect();
    for v in &values {
        tree.get_child(NODE_NONE, 1, v);
    }
    let lookup = || {
        (0..LOOKUPS)
            .map(|i| tree.get_child(NODE_NONE, 1, black_box(&values[i % 64])))
            .max()
    };
    m.put(
        "data.tree_get_child_ns",
        time_reps(REPS, lookup) * 1e9 / LOOKUPS as f64,
        format!("median of {REPS} x {LOOKUPS} hits"),
    );

    const PAIRS: usize = 200_000;
    let caliper = Caliper::with_clock(Config::baseline(), Clock::virtual_clock());
    let kernel = caliper.region_attribute("kernel");
    let mut scope = caliper.make_thread_scope();
    let begin_end = || {
        for _ in 0..PAIRS {
            scope.begin(&kernel, "k");
            scope.end(&kernel).expect("balanced");
        }
    };
    m.put(
        "runtime.begin_end_ns",
        time_reps(REPS, begin_end) * 1e9 / PAIRS as f64,
        format!("median of {REPS} x {PAIRS} pairs"),
    );

    let configs = online_stage::layer_configs(&env.work.path().join("online.journal.cali"));
    let mut online = online_stage::Online::new(app.clone(), configs);
    for _ in 0..3 {
        online.round(&env.cal, tally);
    }
    for samples in &online.samples {
        let name = format!("runtime.snapshot_{}_ns", samples.name);
        m.median(&name, &calib::raw(&samples.ns_per_snapshot), 1.0);
    }

    // Flush cost per group: fill one thread's aggregation database with
    // distinct kernels, then time flush + take_dataset.
    let groups = if plan.quick { 500 } else { 5000 };
    let flushes: Vec<f64> = (0..REPS)
        .map(|_| {
            let caliper = Caliper::with_clock(
                Config::event_aggregate("kernel", online_stage::OPS),
                Clock::virtual_clock(),
            );
            let kernel = caliper.region_attribute("kernel");
            let mut scope = caliper.make_thread_scope();
            for i in 0..groups {
                scope.begin(&kernel, format!("k{i}"));
                scope.advance_time(100);
                scope.end(&kernel).expect("balanced");
            }
            let start = Instant::now();
            scope.flush();
            let out = caliper.take_dataset().len();
            let seconds = start.elapsed().as_secs_f64();
            seconds / out as f64
        })
        .collect();
    m.put(
        "runtime.flush_ns_per_group",
        median(&flushes) * 1e9,
        format!("median of {REPS} flushes of ~{groups} groups"),
    );
}

/// The `served` protocol-parsing calls.
fn served_calls(m: &mut Metrics) {
    const PARSES: usize = 200_000;
    let command = || {
        (0..PARSES).for_each(|_| {
            drop(black_box(caliper_served::protocol::Command::parse(
                black_box("BATCH 4096\n"),
            )))
        })
    };
    m.put(
        "served.command_parse_ns",
        time_reps(REPS, command) * 1e9 / PARSES as f64,
        format!("median of {REPS} x {PARSES} calls"),
    );
    let request = b"GET /query?q=AGGREGATE+sum(count)+GROUP+BY+kernel+ORDER+BY+kernel+FORMAT+csv HTTP/1.1\r\nHost: cali-bench\r\n\r\n";
    let http = || {
        (0..PARSES).for_each(|_| {
            drop(black_box(caliper_served::http::read_request(
                &mut Cursor::new(&request[..]),
            )))
        })
    };
    m.put(
        "served.http_parse_ns",
        time_reps(REPS, http) * 1e9 / PARSES as f64,
        format!("median of {REPS} x {PARSES} calls"),
    );
}

/// Numbers only the running binaries can give.
fn black_box_extras(env: &Env, corpus: &Corpus, plan: &Plan, tally: &mut Tally, m: &mut Metrics) {
    let startups: Vec<f64> = (0..10)
        .map(|_| query_stage::startup_s(env, &corpus.text[0]))
        .collect();
    m.median("cli.startup_ms", &startups, 1e3);
    let rss = |query: &str, files: &[PathBuf]| {
        let mut cmd = Command::new(&env.cali_query);
        cmd.args(["--no-lint", "--threads", "1", "-q", query, "-o"])
            .arg(env.work.path().join("rss.out"))
            .args(files);
        peak_rss_mb(&mut cmd).expect("spawning cali-query")
    };
    let scan_files = &corpus.v2[..query_stage::file_count(corpus, plan, Stage::Scan)];
    m.put(
        "cli.peak_rss_scan_mb",
        rss(SCAN_QUERY, scan_files),
        format!("VmHWM, {} files", scan_files.len()),
    );
    let distinct_files =
        &corpus.v2[..(query_stage::file_count(corpus, plan, Stage::Wide) / 4).max(1)];
    m.put(
        "cli.peak_rss_distinct_mb",
        rss(DISTINCT_QUERY, distinct_files),
        format!("VmHWM, {} files", distinct_files.len()),
    );

    // The scheduler's own counters from the many-rank run: exact.
    let ranks = if plan.quick { 1024 } else { 16384 };
    let run = reduce_stage::run(env, "event", ranks, &corpus.v2, &["--timings"]);
    let counter = |label: &str| {
        run.stderr
            .lines()
            .find_map(|l| l.strip_prefix(label))
            .and_then(|v| v.trim().trim_end_matches("ns").trim().parse::<f64>().ok())
    };
    let counters = [
        ("mpisim.sched_events", counter("# sched events:")),
        (
            "mpisim.virtual_makespan_ns",
            counter("# sched virtual time:"),
        ),
        (
            "mpisim.max_queue_depth",
            counter("# sched max queue depth:"),
        ),
    ];
    tally.check(run.ok && counters.iter().all(|(_, v)| v.is_some()), || {
        format!("mpi-caliquery --timings: {}", run.stderr.trim())
    });
    for (name, value) in counters {
        m.put(
            name,
            value.unwrap_or(f64::NAN),
            format!("{ranks} ranks, exact"),
        );
    }
    // What running in parallel gains, on all CPUs: no bound rests on
    // these, the host decides from minute to minute whether two vCPUs
    // are worth 1.75 or 0.9 of one.
    let wide_files = &corpus.v2[..query_stage::file_count(corpus, plan, Stage::Wide)];
    let thread_ranks = corpus.v2.len();
    let (scan_t2, wide_t2, threads) = env.cpus.all(|| {
        let mut t2 = |query: &str, files: &[PathBuf]| -> Vec<f64> {
            (0..3)
                .map(|_| query_stage::cali_query(env, tally, query, 2, files).0)
                .collect()
        };
        let (scan_t2, wide_t2) = (t2(SCAN_QUERY, scan_files), t2(WIDE_QUERY, wide_files));
        let threads: Vec<f64> = (0..3)
            .map(|_| {
                let run = reduce_stage::run(env, "threads", thread_ranks, &corpus.v2, &[]);
                tally.check(run.ok, || {
                    format!("mpi-caliquery --engine threads: {}", run.stderr.trim())
                });
                run.wall_s
            })
            .collect();
        (scan_t2, wide_t2, threads)
    });
    let rate =
        |files: &[PathBuf], seconds: &[f64]| corpus.records(files.len()) as f64 / median(seconds);
    m.put(
        "cli.scan_v2_t2_rec_per_s",
        rate(scan_files, &scan_t2),
        format!("median of 3, --threads 2, {} files", scan_files.len()),
    );
    m.put(
        "cli.wide_t2_rec_per_s",
        rate(wide_files, &wide_t2),
        format!("median of 3, --threads 2, {} files", wide_files.len()),
    );
    m.median("mpisim.threads_32_s", &threads, 1.0);

    let mut s = served_stage::ServedSamples::default();
    served_stage::round(env, corpus, plan, &mut s, tally);
    let large_rates: Vec<f64> = s.large_s_per_rec.iter().map(|s| 1.0 / s).collect();
    m.median("served.ingest_b1024_rec_per_s", &large_rates, 1.0);
    // The highest percentile the sample supports: p99 from 1000 acks
    // on; a smoke run's few dozen only support the median.
    let acks = calib::raw(&s.ack_s);
    let (p, ack) = match tail_percentile(&acks) {
        Some(tail) => tail,
        None if acks.is_empty() => (50.0, f64::NAN),
        None => (50.0, median(&acks)),
    };
    m.put(
        "served.ack_p99_us",
        ack * 1e6,
        format!("p{p} of {} acks", acks.len()),
    );
    m.put(
        "served.busy_share",
        s.busy as f64 / s.batches.max(1) as f64,
        format!("{} BUSY of {} batches", s.busy, s.batches),
    );
    let p90 = if s.query_s.is_empty() {
        f64::NAN
    } else {
        percentile(&s.query_s, 900)
    };
    m.put(
        "served.query_p90_ms",
        p90 * 1e3,
        format!("p90 of {} warm queries", s.query_s.len()),
    );
    m.median("served.query_cold_ms", &s.cold_query_s, 1e3);
    m.median("served.query_mixed_p50_ms", &s.mixed_query_s, 1e3);
    m.put(
        "served.warm_rows",
        s.warm_rows as f64,
        "rows of the warm aggregate",
    );
    let records = s.records_per_cycle.max(1) as f64;
    m.put(
        "served.journal_bytes_per_rec",
        s.journal_bytes as f64 / records,
        format!("journal bytes / {records} acked records"),
    );
    let replay = if s.replay_s.is_empty() {
        f64::NAN
    } else {
        median(&calib::raw(&s.replay_s))
    };
    m.put(
        "served.replay_ns_per_rec",
        replay * 1e9 / records,
        format!("median of {} replays / {records} records", s.replay_s.len()),
    );
}

/// One in-process replay, run untraced, traced, untraced.
struct Replayed<T> {
    /// The first untraced run's result.
    out: T,
    /// Untraced wall seconds: the mean of the two runs that bracket the
    /// traced one, so a drift of the machine's speed cancels.
    off_s: f64,
    /// Traced wall seconds.
    on_s: f64,
}

fn replay<T>(rec: &mut Recorder, mut f: impl FnMut(&mut Recorder) -> T) -> Replayed<T> {
    let mut timed = |rec: &mut Recorder| {
        let start = Instant::now();
        let out = f(rec);
        (out, start.elapsed().as_secs_f64())
    };
    let mut off = Recorder::new(false);
    let (out, before_s) = timed(&mut off);
    let (_, on_s) = timed(rec);
    let (_, after_s) = timed(&mut off);
    Replayed {
        out,
        off_s: (before_s + after_s) / 2.0,
        on_s,
    }
}

/// The traced run. Fills `m` with every per-layer metric and writes the
/// span trace; returns the trace file's path.
pub fn traced_run(
    env: &Env,
    corpus: &Corpus,
    plan: &Plan,
    tally: &mut Tally,
    m: &mut Metrics,
) -> PathBuf {
    let scan_files = corpus.v2[..query_stage::file_count(corpus, plan, Stage::Scan)].to_vec();
    let wide_files = corpus.v2[..query_stage::file_count(corpus, plan, Stage::Wide)].to_vec();
    let select_query = query_stage::select_query(wide_files.len() - 1);
    let app = online_stage::app(plan);

    black_box_extras(env, corpus, plan, tally, m);
    format_and_query_calls(env, corpus, &select_query, &wide_files, m);
    data_and_runtime_calls(env, plan, &app, tally, m);
    served_calls(m);

    // What the binaries answer for the two replayed queries.
    let (_, scan_expected) = query_stage::cali_query(env, tally, SCAN_QUERY, 1, &scan_files);
    let (_, wide_expected) = query_stage::cali_query(env, tally, WIDE_QUERY, 1, &wide_files);

    let mut rec = Recorder::new(true);
    let scan = replay(&mut rec, |rec| {
        replay_query(rec, "harness.scan", SCAN_QUERY, &scan_files)
    });
    tally.check(scan.out.as_bytes() == scan_expected, || {
        "scan replay differs from cali-query's output".to_string()
    });
    let wide = replay(&mut rec, |rec| {
        replay_query(rec, "harness.wide", WIDE_QUERY, &wide_files)
    });
    tally.check(wide.out.as_bytes() == wide_expected, || {
        "wide replay differs from cali-query's output".to_string()
    });
    let counts = plan.served();
    let served = replay(&mut rec, |rec| {
        let dir = env.work.fresh("replay-served").expect("fresh data dir");
        replay_served(
            rec,
            &dir,
            &corpus.small[..counts.small],
            &corpus.large[..counts.large],
        )
    });
    m.median("served.process_batch_b64_us", &served.out.0, 1e6);
    m.median("served.process_batch_b1024_us", &served.out.1, 1e6);
    let online = replay(&mut rec, |rec| replay_online(rec, &app));
    m.put(
        "runtime.outputs_per_rank",
        online.out as f64 / app.params.ranks as f64,
        "scheme A, exact",
    );
    let ranks = if plan.quick { 1024 } else { 16384 };
    let reduce = replay(&mut rec, |rec| replay_reduce(rec, ranks));
    m.put(
        "mpisim.reduce_synth_16k_s",
        reduce.off_s,
        format!("{ranks} ranks, u64 payloads, one run"),
    );
    m.put(
        "mpisim.sched_ns_per_event",
        reduce.off_s * 1e9 / reduce.out as f64,
        format!("{} events", reduce.out),
    );

    let off: f64 = scan.off_s + wide.off_s + served.off_s + online.off_s + reduce.off_s;
    let on: f64 = scan.on_s + wide.on_s + served.on_s + online.on_s + reduce.on_s;
    m.put(
        "trace_overhead_share",
        (on - off) / off,
        format!("traced {on:.3} s vs untraced {off:.3} s over five replays"),
    );
    // Where the scan replay's time went: self time of the format and
    // query spans as a share of the untraced wall time (the rest is
    // the root span's own glue plus tracing overhead).
    let by_name = trace::self_time_by_name(rec.spans(), "harness.scan");
    let layers_ns: u64 = by_name
        .iter()
        .filter(|(name, _)| !name.starts_with("harness."))
        .map(|(_, ns)| ns)
        .sum();
    m.put(
        "trace.scan_layers_share",
        layers_ns as f64 / 1e9 / scan.off_s,
        format!(
            "format+query self time {:.3} s of untraced {:.3} s",
            layers_ns as f64 / 1e9,
            scan.off_s
        ),
    );

    let dir = env.target.join("cali-bench-trace");
    std::fs::create_dir_all(&dir).expect("trace dir");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        plan.focus.name(),
        plan.seed
    ));
    std::fs::write(&path, trace::to_json(rec.spans())).expect("writing trace.json");
    path
}
