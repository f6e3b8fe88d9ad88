//! Cross-process aggregation integration tests: runtime → `.cali`
//! files → serial and parallel off-line aggregation (§IV-C, §V-C).

use std::path::PathBuf;
use std::sync::Arc;

use cali_cli::{parallel_query, read_files};
use caliper_repro::mpi::{
    EventEngine, Executor, FaultPlan, ReduceCoverage, ReduceTask, ResilienceOptions, Run,
    ThreadEngine, Topology,
};
use caliper_repro::prelude::*;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "caliper-it-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the CleverLeaf proxy and write one .cali file per rank.
fn write_rank_files(dir: &std::path::Path, ranks: usize) -> Vec<PathBuf> {
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 8,
        ranks,
        ..CleverLeafParams::case_study()
    });
    let config = Config::event_aggregate(
        "kernel,mpi.function,mpi.rank,iteration#mainloop",
        "count,sum(time.duration)",
    );
    let datasets = app.run_all(&config);
    datasets
        .iter()
        .enumerate()
        .map(|(rank, ds)| {
            let path = dir.join(format!("rank-{rank:03}.cali"));
            cali::write_file(ds, &path).unwrap();
            path
        })
        .collect()
}

#[test]
fn file_roundtrip_preserves_query_results() {
    let dir = temp_dir("roundtrip");
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 5,
        ranks: 2,
        ..CleverLeafParams::case_study()
    });
    let config = Config::event_aggregate("kernel", "count,sum(time.duration)");
    let datasets = app.run_all(&config);

    let query = "AGGREGATE sum(sum#time.duration) WHERE kernel GROUP BY kernel";
    let direct = run_query(&datasets[0], query).unwrap();

    let path = dir.join("rank0.cali");
    cali::write_file(&datasets[0], &path).unwrap();
    let reloaded = cali::read_file(&path).unwrap();
    let roundtripped = run_query(&reloaded, query).unwrap();

    assert_eq!(
        direct.to_table(),
        roundtripped.to_table()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_query_equals_serial_query() {
    let dir = temp_dir("parallel");
    let paths = write_rank_files(&dir, 7);

    let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
                 WHERE kernel GROUP BY kernel";

    let merged = read_files(&paths).unwrap();
    let serial = run_query(&merged, query).unwrap();

    for np in [1, 2, 3, 7] {
        let mut per_rank: Vec<Vec<PathBuf>> = vec![Vec::new(); np];
        for (i, p) in paths.iter().enumerate() {
            per_rank[i % np].push(p.clone());
        }
        let (plan, opts) = (FaultPlan::new(), ResilienceOptions::default());
        let (event, _) = parallel_query(
            &EventEngine::new(),
            Topology::Flat,
            query,
            per_rank.clone(),
            plan.clone(),
            opts,
            false,
        );
        let (threads, _) =
            parallel_query(&ThreadEngine, Topology::Flat, query, per_rank, plan, opts, false);
        for (engine, run) in [("event", event.unwrap()), ("threads", threads.unwrap())] {
            assert_eq!(
                serial.to_table(),
                run.result.to_table(),
                "np = {np}, {engine} engine"
            );
            assert_eq!(run.coverage.included.len(), np);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_set_fold_equals_merged_dataset_query_for_any_worker_count() {
    use caliper_repro::query::{parallel_query_files, ParallelOptions};
    let dir = temp_dir("fold");
    let paths = write_rank_files(&dir, 7);
    let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
                 WHERE kernel GROUP BY kernel";
    let expected = run_query(&read_files(&paths).unwrap(), query).unwrap().render();
    for threads in [1, 2, 4] {
        let (result, timings) =
            parallel_query_files(query, &paths, &ParallelOptions::with_threads(threads)).unwrap();
        assert_eq!(expected, result.render(), "threads = {threads}");
        assert_eq!(timings.workers.len(), threads.min(paths.len()));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The first clause of the merge-order contract (DESIGN.md §6),
/// re-derived independently: a file's partial is its records folded in
/// stream order — in every driver, however large the file. 70 000
/// non-integer doubles make any other order of additions show in a
/// sum's last digits, and any other order of admission in which keys a
/// group cap keeps.
#[test]
fn a_files_partial_is_its_records_folded_in_stream_order() {
    use caliper_repro::format::{read_path, to_binary_v2};
    use caliper_repro::query::{parallel_query_files, ParallelOptions};
    let dir = temp_dir("one-file");
    let mut ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let t = ds.attribute("t", ValueType::Float, Properties::AS_VALUE);
    for i in 0..70_000u32 {
        let name = Value::str(format!("k{}", i / 5 % 8));
        let mut rec = SnapshotRecord::new();
        rec.push_node(ds.tree.get_child(NODE_NONE, kernel.id(), &name));
        rec.push_imm(t.id(), Value::Float(i as f64 * 0.37 + 0.1));
        ds.push(rec);
    }
    let text = dir.join("big.cali");
    cali::write_file(&ds, &text).unwrap();
    let v2 = dir.join("big.calb2");
    std::fs::write(&v2, to_binary_v2(&ds)).unwrap();

    let query = "AGGREGATE count, sum(t), avg(t) GROUP BY kernel ORDER BY kernel FORMAT csv";
    for file in [&text, &v2] {
        // The reference: the file's rows, one by one, through `process`.
        let rows = read_path(file).unwrap();
        let expected = run_query(&rows, query).unwrap().render();
        let mut capped = Pipeline::from_text(query, Arc::clone(&rows.store))
            .unwrap()
            .with_max_groups(Some(4));
        capped.process_dataset(&rows);
        let capped = capped.finish();
        assert!(capped.overflow_records > 0);

        for threads in [1, 2, 4] {
            let options = ParallelOptions::with_threads(threads);
            let (result, _) = parallel_query_files(query, &[file], &options).unwrap();
            assert_eq!(result.render(), expected, "{} --threads {threads}", file.display());
            let options = options.with_max_groups(Some(4));
            let (result, _) = parallel_query_files(query, &[file], &options).unwrap();
            assert_eq!(result.render(), capped.render(), "{} --threads {threads}", file.display());
            assert_eq!(result.overflow_records, capped.overflow_records);
        }
        // A rank of `mpi-caliquery` (which has no group cap).
        let (run, _) = parallel_query(
            &EventEngine::new(),
            Topology::Flat,
            query,
            vec![vec![file.clone()]],
            FaultPlan::new(),
            ResilienceOptions::default(),
            false,
        );
        assert_eq!(run.unwrap().result.render(), expected, "{} on one rank", file.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_rank_data_survives_cross_process_merge() {
    let dir = temp_dir("per-rank");
    let ranks = 4;
    let paths = write_rank_files(&dir, ranks);
    let merged = read_files(&paths).unwrap();

    // Every rank's data must be present and distinguishable by mpi.rank.
    // WHERE mpi.rank: the very first event snapshot of each process
    // fires before mpi.rank is placed on the blackboard and forms a
    // separate no-rank entry (as the paper's §III-B table shows for
    // partially-set keys); exclude it here.
    let result = run_query(
        &merged,
        "AGGREGATE sum(aggregate.count) WHERE mpi.rank GROUP BY mpi.rank ORDER BY mpi.rank",
    )
    .unwrap();
    assert_eq!(result.records.len(), ranks);
    let rank_attr = result.store.find("mpi.rank").unwrap();
    let ranks_seen: Vec<i64> = result
        .records
        .iter()
        .filter_map(|r| r.get(rank_attr.id())?.to_i64())
        .collect();
    assert_eq!(ranks_seen, vec![0, 1, 2, 3]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_stage_aggregation_matches_single_stage() {
    // On-line per-rank aggregation + off-line cross-rank summation must
    // equal off-line aggregation over the full per-rank traces.
    let params = CleverLeafParams {
        timesteps: 4,
        ranks: 3,
        ..CleverLeafParams::case_study()
    };
    let app = CleverLeaf::new(params);

    // Path 1: online aggregation, then offline sum.
    let online = app.run_all(&Config::event_aggregate("kernel", "sum(time.duration)"));
    let mut merged_online = Dataset::new();
    for ds in &online {
        let bytes = cali::to_bytes(ds);
        let mut r = caliper_repro::format::CaliReader::into_dataset(merged_online);
        r.read_stream(std::io::BufReader::new(&bytes[..])).unwrap();
        merged_online = r.finish();
    }
    let a = run_query(
        &merged_online,
        "AGGREGATE sum(sum#time.duration) AS t WHERE kernel GROUP BY kernel ORDER BY kernel",
    )
    .unwrap();

    // Path 2: full traces, aggregated offline in one step.
    let traces = app.run_all(&Config::event_trace());
    let mut merged_traces = Dataset::new();
    for ds in &traces {
        let bytes = cali::to_bytes(ds);
        let mut r = caliper_repro::format::CaliReader::into_dataset(merged_traces);
        r.read_stream(std::io::BufReader::new(&bytes[..])).unwrap();
        merged_traces = r.finish();
    }
    let b = run_query(
        &merged_traces,
        "AGGREGATE sum(time.duration) AS t WHERE kernel GROUP BY kernel ORDER BY kernel",
    )
    .unwrap();

    assert_eq!(a.to_table(), b.to_table());
}

#[test]
fn tree_reduction_inside_mpisim_matches_pipeline_merge() {
    // Drive the reduction through the mpisim substrate directly.
    let params = ParaDisParams {
        iterations: 3,
        ..Default::default()
    };
    let datasets: Vec<Dataset> = (0..6)
        .map(|r| caliper_repro::apps::paradis::generate_rank(&params, r))
        .collect();
    let query = "AGGREGATE sum(sum#time.duration) GROUP BY kernel";
    let spec = parse_query(query).unwrap();

    // Reference: sequential merge.
    let mut reference: Option<Pipeline> = None;
    for ds in &datasets {
        let mut p = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
        p.process_dataset(ds);
        match &mut reference {
            Some(root) => root.merge(p),
            None => reference = Some(p),
        }
    }
    let reference = reference.unwrap().finish().to_table();

    // mpisim: one rank per dataset, `ReduceTask` over pipelines, on
    // both engines.
    let datasets = Arc::new(datasets);
    let spec = Arc::new(spec);
    let make = move |rank: usize, size: usize| {
        let (datasets, spec) = (Arc::clone(&datasets), Arc::clone(&spec));
        let init = move || {
            let ds = &datasets[rank];
            let mut p = Pipeline::new((*spec).clone(), Arc::clone(&ds.store));
            p.process_dataset(ds);
            p
        };
        let merge = |mut a: Pipeline, b| {
            a.merge(b);
            a
        };
        ReduceTask::new(rank, size, Topology::Flat, init, merge, ResilienceOptions::default())
    };
    let from_tree = |run: Run<Option<(Pipeline, ReduceCoverage)>>| {
        let (root, coverage) = run.outputs.unwrap().swap_remove(0).unwrap().expect("root result");
        assert!(coverage.is_complete());
        root.finish().to_table()
    };
    let make_too = make.clone();
    assert_eq!(reference, from_tree(EventEngine::new().run(6, FaultPlan::new(), make, false)));
    assert_eq!(reference, from_tree(ThreadEngine.run(6, FaultPlan::new(), make_too, false)));
}
