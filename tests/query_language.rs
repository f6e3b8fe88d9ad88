//! Integration tests of the full description language against data
//! produced by the real runtime — every clause, across crates.

use caliper_repro::prelude::*;

/// A profile with kernels, ranks, AMR levels and MPI functions baked in.
fn sample_profile() -> Dataset {
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 6,
        ranks: 3,
        ..CleverLeafParams::case_study()
    });
    let config = Config::event_aggregate(
        "kernel,mpi.function,mpi.rank,amr.level,iteration#mainloop",
        "count,sum(time.duration),min(time.duration),max(time.duration)",
    );
    let datasets = app.run_all(&config);
    let mut merged = Dataset::new();
    for ds in &datasets {
        let bytes = cali::to_bytes(ds);
        let mut r = caliper_repro::format::CaliReader::into_dataset(merged);
        r.read_stream(std::io::BufReader::new(&bytes[..])).unwrap();
        merged = r.finish();
    }
    merged
}

#[test]
fn where_not_excludes_mpi_records() {
    let ds = sample_profile();
    let all = run_query(
        &ds,
        "AGGREGATE sum(sum#time.duration) AS t GROUP BY mpi.rank",
    )
    .unwrap();
    let no_mpi = run_query(
        &ds,
        "AGGREGATE sum(sum#time.duration) AS t WHERE not(mpi.function) GROUP BY mpi.rank",
    )
    .unwrap();
    let mpi_only = run_query(
        &ds,
        "AGGREGATE sum(sum#time.duration) AS t WHERE mpi.function GROUP BY mpi.rank",
    )
    .unwrap();
    // Partition: all = not(mpi) + mpi, per rank.
    let t = |result: &QueryResult, rank: i64| -> f64 {
        let r = result.store.find("mpi.rank").unwrap();
        let v = result.store.find("t").unwrap();
        result
            .records
            .iter()
            .find(|rec| rec.get(r.id()).and_then(|v| v.to_i64()) == Some(rank))
            .and_then(|rec| rec.get(v.id())?.to_f64())
            .unwrap_or(0.0)
    };
    for rank in 0..3 {
        let total = t(&all, rank);
        let split = t(&no_mpi, rank) + t(&mpi_only, rank);
        assert!(
            (total - split).abs() < 1e-6 * total.max(1.0),
            "rank {rank}: {total} vs {split}"
        );
    }
}

#[test]
fn comparison_filters_cut_iterations() {
    let ds = sample_profile();
    let early = run_query(
        &ds,
        "AGGREGATE sum(aggregate.count) AS n WHERE iteration#mainloop < 3 GROUP BY iteration#mainloop",
    )
    .unwrap();
    assert_eq!(early.records.len(), 3);
    let exact = run_query(
        &ds,
        "AGGREGATE sum(aggregate.count) AS n WHERE iteration#mainloop = 2 GROUP BY iteration#mainloop",
    )
    .unwrap();
    assert_eq!(exact.records.len(), 1);
}

#[test]
fn order_by_sorts_descending() {
    let ds = sample_profile();
    let result = run_query(
        &ds,
        "AGGREGATE sum(sum#time.duration) AS t WHERE kernel GROUP BY kernel ORDER BY t desc",
    )
    .unwrap();
    let t = result.store.find("t").unwrap();
    let values: Vec<f64> = result
        .records
        .iter()
        .filter_map(|r| r.get(t.id())?.to_f64())
        .collect();
    assert!(values.windows(2).all(|w| w[0] >= w[1]));
    // calc-dt dominates, so it must be first.
    let k = result.store.find("kernel").unwrap();
    assert_eq!(
        result.records.row(0).get(k.id()),
        Some(&Value::str("calc-dt"))
    );
}

#[test]
fn select_controls_columns_and_order() {
    let ds = sample_profile();
    let result = run_query(
        &ds,
        "AGGREGATE sum(aggregate.count) WHERE kernel GROUP BY kernel \
         SELECT sum#aggregate.count, kernel",
    )
    .unwrap();
    let cols: Vec<&str> = result.columns.iter().map(|a| a.name()).collect();
    assert_eq!(cols, vec!["sum#aggregate.count", "kernel"]);
}

#[test]
fn let_scale_converts_units_through_aggregation() {
    let ds = sample_profile();
    let us = run_query(
        &ds,
        "AGGREGATE sum(sum#time.duration) AS t WHERE kernel=calc-dt GROUP BY kernel",
    )
    .unwrap();
    let ms = run_query(
        &ds,
        "LET ms = scale(sum#time.duration, 0.001) \
         AGGREGATE sum(ms) AS t WHERE kernel=calc-dt GROUP BY kernel",
    )
    .unwrap();
    let value = |r: &QueryResult| {
        let t = r.store.find("t").unwrap();
        r.records.row(0).get(t.id()).unwrap().to_f64().unwrap()
    };
    let ratio = value(&us) / value(&ms);
    assert!((ratio - 1000.0).abs() < 1e-6 * 1000.0, "ratio {ratio}");
}

#[test]
fn every_output_format_renders_the_same_data() {
    let ds = sample_profile();
    let base = "AGGREGATE sum(aggregate.count) WHERE kernel GROUP BY kernel";
    let table = run_query(&ds, &format!("{base} FORMAT table"))
        .unwrap()
        .render();
    let csv = run_query(&ds, &format!("{base} FORMAT csv"))
        .unwrap()
        .render();
    let json = run_query(&ds, &format!("{base} FORMAT json"))
        .unwrap()
        .render();
    let expand = run_query(&ds, &format!("{base} FORMAT expand"))
        .unwrap()
        .render();
    for out in [&table, &csv, &json, &expand] {
        assert!(out.contains("calc-dt"), "missing kernel in: {out}");
    }
    // CSV has a header plus one line per kernel (10) + unannotated-free
    // (WHERE kernel excludes records without a kernel).
    assert_eq!(csv.lines().count(), 11);

    // cali format re-parses and re-queries identically.
    let cali_text = run_query(&ds, &format!("{base} FORMAT cali"))
        .unwrap()
        .render();
    let back = cali::from_bytes(cali_text.as_bytes()).unwrap();
    let requery = run_query(&back, "SELECT kernel, sum#aggregate.count ORDER BY kernel").unwrap();
    assert_eq!(requery.records.len(), 10);
}

#[test]
fn histogram_over_profile_data() {
    let ds = sample_profile();
    let result = run_query(
        &ds,
        "AGGREGATE histogram(sum#time.duration, 0, 1000000, 4) WHERE kernel GROUP BY kernel",
    )
    .unwrap();
    let h = result.store.find("histogram#sum#time.duration").unwrap();
    for rec in result.records.iter() {
        let text = rec.get(h.id()).unwrap().to_string();
        // "under|b0 b1 b2 b3|over"
        let parts: Vec<&str> = text.split('|').collect();
        assert_eq!(parts.len(), 3, "{text}");
        assert_eq!(parts[1].split(' ').count(), 4);
    }
}

#[test]
fn group_by_nested_attribute_uses_paths() {
    // Nested `function` values group by their full path.
    let caliper = Caliper::with_clock(
        Config::event_aggregate("function", "count"),
        Clock::virtual_clock(),
    );
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    scope.begin(&function, "main");
    scope.begin(&function, "solve");
    scope.end(&function).unwrap();
    scope.begin(&function, "io");
    scope.end(&function).unwrap();
    scope.end(&function).unwrap();
    scope.flush();
    let ds = caliper.take_dataset();
    let result = run_query(&ds, "SELECT function, aggregate.count ORDER BY function").unwrap();
    let rendered = result.render();
    assert!(rendered.contains("main/solve"), "{rendered}");
    assert!(rendered.contains("main/io"), "{rendered}");
}

#[test]
fn global_metadata_is_queryable_per_file() {
    let ds = sample_profile();
    // merge kept per-rank globals; the last writer wins per label, but
    // all globals remain in the dataset.
    assert!(ds.global("mpi.rank").is_some());
    assert_eq!(
        ds.global("experiment"),
        Some(Value::str("cleverleaf-triple-point"))
    );
}
