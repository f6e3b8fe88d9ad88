//! Integration tests of the extension features (beyond the paper's
//! §IV implementation): statistics operators, percentiles, flamegraph
//! output, the report service, synthetic counters, and canonical query
//! rendering.

use caliper_repro::prelude::*;

fn profile_with_durations() -> Dataset {
    // Event trace of a kernel with a known duration distribution:
    // 1..=100 microseconds.
    let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
    let kernel = caliper.region_attribute("kernel");
    let mut scope = caliper.make_thread_scope();
    for us in 1..=100u64 {
        scope.begin(&kernel, "work");
        scope.advance_time(us * 1_000);
        scope.end(&kernel).unwrap();
    }
    scope.flush();
    caliper.take_dataset()
}

#[test]
fn stddev_and_variance_over_trace() {
    let ds = profile_with_durations();
    let result = run_query(
        &ds,
        "AGGREGATE avg(time.duration), variance(time.duration), stddev(time.duration) \
         WHERE kernel GROUP BY kernel",
    )
    .unwrap();
    let get = |label: &str| -> f64 {
        let attr = result.store.find(label).unwrap();
        result
            .records
            .row(0)
            .get(attr.id())
            .unwrap()
            .to_f64()
            .unwrap()
    };
    // Uniform 1..=100: mean 50.5, population variance (n^2-1)/12 = 833.25.
    assert!((get("avg#time.duration") - 50.5).abs() < 1e-9);
    assert!((get("variance#time.duration") - 833.25).abs() < 1e-6);
    assert!((get("stddev#time.duration") - 833.25f64.sqrt()).abs() < 1e-6);
}

#[test]
fn percentiles_over_trace() {
    let ds = profile_with_durations();
    let result = run_query(
        &ds,
        "AGGREGATE percentile(time.duration, 50), percentile(time.duration, 95) \
         WHERE kernel GROUP BY kernel",
    )
    .unwrap();
    let get = |label: &str| -> f64 {
        let attr = result.store.find(label).unwrap();
        result
            .records
            .row(0)
            .get(attr.id())
            .unwrap()
            .to_f64()
            .unwrap()
    };
    let p50 = get("percentile.50#time.duration");
    let p95 = get("percentile.95#time.duration");
    assert!((p50 - 50.5).abs() < 1.0, "p50 {p50}");
    assert!((p95 - 95.0).abs() < 1.5, "p95 {p95}");
    assert!(p50 < p95);
}

#[test]
fn flamegraph_output_end_to_end() {
    // Build nested function stacks, render folded stacks.
    let caliper = Caliper::with_clock(
        Config::event_aggregate("function", "sum(time.duration)"),
        Clock::virtual_clock(),
    );
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    scope.begin(&function, "main");
    scope.begin(&function, "solve");
    scope.advance_time(30_000);
    scope.end(&function).unwrap();
    scope.begin(&function, "io");
    scope.advance_time(10_000);
    scope.end(&function).unwrap();
    scope.end(&function).unwrap();
    scope.flush();
    let ds = caliper.take_dataset();

    let result = run_query(
        &ds,
        "SELECT function, sum#time.duration WHERE function FORMAT flamegraph",
    )
    .unwrap();
    let folded = result.render();
    // time.duration is in microseconds: 30 us in solve, 10 us in io.
    assert!(folded.contains("main;solve 30"), "{folded}");
    assert!(folded.contains("main;io 10"), "{folded}");
}

#[test]
fn counters_aggregate_like_time() {
    let config = Config::new()
        .set("services", "event,timer,counters,aggregate")
        .set("counters.ghz", "1.0")
        .set("counters.ipc", "1.0")
        .set("aggregate.key", "kernel")
        .set("aggregate.ops", "sum(time.duration),sum(cpu.instructions)");
    let caliper = Caliper::with_clock(config, Clock::virtual_clock());
    let kernel = caliper.region_attribute("kernel");
    let mut scope = caliper.make_thread_scope();
    for _ in 0..10 {
        scope.begin(&kernel, "work");
        scope.advance_time(1_000);
        scope.end(&kernel).unwrap();
    }
    scope.flush();
    let ds = caliper.take_dataset();
    let result = run_query(
        &ds,
        "SELECT kernel, sum#time.duration, sum#cpu.instructions WHERE kernel",
    )
    .unwrap();
    let us = result.store.find("sum#time.duration").unwrap();
    let instructions = result.store.find("sum#cpu.instructions").unwrap();
    let rec = &result.records.row(0);
    // 10 x 1000 ns at 1 GHz / IPC 1 -> 10000 instructions; 10 us total.
    assert_eq!(rec.get(us.id()).unwrap().to_f64(), Some(10.0));
    assert_eq!(rec.get(instructions.id()).unwrap().to_u64(), Some(10_000));
}

#[test]
fn canonical_rendering_survives_the_full_pipeline() {
    // Render a parsed query to text, re-parse, run both against the
    // same data: identical output.
    let ds = profile_with_durations();
    let original = "AGGREGATE count, sum(time.duration) AS total \
                    WHERE kernel != idle GROUP BY kernel ORDER BY total desc";
    let spec = parse_query(original).unwrap();
    let rendered = spec.to_string();
    let a = run_query(&ds, original).unwrap().render();
    let b = run_query(&ds, &rendered).unwrap().render();
    assert_eq!(a, b, "canonical form '{rendered}' diverged");
}

#[test]
fn report_service_prints_profile_at_exit() {
    let config = Config::event_aggregate("kernel", "count,sum(time.duration)")
        .set("services", "event,timer,aggregate,report")
        .set(
            "report.config",
            "AGGREGATE sum(sum#time.duration) AS time WHERE kernel \
             GROUP BY kernel ORDER BY time desc",
        );
    let caliper = Caliper::with_clock(config, Clock::virtual_clock());
    let kernel = caliper.region_attribute("kernel");
    let mut scope = caliper.make_thread_scope();
    for (name, us) in [("fast", 1u64), ("slow", 100)] {
        scope.begin(&kernel, name);
        scope.advance_time(us * 1_000);
        scope.end(&kernel).unwrap();
    }
    scope.flush();
    let report = caliper.report().unwrap();
    let slow_line = report.lines().position(|l| l.contains("slow")).unwrap();
    let fast_line = report.lines().position(|l| l.contains("fast")).unwrap();
    assert!(slow_line < fast_line, "{report}");
}
