//! End-to-end reproduction of the paper's Listing 1 / §III-B example,
//! asserting the exact numbers of the published result table.

use caliper_repro::prelude::*;

/// Run the Listing 1 program under a config; `foo` runs 10 + 30 time
/// units, `bar` 10, per iteration, 4 iterations.
fn run_listing1(config: Config) -> Dataset {
    let caliper = Caliper::with_clock(config, Clock::virtual_clock());
    let function = Annotation::new(&caliper, "function");
    let iteration = Annotation::value_attribute(&caliper, "loop.iteration");
    let mut scope = caliper.make_thread_scope();
    for i in 0..4i64 {
        iteration.begin(&mut scope, i);
        for (name, units) in [("foo", 10u64), ("foo", 30), ("bar", 10)] {
            function.begin(&mut scope, name);
            scope.advance_time(units * 1_000);
            function.end(&mut scope);
        }
        iteration.end(&mut scope);
    }
    scope.flush();
    caliper.take_dataset()
}

fn cell(result: &QueryResult, function: Option<&str>, iteration: i64, column: &str) -> Option<f64> {
    let f = result.store.find("function")?;
    let i = result.store.find("loop.iteration")?;
    let c = result.store.find(column)?;
    result
        .records
        .iter()
        .find(|r| {
            let func_matches = match function {
                Some(name) => r.get(f.id()) == Some(&Value::str(name)),
                None => !r.contains(f.id()),
            };
            func_matches && r.get(i.id()) == Some(&Value::Int(iteration))
        })
        .and_then(|r| r.get(c.id())?.to_f64())
}

#[test]
fn paper_table_values_from_online_aggregation() {
    let profile = run_listing1(Config::event_aggregate(
        "function,loop.iteration",
        "count,sum(time.duration)",
    ));
    let result = run_query(&profile, "SELECT *").unwrap();

    for iteration in 0..4 {
        // The paper's table: foo has sum#time 40 in each iteration, bar 10.
        assert_eq!(
            cell(&result, Some("foo"), iteration, "sum#time.duration"),
            Some(40.0),
            "foo time in iteration {iteration}"
        );
        assert_eq!(
            cell(&result, Some("foo"), iteration, "aggregate.count"),
            Some(2.0)
        );
        assert_eq!(
            cell(&result, Some("bar"), iteration, "sum#time.duration"),
            Some(10.0)
        );
        assert_eq!(
            cell(&result, Some("bar"), iteration, "aggregate.count"),
            Some(1.0)
        );
        // "the result includes separate entries for events where only
        // one or none of the key attributes were set": begin-events
        // carry the iteration but no function yet.
        assert!(cell(&result, None, iteration, "aggregate.count").is_some());
    }
}

#[test]
fn collapsing_the_key_matches_the_paper() {
    // §III-B second scheme: remove loop.iteration from the key.
    let profile = run_listing1(Config::event_aggregate(
        "function",
        "count,sum(time.duration)",
    ));
    let result = run_query(&profile, "SELECT *").unwrap();
    let f = result.store.find("function").unwrap();
    let sum = result.store.find("sum#time.duration").unwrap();
    let foo = result
        .records
        .iter()
        .find(|r| r.get(f.id()) == Some(&Value::str("foo")))
        .unwrap();
    assert_eq!(foo.get(sum.id()).unwrap().to_f64(), Some(160.0)); // 4 x 40
    let bar = result
        .records
        .iter()
        .find(|r| r.get(f.id()) == Some(&Value::str("bar")))
        .unwrap();
    assert_eq!(bar.get(sum.id()).unwrap().to_f64(), Some(40.0)); // 4 x 10
}

#[test]
fn offline_requery_over_trace_gives_the_same_table() {
    // §VI-F: "the combination of on-line and off-line aggregation
    // leaves multiple ways to obtain the same end result" — aggregate
    // the full trace off-line instead.
    let trace = run_listing1(Config::event_trace());
    let result = run_query(
        &trace,
        "AGGREGATE count, sum(time.duration) GROUP BY function, loop.iteration",
    )
    .unwrap();
    let f = result.store.find("function").unwrap();
    let i = result.store.find("loop.iteration").unwrap();
    let sum = result.store.find("sum#time.duration").unwrap();
    let foo2 = result
        .records
        .iter()
        .find(|r| {
            r.get(f.id()) == Some(&Value::str("foo")) && r.get(i.id()) == Some(&Value::Int(2))
        })
        .unwrap();
    assert_eq!(foo2.get(sum.id()).unwrap().to_f64(), Some(40.0));
}

#[test]
fn online_and_offline_paths_agree() {
    // The same end result through both paths, numerically identical.
    let online_profile = run_listing1(Config::event_aggregate(
        "function,loop.iteration",
        "sum(time.duration)",
    ));
    let online = run_query(
        &online_profile,
        "AGGREGATE sum(sum#time.duration) AS t WHERE function GROUP BY function ORDER BY function",
    )
    .unwrap();

    let trace = run_listing1(Config::event_trace());
    let offline = run_query(
        &trace,
        "AGGREGATE sum(time.duration) AS t WHERE function GROUP BY function ORDER BY function",
    )
    .unwrap();

    assert_eq!(online.to_table(), offline.to_table());
}
