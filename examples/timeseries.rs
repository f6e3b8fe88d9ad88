//! Time-series analysis over a trace: the `time.offset` timestamps plus
//! `LET truncate(...)` binning turn a raw event trace into a
//! phase-over-time profile — the "entire space between full traces and
//! a scalar value" the paper's introduction promises, navigated after
//! the fact with queries alone.
//!
//! Run with: `cargo run --example timeseries`

use caliper_repro::prelude::*;

fn main() {
    // Trace with per-snapshot timestamps (timer.offset).
    let config = Config::event_trace().set("timer.offset", "true");
    let caliper = Caliper::with_clock(config, Clock::virtual_clock());
    let phase = caliper.region_attribute("phase");

    // A program whose phase mix shifts over time: compute shrinks,
    // communication grows.
    let mut scope = caliper.make_thread_scope();
    for step in 0..200u64 {
        scope.begin(&phase, "compute");
        scope.advance_time(1_000_000_u64.saturating_sub(step * 4_000));
        scope.end(&phase).unwrap();
        scope.begin(&phase, "communicate");
        scope.advance_time(100_000 + step * 4_000);
        scope.end(&phase).unwrap();
    }
    scope.flush();
    let trace = caliper.take_dataset();
    println!("trace: {} records\n", trace.len());

    // Bin the trace into 20 ms windows and compare phase shares.
    println!("== phase time per 20 ms window (first 8 windows) ==\n");
    let result = run_query(
        &trace,
        "LET window.ms = scale(time.offset, 0.001), window = truncate(window.ms, 20) \
         AGGREGATE sum(time.duration) AS us WHERE phase \
         GROUP BY window, phase \
         ORDER BY window, phase \
         LIMIT 16",
    )
    .expect("window query");
    println!("{}", result.render());

    // The crossover: when does communication overtake compute?
    let per_window = run_query(
        &trace,
        "LET window.ms = scale(time.offset, 0.001), window = truncate(window.ms, 20) \
         AGGREGATE sum(time.duration) AS us WHERE phase \
         GROUP BY window, phase ORDER BY window",
    )
    .expect("crossover query");
    let window = per_window.store.find("window").unwrap();
    let phase_attr = per_window.store.find("phase").unwrap();
    let us = per_window.store.find("us").unwrap();
    let mut crossover = None;
    let mut windows: std::collections::BTreeMap<i64, (f64, f64)> = Default::default();
    for rec in per_window.records.iter() {
        let (Some(w), Some(p), Some(v)) = (
            rec.get(window.id()).and_then(|v| v.to_f64()),
            rec.get(phase_attr.id()),
            rec.get(us.id()).and_then(|v| v.to_f64()),
        ) else {
            continue;
        };
        let entry = windows.entry(w as i64).or_default();
        if p == &Value::str("compute") {
            entry.0 = v;
        } else {
            entry.1 = v;
        }
    }
    for (w, (compute, comm)) in &windows {
        if comm > compute && crossover.is_none() {
            crossover = Some(*w);
        }
    }
    match crossover {
        Some(w) => println!("communication overtakes compute in the {w} ms window"),
        None => println!("no crossover within the traced interval"),
    }
}
