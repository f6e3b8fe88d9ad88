//! Multiple simultaneous aggregation schemes over one run.
//!
//! §VI-F of the paper: "All experiments ran with the same program
//! executable using the same instrumentation annotations, we only
//! changed the aggregation schemes." Channels take this one step
//! further: several schemes observe a *single* execution — here a
//! low-overhead sampled kernel profile, a detailed per-iteration
//! profile, and a full trace, collected side by side.
//!
//! Run with: `cargo run --release --example multichannel`

use caliper_repro::prelude::*;

fn main() {
    // Channel 1 (default): sampled kernel profile, 10 ms period.
    let caliper = Caliper::with_clock(
        Config::sampled_aggregate(10_000_000, "kernel", "count"),
        Clock::virtual_clock(),
    );
    // Channel 2: detailed event-triggered per-iteration profile.
    let detailed = caliper.create_channel(
        "detailed",
        Config::event_aggregate(
            "kernel,iteration#mainloop",
            "count,sum(time.duration),max(time.duration)",
        ),
    );
    // Channel 3: full event trace.
    let trace_channel = caliper.create_channel("trace", Config::event_trace());

    // One instrumented run.
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 20,
        ranks: 1,
        ..CleverLeafParams::case_study()
    });
    app.run_rank(0, &caliper, WorkMode::Virtual);

    let sampled = caliper.take_dataset();
    let per_iter = detailed.take_dataset();
    let trace = trace_channel.take_dataset();

    println!("one run, three simultaneous profiles:");
    println!("  sampled profile : {:>6} records", sampled.len());
    println!("  detailed profile: {:>6} records", per_iter.len());
    println!("  full trace      : {:>6} records\n", trace.len());

    println!("== sampled kernel profile (channel 1) ==\n");
    let result = run_query(
        &sampled,
        "AGGREGATE sum(aggregate.count) AS samples WHERE kernel \
         GROUP BY kernel ORDER BY samples desc LIMIT 5",
    )
    .expect("sampled query");
    println!("{}", result.render());

    println!("== calc-dt time per iteration, first 5 (channel 2) ==\n");
    let result = run_query(
        &per_iter,
        "AGGREGATE sum(sum#time.duration) AS time_us \
         WHERE kernel=calc-dt, iteration#mainloop < 5 \
         GROUP BY iteration#mainloop ORDER BY iteration#mainloop",
    )
    .expect("detailed query");
    println!("{}", result.render());

    println!("== trace re-aggregated off-line agrees with channel 2 ==\n");
    let from_trace = run_query(
        &trace,
        "AGGREGATE sum(time.duration) AS time_us \
         WHERE kernel=calc-dt, iteration#mainloop < 5 \
         GROUP BY iteration#mainloop ORDER BY iteration#mainloop",
    )
    .expect("trace query");
    println!("{}", from_trace.render());
    assert_eq!(
        result.to_table(),
        from_trace.to_table(),
        "on-line and off-line aggregation must agree"
    );
    println!("(identical — §VI-F: multiple ways to obtain the same end result)");
}
