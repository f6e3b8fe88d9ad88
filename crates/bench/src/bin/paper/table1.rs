//! Table I: number of snapshots and output records (aggregation
//! results) per process, for tracing and aggregation schemes A/B/C in
//! sampled and event-triggered collection modes.
//!
//! Paper setup (§V-B): instrumented CleverLeaf, 100 timesteps, 36 MPI
//! ranks, 7 attributes; sampling period 10 ms.

use caliper_bench::{schemes, Claim};
use caliper_runtime::{Caliper, Clock, Config};
use miniapps::{CleverLeaf, CleverLeafParams, WorkMode};

use cali_cli::CliArgs;

pub fn run(args: &CliArgs) -> Vec<Claim> {
    let params = crate::clever_leaf(args, CleverLeafParams::overhead_study(), 8);
    eprintln!(
        "# Table I reproduction: CleverLeaf {} timesteps, {} ranks, 10 ms sampling",
        params.timesteps, params.ranks
    );
    let app = CleverLeaf::new(params);

    let sample_ns = 10_000_000; // 10 ms, as in the paper
    let rows = [
        ("Trace (sample)", Config::sampled_trace(sample_ns)),
        (
            "Scheme A (sample)",
            Config::sampled_aggregate(sample_ns, schemes::A, schemes::OPS),
        ),
        (
            "Scheme B (sample)",
            Config::sampled_aggregate(sample_ns, schemes::B, schemes::OPS),
        ),
        (
            "Scheme C (sample)",
            Config::sampled_aggregate(sample_ns, schemes::C, schemes::OPS),
        ),
        ("Trace (event)", Config::event_trace()),
        (
            "Scheme A (event)",
            Config::event_aggregate(schemes::A, schemes::OPS),
        ),
        (
            "Scheme B (event)",
            Config::event_aggregate(schemes::B, schemes::OPS),
        ),
        (
            "Scheme C (event)",
            Config::event_aggregate(schemes::C, schemes::OPS),
        ),
    ];

    println!("config,snapshots,output_records");
    let mut results = Vec::new();
    for (name, config) in rows {
        // Per-process numbers: all ranks behave alike up to imbalance
        // noise, so report rank 0 (the paper reports one number per
        // process, too).
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        app.run_rank(0, &caliper, WorkMode::Virtual);
        let (snapshots, outputs) = (
            caliper.total_snapshots(),
            caliper.take_dataset().len() as u64,
        );
        println!("{name},{snapshots},{outputs}");
        results.push((name, snapshots, outputs));
    }

    eprintln!();
    eprintln!(
        "# {:<20} {:>10} {:>15}",
        "Config", "Snapshots", "Output records"
    );
    for (name, snapshots, outputs) in &results {
        eprintln!("# {name:<20} {snapshots:>10} {outputs:>15}");
    }
    let get = |n: &str| *results.iter().find(|(name, _, _)| *name == n).unwrap();
    let (_, trace_snapshots, trace) = get("Trace (event)");
    let (a, b, c) = (
        get("Scheme A (event)").2,
        get("Scheme B (event)").2,
        get("Scheme C (event)").2,
    );
    vec![
        Claim::gate(
            trace == trace_snapshots,
            format!("event trace outputs equal its snapshots: {trace} vs {trace_snapshots} (paper: 219382 == 219382)"),
        ),
        Claim::gate(
            c > a && a > b,
            format!("event outputs order C > A > B: {c} > {a} > {b} (paper: 6749 > 266 > 26)"),
        ),
        Claim::advisory(format!(
            "scheme C profile is {:.1}x smaller than the event trace (paper: 32x)",
            trace as f64 / c.max(1) as f64
        )),
    ]
}
