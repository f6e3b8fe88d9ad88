//! Figure 3: on-line aggregation overheads with different aggregation
//! schemes in sampled and event-based collection modes, compared to
//! tracing and a baseline without data collection.
//!
//! The paper measures wall-clock runtime of the instrumented CleverLeaf
//! (100 timesteps, 36 ranks, 5 runs per configuration). Here the ranks
//! run sequentially with *real* spinning work (scaled down), so the
//! measured per-snapshot processing overheads are genuine wall-clock
//! costs — only the compute they perturb is scaled. Every claim is
//! wall-clock, so none is gated.

use caliper_bench::{five_num, schemes, Claim, FiveNum};
use caliper_runtime::Config;
use miniapps::{CleverLeaf, CleverLeafParams};

use cali_cli::CliArgs;

struct Row {
    name: &'static str,
    seconds: Vec<f64>,
    snapshots: u64,
    outputs: usize,
}

pub fn run(args: &CliArgs) -> Vec<Claim> {
    let quick = args.has(&["quick"]);
    let runs: usize = crate::flag(args, "runs").unwrap_or(if quick { 2 } else { 5 });
    // The scale factor trades run length against overhead resolution:
    // larger scale = more real compute per snapshot = smaller (more
    // paper-like) overhead percentages. The default keeps a full fig3
    // run around 2-3 minutes on one core; pass `--scale 0.1` for
    // overhead percentages directly comparable to the paper's ~1-3%.
    let scale = crate::flag(args, "scale").unwrap_or(if quick { 0.02 } else { 0.05 });
    let params = CleverLeafParams {
        timesteps: if quick { 10 } else { 25 },
        ranks: 4, // sequential on one core; the paper used 36 in parallel
        ..CleverLeafParams::overhead_study()
    };
    eprintln!(
        "# Figure 3 reproduction: {} timesteps, {} sequential ranks, work scale {scale}, {runs} runs",
        params.timesteps, params.ranks
    );
    let app = CleverLeaf::new(params);

    let sample_ns = 10_000_000;
    let configs: Vec<(&'static str, Config)> = vec![
        ("baseline", Config::baseline()),
        ("trace (sample)", Config::sampled_trace(sample_ns)),
        ("scheme A (sample)", Config::sampled_aggregate(sample_ns, schemes::A, schemes::OPS)),
        ("scheme B (sample)", Config::sampled_aggregate(sample_ns, schemes::B, schemes::OPS)),
        ("scheme C (sample)", Config::sampled_aggregate(sample_ns, schemes::C, schemes::OPS)),
        ("trace (event)", Config::event_trace()),
        ("scheme A (event)", Config::event_aggregate(schemes::A, schemes::OPS)),
        ("scheme B (event)", Config::event_aggregate(schemes::B, schemes::OPS)),
        ("scheme C (event)", Config::event_aggregate(schemes::C, schemes::OPS)),
    ];

    let mut rows: Vec<Row> = configs
        .iter()
        .map(|(name, _)| Row { name, seconds: Vec::new(), snapshots: 0, outputs: 0 })
        .collect();
    // Interleave configurations round-robin (one full round per run) so
    // slow machine drift — CPU frequency, noisy neighbours — affects
    // every configuration equally rather than biasing whichever config
    // happened to run during a calm window. The first round is a
    // discarded warmup.
    for round in 0..=runs {
        for (row, (name, config)) in rows.iter_mut().zip(&configs) {
            let (mut total, mut snaps, mut outs) = (0.0, 0, 0);
            // Run all ranks back to back, like one node-filling job.
            for rank in 0..app.params.ranks {
                let (ds, secs, s) = app.run_rank_timed(rank, config, scale);
                total += secs;
                snaps += s;
                outs += ds.len();
            }
            if round == 0 {
                eprintln!("# warmup {name:<18} {total:.3} s");
            } else {
                row.seconds.push(total);
                row.snapshots = snaps / app.params.ranks as u64;
                row.outputs = outs / app.params.ranks;
            }
        }
    }
    let summary: Vec<FiveNum> = rows.iter().map(|r| five_num(&r.seconds)).collect();
    for (row, s) in rows.iter().zip(&summary) {
        eprintln!(
            "# {:<18} median {:.3} s  (min {:.3}, max {:.3})  snapshots/proc {}  outputs/proc {}",
            row.name, s.median, s.min, s.max, row.snapshots, row.outputs
        );
    }

    let baseline = summary[0].median;
    let overhead = |s: &FiveNum| 100.0 * (s.median - baseline) / baseline;
    println!("config,median_s,min_s,max_s,overhead_pct,snapshots_per_proc,outputs_per_proc");
    for (row, s) in rows.iter().zip(&summary) {
        println!(
            "{},{:.6},{:.6},{:.6},{:.2},{},{}",
            row.name,
            s.median,
            s.min,
            s.max,
            overhead(s),
            row.snapshots,
            row.outputs
        );
    }

    let ov = |n: &str| overhead(&summary[rows.iter().position(|r| r.name == n).unwrap()]);
    vec![
        Claim::advisory(format!(
            "sampling overhead is small: trace {:.2}%, scheme A {:.2}% (paper: ~0.85%)",
            ov("trace (sample)"),
            ov("scheme A (sample)")
        )),
        Claim::advisory(format!(
            "event overheads exceed sampling: scheme A {:.2}% vs {:.2}% (paper: 2-3.3% vs ~0.85%)",
            ov("scheme A (event)"),
            ov("scheme A (sample)")
        )),
        Claim::advisory(format!(
            "event trace is cheaper than event aggregation: {:.2}% vs A {:.2}% / B {:.2}% (paper: tracing slightly lower)",
            ov("trace (event)"),
            ov("scheme A (event)"),
            ov("scheme B (event)")
        )),
        Claim::advisory(format!(
            "scheme C is the most expensive aggregation: {:.2}% (paper: noticeably higher than A/B)",
            ov("scheme C (event)")
        )),
    ]
}
