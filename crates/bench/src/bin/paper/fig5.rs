//! Figure 5: profile of user-annotated computational kernels in
//! CleverLeaf (§VI-B).
//!
//! The paper's two-stage scheme, verbatim:
//!
//! * on-line, 100 Hz sampling: `AGGREGATE count GROUP BY kernel`
//! * off-line, across processes: `AGGREGATE sum(aggregate.count)
//!   GROUP BY kernel`
//!
//! CPU time is estimated from the sample counts (10 ms per sample).

use caliper_bench::{bar_chart, merge_datasets, result_pairs, Claim};
use caliper_query::run_query;
use caliper_runtime::Config;
use miniapps::{CleverLeaf, CleverLeafParams};

use cali_cli::CliArgs;

const OTHER: &str = "(other/unannotated)";

pub fn run(args: &CliArgs) -> Vec<Claim> {
    let params = crate::clever_leaf(args, CleverLeafParams::case_study(), 4);
    eprintln!(
        "# Figure 5 reproduction: CleverLeaf triple point {}x{}, {} levels, {} ranks, 100 Hz sampling",
        params.coarse.0, params.coarse.1, params.levels, params.ranks
    );
    let app = CleverLeaf::new(params);

    // Stage 1: on-line sampled aggregation, per process.
    let config = Config::sampled_aggregate(10_000_000, "kernel", "count");
    let datasets = app.run_all(&config);

    // Stage 2: off-line cross-process aggregation.
    let merged = merge_datasets(&datasets);
    let result = run_query(
        &merged,
        "AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY sum#aggregate.count desc",
    )
    .expect("figure 5 query");

    let mut rows = result_pairs(&result, "kernel", "sum#aggregate.count");
    // Samples outside any annotated kernel appear with an empty kernel
    // key; label them like the paper's figure does.
    for (label, _) in &mut rows {
        if label.is_empty() {
            *label = OTHER.to_string();
        }
    }

    println!("kernel,samples,est_cpu_seconds");
    for (kernel, samples) in &rows {
        println!("{kernel},{samples},{:.2}", samples * 0.01);
    }

    eprintln!();
    eprint!("{}", bar_chart(&rows, 50));
    let get = |k: &str| rows.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap_or(0.0);
    let (other, calc_dt) = (get(OTHER), get("calc-dt"));
    let rest = || rows.iter().filter(|(n, _)| n != OTHER && n != "calc-dt").map(|(_, v)| *v);
    let kernels = calc_dt + rest().sum::<f64>();
    let next = rest().fold(0.0, f64::max);
    vec![
        Claim::gate(
            other > kernels,
            format!("most samples fall outside annotated kernels: other={other} vs all kernels={kernels}"),
        ),
        Claim::gate(
            calc_dt > next,
            format!("calc-dt dominates the annotated kernels: {calc_dt} vs next {next:.0}"),
        ),
    ]
}
