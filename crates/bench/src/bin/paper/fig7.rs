//! Figure 7: time distribution for computational kernels and MPI
//! functions across MPI ranks (§VI-D).
//!
//! The paper's scheme, verbatim:
//! `AGGREGATE time.duration GROUP BY kernel, mpi.function, mpi.rank` —
//! including the rank in the aggregation key exposes load (im)balance.
//! The figure shows the distribution (across ranks) of: total
//! computation time, total MPI time, the top two MPI functions, and
//! the top two computational kernels.

use caliper_bench::{five_num, merge_datasets, Claim};
use caliper_format::Dataset;
use caliper_query::run_query;
use caliper_runtime::Config;
use miniapps::{CleverLeaf, CleverLeafParams};

use cali_cli::CliArgs;

/// Per-rank seconds of `sum#sum#time.duration` under `filter`.
fn per_rank_seconds(merged: &Dataset, filter: &str) -> Vec<f64> {
    let query = format!("AGGREGATE sum(sum#time.duration) WHERE {filter} GROUP BY mpi.rank");
    let result = run_query(merged, &query).expect("figure 7 query");
    let rank = result.store.find("mpi.rank").expect("mpi.rank column");
    let value = result.store.find("sum#sum#time.duration").expect("value column");
    result
        .records
        .iter()
        .filter_map(|r| {
            r.get(rank.id())?.to_i64()?; // a row without a rank is no rank's
            Some(r.get(value.id())?.to_f64()? / 1e6)
        })
        .collect()
}

/// The two names of `attr` with the most time overall.
fn top2(merged: &Dataset, attr: &str) -> Vec<String> {
    let query = format!(
        "AGGREGATE sum(sum#time.duration) WHERE {attr} GROUP BY {attr} \
         ORDER BY sum#sum#time.duration desc"
    );
    let result = run_query(merged, &query).expect("top query");
    let col = result.store.find(attr).unwrap();
    result
        .records
        .iter()
        .take(2)
        .filter_map(|r| Some(r.get(col.id())?.to_string()))
        .collect()
}

pub fn run(args: &CliArgs) -> Vec<Claim> {
    let params = crate::clever_leaf(args, CleverLeafParams::case_study(), 6);
    eprintln!(
        "# Figure 7 reproduction: per-rank time distributions, {} ranks",
        params.ranks
    );
    let app = CleverLeaf::new(params);

    // On-line: the paper's §VI-D aggregation scheme.
    let config = Config::event_aggregate("kernel,mpi.function,mpi.rank", "sum(time.duration)");
    let merged = merge_datasets(&app.run_all(&config));

    // Category -> per-rank totals (seconds).
    let mut categories = vec![
        ("computation (total)".to_string(), per_rank_seconds(&merged, "not(mpi.function)")),
        ("MPI (total)".to_string(), per_rank_seconds(&merged, "mpi.function")),
    ];
    for attr in ["mpi.function", "kernel"] {
        for name in top2(&merged, attr) {
            let seconds = per_rank_seconds(&merged, &format!("{attr}={name}"));
            categories.push((name, seconds));
        }
    }

    println!("category,min_s,q1_s,median_s,q3_s,max_s,imbalance_pct");
    eprintln!();
    let mut spreads = Vec::new();
    for (name, values) in &categories {
        let f = five_num(values);
        let imbalance = if f.median > 0.0 {
            100.0 * (f.max - f.min) / f.median
        } else {
            0.0
        };
        println!(
            "{name},{:.4},{:.4},{:.4},{:.4},{:.4},{:.1}",
            f.min, f.q1, f.median, f.q3, f.max, imbalance
        );
        eprintln!(
            "# {name:<22} min {:.3} q1 {:.3} med {:.3} q3 {:.3} max {:.3}  spread {:.1}%",
            f.min, f.q1, f.median, f.q3, f.max, imbalance
        );
        spreads.push(f.max - f.min);
    }

    let (comp, mpi) = (spreads[0], spreads[1]);
    let mut claims = vec![Claim::advisory(format!(
        "small but present computation imbalance, mirrored in MPI time: \
         computation spread {comp:.3} s, MPI spread {mpi:.3} s"
    ))];
    let kernels = "top-2 kernel imbalance is less than half of the computation imbalance";
    claims.push(if categories.len() == 6 {
        let top2 = spreads[4] + spreads[5];
        Claim::gate(
            top2 < 0.5 * comp,
            format!(
                "{kernels}: {} + {} account for {:.0}% (paper: less than half, pointing at imbalance elsewhere)",
                categories[4].0,
                categories[5].0,
                100.0 * top2 / comp
            ),
        )
    } else {
        Claim::not_applicable(format!("{kernels}: fewer than two MPI functions and two kernels"))
    });
    claims
}
