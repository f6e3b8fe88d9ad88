//! Figure 6: MPI function profile of CleverLeaf (§VI-C).
//!
//! The paper's scheme, verbatim: intercept MPI calls and aggregate
//! `AGGREGATE count, time.duration GROUP BY mpi.function` on-line, then
//! sum across processes off-line and report the top 10 MPI functions by
//! accumulated CPU time.

use caliper_bench::{bar_chart, merge_datasets, result_pairs, Claim};
use caliper_query::run_query;
use caliper_runtime::Config;
use miniapps::{CleverLeaf, CleverLeafParams};

use cali_cli::CliArgs;

pub fn run(args: &CliArgs) -> Vec<Claim> {
    let params = crate::clever_leaf(args, CleverLeafParams::case_study(), 4);
    eprintln!(
        "# Figure 6 reproduction: CleverLeaf, {} ranks, MPI interception via the wrapper hooks",
        params.ranks
    );
    let app = CleverLeaf::new(params);

    let config = Config::event_aggregate("mpi.function", "count,sum(time.duration)");
    let merged = merge_datasets(&app.run_all(&config));
    let result = run_query(
        &merged,
        "AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
         WHERE mpi.function \
         GROUP BY mpi.function \
         ORDER BY sum#sum#time.duration desc",
    )
    .expect("figure 6 query");

    let time_rows = result_pairs(&result, "mpi.function", "sum#sum#time.duration");
    let count_rows = result_pairs(&result, "mpi.function", "sum#aggregate.count");

    println!("mpi_function,total_time_us,calls");
    for ((name, time_us), (_, calls)) in time_rows.iter().zip(&count_rows).take(10) {
        println!("{name},{time_us:.1},{calls}");
    }

    eprintln!();
    let top10: Vec<(String, f64)> = time_rows
        .iter()
        .take(10)
        .map(|(n, v)| (n.clone(), v / 1e6))
        .collect();
    eprint!("{}", bar_chart(&top10, 50));
    eprintln!("# (bars in seconds of accumulated CPU time)");
    let name = |i: usize| time_rows.get(i).map_or("(none)", |(n, _)| n.as_str());
    let barrier = time_rows.first().map(|(_, v)| *v).unwrap_or(0.0);
    let p2p: f64 = time_rows
        .iter()
        .filter(|(n, _)| n == "MPI_Isend" || n == "MPI_Irecv" || n == "MPI_Waitall")
        .map(|(_, v)| v)
        .sum();
    vec![
        Claim::gate(
            (name(0), name(1)) == ("MPI_Barrier", "MPI_Allreduce"),
            format!(
                "top two functions are MPI_Barrier and MPI_Allreduce: {}, {}",
                name(0),
                name(1)
            ),
        ),
        Claim::advisory(format!(
            "point-to-point time is comparatively small: {:.1}% of barrier time",
            100.0 * p2p / barrier
        )),
    ]
}
