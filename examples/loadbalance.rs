//! Load-balance study (§VI-D): include `mpi.rank` in the aggregation
//! key to compare values across processes.
//!
//! Shows the paper's scheme
//!
//! ```text
//! AGGREGATE time.duration
//! GROUP BY kernel, mpi.function, mpi.rank
//! ```
//!
//! and prints per-rank computation vs. MPI time plus a simple imbalance
//! metric (max/avg) per category.
//!
//! Run with: `cargo run --release --example loadbalance`

use caliper_repro::prelude::*;

fn main() {
    let params = CleverLeafParams {
        timesteps: 25,
        ranks: 8,
        ..CleverLeafParams::case_study()
    };
    let config = Config::event_aggregate("kernel,mpi.function,mpi.rank", "sum(time.duration)");
    eprintln!(
        "running CleverLeaf proxy: {} ranks, {} timesteps ...",
        params.ranks, params.timesteps
    );
    let app = CleverLeaf::new(params.clone());
    let per_rank = app.run_all(&config);

    let mut merged = Dataset::new();
    for ds in &per_rank {
        let bytes = cali::to_bytes(ds);
        let mut reader = caliper_repro::format::CaliReader::into_dataset(merged);
        reader
            .read_stream(std::io::BufReader::new(&bytes[..]))
            .expect("merge");
        merged = reader.finish();
    }

    // Per-rank computation and communication time.
    println!("== per-rank computation vs. MPI time (seconds) ==\n");
    let comp = run_query(
        &merged,
        "LET s = scale(sum#time.duration, 0.000001) \
         AGGREGATE sum(s) AS compute_s WHERE not(mpi.function) GROUP BY mpi.rank",
    )
    .expect("computation query");
    let mpi = run_query(
        &merged,
        "LET s = scale(sum#time.duration, 0.000001) \
         AGGREGATE sum(s) AS mpi_s WHERE mpi.function GROUP BY mpi.rank",
    )
    .expect("mpi query");

    println!("rank   compute_s   mpi_s");
    let mut compute = vec![0.0f64; params.ranks];
    let mut comm = vec![0.0f64; params.ranks];
    for rank in 0..params.ranks {
        let by_rank = |result: &QueryResult, col: &str| -> f64 {
            let r = result.store.find("mpi.rank").unwrap();
            let v = result.store.find(col).unwrap();
            result
                .records
                .iter()
                .find(|rec| rec.get(r.id()).and_then(|v| v.to_i64()) == Some(rank as i64))
                .and_then(|rec| rec.get(v.id())?.to_f64())
                .unwrap_or(0.0)
        };
        compute[rank] = by_rank(&comp, "compute_s");
        comm[rank] = by_rank(&mpi, "mpi_s");
        println!("{rank:>4}   {:>9.3}   {:>5.3}", compute[rank], comm[rank]);
    }

    let imbalance = |v: &[f64]| {
        let max = v.iter().copied().fold(0.0, f64::max);
        let avg = v.iter().sum::<f64>() / v.len() as f64;
        max / avg
    };
    println!();
    println!("computation imbalance (max/avg): {:.3}", imbalance(&compute));
    println!("MPI-time imbalance     (max/avg): {:.3}", imbalance(&comm));
    println!();
    println!("note: ranks with less computation wait longer in MPI_Barrier —");
    println!("computation imbalance reappears as MPI time (Figure 7).");

    // Per-kernel spread across ranks, the paper's drill-down.
    println!("\n== top kernels: time spread across ranks ==\n");
    let result = run_query(
        &merged,
        "LET s = scale(sum#time.duration, 0.000001) \
         AGGREGATE sum(s) AS time_s, min(s), max(s) \
         WHERE kernel GROUP BY kernel, mpi.rank",
    )
    .expect("kernel query");
    let kernel_attr = result.store.find("kernel").unwrap();
    let time_attr = result.store.find("time_s").unwrap();
    let mut per_kernel: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for rec in result.records.iter() {
        if let (Some(k), Some(t)) = (rec.get(kernel_attr.id()), rec.get(time_attr.id())) {
            per_kernel
                .entry(k.to_string())
                .or_default()
                .push(t.to_f64().unwrap_or(0.0));
        }
    }
    let mut rows: Vec<(String, f64, f64, f64)> = per_kernel
        .into_iter()
        .map(|(k, v)| {
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(0.0, f64::max);
            let avg = v.iter().sum::<f64>() / v.len() as f64;
            (k, min, avg, max)
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    println!("kernel        min_s    avg_s    max_s");
    for (kernel, min, avg, max) in rows.iter().take(5) {
        println!("{kernel:<12} {min:>6.3}  {avg:>7.3}  {max:>7.3}");
    }
}
