//! Runs the built `ablations --quick`: the header, the eleven
//! `(ablation, variant)` rows in order, and a positive time in each.
//! (Which variant wins is a measurement, recorded in
//! `results/ablations.csv`; it is not asserted on a shared test machine.)

use std::process::Command;

const ROWS: [(&str, &str); 11] = [
    ("context_tree", "node_ref"),
    ("context_tree", "flat_copy"),
    ("key_hash", "fxhash"),
    ("key_hash", "siphash"),
    ("agg_concurrency", "per_thread_dbs"),
    ("agg_concurrency", "shared_locked_db"),
    ("stream_vs_trace", "stream"),
    ("stream_vs_trace", "trace_then_aggregate"),
    ("selective_where", "v1_scan"),
    ("selective_where", "v2_scan"),
    ("selective_where", "v2_pushdown"),
];

#[test]
fn quick_run_prints_the_eleven_rows() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .arg("--quick")
        .output()
        .expect("spawn ablations");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "ablations --quick failed: {stderr}");
    assert!(
        stderr.contains("core(s)"),
        "agg_concurrency names no core count: {stderr}"
    );

    let stdout = String::from_utf8(out.stdout).expect("utf-8 csv");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("ablation,variant,ns_per_op"));
    let rows: Vec<Vec<&str>> = lines.map(|line| line.split(',').collect()).collect();
    assert_eq!(rows.len(), ROWS.len(), "{stdout}");
    for (row, (ablation, variant)) in rows.iter().zip(ROWS) {
        assert_eq!(row[..2], [ablation, variant], "{stdout}");
        let ns: f64 = row[2]
            .parse()
            .unwrap_or_else(|_| panic!("not a number: {row:?}"));
        assert!(ns > 0.0, "{row:?}");
    }
}
