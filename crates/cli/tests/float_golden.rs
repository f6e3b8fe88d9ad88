//! The float golden: five text `.cali` files whose groups overlap
//! across files, their times non-integer doubles (a `-0.0` among them),
//! and one query over every op kind. `golden/floats/every-op.txt` was
//! written by the build that folded each file into a pipeline of its own
//! and merged it into the root key by key; the lent root must print the
//! same bytes at every worker count. A float sum folded in any other
//! order — one fold over all files, say — moves a last digit here.
//! `scripts/check.sh` runs the same comparison on the release binary.
//!
//! A rank of `mpi-caliquery` folds its files by the same fold, so one
//! rank holding all five prints the same bytes too.

use std::path::PathBuf;
use std::process::Command;

use cali_cli::parallel_query;
use caliper_query::{parallel_query_files, ParallelOptions};
use mpisim::{EventEngine, Executor, FaultPlan, ResilienceOptions, ThreadEngine, Topology};

#[test]
fn every_op_over_overlapping_files_prints_the_float_golden_at_every_thread_count() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/floats");
    let query = std::fs::read_to_string(dir.join("every-op.calql")).unwrap();
    let expected = std::fs::read(dir.join("every-op.txt")).unwrap();
    let files: Vec<PathBuf> = (0..5).map(|f| dir.join(format!("f{f}.cali"))).collect();
    for threads in ["1", "2", "3"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .args(["--no-lint", "--threads", threads, "-q", query.trim()])
            .args(&files)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == expected,
            "--threads {threads} differs from every-op.txt"
        );
    }
}

/// One rank over the five files is `cali-query`'s fold of them: the
/// same bytes as `parallel_query_files` at 1, 2 and 3 workers and as
/// the golden, on both engines and in both topologies.
#[test]
fn one_rank_over_the_float_files_prints_what_cali_query_prints() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/floats");
    let query = std::fs::read_to_string(dir.join("every-op.calql")).unwrap();
    let query = query.trim();
    let expected = String::from_utf8(std::fs::read(dir.join("every-op.txt")).unwrap()).unwrap();
    let files: Vec<PathBuf> = (0..5).map(|f| dir.join(format!("f{f}.cali"))).collect();
    for threads in [1, 2, 3] {
        let opts = ParallelOptions::with_threads(threads);
        let (result, _) = parallel_query_files(query, &files, &opts).unwrap();
        assert!(
            result.render() == expected,
            "parallel_query_files at {threads} workers"
        );
    }
    fn one_rank<E: Executor>(
        engine: &E,
        topology: Topology,
        query: &str,
        files: &[PathBuf],
    ) -> String {
        let (run, _) = parallel_query(
            engine,
            topology,
            query,
            vec![files.to_vec()],
            FaultPlan::new(),
            ResilienceOptions::default(),
            false,
        );
        run.unwrap().result.render()
    }
    for topology in [Topology::Flat, Topology::TwoLevel { ranks_per_node: 1 }] {
        for (name, out) in [
            (
                "event/1",
                one_rank(&EventEngine::with_workers(1), topology, query, &files),
            ),
            (
                "event/4",
                one_rank(&EventEngine::with_workers(4), topology, query, &files),
            ),
            ("threads", one_rank(&ThreadEngine, topology, query, &files)),
        ] {
            assert!(
                out == expected,
                "one rank, {name} {topology:?}, differs from every-op.txt"
            );
        }
    }
}

/// A group whose `t` sum is NaN gets no `percent_total`, and takes
/// nothing from the others: over the golden files plus one holding a
/// single `t=NaN` record of `k0`, the other groups keep a share each,
/// and their shares total 100.
#[test]
fn a_nan_sum_costs_only_its_own_group_its_percent_total() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/floats");
    let nan_dir = std::env::temp_dir().join(format!("float-golden-nan-{}", std::process::id()));
    std::fs::create_dir_all(&nan_dir).unwrap();
    let nan_file = nan_dir.join("nan.cali");
    let f0 = std::fs::read_to_string(dir.join("f0.cali")).unwrap();
    let header: String = f0
        .lines()
        .take_while(|l| l.starts_with("__rec=attr"))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(
        &nan_file,
        header + "__rec=ctx,attr=0,data=k0,attr=1,data=0,attr=2,data=NaN,attr=3,data=s0\n",
    )
    .unwrap();
    let mut files: Vec<PathBuf> = (0..5).map(|f| dir.join(format!("f{f}.cali"))).collect();
    files.push(nan_file);
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .args([
            "--no-lint",
            "-q",
            "AGGREGATE percent_total(t), sum(t) GROUP BY kernel ORDER BY kernel FORMAT csv",
        ])
        .args(&files)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&nan_dir).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut rows = stdout.lines();
    assert_eq!(rows.next(), Some("kernel,percent_total#t,sum#t"));
    let mut total = 0.0;
    for row in rows {
        let [kernel, share, sum] = row.split(',').collect::<Vec<_>>()[..] else {
            panic!("{row}");
        };
        if kernel == "k0" {
            assert_eq!((share, sum), ("", "NaN"), "{stdout}");
        } else {
            total += share.parse::<f64>().unwrap_or_else(|_| panic!("{stdout}"));
        }
    }
    // Five shares printed to six decimals.
    assert!((total - 100.0).abs() < 1e-5, "{total}\n{stdout}");
}
