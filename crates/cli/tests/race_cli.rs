//! Black-box tests of the `cali-race` binary and the `--analyze` /
//! `--trace` modes of `mpi-caliquery`.

use std::path::PathBuf;
use std::process::Command;

use miniapps::paradis::{self, ParaDisParams};

fn write_inputs(name: &str, ranks: usize) -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("cali-race-test-{name}-{}", std::process::id()));
    let params = ParaDisParams {
        iterations: 2,
        ..Default::default()
    };
    let paths = paradis::write_files(&params, ranks, &dir).unwrap();
    (dir, paths)
}

fn cali_race(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cali-race"))
        .args(args)
        .output()
        .expect("run cali-race");
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn reduce_certificate_is_clean_and_exit_0_on_both_topologies() {
    for extra in [&[][..], &["--nodes", "8"][..]] {
        let mut args = vec!["--ranks", "128", "--kills", "3"];
        args.extend_from_slice(extra);
        let (code, stdout, stderr) = cali_race(&args);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stdout.contains("cali-race certificate"), "{stdout}");
        assert!(
            stdout.contains("verdict: CLEAN (race-free, deadlock-free)"),
            "{stdout}"
        );
        assert!(stdout.contains("ranks:    128"), "{stdout}");
    }
}

#[test]
fn certificate_is_byte_identical_across_worker_pools() {
    let base = [
        "--ranks",
        "256",
        "--kills",
        "4",
        "--nodes",
        "16",
        "--workers",
    ];
    let mut outs = Vec::new();
    for workers in ["1", "2", "4"] {
        let mut args: Vec<&str> = base.to_vec();
        args.push(workers);
        let (code, stdout, stderr) = cali_race(&args);
        assert_eq!(code, Some(0), "{stderr}");
        outs.push(stdout);
    }
    assert_eq!(outs[0], outs[1], "workers 1 vs 2 diverged");
    assert_eq!(outs[0], outs[2], "workers 1 vs 4 diverged");
}

#[test]
fn thread_engine_certifies_reduce_on_both_topologies() {
    for extra in [&[][..], &["--nodes", "4"][..]] {
        let mut args = vec!["--engine", "threads", "--ranks", "24", "--kills", "2"];
        args.extend_from_slice(extra);
        let (code, stdout, stderr) = cali_race(&args);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(
            stdout.contains("verdict: CLEAN (race-free, deadlock-free)"),
            "{stdout}"
        );
    }
}

#[test]
fn wildcard_race_exits_2_with_m001() {
    let (code, stdout, _) = cali_race(&["--program", "wildcard-race", "--ranks", "6"]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("error[M001]"), "{stdout}");
    assert!(stdout.contains("verdict:"), "{stdout}");
}

#[test]
fn deadlock_exits_2_and_names_the_cycle() {
    let (code, stdout, _) = cali_race(&["--program", "deadlock", "--ranks", "4"]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("error[M002]"), "{stdout}");
    assert!(stdout.contains("0 -> 1 -> 2 -> 3 -> 0"), "{stdout}");
}

#[test]
fn workers_on_the_thread_engine_is_a_usage_error() {
    let (code, stdout, stderr) = cali_race(&["--engine", "threads", "--workers", "4"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with("cali-race: --workers requires --engine event\nusage: cali-race"),
        "{stderr}"
    );
}

#[test]
fn straggler_warns_and_deny_warnings_exits_1() {
    let (code, stdout, _) = cali_race(&["--program", "straggler", "--ranks", "2"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("warning[N001]"), "{stdout}");

    let (code, _, _) = cali_race(&["--program", "straggler", "--ranks", "2", "--deny-warnings"]);
    assert_eq!(code, Some(1));
}

#[test]
fn trace_dump_is_aggregatable_by_cali_query() {
    let dir = std::env::temp_dir().join(format!("cali-race-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("hb.cali");
    let (code, _, stderr) = cali_race(&["--ranks", "16", "--trace", trace.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg("AGGREGATE count() GROUP BY hb.event ORDER BY hb.event")
        .arg(&trace)
        .output()
        .expect("run cali-query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for event in ["start", "send", "match", "done"] {
        assert!(stdout.contains(event), "missing {event} rows in:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_dump_is_one_snapshot_per_event() {
    let mut trace = mpisim::HbTrace::new(2);
    let event = |kind, at_ns| mpisim::TraceEvent { kind, at_ns };
    trace.events[0].push(event(mpisim::TraceKind::Start, 0));
    trace.events[0].push(event(
        mpisim::TraceKind::Send {
            dest: 1,
            tag: 7,
            ok: true,
        },
        10,
    ));
    let matched = mpisim::TraceKind::Match {
        src: 0,
        tag: 7,
        wildcard: false,
    };
    trace.events[1].push(event(matched, 1_010));
    let path = std::env::temp_dir().join(format!("cali-race-dump-{}.cali", std::process::id()));
    cali_cli::write_trace(&trace, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let ds = cali_cli::read_files(&[&path]).expect("the dump reads back");
    assert_eq!(ds.len(), 3, "{text}");
    assert!(text.contains(",attr=1,data=send,"), "{text}");
    assert!(text.contains(",attr=4,data=1,attr=5,data=7\n"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn mpi_caliquery_analyze_certifies_the_query_run() {
    let (dir, paths) = write_inputs("analyze", 4);
    let out = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .args(["--np", "8", "--engine", "event", "--analyze"])
        .args(&paths)
        .output()
        .expect("run mpi-caliquery");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("happens-before analysis: 8 ranks"),
        "{stderr}"
    );
    assert!(
        stderr.contains("verdict: CLEAN (race-free, deadlock-free)"),
        "{stderr}"
    );
    // The query result itself still lands on stdout.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("kernel"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mpi_caliquery_trace_dump_round_trips() {
    let (dir, paths) = write_inputs("trace", 2);
    let trace = dir.join("hb.cali");
    let out = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .args([
            "--np",
            "4",
            "--engine",
            "event",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .args(&paths)
        .output()
        .expect("run mpi-caliquery");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg("AGGREGATE count(), max(hb.clock) GROUP BY mpisim.rank ORDER BY mpisim.rank")
        .arg(&trace)
        .output()
        .expect("run cali-query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows = String::from_utf8(out.stdout).unwrap();
    // One row per rank, 4 ranks.
    assert_eq!(rows.lines().count(), 5, "{rows}");
    std::fs::remove_dir_all(&dir).ok();
}
