//! In-process chaos tests for the runtime journal failpoints
//! (`journal.write`, `journal.fsync`, `runtime.append`).
//!
//! These arm the process-global fault registry directly (no spawned
//! binary between the fault and the code under test), so they live in
//! their own integration-test binary: each test file is its own
//! process, and the registry is install-once per process. Every test
//! installs the same combined spec; `~path` filters keep the scenarios
//! from interfering with each other.

use std::path::PathBuf;
use std::process::Command;

use caliper_runtime::{Caliper, Clock, Config};

/// One spec for the whole process: transient write/fsync faults on the
/// `retry-j` journal, a permanent append fault on the `dead-j` journal.
const SPEC: &str =
    "journal.write~retry-j=fail(2);journal.fsync~retry-j=fail(1);runtime.append~dead-j=err(1)";

fn arm() {
    caliper_faults::install_spec(SPEC).expect("valid spec");
}

/// Run a journaled event-trace workload; returns (journal path, stats,
/// snapshots the in-memory trace collected).
fn run_workload(
    tag: &str,
    regions: usize,
    fsync: bool,
) -> (PathBuf, caliper_runtime::JournalStats, usize) {
    let path = std::env::temp_dir().join(format!(
        "cali-chaos-journal-{tag}-{}.cali",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut config = Config::event_trace()
        .set("journal.enable", "true")
        .set("journal.path", &path.display().to_string());
    if fsync {
        config = config.set("journal.fsync", "true");
    }
    let caliper = Caliper::try_with_clock(config, Clock::virtual_clock()).unwrap();
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    for i in 0..regions {
        scope.begin(&function, if i % 2 == 0 { "solve" } else { "io" });
        scope.advance_time(1_000);
        scope.end(&function).unwrap();
    }
    scope.flush();
    let stats = caliper.channels()[0]
        .journal()
        .expect("journal enabled")
        .stats();
    let ds = caliper.take_dataset();
    (path, stats, ds.len())
}

fn recover(journal: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cali-recover"))
        .arg(journal)
        .output()
        .expect("run cali-recover")
}

#[test]
fn transient_journal_write_and_fsync_faults_are_absorbed_by_retry() {
    arm();
    let (journal, stats, _) = run_workload("retry-j", 10, true);
    // fail(2) on the write path plus fail(1) on the fsync path, all
    // absorbed: the injected attempts are counted, nothing is lost.
    assert_eq!(stats.counters.retries, 3, "{stats:?}");
    assert!(!stats.disabled, "{stats:?}");
    assert_eq!(stats.write_errors, 0, "{stats:?}");
    assert_eq!(stats.counters.appended, stats.counters.durable, "{stats:?}");

    // The journal on disk is complete: a clean (fault-free, separate
    // process) recovery salvages every snapshot.
    let out = recover(&journal);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("salvaged 20 snapshots"), "{stderr}");
    assert!(stderr.contains("0 corrupt lines skipped"), "{stderr}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn permanent_append_faults_disable_the_journal_not_the_program() {
    arm();
    let (journal, stats, traced) = run_workload("dead-j", 8, false);
    // err(1): every append fails; the sink disables itself on the
    // first, reports once, and the instrumented program carries on.
    assert!(stats.disabled, "{stats:?}");
    assert_eq!(stats.write_errors, 1, "{stats:?}");
    // The in-memory trace pipeline is unaffected by the dead journal.
    assert_eq!(traced, 16, "trace must still hold 2 snapshots/region");

    // What little reached the disk (the header, at most) must still be
    // recoverable without a panic.
    let out = recover(&journal);
    assert!(
        matches!(out.status.code(), Some(0..=2)),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("panicked"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&journal).ok();
}
