//! Black-box tests of the `cali-recover` binary: torn-journal salvage,
//! tail deduplication, exit codes, and `--threads`-independent
//! aggregation over recovered data.

use std::path::PathBuf;
use std::process::Command;

use caliper_runtime::{Caliper, Clock, Config};

/// Write a journal by running an event-traced workload with journaling
/// enabled; returns the journal path.
fn write_journal(name: &str, regions: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cali-recover-test-{name}-{}.cali",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = Config::event_trace()
        .set("journal.enable", "true")
        .set("journal.path", &path.display().to_string());
    let caliper = Caliper::try_with_clock(config, Clock::virtual_clock()).unwrap();
    caliper.set_global("experiment", "recovery-test");
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    for i in 0..regions {
        scope.begin(&function, if i % 2 == 0 { "solve" } else { "io" });
        scope.advance_time(1_000);
        scope.end(&function).unwrap();
    }
    scope.flush();
    caliper.take_dataset();
    path
}

fn recover(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cali-recover"))
        .args(args)
        .output()
        .expect("run cali-recover")
}

fn query(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .args(args)
        .output()
        .expect("run cali-query")
}

#[test]
fn clean_journal_recovers_completely_with_exit_0() {
    let journal = write_journal("clean", 10);
    let out = recover(&[
        "-q",
        "AGGREGATE count GROUP BY function ORDER BY function",
        journal.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("salvaged 20 snapshots"), "{stderr}");
    assert!(stderr.contains("0 corrupt lines skipped"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("solve"), "{stdout}");
    assert!(stdout.contains("io"), "{stdout}");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn torn_journal_salvages_prefix_and_threads_agree() {
    let journal = write_journal("torn", 40);
    // Tear the journal mid-line, as a kill would.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let recovered = journal.with_extension("recovered.cali");
    let out = recover(&["-o", recovered.to_str().unwrap(), journal.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "torn journal must exit 2: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("salvaged"), "{stderr}");

    // Aggregating the salvaged data is --threads independent.
    let q = "AGGREGATE count, sum(time.duration) GROUP BY function ORDER BY function";
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4"] {
        let out = query(&["-q", q, "--threads", threads, recovered.to_str().unwrap()]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--threads {threads}: recovered file must read cleanly: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1], "--threads 1 vs 2");
    assert_eq!(outputs[0], outputs[2], "--threads 1 vs 4");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&recovered).ok();
}

#[test]
fn duplicated_tail_is_deduplicated() {
    let journal = write_journal("dup", 6);
    // Simulate a resume that double-writes the tail: append the last
    // three complete data lines again.
    let text = std::fs::read_to_string(&journal).unwrap();
    let tail: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("__rec=ctx"))
        .rev()
        .take(3)
        .collect();
    let mut dup = text.clone();
    for line in tail.iter().rev() {
        dup.push_str(line);
        dup.push('\n');
    }
    std::fs::write(&journal, dup).unwrap();

    let out = recover(&[journal.to_str().unwrap()]);
    // Duplicates are dropped, not lost data: exit stays 0.
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("salvaged 12 snapshots"), "{stderr}");
    assert!(
        stderr.contains("3 duplicate tail records dropped"),
        "{stderr}"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn missing_journal_is_a_hard_error() {
    let out = recover(&["/nonexistent/journal.cali"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("journal.cali"), "{stderr}");
}

#[test]
fn usage_errors_do_not_backtrace() {
    for args in [&["--max-errors", "many", "x.cali"][..], &[][..]] {
        let out = recover(args);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
