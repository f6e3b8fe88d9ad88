//! Integration tests for the crash-safe snapshot journal: lossless
//! roundtrips through the runtime, panic-hook-only flushes, append-mode
//! resume, and graceful handling of invalid profiles.

use std::path::PathBuf;
use std::sync::Arc;

use caliper_format::journal::recover_file;
use caliper_format::{Dataset, ReadPolicy, SEQ_ATTR};
use caliper_runtime::{Caliper, Clock, Config};

fn temp_journal(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "caliper-runtime-journal-{}-{name}.cali",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Render every record as ordered `name=value` pairs, excluding the
/// journal sequence stamp, so datasets with different attribute-id
/// spaces (runtime store vs. recovered store) compare structurally.
fn record_lines(ds: &Dataset) -> Vec<String> {
    let seq = ds.store.find(SEQ_ATTR).map(|a| a.id());
    ds.flat_records()
        .map(|rec| {
            rec.pairs()
                .iter()
                .filter(|(a, _)| Some(*a) != seq)
                .map(|(a, v)| {
                    let name = ds
                        .store
                        .name_of(*a)
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| format!("#{a}"));
                    format!("{name}={}", v.to_text())
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

fn journaled_trace_config(path: &std::path::Path) -> Config {
    Config::event_trace()
        .set("journal.enable", "true")
        .set("journal.path", &path.display().to_string())
}

#[test]
fn journal_roundtrip_is_lossless() {
    let path = temp_journal("roundtrip");
    let caliper =
        Caliper::try_with_clock(journaled_trace_config(&path), Clock::virtual_clock()).unwrap();
    caliper.set_global("experiment", "roundtrip");
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    for name in ["solve", "io", "solve", "halo"] {
        scope.begin(&function, name);
        scope.advance_time(1_500);
        scope.end(&function).unwrap();
    }
    scope.flush();
    let traced = caliper.take_dataset();

    let (recovered, report) = recover_file(&path, ReadPolicy::lenient()).unwrap();
    assert!(!report.data_lost(), "{}", report.summary());
    assert_eq!(report.salvaged, traced.len() as u64);
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.missing, 0);
    // Same snapshots, in the same order, with the same expansions.
    assert_eq!(record_lines(&recovered), record_lines(&traced));
    // Globals travel too.
    assert_eq!(
        recovered.global("experiment"),
        Some(caliper_data::Value::str("roundtrip"))
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn panic_hook_flushes_the_journal_buffer() {
    let path = temp_journal("panic-hook");
    // Huge flush interval: nothing reaches the file unless a hook runs.
    let config = journaled_trace_config(&path).set("journal.flush_interval", "100000");
    let caliper = Caliper::try_with_clock(config, Clock::virtual_clock()).unwrap();
    let worker = Arc::clone(&caliper);
    let handle = std::thread::spawn(move || {
        let function = worker.region_attribute("function");
        let mut scope = worker.make_thread_scope();
        for _ in 0..8 {
            scope.begin(&function, "doomed");
            scope.advance_time(1_000);
            scope.end(&function).unwrap();
        }
        // Simulated crash: leak the scope so neither its flush nor the
        // sink's drop can run — only the panic hook can save the data.
        std::mem::forget(scope);
        panic!("simulated crash with unflushed journal buffer");
    });
    assert!(handle.join().is_err());

    let stats = caliper.default_channel().journal().unwrap().stats();
    assert_eq!(
        stats.counters.appended, 16,
        "8 begin + 8 end event snapshots"
    );
    assert_eq!(stats.counters.durable, 16, "panic hook drained the buffer");

    let (_, report) = recover_file(&path, ReadPolicy::lenient()).unwrap();
    assert_eq!(report.salvaged, 16);
    assert!(!report.data_lost(), "{}", report.summary());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn append_mode_resumes_the_sequence() {
    let path = temp_journal("append");
    // First incarnation: 6 snapshots (3 begin + 3 end).
    {
        let caliper =
            Caliper::try_with_clock(journaled_trace_config(&path), Clock::virtual_clock()).unwrap();
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        for _ in 0..3 {
            scope.begin(&function, "first");
            scope.end(&function).unwrap();
        }
        scope.flush();
        caliper.take_dataset();
    }
    // Second incarnation appends; its sequence numbers continue.
    {
        let config = journaled_trace_config(&path).set("journal.append", "true");
        let caliper = Caliper::try_with_clock(config, Clock::virtual_clock()).unwrap();
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        for _ in 0..2 {
            scope.begin(&function, "second");
            scope.end(&function).unwrap();
        }
        scope.flush();
        caliper.take_dataset();
    }

    let (recovered, report) = recover_file(&path, ReadPolicy::lenient()).unwrap();
    assert_eq!(report.salvaged, 10, "{}", report.summary());
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.missing, 0, "sequence must continue across reopen");
    assert_eq!(report.max_seq, Some(9));
    let lines = record_lines(&recovered);
    assert!(lines.iter().any(|l| l.contains("function=first")));
    assert!(lines.iter().any(|l| l.contains("function=second")));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_stats_track_flush_progress() {
    let path = temp_journal("stats");
    let config = journaled_trace_config(&path).set("journal.flush_interval", "100000");
    let caliper = Caliper::try_with_clock(config, Clock::virtual_clock()).unwrap();
    let sink = Arc::clone(caliper.default_channel().journal().unwrap());
    assert_eq!(sink.path(), path.as_path());

    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    for _ in 0..5 {
        scope.begin(&function, "work");
        scope.end(&function).unwrap();
    }
    let stats = sink.stats();
    assert_eq!(stats.counters.appended, 10);
    assert_eq!(
        stats.counters.durable, 0,
        "interval not reached, nothing flushed"
    );
    assert_eq!(stats.next_seq, 10);
    assert!(!stats.disabled);
    assert_eq!(stats.write_errors, 0);

    scope.flush(); // thread flush drains the journal
    let stats = sink.stats();
    assert_eq!(stats.counters.durable, 10);
    assert!(stats.counters.flushes >= 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalid_aggregate_ops_is_a_config_error_not_a_panic() {
    let config = Config::event_aggregate("function", "count, sum(");
    let err = Caliper::try_with_clock(config.clone(), Clock::virtual_clock()).unwrap_err();
    assert!(err.message.contains("aggregate.ops"), "{err}");

    // The infallible constructor degrades gracefully: the aggregate
    // service is skipped, thread-scope setup does not panic, and the
    // error stays inspectable on the channel.
    let caliper = Caliper::with_clock(config, Clock::virtual_clock());
    assert!(!caliper.default_channel().config_errors().is_empty());
    let function = caliper.region_attribute("function");
    let mut scope = caliper.make_thread_scope();
    scope.begin(&function, "still-works");
    scope.end(&function).unwrap();
    scope.flush();
    // No aggregate (skipped) and no trace service: nothing collected.
    assert!(caliper.take_dataset().is_empty());
}

#[test]
fn unwritable_journal_path_is_a_config_error() {
    let config = Config::event_trace()
        .set("journal.enable", "true")
        .set("journal.path", "/nonexistent-dir-for-sure/j.cali");
    let err = Caliper::try_with_clock(config, Clock::virtual_clock()).unwrap_err();
    assert!(err.message.contains("journal.path"), "{err}");
    assert!(err.message.contains("/nonexistent-dir-for-sure"), "{err}");
}
