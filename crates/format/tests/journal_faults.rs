//! A journal is read the way every other input is: through the
//! `io.open` / `io.read` failpoints and the bounded retry, so one
//! transient error costs a retry, not the replay. (A test binary of its
//! own: the fault set is the process's, armed once.)

use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_format::{cali, journal, Dataset, ReadPolicy};

#[test]
fn a_transient_open_error_costs_a_journal_replay_one_retry() {
    let dir = std::env::temp_dir().join(format!("cali-journal-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let name = format!("rank0-{}.journal.cali", std::process::id());
    let path = dir.join(&name);
    let mut ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let node = ds
        .tree
        .get_child(NODE_NONE, kernel.id(), &Value::str("main"));
    for _ in 0..3 {
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        ds.push(rec);
    }
    std::fs::write(&path, cali::to_bytes(&ds)).unwrap();

    caliper_faults::install_spec(&format!("io.open~{name}=fail(1)")).unwrap();
    let retries = caliper_data::metrics::global().counter("format.reader.retries");
    let before = retries.get();
    let (salvaged, report) = journal::recover_file(&path, ReadPolicy::lenient()).unwrap();
    assert_eq!(retries.get() - before, 1, "one failed open, one retry");
    assert_eq!(salvaged.len(), 3);
    assert_eq!(report.read.path.as_deref(), Some(path.as_path()));
    let _ = std::fs::remove_dir_all(&dir);
}
