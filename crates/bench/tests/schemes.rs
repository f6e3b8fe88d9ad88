//! The paper's aggregation schemes over CleverLeaf's instrumentation
//! fold every snapshot a block at a time, as columns (ROADMAP item 7a):
//! a nested key path is one cell of the fold's node cache, so no row is
//! gathered; and the on-line result is the off-line fold of the same
//! snapshots.

use std::sync::Arc;

use caliper_bench::schemes;
use caliper_data::{AttributeStore, Value};
use caliper_query::{parse_query, AggregationSpec, Aggregator, BlockFold};
use caliper_runtime::{AggregateService, Caliper, Clock, Config};
use miniapps::{CleverLeaf, CleverLeafParams, WorkMode};

#[test]
fn schemes_a_b_and_c_fold_every_snapshot_as_columns() {
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 3,
        ..CleverLeafParams::overhead_study()
    });
    // A trace holds every snapshot the aggregate service is handed: the
    // same event trigger and timer produce them.
    let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
    app.run_rank(1, &caliper, WorkMode::Virtual);
    let trace = caliper.take_dataset();
    // The trace buffer's blocks share one string table; the fold keeps
    // codes of it, and of what its node cache adds to it, across blocks.
    let shared = &trace.blocks.first().expect("a traced block").0;
    assert!(trace.blocks.iter().all(|(strings, _)| Arc::ptr_eq(strings, shared)));

    for key in [schemes::A, schemes::B, schemes::C] {
        let query = format!("AGGREGATE {} GROUP BY {key}", schemes::OPS);
        let spec = AggregationSpec::from_query(&parse_query(&query).unwrap())
            .with_count_label(AggregateService::COUNT_ATTR);
        let mut offline = Aggregator::new(spec.clone(), Arc::clone(&trace.store));
        let (mut fold, mut strings) = (BlockFold::for_aggregation(&spec), (**shared).clone());
        for (_, block) in &trace.blocks {
            fold.fold(&mut offline, &trace.tree, &mut strings, block);
        }
        assert_eq!(fold.gathered_rows(), 0, "{key}");
        assert_eq!(offline.records_processed(), trace.len() as u64, "{key}");

        let config = Config::event_aggregate(key, schemes::OPS);
        let online = Caliper::with_clock(config, Clock::virtual_clock());
        app.run_rank(1, &online, WorkMode::Virtual);
        assert_eq!(online.total_snapshots(), trace.len() as u64, "{key}");
        let online = online.take_dataset();
        let count = online.store.find(AggregateService::COUNT_ATTR).unwrap().id();
        let folded: u64 = online
            .flat_records()
            .filter_map(|row| row.get(count).and_then(Value::to_u64))
            .sum();
        assert_eq!(folded, trace.len() as u64, "{key}");

        let out = AttributeStore::new();
        let want: Vec<String> = offline.flush(&out).iter().map(|row| row.describe(&out)).collect();
        let got: Vec<String> =
            online.flat_records().map(|row| row.describe(&online.store)).collect();
        assert_eq!(got, want, "{key}");
    }
}
