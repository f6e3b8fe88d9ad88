//! The paper's aggregation schemes over CleverLeaf's instrumentation
//! never leave the on-line snapshot path (`Aggregator::add_snapshot`),
//! and fold there what the row path folds.

use std::sync::Arc;

use caliper_bench::schemes;
use caliper_data::AttributeStore;
use caliper_query::{parse_query, AggregationSpec, Aggregator};
use caliper_runtime::{Caliper, Clock, Config};
use miniapps::{CleverLeaf, CleverLeafParams, WorkMode};

#[test]
fn schemes_a_b_and_c_never_take_the_row_path() {
    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: 3,
        ..CleverLeafParams::overhead_study()
    });
    // A trace holds every snapshot the aggregate service would be handed:
    // the same event trigger and timer produce them.
    let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
    app.run_rank(1, &caliper, WorkMode::Virtual);
    let trace = caliper.take_dataset();
    let records = trace.rows();

    for key in [schemes::A, schemes::B, schemes::C] {
        let query = format!("AGGREGATE {} GROUP BY {key}", schemes::OPS);
        let spec = AggregationSpec::from_query(&parse_query(&query).unwrap());
        let mut snapshots = Aggregator::new(spec.clone(), Arc::clone(&trace.store));
        let mut rows = Aggregator::new(spec, Arc::clone(&trace.store));
        for rec in records.iter() {
            snapshots.add_snapshot(rec, &trace.tree);
            rows.add(&rec.unpack(&trace.tree));
        }
        assert_eq!(snapshots.snapshot_fallbacks(), 0, "{key}");
        assert_eq!(snapshots.records_processed(), trace.len() as u64);
        assert_eq!(records.len(), trace.len());

        let flushed = |agg: &Aggregator| {
            let out = AttributeStore::new();
            let rows = agg.flush(&out);
            rows.iter()
                .map(|row| row.describe(&out))
                .collect::<Vec<_>>()
        };
        assert_eq!(flushed(&snapshots), flushed(&rows), "{key}");
    }
}
