//! Property-based tests for the aggregation engine: the algebraic
//! invariants that cross-process tree reduction relies on.

use std::sync::Arc;

use caliper_data::{AttributeStore, FlatRecord, Value, ValueType};
use caliper_format::BlockRows;
use caliper_query::{parse_query, AggregationSpec, Aggregator, Pipeline};
use proptest::prelude::*;

/// A synthetic record: (function index, iteration, time).
type Row = (u8, u8, i32);

fn build_records(rows: &[Row]) -> (Arc<AttributeStore>, Vec<FlatRecord>) {
    let store = Arc::new(AttributeStore::new());
    let func = store.create_simple("function", ValueType::Str);
    let iter = store.create_simple("iteration", ValueType::Int);
    let time = store.create_simple("time", ValueType::Int);
    let names = ["foo", "bar", "baz", "qux"];
    let records = rows
        .iter()
        .map(|(f, i, t)| {
            let mut rec = FlatRecord::new();
            // Leave the function out for f == 0 to exercise partial keys.
            if *f > 0 {
                rec.push(func.id(), Value::str(names[(*f as usize) % names.len()]));
            }
            rec.push(iter.id(), Value::Int(*i as i64));
            rec.push(time.id(), Value::Int(*t as i64));
            rec
        })
        .collect();
    (store, records)
}

fn flush_text(agg: &Aggregator) -> Vec<String> {
    let out_store = AttributeStore::new();
    agg.flush(&out_store)
        .iter()
        .map(|r| r.describe(&out_store))
        .collect()
}

const QUERY: &str =
    "AGGREGATE count, sum(time), min(time), max(time), avg(time) GROUP BY function, iteration";

proptest! {
    /// Splitting the stream at any point and merging partial aggregations
    /// gives the same result as one pass — the invariant behind the
    /// logarithmic cross-process reduction (§IV-C).
    #[test]
    fn merge_is_associative_with_split(
        rows in prop::collection::vec((0u8..4, 0u8..4, -100i32..100), 0..60),
        split in 0usize..60,
    ) {
        let (store, records) = build_records(&rows);
        let spec = AggregationSpec::from_query(&parse_query(QUERY).unwrap());
        let split = split.min(records.len());

        let mut single = Aggregator::new(spec.clone(), Arc::clone(&store));
        for r in &records {
            single.add(r);
        }

        let mut left = Aggregator::new(spec.clone(), Arc::clone(&store));
        let mut right = Aggregator::new(spec, Arc::clone(&store));
        for r in &records[..split] {
            left.add(r);
        }
        for r in &records[split..] {
            right.add(r);
        }
        left.merge(right);

        prop_assert_eq!(flush_text(&single), flush_text(&left));
    }

    /// Streaming aggregation is order-insensitive: a permuted stream
    /// yields the same flushed result.
    #[test]
    fn aggregation_is_permutation_invariant(
        rows in prop::collection::vec((0u8..4, 0u8..4, -100i32..100), 0..40),
        seed in any::<u64>(),
    ) {
        let (store, records) = build_records(&rows);
        let spec = AggregationSpec::from_query(&parse_query(QUERY).unwrap());

        let mut a = Aggregator::new(spec.clone(), Arc::clone(&store));
        for r in &records {
            a.add(r);
        }

        // Fisher-Yates with a tiny LCG for determinism.
        let mut shuffled = records.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut b = Aggregator::new(spec, Arc::clone(&store));
        for r in &shuffled {
            b.add(r);
        }

        prop_assert_eq!(flush_text(&a), flush_text(&b));
    }

    /// Counts partition: the sum of per-key counts equals the number of
    /// input records, for any grouping.
    #[test]
    fn counts_partition_input(
        rows in prop::collection::vec((0u8..4, 0u8..4, -100i32..100), 0..60),
    ) {
        let (store, records) = build_records(&rows);
        let spec = AggregationSpec::from_query(
            &parse_query("AGGREGATE count GROUP BY function").unwrap(),
        );
        let mut agg = Aggregator::new(spec, Arc::clone(&store));
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        if records.is_empty() {
            prop_assert!(out.is_empty());
        } else {
            let count = out_store.find("count").unwrap();
            let total: u64 = out
                .iter()
                .map(|r| r.get(count.id()).unwrap().to_u64().unwrap())
                .sum();
            prop_assert_eq!(total, records.len() as u64);
        }
    }

    /// Grouped sums add up to the ungrouped sum (aggregation does not
    /// lose or duplicate values when refining the key).
    #[test]
    fn sums_are_consistent_across_key_refinement(
        rows in prop::collection::vec((0u8..4, 0u8..4, -100i32..100), 1..60),
    ) {
        let (store, records) = build_records(&rows);
        let fine = AggregationSpec::from_query(
            &parse_query("AGGREGATE sum(time) GROUP BY function, iteration").unwrap(),
        );
        let coarse = AggregationSpec::from_query(
            &parse_query("AGGREGATE sum(time) GROUP BY function").unwrap(),
        );
        let mut fine_agg = Aggregator::new(fine, Arc::clone(&store));
        let mut coarse_agg = Aggregator::new(coarse, Arc::clone(&store));
        for r in &records {
            fine_agg.add(r);
            coarse_agg.add(r);
        }
        let s1 = AttributeStore::new();
        let s2 = AttributeStore::new();
        let sum_of = |out: &BlockRows, store: &AttributeStore| -> i64 {
            let attr = store.find("sum#time").unwrap();
            out.iter()
                .filter_map(|r| r.get(attr.id()).cloned())
                .map(|v| v.to_i64().unwrap())
                .sum()
        };
        prop_assert_eq!(
            sum_of(&fine_agg.flush(&s1), &s1),
            sum_of(&coarse_agg.flush(&s2), &s2)
        );
    }

    /// min <= avg <= max for every key.
    #[test]
    fn min_avg_max_ordering(
        rows in prop::collection::vec((0u8..4, 0u8..4, -100i32..100), 1..60),
    ) {
        let (store, records) = build_records(&rows);
        let spec = AggregationSpec::from_query(&parse_query(QUERY).unwrap());
        let mut agg = Aggregator::new(spec, Arc::clone(&store));
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        let min = out_store.find("min#time").unwrap();
        let max = out_store.find("max#time").unwrap();
        let avg = out_store.find("avg#time").unwrap();
        for rec in out.iter() {
            let lo = rec.get(min.id()).unwrap().to_f64().unwrap();
            let hi = rec.get(max.id()).unwrap().to_f64().unwrap();
            let mean = rec.get(avg.id()).unwrap().to_f64().unwrap();
            prop_assert!(lo <= mean + 1e-9 && mean <= hi + 1e-9);
        }
    }

    /// WHERE-filtered aggregation equals aggregation of the manually
    /// filtered stream.
    #[test]
    fn filter_commutes_with_aggregation(
        rows in prop::collection::vec((0u8..4, 0u8..4, -100i32..100), 0..60),
        threshold in -100i32..100,
    ) {
        let (store, records) = build_records(&rows);
        let query = format!(
            "AGGREGATE count, sum(time) WHERE time > {threshold} GROUP BY function"
        );
        let spec = parse_query(&query).unwrap();
        let mut filtered_pipeline = Pipeline::new(spec, Arc::clone(&store));
        for r in &records {
            filtered_pipeline.process(r.clone());
        }

        let time = store.find("time").unwrap();
        let manual: Vec<FlatRecord> = records
            .iter()
            .filter(|r| r.get(time.id()).unwrap().to_i64().unwrap() > threshold as i64)
            .cloned()
            .collect();
        let spec2 = parse_query("AGGREGATE count, sum(time) GROUP BY function").unwrap();
        let mut manual_pipeline = Pipeline::new(spec2, Arc::clone(&store));
        for r in manual {
            manual_pipeline.process(r);
        }

        prop_assert_eq!(
            filtered_pipeline.finish().to_table(),
            manual_pipeline.finish().to_table()
        );
    }
}
