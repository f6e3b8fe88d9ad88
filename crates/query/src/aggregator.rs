//! The streaming aggregation engine (§IV-B, Figure 2).
//!
//! The aggregator receives flat records, extracts the *aggregation key*
//! (the GROUP BY attributes), locates the matching aggregation entry in
//! an in-memory hash database, and folds the *aggregation attributes*
//! into the entry's reduction states. Input records are never stored —
//! this is the streaming reduction that makes on-line profiling
//! possible.
//!
//! The same engine serves all three aggregation applications from the
//! paper: on-line event aggregation (driven by runtime snapshots),
//! cross-process aggregation (entries merged up a reduction tree via
//! [`Aggregator::merge`]), and analytical aggregation (driven by records
//! read from `.cali` files).

use std::sync::Arc;

use caliper_data::{
    AttrId, Attribute, AttributeStore, FlatRecord, FxBuildHasher, Properties, Value, ValueType,
};

use crate::ast::{AggOp, OpKind, QuerySpec};
use crate::ops::Reducer;

/// Key value of the overflow bucket in flushed results (the same
/// sentinel upstream Caliper uses when its aggregation buffers fill).
pub const OVERFLOW_KEY: &str = "__overflow__";

/// Configuration of an aggregation: operators + key.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationSpec {
    /// The aggregation operations.
    pub ops: Vec<AggOp>,
    /// Key attribute labels (GROUP BY).
    pub key: Vec<String>,
    /// Label of the `count` result attribute. The off-line query engine
    /// uses `"count"`; the on-line service uses `"aggregate.count"`
    /// (§VI-B of the paper aggregates `sum(aggregate.count)` over
    /// on-line results).
    pub count_label: String,
}

impl AggregationSpec {
    /// Build from a parsed query.
    pub fn from_query(spec: &QuerySpec) -> AggregationSpec {
        AggregationSpec {
            ops: spec.ops.clone(),
            key: spec.key.clone(),
            count_label: "count".to_string(),
        }
    }

    /// Build from op and key lists with the default count label.
    pub fn new(ops: Vec<AggOp>, key: Vec<String>) -> AggregationSpec {
        AggregationSpec {
            ops,
            key,
            count_label: "count".to_string(),
        }
    }

    /// Use a different count result label (on-line service).
    pub fn with_count_label(mut self, label: &str) -> AggregationSpec {
        self.count_label = label.to_string();
        self
    }
}

/// Aggregation key: one optional grouping value per key label, in spec
/// order. `None` marks "attribute not present in the record" — the paper
/// notes that results include separate entries for records where only
/// some key attributes are set.
pub(crate) type Key = Box<[Option<Value>]>;

/// One aggregation database entry: the reduction states for one unique key.
#[derive(Debug, Clone, Default)]
pub(crate) struct DbEntry {
    pub(crate) reducers: Vec<Reducer>,
    /// Input records folded into this entry (for capacity reporting;
    /// unlike the `count` op this is tracked even without one).
    pub(crate) records: u64,
}

impl DbEntry {
    fn fresh(ops: &[AggOp]) -> DbEntry {
        DbEntry {
            reducers: ops.iter().map(Reducer::new).collect(),
            records: 0,
        }
    }

    /// Fold another entry of the same spec into this one.
    fn fold(&mut self, other: &DbEntry) {
        for (mine, theirs) in self.reducers.iter_mut().zip(&other.reducers) {
            mine.merge(theirs);
        }
        self.records += other.records;
    }
}

/// The streaming aggregator.
pub struct Aggregator {
    spec: AggregationSpec,
    store: Arc<AttributeStore>,
    /// Lazily resolved attribute ids of the key and target labels:
    /// labels may refer to attributes that do not exist yet when the
    /// aggregation starts (on-line, attributes appear as the program
    /// runs).
    key_attrs: Vec<Option<AttrId>>,
    target_attrs: Vec<Option<AttrId>>,
    /// The aggregation database: key → index into `entries`. Both the
    /// row path ([`Aggregator::add`]) and the block fold admit groups
    /// through [`Aggregator::admit`], so there is one database whichever
    /// way records arrive.
    db: std::collections::HashMap<Key, u32, FxBuildHasher>,
    entries: Vec<DbEntry>,
    records_processed: u64,
    /// Capacity bound on `db` (None = unbounded, the historical mode).
    max_groups: Option<usize>,
    /// The overflow bucket: once `db` holds `max_groups` keys, records
    /// with *new* keys fold in here instead of growing the database, so
    /// a cardinality explosion degrades to coarser totals instead of
    /// unbounded memory. Kept outside `db` so the `len() <= cap`
    /// invariant is structural.
    overflow: Option<DbEntry>,
}

impl Aggregator {
    /// Create an aggregator resolving labels against `store`.
    pub fn new(spec: AggregationSpec, store: Arc<AttributeStore>) -> Aggregator {
        let key_attrs = vec![None; spec.key.len()];
        let target_attrs = vec![None; spec.ops.len()];
        Aggregator {
            spec,
            store,
            key_attrs,
            target_attrs,
            db: Default::default(),
            entries: Vec::new(),
            records_processed: 0,
            max_groups: None,
            overflow: None,
        }
    }

    /// Bound the aggregation database to at most `cap` groups; further
    /// keys fold into the [`OVERFLOW_KEY`] bucket. `None` removes the
    /// bound.
    pub fn set_max_groups(&mut self, cap: Option<usize>) {
        self.max_groups = cap;
    }

    /// The configured group capacity, if any.
    pub fn max_groups(&self) -> Option<usize> {
        self.max_groups
    }

    /// True once any record or merged group has landed in the overflow
    /// bucket.
    pub fn has_overflow(&self) -> bool {
        self.overflow.is_some()
    }

    /// Number of input records folded into the overflow bucket (0 when
    /// the capacity was never exceeded).
    pub fn overflow_records(&self) -> u64 {
        self.overflow.as_ref().map_or(0, |e| e.records)
    }

    /// The aggregation spec.
    pub fn spec(&self) -> &AggregationSpec {
        &self.spec
    }

    /// The store key and target labels are resolved against.
    pub(crate) fn store(&self) -> &AttributeStore {
        &self.store
    }

    /// Number of unique keys currently in the database (the number of
    /// output records a flush would produce).
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// True if no records have produced entries yet.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Total number of input records processed.
    pub fn records_processed(&self) -> u64 {
        self.records_processed
    }

    fn resolve(store: &AttributeStore, slot: &mut Option<AttrId>, label: &str) -> Option<AttrId> {
        if slot.is_none() {
            *slot = store.find(label).map(|attr| attr.id());
        }
        *slot
    }

    /// Locate or create the database entry for `key`. At capacity, a
    /// *new* key is not admitted (first-come admission, like upstream
    /// Caliper's fixed aggregation buffers): `None` tells the caller to
    /// fold into the overflow bucket.
    pub(crate) fn admit(&mut self, key: Key) -> Option<u32> {
        let at_cap = self.max_groups.is_some_and(|cap| self.db.len() >= cap);
        match self.db.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => Some(*e.get()),
            std::collections::hash_map::Entry::Vacant(_) if at_cap => None,
            std::collections::hash_map::Entry::Vacant(v) => {
                let group = self.entries.len() as u32;
                self.entries.push(DbEntry::fresh(&self.spec.ops));
                Some(*v.insert(group))
            }
        }
    }

    /// The entry of an admitted group, or the overflow bucket for `None`.
    fn entry_of<'a>(
        entries: &'a mut [DbEntry],
        overflow: &'a mut Option<DbEntry>,
        ops: &[AggOp],
        group: Option<u32>,
    ) -> &'a mut DbEntry {
        match group {
            Some(group) => &mut entries[group as usize],
            None => overflow.get_or_insert_with(|| DbEntry::fresh(ops)),
        }
    }

    /// Count one input record into `group` (see [`Aggregator::admit`])
    /// and return its entry, for the caller to feed the reducers.
    pub(crate) fn count_into(&mut self, group: Option<u32>) -> &mut DbEntry {
        self.records_processed += 1;
        let entry = Self::entry_of(&mut self.entries, &mut self.overflow, &self.spec.ops, group);
        entry.records += 1;
        entry
    }

    /// Process one input record (streaming update).
    pub fn add(&mut self, record: &FlatRecord) {
        // Extract the aggregation key.
        let mut key: Vec<Option<Value>> = Vec::with_capacity(self.spec.key.len());
        for (slot, label) in self.key_attrs.iter_mut().zip(&self.spec.key) {
            key.push(
                Self::resolve(&self.store, slot, label).and_then(|attr| record.path_string(attr)),
            );
        }
        let group = self.admit(key.into_boxed_slice());

        // Fold the aggregation attributes into the entry.
        self.records_processed += 1;
        let ops = &self.spec.ops;
        let entry = Self::entry_of(&mut self.entries, &mut self.overflow, ops, group);
        entry.records += 1;
        for (i, op) in ops.iter().enumerate() {
            match op.kind {
                OpKind::Count => entry.reducers[i].update(&Value::UInt(1)),
                _ => {
                    let target = op.target.as_deref().unwrap_or_default();
                    if let Some(attr) = Self::resolve(&self.store, &mut self.target_attrs[i], target)
                    {
                        for value in record.all(attr) {
                            entry.reducers[i].update(value);
                        }
                    }
                }
            }
        }
    }

    /// Merge another aggregator's database into this one (cross-process
    /// reduction). Both must have the same spec.
    ///
    /// When a group capacity is set, the incoming groups are applied in
    /// sorted key order, so which keys win admission — and therefore the
    /// output — depends only on the *sequence* of merges (which callers
    /// keep deterministic), never on hash-map iteration order.
    pub fn merge(&mut self, other: Aggregator) {
        debug_assert_eq!(self.spec, other.spec, "merging mismatched aggregations");
        self.records_processed += other.records_processed;
        if let Some(theirs) = other.overflow {
            let spec_ops = &self.spec.ops;
            self.overflow
                .get_or_insert_with(|| DbEntry::fresh(spec_ops))
                .fold(&theirs);
        }
        let mut theirs = other.entries;
        if self.max_groups.is_some() {
            let mut incoming: Vec<(Key, u32)> = other.db.into_iter().collect();
            incoming.sort_by(|a, b| Self::key_cmp(&a.0, &b.0));
            for (key, group) in incoming {
                self.merge_entry(key, std::mem::take(&mut theirs[group as usize]));
            }
        } else {
            for (key, group) in other.db {
                self.merge_entry(key, std::mem::take(&mut theirs[group as usize]));
            }
        }
    }

    /// Merge one group into the database, honoring the capacity bound.
    fn merge_entry(&mut self, key: Key, entry: DbEntry) {
        let at_cap = self.max_groups.is_some_and(|cap| self.db.len() >= cap);
        match self.db.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.entries[*e.get() as usize].fold(&entry);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if at_cap {
                    let spec_ops = &self.spec.ops;
                    self.overflow
                        .get_or_insert_with(|| DbEntry::fresh(spec_ops))
                        .fold(&entry);
                } else {
                    v.insert(self.entries.len() as u32);
                    self.entries.push(entry);
                }
            }
        }
    }

    /// Total order on aggregation keys (slot-wise; absent sorts first) —
    /// the comparator behind deterministic flush and capped merges.
    fn key_cmp(a: &Key, b: &Key) -> std::cmp::Ordering {
        for (va, vb) in a.iter().zip(b.iter()) {
            let ord = match (va, vb) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (Some(va), Some(vb)) => va.total_cmp(vb),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Flush the database into result records, interning result
    /// attributes in `out_store`. Results are sorted by key for
    /// deterministic output.
    ///
    /// This realizes the paper's flush step: "iterating over all entries,
    /// reconstructing the key attributes, and appending the reduction
    /// results".
    pub fn flush(&self, out_store: &AttributeStore) -> Vec<FlatRecord> {
        // When the overflow bucket is live its row carries the string
        // sentinel in every key column, so key columns must be typed as
        // strings; ordinary key values coerce to their string rendering.
        let has_overflow = self.overflow.is_some();

        // Resolve key attributes for output (they may exist only in the
        // input store; intern them into out_store as strings-preserving).
        let key_attrs: Vec<Option<Attribute>> = self
            .spec
            .key
            .iter()
            .map(|label| {
                // Determine the output type: use the input attribute's
                // type if known, else guess from the first value seen.
                let vtype = if has_overflow {
                    Some(ValueType::Str)
                } else {
                    self.store.find(label).map(|a| a.value_type()).or_else(|| {
                        self.db.iter().find_map(|(key, _)| {
                            let idx = self.spec.key.iter().position(|l| l == label)?;
                            key[idx].as_ref().map(|v| v.value_type())
                        })
                    })
                };
                vtype.map(|t| {
                    out_store
                        .create(label, t, Properties::DEFAULT)
                        .unwrap_or_else(|_| out_store.find(label).expect("exists"))
                })
            })
            .collect();

        // Determine result types per op: join over all entries.
        let mut result_types: Vec<Option<ValueType>> = vec![None; self.spec.ops.len()];
        let denominators = self.percent_denominators();
        for entry in self.groups().chain(self.overflow.iter()) {
            for (i, red) in entry.reducers.iter().enumerate() {
                if let Some(v) = red.finish(denominators[i]) {
                    let t = v.value_type();
                    result_types[i] = Some(match result_types[i] {
                        None => t,
                        Some(prev) if prev == t => t,
                        // mixed numeric types widen to float; anything
                        // else falls back to string
                        Some(prev) if prev.is_numeric() && t.is_numeric() => ValueType::Float,
                        Some(_) => ValueType::Str,
                    });
                }
            }
        }
        let result_attrs: Vec<Option<Attribute>> = self
            .spec
            .ops
            .iter()
            .zip(&result_types)
            .map(|(op, vtype)| {
                vtype.map(|t| {
                    let label = op.result_label(&self.spec.count_label);
                    out_store
                        .create(&label, t, Properties::AGGREGATABLE)
                        .unwrap_or_else(|_| out_store.find(&label).expect("exists"))
                })
            })
            .collect();

        // Sort keys for deterministic output.
        let mut keys: Vec<&Key> = self.db.keys().collect();
        keys.sort_by(|a, b| Self::key_cmp(a, b));

        // Widen a finished value to its attribute's joined type so the
        // output stream is type-consistent.
        let coerce = |attr: &Attribute, value: Value| match (attr.value_type(), &value) {
            (ValueType::Float, v) if v.value_type() != ValueType::Float => {
                Value::Float(v.to_f64().unwrap_or(0.0))
            }
            (ValueType::Str, v) if v.value_type() != ValueType::Str => Value::str(v.to_string()),
            _ => value,
        };

        let mut out = Vec::with_capacity(keys.len() + has_overflow as usize);
        for key in keys {
            let entry = &self.entries[self.db[key] as usize];
            let mut rec = FlatRecord::new();
            for (slot, attr) in key.iter().zip(&key_attrs) {
                if let (Some(value), Some(attr)) = (slot, attr) {
                    rec.push(attr.id(), coerce(attr, value.clone()));
                }
            }
            for (i, red) in entry.reducers.iter().enumerate() {
                if let (Some(value), Some(attr)) = (red.finish(denominators[i]), &result_attrs[i])
                {
                    rec.push(attr.id(), coerce(attr, value));
                }
            }
            out.push(rec);
        }

        // The overflow bucket flushes last: one row, keyed by the
        // sentinel in every key column, carrying the combined reductions
        // of every group that did not fit the capacity bound.
        if let Some(entry) = &self.overflow {
            let mut rec = FlatRecord::new();
            for attr in key_attrs.iter().flatten() {
                rec.push(attr.id(), Value::str(OVERFLOW_KEY));
            }
            for (i, red) in entry.reducers.iter().enumerate() {
                if let (Some(value), Some(attr)) = (red.finish(denominators[i]), &result_attrs[i])
                {
                    rec.push(attr.id(), coerce(attr, value));
                }
            }
            out.push(rec);
        }

        // Self-instrumentation (flush-time, not per-record, so the
        // streaming update path stays atomics-free): everything below is
        // a function of the input records alone, so the `--stats` block
        // stays byte-identical for any worker-thread count.
        let m = caliper_data::metrics::global();
        m.counter("query.aggregator.records")
            .add(self.records_processed);
        m.counter("query.aggregator.groups_flushed").add(out.len() as u64);
        m.gauge("query.aggregator.groups_live")
            .set_max(self.db.len() as u64);
        m.counter("query.aggregator.overflow_records")
            .add(self.overflow_records());
        m.counter("query.aggregator.overflow_folds")
            .add(u64::from(self.overflow.is_some()));
        out
    }

    /// The admitted groups' entries, in the database's iteration order.
    fn groups(&self) -> impl Iterator<Item = &DbEntry> {
        self.db.values().map(|&group| &self.entries[group as usize])
    }

    /// Per-op denominators for `percent_total`: the sum of raw sums over
    /// all entries (including the overflow bucket, so the reported
    /// percentages still total 100).
    fn percent_denominators(&self) -> Vec<f64> {
        let mut denominators = vec![0.0; self.spec.ops.len()];
        for (i, op) in self.spec.ops.iter().enumerate() {
            if op.kind == OpKind::PercentTotal {
                denominators[i] = self
                    .groups()
                    .chain(self.overflow.iter())
                    .map(|e| e.reducers[i].raw_sum())
                    .sum::<f64>();
            }
        }
        denominators
    }
}

impl std::fmt::Debug for Aggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Aggregator({} entries, {} records processed)",
            self.db.len(),
            self.records_processed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use caliper_data::RecordBuilder;

    fn store_with_listing1() -> (Arc<AttributeStore>, Vec<FlatRecord>) {
        // Reproduce the record stream of Listing 1 / §III-B: 4 loop
        // iterations, foo called twice (10+30=40 time units over 3
        // records in the paper's table: foo entries sum to 40 with
        // count 3... we mirror the table: per iteration, foo count=3
        // sum=40? The table shows: (none) count=1 sum=10, foo count=3
        // sum=40, bar... Actually we just build a plausible stream:
        // foo(1), foo(2), bar(1) per iteration plus one record without
        // function.
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for iteration in 0..4i64 {
            records.push(
                RecordBuilder::new(&store)
                    .with("loop.iteration", iteration)
                    .with("time", 10i64)
                    .build(),
            );
            for (func, time) in [("foo", 15i64), ("foo", 25), ("bar", 20)] {
                records.push(
                    RecordBuilder::new(&store)
                        .with("function", func)
                        .with("loop.iteration", iteration)
                        .with("time", time)
                        .build(),
                );
            }
        }
        (store, records)
    }

    fn run(query: &str, store: Arc<AttributeStore>, records: &[FlatRecord]) -> (Arc<AttributeStore>, Vec<FlatRecord>) {
        let spec = parse_query(query).unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        for rec in records {
            agg.add(rec);
        }
        let out_store = Arc::new(AttributeStore::new());
        let out = agg.flush(&out_store);
        (out_store, out)
    }

    #[test]
    fn listing1_time_series_profile() {
        let (store, records) = store_with_listing1();
        let (out_store, out) = run(
            "AGGREGATE count, sum(time) GROUP BY function, loop.iteration",
            store,
            &records,
        );
        // 4 iterations x (foo, bar, none) = 12 entries
        assert_eq!(out.len(), 12);
        let func = out_store.find("function").unwrap();
        let count = out_store.find("count").unwrap();
        let sum = out_store.find("sum#time").unwrap();
        let foo_rows: Vec<_> = out
            .iter()
            .filter(|r| r.get(func.id()) == Some(&Value::str("foo")))
            .collect();
        assert_eq!(foo_rows.len(), 4);
        for row in foo_rows {
            assert_eq!(row.get(count.id()), Some(&Value::UInt(2)));
            assert_eq!(row.get(sum.id()), Some(&Value::Int(40)));
        }
    }

    #[test]
    fn removing_key_attribute_collapses_entries() {
        let (store, records) = store_with_listing1();
        let (out_store, out) = run("AGGREGATE count, sum(time) GROUP BY function", store, &records);
        // foo, bar, none
        assert_eq!(out.len(), 3);
        let func = out_store.find("function").unwrap();
        let sum = out_store.find("sum#time").unwrap();
        let foo = out
            .iter()
            .find(|r| r.get(func.id()) == Some(&Value::str("foo")))
            .unwrap();
        assert_eq!(foo.get(sum.id()), Some(&Value::Int(160)));
        // The entry with no function key has no function attribute.
        assert!(out.iter().any(|r| !r.contains(func.id())));
    }

    #[test]
    fn merge_equals_single_pass() {
        let (store, records) = store_with_listing1();
        let spec = parse_query("AGGREGATE count, sum(time), min(time), max(time), avg(time) GROUP BY function").unwrap();
        let aspec = AggregationSpec::from_query(&spec);

        let mut single = Aggregator::new(aspec.clone(), Arc::clone(&store));
        for r in &records {
            single.add(r);
        }

        let mut left = Aggregator::new(aspec.clone(), Arc::clone(&store));
        let mut right = Aggregator::new(aspec, Arc::clone(&store));
        for (i, r) in records.iter().enumerate() {
            if i % 2 == 0 {
                left.add(r);
            } else {
                right.add(r);
            }
        }
        left.merge(right);

        let s1 = Arc::new(AttributeStore::new());
        let s2 = Arc::new(AttributeStore::new());
        let out1: Vec<_> = single.flush(&s1).iter().map(|r| r.describe(&s1)).collect();
        let out2: Vec<_> = left.flush(&s2).iter().map(|r| r.describe(&s2)).collect();
        assert_eq!(out1, out2);
    }

    #[test]
    fn aggregation_over_preaggregated_counts() {
        // §VI-B: offline sum(aggregate.count) over online count results.
        let store = Arc::new(AttributeStore::new());
        let records = vec![
            RecordBuilder::new(&store)
                .with("kernel", "calc-dt")
                .with("aggregate.count", 100u64)
                .build(),
            RecordBuilder::new(&store)
                .with("kernel", "calc-dt")
                .with("aggregate.count", 50u64)
                .build(),
            RecordBuilder::new(&store)
                .with("kernel", "pdv")
                .with("aggregate.count", 7u64)
                .build(),
        ];
        let (out_store, out) = run(
            "AGGREGATE sum(aggregate.count) GROUP BY kernel",
            store,
            &records,
        );
        assert_eq!(out.len(), 2);
        let sum = out_store.find("sum#aggregate.count").unwrap();
        let kernel = out_store.find("kernel").unwrap();
        let calc = out
            .iter()
            .find(|r| r.get(kernel.id()) == Some(&Value::str("calc-dt")))
            .unwrap();
        assert_eq!(calc.get(sum.id()), Some(&Value::UInt(150)));
    }

    #[test]
    fn count_label_override() {
        let store = Arc::new(AttributeStore::new());
        let records = vec![RecordBuilder::new(&store).with("kernel", "a").build()];
        let spec = parse_query("AGGREGATE count GROUP BY kernel").unwrap();
        let aspec = AggregationSpec::from_query(&spec).with_count_label("aggregate.count");
        let mut agg = Aggregator::new(aspec, store);
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        assert!(out_store.find("aggregate.count").is_some());
        assert!(out_store.find("count").is_none());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn nested_key_attributes_group_by_path() {
        let store = Arc::new(AttributeStore::new());
        let func = store.create_simple("function", ValueType::Str);
        let mut r1 = FlatRecord::new();
        r1.push(func.id(), Value::str("main"));
        r1.push(func.id(), Value::str("foo"));
        let mut r2 = FlatRecord::new();
        r2.push(func.id(), Value::str("main"));
        let spec = parse_query("AGGREGATE count GROUP BY function").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.add(&r1);
        agg.add(&r1);
        agg.add(&r2);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        assert_eq!(out.len(), 2);
        let f = out_store.find("function").unwrap();
        let c = out_store.find("count").unwrap();
        let main_foo = out
            .iter()
            .find(|r| r.get(f.id()) == Some(&Value::str("main/foo")))
            .unwrap();
        assert_eq!(main_foo.get(c.id()), Some(&Value::UInt(2)));
    }

    #[test]
    fn flush_is_sorted_and_deterministic() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in [5i64, 3, 9, 1, 3, 5] {
            records.push(RecordBuilder::new(&store).with("i", i).build());
        }
        let (out_store, out) = run("AGGREGATE count GROUP BY i", store, &records);
        let i_attr = out_store.find("i").unwrap();
        let keys: Vec<i64> = out
            .iter()
            .map(|r| r.get(i_attr.id()).unwrap().to_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn attributes_resolving_late_are_picked_up() {
        // On-line scenario: the key attribute is created after the
        // aggregator starts.
        let store = Arc::new(AttributeStore::new());
        let spec = parse_query("AGGREGATE count GROUP BY late.attr").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), Arc::clone(&store));
        agg.add(&FlatRecord::new()); // before the attribute exists
        let rec = RecordBuilder::new(&store).with("late.attr", "x").build();
        agg.add(&rec);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn group_by_only_dedups_keys() {
        let store = Arc::new(AttributeStore::new());
        let records = vec![
            RecordBuilder::new(&store).with("k", "a").build(),
            RecordBuilder::new(&store).with("k", "b").build(),
            RecordBuilder::new(&store).with("k", "a").build(),
        ];
        let spec = AggregationSpec::new(Vec::new(), vec!["k".into()]);
        let mut agg = Aggregator::new(spec, store);
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        assert_eq!(out.len(), 2);
        // No ops -> no result attributes beyond the key.
        assert_eq!(out_store.len(), 1);
    }

    #[test]
    fn empty_aggregator_flushes_empty() {
        let store = Arc::new(AttributeStore::new());
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY k").unwrap();
        let agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        let out_store = AttributeStore::new();
        assert!(agg.flush(&out_store).is_empty());
        assert!(agg.is_empty());
        assert_eq!(agg.records_processed(), 0);
    }

    #[test]
    fn mixed_numeric_groups_widen_to_float() {
        // Group "a" sums to an Int, group "b" (via an untyped record
        // carrying a float) to a Float: the shared result attribute
        // widens to Float and both groups coerce consistently.
        let store = Arc::new(AttributeStore::new());
        let x = store.create_simple("x", ValueType::Float);
        let k = store.create_simple("k", ValueType::Str);
        let mut int_rec = FlatRecord::new();
        int_rec.push(k.id(), Value::str("a"));
        int_rec.push(x.id(), Value::Int(2));
        let mut float_rec = FlatRecord::new();
        float_rec.push(k.id(), Value::str("b"));
        float_rec.push(x.id(), Value::Float(1.5));

        let spec = parse_query("AGGREGATE sum(x) GROUP BY k").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.add(&int_rec);
        agg.add(&float_rec);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        let sum = out_store.find("sum#x").unwrap();
        assert_eq!(sum.value_type(), ValueType::Float);
        assert_eq!(out.len(), 2);
        // The Int group's result is coerced to the widened type.
        for rec in &out {
            assert_eq!(
                rec.get(sum.id()).unwrap().value_type(),
                ValueType::Float
            );
        }
    }

    #[test]
    fn duplicate_target_occurrences_all_count() {
        // A record carrying the target attribute twice contributes both
        // occurrences to sum (nested measurement attributes).
        let store = Arc::new(AttributeStore::new());
        let x = store.create_simple("x", ValueType::Int);
        let mut rec = FlatRecord::new();
        rec.push(x.id(), Value::Int(3));
        rec.push(x.id(), Value::Int(4));
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY nothing").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.add(&rec);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        assert_eq!(out.len(), 1);
        let sum = out_store.find("sum#x").unwrap();
        let count = out_store.find("count").unwrap();
        assert_eq!(out[0].get(sum.id()), Some(&Value::Int(7)));
        // but count counts records, not occurrences
        assert_eq!(out[0].get(count.id()), Some(&Value::UInt(1)));
    }

    #[test]
    fn max_groups_caps_db_and_routes_overflow() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in 0..10i64 {
            // keys k0..k9 in ascending order; 2 records each
            for _ in 0..2 {
                records.push(
                    RecordBuilder::new(&store)
                        .with("k", format!("k{i}").as_str())
                        .with("x", i)
                        .build(),
                );
            }
        }
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY k").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.set_max_groups(Some(4));
        for r in &records {
            agg.add(r);
            assert!(agg.len() <= 4, "db exceeded cap");
        }
        assert!(agg.has_overflow());
        // 6 evicted groups x 2 records
        assert_eq!(agg.overflow_records(), 12);

        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        assert_eq!(out.len(), 5); // 4 groups + overflow row, last
        let k = out_store.find("k").unwrap();
        let count = out_store.find("count").unwrap();
        let sum = out_store.find("sum#x").unwrap();
        let last = out.last().unwrap();
        assert_eq!(last.get(k.id()), Some(&Value::str(OVERFLOW_KEY)));
        assert_eq!(last.get(count.id()), Some(&Value::UInt(12)));
        // evicted groups k4..k9: sum = 2*(4+5+..+9) = 78
        assert_eq!(last.get(sum.id()), Some(&Value::Int(78)));
        // admitted groups keep exact results
        let k0 = out
            .iter()
            .find(|r| r.get(k.id()) == Some(&Value::str("k0")))
            .unwrap();
        assert_eq!(k0.get(count.id()), Some(&Value::UInt(2)));
    }

    #[test]
    fn capped_merge_is_order_deterministic() {
        // Merging the same set of partials must admit the same keys and
        // produce identical flushed output no matter how records were
        // partitioned, as long as the merge sequence is the same.
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in [7i64, 2, 9, 4, 1, 8, 3, 6, 0, 5, 7, 2, 9, 4] {
            records.push(RecordBuilder::new(&store).with("k", i).with("x", 1i64).build());
        }
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY k").unwrap();
        let aspec = AggregationSpec::from_query(&spec);

        let flush_of = |partition: usize| {
            let mut parts: Vec<Aggregator> = (0..partition)
                .map(|_| {
                    let mut a = Aggregator::new(aspec.clone(), Arc::clone(&store));
                    a.set_max_groups(Some(3));
                    a
                })
                .collect();
            for (i, r) in records.iter().enumerate() {
                parts[i % partition].add(r);
            }
            let mut root = parts.remove(0);
            for p in parts {
                root.merge(p);
            }
            assert!(root.len() <= 3);
            let out_store = AttributeStore::new();
            let out = root.flush(&out_store);
            let count = out_store.find("count").unwrap();
            let total: u64 = out
                .iter()
                .map(|r| r.get(count.id()).unwrap().to_u64().unwrap())
                .sum();
            let lines: Vec<String> = out.iter().map(|r| r.describe(&out_store)).collect();
            (lines, total)
        };
        // Different partition counts change arrival order within shards;
        // totals must be conserved regardless.
        for parts in [1, 2, 3] {
            let (out, total) = flush_of(parts);
            assert_eq!(out.len(), 4, "{out:?}");
            assert_eq!(total, records.len() as u64, "{out:?}");
        }
        // Same partitioning twice → byte-identical output.
        assert_eq!(flush_of(2), flush_of(2));
    }

    #[test]
    fn overflow_forces_string_key_columns() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in 0..5i64 {
            records.push(RecordBuilder::new(&store).with("i", i).build());
        }
        let spec = parse_query("AGGREGATE count GROUP BY i").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.set_max_groups(Some(2));
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        let i_attr = out_store.find("i").unwrap();
        assert_eq!(i_attr.value_type(), ValueType::Str);
        for rec in &out {
            assert_eq!(
                rec.get(i_attr.id()).unwrap().value_type(),
                ValueType::Str
            );
        }
        assert_eq!(
            out.last().unwrap().get(i_attr.id()),
            Some(&Value::str(OVERFLOW_KEY))
        );
    }

    #[test]
    fn percent_total_with_overflow_still_sums_to_100() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for (k, t) in [("a", 10.0), ("b", 30.0), ("c", 40.0), ("d", 20.0)] {
            records.push(
                RecordBuilder::new(&store)
                    .with("kernel", k)
                    .with("time", t)
                    .build(),
            );
        }
        let spec = parse_query("AGGREGATE percent_total(time) GROUP BY kernel").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.set_max_groups(Some(2));
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store);
        assert_eq!(out.len(), 3);
        let p = out_store.find("percent_total#time").unwrap();
        let total: f64 = out
            .iter()
            .map(|r| r.get(p.id()).unwrap().to_f64().unwrap())
            .sum();
        assert!((total - 100.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn uncapped_behavior_is_unchanged() {
        let (store, records) = store_with_listing1();
        let spec = parse_query("AGGREGATE count, sum(time) GROUP BY function").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        assert_eq!(agg.max_groups(), None);
        for r in &records {
            agg.add(r);
        }
        assert!(!agg.has_overflow());
        assert_eq!(agg.overflow_records(), 0);
    }

    #[test]
    fn percent_total_sums_to_100() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for (k, t) in [("a", 10.0), ("b", 30.0), ("c", 60.0)] {
            records.push(
                RecordBuilder::new(&store)
                    .with("kernel", k)
                    .with("time", t)
                    .build(),
            );
        }
        let (out_store, out) = run(
            "AGGREGATE percent_total(time) GROUP BY kernel",
            store,
            &records,
        );
        let p = out_store.find("percent_total#time").unwrap();
        let total: f64 = out
            .iter()
            .map(|r| r.get(p.id()).unwrap().to_f64().unwrap())
            .sum();
        assert!((total - 100.0).abs() < 1e-9);
    }
}
