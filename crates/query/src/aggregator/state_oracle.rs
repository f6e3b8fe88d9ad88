//! The aggregator's group state — a key arena and one accumulator column
//! per op — held to the per-group state it replaced: a record count and
//! a `Vec` of `Value`-holding reducers per group (`OldEntry` and
//! `OldReducer` below, copied from the code before, the reservoir's
//! capacity bound aside), grouped by a map from each key's
//! values and admitted first-come under the group cap. Both sides take
//! the same files — each fed through `add`, the block fold or
//! `add_snapshot`, into the root or into a partial merged into the root
//! in file order — and the old state's rows go through the old row
//! emitter (`flush_oracle::emit`): every pair of every flushed row must
//! carry the same label, class and bits.
//!
//! As there, distinct generated keys keep distinct `f64` images, which
//! the old key order needs to be total; op inputs are free to be
//! strings, bools, mixed numbers and integers that overflow.

use std::collections::HashMap;
use std::sync::Arc;

use caliper_data::{SnapshotRecord, NODE_NONE};
use caliper_format::Dataset;
use proptest::prelude::*;

use super::flush_oracle::{by_values, emit, fingerprint, Row, LABELS};
use super::*;
use crate::parser::parse_query;
use crate::BlockFold;

const PERCENTILE_CAPACITY: usize = 1024;

/// The reduction state of one op of one group, as it was.
#[derive(Debug, Clone)]
enum OldReducer {
    Count(u64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        n: u64,
    },
    Histogram {
        lo: f64,
        width: f64,
        bins: Vec<u64>,
        under: u64,
        over: u64,
    },
    PercentTotal(f64),
    Moments {
        n: u64,
        mean: f64,
        m2: f64,
        stddev: bool,
    },
    Percentile {
        p: f64,
        sample: Vec<f64>,
        stride: u64,
        seen: u64,
    },
}

fn subsample_sorted(v: &mut Vec<f64>, target: usize) {
    if v.len() <= target || target == 0 {
        return;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let step = v.len() as f64 / target as f64;
    let thinned: Vec<f64> = (0..target)
        .map(|i| v[((i as f64 + 0.5) * step) as usize])
        .collect();
    *v = thinned;
}

impl OldReducer {
    fn new(op: &AggOp) -> OldReducer {
        match op.kind {
            OpKind::Count => OldReducer::Count(0),
            OpKind::Sum => OldReducer::Sum(None),
            OpKind::Min => OldReducer::Min(None),
            OpKind::Max => OldReducer::Max(None),
            OpKind::Avg => OldReducer::Avg { sum: 0.0, n: 0 },
            OpKind::Histogram => {
                let lo = op.args.first().and_then(Value::to_f64).unwrap_or(0.0);
                let hi = op.args.get(1).and_then(Value::to_f64).unwrap_or(1.0);
                let nbins = op
                    .args
                    .get(2)
                    .and_then(Value::to_u64)
                    .unwrap_or(10)
                    .clamp(1, 4096) as usize;
                let width = ((hi - lo) / nbins as f64).max(f64::MIN_POSITIVE);
                OldReducer::Histogram {
                    lo,
                    width,
                    bins: vec![0; nbins],
                    under: 0,
                    over: 0,
                }
            }
            OpKind::PercentTotal => OldReducer::PercentTotal(0.0),
            OpKind::Variance | OpKind::Stddev => OldReducer::Moments {
                n: 0,
                mean: 0.0,
                m2: 0.0,
                stddev: op.kind == OpKind::Stddev,
            },
            OpKind::Percentile => OldReducer::Percentile {
                p: op
                    .args
                    .first()
                    .and_then(Value::to_f64)
                    .unwrap_or(50.0)
                    .clamp(0.0, 100.0),
                sample: Vec::new(),
                stride: 1,
                seen: 0,
            },
        }
    }

    fn update(&mut self, value: &Value) {
        match self {
            OldReducer::Count(n) => *n += 1,
            OldReducer::Sum(acc) => {
                *acc = match acc.take() {
                    None => Some(value.clone()),
                    Some(prev) => Some(prev.checked_add(value).unwrap_or_else(|| {
                        Value::Float(prev.to_f64().unwrap_or(0.0) + value.to_f64().unwrap_or(0.0))
                    })),
                };
            }
            OldReducer::Min(acc) => {
                let better = match acc {
                    None => true,
                    Some(prev) => value.total_cmp(prev).is_lt(),
                };
                if better {
                    *acc = Some(value.clone());
                }
            }
            OldReducer::Max(acc) => {
                let better = match acc {
                    None => true,
                    Some(prev) => value.total_cmp(prev).is_gt(),
                };
                if better {
                    *acc = Some(value.clone());
                }
            }
            OldReducer::Avg { sum, n } => {
                if let Some(v) = value.to_f64() {
                    *sum += v;
                    *n += 1;
                }
            }
            OldReducer::Histogram {
                lo,
                width,
                bins,
                under,
                over,
            } => {
                if let Some(v) = value.to_f64() {
                    if v < *lo {
                        *under += 1;
                    } else {
                        let bin = ((v - *lo) / *width) as usize;
                        if bin < bins.len() {
                            bins[bin] += 1;
                        } else {
                            *over += 1;
                        }
                    }
                }
            }
            OldReducer::PercentTotal(sum) => {
                if let Some(v) = value.to_f64() {
                    *sum += v;
                }
            }
            OldReducer::Moments { n, mean, m2, .. } => {
                if let Some(v) = value.to_f64() {
                    *n += 1;
                    let delta = v - *mean;
                    *mean += delta / *n as f64;
                    *m2 += delta * (v - *mean);
                }
            }
            OldReducer::Percentile {
                sample,
                stride,
                seen,
                ..
            } => {
                if let Some(v) = value.to_f64() {
                    if *seen % *stride == 0 {
                        if sample.len() >= PERCENTILE_CAPACITY {
                            let mut keep = 0;
                            sample.retain(|_| {
                                keep += 1;
                                keep % 2 == 1
                            });
                            *stride *= 2;
                        }
                        sample.push(v);
                    }
                    *seen += 1;
                }
            }
        }
    }

    fn merge(&mut self, other: &OldReducer) {
        match (self, other) {
            (OldReducer::Count(a), OldReducer::Count(b)) => *a += b,
            (OldReducer::Sum(a), OldReducer::Sum(b)) => {
                if let Some(bv) = b {
                    match a.take() {
                        None => *a = Some(bv.clone()),
                        Some(av) => {
                            *a = Some(av.checked_add(bv).unwrap_or_else(|| {
                                Value::Float(
                                    av.to_f64().unwrap_or(0.0) + bv.to_f64().unwrap_or(0.0),
                                )
                            }))
                        }
                    }
                }
            }
            (OldReducer::Min(a), OldReducer::Min(b)) => {
                if let Some(bv) = b {
                    let better = match a {
                        None => true,
                        Some(av) => bv.total_cmp(av).is_lt(),
                    };
                    if better {
                        *a = Some(bv.clone());
                    }
                }
            }
            (OldReducer::Max(a), OldReducer::Max(b)) => {
                if let Some(bv) = b {
                    let better = match a {
                        None => true,
                        Some(av) => bv.total_cmp(av).is_gt(),
                    };
                    if better {
                        *a = Some(bv.clone());
                    }
                }
            }
            (OldReducer::Avg { sum: sa, n: na }, OldReducer::Avg { sum: sb, n: nb }) => {
                *sa += sb;
                *na += nb;
            }
            (
                OldReducer::Histogram {
                    bins: ba,
                    under: ua,
                    over: oa,
                    ..
                },
                OldReducer::Histogram {
                    bins: bb,
                    under: ub,
                    over: ob,
                    ..
                },
            ) if ba.len() == bb.len() => {
                for (a, b) in ba.iter_mut().zip(bb) {
                    *a += b;
                }
                *ua += ub;
                *oa += ob;
            }
            (OldReducer::PercentTotal(a), OldReducer::PercentTotal(b)) => *a += b,
            (
                OldReducer::Moments {
                    n: na,
                    mean: ma,
                    m2: m2a,
                    ..
                },
                OldReducer::Moments {
                    n: nb,
                    mean: mb,
                    m2: m2b,
                    ..
                },
            ) => {
                let n = *na + *nb;
                if *nb > 0 {
                    if *na == 0 {
                        *ma = *mb;
                        *m2a = *m2b;
                    } else {
                        let delta = *mb - *ma;
                        *m2a += *m2b + delta * delta * (*na as f64) * (*nb as f64) / n as f64;
                        *ma += delta * (*nb as f64) / n as f64;
                    }
                    *na = n;
                }
            }
            (
                OldReducer::Percentile {
                    sample: sa,
                    seen: seena,
                    stride: stridea,
                    ..
                },
                OldReducer::Percentile {
                    sample: sb,
                    seen: seenb,
                    stride: strideb,
                    ..
                },
            ) => {
                let total = *seena + *seenb;
                if sa.len() + sb.len() > PERCENTILE_CAPACITY && total > 0 {
                    let quota_a = ((PERCENTILE_CAPACITY as u64 * *seena) / total).max(1) as usize;
                    subsample_sorted(sa, quota_a);
                    let mut b_copy = sb.clone();
                    subsample_sorted(&mut b_copy, PERCENTILE_CAPACITY - quota_a);
                    sa.extend_from_slice(&b_copy);
                } else {
                    sa.extend_from_slice(sb);
                }
                *stridea = (*stridea).max(*strideb);
                *seena = total;
            }
            (a, b) => panic!("merging mismatched reducers: {a:?} vs {b:?}"),
        }
    }

    fn finish(&self, percent_total_denominator: f64) -> Option<Value> {
        match self {
            OldReducer::Count(n) => Some(Value::UInt(*n)),
            OldReducer::Sum(acc) | OldReducer::Min(acc) | OldReducer::Max(acc) => acc.clone(),
            OldReducer::Avg { sum, n } => (*n > 0).then(|| Value::Float(sum / *n as f64)),
            OldReducer::Histogram {
                bins, under, over, ..
            } => {
                let body: Vec<String> = bins.iter().map(u64::to_string).collect();
                Some(Value::str(format!("{}|{}|{}", under, body.join(" "), over)))
            }
            OldReducer::PercentTotal(sum) => (percent_total_denominator > 0.0)
                .then(|| Value::Float(100.0 * sum / percent_total_denominator)),
            OldReducer::Moments { n, m2, stddev, .. } => (*n > 0).then(|| {
                let variance = m2 / *n as f64;
                Value::Float(if *stddev { variance.sqrt() } else { variance })
            }),
            OldReducer::Percentile { p, sample, .. } => {
                if sample.is_empty() {
                    return None;
                }
                let mut sorted = sample.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let idx = (p / 100.0) * (sorted.len() - 1) as f64;
                let lo = idx.floor() as usize;
                let hi = idx.ceil() as usize;
                let frac = idx - lo as f64;
                Some(Value::Float(sorted[lo] * (1.0 - frac) + sorted[hi] * frac))
            }
        }
    }

    fn raw_sum(&self) -> f64 {
        match self {
            OldReducer::PercentTotal(s) => *s,
            OldReducer::Sum(Some(v)) => v.to_f64().unwrap_or(0.0),
            OldReducer::Avg { sum, .. } => *sum,
            OldReducer::Count(n) => *n as f64,
            _ => 0.0,
        }
    }
}

/// One group as it was: its reducers and its record count.
#[derive(Debug, Clone)]
struct OldEntry {
    reducers: Vec<OldReducer>,
    records: u64,
}

impl OldEntry {
    fn fresh(ops: &[AggOp]) -> OldEntry {
        OldEntry {
            reducers: ops.iter().map(OldReducer::new).collect(),
            records: 0,
        }
    }

    fn fold(&mut self, other: &OldEntry) {
        for (mine, theirs) in self.reducers.iter_mut().zip(&other.reducers) {
            mine.merge(theirs);
        }
        self.records += other.records;
    }
}

/// What a key value is told apart by: a string by its text, a float by
/// its bits, a non-negative `Int` and a `UInt` of one magnitude alike.
fn identity(value: &Value) -> (u8, String) {
    match value {
        Value::Str(text) => (1, text.to_string()),
        Value::UInt(u) => (2, u.to_string()),
        Value::Int(i) if *i >= 0 => (2, i.to_string()),
        Value::Int(i) => (3, i.to_string()),
        Value::Float(x) => (4, x.to_bits().to_string()),
        Value::Bool(b) => (5, b.to_string()),
    }
}

type Key = Vec<Option<Value>>;

/// The old aggregation database over rows: the groups in admission
/// order, found by their keys' identities, and the overflow bucket.
struct Old {
    spec: AggregationSpec,
    keys: Vec<Option<AttrId>>,
    targets: Vec<Option<AttrId>>,
    cap: Option<usize>,
    index: HashMap<Vec<Option<(u8, String)>>, usize>,
    groups: Vec<(Key, OldEntry)>,
    overflow: Option<OldEntry>,
}

impl Old {
    fn new(spec: &AggregationSpec, store: &AttributeStore, cap: Option<usize>) -> Old {
        let find = |label: &str| store.find(label).map(|attr| attr.id());
        Old {
            keys: spec.key.iter().map(|label| find(label)).collect(),
            targets: spec
                .ops
                .iter()
                .map(|op| find(op.target.as_deref().unwrap_or_default()))
                .collect(),
            spec: spec.clone(),
            cap,
            index: HashMap::new(),
            groups: Vec::new(),
            overflow: None,
        }
    }

    /// The entry of `key`, admitted first-come while there is room, or
    /// the overflow bucket.
    fn entry(&mut self, key: Key) -> &mut OldEntry {
        let identity: Vec<_> = key
            .iter()
            .map(|value| value.as_ref().map(identity))
            .collect();
        let index = match self.index.get(&identity) {
            Some(&index) => index,
            None if self.cap.is_some_and(|cap| self.groups.len() >= cap) => {
                return self
                    .overflow
                    .get_or_insert_with(|| OldEntry::fresh(&self.spec.ops));
            }
            None => {
                self.index.insert(identity, self.groups.len());
                self.groups.push((key, OldEntry::fresh(&self.spec.ops)));
                self.groups.len() - 1
            }
        };
        &mut self.groups[index].1
    }

    fn add(&mut self, record: &FlatRecord) {
        let key = self
            .keys
            .iter()
            .map(|attr| {
                let values: Vec<&Value> = attr.iter().flat_map(|&attr| record.all(attr)).collect();
                match values[..] {
                    [] => None,
                    [one] => Some(one.clone()),
                    ref many => {
                        let texts: Vec<_> = many.iter().map(|v| v.to_text()).collect();
                        Some(Value::str(texts.join("/")))
                    }
                }
            })
            .collect();
        let (ops, targets) = (self.spec.ops.clone(), self.targets.clone());
        let entry = self.entry(key);
        entry.records += 1;
        for ((reducer, op), target) in entry.reducers.iter_mut().zip(&ops).zip(&targets) {
            match (op.kind, target) {
                (OpKind::Count, _) => reducer.update(&Value::UInt(1)),
                (_, Some(attr)) => record.all(*attr).for_each(|value| reducer.update(value)),
                (_, None) => {}
            }
        }
    }

    fn merge(&mut self, other: Old) {
        if let Some(theirs) = other.overflow {
            let ops = &self.spec.ops;
            self.overflow
                .get_or_insert_with(|| OldEntry::fresh(ops))
                .fold(&theirs);
        }
        let mut incoming = other.groups;
        if self.cap.is_some() {
            incoming.sort_by(|a, b| by_values(&a.0, &b.0));
        }
        for (key, theirs) in incoming {
            self.entry(key).fold(&theirs);
        }
    }

    /// The emitter's rows: the groups in key order, then the overflow
    /// bucket, `percent_total` over their raw sums in that order.
    fn rows(&self) -> Vec<Row> {
        let mut groups: Vec<(Option<&Key>, &OldEntry)> = self
            .groups
            .iter()
            .map(|(key, entry)| (Some(key), entry))
            .collect();
        groups.sort_by(|a, b| by_values(a.0.unwrap(), b.0.unwrap()));
        groups.extend(self.overflow.iter().map(|entry| (None, entry)));
        let denominators: Vec<f64> = (0..self.spec.ops.len())
            .map(|i| match self.spec.ops[i].kind {
                OpKind::PercentTotal => groups.iter().map(|(_, e)| e.reducers[i].raw_sum()).sum(),
                _ => 0.0,
            })
            .collect();
        groups
            .into_iter()
            .map(|(key, entry)| Row {
                key: key.cloned(),
                results: entry
                    .reducers
                    .iter()
                    .zip(&denominators)
                    .map(|(reducer, &denominator)| reducer.finish(denominator))
                    .collect(),
            })
            .collect()
    }
}

/// One generated field: (attribute, class, number).
type Field = (u8, u8, i8);

/// A value of attribute `which` per (class, number). Key labels (`a`,
/// `b`, `c`) take an `Int`, a `UInt`, a `Float` halfway between integers
/// or a string — some of which parse as numbers; targets (`x`, `y`) also
/// a `Bool` and integers next to their class's overflow.
fn value(which: usize, class: u8, n: i8) -> Value {
    match (class % 7, which >= 3) {
        (1, _) => Value::UInt(u64::from(n.unsigned_abs())),
        (2, _) => Value::Float(f64::from(n) + 0.5),
        (3, _) => Value::str(["s0", "s1", "2.5", "-1"][n.rem_euclid(4) as usize]),
        (4, true) => Value::Bool(n % 2 == 0),
        (5, true) => Value::Int(i64::MAX - i64::from(n.unsigned_abs())),
        (6, true) => Value::UInt(u64::MAX - u64::from(n.unsigned_abs())),
        _ => Value::Int(i64::from(n)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The column state flushes what the per-group reducers did, row for
    /// row and bit for bit, whichever way each file came in.
    #[test]
    fn group_columns_are_the_reducers_they_replaced(
        key in 0usize..5,
        max_groups in 0usize..4,
        files in prop::collection::vec(
            (
                0u8..3,
                any::<bool>(),
                prop::collection::vec(prop::collection::vec((0u8..5, 0u8..7, -5i8..6), 0..6), 0..20),
            ),
            1..6,
        ),
    ) {
        let key = ["a", "a, b", "b, c", "c, a, b", "nothing"][key];
        let query = format!(
            "AGGREGATE count, sum(x), sum(y), min(x), max(x), min(y), max(y), avg(y), \
             percent_total(x), variance(y), stddev(x), histogram(y, -4, 4, 4), \
             percentile(x, 50) GROUP BY {key}"
        );
        let cap = [None, Some(1), Some(3), Some(12)][max_groups];
        let store = Arc::new(AttributeStore::new());
        let ids: Vec<AttrId> = LABELS
            .iter()
            .map(|(label, vtype)| store.create(label, *vtype, Properties::DEFAULT).unwrap().id())
            .collect();
        let tree = Arc::new(ContextTree::new());
        let spec = AggregationSpec::from_query(&parse_query(&query).unwrap());
        let fresh = || {
            let mut agg = Aggregator::new(spec.clone(), Arc::clone(&store));
            agg.set_max_groups(cap);
            agg
        };

        let (mut root, mut old_root) = (fresh(), Old::new(&spec, &store, cap));
        for (way, merged, records) in &files {
            let fields = |record: &Vec<Field>| -> Vec<(AttrId, Value)> {
                let field = |&(which, class, n): &Field| {
                    let which = which as usize % ids.len();
                    (ids[which], value(which, class, n))
                };
                record.iter().map(field).collect()
            };
            let (mut partial, mut old_partial) = (fresh(), Old::new(&spec, &store, cap));
            let (agg, old) = match merged {
                true => (&mut partial, &mut old_partial),
                false => (&mut root, &mut old_root),
            };
            match way {
                // Rows.
                0 => {
                    for record in records {
                        let row = FlatRecord::from_pairs(fields(record));
                        agg.add(&row);
                        old.add(&row);
                    }
                }
                // A block of immediates, through a fold.
                1 => {
                    let (mut block, mut strings) = (Block::default(), StringTable::default());
                    for record in records {
                        for (attr, value) in fields(record) {
                            let column = block.column_for(attr, value.value_type());
                            block.push_imm(column, strings.cell(&value));
                        }
                        assert!(block.end_row());
                        old.add(&FlatRecord::from_pairs(fields(record)));
                    }
                    let ds = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
                    let mut fold = BlockFold::for_aggregation(&spec);
                    fold.fold(agg, &ds, &mut strings, &block);
                }
                // Snapshots: the first field on a context-tree node, the
                // others immediates.
                _ => {
                    for record in records {
                        let mut entries = Vec::new();
                        for (i, (attr, value)) in fields(record).into_iter().enumerate() {
                            entries.push(match i {
                                0 => Entry::Node(tree.get_child(NODE_NONE, attr, &value)),
                                _ => Entry::Imm(attr, value),
                            });
                        }
                        let snapshot = SnapshotRecord::from_entries(entries);
                        agg.add_snapshot(&snapshot, &tree);
                        old.add(&snapshot.unpack(&tree));
                    }
                }
            }
            if *merged {
                root.merge(partial);
                old_root.merge(old_partial);
            }
        }

        prop_assert_eq!(root.len(), old_root.groups.len());
        prop_assert_eq!(root.overflow_records(), old_root.overflow.as_ref().map_or(0, |e| e.records));
        let (old, new) = (AttributeStore::new(), AttributeStore::new());
        let want = fingerprint(&emit(&spec, &store, &old_root.rows(), &old), &old);
        prop_assert_eq!(fingerprint(&root.flush(&new), &new), want);
    }
}
