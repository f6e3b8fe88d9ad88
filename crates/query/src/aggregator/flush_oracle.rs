//! `flush` held to the row emitter it was before it became the row view
//! of `flush_into`. That emitter is copied below unchanged, but for its
//! comparator's name and the metrics it published, and is the oracle:
//! every pair of every row must carry the same label, class and bits.
//!
//! Its comparator built a `Value` per slot and left distinct keys of one
//! `f64` image (an `Int` and a `Float` of one value, 2^53 and 2^53 + 1)
//! in hash-map order, so the generated numbers keep distinct keys on
//! distinct images: integers, and floats halfway between them.

use std::cmp::Ordering;
use std::sync::Arc;

use proptest::prelude::*;

use super::*;
use crate::parser::parse_query;

/// The old key order: slot by slot, by the values the cells stand for
/// in `strings`; absent sorts first.
fn by_values(strings: &StringTable, a: &[KeyCell], b: &[KeyCell]) -> Ordering {
    let mut slots = a.iter().zip(b).map(|(a, b)| match (a.0, b.0) {
        (Some(a), Some(b)) => strings.get(a).total_cmp(&strings.get(b)),
        (a, b) => a.is_some().cmp(&b.is_some()),
    });
    slots.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
}

/// The old `Aggregator::flush`.
fn oracle(agg: &Aggregator, out_store: &AttributeStore) -> Vec<FlatRecord> {
    let has_overflow = agg.overflow.is_some();
    let mut rows: Vec<(&[KeyCell], &DbEntry)> = Vec::with_capacity(agg.db.len() + 1);
    rows.extend(
        agg.db
            .iter()
            .map(|(key, &group)| (&**key, &agg.entries[group as usize])),
    );
    rows.sort_by(|a, b| by_values(&agg.strings, a.0, b.0));
    rows.extend(agg.overflow.iter().map(|entry| (&[][..], entry)));

    let declare = |label: &str, vtype, properties| {
        let created = out_store.create(label, vtype, properties);
        created.unwrap_or_else(|_| out_store.find(label).expect("exists"))
    };
    let key_attrs: Vec<Option<Attribute>> = agg
        .spec
        .key
        .iter()
        .enumerate()
        .map(|(slot, label)| {
            let vtype = if has_overflow {
                Some(ValueType::Str)
            } else {
                agg.store.find(label).map(|a| a.value_type()).or_else(|| {
                    let mut cells = rows.iter().filter_map(|(key, _)| key.get(slot)?.0);
                    cells.next().map(|cell| agg.strings.get(cell).value_type())
                })
            };
            vtype.map(|t| declare(label, t, Properties::DEFAULT))
        })
        .collect();

    let mut result_types: Vec<Option<ValueType>> = vec![None; agg.spec.ops.len()];
    let mut denominators = vec![0.0; agg.spec.ops.len()];
    for (i, op) in agg.spec.ops.iter().enumerate() {
        if op.kind == OpKind::PercentTotal {
            denominators[i] = rows.iter().map(|(_, e)| e.reducers[i].raw_sum()).sum();
        }
    }
    for (_, entry) in &rows {
        for (i, red) in entry.reducers.iter().enumerate() {
            if let Some(v) = red.finish(denominators[i]) {
                let t = v.value_type();
                result_types[i] = Some(match result_types[i] {
                    None => t,
                    Some(prev) if prev == t => t,
                    Some(prev) if prev.is_numeric() && t.is_numeric() => ValueType::Float,
                    Some(_) => ValueType::Str,
                });
            }
        }
    }
    let result_attrs: Vec<Option<Attribute>> = agg
        .spec
        .ops
        .iter()
        .zip(&result_types)
        .map(|(op, vtype)| {
            let label = op.result_label(&agg.spec.count_label);
            vtype.map(|t| declare(&label, t, Properties::AGGREGATABLE))
        })
        .collect();

    let coerce = |attr: &Attribute, value: Value| match (attr.value_type(), &value) {
        (ValueType::Float, v) if v.value_type() != ValueType::Float => {
            Value::Float(v.to_f64().unwrap_or(0.0))
        }
        (ValueType::Str, v) if v.value_type() != ValueType::Str => Value::str(v.to_string()),
        _ => value,
    };

    let mut out = Vec::with_capacity(rows.len());
    for (key, entry) in rows {
        let mut rec = FlatRecord::new();
        for (slot, attr) in key_attrs.iter().enumerate() {
            let value = match key.get(slot) {
                Some(cell) => cell.0.map(|cell| agg.strings.get(cell).into_owned()),
                None => Some(Value::str(OVERFLOW_KEY)),
            };
            if let (Some(value), Some(attr)) = (value, attr) {
                rec.push(attr.id(), coerce(attr, value));
            }
        }
        for (i, red) in entry.reducers.iter().enumerate() {
            if let (Some(value), Some(attr)) = (red.finish(denominators[i]), &result_attrs[i]) {
                rec.push(attr.id(), coerce(attr, value));
            }
        }
        out.push(rec);
    }
    out
}

/// Rows as `describe` renders them, and pair by pair as (label, class,
/// bits) — a float by `f64::to_bits`, a string by its text.
type Fingerprint = (Vec<String>, Vec<Vec<(String, String)>>);

fn fingerprint(rows: &[FlatRecord], store: &AttributeStore) -> Fingerprint {
    let described = rows.iter().map(|row| row.describe(store)).collect();
    let pairs = rows
        .iter()
        .map(|row| {
            let pair = |(attr, value): &(AttrId, Value)| {
                let bits = match value {
                    Value::Str(s) => format!("str {s}"),
                    Value::Int(i) => format!("int {i}"),
                    Value::UInt(u) => format!("uint {u}"),
                    Value::Float(x) => format!("float {:#x}", x.to_bits()),
                    Value::Bool(b) => format!("bool {b}"),
                };
                (
                    store
                        .name_of(*attr)
                        .expect("a declared attribute")
                        .to_string(),
                    bits,
                )
            };
            row.pairs().iter().map(pair).collect()
        })
        .collect();
    (described, pairs)
}

/// The input attributes, with the types the input store declares: key
/// labels `a` (int), `b` (string), `c` (double); targets `x` (double),
/// `y` (int).
const LABELS: [(&str, ValueType); 5] = [
    ("a", ValueType::Int),
    ("b", ValueType::Str),
    ("c", ValueType::Float),
    ("x", ValueType::Float),
    ("y", ValueType::Int),
];

/// One value of attribute `which` per (class, number): an `Int`, a
/// `UInt`, a `Float` halfway between integers, or a string — some of
/// which parse as numbers — whatever the attribute declares. An
/// attribute twice in a record is a nested key (`/`-joined).
type Field = (u8, u8, i8);

fn record(ids: &[AttrId], fields: &[Field]) -> FlatRecord {
    let mut record = FlatRecord::new();
    for &(which, class, n) in fields {
        let value = match class % 4 {
            0 => Value::Int(i64::from(n)),
            1 => Value::UInt(u64::from(n.unsigned_abs())),
            2 => Value::Float(f64::from(n) + 0.5),
            _ => Value::str(["s0", "s1", "2.5", "-1"][n.rem_euclid(4) as usize]),
        };
        record.push(ids[which as usize % ids.len()], value);
    }
    record
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The row view of `flush_into` is the old row emitter, row for row
    /// and bit for bit: mixed-class, absent and `/`-joined keys, every
    /// op, with and without an overflow row, into an output store that
    /// may already hold a key or result label with another type.
    #[test]
    fn flush_is_the_row_emitter_it_replaced(
        key in 0usize..5,
        max_groups in 0usize..4,
        taken in any::<u8>(),
        records in prop::collection::vec(
            prop::collection::vec((0u8..5, 0u8..4, -5i8..6), 0..6),
            0..60,
        ),
    ) {
        let key = ["a", "a, b", "b, c", "c, a, b", "b"][key];
        let query = format!(
            "AGGREGATE count, sum(x), sum(y), min(x), max(y), min(b), max(a), avg(x), \
             percent_total(x), variance(y), stddev(x), histogram(x, -4, 4, 4), \
             percentile(y, 50) GROUP BY {key}"
        );
        let store = Arc::new(AttributeStore::new());
        let ids: Vec<AttrId> = LABELS
            .iter()
            .map(|(label, vtype)| store.create(label, *vtype, Properties::DEFAULT).unwrap().id())
            .collect();
        let spec = AggregationSpec::from_query(&parse_query(&query).unwrap());
        let mut agg = Aggregator::new(spec, Arc::clone(&store));
        agg.set_max_groups([None, Some(1), Some(3), Some(12)][max_groups]);
        for fields in &records {
            agg.add(&record(&ids, fields));
        }

        // Labels the output store may hold already, with other types.
        let out_store = || {
            let out = AttributeStore::new();
            let labels = [("a", ValueType::Str), ("sum#x", ValueType::Int), ("c", ValueType::UInt)];
            for (bit, (label, vtype)) in labels.into_iter().enumerate() {
                if taken >> bit & 1 == 1 {
                    out.create(label, vtype, Properties::DEFAULT).unwrap();
                }
            }
            out
        };
        let (old, new) = (out_store(), out_store());
        let want = fingerprint(&oracle(&agg, &old), &old);
        prop_assert_eq!(fingerprint(&agg.flush(&new), &new), want);
    }
}
