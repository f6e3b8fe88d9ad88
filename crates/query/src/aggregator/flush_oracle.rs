//! `flush` held to the row emitter it was before it became the row view
//! of `flush_into`. That emitter is copied below unchanged, but for its
//! comparator's name, the metrics it published and the state it read —
//! it takes each row's key and results as values now ([`Row`]), which is
//! also how the state oracle (`state_oracle.rs`) hands it the old
//! per-group state's rows — and is the oracle: every pair of every row
//! must carry the same label, class and bits.
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

/// One row of the old emitter: the key's value per label (`None` where
/// absent) — no key at all for the overflow bucket's row — and each
/// op's finished result.
pub(super) struct Row {
    pub(super) key: Option<Vec<Option<Value>>>,
    pub(super) results: Vec<Option<Value>>,
}

/// The old key order: slot by slot, by value; absent sorts first.
pub(super) fn by_values(a: &[Option<Value>], b: &[Option<Value>]) -> Ordering {
    let mut slots = a.iter().zip(b).map(|(a, b)| match (a, b) {
        (Some(a), Some(b)) => a.total_cmp(b),
        (a, b) => a.is_some().cmp(&b.is_some()),
    });
    slots.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
}

/// The old `Aggregator::flush` of an aggregation of `spec` over `store`,
/// from its rows: the keyed ones in key order, then the overflow
/// bucket's.
pub(super) fn emit(
    spec: &AggregationSpec,
    store: &AttributeStore,
    rows: &[Row],
    out_store: &AttributeStore,
) -> Vec<FlatRecord> {
    let has_overflow = rows.iter().any(|row| row.key.is_none());
    let declare = |label: &str, vtype, properties| {
        let created = out_store.create(label, vtype, properties);
        created.unwrap_or_else(|_| out_store.find(label).expect("exists"))
    };
    let key_attrs: Vec<Option<Attribute>> = spec
        .key
        .iter()
        .enumerate()
        .map(|(slot, label)| {
            let vtype = if has_overflow {
                Some(ValueType::Str)
            } else {
                store.find(label).map(|a| a.value_type()).or_else(|| {
                    let mut values = rows
                        .iter()
                        .filter_map(|row| row.key.as_ref()?[slot].as_ref());
                    values.next().map(Value::value_type)
                })
            };
            vtype.map(|t| declare(label, t, Properties::DEFAULT))
        })
        .collect();

    let mut result_types: Vec<Option<ValueType>> = vec![None; spec.ops.len()];
    for row in rows {
        for (i, result) in row.results.iter().enumerate() {
            if let Some(v) = result {
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
    let result_attrs: Vec<Option<Attribute>> = spec
        .ops
        .iter()
        .zip(&result_types)
        .map(|(op, vtype)| {
            let label = op.result_label(&spec.count_label);
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
    for row in rows {
        let mut rec = FlatRecord::new();
        for (slot, attr) in key_attrs.iter().enumerate() {
            let value = match &row.key {
                Some(key) => key[slot].clone(),
                None => Some(Value::str(OVERFLOW_KEY)),
            };
            if let (Some(value), Some(attr)) = (value, attr) {
                rec.push(attr.id(), coerce(attr, value));
            }
        }
        for (result, attr) in row.results.iter().zip(&result_attrs) {
            if let (Some(value), Some(attr)) = (result, attr) {
                rec.push(attr.id(), coerce(attr, value.clone()));
            }
        }
        out.push(rec);
    }
    out
}

/// The old emitter over `agg`'s state: its groups sorted by
/// [`by_values`], then the overflow bucket.
fn oracle(agg: &Aggregator, out_store: &AttributeStore) -> Vec<FlatRecord> {
    let value = |cell: &KeyCell| cell.0.map(|cell| agg.strings.get(cell).into_owned());
    let mut keyed: Vec<(Vec<Option<Value>>, u32)> = agg
        .keyed()
        .into_iter()
        .map(|group| (agg.key_of(group).iter().map(value).collect(), group))
        .collect();
    keyed.sort_by(|a, b| by_values(&a.0, &b.0));
    let order: Vec<u32> = keyed
        .iter()
        .map(|(_, group)| *group)
        .chain(agg.overflow)
        .collect();
    let denominators: Vec<f64> = agg.ops.iter().map(|op| op.denominator(&order)).collect();
    let results = |group: u32| {
        let (group, records) = (group as usize, agg.records[group as usize]);
        let mut out = StringTable::default();
        let mut finish = |(op, &d): (&Column, &f64)| {
            let cell = op.finish(group, records, d, &agg.strings, &mut out)?;
            Some(out.get(cell).into_owned())
        };
        agg.ops.iter().zip(&denominators).map(&mut finish).collect()
    };
    let mut rows: Vec<Row> = keyed
        .into_iter()
        .map(|(key, group)| Row {
            key: Some(key),
            results: results(group),
        })
        .collect();
    rows.extend(agg.overflow.map(|group| Row {
        key: None,
        results: results(group),
    }));
    emit(&agg.spec, &agg.store, &rows, out_store)
}

/// Rows as `describe` renders them, and pair by pair as (label, class,
/// bits) — a float by `f64::to_bits`, a string by its text.
pub(super) type Fingerprint = (Vec<String>, Vec<Vec<(String, String)>>);

pub(super) fn fingerprint(rows: &[FlatRecord], store: &AttributeStore) -> Fingerprint {
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
pub(super) const LABELS: [(&str, ValueType); 5] = [
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
