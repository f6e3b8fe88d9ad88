//! WHERE-clause evaluation over flat records.

use std::borrow::Borrow;
use std::cell::Cell;
use std::sync::Arc;

use caliper_data::metrics::Counter;
use caliper_data::{AttrId, AttributeStore, FlatRecord, Value, ValueType};

use crate::ast::{CmpOp, Filter};

/// Can a comparison between a value of type `lhs` and one of type `rhs`
/// ever be non-constant?
///
/// [`Value`]'s equality is class-strict — `Int(2) != Float(2.0)` — with
/// one deliberate exception (`Int`/`UInt` compare numerically), and its
/// total order groups numbers before strings. So `=`/`!=` between
/// different classes (other than the `Int`/`UInt` pair) and ordering
/// comparisons between a string and a number always produce the same
/// answer, whatever the data says. The sema pass reports such filters
/// at check time (`W004`); [`FilterSet::matches`] counts them at run
/// time in the `query.filter.type_mismatch` metric.
pub fn cmp_types_compatible(op: CmpOp, lhs: ValueType, rhs: ValueType) -> bool {
    let int_like = |t: ValueType| matches!(t, ValueType::Int | ValueType::UInt);
    match op {
        CmpOp::Eq | CmpOp::Ne => lhs == rhs || (int_like(lhs) && int_like(rhs)),
        // Ordering: strings only order against strings; everything else
        // (numbers, bools) orders numerically.
        _ => (lhs == ValueType::Str) == (rhs == ValueType::Str),
    }
}

/// Evaluate `attr <op> literal` over the occurrences of the attribute in
/// one record (the caller has checked there is at least one). `!=`
/// passes when *no* occurrence equals the literal, every other operator
/// when *any* occurrence satisfies it. Also returns how many occurrences
/// have a value class that can never satisfy (or fail) the comparison —
/// the silent type-coercion drop the `query.filter.type_mismatch` metric
/// makes visible. Shared by the row path and the block fold.
pub(crate) fn cmp_occurrences<V: Borrow<Value>>(
    op: CmpOp,
    literal: &Value,
    occurrences: impl Iterator<Item = V> + Clone,
) -> (bool, u64) {
    let literal_type = literal.value_type();
    let mismatched = occurrences
        .clone()
        .filter(|v| !cmp_types_compatible(op, v.borrow().value_type(), literal_type))
        .count();
    let mut occurrences = occurrences;
    let matched = match op {
        CmpOp::Ne => occurrences.all(|v| v.borrow() != literal),
        op => occurrences.any(|v| op.eval(v.borrow(), literal)),
    };
    (matched, mismatched as u64)
}

/// Compiled filter bound to an attribute store. Attribute lookups are
/// cached; labels that do not resolve (yet) behave as "attribute absent".
pub struct FilterSet {
    filters: Vec<(Filter, Cell<Option<AttrId>>)>,
    store: Arc<AttributeStore>,
    type_mismatches: Counter,
}

impl FilterSet {
    /// Compile a filter list against a store.
    pub fn new(filters: Vec<Filter>, store: Arc<AttributeStore>) -> FilterSet {
        FilterSet {
            filters: filters
                .into_iter()
                .map(|f| (f, Cell::new(None)))
                .collect(),
            store,
            type_mismatches: caliper_data::metrics::global()
                .counter("query.filter.type_mismatch"),
        }
    }

    /// True if there are no conditions (everything passes).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Publish mismatches counted outside [`FilterSet::matches`].
    pub(crate) fn add_type_mismatches(&self, n: u64) {
        if n > 0 {
            self.type_mismatches.add(n);
        }
    }

    fn resolve(&self, cache: &Cell<Option<AttrId>>, label: &str) -> Option<AttrId> {
        if cache.get().is_none() {
            cache.set(self.store.find(label).map(|attr| attr.id()));
        }
        cache.get()
    }

    /// Evaluate all conditions (AND) against a record.
    pub fn matches(&self, record: &FlatRecord) -> bool {
        self.filters.iter().all(|(filter, cache)| match filter {
            Filter::Exists(label) => match self.resolve(cache, label) {
                Some(attr) => record.contains(attr),
                None => false,
            },
            Filter::NotExists(label) => match self.resolve(cache, label) {
                Some(attr) => !record.contains(attr),
                None => true,
            },
            Filter::Cmp { attr, op, value } => match self.resolve(cache, attr) {
                Some(attr) if record.contains(attr) => {
                    let (matched, mismatched) = cmp_occurrences(*op, value, record.all(attr));
                    self.add_type_mismatches(mismatched);
                    matched
                }
                _ => false,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{RecordBuilder, Value};

    fn store_and_records() -> (Arc<AttributeStore>, Vec<FlatRecord>) {
        let store = Arc::new(AttributeStore::new());
        let records = vec![
            RecordBuilder::new(&store)
                .with("kernel", "calc-dt")
                .with("mpi.rank", 0i64)
                .with("time.duration", 5.0)
                .build(),
            RecordBuilder::new(&store)
                .with("mpi.function", "MPI_Barrier")
                .with("mpi.rank", 1i64)
                .with("time.duration", 50.0)
                .build(),
        ];
        (store, records)
    }

    fn eval(filters: Vec<Filter>, store: &Arc<AttributeStore>, rec: &FlatRecord) -> bool {
        FilterSet::new(filters, Arc::clone(store)).matches(rec)
    }

    #[test]
    fn exists_and_not_exists() {
        let (store, recs) = store_and_records();
        // WHERE not(mpi.function) — the paper's exclusion of MPI records.
        let f = vec![Filter::NotExists("mpi.function".into())];
        assert!(eval(f.clone(), &store, &recs[0]));
        assert!(!eval(f, &store, &recs[1]));

        let f = vec![Filter::Exists("kernel".into())];
        assert!(eval(f.clone(), &store, &recs[0]));
        assert!(!eval(f, &store, &recs[1]));
    }

    #[test]
    fn unresolved_labels() {
        let (store, recs) = store_and_records();
        assert!(!eval(vec![Filter::Exists("nope".into())], &store, &recs[0]));
        assert!(eval(
            vec![Filter::NotExists("nope".into())],
            &store,
            &recs[0]
        ));
        assert!(!eval(
            vec![Filter::Cmp {
                attr: "nope".into(),
                op: CmpOp::Eq,
                value: Value::Int(0)
            }],
            &store,
            &recs[0]
        ));
    }

    #[test]
    fn comparisons() {
        let (store, recs) = store_and_records();
        let rank_eq_0 = vec![Filter::Cmp {
            attr: "mpi.rank".into(),
            op: CmpOp::Eq,
            value: Value::Int(0),
        }];
        assert!(eval(rank_eq_0.clone(), &store, &recs[0]));
        assert!(!eval(rank_eq_0, &store, &recs[1]));

        let slow = vec![Filter::Cmp {
            attr: "time.duration".into(),
            op: CmpOp::Gt,
            value: Value::Float(10.0),
        }];
        assert!(!eval(slow.clone(), &store, &recs[0]));
        assert!(eval(slow, &store, &recs[1]));
    }

    #[test]
    fn conditions_are_anded() {
        let (store, recs) = store_and_records();
        let both = vec![
            Filter::Exists("kernel".into()),
            Filter::Cmp {
                attr: "mpi.rank".into(),
                op: CmpOp::Eq,
                value: Value::Int(0),
            },
        ];
        assert!(eval(both.clone(), &store, &recs[0]));
        assert!(!eval(both, &store, &recs[1]));
    }

    #[test]
    fn type_compatibility_rules() {
        use ValueType::*;
        // Equality: class-strict with the Int/UInt exception.
        assert!(cmp_types_compatible(CmpOp::Eq, Int, Int));
        assert!(cmp_types_compatible(CmpOp::Eq, Int, UInt));
        assert!(!cmp_types_compatible(CmpOp::Eq, Float, Int));
        assert!(!cmp_types_compatible(CmpOp::Ne, Str, Int));
        assert!(!cmp_types_compatible(CmpOp::Eq, Bool, Int));
        // Ordering: strings only against strings.
        assert!(cmp_types_compatible(CmpOp::Lt, Float, Int));
        assert!(cmp_types_compatible(CmpOp::Ge, Str, Str));
        assert!(!cmp_types_compatible(CmpOp::Gt, Str, Float));
        assert!(!cmp_types_compatible(CmpOp::Le, Int, Str));
    }

    #[test]
    fn mismatched_comparisons_bump_metric() {
        let (store, recs) = store_and_records();
        let counter = caliper_data::metrics::global().counter("query.filter.type_mismatch");
        let before = counter.get();
        // Float attribute compared against an Int literal: the classic
        // never-matches footgun.
        let f = vec![Filter::Cmp {
            attr: "time.duration".into(),
            op: CmpOp::Eq,
            value: Value::Int(5),
        }];
        assert!(!eval(f, &store, &recs[0]));
        assert_eq!(counter.get(), before + 1);
        // A compatible comparison leaves the counter alone.
        let ok = vec![Filter::Cmp {
            attr: "time.duration".into(),
            op: CmpOp::Gt,
            value: Value::Int(1),
        }];
        assert!(eval(ok, &store, &recs[0]));
        assert_eq!(counter.get(), before + 1);
    }

    #[test]
    fn ne_requires_no_occurrence_to_match() {
        let store = Arc::new(AttributeStore::new());
        let func = store.create_simple("function", caliper_data::ValueType::Str);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        rec.push(func.id(), Value::str("foo"));
        let ne_main = vec![Filter::Cmp {
            attr: "function".into(),
            op: CmpOp::Ne,
            value: Value::str("main"),
        }];
        // "main" occurs, so != main fails even though "foo" also occurs.
        assert!(!eval(ne_main, &store, &rec));
        let ne_bar = vec![Filter::Cmp {
            attr: "function".into(),
            op: CmpOp::Ne,
            value: Value::str("bar"),
        }];
        assert!(eval(ne_bar, &store, &rec));
    }
}
