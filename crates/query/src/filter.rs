//! What a WHERE comparison means: how `attr <op> literal` reads the
//! occurrences of the attribute in one row, and which comparisons can
//! never depend on the data. The block fold ([`BlockFold`](crate::BlockFold))
//! is the one evaluator of WHERE; it compares through
//! `cmp_occurrences`, a run's constant once and other rows one by one.

use std::borrow::Borrow;

use caliper_data::{Value, ValueType};

use crate::ast::CmpOp;

/// Can a comparison between a value of type `lhs` and one of type `rhs`
/// ever be non-constant?
///
/// [`Value`]'s equality is class-strict — `Int(2) != Float(2.0)` — with
/// one deliberate exception (`Int`/`UInt` compare numerically), and its
/// total order groups numbers before strings. So `=`/`!=` between
/// different classes (other than the `Int`/`UInt` pair) and ordering
/// comparisons between a string and a number always produce the same
/// answer, whatever the data says. The sema pass reports such filters
/// at check time (`W004`); the fold counts them at run time in the
/// `query.filter.type_mismatch` metric.
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
/// makes visible.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_query;
    use caliper_data::{RecordBuilder, SnapshotRecord};
    use caliper_format::Dataset;

    /// A dataset of `records`, each given as its pairs in order.
    fn dataset(records: &[&[(&str, Value)]]) -> Dataset {
        let mut ds = Dataset::new();
        for pairs in records {
            let rec = pairs
                .iter()
                .fold(RecordBuilder::new(&ds.store), |rec, (label, value)| {
                    rec.with(label, value.clone())
                })
                .build();
            ds.push(SnapshotRecord::from(&rec));
        }
        ds
    }

    /// The two records the comparisons below look at: a kernel record
    /// of rank 0 and an MPI record of rank 1.
    fn records() -> Dataset {
        dataset(&[
            &[
                ("kernel", Value::str("calc-dt")),
                ("mpi.rank", Value::Int(0)),
                ("time.duration", Value::Float(5.0)),
            ],
            &[
                ("mpi.function", Value::str("MPI_Barrier")),
                ("mpi.rank", Value::Int(1)),
                ("time.duration", Value::Float(50.0)),
            ],
        ])
    }

    /// The ranks of the records `where_` keeps, in order.
    fn kept(ds: &Dataset, where_: &str) -> Vec<i64> {
        let result = run_query(ds, &format!("SELECT * {where_}")).unwrap();
        let rank = result.store.find("mpi.rank").unwrap().id();
        let ranks = result.records.iter().map(|r| r.get(rank).unwrap().to_i64().unwrap());
        ranks.collect()
    }

    #[test]
    fn exists_and_not_exists() {
        let ds = records();
        // WHERE not(mpi.function) — the paper's exclusion of MPI records.
        assert_eq!(kept(&ds, "WHERE not(mpi.function)"), [0]);
        assert_eq!(kept(&ds, "WHERE kernel"), [0]);
        assert_eq!(kept(&ds, "WHERE mpi.function"), [1]);
    }

    #[test]
    fn unresolved_labels() {
        let ds = records();
        assert_eq!(kept(&ds, "WHERE nope"), [0; 0]);
        assert_eq!(kept(&ds, "WHERE not(nope)"), [0, 1]);
        assert_eq!(kept(&ds, "WHERE nope = 0"), [0; 0]);
    }

    #[test]
    fn comparisons() {
        let ds = records();
        assert_eq!(kept(&ds, "WHERE mpi.rank = 0"), [0]);
        assert_eq!(kept(&ds, "WHERE time.duration > 10.0"), [1]);
    }

    #[test]
    fn conditions_are_anded() {
        let ds = records();
        assert_eq!(kept(&ds, "WHERE kernel, mpi.rank = 0"), [0]);
        assert_eq!(kept(&ds, "WHERE kernel, mpi.rank = 1"), [0; 0]);
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
        let ds = dataset(&[&[("mpi.rank", Value::Int(0)), ("time.duration", Value::Float(5.0))]]);
        let counter = caliper_data::metrics::global().counter("query.filter.type_mismatch");
        let before = counter.get();
        // Float attribute compared against an Int literal: the classic
        // never-matches footgun.
        assert_eq!(kept(&ds, "WHERE time.duration = 5"), [0; 0]);
        assert_eq!(counter.get(), before + 1);
        // A compatible comparison leaves the counter alone.
        assert_eq!(kept(&ds, "WHERE time.duration > 1"), [0]);
        assert_eq!(counter.get(), before + 1);
    }

    #[test]
    fn ne_requires_no_occurrence_to_match() {
        let ds = dataset(&[&[
            ("mpi.rank", Value::Int(0)),
            ("function", Value::str("main")),
            ("function", Value::str("foo")),
        ]]);
        // "main" occurs, so != main fails even though "foo" also occurs.
        assert_eq!(kept(&ds, "WHERE function != main"), [0; 0]);
        assert_eq!(kept(&ds, "WHERE function != bar"), [0]);
    }
}
