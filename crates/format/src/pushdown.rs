//! The WHERE clause, decided in one place: what a condition is
//! ([`Filter`], [`CmpOp`]), whether a row passes it
//! ([`Filter::row_passes`], which the query engine's block fold calls for
//! every row it tests), which conditions a block's zone map may decide
//! ([`Filter::pushable`]), and when a CALB v2 block can be skipped
//! undecoded ([`Pushdown::may_match`]).
//!
//! A [`Pushdown`] is the reader-side image of a CalQL WHERE clause: the
//! conditions the zone maps may decide, keyed by attribute *name*
//! (attribute ids are per-stream and mean nothing before a stream's
//! dictionary is decoded). The v2 block reader hands each block's zone
//! statistics — per-attribute presence counts and min/max bounds — to
//! [`Pushdown::may_match`], and skips the whole block without decoding
//! any record when the answer is provably "no record here can pass".
//!
//! # Soundness contract
//!
//! `may_match` may only return `false` when **no** row of the block
//! passes [`Filter::row_passes`] for every condition. The row test's
//! rules, which the block test bounds:
//!
//! * equality is `Value`'s `PartialEq` — class-strict, floats by bit
//!   pattern, with the deliberate `Int`/`UInt` numeric exception;
//! * ordering is `Value::total_cmp` — strings after numbers, numbers by
//!   `f64::total_cmp` of their numeric view;
//! * a comparison requires the attribute to be present (`absent` fails);
//! * `!=` passes only when *no* occurrence equals the literal, other
//!   operators when *any* occurrence satisfies.
//!
//! `PartialEq`-equal values always compare `Equal` under `total_cmp`
//! (bit-equal floats trivially; equal integers via their `f64` view), so
//! an equality match can never hide outside the `[min, max]` zone bounds
//! and the `=` skip rule is sound. The converse does **not** hold:
//! integers beyond 2⁵³ can compare `Equal` under `total_cmp` while being
//! `PartialEq`-different, so the `!=` skip rule additionally requires the
//! bound values to be exactly representable (see `exactly_comparable`).
//!
//! The full decision flow is specified in `docs/CALB.md` §"Predicate
//! pushdown" and DESIGN.md §10.

use std::borrow::Borrow;
use std::cmp::Ordering;

use caliper_data::{Value, ValueType};

/// Comparison operators of WHERE conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate `lhs op rhs` using the data model's total order (numeric
    /// comparison for numbers, lexical for strings).
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        use Ordering::*;
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs.total_cmp(rhs) == Less,
            CmpOp::Le => lhs.total_cmp(rhs) != Greater,
            CmpOp::Gt => lhs.total_cmp(rhs) == Greater,
            CmpOp::Ge => lhs.total_cmp(rhs) != Less,
        }
    }

    /// The operator as written in queries.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One WHERE condition. Conditions in a clause are AND-combined.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `WHERE attr` — the record carries the attribute.
    Exists(String),
    /// `WHERE not(attr)` — the record does not carry the attribute.
    NotExists(String),
    /// `WHERE attr <op> literal` — any occurrence satisfies the
    /// comparison (for `!=`: no occurrence equals the literal).
    Cmp {
        /// Attribute label.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
}

impl Filter {
    /// The attribute label the condition reads.
    pub fn label(&self) -> &str {
        match self {
            Filter::Exists(label) | Filter::NotExists(label) => label,
            Filter::Cmp { attr, .. } => attr,
        }
    }

    /// The row test: does a row whose occurrences of the condition's
    /// attribute are `occurrences` (in record order, none if it lacks
    /// the attribute) pass? Also returns how many occurrences have a
    /// value class that can never satisfy (or fail) the comparison (see
    /// [`cmp_types_compatible`]) — the silent type-coercion drop the
    /// `query.filter.type_mismatch` metric makes visible.
    pub fn row_passes<V: Borrow<Value>>(
        &self,
        occurrences: impl ExactSizeIterator<Item = V> + Clone,
    ) -> (bool, u64) {
        let present = occurrences.len() > 0;
        let (op, literal) = match self {
            Filter::Exists(_) => return (present, 0),
            Filter::NotExists(_) => return (!present, 0),
            Filter::Cmp { .. } if !present => return (false, 0),
            Filter::Cmp { op, value, .. } => (*op, value),
        };
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

    /// May a block's zone map decide this condition? Not when it is on
    /// one of `let_outputs`, the query's LET bindings: LET runs after
    /// decode (and before WHERE), so the zone map describes the wrong
    /// values — a LET that shadows a stream attribute even rewrites the
    /// same attribute id. Every other condition is pushed.
    pub fn pushable<'a>(&self, let_outputs: impl IntoIterator<Item = &'a str>) -> bool {
        !let_outputs.into_iter().any(|name| name == self.label())
    }
}

/// Can a comparison between a value of type `lhs` and one of type `rhs`
/// ever be non-constant?
///
/// [`Value`]'s equality is class-strict — `Int(2) != Float(2.0)` — with
/// one deliberate exception (`Int`/`UInt` compare numerically), and its
/// total order groups numbers before strings. So `=`/`!=` between
/// different classes (other than the `Int`/`UInt` pair) and ordering
/// comparisons between a string and a number always produce the same
/// answer, whatever the data says. The query's semantic pass reports
/// such filters at check time (`W004`); the row test counts them at run
/// time.
pub fn cmp_types_compatible(op: CmpOp, lhs: ValueType, rhs: ValueType) -> bool {
    let int_like = |t: ValueType| matches!(t, ValueType::Int | ValueType::UInt);
    match op {
        CmpOp::Eq | CmpOp::Ne => lhs == rhs || (int_like(lhs) && int_like(rhs)),
        // Ordering: strings only order against strings; everything else
        // (numbers, bools) orders numerically.
        _ => (lhs == ValueType::Str) == (rhs == ValueType::Str),
    }
}

/// Per-attribute zone statistics of one block: how many of the block's
/// records carry the attribute, and the bounds of every occurrence's
/// value under [`Value::total_cmp`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneStat {
    /// Records (not occurrences) in the block that carry the attribute
    /// at least once, after node-path expansion.
    pub present: u64,
    /// Minimum occurrence value under `total_cmp`.
    pub min: Value,
    /// Maximum occurrence value under `total_cmp`.
    pub max: Value,
}

/// What a block knows about one attribute name, as resolved through the
/// stream dictionary by the reader.
#[derive(Debug, Clone, Copy)]
pub enum AttrStats<'a> {
    /// The attribute cannot occur in any of the block's records: the
    /// name is undeclared in the stream, or declared but absent from
    /// this block's zone map.
    Absent,
    /// The reader cannot reason about the name safely (e.g. the stream
    /// dictionary declares it more than once); assume anything.
    Unsure,
    /// The attribute's zone statistics for this block.
    Zone(&'a ZoneStat),
}

/// The conditions of a WHERE clause a block's zone map may decide.
///
/// A condition that is not [pushable](Filter::pushable) must simply be
/// **omitted** by the producer: dropping a conjunct can only make
/// `may_match` more conservative, never unsound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pushdown {
    filters: Vec<Filter>,
}

impl Pushdown {
    /// An empty pushdown (never skips anything).
    pub fn new() -> Pushdown {
        Pushdown::default()
    }

    /// Add one conjunct.
    pub fn push(&mut self, filter: Filter) {
        self.filters.push(filter);
    }

    /// True when no conditions were pushed down (every block may match).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// The pushed-down conjuncts.
    pub fn filters(&self) -> &[Filter] {
        &self.filters
    }

    /// Conservative block test: could **any** record of a block with the
    /// given statistics pass every condition? `rows` is the block's
    /// record count and `stats` resolves an attribute name to its
    /// per-block statistics. Returns `true` (do not skip) whenever in
    /// doubt.
    pub fn may_match<'z>(&self, rows: u64, stats: impl Fn(&str) -> AttrStats<'z>) -> bool {
        if rows == 0 {
            // An empty block trivially contains no matching record, but
            // there is nothing to decode either; never skip it so the
            // reader's record accounting stays uniform.
            return true;
        }
        self.filters.iter().all(|filter| {
            let zone = match stats(filter.label()) {
                AttrStats::Unsure => return true,
                AttrStats::Absent => None,
                AttrStats::Zone(z) => Some(z).filter(|z| z.present > 0),
            };
            match (filter, zone) {
                // Every record lacks the attribute: all of them pass
                // `not`, and none passes anything else.
                (Filter::NotExists(_), None) => true,
                (_, None) => false,
                (Filter::Exists(_), Some(_)) => true,
                // Skip only when every record carries the attribute.
                (Filter::NotExists(_), Some(z)) => z.present < rows,
                (Filter::Cmp { op, value, .. }, Some(z)) => cmp_may_match(*op, value, z),
            }
        })
    }
}

/// Zone-bounds test for one comparison: could any occurrence in
/// `[zone.min, zone.max]` pass `op literal` as the row test decides it?
fn cmp_may_match(op: CmpOp, literal: &Value, zone: &ZoneStat) -> bool {
    let below_min = |v: &Value| v.total_cmp(&zone.min) == Ordering::Less;
    let above_max = |v: &Value| v.total_cmp(&zone.max) == Ordering::Greater;
    match op {
        // A PartialEq match implies total_cmp equality, so an equal
        // occurrence cannot hide outside [min, max].
        CmpOp::Eq => !(below_min(literal) || above_max(literal)),
        // Skip only when provably *every* occurrence equals the literal:
        // both bounds are PartialEq-equal to it and the values are exact
        // under total_cmp, so nothing in between can differ.
        CmpOp::Ne => {
            !(&zone.min == literal
                && &zone.max == literal
                && exactly_comparable(&zone.min)
                && exactly_comparable(&zone.max)
                && exactly_comparable(literal))
        }
        // Ordering follows total_cmp transitivity: e.g. for `<`, if even
        // the minimum does not order below the literal, nothing does.
        CmpOp::Lt => zone.min.total_cmp(literal) == Ordering::Less,
        CmpOp::Le => zone.min.total_cmp(literal) != Ordering::Greater,
        CmpOp::Gt => zone.max.total_cmp(literal) == Ordering::Greater,
        CmpOp::Ge => zone.max.total_cmp(literal) != Ordering::Less,
    }
}

/// True when `total_cmp` equality implies `PartialEq` equality for this
/// value: strings, floats (bit-pattern order), bools, and integers whose
/// `f64` no other integer rounds to. From 2⁵³ on, integers collapse
/// under the `f64` projection `total_cmp` uses — 2⁵³ + 1 rounds to 2⁵³
/// — so they are excluded.
fn exactly_comparable(value: &Value) -> bool {
    const EXACT: u64 = 1 << 53;
    match value {
        Value::Str(_) | Value::Float(_) | Value::Bool(_) => true,
        Value::Int(i) => i.unsigned_abs() < EXACT,
        Value::UInt(u) => *u < EXACT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(present: u64, min: Value, max: Value) -> ZoneStat {
        ZoneStat { present, min, max }
    }

    fn one(filter: Filter) -> Pushdown {
        let mut p = Pushdown::new();
        p.push(filter);
        p
    }

    fn cmp(attr: &str, op: CmpOp, value: Value) -> Filter {
        Filter::Cmp {
            attr: attr.into(),
            op,
            value,
        }
    }

    #[test]
    fn empty_pushdown_never_skips() {
        let p = Pushdown::new();
        assert!(p.is_empty());
        assert!(p.may_match(10, |_| AttrStats::Absent));
    }

    #[test]
    fn exists_against_presence() {
        let p = one(Filter::Exists("x".into()));
        assert!(!p.may_match(4, |_| AttrStats::Absent));
        assert!(p.may_match(4, |_| AttrStats::Unsure));
        let z = zone(1, Value::Int(0), Value::Int(0));
        assert!(p.may_match(4, |_| AttrStats::Zone(&z)));
    }

    #[test]
    fn not_exists_skips_only_saturated_blocks() {
        let p = one(Filter::NotExists("x".into()));
        assert!(p.may_match(4, |_| AttrStats::Absent));
        let partial = zone(3, Value::Int(0), Value::Int(9));
        assert!(p.may_match(4, |_| AttrStats::Zone(&partial)));
        let full = zone(4, Value::Int(0), Value::Int(9));
        assert!(!p.may_match(4, |_| AttrStats::Zone(&full)));
    }

    #[test]
    fn cmp_requires_presence() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let p = one(cmp("x", op, Value::Int(1)));
            assert!(!p.may_match(4, |_| AttrStats::Absent), "{op:?}");
        }
    }

    #[test]
    fn eq_uses_zone_bounds() {
        let z = zone(4, Value::Int(10), Value::Int(20));
        let may = |v: i64| {
            one(cmp("x", CmpOp::Eq, Value::Int(v))).may_match(4, |_| AttrStats::Zone(&z))
        };
        assert!(!may(9));
        assert!(may(10));
        assert!(may(15));
        assert!(may(20));
        assert!(!may(21));
    }

    #[test]
    fn orderings_use_the_right_bound() {
        let z = zone(4, Value::Float(1.0), Value::Float(2.0));
        let may = |op, v: f64| {
            one(cmp("x", op, Value::Float(v))).may_match(4, |_| AttrStats::Zone(&z))
        };
        // <  : only the min matters.
        assert!(!may(CmpOp::Lt, 1.0));
        assert!(may(CmpOp::Lt, 1.5));
        // <= : min == literal is enough.
        assert!(may(CmpOp::Le, 1.0));
        assert!(!may(CmpOp::Le, 0.5));
        // >  : only the max matters.
        assert!(!may(CmpOp::Gt, 2.0));
        assert!(may(CmpOp::Gt, 1.5));
        // >= : max == literal is enough.
        assert!(may(CmpOp::Ge, 2.0));
        assert!(!may(CmpOp::Ge, 2.5));
    }

    #[test]
    fn strings_order_against_strings() {
        let z = zone(2, Value::str("beta"), Value::str("delta"));
        assert!(one(cmp("x", CmpOp::Eq, Value::str("charlie")))
            .may_match(2, |_| AttrStats::Zone(&z)));
        assert!(!one(cmp("x", CmpOp::Eq, Value::str("epsilon")))
            .may_match(2, |_| AttrStats::Zone(&z)));
        // Numbers order before strings under total_cmp: a numeric
        // literal can never exceed a string max, so > skips.
        assert!(!one(cmp("x", CmpOp::Lt, Value::Int(7)))
            .may_match(2, |_| AttrStats::Zone(&z)));
    }

    #[test]
    fn ne_skips_only_provably_constant_blocks() {
        let all_seven = zone(4, Value::Int(7), Value::Int(7));
        assert!(!one(cmp("x", CmpOp::Ne, Value::Int(7)))
            .may_match(4, |_| AttrStats::Zone(&all_seven)));
        assert!(one(cmp("x", CmpOp::Ne, Value::Int(8)))
            .may_match(4, |_| AttrStats::Zone(&all_seven)));
        // Beyond 2^53, total_cmp equality no longer implies value
        // equality — never skip.
        let big = (1i64 << 53) + 1;
        let huge = zone(4, Value::Int(big), Value::Int(big));
        assert!(one(cmp("x", CmpOp::Ne, Value::Int(big)))
            .may_match(4, |_| AttrStats::Zone(&huge)));
        // 2^53 itself is exact, but 2^53 + 1 rounds to it: a block whose
        // bounds are both 2^53 may hold 2^53 + 1, which passes.
        let edge = zone(4, Value::UInt(1 << 53), Value::UInt(1 << 53));
        assert!(one(cmp("x", CmpOp::Ne, Value::UInt(1 << 53)))
            .may_match(4, |_| AttrStats::Zone(&edge)));
        let below = zone(4, Value::Int((1 << 53) - 1), Value::Int((1 << 53) - 1));
        assert!(!one(cmp("x", CmpOp::Ne, Value::Int((1 << 53) - 1)))
            .may_match(4, |_| AttrStats::Zone(&below)));
    }

    #[test]
    fn int_uint_equality_crosses_classes() {
        // Runtime PartialEq lets Int(5) match UInt(5); the zone test
        // must therefore keep such blocks.
        let z = zone(4, Value::UInt(5), Value::UInt(5));
        assert!(one(cmp("x", CmpOp::Eq, Value::Int(5)))
            .may_match(4, |_| AttrStats::Zone(&z)));
        assert!(!one(cmp("x", CmpOp::Eq, Value::Int(6)))
            .may_match(4, |_| AttrStats::Zone(&z)));
        // And Ne against a constant block skips across classes too
        // (PartialEq is numeric for the Int/UInt pair).
        assert!(!one(cmp("x", CmpOp::Ne, Value::Int(5)))
            .may_match(4, |_| AttrStats::Zone(&z)));
    }

    #[test]
    fn conjunction_skips_when_any_predicate_proves_empty() {
        let z = zone(4, Value::Int(0), Value::Int(9));
        let mut p = Pushdown::new();
        p.push(Filter::Exists("x".into()));
        p.push(cmp("x", CmpOp::Gt, Value::Int(100)));
        let stats = |name: &str| {
            if name == "x" {
                AttrStats::Zone(&z)
            } else {
                AttrStats::Absent
            }
        };
        assert!(!p.may_match(4, stats));
    }

    #[test]
    fn empty_blocks_are_never_skipped() {
        let p = one(Filter::Exists("x".into()));
        assert!(p.may_match(0, |_| AttrStats::Absent));
    }

    /// The row test over `occurrences`.
    fn row(filter: &Filter, occurrences: &[Value]) -> (bool, u64) {
        filter.row_passes(occurrences.iter())
    }

    #[test]
    fn cmp_ops_evaluate() {
        assert!(CmpOp::Eq.eval(&Value::Int(3), &Value::Int(3)));
        assert!(CmpOp::Ne.eval(&Value::Int(3), &Value::Int(4)));
        assert!(CmpOp::Lt.eval(&Value::Int(3), &Value::Float(3.5)));
        assert!(CmpOp::Ge.eval(&Value::str("b"), &Value::str("a")));
        assert!(CmpOp::Le.eval(&Value::UInt(2), &Value::Int(2)));
    }

    #[test]
    fn a_condition_reads_one_label() {
        assert_eq!(Filter::Exists("a".into()).label(), "a");
        assert_eq!(Filter::NotExists("b".into()).label(), "b");
        assert_eq!(cmp("c", CmpOp::Lt, Value::Int(1)).label(), "c");
    }

    #[test]
    fn presence_is_all_exists_and_not_read() {
        let (exists, not) = (Filter::Exists("x".into()), Filter::NotExists("x".into()));
        // A falsy value is still an occurrence.
        assert_eq!(row(&exists, &[Value::Int(0)]), (true, 0));
        assert_eq!(row(&exists, &[]), (false, 0));
        assert_eq!(row(&not, &[Value::str("")]), (false, 0));
        assert_eq!(row(&not, &[]), (true, 0));
    }

    #[test]
    fn comparisons_require_presence() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(row(&cmp("x", op, Value::Int(1)), &[]), (false, 0), "{op:?}");
        }
    }

    #[test]
    fn ne_requires_no_occurrence_to_match() {
        let nested = [Value::str("main"), Value::str("foo")];
        // "main" occurs, so != main fails even though "foo" also occurs.
        assert!(!row(&cmp("f", CmpOp::Ne, Value::str("main")), &nested).0);
        assert!(row(&cmp("f", CmpOp::Ne, Value::str("bar")), &nested).0);
        // Any other operator passes on any occurrence.
        assert!(row(&cmp("f", CmpOp::Eq, Value::str("foo")), &nested).0);
        assert!(row(&cmp("f", CmpOp::Lt, Value::str("goo")), &nested).0);
        assert!(!row(&cmp("f", CmpOp::Gt, Value::str("main")), &nested).0);
    }

    #[test]
    fn mismatched_occurrences_are_counted() {
        // A float attribute against an int literal: never equal, and
        // every occurrence counted.
        let floats = [Value::Float(5.0), Value::Float(6.0)];
        assert_eq!(row(&cmp("t", CmpOp::Eq, Value::Int(5)), &floats), (false, 2));
        assert_eq!(row(&cmp("t", CmpOp::Ne, Value::Int(5)), &floats), (true, 2));
        // Ordering across numbers is compatible; Int meets UInt.
        assert_eq!(row(&cmp("t", CmpOp::Gt, Value::Int(5)), &floats), (true, 0));
        assert_eq!(row(&cmp("r", CmpOp::Eq, Value::Int(5)), &[Value::UInt(5)]), (true, 0));
        assert_eq!(row(&cmp("s", CmpOp::Lt, Value::Int(5)), &[Value::str("a")]), (false, 1));
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
    fn conditions_on_let_outputs_are_not_pushable() {
        let lets = ["ms", "share"];
        assert!(!cmp("ms", CmpOp::Gt, Value::Int(5)).pushable(lets));
        assert!(!Filter::NotExists("share".into()).pushable(lets));
        assert!(Filter::Exists("rank".into()).pushable(lets));
        assert!(Filter::Exists("ms".into()).pushable([]));
    }
}
