//! Typed WHERE-predicate pushdown against CALB v2 zone maps.
//!
//! A [`Pushdown`] is the reader-side image of a CalQL WHERE clause: a
//! conjunction of per-attribute predicates, keyed by attribute *name*
//! (attribute ids are per-stream and mean nothing before a stream's
//! dictionary is decoded). The v2 block reader hands each block's zone
//! statistics — per-attribute presence counts and min/max bounds — to
//! [`Pushdown::may_match`], and skips the whole block without decoding
//! any record when the answer is provably "no record here can pass".
//!
//! # Soundness contract
//!
//! `may_match` may only return `false` when **no** record of the block
//! would satisfy the filter set at query time. The decision mirrors the
//! runtime comparison semantics exactly (see `filter::cmp_occurrences`
//! in `caliper-query`):
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

use std::cmp::Ordering;

use caliper_data::Value;

/// Comparison operators a pushdown predicate can carry — the reader-side
/// mirror of CalQL's `CmpOp`, kept separate so `caliper-format` does not
/// depend on the query crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushdownOp {
    /// `=` — any occurrence equals the literal (`Value` equality).
    Eq,
    /// `!=` — no occurrence equals the literal.
    Ne,
    /// `<` — any occurrence orders below the literal (`total_cmp`).
    Lt,
    /// `<=` — any occurrence orders at or below the literal.
    Le,
    /// `>` — any occurrence orders above the literal.
    Gt,
    /// `>=` — any occurrence orders at or above the literal.
    Ge,
}

/// One conjunct of a pushed-down WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `WHERE attr` — the record must carry the attribute.
    Exists(String),
    /// `WHERE not(attr)` — the record must not carry the attribute.
    NotExists(String),
    /// `WHERE attr <op> literal` — a typed comparison.
    Cmp {
        /// The compared attribute's name.
        attr: String,
        /// The comparison operator.
        op: PushdownOp,
        /// The literal to compare against.
        value: Value,
    },
}

impl Predicate {
    /// The attribute name the predicate constrains.
    pub fn attr(&self) -> &str {
        match self {
            Predicate::Exists(a) | Predicate::NotExists(a) => a,
            Predicate::Cmp { attr, .. } => attr,
        }
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

/// A conjunction of pushdown predicates derived from a WHERE clause.
///
/// Predicates that cannot be soundly evaluated against zone maps (for
/// example filters on LET-derived attributes, which exist only after
/// decode) must simply be **omitted** by the producer: dropping a
/// conjunct can only make `may_match` more conservative, never unsound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pushdown {
    predicates: Vec<Predicate>,
}

impl Pushdown {
    /// An empty pushdown (never skips anything).
    pub fn new() -> Pushdown {
        Pushdown::default()
    }

    /// Add one conjunct.
    pub fn push(&mut self, predicate: Predicate) {
        self.predicates.push(predicate);
    }

    /// True when no predicates were pushed down (every block may match).
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// The pushed-down conjuncts.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Conservative block test: could **any** record of a block with the
    /// given statistics satisfy every predicate? `rows` is the block's
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
        self.predicates
            .iter()
            .all(|p| predicate_may_match(p, rows, &stats))
    }
}

/// Could any record of the block satisfy this one predicate?
fn predicate_may_match<'z>(
    predicate: &Predicate,
    rows: u64,
    stats: &impl Fn(&str) -> AttrStats<'z>,
) -> bool {
    match predicate {
        Predicate::Exists(attr) => match stats(attr) {
            AttrStats::Absent => false,
            AttrStats::Unsure => true,
            AttrStats::Zone(z) => z.present > 0,
        },
        Predicate::NotExists(attr) => match stats(attr) {
            // Every record lacks the attribute: all of them pass.
            AttrStats::Absent => true,
            AttrStats::Unsure => true,
            // Skip only when every record carries the attribute.
            AttrStats::Zone(z) => z.present < rows,
        },
        Predicate::Cmp { attr, op, value } => match stats(attr) {
            // Comparisons require presence: an all-absent block fails
            // every operator, `!=` included.
            AttrStats::Absent => false,
            AttrStats::Unsure => true,
            AttrStats::Zone(z) => {
                if z.present == 0 {
                    return false;
                }
                cmp_may_match(*op, value, z)
            }
        },
    }
}

/// Zone-bounds test for one comparison, mirroring `CmpOp::eval`.
fn cmp_may_match(op: PushdownOp, literal: &Value, zone: &ZoneStat) -> bool {
    let below_min = |v: &Value| v.total_cmp(&zone.min) == Ordering::Less;
    let above_max = |v: &Value| v.total_cmp(&zone.max) == Ordering::Greater;
    match op {
        // A PartialEq match implies total_cmp equality, so an equal
        // occurrence cannot hide outside [min, max].
        PushdownOp::Eq => !(below_min(literal) || above_max(literal)),
        // Skip only when provably *every* occurrence equals the literal:
        // both bounds are PartialEq-equal to it and the values are exact
        // under total_cmp, so nothing in between can differ.
        PushdownOp::Ne => {
            !(&zone.min == literal
                && &zone.max == literal
                && exactly_comparable(&zone.min)
                && exactly_comparable(&zone.max)
                && exactly_comparable(literal))
        }
        // Ordering mirrors total_cmp transitivity: e.g. for `<`, if even
        // the minimum does not order below the literal, nothing does.
        PushdownOp::Lt => zone.min.total_cmp(literal) == Ordering::Less,
        PushdownOp::Le => zone.min.total_cmp(literal) != Ordering::Greater,
        PushdownOp::Gt => zone.max.total_cmp(literal) == Ordering::Greater,
        PushdownOp::Ge => zone.max.total_cmp(literal) != Ordering::Less,
    }
}

/// True when `total_cmp` equality implies `PartialEq` equality for this
/// value: strings, floats (bit-pattern order), bools, and integers small
/// enough to be exact in an `f64`. Integers beyond 2⁵³ collapse under
/// the `f64` projection `total_cmp` uses, so they are excluded.
fn exactly_comparable(value: &Value) -> bool {
    const EXACT: u64 = 1 << 53;
    match value {
        Value::Str(_) | Value::Float(_) | Value::Bool(_) => true,
        Value::Int(i) => i.unsigned_abs() <= EXACT,
        Value::UInt(u) => *u <= EXACT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(present: u64, min: Value, max: Value) -> ZoneStat {
        ZoneStat { present, min, max }
    }

    fn one(pred: Predicate) -> Pushdown {
        let mut p = Pushdown::new();
        p.push(pred);
        p
    }

    fn cmp(attr: &str, op: PushdownOp, value: Value) -> Predicate {
        Predicate::Cmp {
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
        let p = one(Predicate::Exists("x".into()));
        assert!(!p.may_match(4, |_| AttrStats::Absent));
        assert!(p.may_match(4, |_| AttrStats::Unsure));
        let z = zone(1, Value::Int(0), Value::Int(0));
        assert!(p.may_match(4, |_| AttrStats::Zone(&z)));
    }

    #[test]
    fn not_exists_skips_only_saturated_blocks() {
        let p = one(Predicate::NotExists("x".into()));
        assert!(p.may_match(4, |_| AttrStats::Absent));
        let partial = zone(3, Value::Int(0), Value::Int(9));
        assert!(p.may_match(4, |_| AttrStats::Zone(&partial)));
        let full = zone(4, Value::Int(0), Value::Int(9));
        assert!(!p.may_match(4, |_| AttrStats::Zone(&full)));
    }

    #[test]
    fn cmp_requires_presence() {
        for op in [
            PushdownOp::Eq,
            PushdownOp::Ne,
            PushdownOp::Lt,
            PushdownOp::Le,
            PushdownOp::Gt,
            PushdownOp::Ge,
        ] {
            let p = one(cmp("x", op, Value::Int(1)));
            assert!(!p.may_match(4, |_| AttrStats::Absent), "{op:?}");
        }
    }

    #[test]
    fn eq_uses_zone_bounds() {
        let z = zone(4, Value::Int(10), Value::Int(20));
        let may = |v: i64| {
            one(cmp("x", PushdownOp::Eq, Value::Int(v))).may_match(4, |_| AttrStats::Zone(&z))
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
        assert!(!may(PushdownOp::Lt, 1.0));
        assert!(may(PushdownOp::Lt, 1.5));
        // <= : min == literal is enough.
        assert!(may(PushdownOp::Le, 1.0));
        assert!(!may(PushdownOp::Le, 0.5));
        // >  : only the max matters.
        assert!(!may(PushdownOp::Gt, 2.0));
        assert!(may(PushdownOp::Gt, 1.5));
        // >= : max == literal is enough.
        assert!(may(PushdownOp::Ge, 2.0));
        assert!(!may(PushdownOp::Ge, 2.5));
    }

    #[test]
    fn strings_order_against_strings() {
        let z = zone(2, Value::str("beta"), Value::str("delta"));
        assert!(one(cmp("x", PushdownOp::Eq, Value::str("charlie")))
            .may_match(2, |_| AttrStats::Zone(&z)));
        assert!(!one(cmp("x", PushdownOp::Eq, Value::str("epsilon")))
            .may_match(2, |_| AttrStats::Zone(&z)));
        // Numbers order before strings under total_cmp: a numeric
        // literal can never exceed a string max, so > skips.
        assert!(!one(cmp("x", PushdownOp::Lt, Value::Int(7)))
            .may_match(2, |_| AttrStats::Zone(&z)));
    }

    #[test]
    fn ne_skips_only_provably_constant_blocks() {
        let all_seven = zone(4, Value::Int(7), Value::Int(7));
        assert!(!one(cmp("x", PushdownOp::Ne, Value::Int(7)))
            .may_match(4, |_| AttrStats::Zone(&all_seven)));
        assert!(one(cmp("x", PushdownOp::Ne, Value::Int(8)))
            .may_match(4, |_| AttrStats::Zone(&all_seven)));
        // Beyond 2^53, total_cmp equality no longer implies value
        // equality — never skip.
        let big = (1i64 << 53) + 1;
        let huge = zone(4, Value::Int(big), Value::Int(big));
        assert!(one(cmp("x", PushdownOp::Ne, Value::Int(big)))
            .may_match(4, |_| AttrStats::Zone(&huge)));
    }

    #[test]
    fn int_uint_equality_crosses_classes() {
        // Runtime PartialEq lets Int(5) match UInt(5); the zone test
        // must therefore keep such blocks.
        let z = zone(4, Value::UInt(5), Value::UInt(5));
        assert!(one(cmp("x", PushdownOp::Eq, Value::Int(5)))
            .may_match(4, |_| AttrStats::Zone(&z)));
        assert!(!one(cmp("x", PushdownOp::Eq, Value::Int(6)))
            .may_match(4, |_| AttrStats::Zone(&z)));
        // And Ne against a constant block skips across classes too
        // (PartialEq is numeric for the Int/UInt pair).
        assert!(!one(cmp("x", PushdownOp::Ne, Value::Int(5)))
            .may_match(4, |_| AttrStats::Zone(&z)));
    }

    #[test]
    fn conjunction_skips_when_any_predicate_proves_empty() {
        let z = zone(4, Value::Int(0), Value::Int(9));
        let mut p = Pushdown::new();
        p.push(Predicate::Exists("x".into()));
        p.push(cmp("x", PushdownOp::Gt, Value::Int(100)));
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
        let p = one(Predicate::Exists("x".into()));
        assert!(p.may_match(0, |_| AttrStats::Absent));
    }
}
