//! A reference evaluator for CalQL, small enough to audit by eye: rows
//! of `(label, value)` pairs, in record order, folded into an ordered map
//! from key to per-op state — or, for a pass-through query (no AGGREGATE,
//! no GROUP BY), kept as they are. Written from docs/CALQL.md and
//! DESIGN.md §6/§10, it shares nothing with the engine but the parsed
//! query: no interning, no blocks, no columns, no hashing.
//!
//! * [`Oracle::fold`] takes one record: LET appends its outputs, WHERE
//!   keeps or drops the record, and a pass-through query keeps it, LET
//!   outputs and all. Otherwise the key is read (absent, the value, or
//!   the `/`-joined text of several occurrences), the group is found or
//!   admitted first-come under the cap — else the overflow group — and
//!   each op folds every occurrence of its target.
//! * [`Oracle::merge`] folds another partial in: its kept rows after
//!   ours; its overflow group first, then its groups in key order,
//!   admitted as a record's key is.
//! * [`Oracle::finish`] makes the rows a flush makes: groups in key
//!   order, then the overflow row, every column typed as DESIGN.md §10
//!   types it ("Flush is a block") — or the kept rows, in stream order.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use caliper_data::{Value, ValueType};
use caliper_query::{AggOp, CmpOp, Filter, LetDef, LetExpr, OpKind, QuerySpec};

/// A record, or a result row: `(label, value)` pairs in record order.
pub type Row = Vec<(String, Value)>;

/// What an attribute store declares: each label's type.
pub type Schema = BTreeMap<String, ValueType>;

/// The key every key label of the overflow row carries.
const OVERFLOW: &str = "__overflow__";

/// The most samples a `percentile` reservoir holds.
const RESERVOIR: usize = 1024;

/// One key label's value, in key order: absent first, then numbers by
/// their `f64` image (`f64::total_cmp`), numbers of one image by exact
/// value, then `Float` before `Int`/`UInt` before `Bool`; strings last,
/// by their bytes. Equal exactly when a group's key matches: a
/// non-negative `Int` and a `UInt` of one magnitude alike, floats by bits.
struct KeyPart(Option<Value>);

impl KeyPart {
    fn number(v: &Value) -> (f64, i128, u8) {
        match *v {
            Value::Float(x) => (x, x as i128, 0),
            Value::Int(i) => (i as f64, i.into(), 1),
            Value::UInt(u) => (u as f64, u.into(), 1),
            Value::Bool(b) => (f64::from(u8::from(b)), b.into(), 2),
            Value::Str(_) => unreachable!("strings are not numbers"),
        }
    }
}

impl Ord for KeyPart {
    fn cmp(&self, other: &KeyPart) -> Ordering {
        match (&self.0, &other.0) {
            (None, None) => Ordering::Equal,
            (None, _) => Ordering::Less,
            (_, None) => Ordering::Greater,
            (Some(Value::Str(a)), Some(Value::Str(b))) => a.cmp(b),
            (Some(Value::Str(_)), _) => Ordering::Greater,
            (_, Some(Value::Str(_))) => Ordering::Less,
            (Some(a), Some(b)) => {
                let ((ia, ea, ka), (ib, eb, kb)) = (KeyPart::number(a), KeyPart::number(b));
                ia.total_cmp(&ib).then(ea.cmp(&eb)).then(ka.cmp(&kb))
            }
        }
    }
}

impl PartialOrd for KeyPart {
    fn partial_cmp(&self, other: &KeyPart) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for KeyPart {
    fn eq(&self, other: &KeyPart) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for KeyPart {}

/// One op's state in one group.
#[derive(Debug)]
enum State {
    /// `count` reads the group's record count.
    Count,
    Sum(Option<Value>),
    /// `min` (`Less`) or `max` (`Greater`): the value no other beats
    /// under [`extreme_cmp`].
    Extreme(Ordering, Option<Value>),
    Avg(f64, u64),
    PercentTotal(f64),
    /// Welford's `(n, mean, M2)`.
    Moments(u64, f64, f64),
    /// Below `lo`, each bin, at or past the last bin's end.
    Histogram(Vec<u64>),
    /// The samples kept, keeping every `stride`-th input, of `seen`.
    Percentile(Vec<f64>, u64, u64),
}

fn arg(op: &AggOp, i: usize) -> Option<f64> {
    op.args.get(i).and_then(Value::to_f64)
}

/// `(lo, width, nbins)` of a `histogram` op.
fn bins(op: &AggOp) -> (f64, f64, usize) {
    let (lo, hi) = (arg(op, 0).unwrap_or(0.0), arg(op, 1).unwrap_or(1.0));
    let n = op.args.get(2).and_then(Value::to_u64).unwrap_or(10).clamp(1, 4096) as usize;
    (lo, ((hi - lo) / n as f64).max(f64::MIN_POSITIVE), n)
}

/// `sum`'s addition: exact while both are `Int` or both `UInt` and it
/// fits, two floats add, anything else adds in float space (a string
/// that is no number counting 0).
fn add(a: &Value, b: &Value) -> Value {
    let exact = match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.checked_add(*y).map(Value::Int),
        (Value::UInt(x), Value::UInt(y)) => x.checked_add(*y).map(Value::UInt),
        _ => None,
    };
    exact.unwrap_or_else(|| Value::Float(a.to_f64().unwrap_or(0.0) + b.to_f64().unwrap_or(0.0)))
}

/// `min`'s and `max`'s order: `Value::total_cmp`, and numbers of one
/// `f64` image by exact value, then as `Int`, `UInt`, `Float`, `Bool`,
/// so that only equal values tie.
fn extreme_cmp(a: &Value, b: &Value) -> Ordering {
    let exact = |v: &Value| match *v {
        Value::Int(i) => (i128::from(i), 0),
        Value::UInt(u) => (i128::from(u), 1),
        Value::Float(x) => (x as i128, 2),
        Value::Bool(b) => (i128::from(b), 3),
        Value::Str(_) => (0, 4),
    };
    a.total_cmp(b).then_with(|| exact(a).cmp(&exact(b)))
}

/// Sort `v` and keep `target` evenly spaced samples of it.
fn thin(v: &mut Vec<f64>, target: usize) {
    if v.len() > target && target > 0 {
        v.sort_by(f64::total_cmp);
        let step = v.len() as f64 / target as f64;
        *v = (0..target).map(|i| v[((i as f64 + 0.5) * step) as usize]).collect();
    }
}

impl State {
    fn new(op: &AggOp) -> State {
        match op.kind {
            OpKind::Count => State::Count,
            OpKind::Sum => State::Sum(None),
            OpKind::Min => State::Extreme(Ordering::Less, None),
            OpKind::Max => State::Extreme(Ordering::Greater, None),
            OpKind::Avg => State::Avg(0.0, 0),
            OpKind::PercentTotal => State::PercentTotal(0.0),
            OpKind::Variance | OpKind::Stddev => State::Moments(0, 0.0, 0.0),
            OpKind::Histogram => State::Histogram(vec![0; bins(op).2 + 2]),
            OpKind::Percentile => State::Percentile(Vec::new(), 1, 0),
        }
    }

    fn fold(&mut self, op: &AggOp, value: &Value) {
        match self {
            State::Count => {}
            State::Sum(sum) => {
                *sum = Some(sum.as_ref().map_or_else(|| value.clone(), |s| add(s, value)))
            }
            State::Extreme(wanted, kept) => {
                if kept.as_ref().is_none_or(|k| extreme_cmp(value, k) == *wanted) {
                    *kept = Some(value.clone());
                }
            }
            _ => {
                let Some(v) = value.to_f64() else { return };
                match self {
                    State::Avg(sum, n) => (*sum, *n) = (*sum + v, *n + 1),
                    State::PercentTotal(sum) => *sum += v,
                    State::Moments(n, mean, m2) => {
                        *n += 1;
                        let delta = v - *mean;
                        *mean += delta / *n as f64;
                        *m2 += delta * (v - *mean);
                    }
                    State::Histogram(counts) => {
                        let (lo, width, n) = bins(op);
                        let bin = if v < lo {
                            0
                        } else {
                            (((v - lo) / width) as usize).saturating_add(1)
                        };
                        counts[bin.min(n + 1)] += 1;
                    }
                    State::Percentile(sample, stride, seen) => {
                        if *seen % *stride == 0 {
                            if sample.len() >= RESERVOIR {
                                // Keep the 1st, 3rd, … sample; keep every
                                // other input from now on.
                                *sample = sample.iter().step_by(2).copied().collect();
                                *stride *= 2;
                            }
                            sample.push(v);
                        }
                        *seen += 1;
                    }
                    _ => unreachable!("handled above"),
                }
            }
        }
    }

    fn merge(&mut self, op: &AggOp, other: State) {
        match (self, other) {
            (
                mine @ (State::Sum(_) | State::Extreme(..)),
                State::Sum(theirs) | State::Extreme(_, theirs),
            ) => {
                if let Some(v) = theirs {
                    mine.fold(op, &v);
                }
            }
            (State::Count, State::Count) => {}
            (State::Avg(s, n), State::Avg(s2, n2)) => (*s, *n) = (*s + s2, *n + n2),
            (State::PercentTotal(s), State::PercentTotal(s2)) => *s += s2,
            (State::Moments(na, ma, m2a), State::Moments(nb, mb, m2b)) => {
                // Chan et al.'s pairwise combination.
                if nb > 0 {
                    let n = *na + nb;
                    if *na == 0 {
                        (*ma, *m2a) = (mb, m2b);
                    } else {
                        let delta = mb - *ma;
                        *m2a += m2b + delta * delta * (*na as f64) * (nb as f64) / n as f64;
                        *ma += delta * (nb as f64) / n as f64;
                    }
                    *na = n;
                }
            }
            (State::Histogram(a), State::Histogram(b)) => {
                a.iter_mut().zip(b).for_each(|(a, b)| *a += b)
            }
            (State::Percentile(sa, stride, seen), State::Percentile(mut sb, stride_b, seen_b)) => {
                // Each side's share of the reservoir as it is of the inputs,
                // one sample at least.
                let total = *seen + seen_b;
                if sa.len() + sb.len() > RESERVOIR && total > 0 {
                    let quota = ((RESERVOIR as u64 * *seen) / total).max(1) as usize;
                    thin(sa, quota);
                    thin(&mut sb, RESERVOIR - quota);
                }
                sa.extend(sb);
                (*stride, *seen) = ((*stride).max(stride_b), total);
            }
            (a, b) => panic!("merging {a:?} with {b:?}"),
        }
    }

    /// The raw sum `percent_total` divides by the sum of.
    fn percent_sum(&self) -> f64 {
        match self {
            State::PercentTotal(sum) => *sum,
            _ => 0.0,
        }
    }

    fn finish(&self, op: &AggOp, records: u64, total: f64) -> Option<Value> {
        match self {
            State::Count => Some(Value::UInt(records)),
            State::Sum(v) | State::Extreme(_, v) => v.clone(),
            State::Avg(sum, n) => (*n > 0).then(|| Value::Float(sum / *n as f64)),
            State::PercentTotal(sum) => (total > 0.0).then(|| Value::Float(100.0 * sum / total)),
            State::Moments(n, _, m2) => (*n > 0).then(|| {
                let variance = m2 / *n as f64;
                Value::Float(if op.kind == OpKind::Stddev { variance.sqrt() } else { variance })
            }),
            State::Histogram(c) => {
                let inner: Vec<String> = c[1..c.len() - 1].iter().map(u64::to_string).collect();
                Some(Value::str(format!("{}|{}|{}", c[0], inner.join(" "), c[c.len() - 1])))
            }
            State::Percentile(sample, ..) => {
                let mut s = sample.clone();
                s.sort_by(f64::total_cmp);
                let p = arg(op, 0).unwrap_or(50.0).clamp(0.0, 100.0);
                let at = p / 100.0 * (s.len().checked_sub(1)? as f64);
                let (lo, hi, frac) = (at.floor() as usize, at.ceil() as usize, at - at.floor());
                Some(Value::Float(s[lo] * (1.0 - frac) + s[hi] * frac))
            }
        }
    }
}

/// One group: its record count and a state per op.
struct Group {
    records: u64,
    states: Vec<State>,
}

impl Group {
    fn new(ops: &[AggOp]) -> Group {
        Group { records: 0, states: ops.iter().map(State::new).collect() }
    }

    fn merge(&mut self, ops: &[AggOp], other: Group) {
        self.records += other.records;
        for ((mine, theirs), op) in self.states.iter_mut().zip(other.states).zip(ops) {
            mine.merge(op, theirs);
        }
    }
}

/// One partial of a query: what a record stream folded.
pub struct Oracle {
    /// No op and no key: the records WHERE keeps are the answer.
    pass_through: bool,
    kept: Vec<Row>,
    lets: Vec<LetDef>,
    filters: Vec<Filter>,
    key: Vec<String>,
    ops: Vec<AggOp>,
    count_label: String,
    cap: Option<usize>,
    groups: BTreeMap<Vec<KeyPart>, Group>,
    overflow: Option<Group>,
}

/// The values of `label` in `row`, in record order.
fn values<'r: 'l, 'l>(
    row: &'r [(String, Value)],
    label: &'l str,
) -> impl Iterator<Item = &'r Value> + 'l {
    row.iter().filter(move |(l, _)| l == label).map(|(_, v)| v)
}

/// A LET's value over `row`: numbers read from an input's last
/// occurrence; absent where an input is.
fn let_value(expr: &LetExpr, row: &[(String, Value)]) -> Option<Value> {
    let last = |label: &str| values(row, label).last();
    let number = |label: &str| last(label)?.to_f64();
    Some(match expr {
        LetExpr::Scale(a, factor) => Value::Float(number(a)? * factor),
        LetExpr::Ratio(a, b) => {
            let (num, den) = (number(a)?, number(b)?);
            if den == 0.0 {
                return None;
            }
            Value::Float(num / den)
        }
        LetExpr::First(labels) => Value::str(labels.iter().find_map(|l| last(l))?.to_string()),
        LetExpr::Truncate(a, width) => Value::Float((number(a)? / width).floor() * width),
    })
}

/// Whether `row` passes one WHERE condition: `!=` when no occurrence
/// equals the literal, the other comparisons when one occurrence
/// satisfies it, under the data model's equality and total order.
fn passes(filter: &Filter, row: &[(String, Value)]) -> bool {
    match filter {
        Filter::Exists(label) => values(row, label).next().is_some(),
        Filter::NotExists(label) => values(row, label).next().is_none(),
        Filter::Cmp { attr, op, value } => {
            let mut occurrences = values(row, attr).peekable();
            occurrences.peek().is_some()
                && match op {
                    CmpOp::Ne => occurrences.all(|v| v != value),
                    CmpOp::Eq => occurrences.any(|v| v == value),
                    CmpOp::Lt => occurrences.any(|v| v.total_cmp(value).is_lt()),
                    CmpOp::Le => occurrences.any(|v| v.total_cmp(value).is_le()),
                    CmpOp::Gt => occurrences.any(|v| v.total_cmp(value).is_gt()),
                    CmpOp::Ge => occurrences.any(|v| v.total_cmp(value).is_ge()),
                }
        }
    }
}

/// Where a result type and the next value's meet: the type they share,
/// `Float` for two numbers, `Str` otherwise.
fn join(a: ValueType, b: ValueType) -> ValueType {
    match (a, b) {
        _ if a == b => a,
        _ if a.is_numeric() && b.is_numeric() => ValueType::Float,
        _ => ValueType::Str,
    }
}

/// `v` as a column of type `t` carries it: a `Float` or `Str` column
/// converts, any other keeps the value as it is.
fn widen(t: ValueType, v: Value) -> Value {
    match (t, &v) {
        (ValueType::Float, Value::Float(_)) | (ValueType::Str, Value::Str(_)) => v,
        (ValueType::Float, _) => Value::Float(v.to_f64().unwrap_or(0.0)),
        (ValueType::Str, _) => Value::str(v.to_string()),
        _ => v,
    }
}

impl Oracle {
    /// An empty partial of `query`, its `count` labelled `count_label`,
    /// holding at most `cap` keyed groups.
    pub fn new(query: &QuerySpec, count_label: &str, cap: Option<usize>) -> Oracle {
        Oracle {
            pass_through: query.ops.is_empty() && query.key.is_empty(),
            kept: Vec::new(),
            lets: query.lets.clone(),
            filters: query.filters.clone(),
            key: query.key.clone(),
            ops: query.ops.clone(),
            count_label: count_label.to_string(),
            cap,
            groups: BTreeMap::new(),
            overflow: None,
        }
    }

    /// Keyed groups held.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Records the overflow group folded.
    pub fn overflow_records(&self) -> u64 {
        self.overflow.as_ref().map_or(0, |g| g.records)
    }

    /// The group of `key`: its own if it has one or there is room for
    /// it, the overflow group otherwise.
    fn group(&mut self, key: Vec<KeyPart>) -> &mut Group {
        let ops = &self.ops;
        if self.groups.contains_key(&key) || self.cap.is_none_or(|cap| self.groups.len() < cap) {
            self.groups.entry(key).or_insert_with(|| Group::new(ops))
        } else {
            self.overflow.get_or_insert_with(|| Group::new(ops))
        }
    }

    /// Fold one record.
    pub fn fold(&mut self, record: &[(String, Value)]) {
        let mut row = record.to_vec();
        for def in &self.lets {
            if let Some(v) = let_value(&def.expr, &row) {
                row.push((def.name.clone(), v));
            }
        }
        if !self.filters.iter().all(|f| passes(f, &row)) {
            return;
        }
        if self.pass_through {
            return self.kept.push(row);
        }
        let key = self.key.iter().map(|label| {
            let mut vs = values(&row, label);
            KeyPart(match (vs.next(), vs.next()) {
                (None, _) => None,
                (Some(one), None) => Some(one.clone()),
                (Some(a), Some(b)) => {
                    let texts: Vec<String> =
                        [a, b].into_iter().chain(vs).map(Value::to_string).collect();
                    Some(Value::str(texts.join("/")))
                }
            })
        });
        let ops = self.ops.clone();
        let group = self.group(key.collect());
        group.records += 1;
        for (state, op) in group.states.iter_mut().zip(&ops) {
            for v in op.target.iter().flat_map(|t| values(&row, t)) {
                state.fold(op, v);
            }
        }
    }

    /// Fold `other`, a partial of the same query, into this one.
    pub fn merge(&mut self, other: Oracle) {
        self.kept.extend(other.kept);
        if let Some(theirs) = other.overflow {
            let ops = &self.ops;
            self.overflow.get_or_insert_with(|| Group::new(ops)).merge(ops, theirs);
        }
        let ops = self.ops.clone();
        for (key, theirs) in other.groups {
            self.group(key).merge(&ops, theirs);
        }
    }

    /// The kept rows of a pass-through query, in stream order. Else the
    /// rows of a flush: a key label's type is `declared`'s, else its first
    /// value's in key order (`Str` when there is an overflow row); a
    /// result's is the join of its values. Each label is declared in
    /// `out`, the store the rows go to, unless it is there already — then
    /// the type it has there types the column.
    pub fn finish(
        &self,
        declared: &dyn Fn(&str) -> Option<ValueType>,
        out: &mut Schema,
    ) -> Vec<Row> {
        if self.pass_through {
            return self.kept.clone();
        }
        let rows: Vec<(Option<&[KeyPart]>, &Group)> = (self.groups.iter())
            .map(|(k, g)| (Some(&k[..]), g))
            .chain(self.overflow.iter().map(|g| (None, g)))
            .collect();
        let mut table: Vec<Row> = vec![Vec::new(); rows.len()];
        for (slot, label) in self.key.iter().enumerate() {
            let value = |key: Option<&[KeyPart]>| match key {
                Some(key) => key[slot].0.clone(),
                None => Some(Value::str(OVERFLOW)),
            };
            let first = || rows.iter().find_map(|(k, _)| value(*k)).map(|v| v.value_type());
            let t = match self.overflow {
                Some(_) => Some(ValueType::Str),
                None => declared(label).or_else(first),
            };
            let Some(t) = t else { continue };
            let t = *out.entry(label.clone()).or_insert(t);
            for ((key, _), row) in rows.iter().zip(&mut table) {
                row.extend(value(*key).map(|v| (label.clone(), widen(t, v))));
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            let total: f64 = rows.iter().map(|(_, g)| g.states[i].percent_sum()).sum();
            let results: Vec<Option<Value>> =
                rows.iter().map(|(_, g)| g.states[i].finish(op, g.records, total)).collect();
            let Some(joined) = results.iter().flatten().map(Value::value_type).reduce(join) else {
                continue;
            };
            let label = op.result_label(&self.count_label);
            let t = *out.entry(label.clone()).or_insert(joined);
            for (result, row) in results.into_iter().zip(&mut table) {
                row.extend(result.map(|v| (label.clone(), widen(t, v))));
            }
        }
        table
    }
}

/// The oracle's own edge rules, computed by hand.
mod hand {
    use super::*;
    use caliper_query::parse_query;

    fn row(pairs: &[(&str, Value)]) -> Row {
        pairs.iter().map(|(l, v)| (l.to_string(), v.clone())).collect()
    }

    /// `query` over `rows`, capped at `cap`, every label declared of type
    /// `declared`, and the schema the rows declare.
    fn run(
        query: &str,
        cap: Option<usize>,
        declared: Option<ValueType>,
        rows: &[Row],
    ) -> (Vec<Row>, Schema) {
        let mut oracle = Oracle::new(&parse_query(query).unwrap(), "count", cap);
        rows.iter().for_each(|r| oracle.fold(r));
        let mut out = Schema::new();
        (oracle.finish(&|_| declared, &mut out), out)
    }

    /// The value of `label` in the one row of `query` over `xs` as `x`.
    fn one(query: &str, xs: &[Value]) -> Option<Value> {
        let rows: Vec<Row> = xs.iter().map(|x| row(&[("x", x.clone())])).collect();
        let (out, _) = run(query, None, None, &rows);
        assert_eq!(out.len(), 1);
        let label = parse_query(query).unwrap().ops[0].result_label("count");
        out[0].iter().find(|(l, _)| *l == label).map(|(_, v)| v.clone())
    }

    #[test]
    fn an_integer_sum_overflows_to_float() {
        let sum = |xs: &[i64]| {
            one("AGGREGATE sum(x)", &xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>())
        };
        assert_eq!(sum(&[i64::MAX - 1, 1]), Some(Value::Int(i64::MAX)));
        let over = i64::MAX as f64 + 1.0;
        assert_eq!(sum(&[i64::MAX, 1]), Some(Value::Float(over)));
        // Float from then on: the next integer adds in float space.
        assert_eq!(sum(&[i64::MAX, 1, -3]), Some(Value::Float(over - 3.0)));
        let max = [Value::UInt(u64::MAX), Value::UInt(2)];
        assert_eq!(one("AGGREGATE sum(x)", &max), Some(Value::Float(u64::MAX as f64 + 2.0)));
    }

    #[test]
    fn a_lone_string_is_its_own_sum() {
        let sum = |xs: &[&str]| {
            one("AGGREGATE sum(x)", &xs.iter().map(|&x| Value::str(x)).collect::<Vec<_>>())
        };
        assert_eq!(sum(&["s0"]), Some(Value::str("s0")));
        assert_eq!(sum(&["2.5", "-1"]), Some(Value::Float(1.5)));
        assert_eq!(sum(&["s0", "4"]), Some(Value::Float(4.0)));
        assert_eq!(one("AGGREGATE sum(x)", &[Value::Bool(true)]), Some(Value::Bool(true)));
        // A group none of whose records has the target has no result.
        let (rows, _) = run("AGGREGATE count, sum(x)", None, None, &[row(&[("y", Value::Int(1))])]);
        assert_eq!(rows, [row(&[("count", Value::UInt(1))])]);
    }

    #[test]
    fn a_pass_through_keeps_the_rows_where_keeps_with_let_outputs() {
        let rows = [
            row(&[("x", Value::Int(4)), ("s", Value::str("a"))]),
            row(&[("s", Value::str("b"))]),
            row(&[("x", Value::Int(-1))]),
        ];
        let query = "LET y = scale(x, 0.5) SELECT * WHERE not(s) FORMAT csv";
        let (out, schema) = run(query, None, None, &rows);
        assert_eq!(out, [row(&[("x", Value::Int(-1)), ("y", Value::Float(-0.5))])]);
        assert!(schema.is_empty());
        // SELECT picks columns to print; the rows keep every pair.
        let (out, _) = run("LET y = scale(x, 0.5) SELECT x WHERE s", None, None, &rows);
        let first = row(&[("x", Value::Int(4)), ("s", Value::str("a")), ("y", Value::Float(2.0))]);
        assert_eq!(out, [first, rows[1].clone()]);
    }

    #[test]
    fn min_and_max_over_a_number_and_a_string() {
        let xs = [Value::str("10"), Value::Int(5), Value::Float(5.0)];
        assert_eq!(one("AGGREGATE min(x)", &xs), Some(Value::Int(5)));
        assert_eq!(one("AGGREGATE max(x)", &xs), Some(Value::str("10")));
    }

    #[test]
    fn min_and_max_of_one_image_order_by_value_then_class() {
        let big = 1i64 << 53;
        let xs = [Value::Int(big + 1), Value::Int(big), Value::Float(big as f64)];
        assert_eq!(one("AGGREGATE min(x)", &xs), Some(Value::Int(big)));
        assert_eq!(one("AGGREGATE max(x)", &xs), Some(Value::Int(big + 1)));
        let ones = [Value::Float(1.0), Value::Bool(true), Value::UInt(1), Value::Int(1)];
        assert_eq!(one("AGGREGATE min(x)", &ones), Some(Value::Int(1)));
        assert_eq!(one("AGGREGATE max(x)", &ones), Some(Value::Bool(true)));
    }

    #[test]
    fn the_histogram_prints_under_bins_over() {
        let xs = [-1.0, 0.0, 1.9, 2.0, 3.99, 4.0, 100.0].map(Value::Float);
        let text = one("AGGREGATE histogram(x, 0, 4, 2)", &xs);
        assert_eq!(text, Some(Value::str("1|2 2|2")));
    }

    #[test]
    fn a_percentile_after_thinning_reads_the_kept_samples() {
        // 1 500 inputs: at the 1 025th the reservoir keeps 0, 2, …, 1 022
        // and takes every other input after, so the median is that of the
        // even numbers 0 … 1 498, not of all the inputs (749.5).
        let xs: Vec<Value> = (0..1500).map(|i| Value::Float(i.into())).collect();
        assert_eq!(one("AGGREGATE percentile(x, 50)", &xs), Some(Value::Float(749.0)));
        assert_eq!(one("AGGREGATE percentile(x, 50)", &xs[..1024]), Some(Value::Float(511.5)));
    }

    #[test]
    fn percent_total_counts_the_overflow_row() {
        let rows = [
            row(&[("k", Value::str("a")), ("x", Value::Float(1.0))]),
            row(&[("k", Value::str("b")), ("x", Value::Float(3.0))]),
        ];
        let (out, _) = run("AGGREGATE percent_total(x) GROUP BY k", Some(1), None, &rows);
        let pct = |r: &Row| r[1].clone();
        assert_eq!(out.len(), 2);
        assert_eq!(pct(&out[0]), ("percent_total#x".to_string(), Value::Float(25.0)));
        assert_eq!(pct(&out[1]), ("percent_total#x".to_string(), Value::Float(75.0)));
    }

    #[test]
    fn the_overflow_row_makes_every_key_column_a_string() {
        let rows: Vec<Row> = [5, 7].map(|i| row(&[("i", Value::Int(i))])).into();
        let (got, out) = run("AGGREGATE count GROUP BY i", Some(1), Some(ValueType::Int), &rows);
        let keys: Vec<&Value> = got.iter().map(|r| &r[0].1).collect();
        assert_eq!(keys, [&Value::str("5"), &Value::str(OVERFLOW)]);
        assert_eq!(out["i"], ValueType::Str);
        // Without the overflow row the declared type stands.
        let (got, _) = run("AGGREGATE count GROUP BY i", None, Some(ValueType::Int), &rows);
        assert_eq!(got[1][0].1, Value::Int(7));
    }

    #[test]
    fn keys_of_one_image_order_by_value_and_int_meets_uint() {
        let big = 1i64 << 53;
        let rows: Vec<Row> = [
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Int(big),
            Value::UInt(big as u64),
        ]
        .map(|i| row(&[("i", i)]))
        .into();
        let (got, _) = run("AGGREGATE count GROUP BY i", None, None, &rows);
        let keys: Vec<(&Value, &Value)> = got.iter().map(|r| (&r[0].1, &r[1].1)).collect();
        // Float(2^53) types the column; the two integers widen to it.
        let (f, two, one) = (Value::Float(big as f64), Value::UInt(2), Value::UInt(1));
        assert_eq!(keys, [(&f, &one), (&f, &two), (&f, &one)]);
    }
}
