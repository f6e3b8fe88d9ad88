//! Reduction operator implementations (§IV-B).
//!
//! An operator's state is a `Column` with one entry per group, indexed
//! by group id — the aggregator holds one per op — and each operator has
//! three operations: `update` folds one input value into an entry
//! (streaming reduction — the input is never stored), `merge_rows` folds
//! another column's entries into this one's, a column at a time
//! (cross-process tree reduction, re-aggregation of pre-aggregated
//! profiles, a closed part), and `finish` produces an entry's result
//! value. A [`Reducer`] is one entry of one operator's column.

use std::cmp::Ordering;
use std::fmt::Write;

use caliper_data::{Value, ValueType};
use caliper_format::{Cell, ColumnData, StringTable};

use crate::ast::{AggOp, OpKind};

/// Reservoir capacity for the `percentile` operator. A reservoir never
/// holds more, however many merges it went through.
const PERCENTILE_CAPACITY: usize = 1024;

/// One operator's state for every group, indexed by group id. A string
/// a state keeps is a code of the aggregation's [`StringTable`].
#[derive(Debug)]
pub(crate) enum Column {
    /// `count`: the group's input records, which its owner counts — the
    /// column holds nothing.
    Count,
    /// `sum`: type-preserving sum (Int+Int→Int, UInt+UInt→UInt,
    /// otherwise Float, and Float on overflow); a lone input keeps its
    /// class, string or bool included.
    Sum(Vec<Option<Cell>>),
    /// `min` (`Less`) / `max` (`Greater`): the extreme under the data
    /// model's total order ([`Value::total_cmp`]), in which numbers of
    /// one `f64` image follow by exact value and then by class
    /// ([`exact`]), so that only equal cells tie.
    Extreme(Ordering, Vec<Option<Cell>>),
    /// `avg`: sum and number of numeric inputs.
    Avg(Vec<(f64, u64)>),
    /// `percent_total`: the group's sum, normalized to percent at flush
    /// time by the sum over all groups ([`Column::denominator`]).
    PercentTotal(Vec<f64>),
    /// `variance` / `stddev` (`true`): Welford's (n, mean, M2), mergeable
    /// by the parallel-variance formula.
    Moments(bool, Vec<(u64, f64, f64)>),
    /// `histogram(lo, hi, nbins)`: `nbins + 2` counts per group — inputs
    /// below `lo`, the fixed-width bins, inputs at or above
    /// `lo + nbins*width`.
    Histogram {
        lo: f64,
        width: f64,
        stride: usize,
        counts: Vec<u64>,
    },
    /// `percentile(attr, p)`: a bounded reservoir per group.
    Percentile(f64, Vec<Reservoir>),
}

/// A deterministic bounded reservoir: exact while fewer than the
/// capacity of inputs have been seen; beyond that, a systematic sample
/// (every `stride`-th input), which preserves quantiles of stationary
/// streams.
#[derive(Debug)]
pub(crate) struct Reservoir {
    sample: Vec<f64>,
    /// Keep every `stride`-th input once the reservoir has been full.
    stride: u64,
    /// Inputs seen so far.
    seen: u64,
}

impl Reservoir {
    const EMPTY: Reservoir = Reservoir {
        sample: Vec::new(),
        stride: 1,
        seen: 0,
    };

    fn update(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.sample.len() >= PERCENTILE_CAPACITY {
                // Thin deterministically: keep every other retained
                // sample and double the stride.
                let mut keep = 0;
                self.sample.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                self.stride *= 2;
            }
            self.sample.push(v);
        }
        self.seen += 1;
    }

    fn merge(&mut self, other: &Reservoir) {
        // Keep each side's representation proportional to how many
        // inputs it has actually seen — a naive concat would over-weight
        // the smaller stream — within the capacity: this side's quota,
        // rounded down but one at least, and the other side the rest (one
        // at least too, as it saw at least one input).
        let total = self.seen + other.seen;
        if self.sample.len() + other.sample.len() > PERCENTILE_CAPACITY && total > 0 {
            let quota = ((PERCENTILE_CAPACITY as u64 * self.seen) / total).max(1) as usize;
            subsample_sorted(&mut self.sample, quota);
            let mut theirs = other.sample.clone();
            subsample_sorted(&mut theirs, PERCENTILE_CAPACITY - quota);
            self.sample.extend_from_slice(&theirs);
        } else {
            self.sample.extend_from_slice(&other.sample);
        }
        self.stride = self.stride.max(other.stride);
        self.seen = total;
    }

    fn quantile(&self, p: f64) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        let mut sorted = self.sample.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let idx = (p / 100.0) * (sorted.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Sort `v` and keep `target` evenly spaced elements (quantile-
/// preserving subsample).
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

/// `*prev += value` under `sum`'s rules; `prev` a cell of `strings`.
/// In place: a sum of one type changes the number alone (a whole cell
/// stored per value stalls the load of the next).
#[inline(always)]
fn add(prev: &mut Cell, value: &Value, strings: &StringTable) {
    let exact = match (&mut *prev, value) {
        (Cell::Int(a), Value::Int(b)) => a.checked_add(*b).map(|sum| *a = sum).is_some(),
        (Cell::UInt(a), Value::UInt(b)) => a.checked_add(*b).map(|sum| *a = sum).is_some(),
        // What the float-space sum below makes of two floats, sooner.
        (Cell::Float(a), Value::Float(b)) => {
            *a += b;
            true
        }
        _ => false,
    };
    // Mixed classes and overflow: in float space.
    if !exact {
        let sum = strings.get(*prev).to_f64().unwrap_or(0.0) + value.to_f64().unwrap_or(0.0);
        *prev = Cell::Float(sum);
    }
}

/// `sum`'s step: `value` added to the entry ([`add`]), or the entry's
/// first input, a string interned in `strings`.
// Always inlined, as are `add` and `extreme`: each typed loop of
// `update_from` and `merge_rows` needs its own copy, and a call per
// value slowed the `wide` fold by a fifth.
#[inline(always)]
fn sum(entry: &mut Option<Cell>, value: &Value, strings: &mut StringTable) {
    match entry {
        Some(prev) => add(prev, value, strings),
        empty => *empty = Some(strings.cell(value)),
    }
}

/// Where two numbers of one `f64` image part in `min`'s and `max`'s
/// order: by exact value (2^53 before 2^53 + 1; an integer's image is
/// that of a float only if the float is integral), then by class in
/// [`ValueType`]'s order — `Int`, `UInt`, `Float`, `Bool` — so that no
/// two distinct cells tie and no merge order decides which survives.
/// Strings tie only when equal.
fn exact(cell: Cell) -> (i128, u8) {
    match cell {
        Cell::Int(i) => (i.into(), 0),
        Cell::UInt(u) => (u.into(), 1),
        Cell::Float(x) => (x as i128, 2),
        Cell::Bool(b) => (b.into(), 3),
        Cell::Str(_) => (0, 4),
    }
}

/// `min`'s (`wanted` `Less`) and `max`'s (`Greater`) step for a number:
/// `x`, of `f64` image `image`, replaces the kept one if it is on the
/// `wanted` side of it. A number and a kept number compare by their
/// `f64` images, then by [`exact`], and a kept string is greater —
/// [`Value::total_cmp`]'s order.
#[inline(always)]
fn extreme(wanted: Ordering, entry: &mut Option<Cell>, x: Cell, image: f64) {
    match entry {
        Some(kept) => {
            let order = match *kept {
                Cell::Str(_) => Ordering::Less,
                Cell::Float(k) => image.total_cmp(&k),
                Cell::Int(k) => image.total_cmp(&(k as f64)),
                Cell::UInt(k) => image.total_cmp(&(k as f64)),
                Cell::Bool(k) => image.total_cmp(&f64::from(u8::from(k))),
            };
            if order.then_with(|| exact(x).cmp(&exact(*kept))) == wanted {
                *kept = x;
            }
        }
        empty => *empty = Some(x),
    }
}

/// [`extreme`] for any value, a kept string a code of `strings` and a
/// string that wins interned there.
fn extreme_value(
    wanted: Ordering,
    entry: &mut Option<Cell>,
    value: &Value,
    strings: &mut StringTable,
) {
    // Two floats compared as `Value::total_cmp` compares them, with no
    // `Value` built of the kept one: of one image they are equal.
    let wins = match (*entry, value) {
        (None, _) => true,
        (Some(Cell::Float(x)), Value::Float(v)) => v.total_cmp(&x) == wanted,
        (Some(cell), _) => {
            let order = value.total_cmp(&strings.get(cell));
            // Interns nothing: a string ties only with the kept one's
            // text, which the table holds.
            order.then_with(|| exact(strings.cell(value)).cmp(&exact(cell))) == wanted
        }
    };
    if wins {
        *entry = Some(strings.cell(value));
    }
}

impl Column {
    /// The column of `op`, with no entries yet.
    pub(crate) fn new(op: &AggOp) -> Column {
        let arg = |i: usize| op.args.get(i).and_then(Value::to_f64);
        match op.kind {
            OpKind::Count => Column::Count,
            OpKind::Sum => Column::Sum(Vec::new()),
            OpKind::Min => Column::Extreme(Ordering::Less, Vec::new()),
            OpKind::Max => Column::Extreme(Ordering::Greater, Vec::new()),
            OpKind::Avg => Column::Avg(Vec::new()),
            OpKind::PercentTotal => Column::PercentTotal(Vec::new()),
            OpKind::Variance => Column::Moments(false, Vec::new()),
            OpKind::Stddev => Column::Moments(true, Vec::new()),
            OpKind::Histogram => {
                let (lo, hi) = (arg(0).unwrap_or(0.0), arg(1).unwrap_or(1.0));
                let nbins = op.args.get(2).and_then(Value::to_u64);
                let nbins = nbins.unwrap_or(10).clamp(1, 4096) as usize;
                Column::Histogram {
                    lo,
                    width: ((hi - lo) / nbins as f64).max(f64::MIN_POSITIVE),
                    stride: nbins + 2,
                    counts: Vec::new(),
                }
            }
            OpKind::Percentile => {
                Column::Percentile(arg(0).unwrap_or(50.0).clamp(0.0, 100.0), Vec::new())
            }
        }
    }

    /// Entries `rows` back to no input folded in.
    pub(crate) fn reset_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        let rows = rows.into_iter();
        match self {
            Column::Count => {}
            Column::Sum(acc) | Column::Extreme(_, acc) => rows.for_each(|g| acc[g] = None),
            Column::Avg(acc) => rows.for_each(|g| acc[g] = (0.0, 0)),
            Column::PercentTotal(acc) => rows.for_each(|g| acc[g] = 0.0),
            Column::Moments(_, acc) => rows.for_each(|g| acc[g] = (0, 0.0, 0.0)),
            Column::Histogram { stride, counts, .. } => {
                rows.for_each(|g| counts[g * *stride..][..*stride].fill(0))
            }
            Column::Percentile(_, reservoirs) => {
                rows.for_each(|g| reservoirs[g] = Reservoir::EMPTY)
            }
        }
    }

    /// `n` entries: the first `n` kept, and as many added as it takes,
    /// with no input folded in.
    pub(crate) fn resize(&mut self, n: usize) {
        match self {
            Column::Count => {}
            Column::Sum(acc) | Column::Extreme(_, acc) => acc.resize(n, None),
            Column::Avg(acc) => acc.resize(n, (0.0, 0)),
            Column::PercentTotal(acc) => acc.resize(n, 0.0),
            Column::Moments(_, acc) => acc.resize(n, (0, 0.0, 0.0)),
            Column::Histogram { stride, counts, .. } => counts.resize(n * *stride, 0),
            Column::Percentile(_, reservoirs) => reservoirs.resize_with(n, || Reservoir::EMPTY),
        }
    }

    /// Fold one input value into entry `g`; a string the entry keeps is
    /// interned in `strings`.
    pub(crate) fn update(&mut self, g: usize, value: &Value, strings: &mut StringTable) {
        let v = match self {
            Column::Count => return,
            Column::Sum(acc) => return sum(&mut acc[g], value, strings),
            Column::Extreme(wanted, acc) => {
                return extreme_value(*wanted, &mut acc[g], value, strings)
            }
            _ => match value.to_f64() {
                Some(v) => v,
                None => return,
            },
        };
        match self {
            Column::Avg(acc) => {
                acc[g].0 += v;
                acc[g].1 += 1;
            }
            Column::PercentTotal(acc) => acc[g] += v,
            Column::Moments(_, acc) => {
                let (n, mean, m2) = &mut acc[g];
                *n += 1;
                let delta = v - *mean;
                *mean += delta / *n as f64;
                *m2 += delta * (v - *mean);
            }
            Column::Histogram {
                lo,
                width,
                stride,
                counts,
            } => {
                // Below `lo` slot 0, bin `i` slot `i + 1`, past the last
                // bin the last slot.
                let bin = if v < *lo {
                    0
                } else {
                    (((v - *lo) / *width) as usize).saturating_add(1)
                };
                counts[g * *stride + bin.min(*stride - 1)] += 1;
            }
            Column::Percentile(_, reservoirs) => reservoirs[g].update(v),
            Column::Count | Column::Sum(_) | Column::Extreme(..) => {}
        }
    }

    /// Fold values of a block's column into entries: `at` pairs each
    /// entry with the index of its value in `data`, in the order the
    /// values come in, and `data`'s strings are codes of `from`. `sum`,
    /// `min` and `max` over integers and floats are one loop per column
    /// type over the accumulators; every other pairing is
    /// [`update`](Self::update) value by value — the same states either
    /// way.
    pub(crate) fn update_from(
        &mut self,
        data: &ColumnData,
        at: impl Iterator<Item = (usize, usize)>,
        from: &StringTable,
        strings: &mut StringTable,
    ) {
        match (self, data) {
            (Column::Sum(acc), ColumnData::Float(v)) => {
                for (g, i) in at {
                    sum(&mut acc[g], &Value::Float(v[i]), strings);
                }
            }
            (Column::Sum(acc), ColumnData::Int(v)) => {
                for (g, i) in at {
                    sum(&mut acc[g], &Value::Int(v[i]), strings);
                }
            }
            (Column::Sum(acc), ColumnData::UInt(v)) => {
                for (g, i) in at {
                    sum(&mut acc[g], &Value::UInt(v[i]), strings);
                }
            }
            (Column::Extreme(wanted, acc), ColumnData::Float(v)) => {
                for (g, i) in at {
                    extreme(*wanted, &mut acc[g], Cell::Float(v[i]), v[i]);
                }
            }
            (Column::Extreme(wanted, acc), ColumnData::Int(v)) => {
                for (g, i) in at {
                    extreme(*wanted, &mut acc[g], Cell::Int(v[i]), v[i] as f64);
                }
            }
            (Column::Extreme(wanted, acc), ColumnData::UInt(v)) => {
                for (g, i) in at {
                    extreme(*wanted, &mut acc[g], Cell::UInt(v[i]), v[i] as f64);
                }
            }
            (column, data) => {
                for (g, i) in at {
                    column.update(g, &from.get(data.get(i)), strings);
                }
            }
        }
    }

    /// Fold entries of `other` — a column of the same op, strings as
    /// codes of `from`, or of `to` itself where `from` is `None` — into
    /// this column's: for each `(mine, theirs)` of `pairs`, in that
    /// order, entry `theirs` into entry `mine`. One loop per op: `sum`,
    /// `min` and `max` take an integer or float entry as it is, by
    /// [`update_from`](Self::update_from)'s steps, and any other entry
    /// as its value, by [`update`](Self::update)'s.
    pub(crate) fn merge_rows(
        &mut self,
        other: &Column,
        pairs: impl IntoIterator<Item = (usize, usize)>,
        from: Option<&StringTable>,
        to: &mut StringTable,
    ) {
        let pairs = pairs.into_iter();
        match (self, other) {
            (Column::Count, Column::Count) => {}
            (Column::Sum(acc), Column::Sum(theirs)) => {
                for (g, og) in pairs {
                    match theirs[og] {
                        None => {}
                        Some(Cell::Float(x)) => sum(&mut acc[g], &Value::Float(x), to),
                        Some(Cell::Int(i)) => sum(&mut acc[g], &Value::Int(i), to),
                        Some(Cell::UInt(u)) => sum(&mut acc[g], &Value::UInt(u), to),
                        Some(cell) => {
                            let value = from.unwrap_or(to).get(cell).into_owned();
                            sum(&mut acc[g], &value, to);
                        }
                    }
                }
            }
            (Column::Extreme(wanted, acc), Column::Extreme(_, theirs)) => {
                for (g, og) in pairs {
                    match theirs[og] {
                        None => {}
                        Some(x @ Cell::Float(f)) => extreme(*wanted, &mut acc[g], x, f),
                        Some(x @ Cell::Int(i)) => extreme(*wanted, &mut acc[g], x, i as f64),
                        Some(x @ Cell::UInt(u)) => extreme(*wanted, &mut acc[g], x, u as f64),
                        Some(cell) => {
                            let value = from.unwrap_or(to).get(cell).into_owned();
                            extreme_value(*wanted, &mut acc[g], &value, to);
                        }
                    }
                }
            }
            (Column::Avg(a), Column::Avg(b)) => {
                for (g, og) in pairs {
                    a[g].0 += b[og].0;
                    a[g].1 += b[og].1;
                }
            }
            (Column::PercentTotal(a), Column::PercentTotal(b)) => {
                pairs.for_each(|(g, og)| a[g] += b[og])
            }
            (Column::Moments(_, a), Column::Moments(_, b)) => {
                for (g, og) in pairs {
                    // Chan et al. parallel variance combination.
                    let ((na, ma, m2a), (nb, mb, m2b)) = (&mut a[g], b[og]);
                    let n = *na + nb;
                    if nb > 0 {
                        if *na == 0 {
                            *ma = mb;
                            *m2a = m2b;
                        } else {
                            let delta = mb - *ma;
                            *m2a += m2b + delta * delta * (*na as f64) * (nb as f64) / n as f64;
                            *ma += delta * (nb as f64) / n as f64;
                        }
                        *na = n;
                    }
                }
            }
            (Column::Histogram { stride, counts, .. }, Column::Histogram { counts: b, .. }) => {
                for (g, og) in pairs {
                    let theirs = &b[og * *stride..][..*stride];
                    for (mine, theirs) in counts[g * *stride..][..*stride].iter_mut().zip(theirs) {
                        *mine += theirs;
                    }
                }
            }
            (Column::Percentile(_, a), Column::Percentile(_, b)) => {
                pairs.for_each(|(g, og)| a[g].merge(&b[og]))
            }
            (a, b) => debug_assert!(false, "merging mismatched columns: {a:?} vs {b:?}"),
        }
    }

    /// Entry `g`'s result — its group having folded `records` records,
    /// its strings codes of `strings` — as a cell of `out`.
    /// `Sum`/`Min`/`Max`/`Avg` with no inputs yield `None` (no output
    /// attribute for that group); `percent_total` divides by
    /// `denominator`.
    pub(crate) fn finish(
        &self,
        g: usize,
        records: u64,
        denominator: f64,
        strings: &StringTable,
        out: &mut StringTable,
    ) -> Option<Cell> {
        match self {
            Column::Count => Some(Cell::UInt(records)),
            Column::Sum(acc) | Column::Extreme(_, acc) => acc[g].map(|cell| match cell {
                Cell::Str(code) => out.cell(strings.value(code)),
                number => number,
            }),
            Column::Avg(acc) => {
                let (sum, n) = acc[g];
                (n > 0).then(|| Cell::Float(sum / n as f64))
            }
            Column::PercentTotal(acc) => (denominator > 0.0 && acc[g].is_finite())
                .then(|| Cell::Float(100.0 * acc[g] / denominator)),
            Column::Moments(stddev, acc) => {
                let (n, _, m2) = acc[g];
                let variance = m2 / n as f64;
                (n > 0).then(|| Cell::Float(if *stddev { variance.sqrt() } else { variance }))
            }
            Column::Histogram { stride, counts, .. } => {
                // Rendered as "under|b0 b1 ... bn|over" — a compact,
                // parseable string representation.
                let counts = &counts[g * *stride..][..*stride];
                let mut text = format!("{}|", counts[0]);
                for (i, count) in counts[1..*stride - 1].iter().enumerate() {
                    let gap = if i > 0 { " " } else { "" };
                    write!(text, "{gap}{count}").expect("writing to a String");
                }
                write!(text, "|{}", counts[*stride - 1]).expect("writing to a String");
                Some(Cell::Str(out.intern(&text)))
            }
            Column::Percentile(p, reservoirs) => reservoirs[g].quantile(*p).map(Cell::Float),
        }
    }

    /// What [`finish`](Self::finish) divides by for the entries `groups`
    /// of a flush: for `percent_total`, their finite sums, added in that
    /// order (a NaN or infinite sum gets no share and takes none from
    /// the others); 0 for every other op.
    pub(crate) fn denominator(&self, groups: &[u32]) -> f64 {
        match self {
            Column::PercentTotal(sums) => groups
                .iter()
                .map(|&g| sums[g as usize])
                .filter(|sum| sum.is_finite())
                .sum(),
            _ => 0.0,
        }
    }

    /// The results of entries `groups`, in that order — entry `g`'s group
    /// having folded `records[g]` records — as cells of `out`: what
    /// [`finish`](Self::finish) makes of each, over the
    /// [`denominator`](Self::denominator) of `groups`, a column at a
    /// time.
    pub(crate) fn finish_column(
        &self,
        groups: &[u32],
        records: &[u64],
        strings: &StringTable,
        out: &mut StringTable,
    ) -> Values {
        let mut values = Values::with_capacity(groups.len());
        match self {
            Column::Count => {
                values.data = Some(ColumnData::UInt(
                    groups.iter().map(|&g| records[g as usize]).collect(),
                ));
                values.rows = groups.len();
            }
            _ => {
                let denominator = self.denominator(groups);
                for &g in groups {
                    let g = g as usize;
                    values.push(self.finish(g, records[g], denominator, strings, out));
                }
            }
        }
        values
    }
}

/// The values of one output attribute of a flush, pushed a row at a
/// time: while they share a type, a column of that type and the rows it
/// has a value on; once they do not, every row's cell.
#[derive(Debug)]
pub(crate) struct Values {
    capacity: usize,
    rows: usize,
    data: Option<ColumnData>,
    included: Included,
    mixed: Option<Vec<Option<Cell>>>,
}

impl Values {
    /// No values yet, with room for `rows` rows.
    pub(crate) fn with_capacity(rows: usize) -> Values {
        Values {
            capacity: rows,
            rows: 0,
            data: None,
            included: Included::with_capacity(rows),
            mixed: None,
        }
    }

    /// The next row's value, if it has one.
    #[inline]
    pub(crate) fn push(&mut self, cell: Option<Cell>) {
        match (&mut self.mixed, cell, &mut self.data) {
            (Some(cells), ..) => cells.push(cell),
            (None, None, _) => self.included.mark(self.rows, false),
            (None, Some(cell), Some(data)) if data.value_type() == cell.value_type() => {
                data.push(cell);
                self.included.mark(self.rows, true);
            }
            (None, Some(cell), data @ None) => {
                let mut typed = ColumnData::with_capacity(cell.value_type(), self.capacity);
                typed.push(cell);
                *data = Some(typed);
                self.included.mark(self.rows, true);
            }
            (None, Some(cell), Some(_)) => {
                let mut cells = self.typed_cells();
                cells.push(Some(cell));
                self.mixed = Some(cells);
            }
        }
        self.rows += 1;
    }

    /// The type the values join to: theirs if they share one; mixed
    /// numbers widen to `Float`, anything else to `Str`. `None` when no
    /// row has a value.
    pub(crate) fn joined_type(&self) -> Option<ValueType> {
        match &self.mixed {
            None => self.data.as_ref().map(ColumnData::value_type),
            Some(cells) => cells.iter().flatten().map(|cell| cell.value_type()).reduce(
                |joined, t| match joined {
                    _ if joined == t => t,
                    _ if joined.is_numeric() && t.is_numeric() => ValueType::Float,
                    _ => ValueType::Str,
                },
            ),
        }
    }

    /// The values as a column of type `vtype` and the rows it has a
    /// value on (`None`: every row), if they are all of that type.
    pub(crate) fn into_column(
        self,
        vtype: ValueType,
    ) -> Result<(ColumnData, Option<Vec<bool>>), Values> {
        match self.data {
            Some(data) if self.mixed.is_none() && data.value_type() == vtype => {
                Ok((data, self.included.into_rows()))
            }
            _ => Err(self),
        }
    }

    /// Every row's cell.
    pub(crate) fn into_cells(self) -> Vec<Option<Cell>> {
        match self.mixed {
            Some(cells) => cells,
            None => self.typed_cells(),
        }
    }

    /// Every row's cell, while the values share a type.
    fn typed_cells(&self) -> Vec<Option<Cell>> {
        let mut next = 0;
        let has = |row: usize| self.included.rows.as_ref().is_none_or(|rows| rows[row]);
        (0..self.rows)
            .map(|row| {
                let data = self.data.as_ref().filter(|_| has(row))?;
                next += 1;
                Some(data.get(next - 1))
            })
            .collect()
    }
}

/// The rows of a flush a column has a value on, as
/// [`Block::push_columns`](caliper_format::Block::push_columns) takes
/// them: `None` while every row so far has one.
#[derive(Debug)]
pub(crate) struct Included {
    rows: Option<Vec<bool>>,
    capacity: usize,
}

impl Included {
    /// No row marked yet, of `capacity` rows in all.
    pub(crate) fn with_capacity(capacity: usize) -> Included {
        Included {
            rows: None,
            capacity,
        }
    }

    /// Whether row `row`, the one after the rows marked so far, has a
    /// value.
    #[inline]
    pub(crate) fn mark(&mut self, row: usize, has: bool) {
        match &mut self.rows {
            Some(rows) => rows.push(has),
            None if has => {}
            None => {
                let mut rows = Vec::with_capacity(self.capacity);
                rows.resize(row, true);
                rows.push(false);
                self.rows = Some(rows);
            }
        }
    }

    /// The rows marked, `None` if all have a value.
    pub(crate) fn into_rows(self) -> Option<Vec<bool>> {
        self.rows
    }
}

/// One group of one operator, with a string table of its own: the
/// column code over a single entry, for reducing one stream of values
/// by hand.
#[derive(Debug)]
pub struct Reducer {
    column: Column,
    /// Inputs folded in (what `count` counts).
    inputs: u64,
    strings: StringTable,
}

impl Reducer {
    /// Create the initial state for an operation.
    pub fn new(op: &AggOp) -> Reducer {
        let mut column = Column::new(op);
        column.resize(1);
        Reducer {
            column,
            inputs: 0,
            strings: StringTable::default(),
        }
    }

    /// Fold one input into the state: `count` counts the calls, every
    /// other operator folds the value.
    pub fn update(&mut self, value: &Value) {
        self.inputs += 1;
        self.column.update(0, value, &mut self.strings);
    }

    /// Combine another state of the same [`AggOp`] into this one.
    pub fn merge(&mut self, other: &Reducer) {
        self.inputs += other.inputs;
        let (from, to) = (&other.strings, &mut self.strings);
        self.column
            .merge_rows(&other.column, [(0, 0)], Some(from), to);
    }

    /// Produce the result value. `Sum`/`Min`/`Max` with no inputs yield
    /// `None`; `percent_total` divides by the global total, passed by the
    /// caller.
    pub fn finish(&self, percent_total_denominator: f64) -> Option<Value> {
        let mut out = StringTable::default();
        let (inputs, strings) = (self.inputs, &self.strings);
        let cell = self
            .column
            .finish(0, inputs, percent_total_denominator, strings, &mut out)?;
        Some(out.get(cell).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, target: Option<&str>) -> AggOp {
        AggOp::new(kind, target)
    }

    /// The samples a `percentile` reducer holds.
    fn sample(r: &Reducer) -> &[f64] {
        match &r.column {
            Column::Percentile(_, reservoirs) => &reservoirs[0].sample,
            other => panic!("not a percentile: {other:?}"),
        }
    }

    fn held(r: &Reducer) -> usize {
        sample(r).len()
    }

    #[test]
    fn count_counts() {
        let mut r = Reducer::new(&op(OpKind::Count, None));
        for _ in 0..5 {
            r.update(&Value::Int(0));
        }
        assert_eq!(r.finish(0.0), Some(Value::UInt(5)));
    }

    #[test]
    fn sum_preserves_int_type() {
        let mut r = Reducer::new(&op(OpKind::Sum, Some("x")));
        r.update(&Value::Int(10));
        r.update(&Value::Int(30));
        assert_eq!(r.finish(0.0), Some(Value::Int(40)));
    }

    #[test]
    fn sum_mixes_to_float() {
        let mut r = Reducer::new(&op(OpKind::Sum, Some("x")));
        r.update(&Value::Int(10));
        r.update(&Value::Float(0.5));
        assert_eq!(r.finish(0.0), Some(Value::Float(10.5)));
    }

    #[test]
    fn sum_overflow_saturates_to_float() {
        let mut r = Reducer::new(&op(OpKind::Sum, Some("x")));
        r.update(&Value::Int(i64::MAX));
        r.update(&Value::Int(i64::MAX));
        match r.finish(0.0) {
            Some(Value::Float(f)) => assert!(f > 1e18),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn empty_sum_min_max_yield_none() {
        for kind in [OpKind::Sum, OpKind::Min, OpKind::Max, OpKind::Avg] {
            let r = Reducer::new(&op(kind, Some("x")));
            assert_eq!(r.finish(0.0), None);
        }
    }

    #[test]
    fn min_max_track_extremes() {
        let mut lo = Reducer::new(&op(OpKind::Min, Some("x")));
        let mut hi = Reducer::new(&op(OpKind::Max, Some("x")));
        for v in [3.0, -1.5, 7.25, 0.0] {
            lo.update(&Value::Float(v));
            hi.update(&Value::Float(v));
        }
        assert_eq!(lo.finish(0.0), Some(Value::Float(-1.5)));
        assert_eq!(hi.finish(0.0), Some(Value::Float(7.25)));
    }

    #[test]
    fn avg_is_mean() {
        let mut r = Reducer::new(&op(OpKind::Avg, Some("x")));
        for v in [1, 2, 3, 4] {
            r.update(&Value::Int(v));
        }
        assert_eq!(r.finish(0.0), Some(Value::Float(2.5)));
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut hop = op(OpKind::Histogram, Some("x"));
        hop.args = vec![Value::Int(0), Value::Int(10), Value::Int(5)];
        let mut r = Reducer::new(&hop);
        for v in [-1.0, 0.0, 1.9, 2.0, 9.9, 10.0, 100.0] {
            r.update(&Value::Float(v));
        }
        // bins of width 2: [0,2) -> 2, [2,4) -> 1, [8,10) -> 1
        assert_eq!(r.finish(0.0), Some(Value::str("1|2 1 0 0 1|2")));
    }

    #[test]
    fn merge_matches_sequential_updates() {
        for kind in [
            OpKind::Count,
            OpKind::Sum,
            OpKind::Min,
            OpKind::Max,
            OpKind::Avg,
            // Regression: percent_total partials from different shards
            // must merge (the missing arm used to trip the mismatched-
            // reducer debug assertion and drop data in release builds).
            OpKind::PercentTotal,
        ] {
            let o = op(kind, Some("x"));
            let mut all = Reducer::new(&o);
            let mut left = Reducer::new(&o);
            let mut right = Reducer::new(&o);
            for i in 0..10 {
                let v = Value::Int(i * 3 - 7);
                all.update(&v);
                if i % 2 == 0 {
                    left.update(&v);
                } else {
                    right.update(&v);
                }
            }
            left.merge(&right);
            assert_eq!(left.finish(0.0), all.finish(0.0), "kind {kind:?}");
            assert_eq!(left.finish(100.0), all.finish(100.0), "kind {kind:?}");
        }
    }

    #[test]
    fn percent_total_uses_denominator() {
        let mut r = Reducer::new(&op(OpKind::PercentTotal, Some("x")));
        r.update(&Value::Float(25.0));
        assert_eq!(r.finish(100.0), Some(Value::Float(25.0)));
        assert_eq!(r.finish(0.0), None);
    }

    #[test]
    fn variance_and_stddev() {
        let mut var = Reducer::new(&op(OpKind::Variance, Some("x")));
        let mut sd = Reducer::new(&op(OpKind::Stddev, Some("x")));
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            var.update(&Value::Float(v));
            sd.update(&Value::Float(v));
        }
        // Classic example: population variance 4, stddev 2.
        match var.finish(0.0) {
            Some(Value::Float(v)) => assert!((v - 4.0).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        match sd.finish(0.0) {
            Some(Value::Float(v)) => assert!((v - 2.0).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Reducer::new(&op(OpKind::Variance, Some("x"))).finish(0.0),
            None
        );
    }

    #[test]
    fn variance_merge_matches_single_pass() {
        let o = op(OpKind::Variance, Some("x"));
        let mut all = Reducer::new(&o);
        let mut left = Reducer::new(&o);
        let mut right = Reducer::new(&o);
        for i in 0..100 {
            let v = Value::Float((i * i % 37) as f64 - 11.0);
            all.update(&v);
            if i < 42 {
                left.update(&v);
            } else {
                right.update(&v);
            }
        }
        left.merge(&right);
        let a = all.finish(0.0).unwrap().to_f64().unwrap();
        let b = left.finish(0.0).unwrap().to_f64().unwrap();
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn percentile_exact_below_capacity() {
        let mut pop = op(OpKind::Percentile, Some("x"));
        pop.args = vec![Value::Int(90)];
        let mut r = Reducer::new(&pop);
        for i in 0..=100 {
            r.update(&Value::Int(i));
        }
        match r.finish(0.0) {
            Some(Value::Float(v)) => assert!((v - 90.0).abs() < 1e-9, "{v}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn percentile_bounded_above_capacity() {
        let mut pop = op(OpKind::Percentile, Some("x"));
        pop.args = vec![Value::Int(50)];
        let mut r = Reducer::new(&pop);
        for i in 0..100_000 {
            r.update(&Value::Int(i % 1000));
        }
        assert!(held(&r) <= PERCENTILE_CAPACITY);
        // Median of a uniform 0..1000 stream ~ 500 (systematic sample).
        let v = r.finish(0.0).unwrap().to_f64().unwrap();
        assert!((v - 500.0).abs() < 60.0, "median estimate {v}");
    }

    #[test]
    fn percentile_merge_stays_bounded() {
        let mut pop = op(OpKind::Percentile, Some("x"));
        pop.args = vec![Value::Int(50)];
        let mut acc = Reducer::new(&pop);
        for chunk in 0..8 {
            let mut part = Reducer::new(&pop);
            for i in 0..2000 {
                part.update(&Value::Int(chunk * 2000 + i));
            }
            acc.merge(&part);
        }
        assert!(held(&acc) <= PERCENTILE_CAPACITY);
        // Stream was 0..16000 uniform; median ~ 8000.
        let v = acc.finish(0.0).unwrap().to_f64().unwrap();
        assert!((v - 8000.0).abs() < 800.0, "median estimate {v}");
    }

    #[test]
    fn percentile_reservoir_stays_bounded_after_a_lopsided_merge() {
        // Regression: one side's quota rounded down to nothing was still
        // given a sample, the merge kept capacity + 1, and `update`,
        // which thinned only at exactly the capacity, never thinned again.
        let mut pop = op(OpKind::Percentile, Some("x"));
        pop.args = vec![Value::Int(50)];
        let filled = |n: i64| {
            let mut r = Reducer::new(&pop);
            (0..n).for_each(|i| r.update(&Value::Int(i)));
            r
        };
        for (mut acc, other) in [(filled(1), filled(1024)), (filled(1024), filled(1))] {
            acc.merge(&other);
            assert_eq!(held(&acc), PERCENTILE_CAPACITY);
            (0..200_000).for_each(|i| acc.update(&Value::Int(i)));
            assert!(held(&acc) <= PERCENTILE_CAPACITY, "{} samples", held(&acc));
        }
    }

    #[test]
    fn a_merge_into_an_empty_reservoir_keeps_the_stride() {
        // The empty side takes the other's sample and its coarser stride,
        // so what follows the merge is sampled as it would have been
        // without it (a new group of a merge starts empty).
        let mut pop = op(OpKind::Percentile, Some("x"));
        pop.args = vec![Value::Int(50)];
        let mut alone = Reducer::new(&pop);
        (0..5000).for_each(|i| alone.update(&Value::Int(i)));
        let mut merged = Reducer::new(&pop);
        merged.merge(&alone);
        for i in 5000..9000 {
            alone.update(&Value::Int(i));
            merged.update(&Value::Int(i));
        }
        assert_eq!(sample(&merged), sample(&alone));
    }

    #[test]
    fn non_numeric_values_ignored_by_numeric_ops() {
        let mut r = Reducer::new(&op(OpKind::Avg, Some("x")));
        r.update(&Value::str("not a number"));
        assert_eq!(r.finish(0.0), None);
    }

    #[test]
    fn min_max_across_mixed_numeric_types() {
        // Mixed Int/UInt/Float streams compare numerically, and the
        // winner keeps its original type (a profile mixing integer
        // counters with float durations must not silently coerce).
        let mut lo = Reducer::new(&op(OpKind::Min, Some("x")));
        let mut hi = Reducer::new(&op(OpKind::Max, Some("x")));
        for v in [Value::Int(-5), Value::UInt(3), Value::Float(2.5)] {
            lo.update(&v);
            hi.update(&v);
        }
        assert_eq!(lo.finish(0.0), Some(Value::Int(-5)));
        assert_eq!(hi.finish(0.0), Some(Value::UInt(3)));
    }

    #[test]
    fn min_max_ties_break_by_exact_value_then_class() {
        // Numbers of one `f64` image are not equal unless they are one
        // cell: the exact value decides, then the class (Int, UInt,
        // Float, Bool), whatever order they come in.
        const TWO_53: i64 = 1 << 53;
        let cases = [
            [Value::Int(2), Value::Float(2.0), Value::UInt(2)],
            [
                Value::Int(TWO_53 + 1),
                Value::Int(TWO_53),
                Value::Float(TWO_53 as f64),
            ],
            [Value::Bool(true), Value::UInt(1), Value::Float(1.0)],
        ];
        let expect = [
            (Value::Int(2), Value::Float(2.0)),
            (Value::Int(TWO_53), Value::Int(TWO_53 + 1)),
            (Value::UInt(1), Value::Bool(true)),
        ];
        for (values, (min, max)) in cases.iter().zip(expect) {
            for rotation in 0..values.len() {
                let mut lo = Reducer::new(&op(OpKind::Min, Some("x")));
                let mut hi = Reducer::new(&op(OpKind::Max, Some("x")));
                for v in values.iter().cycle().skip(rotation).take(values.len()) {
                    lo.update(v);
                    hi.update(v);
                }
                assert_eq!(lo.finish(0.0), Some(min.clone()), "{values:?}");
                assert_eq!(hi.finish(0.0), Some(max.clone()), "{values:?}");
            }
        }
    }

    #[test]
    fn sum_single_value_keeps_its_type() {
        for v in [Value::Int(-3), Value::UInt(7), Value::Float(0.25)] {
            let mut r = Reducer::new(&op(OpKind::Sum, Some("x")));
            r.update(&v);
            assert_eq!(r.finish(0.0), Some(v));
        }
    }

    #[test]
    fn histogram_zero_width_range() {
        // lo == hi: bin width clamps to the smallest positive float, so
        // exactly-lo values land in bin 0 and anything above overflows
        // instead of dividing by zero.
        let mut hop = op(OpKind::Histogram, Some("x"));
        hop.args = vec![Value::Int(0), Value::Int(0), Value::Int(4)];
        let mut r = Reducer::new(&hop);
        for v in [-1.0, 0.0, 1.0] {
            r.update(&Value::Float(v));
        }
        assert_eq!(r.finish(0.0), Some(Value::str("1|1 0 0 0|1")));
    }

    #[test]
    fn histogram_inverted_range_degrades_to_under_over() {
        // lo > hi is nonsense input; it must not panic. The clamped
        // width sorts everything into under / bin 0 / over.
        let mut hop = op(OpKind::Histogram, Some("x"));
        hop.args = vec![Value::Int(10), Value::Int(0), Value::Int(2)];
        let mut r = Reducer::new(&hop);
        for v in [5.0, 10.0, 11.0] {
            r.update(&Value::Float(v));
        }
        assert_eq!(r.finish(0.0), Some(Value::str("1|1 0|1")));
    }

    #[test]
    fn percentile_extremes_hit_min_and_max() {
        for (p, expect) in [(0i64, 10.0), (100, 90.0)] {
            let mut pop = op(OpKind::Percentile, Some("x"));
            pop.args = vec![Value::Int(p)];
            let mut r = Reducer::new(&pop);
            for v in [30, 10, 90, 50] {
                r.update(&Value::Int(v));
            }
            assert_eq!(r.finish(0.0), Some(Value::Float(expect)), "p{p}");
        }
    }

    #[test]
    fn merge_with_empty_sides_is_identity() {
        for kind in [OpKind::Sum, OpKind::Min, OpKind::Max, OpKind::Avg] {
            let o = op(kind, Some("x"));

            let expect = if kind == OpKind::Avg {
                Value::Float(4.0)
            } else {
                Value::Int(4)
            };

            // empty other: no-op
            let mut a = Reducer::new(&o);
            a.update(&Value::Int(4));
            a.merge(&Reducer::new(&o));
            assert_eq!(a.finish(0.0), Some(expect), "kind {kind:?}");

            // empty self: adopts other
            let mut b = Reducer::new(&o);
            let mut other = Reducer::new(&o);
            other.update(&Value::Int(4));
            b.merge(&other);
            assert_eq!(b.finish(0.0), a.finish(0.0), "kind {kind:?}");
        }
    }
}
