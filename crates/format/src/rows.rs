//! A query result as columns: the rows of a [`Block`] in an order of
//! their own.
//!
//! An aggregation flushes its groups into a block a column at a time,
//! and a pass-through query collects its matching records into one row
//! by row; either way the result is that block and the [`StringTable`]
//! its string codes refer to. ORDER BY sorts a permutation of the rows
//! and LIMIT cuts it short. The renderers ([`csv`](crate::csv),
//! [`table`](crate::table), [`json`](crate::json),
//! [`expand`](crate::expand), [`flamegraph`](crate::flamegraph)) walk
//! each row's immediates in that order and write every cell from its
//! column, each string of the table escaped once per render. A
//! [`FlatRecord`] is built only where a caller asks for one
//! ([`BlockRows::row`]).

use std::borrow::Cow;
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

use caliper_data::{AttrId, FlatRecord, Value};

use crate::binary_v2::{Block, Cell, StringTable};

/// The rows of a [`Block`] without node references, in an order of
/// their own: a query result. Row `i` is the `i`-th in that order.
#[derive(Debug, Clone, Default)]
pub struct BlockRows {
    block: Block,
    strings: StringTable,
    /// The rows in order, as rows of the block.
    order: Vec<u32>,
    /// Per immediate of the block, in row order: the index of its value
    /// in its column, so that a row's cells are found without walking
    /// the rows before it.
    at: Vec<u32>,
}

impl BlockRows {
    /// `block`'s rows, in block order. `strings` is the table the
    /// block's string codes refer to.
    pub fn new(block: Block, strings: StringTable) -> BlockRows {
        debug_assert!(
            (0..block.rows()).all(|row| block.row_refs(row).is_empty()),
            "a result row with node references"
        );
        let mut next = vec![0u32; block.columns().len()];
        let at = block
            .imms()
            .iter()
            .map(|&c| {
                let at = next[c as usize];
                next[c as usize] = at + 1;
                at
            })
            .collect();
        BlockRows {
            order: (0..block.rows() as u32).collect(),
            at,
            block,
            strings,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The table the block's string codes refer to.
    pub fn strings(&self) -> &StringTable {
        &self.strings
    }

    /// `cell` as a [`Value`] (see [`StringTable::get`]).
    pub(crate) fn value(&self, cell: Cell) -> Cow<'_, Value> {
        self.strings.get(cell)
    }

    /// Where row `i`'s immediates are among the block's.
    pub(crate) fn span(&self, i: usize) -> Range<usize> {
        self.block.imm_span(self.order[i] as usize)
    }

    /// The block's `k`-th immediate (in row order) as its column's index.
    pub(crate) fn column_at(&self, k: usize) -> usize {
        self.block.imms()[k] as usize
    }

    /// The block's `k`-th immediate (in row order) as its value's cell.
    pub(crate) fn cell_at(&self, k: usize) -> Cell {
        self.block.columns()[self.column_at(k)]
            .data
            .get(self.at[k] as usize)
    }

    /// Row `i`'s immediates in entry order, as (attribute, cell).
    fn cells(&self, i: usize) -> impl Iterator<Item = (AttrId, Cell)> + '_ {
        self.span(i).map(|k| {
            (
                self.block.columns()[self.column_at(k)].attr,
                self.cell_at(k),
            )
        })
    }

    /// Row `i` as a record: its immediates as (attribute, value) pairs,
    /// in entry order.
    pub fn row(&self, i: usize) -> FlatRecord {
        let pairs = self
            .cells(i)
            .map(|(attr, cell)| (attr, self.value(cell).into_owned()));
        FlatRecord::from_pairs(pairs.collect())
    }

    /// Every row as a record ([`row`](Self::row)), in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FlatRecord> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The attributes the rows carry, in order of first appearance.
    pub fn attributes(&self) -> Vec<AttrId> {
        let mut seen = Vec::new();
        for i in 0..self.len() {
            for (attr, _) in self.cells(i) {
                if !seen.contains(&attr) {
                    seen.push(attr);
                }
            }
        }
        seen
    }

    /// Sort the rows, stably, by each of `keys` in turn: an attribute,
    /// whose cell in a row — the `/`-joined path of its values where the
    /// row has several, as [`FlatRecord::path_string`] joins them —
    /// compares by [`Value::total_cmp`], a row without one first; `true`
    /// reverses the key's order. Every key's cells are gathered once.
    pub fn sort(&mut self, keys: &[(AttrId, bool)]) {
        if keys.is_empty() {
            return;
        }
        let mut order = std::mem::take(&mut self.order);
        let gathered: Vec<(Vec<Option<Cow<'_, Value>>>, bool)> = keys
            .iter()
            .map(|&(attr, desc)| {
                let cells = (0..self.block.rows()).map(|row| self.path_value(row, attr));
                (cells.collect(), desc)
            })
            .collect();
        order.sort_by(|&a, &b| {
            for (cells, desc) in &gathered {
                let ord = match (&cells[a as usize], &cells[b as usize]) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(va), Some(vb)) => va.total_cmp(vb),
                };
                let ord = if *desc { ord.reverse() } else { ord };
                if ord.is_ne() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        drop(gathered);
        self.order = order;
    }

    /// Keep the first `len` rows.
    pub fn truncate(&mut self, len: usize) {
        self.order.truncate(len);
    }

    /// Block row `row`'s value of `attr`: its one value, or the text of
    /// its several joined by `/`.
    fn path_value(&self, row: usize, attr: AttrId) -> Option<Cow<'_, Value>> {
        let mut cells = self
            .block
            .imm_span(row)
            .filter(|&k| self.block.columns()[self.column_at(k)].attr == attr)
            .map(|k| self.cell_at(k));
        let first = cells.next()?;
        let Some(second) = cells.next() else {
            return Some(self.value(first));
        };
        let mut text = String::new();
        self.write_path(&mut text, [first, second].into_iter().chain(cells));
        Some(Cow::Owned(Value::Str(Arc::from(text))))
    }

    /// Append the text of `cells`' values joined by `/`: a nested
    /// attribute's path, as [`FlatRecord::path_string`] joins it.
    pub(crate) fn write_path(&self, out: &mut String, cells: impl Iterator<Item = Cell>) {
        for (n, cell) in cells.enumerate() {
            if n > 0 {
                out.push('/');
            }
            write!(out, "{}", self.value(cell)).expect("writing to a String");
        }
    }

    /// The rows, in order, as a block of their own over the same string
    /// table, keeping only the immediates of the attributes `keep`
    /// accepts.
    pub fn to_block(&self, keep: impl Fn(AttrId) -> bool) -> Block {
        const UNSEEN: u32 = u32::MAX;
        let mut block = Block::default();
        let mut targets = vec![UNSEEN; self.block.columns().len()];
        for i in 0..self.len() {
            for k in self.span(i) {
                let c = self.column_at(k);
                let column = &self.block.columns()[c];
                if !keep(column.attr) {
                    continue;
                }
                if targets[c] == UNSEEN {
                    targets[c] = block.column_for(column.attr, column.data.value_type());
                }
                block.push_imm(targets[c], self.cell_at(k));
            }
            assert!(block.end_row(), "a result of more than 2^32 values");
        }
        block
    }
}

/// Marks a block column whose attribute a [`Picker`] was not asked for.
const NO_SLOT: usize = usize::MAX;

/// Where a row's values of each of a list of output columns are, found
/// in one walk of the row's immediates: how a renderer reads a row.
/// Output columns of one attribute share a slot.
pub(crate) struct Picker {
    /// Per output column: its attribute's slot.
    slots: Vec<usize>,
    /// Per block column: its attribute's slot, or [`NO_SLOT`].
    of_column: Vec<usize>,
    /// Per slot, in the row picked last: how many values it has, and the
    /// first and the last of them as immediates of the block.
    found: Vec<(usize, usize, usize)>,
}

impl Picker {
    /// A picker of the output columns `attrs` over `rows`.
    pub(crate) fn new(rows: &BlockRows, attrs: impl IntoIterator<Item = AttrId>) -> Picker {
        let mut distinct: Vec<AttrId> = Vec::new();
        let slots = attrs
            .into_iter()
            .map(|attr| {
                distinct.iter().position(|&d| d == attr).unwrap_or_else(|| {
                    distinct.push(attr);
                    distinct.len() - 1
                })
            })
            .collect();
        let of_column = rows.block.columns().iter().map(|column| {
            let slot = distinct.iter().position(|&d| d == column.attr);
            slot.unwrap_or(NO_SLOT)
        });
        Picker {
            slots,
            of_column: of_column.collect(),
            found: vec![(0, 0, 0); distinct.len()],
        }
    }

    /// Find row `i`'s values.
    pub(crate) fn pick(&mut self, rows: &BlockRows, i: usize) {
        self.found.fill((0, 0, 0));
        for k in rows.span(i) {
            let slot = self.of_column[rows.column_at(k)];
            if slot != NO_SLOT {
                let found = &mut self.found[slot];
                if found.0 == 0 {
                    found.1 = k;
                }
                found.0 += 1;
                found.2 = k;
            }
        }
    }

    /// The slot of output column `j`.
    pub(crate) fn slot(&self, j: usize) -> usize {
        self.slots[j]
    }

    /// The slot of the block's `k`-th immediate, if it is asked for.
    pub(crate) fn slot_at(&self, rows: &BlockRows, k: usize) -> Option<usize> {
        let slot = self.of_column[rows.column_at(k)];
        (slot != NO_SLOT).then_some(slot)
    }

    /// In the row picked last: how many values `slot` has, and the first
    /// and the last of them as immediates of the block.
    pub(crate) fn found(&self, slot: usize) -> (usize, usize, usize) {
        self.found[slot]
    }

    /// The values of `slot` in the row picked last, in entry order.
    pub(crate) fn cells<'r>(
        &'r self,
        rows: &'r BlockRows,
        slot: usize,
    ) -> impl Iterator<Item = Cell> + 'r {
        let (count, first, last) = self.found[slot];
        let span = if count == 0 { 0..0 } else { first..last + 1 };
        span.filter(move |&k| self.of_column[rows.column_at(k)] == slot)
            .map(|k| rows.cell_at(k))
    }
}

/// The strings of a table as one rule escapes them, each escaped on its
/// first use and copied from here after that.
pub(crate) struct Escapes {
    /// Per string code: where its escaped text is in `text`, or
    /// `usize::MAX` at the start until it has been escaped.
    spans: Vec<(usize, usize)>,
    text: String,
}

impl Escapes {
    /// No string of `strings` escaped yet.
    pub(crate) fn new(strings: &StringTable) -> Escapes {
        Escapes {
            spans: vec![(usize::MAX, 0); strings.len()],
            text: String::new(),
        }
    }

    /// Append string `code` of `strings` to `out` as `escape` writes it.
    pub(crate) fn push(
        &mut self,
        out: &mut String,
        strings: &StringTable,
        code: u32,
        escape: impl FnOnce(&str, &mut String),
    ) {
        let span = &mut self.spans[code as usize];
        if span.0 == usize::MAX {
            let start = self.text.len();
            escape(&strings.value(code).to_text(), &mut self.text);
            *span = (start, self.text.len());
        }
        out.push_str(&self.text[span.0..span.1]);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use caliper_data::{AttributeStore, SnapshotRecord, ValueType};

    /// Rows of `records`, built through the block's row builder.
    pub(crate) fn rows_of(records: &[FlatRecord]) -> BlockRows {
        let (mut block, mut strings) = (Block::default(), StringTable::default());
        for rec in records {
            assert!(block.push_snapshot(&mut strings, &SnapshotRecord::from(rec)));
        }
        BlockRows::new(block, strings)
    }

    #[test]
    fn rows_come_back_as_the_records_they_were() {
        let store = AttributeStore::new();
        let f = store.create_simple("function", ValueType::Str);
        let t = store.create_simple("time", ValueType::Float);
        let mut a = FlatRecord::new();
        a.push(f.id(), Value::str("main"));
        a.push(t.id(), Value::Float(2.5));
        a.push(f.id(), Value::str("foo"));
        let mut b = FlatRecord::new();
        b.push(t.id(), Value::Int(3));
        let rows = rows_of(&[a.clone(), b.clone(), FlatRecord::new()]);
        assert_eq!(rows.len(), 3);
        let back: Vec<FlatRecord> = rows.iter().collect();
        assert_eq!(back, vec![a, b, FlatRecord::new()]);
        assert_eq!(rows.attributes(), vec![f.id(), t.id()]);
    }

    #[test]
    fn sort_is_stable_puts_absent_first_and_compares_paths() {
        let store = AttributeStore::new();
        let f = store.create_simple("function", ValueType::Str);
        let n = store.create_simple("n", ValueType::Int);
        let record = |path: &[&str], i: i64| {
            let mut rec = FlatRecord::new();
            path.iter().for_each(|p| rec.push(f.id(), Value::str(*p)));
            rec.push(n.id(), Value::Int(i));
            rec
        };
        let mut rows = rows_of(&[
            record(&["main", "b"], 0),
            record(&[], 1),
            record(&["main"], 2),
            record(&["main", "a"], 3),
            record(&["main"], 4),
        ]);
        rows.sort(&[(f.id(), false)]);
        let order = |rows: &BlockRows| -> Vec<i64> {
            rows.iter()
                .map(|r| r.get(n.id()).unwrap().to_i64().unwrap())
                .collect()
        };
        assert_eq!(order(&rows), vec![1, 2, 4, 3, 0]);
        rows.sort(&[(f.id(), true)]);
        assert_eq!(order(&rows), vec![0, 3, 2, 4, 1]);
        rows.truncate(2);
        assert_eq!(order(&rows), vec![0, 3]);
        let block = rows.to_block(|attr| attr == n.id());
        let kept = BlockRows::new(block, rows.strings().clone());
        assert_eq!(kept.iter().map(|r| r.len()).collect::<Vec<_>>(), vec![1, 1]);
    }
}
