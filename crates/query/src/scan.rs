//! Scanning one input file into a pipeline: the per-file step both
//! drivers share (`cali-query`'s file-set fold and each rank of
//! `mpi-caliquery`).
//!
//! [`Pipeline::scan_file`] reads a file and folds its records, in stream
//! order, into the pipeline. How the records travel depends on what the
//! file *is* — its stream header, nothing else:
//!
//! * **Text `.cali` and CALB v2** are folded as columns. Either reader
//!   hands over one validated [`Block`] at a time — v2 the blocks its
//!   writer framed, text a block per
//!   [`DEFAULT_BLOCK_RECORDS`](caliper_format::binary_v2::DEFAULT_BLOCK_RECORDS)
//!   snapshot lines — so one block is in memory at a time.
//!   The fold resolves the attributes the query mentions once per
//!   block, walks the rows with one cursor per column, gathers — per
//!   row — only the occurrences of those attributes as [`Cell`]s
//!   (numbers, or string *codes* of the stream's [`StringTable`]),
//!   evaluates LET and WHERE on them, brings the key's cells into the
//!   aggregator's terms — a stream code becomes the aggregator's code
//!   for the same string by one array look-up — has the aggregator find
//!   the row's group by hashing them, and feeds the group's reduction
//!   states from the typed values. No `SnapshotRecord`, no `FlatRecord`,
//!   no boxed key, and no allocation per row: a new group is one more
//!   row of the aggregator's columns.
//! * **CALB v1** has no block decoder (and is on the deletion ledger
//!   rather than getting one). Its records — and the stray v1-style row
//!   records a v2 stream may carry between blocks — are decoded as rows
//!   and go through [`Pipeline::process`], the path that defines what a
//!   query means and the oracle the block fold is tested against
//!   (`tests/columnar_differential.rs`).
//!
//! [`BlockFold`] is that columnar fold, and the only one: whoever holds
//! [`Block`]s and an [`Aggregator`] folds them through it —
//! [`Pipeline::scan_file`] here, [`Pipeline::process_dataset`] for the
//! blocks a dataset holds (the runtime's output), and the resident
//! daemon (`cali-served`),
//! which folds every ingest batch and every replayed journal block into
//! a stream's warm aggregate with it. A pipeline takes blocks through
//! [`Pipeline::fold_block`], which `scan_file` calls per block of a file
//! and the daemon's query per stream, on the block each stream's warm
//! aggregate flushes ([`Aggregator::flush_into`]).
//!
//! Both find their groups in the one table there is from keys to
//! groups, the aggregation database
//! ([`Aggregator::admit`](crate::Aggregator)) — the fold keeps none of
//! its own and knows nothing about groups — feed the same per-op
//! columns in the same order, and
//! evaluate LET and WHERE through the same functions
//! ([`LetExpr::eval`](crate::LetExpr), `filter::cmp_occurrences`), so a
//! pipeline may be fed by any mix of the two.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use caliper_data::{AttrId, NodeId};
use caliper_format::{
    for_each_flat, scan_path, Block, CaliError, Cell, Dataset, Pushdown, ReadPolicy, ReadReport,
    StringTable,
};

use crate::aggregator::{AggregationSpec, Aggregator, CodeMap, KeyCell};
use crate::ast::{AggOp, Filter, LetDef, OpKind, QuerySpec};
use crate::filter::cmp_occurrences;
use crate::lets::LetResult;
use crate::query::Pipeline;

/// What [`Pipeline::scan_file`] hands back.
pub struct Scanned {
    /// The dictionary dataset, grown by the file's attributes, context
    /// tree nodes and globals. It holds no snapshot records.
    pub dict: Dataset,
    /// What the read decoded and what it had to leave behind.
    pub report: ReadReport,
    /// Snapshot records folded into the pipeline.
    pub records: u64,
    /// Seconds of the scan spent folding records into the pipeline
    /// (the rest is reading and decoding).
    pub fold_s: f64,
}

impl Pipeline {
    /// Read one `.cali` or `CALB` file under `policy` (with an optional
    /// zone-map `pushdown`) and fold its records into this pipeline, in
    /// stream order. Text and CALB v2 snapshots are folded as columns,
    /// one block in memory at a time; v1 records as rows (see the
    /// [module docs](self)).
    ///
    /// `dict` receives the file's dictionary; its store must be the one
    /// this pipeline was created over. Scanning several files into one
    /// pipeline through one `dict` gives them a shared dictionary, as
    /// [`read_path_into`](caliper_format::read_path_into) does for rows.
    ///
    /// The file is the unit of work: its contribution to the pipeline is
    /// its records folded in stream order, whoever calls this — a worker
    /// of `cali-query`, a rank of `mpi-caliquery` — and equal to what
    /// [`Pipeline::process`] makes of the same records one by one.
    ///
    /// On an error the pipeline has absorbed part of the file and must
    /// be discarded.
    pub fn scan_file(
        &mut self,
        path: impl AsRef<Path>,
        dict: Dataset,
        policy: ReadPolicy,
        pushdown: Option<&Pushdown>,
    ) -> Result<Scanned, CaliError> {
        assert!(
            Arc::ptr_eq(&self.input_store, &dict.store),
            "scan_file: the pipeline was created over a different store"
        );
        let mut fold = BlockFold::new(&self.spec);
        let (mut fold_s, mut folded) = (0.0, 0u64);
        let (mut dict, report) =
            scan_path(path, dict, policy, pushdown, &mut |ds, strings, block| {
                let start = Instant::now();
                folded += (ds.records.len() + block.rows()) as u64;
                self.fold_block(&mut fold, ds, strings, block);
                fold_s += start.elapsed().as_secs_f64();
            })?;

        // What a v1 file decoded: rows.
        let start = Instant::now();
        folded += dict.records.len() as u64;
        self.process_dataset(&dict);
        dict.records.clear();
        fold_s += start.elapsed().as_secs_f64();
        Ok(Scanned {
            dict,
            report,
            records: folded,
            fold_s,
        })
    }

    /// Fold one decoded `block` into this pipeline — after the row
    /// records its stream carried ahead of it in `ds`, which keep their
    /// place in the order: an aggregation through `fold`, a pass-through
    /// query as whole records. The one step every holder of blocks takes
    /// ([`scan_file`](Self::scan_file) per block of a file, `cali-served`
    /// per stream of a query), with one `fold` per string table.
    ///
    /// `ds` is the dataset the block was decoded into, over the store
    /// this pipeline was created over, and `strings` the table the
    /// block's string codes refer to.
    pub fn fold_block(
        &mut self,
        fold: &mut BlockFold,
        ds: &mut Dataset,
        strings: &mut StringTable,
        block: &Block,
    ) {
        for_each_flat(&ds.tree, &ds.records, |record| self.process(record));
        ds.records.clear();
        self.fold_rows(fold, ds, strings, block);
    }

    /// Fold the blocks a dataset holds (see [`Dataset::blocks`]), in
    /// order, as [`fold_block`](Self::fold_block) folds a decoded one:
    /// with one [`BlockFold`] per string table — a block's own table is
    /// shared and stays as it is, so the fold works on a copy of it.
    pub(crate) fn fold_blocks(&mut self, ds: &Dataset) {
        let mut table: Option<(&Arc<StringTable>, StringTable, BlockFold)> = None;
        for (shared, block) in &ds.blocks {
            if !table.as_ref().is_some_and(|(last, ..)| Arc::ptr_eq(last, shared)) {
                table = Some((shared, StringTable::clone(shared), BlockFold::new(&self.spec)));
            }
            let (_, strings, fold) = table.as_mut().expect("set above");
            self.fold_rows(fold, ds, strings, block);
        }
    }

    /// Fold `block`'s rows: an aggregation through `fold`, a pass-through
    /// query as whole records.
    fn fold_rows(
        &mut self,
        fold: &mut BlockFold,
        ds: &Dataset,
        strings: &mut StringTable,
        block: &Block,
    ) {
        match &mut self.aggregator {
            Some(aggregator) => fold.fold(aggregator, ds, strings, block),
            None => {
                let mut rows = Vec::new();
                block.append_records(strings, &mut rows);
                for_each_flat(&ds.tree, &rows, |record| self.process(record));
            }
        }
        self.filters
            .add_type_mismatches(std::mem::take(&mut fold.type_mismatches));
    }
}

/// An attribute the query mentions, by label, with its id in the input
/// store once the label resolves. Labels resolve at block boundaries
/// and never change afterwards.
struct Slot {
    label: String,
    attr: Option<AttrId>,
}

const NO_SLOT: u32 = u32::MAX;

/// The occurrences of slotted attributes on one context-tree node's
/// root-first path, as (slot, value).
type NodeCells = Box<[(u32, Cell)]>;

/// The columnar fold: rows of decoded [`Block`]s into an [`Aggregator`],
/// with the query's LET and WHERE applied on the way. It holds the
/// per-stream plans and caches plus the scratch one row needs, all
/// reused from row to row and block to block.
///
/// What a fold remembers is about the *stream* — one [`StringTable`] at
/// a time — and keyed by that table's codes: [`reset`](Self::reset) it
/// when the table starts over or gives way to another. About groups it
/// remembers nothing, so it may fold into any aggregator, one block
/// into this one and the next into that.
pub struct BlockFold {
    slots: Vec<Slot>,
    /// Per LET binding: its definition, the slots of its inputs, and of
    /// its output.
    lets: Vec<(LetDef, Vec<u32>, u32)>,
    /// Per WHERE condition: the condition and the slot of its attribute.
    filters: Vec<(Filter, u32)>,
    /// Per GROUP BY label: its slot.
    keys: Vec<u32>,
    /// Per op: the slot of its target (`None` for `count`).
    ops: Vec<Option<u32>>,

    /// Per context-tree node seen so far, by node id: its slotted
    /// occurrences. A label that resolves later cannot be on a path
    /// cached earlier — the node's attributes were all in the store
    /// when its block was set up.
    nodes: Vec<Option<NodeCells>>,
    /// The stream's string codes as the aggregator's.
    codes: CodeMap,
    pub(crate) type_mismatches: u64,

    /// Per column of the current block: its slot, and the next value.
    column_slots: Vec<u32>,
    cursors: Vec<usize>,
    /// Per slot: its occurrences in the current row, in record order.
    row: Vec<Vec<Cell>>,
    key: Vec<KeyCell>,
    text: String,
}

impl BlockFold {
    /// The fold of a whole query: LET, WHERE, GROUP BY and the ops.
    pub fn new(spec: &QuerySpec) -> BlockFold {
        BlockFold::over(&spec.lets, &spec.filters, &spec.key, &spec.ops)
    }

    /// The fold of an aggregation alone: every row is grouped and
    /// reduced.
    pub fn for_aggregation(spec: &AggregationSpec) -> BlockFold {
        BlockFold::over(&[], &[], &spec.key, &spec.ops)
    }

    fn over(lets: &[LetDef], filters: &[Filter], key: &[String], ops: &[AggOp]) -> BlockFold {
        let mut slots: Vec<Slot> = Vec::new();
        let mut slot = |label: &str| -> u32 {
            let found = slots.iter().position(|s| s.label == label);
            found.unwrap_or_else(|| {
                slots.push(Slot {
                    label: label.to_string(),
                    attr: None,
                });
                slots.len() - 1
            }) as u32
        };
        let lets = lets
            .iter()
            .map(|def| {
                let inputs = def.expr.inputs().into_iter().map(&mut slot).collect();
                (def.clone(), inputs, slot(&def.name))
            })
            .collect();
        let filters = filters
            .iter()
            .map(|filter| {
                let label = match filter {
                    Filter::Exists(label) | Filter::NotExists(label) => label,
                    Filter::Cmp { attr, .. } => attr,
                };
                (filter.clone(), slot(label))
            })
            .collect();
        let keys: Vec<u32> = key.iter().map(|label| slot(label)).collect();
        let ops = ops
            .iter()
            .map(|op| {
                (op.kind != OpKind::Count).then(|| slot(op.target.as_deref().unwrap_or_default()))
            })
            .collect();
        BlockFold {
            row: slots.iter().map(|_| Vec::new()).collect(),
            slots,
            lets,
            filters,
            keys,
            ops,
            nodes: Vec::new(),
            codes: CodeMap::default(),
            type_mismatches: 0,
            column_slots: Vec::new(),
            cursors: Vec::new(),
            key: Vec::new(),
            text: String::new(),
        }
    }

    /// Forget what was learnt about the string table's codes. Call it
    /// when the stream's string table starts over; the cost is a code
    /// map and a node cache refilled as the stream's strings and nodes
    /// come by again.
    pub fn reset(&mut self) {
        self.codes = CodeMap::default();
        self.nodes.clear();
    }

    /// Fold every row of `block`, in order, into `agg`: the rows a
    /// record-by-record [`Pipeline::process`] / [`Aggregator::add`] of
    /// the same records would admit, into the same groups, updating the
    /// same reduction states in the same order.
    ///
    /// `ds` is the dataset the block was decoded into — its store is the
    /// one `agg` resolves labels against — and `strings` the table the
    /// block's string codes refer to.
    pub fn fold(
        &mut self,
        agg: &mut Aggregator,
        ds: &Dataset,
        strings: &mut StringTable,
        block: &Block,
    ) {
        for slot in self.slots.iter_mut().filter(|s| s.attr.is_none()) {
            slot.attr = agg.store().find(&slot.label).map(|attr| attr.id());
        }
        let slots = &self.slots;
        let slot_of = |attr: AttrId| -> u32 {
            let found = slots.iter().position(|s| s.attr == Some(attr));
            found.map_or(NO_SLOT, |s| s as u32)
        };
        self.column_slots.clear();
        self.column_slots
            .extend(block.columns().iter().map(|column| slot_of(column.attr)));
        self.cursors.clear();
        self.cursors.resize(block.columns().len(), 0);

        for r in 0..block.rows() {
            // Gather: node paths first, then immediates, as a flat
            // record lists them.
            self.row.iter_mut().for_each(Vec::clear);
            for &node in block.row_refs(r) {
                let cached = node_cells(&mut self.nodes, node, ds, strings, &slot_of);
                for &(slot, cell) in cached {
                    self.row[slot as usize].push(cell);
                }
            }
            for &c in block.row_imms(r) {
                let c = c as usize;
                let i = self.cursors[c];
                self.cursors[c] = i + 1;
                let slot = self.column_slots[c];
                if slot != NO_SLOT {
                    self.row[slot as usize].push(block.columns()[c].data.get(i));
                }
            }

            // LET: each binding sees the outputs of those before it.
            for (def, inputs, out) in &self.lets {
                let row = &self.row;
                let last = |i: usize| row[inputs[i] as usize].last().copied();
                let result = def.expr.eval(
                    |i| last(i).and_then(|cell| strings.get(cell).to_f64()),
                    |i| last(i).is_some(),
                );
                let cell = match result {
                    Some(LetResult::Number(x)) => Cell::Float(x),
                    Some(LetResult::TextOf(i)) => match last(i).expect("present input") {
                        text @ Cell::Str(_) => text,
                        other => {
                            let text = strings.get(other).to_string();
                            Cell::Str(strings.intern(&text))
                        }
                    },
                    None => continue,
                };
                self.row[*out as usize].push(cell);
            }

            // WHERE.
            let row = &self.row;
            let type_mismatches = &mut self.type_mismatches;
            let pass = self.filters.iter().all(|(filter, slot)| {
                let cells = &row[*slot as usize];
                match filter {
                    Filter::Exists(_) => !cells.is_empty(),
                    Filter::NotExists(_) => cells.is_empty(),
                    Filter::Cmp { op, value, .. } => {
                        if cells.is_empty() {
                            return false;
                        }
                        let occurrences = cells.iter().map(|&cell| strings.get(cell));
                        let (matched, mismatched) = cmp_occurrences(*op, value, occurrences);
                        *type_mismatches += mismatched;
                        matched
                    }
                }
            });
            if !pass {
                continue;
            }

            // GROUP BY: the key's cells in the aggregator's terms,
            // `/`-joining an attribute that occurs more than once (and cut
            // short where the aggregator turns a string away).
            self.key.clear();
            self.key.extend(self.keys.iter().map_while(|&slot| {
                let code = match self.row[slot as usize].as_slice() {
                    [] => return Some(KeyCell(None)),
                    [Cell::Str(code)] => agg.translate(&mut self.codes, strings, *code),
                    [number] => return Some(KeyCell(Some(*number))),
                    many => {
                        self.text.clear();
                        for (i, &cell) in many.iter().enumerate() {
                            if i > 0 {
                                self.text.push('/');
                            }
                            self.text.push_str(&strings.get(cell).to_text());
                        }
                        agg.key_code(&self.text)
                    }
                };
                Some(KeyCell(Some(Cell::Str(code?))))
            }));
            let group = agg.admit(&self.key);

            // AGGREGATE.
            agg.count_into(group);
            for (op, target) in self.ops.iter().enumerate() {
                let Some(slot) = target else { continue };
                for &cell in &self.row[*slot as usize] {
                    agg.feed(group, op, &strings.get(cell));
                }
            }
        }
    }
}

/// The slotted occurrences on `node`'s root-first path, computed on the
/// node's first sight.
fn node_cells<'a>(
    nodes: &'a mut Vec<Option<NodeCells>>,
    node: NodeId,
    ds: &Dataset,
    strings: &mut StringTable,
    slot_of: &impl Fn(AttrId) -> u32,
) -> &'a [(u32, Cell)] {
    let index = node as usize;
    if nodes.len() <= index {
        nodes.resize_with(index + 1, || None);
    }
    nodes[index].get_or_insert_with(|| {
        ds.tree
            .path(node)
            .iter()
            .filter_map(|(attr, value)| {
                let slot = slot_of(*attr);
                (slot != NO_SLOT).then(|| (slot, strings.cell(value)))
            })
            .collect()
    })
}
