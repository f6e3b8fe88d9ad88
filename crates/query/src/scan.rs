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
//!   block and cuts the block into *runs*: consecutive rows with the
//!   same immediates, column for column. Per run it plans where each of
//!   those attributes is — in no row, one value per row of one column,
//!   or on the rows' node paths (a constant where the rows share their
//!   references, else each row's from the node cache) — decides LET and
//!   WHERE once for the run where the plan settles them and row by row
//!   where it does not, and so selects rows. It finds their groups in
//!   row order — a stream's string *code* becomes the aggregator's code
//!   for the same string, and for a key of one string its group, by one
//!   array look-up; other keys are hashed — and then feeds each op from
//!   its column, one loop over the run per op. No `SnapshotRecord`, no
//!   `FlatRecord`, no boxed key, and no allocation per row: a new group
//!   is one more row of the aggregator's columns. Only rows that carry
//!   an attribute more than once (a nested path as key, repeated
//!   values) are gathered row by row, as the [`Cell`]s of their
//!   occurrences (numbers, or codes of the stream's [`StringTable`]).
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
//! its own, and its code map remembers a group only as the aggregator
//! admitted it — feed the same per-op columns in the same order, and
//! evaluate LET and WHERE through the same functions
//! ([`LetExpr::eval`](crate::LetExpr), `filter::cmp_occurrences`), so a
//! pipeline may be fed by any mix of the two.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use caliper_data::{AttrId, NodeId};
use caliper_format::{
    for_each_flat, scan_path, Block, CaliError, Cell, ColumnData, Dataset, Pushdown, ReadPolicy,
    ReadReport, StringTable,
};

use crate::aggregator::{AggregationSpec, Aggregator, CodeMap, KeyCell};
use crate::ast::{AggOp, Filter, LetDef, LetExpr, OpKind, QuerySpec};
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

/// The slot of `attr`, or [`NO_SLOT`].
fn slot_of(slots: &[Slot], attr: AttrId) -> u32 {
    let found = slots.iter().position(|s| s.attr == Some(attr));
    found.map_or(NO_SLOT, |s| s as u32)
}

/// The occurrences of slotted attributes on one context-tree node's
/// root-first path, as (slot, value), and whether a slot occurs more
/// than once among them.
struct NodeCells {
    cells: Box<[(u32, Cell)]>,
    repeats: bool,
}

/// Where a slot's value is in the rows of a run, for a slot that occurs
/// at most once per row (rows that have a slot more than once are
/// gathered).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Place {
    /// In no row.
    Absent,
    /// The same value in every row: a node path's, or a LET's result of
    /// one.
    Const(Cell),
    /// `Column(c, base)`: row `i`'s value is value `base + i` of the
    /// block's column `c` (a column each row reads once).
    Column(u32, usize),
    /// Row `i`'s value is the `i`th of the slot's values row by row —
    /// what its LET worked out, or what the rows' node paths give it —
    /// absent where that is `None`.
    Computed,
}

/// The columnar fold: rows of decoded [`Block`]s into an [`Aggregator`],
/// with the query's LET and WHERE applied on the way. It holds the
/// per-stream caches plus the scratch one run of rows needs, all reused
/// from run to run and block to block.
///
/// A block is folded a *run* at a time: consecutive rows with equal
/// immediates, column for column, so that each attribute the query
/// mentions is, in every row of the run, in the same place — the next
/// value of one column, or in none — or on the rows' node paths: the
/// same constant where the rows share their node references, and
/// otherwise looked up row by row in the node cache (a trace's
/// snapshots each sit on a node of their own, so runs of equal
/// references would be runs of one). Planning a run changes nothing;
/// then LET and WHERE are decided once for the run where the places
/// settle them (`first()` takes its first present input's place,
/// `exists` looks at the place) and row by row otherwise, through
/// [`LetExpr::eval`](crate::LetExpr) and `filter::cmp_occurrences` as
/// on rows, which leaves the rows the run keeps. Their groups are found
/// in row order — as the aggregator admits them, so `max_groups` decides
/// as on rows — and then every op takes its values from its column in
/// one loop over those rows: each group sees its values in row order,
/// and float sums come out bit for bit as on rows. Rows that carry an
/// attribute the query mentions more than once (a nested path, repeated
/// values, a LET's output on an attribute the row has) are gathered row
/// by row instead ([`gathered_rows`](Self::gathered_rows)).
///
/// What a fold remembers is about the *stream* — one [`StringTable`] at
/// a time — and keyed by that table's codes: [`reset`](Self::reset) it
/// when the table starts over or gives way to another. What it
/// remembers of groups lives in its code map, which knows whose groups
/// they are, so it may fold into any aggregator, one block into this
/// one and the next into that.
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
    /// The stream's string codes as the aggregator's, and a key of one
    /// string's groups.
    codes: CodeMap,
    pub(crate) type_mismatches: u64,
    gathered: u64,

    /// Per column of the current block: its slot, and the next value.
    column_slots: Vec<u32>,
    cursors: Vec<usize>,
    /// Per slot, for the current run: where it is, and its values row
    /// by row where those are worked out (`Place::Computed`).
    places: Vec<Place>,
    computed: Vec<Vec<Option<Cell>>>,
    /// The rows of the run WHERE keeps, by index in the run, and the
    /// group of each.
    selected: Vec<u32>,
    groups: Vec<u32>,
    key: Vec<KeyCell>,
    /// The gather's: per slot, its occurrences in the current row, in
    /// record order; and a `/`-joined key.
    row: Vec<Vec<Cell>>,
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
            places: vec![Place::Absent; slots.len()],
            computed: slots.iter().map(|_| Vec::new()).collect(),
            row: slots.iter().map(|_| Vec::new()).collect(),
            slots,
            lets,
            filters,
            keys,
            ops,
            nodes: Vec::new(),
            codes: CodeMap::default(),
            type_mismatches: 0,
            gathered: 0,
            column_slots: Vec::new(),
            cursors: Vec::new(),
            selected: Vec::new(),
            groups: Vec::new(),
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

    /// Rows folded so far through the row-by-row gather, which only rows
    /// that carry an attribute the query mentions more than once take
    /// (diagnostics: flat profiles should take none).
    pub fn gathered_rows(&self) -> u64 {
        self.gathered
    }

    /// Fold every row of `block`, in order, into `agg`: the rows a
    /// record-by-record [`Pipeline::process`] / [`Aggregator::add`] of
    /// the same records would admit, into the same groups, updating the
    /// same reduction states with each group's values in the same order.
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
        self.column_slots.clear();
        self.column_slots.extend(
            block
                .columns()
                .iter()
                .map(|column| slot_of(slots, column.attr)),
        );
        self.cursors.clear();
        self.cursors.resize(block.columns().len(), 0);

        let mut start = 0;
        while start < block.rows() {
            match self.plan(ds, strings, block, start) {
                Ok(end) => {
                    self.fold_run(agg, strings, block, end - start);
                    for &c in block.row_imms(start) {
                        self.cursors[c as usize] += end - start;
                    }
                    start = end;
                }
                Err(end) => {
                    self.gathered += (end - start) as u64;
                    for r in start..end {
                        self.gather(agg, ds, strings, block, r);
                    }
                    start = end;
                }
            }
        }
    }

    /// Plan the run of rows from `start` on — rows with row `start`'s
    /// immediates, column for column — into `places`: `Ok` of the run's
    /// end, or `Err` of the end of the rows to gather instead, where a
    /// slot occurs more than once in a row (a LET's output counted as an
    /// occurrence of its slot, and marked `Computed` until the LET runs).
    ///
    /// Where row `start + 1` shares row `start`'s node references too,
    /// the run is the rows that do, and a slot on their path a constant.
    /// Otherwise the run takes each row's path values from the node
    /// cache into the slot's `computed` values, and ends before a row
    /// whose path repeats a slot.
    fn plan(
        &mut self,
        ds: &Dataset,
        strings: &mut StringTable,
        block: &Block,
        start: usize,
    ) -> Result<usize, usize> {
        // Rows compared element by element: a slice `==` is a `memcmp`
        // call, which costs more than the few entries of a row.
        let (refs, imms) = (block.row_refs(start), block.row_imms(start));
        let same_imms = |r: usize| r < block.rows() && block.row_imms(r).iter().eq(imms);
        let same = |r: usize| same_imms(r) && block.row_refs(r).iter().eq(refs);
        let mut end = start + 1;

        let places = &mut self.places;
        places.fill(Place::Absent);
        for &c in imms {
            let slot = self.column_slots[c as usize];
            if slot != NO_SLOT && !put(places, slot, Place::Column(c, self.cursors[c as usize])) {
                while same_imms(end) {
                    end += 1;
                }
                return Err(end);
            }
        }
        if end == block.rows() || same(end) {
            while same(end) {
                end += 1;
            }
            for &node in refs {
                let path = node_cells(&mut self.nodes, node, ds, strings, &self.slots);
                for &(slot, cell) in path.cells.iter() {
                    if !put(places, slot, Place::Const(cell)) {
                        return Err(end);
                    }
                }
            }
        } else {
            end = start;
            'rows: while end == start || same_imms(end) {
                let i = end - start;
                for &node in block.row_refs(end) {
                    let path = node_cells(&mut self.nodes, node, ds, strings, &self.slots);
                    for &(slot, cell) in path.cells.iter() {
                        let place = &mut places[slot as usize];
                        let values = &mut self.computed[slot as usize];
                        match place {
                            Place::Absent => {
                                *place = Place::Computed;
                                values.clear();
                            }
                            Place::Computed if values.len() <= i => {}
                            // A second occurrence in this row.
                            _ => break 'rows,
                        }
                        values.resize(i, None);
                        values.push(Some(cell));
                    }
                }
                end += 1;
            }
            if end == start {
                // Row `start` is gathered, and so are the rows after it
                // whose paths repeat a slot too.
                end += 1;
                while same_imms(end)
                    && block.row_refs(end).iter().any(|&node| {
                        node_cells(&mut self.nodes, node, ds, strings, &self.slots).repeats
                    })
                {
                    end += 1;
                }
                return Err(end);
            }
            // A value per row of the run, `None` where the row's path has
            // none (and none of the row the run ends before).
            for (place, values) in places.iter().zip(&mut self.computed) {
                if *place == Place::Computed {
                    values.resize(end - start, None);
                }
            }
        }
        if self
            .lets
            .iter()
            .all(|&(_, _, out)| put(places, out, Place::Computed))
        {
            Ok(end)
        } else {
            Err(end)
        }
    }

    /// Fold the `len` rows of the run [`plan`](Self::plan) placed: LET,
    /// WHERE, the kept rows' groups in row order, then each op over its
    /// values.
    fn fold_run(
        &mut self,
        agg: &mut Aggregator,
        strings: &mut StringTable,
        block: &Block,
        len: usize,
    ) {
        let BlockFold {
            lets,
            filters,
            keys,
            ops,
            codes,
            type_mismatches,
            places,
            computed,
            selected,
            groups,
            key,
            ..
        } = self;

        // LET: each binding sees the outputs of those before it (and
        // none of its own or later ones).
        for &(_, _, out) in lets.iter() {
            places[out as usize] = Place::Absent;
        }
        for (def, inputs, out) in lets.iter() {
            let out = *out as usize;
            let first = inputs
                .iter()
                .map(|&slot| places[slot as usize])
                .find(|&place| place != Place::Absent);
            places[out] = match (&def.expr, first) {
                (LetExpr::First(_), None) => Place::Absent,
                (LetExpr::First(_), Some(Place::Const(cell))) => {
                    Place::Const(as_text(strings, cell))
                }
                (LetExpr::First(_), Some(Place::Column(c, base)))
                    if matches!(block.columns()[c as usize].data, ColumnData::Str(_)) =>
                {
                    Place::Column(c, base)
                }
                _ => {
                    let mut values = std::mem::take(&mut computed[out]);
                    values.clear();
                    for i in 0..len {
                        let input = |k: usize| {
                            let slot = inputs[k] as usize;
                            value_at(places[slot], &computed[slot], block, i)
                        };
                        let result = def.expr.eval(
                            |k| input(k).and_then(|cell| strings.get(cell).to_f64()),
                            |k| input(k).is_some(),
                        );
                        values.push(match result {
                            Some(LetResult::Number(x)) => Some(Cell::Float(x)),
                            Some(LetResult::TextOf(k)) => {
                                Some(as_text(strings, input(k).expect("present input")))
                            }
                            None => None,
                        });
                    }
                    computed[out] = values;
                    Place::Computed
                }
            };
        }

        // WHERE: each condition over the rows the ones before it kept.
        selected.clear();
        selected.extend(0..len as u32);
        for (filter, slot) in filters.iter() {
            let (place, values) = (places[*slot as usize], &computed[*slot as usize]);
            match (filter, place) {
                (Filter::Exists(_), Place::Computed) => {
                    selected.retain(|&i| values[i as usize].is_some())
                }
                (Filter::NotExists(_), Place::Computed) => {
                    selected.retain(|&i| values[i as usize].is_none())
                }
                (Filter::Exists(_) | Filter::Cmp { .. }, Place::Absent)
                | (Filter::NotExists(_), Place::Const(_) | Place::Column(..)) => selected.clear(),
                (Filter::Exists(_) | Filter::NotExists(_), _) => {}
                (Filter::Cmp { op, value, .. }, Place::Const(cell)) => {
                    let occurrence = std::iter::once(strings.get(cell));
                    let (matched, mismatched) = cmp_occurrences(*op, value, occurrence);
                    *type_mismatches += mismatched * selected.len() as u64;
                    if !matched {
                        selected.clear();
                    }
                }
                (Filter::Cmp { op, value, .. }, _) => selected.retain(|&i| {
                    let Some(cell) = value_at(place, values, block, i as usize) else {
                        return false;
                    };
                    let occurrence = std::iter::once(strings.get(cell));
                    let (matched, mismatched) = cmp_occurrences(*op, value, occurrence);
                    *type_mismatches += mismatched;
                    matched
                }),
            }
        }
        if selected.is_empty() {
            return;
        }

        // GROUP BY, in row order: one key for the run where the places
        // are constants, else a key per row — a key of one string is its
        // group by stream code.
        groups.clear();
        let cell_at = |slot: u32, i: usize| {
            value_at(places[slot as usize], &computed[slot as usize], block, i)
        };
        let constant =
            |&slot: &u32| matches!(places[slot as usize], Place::Absent | Place::Const(_));
        if keys.iter().all(constant) {
            fill_key(key, keys, agg, codes, strings, |slot| cell_at(slot, 0));
            let group = agg.admit(key);
            groups.resize(selected.len(), group);
        } else if let Some(column) = one_string(keys, places, block) {
            let group = |&i: &u32| agg.admit_code(codes, strings, column[i as usize]);
            groups.extend(selected.iter().map(group));
        } else {
            for &i in selected.iter() {
                let i = i as usize;
                let group = match cell_at(keys[0], i) {
                    Some(Cell::Str(code)) if keys.len() == 1 => {
                        agg.admit_code(codes, strings, code)
                    }
                    _ => {
                        fill_key(key, keys, agg, codes, strings, |slot| cell_at(slot, i));
                        agg.admit(key)
                    }
                };
                groups.push(group);
            }
        }

        // AGGREGATE: per op, its values in row order.
        for &group in groups.iter() {
            agg.count_into(group);
        }
        for (op, target) in ops.iter().enumerate() {
            let Some(slot) = target else { continue };
            let rows = groups.iter().zip(selected.iter());
            match places[*slot as usize] {
                Place::Absent => {}
                Place::Const(cell) => {
                    let value = strings.get(cell);
                    for &group in groups.iter() {
                        agg.feed(group, op, &value);
                    }
                }
                Place::Column(c, base) => {
                    let at = rows.map(|(&group, &i)| (group, base + i as usize));
                    agg.feed_column(op, &block.columns()[c as usize].data, at, strings);
                }
                Place::Computed => {
                    for (&group, &i) in rows {
                        if let Some(cell) = computed[*slot as usize][i as usize] {
                            agg.feed(group, op, &strings.get(cell));
                        }
                    }
                }
            }
        }
    }

    /// Fold row `r` the long way: gather its occurrences of every slot,
    /// then LET, WHERE, GROUP BY and AGGREGATE over them.
    fn gather(
        &mut self,
        agg: &mut Aggregator,
        ds: &Dataset,
        strings: &mut StringTable,
        block: &Block,
        r: usize,
    ) {
        // Node paths first, then immediates, as a flat record lists them.
        self.row.iter_mut().for_each(Vec::clear);
        for &node in block.row_refs(r) {
            let path = node_cells(&mut self.nodes, node, ds, strings, &self.slots);
            for &(slot, cell) in path.cells.iter() {
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
                Some(LetResult::TextOf(i)) => as_text(strings, last(i).expect("present input")),
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
            return;
        }

        // GROUP BY: the key's cells in the aggregator's terms,
        // `/`-joining an attribute that occurs more than once (and cut
        // short where the aggregator turns a string away).
        self.key.clear();
        for &slot in &self.keys {
            let code = match self.row[slot as usize].as_slice() {
                [] => {
                    self.key.push(KeyCell(None));
                    continue;
                }
                [Cell::Str(code)] => agg.translate(&mut self.codes, strings, *code),
                [number] => {
                    self.key.push(KeyCell(Some(*number)));
                    continue;
                }
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
            let Some(code) = code else { break };
            self.key.push(KeyCell(Some(Cell::Str(code))));
        }
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

/// A key of one label whose rows take their values from a column of
/// strings: that column's codes from the run's first row on.
fn one_string<'b>(keys: &[u32], places: &[Place], block: &'b Block) -> Option<&'b [u32]> {
    let &[slot] = keys else { return None };
    let Place::Column(c, base) = places[slot as usize] else {
        return None;
    };
    match &block.columns()[c as usize].data {
        ColumnData::Str(codes) => Some(&codes[base..]),
        _ => None,
    }
}

/// Put a slot `at` a place: false where it had one already.
fn put(places: &mut [Place], slot: u32, at: Place) -> bool {
    let once = places[slot as usize] == Place::Absent;
    places[slot as usize] = at;
    once
}

/// Row `i` of a run's value at `place`; `computed` is the slot's values
/// row by row.
fn value_at(place: Place, computed: &[Option<Cell>], block: &Block, i: usize) -> Option<Cell> {
    match place {
        Place::Absent => None,
        Place::Const(cell) => Some(cell),
        Place::Column(c, base) => Some(block.columns()[c as usize].data.get(base + i)),
        Place::Computed => computed[i],
    }
}

/// Into `key`, `agg`'s key with the cell `value(slot)` for each label
/// `slot` of `keys`: strings in the aggregator's terms, cut short at one
/// the aggregator turns away. (A loop of pushes: `extend` of a
/// `map_while` costs several times as much here.)
fn fill_key(
    key: &mut Vec<KeyCell>,
    keys: &[u32],
    agg: &mut Aggregator,
    codes: &mut CodeMap,
    strings: &StringTable,
    value: impl Fn(u32) -> Option<Cell>,
) {
    key.clear();
    for &slot in keys {
        let cell = match value(slot) {
            Some(Cell::Str(code)) => match agg.translate(codes, strings, code) {
                Some(mine) => Some(Cell::Str(mine)),
                None => return,
            },
            other => other,
        };
        key.push(KeyCell(cell));
    }
}

/// `cell` as a string of `strings`: what `first()` makes of its input.
fn as_text(strings: &mut StringTable, cell: Cell) -> Cell {
    match cell {
        Cell::Str(_) => cell,
        other => {
            let text = strings.get(other).to_string();
            Cell::Str(strings.intern(&text))
        }
    }
}

/// The slotted occurrences on `node`'s root-first path, worked out on
/// the node's first sight.
fn node_cells<'a>(
    nodes: &'a mut Vec<Option<NodeCells>>,
    node: NodeId,
    ds: &Dataset,
    strings: &mut StringTable,
    slots: &[Slot],
) -> &'a NodeCells {
    let index = node as usize;
    if nodes.len() <= index {
        nodes.resize_with(index + 1, || None);
    }
    nodes[index].get_or_insert_with(|| {
        let cells: Box<[(u32, Cell)]> = ds
            .tree
            .path(node)
            .iter()
            .filter_map(|(attr, value)| {
                let slot = slot_of(slots, *attr);
                (slot != NO_SLOT).then(|| (slot, strings.cell(value)))
            })
            .collect();
        let repeats = (1..cells.len()).any(|i| cells[..i].iter().any(|c| c.0 == cells[i].0));
        NodeCells { cells, repeats }
    })
}
