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
//!   writer framed, text a block per [`DEFAULT_BLOCK_RECORDS`] snapshot
//!   lines — so one block is in memory at a time.
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
//! * **Row records** — what CALB v1 decodes (it has no block decoder,
//!   and is on the deletion ledger rather than getting one), the stray
//!   v1-style records a v2 stream may carry between blocks, and the
//!   records of an in-memory [`Dataset`] — become block rows the way the
//!   runtime's trace buffer makes them ([`Block::push_snapshot`]),
//!   [`DEFAULT_BLOCK_RECORDS`] to a block, and fold as columns too.
//!
//! `BlockFold` is that columnar fold, and the only evaluator of LET and
//! WHERE there is. Two types own one, and every holder of [`Block`]s
//! goes through them: a [`Pipeline`] owns the fold of its query —
//! [`Pipeline::scan_file`] here, [`Pipeline::process_dataset`] for what
//! a dataset holds (the runtime's output), [`Pipeline::process`] for
//! one record, as a block of one row, and [`Pipeline::fold_block`],
//! which `scan_file` calls per block of a file and the daemon's query
//! per stream, on the block each stream's warm aggregate flushes
//! ([`Aggregator::flush_into`]); an [`Aggregator`] owns the fold of its
//! aggregation — [`Aggregator::fold_block`], which the runtime's
//! aggregate service takes for the snapshots it appends to a block and
//! the resident daemon (`cali-served`) for every ingest batch and every
//! replayed journal block, and [`Aggregator::add`] for one record.
//!
//! A fold's caches — its node cache and its code map — are keyed by the
//! codes of one [`StringTable`], and the fold knows whose: it compares
//! the table's [`id`](StringTable::id) at each block, as it compares the
//! context tree's, and starts its caches over when it changes. So no
//! caller pairs a fold with a table, and a table's owner that starts the
//! table over (`MAX_STREAM_STRINGS`) just makes a new one. Its labels
//! resolve against one [`AttributeStore`], which it also knows: a
//! pipeline's fold resolves each file folded into a part of it
//! (`Pipeline::scan_part`, the lent root of `cali-query`) against that
//! file's own store, and starts its labels and node cache over when the
//! store is another.
//!
//! After LET and WHERE the fold hands the rows it keeps to a sink: an
//! aggregation's groups — found in the one table there is from keys to
//! groups, the aggregation database
//! ([`Aggregator::admit`](crate::Aggregator)); the fold keeps none of its
//! own, and its code map remembers a group only as the aggregator
//! admitted it — or, for a pass-through query, the result block, which
//! takes each kept row whole: its node paths' values, its immediates and
//! its LET outputs, the pairs of the record the row stands for.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use caliper_data::{AttrId, Attribute, AttributeStore, ContextTree, NodeId, SnapshotRecord, Value};
use caliper_format::binary_v2::DEFAULT_BLOCK_RECORDS;
use caliper_format::{
    scan_path, Block, CaliError, Cell, ColumnData, Dataset, Pushdown, ReadPolicy, ReadReport,
    StringTable,
};

use crate::aggregator::{AggregationSpec, Aggregator, CodeMap, KeyCell};
use crate::ast::{AggOp, Filter, LetDef, LetExpr, OpKind, QuerySpec};
use crate::lets::LetResult;
use crate::query::Pipeline;

/// What [`Pipeline::scan_file`] hands back.
pub struct Scanned {
    /// The dictionary dataset, grown by the file's attributes, context
    /// tree nodes and globals. It holds no snapshot records.
    pub dict: Dataset,
    /// What the file declares that the dictionary did not hold yet: the
    /// attributes the scan added to its store, less the LET outputs the
    /// fold added to it (a pass-through fold interns them into the store
    /// its kept rows refer to).
    pub declared: Vec<Attribute>,
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
    /// stream order. Text and CALB v2 snapshots are folded as the blocks
    /// the reader hands over, one in memory at a time; v1 records as the
    /// blocks they make (see the [module docs](self)).
    ///
    /// `dict` receives the file's dictionary; its store must be the one
    /// this pipeline was created over. Scanning several files into one
    /// pipeline through one `dict` gives them a shared dictionary, as
    /// [`read_path_into`](caliper_format::read_path_into) does for rows.
    ///
    /// The file is the unit of work: its contribution to the pipeline is
    /// its records folded in stream order, whoever calls this — a worker
    /// of `cali-query`, a rank of `mpi-caliquery`.
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
        let (mut fold_s, mut folded) = (0.0, 0u64);
        let known = dict.store.len() as AttrId;
        let (mut dict, report) =
            scan_path(path, dict, policy, pushdown, &mut |ds, strings, block| {
                let start = Instant::now();
                folded += (ds.records.len() + block.rows()) as u64;
                self.fold_block(ds, strings, block);
                fold_s += start.elapsed().as_secs_f64();
            })?;

        // What a v1 file decoded: rows.
        let start = Instant::now();
        folded += dict.records.len() as u64;
        self.fold_records(&dict.records, &dict.tree);
        dict.records.clear();
        fold_s += start.elapsed().as_secs_f64();
        let declared = (known..dict.store.len() as AttrId)
            .filter_map(|id| dict.store.get(id).filter(|_| !self.lets.added(id)))
            .collect();
        Ok(Scanned {
            dict,
            declared,
            report,
            records: folded,
            fold_s,
        })
    }

    /// [`scan_file`](Self::scan_file) for a file with a dictionary of
    /// its own — `dict` over another store than this pipeline's — into
    /// an open part of this pipeline's aggregation
    /// ([`Aggregator::open_part`]): the file's records are folded as
    /// into a pipeline of their own, over its store, into this one's
    /// groups. The part is left open for the caller to close or drop; a
    /// failed read drops it.
    pub(crate) fn scan_part(
        &mut self,
        path: &Path,
        dict: Dataset,
        policy: ReadPolicy,
        pushdown: Option<&Pushdown>,
    ) -> Result<Scanned, CaliError> {
        let aggregator = self.aggregator.as_mut().expect("a part of an aggregation");
        aggregator.open_part();
        let store = std::mem::replace(&mut self.input_store, Arc::clone(&dict.store));
        let scanned = self.scan_file(path, dict, policy, pushdown);
        self.input_store = store;
        if scanned.is_err() {
            self.aggregator
                .as_mut()
                .expect("an aggregation")
                .drop_part();
        }
        scanned
    }

    /// Fold one decoded `block` into this pipeline — after the row
    /// records its stream carried ahead of it in `ds`, which keep their
    /// place in the order — through the pipeline's fold. The one step
    /// every holder of blocks takes ([`scan_file`](Self::scan_file) per
    /// block of a file, `cali-served` per stream of a query).
    ///
    /// `ds` is the dataset the block was decoded into, over the store
    /// this pipeline was created over, and `strings` the table the
    /// block's string codes refer to.
    pub fn fold_block(&mut self, ds: &mut Dataset, strings: &mut StringTable, block: &Block) {
        self.fold_records(&ds.records, &ds.tree);
        ds.records.clear();
        self.fold_rows(&ds.tree, strings, block);
    }

    /// Fold the blocks a dataset holds (see [`Dataset::blocks`]), in
    /// order, as [`fold_block`](Self::fold_block) folds a decoded one —
    /// a block's own table is shared and stays as it is, so the fold
    /// works on a copy of it.
    pub(crate) fn fold_blocks(&mut self, ds: &Dataset) {
        let mut table: Option<(&Arc<StringTable>, StringTable)> = None;
        for (shared, block) in &ds.blocks {
            if !table
                .as_ref()
                .is_some_and(|(last, _)| Arc::ptr_eq(last, shared))
            {
                table = Some((shared, StringTable::clone(shared)));
            }
            let (_, strings) = table.as_mut().expect("set above");
            self.fold_rows(&ds.tree, strings, block);
        }
    }

    /// Fold row records whose nodes are in `tree`, in order: as blocks
    /// of [`DEFAULT_BLOCK_RECORDS`] rows ([`Block::push_snapshot`]),
    /// through the string table and block the pipeline keeps for row
    /// records.
    pub(crate) fn fold_records(&mut self, records: &[SnapshotRecord], tree: &ContextTree) {
        if records.is_empty() {
            return;
        }
        let mut rows = self.rows.take().unwrap_or_default();
        for records in records.chunks(DEFAULT_BLOCK_RECORDS) {
            let (strings, block) = &mut *rows;
            block.clear();
            for record in records {
                assert!(
                    block.push_snapshot(strings, record),
                    "a block of more than 2^32 entries"
                );
            }
            self.fold_rows(tree, strings, block);
        }
        self.rows = Some(rows);
    }
}

/// Where the rows a fold keeps go.
pub(crate) enum Sink<'a> {
    /// An aggregation: each row into its group.
    Groups(&'a mut Aggregator),
    /// A pass-through query's result: each row appended whole to
    /// `block` — its node paths' values, its immediates, then its LET
    /// outputs as attributes `lets` — strings as codes of `strings`.
    Rows {
        block: &'a mut Block,
        strings: &'a mut StringTable,
        lets: &'a [AttrId],
    },
}

/// An attribute the query mentions, by label, with its id in the input
/// store once the label resolves. Labels resolve at block boundaries
/// and never change afterwards. `joined`: the label is a GROUP BY key
/// and nothing else, so that a node path's occurrences of it are only
/// ever `/`-joined into a key.
struct Slot {
    label: String,
    attr: Option<AttrId>,
    joined: bool,
}

const NO_SLOT: u32 = u32::MAX;

/// Strings a stream's table may hold before its owner starts it over
/// with a new one (between blocks, so a block can overshoot by what it
/// carries) — a `cali-served` stream's and the runtime's aggregate
/// service's. Only the table's codes are forgotten, never a group: the
/// fold that meets the new table starts its code map and node cache
/// over, and the cost is those refilled.
pub const MAX_STREAM_STRINGS: usize = 1 << 16;

/// The slot of `attr`, or [`NO_SLOT`].
fn slot_of(slots: &[Slot], attr: AttrId) -> u32 {
    let found = slots.iter().position(|s| s.attr == Some(attr));
    found.map_or(NO_SLOT, |s| s as u32)
}

/// The occurrences of slotted attributes on one context-tree node's
/// root-first path, as (slot, value) — a `joined` slot's several as one
/// `/`-joined string, the key the gather would join of them — and
/// whether a slot occurs more than once among them.
struct NodeCells {
    cells: Vec<(u32, Cell)>,
    repeats: bool,
}

/// What a node the tree does not know (or
/// [`NODE_NONE`](caliper_data::NODE_NONE)) contributes to
/// a row: nothing, as [`ContextTree::path`] finds nothing for it.
static UNKNOWN_NODE: NodeCells = NodeCells {
    cells: Vec::new(),
    repeats: false,
};

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

/// The columnar fold: rows of decoded [`Block`]s through the query's
/// LET and WHERE into an [`Aggregator`] — or, for a pass-through query,
/// whole into its result block. It holds the per-stream caches plus the
/// scratch one run of rows needs, all reused from run to run and block
/// to block.
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
/// [`LetExpr::eval`](crate::LetExpr) and the one row test of WHERE,
/// [`Filter::row_passes`] (the gather calls it too), which leaves the
/// rows the run keeps. An aggregation finds their groups in row order —
/// as the aggregator admits them, so `max_groups` decides as record by
/// record — and then every op takes its values
/// from its column in one loop over those rows: each group sees its
/// values in row order, and float sums come out bit for bit as record
/// by record. Rows that carry an attribute the query mentions more than
/// once (a nested path, repeated values, a LET's output on an attribute
/// the row has) are gathered row by row instead
/// ([`gathered_rows`](Self::gathered_rows)).
///
/// What a fold remembers is about the *stream* — one [`StringTable`] at
/// a time, over one [`AttributeStore`] — and keyed by that table's
/// codes: at each block it compares the table's id with the one its
/// caches are for, and the store with the one its labels resolved
/// against, and starts them over when either is another. What it remembers of groups lives in its
/// code map, which knows whose groups they are, so it may fold into any
/// aggregator, one block into this one and the next into that.
#[derive(Default)]
pub(crate) struct BlockFold {
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

    /// The id of the store the slots resolve against.
    store: u64,
    /// Per context-tree node seen so far, by node id, of the tree whose
    /// id is `tree`, over `store`: its slotted occurrences. A label that
    /// resolves later cannot be on a path cached earlier — the node's
    /// attributes were all in the store when its block was set up.
    nodes: Vec<Option<NodeCells>>,
    tree: u64,
    /// The stream's string codes as the aggregator's, and a key of one
    /// string's groups. It and `nodes` hold codes of the table whose id
    /// is `table`.
    codes: CodeMap,
    table: u64,
    /// WHERE comparisons whose types never let the data decide, counted
    /// over a block and published (`query.filter.type_mismatch`) after.
    type_mismatches: u64,
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
    /// Per LET binding, the output of the row being kept, if any.
    outputs: Vec<Option<Cell>>,
    /// The copy of kept rows: the block's next row, per column its next
    /// value there, and the node paths of the row being kept.
    copied: usize,
    copy_cursors: Vec<usize>,
    path: Vec<(AttrId, Value)>,
}

impl BlockFold {
    /// The fold of a whole query: LET, WHERE, and GROUP BY and the ops
    /// — or, for a pass-through query, the rows kept whole.
    pub(crate) fn new(spec: &QuerySpec) -> BlockFold {
        BlockFold::over(&spec.lets, &spec.filters, &spec.key, &spec.ops)
    }

    /// The fold of an aggregation alone: every row is grouped and
    /// reduced.
    pub(crate) fn for_aggregation(spec: &AggregationSpec) -> BlockFold {
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
                    joined: false,
                });
                slots.len() - 1
            }) as u32
        };
        let lets: Vec<_> = lets
            .iter()
            .map(|def| {
                let inputs: Vec<u32> = def.expr.inputs().into_iter().map(&mut slot).collect();
                (def.clone(), inputs, slot(&def.name))
            })
            .collect();
        let filters: Vec<(Filter, u32)> = filters
            .iter()
            .map(|filter| (filter.clone(), slot(filter.label())))
            .collect();
        let keys: Vec<u32> = key.iter().map(|label| slot(label)).collect();
        let ops: Vec<Option<u32>> = ops
            .iter()
            .map(|op| {
                (op.kind != OpKind::Count).then(|| slot(op.target.as_deref().unwrap_or_default()))
            })
            .collect();
        for &key in &keys {
            let read = |s: &u32| *s == key;
            slots[key as usize].joined = !ops.iter().flatten().any(read)
                && !filters.iter().any(|(_, s)| read(s))
                && !lets.iter().any(|(_, inputs, _)| inputs.iter().any(read));
        }
        BlockFold {
            places: vec![Place::Absent; slots.len()],
            computed: slots.iter().map(|_| Vec::new()).collect(),
            row: slots.iter().map(|_| Vec::new()).collect(),
            outputs: vec![None; lets.len()],
            slots,
            lets,
            filters,
            keys,
            ops,
            ..BlockFold::default()
        }
    }

    /// Rows folded so far through the row-by-row gather, which only rows
    /// that carry an attribute the query mentions more than once take
    /// (diagnostics: flat profiles should take none).
    pub(crate) fn gathered_rows(&self) -> u64 {
        self.gathered
    }

    /// Resolve the labels not resolved yet against `store` — every
    /// label, and the node cache started over, when `store` is another
    /// store than the last one's.
    pub(crate) fn resolve(&mut self, store: &AttributeStore) {
        if self.store != store.id() {
            self.store = store.id();
            self.slots.iter_mut().for_each(|slot| slot.attr = None);
            self.nodes.clear();
        }
        for slot in self.slots.iter_mut().filter(|s| s.attr.is_none()) {
            slot.attr = store.find(&slot.label).map(|attr| attr.id());
        }
    }

    /// Fold every row of `block`, in order, into `sink`, the nodes its
    /// rows refer to in `tree`.
    pub(crate) fn fold_into(
        &mut self,
        mut sink: Sink,
        tree: &ContextTree,
        strings: &mut StringTable,
        block: &Block,
    ) {
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
        self.copied = 0;
        self.copy_cursors.clone_from(&self.cursors);
        if (self.tree, self.table) != (tree.id(), strings.id()) {
            if self.table != strings.id() {
                self.codes = CodeMap::default();
            }
            (self.tree, self.table) = (tree.id(), strings.id());
            self.nodes.clear();
        }

        let mut start = 0;
        while start < block.rows() {
            match self.plan(tree, strings, block, start) {
                Ok(end) => {
                    self.select_run(strings, block, end - start);
                    match &mut sink {
                        Sink::Groups(agg) => self.group_run(agg, strings, block),
                        Sink::Rows { .. } => {
                            for k in 0..self.selected.len() {
                                let i = self.selected[k] as usize;
                                for ((_, _, out), output) in self.lets.iter().zip(&mut self.outputs)
                                {
                                    let out = *out as usize;
                                    *output =
                                        value_at(self.places[out], &self.computed[out], block, i);
                                }
                                self.keep(&mut sink, tree, strings, block, start + i);
                            }
                        }
                    }
                    for &c in block.row_imms(start) {
                        self.cursors[c as usize] += end - start;
                    }
                    start = end;
                }
                Err(end) => {
                    self.gathered += (end - start) as u64;
                    for r in start..end {
                        self.gather(&mut sink, tree, strings, block, r);
                    }
                    start = end;
                }
            }
        }
        if self.type_mismatches > 0 {
            let counter = caliper_data::metrics::global().counter("query.filter.type_mismatch");
            counter.add(std::mem::take(&mut self.type_mismatches));
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
        tree: &ContextTree,
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
                let path = node_cells(&mut self.nodes, node, tree, strings, &self.slots);
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
                    let path = node_cells(&mut self.nodes, node, tree, strings, &self.slots);
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
                        node_cells(&mut self.nodes, node, tree, strings, &self.slots).repeats
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

    /// LET and WHERE over the `len` rows of the run [`plan`](Self::plan)
    /// placed, which leave the rows the run keeps in `selected`.
    fn select_run(&mut self, strings: &mut StringTable, block: &Block, len: usize) {
        let BlockFold {
            lets,
            filters,
            type_mismatches,
            places,
            computed,
            selected,
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
            let test = |i: usize| {
                let cell = value_at(place, values, block, i);
                filter.row_passes(cell.into_iter().map(|cell| strings.get(cell)))
            };
            // Decided once where the place settles it: in no row, the
            // same value in every row, or a column only a presence test
            // reads.
            let once = match place {
                Place::Absent | Place::Const(_) => true,
                Place::Column(..) => !matches!(filter, Filter::Cmp { .. }),
                Place::Computed => false,
            };
            if once {
                let (matched, mismatched) = test(0);
                *type_mismatches += mismatched * selected.len() as u64;
                if !matched {
                    selected.clear();
                }
            } else {
                selected.retain(|&i| {
                    let (matched, mismatched) = test(i as usize);
                    *type_mismatches += mismatched;
                    matched
                });
            }
        }
    }

    /// Group and reduce the rows of the run [`select_run`](Self::select_run)
    /// kept: their groups in row order, then each op over its values.
    fn group_run(&mut self, agg: &mut Aggregator, strings: &mut StringTable, block: &Block) {
        let BlockFold {
            keys,
            ops,
            codes,
            places,
            computed,
            selected,
            groups,
            key,
            ..
        } = self;
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
            let cells = keys.iter().map(|&slot| cell_at(slot, 0));
            agg.fill_key(key, cells, codes, strings);
            let group = agg.admit(key);
            groups.resize(selected.len(), group);
        } else if let Some(column) = one_string(keys, places, block) {
            let group = |&i: &u32| admit_code(agg, codes, strings, column[i as usize]);
            groups.extend(selected.iter().map(group));
        } else {
            for &i in selected.iter() {
                let i = i as usize;
                let group = match cell_at(keys[0], i) {
                    Some(Cell::Str(code)) if keys.len() == 1 => {
                        admit_code(agg, codes, strings, code)
                    }
                    _ => {
                        let cells = keys.iter().map(|&slot| cell_at(slot, i));
                        agg.fill_key(key, cells, codes, strings);
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
    /// then LET and WHERE over them, and into `sink`.
    fn gather(
        &mut self,
        sink: &mut Sink,
        tree: &ContextTree,
        strings: &mut StringTable,
        block: &Block,
        r: usize,
    ) {
        // Node paths first, then immediates, as a flat record lists them.
        self.row.iter_mut().for_each(Vec::clear);
        for &node in block.row_refs(r) {
            let path = node_cells(&mut self.nodes, node, tree, strings, &self.slots);
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
        for ((def, inputs, out), output) in self.lets.iter().zip(&mut self.outputs) {
            let row = &self.row;
            let last = |i: usize| row[inputs[i] as usize].last().copied();
            let result = def.expr.eval(
                |i| last(i).and_then(|cell| strings.get(cell).to_f64()),
                |i| last(i).is_some(),
            );
            *output = result.map(|result| match result {
                LetResult::Number(x) => Cell::Float(x),
                LetResult::TextOf(i) => as_text(strings, last(i).expect("present input")),
            });
            self.row[*out as usize].extend(*output);
        }

        // WHERE.
        let row = &self.row;
        let type_mismatches = &mut self.type_mismatches;
        let pass = self.filters.iter().all(|(filter, slot)| {
            let occurrences = row[*slot as usize].iter().map(|&cell| strings.get(cell));
            let (matched, mismatched) = filter.row_passes(occurrences);
            *type_mismatches += mismatched;
            matched
        });
        let agg = match sink {
            _ if !pass => return,
            Sink::Groups(agg) => agg,
            Sink::Rows { .. } => return self.keep(sink, tree, strings, block, r),
        };

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

    /// Append row `r` of `block` whole to a pass-through sink: its node
    /// paths' values, its immediates, then the LET `outputs` worked out
    /// for it — the rows before it, kept or not, only stepped over.
    fn keep(
        &mut self,
        sink: &mut Sink,
        tree: &ContextTree,
        strings: &mut StringTable,
        block: &Block,
        r: usize,
    ) {
        let Sink::Rows {
            block: out,
            strings: out_strings,
            lets,
        } = sink
        else {
            unreachable!("rows are kept for a pass-through sink only");
        };
        let mut push = |attr: AttrId, value: &Value| {
            let cell = out_strings.cell(value);
            let column = out.column_for(attr, cell.value_type());
            out.push_imm(column, cell);
        };
        self.path.clear();
        for &node in block.row_refs(r) {
            tree.path_into(node, &mut self.path);
        }
        for (attr, value) in &self.path {
            push(*attr, value);
        }
        for row in self.copied..r {
            for &c in block.row_imms(row) {
                self.copy_cursors[c as usize] += 1;
            }
        }
        for &c in block.row_imms(r) {
            let column = &block.columns()[c as usize];
            let next = &mut self.copy_cursors[c as usize];
            push(column.attr, &strings.get(column.data.get(*next)));
            *next += 1;
        }
        self.copied = r + 1;
        for (&attr, output) in lets.iter().zip(&self.outputs) {
            if let Some(cell) = *output {
                push(attr, &strings.get(cell));
            }
        }
        assert!(out.end_row(), "a result of more than 2^32 values");
    }
}

/// The group of the key of one label whose value is the string
/// `strings` calls `code`: [`Aggregator::translate`], then
/// [`Aggregator::admit`], until the key is admitted to a group of its
/// own, and one look-up in `codes` after. (A key in the overflow bucket
/// is asked again each time, as a row would ask.)
#[inline]
fn admit_code(agg: &mut Aggregator, codes: &mut CodeMap, strings: &StringTable, code: u32) -> u32 {
    match codes.group(agg, code) {
        Some(group) => group,
        None => admit_code_first(agg, codes, strings, code),
    }
}

/// [`admit_code`] of a code `codes` holds no group for.
#[cold]
fn admit_code_first(
    agg: &mut Aggregator,
    codes: &mut CodeMap,
    strings: &StringTable,
    code: u32,
) -> u32 {
    let group = match agg.translate(codes, strings, code) {
        Some(mine) => agg.admit(&[KeyCell(Some(Cell::Str(mine)))]),
        None => agg.admit(&[]),
    };
    if !agg.is_overflow(group) {
        codes.remember(code, group, strings.len());
    }
    group
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
/// the node's first sight — a node the tree does not know yet is asked
/// again each time, since the tree may grow it.
fn node_cells<'a>(
    nodes: &'a mut Vec<Option<NodeCells>>,
    node: NodeId,
    tree: &ContextTree,
    strings: &mut StringTable,
    slots: &[Slot],
) -> &'a NodeCells {
    let index = node as usize;
    if matches!(nodes.get(index), Some(Some(_))) {
        return nodes[index].as_ref().expect("cached");
    }
    let path = tree.path(node);
    if path.is_empty() {
        return &UNKNOWN_NODE;
    }
    let mut cells: Vec<(u32, Cell)> = Vec::new();
    for (i, (attr, value)) in path.iter().enumerate() {
        let slot = slot_of(slots, *attr);
        if slot == NO_SLOT {
            continue;
        }
        if !slots[slot as usize].joined {
            cells.push((slot, strings.cell(value)));
        } else if !cells.iter().any(|&(s, _)| s == slot) {
            // The first occurrence: all of them, joined as the gather
            // joins them.
            let mut later = path[i + 1..]
                .iter()
                .filter(|(a, _)| a == attr)
                .map(|(_, v)| v);
            let cell = match later.next() {
                None => strings.cell(value),
                Some(next) => {
                    let mut text = value.to_text().into_owned();
                    for value in std::iter::once(next).chain(later) {
                        text.push('/');
                        text.push_str(&value.to_text());
                    }
                    Cell::Str(strings.intern(&text))
                }
            };
            cells.push((slot, cell));
        }
    }
    let repeats = (1..cells.len()).any(|i| cells[..i].iter().any(|c| c.0 == cells[i].0));
    if nodes.len() <= index {
        nodes.resize_with(index + 1, || None);
    }
    nodes[index].insert(NodeCells { cells, repeats })
}

#[cfg(test)]
mod tests {
    //! WHERE through the fold, end to end: which records a pass-through
    //! query keeps. The row test itself is unit-tested beside it, in
    //! `caliper_format::pushdown`.

    use super::*;
    use crate::run_query;
    use caliper_data::RecordBuilder;

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
        let ranks = result
            .records
            .iter()
            .map(|r| r.get(rank).unwrap().to_i64().unwrap());
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
    fn mismatched_comparisons_bump_metric() {
        let ds = dataset(&[&[
            ("mpi.rank", Value::Int(0)),
            ("time.duration", Value::Float(5.0)),
        ]]);
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

    /// One owner, two tables: a block of table A, then a block of a new
    /// table B, in which code 0 names another string (and the string a
    /// node path adds gets another code), through one pipeline and one
    /// aggregator with nothing called in between. Each answers as a
    /// fresh owner does over the same rows in one table.
    #[test]
    fn one_owner_folds_blocks_of_two_tables() {
        use crate::parse_query;
        use caliper_data::{Properties, ValueType, NODE_NONE};

        let mut ds = Dataset::new();
        let region = ds
            .attribute("region", ValueType::Str, Properties::NESTED)
            .id();
        let kernel = ds
            .attribute("kernel", ValueType::Str, Properties::AS_VALUE)
            .id();
        let t = ds.attribute("t", ValueType::Int, Properties::AS_VALUE).id();
        let main = ds.tree.get_child(NODE_NONE, region, &Value::str("main"));
        let block_of = |strings: &mut StringTable, rows: &[(&str, i64)]| {
            let mut block = Block::default();
            for &(name, value) in rows {
                let mut rec = SnapshotRecord::new();
                rec.push_node(main);
                rec.push_imm(kernel, Value::str(name));
                rec.push_imm(t, Value::Int(value));
                assert!(block.push_snapshot(strings, &rec));
            }
            block
        };
        let (rows_a, rows_b) = (
            [("alpha", 1), ("beta", 2)],
            [("gamma", 4), ("alpha", 8), ("delta", 16)],
        );
        let (mut a, mut b, mut one) = (
            StringTable::default(),
            StringTable::default(),
            StringTable::default(),
        );
        let (block_a, block_b) = (block_of(&mut a, &rows_a), block_of(&mut b, &rows_b));
        let block_one = block_of(&mut one, &[&rows_a[..], &rows_b[..]].concat());
        assert_ne!(a.value(0), b.value(0));

        let text = "AGGREGATE count, sum(t) GROUP BY region, kernel ORDER BY kernel FORMAT csv";
        let mut fresh = Pipeline::from_text(text, Arc::clone(&ds.store)).unwrap();
        fresh.fold_block(&mut ds, &mut one, &block_one);
        let want = fresh.finish().render();
        assert_eq!(want.lines().count(), 5, "{want}");
        let mut two = Pipeline::from_text(text, Arc::clone(&ds.store)).unwrap();
        two.fold_block(&mut ds, &mut a, &block_a);
        two.fold_block(&mut ds, &mut b, &block_b);
        assert_eq!(two.finish().render(), want, "one pipeline");

        let spec = AggregationSpec::from_query(&parse_query(text).unwrap());
        let answer = |agg: Aggregator| {
            let out = AttributeStore::new();
            let rows = agg.flush(&out);
            rows.iter()
                .map(|row| row.describe(&out))
                .collect::<Vec<_>>()
        };
        let mut fresh = Aggregator::new(spec.clone(), Arc::clone(&ds.store));
        fresh.fold_block(&ds.tree, &mut one, &block_one);
        let mut agg = Aggregator::new(spec, Arc::clone(&ds.store));
        agg.fold_block(&ds.tree, &mut a, &block_a);
        agg.fold_block(&ds.tree, &mut b, &block_b);
        assert_eq!(answer(agg), answer(fresh), "one aggregator");
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
