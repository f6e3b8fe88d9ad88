//! The streaming aggregation engine (§IV-B, Figure 2).
//!
//! The aggregator receives flat records, extracts the *aggregation key*
//! (the GROUP BY attributes), locates the matching aggregation entry in
//! an in-memory hash database, and folds the *aggregation attributes*
//! into the entry's reduction states. Input records are never stored —
//! this is the streaming reduction that makes on-line profiling
//! possible.
//!
//! The same engine serves all three aggregation applications from the
//! paper, fed by one block fold: on-line event aggregation
//! (the runtime's snapshots, appended to a block and folded from their
//! context-tree nodes and immediates), cross-process aggregation
//! (entries merged up a reduction tree via [`Aggregator::merge`]), and
//! analytical aggregation (driven by records read from `.cali` files).

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use caliper_data::{
    fxhash, AttrId, Attribute, AttributeStore, ContextTree, FlatRecord, FxBuildHasher, Properties,
    Value, ValueType,
};
use caliper_format::{Block, BlockRows, Cell, Column as BlockColumn, ColumnData, StringTable};

use crate::ast::{AggOp, QuerySpec};
use crate::ops::{Column, Included, Values};
use crate::query::NO_NODES;
use crate::scan::{BlockFold, Sink};

/// Key value of the overflow bucket in flushed results (the same
/// sentinel upstream Caliper uses when its aggregation buffers fill).
pub const OVERFLOW_KEY: &str = "__overflow__";

/// Configuration of an aggregation: operators + key.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationSpec {
    /// The aggregation operations.
    pub ops: Vec<AggOp>,
    /// Key attribute labels (GROUP BY).
    pub key: Vec<String>,
    /// Label of the `count` result attribute. The off-line query engine
    /// uses `"count"`; the on-line service uses `"aggregate.count"`
    /// (§VI-B of the paper aggregates `sum(aggregate.count)` over
    /// on-line results).
    pub count_label: String,
}

impl AggregationSpec {
    /// Build from a parsed query.
    pub fn from_query(spec: &QuerySpec) -> AggregationSpec {
        AggregationSpec {
            ops: spec.ops.clone(),
            key: spec.key.clone(),
            count_label: "count".to_string(),
        }
    }

    /// Build from op and key lists with the default count label.
    pub fn new(ops: Vec<AggOp>, key: Vec<String>) -> AggregationSpec {
        AggregationSpec {
            ops,
            key,
            count_label: "count".to_string(),
        }
    }

    /// Use a different count result label (on-line service).
    pub fn with_count_label(mut self, label: &str) -> AggregationSpec {
        self.count_label = label.to_string();
        self
    }
}

/// One component of an aggregation key (a key has one per GROUP BY
/// label, in spec order): a number, a string as its code in the
/// aggregator's own [`StringTable`], or `None` for "attribute not
/// present in the record" — the paper notes that results include
/// separate entries for records where only some key attributes are set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyCell(pub(crate) Option<Cell>);

impl KeyCell {
    /// What a cell is compared and hashed by, which is how the [`Value`]
    /// it stands for is: strings by code, floats by bit pattern,
    /// non-negative `Int` and `UInt` of one magnitude alike. The cell
    /// keeps the class it was admitted with, and a flush emits that.
    fn identity(self) -> (u8, u64) {
        match self.0 {
            None => (0, 0),
            Some(Cell::Str(code)) => (1, code as u64),
            Some(Cell::UInt(u)) => (2, u),
            Some(Cell::Int(i)) if i >= 0 => (2, i as u64),
            Some(Cell::Int(i)) => (3, i as u64),
            Some(Cell::Float(x)) => (4, x.to_bits()),
            Some(Cell::Bool(b)) => (5, b as u64),
        }
    }
}

impl PartialEq for KeyCell {
    fn eq(&self, other: &KeyCell) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for KeyCell {}

impl std::hash::Hash for KeyCell {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

impl KeyCell {
    /// The cell's place in the key order of flushes and capped merges:
    /// absent first, then numbers, then strings, each as
    /// [`Value::total_cmp`] orders the values the cells stand for, with
    /// no `Value` built. A number is placed by its `f64` image, in the
    /// bit order `f64::total_cmp` compares; numbers of one image follow
    /// by exact value (2^53 before 2^53 + 1 — an integer is within 2^10
    /// of its image), then `Float`, `Int`/`UInt`, `Bool`, so that
    /// distinct keys never tie. A string is placed by its text's rank
    /// among its table's strings (`ranks`).
    fn place(self, ranks: &[u32]) -> u128 {
        // Class (2 bits), image (64), exact value less image (32, sign
        // bit flipped), kind (2).
        let number = |image: f64, exact: i128, kind: u128| {
            let bits = image.to_bits() as i64;
            let image_order = (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ 1 << 63;
            let offset = (exact - image as i128) as i32 as u32 ^ 1 << 31;
            1 << 98 | u128::from(image_order) << 34 | u128::from(offset) << 2 | kind
        };
        match self.0 {
            None => 0,
            Some(Cell::Float(x)) => number(x, x as i128, 0),
            Some(Cell::Int(i)) => number(i as f64, i.into(), 1),
            Some(Cell::UInt(u)) => number(u as f64, u.into(), 1),
            Some(Cell::Bool(b)) => number(f64::from(u8::from(b)), b.into(), 2),
            Some(Cell::Str(code)) => 2 << 98 | u128::from(ranks[code as usize]) << 34,
        }
    }
}

/// Every code of `strings` as its text's rank among the table's strings.
fn ranks(strings: &StringTable) -> Vec<u32> {
    let mut codes: Vec<u32> = (0..strings.len() as u32).collect();
    codes.sort_unstable_by_key(|&code| strings.value(code).as_str());
    let mut ranks = vec![0; codes.len()];
    for (rank, code) in codes.into_iter().enumerate() {
        ranks[code as usize] = rank as u32;
    }
    ranks
}

/// The order that sorts `n` keys — `key(i)` the `i`th, of `width` cells,
/// strings as codes of `strings` — into key order: by their first cells'
/// places, the keys that tie there by their second cells', and so on.
///
/// A slot at a time, the last first, each pass a stable sort of the
/// order so far by that slot, so that keys that tie on a slot keep the
/// order the slots after it gave them. A pass counts: the slot's cells
/// fall into buckets in place order — absent, then each integer by its
/// distance from the least, then each string by its rank — unless the
/// slot holds a float or a bool, or integers further apart than there
/// are keys. Then the pass compares (place, key) pairs.
fn key_order<'k>(
    strings: &StringTable,
    width: usize,
    n: usize,
    key: impl Fn(usize) -> &'k [KeyCell],
) -> Vec<u32> {
    let ranks = ranks(strings);
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut sorted = vec![0; n];
    // Per key, its cell in the slot at hand and that cell's bucket.
    let (mut cells, mut buckets) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for slot in (0..width).rev() {
        cells.clear();
        cells.extend((0..n).map(|i| key(i)[slot]));
        let integer = |cell: &KeyCell| match cell.0 {
            Some(Cell::Int(v)) => Some(i128::from(v)),
            Some(Cell::UInt(v)) => Some(i128::from(v)),
            _ => None,
        };
        let countable = !cells
            .iter()
            .any(|cell| matches!(cell.0, Some(Cell::Float(_) | Cell::Bool(_))));
        let (lo, hi) = cells
            .iter()
            .filter_map(integer)
            .fold((i128::MAX, i128::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let span = if lo > hi { 0 } else { hi - lo + 1 };
        if !countable || span > n as i128 {
            let mut pairs: Vec<(u128, u32)> = order
                .iter()
                .map(|&i| (cells[i as usize].place(&ranks), i))
                .collect();
            pairs.sort_by_key(|&(place, _)| place);
            order.clear();
            order.extend(pairs.into_iter().map(|(_, i)| i));
            continue;
        }
        let span = span as usize;
        buckets.clear();
        buckets.extend(cells.iter().map(|cell| match (cell.0, integer(cell)) {
            (Some(Cell::Str(code)), _) => 1 + span + ranks[code as usize] as usize,
            (_, Some(v)) => 1 + (v - lo) as usize,
            _ => 0,
        }));
        let mut starts = vec![0; span + ranks.len() + 2];
        for &i in &order {
            starts[buckets[i as usize] + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        for &i in &order {
            let start = &mut starts[buckets[i as usize]];
            sorted[*start] = i;
            *start += 1;
        }
        std::mem::swap(&mut order, &mut sorted);
    }
    order
}

/// Another string table's codes as an aggregator's, filled in as that
/// table's strings turn up in keys, so that a stream's fold or a merge
/// looks a string up by its text once, not once per row or group —
/// and, for a key of one label, the group each code's key was admitted
/// to ([`CodeMap::remember`]), so that a fold finds such a group by one
/// more array look-up. It knows whose codes and groups it holds
/// ([`Aggregator::translate`]).
#[derive(Default)]
pub(crate) struct CodeMap {
    owner: Weak<()>,
    codes: Vec<u32>,
    groups: Vec<u32>,
}

const NO_CODE: u32 = u32::MAX;

/// The end of a chain of groups whose keys hash alike.
const NO_GROUP: u32 = u32::MAX;

impl CodeMap {
    /// The group the key of one label, the string `code`, was admitted
    /// to in `agg`, if this map remembers one — it starts over unless
    /// it holds `agg`'s codes.
    #[inline]
    pub(crate) fn group(&mut self, agg: &Aggregator, code: u32) -> Option<u32> {
        agg.claim(self);
        self.groups.get(code as usize).copied().filter(|&group| group != NO_GROUP)
    }

    /// Remember that the key of one label, the string `code` of a table
    /// of `len` strings, was admitted to `group`.
    pub(crate) fn remember(&mut self, code: u32, group: u32, len: usize) {
        if self.groups.len() <= code as usize {
            self.groups.resize(len, NO_GROUP);
        }
        self.groups[code as usize] = group;
    }
}

/// The streaming aggregator.
pub struct Aggregator {
    spec: AggregationSpec,
    store: Arc<AttributeStore>,
    /// The aggregation database, by group id: the reduction states are a
    /// column per op in `ops`, the records folded in (also `count`'s
    /// result) a column of their own, and the keys one arena, a cell per
    /// key label each. `table` holds per key hash the newest group with
    /// it, and `chain` per group the next older one — the one table from
    /// keys to groups. The block fold (this aggregator's own, `fold`,
    /// or a pipeline's) and [`Aggregator::merge`] bring their keys into
    /// `strings`' terms and go through [`Aggregator::admit`].
    ops: Vec<Column>,
    records: Vec<u64>,
    keys: Vec<KeyCell>,
    table: HashMap<u64, u32, FxBuildHasher>,
    chain: Vec<u32>,
    /// The strings of admitted keys ([`Aggregator::key_code`]) and of
    /// the strings reduction states keep (a `min` or `max` over strings,
    /// a lone string's `sum`).
    strings: StringTable,
    /// What a [`CodeMap`] recognises this aggregator by.
    id: Arc<()>,
    /// [`Aggregator::merge`]'s scratch: a key on its way to `admit`.
    key: Vec<KeyCell>,
    /// The fold of this aggregation, which every block
    /// ([`Aggregator::fold_block`]) and record ([`Aggregator::add`])
    /// takes, made when the first one comes.
    fold: Option<Box<BlockFold>>,
    /// What [`Aggregator::add`] folds a record as: a block of one row
    /// and the table of its strings, made on the first record.
    rows: Option<Box<(StringTable, Block)>>,
    records_processed: u64,
    /// Capacity bound on the database (None = unbounded, the historical
    /// mode).
    max_groups: Option<usize>,
    /// The overflow bucket's group: once the database holds `max_groups`
    /// keys, records with *new* keys fold in here instead of growing it,
    /// so a cardinality explosion degrades to coarser totals instead of
    /// unbounded memory. A row of the columns with no key in `table`
    /// (its cells in `keys` are placeholders), so the `len() <= cap`
    /// invariant is structural.
    overflow: Option<u32>,
}

impl Aggregator {
    /// Create an aggregator resolving labels against `store`.
    pub fn new(spec: AggregationSpec, store: Arc<AttributeStore>) -> Aggregator {
        let ops = spec.ops.iter().map(Column::new).collect();
        Aggregator {
            spec,
            store,
            ops,
            records: Vec::new(),
            keys: Vec::new(),
            table: HashMap::default(),
            chain: Vec::new(),
            strings: StringTable::default(),
            id: Arc::new(()),
            key: Vec::new(),
            fold: None,
            rows: None,
            records_processed: 0,
            max_groups: None,
            overflow: None,
        }
    }

    /// Bound the aggregation database to at most `cap` groups; further
    /// keys fold into the [`OVERFLOW_KEY`] bucket. `None` removes the
    /// bound.
    pub fn set_max_groups(&mut self, cap: Option<usize>) {
        self.max_groups = cap;
    }

    /// The configured group capacity, if any.
    pub fn max_groups(&self) -> Option<usize> {
        self.max_groups
    }

    /// True once any record or merged group has landed in the overflow
    /// bucket.
    pub fn has_overflow(&self) -> bool {
        self.overflow.is_some()
    }

    /// Number of input records folded into the overflow bucket (0 when
    /// the capacity was never exceeded).
    pub fn overflow_records(&self) -> u64 {
        self.overflow
            .map_or(0, |group| self.records[group as usize])
    }

    /// The aggregation spec.
    pub fn spec(&self) -> &AggregationSpec {
        &self.spec
    }

    /// Number of unique keys currently in the database (the number of
    /// output records a flush would produce).
    pub fn len(&self) -> usize {
        self.records.len() - usize::from(self.overflow.is_some())
    }

    /// True if no records have produced entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of input records processed.
    pub fn records_processed(&self) -> u64 {
        self.records_processed
    }

    fn at_capacity(&self) -> bool {
        self.max_groups.is_some_and(|cap| self.len() >= cap)
    }

    /// The code of a key's string. A string no admitted key has makes
    /// the key a new one: with room in the database it is interned; at
    /// capacity the key is turned away here already (`None`) and the
    /// table stays as it is, so `max_groups` bounds the strings too.
    pub(crate) fn key_code(&mut self, text: &str) -> Option<u32> {
        match self.strings.find(text) {
            None if self.at_capacity() => None,
            None => Some(self.strings.intern(text)),
            found => found,
        }
    }

    /// [`key_code`](Self::key_code) of the string `from` calls `code`:
    /// by its text the first time `map` is asked, by index after.
    pub(crate) fn translate(
        &mut self,
        map: &mut CodeMap,
        from: &StringTable,
        code: u32,
    ) -> Option<u32> {
        self.claim(map);
        if map.codes.len() <= code as usize {
            map.codes.resize(from.len(), NO_CODE);
        }
        if map.codes[code as usize] == NO_CODE {
            map.codes[code as usize] = self.key_code(&from.value(code).to_text())?;
        }
        Some(map.codes[code as usize])
    }

    /// Start `map` over unless it holds this aggregator's codes.
    #[inline]
    pub(crate) fn claim(&self, map: &mut CodeMap) {
        if map.owner.as_ptr() != Arc::as_ptr(&self.id) {
            *map = CodeMap {
                owner: Arc::downgrade(&self.id),
                ..CodeMap::default()
            };
        }
    }

    /// True for the overflow bucket's group.
    pub(crate) fn is_overflow(&self, group: u32) -> bool {
        self.overflow == Some(group)
    }

    /// The key of keyed group `group`.
    fn key_of(&self, group: u32) -> &[KeyCell] {
        let width = self.spec.key.len();
        &self.keys[group as usize * width..][..width]
    }

    /// The groups that have a key, by id.
    fn keyed(&self) -> Vec<u32> {
        let mut keyed = Vec::with_capacity(self.records.len());
        keyed.extend((0..self.records.len() as u32).filter(|&group| Some(group) != self.overflow));
        keyed
    }

    /// The group of `key` — one cell per key label, strings as codes of
    /// this aggregator's table — found, or added with nothing folded in.
    /// Nothing is allocated for a group: its key joins the arena, its
    /// states the columns. At capacity, a *new* key is not admitted
    /// (first-come admission, like upstream Caliper's fixed aggregation
    /// buffers), nor is a key cut short at a string that
    /// [`key_code`](Self::key_code) turned away: the overflow bucket's
    /// group is the answer.
    pub(crate) fn admit(&mut self, key: &[KeyCell]) -> u32 {
        let hash = fxhash(key);
        let mut group = self.table.get(&hash).copied().unwrap_or(NO_GROUP);
        while group != NO_GROUP && self.key_of(group) != key {
            group = self.chain[group as usize];
        }
        if group != NO_GROUP {
            group
        } else if key.len() < self.spec.key.len() || self.at_capacity() {
            self.overflow_group()
        } else {
            let next = self.table.insert(hash, self.records.len() as u32);
            self.push_group(key.iter().copied(), next.unwrap_or(NO_GROUP))
        }
    }

    /// The overflow bucket's group, added on first use.
    fn overflow_group(&mut self) -> u32 {
        if let Some(group) = self.overflow {
            return group;
        }
        let absent = std::iter::repeat_n(KeyCell(None), self.spec.key.len());
        let group = self.push_group(absent, NO_GROUP);
        *self.overflow.insert(group)
    }

    /// A new group with nothing folded in: its id.
    fn push_group(&mut self, key: impl Iterator<Item = KeyCell>, next: u32) -> u32 {
        self.keys.extend(key);
        self.chain.push(next);
        self.ops.iter_mut().for_each(Column::push);
        self.records.push(0);
        (self.records.len() - 1) as u32
    }

    /// Count one input record into `group` (see [`Aggregator::admit`]),
    /// for the caller to [`feed`](Self::feed) the ops next.
    pub(crate) fn count_into(&mut self, group: u32) {
        self.records_processed += 1;
        self.records[group as usize] += 1;
    }

    /// Fold one occurrence of op `op`'s target into `group`.
    pub(crate) fn feed(&mut self, group: u32, op: usize, value: &Value) {
        self.ops[op].update(group as usize, value, &mut self.strings);
    }

    /// Fold values of a block's column into op `op`'s states: `at` pairs
    /// each group with the index of its value in `data`, in row order,
    /// and `data`'s strings are codes of `from` ([`Column::update_from`]).
    pub(crate) fn feed_column(
        &mut self,
        op: usize,
        data: &ColumnData,
        at: impl Iterator<Item = (u32, usize)>,
        from: &StringTable,
    ) {
        let at = at.map(|(group, i)| (group as usize, i));
        self.ops[op].update_from(data, at, from, &mut self.strings);
    }

    /// Process one input record (streaming update): as a block of one
    /// row, its pairs the row's immediates in order, through the fold
    /// every block takes.
    pub fn add(&mut self, record: &FlatRecord) {
        let mut rows = self.rows.take().unwrap_or_default();
        let (strings, block) = &mut *rows;
        block.clear();
        for (attr, value) in record.pairs() {
            let cell = strings.cell(value);
            let column = block.column_for(*attr, cell.value_type());
            block.push_imm(column, cell);
        }
        assert!(block.end_row(), "a record of more than 2^32 values");
        self.fold_block(&NO_NODES, strings, block);
        self.rows = Some(rows);
    }

    /// Fold every row of `block`, in order, through this aggregation's
    /// fold: each row into its group, updating its reduction states with
    /// each group's values in row order. `tree` holds the nodes the rows
    /// refer to, over the store this aggregator resolves labels against,
    /// and `strings` is the table the block's string codes refer to —
    /// the fold starts its caches over when that is another table than
    /// the last block's.
    pub fn fold_block(&mut self, tree: &ContextTree, strings: &mut StringTable, block: &Block) {
        let mut fold = self
            .fold
            .take()
            .unwrap_or_else(|| Box::new(BlockFold::for_aggregation(&self.spec)));
        fold.resolve(&self.store);
        fold.fold_into(Sink::Groups(self), tree, strings, block);
        self.fold = Some(fold);
    }

    /// Rows folded so far through the fold's row-by-row gather (see
    /// [`Pipeline::gathered_rows`](crate::Pipeline::gathered_rows)).
    pub fn gathered_rows(&self) -> u64 {
        self.fold.as_ref().map_or(0, |fold| fold.gathered_rows())
    }

    /// Start the database over, empty, and hand back the groups so far
    /// as an aggregator of their own — what an on-line service spills.
    /// The fold and its caches stay with this aggregator.
    pub fn restart(&mut self) -> Aggregator {
        let mut fresh = Aggregator::new(self.spec.clone(), Arc::clone(&self.store));
        fresh.max_groups = self.max_groups;
        let mut full = std::mem::replace(self, fresh);
        (self.fold, self.rows) = (full.fold.take(), full.rows.take());
        full
    }

    /// Merge another aggregator's database into this one (cross-process
    /// reduction). Both must have the same spec. Each of the other's
    /// groups folds its row of the columns into the row of the group its
    /// key finds or starts here; nothing is freed per group.
    ///
    /// When a group capacity is set, the incoming groups are applied in
    /// sorted key order, so which keys win admission — and therefore the
    /// output — depends only on the *sequence* of merges (which callers
    /// keep deterministic), never on the order groups came about in.
    pub fn merge(&mut self, other: Aggregator) {
        debug_assert_eq!(self.spec, other.spec, "merging mismatched aggregations");
        self.records_processed += other.records_processed;
        let mut incoming = other.keyed();
        if self.max_groups.is_some() {
            let key = |i: usize| other.key_of(incoming[i]);
            let order = key_order(&other.strings, self.spec.key.len(), incoming.len(), key);
            incoming = order.iter().map(|&i| incoming[i as usize]).collect();
        }
        // Their overflow bucket into this one, then each group into the
        // group its key finds or starts here — or, honoring the capacity
        // bound, into the overflow bucket. Their keys are brought into
        // this aggregator's terms: each of their strings is looked up by
        // its text once, however many groups carry it.
        let (mut codes, mut key) = (CodeMap::default(), std::mem::take(&mut self.key));
        for theirs in other.overflow.into_iter().chain(incoming) {
            let mine = if other.overflow == Some(theirs) {
                self.overflow_group()
            } else {
                key.clear();
                key.extend(other.key_of(theirs).iter().map_while(|cell| match cell.0 {
                    Some(Cell::Str(code)) => {
                        let code = self.translate(&mut codes, &other.strings, code)?;
                        Some(KeyCell(Some(Cell::Str(code))))
                    }
                    _ => Some(*cell),
                }));
                self.admit(&key)
            };
            let (mine, theirs) = (mine as usize, theirs as usize);
            self.records[mine] += other.records[theirs];
            for (column, from) in self.ops.iter_mut().zip(&other.ops) {
                column.merge(mine, from, theirs, &other.strings, &mut self.strings);
            }
        }
        self.key = key;
    }

    /// Flush the database into result rows, interning result attributes
    /// in `out_store`: [`flush_into`](Self::flush_into)'s block and
    /// strings, one row per group in key order, then the overflow
    /// bucket's.
    pub fn flush(&self, out_store: &AttributeStore) -> BlockRows {
        let (mut block, mut strings) = (Block::default(), StringTable::default());
        self.flush_into(out_store, &mut block, &mut strings, None);
        BlockRows::new(block, strings)
    }

    /// Flush the database into `block` as typed columns, one row per
    /// group in key order, then the overflow bucket's: each row holds
    /// the group's key values, then its reduction results, as
    /// immediates of attributes interned in `out_store`, strings as
    /// codes of `strings`. Results are sorted by key for deterministic
    /// output. Every key label's values and every op's results are
    /// gathered, finished and handed to the block a column at a time;
    /// nothing is built per group.
    ///
    /// Every column is typed by its attribute — a key label's type in
    /// the input store (else its first value's in key order), a result's
    /// type joined over all groups — and values are widened to it; a
    /// value the attribute's type does not take (the attribute existed
    /// in `out_store` with another) is carried as it is, in a column of
    /// its own.
    ///
    /// A `stamp` ends every row with one more immediate: its cell, as a
    /// value of its attribute, in a column of its own — how the daemon
    /// tags each stream's rows with the stream's name.
    ///
    /// This realizes the paper's flush step: "iterating over all entries,
    /// reconstructing the key attributes, and appending the reduction
    /// results".
    pub fn flush_into(
        &self,
        out_store: &AttributeStore,
        block: &mut Block,
        strings: &mut StringTable,
        stamp: Option<(AttrId, Cell)>,
    ) {
        // When the overflow bucket is live its row carries the string
        // sentinel in every key column, so key columns must be typed as
        // strings; ordinary key values coerce to their string rendering.
        let has_overflow = self.overflow.is_some();

        // The rows: the groups sorted by key for deterministic output,
        // then the overflow bucket, which has no key (here: an empty one).
        let keyed = self.keyed();
        let order = key_order(&self.strings, self.spec.key.len(), keyed.len(), |i| {
            self.key_of(keyed[i])
        });
        let mut rows: Vec<u32> = Vec::with_capacity(keyed.len() + 1);
        rows.extend(order.iter().map(|&i| keyed[i as usize]));
        rows.extend(self.overflow);
        let key = |group: u32| match self.overflow {
            Some(overflow) if overflow == group => &[][..],
            _ => self.key_of(group),
        };

        let declare = |label: &str, vtype, properties| {
            let created = out_store.create(label, vtype, properties);
            created.unwrap_or_else(|_| out_store.find(label).expect("exists"))
        };
        // Resolve key attributes for output (they may exist only in the
        // input store; intern them into out_store as strings-preserving).
        let key_attrs: Vec<Option<Attribute>> = self
            .spec
            .key
            .iter()
            .enumerate()
            .map(|(slot, label)| {
                // Determine the output type: use the input attribute's
                // type if known, else guess from the first value there
                // is in sorted key order.
                let vtype = if has_overflow {
                    Some(ValueType::Str)
                } else {
                    self.store.find(label).map(|a| a.value_type()).or_else(|| {
                        let mut cells = rows.iter().filter_map(|&group| key(group).get(slot)?.0);
                        cells.next().map(Cell::value_type)
                    })
                };
                vtype.map(|t| declare(label, t, Properties::DEFAULT))
            })
            .collect();

        // A column at a time — the key labels', then each op's results —
        // every row's value, strings as codes of `strings`, and the columns
        // it goes out in. The key labels' columns fill in one pass over
        // the rows, so that each group's key is read once. The overflow
        // row carries the sentinel in every key column and the combined
        // reductions of every group that did not fit. `percent_total`
        // divides by the sum of its sums over all rows (the overflow
        // bucket's too, so the percentages still total 100).
        let mut columns = Vec::with_capacity(key_attrs.len() + self.ops.len());
        let (mut codes, mut sentinel) = (vec![None; self.strings.len()], None);
        let slots: Vec<(usize, &Attribute)> = key_attrs
            .iter()
            .enumerate()
            .filter_map(|(slot, attr)| Some((slot, attr.as_ref()?)))
            .collect();
        let mut keys: Vec<Values> = slots.iter().map(|_| Values::with_capacity(rows.len())).collect();
        for &group in &rows {
            let key = key(group);
            for (&(slot, _), values) in slots.iter().zip(&mut keys) {
                values.push(match key.get(slot) {
                    None => Some(Cell::Str(
                        *sentinel.get_or_insert_with(|| strings.intern(OVERFLOW_KEY)),
                    )),
                    Some(KeyCell(None)) => None,
                    Some(KeyCell(Some(Cell::Str(mine)))) => Some(
                        *codes[*mine as usize]
                            .get_or_insert_with(|| strings.cell(self.strings.value(*mine))),
                    ),
                    Some(KeyCell(Some(number))) => Some(*number),
                });
            }
        }
        for ((_, attr), values) in slots.iter().zip(keys) {
            emit(attr, values, strings, &mut columns);
        }
        for (op, column) in self.spec.ops.iter().zip(&self.ops) {
            let values = column.finish_column(&rows, &self.records, &self.strings, strings);
            // The result type: joined over all groups.
            if let Some(vtype) = values.joined_type() {
                let label = op.result_label(&self.spec.count_label);
                emit(
                    &declare(&label, vtype, Properties::AGGREGATABLE),
                    values,
                    strings,
                    &mut columns,
                );
            }
        }

        // Self-instrumentation (flush-time, not per-record, so the
        // streaming update path stays atomics-free): everything below is
        // a function of the input records alone, so the `--stats` block
        // stays byte-identical for any worker-thread count.
        let m = caliper_data::metrics::global();
        m.counter("query.aggregator.records")
            .add(self.records_processed);
        m.counter("query.aggregator.groups_flushed")
            .add(rows.len() as u64);
        m.gauge("query.aggregator.groups_live")
            .set_max(self.len() as u64);
        m.counter("query.aggregator.overflow_records")
            .add(self.overflow_records());
        m.counter("query.aggregator.overflow_folds")
            .add(u64::from(self.overflow.is_some()));
        let rows = rows.len();
        if let Some((attr, cell)) = stamp {
            let mut data = ColumnData::with_capacity(cell.value_type(), rows);
            (0..rows).for_each(|_| data.push(cell));
            columns.push((BlockColumn { attr, data }, None));
        }
        assert!(
            block.push_columns(rows, columns),
            "a flush of more than 2^32 values"
        );
    }
}

/// A flush's columns as [`Block::push_columns`] takes them, each with
/// the rows it has a value on (`None`: every row).
type Columns = Vec<(BlockColumn, Option<Vec<bool>>)>;

/// One output attribute's values as the columns [`Block::push_columns`]
/// takes, appended to `out`: the values widened to the attribute's type,
/// so that the output stream is type-consistent, in one column — as they
/// are if they all have that type — and a value the type does not take,
/// as it is, in a column of its own type.
fn emit(attr: &Attribute, values: Values, strings: &mut StringTable, out: &mut Columns) {
    let (id, vtype) = (attr.id(), attr.value_type());
    let values = match values.into_column(vtype) {
        Ok((data, rows)) => return out.push((BlockColumn { attr: id, data }, rows)),
        Err(values) => values.into_cells(),
    };
    let rows = values.len();
    let mut columns = vec![(
        ColumnData::with_capacity(vtype, rows),
        Included::with_capacity(rows),
    )];
    for (row, cell) in values.into_iter().enumerate() {
        let at = cell.map(|cell| {
            let cell = match (vtype, cell) {
                (ValueType::Float, Cell::Float(_)) | (ValueType::Str, Cell::Str(_)) => cell,
                (ValueType::Float, other) => {
                    Cell::Float(strings.get(other).to_f64().unwrap_or(0.0))
                }
                (ValueType::Str, other) => {
                    let text = strings.get(other).to_string();
                    Cell::Str(strings.intern(&text))
                }
                _ => cell,
            };
            let at = columns
                .iter()
                .position(|(data, _)| data.value_type() == cell.value_type());
            let at = at.unwrap_or_else(|| {
                let (data, mut included) = (
                    ColumnData::with_capacity(cell.value_type(), 0),
                    Included::with_capacity(rows),
                );
                (0..row).for_each(|earlier| included.mark(earlier, false));
                columns.push((data, included));
                columns.len() - 1
            });
            columns[at].0.push(cell);
            at
        });
        for (i, (_, included)) in columns.iter_mut().enumerate() {
            included.mark(row, Some(i) == at);
        }
    }
    let columns = columns.into_iter().filter(|(data, _)| !data.is_empty());
    out.extend(columns.map(|(data, rows)| (BlockColumn { attr: id, data }, rows.into_rows())));
}

impl std::fmt::Debug for Aggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Aggregator({} entries, {} records processed)",
            self.len(),
            self.records_processed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use caliper_data::RecordBuilder;

    fn store_with_listing1() -> (Arc<AttributeStore>, Vec<FlatRecord>) {
        // Reproduce the record stream of Listing 1 / §III-B: 4 loop
        // iterations, foo called twice (10+30=40 time units over 3
        // records in the paper's table: foo entries sum to 40 with
        // count 3... we mirror the table: per iteration, foo count=3
        // sum=40? The table shows: (none) count=1 sum=10, foo count=3
        // sum=40, bar... Actually we just build a plausible stream:
        // foo(1), foo(2), bar(1) per iteration plus one record without
        // function.
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for iteration in 0..4i64 {
            records.push(
                RecordBuilder::new(&store)
                    .with("loop.iteration", iteration)
                    .with("time", 10i64)
                    .build(),
            );
            for (func, time) in [("foo", 15i64), ("foo", 25), ("bar", 20)] {
                records.push(
                    RecordBuilder::new(&store)
                        .with("function", func)
                        .with("loop.iteration", iteration)
                        .with("time", time)
                        .build(),
                );
            }
        }
        (store, records)
    }

    fn run(query: &str, store: Arc<AttributeStore>, records: &[FlatRecord]) -> (Arc<AttributeStore>, Vec<FlatRecord>) {
        let spec = parse_query(query).unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        for rec in records {
            agg.add(rec);
        }
        let out_store = Arc::new(AttributeStore::new());
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        (out_store, out)
    }

    #[test]
    fn listing1_time_series_profile() {
        let (store, records) = store_with_listing1();
        let (out_store, out) = run(
            "AGGREGATE count, sum(time) GROUP BY function, loop.iteration",
            store,
            &records,
        );
        // 4 iterations x (foo, bar, none) = 12 entries
        assert_eq!(out.len(), 12);
        let func = out_store.find("function").unwrap();
        let count = out_store.find("count").unwrap();
        let sum = out_store.find("sum#time").unwrap();
        let foo_rows: Vec<_> = out
            .iter()
            .filter(|r| r.get(func.id()) == Some(&Value::str("foo")))
            .collect();
        assert_eq!(foo_rows.len(), 4);
        for row in foo_rows {
            assert_eq!(row.get(count.id()), Some(&Value::UInt(2)));
            assert_eq!(row.get(sum.id()), Some(&Value::Int(40)));
        }
    }

    #[test]
    fn removing_key_attribute_collapses_entries() {
        let (store, records) = store_with_listing1();
        let (out_store, out) = run("AGGREGATE count, sum(time) GROUP BY function", store, &records);
        // foo, bar, none
        assert_eq!(out.len(), 3);
        let func = out_store.find("function").unwrap();
        let sum = out_store.find("sum#time").unwrap();
        let foo = out
            .iter()
            .find(|r| r.get(func.id()) == Some(&Value::str("foo")))
            .unwrap();
        assert_eq!(foo.get(sum.id()), Some(&Value::Int(160)));
        // The entry with no function key has no function attribute.
        assert!(out.iter().any(|r| !r.contains(func.id())));
    }

    #[test]
    fn merge_equals_single_pass() {
        let (store, records) = store_with_listing1();
        let spec = parse_query("AGGREGATE count, sum(time), min(time), max(time), avg(time) GROUP BY function").unwrap();
        let aspec = AggregationSpec::from_query(&spec);

        let mut single = Aggregator::new(aspec.clone(), Arc::clone(&store));
        for r in &records {
            single.add(r);
        }

        let mut left = Aggregator::new(aspec.clone(), Arc::clone(&store));
        let mut right = Aggregator::new(aspec, Arc::clone(&store));
        for (i, r) in records.iter().enumerate() {
            if i % 2 == 0 {
                left.add(r);
            } else {
                right.add(r);
            }
        }
        left.merge(right);

        let s1 = Arc::new(AttributeStore::new());
        let s2 = Arc::new(AttributeStore::new());
        let out1: Vec<_> = single.flush(&s1).iter().map(|r| r.describe(&s1)).collect();
        let out2: Vec<_> = left.flush(&s2).iter().map(|r| r.describe(&s2)).collect();
        assert_eq!(out1, out2);
    }

    #[test]
    fn aggregation_over_preaggregated_counts() {
        // §VI-B: offline sum(aggregate.count) over online count results.
        let store = Arc::new(AttributeStore::new());
        let records = vec![
            RecordBuilder::new(&store)
                .with("kernel", "calc-dt")
                .with("aggregate.count", 100u64)
                .build(),
            RecordBuilder::new(&store)
                .with("kernel", "calc-dt")
                .with("aggregate.count", 50u64)
                .build(),
            RecordBuilder::new(&store)
                .with("kernel", "pdv")
                .with("aggregate.count", 7u64)
                .build(),
        ];
        let (out_store, out) = run(
            "AGGREGATE sum(aggregate.count) GROUP BY kernel",
            store,
            &records,
        );
        assert_eq!(out.len(), 2);
        let sum = out_store.find("sum#aggregate.count").unwrap();
        let kernel = out_store.find("kernel").unwrap();
        let calc = out
            .iter()
            .find(|r| r.get(kernel.id()) == Some(&Value::str("calc-dt")))
            .unwrap();
        assert_eq!(calc.get(sum.id()), Some(&Value::UInt(150)));
    }

    #[test]
    fn count_label_override() {
        let store = Arc::new(AttributeStore::new());
        let records = vec![RecordBuilder::new(&store).with("kernel", "a").build()];
        let spec = parse_query("AGGREGATE count GROUP BY kernel").unwrap();
        let aspec = AggregationSpec::from_query(&spec).with_count_label("aggregate.count");
        let mut agg = Aggregator::new(aspec, store);
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        assert!(out_store.find("aggregate.count").is_some());
        assert!(out_store.find("count").is_none());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn nested_key_attributes_group_by_path() {
        let store = Arc::new(AttributeStore::new());
        let func = store.create_simple("function", ValueType::Str);
        let mut r1 = FlatRecord::new();
        r1.push(func.id(), Value::str("main"));
        r1.push(func.id(), Value::str("foo"));
        let mut r2 = FlatRecord::new();
        r2.push(func.id(), Value::str("main"));
        let spec = parse_query("AGGREGATE count GROUP BY function").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.add(&r1);
        agg.add(&r1);
        agg.add(&r2);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        assert_eq!(out.len(), 2);
        let f = out_store.find("function").unwrap();
        let c = out_store.find("count").unwrap();
        let main_foo = out
            .iter()
            .find(|r| r.get(f.id()) == Some(&Value::str("main/foo")))
            .unwrap();
        assert_eq!(main_foo.get(c.id()), Some(&Value::UInt(2)));
    }

    #[test]
    fn flush_is_sorted_and_deterministic() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in [5i64, 3, 9, 1, 3, 5] {
            records.push(RecordBuilder::new(&store).with("i", i).build());
        }
        let (out_store, out) = run("AGGREGATE count GROUP BY i", store, &records);
        let i_attr = out_store.find("i").unwrap();
        let keys: Vec<i64> = out
            .iter()
            .map(|r| r.get(i_attr.id()).unwrap().to_i64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn integer_keys_of_one_f64_image_sort_by_value_at_one_shard_and_at_two() {
        // 2^53 and 2^53 + 1 are one `f64` but two keys: their order is
        // theirs, never the hash map's.
        let store = Arc::new(AttributeStore::new());
        let big = 1i64 << 53;
        let records: Vec<FlatRecord> = [big + 1, big, big + 1, big - 1]
            .iter()
            .map(|&k| RecordBuilder::new(&store).with("k", k).build())
            .collect();
        let spec = AggregationSpec::from_query(&parse_query("AGGREGATE count GROUP BY k").unwrap());
        let aggregated = |records: &[FlatRecord], cap| {
            let mut agg = Aggregator::new(spec.clone(), Arc::clone(&store));
            agg.set_max_groups(cap);
            records.iter().for_each(|record| agg.add(record));
            agg
        };
        let lines = |agg: &Aggregator| {
            let out = AttributeStore::new();
            agg.flush(&out).iter().collect::<Vec<_>>()
                .iter()
                .map(|r| r.describe(&out))
                .collect::<Vec<_>>()
        };
        let want = [
            format!("k={},count=1", big - 1),
            format!("k={big},count=1"),
            format!("k={},count=2", big + 1),
        ];
        assert_eq!(lines(&aggregated(&records, None)), want);
        for (left, right) in [
            (&records[..2], &records[2..]),
            (&records[2..], &records[..2]),
        ] {
            let mut merged = aggregated(left, None);
            merged.merge(aggregated(right, None));
            assert_eq!(lines(&merged), want);
        }
        // A capped merge admits the incoming keys in that order.
        let mut capped = aggregated(&[], Some(2));
        capped.merge(aggregated(&records, None));
        assert_eq!(lines(&capped)[..2], want[..2]);
    }

    #[test]
    fn attributes_resolving_late_are_picked_up() {
        // On-line scenario: the key attribute is created after the
        // aggregator starts.
        let store = Arc::new(AttributeStore::new());
        let spec = parse_query("AGGREGATE count GROUP BY late.attr").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), Arc::clone(&store));
        agg.add(&FlatRecord::new()); // before the attribute exists
        let rec = RecordBuilder::new(&store).with("late.attr", "x").build();
        agg.add(&rec);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn group_by_only_dedups_keys() {
        let store = Arc::new(AttributeStore::new());
        let records = vec![
            RecordBuilder::new(&store).with("k", "a").build(),
            RecordBuilder::new(&store).with("k", "b").build(),
            RecordBuilder::new(&store).with("k", "a").build(),
        ];
        let spec = AggregationSpec::new(Vec::new(), vec!["k".into()]);
        let mut agg = Aggregator::new(spec, store);
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        assert_eq!(out.len(), 2);
        // No ops -> no result attributes beyond the key.
        assert_eq!(out_store.len(), 1);
    }

    #[test]
    fn empty_aggregator_flushes_empty() {
        let store = Arc::new(AttributeStore::new());
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY k").unwrap();
        let agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        let out_store = AttributeStore::new();
        assert!(agg.flush(&out_store).is_empty());
        assert!(agg.is_empty());
        assert_eq!(agg.records_processed(), 0);
    }

    #[test]
    fn mixed_numeric_groups_widen_to_float() {
        // Group "a" sums to an Int, group "b" (via an untyped record
        // carrying a float) to a Float: the shared result attribute
        // widens to Float and both groups coerce consistently.
        let store = Arc::new(AttributeStore::new());
        let x = store.create_simple("x", ValueType::Float);
        let k = store.create_simple("k", ValueType::Str);
        let mut int_rec = FlatRecord::new();
        int_rec.push(k.id(), Value::str("a"));
        int_rec.push(x.id(), Value::Int(2));
        let mut float_rec = FlatRecord::new();
        float_rec.push(k.id(), Value::str("b"));
        float_rec.push(x.id(), Value::Float(1.5));

        let spec = parse_query("AGGREGATE sum(x) GROUP BY k").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.add(&int_rec);
        agg.add(&float_rec);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        let sum = out_store.find("sum#x").unwrap();
        assert_eq!(sum.value_type(), ValueType::Float);
        assert_eq!(out.len(), 2);
        // The Int group's result is coerced to the widened type.
        for rec in &out {
            assert_eq!(
                rec.get(sum.id()).unwrap().value_type(),
                ValueType::Float
            );
        }
    }

    #[test]
    fn duplicate_target_occurrences_all_count() {
        // A record carrying the target attribute twice contributes both
        // occurrences to sum (nested measurement attributes).
        let store = Arc::new(AttributeStore::new());
        let x = store.create_simple("x", ValueType::Int);
        let mut rec = FlatRecord::new();
        rec.push(x.id(), Value::Int(3));
        rec.push(x.id(), Value::Int(4));
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY nothing").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.add(&rec);
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        assert_eq!(out.len(), 1);
        let sum = out_store.find("sum#x").unwrap();
        let count = out_store.find("count").unwrap();
        assert_eq!(out[0].get(sum.id()), Some(&Value::Int(7)));
        // but count counts records, not occurrences
        assert_eq!(out[0].get(count.id()), Some(&Value::UInt(1)));
    }

    #[test]
    fn max_groups_caps_db_and_routes_overflow() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in 0..10i64 {
            // keys k0..k9 in ascending order; 2 records each
            for _ in 0..2 {
                records.push(
                    RecordBuilder::new(&store)
                        .with("k", format!("k{i}").as_str())
                        .with("x", i)
                        .build(),
                );
            }
        }
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY k").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.set_max_groups(Some(4));
        for r in &records {
            agg.add(r);
            assert!(agg.len() <= 4, "db exceeded cap");
        }
        assert!(agg.has_overflow());
        // 6 evicted groups x 2 records
        assert_eq!(agg.overflow_records(), 12);

        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        assert_eq!(out.len(), 5); // 4 groups + overflow row, last
        let k = out_store.find("k").unwrap();
        let count = out_store.find("count").unwrap();
        let sum = out_store.find("sum#x").unwrap();
        let last = out.last().unwrap();
        assert_eq!(last.get(k.id()), Some(&Value::str(OVERFLOW_KEY)));
        assert_eq!(last.get(count.id()), Some(&Value::UInt(12)));
        // evicted groups k4..k9: sum = 2*(4+5+..+9) = 78
        assert_eq!(last.get(sum.id()), Some(&Value::Int(78)));
        // admitted groups keep exact results
        let k0 = out
            .iter()
            .find(|r| r.get(k.id()) == Some(&Value::str("k0")))
            .unwrap();
        assert_eq!(k0.get(count.id()), Some(&Value::UInt(2)));
    }

    #[test]
    fn a_key_turned_away_interns_nothing() {
        // A cardinality explosion: every record a new two-part key, one
        // part nested. The cap bounds the string table with the groups.
        let store = Arc::new(AttributeStore::new());
        let path = store.create_simple("path", ValueType::Str);
        let spec = parse_query("AGGREGATE count GROUP BY path, id").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), Arc::clone(&store));
        agg.set_max_groups(Some(8));
        for i in 0..1000 {
            let mut rec = RecordBuilder::new(&store).with("id", format!("id{i}").as_str()).build();
            rec.push(path.id(), Value::str("main"));
            rec.push(path.id(), Value::str(format!("f{i}")));
            agg.add(&rec);
            // The second group: a string it shares with the first.
            agg.add(&RecordBuilder::new(&store).with("id", "id0").build());
            assert!(agg.len() <= 8);
        }
        assert_eq!(agg.overflow_records(), 1000 - 7);
        let mut held: Vec<String> =
            (0..agg.strings.len() as u32).map(|code| agg.strings.value(code).to_string()).collect();
        held.sort();
        let mut admitted: Vec<String> = (0..7)
            .flat_map(|i| [format!("id{i}"), format!("main/f{i}")])
            .collect();
        admitted.sort();
        assert_eq!(held, admitted);
    }

    #[test]
    fn int_and_uint_of_one_magnitude_are_one_key_of_the_first_class_seen() {
        let store = Arc::new(AttributeStore::new());
        let int = RecordBuilder::new(&store).with("k", 3i64).build();
        let k = store.find("k").unwrap();
        let mut uint = FlatRecord::new();
        uint.push(k.id(), Value::UInt(3));
        let spec = parse_query("AGGREGATE count GROUP BY k").unwrap();
        let aggregated = |records: &[&FlatRecord]| {
            let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), Arc::clone(&store));
            records.iter().for_each(|record| agg.add(record));
            agg
        };
        let flushed = |agg: &Aggregator| {
            let out_store = AttributeStore::new();
            let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].describe(&out_store), "k=3,count=2");
            out[0].get(out_store.find("k").unwrap().id()).cloned()
        };
        assert!(matches!(flushed(&aggregated(&[&int, &uint])), Some(Value::Int(3))));
        assert!(matches!(flushed(&aggregated(&[&uint, &int])), Some(Value::UInt(3))));
        // A merge keeps the receiver's class.
        let mut merged = aggregated(&[&uint]);
        merged.merge(aggregated(&[&int]));
        assert!(matches!(flushed(&merged), Some(Value::UInt(3))));
    }

    #[test]
    fn merge_translates_the_other_tables_codes() {
        // The same strings under different codes on either side, some
        // strings on one side only, and a nested key.
        let store = Arc::new(AttributeStore::new());
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY a, b").unwrap();
        let aspec = AggregationSpec::from_query(&spec);
        let record = |a: &str, b: &str, x: i64| {
            RecordBuilder::new(&store).with("a", a).with("b", b).with("x", x).build()
        };
        let left = [record("p", "q", 1), record("q", "r", 2), record("r", "p", 3)];
        let right = [record("s", "r", 4), record("r", "p", 5), record("q", "q", 6), record("p", "q", 7)];
        let describe = |agg: &Aggregator| {
            let out_store = AttributeStore::new();
            let rows: Vec<String> =
                agg.flush(&out_store).iter().map(|r| r.describe(&out_store)).collect();
            rows
        };
        for cap in [None, Some(4)] {
            let aggregated = |records: &[FlatRecord]| {
                let mut agg = Aggregator::new(aspec.clone(), Arc::clone(&store));
                agg.set_max_groups(cap);
                records.iter().for_each(|record| agg.add(record));
                agg
            };
            let mut merged = aggregated(&left);
            let incoming = aggregated(&right);
            assert_ne!(merged.strings.find("q"), incoming.strings.find("q"));
            merged.merge(incoming);
            // Uncapped, a merge is a single pass; capped, the incoming
            // groups are admitted in sorted key order.
            let mut order: Vec<FlatRecord> = right.to_vec();
            order.sort_by_key(|r| r.describe(&store));
            let single = aggregated(&[&left[..], &order[..]].concat());
            assert_eq!(describe(&merged), describe(&single), "cap {cap:?}");
            assert_eq!(merged.len(), cap.unwrap_or(5));
        }
    }

    #[test]
    fn capped_merge_is_order_deterministic() {
        // Merging the same set of partials must admit the same keys and
        // produce identical flushed output no matter how records were
        // partitioned, as long as the merge sequence is the same.
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in [7i64, 2, 9, 4, 1, 8, 3, 6, 0, 5, 7, 2, 9, 4] {
            records.push(RecordBuilder::new(&store).with("k", i).with("x", 1i64).build());
        }
        let spec = parse_query("AGGREGATE count, sum(x) GROUP BY k").unwrap();
        let aspec = AggregationSpec::from_query(&spec);

        let flush_of = |partition: usize| {
            let mut parts: Vec<Aggregator> = (0..partition)
                .map(|_| {
                    let mut a = Aggregator::new(aspec.clone(), Arc::clone(&store));
                    a.set_max_groups(Some(3));
                    a
                })
                .collect();
            for (i, r) in records.iter().enumerate() {
                parts[i % partition].add(r);
            }
            let mut root = parts.remove(0);
            for p in parts {
                root.merge(p);
            }
            assert!(root.len() <= 3);
            let out_store = AttributeStore::new();
            let out = root.flush(&out_store).iter().collect::<Vec<_>>();
            let count = out_store.find("count").unwrap();
            let total: u64 = out
                .iter()
                .map(|r| r.get(count.id()).unwrap().to_u64().unwrap())
                .sum();
            let lines: Vec<String> = out.iter().map(|r| r.describe(&out_store)).collect();
            (lines, total)
        };
        // Different partition counts change arrival order within shards;
        // totals must be conserved regardless.
        for parts in [1, 2, 3] {
            let (out, total) = flush_of(parts);
            assert_eq!(out.len(), 4, "{out:?}");
            assert_eq!(total, records.len() as u64, "{out:?}");
        }
        // Same partitioning twice → byte-identical output.
        assert_eq!(flush_of(2), flush_of(2));
    }

    #[test]
    fn overflow_forces_string_key_columns() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for i in 0..5i64 {
            records.push(RecordBuilder::new(&store).with("i", i).build());
        }
        let spec = parse_query("AGGREGATE count GROUP BY i").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.set_max_groups(Some(2));
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        let i_attr = out_store.find("i").unwrap();
        assert_eq!(i_attr.value_type(), ValueType::Str);
        for rec in &out {
            assert_eq!(
                rec.get(i_attr.id()).unwrap().value_type(),
                ValueType::Str
            );
        }
        assert_eq!(
            out.last().unwrap().get(i_attr.id()),
            Some(&Value::str(OVERFLOW_KEY))
        );
    }

    #[test]
    fn percent_total_with_overflow_still_sums_to_100() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for (k, t) in [("a", 10.0), ("b", 30.0), ("c", 40.0), ("d", 20.0)] {
            records.push(
                RecordBuilder::new(&store)
                    .with("kernel", k)
                    .with("time", t)
                    .build(),
            );
        }
        let spec = parse_query("AGGREGATE percent_total(time) GROUP BY kernel").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        agg.set_max_groups(Some(2));
        for r in &records {
            agg.add(r);
        }
        let out_store = AttributeStore::new();
        let out = agg.flush(&out_store).iter().collect::<Vec<_>>();
        assert_eq!(out.len(), 3);
        let p = out_store.find("percent_total#time").unwrap();
        let total: f64 = out
            .iter()
            .map(|r| r.get(p.id()).unwrap().to_f64().unwrap())
            .sum();
        assert!((total - 100.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn uncapped_behavior_is_unchanged() {
        let (store, records) = store_with_listing1();
        let spec = parse_query("AGGREGATE count, sum(time) GROUP BY function").unwrap();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), store);
        assert_eq!(agg.max_groups(), None);
        for r in &records {
            agg.add(r);
        }
        assert!(!agg.has_overflow());
        assert_eq!(agg.overflow_records(), 0);
    }

    #[test]
    fn percent_total_sums_to_100() {
        let store = Arc::new(AttributeStore::new());
        let mut records = Vec::new();
        for (k, t) in [("a", 10.0), ("b", 30.0), ("c", 60.0)] {
            records.push(
                RecordBuilder::new(&store)
                    .with("kernel", k)
                    .with("time", t)
                    .build(),
            );
        }
        let (out_store, out) = run(
            "AGGREGATE percent_total(time) GROUP BY kernel",
            store,
            &records,
        );
        let p = out_store.find("percent_total#time").unwrap();
        let total: f64 = out
            .iter()
            .map(|r| r.get(p.id()).unwrap().to_f64().unwrap())
            .sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    /// A cell of one of the classes `classes` lists (by their index in
    /// the match below), picked by `pick`: absent, small and large
    /// integers of both classes — some of one `f64` image, some further
    /// apart than there are keys — floats, bools and strings.
    fn key_cell(strings: &mut StringTable, classes: &[u8], pick: u16) -> KeyCell {
        let n = i64::from(pick >> 4);
        let big = 1i64 << 53;
        KeyCell(match classes[pick as usize % classes.len()] {
            0 => None,
            1 => Some(Cell::Int(n - 40)),
            2 => Some(Cell::UInt(n as u64)),
            3 => Some(Cell::Int(big + n % 3 - 1)),
            4 => Some(Cell::UInt(u64::MAX - n as u64 % 3)),
            5 => Some(Cell::Float(n as f64 / 4.0 - 3.0)),
            6 => Some(Cell::Bool(n % 2 == 0)),
            7 => Some(Cell::Int(i64::MIN + n)),
            _ => Some(Cell::Str(strings.intern(&format!("s{}", n % 13)))),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whether a pass counts or compares, the keys come out in the
        /// order of their places, slot by slot.
        #[test]
        fn key_order_is_the_order_of_the_places(
            flavors in proptest::collection::vec(0usize..6, 1..4),
            picks in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..150),
        ) {
            const CLASSES: [&[u8]; 6] =
                [&[0, 1, 2, 8], &[0, 8], &[1, 2], &[1, 2, 3, 7], &[0, 1, 2, 3, 4, 5, 6, 7, 8], &[0, 4, 6]];
            let width = flavors.len();
            let mut strings = StringTable::default();
            // Distinct keys, as a database holds them.
            let mut keys: Vec<Vec<KeyCell>> = Vec::new();
            for chunk in picks.chunks_exact(width) {
                let key: Vec<KeyCell> = chunk
                    .iter()
                    .zip(&flavors)
                    .map(|(&pick, &flavor)| key_cell(&mut strings, CLASSES[flavor], pick))
                    .collect();
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            let ranks = ranks(&strings);
            let places = |key: &[KeyCell]| key.iter().map(|cell| cell.place(&ranks)).collect::<Vec<_>>();
            let mut want: Vec<u32> = (0..keys.len() as u32).collect();
            want.sort_by(|&a, &b| places(&keys[a as usize]).cmp(&places(&keys[b as usize])));
            let got = key_order(&strings, width, keys.len(), |i| &keys[i]);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
