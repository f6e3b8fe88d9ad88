//! Block-columnar `CALB` v2 codec with zone maps and predicate pushdown.
//!
//! v2 keeps v1's stream model — a `"CALB"` magic plus version byte,
//! dictionary records (attributes, context-tree nodes) interleaved
//! before first use, globals records — but groups snapshot records into
//! length-framed **blocks** (tag `0x05`). Each block carries, before any
//! record data:
//!
//! * per-attribute **zone maps**: presence counts and min/max bounds of
//!   every occurrence in the block, computed over the node-path-expanded
//!   view of each record, so a reader holding a typed WHERE predicate
//!   (see [`crate::pushdown`]) can prove "no record in this block can
//!   match" and skip the whole payload without decoding a single record;
//! * the rows' **skeleton**, each row shape stated once: a table of
//!   shapes (node references per row, immediate attribute ids), the
//!   rows as runs of one shape, and the node references of the rows
//!   whose shape has any;
//! * the **values**: the block's distinct strings, once each, then per
//!   attribute a column of its immediate values in (row, occurrence)
//!   order, strings as indices into that block dictionary.
//!
//! A block needs nothing from another block, only the stream's
//! attribute and node dictionary, so one that is damaged is skipped and
//! costs no other.
//!
//! A footer index (tag `0x06`, terminated by a fixed-width length and
//! the `"2BLC"` end magic), always written, lets readers enumerate block
//! offsets from the tail of the file without scanning; a stream without
//! one (torn, or from an older writer) still reads.
//!
//! The byte-level layout of every structure is specified normatively in
//! **`docs/CALB.md`**; this module doc is a summary. The stream's
//! version byte is `03`; streams of the retired `02` block layout, which
//! repeated every string and every row's skeleton, are refused by name.
//!
//! There is one block decoder, and it keeps the layout: a block decodes
//! into a [`Block`] — flat skeleton arrays filled from the shape runs,
//! plus one typed vector per column, strings interned in a per-stream
//! [`StringTable`] once per block and only once the whole block has
//! validated, buffers reused from block to block — which consumers that
//! aggregate fold directly (`caliper-query`'s `scan` module). Consumers
//! that want rows get them *derived* from the columns
//! ([`Block::append_records`]), so decoding a v2 stream still
//! reconstructs exactly the same dataset as the equivalent v1 stream,
//! record for record and entry for entry, and query results are
//! byte-identical across encodings. Under [`ReadPolicy::Lenient`], a
//! corrupt block payload is skipped and decoding *resyncs* at the next
//! record (the length frame survives), while a torn length frame or a
//! corrupt dictionary record falls back to v1's valid-prefix semantics.

use std::borrow::Cow;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use caliper_data::{
    AttrId, AttributeStore, Entry, FxHashMap, Identity, NodeId, SnapshotRecord, Value, ValueType,
};

use crate::binary::{get_value, put_value, put_varint, BinaryDecoder, BinaryWriter, Cursor, MAGIC};
use crate::cali::CaliError;
use crate::dataset::Dataset;
use crate::policy::{ReadPolicy, ReadReport};
use crate::pushdown::{AttrStats, Pushdown, ZoneStat};

/// Version byte identifying the block-columnar v2 stream flavor.
pub(crate) const VERSION_V2: u8 = 3;
/// Version byte of the retired block layout, refused by name.
pub(crate) const RETIRED_V2: u8 = 2;
/// Record tag for a length-framed record block.
pub(crate) const TAG_BLOCK: u8 = 0x05;
/// Record tag for the trailing footer index.
pub(crate) const TAG_FOOTER: u8 = 0x06;
/// Trailing magic closing a footer-bearing v2 stream.
pub(crate) const END_MAGIC: &[u8; 4] = b"2BLC";

/// Default number of snapshot records grouped into one block.
pub const DEFAULT_BLOCK_RECORDS: usize = 1024;

/// Most snapshot records one block may hold. Rows of a shape with no
/// entries cost no payload bytes, so this is what bounds the memory a
/// block's row count can ask a reader for.
pub const MAX_BLOCK_RECORDS: usize = 1 << 20;

/// One entry of the footer block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Byte offset of the block's `TAG_BLOCK` byte from stream start.
    pub offset: u64,
    /// Snapshot records stored in the block.
    pub rows: u64,
}

// ---- writer ----

/// Serialize a dataset to the block-columnar v2 format, in blocks of
/// [`DEFAULT_BLOCK_RECORDS`] records.
pub fn to_binary_v2(ds: &Dataset) -> Vec<u8> {
    to_binary_v2_with(ds, DEFAULT_BLOCK_RECORDS)
}

/// Serialize a dataset to the block-columnar v2 format, in blocks of
/// `block_records` records (clamped to `1..=MAX_BLOCK_RECORDS`), and
/// close it with the footer block index.
pub fn to_binary_v2_with(ds: &Dataset, block_records: usize) -> Vec<u8> {
    let block_records = block_records.clamp(1, MAX_BLOCK_RECORDS);
    let mut w = BinaryWriter::with_version(VERSION_V2);
    for g in &ds.globals {
        w.write_globals(ds, g);
    }
    let mut index: Vec<BlockInfo> = Vec::new();
    let mut path_cache: FxHashMap<NodeId, Vec<(AttrId, Value)>> = FxHashMap::default();
    for chunk in ds.rows().chunks(block_records) {
        // Dictionary records first, in exactly the order the v1 writer
        // would emit them for the same record sequence (refs before
        // imms, record by record), so both encodings decode into
        // identical attribute/node creation orders.
        for rec in chunk {
            for entry in rec.entries() {
                if let Entry::Node(id) = entry {
                    w.ensure_node(ds, *id);
                }
            }
            for entry in rec.entries() {
                if let Entry::Imm(attr, _) = entry {
                    w.ensure_attr(ds, *attr);
                }
            }
        }
        let payload = encode_block(ds, chunk, &mut path_cache);
        index.push(BlockInfo {
            offset: w.out.len() as u64,
            rows: chunk.len() as u64,
        });
        w.out.push(TAG_BLOCK);
        put_varint(&mut w.out, payload.len() as u64);
        w.out.extend_from_slice(&payload);
    }
    let footer_start = w.out.len();
    w.out.push(TAG_FOOTER);
    put_varint(&mut w.out, index.len() as u64);
    for info in &index {
        put_varint(&mut w.out, info.offset);
        put_varint(&mut w.out, info.rows);
    }
    let footer_len = (w.out.len() - footer_start) as u32;
    w.out.extend_from_slice(&footer_len.to_le_bytes());
    w.out.extend_from_slice(END_MAGIC);
    w.finish()
}

/// Write a dataset to a v2 binary file (mirrors
/// [`crate::binary::write_file`]).
pub fn write_file_v2(ds: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    let bytes = to_binary_v2(ds);
    caliper_data::metrics::global()
        .counter("format.writer.bytes")
        .add(bytes.len() as u64);
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    file.flush()
}

/// The declared value type the v1/v2 codecs encode an attribute's
/// values with (string fallback matches the v1 writer's behavior for
/// unresolvable attributes).
fn declared_type(ds: &Dataset, attr: AttrId) -> ValueType {
    ds.store
        .get(attr)
        .map(|a| a.value_type())
        .unwrap_or(ValueType::Str)
}

/// Project a value through its attribute's declared type, mirroring the
/// `put_value`/`get_value` round trip — zone bounds must describe the
/// values a reader will actually reconstruct, not the writer-side ones.
/// A value of the declared type is its own projection.
fn coerce(vtype: ValueType, value: &Value) -> Cow<'_, Value> {
    if value.value_type() == vtype {
        return Cow::Borrowed(value);
    }
    Cow::Owned(match vtype {
        ValueType::Str => Value::str(value.to_text().as_ref()),
        ValueType::Int => Value::Int(value.to_i64().unwrap_or(0)),
        ValueType::UInt => Value::UInt(value.to_u64().unwrap_or(0)),
        ValueType::Float => Value::Float(value.to_f64().unwrap_or(0.0)),
        ValueType::Bool => Value::Bool(value.is_truthy()),
    })
}

/// Running zone accumulator for one attribute of one block.
struct ZoneAcc {
    present: u64,
    last_row: usize,
    min: Value,
    max: Value,
}

fn encode_block(
    ds: &Dataset,
    chunk: &[caliper_data::SnapshotRecord],
    path_cache: &mut FxHashMap<NodeId, Vec<(AttrId, Value)>>,
) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(&mut payload, chunk.len() as u64);

    // Zone maps over the node-path-expanded view of every record, in
    // first-appearance order for deterministic output.
    let mut zone_order: Vec<AttrId> = Vec::new();
    let mut zones: FxHashMap<AttrId, ZoneAcc> = FxHashMap::default();
    let mut observe = |attr: AttrId, value: &Value, row: usize| {
        let value = coerce(declared_type(ds, attr), value);
        match zones.entry(attr) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                zone_order.push(attr);
                slot.insert(ZoneAcc {
                    present: 1,
                    last_row: row,
                    min: value.clone().into_owned(),
                    max: value.into_owned(),
                });
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let acc = slot.get_mut();
                if acc.last_row != row {
                    acc.present += 1;
                    acc.last_row = row;
                }
                if value.total_cmp(&acc.min) == std::cmp::Ordering::Less {
                    acc.min = value.into_owned();
                } else if value.total_cmp(&acc.max) == std::cmp::Ordering::Greater {
                    acc.max = value.into_owned();
                }
            }
        }
    };
    for (row, rec) in chunk.iter().enumerate() {
        for entry in rec.entries() {
            match entry {
                Entry::Node(id) => {
                    let pairs = path_cache
                        .entry(*id)
                        .or_insert_with(|| ds.tree.path(*id));
                    for (attr, value) in pairs.iter() {
                        observe(*attr, value, row);
                    }
                }
                Entry::Imm(attr, value) => observe(*attr, value, row),
            }
        }
    }
    put_varint(&mut payload, zone_order.len() as u64);
    for attr in &zone_order {
        let acc = &zones[attr];
        let vtype = declared_type(ds, *attr);
        put_varint(&mut payload, *attr as u64);
        put_varint(&mut payload, acc.present);
        put_value(&mut payload, vtype, &acc.min);
        put_value(&mut payload, vtype, &acc.max);
    }

    // The skeleton: each distinct row shape once, as `n_refs` and the
    // immediates' attribute ids, in first-appearance order; the rows as
    // runs of one shape; then the node references, row by row.
    let mut shape_of: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
    let mut shapes = Vec::new();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut refs = Vec::new();
    let mut key: Vec<u64> = Vec::new();
    for rec in chunk {
        // The key is the shape as written: `n_refs`, `n_imms`, the ids.
        key.clear();
        key.extend([0, 0]);
        for entry in rec.entries() {
            match entry {
                Entry::Node(id) => {
                    put_varint(&mut refs, *id as u64);
                    key[0] += 1;
                }
                Entry::Imm(attr, _) => key.push(*attr as u64),
            }
        }
        key[1] = key.len() as u64 - 2;
        let shape = match shape_of.get(&key[..]) {
            Some(&shape) => shape,
            None => {
                key.iter().for_each(|&n| put_varint(&mut shapes, n));
                let shape = shape_of.len() as u64;
                shape_of.insert(key.clone(), shape);
                shape
            }
        };
        match runs.last_mut() {
            Some((len, last)) if *last == shape => *len += 1,
            _ => runs.push((1, shape)),
        }
    }
    put_varint(&mut payload, shape_of.len() as u64);
    payload.extend_from_slice(&shapes);
    put_varint(&mut payload, runs.len() as u64);
    for (len, shape) in runs {
        put_varint(&mut payload, len);
        put_varint(&mut payload, shape);
    }
    payload.extend_from_slice(&refs);

    // The values: per attribute, the immediate values in (row,
    // occurrence) order, again in first-appearance order; a string as
    // its index among the block's strings, which are numbered in the
    // order the columns first name them.
    let mut col_order: Vec<AttrId> = Vec::new();
    let mut cols: FxHashMap<AttrId, Vec<&Value>> = FxHashMap::default();
    for rec in chunk {
        for entry in rec.entries() {
            if let Entry::Imm(attr, value) = entry {
                cols.entry(*attr)
                    .or_insert_with(|| {
                        col_order.push(*attr);
                        Vec::new()
                    })
                    .push(value);
            }
        }
    }
    let mut index_of: FxHashMap<String, u64> = FxHashMap::default();
    let mut strings = Vec::new();
    let mut columns = Vec::new();
    put_varint(&mut columns, col_order.len() as u64);
    for attr in &col_order {
        let values = &cols[attr];
        let vtype = declared_type(ds, *attr);
        put_varint(&mut columns, *attr as u64);
        put_varint(&mut columns, values.len() as u64);
        for value in values {
            if vtype != ValueType::Str {
                put_value(&mut columns, vtype, value);
                continue;
            }
            let text = value.to_text();
            let index = match index_of.get(text.as_ref()) {
                Some(&index) => index,
                None => {
                    let index = index_of.len() as u64;
                    put_value(&mut strings, vtype, value);
                    index_of.insert(text.into_owned(), index);
                    index
                }
            };
            put_varint(&mut columns, index);
        }
    }
    put_varint(&mut payload, index_of.len() as u64);
    payload.extend_from_slice(&strings);
    payload.extend_from_slice(&columns);
    payload
}

// ---- reader ----

fn read_block_frame<'a>(cursor: &mut Cursor<'a>) -> Result<&'a [u8], CaliError> {
    cursor.u8()?; // TAG_BLOCK, already peeked
    let len = cursor.varint()? as usize;
    cursor.take(len)
}

/// Validate and skip the trailing footer record (sequential readers do
/// not need its contents; [`read_footer`] serves random access).
fn skip_footer(cursor: &mut Cursor<'_>) -> Result<(), CaliError> {
    let start = cursor.pos;
    cursor.u8()?; // TAG_FOOTER
    let nblocks = cursor.varint()?;
    for _ in 0..nblocks {
        cursor.varint()?; // offset
        cursor.varint()?; // rows
    }
    let record_len = cursor.pos - start;
    let trail = cursor.take(8)?;
    let framed_len = trail[0..4]
        .try_into()
        .map(u32::from_le_bytes)
        .map_err(|_| cursor.err("short footer trailer"))? as usize;
    if framed_len != record_len {
        return Err(cursor.err("footer length mismatch"));
    }
    if &trail[4..8] != END_MAGIC {
        return Err(cursor.err("bad v2 end magic"));
    }
    Ok(())
}

/// Per-stream string dictionary: every distinct string value of a
/// stream gets a small integer code, and its reference-counted text is
/// allocated once. String columns of a [`Block`] hold codes, so decoding
/// a string seen before costs one hash lookup and no allocation, and
/// consumers can compare and group strings as integers.
///
/// A table is append-only and has an [`Identity`] ([`id`](Self::id)):
/// a cache keyed by its codes checks the id to know whose codes it
/// holds. A new table — [`Default`] or [`Clone`] — gets an id of its
/// own; a moved one keeps it.
#[derive(Debug, Clone, Default)]
pub struct StringTable {
    codes: FxHashMap<Arc<str>, u32>,
    values: Vec<Value>,
    id: Identity,
}

impl StringTable {
    /// This table's [`Identity`]: what a cache of answers per code
    /// checks it is answering for.
    pub fn id(&self) -> u64 {
        self.id.get()
    }

    /// The code of `text` if it has one. Never assigns: a caller that
    /// must not grow the table looks up first and interns on its own
    /// terms.
    pub fn find(&self, text: &str) -> Option<u32> {
        self.codes.get(text).copied()
    }

    /// The code of `text`, assigning the next free one on first sight.
    pub fn intern(&mut self, text: &str) -> u32 {
        self.find(text)
            .unwrap_or_else(|| self.insert(Arc::from(text)))
    }

    /// The next free code, for `text`, which has none yet.
    fn insert(&mut self, text: Arc<str>) -> u32 {
        let code = self.values.len() as u32;
        self.values.push(Value::Str(Arc::clone(&text)));
        self.codes.insert(text, code);
        code
    }

    /// Distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The string value behind `code` (always a `Value::Str`).
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// Bring a value into this table's terms: strings are interned (a
    /// new one shares the value's text), everything else is copied.
    pub fn cell(&mut self, value: &Value) -> Cell {
        match value {
            Value::Str(text) => {
                Cell::Str(self.find(text).unwrap_or_else(|| self.insert(Arc::clone(text))))
            }
            Value::Int(i) => Cell::Int(*i),
            Value::UInt(u) => Cell::UInt(*u),
            Value::Float(x) => Cell::Float(*x),
            Value::Bool(b) => Cell::Bool(*b),
        }
    }

    /// `text` as a cell of type `vtype` ([`Value::parse_typed`]'s
    /// rules), parsed straight into the cell: no `Value` is built, and
    /// a string is interned.
    pub(crate) fn parse(&mut self, text: &str, vtype: ValueType) -> Option<Cell> {
        match vtype {
            ValueType::Str => Some(Cell::Str(self.intern(text))),
            ValueType::Int => text.parse().ok().map(Cell::Int),
            ValueType::UInt => text.parse().ok().map(Cell::UInt),
            ValueType::Float => text.parse().ok().map(Cell::Float),
            ValueType::Bool => Value::parse_typed(text, vtype).map(|value| self.cell(&value)),
        }
    }

    /// `cell` as a [`Value`], without touching a reference count:
    /// strings are borrowed from the table, numbers built in place.
    pub fn get(&self, cell: Cell) -> Cow<'_, Value> {
        match cell {
            Cell::Str(code) => Cow::Borrowed(self.value(code)),
            Cell::Int(i) => Cow::Owned(Value::Int(i)),
            Cell::UInt(u) => Cow::Owned(Value::UInt(u)),
            Cell::Float(x) => Cow::Owned(Value::Float(x)),
            Cell::Bool(b) => Cow::Owned(Value::Bool(b)),
        }
    }
}

/// One value of a typed column: a number, or a string as its
/// [`StringTable`] code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A string, by its code in the stream's [`StringTable`].
    Str(u32),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl Cell {
    /// The type of the value the cell holds.
    pub fn value_type(self) -> ValueType {
        match self {
            Cell::Str(_) => ValueType::Str,
            Cell::Int(_) => ValueType::Int,
            Cell::UInt(_) => ValueType::UInt,
            Cell::Float(_) => ValueType::Float,
            Cell::Bool(_) => ValueType::Bool,
        }
    }
}

/// The values of one column, in the vector type of their value type —
/// in a decoded block, the attribute's declared one.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// String codes (see [`StringTable`]).
    Str(Vec<u32>),
    /// Signed integers.
    Int(Vec<i64>),
    /// Unsigned integers.
    UInt(Vec<u64>),
    /// Floating-point numbers.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
}

/// Evaluate `$body` with `$values` bound to the column's vector,
/// whichever type it holds.
macro_rules! with_values {
    ($data:expr, $values:ident => $body:expr) => {
        match $data {
            ColumnData::Str($values) => $body,
            ColumnData::Int($values) => $body,
            ColumnData::UInt($values) => $body,
            ColumnData::Float($values) => $body,
            ColumnData::Bool($values) => $body,
        }
    };
}

impl ColumnData {
    /// Number of values.
    pub fn len(&self) -> usize {
        with_values!(self, v => v.len())
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value. Panics when out of range.
    pub fn get(&self, i: usize) -> Cell {
        match self {
            ColumnData::Str(v) => Cell::Str(v[i]),
            ColumnData::Int(v) => Cell::Int(v[i]),
            ColumnData::UInt(v) => Cell::UInt(v[i]),
            ColumnData::Float(v) => Cell::Float(v[i]),
            ColumnData::Bool(v) => Cell::Bool(v[i]),
        }
    }

    /// The type of the values the column holds.
    pub fn value_type(&self) -> ValueType {
        match self {
            ColumnData::Str(_) => ValueType::Str,
            ColumnData::Int(_) => ValueType::Int,
            ColumnData::UInt(_) => ValueType::UInt,
            ColumnData::Float(_) => ValueType::Float,
            ColumnData::Bool(_) => ValueType::Bool,
        }
    }

    /// An empty column of `vtype` with room for `capacity` values.
    pub fn with_capacity(vtype: ValueType, capacity: usize) -> ColumnData {
        match vtype {
            ValueType::Str => ColumnData::Str(Vec::with_capacity(capacity)),
            ValueType::Int => ColumnData::Int(Vec::with_capacity(capacity)),
            ValueType::UInt => ColumnData::UInt(Vec::with_capacity(capacity)),
            ValueType::Float => ColumnData::Float(Vec::with_capacity(capacity)),
            ValueType::Bool => ColumnData::Bool(Vec::with_capacity(capacity)),
        }
    }

    /// Empty the column and make it hold `vtype`, keeping the buffer
    /// when the type is unchanged (the usual case from block to block).
    fn reset(&mut self, vtype: ValueType) {
        match (&mut *self, vtype) {
            (ColumnData::Str(v), ValueType::Str) => v.clear(),
            (ColumnData::Int(v), ValueType::Int) => v.clear(),
            (ColumnData::UInt(v), ValueType::UInt) => v.clear(),
            (ColumnData::Float(v), ValueType::Float) => v.clear(),
            (ColumnData::Bool(v), ValueType::Bool) => v.clear(),
            _ => *self = ColumnData::with_capacity(vtype, 0),
        }
    }

    /// Append `cell`. Panics unless it is of the column's type.
    pub fn push(&mut self, cell: Cell) {
        match (self, cell) {
            (ColumnData::Str(v), Cell::Str(code)) => v.push(code),
            (ColumnData::Int(v), Cell::Int(i)) => v.push(i),
            (ColumnData::UInt(v), Cell::UInt(u)) => v.push(u),
            (ColumnData::Float(v), Cell::Float(x)) => v.push(x),
            (ColumnData::Bool(v), Cell::Bool(b)) => v.push(b),
            _ => panic!("a cell pushed onto a column of another type"),
        }
    }

    /// Append every value of `other`, a column of the same type — by
    /// taking its buffer when this one is empty.
    fn append(&mut self, other: ColumnData) {
        if self.is_empty() {
            *self = other;
            return;
        }
        match (self, other) {
            (ColumnData::Str(v), ColumnData::Str(mut w)) => v.append(&mut w),
            (ColumnData::Int(v), ColumnData::Int(mut w)) => v.append(&mut w),
            (ColumnData::UInt(v), ColumnData::UInt(mut w)) => v.append(&mut w),
            (ColumnData::Float(v), ColumnData::Float(mut w)) => v.append(&mut w),
            (ColumnData::Bool(v), ColumnData::Bool(mut w)) => v.append(&mut w),
            _ => panic!("a column appended to a column of another type"),
        }
    }

    /// Drop the last value.
    fn pop(&mut self) {
        with_values!(self, v => drop(v.pop()))
    }

    /// Drop every value, keeping the buffer.
    fn clear(&mut self) {
        with_values!(self, v => v.clear())
    }

    /// Overwrite the `to`-th value with the `from`-th.
    fn copy_within(&mut self, from: usize, to: usize) {
        with_values!(self, v => v[to] = v[from])
    }

    /// Keep the first `len` values.
    fn truncate(&mut self, len: usize) {
        with_values!(self, v => v.truncate(len))
    }
}

/// One value column of a decoded [`Block`]: an attribute's immediate
/// values in (row, occurrence) order.
#[derive(Debug, Clone)]
pub struct Column {
    /// The attribute, by its id in the receiving dataset's store.
    pub attr: AttrId,
    /// The values.
    pub data: ColumnData,
}

/// One block of snapshot records as typed columns: what the CALB v2
/// decoder makes of a framed block, what the text reader
/// ([`CaliReader`](crate::CaliReader)) makes of every
/// [`DEFAULT_BLOCK_RECORDS`] `ctx` lines, and what others build row by
/// row ([`push_ref`](Self::push_ref), [`column_for`](Self::column_for),
/// [`push_imm`](Self::push_imm), [`end_row`](Self::end_row)) — the
/// runtime's trace buffer among them — or a column at a time
/// ([`push_columns`](Self::push_columns)), as an aggregation flushes its
/// groups.
///
/// The row skeleton is two flat arrays with per-row end offsets: node
/// references (already remapped into the receiving dataset's context
/// tree) and, per immediate, the index of the column that holds its
/// value. A row's `k`-th immediate of a column is that column's next
/// unconsumed value, so a consumer walks the rows in order with one
/// cursor per column (as [`Block::append_records`] does). A `Block` is
/// only ever handed out fully validated: every immediate has its value
/// and no column has values left over.
#[derive(Debug, Clone, Default)]
pub struct Block {
    ref_ends: Vec<u32>,
    refs: Vec<NodeId>,
    imm_ends: Vec<u32>,
    imms: Vec<u32>,
    columns: Vec<Column>,
}

impl Block {
    /// Snapshot records in the block.
    pub fn rows(&self) -> usize {
        self.ref_ends.len()
    }

    /// The value columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Row `row`'s context-tree node references, in entry order.
    pub fn row_refs(&self, row: usize) -> &[NodeId] {
        let start = if row == 0 { 0 } else { self.ref_ends[row - 1] };
        &self.refs[start as usize..self.ref_ends[row] as usize]
    }

    /// Row `row`'s immediates in entry order, each as the index of the
    /// column whose next value it takes.
    pub fn row_imms(&self, row: usize) -> &[u32] {
        &self.imms[self.imm_span(row)]
    }

    /// Where row `row`'s immediates are among all the block's, which
    /// [`imms`](Self::imms) lists in row order.
    pub(crate) fn imm_span(&self, row: usize) -> std::ops::Range<usize> {
        let start = if row == 0 { 0 } else { self.imm_ends[row - 1] };
        start as usize..self.imm_ends[row] as usize
    }

    /// Every row's immediates, row after row: each the index of the
    /// column whose next value it takes.
    pub(crate) fn imms(&self) -> &[u32] {
        &self.imms
    }

    // A block is built row by row: entries are pushed as a row's values
    // come in, and the row ends once they all have (in the text reader,
    // once the whole line has parsed — or it is taken back).

    /// The index of the column holding `attr`'s values of type `vtype`,
    /// added (empty) on first use. Columns are keyed by both, so a value
    /// of another type than its attribute declares is carried as it is,
    /// in a column of its own.
    pub fn column_for(&mut self, attr: AttrId, vtype: ValueType) -> u32 {
        let found = self
            .columns
            .iter()
            .position(|column| column.attr == attr && column.data.value_type() == vtype);
        found.unwrap_or_else(|| {
            let data = ColumnData::with_capacity(vtype, 0);
            self.columns.push(Column { attr, data });
            self.columns.len() - 1
        }) as u32
    }

    /// Add a node reference to the open row. A row's references come
    /// before its immediates, whatever order they were pushed in.
    pub fn push_ref(&mut self, node: NodeId) {
        self.refs.push(node);
    }

    /// Add an immediate to the open row: the next value of `column`.
    /// Panics unless `cell` is of the column's type.
    pub fn push_imm(&mut self, column: u32, cell: Cell) {
        self.columns[column as usize].data.push(cell);
        self.imms.push(column);
    }

    /// Close the open row. `false` — and the row stays open — when the
    /// block's entries no longer count in 32 bits.
    pub fn end_row(&mut self) -> bool {
        let ends = (self.refs.len().try_into(), self.imms.len().try_into());
        let (Ok(refs), Ok(imms)) = ends else {
            return false;
        };
        self.ref_ends.push(refs);
        self.imm_ends.push(imms);
        true
    }

    /// Append `record` as a row: its node references, then its
    /// immediates in order, each value in its attribute's column of the
    /// value's type and strings as codes of `strings` — the one way a
    /// snapshot record becomes a row. A row holds its references ahead of
    /// its immediates whatever order the record lists them in, as every
    /// writer writes them. `false` — and the block unchanged — when the
    /// block's entries no longer count in 32 bits.
    pub fn push_snapshot(&mut self, strings: &mut StringTable, record: &SnapshotRecord) -> bool {
        for entry in record.entries() {
            match entry {
                Entry::Node(node) => self.push_ref(*node),
                Entry::Imm(attr, value) => {
                    let cell = strings.cell(value);
                    let column = self.column_for(*attr, cell.value_type());
                    self.push_imm(column, cell);
                }
            }
        }
        self.end_row() || {
            self.abandon_row();
            false
        }
    }

    /// Append `rows` rows without node references, given a column at a
    /// time rather than row by row: row `r`'s immediates are, in the
    /// order of `columns`, the next value of each column whose rows
    /// include `r` (`None`: every row) — what pushing them with
    /// [`push_imm`](Self::push_imm) and ending each row would have made.
    /// A column's values join the block's column of its attribute and
    /// type, whole unless two of `columns` share one. `false` — and the
    /// block unchanged — when its entries would no longer count in 32
    /// bits. Panics unless each column says of every row whether it
    /// includes it, and holds one value per row it includes.
    pub fn push_columns(&mut self, rows: usize, columns: Vec<(Column, Option<Vec<bool>>)>) -> bool {
        for (column, included) in &columns {
            let values = included.as_ref().map_or(rows, |included| {
                assert_eq!(included.len(), rows, "rows included of {rows}");
                included.iter().filter(|&&r| r).count()
            });
            assert_eq!(column.data.len(), values, "a column of {values} rows");
        }
        let imms = columns
            .iter()
            .map(|(column, _)| column.data.len())
            .sum::<usize>();
        if u32::try_from(self.imms.len() + imms).is_err() {
            return false;
        }
        let targets: Vec<u32> = columns
            .iter()
            .map(|(column, _)| self.column_for(column.attr, column.data.value_type()))
            .collect();

        // The skeleton, row by row.
        let refs = self.refs.len() as u32;
        self.imms.reserve(imms);
        self.imm_ends.reserve(rows);
        self.ref_ends.resize(self.ref_ends.len() + rows, refs);
        for row in 0..rows {
            for ((_, included), &target) in columns.iter().zip(&targets) {
                if included.as_ref().is_none_or(|rows| rows[row]) {
                    self.imms.push(target);
                }
            }
            self.imm_ends.push(self.imms.len() as u32);
        }

        // The values: a column at a time, or — where two columns feed one
        // — in the skeleton's order.
        let shared = (1..targets.len()).any(|i| targets[..i].contains(&targets[i]));
        if !shared {
            for ((column, _), target) in columns.into_iter().zip(targets) {
                self.columns[target as usize].data.append(column.data);
            }
            return true;
        }
        let mut next = vec![0; columns.len()];
        for row in 0..rows {
            for (k, (column, included)) in columns.iter().enumerate() {
                if included.as_ref().is_none_or(|rows| rows[row]) {
                    let cell = column.data.get(next[k]);
                    next[k] += 1;
                    self.columns[targets[k] as usize].data.push(cell);
                }
            }
        }
        true
    }

    /// Take back everything pushed since the last row ended.
    pub(crate) fn abandon_row(&mut self) {
        let kept_refs = self.ref_ends.last().map_or(0, |&end| end as usize);
        self.refs.truncate(kept_refs);
        let kept = self.imm_ends.last().map_or(0, |&end| end as usize);
        for column in self.imms.drain(kept..) {
            self.columns[column as usize].data.pop();
        }
    }

    /// A new, empty block with this one's columns in the same order and
    /// every buffer pre-sized to what this one holds, and a little more:
    /// the block after it in a stream whose rows keep their shape fills
    /// up without growing a buffer.
    pub fn presized(&self) -> Block {
        let room = |len: usize| len + len / 32;
        let columns = self.columns.iter().map(|column| Column {
            attr: column.attr,
            data: ColumnData::with_capacity(column.data.value_type(), room(column.data.len())),
        });
        Block {
            ref_ends: Vec::with_capacity(room(self.ref_ends.len())),
            refs: Vec::with_capacity(room(self.refs.len())),
            imm_ends: Vec::with_capacity(room(self.imm_ends.len())),
            imms: Vec::with_capacity(room(self.imms.len())),
            columns: columns.collect(),
        }
    }

    /// Empty the block, keeping its columns (and every buffer) for the
    /// stream's next rows.
    pub fn clear(&mut self) {
        self.ref_ends.clear();
        self.refs.clear();
        self.imm_ends.clear();
        self.imms.clear();
        for column in &mut self.columns {
            column.data.clear();
        }
    }

    /// Keep the rows `keep` answers `true` for (asked once per row, in
    /// order) and close the gaps the others leave, in the skeleton and in
    /// every column.
    pub(crate) fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        // Per column: the next value to read, and where the next kept
        // one goes.
        let mut cursors = vec![(0usize, 0usize); self.columns.len()];
        let (mut rows, mut refs, mut imms) = (0, 0, 0);
        let (mut ref_start, mut imm_start) = (0, 0);
        for row in 0..self.rows() {
            let (ref_end, imm_end) = (self.ref_ends[row] as usize, self.imm_ends[row] as usize);
            let kept = keep(row);
            if kept {
                self.refs.copy_within(ref_start..ref_end, refs);
                refs += ref_end - ref_start;
            }
            for i in imm_start..imm_end {
                let c = self.imms[i];
                let (from, to) = &mut cursors[c as usize];
                if kept {
                    self.columns[c as usize].data.copy_within(*from, *to);
                    *to += 1;
                    self.imms[imms] = c;
                    imms += 1;
                }
                *from += 1;
            }
            if kept {
                // No larger than the ends they replace.
                self.ref_ends[rows] = refs as u32;
                self.imm_ends[rows] = imms as u32;
                rows += 1;
            }
            (ref_start, imm_start) = (ref_end, imm_end);
        }
        self.ref_ends.truncate(rows);
        self.imm_ends.truncate(rows);
        self.refs.truncate(refs);
        self.imms.truncate(imms);
        for (column, (_, kept)) in self.columns.iter_mut().zip(cursors) {
            column.data.truncate(kept);
        }
    }

    /// Materialise the block's rows as snapshot records, in order — node
    /// references first, then immediates, exactly what the v1 decoder
    /// builds for the same records. `strings` is the table the block's
    /// string codes refer to.
    pub fn records<'a>(
        &'a self,
        strings: &'a StringTable,
    ) -> impl Iterator<Item = SnapshotRecord> + 'a {
        let mut cursors = vec![0usize; self.columns.len()];
        (0..self.rows()).map(move |row| {
            let (refs, imms) = (self.row_refs(row), self.row_imms(row));
            let mut entries = Vec::with_capacity(refs.len() + imms.len());
            entries.extend(refs.iter().map(|&node| Entry::Node(node)));
            for &c in imms {
                let column = &self.columns[c as usize];
                let cell = column.data.get(cursors[c as usize]);
                cursors[c as usize] += 1;
                entries.push(Entry::Imm(column.attr, strings.get(cell).into_owned()));
            }
            SnapshotRecord::from_entries(entries)
        })
    }

    /// [`records`](Self::records), appended to `out`.
    pub fn append_records(&self, strings: &StringTable, out: &mut Vec<SnapshotRecord>) {
        out.reserve(self.rows());
        out.extend(self.records(strings));
    }
}

/// Marks a [`Demand`] no column has answered yet.
const NO_COLUMN: u32 = u32::MAX;

/// What a block's skeleton asks of one stream attribute id: how many
/// immediates want a value, and which column supplies them.
struct Demand {
    attr_id: u64,
    imms: u64,
    column: u32,
}

/// One row shape of a block: the node references each of its rows
/// carries, and where its immediates are in [`BlockDecoder::shape_imms`].
struct Shape {
    refs: u64,
    imms: std::ops::Range<usize>,
}

/// The one CALB v2 block decoder: payload bytes in, a validated
/// [`Block`] of typed columns out. The block's arrays and the decoder's
/// scratch are reused from block to block.
#[derive(Default)]
struct BlockDecoder {
    block: Block,
    /// Columns of earlier blocks, kept for their buffers.
    spare: Vec<Column>,
    /// The block's distinct stream attribute ids in first-appearance
    /// order over the shapes.
    demands: Vec<Demand>,
    demand_of: FxHashMap<u64, u32>,
    shapes: Vec<Shape>,
    /// Every shape's immediates, shape after shape: until the columns
    /// are matched an index into `demands`, then the column's.
    shape_imms: Vec<u32>,
    /// The rows, as (rows, shape) runs.
    runs: Vec<(u32, u32)>,
    /// The block dictionary's string codes in the stream's table.
    codes: Vec<u32>,
}

/// Read a count of items of at least `min_bytes` bytes each, refusing
/// one the rest of the payload cannot hold: what a corrupt count can
/// make a reader reserve stays bounded by the payload.
fn count(payload: &mut Cursor<'_>, min_bytes: usize, what: &str) -> Result<usize, CaliError> {
    let n = payload.varint()?;
    if n > ((payload.bytes.len() - payload.pos) / min_bytes) as u64 {
        return Err(payload.err(format!("{n} {what} overrun the block payload")));
    }
    Ok(n as usize)
}

impl BlockDecoder {
    fn demand(&mut self, attr_id: u64) -> u32 {
        let demands = &mut self.demands;
        *self.demand_of.entry(attr_id).or_insert_with(|| {
            demands.push(Demand {
                attr_id,
                imms: 0,
                column: NO_COLUMN,
            });
            (demands.len() - 1) as u32
        })
    }

    /// Decode one block payload into `self.block`. Returns `Ok(false)`
    /// when the pushdown proves no record can match (the caller accounts
    /// the skip). Only after `Ok(true)` is the block complete and
    /// validated, and only then are its strings interned in `strings`;
    /// nothing downstream sees it otherwise, so a corrupt block never
    /// leaves partial rows or strings behind.
    fn decode(
        &mut self,
        payload: &mut Cursor<'_>,
        decoder: &BinaryDecoder,
        strings: &mut StringTable,
        report: &mut ReadReport,
        pushdown: Option<&Pushdown>,
        store: &AttributeStore,
    ) -> Result<bool, CaliError> {
        let rows = payload.varint()?;
        if rows > MAX_BLOCK_RECORDS as u64 {
            return Err(payload.err(format!("block of {rows} records, more than a block holds")));
        }

        // Zone maps, each under the attribute the dictionary maps its
        // stream id to: the map that decodes the block's columns.
        let nzones = payload.varint()?;
        let mut zones: Vec<(AttrId, ZoneStat)> = Vec::new();
        for _ in 0..nzones {
            let attr_id = payload.varint()?;
            let present = payload.varint()?;
            if present > rows {
                return Err(payload.err("zone presence count exceeds block rows"));
            }
            let (attr, vtype) = decoder.lookup_attr(payload, attr_id, "zone", report)?;
            let min = get_value(payload, vtype)?;
            let max = get_value(payload, vtype)?;
            zones.push((attr, ZoneStat { present, min, max }));
        }

        if let Some(pd) = pushdown {
            // A name the stream never declared is in no row; one zone is
            // the attribute's; two stream ids naming one attribute, or an
            // attribute a re-declared id once named (its nodes may still
            // carry it), leave the block undecided.
            let stats = |name: &str| -> AttrStats<'_> {
                let Some(attr) = store.find(name).map(|a| a.id()) else {
                    return AttrStats::Absent;
                };
                if decoder.renamed.contains(&attr) {
                    return AttrStats::Unsure;
                }
                let mut found = zones.iter().filter(|(id, _)| *id == attr);
                match (found.next(), found.next()) {
                    (None, _) => AttrStats::Absent,
                    (Some((_, zone)), None) => AttrStats::Zone(zone),
                    (Some(_), Some(_)) => AttrStats::Unsure,
                }
            };
            if !pd.may_match(rows, stats) {
                return Ok(false);
            }
        }

        self.block.clear();
        self.spare.extend(self.block.columns.drain(..).rev());
        self.demands.clear();
        self.demand_of.clear();
        self.shapes.clear();
        self.shape_imms.clear();
        self.runs.clear();

        // The shape table: per shape, `n_refs` and the immediates'
        // attribute ids.
        for _ in 0..count(payload, 2, "row shapes")? {
            let refs = payload.varint()?;
            let start = self.shape_imms.len();
            for _ in 0..count(payload, 1, "shape immediates")? {
                let attr_id = payload.varint()?;
                decoder.lookup_attr(payload, attr_id, "shape", report)?;
                let demand = self.demand(attr_id);
                self.shape_imms.push(demand);
            }
            let imms = start..self.shape_imms.len();
            self.shapes.push(Shape { refs, imms });
        }

        // The runs, which must cover the rows exactly; each adds its
        // rows' references and immediates to what the block asks for.
        let (mut covered, mut refs, mut imms) = (0u64, 0u64, 0u64);
        for _ in 0..count(payload, 2, "runs")? {
            let len = payload.varint()?;
            let shape = payload.varint()?;
            if len == 0 {
                return Err(payload.err("a run of no rows"));
            }
            covered = covered.saturating_add(len);
            if covered > rows {
                return Err(payload.err(format!("runs cover more than the block's {rows} rows")));
            }
            let Some(row) = self.shapes.get(shape as usize) else {
                return Err(payload.err(format!("run of shape {shape} of {}", self.shapes.len())));
            };
            refs = refs.saturating_add(len.saturating_mul(row.refs));
            imms = imms.saturating_add(len.saturating_mul(row.imms.len() as u64));
            for &demand in &self.shape_imms[row.imms.clone()] {
                let demand = &mut self.demands[demand as usize];
                demand.imms = demand.imms.saturating_add(len);
            }
            self.runs.push((len as u32, shape as u32));
        }
        if covered != rows {
            return Err(payload.err(format!("runs cover {covered} of the block's {rows} rows")));
        }
        if refs > u32::MAX as u64 || imms > u32::MAX as u64 {
            return Err(payload.err("block skeleton exceeds 2^32 entries"));
        }

        // Node references, every one of at least a byte.
        if refs > (payload.bytes.len() - payload.pos) as u64 {
            return Err(payload.err(format!("{refs} node references overrun the block payload")));
        }
        self.block.refs.reserve(refs as usize);
        for _ in 0..refs {
            let id = payload.varint()?;
            match decoder.node_map.get(&id) {
                Some(local) => self.block.refs.push(*local),
                None => {
                    report.dangling_dropped += 1;
                    return Err(payload.err(format!("ref to unknown node {id}")));
                }
            }
        }

        // The block dictionary, each string checked once; interned only
        // once the whole block has validated.
        let nstrings = count(payload, 1, "strings")?;
        let mut texts = Vec::with_capacity(nstrings);
        for _ in 0..nstrings {
            let len = payload.varint()? as usize;
            let text = std::str::from_utf8(payload.take(len)?)
                .map_err(|_| payload.err("invalid UTF-8 in string value"))?;
            texts.push(text);
        }

        // Value columns, each into the vector of its declared type, and
        // each exactly as long as the skeleton asks.
        for _ in 0..count(payload, 2, "value columns")? {
            let attr_id = payload.varint()?;
            let (attr, vtype) = decoder.lookup_attr(payload, attr_id, "column", report)?;
            let nvalues = payload.varint()?;
            let demand = self.demand(attr_id) as usize;
            let demand = &mut self.demands[demand];
            if demand.column != NO_COLUMN {
                return Err(payload.err(format!("duplicate value column for attribute {attr_id}")));
            }
            match nvalues.cmp(&demand.imms) {
                std::cmp::Ordering::Less => {
                    return Err(payload.err(format!("value column underrun for {attr_id}")))
                }
                std::cmp::Ordering::Greater => return Err(payload.err("value column overrun")),
                std::cmp::Ordering::Equal => {}
            }
            demand.column = self.block.columns.len() as u32;
            let mut column = self.spare.pop().unwrap_or(Column {
                attr,
                data: ColumnData::Int(Vec::new()),
            });
            column.attr = attr;
            column.data.reset(vtype);
            let filled = fill_column(&mut column.data, nvalues, payload, texts.len());
            self.block.columns.push(column);
            filled?;
        }
        if let Some(short) = self
            .demands
            .iter()
            .find(|d| d.column == NO_COLUMN && d.imms > 0)
        {
            return Err(payload.err(format!("value column underrun for {}", short.attr_id)));
        }
        if !payload.at_end() {
            return Err(payload.err("trailing bytes in block payload"));
        }

        // The block is valid: intern its strings, and lay the rows out.
        self.codes.clear();
        self.codes
            .extend(texts.iter().map(|text| strings.intern(text)));
        for column in &mut self.block.columns {
            if let ColumnData::Str(values) = &mut column.data {
                values.iter_mut().for_each(|v| *v = self.codes[*v as usize]);
            }
        }
        for imm in &mut self.shape_imms {
            *imm = self.demands[*imm as usize].column;
        }
        let block = &mut self.block;
        block.ref_ends.reserve(rows as usize);
        block.imm_ends.reserve(rows as usize);
        block.imms.reserve(imms as usize);
        let mut ref_end = 0u32;
        for &(len, shape) in &self.runs {
            let shape = &self.shapes[shape as usize];
            let row = &self.shape_imms[shape.imms.clone()];
            for _ in 0..len {
                ref_end += shape.refs as u32;
                block.ref_ends.push(ref_end);
                block.imms.extend_from_slice(row);
                block.imm_ends.push(block.imms.len() as u32);
            }
        }
        Ok(true)
    }
}

/// Decode `nvalues` values of `data`'s type from the payload; a string
/// is its index among the block's `nstrings` strings until the block is
/// known to be valid.
fn fill_column(
    data: &mut ColumnData,
    nvalues: u64,
    payload: &mut Cursor<'_>,
    nstrings: usize,
) -> Result<(), CaliError> {
    // Every value takes at least one byte, which bounds what a corrupt
    // count can make us reserve.
    let reserve = (nvalues as usize).min(payload.bytes.len() - payload.pos);
    match data {
        ColumnData::Str(v) => {
            v.reserve(reserve);
            for _ in 0..nvalues {
                let index = payload.varint()?;
                if index >= nstrings as u64 {
                    return Err(payload.err(format!("string {index} of the block's {nstrings}")));
                }
                v.push(index as u32);
            }
        }
        ColumnData::Int(v) => {
            v.reserve(reserve);
            for _ in 0..nvalues {
                v.push(payload.zigzag()?);
            }
        }
        ColumnData::UInt(v) => {
            v.reserve(reserve);
            for _ in 0..nvalues {
                v.push(payload.varint()?);
            }
        }
        ColumnData::Float(v) => {
            v.reserve(reserve);
            for _ in 0..nvalues {
                v.push(payload.f64()?);
            }
        }
        ColumnData::Bool(v) => {
            v.reserve(reserve);
            for _ in 0..nvalues {
                v.push(payload.u8()? != 0);
            }
        }
    }
    Ok(())
}

/// Fire the `v2.block` failpoint for block `ordinal` of the stream the
/// report is attributed to. Keys on the block ordinal (stable across
/// runs and thread counts), so a `corrupt(...)` or `err(p, seed)` rule
/// damages the *same* blocks no matter who decodes them. Returns an
/// injected decode error, an optionally-corrupted copy of the payload,
/// or `Ok(None)` to decode the original bytes (the armed-faults check
/// is one atomic load, so the hot path stays copy-free).
fn block_fault(
    report: &ReadReport,
    ordinal: u64,
    payload: &[u8],
) -> Result<Option<Vec<u8>>, CaliError> {
    use caliper_faults::sites;
    let Some(faults) = caliper_faults::global() else {
        return Ok(None);
    };
    let label = match &report.path {
        Some(p) => p.to_string_lossy().into_owned(),
        None => String::new(),
    };
    if faults.trigger(sites::V2_BLOCK, ordinal, &label).is_some() {
        let payload = Cursor { bytes: payload, pos: 0 };
        return Err(payload.err(format!("injected fault at {}", sites::V2_BLOCK)));
    }
    let mut owned = payload.to_vec();
    if faults.mutate(sites::V2_BLOCK, ordinal, &label, &mut owned) {
        Ok(Some(owned))
    } else {
        Ok(None)
    }
}

/// What a scan of a text or v2 stream hands its consumer per block: the
/// dataset the stream's dictionary is decoded into (store, context tree,
/// globals), the stream's string dictionary, and the block's columns.
/// The block is the consumer's until it returns (journal recovery takes
/// duplicate rows out of it before passing it on); the reader refills
/// it from scratch.
pub type BlockSink<'a> = dyn FnMut(&mut Dataset, &mut StringTable, &mut Block) + 'a;

/// The [`BlockSink`] of every reader that returns rows: derive the
/// block's snapshot records from its columns and append them to `ds`.
pub(crate) fn append_rows(ds: &mut Dataset, strings: &mut StringTable, block: &mut Block) {
    block.append_records(strings, &mut ds.records);
}

/// Walk a v2 stream body (cursor positioned just past the version
/// byte) under `policy` with optional predicate pushdown: dictionary and
/// globals records are decoded into `ds`, every block that survives the
/// pushdown and validates is handed to `on_block` in stream order, one
/// block in memory at a time. Without an `on_block` nobody will look at
/// snapshots, and every block is hopped over at its length frame,
/// undecoded. Called from [`crate::binary::scan_binary_into`].
pub(crate) fn scan_v2_body(
    mut cursor: Cursor<'_>,
    ds: &mut Dataset,
    policy: ReadPolicy,
    report: &mut ReadReport,
    pushdown: Option<&Pushdown>,
    mut on_block: Option<&mut BlockSink<'_>>,
) -> Result<(), CaliError> {
    let mut decoder = BinaryDecoder::new();
    let mut strings = StringTable::default();
    let mut blocks = BlockDecoder::default();
    let pushdown = pushdown.filter(|pd| !pd.is_empty());
    while !cursor.at_end() {
        let tag = cursor.bytes[cursor.pos];
        match tag {
            TAG_BLOCK => {
                // The length frame is the resync point: if it is torn,
                // nothing after it is addressable (valid-prefix stop);
                // if only the payload is corrupt, skip to the next
                // record boundary and keep going.
                let payload_bytes = match read_block_frame(&mut cursor) {
                    Ok(bytes) => bytes,
                    Err(e) => return lenient_stop(policy, report, e),
                };
                report.blocks += 1;
                let Some(on_block) = on_block.as_deref_mut() else { continue };
                let ordinal = report.blocks - 1;
                let decoded = match block_fault(report, ordinal, payload_bytes) {
                    Err(e) => Err(e),
                    Ok(faulted) => {
                        let mut payload = Cursor {
                            bytes: faulted.as_deref().unwrap_or(payload_bytes),
                            pos: 0,
                        };
                        blocks.decode(&mut payload, &decoder, &mut strings, report, pushdown, &ds.store)
                    }
                };
                // A payload cursor counts from the payload's first byte.
                let decoded = decoded.map_err(|e| match e {
                    CaliError::Decode { byte, message, .. } => CaliError::Decode {
                        block: Some(ordinal),
                        byte,
                        message,
                    },
                    other => other,
                });
                match decoded {
                    Ok(true) => {
                        report.records += blocks.block.rows() as u64;
                        on_block(ds, &mut strings, &mut blocks.block);
                    }
                    Ok(false) => report.blocks_skipped += 1,
                    Err(e) => {
                        if !policy.is_lenient() {
                            return Err(e);
                        }
                        report.skipped += 1;
                        report.note_error(e.to_string());
                        if report.skipped > policy.max_errors() {
                            return Err(e);
                        }
                        // Resync: the cursor already sits past the
                        // block's length frame.
                    }
                }
            }
            TAG_FOOTER => {
                if let Err(e) = skip_footer(&mut cursor) {
                    return lenient_stop(policy, report, e);
                }
            }
            _ => match decoder.read_record(&mut cursor, ds, report) {
                Ok(is_data) => report.records += is_data as u64,
                Err(e) => return lenient_stop(policy, report, e),
            },
        }
    }
    Ok(())
}

/// v1-style valid-prefix error handling: keep what decoded, mark the
/// report truncated, fail outright under [`ReadPolicy::Strict`].
fn lenient_stop(policy: ReadPolicy, report: &mut ReadReport, e: CaliError) -> Result<(), CaliError> {
    if !policy.is_lenient() {
        return Err(e);
    }
    report.skipped += 1;
    report.truncated = true;
    report.note_error(e.to_string());
    if report.skipped > policy.max_errors() {
        return Err(e);
    }
    Ok(())
}

/// Parse the footer block index from the tail of a v2 stream, if one is
/// present and internally consistent: the end magic and length frame
/// must check out and every offset must point at a `TAG_BLOCK` byte.
/// Returns `None` for v1 streams, footerless v2 streams, and damaged
/// tails (sequential scanning always remains available).
pub fn read_footer(bytes: &[u8]) -> Option<Vec<BlockInfo>> {
    if bytes.len() < 5 + 8 || !bytes.starts_with(MAGIC) || bytes[4] != VERSION_V2 {
        return None;
    }
    if &bytes[bytes.len() - 4..] != END_MAGIC {
        return None;
    }
    let len_at = bytes.len() - 8;
    let framed_len = bytes[len_at..len_at + 4]
        .try_into()
        .map(u32::from_le_bytes)
        .ok()? as usize;
    let footer_start = len_at.checked_sub(framed_len)?;
    if footer_start < 5 || bytes[footer_start] != TAG_FOOTER {
        return None;
    }
    let mut cursor = Cursor {
        bytes: &bytes[footer_start..len_at],
        pos: 0,
    };
    cursor.u8().ok()?;
    let nblocks = cursor.varint().ok()?;
    let mut index = Vec::new();
    for _ in 0..nblocks {
        let offset = cursor.varint().ok()?;
        let rows = cursor.varint().ok()?;
        if offset as usize >= footer_start || bytes[offset as usize] != TAG_BLOCK {
            return None;
        }
        index.push(BlockInfo { offset, rows });
    }
    if !cursor.at_end() {
        return None;
    }
    Some(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{from_binary, from_binary_with, read_binary_into_filtered, to_binary};
    use crate::pushdown::{CmpOp, Filter};
    use caliper_data::{Properties, SnapshotRecord, NODE_NONE};

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
        let iter = ds.attribute("iteration", ValueType::Int, Properties::AS_VALUE);
        let dur = ds.attribute(
            "time.duration",
            ValueType::Float,
            Properties::AS_VALUE | Properties::AGGREGATABLE,
        );
        let flag = ds.attribute("flag", ValueType::Bool, Properties::AS_VALUE);
        let count = ds.attribute("n", ValueType::UInt, Properties::AS_VALUE);
        ds.set_global("experiment", "v2-test");
        let main = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
        let foo = ds.tree.get_child(main, func.id(), &Value::str("foo"));
        for i in 0..50i64 {
            let mut rec = SnapshotRecord::new();
            rec.push_node(if i % 3 == 0 { main } else { foo });
            rec.push_imm(iter.id(), Value::Int(i));
            rec.push_imm(dur.id(), Value::Float(i as f64 * 0.25));
            rec.push_imm(flag.id(), Value::Bool(i % 2 == 0));
            rec.push_imm(count.id(), Value::UInt(i as u64 * 1000));
            ds.push(rec);
        }
        ds
    }

    fn describe_all(ds: &Dataset) -> Vec<String> {
        ds.flat_records().map(|r| r.describe(&ds.store)).collect()
    }

    #[test]
    fn v2_decodes_to_the_same_dataset_as_v1() {
        let ds = sample();
        let v1 = from_binary(&to_binary(&ds)).unwrap();
        let v2 = from_binary(&to_binary_v2_with(&ds, 8)).unwrap();
        assert_eq!(v2.len(), v1.len());
        assert_eq!(describe_all(&v2), describe_all(&v1));
        assert_eq!(v2.global("experiment"), Some(Value::str("v2-test")));
        // Byte-stable re-encode: both decoded datasets serialize to the
        // exact same v1 (and v2) bytes.
        assert_eq!(to_binary(&v1), to_binary(&v2));
        assert_eq!(to_binary_v2(&v1), to_binary_v2(&v2));
    }

    #[test]
    fn v2_report_counts_blocks() {
        let ds = sample();
        let bytes = to_binary_v2_with(&ds, 8);
        let (back, report) = from_binary_with(&bytes, ReadPolicy::Strict).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(report.blocks, 50usize.div_ceil(8) as u64);
        assert_eq!(report.blocks_skipped, 0);
        assert_eq!(report.records, 50 + 1); // snapshots + globals
    }

    #[test]
    fn footer_indexes_every_block() {
        let ds = sample();
        let bytes = to_binary_v2_with(&ds, 8);
        let index = read_footer(&bytes).unwrap();
        assert_eq!(index.len(), 50usize.div_ceil(8));
        assert_eq!(index.iter().map(|b| b.rows).sum::<u64>(), 50);
        for info in &index {
            assert_eq!(bytes[info.offset as usize], TAG_BLOCK);
        }
        // The footer is the stream's tail: its record, its length and
        // the end magic.
        let footer_len =
            u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().unwrap());
        let no_footer = &bytes[..bytes.len() - 8 - footer_len as usize];
        assert!(read_footer(no_footer).is_none());
        assert!(read_footer(&to_binary(&ds)).is_none());
        // A footerless stream still decodes fully.
        assert_eq!(from_binary(no_footer).unwrap().len(), ds.len());
    }

    #[test]
    fn pushdown_skips_blocks_and_keeps_all_matches() {
        let ds = sample();
        let bytes = to_binary_v2_with(&ds, 8);
        let mut pd = Pushdown::new();
        // iteration >= 40: only the last two 8-record blocks qualify.
        pd.push(Filter::Cmp {
            attr: "iteration".into(),
            op: CmpOp::Ge,
            value: Value::Int(40),
        });
        let mut report = ReadReport::default();
        let got = read_binary_into_filtered(
            &bytes,
            Dataset::new(),
            ReadPolicy::Strict,
            &mut report,
            Some(&pd),
        )
        .unwrap();
        assert!(report.blocks_skipped >= 5, "{report:?}");
        assert_eq!(report.blocks, 7);
        // Every record with iteration >= 40 must survive.
        let iter = got.store.find("iteration").unwrap();
        let survivors: Vec<i64> = got
            .records
            .iter()
            .filter_map(|r| {
                r.entries().iter().find_map(|e| match e {
                    Entry::Imm(a, Value::Int(i)) if *a == iter.id() => Some(*i),
                    _ => None,
                })
            })
            .collect();
        for want in 40..50 {
            assert!(survivors.contains(&want), "iteration {want} lost");
        }
    }

    #[test]
    fn pushdown_on_absent_attribute_skips_everything() {
        let ds = sample();
        let bytes = to_binary_v2_with(&ds, 8);
        let mut pd = Pushdown::new();
        pd.push(Filter::Exists("no.such.attr".into()));
        let mut report = ReadReport::default();
        let got = read_binary_into_filtered(
            &bytes,
            Dataset::new(),
            ReadPolicy::Strict,
            &mut report,
            Some(&pd),
        )
        .unwrap();
        assert_eq!(got.records.len(), 0);
        assert_eq!(report.blocks_skipped, report.blocks);
        // Globals are not blocks and always survive.
        assert_eq!(got.global("experiment"), Some(Value::str("v2-test")));
    }

    #[test]
    fn truncation_at_every_byte_never_panics() {
        let ds = sample();
        let bytes = to_binary_v2_with(&ds, 8);
        let full = from_binary(&bytes).unwrap().len();
        let mut last = 0usize;
        for cut in 0..=bytes.len() {
            let _ = from_binary(&bytes[..cut]); // strict must not panic
            if cut >= 5 {
                let (prefix, _report) =
                    from_binary_with(&bytes[..cut], ReadPolicy::lenient()).unwrap();
                assert!(prefix.len() >= last, "cut {cut}");
                last = prefix.len();
            }
        }
        assert_eq!(last, full);
    }

    #[test]
    fn lenient_resyncs_past_a_corrupt_block() {
        let ds = sample();
        let bytes = to_binary_v2_with(&ds, 8);
        let index = read_footer(&bytes).unwrap();
        // Wreck the first block's payload (row count varint) without
        // touching its length frame.
        let mut corrupt = bytes.clone();
        let mut cursor = Cursor {
            bytes: &bytes,
            pos: index[0].offset as usize,
        };
        cursor.u8().unwrap();
        cursor.varint().unwrap();
        let payload_start = cursor.pos;
        corrupt[payload_start] = 0xff;
        let (back, report) = from_binary_with(&corrupt, ReadPolicy::lenient()).unwrap();
        // Block 0 is lost, every later block survives the resync.
        assert_eq!(back.len(), ds.len() - index[0].rows as usize);
        assert_eq!(report.skipped, 1);
        assert!(!report.truncated, "resync is not truncation: {report:?}");
        assert!(from_binary(&corrupt).is_err(), "strict must fail");
    }

    #[test]
    fn corrupt_dictionary_record_is_a_valid_prefix_stop() {
        let ds = sample();
        let bytes = to_binary_v2_with(&ds, 8);
        let mut corrupt = bytes.clone();
        corrupt[5] = 0x7f; // first record tag becomes unknown
        let (back, report) = from_binary_with(&corrupt, ReadPolicy::lenient()).unwrap();
        assert_eq!(back.len(), 0);
        assert!(report.truncated);
        assert!(from_binary(&corrupt).is_err());
    }

    #[test]
    fn retain_rows_closes_the_gaps_in_skeleton_and_columns() {
        // Rows of different shapes: with and without a node, an
        // attribute twice in a row, a column some rows skip.
        let mut ds = sample();
        let iter = ds.store.find("iteration").unwrap().id();
        let n = ds.store.find("n").unwrap().id();
        for (i, rec) in ds.records.iter_mut().enumerate() {
            if i % 4 == 1 {
                rec.push_imm(iter, Value::Int(-(i as i64)));
            }
            if i % 5 == 2 {
                *rec = SnapshotRecord::from_entries(vec![Entry::Imm(n, Value::UInt(i as u64))]);
            }
        }
        let bytes = to_binary_v2_with(&ds, 8);
        for pattern in [0b1usize, 0b10110, 0b0, usize::MAX] {
            let keep = |row: usize| pattern >> (row % 7) & 1 == 1;
            let mut blocks = 0;
            let mut out = Dataset::new();
            let read = crate::binary::scan_binary_into(
                &bytes,
                &mut out,
                ReadPolicy::Strict,
                &mut ReadReport::default(),
                None,
                Some(&mut |_, strings, block| {
                    blocks += 1;
                    let mut all = Vec::new();
                    block.append_records(strings, &mut all);
                    block.retain_rows(keep);
                    let mut kept = Vec::new();
                    block.append_records(strings, &mut kept);
                    let want: Vec<_> = (0..all.len()).filter(|&row| keep(row)).collect();
                    assert_eq!(kept.len(), want.len());
                    assert_eq!(block.rows(), want.len());
                    for (kept, row) in kept.iter().zip(want) {
                        assert_eq!(kept, &all[row], "pattern {pattern:#b}, row {row}");
                    }
                    let values: usize = block.columns().iter().map(|c| c.data.len()).sum();
                    let imms: usize = (0..block.rows()).map(|r| block.row_imms(r).len()).sum();
                    assert_eq!(values, imms, "no value left over");
                }),
            );
            read.unwrap();
            assert_eq!(blocks, 7);
        }
    }

    #[test]
    fn a_built_block_keys_columns_by_type() {
        // Rows of 0, 1 and 3 immediates, and an attribute with values of
        // two types.
        let mut strings = StringTable::default();
        let (x, y) = (strings.intern("x"), strings.intern("y"));
        let mut block = Block::default();
        let rows: [&[(AttrId, Cell)]; 4] = [
            &[(1, Cell::Int(1)), (2, Cell::Str(x)), (1, Cell::Str(y))],
            &[],
            &[(1, Cell::Str(x))],
            &[(2, Cell::Float(0.5)), (1, Cell::Int(-3))],
        ];
        for row in rows {
            for &(attr, cell) in row {
                let column = block.column_for(attr, cell.value_type());
                block.push_imm(column, cell);
            }
            assert!(block.end_row());
        }
        assert_eq!(
            block.columns().len(),
            4,
            "(1, int), (2, str), (1, str), (2, float)"
        );
        let mut records = Vec::new();
        block.append_records(&strings, &mut records);
        for (record, row) in records.iter().zip(rows) {
            let entry =
                |&(attr, cell): &(AttrId, Cell)| Entry::Imm(attr, strings.get(cell).into_owned());
            let want: Vec<Entry> = row.iter().map(entry).collect();
            assert_eq!(record.entries(), &want[..]);
        }
        assert_eq!(records.len(), 4);

        // The next block of the stream: the same columns, empty.
        let next = block.presized();
        assert_eq!(next.rows(), 0);
        let keys = |block: &Block| -> Vec<(AttrId, ValueType)> {
            let columns = block.columns().iter();
            columns.map(|c| (c.attr, c.data.value_type())).collect()
        };
        assert_eq!(keys(&next), keys(&block));
        assert!(next.columns().iter().all(|c| c.data.is_empty()));
    }

    #[test]
    fn columns_pushed_whole_make_the_rows_pushed_one_by_one() {
        // After a row pushed the usual way: a dense column, a sparse one
        // and, in the same place of the row, a column of another type for
        // the rows the sparse one skips — and two columns that share a
        // block column, whose values must interleave row by row.
        let mut strings = StringTable::default();
        let (x, y) = (strings.intern("x"), strings.intern("y"));
        let column = |attr, data| Column { attr, data };
        let columns = vec![
            (column(1, ColumnData::Int(vec![4, 5, 6])), None),
            (
                column(2, ColumnData::Str(vec![x, y])),
                Some(vec![true, false, true]),
            ),
            (
                column(2, ColumnData::Float(vec![0.5])),
                Some(vec![false, true, false]),
            ),
            (column(3, ColumnData::UInt(vec![7, 8, 9])), None),
            (
                column(1, ColumnData::Int(vec![-1, -2])),
                Some(vec![false, true, true]),
            ),
        ];
        let mut by_row = Block::default();
        let mut whole = Block::default();
        for block in [&mut by_row, &mut whole] {
            let column = block.column_for(1, ValueType::Int);
            block.push_imm(column, Cell::Int(0));
            assert!(block.end_row());
        }
        let rows = 3;
        let mut next = vec![0; columns.len()];
        for row in 0..rows {
            for ((pushed, included), next) in columns.iter().zip(&mut next) {
                if included.as_ref().is_none_or(|rows: &Vec<bool>| rows[row]) {
                    let column = by_row.column_for(pushed.attr, pushed.data.value_type());
                    by_row.push_imm(column, pushed.data.get(*next));
                    *next += 1;
                }
            }
            assert!(by_row.end_row());
        }
        assert!(whole.push_columns(rows, columns.clone()));
        let records = |block: &Block| block.records(&strings).collect::<Vec<_>>();
        assert_eq!(records(&whole), records(&by_row));
        assert_eq!(whole.rows(), 4);
        // The same columns, if not in the same order.
        let values = |block: &Block| -> Vec<String> {
            let columns = block.columns().iter();
            let mut values: Vec<String> = columns
                .map(|c| format!("{} {:?}", c.attr, c.data))
                .collect();
            values.sort();
            values
        };
        assert_eq!(values(&whole), values(&by_row));

        // Unshared columns are appended whole.
        let mut block = Block::default();
        assert!(block.push_columns(rows, columns[..4].to_vec()));
        assert_eq!(block.columns().len(), 4);
        assert_eq!(block.row_imms(1), &[0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "a column of 2 rows")]
    fn a_column_short_of_its_rows_is_refused() {
        let column = Column {
            attr: 1,
            data: ColumnData::Int(vec![1]),
        };
        Block::default().push_columns(2, vec![(column, Some(vec![true, true]))]);
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::new();
        let bytes = to_binary_v2(&ds);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(read_footer(&bytes).unwrap().len(), 0);
    }

    #[test]
    fn file_roundtrip_v2() {
        let dir = std::env::temp_dir().join("caliper-binary-v2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.calb");
        let ds = sample();
        write_file_v2(&ds, &path).unwrap();
        let back = crate::binary::read_file(&path).unwrap();
        assert_eq!(back.len(), ds.len());
        std::fs::remove_file(&path).ok();
    }

    /// The dataset of `docs/CALB.md` §6.
    fn spec_example() -> Dataset {
        let mut ds = Dataset::new();
        let region = ds.attribute("region", ValueType::Str, Properties::NESTED);
        let rank = ds.attribute("rank", ValueType::Int, Properties::AS_VALUE);
        let phase = ds.attribute("phase", ValueType::Str, Properties::AS_VALUE);
        let main = ds
            .tree
            .get_child(NODE_NONE, region.id(), &Value::str("main"));
        for r in 0..2 {
            let mut rec = SnapshotRecord::new();
            rec.push_node(main);
            rec.push_imm(rank.id(), Value::Int(r));
            rec.push_imm(phase.id(), Value::str("init"));
            ds.push(rec);
        }
        ds
    }

    /// The bytes of the first `text` fence under `heading` in
    /// `docs/CALB.md`: each line's leading two-digit hex tokens, up to
    /// the first word that is not one.
    fn spec_hex(heading: &str) -> Vec<u8> {
        let spec = include_str!("../../../docs/CALB.md");
        let section = &spec[spec.find(heading).expect("the heading")..];
        let fence = &section[section.find("```text\n").expect("a hex fence") + 8..];
        let fence = &fence[..fence.find("```").expect("the fence's end")];
        let byte = |token: &str| {
            let hex = token.len() == 2 && token.bytes().all(|b| b.is_ascii_hexdigit());
            hex.then(|| u8::from_str_radix(token, 16).unwrap())
        };
        fence
            .lines()
            .flat_map(|line| line.split_whitespace().map_while(byte).collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn the_spec_worked_example_is_the_writers_output() {
        let ds = spec_example();
        let v1 = spec_hex("### 6.1");
        let v2 = spec_hex("### 6.2");
        assert_eq!(to_binary(&ds), v1, "§6.1");
        for block_records in [2, 3, DEFAULT_BLOCK_RECORDS] {
            assert_eq!(
                to_binary_v2_with(&ds, block_records),
                v2,
                "§6.2 at {block_records} records a block"
            );
        }
        for bytes in [v1, v2] {
            let back = from_binary(&bytes).unwrap();
            assert_eq!(describe_all(&back), describe_all(&ds));
            assert_eq!(to_binary(&back), to_binary(&ds));
        }
    }

    #[test]
    fn a_stream_of_the_retired_layout_is_refused_by_name() {
        let mut bytes = to_binary_v2(&sample());
        bytes[4] = RETIRED_V2;
        for policy in [ReadPolicy::Strict, ReadPolicy::lenient()] {
            let err = from_binary_with(&bytes, policy).unwrap_err().to_string();
            assert!(
                err.starts_with("decode error at byte 4: binary cali version 2")
                    && err.contains("re-pack"),
                "{err}"
            );
        }
        assert!(read_footer(&bytes).is_none());
    }

    /// Three blocks of four rows, a string and a small count each; the
    /// middle block names strings the others do not, and the last one
    /// names one of those.
    fn three_blocks(middle: bool) -> Dataset {
        let mut ds = Dataset::new();
        let kernel = ds.attribute("kernel", ValueType::Str, Properties::AS_VALUE);
        let n = ds.attribute("n", ValueType::UInt, Properties::AS_VALUE);
        let blocks: [[&str; 4]; 3] = [
            ["a", "b", "a", "b"],
            ["x", "y", "a", "z"],
            ["c", "b", "x", "c"],
        ];
        for (i, names) in blocks.iter().enumerate() {
            if i == 1 && !middle {
                continue;
            }
            for (k, name) in names.iter().enumerate() {
                let mut rec = SnapshotRecord::new();
                rec.push_imm(kernel.id(), Value::str(*name));
                rec.push_imm(n.id(), Value::UInt(k as u64));
                ds.push(rec);
            }
        }
        ds
    }

    /// Per block handed on by a lenient `scan_path` of `bytes`: the
    /// string table's size, the block's string codes, and its rows.
    fn scanned_blocks(bytes: &[u8], name: &str) -> Vec<(usize, Vec<u32>, Vec<String>)> {
        let dir = std::env::temp_dir().join(format!("caliper-v2-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.calb2");
        std::fs::write(&path, bytes).unwrap();
        let mut seen = Vec::new();
        crate::reader::scan_path(
            &path,
            Dataset::new(),
            ReadPolicy::lenient(),
            None,
            &mut |_, strings, block| {
                let codes = block.columns().iter().flat_map(|c| match &c.data {
                    ColumnData::Str(codes) => codes.clone(),
                    _ => Vec::new(),
                });
                let rows = block
                    .records(strings)
                    .map(|r| format!("{:?}", r.entries()))
                    .collect();
                seen.push((strings.len(), codes.collect(), rows));
            },
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        seen
    }

    #[test]
    fn a_rejected_block_leaves_the_string_table_as_it_was() {
        let mut bytes = to_binary_v2_with(&three_blocks(true), 4);
        // The middle block ends with its last column: `n`, four values
        // of one byte each after its count. One more value than the
        // rows ask for is an overrun, found after the block's strings
        // were read.
        let index = read_footer(&bytes).unwrap();
        let count = index[2].offset as usize - 5;
        assert_eq!(bytes[count], 4);
        bytes[count] = 5;
        let damaged = scanned_blocks(&bytes, "damaged");
        let clean = scanned_blocks(&to_binary_v2_with(&three_blocks(false), 4), "clean");
        assert_eq!(damaged.len(), 2, "the middle block is skipped");
        assert_eq!(damaged, clean);
        // Codes are numbered in the order the columns first name them.
        assert_eq!(clean[0].0, 2);
        assert_eq!(clean[1], (4, vec![2, 1, 3, 2], clean[1].2.clone()));
    }

    /// A fault in a block's payload is named by the block's ordinal and
    /// its offset in that payload, strict and lenient alike.
    #[test]
    fn a_corrupt_block_is_named_by_its_ordinal_and_payload_byte() {
        let mut bytes = to_binary_v2_with(&three_blocks(true), 4);
        // Block 1's payload: the row count (4), the zone count, the
        // first zone's attribute id, then its presence count, which
        // may not exceed the rows.
        let frame = read_footer(&bytes).unwrap()[1].offset as usize;
        let payload = frame + 2;
        assert_eq!(bytes[payload], 4);
        assert_eq!(bytes[payload + 3], 4);
        bytes[payload + 3] = 9;
        let want =
            "decode error in block 1 at payload byte 4: zone presence count exceeds block rows";
        let err = from_binary_with(&bytes, ReadPolicy::Strict).unwrap_err();
        assert_eq!(err.to_string(), want);
        let (back, report) = from_binary_with(&bytes, ReadPolicy::lenient()).unwrap();
        assert_eq!((back.len(), report.skipped), (8, 1));
        assert_eq!(report.errors, vec![want.to_string()]);
    }

    #[test]
    fn a_string_table_is_new_when_made_and_the_same_when_moved() {
        let (a, b) = (StringTable::default(), StringTable::default());
        assert_ne!(a.id(), b.id(), "two defaults");
        let mut original = StringTable::default();
        original.intern("x");
        let copy = original.clone();
        assert_ne!(copy.id(), original.id(), "a clone");
        assert_eq!(copy.find("x"), original.find("x"), "a clone holds the same codes");
        let id = original.id();
        let moved = original;
        assert_eq!(moved.id(), id, "a move");
        let boxed = Box::new(moved);
        assert_eq!(boxed.id(), id, "a move into a box");
    }
}
