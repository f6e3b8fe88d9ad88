//! Binary `.cali` stream codec (CALB v1, plus the shared primitives
//! CALB v2 in [`crate::binary_v2`] builds on).
//!
//! The text codec in [`crate::cali`] is self-describing and greppable;
//! this module provides a compact binary variant of the same stream
//! model (real Caliper's snapshot buffers are binary-encoded for
//! exactly this reason). In brief: a `"CALB"` magic plus version byte,
//! then tagged records — attribute and node dictionary entries before
//! first use, context and globals records carrying the data — with
//! varint/zigzag integers and type-directed value encoding.
//!
//! The normative byte-level specification of both stream versions
//! (record layouts, the v2 block/zone-map/footer structures,
//! versioning and torn-tail recovery rules) lives in **`docs/CALB.md`**;
//! this doc comment is intentionally only a summary.

use std::io::{self, Write};
use std::path::Path;

use caliper_data::{
    AttrId, Entry, FlatRecord, FxHashMap, FxHashSet, NodeId, Properties, SnapshotRecord, Value,
    ValueType, NODE_NONE,
};

use crate::cali::CaliError;
use crate::dataset::Dataset;
use crate::policy::{ReadPolicy, ReadReport};
use crate::pushdown::Pushdown;

/// Stream magic prefix identifying the binary `CALB` flavor.
pub const MAGIC: &[u8; 4] = b"CALB";
pub(crate) const VERSION: u8 = 1;

pub(crate) const TAG_ATTR: u8 = 0x01;
pub(crate) const TAG_NODE: u8 = 0x02;
pub(crate) const TAG_CTX: u8 = 0x03;
pub(crate) const TAG_GLOBALS: u8 = 0x04;

// ---- varint primitives ----

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn err(&self, message: impl Into<String>) -> CaliError {
        CaliError::Decode {
            block: None,
            byte: self.pos,
            message: message.into(),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CaliError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of stream"))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, CaliError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            // A tenth byte holds bit 63 alone: more overflows, and is
            // named at its own offset.
            if shift == 63 && byte > 1 {
                self.pos -= 1;
                return Err(self.err("varint overflow"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub(crate) fn zigzag(&mut self) -> Result<i64, CaliError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CaliError> {
        // `n` comes straight from an attacker-controllable length field;
        // compare against the remainder rather than computing `pos + n`,
        // which overflows for huge lengths.
        if n > self.bytes.len() - self.pos {
            return Err(self.err("unexpected end of stream"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CaliError> {
        let bytes = self.take(8)?;
        let bytes = bytes
            .try_into()
            .map_err(|_| self.err("short float value"))?;
        Ok(f64::from_le_bytes(bytes))
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

pub(crate) fn put_value(out: &mut Vec<u8>, vtype: ValueType, value: &Value) {
    match vtype {
        ValueType::Str => {
            let text = value.to_text();
            put_varint(out, text.len() as u64);
            out.extend_from_slice(text.as_bytes());
        }
        ValueType::Int => put_zigzag(out, value.to_i64().unwrap_or(0)),
        ValueType::UInt => put_varint(out, value.to_u64().unwrap_or(0)),
        ValueType::Float => out.extend_from_slice(&value.to_f64().unwrap_or(0.0).to_le_bytes()),
        ValueType::Bool => out.push(value.is_truthy() as u8),
    }
}

pub(crate) fn get_value(cursor: &mut Cursor<'_>, vtype: ValueType) -> Result<Value, CaliError> {
    Ok(match vtype {
        ValueType::Str => {
            let len = cursor.varint()? as usize;
            let bytes = cursor.take(len)?;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| cursor.err("invalid UTF-8 in string value"))?;
            Value::str(text)
        }
        ValueType::Int => Value::Int(cursor.zigzag()?),
        ValueType::UInt => Value::UInt(cursor.varint()?),
        ValueType::Float => Value::Float(cursor.f64()?),
        ValueType::Bool => Value::Bool(cursor.u8()? != 0),
    })
}

pub(crate) fn type_tag(vtype: ValueType) -> u8 {
    match vtype {
        ValueType::Str => 0,
        ValueType::Int => 1,
        ValueType::UInt => 2,
        ValueType::Float => 3,
        ValueType::Bool => 4,
    }
}

pub(crate) fn type_from_tag(tag: u8) -> Option<ValueType> {
    Some(match tag {
        0 => ValueType::Str,
        1 => ValueType::Int,
        2 => ValueType::UInt,
        3 => ValueType::Float,
        4 => ValueType::Bool,
        _ => return None,
    })
}

// ---- writer ----

/// Streaming binary writer (mirrors [`crate::cali::CaliWriter`]).
pub struct BinaryWriter {
    pub(crate) out: Vec<u8>,
    written_attrs: FxHashSet<AttrId>,
    written_nodes: FxHashSet<NodeId>,
    pub(crate) dangling_drops: u64,
}

impl BinaryWriter {
    /// Create a writer with the stream header emitted.
    pub fn new() -> BinaryWriter {
        BinaryWriter::with_version(VERSION)
    }

    /// Create a writer emitting the given stream version byte (the v2
    /// codec shares the v1 dictionary machinery).
    pub(crate) fn with_version(version: u8) -> BinaryWriter {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(MAGIC);
        out.push(version);
        BinaryWriter {
            out,
            written_attrs: FxHashSet::default(),
            written_nodes: FxHashSet::default(),
            dangling_drops: 0,
        }
    }

    /// Number of attribute/node references dropped because the id did
    /// not resolve in the dataset (mirrors
    /// [`CaliWriter::dangling_drops`](crate::cali::CaliWriter::dangling_drops)).
    pub fn dangling_drops(&self) -> u64 {
        self.dangling_drops
    }

    pub(crate) fn ensure_attr(&mut self, ds: &Dataset, id: AttrId) {
        if self.written_attrs.contains(&id) {
            return;
        }
        let Some(attr) = ds.store.get(id) else {
            self.dangling_drops += 1;
            return;
        };
        self.written_attrs.insert(id);
        self.out.push(TAG_ATTR);
        put_varint(&mut self.out, id as u64);
        put_varint(&mut self.out, attr.name().len() as u64);
        self.out.extend_from_slice(attr.name().as_bytes());
        self.out.push(type_tag(attr.value_type()));
        put_varint(&mut self.out, attr.properties().bits() as u64);
    }

    pub(crate) fn ensure_node(&mut self, ds: &Dataset, id: NodeId) {
        if id == NODE_NONE || self.written_nodes.contains(&id) {
            return;
        }
        // Iterative ancestor collection (deep nesting must not recurse).
        let mut chain = Vec::new();
        let mut cur = id;
        while cur != NODE_NONE && !self.written_nodes.contains(&cur) {
            let Some(node) = ds.tree.node(cur) else {
                self.dangling_drops += 1;
                break;
            };
            let parent = node.parent;
            chain.push((cur, node));
            cur = parent;
        }
        for (id, node) in chain.into_iter().rev() {
            self.ensure_attr(ds, node.attr);
            self.written_nodes.insert(id);
            let vtype = ds
                .store
                .get(node.attr)
                .map(|a| a.value_type())
                .unwrap_or(ValueType::Str);
            self.out.push(TAG_NODE);
            put_varint(&mut self.out, id as u64);
            put_varint(&mut self.out, node.attr as u64);
            let parent_code = if node.parent == NODE_NONE {
                0
            } else {
                node.parent as u64 + 1
            };
            put_varint(&mut self.out, parent_code);
            put_value(&mut self.out, vtype, &node.value);
        }
    }

    fn write_imms(&mut self, ds: &Dataset, imms: &[(AttrId, Value)]) {
        put_varint(&mut self.out, imms.len() as u64);
        for (attr, value) in imms {
            let vtype = ds
                .store
                .get(*attr)
                .map(|a| a.value_type())
                .unwrap_or(ValueType::Str);
            put_varint(&mut self.out, *attr as u64);
            put_value(&mut self.out, vtype, value);
        }
    }

    /// Write one snapshot record.
    pub fn write_snapshot(&mut self, ds: &Dataset, record: &SnapshotRecord) {
        let mut refs = Vec::new();
        let mut imms = Vec::new();
        for entry in record.entries() {
            match entry {
                Entry::Node(id) => refs.push(*id),
                Entry::Imm(attr, value) => imms.push((*attr, value.clone())),
            }
        }
        for &r in &refs {
            self.ensure_node(ds, r);
        }
        for (a, _) in &imms {
            self.ensure_attr(ds, *a);
        }
        self.out.push(TAG_CTX);
        put_varint(&mut self.out, refs.len() as u64);
        for r in refs {
            put_varint(&mut self.out, r as u64);
        }
        self.write_imms(ds, &imms);
    }

    /// Write one globals record.
    pub fn write_globals(&mut self, ds: &Dataset, record: &FlatRecord) {
        let imms: Vec<_> = record.pairs().to_vec();
        for (a, _) in &imms {
            self.ensure_attr(ds, *a);
        }
        self.out.push(TAG_GLOBALS);
        self.write_imms(ds, &imms);
    }

    /// Write a whole dataset and return the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

impl Default for BinaryWriter {
    fn default() -> BinaryWriter {
        BinaryWriter::new()
    }
}

/// Serialize a dataset to the binary format.
pub fn to_binary(ds: &Dataset) -> Vec<u8> {
    let mut w = BinaryWriter::new();
    for g in &ds.globals {
        w.write_globals(ds, g);
    }
    for rec in ds.rows().iter() {
        w.write_snapshot(ds, rec);
    }
    w.finish()
}

/// Per-stream decoder state: the id remapping tables built from the
/// attr/node records seen so far.
pub(crate) struct BinaryDecoder {
    /// Stream attribute id → the attribute's id and declared type in the
    /// receiving dataset.
    pub(crate) attr_map: FxHashMap<u64, (AttrId, ValueType)>,
    pub(crate) node_map: FxHashMap<u64, NodeId>,
    /// Attributes a stream id named before it was declared again under
    /// another name, and the ones it names since: a zone under that id
    /// speaks for neither alone.
    pub(crate) renamed: Vec<AttrId>,
}

impl BinaryDecoder {
    pub(crate) fn new() -> BinaryDecoder {
        BinaryDecoder {
            attr_map: FxHashMap::default(),
            node_map: FxHashMap::default(),
            renamed: Vec::new(),
        }
    }

    pub(crate) fn lookup_attr(
        &self,
        cursor: &Cursor<'_>,
        id: u64,
        what: &str,
        report: &mut ReadReport,
    ) -> Result<(AttrId, ValueType), CaliError> {
        match self.attr_map.get(&id) {
            Some(attr) => Ok(*attr),
            None => {
                report.dangling_dropped += 1;
                Err(cursor.err(format!("{what} references undeclared attribute {id}")))
            }
        }
    }

    /// Decode one record at the cursor; `Ok(true)` for data records
    /// (ctx/globals). The dataset is mutated only once the record has
    /// fully decoded, so an error leaves `ds` at the previous record
    /// boundary.
    pub(crate) fn read_record(
        &mut self,
        cursor: &mut Cursor<'_>,
        ds: &mut Dataset,
        report: &mut ReadReport,
    ) -> Result<bool, CaliError> {
        let tag = cursor.u8()?;
        match tag {
            TAG_ATTR => {
                let id = cursor.varint()?;
                let len = cursor.varint()? as usize;
                let name_bytes = cursor.take(len)?;
                let name = std::str::from_utf8(name_bytes)
                    .map_err(|_| cursor.err("invalid UTF-8 in attribute name"))?
                    .to_string();
                let vtype = type_from_tag(cursor.u8()?)
                    .ok_or_else(|| cursor.err("invalid value type tag"))?;
                let props = Properties::from_bits(cursor.varint()? as u32);
                let attr = ds
                    .store
                    .create(&name, vtype, props)
                    .map_err(|e| cursor.err(e.to_string()))?;
                if let Some((was, _)) = self.attr_map.insert(id, (attr.id(), vtype)) {
                    if was != attr.id() {
                        self.renamed.extend([was, attr.id()]);
                    }
                }
                Ok(false)
            }
            TAG_NODE => {
                let id = cursor.varint()?;
                let attr_id = cursor.varint()?;
                let parent_code = cursor.varint()?;
                let (attr, vtype) = self.lookup_attr(cursor, attr_id, "node", report)?;
                let value = get_value(cursor, vtype)?;
                let parent = if parent_code == 0 {
                    NODE_NONE
                } else {
                    match self.node_map.get(&(parent_code - 1)) {
                        Some(local) => *local,
                        None => {
                            report.dangling_dropped += 1;
                            return Err(cursor.err("node references unknown parent"));
                        }
                    }
                };
                let local = ds.tree.get_child(parent, attr, &value);
                self.node_map.insert(id, local);
                Ok(false)
            }
            TAG_CTX => {
                let mut rec = SnapshotRecord::new();
                let nrefs = cursor.varint()?;
                for _ in 0..nrefs {
                    let id = cursor.varint()?;
                    let local = match self.node_map.get(&id) {
                        Some(local) => *local,
                        None => {
                            report.dangling_dropped += 1;
                            return Err(cursor.err(format!("ref to unknown node {id}")));
                        }
                    };
                    rec.push_node(local);
                }
                let nimm = cursor.varint()?;
                for _ in 0..nimm {
                    let attr_id = cursor.varint()?;
                    let (attr, vtype) = self.lookup_attr(cursor, attr_id, "imm", report)?;
                    rec.push_imm(attr, get_value(cursor, vtype)?);
                }
                ds.records.push(rec);
                Ok(true)
            }
            TAG_GLOBALS => {
                let mut rec = FlatRecord::new();
                let nimm = cursor.varint()?;
                for _ in 0..nimm {
                    let attr_id = cursor.varint()?;
                    let (attr, vtype) = self.lookup_attr(cursor, attr_id, "global", report)?;
                    rec.push(attr, get_value(cursor, vtype)?);
                }
                ds.globals.push(rec);
                Ok(true)
            }
            other => Err(cursor.err(format!("unknown record tag 0x{other:02x}"))),
        }
    }
}

/// Parse a binary stream, appending into `ds` (merging semantics like
/// the text reader: ids are remapped into the target dataset).
pub fn read_binary_into(bytes: &[u8], ds: Dataset) -> Result<Dataset, CaliError> {
    read_binary_into_with(bytes, ds, ReadPolicy::Strict, &mut ReadReport::default())
}

/// Parse a binary stream under `policy`, appending into `ds` and
/// accounting into `report`.
///
/// Binary framing cannot be resynchronized after a corrupt record — a
/// bad length field poisons every byte that follows — so
/// [`ReadPolicy::Lenient`] has *valid-prefix* semantics here: decoding
/// stops at the first malformed record, keeps everything decoded so
/// far, and marks the report truncated. A bad magic or version is an
/// error in either mode (the input is not a damaged `CALB` stream, it
/// is not a `CALB` stream at all).
pub fn read_binary_into_with(
    bytes: &[u8],
    ds: Dataset,
    policy: ReadPolicy,
    report: &mut ReadReport,
) -> Result<Dataset, CaliError> {
    read_binary_into_filtered(bytes, ds, policy, report, None)
}

/// Parse a binary stream like [`read_binary_into_with`], additionally
/// applying a WHERE-predicate [`Pushdown`] where the encoding supports
/// it. CALB v2 streams evaluate the predicates against per-block zone
/// maps and skip blocks that provably contain no matching record
/// (accounted in [`ReadReport::blocks_skipped`]); v1 streams have no
/// block structure and ignore the pushdown entirely.
pub fn read_binary_into_filtered(
    bytes: &[u8],
    mut ds: Dataset,
    policy: ReadPolicy,
    report: &mut ReadReport,
    pushdown: Option<&Pushdown>,
) -> Result<Dataset, CaliError> {
    let rows = &mut crate::binary_v2::append_rows;
    scan_binary_into(bytes, &mut ds, policy, report, pushdown, Some(rows))?;
    Ok(ds)
}

/// Walk a binary stream, appending into `ds`. A CALB v2 stream's blocks
/// go to `on_block` as typed columns, in stream order, and add nothing
/// to `ds.records`; a v1 stream has no columns, so its snapshot records
/// are appended to `ds.records` and `on_block` is never called. No
/// `on_block` means nobody will look at snapshots: v2 hops over its
/// blocks, v1 — no frames to hop — decodes as ever.
pub(crate) fn scan_binary_into(
    bytes: &[u8],
    ds: &mut Dataset,
    policy: ReadPolicy,
    report: &mut ReadReport,
    pushdown: Option<&Pushdown>,
    on_block: Option<&mut crate::binary_v2::BlockSink<'_>>,
) -> Result<(), CaliError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let magic = cursor.take(4)?;
    if magic != MAGIC {
        return Err(Cursor { bytes, pos: 0 }.err("not a binary cali stream (bad magic)"));
    }
    // A wrong version is a fault of its own byte.
    let at_version = Cursor {
        bytes,
        pos: cursor.pos,
    };
    let version = cursor.u8()?;
    if version == crate::binary_v2::VERSION_V2 {
        return crate::binary_v2::scan_v2_body(cursor, ds, policy, report, pushdown, on_block);
    }
    if version == crate::binary_v2::RETIRED_V2 {
        return Err(at_version.err(format!(
            "binary cali version {version} (an earlier CALB v2 block layout, now version \
             {}) is no longer read: re-pack the file from its source with cali-pack",
            crate::binary_v2::VERSION_V2
        )));
    }
    if version != VERSION {
        return Err(at_version.err(format!("unsupported binary cali version {version}")));
    }

    let mut decoder = BinaryDecoder::new();
    while !cursor.at_end() {
        match decoder.read_record(&mut cursor, ds, report) {
            Ok(is_data) => {
                if is_data {
                    report.records += 1;
                }
            }
            Err(e) => {
                if !policy.is_lenient() {
                    return Err(e);
                }
                report.skipped += 1;
                report.truncated = true;
                report.note_error(e.to_string());
                if report.skipped > policy.max_errors() {
                    return Err(e);
                }
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Parse a binary stream into a fresh dataset.
pub fn from_binary(bytes: &[u8]) -> Result<Dataset, CaliError> {
    read_binary_into(bytes, Dataset::new())
}

/// Parse a binary stream into a fresh dataset under `policy`, returning
/// the dataset together with the read report.
pub fn from_binary_with(
    bytes: &[u8],
    policy: ReadPolicy,
) -> Result<(Dataset, ReadReport), CaliError> {
    let mut report = ReadReport::default();
    let ds = read_binary_into_with(bytes, Dataset::new(), policy, &mut report)?;
    Ok((ds, report))
}

/// Write a dataset to a binary file.
pub fn write_file(ds: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    let bytes = to_binary(ds);
    caliper_data::metrics::global()
        .counter("format.writer.bytes")
        .add(bytes.len() as u64);
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    file.flush()
}

/// Read a binary file into a dataset.
pub fn read_file(path: impl AsRef<Path>) -> Result<Dataset, CaliError> {
    let bytes = std::fs::read(path)?;
    from_binary(&bytes)
}

/// Detect the stream flavor from the first bytes and parse accordingly
/// (used by tools that accept both formats).
pub fn from_bytes_auto(bytes: &[u8]) -> Result<Dataset, CaliError> {
    if bytes.starts_with(MAGIC) {
        from_binary(bytes)
    } else {
        crate::cali::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        ds.set_global("experiment", "binary-test");
        let main = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
        let foo = ds.tree.get_child(main, func.id(), &Value::str("foo"));
        for i in 0..20i64 {
            let mut rec = SnapshotRecord::new();
            rec.push_node(if i % 3 == 0 { main } else { foo });
            rec.push_imm(iter.id(), Value::Int(i - 10));
            rec.push_imm(dur.id(), Value::Float(i as f64 * 0.25));
            rec.push_imm(flag.id(), Value::Bool(i % 2 == 0));
            rec.push_imm(count.id(), Value::UInt(i as u64 * 1000));
            ds.push(rec);
        }
        ds
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample();
        let bytes = to_binary(&ds);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.global("experiment"), Some(Value::str("binary-test")));
        let orig: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
        let read: Vec<String> = back
            .flat_records()
            .map(|r| r.describe(&back.store))
            .collect();
        assert_eq!(orig, read);
        // attribute metadata survives
        let dur = back.store.find("time.duration").unwrap();
        assert!(dur.is_aggregatable());
        assert_eq!(dur.value_type(), ValueType::Float);
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let ds = sample();
        let binary = to_binary(&ds).len();
        let text = crate::cali::to_bytes(&ds).len();
        assert!(
            binary * 2 < text,
            "binary {binary} should be < half of text {text}"
        );
    }

    #[test]
    fn merging_two_streams() {
        let ds = sample();
        let bytes = to_binary(&ds);
        let merged = read_binary_into(&bytes, from_binary(&bytes).unwrap()).unwrap();
        assert_eq!(merged.len(), 2 * ds.len());
        assert_eq!(merged.store.len(), ds.store.len());
        assert_eq!(merged.tree.len(), ds.tree.len());
    }

    #[test]
    fn truncation_and_corruption_are_errors_not_panics() {
        let bytes = to_binary(&sample());
        for cut in 0..bytes.len().min(64) {
            let _ = from_binary(&bytes[..cut]); // must not panic
        }
        for pos in (0..bytes.len()).step_by(11) {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0xff;
            let _ = from_binary(&corrupted); // must not panic
        }
        assert!(from_binary(b"NOPE").is_err());
        assert!(from_binary(b"CALB\x63").is_err()); // bad version
    }

    #[test]
    fn lenient_truncation_keeps_the_valid_prefix() {
        let ds = sample();
        let bytes = to_binary(&ds);
        let full = from_binary(&bytes).unwrap().len();
        let mut last = 0usize;
        for cut in 5..=bytes.len() {
            let (prefix, report) = from_binary_with(&bytes[..cut], ReadPolicy::lenient()).unwrap();
            // Monotone: longer prefixes never decode fewer records.
            assert!(prefix.len() >= last, "cut {cut}");
            last = prefix.len();
            if cut < bytes.len() {
                assert!(report.truncated || prefix.len() == full || report.is_clean());
            }
        }
        assert_eq!(last, full);
    }

    #[test]
    fn lenient_garbage_tail_is_reported() {
        let ds = sample();
        let mut bytes = to_binary(&ds);
        bytes.extend_from_slice(&[0xee; 16]);
        let (back, report) = from_binary_with(&bytes, ReadPolicy::lenient()).unwrap();
        assert_eq!(back.len(), ds.len());
        assert!(report.truncated);
        assert_eq!(report.skipped, 1);
        assert!(report.errors[0].contains("unknown record tag"));
    }

    #[test]
    fn bad_header_is_an_error_even_when_lenient() {
        assert!(from_binary_with(b"NOPE", ReadPolicy::lenient()).is_err());
        assert!(from_binary_with(b"CALB\x63", ReadPolicy::lenient()).is_err());
    }

    #[test]
    fn auto_detection_picks_the_right_parser() {
        let ds = sample();
        let binary = to_binary(&ds);
        let text = crate::cali::to_bytes(&ds);
        assert_eq!(from_bytes_auto(&binary).unwrap().len(), ds.len());
        assert_eq!(from_bytes_auto(&text).unwrap().len(), ds.len());
    }

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = Cursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(cursor.varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -12345] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            let mut cursor = Cursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(cursor.zigzag().unwrap(), v);
        }
    }

    #[test]
    fn a_varint_past_64_bits_is_named_at_the_byte_that_overflows() {
        let varint = |tenth: &[u8]| {
            let bytes = [&[0xff; 9][..], tenth].concat();
            Cursor {
                bytes: &bytes,
                pos: 0,
            }
            .varint()
        };
        assert_eq!(varint(&[0x01]).unwrap(), u64::MAX);
        for tenth in [&[0x02][..], &[0x7f], &[0x81, 0x01], &[0xff, 0xff, 0x01]] {
            match varint(tenth) {
                Err(CaliError::Decode { byte, message, .. }) => {
                    assert_eq!(
                        (byte, message.as_str()),
                        (9, "varint overflow"),
                        "{tenth:x?}"
                    )
                }
                other => panic!("{tenth:x?}: {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("caliper-binary-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.calb");
        let ds = sample();
        write_file(&ds, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.len(), ds.len());
        std::fs::remove_file(&path).ok();
    }
}
