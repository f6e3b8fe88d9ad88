//! Attribute schema inference — the data-model side of CalQL semantic
//! analysis.
//!
//! A [`Schema`] is a per-attribute name → type/properties table. It can
//! be built from an in-memory [`AttributeStore`], or inferred from
//! `.cali`/CALB streams in a single cheap pre-pass that reads only the
//! attribute-metadata records and *skips* node/snapshot payloads — no
//! context tree is built and no snapshot is decoded, so sniffing the
//! schema of a multi-gigabyte stream costs one sequential scan.
//!
//! Schemas merge across inputs: when the same attribute name appears
//! with different value types in different streams (or through lenient
//! re-declaration), its type degrades to *mixed* (`value_type: None`),
//! which the semantic analyzer treats as "unknown — don't warn".

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

use caliper_data::{AttributeStore, Properties, ValueType};

use crate::binary::{self, Cursor};
use crate::dataset::Dataset;
use crate::escape::{escape_into, fields};

/// Inferred metadata of one attribute name.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSchema {
    /// The attribute label.
    pub name: String,
    /// Observed value type; `None` when observations conflict (mixed).
    pub value_type: Option<ValueType>,
    /// Union of observed property flags.
    pub properties: Properties,
}

impl AttrSchema {
    /// Type name for display: the `.cali` type name, or `mixed`.
    pub fn type_name(&self) -> &'static str {
        self.value_type.map(ValueType::name).unwrap_or("mixed")
    }

    /// True when the type is *known* to be non-numeric (string/bool).
    /// Mixed or unknown types return false — analysis stays silent
    /// rather than guessing.
    pub fn is_known_non_numeric(&self) -> bool {
        matches!(self.value_type, Some(t) if !t.is_numeric())
    }
}

/// A name → [`AttrSchema`] table, ordered by name for deterministic
/// iteration (diagnostics and saved schema files must be stable).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    attrs: BTreeMap<String, AttrSchema>,
}

impl Schema {
    /// Create an empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Number of known attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if no attributes are known.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Look up an attribute by exact name.
    pub fn get(&self, name: &str) -> Option<&AttrSchema> {
        self.attrs.get(name)
    }

    /// Attribute names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attrs.keys().map(String::as_str)
    }

    /// Attribute entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &AttrSchema> {
        self.attrs.values()
    }

    /// Record one observation of `name` with the given type and
    /// properties. Conflicting type observations degrade the entry to
    /// mixed; properties accumulate by union.
    pub fn observe(&mut self, name: &str, vtype: ValueType, props: Properties) {
        match self.attrs.get_mut(name) {
            Some(entry) => {
                if entry.value_type != Some(vtype) {
                    entry.value_type = None;
                }
                entry.properties = entry.properties.union(props);
            }
            None => {
                self.attrs.insert(
                    name.to_string(),
                    AttrSchema {
                        name: name.to_string(),
                        value_type: Some(vtype),
                        properties: props,
                    },
                );
            }
        }
    }

    /// Merge another schema into this one (same conflict rules as
    /// [`observe`](Self::observe); a mixed entry stays mixed).
    pub fn merge(&mut self, other: &Schema) {
        for attr in other.iter() {
            match attr.value_type {
                Some(vtype) => self.observe(&attr.name, vtype, attr.properties),
                None => {
                    // Mixed in the other schema: force mixed here too.
                    let entry = self
                        .attrs
                        .entry(attr.name.clone())
                        .or_insert_with(|| attr.clone());
                    entry.value_type = None;
                    entry.properties = entry.properties.union(attr.properties);
                }
            }
        }
    }

    /// Build a schema from every attribute interned in a store.
    pub fn from_store(store: &AttributeStore) -> Schema {
        let mut schema = Schema::new();
        for attr in store.all() {
            schema.observe(attr.name(), attr.value_type(), attr.properties());
        }
        schema
    }

    /// Build a schema from a dataset's attribute store.
    pub fn from_dataset(ds: &Dataset) -> Schema {
        Schema::from_store(&ds.store)
    }

    /// Infer the schema of a `.cali` file (text or binary CALB,
    /// auto-detected by magic) in one metadata-only pre-pass.
    pub fn infer_path(path: impl AsRef<Path>) -> io::Result<Schema> {
        let mut file = File::open(path)?;
        let mut magic = [0u8; 4];
        let n = read_up_to(&mut file, &mut magic)?;
        if &magic[..n] == binary::MAGIC.as_slice() {
            let mut bytes = magic.to_vec();
            file.read_to_end(&mut bytes)?;
            Ok(Schema::infer_binary(&bytes))
        } else {
            let mut reader = BufReader::new(file);
            let mut schema = Schema::infer_text_bytes(&magic[..n], &mut reader)?;
            // Saved schema files are also text; both record kinds are
            // handled by the same line scanner, so nothing else to do.
            schema.attrs.retain(|_, a| !a.name.is_empty());
            Ok(schema)
        }
    }

    /// Infer a schema from text `.cali` lines: only `__rec=attr` (and
    /// saved-schema `__rec=schema`) records are parsed; every other
    /// line is skipped unexamined. Malformed attribute records are
    /// ignored (lenient — a schema pre-pass must not fail harder than
    /// the real reader).
    pub fn infer_text(reader: impl BufRead) -> io::Result<Schema> {
        let mut schema = Schema::new();
        for line in reader.lines() {
            schema.scan_line(&line?);
        }
        Ok(schema)
    }

    /// Like [`infer_text`](Self::infer_text) but with a few bytes
    /// already consumed by magic sniffing.
    fn infer_text_bytes(prefix: &[u8], reader: &mut impl BufRead) -> io::Result<Schema> {
        let mut rest = Vec::from(prefix);
        reader.read_to_end(&mut rest)?;
        let text = String::from_utf8_lossy(&rest);
        let mut schema = Schema::new();
        for line in text.lines() {
            schema.scan_line(line);
        }
        Ok(schema)
    }

    /// Scan one text line for an attribute-metadata record.
    fn scan_line(&mut self, line: &str) {
        let line = line.trim_end_matches(['\n', '\r']);
        if !(line.starts_with("__rec=attr") || line.starts_with("__rec=schema")) {
            return;
        }
        let mut name = None;
        let mut vtype = None;
        let mut props = Properties::DEFAULT;
        let mut mixed = false;
        for (k, v) in fields(line) {
            match k.as_ref() {
                "name" => name = Some(v),
                "type" => {
                    if v == "mixed" {
                        mixed = true;
                    } else {
                        vtype = ValueType::from_name(&v);
                    }
                }
                "prop" => props = Properties::parse(&v),
                _ => {}
            }
        }
        let Some(name) = name else { return };
        if name.is_empty() {
            return;
        }
        if mixed {
            // Degrade (or create) the entry as mixed directly.
            let entry = self.attrs.entry(name.to_string()).or_insert(AttrSchema {
                name: name.into_owned(),
                value_type: None,
                properties: props,
            });
            entry.value_type = None;
            entry.properties = entry.properties.union(props);
        } else if let Some(vtype) = vtype {
            self.observe(&name, vtype, props);
        }
    }

    /// Infer a schema from a binary CALB stream by decoding attribute
    /// records and *skipping* node/snapshot payloads. Best-effort: the
    /// scan stops at the first malformed record and returns whatever
    /// was collected up to that point.
    pub fn infer_binary(bytes: &[u8]) -> Schema {
        let mut schema = Schema::new();
        let mut cursor = Cursor { bytes, pos: 0 };
        // Header: magic + version.
        let Ok(magic) = cursor.take(4) else {
            return schema;
        };
        if magic != binary::MAGIC.as_slice() || cursor.u8().is_err() {
            return schema;
        }
        // Per-stream id → type map so value payloads can be skipped.
        let mut types: BTreeMap<u64, ValueType> = BTreeMap::new();
        while !cursor.at_end() {
            if scan_binary_record(&mut cursor, &mut types, &mut schema).is_err() {
                break;
            }
        }
        schema
    }

    /// Render the schema as a text file in the `.cali` line encoding
    /// (`__rec=schema,name=…,type=…,prop=…`), sorted by name.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# caliper attribute schema\n");
        for attr in self.iter() {
            out.push_str("__rec=schema,name=");
            escape_into(&attr.name, &mut out);
            out.push_str(",type=");
            out.push_str(attr.type_name());
            out.push_str(",prop=");
            escape_into(&attr.properties.encode(), &mut out);
            out.push('\n');
        }
        out
    }

    /// Parse a schema from text produced by [`to_text`](Self::to_text)
    /// — or from any text `.cali` stream, whose `__rec=attr` records
    /// carry the same fields.
    pub fn parse_text(text: &str) -> Schema {
        let mut schema = Schema::new();
        for line in text.lines() {
            schema.scan_line(line);
        }
        schema
    }
}

/// Read up to `buf.len()` bytes, tolerating short files.
fn read_up_to(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// Skip one encoded value of the given type without decoding it.
fn skip_value(cursor: &mut Cursor<'_>, vtype: ValueType) -> Result<(), crate::cali::CaliError> {
    match vtype {
        ValueType::Str => {
            let len = cursor.varint()? as usize;
            cursor.take(len)?;
        }
        ValueType::Int | ValueType::UInt => {
            cursor.varint()?;
        }
        ValueType::Float => {
            cursor.take(8)?;
        }
        ValueType::Bool => {
            cursor.u8()?;
        }
    }
    Ok(())
}

/// Process one binary record: decode attrs, skip everything else.
fn scan_binary_record(
    cursor: &mut Cursor<'_>,
    types: &mut BTreeMap<u64, ValueType>,
    schema: &mut Schema,
) -> Result<(), crate::cali::CaliError> {
    let value_type_of = |types: &BTreeMap<u64, ValueType>,
                         cursor: &Cursor<'_>,
                         id: u64|
     -> Result<ValueType, crate::cali::CaliError> {
        types
            .get(&id)
            .copied()
            .ok_or_else(|| cursor.err("reference to undeclared attribute"))
    };
    let tag = cursor.u8()?;
    match tag {
        binary::TAG_ATTR => {
            let id = cursor.varint()?;
            let len = cursor.varint()? as usize;
            let name_bytes = cursor.take(len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| cursor.err("invalid UTF-8 in attribute name"))?
                .to_string();
            let type_tag = cursor.u8()?;
            let vtype = binary::type_from_tag(type_tag)
                .ok_or_else(|| cursor.err("unknown value type tag"))?;
            let props = Properties::from_bits(cursor.varint()? as u32);
            types.insert(id, vtype);
            if !name.is_empty() {
                schema.observe(&name, vtype, props);
            }
        }
        binary::TAG_NODE => {
            cursor.varint()?; // node id
            let attr = cursor.varint()?;
            cursor.varint()?; // parent + 1
            skip_value(cursor, value_type_of(types, cursor, attr)?)?;
        }
        binary::TAG_CTX => {
            let nrefs = cursor.varint()?;
            for _ in 0..nrefs {
                cursor.varint()?;
            }
            let nimm = cursor.varint()?;
            for _ in 0..nimm {
                let attr = cursor.varint()?;
                skip_value(cursor, value_type_of(types, cursor, attr)?)?;
            }
        }
        binary::TAG_GLOBALS => {
            let nimm = cursor.varint()?;
            for _ in 0..nimm {
                let attr = cursor.varint()?;
                skip_value(cursor, value_type_of(types, cursor, attr)?)?;
            }
        }
        crate::binary_v2::TAG_BLOCK => {
            // v2 record block: length-framed, so the whole payload can
            // be skipped without decoding. Blocks interleave with later
            // dictionary records, so the scan must hop over them rather
            // than stop.
            let len = cursor.varint()? as usize;
            cursor.take(len)?;
        }
        crate::binary_v2::TAG_FOOTER => {
            // v2 footer index: offset/row pairs plus an 8-byte trailer.
            let nblocks = cursor.varint()?;
            for _ in 0..nblocks {
                cursor.varint()?;
                cursor.varint()?;
            }
            cursor.take(8)?;
        }
        _ => return Err(cursor.err("unknown record tag")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{Entry, RecordBuilder, SnapshotRecord};
    use std::sync::Arc;

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let store = Arc::clone(&ds.store);
        store.create("function", ValueType::Str, Properties::NESTED).unwrap();
        store
            .create(
                "time.duration",
                ValueType::Float,
                Properties::AS_VALUE | Properties::AGGREGATABLE,
            )
            .unwrap();
        let rec = RecordBuilder::new(&store)
            .with("function", "main")
            .with("time.duration", 2.5)
            .build();
        let entries = rec
            .pairs()
            .iter()
            .map(|(a, v)| Entry::Imm(*a, v.clone()))
            .collect();
        ds.push(SnapshotRecord::from_entries(entries));
        ds
    }

    #[test]
    fn from_store_collects_all_attributes() {
        let ds = sample_dataset();
        let schema = Schema::from_dataset(&ds);
        assert_eq!(schema.len(), 2);
        let t = schema.get("time.duration").unwrap();
        assert_eq!(t.value_type, Some(ValueType::Float));
        assert!(t.properties.contains(Properties::AGGREGATABLE));
        assert!(schema.get("function").is_some());
        assert!(schema.get("nope").is_none());
    }

    #[test]
    fn conflicting_observations_go_mixed() {
        let mut schema = Schema::new();
        schema.observe("x", ValueType::Int, Properties::DEFAULT);
        schema.observe("x", ValueType::Int, Properties::GLOBAL);
        assert_eq!(schema.get("x").unwrap().value_type, Some(ValueType::Int));
        schema.observe("x", ValueType::Str, Properties::DEFAULT);
        let x = schema.get("x").unwrap();
        assert_eq!(x.value_type, None);
        assert_eq!(x.type_name(), "mixed");
        assert!(x.properties.contains(Properties::GLOBAL));
        // Mixed entries never claim to be non-numeric.
        assert!(!x.is_known_non_numeric());
    }

    #[test]
    fn infer_text_reads_only_attr_records() {
        let text = "\
__rec=attr,id=0,name=function,type=string,prop=nested
__rec=attr,id=1,name=time.duration,type=double,prop=asvalue\\,aggregatable
__rec=node,id=0,attr=0,data=main
garbage line that the pre-pass must skip
__rec=ctx,ref=0,attr=1,data=2.5
";
        let schema = Schema::infer_text(text.as_bytes()).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(
            schema.get("function").unwrap().value_type,
            Some(ValueType::Str)
        );
        assert!(schema
            .get("time.duration")
            .unwrap()
            .properties
            .contains(Properties::AGGREGATABLE));
    }

    #[test]
    fn infer_binary_skips_payloads() {
        let ds = sample_dataset();
        let bytes = crate::binary::to_binary(&ds);
        let schema = Schema::infer_binary(&bytes);
        assert_eq!(schema.len(), 2);
        assert_eq!(
            schema.get("time.duration").unwrap().value_type,
            Some(ValueType::Float)
        );
    }

    #[test]
    fn infer_binary_is_best_effort_on_truncation() {
        let ds = sample_dataset();
        let bytes = crate::binary::to_binary(&ds);
        // Truncating mid-stream keeps whatever attrs were declared
        // before the cut.
        let cut = bytes.len() - 3;
        let schema = Schema::infer_binary(&bytes[..cut]);
        assert!(schema.len() <= 2);
        assert!(Schema::infer_binary(b"nope").is_empty());
        assert!(Schema::infer_binary(b"CA").is_empty());
    }

    #[test]
    fn text_save_load_roundtrip() {
        let ds = sample_dataset();
        let mut schema = Schema::from_dataset(&ds);
        schema.observe("weird,name=x", ValueType::Int, Properties::DEFAULT);
        schema.observe("weird,name=x", ValueType::Str, Properties::DEFAULT); // mixed
        let text = schema.to_text();
        let back = Schema::parse_text(&text);
        assert_eq!(schema, back);
        assert_eq!(back.get("weird,name=x").unwrap().value_type, None);
    }

    #[test]
    fn merge_degrades_conflicts() {
        let mut a = Schema::new();
        a.observe("x", ValueType::Int, Properties::DEFAULT);
        a.observe("y", ValueType::Str, Properties::DEFAULT);
        let mut b = Schema::new();
        b.observe("x", ValueType::Float, Properties::DEFAULT);
        b.observe("z", ValueType::UInt, Properties::DEFAULT);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get("x").unwrap().value_type, None);
        assert_eq!(a.get("y").unwrap().value_type, Some(ValueType::Str));
        assert_eq!(a.get("z").unwrap().value_type, Some(ValueType::UInt));
    }

    #[test]
    fn infer_path_detects_both_flavors() {
        let dir = std::env::temp_dir().join(format!(
            "caliper-schema-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = sample_dataset();

        let text_path = dir.join("a.cali");
        crate::cali::write_file(&ds, &text_path).unwrap();
        let text_schema = Schema::infer_path(&text_path).unwrap();
        assert_eq!(text_schema.len(), 2);

        let bin_path = dir.join("a.calb");
        std::fs::write(&bin_path, crate::binary::to_binary(&ds)).unwrap();
        let bin_schema = Schema::infer_path(&bin_path).unwrap();
        assert_eq!(text_schema, bin_schema);

        std::fs::remove_dir_all(&dir).ok();
    }
}
