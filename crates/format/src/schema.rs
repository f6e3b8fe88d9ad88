//! The attribute schema — the data-model side of CalQL semantic
//! analysis.
//!
//! A [`Schema`] is a per-attribute name → type/properties table. Streams
//! are self-describing, so a file's schema is the dictionary its read
//! builds ([`Schema::from_store`]): this module parses no stream. What it
//! does read and write is the *saved* form — a text file of
//! `__rec=schema` lines — for linting with no data file at hand.
//!
//! Schemas merge across inputs: when the same attribute name appears
//! with different value types in different streams, its type degrades to
//! *mixed* (`value_type: None`), which the semantic analyzer treats as
//! "unknown — don't warn".

use std::collections::BTreeMap;

use caliper_data::{Attribute, AttributeStore, Properties, ValueType};

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
        store.all().into_iter().collect()
    }

    /// Read one line of a saved schema file; anything but a
    /// `__rec=schema` record is passed over.
    fn scan_line(&mut self, line: &str) {
        let line = line.trim_end_matches(['\n', '\r']);
        if !line.starts_with("__rec=schema") {
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

    /// Parse a schema from text produced by [`to_text`](Self::to_text).
    pub fn parse_text(text: &str) -> Schema {
        let mut schema = Schema::new();
        for line in text.lines() {
            schema.scan_line(line);
        }
        schema
    }
}

/// One observation per attribute: extending a schema by the attributes
/// of one dictionary after another merges the dictionaries.
impl Extend<Attribute> for Schema {
    fn extend<I: IntoIterator<Item = Attribute>>(&mut self, attrs: I) {
        for attr in attrs {
            self.observe(attr.name(), attr.value_type(), attr.properties());
        }
    }
}

impl FromIterator<Attribute> for Schema {
    fn from_iter<I: IntoIterator<Item = Attribute>>(attrs: I) -> Schema {
        let mut schema = Schema::new();
        schema.extend(attrs);
        schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> AttributeStore {
        let store = AttributeStore::new();
        store.create("function", ValueType::Str, Properties::NESTED).unwrap();
        store
            .create(
                "time.duration",
                ValueType::Float,
                Properties::AS_VALUE | Properties::AGGREGATABLE,
            )
            .unwrap();
        store
    }

    #[test]
    fn from_store_collects_all_attributes() {
        let schema = Schema::from_store(&sample_store());
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
    fn text_save_load_roundtrip() {
        let mut schema = Schema::from_store(&sample_store());
        schema.observe("weird,name=x", ValueType::Int, Properties::DEFAULT);
        schema.observe("weird,name=x", ValueType::Str, Properties::DEFAULT); // mixed
        let text = schema.to_text();
        let back = Schema::parse_text(&text);
        assert_eq!(schema, back);
        assert_eq!(back.get("weird,name=x").unwrap().value_type, None);
        // A data stream is not a saved schema: its records are passed over.
        assert!(Schema::parse_text("__rec=attr,id=0,name=x,type=int,prop=default\n").is_empty());
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
}
