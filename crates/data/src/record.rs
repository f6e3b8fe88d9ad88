//! Snapshot records: the unit of measurement data (§III-A, §IV-A).
//!
//! A *compressed* [`SnapshotRecord`] holds context-tree node references
//! plus immediate `(attribute, value)` pairs — the form produced by the
//! runtime's snapshot mechanism and stored in `.cali` streams. A *flat*
//! [`FlatRecord`] is the fully expanded list of `(attribute, value)`
//! pairs that the aggregation engine consumes.

use std::sync::Arc;

use crate::attribute::AttrId;
use crate::node::{ContextTree, NodeId};
use crate::store::AttributeStore;
use crate::value::Value;

/// One element of a compressed snapshot record.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// Reference to a context-tree node (expands to its whole path).
    Node(NodeId),
    /// An immediate attribute:value pair (`AS_VALUE` attributes).
    Imm(AttrId, Value),
}

/// A compressed snapshot record.
///
/// Records are cheap to clone: node references are `u32`s and immediate
/// string values are reference-counted. `clone_from` into a record
/// whose buffer is large enough allocates nothing.
#[derive(Debug, Default, PartialEq)]
pub struct SnapshotRecord {
    entries: Vec<Entry>,
}

impl Clone for SnapshotRecord {
    fn clone(&self) -> SnapshotRecord {
        SnapshotRecord {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &SnapshotRecord) {
        self.entries.clone_from(&source.entries);
    }
}

impl SnapshotRecord {
    /// Create an empty record.
    pub fn new() -> SnapshotRecord {
        SnapshotRecord::default()
    }

    /// Create a record from raw entries.
    pub fn from_entries(entries: Vec<Entry>) -> SnapshotRecord {
        SnapshotRecord { entries }
    }

    /// Append a context-tree node reference.
    pub fn push_node(&mut self, node: NodeId) {
        self.entries.push(Entry::Node(node));
    }

    /// Append an immediate attribute:value pair.
    pub fn push_imm(&mut self, attr: AttrId, value: Value) {
        self.entries.push(Entry::Imm(attr, value));
    }

    /// The raw entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries (compressed size, not expanded size).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the record has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove every entry, keeping the buffer for the next record.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Expand against a context tree into a flat record. Node entries
    /// expand to their full root-first path; immediate entries are
    /// appended in order.
    pub fn unpack(&self, tree: &ContextTree) -> FlatRecord {
        let mut pairs = Vec::with_capacity(self.entries.len() * 2);
        for entry in &self.entries {
            match entry {
                Entry::Node(id) => tree.path_into(*id, &mut pairs),
                Entry::Imm(attr, value) => pairs.push((*attr, value.clone())),
            }
        }
        FlatRecord { pairs }
    }
}

/// A flat record as a snapshot record any writer takes: every pair an
/// immediate entry, in record order, with nothing in a context tree.
impl From<&FlatRecord> for SnapshotRecord {
    fn from(flat: &FlatRecord) -> SnapshotRecord {
        let entries = flat.pairs.iter().map(|(a, v)| Entry::Imm(*a, v.clone())).collect();
        SnapshotRecord { entries }
    }
}

/// A fully expanded snapshot record: an ordered list of
/// `(attribute id, value)` pairs.
///
/// An attribute may appear multiple times (nested attributes produce one
/// pair per nesting level, root first). The aggregation engine's
/// key-extraction joins repeated values into a path (see
/// [`FlatRecord::path_string`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatRecord {
    pairs: Vec<(AttrId, Value)>,
}

impl FlatRecord {
    /// Create an empty record.
    pub fn new() -> FlatRecord {
        FlatRecord::default()
    }

    /// Create from raw pairs.
    pub fn from_pairs(pairs: Vec<(AttrId, Value)>) -> FlatRecord {
        FlatRecord { pairs }
    }

    /// Append a pair.
    pub fn push(&mut self, attr: AttrId, value: Value) {
        self.pairs.push((attr, value));
    }

    /// The raw pairs in record order.
    pub fn pairs(&self) -> &[(AttrId, Value)] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the record has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// First (outermost) value of `attr`, if present.
    pub fn first(&self, attr: AttrId) -> Option<&Value> {
        self.pairs
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, v)| v)
    }

    /// Last (innermost) value of `attr`, if present.
    pub fn get(&self, attr: AttrId) -> Option<&Value> {
        self.pairs
            .iter()
            .rev()
            .find(|(a, _)| *a == attr)
            .map(|(_, v)| v)
    }

    /// All values of `attr` in record (outer-to-inner) order.
    pub fn all(&self, attr: AttrId) -> impl Iterator<Item = &Value> + Clone {
        self.pairs
            .iter()
            .filter(move |(a, _)| *a == attr)
            .map(|(_, v)| v)
    }

    /// Whether the record contains `attr` at all.
    pub fn contains(&self, attr: AttrId) -> bool {
        self.pairs.iter().any(|(a, _)| *a == attr)
    }

    /// The grouping value for `attr`: the single value if `attr` occurs
    /// once, or the `/`-joined path of all its values (outermost first)
    /// if it is a nested attribute with multiple levels on the stack.
    /// Returns `None` if the attribute is absent.
    ///
    /// This realizes the `'callpath': 'main/foo'` representation from the
    /// record example in §III-A of the paper.
    pub fn path_string(&self, attr: AttrId) -> Option<Value> {
        let mut iter = self.all(attr);
        let first = iter.next()?;
        match iter.next() {
            None => Some(first.clone()),
            Some(second) => {
                let mut s = first.to_text().into_owned();
                s.push('/');
                s.push_str(&second.to_text());
                for v in iter {
                    s.push('/');
                    s.push_str(&v.to_text());
                }
                Some(Value::Str(Arc::from(s.as_str())))
            }
        }
    }

    /// Render as `label=value,label=value,...` for diagnostics.
    pub fn describe(&self, store: &AttributeStore) -> String {
        let mut out = String::new();
        for (i, (attr, value)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match store.name_of(*attr) {
                Some(name) => out.push_str(&name),
                None => out.push_str(&format!("#{attr}")),
            }
            out.push('=');
            out.push_str(&value.to_text());
        }
        out
    }
}

/// Convenience builder for flat records from labels, used in tests,
/// examples, and the `.cali` reader.
pub struct RecordBuilder<'a> {
    store: &'a AttributeStore,
    record: FlatRecord,
}

impl<'a> RecordBuilder<'a> {
    /// Start building a record whose labels are interned in `store`.
    pub fn new(store: &'a AttributeStore) -> RecordBuilder<'a> {
        RecordBuilder {
            store,
            record: FlatRecord::new(),
        }
    }

    /// Add `label=value`, interning the label with the value's own type.
    pub fn with(mut self, label: &str, value: impl Into<Value>) -> Self {
        let value = value.into();
        let attr = self
            .store
            .create(label, value.value_type(), Default::default())
            .unwrap_or_else(|_| {
                // Label exists with another type: keep the existing
                // attribute; the value is stored as provided.
                self.store.find(label).expect("attribute must exist")
            });
        self.record.push(attr.id(), value);
        self
    }

    /// Finish and return the record.
    pub fn build(self) -> FlatRecord {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NODE_NONE;
    use crate::value::ValueType;

    #[test]
    fn unpack_expands_node_paths() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let dur = store.create_simple("time.duration", ValueType::Float);
        let tree = ContextTree::new();
        let main = tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
        let foo = tree.get_child(main, func.id(), &Value::str("foo"));

        let mut rec = SnapshotRecord::new();
        rec.push_node(foo);
        rec.push_imm(dur.id(), Value::Float(251.0));

        let flat = rec.unpack(&tree);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.first(func.id()), Some(&Value::str("main")));
        assert_eq!(flat.get(func.id()), Some(&Value::str("foo")));
        assert_eq!(flat.get(dur.id()), Some(&Value::Float(251.0)));
    }

    #[test]
    fn path_string_joins_nested_values() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        rec.push(func.id(), Value::str("foo"));
        rec.push(func.id(), Value::str("bar"));
        assert_eq!(
            rec.path_string(func.id()),
            Some(Value::str("main/foo/bar"))
        );
    }

    #[test]
    fn path_string_single_value_is_unchanged() {
        let mut rec = FlatRecord::new();
        rec.push(3, Value::Int(17));
        assert_eq!(rec.path_string(3), Some(Value::Int(17)));
        assert_eq!(rec.path_string(4), None);
    }

    #[test]
    fn builder_interns_labels() {
        let store = AttributeStore::new();
        let rec = RecordBuilder::new(&store)
            .with("loop", "mainloop")
            .with("loop.iteration", 17i64)
            .with("time.duration", 251.0)
            .build();
        assert_eq!(rec.len(), 3);
        assert_eq!(store.len(), 3);
        let it = store.find("loop.iteration").unwrap();
        assert_eq!(rec.get(it.id()), Some(&Value::Int(17)));
        assert!(rec.describe(&store).contains("loop=mainloop"));
    }

    #[test]
    fn get_returns_innermost() {
        let mut rec = FlatRecord::new();
        rec.push(0, Value::str("outer"));
        rec.push(0, Value::str("inner"));
        assert_eq!(rec.get(0), Some(&Value::str("inner")));
        assert_eq!(rec.first(0), Some(&Value::str("outer")));
        assert_eq!(rec.all(0).count(), 2);
    }
}
