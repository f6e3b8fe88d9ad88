//! Interned attribute dictionary.
//!
//! All components — runtime blackboard, aggregation service, `.cali`
//! reader/writer, query engine — resolve attribute labels through an
//! `AttributeStore`. Interning gives every label a dense numeric id so
//! the snapshot hot path works on `u32`s instead of strings.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::attribute::{AttrId, AttrMeta, Attribute, Properties};
use crate::identity::Identity;
use crate::value::ValueType;

/// Error returned when an attribute label is re-created with a conflicting
/// signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeConflict {
    /// The conflicting label.
    pub name: String,
    /// Type of the existing attribute.
    pub existing: ValueType,
    /// Type requested by the failed creation.
    pub requested: ValueType,
}

impl std::fmt::Display for AttributeConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attribute '{}' already exists with type {} (requested {})",
            self.name, self.existing, self.requested
        )
    }
}

impl std::error::Error for AttributeConflict {}

#[derive(Default)]
struct StoreInner {
    attrs: Vec<Attribute>,
    by_name: HashMap<Arc<str>, AttrId>,
}

/// A thread-safe interning dictionary of [`Attribute`]s.
///
/// The store is shared (`Arc`) between the runtime, its services, and the
/// I/O layer of one process. Lookup by id is lock-protected but O(1);
/// the aggregation hot path caches `Attribute` handles so it does not
/// query the store per snapshot.
#[derive(Default)]
pub struct AttributeStore {
    inner: RwLock<StoreInner>,
    id: Identity,
}

impl AttributeStore {
    /// Create an empty store.
    pub fn new() -> AttributeStore {
        AttributeStore::default()
    }

    /// This store's [`Identity`]: what labels resolved against it check
    /// they were resolved against.
    pub fn id(&self) -> u64 {
        self.id.get()
    }

    /// Intern an attribute. If the label already exists with the same
    /// value type, the existing handle is returned and `props` are merged
    /// into the existing flags is *not* performed (first creation wins),
    /// matching Caliper's create-once semantics.
    pub fn create(
        &self,
        name: &str,
        vtype: ValueType,
        props: Properties,
    ) -> Result<Attribute, AttributeConflict> {
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.by_name.get(name) {
                let attr = &inner.attrs[id as usize];
                return if attr.value_type() == vtype {
                    Ok(attr.clone())
                } else {
                    Err(AttributeConflict {
                        name: name.to_string(),
                        existing: attr.value_type(),
                        requested: vtype,
                    })
                };
            }
        }
        let mut inner = self.inner.write();
        // Re-check under the write lock: another thread may have won.
        if let Some(&id) = inner.by_name.get(name) {
            let attr = &inner.attrs[id as usize];
            return if attr.value_type() == vtype {
                Ok(attr.clone())
            } else {
                Err(AttributeConflict {
                    name: name.to_string(),
                    existing: attr.value_type(),
                    requested: vtype,
                })
            };
        }
        let id = inner.attrs.len() as AttrId;
        let name_arc: Arc<str> = Arc::from(name);
        let attr = Attribute {
            meta: Arc::new(AttrMeta {
                id,
                name: Arc::clone(&name_arc),
                vtype,
                props,
            }),
        };
        inner.by_name.insert(name_arc, id);
        inner.attrs.push(attr.clone());
        Ok(attr)
    }

    /// Intern with default properties, panicking on a type conflict.
    /// Convenience for tests and examples.
    pub fn create_simple(&self, name: &str, vtype: ValueType) -> Attribute {
        self.create(name, vtype, Properties::DEFAULT)
            .expect("attribute type conflict")
    }

    /// Look up an attribute by label.
    pub fn find(&self, name: &str) -> Option<Attribute> {
        let inner = self.inner.read();
        inner
            .by_name
            .get(name)
            .map(|&id| inner.attrs[id as usize].clone())
    }

    /// Look up an attribute by numeric id.
    pub fn get(&self, id: AttrId) -> Option<Attribute> {
        let inner = self.inner.read();
        inner.attrs.get(id as usize).cloned()
    }

    /// Label of an attribute id, if it exists.
    pub fn name_of(&self, id: AttrId) -> Option<Arc<str>> {
        self.get(id).map(|a| a.name_arc())
    }

    /// Number of interned attributes.
    pub fn len(&self) -> usize {
        self.inner.read().attrs.len()
    }

    /// True if no attributes have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all interned attributes, in id order.
    pub fn all(&self) -> Vec<Attribute> {
        self.inner.read().attrs.clone()
    }
}

impl std::fmt::Debug for AttributeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AttributeStore({} attributes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_assigns_dense_ids() {
        let store = AttributeStore::new();
        let a = store.create_simple("function", ValueType::Str);
        let b = store.create_simple("loop.iteration", ValueType::Int);
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn recreate_returns_same_handle() {
        let store = AttributeStore::new();
        let a = store.create_simple("x", ValueType::Int);
        let b = store.create_simple("x", ValueType::Int);
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn type_conflict_is_reported() {
        let store = AttributeStore::new();
        store.create_simple("x", ValueType::Int);
        let err = store
            .create("x", ValueType::Str, Properties::DEFAULT)
            .unwrap_err();
        assert_eq!(err.existing, ValueType::Int);
        assert_eq!(err.requested, ValueType::Str);
    }

    #[test]
    fn find_and_get_agree() {
        let store = AttributeStore::new();
        let a = store.create_simple("time.duration", ValueType::Float);
        assert_eq!(store.find("time.duration"), Some(a.clone()));
        assert_eq!(store.get(a.id()), Some(a));
        assert_eq!(store.find("missing"), None);
        assert_eq!(store.get(99), None);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let store = std::sync::Arc::new(AttributeStore::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..64 {
                    let a = store.create_simple(&format!("attr.{i}"), ValueType::Int);
                    ids.push((i, a.id()));
                }
                ids
            }));
        }
        let all: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must observe the same name->id mapping.
        for ids in &all[1..] {
            assert_eq!(ids, &all[0]);
        }
        assert_eq!(store.len(), 64);
    }
}
