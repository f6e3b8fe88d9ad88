//! The blackboard buffer (§IV-A): the globally visible data structure
//! that instrumentation and data collectors update, from which snapshots
//! take a compressed copy.
//!
//! Each monitored thread has its own blackboard (thread scope). Nested
//! attributes (`begin`/`end` hierarchies) are stored as a single context
//! -tree node chain — the compressed representation; a snapshot copies
//! one `u32` node reference no matter how deep the nesting. `AS_VALUE`
//! attributes keep explicit per-attribute value stacks and are copied
//! into snapshots as immediate entries.

use std::sync::Arc;

use caliper_data::{
    AttrId, Attribute, ContextTree, FxHashMap, SnapshotRecord, Value, NODE_NONE,
};

/// Error from unbalanced annotation nesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestingError {
    /// The attribute label involved.
    pub attribute: String,
    /// Description of the violation.
    pub message: String,
}

impl std::fmt::Display for NestingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nesting error on '{}': {}", self.attribute, self.message)
    }
}

impl std::error::Error for NestingError {}

/// A per-thread blackboard.
pub struct Blackboard {
    tree: Arc<ContextTree>,
    /// Current context-tree node (top of the combined nesting stack).
    node: caliper_data::NodeId,
    /// Value stacks for AS_VALUE attributes.
    immediate: FxHashMap<AttrId, Vec<Value>>,
    /// Number of entries per nested attribute currently on the node
    /// chain (for underflow diagnostics).
    depth: FxHashMap<AttrId, u32>,
}

impl Blackboard {
    /// Create an empty blackboard over the process's context tree.
    pub fn new(tree: Arc<ContextTree>) -> Blackboard {
        Blackboard {
            tree,
            node: NODE_NONE,
            immediate: FxHashMap::default(),
            depth: FxHashMap::default(),
        }
    }

    /// Begin a region: push `attr=value`.
    pub fn begin(&mut self, attr: &Attribute, value: Value) {
        if attr.is_as_value() {
            self.immediate.entry(attr.id()).or_default().push(value);
        } else {
            self.node = self.tree.get_child(self.node, attr.id(), &value);
            *self.depth.entry(attr.id()).or_insert(0) += 1;
        }
    }

    /// End a region: pop the innermost entry of `attr`.
    ///
    /// For nested attributes, out-of-order ends are tolerated: the
    /// nearest entry of `attr` is removed from the chain and the
    /// remainder is rebuilt (real Caliper reports this as a nesting
    /// error; we remove-and-rebuild, which keeps the data consistent).
    pub fn end(&mut self, attr: &Attribute) -> Result<(), NestingError> {
        if attr.is_as_value() {
            let stack = self.immediate.entry(attr.id()).or_default();
            if stack.pop().is_none() {
                return Err(NestingError {
                    attribute: attr.name().to_string(),
                    message: "end without matching begin".into(),
                });
            }
            return Ok(());
        }
        let depth = self.depth.entry(attr.id()).or_insert(0);
        if *depth == 0 {
            return Err(NestingError {
                attribute: attr.name().to_string(),
                message: "end without matching begin".into(),
            });
        }
        *depth -= 1;

        // Fast path: the innermost entry is the one being ended.
        if let Some(node) = self.tree.node(self.node) {
            if node.attr == attr.id() {
                self.node = node.parent;
                return Ok(());
            }
        }
        // Slow path: remove the nearest `attr` entry mid-chain and
        // rebuild the chain above it.
        let path = self.tree.path(self.node);
        let Some(pos) = path.iter().rposition(|(a, _)| *a == attr.id()) else {
            return Err(NestingError {
                attribute: attr.name().to_string(),
                message: "attribute not on the blackboard".into(),
            });
        };
        let mut node = if pos == 0 {
            NODE_NONE
        } else {
            // Rebuild up to (excluding) pos — the prefix is unchanged,
            // so walking get_child re-finds existing nodes.
            let mut n = NODE_NONE;
            for (a, v) in &path[..pos] {
                n = self.tree.get_child(n, *a, v);
            }
            n
        };
        for (a, v) in &path[pos + 1..] {
            node = self.tree.get_child(node, *a, v);
        }
        self.node = node;
        Ok(())
    }

    /// Set (replace) the innermost value of `attr` without nesting: an
    /// `end` (if present) followed by a `begin`.
    pub fn set(&mut self, attr: &Attribute, value: Value) {
        if attr.is_as_value() {
            let stack = self.immediate.entry(attr.id()).or_default();
            stack.pop();
            stack.push(value);
        } else {
            if self.depth.get(&attr.id()).copied().unwrap_or(0) > 0 {
                let _ = self.end(attr);
            }
            self.begin(attr, value);
        }
    }

    /// Innermost value of `attr` currently on the blackboard.
    pub fn get(&self, attr: &Attribute) -> Option<Value> {
        if attr.is_as_value() {
            self.immediate.get(&attr.id()).and_then(|s| s.last().cloned())
        } else {
            let node = self.tree.find_ancestor(self.node, attr.id())?;
            self.tree.node(node).map(|n| n.value)
        }
    }

    /// Take a compressed snapshot of the current blackboard contents.
    pub fn snapshot(&self) -> SnapshotRecord {
        let mut rec = SnapshotRecord::new();
        self.snapshot_into(&mut rec);
        rec
    }

    /// [`snapshot`](Self::snapshot) into `rec`, replacing what it held
    /// and reusing its buffer: the thread scope's snapshot path takes
    /// every snapshot into the same record.
    pub fn snapshot_into(&self, rec: &mut SnapshotRecord) {
        rec.clear();
        if self.node != NODE_NONE {
            rec.push_node(self.node);
        }
        for (attr, stack) in &self.immediate {
            if let Some(value) = stack.last() {
                rec.push_imm(*attr, value.clone());
            }
        }
    }

    /// True if nothing is on the blackboard.
    pub fn is_empty(&self) -> bool {
        self.node == NODE_NONE && self.immediate.values().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{AttributeStore, Properties, ValueType};

    fn setup() -> (Arc<AttributeStore>, Arc<ContextTree>, Blackboard) {
        let store = Arc::new(AttributeStore::new());
        let tree = Arc::new(ContextTree::new());
        let bb = Blackboard::new(Arc::clone(&tree));
        (store, tree, bb)
    }

    #[test]
    fn begin_end_nested() {
        let (store, tree, mut bb) = setup();
        let func = store
            .create("function", ValueType::Str, Properties::NESTED)
            .unwrap();
        bb.begin(&func, Value::str("main"));
        bb.begin(&func, Value::str("foo"));
        assert_eq!(bb.get(&func), Some(Value::str("foo")));
        let snap = bb.snapshot();
        let flat = snap.unpack(&tree);
        assert_eq!(flat.path_string(func.id()), Some(Value::str("main/foo")));
        bb.end(&func).unwrap();
        assert_eq!(bb.get(&func), Some(Value::str("main")));
        bb.end(&func).unwrap();
        assert!(bb.is_empty());
    }

    #[test]
    fn interleaved_attributes_share_one_chain() {
        let (store, tree, mut bb) = setup();
        let func = store
            .create("function", ValueType::Str, Properties::NESTED)
            .unwrap();
        let lp = store
            .create("loop", ValueType::Str, Properties::NESTED)
            .unwrap();
        bb.begin(&func, Value::str("main"));
        bb.begin(&lp, Value::str("mainloop"));
        bb.begin(&func, Value::str("foo"));
        let flat = bb.snapshot().unpack(&tree);
        assert_eq!(flat.path_string(func.id()), Some(Value::str("main/foo")));
        assert_eq!(flat.get(lp.id()), Some(&Value::str("mainloop")));
    }

    #[test]
    fn out_of_order_end_rebuilds_chain() {
        let (store, tree, mut bb) = setup();
        let func = store
            .create("function", ValueType::Str, Properties::NESTED)
            .unwrap();
        let lp = store
            .create("loop", ValueType::Str, Properties::NESTED)
            .unwrap();
        bb.begin(&func, Value::str("main"));
        bb.begin(&lp, Value::str("mainloop"));
        bb.begin(&func, Value::str("foo"));
        // End the loop while `foo` is still open.
        bb.end(&lp).unwrap();
        let flat = bb.snapshot().unpack(&tree);
        assert_eq!(flat.path_string(func.id()), Some(Value::str("main/foo")));
        assert!(!flat.contains(lp.id()));
    }

    #[test]
    fn end_underflow_is_an_error() {
        let (store, _tree, mut bb) = setup();
        let func = store
            .create("function", ValueType::Str, Properties::NESTED)
            .unwrap();
        assert!(bb.end(&func).is_err());
        let imm = store
            .create("x", ValueType::Int, Properties::AS_VALUE)
            .unwrap();
        assert!(bb.end(&imm).is_err());
    }

    #[test]
    fn as_value_attributes_are_immediate() {
        let (store, tree, mut bb) = setup();
        let iter = store
            .create("loop.iteration", ValueType::Int, Properties::AS_VALUE)
            .unwrap();
        bb.begin(&iter, Value::Int(3));
        let flat = bb.snapshot().unpack(&tree);
        assert_eq!(flat.get(iter.id()), Some(&Value::Int(3)));
        // tree untouched
        assert_eq!(tree.len(), 0);
        bb.end(&iter).unwrap();
        assert!(bb.is_empty());
    }

    #[test]
    fn set_replaces_innermost() {
        let (store, _tree, mut bb) = setup();
        let iter = store
            .create("iteration", ValueType::Int, Properties::AS_VALUE)
            .unwrap();
        bb.set(&iter, Value::Int(1));
        bb.set(&iter, Value::Int(2));
        assert_eq!(bb.get(&iter), Some(Value::Int(2)));
        bb.end(&iter).unwrap();
        assert!(bb.is_empty());

        let phase = store
            .create("phase", ValueType::Str, Properties::NESTED)
            .unwrap();
        bb.set(&phase, Value::str("init"));
        bb.set(&phase, Value::str("solve"));
        assert_eq!(bb.get(&phase), Some(Value::str("solve")));
        bb.end(&phase).unwrap();
        assert!(bb.is_empty());
    }

    #[test]
    fn snapshot_is_compressed() {
        let (store, _tree, mut bb) = setup();
        let func = store
            .create("function", ValueType::Str, Properties::NESTED)
            .unwrap();
        for i in 0..20 {
            bb.begin(&func, Value::str(format!("f{i}")));
        }
        // 20 nesting levels -> 1 node entry.
        assert_eq!(bb.snapshot().len(), 1);
    }
}
