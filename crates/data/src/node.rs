//! The context tree: Caliper's blackboard-compression substrate.
//!
//! Nested annotation values (`function=main`, then `function=foo`) form
//! paths in a process-wide tree. A snapshot then references the whole
//! nesting stack with a single node id instead of copying every label and
//! value — this is the "compressed copy of the current blackboard
//! contents" described in §IV-A of the paper.
//!
//! The tree is append-only: nodes are never removed, so node ids remain
//! valid for the lifetime of the process and snapshot records can be
//! processed long after the annotations that produced them have ended.

use parking_lot::RwLock;

use crate::attribute::AttrId;
use crate::fxhash::FxHashMap;
use crate::identity::Identity;
use crate::value::Value;

/// Numeric identifier of a context-tree node.
pub type NodeId = u32;

/// Sentinel id meaning "no node" / "root parent".
pub const NODE_NONE: NodeId = u32::MAX;

/// One node of the context tree.
#[derive(Debug, Clone)]
pub struct NodeData {
    /// Attribute this node assigns a value to.
    pub attr: AttrId,
    /// The assigned value.
    pub value: Value,
    /// Parent node, or [`NODE_NONE`] for roots.
    pub parent: NodeId,
}

#[derive(Default)]
struct TreeInner {
    nodes: Vec<NodeData>,
    /// (parent, attr, value) -> existing child node.
    children: FxHashMap<(NodeId, AttrId, Value), NodeId>,
}

/// Append-only context tree shared by all threads of one process.
///
/// `get_child` is the only operation on the annotation hot path; it takes
/// a read lock on the fast path (child already exists) and upgrades to a
/// write lock only when a new (parent, attr, value) combination appears —
/// which for typical workloads happens a bounded number of times, once
/// per unique program context.
#[derive(Default)]
pub struct ContextTree {
    inner: RwLock<TreeInner>,
    id: Identity,
}

impl ContextTree {
    /// Create an empty tree.
    pub fn new() -> ContextTree {
        ContextTree::default()
    }

    /// This tree's [`Identity`]: what a cache of answers per node id
    /// checks it is answering for.
    pub fn id(&self) -> u64 {
        self.id.get()
    }

    /// Find or create the child of `parent` labelled `(attr, value)`.
    pub fn get_child(&self, parent: NodeId, attr: AttrId, value: &Value) -> NodeId {
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.children.get(&(parent, attr, value.clone())) {
                return id;
            }
        }
        let mut inner = self.inner.write();
        let key = (parent, attr, value.clone());
        if let Some(&id) = inner.children.get(&key) {
            return id;
        }
        let id = inner.nodes.len() as NodeId;
        inner.nodes.push(NodeData {
            attr,
            value: value.clone(),
            parent,
        });
        inner.children.insert(key, id);
        id
    }

    /// Read a node's data. Returns `None` for [`NODE_NONE`] or unknown ids.
    pub fn node(&self, id: NodeId) -> Option<NodeData> {
        if id == NODE_NONE {
            return None;
        }
        self.inner.read().nodes.get(id as usize).cloned()
    }

    /// Parent id of `id`, or `None` at a root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let node = self.node(id)?;
        if node.parent == NODE_NONE {
            None
        } else {
            Some(node.parent)
        }
    }

    /// Expand a node into the full `(attr, value)` path from the root to
    /// (and including) the node, in root-first order.
    pub fn path(&self, id: NodeId) -> Vec<(AttrId, Value)> {
        let mut out = Vec::new();
        self.path_into(id, &mut out);
        out
    }

    /// Append a node's root-first path to `out` without allocating a
    /// fresh vector — the hot-path variant of [`ContextTree::path`] used
    /// by batch record expansion. Takes the tree lock once.
    pub fn path_into(&self, id: NodeId, out: &mut Vec<(AttrId, Value)>) {
        let inner = self.inner.read();
        let start = out.len();
        let mut cur = id;
        while cur != NODE_NONE {
            match inner.nodes.get(cur as usize) {
                Some(node) => {
                    out.push((node.attr, node.value.clone()));
                    cur = node.parent;
                }
                None => break,
            }
        }
        out[start..].reverse();
    }

    /// Walk up from `id` and return the nearest node (including `id`
    /// itself) whose attribute is `attr`.
    pub fn find_ancestor(&self, id: NodeId, attr: AttrId) -> Option<NodeId> {
        let inner = self.inner.read();
        let mut cur = id;
        while cur != NODE_NONE {
            let node = inner.nodes.get(cur as usize)?;
            if node.attr == attr {
                return Some(cur);
            }
            cur = node.parent;
        }
        None
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.inner.read().nodes.len()
    }

    /// True if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ContextTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContextTree({} nodes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_deduplicated() {
        let tree = ContextTree::new();
        let a = tree.get_child(NODE_NONE, 0, &Value::str("main"));
        let b = tree.get_child(a, 0, &Value::str("foo"));
        let b2 = tree.get_child(a, 0, &Value::str("foo"));
        assert_eq!(b, b2);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn same_value_different_parent_is_new_node() {
        let tree = ContextTree::new();
        let a = tree.get_child(NODE_NONE, 0, &Value::str("main"));
        let b = tree.get_child(NODE_NONE, 0, &Value::str("other"));
        let foo_a = tree.get_child(a, 0, &Value::str("foo"));
        let foo_b = tree.get_child(b, 0, &Value::str("foo"));
        assert_ne!(foo_a, foo_b);
    }

    #[test]
    fn path_expansion_is_root_first() {
        let tree = ContextTree::new();
        let a = tree.get_child(NODE_NONE, 0, &Value::str("main"));
        let b = tree.get_child(a, 0, &Value::str("foo"));
        let c = tree.get_child(b, 1, &Value::Int(17));
        let path = tree.path(c);
        assert_eq!(
            path,
            vec![
                (0, Value::str("main")),
                (0, Value::str("foo")),
                (1, Value::Int(17)),
            ]
        );
    }

    #[test]
    fn find_ancestor_walks_up() {
        let tree = ContextTree::new();
        let a = tree.get_child(NODE_NONE, 0, &Value::str("main"));
        let b = tree.get_child(a, 1, &Value::Int(3));
        let c = tree.get_child(b, 0, &Value::str("foo"));
        assert_eq!(tree.find_ancestor(c, 1), Some(b));
        assert_eq!(tree.find_ancestor(c, 0), Some(c));
        assert_eq!(tree.find_ancestor(a, 1), None);
    }

    #[test]
    fn node_none_has_no_data() {
        let tree = ContextTree::new();
        assert!(tree.node(NODE_NONE).is_none());
        assert!(tree.path(NODE_NONE).is_empty());
    }

    #[test]
    fn concurrent_get_child_dedups() {
        let tree = std::sync::Arc::new(ContextTree::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let tree = std::sync::Arc::clone(&tree);
            handles.push(std::thread::spawn(move || {
                let mut last = NODE_NONE;
                for i in 0..100 {
                    last = tree.get_child(last, 0, &Value::Int(i));
                }
                last
            }));
        }
        let leaves: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All threads walked the same path, so they share every node.
        for leaf in &leaves[1..] {
            assert_eq!(*leaf, leaves[0]);
        }
        assert_eq!(tree.len(), 100);
    }
}
