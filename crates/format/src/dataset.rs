//! In-memory dataset: the unit of off-line processing.
//!
//! A dataset corresponds to one `.cali` file — typically the output of
//! one process (or thread) of a monitored program: an attribute
//! dictionary, a context tree, dataset-global metadata records, and a
//! sequence of snapshot records.

use std::borrow::Cow;
use std::sync::Arc;

use caliper_data::{
    AttributeStore, ContextTree, FlatRecord, Properties, SnapshotRecord, Value, ValueType,
};

use crate::binary_v2::{Block, StringTable};

/// An in-memory performance dataset.
///
/// Its snapshot records come two ways: as rows (`records`, what the
/// file readers return) and as typed columns (`blocks`, what the
/// runtime flushes). The stream is the records, then the blocks' rows,
/// in order. Whatever reads a dataset whole — [`len`](Self::len),
/// [`flat_records`](Self::flat_records), the writers, a query — reads
/// both; rows are derived from a block only for a caller that asks for
/// rows ([`rows`](Self::rows)).
#[derive(Clone)]
pub struct Dataset {
    /// Attribute dictionary for all records in this dataset.
    pub store: Arc<AttributeStore>,
    /// Context tree referenced by the snapshot records.
    pub tree: Arc<ContextTree>,
    /// Dataset-wide metadata (e.g. `experiment`, `mpi.world.size`).
    pub globals: Vec<FlatRecord>,
    /// The snapshot records held as rows, in stream order, ahead of
    /// every block's.
    pub records: Vec<SnapshotRecord>,
    /// The snapshot records held as blocks, in stream order after
    /// `records`: each block with the table its string codes refer to.
    pub blocks: Vec<(Arc<StringTable>, Block)>,
}

impl Dataset {
    /// Create an empty dataset with fresh store and tree.
    pub fn new() -> Dataset {
        Dataset::with_context(Arc::new(AttributeStore::new()), Arc::new(ContextTree::new()))
    }

    /// Create a dataset sharing an existing store and tree (e.g. the
    /// runtime's own, when flushing in-process).
    pub fn with_context(store: Arc<AttributeStore>, tree: Arc<ContextTree>) -> Dataset {
        Dataset {
            store,
            tree,
            globals: Vec::new(),
            records: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Append a snapshot record to `records` (which come before every
    /// block in stream order).
    pub fn push(&mut self, record: SnapshotRecord) {
        self.records.push(record);
    }

    /// Append a global (metadata) record.
    pub fn push_global(&mut self, record: FlatRecord) {
        self.globals.push(record);
    }

    /// Add a single `label=value` global, interning the label with
    /// `GLOBAL` property.
    pub fn set_global(&mut self, label: &str, value: impl Into<Value>) {
        let value = value.into();
        let attr = match self.store.create(label, value.value_type(), Properties::GLOBAL) {
            Ok(a) => a,
            // Type conflict: the label exists with another type; keep it.
            Err(_) => self.store.find(label).expect("conflict implies existence"),
        };
        let mut rec = FlatRecord::new();
        rec.push(attr.id(), value);
        self.globals.push(rec);
    }

    /// Look up a global value by label (last writer wins).
    pub fn global(&self, label: &str) -> Option<Value> {
        let attr = self.store.find(label)?;
        self.globals
            .iter()
            .rev()
            .find_map(|r| r.get(attr.id()).cloned())
    }

    /// Number of snapshot records, rows and blocks.
    pub fn len(&self) -> usize {
        self.records.len() + self.blocks.iter().map(|(_, block)| block.rows()).sum::<usize>()
    }

    /// True if there are no snapshot records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every snapshot record in stream order, as rows: `records` as they
    /// are when there are no blocks, else a copy of them followed by the
    /// rows derived from the blocks.
    pub fn rows(&self) -> Cow<'_, [SnapshotRecord]> {
        if self.blocks.is_empty() {
            return Cow::Borrowed(&self.records);
        }
        let mut rows = Vec::with_capacity(self.len());
        rows.extend_from_slice(&self.records);
        for (strings, block) in &self.blocks {
            block.append_records(strings, &mut rows);
        }
        Cow::Owned(rows)
    }

    /// Iterate the snapshot records, in stream order, expanded to flat
    /// records.
    pub fn flat_records(&self) -> impl Iterator<Item = FlatRecord> + '_ {
        let derived = self.blocks.iter().flat_map(|(strings, block)| block.records(strings));
        let records = self.records.iter().map(|record| record.unpack(&self.tree));
        records.chain(derived.map(|record| record.unpack(&self.tree)))
    }

    /// Convenience: intern an attribute in this dataset's store.
    pub fn attribute(&self, name: &str, vtype: ValueType, props: Properties) -> caliper_data::Attribute {
        self.store
            .create(name, vtype, props)
            .expect("attribute type conflict")
    }
}

impl Default for Dataset {
    fn default() -> Dataset {
        Dataset::new()
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Dataset({} records, {} globals, {} attrs, {} nodes)",
            self.len(),
            self.globals.len(),
            self.store.len(),
            self.tree.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary_v2::Cell;
    use caliper_data::NODE_NONE;

    #[test]
    fn globals_last_writer_wins() {
        let mut ds = Dataset::new();
        ds.set_global("mpi.world.size", 4u64);
        ds.set_global("mpi.world.size", 8u64);
        assert_eq!(ds.global("mpi.world.size"), Some(Value::UInt(8)));
        assert_eq!(ds.global("missing"), None);
    }

    #[test]
    fn flat_records_expand_against_tree() {
        let ds = {
            let mut ds = Dataset::new();
            let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
            let node = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
            let mut rec = SnapshotRecord::new();
            rec.push_node(node);
            ds.push(rec);
            ds
        };
        let flats: Vec<_> = ds.flat_records().collect();
        assert_eq!(flats.len(), 1);
        let func = ds.store.find("function").unwrap();
        assert_eq!(flats[0].get(func.id()), Some(&Value::str("main")));
    }

    #[test]
    fn block_rows_follow_the_records() {
        let mut ds = Dataset::new();
        let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
        let n = ds.attribute("n", ValueType::Int, Properties::AS_VALUE);
        let main = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
        let mut rec = SnapshotRecord::new();
        rec.push_imm(n.id(), Value::Int(0));
        ds.push(rec);
        let (mut strings, mut block) = (StringTable::default(), Block::default());
        for i in 1..3 {
            block.push_ref(main);
            let column = block.column_for(n.id(), ValueType::Int);
            block.push_imm(column, Cell::Int(i));
            assert!(block.end_row());
        }
        let column = block.column_for(func.id(), ValueType::Str);
        block.push_imm(column, Cell::Str(strings.intern("x")));
        assert!(block.end_row());
        ds.blocks.push((Arc::new(strings), block));

        assert_eq!((ds.len(), ds.is_empty()), (4, false));
        let described: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
        assert_eq!(
            described,
            ["n=0", "function=main,n=1", "function=main,n=2", "function=x"]
        );
        let rows = ds.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], ds.records[0]);
        assert_eq!(format!("{ds:?}"), "Dataset(4 records, 0 globals, 2 attrs, 1 nodes)");
    }
}
