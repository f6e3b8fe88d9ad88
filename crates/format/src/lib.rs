//! # caliper-format — record stream I/O and output formatters
//!
//! This crate provides the storage substrate of the reproduction:
//!
//! * [`Dataset`] — the in-memory representation of one process's
//!   performance data (attribute dictionary + context tree + globals +
//!   snapshot records).
//! * [`cali`] — the self-describing, line-oriented `.cali` stream codec
//!   used to persist per-process datasets for off-line cross-process and
//!   analytical aggregation (paper §IV-C).
//! * [`BlockRows`] — a query result: the rows of a typed-column block in
//!   an order of their own, and [`table`], [`csv`], [`json`],
//!   [`expand`], [`flamegraph`] — the formatters that render it a row
//!   at a time from its columns, mirroring `cali-query`'s formatters.
//! * [`pushdown`] — the CalQL `WHERE` clause, decided in one place: its
//!   conditions ([`Filter`], [`CmpOp`]), the row test the query engine
//!   runs on every row ([`Filter::row_passes`]), and the block test the
//!   CALB v2 reader skips undecoded blocks by ([`Pushdown::may_match`]).
//!
//! ```
//! use caliper_format::{cali, Dataset};
//! use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
//!
//! let mut ds = Dataset::new();
//! let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
//! let node = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
//! let mut rec = SnapshotRecord::new();
//! rec.push_node(node);
//! ds.push(rec);
//!
//! let bytes = cali::to_bytes(&ds);
//! let back = cali::from_bytes(&bytes).unwrap();
//! assert_eq!(back.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod binary_v2;
pub mod cali;
pub mod csv;
pub mod dataset;
pub mod escape;
pub mod expand;
pub mod flamegraph;
pub mod journal;
pub mod json;
pub mod policy;
pub mod pushdown;
pub mod reader;
pub mod retry;
pub mod rows;
pub mod schema;
pub mod table;

pub use binary_v2::{
    read_footer, to_binary_v2, to_binary_v2_with, Block, BlockInfo, BlockSink, Cell, Column,
    ColumnData, StringTable, V2WriteOptions,
};
pub use cali::{CaliError, CaliReader, CaliWriter};
pub use pushdown::{cmp_types_compatible, AttrStats, CmpOp, Filter, Pushdown, ZoneStat};
pub use dataset::Dataset;
pub use schema::{AttrSchema, Schema};
pub use journal::{FlushPolicy, JournalCounters, JournalWriter, RecoveryReport, SEQ_ATTR};
pub use json::{parse_json, Json, JsonError};
pub use policy::{ReadPolicy, ReadReport, MAX_REPORTED_ERRORS};
pub use reader::{
    read_path, read_path_into, read_path_into_filtered,
    read_path_reported_filtered, scan_dictionary, scan_path, RecordBatch,
};
pub use rows::BlockRows;
