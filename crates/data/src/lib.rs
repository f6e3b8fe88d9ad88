//! # caliper-data — the flexible key:value performance data model
//!
//! This crate implements the data model of *"Flexible Data Aggregation
//! for Performance Profiling"* (Böhme, Beckingsale, Schulz — CLUSTER
//! 2017), §III-A: performance data is a stream of records, each a set of
//! user-defined `attribute: value` pairs, where attributes carry string,
//! integer, or floating-point values and subsequent records may have
//! entirely different attribute sets.
//!
//! Contents:
//!
//! * [`Value`] / [`ValueType`] — the variant value type.
//! * [`Attribute`] / [`Properties`] / [`AttributeStore`] — interned,
//!   user-defined attribute keys with storage properties.
//! * [`ContextTree`] — the blackboard-compression tree; a snapshot
//!   references one node instead of copying the whole nesting stack.
//! * [`SnapshotRecord`] (compressed) and [`FlatRecord`] (expanded) —
//!   the two record representations used throughout the system.
//! * [`FxHasher`] — the fast aggregation-key hasher.
//! * [`MetricsRegistry`] — pipeline self-instrumentation: lock-cheap
//!   named counters/gauges/timers the pipeline uses to profile itself.
//! * [`Deadline`] / [`CancelHandle`] — cooperative cancellation tokens
//!   for bounding long-running reads and queries in resident services.
//!
//! ```
//! use caliper_data::{AttributeStore, RecordBuilder, Value};
//!
//! let store = AttributeStore::new();
//! let record = RecordBuilder::new(&store)
//!     .with("callpath", "main/foo")
//!     .with("loop", "mainloop")
//!     .with("loop.iteration", 17i64)
//!     .with("time.duration", 251.0)
//!     .build();
//!
//! let iter = store.find("loop.iteration").unwrap();
//! assert_eq!(record.get(iter.id()), Some(&Value::Int(17)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod deadline;
pub mod fxhash;
pub mod identity;
pub mod metrics;
pub mod node;
pub mod record;
pub mod store;
pub mod value;

pub use attribute::{AttrId, Attribute, Properties, ATTR_NONE};
pub use deadline::{CancelHandle, Deadline};
pub use fxhash::{fxhash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use identity::Identity;
pub use metrics::{MetricKind, MetricSample, MetricsRegistry, Stability};
pub use node::{ContextTree, NodeData, NodeId, NODE_NONE};
pub use record::{Entry, FlatRecord, RecordBuilder, SnapshotRecord};
pub use store::{AttributeConflict, AttributeStore};
pub use value::{Value, ValueType};
