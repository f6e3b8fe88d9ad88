//! # caliper-query — the aggregation description language and engine
//!
//! This crate implements the core contribution of *"Flexible Data
//! Aggregation for Performance Profiling"* (CLUSTER 2017): an abstract
//! aggregation model over the flexible key:value data model, where users
//! choose
//!
//! * **aggregation attributes** — what to aggregate,
//! * an **aggregation key** — over what to aggregate (GROUP BY), and
//! * **aggregation operators** — how to reduce (count/sum/min/max/…),
//!
//! expressed in a small SQL-like description language:
//!
//! ```
//! use caliper_query::parse_query;
//!
//! let spec = parse_query(
//!     "AGGREGATE count, sum(time.duration)
//!      WHERE not(mpi.function)
//!      GROUP BY amr.level, iteration#mainloop",
//! ).unwrap();
//! assert_eq!(spec.key.len(), 2);
//! ```
//!
//! The same [`Aggregator`] engine serves all three aggregation
//! applications from the paper, and one fold, [`BlockFold`], is the
//! way into it: on-line event aggregation (the runtime's aggregate
//! service appends snapshot records to a block and folds it), off-line
//! analytical aggregation ([`run_query`] over a dataset, a file's
//! blocks, a daemon stream's batches — and [`Aggregator::add`] of one
//! record, a block of one row), and cross-process aggregation (partial
//! [`Pipeline`]s are merged up a reduction tree, [`Aggregator::merge`]
//! the one other way a key is admitted).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod diag;
pub mod display;
pub mod ast;
pub mod filter;
pub mod lets;
pub mod lexer;
pub mod ops;
pub mod parallel;
pub mod parser;
pub mod pushdown;
pub mod query;
pub mod scan;
pub mod sema;

pub use aggregator::{AggregationSpec, Aggregator, OVERFLOW_KEY};
pub use ast::{
    AggOp, CmpOp, Filter, FormatOpt, LetDef, LetExpr, OpKind, OutputFormat, QuerySpec, SortDir,
    SortKey,
};
pub use diag::{Diagnostic, Severity, Span};
pub use ops::Reducer;
pub use parallel::{
    parallel_query_files, ParallelOptions, ParallelQueryError, ShardFailure,
    ShardTimings, WorkerTimings,
};
pub use parser::{parse_query, parse_query_spanned, ParseError, SpanMap};
pub use pushdown::build_pushdown;
pub use query::{run_query, Pipeline, QueryResult};
pub use scan::{BlockFold, Scanned, MAX_STREAM_STRINGS};
pub use sema::analyze;
