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
//! applications from the paper, and one block fold is the way into it,
//! owned by a [`Pipeline`] (the fold of its query) or an [`Aggregator`]
//! (the fold of its aggregation) and by nothing else: on-line event
//! aggregation (the runtime's aggregate service appends snapshot
//! records to a block and hands it to [`Aggregator::fold_block`]),
//! off-line analytical aggregation ([`run_query`] over a dataset, a
//! file's blocks through [`Pipeline::fold_block`], a daemon stream's
//! batches — and [`Aggregator::add`] of one record, a block of one
//! row), and cross-process aggregation (partial [`Pipeline`]s are
//! merged up a reduction tree, [`Aggregator::merge`] the one other way
//! a key is admitted). The fold's caches follow the identity of the
//! string table a block's codes refer to, so no caller pairs the two.
//!
//! A `WHERE` condition ([`Filter`], [`CmpOp`]) is the format layer's
//! type (`caliper_format::pushdown`, re-exported here): one module
//! decides whether a row passes it, which the fold asks, and whether a
//! CALB v2 block may be skipped, which the reader asks
//! ([`build_pushdown`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod ast;
pub mod diag;
pub mod display;
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
pub use caliper_format::pushdown::cmp_types_compatible;
pub use diag::{Diagnostic, Severity, Span};
pub use ops::Reducer;
pub use parallel::{
    fold_files, parallel_query_files, ParallelOptions, ParallelQueryError, ShardFailure,
    ShardTimings, WorkerTimings,
};
pub use parser::{parse_query, parse_query_spanned, ParseError, SpanMap};
pub use pushdown::build_pushdown;
pub use query::{run_query, Pipeline, QueryResult};
pub use scan::{Scanned, MAX_STREAM_STRINGS};
pub use sema::analyze;
