//! # caliper-repro — flexible data aggregation for performance profiling
//!
//! A from-scratch Rust reproduction of *"Flexible Data Aggregation for
//! Performance Profiling"* (David Böhme, David Beckingsale, Martin
//! Schulz — IEEE CLUSTER 2017), the paper describing Caliper's
//! customizable aggregation system.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`data`] | flexible key:value data model, context tree, records |
//! | [`mod@format`] | `.cali` stream codec, dataset, output formatters |
//! | [`query`] | the aggregation description language + streaming engine |
//! | [`runtime`] | blackboard, annotation API, snapshots, services |
//! | [`mpi`] | simulated MPI substrate (threads as ranks) |
//! | [`apps`] | CleverLeaf proxy + ParaDiS dataset generator |
//!
//! ## Quickstart
//!
//! ```
//! use caliper_repro::prelude::*;
//!
//! // Configure on-line event aggregation — the paper's §III-B scheme.
//! let config = Config::event_aggregate(
//!     "function,loop.iteration",
//!     "count,sum(time.duration)",
//! );
//! let caliper = Caliper::with_clock(config, Clock::virtual_clock());
//! let function = caliper.region_attribute("function");
//! let iteration = caliper.attribute(
//!     "loop.iteration",
//!     ValueType::Int,
//!     Properties::AS_VALUE,
//! );
//!
//! // The annotated program from Listing 1.
//! let mut scope = caliper.make_thread_scope();
//! for i in 0..4i64 {
//!     scope.begin(&iteration, i);
//!     for (name, us) in [("foo", 10u64), ("foo", 30), ("bar", 10)] {
//!         scope.begin(&function, name);
//!         scope.advance_time(us * 1_000);
//!         scope.end(&function).unwrap();
//!     }
//!     scope.end(&iteration).unwrap();
//! }
//! scope.flush();
//!
//! // Off-line analytical aggregation over the collected profile.
//! let profile = caliper.take_dataset();
//! let result = run_query(
//!     &profile,
//!     "SELECT function, loop.iteration, sum(sum#time.duration) \
//!      WHERE function GROUP BY function, loop.iteration",
//! ).unwrap();
//! println!("{}", result.render());
//! assert_eq!(result.records.len(), 8); // 2 functions x 4 iterations
//! ```

#![forbid(unsafe_code)]

pub use caliper_data as data;
pub use caliper_format as format;
pub use caliper_query as query;
pub use caliper_runtime as runtime;
pub use miniapps as apps;
pub use mpisim as mpi;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use caliper_data::{
        AttrId, Attribute, AttributeStore, ContextTree, Entry, FlatRecord, Properties,
        RecordBuilder, SnapshotRecord, Value, ValueType, NODE_NONE,
    };
    pub use caliper_format::{cali, BlockRows, Dataset};
    pub use caliper_query::{
        parse_query, run_query, AggregationSpec, Aggregator, OutputFormat, Pipeline, QueryResult,
    };
    pub use caliper_runtime::{Annotation, Caliper, Clock, Config, ThreadScope};
    pub use miniapps::{CleverLeaf, CleverLeafParams, ParaDisParams, WorkMode};
}
