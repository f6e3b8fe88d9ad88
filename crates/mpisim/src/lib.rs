//! # mpisim — a simulated MPI substrate
//!
//! The paper evaluates cross-process aggregation with an MPI-based
//! parallel query application on LLNL's Quartz cluster. This crate is
//! the laptop-scale substitute (see DESIGN.md §3), with two execution
//! engines behind the [`Executor`] trait:
//!
//! * the **event engine** ([`EventEngine`]), which `mpi-caliquery` and
//!   `fig4` run on by default: ranks are resumable state machines
//!   ([`RankTask`]) advanced by a deterministic virtual-clock event loop
//!   (see DESIGN.md §12), so timeouts and scripted delays cost zero
//!   wall-clock time, a rank's local work costs zero virtual time, and
//!   100 000-rank reductions finish in under a second.
//! * the **thread engine** ([`ThreadEngine`], and the [`run`] /
//!   [`run_with_faults`] closures API): ranks are OS threads, links are
//!   crossbeam channels, timeouts cost wall-clock time. Faithful to
//!   real concurrency, capped at a few hundred ranks, and kept as the
//!   oracle the event engine is tested against.
//!
//! The one collective — the binomial-tree reduction of the paper's
//! §IV-C — is implemented on top of point-to-point messages.
//! [`reduce_tree`] is the blocking fault-free reference; every other
//! reduction is the [`ReduceTask`] state machine, which both engines
//! drive.
//!
//! Beyond the fault-free reduction, the crate models *failure*: a
//! [`FaultPlan`] scripts rank deaths and delays deterministically
//! (by communication-op index), [`run_with_faults`] executes a world
//! under such a plan, and [`ReduceTask`] (or, from a blocking rank
//! closure, its adapter [`reduce_tree_resilient`]) routes around dead
//! subtrees, reporting exactly which ranks' contributions the result
//! covers ([`ReduceCoverage`]).
//!
//! ```
//! use mpisim::{run, reduce_tree};
//!
//! let results = run(8, |mut comm| {
//!     let local = (comm.rank() + 1) as u64;
//!     reduce_tree(&mut comm, local, |a, b| a + b).unwrap()
//! });
//! assert_eq!(results[0], Some(36)); // only the root holds the total
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod fault;
pub mod hb;
pub mod sched;
pub mod task;
pub mod trace;
pub mod world;

pub use collectives::{reduce_tree, reduce_tree_resilient, ReduceCoverage, ResilienceOptions};
pub use comm::{Comm, CommError, Tag};
pub use fault::FaultPlan;
pub use hb::{analyze, Analysis, Diagnostic, Severity as HbSeverity, VClock};
pub use sched::{EventEngine, SchedConfig, SchedError, SchedStats};
pub use task::{Action, Executor, Msg, Payload, RankTask, ReduceTask, TaskCtx, Topology, Wake};
pub use trace::{HbTrace, TraceEvent, TraceKind, TracedRun};
pub use world::{drive_task, run, run_with_faults, ThreadEngine};
