//! # mpisim — a simulated MPI substrate
//!
//! The paper evaluates cross-process aggregation with an MPI-based
//! parallel query application on LLNL's Quartz cluster. This crate is
//! the laptop-scale substitute (see DESIGN.md §3). Every simulated rank
//! is a [`RankTask`] — a resumable state machine — and an [`Executor`]
//! runs one per rank; there are two:
//!
//! * the **event engine** ([`EventEngine`]), which `mpi-caliquery` and
//!   `fig4` run on by default: tasks are advanced by a deterministic
//!   virtual-clock event loop (see DESIGN.md §12), so timeouts and
//!   scripted delays cost zero wall-clock time, a rank's local work
//!   costs zero virtual time, and 100 000-rank reductions finish in
//!   under a second.
//! * the **thread engine** ([`ThreadEngine`]): ranks are OS threads,
//!   links are channels, timeouts cost wall-clock time. Faithful to
//!   real concurrency, capped at a few hundred ranks.
//!
//! The one collective — the binomial-tree reduction of the paper's
//! §IV-C — is the [`ReduceTask`] state machine, built on point-to-point
//! messages and driven by both engines.
//!
//! Beyond the fault-free reduction, the crate models *failure*: a
//! [`FaultPlan`] scripts rank deaths and delays deterministically (by
//! communication-op index), and [`ReduceTask`] routes around dead
//! subtrees, reporting exactly which ranks' contributions the result
//! covers ([`ReduceCoverage`]). With tracing on, a [`Run`] also carries
//! the happens-before trace ([`HbTrace`]) that [`analyze`] checks for
//! races and deadlocks.
//!
//! ```
//! use mpisim::{EventEngine, Executor, FaultPlan, ReduceTask, ResilienceOptions, Topology};
//!
//! let make = |rank: usize, size: usize| {
//!     let local = rank.to_string();
//!     let opts = ResilienceOptions::default();
//!     ReduceTask::new(rank, size, Topology::Flat, move || local, |a, b| a + &b, opts)
//! };
//! let run = EventEngine::new().run(8, FaultPlan::new(), make, false);
//! let outputs = run.outputs.unwrap();
//! // Only the root holds the total: the in-order fold over every rank.
//! let (total, coverage) = outputs[0].clone().unwrap().unwrap();
//! assert_eq!(total, "01234567");
//! assert!(coverage.is_complete());
//! assert!(outputs[1..].iter().all(|out| out.as_ref().unwrap().is_none()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod fault;
pub mod hb;
pub mod sched;
pub mod task;
pub mod trace;
pub mod world;

pub use comm::{CommError, Tag};
pub use fault::FaultPlan;
pub use hb::{analyze, Analysis, Diagnostic, Severity as HbSeverity, VClock};
pub use sched::{EventEngine, SchedConfig, SchedError, SchedStats};
pub use task::{
    Action, Executor, Msg, Payload, RankTask, ReduceCoverage, ReduceTask, ResilienceOptions, Run,
    TaskCtx, Topology, Wake,
};
pub use trace::{HbTrace, TraceEvent, TraceKind};
pub use world::ThreadEngine;
