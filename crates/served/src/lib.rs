//! `caliper-served` — a resident aggregation daemon for Caliper-style
//! performance data (the "service" deployment of the paper's
//! aggregation model: spatial aggregation moves from a post-mortem
//! batch step into an always-on, incrementally-maintained service).
//!
//! The daemon ([`Server`]) ingests `.cali` record batches over a
//! hand-rolled TCP line protocol ([`protocol`]), folds each batch into
//! a bounded per-stream incremental aggregate ([`state`]), journals
//! every accepted batch *before* acknowledging it (ack-after-flush
//! durability), and answers CalQL queries over the warm aggregate via
//! a minimal HTTP/1.1 plane ([`http`]): `/query`, `/healthz`,
//! `/readyz`, `/stats`, `POST /shutdown`.
//!
//! Robustness is the point, not a feature flag:
//!
//! * **Backpressure** — ingest flows through one bounded queue, part of
//!   the daemon's one state and its pure transition function; a full
//!   queue answers `BUSY retry-after-ms=…` instead of blocking the
//!   accept loop or buffering without bound, and each listener runs a
//!   bounded number of connection handlers.
//! * **Supervision** — ingest workers run under [`supervisor::supervise`]:
//!   panics are caught, workers restart on a seeded backoff schedule,
//!   and a crash loop trips into a visible degraded state (exit code 2).
//!   Per-stream circuit breakers stop repeated batch failures from
//!   grinding a stream forever.
//! * **Deadlines** — every query runs under a `Deadline`; slow queries
//!   return a partial result with an explicit warning (HTTP 408)
//!   instead of hanging the connection.
//! * **Graceful degradation and recovery** — `POST /shutdown` drains
//!   the queue, flushes and fsyncs journals, and exits 0; any restart
//!   (graceful or `kill -9`) replays the journals and resumes with
//!   identical query results for every acknowledged batch.
//!
//! Fault injection: the daemon honors `CALI_FAULTS` rules at
//! `served.accept`, `served.ingest`, and `served.query` (see
//! `caliper_faults::sites`), which is how the chaos suite kills
//! workers, drops connections, and slows queries deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod daemon;
pub mod http;
pub mod protocol;
pub mod server;
pub mod state;
pub mod supervisor;

pub use config::ServedConfig;
pub use protocol::{IngestClient, Reply};
pub use server::{ExitSummary, Server, ServerState};
pub use state::StreamState;
pub use supervisor::WorkerHealth;
