//! Daemon configuration: the `served.*` profile keys.
//!
//! `cali-served` reads its profile through the same [`Config`]
//! dictionary as the in-process runtime (config file, `CALI_*`
//! environment, command-line overrides layered on top). Its keys are
//! named here and nowhere else, and parsing is the validation:
//! [`ServedConfig::from_config`] reads each through `Config`'s fallible
//! getters, so a typo'd value is a [`ConfigError`] at startup, never a
//! silently applied default.
//!
//! | key                       | meaning                                       |
//! |---------------------------|-----------------------------------------------|
//! | `served.port`             | ingest TCP port (`0` = ephemeral)             |
//! | `served.http.port`        | query/health HTTP port (`0` = ephemeral)      |
//! | `served.data.dir`         | directory of the per-stream journals          |
//! | `served.queue.depth`      | bounded ingest queue capacity (≥ 1)           |
//! | `served.workers`          | ingest worker thread count (≥ 1)              |
//! | `served.query.deadline.ms`| per-query wall-clock budget                   |
//! | `served.replay.deadline.ms`| journal-replay budget per stream at startup  |
//! | `served.shutdown.deadline.ms`| graceful-drain budget before forced exit   |
//! | `served.supervisor.max.restarts`| worker restarts before giving up        |
//! | `served.stream.max.failures`| consecutive batch failures tripping a stream's circuit breaker |
//! | `served.max.groups`       | aggregate-state group cap per stream (`0` = unbounded) |
//! | `served.batch.max.bytes`  | largest accepted ingest batch                 |
//! | `served.fsync`            | fsync journals on every accepted batch        |
//! | `served.aggregate.ops` / `served.aggregate.key` | resident aggregation scheme |

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Duration;

use caliper_runtime::config::{Config, ConfigError};

/// Resolved daemon configuration. See the [module docs](self) and
/// `docs/SERVED.md` for key semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedConfig {
    /// Ingest TCP port; 0 binds an ephemeral port (written to the
    /// ports file).
    pub port: u16,
    /// Query/health HTTP port; 0 binds an ephemeral port.
    pub http_port: u16,
    /// Directory holding one journal file per stream.
    pub data_dir: PathBuf,
    /// Bounded ingest queue capacity; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Ingest worker thread count.
    pub workers: usize,
    /// Per-query wall-clock budget.
    pub query_deadline: Duration,
    /// Journal-replay budget per stream at startup; an over-budget
    /// replay degrades the stream instead of wedging readiness.
    pub replay_deadline: Duration,
    /// Graceful-drain budget: how long shutdown waits for queued
    /// batches to reach the journals before giving up (exit code 2).
    pub shutdown_deadline: Duration,
    /// Worker restarts the supervisor performs before giving up on the
    /// worker slot.
    pub max_restarts: u32,
    /// Consecutive failed batches that trip a stream's circuit breaker
    /// into the degraded state.
    pub max_stream_failures: u32,
    /// Aggregate-state group cap per stream (`--max-groups` semantics,
    /// overflow goes to the `__overflow__` bucket). `None` = unbounded.
    pub max_groups: Option<usize>,
    /// Largest accepted ingest batch in bytes.
    pub batch_max_bytes: usize,
    /// `fsync` journals as part of accepting each batch (durability
    /// against OS crashes, not just process crashes).
    pub fsync: bool,
    /// Resident aggregation op list (CalQL `AGGREGATE` syntax).
    pub aggregate_ops: String,
    /// Resident aggregation key (comma list, CalQL `GROUP BY` syntax).
    pub aggregate_key: String,
}

impl Default for ServedConfig {
    fn default() -> ServedConfig {
        ServedConfig {
            port: 0,
            http_port: 0,
            data_dir: PathBuf::from("."),
            queue_depth: 64,
            workers: 2,
            query_deadline: Duration::from_millis(2000),
            replay_deadline: Duration::from_millis(30_000),
            shutdown_deadline: Duration::from_millis(10_000),
            max_restarts: 5,
            max_stream_failures: 3,
            max_groups: None,
            batch_max_bytes: 4 << 20,
            fsync: false,
            aggregate_ops: "count".to_string(),
            aggregate_key: String::new(),
        }
    }
}

impl ServedConfig {
    /// Resolve a daemon configuration from a profile. A present,
    /// malformed `served.*` value is reported as a [`ConfigError`]
    /// naming its key.
    pub fn from_config(config: &Config) -> Result<ServedConfig, ConfigError> {
        let d = ServedConfig::default();
        let port = |key| config.parsed::<u16>(key, "a TCP port (0-65535)");
        let positive = |key| config.parsed::<NonZeroUsize>(key, "a positive integer");
        let count = |key| config.parsed::<u32>(key, "an unsigned integer");
        let ms = |key, default: Duration| {
            let ms = config.try_u64(key, default.as_millis() as u64);
            ms.map(Duration::from_millis)
        };
        let aggregate_ops = config
            .get("served.aggregate.ops")
            .unwrap_or(&d.aggregate_ops);
        caliper_query::parse_query(&format!("AGGREGATE {aggregate_ops}")).map_err(|e| {
            let message = format!("invalid op list '{aggregate_ops}': {e}");
            ConfigError::for_key("served.aggregate.ops", message)
        })?;
        Ok(ServedConfig {
            port: port("served.port")?.unwrap_or(d.port),
            http_port: port("served.http.port")?.unwrap_or(d.http_port),
            data_dir: config
                .get("served.data.dir")
                .map(PathBuf::from)
                .unwrap_or(d.data_dir),
            queue_depth: positive("served.queue.depth")?.map_or(d.queue_depth, NonZeroUsize::get),
            workers: positive("served.workers")?.map_or(d.workers, NonZeroUsize::get),
            query_deadline: ms("served.query.deadline.ms", d.query_deadline)?,
            replay_deadline: ms("served.replay.deadline.ms", d.replay_deadline)?,
            shutdown_deadline: ms("served.shutdown.deadline.ms", d.shutdown_deadline)?,
            max_restarts: count("served.supervisor.max.restarts")?.unwrap_or(d.max_restarts),
            max_stream_failures: count("served.stream.max.failures")?
                .unwrap_or(d.max_stream_failures),
            max_groups: config
                .parsed::<usize>("served.max.groups", "an unsigned integer")?
                .filter(|&n| n > 0),
            batch_max_bytes: config
                .parsed("served.batch.max.bytes", "an unsigned integer")?
                .unwrap_or(d.batch_max_bytes),
            fsync: config.try_bool("served.fsync", d.fsync)?,
            aggregate_ops: aggregate_ops.to_string(),
            aggregate_key: config
                .get("served.aggregate.key")
                .unwrap_or(&d.aggregate_key)
                .to_string(),
        })
    }

    /// The resident aggregation scheme as a CalQL query text — parsed
    /// once at startup, its [`AggregationSpec`] drives every stream's
    /// warm [`Aggregator`].
    ///
    /// [`AggregationSpec`]: caliper_query::AggregationSpec
    /// [`Aggregator`]: caliper_query::Aggregator
    pub fn aggregate_query(&self) -> String {
        if self.aggregate_key.trim().is_empty() {
            format!("AGGREGATE {}", self.aggregate_ops)
        } else {
            format!(
                "AGGREGATE {} GROUP BY {}",
                self.aggregate_ops, self.aggregate_key
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_resolve_from_empty_profile() {
        let cfg = ServedConfig::from_config(&Config::new()).unwrap();
        assert_eq!(cfg, ServedConfig::default());
        assert_eq!(cfg.aggregate_query(), "AGGREGATE count");
    }

    #[test]
    fn profile_overrides_apply() {
        let cfg = ServedConfig::from_config(
            &Config::new()
                .set("served.port", "7777")
                .set("served.queue.depth", "8")
                .set("served.query.deadline.ms", "250")
                .set("served.max.groups", "100")
                .set("served.aggregate.ops", "count,sum(time.duration)")
                .set("served.aggregate.key", "kernel"),
        )
        .unwrap();
        assert_eq!(cfg.port, 7777);
        assert_eq!(cfg.queue_depth, 8);
        assert_eq!(cfg.query_deadline, Duration::from_millis(250));
        assert_eq!(cfg.max_groups, Some(100));
        assert_eq!(
            cfg.aggregate_query(),
            "AGGREGATE count,sum(time.duration) GROUP BY kernel"
        );
    }

    #[test]
    fn malformed_keys_are_config_errors() {
        // A full, valid daemon profile passes.
        ServedConfig::from_config(
            &Config::new()
                .set("served.port", "0")
                .set("served.http.port", "8080")
                .set("served.queue.depth", "64")
                .set("served.workers", "2")
                .set("served.query.deadline.ms", "2000")
                .set("served.supervisor.max.restarts", "5")
                .set("served.stream.max.failures", "3")
                .set("served.fsync", "true")
                .set("served.aggregate.ops", "count,sum(time.duration)"),
        )
        .unwrap();

        // Typos become ConfigErrors naming the key, not silent defaults.
        let cases = [
            ("served.port", "70000"),
            ("served.http.port", "http"),
            ("served.queue.depth", "0"),
            ("served.workers", "-1"),
            ("served.query.deadline.ms", "2s"),
            ("served.replay.deadline.ms", "soon"),
            ("served.shutdown.deadline.ms", "1e3"),
            ("served.supervisor.max.restarts", "many"),
            ("served.stream.max.failures", "3.5"),
            ("served.max.groups", "all"),
            ("served.batch.max.bytes", "4MiB"),
            ("served.fsync", "yes"),
            ("served.aggregate.ops", "count,sum("),
        ];
        for (key, bad) in cases {
            let err = ServedConfig::from_config(&Config::new().set(key, bad)).unwrap_err();
            assert!(err.message.starts_with(&format!("{key}: ")), "{key}: {err}");
            assert!(err.message.contains(&format!("'{bad}'")), "{key}: {err}");
            assert_eq!(err.line, 0);
        }
    }

    #[test]
    fn the_runtimes_keys_are_not_the_daemons_business() {
        // The daemon reads `served.*` and nothing else: a profile whose
        // runtime half is broken still starts it.
        let profile = Config::new()
            .set("journal.enable", "true")
            .set("timer.inclusive", "ture");
        assert_eq!(
            ServedConfig::from_config(&profile).unwrap(),
            ServedConfig::default()
        );
    }
}
