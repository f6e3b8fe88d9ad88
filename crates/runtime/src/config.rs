//! Runtime configuration profiles.
//!
//! The paper (§IV-A): "Users specify which building blocks to use in a
//! runtime configuration profile, either in a configuration file or
//! environment variables." A [`Config`] is a small key=value dictionary
//! with typed accessors; [`Config::from_text`] parses the file form
//! (one `key = value` per line, `#` comments).
//!
//! Recognized keys:
//!
//! | key                   | meaning                                           |
//! |-----------------------|---------------------------------------------------|
//! | `services`            | comma list: `aggregate`, `trace`, `timer`, `sampler`, `event`, `journal` |
//! | `aggregate.key`       | comma list of key attribute labels (GROUP BY)     |
//! | `aggregate.ops`       | AGGREGATE op list, e.g. `count,sum(time.duration)`|
//! | `sampler.interval.ns` | sampling period for the sampler service           |
//! | `timer.inclusive` / `timer.offset` | timer service: inclusive durations, time offsets |
//! | `counters.ghz` / `counters.ipc` | counters service: modelled clock rate and instructions per cycle |
//! | `journal.enable`      | write-ahead snapshot journal on/off               |
//! | `journal.path`        | journal file path (required when journaling)      |
//! | `journal.flush_interval` | journal flush cadence in snapshots (default 1) |
//! | `journal.max_buffer`  | journal buffer byte cap forcing a flush           |
//! | `journal.fsync`       | `fsync` the journal after each flush              |
//! | `journal.append`      | resume an existing journal instead of truncating  |
//! | `metrics.enable`      | per-channel self-instrumentation registry on/off  |
//!
//! The resident aggregation daemon reads its profile through the same
//! dictionary, but its keys are its own: they are named, documented and
//! checked in `caliper_served::config`, not here, so nothing in a
//! profiled application's environment that is meant for the daemon can
//! fail the runtime.
//!
//! Unknown keys are kept (services may define their own). Parsing is
//! the validation: [`Config::parsed`], [`Config::try_u64`] and
//! [`Config::try_bool`] return a [`ConfigError`] naming the key for a
//! present value that does not parse, [`Config::validate`] reads every
//! key above through them and returns the first problem, and
//! [`Caliper::try_new`] runs it so invalid profiles fail up front
//! instead of panicking in thread-scope setup.
//!
//! [`Caliper::try_new`]: crate::runtime::Caliper::try_new

use std::collections::BTreeMap;

/// Error from parsing or validating a configuration profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number; 0 when the error is not tied to a source
    /// line (e.g. a bad value set programmatically or via environment).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl ConfigError {
    /// A validation error for one configuration key, not tied to a
    /// source line.
    pub fn for_key(key: &str, message: impl std::fmt::Display) -> ConfigError {
        ConfigError {
            line: 0,
            message: format!("{key}: {message}"),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "config error: {}", self.message)
        } else {
            write!(f, "config error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

/// A runtime configuration profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    entries: BTreeMap<String, String>,
}

impl Config {
    /// Empty profile (no services enabled).
    pub fn new() -> Config {
        Config::default()
    }

    /// Parse the config-file form.
    pub fn from_text(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once('=') {
                Some((key, value)) => {
                    config
                        .entries
                        .insert(key.trim().to_string(), value.trim().to_string());
                }
                None => {
                    return Err(ConfigError {
                        line: i + 1,
                        message: format!("expected 'key = value', got '{line}'"),
                    })
                }
            }
        }
        Ok(config)
    }

    /// Build a profile from environment variables, the second
    /// configuration path named in §IV-A. Variables are matched by
    /// prefix and mapped to config keys: with the default prefix,
    /// `CALI_SERVICES=event,timer,trace` sets `services`, and
    /// `CALI_AGGREGATE_KEY=kernel` sets `aggregate.key` (underscores
    /// after the prefix become dots, lowercased).
    pub fn from_env_prefix(prefix: &str) -> Config {
        let mut config = Config::new();
        for (key, value) in std::env::vars() {
            if let Some(rest) = key.strip_prefix(prefix) {
                let key = rest.to_ascii_lowercase().replace('_', ".");
                if !key.is_empty() {
                    config.entries.insert(key, value);
                }
            }
        }
        config
    }

    /// [`Config::from_env_prefix`] with the conventional `CALI_` prefix.
    pub fn from_env() -> Config {
        Config::from_env_prefix("CALI_")
    }

    /// Set a key (builder style).
    pub fn set(mut self, key: &str, value: &str) -> Config {
        self.entries.insert(key.to_string(), value.to_string());
        self
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Comma-separated list value (trimmed, empty items dropped).
    pub fn get_list(&self, key: &str) -> Vec<String> {
        self.get(key)
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// [`Config::try_u64`] for code that must not fail on user input: a
    /// malformed value reads as the default ([`Config::validate`] is
    /// what reports it).
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.try_u64(key, default).unwrap_or(default)
    }

    /// [`Config::try_bool`], a malformed value reading as the default.
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        self.try_bool(key, default).unwrap_or(default)
    }

    /// The value of `key` parsed as `T`, `None` when the key is absent.
    /// A present value that does not parse is an error naming the key
    /// and what was `expected` — never a silently applied default.
    pub fn parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &str,
    ) -> Result<Option<T>, ConfigError> {
        self.get(key)
            .map(|v| {
                v.trim().parse().map_err(|_| {
                    ConfigError::for_key(key, format!("expected {expected}, got '{v}'"))
                })
            })
            .transpose()
    }

    /// Integer value with default; malformed is an error.
    pub fn try_u64(&self, key: &str, default: u64) -> Result<u64, ConfigError> {
        Ok(self.parsed(key, "an unsigned integer")?.unwrap_or(default))
    }

    /// Boolean value with default (`true`/`false`/`1`/`0`); anything
    /// else is an error.
    pub fn try_bool(&self, key: &str, default: bool) -> Result<bool, ConfigError> {
        match self.get(key).map(str::trim) {
            None => Ok(default),
            Some("true") | Some("1") => Ok(true),
            Some("false") | Some("0") => Ok(false),
            Some(v) => Err(ConfigError::for_key(
                key,
                format!("expected true/false/1/0, got '{v}'"),
            )),
        }
    }

    /// Whether a service is listed in `services`.
    pub fn service_enabled(&self, name: &str) -> bool {
        self.get_list("services").iter().any(|s| s == name)
    }

    /// Validate the values of every recognized key, returning the
    /// first problem. Unknown keys are still ignored — services may
    /// define their own — but a present, malformed value for a key the
    /// runtime consumes is an error here rather than a panic (or a
    /// silently applied default) later.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(ops) = self.get("aggregate.ops") {
            caliper_query::parse_query(&format!("AGGREGATE {ops}")).map_err(|e| {
                ConfigError::for_key("aggregate.ops", format!("invalid op list '{ops}': {e}"))
            })?;
        }
        for key in ["sampler.interval.ns", "aggregate.max_entries"] {
            self.try_u64(key, 0)?;
        }
        for key in ["metrics.enable", "timer.inclusive", "timer.offset"] {
            self.try_bool(key, false)?;
        }
        for key in ["counters.ghz", "counters.ipc"] {
            self.parsed::<f64>(key, "a number")?;
        }
        // The journal.* keys share their validation with the journal
        // service so the two cannot drift apart.
        crate::journal::JournalConfig::from_config(self)?;
        Ok(())
    }

    // ---- convenience constructors for the common profiles ----

    /// Event-triggered tracing: every begin/end produces a stored
    /// snapshot record.
    pub fn event_trace() -> Config {
        Config::new().set("services", "event,timer,trace")
    }

    /// Event-triggered on-line aggregation with the given scheme.
    pub fn event_aggregate(key: &str, ops: &str) -> Config {
        Config::new()
            .set("services", "event,timer,aggregate")
            .set("aggregate.key", key)
            .set("aggregate.ops", ops)
    }

    /// Sampled tracing with the given period.
    pub fn sampled_trace(interval_ns: u64) -> Config {
        Config::new()
            .set("services", "sampler,timer,trace")
            .set("sampler.interval.ns", &interval_ns.to_string())
    }

    /// Sampled on-line aggregation.
    pub fn sampled_aggregate(interval_ns: u64, key: &str, ops: &str) -> Config {
        Config::new()
            .set("services", "sampler,timer,aggregate")
            .set("sampler.interval.ns", &interval_ns.to_string())
            .set("aggregate.key", key)
            .set("aggregate.ops", ops)
    }

    /// Baseline: no data collection at all (the paper's Figure 3
    /// baseline configuration).
    pub fn baseline() -> Config {
        Config::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_file_form() {
        let config = Config::from_text(
            "# CleverLeaf profile\nservices = event, timer, aggregate\naggregate.key = kernel,mpi.function\nsampler.interval.ns = 10000000\n",
        )
        .unwrap();
        assert!(config.service_enabled("event"));
        assert!(config.service_enabled("aggregate"));
        assert!(!config.service_enabled("trace"));
        assert_eq!(
            config.get_list("aggregate.key"),
            vec!["kernel", "mpi.function"]
        );
        assert_eq!(config.get_u64("sampler.interval.ns", 0), 10_000_000);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = Config::from_text("services trace").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn typed_accessors_default() {
        let config = Config::new().set("flag", "true").set("n", "nope");
        assert!(config.get_bool("flag", false));
        assert!(!config.get_bool("missing", false));
        assert_eq!(config.get_u64("n", 7), 7);
        assert!(config.get_list("missing").is_empty());
    }

    #[test]
    fn env_profile_maps_keys() {
        // Use a unique prefix so parallel tests cannot interfere.
        std::env::set_var("CALITEST77_SERVICES", "event,timer,trace");
        std::env::set_var("CALITEST77_AGGREGATE_KEY", "kernel");
        std::env::set_var("CALITEST77_SAMPLER_INTERVAL_NS", "5000");
        let config = Config::from_env_prefix("CALITEST77_");
        assert!(config.service_enabled("trace"));
        assert_eq!(config.get("aggregate.key"), Some("kernel"));
        assert_eq!(config.get_u64("sampler.interval.ns", 0), 5000);
        std::env::remove_var("CALITEST77_SERVICES");
        std::env::remove_var("CALITEST77_AGGREGATE_KEY");
        std::env::remove_var("CALITEST77_SAMPLER_INTERVAL_NS");
    }

    #[test]
    fn validate_accepts_the_stock_profiles() {
        for config in [
            Config::baseline(),
            Config::event_trace(),
            Config::event_aggregate("kernel", "count,sum(time.duration)"),
            Config::sampled_trace(10_000_000),
            Config::sampled_aggregate(10_000_000, "kernel", "count"),
        ] {
            config.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_values() {
        let err = Config::event_aggregate("kernel", "count, sum(")
            .validate()
            .unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.contains("aggregate.ops"), "{err}");
        assert!(err.to_string().starts_with("config error: "), "{err}");

        let err = Config::new()
            .set("sampler.interval.ns", "fast")
            .validate()
            .unwrap_err();
        assert!(err.message.contains("sampler.interval.ns"), "{err}");

        let err = Config::new()
            .set("journal.enable", "true")
            .validate()
            .unwrap_err();
        assert!(err.message.contains("journal.path"), "{err}");

        let err = Config::new()
            .set("metrics.enable", "yes")
            .validate()
            .unwrap_err();
        assert!(err.message.contains("metrics.enable"), "{err}");
        Config::new()
            .set("metrics.enable", "true")
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_reads_the_runtimes_own_keys() {
        let cases = [
            ("timer.inclusive", "ture"),
            ("timer.offset", "on"),
            ("counters.ghz", "fast"),
            ("counters.ipc", "1,6"),
            ("aggregate.max_entries", "-1"),
        ];
        for (key, bad) in cases {
            let err = Config::new().set(key, bad).validate().unwrap_err();
            assert!(
                err.message.starts_with(&format!("{key}: expected ")),
                "{err}"
            );
            assert!(err.message.ends_with(&format!(", got '{bad}'")), "{err}");
            assert_eq!(err.line, 0);
        }
        Config::new()
            .set("timer.inclusive", "true")
            .set("timer.offset", "0")
            .set("counters.ghz", "2.4")
            .set("counters.ipc", " 1.5 ")
            .validate()
            .unwrap();
    }

    #[test]
    fn infallible_getters_read_through_the_fallible_ones() {
        let config = Config::new()
            .set("flag", " 1 ")
            .set("n", " 12 ")
            .set("bad", "x");
        assert_eq!(config.try_bool("flag", false), Ok(true));
        assert!(config.get_bool("flag", false));
        assert_eq!(config.try_u64("n", 0), Ok(12));
        assert_eq!(config.get_u64("n", 0), 12);
        assert_eq!(config.parsed::<u16>("missing", "a port"), Ok(None));
        assert!(config.try_u64("bad", 7).is_err());
        assert_eq!(config.get_u64("bad", 7), 7);
        assert!(config.get_bool("bad", true));
    }

    #[test]
    fn profile_constructors() {
        let c = Config::event_aggregate("kernel", "count,sum(time.duration)");
        assert!(c.service_enabled("aggregate"));
        assert_eq!(c.get("aggregate.ops"), Some("count,sum(time.duration)"));
        assert_eq!(Config::baseline(), Config::new());
        let s = Config::sampled_trace(10_000_000);
        assert!(s.service_enabled("sampler"));
        assert!(s.service_enabled("trace"));
    }
}
