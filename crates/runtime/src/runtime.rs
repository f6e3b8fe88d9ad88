//! The per-process Caliper runtime instance and its channels.
//!
//! A [`Caliper`] owns the process-wide state: attribute dictionary,
//! context tree, and clock. Data collection happens in [`Channel`]s —
//! independent (configuration, services, output dataset) bundles that
//! observe the same program annotations. A process usually has one
//! channel, but several can run *simultaneously*: e.g. a low-overhead
//! sampled profile and a detailed event-aggregated profile from a
//! single run — the paper's "we only changed the aggregation schemes"
//! workflow (§VI-F) without even re-running.
//!
//! In a distributed-memory program each (simulated) process creates its
//! own `Caliper`; there is no inter-process communication at runtime
//! (§IV-A) — cross-process aggregation happens in post-processing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use caliper_data::{
    Attribute, AttributeStore, ContextTree, MetricsRegistry, Properties, Value, ValueType,
};
use caliper_format::{Block, Cell, Dataset, StringTable};
use parking_lot::{Mutex, RwLock};

use crate::clock::Clock;
use crate::config::{Config, ConfigError};
use crate::journal::{JournalConfig, JournalSink};
use crate::thread::ThreadScope;

/// One data-collection channel: a configuration profile plus the
/// process dataset its per-thread services flush into.
pub struct Channel {
    name: String,
    config: Config,
    collected: Mutex<Dataset>,
    total_snapshots: AtomicU64,
    flushed_threads: AtomicU64,
    /// Problems found validating `config` (or opening the journal).
    /// Affected services are skipped instead of panicking; the errors
    /// stay inspectable here and fail [`Caliper::try_new`].
    config_errors: Vec<ConfigError>,
    /// The channel's write-ahead snapshot journal, when configured.
    journal: Option<Arc<JournalSink>>,
    /// Self-instrumentation registry (`metrics.enable = true`). Each
    /// channel gets its own instance — not the process global — so a
    /// dogfooded profile only reports its own channel's activity and
    /// parallel tests cannot bleed counts into each other.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Channel {
    fn new(name: &str, config: Config, store: Arc<AttributeStore>, tree: Arc<ContextTree>) -> Channel {
        let mut config_errors = Vec::new();
        let mut journal = None;
        match config.validate() {
            Ok(()) => {
                // validate() already vetted the journal keys, so
                // from_config cannot fail here; opening the file can.
                if let Ok(Some(journal_config)) = JournalConfig::from_config(&config) {
                    match JournalSink::create(&journal_config, &store, &tree) {
                        Ok(sink) => journal = Some(sink),
                        Err(e) => config_errors.push(ConfigError::for_key(
                            "journal.path",
                            format!("cannot open '{}': {e}", journal_config.path.display()),
                        )),
                    }
                }
            }
            Err(e) => config_errors.push(e),
        }
        let metrics = config
            .get_bool("metrics.enable", false)
            .then(|| Arc::new(MetricsRegistry::new()));
        Channel {
            name: name.to_string(),
            config,
            collected: Mutex::new(Dataset::with_context(store, tree)),
            total_snapshots: AtomicU64::new(0),
            flushed_threads: AtomicU64::new(0),
            config_errors,
            journal,
            metrics,
        }
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The channel's configuration profile.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Problems found validating this channel's profile. Non-empty
    /// means some services were skipped; [`Caliper::try_new`] surfaces
    /// the first one as an error.
    pub fn config_errors(&self) -> &[ConfigError] {
        &self.config_errors
    }

    /// The channel's write-ahead snapshot journal, when configured.
    pub fn journal(&self) -> Option<&Arc<JournalSink>> {
        self.journal.as_ref()
    }

    /// The channel's self-instrumentation registry, when the profile
    /// sets `metrics.enable = true`. `None` means metrics are off and
    /// the snapshot hot path performs zero extra atomic operations.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Set a dataset-global metadata value on this channel.
    pub fn set_global(&self, label: &str, value: impl Into<Value>) {
        let mut collected = self.collected.lock();
        collected.set_global(label, value);
        if let (Some(journal), Some(global)) = (&self.journal, collected.globals.last()) {
            journal.append_globals(global);
        }
    }

    /// Record flushed per-thread output into the channel dataset. The
    /// services flush blocks, which keep the order the threads flushed
    /// in.
    pub(crate) fn collect(&self, flushed: Dataset, snapshots: u64) {
        let mut collected = self.collected.lock();
        collected.records.extend(flushed.records);
        collected.blocks.extend(flushed.blocks);
        collected.globals.extend(flushed.globals);
        self.total_snapshots.fetch_add(snapshots, Ordering::Relaxed);
        self.flushed_threads.fetch_add(1, Ordering::Relaxed);
        // Flush is a cold path (once per thread), so the by-name
        // registry lookup is fine here.
        if let Some(m) = &self.metrics {
            m.counter("runtime.flushed_threads").inc();
        }
    }

    /// Take the collected dataset (e.g. to write a `.cali` file),
    /// leaving an empty dataset behind. Thread scopes must be flushed
    /// first. Drains the journal too, so an orderly shutdown leaves the
    /// journal complete as well.
    pub fn take_dataset(&self) -> Dataset {
        if let Some(journal) = &self.journal {
            journal.flush();
        }
        if let Some(metrics) = &self.metrics {
            if let Some(journal) = &self.journal {
                sample_journal_stats(metrics, &journal.stats());
            }
        }
        let mut collected = self.collected.lock();
        if let Some(metrics) = &self.metrics {
            append_metric_records(&mut collected, metrics);
        }
        let store = Arc::clone(&collected.store);
        let tree = Arc::clone(&collected.tree);
        std::mem::replace(&mut *collected, Dataset::with_context(store, tree))
    }

    /// Run the channel's configured flush-time report (`report.config`
    /// query over the collected dataset, without consuming it). See
    /// [`Caliper::report`].
    pub fn report(&self) -> Option<String> {
        let query = self.config.get("report.config")?.to_string();
        let collected = self.collected.lock();
        Some(match caliper_query::run_query(&collected, &query) {
            Ok(result) => result.render(),
            Err(e) => format!("report error: {e}\n"),
        })
    }

    /// Total snapshots processed by flushed thread scopes on this
    /// channel (Table I's "snapshots" column).
    pub fn total_snapshots(&self) -> u64 {
        self.total_snapshots.load(Ordering::Relaxed)
    }

    /// Number of thread scopes that have flushed into this channel.
    pub fn flushed_threads(&self) -> u64 {
        self.flushed_threads.load(Ordering::Relaxed)
    }
}

/// Fold a journal sink's accounting into the channel registry as
/// gauges, so the dogfooded profile reports journal health (buffer
/// flushes, fsyncs, write errors, disabled sinks) alongside the
/// runtime counters. Called at dataset-take time — the journal keeps
/// its own counters internally, so the hot path pays nothing extra.
fn sample_journal_stats(metrics: &MetricsRegistry, stats: &crate::journal::JournalStats) {
    let counters = &stats.counters;
    metrics.gauge("runtime.journal.appended").set(counters.appended);
    metrics.gauge("runtime.journal.durable").set(counters.durable);
    metrics.gauge("runtime.journal.flushes").set(counters.flushes);
    metrics
        .gauge("runtime.journal.forced_flushes")
        .set(counters.forced_flushes);
    metrics.gauge("runtime.journal.syncs").set(counters.syncs);
    metrics.gauge("runtime.journal.retries").set(counters.retries);
    metrics
        .gauge("runtime.journal.write_errors")
        .set(stats.write_errors);
    metrics
        .gauge("runtime.journal.disabled")
        .set(u64::from(stats.disabled));
}

/// Emit the registry as ordinary snapshot records — one per metric,
/// carrying `metric.name`, `metric.kind`, and `metric.value` — so a
/// dogfooded profile can be analysed with the same CalQL pipeline as
/// the program's own data, e.g.
/// `GROUP BY metric.name AGGREGATE sum(metric.value)`. They are one
/// block, after everything the threads flushed.
fn append_metric_records(collected: &mut Dataset, metrics: &MetricsRegistry) {
    let name_attr = collected.attribute("metric.name", ValueType::Str, Properties::AS_VALUE);
    let kind_attr = collected.attribute("metric.kind", ValueType::Str, Properties::AS_VALUE);
    let value_attr = collected.attribute(
        "metric.value",
        ValueType::UInt,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let (mut strings, mut block) = (StringTable::default(), Block::default());
    let name = block.column_for(name_attr.id(), ValueType::Str);
    let kind = block.column_for(kind_attr.id(), ValueType::Str);
    let value = block.column_for(value_attr.id(), ValueType::UInt);
    // snapshot() returns samples sorted by name, so the emitted records
    // are in a deterministic order.
    for sample in metrics.snapshot() {
        block.push_imm(name, Cell::Str(strings.intern(&sample.name)));
        block.push_imm(kind, Cell::Str(strings.intern(sample.kind.name())));
        block.push_imm(value, Cell::UInt(sample.value));
        assert!(block.end_row(), "a registry of more than 2^30 metrics");
    }
    collected.blocks.push((Arc::new(strings), block));
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Channel({}, {} snapshots)",
            self.name,
            self.total_snapshots()
        )
    }
}

/// A per-process Caliper runtime.
pub struct Caliper {
    store: Arc<AttributeStore>,
    tree: Arc<ContextTree>,
    clock: Clock,
    channels: RwLock<Vec<Arc<Channel>>>,
}

impl Caliper {
    /// Create a runtime with a real (monotonic) clock and one default
    /// channel running `config`.
    pub fn new(config: Config) -> Arc<Caliper> {
        Caliper::with_clock(config, Clock::real())
    }

    /// Create a runtime with an explicit clock (virtual clocks for
    /// deterministic workload models).
    pub fn with_clock(config: Config, clock: Clock) -> Arc<Caliper> {
        let store = Arc::new(AttributeStore::new());
        let tree = Arc::new(ContextTree::new());
        let default = Arc::new(Channel::new(
            "default",
            config,
            Arc::clone(&store),
            Arc::clone(&tree),
        ));
        Arc::new(Caliper {
            store,
            tree,
            clock,
            channels: RwLock::new(vec![default]),
        })
    }

    /// Like [`Caliper::new`], but fail up front when the profile is
    /// invalid instead of silently skipping the affected services.
    /// Embedding tools should prefer this so a typo'd `aggregate.ops`
    /// or unwritable `journal.path` is reported before any measurement.
    pub fn try_new(config: Config) -> Result<Arc<Caliper>, ConfigError> {
        Caliper::try_with_clock(config, Clock::real())
    }

    /// [`Caliper::try_new`] with an explicit clock.
    pub fn try_with_clock(config: Config, clock: Clock) -> Result<Arc<Caliper>, ConfigError> {
        let caliper = Caliper::with_clock(config, clock);
        let default = caliper.default_channel();
        match default.config_errors().first() {
            Some(e) => Err(e.clone()),
            None => Ok(caliper),
        }
    }

    /// The process attribute dictionary.
    pub fn store(&self) -> &Arc<AttributeStore> {
        &self.store
    }

    /// The process context tree.
    pub fn tree(&self) -> &Arc<ContextTree> {
        &self.tree
    }

    /// The runtime clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The default channel's configuration profile.
    pub fn config(&self) -> Config {
        self.default_channel().config.clone()
    }

    /// The default channel (created from the constructor's config).
    pub fn default_channel(&self) -> Arc<Channel> {
        Arc::clone(&self.channels.read()[0])
    }

    /// Create an additional data-collection channel. Thread scopes
    /// created *after* this call serve the new channel as well; existing
    /// scopes are unaffected.
    pub fn create_channel(&self, name: &str, config: Config) -> Arc<Channel> {
        let channel = Arc::new(Channel::new(
            name,
            config,
            Arc::clone(&self.store),
            Arc::clone(&self.tree),
        ));
        self.channels.write().push(Arc::clone(&channel));
        channel
    }

    /// All channels, in creation order (the default channel first).
    pub fn channels(&self) -> Vec<Arc<Channel>> {
        self.channels.read().clone()
    }

    /// Intern an attribute.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already interned with a different type or
    /// properties — a programming error in the instrumented code. Use
    /// [`Caliper::try_attribute`] to handle the conflict instead.
    pub fn attribute(&self, name: &str, vtype: ValueType, props: Properties) -> Attribute {
        match self.try_attribute(name, vtype, props) {
            Ok(attr) => attr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Intern an attribute, reporting a type/properties conflict with
    /// an earlier interning instead of panicking.
    pub fn try_attribute(
        &self,
        name: &str,
        vtype: ValueType,
        props: Properties,
    ) -> Result<Attribute, caliper_data::AttributeConflict> {
        self.store.create(name, vtype, props)
    }

    /// Intern a nested (begin/end) string attribute — the common case
    /// for source-code annotations.
    pub fn region_attribute(&self, name: &str) -> Attribute {
        self.attribute(name, ValueType::Str, Properties::NESTED)
    }

    /// Create a thread scope: the per-thread blackboard plus service
    /// instances for every current channel. Each monitored thread of
    /// the target program needs its own scope (real Caliper keeps this
    /// in thread-local storage; here the handle is explicit).
    pub fn make_thread_scope(self: &Arc<Self>) -> ThreadScope {
        ThreadScope::new(Arc::clone(self))
    }

    /// Set a dataset-global metadata value (e.g. `mpi.rank`) on every
    /// channel — process metadata belongs in every output dataset.
    pub fn set_global(&self, label: &str, value: impl Into<Value>) {
        let value = value.into();
        for channel in self.channels.read().iter() {
            channel.set_global(label, value.clone());
        }
    }

    /// Take the default channel's collected dataset.
    pub fn take_dataset(&self) -> Dataset {
        self.default_channel().take_dataset()
    }

    /// Run the default channel's flush-time report: if its profile sets
    /// `report.config` to a query, execute it over the collected
    /// dataset and return the rendered result (without consuming the
    /// dataset). Mirrors Caliper's runtime report service — a profile
    /// like
    ///
    /// ```text
    /// services = event,timer,aggregate,report
    /// report.config = SELECT function, sum#time.duration ORDER BY function
    /// ```
    ///
    /// prints a profile when the program ends. Returns `None` when no
    /// report is configured; query errors are returned as the rendered
    /// error text so a broken report never aborts the target program.
    pub fn report(&self) -> Option<String> {
        self.default_channel().report()
    }

    /// Total snapshots processed by the default channel (Table I's
    /// "snapshots" column).
    pub fn total_snapshots(&self) -> u64 {
        self.default_channel().total_snapshots()
    }

    /// Number of thread scopes that have flushed into the default
    /// channel.
    pub fn flushed_threads(&self) -> u64 {
        self.default_channel().flushed_threads()
    }
}

impl std::fmt::Debug for Caliper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Caliper({} attrs, {} nodes, {} channels)",
            self.store.len(),
            self.tree.len(),
            self.channels.read().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_land_in_dataset() {
        let caliper = Caliper::with_clock(Config::baseline(), Clock::virtual_clock());
        caliper.set_global("mpi.rank", 3i64);
        caliper.set_global("experiment", "test");
        let ds = caliper.take_dataset();
        assert_eq!(ds.global("mpi.rank"), Some(Value::Int(3)));
        assert_eq!(ds.global("experiment"), Some(Value::str("test")));
        // take_dataset leaves an empty dataset
        assert!(caliper.take_dataset().globals.is_empty());
    }

    #[test]
    fn attribute_helpers_set_properties() {
        let caliper = Caliper::with_clock(Config::baseline(), Clock::virtual_clock());
        let region = caliper.region_attribute("function");
        assert!(region.is_nested());
        assert_eq!(region.value_type(), ValueType::Str);
        let metric = caliper.attribute(
            "bytes",
            ValueType::UInt,
            Properties::AS_VALUE | Properties::AGGREGATABLE,
        );
        assert!(metric.is_aggregatable());
    }

    #[test]
    fn report_runs_configured_query() {
        let config = Config::event_aggregate("function", "count,sum(time.duration)")
            .set("services", "event,timer,aggregate,report")
            .set(
                "report.config",
                "SELECT function, aggregate.count WHERE function ORDER BY function",
            );
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        for name in ["solve", "io", "solve"] {
            scope.begin(&function, name);
            scope.advance_time(1_000);
            scope.end(&function).unwrap();
        }
        scope.flush();
        let report = caliper.report().expect("report configured");
        assert!(report.contains("solve"), "{report}");
        assert!(report.contains("io"), "{report}");
        // Reporting does not consume the dataset.
        assert!(!caliper.take_dataset().is_empty());

        let no_report = Caliper::with_clock(Config::baseline(), Clock::virtual_clock());
        assert!(no_report.report().is_none());
    }

    #[test]
    fn report_errors_are_contained() {
        let config = Config::baseline().set("report.config", "AGGREGATE bogus(x)");
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let report = caliper.report().unwrap();
        assert!(report.contains("report error"), "{report}");
    }

    #[test]
    fn counters_service_reports_through_runtime() {
        let config = Config::new()
            .set("services", "event,counters,trace")
            .set("counters.ghz", "1.0")
            .set("counters.ipc", "2.0");
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        scope.begin(&function, "work");
        scope.advance_time(500);
        scope.end(&function).unwrap();
        scope.flush();
        let ds = caliper.take_dataset();
        let cycles = ds.store.find("cpu.cycles").unwrap();
        let instructions = ds.store.find("cpu.instructions").unwrap();
        // The end-event snapshot carries the 500 ns of work: 500 cycles
        // at 1 GHz, 1000 instructions at IPC 2.
        let flats: Vec<_> = ds.flat_records().collect();
        let end_snap = flats
            .iter()
            .find(|r| r.get(cycles.id()) == Some(&Value::UInt(500)))
            .expect("end snapshot with counter delta");
        assert_eq!(
            end_snap.get(instructions.id()),
            Some(&Value::UInt(1_000))
        );
    }

    #[test]
    fn try_new_fails_on_the_runtimes_keys_and_only_on_those() {
        for (key, bad) in [("timer.inclusive", "ture"), ("counters.ghz", "fast")] {
            let err = Caliper::try_new(Config::event_trace().set(key, bad)).unwrap_err();
            assert!(err.message.starts_with(key), "{err}");
        }
        // The daemon's keys are the daemon's (`caliper_served::config`):
        // `CALI_SERVED_PORT=http` in a profiled application's
        // environment is not this library's error.
        Caliper::try_new(Config::event_trace().set("served.port", "http")).unwrap();
    }

    #[test]
    fn channels_collect_independently() {
        // One run, two simultaneous schemes: a trace channel and an
        // aggregation channel.
        let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
        let agg_channel = caliper.create_channel(
            "profile",
            Config::event_aggregate("function", "count,sum(time.duration)"),
        );
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        for _ in 0..5 {
            scope.begin(&function, "work");
            scope.advance_time(1_000);
            scope.end(&function).unwrap();
        }
        scope.flush();

        // Trace channel: one record per event (5 x begin+end = 10).
        let trace = caliper.take_dataset();
        assert_eq!(trace.len(), 10);
        // Aggregation channel: 2 keys (work / no function).
        let profile = agg_channel.take_dataset();
        assert_eq!(profile.len(), 2);
        assert_eq!(agg_channel.total_snapshots(), 10);
        assert_eq!(agg_channel.name(), "profile");
    }

    #[test]
    fn channels_can_differ_in_trigger_mode() {
        // Default channel samples; second channel is event-triggered.
        let caliper = Caliper::with_clock(
            Config::sampled_trace(1_000),
            Clock::virtual_clock(),
        );
        let events = caliper.create_channel("events", Config::event_trace());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        scope.begin(&function, "work");
        scope.advance_time(10_000); // 10 sampling periods
        scope.end(&function).unwrap();
        scope.flush();

        assert_eq!(caliper.take_dataset().len(), 10); // samples
        assert_eq!(events.take_dataset().len(), 2); // begin + end
    }

    #[test]
    fn metrics_disabled_by_default_costs_nothing() {
        let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
        assert!(caliper.default_channel().metrics().is_none());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        scope.begin(&function, "x");
        scope.end(&function).unwrap();
        scope.flush();
        let ds = caliper.take_dataset();
        // No dogfood records, no metric.* attributes.
        assert_eq!(ds.len(), 2);
        assert!(ds.store.find("metric.name").is_none());
    }

    #[test]
    fn metrics_registry_dogfoods_into_dataset() {
        let config = Config::event_aggregate("function", "count,sum(time.duration)")
            .set("metrics.enable", "true");
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        for _ in 0..3 {
            scope.begin(&function, "work");
            scope.advance_time(1_000);
            scope.end(&function).unwrap();
        }
        scope.flush();

        let channel = caliper.default_channel();
        let metrics = channel.metrics().expect("metrics.enable = true");
        assert!(!metrics.is_empty());

        // The registry is emitted as snapshot records queryable with
        // the same CalQL pipeline as the program's own data.
        let ds = caliper.take_dataset();
        let result = caliper_query::run_query(
            &ds,
            "AGGREGATE sum(metric.value) GROUP BY metric.name WHERE metric.name",
        )
        .unwrap();
        let lookup = |name: &str| {
            result.lookup(
                |r, s| {
                    let attr = s.find("metric.name").unwrap();
                    r.get(attr.id()) == Some(&Value::str(name))
                },
                "sum#metric.value",
            )
        };
        // 3 x (begin + end) = 6 blackboard ops and 6 event snapshots.
        assert_eq!(lookup("runtime.blackboard.ops"), Some(Value::UInt(6)));
        assert_eq!(lookup("runtime.snapshots"), Some(Value::UInt(6)));
        assert_eq!(lookup("runtime.flushed_threads"), Some(Value::UInt(1)));
    }

    #[test]
    fn metrics_capture_journal_stats() {
        let dir = std::env::temp_dir().join(format!(
            "caliper-metrics-journal-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chan.journal");
        let config = Config::event_trace()
            .set("services", "event,timer,trace,journal")
            .set("journal.enable", "true")
            .set("journal.path", path.to_str().unwrap())
            .set("metrics.enable", "true");
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        scope.begin(&function, "x");
        scope.end(&function).unwrap();
        scope.flush();
        let ds = caliper.take_dataset();
        let name = ds.store.find("metric.name").unwrap();
        let value = ds.store.find("metric.value").unwrap();
        let appended = ds
            .flat_records()
            .find(|r| r.get(name.id()) == Some(&Value::str("runtime.journal.appended")))
            .expect("journal gauge emitted");
        assert!(
            appended.get(value.id()).unwrap().to_u64().unwrap() >= 2,
            "journal appended the two event snapshots"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two threads aggregating (with spills) and tracing on one channel,
    /// metrics on: everything is flushed as blocks, in the order of the
    /// flushes, and the dataset reads, writes and answers as its rows.
    #[test]
    fn a_channel_of_blocks_is_its_rows() {
        let config = Config::event_aggregate("function", "count,sum(time.duration)")
            .set("services", "event,timer,aggregate,trace")
            .set("aggregate.max_entries", "4")
            .set("metrics.enable", "true");
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|threads| {
            for t in 0..2 {
                let (caliper, function, start) = (&caliper, &function, &start);
                threads.spawn(move || {
                    let mut scope = caliper.make_thread_scope();
                    start.wait();
                    for i in 0..700 {
                        scope.begin(function, format!("f{}", (i + t) % 7));
                        scope.advance_time(10);
                        scope.end(function).unwrap();
                    }
                    scope.flush();
                });
            }
        });
        let ds = caliper.take_dataset();
        assert!(ds.records.is_empty());

        // Each thread's aggregate (spills, then the rest), then its
        // trace, and the metrics last.
        let count = ds.store.find("aggregate.count").unwrap();
        let name = ds.store.find("metric.name").unwrap();
        let mut kinds: Vec<&str> = ds
            .flat_records()
            .map(|row| match (row.get(count.id()), row.get(name.id())) {
                (Some(_), _) => "aggregate",
                (_, Some(_)) => "metric",
                _ => "trace",
            })
            .collect();
        let traced = kinds.iter().filter(|&&kind| kind == "trace").count();
        kinds.dedup();
        assert_eq!(kinds, ["aggregate", "trace", "aggregate", "trace", "metric"]);
        assert_eq!(traced, 2 * 1400);
        let total = |query: &str| {
            let result = caliper_query::run_query(&ds, query).unwrap();
            result.records.row(0).pairs()[0].1.to_u64()
        };
        assert_eq!(total("AGGREGATE sum(aggregate.count) AS n WHERE aggregate.count"), Some(2800));
        assert!(total("AGGREGATE count WHERE aggregate.count").unwrap() > 2 * 8, "spilled");
        assert_eq!(
            total("AGGREGATE sum(metric.value) WHERE metric.name=runtime.flushed_threads"),
            Some(2)
        );

        let mut rows = Dataset::with_context(Arc::clone(&ds.store), Arc::clone(&ds.tree));
        rows.records = ds.rows().into_owned();
        rows.globals.clone_from(&ds.globals);
        assert_eq!(ds.len(), rows.len());
        assert_eq!(caliper_format::cali::to_bytes(&ds), caliper_format::cali::to_bytes(&rows));
        assert_eq!(caliper_format::to_binary_v2(&ds), caliper_format::to_binary_v2(&rows));
        for query in [
            "AGGREGATE sum(aggregate.count), sum(time.duration), count GROUP BY function",
            "SELECT * WHERE function=f3",
        ] {
            let answer = |ds: &Dataset| caliper_query::run_query(ds, query).unwrap().render();
            assert_eq!(answer(&ds), answer(&rows), "{query}");
        }
    }

    #[test]
    fn globals_reach_all_channels() {
        let caliper = Caliper::with_clock(Config::baseline(), Clock::virtual_clock());
        let second = caliper.create_channel("b", Config::baseline());
        caliper.set_global("mpi.rank", 7i64);
        assert_eq!(
            caliper.take_dataset().global("mpi.rank"),
            Some(Value::Int(7))
        );
        assert_eq!(
            second.take_dataset().global("mpi.rank"),
            Some(Value::Int(7))
        );
    }
}
