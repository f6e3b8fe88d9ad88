//! Per-thread instrumentation scope: blackboard + per-channel service
//! instances.
//!
//! All snapshots are processed in the thread that triggered them
//! (§IV-A); a `ThreadScope` owns everything that processing needs, so
//! the snapshot hot path takes no locks — the design property the paper
//! calls out for the aggregation service (§IV-B).
//!
//! The blackboard (program state) is shared by all channels; each
//! channel owns its own service instances, snapshot triggers, and
//! counters, so several aggregation schemes can observe one run.

use std::sync::Arc;

use caliper_data::{Attribute, SnapshotRecord, Value};
use caliper_format::Dataset;
use caliper_query::{parse_query, AggregationSpec};

use crate::blackboard::{Blackboard, NestingError};
use crate::config::Config;
use crate::runtime::{Caliper, Channel};
use crate::services::{
    AggregateService, CountersService, ProcCtx, Service, TimerService, TraceService, Trigger,
};

/// Pre-resolved self-instrumentation handles for one channel scope.
///
/// Resolved once at scope creation so the snapshot hot path never
/// touches the registry's name map — each event costs one relaxed
/// atomic add per enabled channel. When `metrics.enable` is off the
/// whole struct is absent and the hot path performs zero extra atomic
/// operations (the overhead contract in DESIGN.md §8).
struct ScopeMetrics {
    /// `runtime.blackboard.ops`: begin/end/set updates observed.
    blackboard_ops: caliper_data::metrics::Counter,
    /// `runtime.snapshots`: snapshots processed on this channel.
    snapshots: caliper_data::metrics::Counter,
}

/// Per-channel collection state within one thread scope.
struct ChannelScope {
    channel: Arc<Channel>,
    services: Vec<Box<dyn Service>>,
    snapshot_on_event: bool,
    sampler_interval_ns: u64,
    next_sample_ns: u64,
    snapshot_count: u64,
    metrics: Option<ScopeMetrics>,
}

impl ChannelScope {
    fn new(channel: Arc<Channel>, caliper: &Arc<Caliper>) -> ChannelScope {
        let config: &Config = channel.config();
        let store = Arc::clone(caliper.store());
        let mut services: Vec<Box<dyn Service>> = Vec::new();

        // Augmenting services (timer, counters) must run before the
        // consuming services, so they are registered first.
        // A measurement service whose output attribute collides with an
        // application attribute of a different type is skipped with a
        // note — thread setup must never panic on user input (same
        // contract as the aggregate service below).
        if config.service_enabled("timer") {
            let inclusive = config.get_bool("timer.inclusive", false);
            let offset = config.get_bool("timer.offset", false);
            match TimerService::with_options(&store, inclusive, offset) {
                Ok(timer) => services.push(Box::new(timer)),
                Err(e) => eprintln!("caliper: timer service disabled: {e}"),
            }
        }
        if config.service_enabled("counters") {
            // A malformed number is a recorded config error
            // (`Config::validate`); here it reads as the default.
            let number = |key, default: f64| {
                let parsed = config.parsed(key, "a number");
                parsed.ok().flatten().unwrap_or(default)
            };
            let (ghz, ipc) = (number("counters.ghz", 2.1), number("counters.ipc", 1.6));
            match CountersService::new(&store, ghz, ipc) {
                Ok(counters) => services.push(Box::new(counters)),
                Err(e) => eprintln!("caliper: counters service disabled: {e}"),
            }
        }
        if config.service_enabled("aggregate") {
            let key = config.get_list("aggregate.key");
            let ops_text = config
                .get("aggregate.ops")
                .unwrap_or("count")
                .trim()
                .to_string();
            // Reuse the query parser for the op list: the runtime
            // configuration speaks the same description language. An
            // invalid op list was already reported as a config error at
            // channel creation ([`Channel::config_errors`]); here the
            // service is simply skipped so thread setup never panics on
            // user input.
            match parse_query(&format!("AGGREGATE {ops_text}")) {
                Ok(parsed) => {
                    let spec = AggregationSpec::new(parsed.ops, key);
                    let max_entries = config.get_u64("aggregate.max_entries", 0) as usize;
                    services.push(Box::new(AggregateService::with_capacity(
                        spec,
                        Arc::clone(&store),
                        max_entries,
                    )));
                }
                Err(_) => debug_assert!(
                    !channel.config_errors().is_empty(),
                    "invalid aggregate.ops must be recorded as a config error"
                ),
            }
        }
        if config.service_enabled("trace") {
            services.push(Box::new(TraceService::new()));
        }
        if let Some(sink) = channel.journal() {
            services.push(Box::new(crate::journal::JournalService::new(Arc::clone(
                sink,
            ))));
        }

        let snapshot_on_event = config.service_enabled("event");
        let sampler_interval_ns = if config.service_enabled("sampler") {
            config.get_u64("sampler.interval.ns", 10_000_000)
        } else {
            0
        };

        let metrics = channel.metrics().map(|m| ScopeMetrics {
            blackboard_ops: m.counter("runtime.blackboard.ops"),
            snapshots: m.counter("runtime.snapshots"),
        });

        ChannelScope {
            channel,
            services,
            snapshot_on_event,
            sampler_interval_ns,
            next_sample_ns: sampler_interval_ns,
            snapshot_count: 0,
            metrics,
        }
    }
}

/// A per-thread instrumentation scope.
///
/// Created via [`Caliper::make_thread_scope`]. Flushes its services'
/// output into the process dataset on [`ThreadScope::flush`] (or on
/// drop, if not flushed explicitly).
pub struct ThreadScope {
    caliper: Arc<Caliper>,
    blackboard: Blackboard,
    /// The snapshot being taken: every snapshot is taken into this one
    /// record, so a snapshot allocates nothing of its own.
    record: SnapshotRecord,
    channels: Vec<ChannelScope>,
    flushed: bool,
}

impl ThreadScope {
    pub(crate) fn new(caliper: Arc<Caliper>) -> ThreadScope {
        let channels = caliper
            .channels()
            .into_iter()
            .map(|channel| ChannelScope::new(channel, &caliper))
            .collect();
        ThreadScope {
            blackboard: Blackboard::new(Arc::clone(caliper.tree())),
            record: SnapshotRecord::new(),
            caliper,
            channels,
            flushed: false,
        }
    }

    /// The owning runtime.
    pub fn caliper(&self) -> &Arc<Caliper> {
        &self.caliper
    }

    /// Direct blackboard access (diagnostics/tests).
    pub fn blackboard(&self) -> &Blackboard {
        &self.blackboard
    }

    /// Snapshots taken on this thread so far, summed over channels.
    pub fn snapshot_count(&self) -> u64 {
        self.channels.iter().map(|c| c.snapshot_count).sum()
    }

    /// Sum of the services' current output record counts, over channels
    /// (an aggregate service folds what it holds first).
    pub fn output_records(&mut self) -> usize {
        let ctx = proc_ctx(&self.caliper, Trigger::User);
        self.channels
            .iter_mut()
            .flat_map(|c| c.services.iter_mut())
            .map(|s| s.output_records(&ctx))
            .sum()
    }

    fn run_snapshot(&mut self, channel_idx: usize, trigger: Trigger) {
        let rec = &mut self.record;
        self.blackboard.snapshot_into(rec);
        let ctx = proc_ctx(&self.caliper, trigger);
        let channel = &mut self.channels[channel_idx];
        for service in &mut channel.services {
            service.augment(&ctx, rec);
        }
        for service in &mut channel.services {
            service.consume(&ctx, rec);
        }
        channel.snapshot_count += 1;
        if let Some(m) = &channel.metrics {
            m.snapshots.inc();
        }
    }

    /// Count one blackboard update on every metrics-enabled channel.
    /// With metrics off this touches no atomics (see [`ScopeMetrics`]).
    fn count_blackboard_op(&self) {
        for channel in &self.channels {
            if let Some(m) = &channel.metrics {
                m.blackboard_ops.inc();
            }
        }
    }

    /// Trigger an explicit snapshot through the API (on every channel).
    pub fn snapshot(&mut self) {
        self.maybe_sample();
        for i in 0..self.channels.len() {
            self.run_snapshot(i, Trigger::User);
        }
    }

    /// Catch up the sampling timers: trigger one snapshot per elapsed
    /// sampling period, per sampling channel. Called from every
    /// instrumentation hook and from [`ThreadScope::advance_time`].
    fn maybe_sample(&mut self) {
        let now = self.caliper.clock().now_ns();
        for i in 0..self.channels.len() {
            if self.channels[i].sampler_interval_ns == 0 {
                continue;
            }
            while self.channels[i].next_sample_ns <= now {
                self.run_snapshot(i, Trigger::Sample);
                self.channels[i].next_sample_ns += self.channels[i].sampler_interval_ns;
            }
        }
    }

    fn event_snapshots(&mut self, trigger: Trigger) {
        for i in 0..self.channels.len() {
            if self.channels[i].snapshot_on_event {
                self.run_snapshot(i, trigger);
            }
        }
    }

    /// Begin a region: `mark_begin` from the paper's Listing 1.
    ///
    /// With the event service enabled, a snapshot is taken *before* the
    /// blackboard update, so the interval since the previous snapshot is
    /// attributed to the enclosing context.
    pub fn begin(&mut self, attr: &Attribute, value: impl Into<Value>) {
        self.maybe_sample();
        self.event_snapshots(Trigger::Begin(attr.id()));
        self.count_blackboard_op();
        self.blackboard.begin(attr, value.into());
    }

    /// End a region: `mark_end`. With the event service enabled, a
    /// snapshot is taken *before* the pop, so the region's own time is
    /// attributed to it.
    pub fn end(&mut self, attr: &Attribute) -> Result<(), NestingError> {
        self.maybe_sample();
        self.event_snapshots(Trigger::End(attr.id()));
        self.count_blackboard_op();
        self.blackboard.end(attr)
    }

    /// Replace the innermost value of `attr` (a `set` event).
    pub fn set(&mut self, attr: &Attribute, value: impl Into<Value>) {
        self.maybe_sample();
        self.event_snapshots(Trigger::Set(attr.id()));
        self.count_blackboard_op();
        self.blackboard.set(attr, value.into());
    }

    /// Run `body` inside a region (begin/end pair around it).
    pub fn scoped<R>(
        &mut self,
        attr: &Attribute,
        value: impl Into<Value>,
        body: impl FnOnce(&mut ThreadScope) -> R,
    ) -> R {
        self.begin(attr, value);
        let result = body(self);
        self.end(attr).expect("scoped region is balanced");
        result
    }

    /// Advance a virtual clock and let the samplers catch up. The
    /// workload models use this to account simulated compute time.
    pub fn advance_time(&mut self, ns: u64) {
        self.caliper.clock().advance_ns(ns);
        self.maybe_sample();
    }

    /// Flush all channels' service output into their process datasets.
    /// Idempotent.
    pub fn flush(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let ctx = proc_ctx(&self.caliper, Trigger::User);
        for channel in &mut self.channels {
            let mut out = Dataset::with_context(
                Arc::clone(self.caliper.store()),
                Arc::clone(self.caliper.tree()),
            );
            for service in &mut channel.services {
                service.flush(&ctx, &mut out);
            }
            channel.channel.collect(out, channel.snapshot_count);
        }
    }
}

/// The context `caliper`'s services are called in, for `trigger`.
fn proc_ctx(caliper: &Caliper, trigger: Trigger) -> ProcCtx<'_> {
    ProcCtx {
        store: caliper.store(),
        tree: caliper.tree(),
        clock: caliper.clock(),
        trigger,
    }
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::config::Config;
    use caliper_data::Value;
    use caliper_query::run_query;

    fn run_listing1(config: Config) -> (Arc<Caliper>, Dataset) {
        // The paper's Listing 1: a 4-iteration loop calling foo twice
        // and bar once per iteration, with the loop iteration annotated.
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let iteration = caliper.attribute(
            "loop.iteration",
            caliper_data::ValueType::Int,
            caliper_data::Properties::AS_VALUE,
        );
        let mut scope = caliper.make_thread_scope();
        for i in 0..4i64 {
            scope.begin(&iteration, i);
            for (name, time_us) in [("foo", 15u64), ("foo", 25), ("bar", 20)] {
                scope.begin(&function, name);
                scope.advance_time(time_us * 1000);
                scope.end(&function).unwrap();
            }
            scope.end(&iteration).unwrap();
        }
        scope.flush();
        let ds = caliper.take_dataset();
        (caliper, ds)
    }

    #[test]
    fn event_aggregation_produces_listing1_profile() {
        let config = Config::event_aggregate("function,loop.iteration", "count,sum(time.duration)");
        let (_caliper, ds) = run_listing1(config);
        let result = run_query(
            &ds,
            "AGGREGATE sum(aggregate.count), sum(sum#time.duration) GROUP BY function, loop.iteration",
        )
        .unwrap();
        // keys: (foo,0..3), (bar,0..3), (none,0..3), (none,none)
        assert!(result.records.len() >= 12, "{}", result.render());
        // foo in iteration 0 took 40 us.
        let foo0 = result.lookup(
            |r, s| {
                let f = s.find("function").unwrap();
                let i = s.find("loop.iteration").unwrap();
                r.get(f.id()) == Some(&Value::str("foo")) && r.get(i.id()) == Some(&Value::Int(0))
            },
            "sum#sum#time.duration",
        );
        assert_eq!(foo0, Some(Value::Float(40.0)));
    }

    #[test]
    fn trace_stores_every_snapshot() {
        let (caliper, ds) = run_listing1(Config::event_trace());
        // Each iteration: begin(iter) + 3 * (begin+end) + end(iter) = 8
        // event snapshots; 4 iterations = 32.
        assert_eq!(caliper.total_snapshots(), 32);
        assert_eq!(ds.len(), 32);
    }

    #[test]
    fn aggregation_output_is_much_smaller_than_trace() {
        let config = Config::event_aggregate("function", "count,sum(time.duration)");
        let (caliper, ds) = run_listing1(config);
        assert_eq!(caliper.total_snapshots(), 32);
        // keys: foo, bar, none -> 3 records
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn sampling_mode_counts_are_deterministic() {
        // 4 iterations x 60 us of work = 240 us of virtual time; with a
        // 10 us sampling interval the sampler fires 24 times.
        let config = Config::sampled_trace(10_000);
        let (caliper, ds) = run_listing1(config);
        assert_eq!(caliper.total_snapshots(), 24);
        assert_eq!(ds.len(), 24);
    }

    #[test]
    fn sampled_aggregation_counts_samples_per_kernel() {
        let config = Config::sampled_aggregate(10_000, "function", "count");
        let (_caliper, ds) = run_listing1(config);
        let result = run_query(&ds, "AGGREGATE sum(aggregate.count) GROUP BY function").unwrap();
        // All 24 samples land while some function is active (work is
        // only accounted inside regions).
        let total: u64 = result
            .records
            .iter()
            .filter_map(|r| {
                let attr = result.store.find("sum#aggregate.count")?;
                r.get(attr.id())?.to_u64()
            })
            .sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn baseline_collects_nothing() {
        let (caliper, ds) = run_listing1(Config::baseline());
        assert_eq!(caliper.total_snapshots(), 0);
        assert!(ds.is_empty());
    }

    #[test]
    fn scoped_is_balanced() {
        let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        let out = scope.scoped(&function, "foo", |scope| {
            assert_eq!(scope.blackboard().get(&function), Some(Value::str("foo")));
            42
        });
        assert_eq!(out, 42);
        assert!(scope.blackboard().is_empty());
    }

    #[test]
    fn drop_flushes_automatically() {
        let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        {
            let mut scope = caliper.make_thread_scope();
            scope.begin(&function, "foo");
            scope.end(&function).unwrap();
        } // dropped here
        assert_eq!(caliper.take_dataset().len(), 2);
        assert_eq!(caliper.flushed_threads(), 1);
    }

    #[test]
    fn multiple_threads_aggregate_independently() {
        let config = Config::event_aggregate("function", "count");
        let caliper = Caliper::with_clock(config, Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let caliper = Arc::clone(&caliper);
            let function = function.clone();
            handles.push(std::thread::spawn(move || {
                let mut scope = caliper.make_thread_scope();
                for _ in 0..10 {
                    scope.begin(&function, "work");
                    scope.end(&function).unwrap();
                }
                scope.flush();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ds = caliper.take_dataset();
        // Per-thread DBs: each thread contributes its own entries
        // ("we can compute aggregation results individually for each
        // thread, but not a total result across all threads" — §IV-B);
        // the cross-thread total requires post-processing:
        let result = run_query(&ds, "AGGREGATE sum(aggregate.count) GROUP BY function").unwrap();
        // End-event snapshots carry function=work (10 per thread); the
        // begin-event snapshots are taken before the push and land in
        // the no-function group.
        let work = result.lookup(
            |r, s| {
                let f = s.find("function").unwrap();
                r.get(f.id()) == Some(&Value::str("work"))
            },
            "sum#aggregate.count",
        );
        assert_eq!(work, Some(Value::UInt(40)));
        let attr = result.store.find("sum#aggregate.count").unwrap();
        let total: u64 = result
            .records
            .iter()
            .filter_map(|r| r.get(attr.id())?.to_u64())
            .sum();
        assert_eq!(total, 80); // 4 threads x 10 x 2 events
        assert_eq!(caliper.flushed_threads(), 4);
    }

    #[test]
    fn channels_created_after_scope_are_not_served() {
        let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
        let function = caliper.region_attribute("function");
        let mut scope = caliper.make_thread_scope();
        let late = caliper.create_channel("late", Config::event_trace());
        scope.begin(&function, "x");
        scope.end(&function).unwrap();
        scope.flush();
        assert_eq!(caliper.take_dataset().len(), 2);
        assert!(late.take_dataset().is_empty());
    }
}
