//! Pipeline self-instrumentation: a lock-cheap registry of named
//! counters and gauges.
//!
//! The profiling pipeline measures other programs; this module lets it
//! measure *itself* — aggregator occupancy, reader skip rates, journal
//! flush cadence — and expose the numbers in the same flexible
//! key:value shape the paper advocates (§III): each metric is one
//! `name = value` pair, queryable like any other attribute once emitted
//! as a snapshot record.
//!
//! Design:
//!
//! * Registration (name → handle) takes a mutex once; the returned
//!   handle is an `Arc` around atomics, so **updates never lock**.
//!   Call sites cache handles; hot paths hold pre-resolved handles in
//!   an `Option` so that disabled metrics cost zero atomic operations.
//! * Metric names follow `layer.component.metric`
//!   (e.g. `format.reader.records`, `query.aggregator.groups`).
//! * Every metric declares a [`Stability`] class. **Stable** metrics
//!   are functions of the input data alone — byte-identical output for
//!   any worker-thread count — and make up the default `--stats`
//!   block. **Volatile** metrics (scheduling-dependent counts and
//!   levels) are reported only on request.
//! * Snapshots iterate a `BTreeMap`, so rendered output is always
//!   sorted by metric name — deterministic by construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Last-written (or high-water) level.
    Gauge,
}

impl MetricKind {
    /// Lower-case name used in rendered output and snapshot records.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// Whether a metric's value is a pure function of the input data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Deterministic: identical for every `--threads N`. Included in
    /// the default stats block, safe for golden tests.
    Stable,
    /// Scheduling-dependent (per-worker counts, queue levels).
    /// Excluded from the default stats block.
    Volatile,
}

/// Shared metric storage; handles are thin `Arc` wrappers around this.
#[derive(Debug)]
struct Cell {
    kind: MetricKind,
    stability: Stability,
    /// Counter count / gauge level.
    value: AtomicU64,
}

impl Cell {
    fn new(kind: MetricKind, stability: Stability) -> Cell {
        Cell {
            kind,
            stability,
            value: AtomicU64::new(0),
        }
    }
}

/// Handle to a registered counter. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<Cell>);

impl Counter {
    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.0.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// Handle to a registered gauge. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<Cell>);

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
    }

    /// Raise the level to `v` if it is higher (high-water tracking).
    pub fn set_max(&self, v: u64) {
        self.0.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name (`layer.component.metric`).
    pub name: String,
    /// What the metric measures.
    pub kind: MetricKind,
    /// Determinism class.
    pub stability: Stability,
    /// Sampled value.
    pub value: u64,
}

/// A registry of named metrics. Registration locks briefly; updates
/// through the returned handles are lock-free atomic operations.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    cells: Mutex<BTreeMap<String, Arc<Cell>>>,
}

impl MetricsRegistry {
    /// Create an empty registry (process code normally uses
    /// [`global()`]; instance registries serve tests and scoped
    /// subsystems like a runtime channel).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn cell(&self, name: &str, kind: MetricKind, stability: Stability) -> Arc<Cell> {
        let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        let cell = cells
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Cell::new(kind, stability)));
        debug_assert!(
            cell.kind == kind,
            "metric {name} re-registered as {:?}, was {:?}",
            kind,
            cell.kind
        );
        Arc::clone(cell)
    }

    /// Register (or look up) a stable counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.cell(name, MetricKind::Counter, Stability::Stable))
    }

    /// Register (or look up) a volatile counter (value depends on
    /// scheduling, e.g. per-worker work-stealing counts).
    pub fn counter_volatile(&self, name: &str) -> Counter {
        Counter(self.cell(name, MetricKind::Counter, Stability::Volatile))
    }

    /// Register (or look up) a stable gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.cell(name, MetricKind::Gauge, Stability::Stable))
    }

    /// Register (or look up) a volatile gauge.
    pub fn gauge_volatile(&self, name: &str) -> Gauge {
        Gauge(self.cell(name, MetricKind::Gauge, Stability::Volatile))
    }

    /// Sample every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        cells
            .iter()
            .map(|(name, cell)| MetricSample {
                name: name.clone(),
                kind: cell.kind,
                stability: cell.stability,
                value: cell.value.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Render as sorted `name=value` lines. With `stable_only`, the
    /// block contains only [`Stability::Stable`] metrics and is
    /// byte-identical for every worker-thread count.
    pub fn render_text(&self, stable_only: bool) -> String {
        let mut out = String::new();
        for sample in self.snapshot() {
            if stable_only && sample.stability != Stability::Stable {
                continue;
            }
            out.push_str(&sample.name);
            out.push('=');
            out.push_str(&sample.value.to_string());
            out.push('\n');
        }
        out
    }

    /// Render as one flat JSON object, keys sorted by metric name.
    pub fn render_json(&self, stable_only: bool) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for sample in self.snapshot() {
            if stable_only && sample.stability != Stability::Stable {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            // Metric names are `[a-z0-9._]` by convention; escape the
            // JSON specials anyway so arbitrary names stay well-formed.
            for c in sample.name.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push_str("\":");
            out.push_str(&sample.value.to_string());
        }
        out.push('}');
        out
    }

    /// Reset every registered metric to zero (tests and repeated runs
    /// within one process).
    pub fn reset(&self) {
        let cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        for cell in cells.values() {
            cell.value.store(0, Ordering::Relaxed);
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.cells.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide registry used by the offline pipeline (format,
/// query, mpisim layers). The runtime uses per-channel instance
/// registries instead, so dogfooded profiles stay isolated.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b.events");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same cell.
        assert_eq!(reg.counter("a.b.events").get(), 5);

        let g = reg.gauge("a.b.level");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(10);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.gauge("z.level").set(1);
        reg.counter("a.events").add(2);
        let samples = reg.snapshot();
        let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a.events", "z.level"]);
        assert_eq!(samples[0].kind, MetricKind::Counter);
        assert_eq!(samples[1].kind, MetricKind::Gauge);
    }

    #[test]
    fn stable_rendering_excludes_volatile_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter("a.events").add(3);
        reg.gauge_volatile("b.depth").set(9);
        reg.counter_volatile("c.sched").add(1);
        assert_eq!(reg.render_text(true), "a.events=3\n");
        assert_eq!(reg.render_text(false), "a.events=3\nb.depth=9\nc.sched=1\n");
    }

    #[test]
    fn json_rendering_is_flat_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        assert_eq!(reg.render_json(true), "{\"a.first\":1,\"b.second\":2}");
        assert_eq!(MetricsRegistry::new().render_json(true), "{}");
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.gauge("g").set(5);
        reg.reset();
        assert_eq!(reg.counter("a").get(), 0);
        assert_eq!(reg.gauge("g").get(), 0);
    }

    #[test]
    fn handles_are_lock_free_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("shared.events");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
