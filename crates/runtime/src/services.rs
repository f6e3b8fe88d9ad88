//! Service modules: the independent building blocks combined through a
//! callback API (§IV-A).
//!
//! A snapshot flows through two callback phases (Figure 2):
//!
//! 1. **augment** — measurement services append data to the snapshot
//!    record (the timer service adds `time.duration`).
//! 2. **consume** — processing services receive the finished record
//!    (the trace service buffers it; the aggregate service folds it
//!    into its per-thread aggregation database).
//!
//! At flush time each service writes its output into the process
//! dataset. Services are per-thread objects: the aggregate service
//! keeps "a separate aggregation database for each monitored thread …
//! this design avoids the use of thread locks" (§IV-B).

use std::sync::Arc;

use caliper_data::{
    AttrId, Attribute, AttributeConflict, AttributeStore, ContextTree, Properties, SnapshotRecord,
    Value, ValueType,
};
use caliper_format::binary_v2::DEFAULT_BLOCK_RECORDS;
use caliper_format::{Block, Dataset, StringTable};
use caliper_query::{AggregationSpec, Aggregator, MAX_STREAM_STRINGS};

use crate::clock::Clock;

/// What triggered a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A region begin event (instrumentation hook).
    Begin(AttrId),
    /// A region end event.
    End(AttrId),
    /// A set (value replacement) event.
    Set(AttrId),
    /// The sampling timer fired.
    Sample,
    /// Explicitly requested through the API.
    User,
}

/// Context passed to service callbacks.
pub struct ProcCtx<'a> {
    /// Process attribute dictionary.
    pub store: &'a AttributeStore,
    /// Process context tree.
    pub tree: &'a ContextTree,
    /// The runtime clock.
    pub clock: &'a Clock,
    /// What triggered this snapshot.
    pub trigger: Trigger,
}

/// A per-thread service instance.
pub trait Service: Send {
    /// Service name (as used in the `services` config list).
    fn name(&self) -> &'static str;

    /// Augment phase: append measurement data to the snapshot record.
    fn augment(&mut self, _ctx: &ProcCtx<'_>, _rec: &mut SnapshotRecord) {}

    /// Consume phase: process the finished snapshot record.
    fn consume(&mut self, _ctx: &ProcCtx<'_>, _rec: &SnapshotRecord) {}

    /// Flush: write this service's output records into the process
    /// dataset. Called once, when the thread scope is flushed.
    fn flush(&mut self, _ctx: &ProcCtx<'_>, _out: &mut Dataset) {}

    /// Number of output records a flush would currently produce
    /// (Table I's "output records" column).
    fn output_records(&mut self, _ctx: &ProcCtx<'_>) -> usize {
        0
    }
}

/// The timer service: adds `time.duration` — the time elapsed since the
/// previous snapshot on this thread, in microseconds.
///
/// With event-triggered snapshots this attributes each interval to the
/// context that was active during it: the time between a region's begin
/// and end snapshots lands on the end snapshot, whose context still
/// contains the region.
pub struct TimerService {
    attr: Attribute,
    last_ns: u64,
    started: bool,
    /// `time.inclusive.duration` support: per-attribute stacks of
    /// region-begin timestamps, maintained from the snapshot triggers.
    inclusive: Option<InclusiveTimer>,
    /// Emit `time.offset` (µs since process start) on every snapshot —
    /// gives traces a time axis for time-series queries.
    offset_attr: Option<Attribute>,
}

struct InclusiveTimer {
    attr: Attribute,
    begin_stacks: caliper_data::FxHashMap<AttrId, Vec<u64>>,
}

impl TimerService {
    /// Attribute label of the timer's output.
    pub const DURATION_ATTR: &'static str = "time.duration";
    /// Attribute label of the inclusive-duration output.
    pub const INCLUSIVE_ATTR: &'static str = "time.inclusive.duration";
    /// Attribute label of the snapshot-timestamp output.
    pub const OFFSET_ATTR: &'static str = "time.offset";

    /// Create the timer service, interning its output attribute.
    /// Fails when an output attribute already exists with a conflicting
    /// type — the caller (thread-scope setup) skips the service with a
    /// note instead of panicking inside the measured application.
    pub fn new(store: &AttributeStore) -> Result<TimerService, AttributeConflict> {
        TimerService::with_options(store, false, false)
    }

    /// Create the timer with optional inclusive-duration tracking and
    /// per-snapshot timestamps (see [`TimerService::new`] for the
    /// conflict contract).
    pub fn with_options(
        store: &AttributeStore,
        inclusive: bool,
        offset: bool,
    ) -> Result<TimerService, AttributeConflict> {
        let props = Properties::AS_VALUE | Properties::AGGREGATABLE;
        let attr = store.create(Self::DURATION_ATTR, ValueType::Float, props)?;
        let inclusive = match inclusive {
            true => Some(InclusiveTimer {
                attr: store.create(Self::INCLUSIVE_ATTR, ValueType::Float, props)?,
                begin_stacks: Default::default(),
            }),
            false => None,
        };
        let offset_attr = match offset {
            true => {
                Some(store.create(Self::OFFSET_ATTR, ValueType::Float, Properties::AS_VALUE)?)
            }
            false => None,
        };
        Ok(TimerService {
            attr,
            last_ns: 0,
            started: false,
            inclusive,
            offset_attr,
        })
    }
}

impl Service for TimerService {
    fn name(&self) -> &'static str {
        "timer"
    }

    fn augment(&mut self, ctx: &ProcCtx<'_>, rec: &mut SnapshotRecord) {
        let now = ctx.clock.now_ns();
        if self.started {
            let duration_us = (now - self.last_ns) as f64 / 1000.0;
            rec.push_imm(self.attr.id(), Value::Float(duration_us));
        }
        if let Some(offset) = &self.offset_attr {
            rec.push_imm(offset.id(), Value::Float(now as f64 / 1000.0));
        }
        if let Some(inclusive) = &mut self.inclusive {
            match ctx.trigger {
                // The begin snapshot runs before the blackboard push:
                // record when this region instance started.
                Trigger::Begin(attr) => {
                    inclusive.begin_stacks.entry(attr).or_default().push(now);
                }
                // The end snapshot runs before the pop, and a set's
                // before the end and begin it stands for: the region
                // ending now lasted now - its begin timestamp, and a set
                // begins the next one.
                Trigger::End(attr) | Trigger::Set(attr) => {
                    let stacks = &mut inclusive.begin_stacks;
                    if let Some(begin) = stacks.get_mut(&attr).and_then(Vec::pop) {
                        let inclusive_us = (now - begin) as f64 / 1000.0;
                        rec.push_imm(inclusive.attr.id(), Value::Float(inclusive_us));
                    }
                    if let Trigger::Set(attr) = ctx.trigger {
                        stacks.entry(attr).or_default().push(now);
                    }
                }
                _ => {}
            }
        }
        self.last_ns = now;
        self.started = true;
    }
}

/// The trace service: stores every snapshot record verbatim (the paper's
/// "tracing" configuration — more data, computationally simpler).
///
/// The buffer is typed columns: each snapshot becomes one row of a
/// [`Block`] — its node, then its immediates, strings as codes of the
/// service's own [`StringTable`] — and a block that reaches
/// [`DEFAULT_BLOCK_RECORDS`] rows gives way to a new one sized like it,
/// so once the first blocks are cut a traced snapshot allocates nothing
/// but its share of the next block's buffers. The flush hands the
/// blocks over as they are.
#[derive(Default)]
pub struct TraceService {
    strings: StringTable,
    /// Full blocks, in order.
    full: Vec<Block>,
    /// The block being filled.
    block: Block,
}

impl TraceService {
    /// Create an empty trace buffer.
    pub fn new() -> TraceService {
        TraceService::default()
    }

    /// Records buffered so far.
    pub fn len(&self) -> usize {
        self.full.iter().map(Block::rows).sum::<usize>() + self.block.rows()
    }

    /// True if nothing was traced yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Service for TraceService {
    fn name(&self) -> &'static str {
        "trace"
    }

    /// Append `rec` as a row ([`Block::push_snapshot`]). A row holds
    /// its node references ahead of its immediates, which is the order
    /// of every snapshot: the blackboard takes its node first, and
    /// services only add immediates.
    fn consume(&mut self, _ctx: &ProcCtx<'_>, rec: &SnapshotRecord) {
        let pushed = self.block.push_snapshot(&mut self.strings, rec);
        assert!(pushed, "a snapshot of more than 2^32 entries");
        if self.block.rows() == DEFAULT_BLOCK_RECORDS {
            let next = self.block.presized();
            self.full.push(std::mem::replace(&mut self.block, next));
        }
    }

    fn flush(&mut self, _ctx: &ProcCtx<'_>, out: &mut Dataset) {
        let strings = Arc::new(std::mem::take(&mut self.strings));
        let open = std::mem::take(&mut self.block);
        let blocks = self.full.drain(..).chain((open.rows() > 0).then_some(open));
        out.blocks
            .extend(blocks.map(|block| (Arc::clone(&strings), block)));
    }

    fn output_records(&mut self, _ctx: &ProcCtx<'_>) -> usize {
        self.len()
    }
}

/// The on-line aggregation service (§IV-B): streams snapshot records
/// into a per-thread aggregation database, keyed by their context-tree
/// node and immediates — no lock, string or allocation per snapshot
/// once the nodes and groups have been seen.
///
/// It is the trace buffer plus the fold every block takes: a snapshot
/// becomes a row of a [`Block`] ([`Block::push_snapshot`]), and every
/// 64 rows the block is folded into the database by the aggregator's
/// own fold ([`Aggregator::fold_block`]), which works a node path out
/// once and then reads it from its node cache. With a bounded database
/// the block is folded after every snapshot, so that it spills where it
/// fills up ([`Aggregator::restart`], which keeps the fold and its
/// caches); and whatever is pending is folded by the flush (and before
/// [`output_records`](Service::output_records) counts). The service
/// serves one context tree, the runtime's.
///
/// The service's count operator emits `aggregate.count`, which off-line
/// queries re-aggregate with `sum(aggregate.count)` (§VI-B).
pub struct AggregateService {
    aggregator: Aggregator,
    /// The snapshots not folded yet, strings as codes of `strings`. The
    /// table starts over once it holds more than [`MAX_STREAM_STRINGS`]
    /// (a new table, which the fold's caches follow).
    block: Block,
    strings: StringTable,
    store: Arc<AttributeStore>,
    /// Maximum number of entries in the in-memory database before the
    /// database is spilled (0 = unbounded). On-line aggregation runs
    /// inside the target program and must bound its memory (§II-D);
    /// when the cap is hit the current entries are emitted as partial
    /// results and the database restarts. Partial results re-aggregate
    /// exactly in post-processing (sum-of-sums etc.).
    max_entries: usize,
    /// Partial results spilled before the final flush, a block each.
    spilled: Vec<(Arc<StringTable>, Block)>,
    /// Number of spill events (diagnostics).
    spills: u64,
}

/// Snapshots an unbounded [`AggregateService`] appends to its block
/// before it folds them: few enough that the fold's scratch, sized by
/// the first blocks, never grows again.
const FOLD_ROWS: usize = 64;

impl AggregateService {
    /// Label of the on-line count result attribute.
    pub const COUNT_ATTR: &'static str = "aggregate.count";

    /// Create the service from an aggregation scheme (unbounded DB).
    pub fn new(spec: AggregationSpec, store: Arc<AttributeStore>) -> AggregateService {
        AggregateService::with_capacity(spec, store, 0)
    }

    /// Create the service with a bounded database: at most
    /// `max_entries` unique keys are held in memory (0 = unbounded).
    pub fn with_capacity(
        spec: AggregationSpec,
        store: Arc<AttributeStore>,
        max_entries: usize,
    ) -> AggregateService {
        let spec = spec.with_count_label(Self::COUNT_ATTR);
        AggregateService {
            aggregator: Aggregator::new(spec, Arc::clone(&store)),
            block: Block::default(),
            strings: StringTable::default(),
            store,
            max_entries,
            spilled: Vec::new(),
            spills: 0,
        }
    }

    /// Entries currently in the aggregation database (the snapshots not
    /// folded yet aside).
    pub fn len(&self) -> usize {
        self.aggregator.len()
    }

    /// True if the aggregation database has no entries.
    pub fn is_empty(&self) -> bool {
        self.aggregator.is_empty()
    }

    /// Fold the pending snapshots, whose nodes are in `tree`.
    fn fold_pending(&mut self, tree: &ContextTree) {
        if self.block.rows() == 0 {
            return;
        }
        self.aggregator
            .fold_block(tree, &mut self.strings, &self.block);
        self.block.clear();
        if self.strings.len() > MAX_STREAM_STRINGS {
            self.strings = StringTable::default();
        }
    }

    /// Number of times the database overflowed and spilled.
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Flush the current database into `spilled` (against the process
    /// store, so spilled records share ids with the final flush) and
    /// restart it.
    fn spill(&mut self) {
        let full = self.aggregator.restart();
        self.spilled.push(flushed(&full, &self.store));
        self.spills += 1;
    }
}

/// `aggregator`'s groups as the block it flushes, with the block's own
/// string table, result attributes interned in `store`.
fn flushed(aggregator: &Aggregator, store: &AttributeStore) -> (Arc<StringTable>, Block) {
    let (mut block, mut strings) = (Block::default(), StringTable::default());
    aggregator.flush_into(store, &mut block, &mut strings, None);
    (Arc::new(strings), block)
}

impl Service for AggregateService {
    fn name(&self) -> &'static str {
        "aggregate"
    }

    fn consume(&mut self, ctx: &ProcCtx<'_>, rec: &SnapshotRecord) {
        let pushed = self.block.push_snapshot(&mut self.strings, rec);
        assert!(pushed, "a snapshot of more than 2^32 entries");
        if self.max_entries > 0 || self.block.rows() == FOLD_ROWS {
            self.fold_pending(ctx.tree);
        }
        if self.max_entries > 0 && self.aggregator.len() >= self.max_entries {
            self.spill();
        }
    }

    fn flush(&mut self, ctx: &ProcCtx<'_>, out: &mut Dataset) {
        // Flush the aggregation database: reconstruct key attributes and
        // append the reduction results (paper §IV-B). Result attributes
        // are interned in the output dataset's store.
        self.fold_pending(ctx.tree);
        out.blocks.append(&mut self.spilled);
        out.blocks.push(flushed(&self.aggregator, &out.store));
    }

    fn output_records(&mut self, ctx: &ProcCtx<'_>) -> usize {
        self.fold_pending(ctx.tree);
        let spilled: usize = self.spilled.iter().map(|(_, block)| block.rows()).sum();
        spilled + self.aggregator.len()
    }
}

/// The counters service: synthetic hardware performance counters.
///
/// Caliper's building blocks include hardware counter access (§IV-A);
/// real PAPI counters are not available in this reproduction, so this
/// service derives `cpu.instructions` and `cpu.cycles` deterministically
/// from elapsed (virtual) time using configurable rates:
///
/// * `counters.ghz`  — simulated clock rate (default 2.1, Quartz's
///   Xeon E5-2695 base clock),
/// * `counters.ipc`  — simulated instructions per cycle (default 1.6).
///
/// Like the timer, it reports the delta since the previous snapshot on
/// this thread, so counter values aggregate exactly like
/// `time.duration`.
pub struct CountersService {
    instructions: Attribute,
    cycles: Attribute,
    ghz: f64,
    ipc: f64,
    last_ns: u64,
    started: bool,
}

impl CountersService {
    /// Create the service, interning its output attributes. Fails on an
    /// attribute type conflict (see [`TimerService::new`]).
    pub fn new(
        store: &AttributeStore,
        ghz: f64,
        ipc: f64,
    ) -> Result<CountersService, AttributeConflict> {
        let props = Properties::AS_VALUE | Properties::AGGREGATABLE;
        Ok(CountersService {
            instructions: store.create("cpu.instructions", ValueType::UInt, props)?,
            cycles: store.create("cpu.cycles", ValueType::UInt, props)?,
            ghz,
            ipc,
            last_ns: 0,
            started: false,
        })
    }
}

impl Service for CountersService {
    fn name(&self) -> &'static str {
        "counters"
    }

    fn augment(&mut self, ctx: &ProcCtx<'_>, rec: &mut SnapshotRecord) {
        let now = ctx.clock.now_ns();
        if self.started {
            let cycles = ((now - self.last_ns) as f64 * self.ghz) as u64;
            let instructions = (cycles as f64 * self.ipc) as u64;
            rec.push_imm(self.cycles.id(), Value::UInt(cycles));
            rec.push_imm(self.instructions.id(), Value::UInt(instructions));
        }
        self.last_ns = now;
        self.started = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_query::parse_query;

    fn ctx<'a>(store: &'a AttributeStore, tree: &'a ContextTree, clock: &'a Clock) -> ProcCtx<'a> {
        ProcCtx {
            store,
            tree,
            clock,
            trigger: Trigger::User,
        }
    }

    #[test]
    fn timer_measures_between_snapshots() {
        let store = AttributeStore::new();
        let tree = ContextTree::new();
        let clock = Clock::virtual_clock();
        let mut timer = TimerService::new(&store).unwrap();
        let c = ctx(&store, &tree, &clock);

        let mut rec = SnapshotRecord::new();
        timer.augment(&c, &mut rec);
        // First snapshot has no duration (no previous snapshot).
        assert!(rec.is_empty());

        clock.advance_ns(2_500_000); // 2.5 ms
        let mut rec = SnapshotRecord::new();
        timer.augment(&c, &mut rec);
        let flat = rec.unpack(&tree);
        let attr = store.find(TimerService::DURATION_ATTR).unwrap();
        assert_eq!(flat.get(attr.id()), Some(&Value::Float(2500.0)));
    }

    #[test]
    fn inclusive_timer_measures_whole_regions() {
        let store = AttributeStore::new();
        let tree = ContextTree::new();
        let clock = Clock::virtual_clock();
        let mut timer = TimerService::with_options(&store, true, true).unwrap();
        let func = store.create_simple("function", ValueType::Str);

        let snap = |timer: &mut TimerService, trigger: Trigger, clock: &Clock| {
            let ctx = ProcCtx {
                store: &store,
                tree: &tree,
                clock,
                trigger,
            };
            let mut rec = SnapshotRecord::new();
            timer.augment(&ctx, &mut rec);
            rec.unpack(&tree)
        };

        // outer begin at t=0; inner begin at t=10us; inner end at
        // t=25us; outer end at t=40us.
        snap(&mut timer, Trigger::Begin(func.id()), &clock);
        clock.advance_ns(10_000);
        snap(&mut timer, Trigger::Begin(func.id()), &clock);
        clock.advance_ns(15_000);
        let inner_end = snap(&mut timer, Trigger::End(func.id()), &clock);
        clock.advance_ns(15_000);
        let outer_end = snap(&mut timer, Trigger::End(func.id()), &clock);

        let inclusive = store.find(TimerService::INCLUSIVE_ATTR).unwrap();
        let exclusive = store.find(TimerService::DURATION_ATTR).unwrap();
        let offset = store.find(TimerService::OFFSET_ATTR).unwrap();
        // inner: inclusive 15us (== its exclusive interval here)
        assert_eq!(inner_end.get(inclusive.id()), Some(&Value::Float(15.0)));
        assert_eq!(inner_end.get(exclusive.id()), Some(&Value::Float(15.0)));
        // outer: inclusive 40us, but only 15us since the last snapshot
        assert_eq!(outer_end.get(inclusive.id()), Some(&Value::Float(40.0)));
        assert_eq!(outer_end.get(exclusive.id()), Some(&Value::Float(15.0)));
        // timestamps give the trace a time axis
        assert_eq!(outer_end.get(offset.id()), Some(&Value::Float(40.0)));
    }

    #[test]
    fn inclusive_timer_ends_a_region_on_set() {
        let store = AttributeStore::new();
        let tree = ContextTree::new();
        let clock = Clock::virtual_clock();
        let mut timer = TimerService::with_options(&store, true, false).unwrap();
        let phase = store.create_simple("phase", ValueType::Str);
        let inclusive = store.find(TimerService::INCLUSIVE_ATTR).unwrap();
        let mut snap = |trigger: Trigger| {
            let ctx = ProcCtx {
                store: &store,
                tree: &tree,
                clock: &clock,
                trigger,
            };
            let mut rec = SnapshotRecord::new();
            timer.augment(&ctx, &mut rec);
            rec.unpack(&tree).get(inclusive.id()).cloned()
        };

        // begin(phase) at t=0, set(phase) at t=10us, end(phase) at
        // t=25us: the set ends the first phase and begins the second.
        assert_eq!(snap(Trigger::Begin(phase.id())), None);
        clock.advance_ns(10_000);
        assert_eq!(snap(Trigger::Set(phase.id())), Some(Value::Float(10.0)));
        clock.advance_ns(15_000);
        assert_eq!(snap(Trigger::End(phase.id())), Some(Value::Float(15.0)));
        // A set with nothing to end only begins.
        let other = store.create_simple("other", ValueType::Str);
        assert_eq!(snap(Trigger::Set(other.id())), None);
        clock.advance_ns(5_000);
        assert_eq!(snap(Trigger::End(other.id())), Some(Value::Float(5.0)));
    }

    #[test]
    fn trace_buffers_and_flushes() {
        let store = Arc::new(AttributeStore::new());
        let tree = Arc::new(ContextTree::new());
        let clock = Clock::virtual_clock();
        let mut trace = TraceService::new();
        let c = ctx(&store, &tree, &clock);

        // Two full blocks and part of a third, of rows that change
        // shape: with and without a node, a string, a value of another
        // type than the rest of its attribute's.
        let node = tree.get_child(caliper_data::NODE_NONE, 1, &Value::str("main"));
        let total = 2 * DEFAULT_BLOCK_RECORDS + 5;
        let mut traced = Vec::new();
        for i in 0..total as i64 {
            let mut rec = SnapshotRecord::new();
            if i % 3 != 0 {
                rec.push_node(node);
            }
            rec.push_imm(0, Value::Int(i));
            match i % 7 {
                0 => rec.push_imm(2, Value::str(format!("s{}", i % 4))),
                1 => rec.push_imm(0, Value::Float(0.5)),
                _ => {}
            }
            trace.consume(&c, &rec);
            traced.push(rec);
        }
        assert_eq!(trace.output_records(&c), total);

        let mut out = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
        trace.flush(&c, &mut out);
        assert_eq!(out.blocks.len(), 3);
        assert_eq!(out.len(), total);
        assert_eq!(out.rows().as_ref(), &traced[..]);
        assert!(trace.is_empty());
    }

    #[test]
    fn bounded_db_spills_and_reaggregates_exactly() {
        let store = Arc::new(AttributeStore::new());
        let tree = Arc::new(ContextTree::new());
        let clock = Clock::virtual_clock();
        let kernel = store.create_simple("kernel", ValueType::Str);
        let time = store.create_simple("t", ValueType::Int);
        let spec = AggregationSpec::from_query(
            &parse_query("AGGREGATE count, sum(t) GROUP BY kernel").unwrap(),
        );
        let c = ctx(&store, &tree, &clock);

        // 16 distinct keys, visited 8 times each, with a cap of 4.
        let feed = |service: &mut AggregateService| {
            for round in 0..8 {
                for k in 0..16 {
                    let mut rec = SnapshotRecord::new();
                    rec.push_imm(kernel.id(), Value::str(format!("k{k}")));
                    rec.push_imm(time.id(), Value::Int(round + k));
                    service.consume(&c, &rec);
                }
            }
        };

        let mut bounded = AggregateService::with_capacity(spec.clone(), Arc::clone(&store), 4);
        feed(&mut bounded);
        assert!(bounded.spill_count() > 0);

        let mut unbounded = AggregateService::new(spec, Arc::clone(&store));
        feed(&mut unbounded);
        assert_eq!(unbounded.spill_count(), 0);

        // Flush both and re-aggregate offline: results must be equal.
        let mut out_b = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
        bounded.flush(&c, &mut out_b);
        let mut out_u = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
        unbounded.flush(&c, &mut out_u);
        assert!(out_b.len() > out_u.len()); // partial results present

        let requery = "AGGREGATE sum(aggregate.count) AS n, sum(sum#t) AS t \
                       GROUP BY kernel ORDER BY kernel";
        let a = caliper_query::run_query(&out_b, requery).unwrap();
        let b = caliper_query::run_query(&out_u, requery).unwrap();
        assert_eq!(a.to_table(), b.to_table());
    }

    #[test]
    fn counters_track_virtual_time() {
        let store = AttributeStore::new();
        let tree = ContextTree::new();
        let clock = Clock::virtual_clock();
        let mut counters = CountersService::new(&store, 2.0, 1.5).unwrap();
        let c = ctx(&store, &tree, &clock);

        let mut rec = SnapshotRecord::new();
        counters.augment(&c, &mut rec);
        assert!(rec.is_empty()); // no previous snapshot yet

        clock.advance_ns(1_000);
        let mut rec = SnapshotRecord::new();
        counters.augment(&c, &mut rec);
        let flat = rec.unpack(&tree);
        let cycles = store.find("cpu.cycles").unwrap();
        let instructions = store.find("cpu.instructions").unwrap();
        assert_eq!(flat.get(cycles.id()), Some(&Value::UInt(2_000)));
        assert_eq!(flat.get(instructions.id()), Some(&Value::UInt(3_000)));
    }

    #[test]
    fn aggregate_service_uses_online_count_label() {
        let store = Arc::new(AttributeStore::new());
        let tree = Arc::new(ContextTree::new());
        let clock = Clock::virtual_clock();
        let kernel = store.create_simple("kernel", ValueType::Str);
        let spec = parse_query("AGGREGATE count GROUP BY kernel").unwrap();
        let mut service =
            AggregateService::new(AggregationSpec::from_query(&spec), Arc::clone(&store));
        let c = ctx(&store, &tree, &clock);

        for name in ["a", "b", "a", "a"] {
            let mut rec = SnapshotRecord::new();
            rec.push_imm(kernel.id(), Value::str(name));
            service.consume(&c, &rec);
        }
        assert_eq!(service.output_records(&c), 2);

        let mut out = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
        service.flush(&c, &mut out);
        assert_eq!(out.len(), 2);
        let count = out.store.find(AggregateService::COUNT_ATTR).unwrap();
        let flats: Vec<_> = out.flat_records().collect();
        let a_row = flats
            .iter()
            .find(|r| r.get(kernel.id()) == Some(&Value::str("a")))
            .unwrap();
        assert_eq!(a_row.get(count.id()), Some(&Value::UInt(3)));
    }
}
