//! A group is a row of the aggregator's columns and a key in its arena,
//! so aggregating allocates as the columns grow, not per group: folding
//! rows that each start a group allocates O(log n) times, a merge whose
//! keys all exist in the receiver allocates nothing per group, and once
//! the fold's scratch has grown to a block, folding more blocks into
//! groups that exist allocates nothing at all. A flush allocates per
//! column, not per group, and so do finishing a query and rendering its
//! result, short of the output's doubling. A test binary of its own
//! because it installs a counting global allocator; until `cali-bench`
//! has a `query.new_group_allocs` row (ROADMAP item 1d) this is that
//! row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use caliper_data::{AttributeStore, Properties, Value, ValueType};
use caliper_format::{Block, Dataset, StringTable};
use caliper_query::{parse_query, AggregationSpec, Aggregator, BlockFold, Pipeline, QuerySpec};

thread_local! {
    // Const-initialised and without a destructor: reading it from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of `alloc`/`realloc` calls, so
/// the test harness's own threads are not counted.
struct CountingAlloc;

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the only addition is a thread-local bump that neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` is a `System` block of `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` is a `System` block of `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - start, out)
}

/// The benchmark's distinct grouping: one group per record.
const QUERY: &str = "AGGREGATE count, sum(sum#time.duration), min(sum#time.duration), \
     max(sum#time.duration) GROUP BY kernel, mpi.function, mpi.rank, iteration";

/// The records of the benchmark's distinct query over one ParaDiS-sized
/// file set.
const ROWS: usize = 34_392;

/// A dataset and a block of `rows` records, every one a key of its own:
/// eight kernels, an MPI function on every third, a rank per 4 299
/// records and the iteration counting up.
fn block_of(rows: usize) -> (Dataset, StringTable, Block) {
    let ds = Dataset::new();
    let attr = |label, vtype| ds.attribute(label, vtype, Properties::AS_VALUE).id();
    let (kernel, function) = (
        attr("kernel", ValueType::Str),
        attr("mpi.function", ValueType::Str),
    );
    let (rank, iteration) = (
        attr("mpi.rank", ValueType::Int),
        attr("iteration", ValueType::Int),
    );
    let time = attr("sum#time.duration", ValueType::Float);
    let (mut strings, mut block) = (StringTable::default(), Block::default());
    for i in 0..rows {
        let mut push = |attr, value: Value| {
            let column = block.column_for(attr, value.value_type());
            block.push_imm(column, strings.cell(&value));
        };
        push(kernel, Value::str(format!("kernel-{}", i % 8)));
        if i % 3 == 0 {
            push(
                function,
                Value::str(["MPI_Send", "MPI_Recv", "MPI_Wait"][i % 9 / 3]),
            );
        }
        push(rank, Value::Int((i / 4299) as i64));
        push(iteration, Value::Int(i as i64));
        push(time, Value::Float(i as f64 * 0.25));
        assert!(block.end_row());
    }
    (ds, strings, block)
}

/// Allocations of folding `rows` distinct-key rows into an empty
/// aggregator (fold state included), and that aggregator.
fn fold_counted(rows: usize) -> (u64, Aggregator) {
    let (ds, mut strings, block) = block_of(rows);
    let spec = AggregationSpec::from_query(&parse_query(QUERY).expect("query parses"));
    let (allocations, agg) = counted(|| {
        let mut agg = Aggregator::new(spec.clone(), Arc::clone(&ds.store));
        BlockFold::for_aggregation(&spec).fold(&mut agg, &ds.tree, &mut strings, &block);
        agg
    });
    assert_eq!(agg.len(), rows, "every row a group of its own");
    (allocations, agg)
}

#[test]
fn new_groups_allocate_as_the_columns_grow() {
    let (half, _) = fold_counted(ROWS / 2);
    let (all, _) = fold_counted(ROWS);
    // Each column, the key arena and the key table double once more from
    // the one size to the other (about 150 allocations in all, where a
    // box per group made two per row).
    assert!(all <= 200, "{all} allocations for {ROWS} new groups");
    assert!(
        all - half <= 12,
        "{half} allocations for {} groups, {all} for {ROWS}",
        ROWS / 2
    );
}

#[test]
fn a_merge_into_existing_groups_allocates_nothing_per_group() {
    let merged = |rows: usize| {
        let (_, mut receiver) = fold_counted(rows);
        let (_, incoming) = fold_counted(rows);
        let (allocations, ()) = counted(|| receiver.merge(incoming));
        assert_eq!(receiver.len(), rows, "every key existed");
        allocations
    };
    // The merge's own scratch: the order of the incoming groups, the
    // code map and the key buffer — whatever the number of groups.
    let (few, many) = (merged(ROWS / 16), merged(ROWS));
    assert_eq!(
        few,
        many,
        "allocations merging {} groups, and {ROWS}",
        ROWS / 16
    );
    assert!(many <= 3, "{many} allocations merging {ROWS} groups");
}

#[test]
fn a_flush_allocates_per_column_not_per_group() {
    let flushed = |rows: usize| {
        let (_, agg) = fold_counted(rows);
        let flush = || {
            let (mut block, mut strings) = (Block::default(), StringTable::default());
            agg.flush_into(&AttributeStore::new(), &mut block, &mut strings, None);
            block
        };
        flush(); // registers the flush's metrics
        let (allocations, block) = counted(flush);
        assert_eq!(block.rows(), rows);
        allocations
    };
    // The key sort's scratch, each column's values and the rows it has a
    // value on, the block's arrays, the output store and its attributes —
    // whatever the number of groups.
    let (few, many) = (flushed(ROWS / 16), flushed(ROWS));
    assert_eq!(
        few,
        many,
        "allocations flushing {} groups, and {ROWS}",
        ROWS / 16
    );
    assert!(many <= 80, "{many} allocations flushing {ROWS} groups");
}

/// Allocations of finishing a pipeline that folded `rows` distinct-key
/// rows under `query`, and of rendering its result, and the output.
fn finished_and_rendered(query: &str, rows: usize) -> (u64, u64, String) {
    let (mut ds, mut strings, block) = block_of(rows);
    let mut pipeline = Pipeline::from_text(query, Arc::clone(&ds.store)).expect("query parses");
    pipeline.fold_block(&mut BlockFold::new(pipeline.spec()), &mut ds, &mut strings, &block);
    assert_eq!(pipeline.len(), rows, "every row a group of its own");
    let (finish, result) = counted(|| pipeline.finish());
    let (render, out) = counted(|| result.render());
    (finish, render, out)
}

#[test]
fn a_result_is_finished_and_rendered_per_column_not_per_row() {
    // The distinct query as the benchmark renders it, and sorted into a
    // table, whose cells are gathered before they are aligned.
    let csv = format!("{QUERY} FORMAT csv");
    let table = format!("{QUERY} ORDER BY kernel desc, iteration FORMAT table");
    for query in [csv.as_str(), table.as_str()] {
        finished_and_rendered(query, 100); // registers the flush's metrics
        let few = finished_and_rendered(query, 1_000);
        let many = finished_and_rendered(query, ROWS);
        assert_eq!(few.2.lines().count(), 1_001, "{query}");
        assert_eq!(many.2.lines().count(), ROWS + 1, "{query}");
        // Finishing: the flush's columns, the block, the rows' order and
        // where each value sits, each sort key's cells — per column, not
        // per group; and the stable sort's scratch, which a short order
        // keeps on the stack.
        assert!(
            many.0 <= few.0 + 1,
            "{query}: {} allocations finishing 1 000 groups, {} finishing {ROWS}",
            few.0,
            many.0
        );
        // Rendering: per column too, but the output (and a table's
        // gathered cells) double as they grow.
        let doublings = (ROWS as f64 / 1_000.0).log2().ceil() as u64;
        assert!(
            many.1 <= few.1 + 2 * doublings,
            "{query}: {} allocations rendering 1 000 groups, {} rendering {ROWS}",
            few.1,
            many.1
        );
        assert!(many.0 + many.1 <= 150, "{query}: {} + {}", many.0, many.1);
    }
}

/// The benchmark's `scan` and `wide` queries.
const SCAN: &str = "LET region = first(kernel, mpi.function) \
     AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY region";
const WIDE: &str = "AGGREGATE count, sum(sum#time.duration), min(sum#time.duration), \
     max(sum#time.duration) GROUP BY kernel, mpi.function, iteration";

/// A ParaDiS-shaped block of `iterations` × 11 records: per iteration
/// eight kernel records, then three MPI-function records, each with the
/// rank, the iteration, a visit count and a time — runs of rows of one
/// shape, as a ParaDiS profile has them. `salt` varies the counts and
/// times, not the keys.
fn paradis_block(ds: &Dataset, strings: &mut StringTable, iterations: i64, salt: u64) -> Block {
    let attr = |label, vtype| ds.attribute(label, vtype, Properties::AS_VALUE).id();
    let (kernel, function) = (
        attr("kernel", ValueType::Str),
        attr("mpi.function", ValueType::Str),
    );
    let (rank, iteration) = (
        attr("mpi.rank", ValueType::Int),
        attr("iteration", ValueType::Int),
    );
    let count = attr("aggregate.count", ValueType::UInt);
    let time = attr("sum#time.duration", ValueType::Float);
    let mut block = Block::default();
    for it in 0..iterations {
        for (i, (region, name)) in (0..8)
            .map(|k| (kernel, format!("kernel-{k}")))
            .chain((0..3).map(|m| (function, format!("MPI_{m}"))))
            .enumerate()
        {
            let mut push = |attr, value: Value| {
                let column = block.column_for(attr, value.value_type());
                block.push_imm(column, strings.cell(&value));
            };
            push(region, Value::str(name));
            push(rank, Value::Int(3));
            push(iteration, Value::Int(it));
            push(count, Value::UInt(1 + (it as u64 + i as u64 + salt) % 7));
            push(
                time,
                Value::Float((it as f64 + salt as f64) * 0.25 + i as f64),
            );
            assert!(block.end_row());
        }
    }
    block
}

#[test]
fn folding_into_existing_groups_allocates_nothing() {
    for query in [SCAN, WIDE] {
        let spec: QuerySpec = parse_query(query).expect("query parses");
        let ds = Dataset::new();
        let mut strings = StringTable::default();
        let blocks: Vec<Block> = (0..4)
            .map(|salt| paradis_block(&ds, &mut strings, 93, salt))
            .collect();
        let mut agg = Aggregator::new(AggregationSpec::from_query(&spec), Arc::clone(&ds.store));
        let mut fold = BlockFold::new(&spec);
        // The warm-up block admits every group and grows the scratch.
        fold.fold(&mut agg, &ds.tree, &mut strings, &blocks[0]);
        let groups = agg.len();
        let (allocations, ()) = counted(|| {
            for block in &blocks[1..] {
                fold.fold(&mut agg, &ds.tree, &mut strings, block);
            }
        });
        assert_eq!(agg.len(), groups, "{query}: no new group");
        assert_eq!(agg.records_processed(), 4 * 93 * 11, "{query}");
        assert_eq!(
            fold.gathered_rows(),
            0,
            "{query}: every run folded as columns"
        );
        assert_eq!(allocations, 0, "{query}: allocations folding 3 warm blocks");
    }
}
