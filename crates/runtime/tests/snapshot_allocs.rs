//! On-line aggregation allocates nothing per snapshot once every
//! context-tree node and every group has been seen — §IV-B's key of node
//! ids plus immediates, hashed in pre-allocated memory — and tracing
//! next to nothing: a snapshot is a row of the trace buffer's current
//! block, and a new block is allocated once per
//! `DEFAULT_BLOCK_RECORDS` rows. A test binary of its own because it
//! installs a counting global allocator; until `cali-bench` has the
//! `runtime.snapshot_agg_allocs`, `runtime.snapshot_trace_allocs` and
//! `runtime.trace_bytes_per_snapshot` rows (ROADMAP item 1d) this is
//! those rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use caliper_data::{Attribute, Properties, Value, ValueType};
use caliper_runtime::{Caliper, Clock, Config, ThreadScope};

thread_local! {
    // Const-initialised and without a destructor: reading them from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of `alloc`/`realloc` calls and of
/// the bytes they ask for, so the test harness's own threads are not
/// counted.
struct CountingAlloc;

fn bump(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations and bytes asked for on this thread so far.
fn allocated() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the only addition is a thread-local bump that neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
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

/// Scheme A of the paper (`caliper_bench::schemes::A`) and its ops.
const SCHEME_A: &str = "function,annotation,kernel,amr.level,mpi.function,mpi.rank";
const OPS: &str = "count,sum(time.duration),min(time.duration),max(time.duration)";

/// CleverLeaf's instrumentation (`miniapps::cleverleaf`, which sits on
/// top of this crate): nested function, annotation, kernel and MPI
/// regions; AMR level, main-loop iteration and rank as values. The
/// region names are built once, so a `begin` hands over a reference
/// count, not a new string.
struct App {
    function: Attribute,
    annotation: Attribute,
    kernel: Attribute,
    level: Attribute,
    iteration: Attribute,
    mpi_function: Attribute,
    rank: Attribute,
    names: [Value; 3],
    kernels: Vec<Value>,
    mpi_calls: Vec<Value>,
}

impl App {
    fn new(caliper: &Caliper) -> App {
        let nested = |name| caliper.attribute(name, ValueType::Str, Properties::NESTED);
        let value = |name| caliper.attribute(name, ValueType::Int, Properties::AS_VALUE);
        let names = |list: &[&str]| {
            list.iter()
                .map(|&name| Value::str(name))
                .collect::<Vec<_>>()
        };
        App {
            function: nested("function"),
            annotation: nested("annotation"),
            kernel: nested("kernel"),
            level: value("amr.level"),
            iteration: value("iteration#mainloop"),
            mpi_function: nested("mpi.function"),
            rank: value("mpi.rank"),
            names: [
                Value::str("main"),
                Value::str("simulation"),
                Value::str("hydro_cycle"),
            ],
            kernels: names(&["calc-dt", "pdv", "flux-calc", "advec-cell", "advec-mom"]),
            mpi_calls: names(&["MPI_Isend", "MPI_Irecv", "MPI_Waitall"]),
        }
    }

    fn start(&self, scope: &mut ThreadScope) {
        let [main, simulation, hydro_cycle] = &self.names;
        scope.begin(&self.rank, Value::Int(3));
        scope.begin(&self.function, main.clone());
        scope.begin(&self.annotation, simulation.clone());
        scope.begin(&self.function, hydro_cycle.clone());
    }

    fn timestep(&self, scope: &mut ThreadScope, t: i64) {
        scope.begin(&self.iteration, Value::Int(t));
        for level in 0..3 {
            scope.begin(&self.level, Value::Int(level));
            for (patch, kernel) in self.kernels.iter().enumerate() {
                for _ in 0..=patch % 3 {
                    scope.begin(&self.kernel, kernel.clone());
                    scope.advance_time(1_000 + 7 * t as u64);
                    scope.end(&self.kernel).unwrap();
                }
            }
            for call in &self.mpi_calls {
                scope.begin(&self.mpi_function, call.clone());
                scope.advance_time(900);
                scope.end(&self.mpi_function).unwrap();
            }
            scope.end(&self.level).unwrap();
        }
        scope.advance_time(5_000);
        scope.end(&self.iteration).unwrap();
    }
}

#[test]
fn an_aggregated_snapshot_allocates_nothing_in_steady_state() {
    let caliper = Caliper::with_clock(
        Config::event_aggregate(SCHEME_A, OPS),
        Clock::virtual_clock(),
    );
    let app = App::new(&caliper);
    let mut scope = caliper.make_thread_scope();
    app.start(&mut scope);
    // Warm-up: every node, group and buffer the loop reaches.
    for t in 0..3 {
        app.timestep(&mut scope, t);
    }
    let groups = scope.output_records();

    let before = scope.snapshot_count();
    let (start, _) = allocated();
    let mut t = 3;
    while scope.snapshot_count() - before < 10_000 {
        app.timestep(&mut scope, t);
        t += 1;
    }
    let allocations = allocated().0 - start;
    let snapshots = scope.snapshot_count() - before;

    assert_eq!(scope.output_records(), groups, "the loop found a new group");
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in {snapshots} snapshots"
    );
}

#[test]
fn a_traced_snapshot_allocates_next_to_nothing_in_steady_state() {
    let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
    let app = App::new(&caliper);
    let mut scope = caliper.make_thread_scope();
    app.start(&mut scope);
    // Warm-up: every node, and blocks enough to be cut and sized.
    let mut t = 0;
    while scope.snapshot_count() < 5_000 {
        app.timestep(&mut scope, t);
        t += 1;
    }

    let before = scope.snapshot_count();
    let (allocations, bytes) = allocated();
    while scope.snapshot_count() - before < 100_000 {
        app.timestep(&mut scope, t);
        t += 1;
    }
    let snapshots = (scope.snapshot_count() - before) as f64;
    let (allocations, bytes) = (allocated().0 - allocations, allocated().1 - bytes);
    let per_snapshot = (allocations as f64 / snapshots, bytes as f64 / snapshots);

    assert_eq!(scope.output_records() as u64, scope.snapshot_count());
    assert!(per_snapshot.0 <= 0.01, "{allocations} allocations in {snapshots} snapshots");
    assert!(per_snapshot.1 <= 64.0, "{bytes} bytes in {snapshots} snapshots");
}
