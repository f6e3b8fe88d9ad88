//! A rank without input costs the tree reduction little: it builds no
//! pipeline, sends nothing but its coverage, and the event engine steps
//! its state where it lies. Held here as allocations per empty rank —
//! two files over 1 024 and over 4 096 ranks, the difference divided by
//! the 3 072 extra ranks. A test binary of its own because it installs
//! a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use cali_cli::parallel_query;
use miniapps::paradis::{self, ParaDisParams};
use mpisim::{EventEngine, FaultPlan, ResilienceOptions, Topology};

thread_local! {
    // Const-initialised and without a destructor: reading them from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of `alloc`/`realloc` calls and
/// the bytes they asked for, so the test harness's own threads are not
/// counted.
struct CountingAlloc;

fn bump(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
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

const QUERY: &str =
    "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel, mpi.function";

/// Allocations and bytes allocated on this thread by one fault-free
/// run of `files` round-robin over `ranks` on the single-worker event
/// engine, which steps every rank on the calling thread.
fn reduce_counted(files: &[PathBuf], ranks: usize) -> (u64, u64) {
    let mut per_rank = vec![Vec::new(); ranks];
    for (i, path) in files.iter().enumerate() {
        per_rank[i % ranks].push(path.clone());
    }
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let (run, _) = parallel_query(
        &EventEngine::new(),
        Topology::Flat,
        QUERY,
        per_rank,
        FaultPlan::new(),
        ResilienceOptions::default(),
        false,
    );
    let run = run.expect("the reduction runs");
    let counted = (
        ALLOCATIONS.with(Cell::get) - allocations,
        BYTES.with(Cell::get) - bytes,
    );
    assert!(run.coverage.is_complete());
    assert!(!run.result.records.is_empty());
    counted
}

#[test]
fn an_empty_rank_allocates_little() {
    let dir = std::env::temp_dir().join(format!("reduce-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let params = ParaDisParams {
        iterations: 2,
        ..Default::default()
    };
    let files = paradis::write_files(&params, 2, &dir).unwrap();

    // The first run pays for what a process sets up once.
    reduce_counted(&files, 1024);
    let (few, few_bytes) = reduce_counted(&files, 1024);
    let (many, many_bytes) = reduce_counted(&files, 4096);
    let extra = (4096 - 1024) as f64;
    let per_rank = (many - few) as f64 / extra;
    let bytes_per_rank = (many_bytes - few_bytes) as f64 / extra;
    eprintln!("{per_rank:.2} allocations, {bytes_per_rank:.0} bytes per empty rank");
    // The reduction with a whole pipeline per rank made 29.9 allocations
    // and 15.0 KB per empty rank; the scheduler that kept its events in
    // a binary heap, stepped each rank with effects of its own and
    // stored each task's schedule made 8.88 and 3 098 B, and fails
    // these bounds.
    assert!(per_rank <= 4.0, "{per_rank:.2} allocations per empty rank");
    assert!(
        bytes_per_rank <= 2048.0,
        "{bytes_per_rank:.0} bytes allocated per empty rank"
    );
    std::fs::remove_dir_all(&dir).ok();
}
