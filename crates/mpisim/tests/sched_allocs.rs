//! A rank costs the event engine a few bytes and no allocation of its
//! own: the calendar holds a batch per timestamp, each worker chunk
//! reuses one effects buffer, and a `ReduceTask` works out its next
//! round instead of storing its schedule. Held here as allocations per
//! rank of a `u64` reduction — 1 024 and 4 096 ranks, the difference
//! divided by the 3 072 extra ranks. A test binary of its own because
//! it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpisim::{EventEngine, FaultPlan, ReduceTask, ResilienceOptions, Topology};

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

/// Allocations and bytes allocated on this thread by one fault-free
/// `u64` sum over `ranks` on the single-worker event engine, which
/// steps every rank on the calling thread.
fn reduce_counted(ranks: usize) -> (u64, u64) {
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let opts = ResilienceOptions::default();
    let (outs, stats) =
        EventEngine::new().run_tasks_with_stats(ranks, FaultPlan::new(), move |rank, size| {
            ReduceTask::new(
                rank,
                size,
                Topology::Flat,
                move || rank as u64,
                |a: u64, b: u64| a + b,
                opts,
            )
        });
    let counted = (
        ALLOCATIONS.with(Cell::get) - allocations,
        BYTES.with(Cell::get) - bytes,
    );
    let (sum, coverage) = outs[0]
        .as_ref()
        .expect("root survives")
        .as_ref()
        .expect("root output");
    assert_eq!(*sum, (ranks * (ranks - 1) / 2) as u64);
    assert!(coverage.is_complete());
    assert_eq!(stats.messages, ranks as u64 - 1);
    counted
}

#[test]
fn a_rank_allocates_what_its_message_needs() {
    // The first run pays for what a process sets up once.
    reduce_counted(1024);
    let (few, few_bytes) = reduce_counted(1024);
    let (many, many_bytes) = reduce_counted(4096);
    let extra = (4096 - 1024) as f64;
    let per_rank = (many - few) as f64 / extra;
    let bytes_per_rank = (many_bytes - few_bytes) as f64 / extra;
    eprintln!("{per_rank:.2} allocations, {bytes_per_rank:.0} bytes per rank");
    // 2.77 allocations and 1 103 B: the message's box, the rank's list
    // of covered ranks and its growth, and a share of the calendar's
    // per-timestamp vectors and of the effects buffer's growth. The
    // scheduler that kept its events in a binary heap, stepped each rank
    // with effects of its own and stored each task's schedule made 8.35
    // and 2 616 B, and fails these bounds.
    assert!(per_rank <= 3.5, "{per_rank:.2} allocations per rank");
    assert!(
        bytes_per_rank <= 1536.0,
        "{bytes_per_rank:.0} bytes allocated per rank"
    );
}
