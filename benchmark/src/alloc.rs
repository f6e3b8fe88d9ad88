//! A counting global allocator, for the `*_allocs_per_rec` rows.
//!
//! Allocation counts repeat exactly from run to run where wall time on
//! a shared two-core box does not, so they are the per-layer evidence
//! a later change can rest a claim on. The counter is per thread: a
//! measurement sees only the allocations of the thread that makes it
//! (every counted call in this harness is single-threaded), and it
//! costs one thread-local add with no locked instruction, so the
//! in-process `online` numbers are not perturbed by it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: reading it from
    // inside the allocator neither allocates nor registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of `alloc`/`realloc` calls.
pub struct CountingAlloc;

fn bump() {
    // `try_with` only fails during thread teardown; a missed count
    // there is outside every measured region.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
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
        // SAFETY: `ptr` came from this allocator, which only ever
        // hands out `System` blocks, with the same `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` and return its result with the number of heap allocations
/// (including reallocations) the calling thread made inside it.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vec_push_sequence_counts_exactly() {
        // An empty Vec<u64> does not allocate; the first push allocates
        // the minimum capacity of 4, and each later doubling (at the
        // 5th, 9th and 17th push) is one realloc: 4 calls for 17 pushes.
        let (v, n) = count(|| {
            let mut v: Vec<u64> = Vec::new();
            for i in 0..17 {
                v.push(i);
            }
            v
        });
        assert_eq!(v.len(), 17);
        assert_eq!(n, 4);

        let (_, n) = count(|| Vec::<u64>::with_capacity(1000));
        assert_eq!(n, 1);
        let (_, n) = count(|| 1 + 1);
        assert_eq!(n, 0);
    }
}
