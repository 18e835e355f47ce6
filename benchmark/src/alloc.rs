//! A counting `#[global_allocator]`: the system allocator plus one
//! per-thread counter, so the boundary spans can report allocations per
//! frame without instrumenting the engine.
//!
//! The counter is a const-initialised thread-local `Cell`, which needs no
//! lazy set-up and therefore never allocates from inside the allocator.
//! Its cost (one thread-local add per allocation) is paid by the untraced
//! passes too, so traced and untraced runs measure the same program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn bump() {
    // `try_with` because the allocator is still called while a thread's
    // locals are being torn down; those allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (i.e. from `System`) with
        // `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (alloc + alloc_zeroed + realloc) made so far by the calling
/// thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
