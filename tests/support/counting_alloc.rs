//! A counting `#[global_allocator]` for the test binaries that pin
//! allocation counts. Include it with
//! `#[path = "support/counting_alloc.rs"] mod counting_alloc;` — each
//! such file is its own test binary, so the allocator touches no other
//! suite.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by the current thread. Per
    /// thread because the harness runs the tests of this binary in
    /// parallel; const-initialised and destructor-free, so touching it
    /// from inside the allocator allocates nothing itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation counts its new
    /// size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread's allocations hold: an allocation adds its
    /// size, a deallocation subtracts it and a reallocation adds the
    /// difference. A block freed by another thread than the one that
    /// made it moves the count of both, so it can go negative.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct CountingAllocator;

fn count_allocation(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn count_live(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update touches
// only a thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        count_live(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        count_live(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        count_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; both are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`; returns its result and the allocations the current thread
/// made meanwhile.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocations, _) = allocations_and_bytes_in(f);
    (out, allocations)
}

/// Like [`allocations_in`], also returning the bytes those allocations
/// asked for.
pub fn allocations_and_bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Runs `f`; returns its result and how many more bytes the current
/// thread's allocations hold afterwards than before: what the result
/// keeps, plus anything `f` leaked.
#[allow(dead_code)] // read by the memory pins alone
pub fn live_bytes_in<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}
