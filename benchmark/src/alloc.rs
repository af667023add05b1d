//! A flag-gated counting allocator.
//!
//! The benchmark binary installs [`Counting`] as its global allocator.
//! While the gate is closed it costs one relaxed load per allocation;
//! while open it counts calls and bytes exactly, so `allocs_per_op`
//! repeats bit-for-bit for a seed. The counted slices run *after* the
//! timed ones, so the gate never perturbs a wall-clock metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Held for the length of a counted region, so regions never overlap.
static REGION: Mutex<()> = Mutex::new(());

/// The system allocator plus gated counters.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note(size: usize) {
    if ENABLED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

/// Allocation calls and bytes requested while the gate was open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

/// Runs `f` with the gate open and returns what the whole process
/// allocated meanwhile (the benchmark runs one thread while counting).
/// Not re-entrant.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    // A poisoned lock only means another region's closure panicked.
    let _region = REGION.lock().unwrap_or_else(|e| e.into_inner());
    let before = (COUNT.load(Relaxed), BYTES.load(Relaxed));
    ENABLED.store(true, Relaxed);
    let out = f();
    ENABLED.store(false, Relaxed);
    let count = AllocCount {
        calls: COUNT.load(Relaxed) - before.0,
        bytes: BYTES.load(Relaxed) - before.1,
    };
    (out, count)
}

/// [`counted`] when `on`, a plain call (zero counts) otherwise.
pub fn counted_if<T>(on: bool, f: impl FnOnce() -> T) -> (T, AllocCount) {
    if on {
        counted(f)
    } else {
        (f(), AllocCount::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_only_while_open() {
        let (v, on) = counted(|| std::hint::black_box(Vec::<u64>::with_capacity(4)));
        assert!(on.calls >= 1 && on.bytes >= 32, "{on:?}");
        drop(v);
        // Holding the region lock keeps parallel tests from opening
        // the gate while the closed half is checked.
        let _region = REGION.lock().unwrap_or_else(|e| e.into_inner());
        let before = COUNT.load(Relaxed);
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(COUNT.load(Relaxed), before);
    }
}
