//! A counting global allocator, switched on only where the benchmark
//! counts allocations or live heap.
//!
//! While switched off every call goes straight to the system allocator
//! after one relaxed load of a flag nobody writes, so timed phases pay
//! nothing measurable. While switched on, each allocation updates
//! process-wide atomic counters; that contention roughly doubles the cost
//! of allocation-heavy code (planning), which is why no timing metric is
//! ever taken with counting on.
//!
//! Live bytes are counted from the moment counting is switched on, so a
//! free of a block allocated earlier makes the live count drop below the
//! true heap. Callers switch counting on before they build the state they
//! measure, after dropping everything built before.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The benchmark binary's global allocator.
pub struct Counting;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            on_alloc(new_size);
        }
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters since counting was last switched on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Counts {
    /// Counters now.
    pub fn now() -> Self {
        Counts {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(earlier: Counts) -> Self {
        let now = Counts::now();
        Counts {
            allocs: now.allocs - earlier.allocs,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

/// Switches counting on with every counter at zero.
pub fn start() {
    ON.store(false, Relaxed);
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Switches counting off; the counters keep their values.
pub fn stop() {
    ON.store(false, Relaxed);
}

/// Restarts the peak at the current live byte count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live bytes since counting started or [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}
