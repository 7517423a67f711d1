//! Overhead guard: the counter and histogram update paths must not
//! allocate after one-time registry construction, whether metrics are
//! enabled or disabled. A counting global allocator makes any allocation
//! on the hot path a hard test failure.
//!
//! This file deliberately holds a single `#[test]`: the allocation counter
//! is process-global, so a concurrently running test would make the
//! before/after comparison meaningless.

use cordoba_obs::{Counter, Histogram, LabeledCounter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations observed process-wide since startup.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System` wrapped with an allocation counter.
struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counter update is lock-free and
// allocation-free, so there is no reentrancy.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

static COUNTER: Counter = Counter::new("test/no_alloc/counter");
static HISTOGRAM: Histogram = Histogram::new("test/no_alloc/histogram");
static LABELED: LabeledCounter =
    LabeledCounter::new("test/no_alloc/labeled", "tier", &["hot", "cold", "other"]);

/// Runs `work` and returns how many allocations it performed.
fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    work();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn metric_updates_do_not_allocate_after_registration() {
    // Disabled metrics: the guard load must not allocate either.
    cordoba_obs::set_metrics_enabled(false);
    let disabled = allocations_during(|| {
        for i in 0..10_000u64 {
            COUNTER.add(i);
            HISTOGRAM.record(i);
            LABELED.incr((i % 5) as usize);
        }
    });
    assert_eq!(disabled, 0, "disabled metric updates allocated");

    // First enabled touch registers into the global registry — the only
    // moment the metrics layer is allowed to allocate.
    cordoba_obs::set_metrics_enabled(true);
    COUNTER.incr();
    HISTOGRAM.record(1);
    LABELED.incr(0);

    let enabled = allocations_during(|| {
        for i in 0..100_000u64 {
            COUNTER.add(i);
            HISTOGRAM.record(i);
            // Out-of-range cells clamp to the trailing catch-all; the
            // clamp path must be allocation-free too.
            LABELED.incr((i % 5) as usize);
        }
    });
    assert_eq!(enabled, 0, "registered metric updates allocated");
    assert_eq!(COUNTER.value(), 1 + (0..100_000u64).sum::<u64>());
    assert_eq!(HISTOGRAM.count(), 100_001);
    // 100_000 updates: cells 0/1 get 20_000 each (plus the registration
    // touch on cell 0), the catch-all absorbs the clamped 2/3/4 residues.
    assert_eq!(LABELED.cell_value(0), 20_001);
    assert_eq!(LABELED.cell_value(1), 20_000);
    assert_eq!(LABELED.cell_value(2), 60_000);
}
