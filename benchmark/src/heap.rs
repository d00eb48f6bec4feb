//! Peak live heap, counted by a wrapper around the system allocator.
//!
//! The kernel's peak-RSS mark also holds memory the allocator keeps after
//! a free, which depends on how the workers' threads happened to share
//! allocator arenas and on the speed probe's own buffers; live heap bytes
//! are what the program controls. Counting is switched on only around the
//! execution it measures, so timed repetitions pay one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The allocator of the benchmark binary.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            // Frees of blocks allocated before counting began would
            // underflow; saturate instead.
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                Some(live.saturating_sub(layout.size()))
            });
        }
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() && ENABLED.load(Ordering::Relaxed) {
            let grown = new_size.saturating_sub(layout.size());
            let shrunk = layout.size().saturating_sub(new_size);
            let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
            PEAK.fetch_max(live, Ordering::Relaxed);
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                Some(live.saturating_sub(shrunk))
            });
        }
        moved
    }
}

/// Starts counting from zero live bytes.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops counting; returns the peak live bytes since [`start`].
pub fn stop() -> usize {
    ENABLED.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed)
}
