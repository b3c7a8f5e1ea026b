//! A counting global allocator: bytes requested, live heap and its peak.
//! Counts repeat from run to run where times do not, so they are the
//! sharp instruments beside every timing.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed everywhere: each counter is a statistic that publishes no
// other data, and the measured loops are single-threaded.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

fn grew(bytes: u64) {
    ALLOCATED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are side
// effects that never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Bytes requested from the allocator since the process started (a
/// `realloc` counts its whole new size).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Relaxed)
}

/// Bytes live now.
#[cfg(test)]
fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Highest live heap since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate while this one runs (tens of MiB at most),
    // so the block is far larger than their churn and the bounds leave
    // that much slack. Zeroed pages are never touched, so it is cheap.
    #[test]
    fn counts_follow_allocation_and_release() {
        const BLOCK: u64 = 1 << 30;
        const SLACK: u64 = 1 << 28;
        let before = allocated_bytes();
        reset_peak();
        let live0 = live_bytes();
        let v = vec![0u8; BLOCK as usize];
        assert!(allocated_bytes() - before >= BLOCK);
        assert!(peak_bytes() + SLACK >= live0 + BLOCK);
        drop(std::hint::black_box(v));
        reset_peak();
        assert!(peak_bytes() < live0 + SLACK);
    }
}
