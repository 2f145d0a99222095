//! Peak live heap of the process, counted by the global allocator.
//!
//! The operating system's peak resident set (`VmHWM`) also records how the
//! C allocator happens to spread threads over its arenas: identical
//! `conformance` runs peak anywhere from 15 to 21 MiB. Live heap bytes
//! depend only on what the program allocates, so they are the memory metric
//! the benchmark bounds; the resident peak is still printed.
//!
//! Each thread batches its allocation balance and publishes it to the shared
//! counter once it moves by [`BATCH`] bytes, so allocation-heavy parallel
//! code does not contend on one counter for every allocation. The peak may
//! therefore miss up to [`BATCH`] bytes per running thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live and peak bytes on the way through.
pub struct Counting;

/// How far a thread's unpublished balance may drift, in bytes.
const BATCH: isize = 64 * 1024;

// Relaxed suffices: the counters are statistics and publish no other data.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's unpublished balance; published when the thread exits.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        publish(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn publish(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn account(delta: isize) {
    let batched = PENDING.try_with(|p| {
        let balance = p.0.get() + delta;
        if balance.abs() >= BATCH {
            p.0.set(0);
            publish(balance);
        } else {
            p.0.set(balance);
        }
    });
    if batched.is_err() {
        // The thread-local is already gone (thread teardown).
        publish(delta);
    }
}

// `Layout` sizes never exceed `isize::MAX`, so these casts are lossless.
fn grew(bytes: usize) {
    account(bytes as isize);
}

fn shrank(bytes: usize) {
    account(-(bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting never touches the memory
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantees.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// The most heap bytes live at once so far, in MiB (after publishing the
/// calling thread's balance).
pub fn peak_mb() -> f64 {
    PENDING.with(|p| publish(p.0.replace(0)));
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
