//! A [`GridSweep`] keeps its column buffers between runs: repeating a sweep
//! of the same grid must allocate a small fraction of the bytes the first
//! (cold) run allocated, and must peak no higher than the cold run, kept
//! buffers included, give or take the scratch of the early stages (the
//! enumeration sieve, rebatched engines), which a repeat holds on top of
//! the kept columns of the later ones.
//!
//! Measured on this grid: the repeat allocates 0.110 of the cold run's
//! bytes and peaks at up to 1.011 times its live bytes (1.000 in a release
//! build). The bounds below, 0.2 and 1.05, leave room for allocations that
//! depend on thread timing.
//!
//! The test counts bytes with a std-only global allocator, so it is the
//! only test of its binary: another test running alongside would allocate
//! into the same counters.

use paradl_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live, peak and allocated bytes.
struct Counting;

// Relaxed suffices: the counters are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
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

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
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

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one run did to the heap: bytes allocated during it, and its peak
/// live bytes above `floor`.
struct Usage {
    allocated: usize,
    peak: usize,
}

fn measure(floor: usize, run: impl FnOnce() -> GridReport) -> (Usage, GridReport) {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let before = ALLOCATED.load(Ordering::Relaxed);
    let report = run();
    let usage = Usage {
        allocated: ALLOCATED.load(Ordering::Relaxed) - before,
        peak: PEAK.load(Ordering::Relaxed) - floor,
    };
    (usage, report)
}

fn model(width: usize) -> Model {
    Model::new(
        format!("w{width}"),
        3,
        vec![64, 64],
        vec![
            Layer::conv2d("c1", 3, width, (64, 64), 3, 1, 1),
            Layer::pool2d("p1", width, (64, 64), 2, 2),
            Layer::conv2d("c2", width, 2 * width, (32, 32), 3, 1, 1),
            Layer::global_pool("g", 2 * width, &[32, 32]),
            Layer::fully_connected("fc", 2 * width, 10),
        ],
    )
}

#[test]
fn repeated_sweep_reuses_the_kept_buffers() {
    // An exhaustive top-k grid large enough that the supersets, prep
    // columns and coefficient columns dominate what a sweep allocates.
    let constraints = Constraints {
        max_pes: 2048,
        pipeline_segments: 8,
        sweep: PeSweep::Exhaustive,
        top_k: Some(10),
        ..Constraints::default()
    };
    let grid = QueryGrid::new(constraints)
        .with_model(model(64), TrainingConfig::small(65536, 256))
        .with_model(model(96), TrainingConfig::small(65536, 256))
        .with_batches([64usize, 256])
        .with_cluster(ClusterSpec::paper_system())
        .with_cluster(ClusterSpec::workstation(8));
    let sweep = GridSweep::new();
    let floor = LIVE.load(Ordering::Relaxed);
    let (cold, first) = measure(floor, || sweep.run(&grid));
    drop(first);
    let (warm, again) = measure(floor, || sweep.run(&grid));
    let fresh = GridSweep::new().run(&grid);
    assert!(again.cells.iter().zip(&fresh.cells).all(|(a, f)| a.report == f.report));
    let ratio = warm.allocated as f64 / cold.allocated as f64;
    eprintln!(
        "cold run: {} B allocated, {} B peak; repeat: {} B allocated ({ratio:.3} of cold), {} B peak",
        cold.allocated, cold.peak, warm.allocated, warm.peak
    );
    assert!(ratio < 0.2, "a repeated sweep allocated {ratio:.3} of the cold run's bytes");
    assert!(
        warm.peak as f64 <= 1.05 * cold.peak as f64,
        "a repeated sweep peaked at {} B, the cold run at {} B",
        warm.peak,
        cold.peak
    );
}
