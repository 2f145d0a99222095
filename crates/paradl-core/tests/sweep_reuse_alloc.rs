//! A [`GridSweep`] keeps the columns of its last run with the inputs they
//! were computed from. Repeating a sweep of the same grid reuses every
//! column, so it must allocate a small fraction of the bytes the first
//! (cold) run allocated; swapping one cluster for another on the same
//! device profile reuses the supersets and prep columns and computes only
//! the new cluster's coefficient columns. Neither run may peak higher than
//! the cold run, kept columns included.
//!
//! Measured on this grid: the repeat allocates 0.041 of the cold run's
//! bytes and the cluster swap 0.049; both peak at up to 1.000 times the
//! cold run's live bytes. The bounds below, 0.05, 0.07 and 1.05, leave room for
//! allocations that depend on thread timing. Bytes show the superset
//! reuse: enumerating the supersets again allocates its scratch (with
//! superset matching disabled, the two runs read 0.095 and 0.101).
//! A prep set refilled into the buffer it kept allocates little, so its
//! reuse shows in `grid::tests`, which counts the columns each run
//! computes, not here.
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

/// The test grid on `clusters`: two models, two batches, exhaustive
/// top-k, large enough that the supersets, prep columns and coefficient
/// columns dominate what a sweep allocates.
fn grid(clusters: [ClusterSpec; 2]) -> QueryGrid {
    let constraints = Constraints {
        max_pes: 2048,
        pipeline_segments: 8,
        sweep: PeSweep::Exhaustive,
        top_k: Some(10),
        ..Constraints::default()
    };
    let [a, b] = clusters;
    QueryGrid::new(constraints)
        .with_model(model(64), TrainingConfig::small(65536, 256))
        .with_model(model(96), TrainingConfig::small(65536, 256))
        .with_batches([64usize, 256])
        .with_cluster(a)
        .with_cluster(b)
}

fn assert_fresh(report: &GridReport, grid: &QueryGrid, what: &str) {
    let fresh = GridSweep::new().run(grid);
    assert!(
        report.cells.iter().zip(&fresh.cells).all(|(a, f)| a.report == f.report),
        "{what}: a resident sweep diverged from a fresh one"
    );
}

#[test]
fn repeated_sweep_reuses_the_kept_buffers() {
    let grid_a = grid([ClusterSpec::paper_system(), ClusterSpec::workstation(8)]);
    // The second cluster swapped for another on the same V100 profile:
    // only its coefficient columns are new.
    let grid_b = grid([ClusterSpec::paper_system(), ClusterSpec::workstation(4)]);
    let sweep = GridSweep::new();
    let floor = LIVE.load(Ordering::Relaxed);
    let (cold, first) = measure(floor, || sweep.run(&grid_a));
    drop(first);
    let (warm, again) = measure(floor, || sweep.run(&grid_a));
    assert_fresh(&again, &grid_a, "repeat");
    drop(again);
    let (moved, other) = measure(floor, || sweep.run(&grid_b));
    assert_fresh(&other, &grid_b, "cluster swap");
    let share = |u: &Usage| u.allocated as f64 / cold.allocated as f64;
    eprintln!(
        "cold run: {} B allocated, {} B peak; repeat: {} B allocated ({:.3} of cold), {} B peak; \
         cluster swap: {} B allocated ({:.3} of cold), {} B peak",
        cold.allocated,
        cold.peak,
        warm.allocated,
        share(&warm),
        warm.peak,
        moved.allocated,
        share(&moved),
        moved.peak
    );
    assert!(
        share(&warm) < 0.05,
        "a repeated sweep allocated {:.3} of the cold run's bytes",
        share(&warm)
    );
    assert!(
        share(&moved) < 0.07,
        "a cluster swap allocated {:.3} of the cold run's bytes",
        share(&moved)
    );
    for (what, run) in [("repeated sweep", &warm), ("cluster swap", &moved)] {
        assert!(
            run.peak as f64 <= 1.05 * cold.peak as f64,
            "a {what} peaked at {} B, the cold run at {} B",
            run.peak,
            cold.peak
        );
    }
}
