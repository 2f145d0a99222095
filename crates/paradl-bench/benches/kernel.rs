//! Benchmarks of the analytic candidate-evaluation kernel: a small grid
//! through the fused coefficient-reconstruction pass (static dominance
//! bounds, branchless survivor compaction, full estimates only for each
//! chunk's `k` best and budget winners), and the evaluation chunk
//! granularity. The paper-scale end-to-end numbers (and
//! the ≥ 5× acceptance floor over the committed grid throughput) live in
//! the `bench_kernel_summary` binary, which writes `BENCH_kernel.json`.
//!
//! Each `b.iter` loop reuses one `GridSweep`, so every iteration after the
//! first is a warm repeat that reuses the supersets, prep columns and
//! coefficient columns the previous one kept: these numbers time the
//! engines, cells and evaluation of a repeated sweep, not a cold one
//! (`grid/sweep_12cells_cold` in `benches/grid.rs` times the same grid
//! cold).

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::prelude::*;

fn small_grid() -> QueryGrid {
    let constraints = Constraints {
        max_pes: 1024,
        top_k: Some(10),
        sweep: PeSweep::Exhaustive,
        ..Constraints::default()
    };
    QueryGrid::new(constraints)
        .with_model(paradl_models::resnet50(), TrainingConfig::imagenet(512))
        .with_model(paradl_models::cosmoflow(), TrainingConfig::cosmoflow(512))
        .with_batches([128usize, 256, 512])
        .with_cluster(ClusterSpec::paper_system())
        .with_cluster(ClusterSpec::workstation(8))
}

fn bench_kernel(c: &mut Criterion) {
    let grid = small_grid();
    let sweep = GridSweep::new();
    assert_eq!(grid.num_queries(), 12);
    // Warm: every column comes from the previous iteration.
    c.bench_function("kernel/analytic_12cells", |b| {
        b.iter(|| std::hint::black_box(sweep.run(&grid)))
    });
}

fn bench_chunk_granularity(c: &mut Criterion) {
    let grid = small_grid();
    for chunk in [2048usize, 8192, 32768] {
        // Warm, like `kernel/analytic_12cells`: the chunk size moves only
        // the evaluation, so the kept columns serve every size's repeats.
        let sweep = GridSweep::new().with_chunk_size(chunk);
        c.bench_function(&format!("kernel/analytic_chunk_{chunk}"), |b| {
            b.iter(|| std::hint::black_box(sweep.run(&grid)))
        });
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernel, bench_chunk_granularity
);
criterion_main!(benches);
