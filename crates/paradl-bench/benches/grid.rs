//! Benchmarks of the amortized multi-query grid path: the in-place
//! `CostEngine::rebatch` against a full engine rebuild, and a small
//! `GridSweep` against the naive one-`Oracle::search`-per-cell baseline
//! (`paradl_bench::per_query_sweep`). The paper-scale end-to-end numbers
//! (and the ≥ 5× acceptance floor) live in the `bench_grid_summary` binary,
//! which writes `BENCH_grid.json`.
//!
//! The `b.iter` loop of the sweep benchmark reuses one `GridSweep`, so
//! every iteration after the first refills the column buffers the previous
//! one kept; the per-query baseline builds fresh oracles each time.

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::prelude::*;

fn bench_rebatch_vs_rebuild(c: &mut Criterion) {
    let model = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    c.bench_function("grid/resnet50_rebuild_engine", |b| {
        let mut batch = 512usize;
        b.iter(|| {
            batch = if batch == 512 { 1024 } else { 512 };
            std::hint::black_box(CostEngine::new(
                &model,
                &device,
                &cluster,
                TrainingConfig::imagenet(batch),
            ))
        })
    });
    c.bench_function("grid/resnet50_rebatch", |b| {
        let mut engine = CostEngine::new(&model, &device, &cluster, TrainingConfig::imagenet(512))
            .expect("engine builds");
        let mut batch = 512usize;
        b.iter(|| {
            batch = if batch == 512 { 1024 } else { 512 };
            engine.rebatch(batch);
            std::hint::black_box(engine.config().batch_size)
        })
    });
}

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

fn bench_sweep_vs_per_query(c: &mut Criterion) {
    let grid = small_grid();
    let sweep = GridSweep::new();
    let n = grid.num_queries();
    assert_eq!(n, 12);
    c.bench_function("grid/sweep_12cells_per_query", |b| {
        b.iter(|| std::hint::black_box(paradl_bench::per_query_sweep(&grid)))
    });
    c.bench_function("grid/sweep_12cells_amortized", |b| {
        b.iter(|| std::hint::black_box(sweep.run(&grid)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rebatch_vs_rebuild, bench_sweep_vs_per_query
);
criterion_main!(benches);
