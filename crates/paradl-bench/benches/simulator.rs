//! Criterion benchmarks of the distributed-training simulator: one simulated
//! iteration per strategy (the unit the experiment binaries repeat).

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::prelude::*;
use paradl_sim::{OverheadModel, Simulator};

fn bench_simulated_strategies(c: &mut Criterion) {
    let model = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32 * 64);
    let sim = Simulator::new(&device, &cluster)
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(1);

    let cases = [
        ("simulator/resnet50_data_64", Strategy::Data { p: 64 }),
        ("simulator/resnet50_filter_16", Strategy::Filter { p: 16 }),
        ("simulator/resnet50_data_filter_64", Strategy::DataFilter { p1: 16, p2: 4 }),
        ("simulator/resnet50_pipeline_4x8", Strategy::Pipeline { p: 4, segments: 8 }),
    ];
    for (name, strategy) in cases {
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(sim.simulate(&model, &config, strategy)))
        });
    }
}

fn bench_cosmoflow_hybrid(c: &mut Criterion) {
    let model = paradl_models::cosmoflow_small();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::cosmoflow(16);
    let sim = Simulator::new(&device, &cluster).with_samples(1);
    c.bench_function("simulator/cosmoflow_data_spatial_64", |b| {
        b.iter(|| {
            std::hint::black_box(sim.simulate(
                &model,
                &config,
                Strategy::DataSpatial { p1: 16, split: SpatialSplit::balanced_3d(4) },
            ))
        })
    });
}

/// The heaviest replay shape of the conformance grid: Data+Filter over 256
/// PEs (64 groups × 4 GPUs across four racks) for two sampled iterations.
fn bench_conformance_replay(c: &mut Criterion) {
    let model = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(256);
    let sim = Simulator::new(&device, &cluster)
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(2);
    c.bench_function("simulator/resnet50_data_filter_256", |b| {
        b.iter(|| {
            std::hint::black_box(sim.simulate(
                &model,
                &config,
                Strategy::DataFilter { p1: 64, p2: 4 },
            ))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulated_strategies, bench_cosmoflow_hybrid, bench_conformance_replay
);
criterion_main!(benches);
