//! Benchmarks of the exhaustive strategy search: the rayon-parallel
//! [`Oracle::search`], plus the cost of enumerating the candidate space
//! alone under both PE sweeps — the default powers-of-two ResNet-50 space
//! and the CosmoFlow 16 Ki exhaustive space of the `engine` bench.

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::prelude::*;

fn bench_search(c: &mut Criterion) {
    let model = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32 * 64);
    let oracle = Oracle::new(&model, &device, &cluster, config);
    let constraints = Constraints::default();

    c.bench_function("search/resnet50_parallel", |b| {
        b.iter(|| std::hint::black_box(oracle.search(&constraints)))
    });
}

fn bench_space_enumeration(c: &mut Criterion) {
    let resnet = paradl_models::resnet50();
    let cosmoflow = paradl_models::cosmoflow();
    let exhaustive = Constraints {
        max_pes: 16 * 1024,
        pipeline_segments: 512,
        sweep: PeSweep::Exhaustive,
        ..Constraints::default()
    };
    for (name, model, batch, constraints) in [
        ("search/resnet50_enumerate_space", &resnet, 32 * 64, Constraints::default()),
        ("search/cosmoflow_enumerate_exhaustive", &cosmoflow, 1024, exhaustive),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(StrategySpace::new(model, batch, &constraints).len()))
        });
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_search, bench_space_enumeration
);
criterion_main!(benches);
