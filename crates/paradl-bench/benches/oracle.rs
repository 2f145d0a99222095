//! Criterion benchmarks of the oracle itself: how fast ParaDL projects a
//! named strategy (the tool is meant to be interactive) and a full Figure-3
//! style survey. The `oracle/project_*` benchmarks time [`Oracle::project`]
//! on a warm oracle, whose engine core is already built: the call a user
//! makes for one named strategy.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use paradl_core::prelude::*;

fn bench_single_projection(c: &mut Criterion) {
    let model = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32 * 64);
    let vgg = paradl_models::vgg16();
    for (name, model, strategy) in [
        ("oracle/project_resnet50_data_64", &model, Strategy::Data { p: 64 }),
        ("oracle/project_vgg16_data_filter_256", &vgg, Strategy::DataFilter { p1: 64, p2: 4 }),
    ] {
        let oracle = Oracle::new(model, &device, &cluster, config);
        oracle.engine(); // builds the cached engine, so timed calls only clone it
        c.bench_function(name, |b| b.iter(|| std::hint::black_box(oracle.project(strategy))));
    }
}

fn bench_survey_and_suggest(c: &mut Criterion) {
    let model = paradl_models::resnet152();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32 * 64);
    c.bench_function("oracle/survey_resnet152_64gpus", |b| {
        b.iter_batched(
            || Oracle::new(&model, &device, &cluster, config),
            |oracle| std::hint::black_box(oracle.survey(64, &Constraints::default())),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("oracle/suggest_resnet152_1024gpus", |b| {
        b.iter_batched(
            || Oracle::new(&model, &device, &cluster, config),
            |oracle| std::hint::black_box(oracle.suggest(&Constraints::default())),
            BatchSize::SmallInput,
        )
    });
}

fn bench_model_builders(c: &mut Criterion) {
    c.bench_function("models/build_resnet152", |b| {
        b.iter(|| std::hint::black_box(paradl_models::resnet152()))
    });
    c.bench_function("models/build_cosmoflow", |b| {
        b.iter(|| std::hint::black_box(paradl_models::cosmoflow()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_single_projection, bench_survey_and_suggest, bench_model_builders
);
criterion_main!(benches);
