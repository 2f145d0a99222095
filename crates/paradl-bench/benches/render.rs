//! Benchmarks of answer serialization: `QueryAnswer::to_json` and the
//! compact `Json::render` of a ResNet-50 `FullRank` answer at 1 Ki PEs
//! (batch 256, paper cluster, exhaustive PE sweep; ≈ 9.8 k candidates,
//! ≈ 3.4 MB rendered). Serialization, not the search, dominates the
//! latency of such an answer, which is why it has a bench of its own.

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::prelude::*;

fn resnet50_fullrank_1ki() -> QueryAnswer {
    Query::default()
        .with_model(paradl_models::resnet50())
        .with_config(TrainingConfig::imagenet(256))
        .with_cluster(ClusterSpec::paper_system())
        .with_constraints(Constraints {
            max_pes: 1024,
            sweep: PeSweep::Exhaustive,
            ..Constraints::default()
        })
        .with_mode(QueryMode::FullRank)
        .run()
        .expect("ResNet-50 full ranking answers")
}

fn bench_render(c: &mut Criterion) {
    let answer = resnet50_fullrank_1ki();
    let json = answer.to_json();
    let ranked = json.req("ranked").as_arr().len();
    assert!(ranked >= 5_000, "ResNet-50 1 Ki full ranking too small: {ranked} candidates");

    c.bench_function("render/resnet50_fullrank_1ki_to_json", |b| {
        b.iter(|| std::hint::black_box(answer.to_json()))
    });
    c.bench_function("render/resnet50_fullrank_1ki_render", |b| {
        b.iter(|| std::hint::black_box(json.render()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_render
);
criterion_main!(benches);
