//! Benchmarks of answer serialization, on two `FullRank` answers at 1 Ki
//! PEs (paper cluster, exhaustive PE sweep):
//!
//! * ResNet-50 at batch 256 (≈ 9.8 k candidates, ≈ 3.4 MB rendered):
//!   `QueryAnswer::to_json` and the compact `Json::render`;
//! * CosmoFlow-256 at batch 128 (≈ 15.6 k candidates, ≈ 5.7 MB), the
//!   answer shape behind `oraclebench`'s `query_mix` tail: its compact
//!   render, and `render/fullrank_numbers`, which renders only its ≈ 93 k
//!   non-integral numbers as one array so the float writer has a number of
//!   its own.
//!
//! Serialization, not the search, dominates the latency of such answers,
//! which is why they have a bench of their own.

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::prelude::*;

fn fullrank_1ki(model: Model, config: TrainingConfig) -> QueryAnswer {
    Query::default()
        .with_model(model)
        .with_config(config)
        .with_cluster(ClusterSpec::paper_system())
        .with_constraints(Constraints {
            max_pes: 1024,
            sweep: PeSweep::Exhaustive,
            ..Constraints::default()
        })
        .with_mode(QueryMode::FullRank)
        .run()
        .expect("full ranking answers")
}

/// Every non-integral number of `json`, in document order.
fn non_integral_numbers(json: &Json, out: &mut Vec<Json>) {
    match json {
        Json::Num(n) if n.fract() != 0.0 => out.push(Json::Num(*n)),
        Json::Arr(items) => items.iter().for_each(|v| non_integral_numbers(v, out)),
        Json::Obj(fields) => fields.iter().for_each(|(_, v)| non_integral_numbers(v, out)),
        _ => {}
    }
}

fn bench_render(c: &mut Criterion) {
    let answer = fullrank_1ki(paradl_models::resnet50(), TrainingConfig::imagenet(256));
    let json = answer.to_json();
    let ranked = json.req("ranked").as_arr().len();
    assert!(ranked >= 5_000, "ResNet-50 1 Ki full ranking too small: {ranked} candidates");

    c.bench_function("render/resnet50_fullrank_1ki_to_json", |b| {
        b.iter(|| std::hint::black_box(answer.to_json()))
    });
    c.bench_function("render/resnet50_fullrank_1ki_render", |b| {
        b.iter(|| std::hint::black_box(json.render()))
    });

    let cosmoflow =
        fullrank_1ki(paradl_models::cosmoflow(), TrainingConfig::cosmoflow(128)).to_json();
    let ranked = cosmoflow.req("ranked").as_arr().len();
    assert!(ranked >= 10_000, "CosmoFlow-256 1 Ki full ranking too small: {ranked} candidates");
    let mut numbers = Vec::new();
    non_integral_numbers(&cosmoflow, &mut numbers);
    assert!(numbers.len() >= 50_000, "only {} non-integral numbers", numbers.len());
    let numbers = Json::Arr(numbers);

    c.bench_function("render/cosmoflow256_fullrank_1ki_render", |b| {
        b.iter(|| std::hint::black_box(cosmoflow.render()))
    });
    c.bench_function("render/fullrank_numbers", |b| {
        b.iter(|| std::hint::black_box(numbers.render()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_render
);
criterion_main!(benches);
