//! Benchmarks of the precomputed cost engine against the reference search
//! path (the PR-1 implementation, kept as `Oracle::search_reference`): a
//! CosmoFlow-scale exhaustive candidate space (> 10 k candidates at 16 Ki
//! PEs with pipeline × segment cross-products) costed three ways —
//! per-layer reference walk, engine-backed full ranking, and engine-backed
//! branch-and-bound top-k search. The acceptance target of the engine work
//! is `search` ≥ 5× faster than `search_reference` on this space.

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::key::ModelKey;
use paradl_core::prelude::*;
use std::sync::Arc;

/// CosmoFlow at 256³ with a 16 Ki PE budget and an exhaustive PE sweep:
/// ≈ 178 k candidates (data × spatial-factorization × pipeline-segment
/// cross-products).
fn cosmoflow_problem() -> (Model, DeviceProfile, ClusterSpec, TrainingConfig, Constraints) {
    let model = paradl_models::cosmoflow();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::cosmoflow(1024);
    let constraints = Constraints {
        max_pes: 16 * 1024,
        pipeline_segments: 512,
        sweep: PeSweep::Exhaustive,
        ..Constraints::default()
    };
    (model, device, cluster, config, constraints)
}

fn bench_engine_vs_reference(c: &mut Criterion) {
    let (model, device, cluster, config, constraints) = cosmoflow_problem();
    let oracle = Oracle::new(&model, &device, &cluster, config);
    let n = oracle.strategy_space(&constraints).len();
    assert!(n >= 10_000, "CosmoFlow-scale space too small: {n} candidates");

    c.bench_function("engine/cosmoflow_reference", |b| {
        b.iter(|| std::hint::black_box(oracle.search_reference(&constraints)))
    });
    c.bench_function("engine/cosmoflow_engine_full", |b| {
        b.iter(|| std::hint::black_box(oracle.search(&constraints)))
    });
    let topk = Constraints { top_k: Some(10), ..constraints };
    c.bench_function("engine/cosmoflow_engine_topk10", |b| {
        b.iter(|| std::hint::black_box(oracle.search(&topk)))
    });
}

fn bench_engine_construction(c: &mut Criterion) {
    let (model, device, cluster, config, _) = cosmoflow_problem();
    let resnet50 = paradl_models::resnet50();
    let resnet152 = paradl_models::resnet152();
    let resnet_config = TrainingConfig::imagenet(32 * 64);
    for (name, model, config) in [
        ("engine/cosmoflow_build_engine", &model, config),
        ("engine/resnet50_build_engine", &resnet50, resnet_config),
        ("engine/resnet152_build_engine", &resnet152, resnet_config),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(CostEngine::new(model, &device, &cluster, config)))
        });
    }
    // A build followed by a read of every pipeline depth: what an
    // exhaustive sweep pays, which filling depths on first read cannot
    // shorten.
    c.bench_function("engine/resnet152_build_all_depths", |b| {
        b.iter(|| {
            let engine = CostEngine::new(&resnet152, &device, &cluster, resnet_config)
                .expect("engine builds");
            for p in 1..=resnet152.num_layers() {
                std::hint::black_box(engine.pipeline_memory_front(p));
            }
        })
    });
}

/// `CostEngine::rebatch` alone: storing the batch and its iteration count,
/// which a grid sweep pays once per (model, batch) cell and a cached-core
/// answer once per hydration. Alternates between two batches so every call
/// does the full rewrite.
fn bench_engine_rebatch(c: &mut Criterion) {
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(256);
    for (name, model) in [
        ("engine/resnet50_rebatch", paradl_models::resnet50()),
        ("engine/resnet152_rebatch", paradl_models::resnet152()),
    ] {
        let mut engine = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        let mut batch = 256;
        c.bench_function(name, |b| {
            b.iter(|| {
                batch ^= 256 | 1024;
                engine.rebatch(batch);
                std::hint::black_box(&engine);
            })
        });
    }
}

/// The problem-key work of a served answer: a ResNet-152 model key hashed
/// from scratch (what a resolved zoo entry pays once), and an
/// `EngineCache::engine` hit on a warm cache for a resolved ResNet-50
/// under its precomputed key (what a served group pays per answer before
/// its sweep).
fn bench_problem_key(c: &mut Criterion) {
    let resnet152 = paradl_models::resnet152();
    c.bench_function("engine/resnet152_model_key", |b| {
        b.iter(|| std::hint::black_box(ModelKey::of(std::hint::black_box(&resnet152))))
    });
    let resnet50 = Arc::new(KeyedModel::new(paradl_models::resnet50()));
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(256);
    let key = ProblemKey::of(&resnet50, &cluster, &config);
    let cache = EngineCache::new(32);
    cache.engine(&key, &resnet50, &cluster, config).expect("engine builds");
    c.bench_function("engine/resnet50_cache_hit", |b| {
        b.iter(|| {
            let (engine, hit, _) = cache.engine(&key, &resnet50, &cluster, config).expect("cached");
            assert!(hit);
            std::hint::black_box(engine);
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_vs_reference,
        bench_engine_construction,
        bench_engine_rebatch,
        bench_problem_key
);
criterion_main!(benches);
