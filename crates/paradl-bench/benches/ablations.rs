//! Ablation benchmarks of the design choices called out in DESIGN.md:
//! ring vs tree collectives across message sizes, the contention coefficient
//! φ, the memory-reuse factor γ and the number of pipeline segments S.
//!
//! These are Criterion benchmarks so they run under `cargo bench`, but their
//! interesting output is the *model* values they print once at setup — the
//! timing side just confirms the oracle stays cheap under every setting.
//! Every estimate is priced through a [`CostEngine`], the oracle's one
//! pricer.

use criterion::{criterion_group, criterion_main, Criterion};
use paradl_core::prelude::*;

fn ablation_ring_vs_tree(c: &mut Criterion) {
    let link = LinkParams::infiniband_edr();
    println!("\n[ablation] ring vs tree Allreduce crossover (64 PEs):");
    for bytes in [4e3, 64e3, 1e6, 16e6, 256e6] {
        let ring =
            CommModel::new(link).with_algorithm(CollectiveAlgorithm::Ring).allreduce(64, bytes);
        let tree = CommModel::new(link)
            .with_algorithm(CollectiveAlgorithm::Tree { chunks: 4 })
            .allreduce(64, bytes);
        println!(
            "  {:>10.0} B: ring {:.3} ms, tree {:.3} ms -> {}",
            bytes,
            ring * 1e3,
            tree * 1e3,
            if ring < tree { "ring wins" } else { "tree wins" }
        );
    }
    let model = CommModel::new(link);
    c.bench_function("ablation/auto_allreduce_64", |b| {
        b.iter(|| std::hint::black_box(model.allreduce(64, 16e6)))
    });
}

fn ablation_contention_phi(c: &mut Criterion) {
    let model = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32 * 64);
    println!("\n[ablation] contention coefficient φ on the Data+Filter gradient exchange:");
    for phi in [1.0f64, 2.0, 4.0] {
        let comm = cluster.comm_model_inter_group(16, 4).with_contention(phi);
        let t = comm.allreduce(16, model.total_weights() as f64 * 4.0 / 4.0);
        println!("  φ = {phi}: {:.3} ms per iteration", t * 1e3);
    }
    let engine = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
    c.bench_function("ablation/df_estimate_phi", |b| {
        b.iter(|| std::hint::black_box(engine.estimate(Strategy::DataFilter { p1: 16, p2: 4 })))
    });
}

fn ablation_gamma_and_segments(c: &mut Criterion) {
    let model = paradl_models::vgg16();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let engine_at = |config| CostEngine::new(&model, &device, &cluster, config).expect("builds");
    println!("\n[ablation] memory-reuse factor γ (VGG16, data parallelism, 64 GPUs):");
    for gamma in [0.5f64, 0.7, 1.0] {
        let config = TrainingConfig { memory_reuse: gamma, ..TrainingConfig::imagenet(32 * 64) };
        let mem = engine_at(config).memory_per_pe(Strategy::Data { p: 64 });
        println!("  γ = {gamma}: {:.2} GB per GPU", mem / 1e9);
    }
    let engine = engine_at(TrainingConfig::imagenet(64));
    println!("\n[ablation] pipeline segments S (VGG16, 4 stages):");
    for s in [1usize, 2, 4, 8, 16] {
        let est = engine.estimate(Strategy::Pipeline { p: 4, segments: s });
        println!("  S = {s}: {:.3} s per iteration", est.per_iteration().total());
    }
    c.bench_function("ablation/pipeline_estimate", |b| {
        b.iter(|| std::hint::black_box(engine.estimate(Strategy::Pipeline { p: 4, segments: 8 })))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_ring_vs_tree, ablation_contention_phi, ablation_gamma_and_segments
);
criterion_main!(benches);
