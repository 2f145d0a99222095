//! Quickstart: project the cost of training ResNet-50 under every parallel
//! strategy at 64 GPUs and print the oracle's per-phase breakdown, memory
//! estimate and suggested strategy.
//!
//! Run with: `cargo run --release --example quickstart`

use paradl::prelude::*;

fn main() {
    // 1. Describe the problem: model, device, cluster and training setup.
    let model = paradl::models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    // Weak scaling: 32 samples per GPU at 64 GPUs => global batch 2048.
    let config = TrainingConfig::imagenet(32 * 64);
    let oracle = Oracle::new(&model, &device, &cluster, config);

    println!(
        "Model: {} ({:.1} M parameters, {} layers)",
        model.name,
        model.total_params() as f64 / 1e6,
        model.num_layers()
    );
    println!("Cluster: {} GPUs available, 4 per node\n", cluster.total_gpus());

    // 2. Survey every strategy at 64 GPUs.
    let constraints = Constraints::default();
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>10} {:>9}",
        "strategy", "compute (s)", "comm (s)", "epoch (s)", "mem (GB)", "feasible"
    );
    for projection in oracle.survey(64, &constraints) {
        let b = projection.cost.per_epoch;
        println!(
            "{:<28} {:>12.2} {:>12.2} {:>12.2} {:>10.2} {:>9}",
            projection.cost.strategy.to_string(),
            b.compute(),
            b.communication(),
            b.total(),
            projection.cost.memory_per_pe_bytes / 1e9,
            projection.feasible()
        );
    }

    // 3. Ask the oracle for the best feasible strategy within 1024 GPUs.
    match oracle.suggest(&constraints) {
        Some(best) => println!(
            "\nSuggested strategy: {} — projected epoch time {:.2} s, {:.2} GB per GPU",
            best.cost.strategy,
            best.cost.epoch_time(),
            best.cost.memory_per_pe_bytes / 1e9
        ),
        None => println!("\nNo feasible strategy within the given constraints"),
    }

    // 4. Diagnose the limitations of one projection (paper Table 6 style).
    let filter = oracle.project(Strategy::Filter { p: 64 });
    let diagnosis = diagnose_default(&filter);
    println!("\nDiagnosis of filter parallelism at 64 GPUs:");
    if diagnosis.findings.is_empty() {
        println!("  no dominant bottleneck detected");
    }
    for (finding, fraction) in diagnosis.findings {
        println!("  - {finding}: {:.0}% of the epoch", fraction * 100.0);
    }
}
