//! Scaling study: compare the oracle's projection with the simulator's
//! "measured" runs for VGG16 under data, filter and data+filter parallelism —
//! a miniature version of the paper's Figure 3 — and print the projection
//! accuracy of each point.
//!
//! Run with: `cargo run --release --example choose_strategy`

use paradl::prelude::*;

fn main() {
    let model = paradl::models::vgg16();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let simulator = Simulator::new(&device, &cluster)
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(3);

    println!("{} — oracle vs simulated measurement (per-iteration time)\n", model.name);
    println!(
        "{:<22} {:>6} {:>14} {:>14} {:>10}",
        "strategy", "GPUs", "projected (s)", "measured (s)", "accuracy"
    );

    // Data parallelism and the data+filter hybrid: weak scaling, 16 samples/GPU.
    for p in [16usize, 64, 256] {
        let config = TrainingConfig::imagenet(16 * p);
        let oracle = Oracle::new(&model, &device, &cluster, config);
        for strategy in [Strategy::Data { p }, Strategy::DataFilter { p1: p / 4, p2: 4 }] {
            let projected = oracle.project(strategy);
            let measured = simulator.simulate(&model, &config, strategy);
            let acc = projection_accuracy(
                projected.per_iteration().total(),
                measured.per_iteration.total(),
            );
            println!(
                "{:<22} {:>6} {:>14.4} {:>14.4} {:>9.1}%",
                strategy.to_string(),
                p,
                projected.per_iteration().total(),
                measured.per_iteration.total(),
                acc * 100.0
            );
        }
    }

    // Filter parallelism: strong scaling with a fixed batch of 32 (the
    // paper's filter/channel columns), limited to min_l F_l = 64 GPUs.
    for p in [4usize, 16, 64] {
        let config = TrainingConfig::imagenet(32);
        let oracle = Oracle::new(&model, &device, &cluster, config);
        let strategy = Strategy::Filter { p };
        let projected = oracle.project(strategy);
        let measured = simulator.simulate(&model, &config, strategy);
        let acc =
            projection_accuracy(projected.per_iteration().total(), measured.per_iteration.total());
        println!(
            "{:<22} {:>6} {:>14.4} {:>14.4} {:>9.1}%",
            strategy.to_string(),
            p,
            projected.per_iteration().total(),
            measured.per_iteration.total(),
            acc * 100.0
        );
    }
}
