//! Figure 8: computation breakdown of filter parallelism on ResNet-50 — the
//! convolution kernels do not scale perfectly when their filters are split,
//! and the split/concat glue is non-trivial, so the measured compute sits
//! above the ideal `1/p` line.

use paradl_core::prelude::*;
use paradl_sim::{OverheadModel, Simulator};

fn main() {
    let model = paradl_models::resnet50();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(32);
    let oracle = Oracle::new(&model, &device, &cluster, config);
    let simulator = Simulator::new(&device, &cluster)
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(3);

    let serial = oracle.project(Strategy::Serial).per_iteration();

    println!("Figure 8 — filter-parallel computation breakdown, ResNet-50 (batch 32)\n");
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>14}",
        "GPUs", "ideal comp (s)", "measured comp (s)", "overhead (s)", "scaling eff."
    );
    for p in [1usize, 4, 16, 64] {
        let ideal = serial.forward_backward / p as f64;
        let measured = if p == 1 {
            simulator.simulate(&model, &config, Strategy::Serial)
        } else {
            simulator.simulate(&model, &config, Strategy::Filter { p })
        };
        let meas_comp = measured.per_iteration.forward_backward;
        println!(
            "{:>6} {:>16.4} {:>16.4} {:>16.4} {:>13.1}%",
            p,
            ideal,
            meas_comp,
            meas_comp - ideal,
            ideal / meas_comp * 100.0
        );
    }
    println!("\nThe widening gap between the ideal 1/p compute and the measured compute is the");
    println!("implementation overhead (imperfect conv splitting + split/concat) of Figure 8.");
}
