//! Figure 7: computation time per epoch broken into forward+backward and
//! weight update — the weight update is non-trivial for large models (the
//! paper measures up to ~15% for VGG16).

use paradl_core::prelude::*;

fn main() {
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();

    println!("Figure 7 — per-epoch computation breakdown (data parallelism, 32 GPUs)\n");
    println!(
        "{:<12} {:>16} {:>16} {:>18}",
        "model", "FW+BW (s)", "weight update (s)", "WU share of compute"
    );
    for model in paradl_models::imagenet_models() {
        let config = TrainingConfig::imagenet(32 * 32);
        let est = Oracle::new(&model, &device, &cluster, config).project(Strategy::Data { p: 32 });
        let share = est.per_epoch.weight_update / est.per_epoch.compute();
        println!(
            "{:<12} {:>16.1} {:>16.1} {:>17.1}%",
            model.name,
            est.per_epoch.forward_backward,
            est.per_epoch.weight_update,
            share * 100.0
        );
    }
    println!("\nVGG16's FC-heavy parameter count makes its weight update the largest share,");
    println!("reproducing the trend the paper measures with PyTorch (Figure 7).");
}
