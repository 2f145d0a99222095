//! CosmoFlow: a 3-D scientific workload where data parallelism is not an
//! option (a single 512³ sample exceeds GPU memory). This example reproduces
//! the reasoning behind the paper's Figures 4 and 5: spatial parallelism
//! makes the model fit, and the Data+Spatial hybrid then scales it out.
//!
//! Run with: `cargo run --release --example cosmoflow_3d`

use paradl::prelude::*;

fn main() {
    let model = paradl::models::cosmoflow_with_input(512);
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::cosmoflow(4);
    let oracle = Oracle::new(&model, &device, &cluster, config);

    println!(
        "{}: {:.1} M parameters, {:.1} GB of activations per sample\n",
        model.name,
        model.total_params() as f64 / 1e6,
        model.total_activations() as f64 * 4.0 / 1e9
    );

    // 1. Memory feasibility: data parallelism vs spatial parallelism.
    println!("Per-GPU memory requirement (16 GB V100):");
    let candidates = [
        ("data, 4 GPUs (1 sample/GPU)", Strategy::Data { p: 4 }),
        ("spatial, 16 GPUs", Strategy::Spatial { split: SpatialSplit::balanced_3d(16) }),
        (
            "data+spatial, 4×16 GPUs",
            Strategy::DataSpatial { p1: 4, split: SpatialSplit::balanced_3d(16) },
        ),
    ];
    for (label, strategy) in candidates {
        let mem = oracle.project(strategy).memory_per_pe_bytes;
        let fits = if mem <= V100_MEMORY_BYTES { "fits" } else { "OUT OF MEMORY" };
        println!("  {:<28} {:>8.1} GB   {fits}", label, mem / 1e9);
    }

    // 2. Scaling: pure spatial vs the Data+Spatial hybrid (Figure 5).
    println!("\nScaling projection (per-epoch time, weak scaling over data groups):");
    println!("{:>6} {:>16} {:>18} {:>10}", "GPUs", "spatial (s)", "data+spatial (s)", "speedup");
    let spatial16 = oracle.project(Strategy::Spatial { split: SpatialSplit::balanced_3d(16) });
    for p1 in [1usize, 4, 16, 64] {
        let p = 16 * p1;
        let ds = oracle.project(Strategy::DataSpatial { p1, split: SpatialSplit::balanced_3d(16) });
        let speedup = spatial16.epoch_time() / ds.epoch_time();
        println!(
            "{:>6} {:>16.1} {:>18.1} {:>9.1}x",
            p,
            spatial16.epoch_time(),
            ds.epoch_time(),
            speedup
        );
    }
    println!("\nThe hybrid keeps the per-GPU footprint of spatial parallelism while the");
    println!("data-parallel dimension keeps absorbing new GPUs — the paper's Figure 5.");
}
