//! Figure 5: Spatial+Data scaling of CosmoFlow — per-epoch time of the hybrid
//! as data groups are added, with the speedup ratio over the pure spatial
//! strategy (the paper's near-perfect scaling curve).

use paradl_core::prelude::*;

fn main() {
    let model = paradl_models::cosmoflow();
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    // Pure spatial baseline: one node (4 GPUs) per sample, batch of 1 sample.
    let base_config = TrainingConfig::cosmoflow(1);
    let oracle = Oracle::new(&model, &device, &cluster, base_config);
    let split = SpatialSplit::balanced_3d(4);
    let spatial = oracle.project(Strategy::Spatial { split });

    println!("Figure 5 — CosmoFlow Spatial+Data scaling (weak scaling over data groups)\n");
    println!(
        "{:>6} {:>8} {:>18} {:>22} {:>10}",
        "GPUs", "batch", "spatial (s/epoch)", "spatial+data (s/epoch)", "speedup"
    );
    for p1 in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let batch = p1; // one sample per data group (0.25 samples/GPU)
        let config = TrainingConfig::cosmoflow(batch);
        let o = Oracle::new(&model, &device, &cluster, config);
        let ds = o.project(Strategy::DataSpatial { p1, split });
        println!(
            "{:>6} {:>8} {:>18.1} {:>22.1} {:>9.1}x",
            4 * p1,
            batch,
            spatial.epoch_time(),
            ds.epoch_time(),
            spatial.epoch_time() / ds.epoch_time()
        );
    }
    println!("\nThe speedup column is the label the paper prints above each bar: the hybrid");
    println!("keeps absorbing GPUs while pure spatial parallelism is capped by the volume size.");
}
