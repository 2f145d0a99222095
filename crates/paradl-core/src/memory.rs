//! Per-PE memory requirement estimation (paper Table 3, memory column, and
//! Eqs. 2, 4, 7, 8, 14, 16, 17, 20).
//!
//! The naive per-layer aggregation (inputs + activations + weights + biases +
//! all three gradients) is reduced by the memory-reuse factor `γ` to account
//! for framework buffer reuse (§4.2). The `2·` factors in the formulas fold
//! the gradients of the corresponding tensors (`|dL/dx| = |x|`, etc.).

use crate::config::TrainingConfig;
use crate::model::Model;
use crate::strategy::Strategy;

/// Maximum memory (bytes) required on one PE for the given strategy.
pub fn memory_per_pe(model: &Model, config: &TrainingConfig, strategy: Strategy) -> f64 {
    let b = config.batch_size as f64;
    let delta = config.bytes_per_item;
    let gamma = config.memory_reuse;

    let per_layer = |act_div: f64, weight_div: f64, batch: f64| -> f64 {
        model
            .layers
            .iter()
            .map(|l| {
                let acts = 2.0 * batch * (l.input_size() + l.output_size()) as f64 / act_div;
                let weights = 2.0 * l.weight_count() as f64 / weight_div;
                let bias = l.bias_count() as f64;
                acts + weights + bias
            })
            .sum::<f64>()
    };

    let raw = match strategy {
        // M_serial = δ Σ (2B(|x|+|y|) + 2|w| + |bi|)
        Strategy::Serial => per_layer(1.0, 1.0, b),
        // M_data: micro-batch B/p per PE, full weights.
        Strategy::Data { p } => per_layer(1.0, 1.0, b / p as f64),
        // M_spatial: activations split by p, full batch, full weights.
        Strategy::Spatial { split } => per_layer(split.total() as f64, 1.0, b),
        // M_filter / M_channel: full activations, weights split by p.
        Strategy::Filter { p } | Strategy::Channel { p } => per_layer(1.0, p as f64, b),
        // M_pipeline: the maximum over composite layers of the serial
        // per-group memory.
        Strategy::Pipeline { p, .. } => {
            let groups = model.balanced_pipeline_groups(p);
            groups
                .iter()
                .map(|range| pipeline_group_raw(model, b, range.clone()))
                .fold(0.0, f64::max)
        }
        // M_df: activations split by the data groups p1, weights by p2.
        Strategy::DataFilter { p1, p2 } => per_layer(p1 as f64, p2 as f64, b),
        // M_ds: activations split by p = p1·p2 (batch by p1, spatial by p2),
        // full weights.
        Strategy::DataSpatial { p1, split } => per_layer((p1 * split.total()) as f64, 1.0, b),
    };

    gamma * delta * raw
}

/// Raw (pre-`γδ`) memory of one pipeline stage spanning the layer `range`:
/// `Σ_l (2B(|x_l|+|y_l|) + 2|w_l| + |bi_l|)` — the per-stage term the
/// search's [`crate::engine::CostEngine`] reproduces through prefix sums.
pub(crate) fn pipeline_group_raw(model: &Model, b: f64, range: std::ops::Range<usize>) -> f64 {
    model.layers[range]
        .iter()
        .map(|l| {
            2.0 * b * (l.input_size() + l.output_size()) as f64
                + 2.0 * l.weight_count() as f64
                + l.bias_count() as f64
        })
        .sum::<f64>()
}

/// Memory capacity of one V100 GPU (16 GB), the paper's device.
pub const V100_MEMORY_BYTES: f64 = 16.0 * 1024.0 * 1024.0 * 1024.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::strategy::SpatialSplit;

    fn model() -> Model {
        Model::new(
            "m",
            3,
            vec![64, 64],
            vec![
                Layer::conv2d("c1", 3, 32, (64, 64), 3, 1, 1),
                Layer::pool2d("p1", 32, (64, 64), 2, 2),
                Layer::conv2d("c2", 32, 64, (32, 32), 3, 1, 1),
                Layer::global_pool("g", 64, &[32, 32]),
                Layer::fully_connected("fc", 64, 10),
            ],
        )
    }

    fn cfg() -> TrainingConfig {
        TrainingConfig::small(4096, 64)
    }

    #[test]
    fn data_parallel_memory_shrinks_with_p_but_not_to_zero() {
        let m = model();
        let c = cfg();
        let serial = memory_per_pe(&m, &c, Strategy::Serial);
        let d8 = memory_per_pe(&m, &c, Strategy::Data { p: 8 });
        let d64 = memory_per_pe(&m, &c, Strategy::Data { p: 64 });
        assert!(d8 < serial);
        assert!(d64 < d8);
        // Weights are replicated, so memory never drops below the weight term.
        let weight_floor = 2.0 * m.total_weights() as f64 * c.bytes_per_item * c.memory_reuse;
        assert!(d64 > weight_floor * 0.99);
    }

    #[test]
    fn filter_memory_keeps_full_activations() {
        let m = model();
        let c = cfg();
        let serial = memory_per_pe(&m, &c, Strategy::Serial);
        let f = memory_per_pe(&m, &c, Strategy::Filter { p: 8 });
        // Activations dominate this model, so filter parallelism saves little
        // (the paper's "Redundancy in Memory" limitation).
        assert!(f < serial);
        assert!(f > serial * 0.5);
    }

    #[test]
    fn spatial_memory_divides_activations() {
        let m = model();
        let c = cfg();
        let serial = memory_per_pe(&m, &c, Strategy::Serial);
        let s = memory_per_pe(&m, &c, Strategy::Spatial { split: SpatialSplit::balanced_2d(16) });
        assert!(s < serial / 4.0);
    }

    #[test]
    fn pipeline_memory_is_max_group() {
        let m = model();
        let c = cfg();
        let serial = memory_per_pe(&m, &c, Strategy::Serial);
        let p = memory_per_pe(&m, &c, Strategy::Pipeline { p: 2, segments: 4 });
        assert!(p < serial);
        assert!(p > serial / m.num_layers() as f64);
    }

    #[test]
    fn data_at_p1_equals_serial() {
        let m = model();
        let c = cfg();
        let serial = memory_per_pe(&m, &c, Strategy::Serial);
        let d1 = memory_per_pe(&m, &c, Strategy::Data { p: 1 });
        assert!((serial - d1).abs() < 1e-6);
    }

    #[test]
    fn gamma_scales_linearly() {
        let m = model();
        let mut c = cfg();
        c.memory_reuse = 1.0;
        let full = memory_per_pe(&m, &c, Strategy::Serial);
        c.memory_reuse = 0.5;
        let half = memory_per_pe(&m, &c, Strategy::Serial);
        assert!((half * 2.0 - full).abs() < 1e-6);
    }

    #[test]
    fn hybrid_df_splits_both_dimensions() {
        let m = model();
        let c = cfg();
        let data = memory_per_pe(&m, &c, Strategy::Data { p: 4 });
        let filter = memory_per_pe(&m, &c, Strategy::Filter { p: 4 });
        let df = memory_per_pe(&m, &c, Strategy::DataFilter { p1: 4, p2: 4 });
        assert!(df < data);
        assert!(df < filter);
    }
}
