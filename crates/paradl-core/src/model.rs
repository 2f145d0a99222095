//! CNN model description: an ordered list of [`Layer`]s plus the dataset
//! input shape, with aggregate queries used by the cost model (total
//! parameters, total activation size, per-layer iteration helpers).

use crate::layer::{Layer, LayerKind};

/// A CNN model as seen by the oracle: an ordered sequence of layers applied to
/// an input of `input_channels × input_spatial` per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Human-readable model name, e.g. `ResNet-50`.
    pub name: String,
    /// Channels of the dataset sample (3 for ImageNet, 4 for CosmoFlow).
    pub input_channels: usize,
    /// Spatial extents of the dataset sample.
    pub input_spatial: Vec<usize>,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Creates a model; the layer list must be non-empty and self-consistent.
    pub fn new(
        name: impl Into<String>,
        input_channels: usize,
        input_spatial: Vec<usize>,
        layers: Vec<Layer>,
    ) -> Self {
        Model { name: name.into(), input_channels, input_spatial, layers }
    }

    /// Number of layers `G`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters `Σ_l (|w_l| + |bi_l|)`.
    pub fn total_params(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Total weight elements `Σ_l |w_l|` (the buffer exchanged by the
    /// gradient-exchange Allreduce).
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }

    /// Total activation elements per sample `Σ_l |y_l|`.
    pub fn total_activations(&self) -> usize {
        self.layers.iter().map(|l| l.output_size()).sum()
    }

    /// Total input elements per sample `Σ_l |x_l|`.
    pub fn total_inputs(&self) -> usize {
        self.layers.iter().map(|l| l.input_size()).sum()
    }

    /// Total forward FLOPs per sample.
    pub fn total_flops_forward(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_forward()).sum()
    }

    /// Minimum number of filters over conv-like layers — the scaling limit of
    /// filter parallelism (`p ≤ min_l F_l`, paper Table 3).
    pub fn min_filters(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.kind.is_conv_like())
            .map(|l| l.out_channels)
            .min()
            .unwrap_or(1)
    }

    /// Minimum number of input channels over conv-like layers — the scaling
    /// limit of channel parallelism. The paper notes the first layer (3
    /// channels for ImageNet) is excluded because channel parallelism is
    /// applied from the second layer; we expose both variants.
    pub fn min_channels(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.kind.is_conv_like())
            .map(|l| l.in_channels)
            .min()
            .unwrap_or(1)
    }

    /// Minimum input channels excluding the first conv layer (paper §4.5.1:
    /// channel parallelism is implemented from the second layer on).
    pub fn min_channels_after_first(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.kind.is_conv_like())
            .skip(1)
            .map(|l| l.in_channels)
            .min()
            .unwrap_or_else(|| self.min_channels())
    }

    /// Minimum spatial plane size `min_l (W_l × H_l)` — the scaling limit of
    /// spatial parallelism.
    pub fn min_spatial_size(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Conv | LayerKind::Pool))
            .map(|l| l.in_spatial_size())
            .min()
            .unwrap_or(1)
    }

    /// Per-dimension minimum spatial extents over the conv/pool layers, in
    /// the same dimension order as [`Model::input_spatial`]. Bounds each
    /// factor of a spatial split: splitting a dimension into more parts than
    /// its smallest extent is physically impossible. Falls back to
    /// `input_spatial` when the model has no conv/pool layers.
    pub fn min_spatial_extents(&self) -> Vec<usize> {
        let rank = self.input_spatial.len();
        let mut mins = self.input_spatial.clone();
        for layer in
            self.layers.iter().filter(|l| matches!(l.kind, LayerKind::Conv | LayerKind::Pool))
        {
            for (dim, &extent) in layer.in_spatial.iter().take(rank).enumerate() {
                mins[dim] = mins[dim].min(extent);
            }
        }
        mins
    }

    /// Validates every layer and the chaining of activation shapes where the
    /// model is a simple chain (residual `Add` layers are allowed to break
    /// strict chaining since they merge a skip connection).
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err(format!("model {}: no layers", self.name));
        }
        for l in &self.layers {
            l.validate().map_err(|e| format!("model {}: {e}", self.name))?;
        }
        Ok(())
    }

    /// Each layer's forward plus backward FLOPs as the `f64` the pipeline
    /// grouping adds, and their exact integer sum: the input of
    /// [`balanced_groups`], which an engine core computes once.
    pub(crate) fn pipeline_flops(&self) -> (Vec<f64>, u64) {
        let flops: Vec<u64> =
            self.layers.iter().map(|l| l.flops_forward() + l.flops_backward()).collect();
        let total = flops.iter().sum();
        (flops.into_iter().map(|f| f as f64).collect(), total)
    }

    /// Splits the layer list into `p` contiguous groups by their forward
    /// plus backward FLOPs, with a greedy prefix fill: a group closes once
    /// its sum reaches `total / p`, or when only one layer per remaining
    /// group is left. Early groups can overshoot, so the bottleneck group
    /// is not always the smallest possible. Used by the pipeline strategy.
    /// Returns the layer-index ranges of each group.
    pub fn balanced_pipeline_groups(&self, p: usize) -> Vec<std::ops::Range<usize>> {
        assert!(p >= 1);
        let (flops, total) = self.pipeline_flops();
        balanced_groups(&flops, total, p)
    }
}

/// The greedy fill of [`Model::balanced_pipeline_groups`] over per-layer
/// FLOPs `flops` with exact integer sum `total`, `p` clamped to
/// `1..=flops.len()` (at least 1): the one grouping behind that method and
/// the engine's pipeline depths. FLOPs do not depend on the batch, so
/// neither do the groupings — which is what makes an engine core's
/// per-stage memory parts batch-invariant.
pub(crate) fn balanced_groups(flops: &[f64], total: u64, p: usize) -> Vec<std::ops::Range<usize>> {
    let p = p.clamp(1, flops.len().max(1));
    let target = total as f64 / p as f64;
    let mut groups = Vec::with_capacity(p);
    let mut start = 0usize;
    let mut acc = 0f64;
    for (i, &f) in flops.iter().enumerate() {
        acc += f;
        let remaining_groups = p - groups.len();
        let remaining_layers = flops.len() - i - 1;
        // Close the group when we reach the target, but always leave at
        // least one layer per remaining group.
        if groups.len() < p - 1 && (acc >= target || remaining_layers < (remaining_groups - 1)) {
            groups.push(start..i + 1);
            start = i + 1;
            acc = 0.0;
        }
    }
    groups.push(start..flops.len());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> Model {
        let l1 = Layer::conv2d("conv1", 3, 8, (32, 32), 3, 1, 1);
        let l2 = Layer::relu("relu1", 8, &[32, 32]);
        let l3 = Layer::pool2d("pool1", 8, (32, 32), 2, 2);
        let l4 = Layer::conv2d("conv2", 8, 16, (16, 16), 3, 1, 1);
        let l5 = Layer::global_pool("gpool", 16, &[16, 16]);
        let l6 = Layer::fully_connected("fc", 16, 10);
        Model::new("tiny", 3, vec![32, 32], vec![l1, l2, l3, l4, l5, l6])
    }

    #[test]
    #[allow(clippy::identity_op)] // zeros spell out the parameter-free layers
    fn aggregate_counts() {
        let m = tiny_model();
        assert_eq!(m.num_layers(), 6);
        let expected_params = (3 * 8 * 9 + 8) + 0 + 0 + (8 * 16 * 9 + 16) + 0 + (16 * 10 + 10);
        assert_eq!(m.total_params(), expected_params);
        assert!(m.total_activations() > 0);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn scaling_limits() {
        let m = tiny_model();
        assert_eq!(m.min_filters(), 8); // conv1 has 8 filters, fc has 10
        assert_eq!(m.min_channels(), 3);
        assert_eq!(m.min_channels_after_first(), 8);
        assert_eq!(m.min_spatial_size(), 16 * 16);
    }

    #[test]
    fn pipeline_groups_cover_all_layers_and_are_contiguous() {
        let m = tiny_model();
        for p in 1..=4 {
            let groups = m.balanced_pipeline_groups(p);
            assert_eq!(groups.len(), p.min(m.num_layers()));
            assert_eq!(groups[0].start, 0);
            assert_eq!(groups.last().unwrap().end, m.num_layers());
            for w in groups.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(!w[0].is_empty());
            }
        }
    }

    #[test]
    fn pipeline_groups_more_than_layers_clamps() {
        let m = tiny_model();
        let groups = m.balanced_pipeline_groups(100);
        assert_eq!(groups.len(), m.num_layers());
    }

    #[test]
    fn empty_model_rejected() {
        let m = Model::new("empty", 3, vec![224, 224], vec![]);
        assert!(m.validate().is_err());
    }
}
