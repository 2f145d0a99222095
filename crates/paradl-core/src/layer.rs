//! Layer and tensor-shape notation (paper Table 2).
//!
//! A CNN model is a sequence of [`Layer`]s. Each layer `l` is described by the
//! shapes of its tensors:
//!
//! * input `x_l[N, C_l, X^d_l]` — `N` samples, `C_l` channels, a `d`-dimensional
//!   spatial tuple `X^d_l` (e.g. `W_l × H_l` for 2-D convolutions),
//! * output (activation) `y_l[N, F_l, Y^d_l]`,
//! * weight `w_l[C_l, F_l, K^d_l]` and bias `bi_l[F_l]`,
//! * gradients `dL/dy_l`, `dL/dw_l`, `dL/dx_l` with matching shapes.
//!
//! Non-convolution layers are expressed with the same notation, exactly as in
//! the paper: a fully-connected layer is a convolution whose kernel equals the
//! input spatial size; element-wise layers (ReLU) have `F = C` and no weights;
//! channel-wise layers (pooling, batch-norm) keep `F = C`.

use std::fmt;

/// Kind of a CNN layer. The analytical model only needs the tensor shapes and
/// the arithmetic-intensity class, both captured here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// d-dimensional convolution with weights `[C, F, K^d]`.
    Conv,
    /// Spatial pooling (max or average); channel-wise, no weights.
    Pool,
    /// Batch normalization; channel-wise, 2 learnable vectors of length `F`.
    BatchNorm,
    /// Element-wise activation; no weights, `F = C`.
    ReLU,
    /// Fully-connected layer expressed as a convolution with kernel = input
    /// spatial size, producing a `[N, F, 1]` output.
    FullyConnected,
    /// Element-wise residual addition of two equally-shaped activations.
    Add,
    /// Global average pooling reducing the spatial dimensions to `1`.
    GlobalPool,
}

impl LayerKind {
    /// Whether the layer carries learnable weights that participate in the
    /// gradient exchange.
    pub fn has_weights(self) -> bool {
        matches!(self, LayerKind::Conv | LayerKind::FullyConnected | LayerKind::BatchNorm)
    }

    /// Whether the layer is a convolution-like operator whose filters can be
    /// split by the filter/channel strategies.
    pub fn is_conv_like(self) -> bool {
        matches!(self, LayerKind::Conv | LayerKind::FullyConnected)
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Conv => "conv",
            LayerKind::Pool => "pool",
            LayerKind::BatchNorm => "bnorm",
            LayerKind::ReLU => "relu",
            LayerKind::FullyConnected => "fc",
            LayerKind::Add => "add",
            LayerKind::GlobalPool => "gpool",
        };
        f.write_str(s)
    }
}

/// A single layer of a CNN, described per-sample (the batch dimension `N` is
/// supplied by the training configuration, not stored here).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable name, e.g. `conv2_1`.
    pub name: String,
    /// Operator class.
    pub kind: LayerKind,
    /// Input channels `C_l`.
    pub in_channels: usize,
    /// Output channels `F_l` (filters).
    pub out_channels: usize,
    /// Input spatial extents `X^d_l` (length = spatial dimensionality `d`).
    pub in_spatial: Vec<usize>,
    /// Kernel extents `K^d_l` (same length as `in_spatial`; empty or all-1 for
    /// layers without a spatial kernel).
    pub kernel: Vec<usize>,
    /// Stride per spatial dimension.
    pub stride: Vec<usize>,
    /// Zero padding per spatial dimension (symmetric).
    pub padding: Vec<usize>,
}

impl Layer {
    /// 2-D convolution layer constructor.
    pub fn conv2d(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        in_hw: (usize, usize),
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Conv,
            in_channels,
            out_channels,
            in_spatial: vec![in_hw.0, in_hw.1],
            kernel: vec![kernel, kernel],
            stride: vec![stride, stride],
            padding: vec![padding, padding],
        }
    }

    /// 3-D convolution layer constructor (e.g. CosmoFlow).
    pub fn conv3d(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        in_dhw: (usize, usize, usize),
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Conv,
            in_channels,
            out_channels,
            in_spatial: vec![in_dhw.0, in_dhw.1, in_dhw.2],
            kernel: vec![kernel; 3],
            stride: vec![stride; 3],
            padding: vec![padding; 3],
        }
    }

    /// 2-D pooling layer constructor.
    pub fn pool2d(
        name: impl Into<String>,
        channels: usize,
        in_hw: (usize, usize),
        kernel: usize,
        stride: usize,
    ) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Pool,
            in_channels: channels,
            out_channels: channels,
            in_spatial: vec![in_hw.0, in_hw.1],
            kernel: vec![kernel, kernel],
            stride: vec![stride, stride],
            padding: vec![0, 0],
        }
    }

    /// 3-D pooling layer constructor.
    pub fn pool3d(
        name: impl Into<String>,
        channels: usize,
        in_dhw: (usize, usize, usize),
        kernel: usize,
        stride: usize,
    ) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Pool,
            in_channels: channels,
            out_channels: channels,
            in_spatial: vec![in_dhw.0, in_dhw.1, in_dhw.2],
            kernel: vec![kernel; 3],
            stride: vec![stride; 3],
            padding: vec![0; 3],
        }
    }

    /// Batch-normalization layer over `channels` feature maps.
    pub fn batch_norm(name: impl Into<String>, channels: usize, spatial: &[usize]) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::BatchNorm,
            in_channels: channels,
            out_channels: channels,
            in_spatial: spatial.to_vec(),
            kernel: vec![1; spatial.len()],
            stride: vec![1; spatial.len()],
            padding: vec![0; spatial.len()],
        }
    }

    /// Element-wise ReLU.
    pub fn relu(name: impl Into<String>, channels: usize, spatial: &[usize]) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::ReLU,
            in_channels: channels,
            out_channels: channels,
            in_spatial: spatial.to_vec(),
            kernel: vec![1; spatial.len()],
            stride: vec![1; spatial.len()],
            padding: vec![0; spatial.len()],
        }
    }

    /// Fully-connected layer from a flattened `in_features` input to
    /// `out_features` outputs. Expressed as a convolution whose kernel covers
    /// the whole input (paper §2.2).
    pub fn fully_connected(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
    ) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::FullyConnected,
            in_channels: in_features,
            out_channels: out_features,
            in_spatial: vec![1],
            kernel: vec![1],
            stride: vec![1],
            padding: vec![0],
        }
    }

    /// Residual addition of two activations of identical shape.
    pub fn add(name: impl Into<String>, channels: usize, spatial: &[usize]) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::Add,
            in_channels: channels,
            out_channels: channels,
            in_spatial: spatial.to_vec(),
            kernel: vec![1; spatial.len()],
            stride: vec![1; spatial.len()],
            padding: vec![0; spatial.len()],
        }
    }

    /// Global average pooling collapsing the spatial dimensions.
    pub fn global_pool(name: impl Into<String>, channels: usize, spatial: &[usize]) -> Self {
        Layer {
            name: name.into(),
            kind: LayerKind::GlobalPool,
            in_channels: channels,
            out_channels: channels,
            in_spatial: spatial.to_vec(),
            kernel: spatial.to_vec(),
            stride: vec![1; spatial.len()],
            padding: vec![0; spatial.len()],
        }
    }

    /// Spatial dimensionality `d` of the layer.
    pub fn spatial_dims(&self) -> usize {
        self.in_spatial.len()
    }

    /// Output spatial extents `Y^d_l` derived from input, kernel, stride and
    /// padding with the usual convolution arithmetic
    /// `Y = (X + 2·pad − K) / stride + 1`.
    pub fn out_spatial(&self) -> Vec<usize> {
        match self.kind {
            LayerKind::FullyConnected => vec![1],
            LayerKind::GlobalPool => vec![1; self.in_spatial.len()],
            LayerKind::ReLU | LayerKind::BatchNorm | LayerKind::Add => self.in_spatial.clone(),
            LayerKind::Conv | LayerKind::Pool => self
                .in_spatial
                .iter()
                .zip(self.kernel.iter())
                .zip(self.stride.iter().zip(self.padding.iter()))
                .map(|((&x, &k), (&s, &p))| {
                    let padded = x + 2 * p;
                    if padded < k {
                        1
                    } else {
                        (padded - k) / s + 1
                    }
                })
                .collect(),
        }
    }

    /// `|X^d_l|`: number of elements in one input channel.
    pub fn in_spatial_size(&self) -> usize {
        self.in_spatial.iter().product()
    }

    /// `|Y^d_l|`: number of elements in one output channel.
    pub fn out_spatial_size(&self) -> usize {
        self.out_spatial().iter().product()
    }

    /// `|x_l|` per sample: `C_l · |X^d_l|`.
    pub fn input_size(&self) -> usize {
        match self.kind {
            LayerKind::FullyConnected => self.in_channels,
            _ => self.in_channels * self.in_spatial_size(),
        }
    }

    /// `|y_l|` per sample: `F_l · |Y^d_l|`.
    pub fn output_size(&self) -> usize {
        match self.kind {
            LayerKind::FullyConnected => self.out_channels,
            _ => self.out_channels * self.out_spatial_size(),
        }
    }

    /// `|w_l|`: number of weight elements.
    pub fn weight_count(&self) -> usize {
        match self.kind {
            LayerKind::Conv => {
                self.in_channels * self.out_channels * self.kernel.iter().product::<usize>()
            }
            LayerKind::FullyConnected => self.in_channels * self.out_channels,
            // Scale and shift vectors.
            LayerKind::BatchNorm => 2 * self.out_channels,
            _ => 0,
        }
    }

    /// `|bi_l|`: number of bias elements.
    pub fn bias_count(&self) -> usize {
        match self.kind {
            LayerKind::Conv | LayerKind::FullyConnected => self.out_channels,
            _ => 0,
        }
    }

    /// Trainable parameters of the layer (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weight_count() + self.bias_count()
    }

    /// Forward-pass floating point operations for one sample.
    ///
    /// Convolutions cost `2·K^d·C·F·|Y|` MACs-as-FLOPs; FC costs `2·C·F`;
    /// the remaining layers are a small constant per activation element.
    pub fn flops_forward(&self) -> u64 {
        let out = self.out_spatial_size() as u64;
        match self.kind {
            LayerKind::Conv => {
                2 * self.kernel.iter().product::<usize>() as u64
                    * self.in_channels as u64
                    * self.out_channels as u64
                    * out
            }
            LayerKind::FullyConnected => 2 * self.in_channels as u64 * self.out_channels as u64,
            LayerKind::Pool => {
                self.kernel.iter().product::<usize>() as u64 * self.out_channels as u64 * out
            }
            LayerKind::BatchNorm => 4 * self.out_channels as u64 * out,
            LayerKind::ReLU | LayerKind::Add => self.out_channels as u64 * out,
            LayerKind::GlobalPool => self.in_channels as u64 * self.in_spatial_size() as u64,
        }
    }

    /// Backward-pass FLOPs for one sample (gradient w.r.t. data plus gradient
    /// w.r.t. weights); roughly twice the forward cost for conv-like layers.
    pub fn flops_backward(&self) -> u64 {
        match self.kind {
            LayerKind::Conv | LayerKind::FullyConnected => 2 * self.flops_forward(),
            _ => self.flops_forward(),
        }
    }

    /// Size (elements) of the halo region that must be exchanged per sample
    /// when the spatial dimensions are split over `splits` parts per
    /// dimension (paper §3.2). A convolution with kernel `K` needs
    /// `⌊K/2⌋` rows/columns from each logically-neighbouring partition; the
    /// exchanged volume is the cross-section of the tensor orthogonal to each
    /// split dimension times the halo width times the number of interior
    /// boundaries.
    pub fn halo_size(&self, splits: &[usize]) -> usize {
        if !matches!(self.kind, LayerKind::Conv | LayerKind::Pool) {
            return 0;
        }
        let d = self.spatial_dims();
        let mut total = 0usize;
        for dim in 0..d {
            let parts = splits.get(dim).copied().unwrap_or(1);
            if parts <= 1 {
                continue;
            }
            let k = self.kernel.get(dim).copied().unwrap_or(1);
            if k <= 1 {
                continue;
            }
            let halo_width = k / 2;
            // Cross-section: product of the other spatial extents.
            let cross: usize = self
                .in_spatial
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != dim)
                .map(|(_, &x)| x)
                .product();
            total += self.in_channels * halo_width * cross;
        }
        total
    }

    /// Checks internal consistency (matching vector lengths, non-zero dims).
    pub fn validate(&self) -> Result<(), String> {
        let d = self.in_spatial.len();
        if d == 0 {
            return Err(format!("layer {}: empty spatial shape", self.name));
        }
        if self.kernel.len() != d || self.stride.len() != d || self.padding.len() != d {
            return Err(format!(
                "layer {}: kernel/stride/padding rank mismatch (spatial d={d})",
                self.name
            ));
        }
        if self.in_channels == 0 || self.out_channels == 0 {
            return Err(format!("layer {}: zero channel count", self.name));
        }
        if self.in_spatial.contains(&0) {
            return Err(format!("layer {}: zero spatial extent", self.name));
        }
        if self.stride.contains(&0) {
            return Err(format!("layer {}: zero stride", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_output_shape_matches_formula() {
        let l = Layer::conv2d("c1", 3, 64, (224, 224), 3, 1, 1);
        assert_eq!(l.out_spatial(), vec![224, 224]);
        let l = Layer::conv2d("c2", 64, 128, (224, 224), 3, 2, 1);
        assert_eq!(l.out_spatial(), vec![112, 112]);
        let l = Layer::conv2d("c3", 3, 64, (227, 227), 11, 4, 0);
        assert_eq!(l.out_spatial(), vec![55, 55]);
    }

    #[test]
    fn conv3d_output_shape() {
        let l = Layer::conv3d("c3d", 4, 16, (128, 128, 128), 3, 1, 1);
        assert_eq!(l.out_spatial(), vec![128, 128, 128]);
        assert_eq!(l.spatial_dims(), 3);
    }

    #[test]
    fn pooling_halves_spatial() {
        let l = Layer::pool2d("p1", 64, (112, 112), 2, 2);
        assert_eq!(l.out_spatial(), vec![56, 56]);
        assert_eq!(l.weight_count(), 0);
        assert_eq!(l.param_count(), 0);
    }

    #[test]
    fn fc_as_convolution() {
        let l = Layer::fully_connected("fc", 4096, 1000);
        assert_eq!(l.output_size(), 1000);
        assert_eq!(l.input_size(), 4096);
        assert_eq!(l.weight_count(), 4096 * 1000);
        assert_eq!(l.bias_count(), 1000);
    }

    #[test]
    fn conv_param_count() {
        // 3x3 conv, 64 -> 128 channels: 64*128*9 weights + 128 biases.
        let l = Layer::conv2d("c", 64, 128, (56, 56), 3, 1, 1);
        assert_eq!(l.weight_count(), 64 * 128 * 9);
        assert_eq!(l.param_count(), 64 * 128 * 9 + 128);
    }

    #[test]
    fn relu_and_bn_preserve_shape_and_have_expected_params() {
        let r = Layer::relu("r", 256, &[28, 28]);
        assert_eq!(r.output_size(), 256 * 28 * 28);
        assert_eq!(r.param_count(), 0);
        let b = Layer::batch_norm("b", 256, &[28, 28]);
        assert_eq!(b.output_size(), 256 * 28 * 28);
        assert_eq!(b.param_count(), 512);
    }

    #[test]
    fn conv_flops_match_hand_calculation() {
        // 3x3, C=64, F=64, out 56x56 -> 2*9*64*64*3136
        let l = Layer::conv2d("c", 64, 64, (56, 56), 3, 1, 1);
        assert_eq!(l.flops_forward(), 2 * 9 * 64 * 64 * 56 * 56);
        assert_eq!(l.flops_backward(), 2 * l.flops_forward());
    }

    #[test]
    #[allow(clippy::identity_op)] // the 1 spells out the K/2 halo-width factor
    fn halo_size_for_spatial_split() {
        // Split W into 2 parts: halo = C * (K/2) * H per boundary-facing side.
        let l = Layer::conv2d("c", 3, 64, (224, 224), 3, 1, 1);
        let halo = l.halo_size(&[2, 1]);
        assert_eq!(halo, 3 * 1 * 224);
        // 1x1 convolution needs no halo.
        let l1 = Layer::conv2d("c1", 64, 64, (56, 56), 1, 1, 0);
        assert_eq!(l1.halo_size(&[2, 2]), 0);
        // ReLU never needs a halo.
        let r = Layer::relu("r", 8, &[10, 10]);
        assert_eq!(r.halo_size(&[2, 2]), 0);
    }

    #[test]
    fn global_pool_collapses_spatial() {
        let g = Layer::global_pool("g", 2048, &[7, 7]);
        assert_eq!(g.out_spatial(), vec![1, 1]);
        assert_eq!(g.output_size(), 2048);
    }

    #[test]
    fn validation_catches_bad_layers() {
        let mut l = Layer::conv2d("c", 3, 64, (224, 224), 3, 1, 1);
        l.stride = vec![0, 1];
        assert!(l.validate().is_err());
        let mut l2 = Layer::conv2d("c", 3, 64, (224, 224), 3, 1, 1);
        l2.kernel = vec![3];
        assert!(l2.validate().is_err());
        let ok = Layer::conv2d("c", 3, 64, (224, 224), 3, 1, 1);
        assert!(ok.validate().is_ok());
    }
}
