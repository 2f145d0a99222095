//! AlexNet (Krizhevsky, 2012/2014) — included because Krizhevsky's "one weird
//! trick" paper \[25\] is the origin of the data-parallel-convolutions /
//! model-parallel-FC hybrid the paper discusses, and because its small depth
//! makes it a convenient pipeline-parallelism example.

use paradl_core::layer::Layer;
use paradl_core::model::Model;

/// Builds AlexNet for a `3 × 227 × 227` input.
pub fn alexnet() -> Model {
    let layers = vec![
        // conv1: 11x11/4, 96 filters
        Layer::conv2d("conv1", 3, 96, (227, 227), 11, 4, 0),
        Layer::relu("relu1", 96, &[55, 55]),
        Layer::pool2d("pool1", 96, (55, 55), 3, 2),
        // conv2: 5x5, 256 filters on 27x27
        Layer::conv2d("conv2", 96, 256, (27, 27), 5, 1, 2),
        Layer::relu("relu2", 256, &[27, 27]),
        Layer::pool2d("pool2", 256, (27, 27), 3, 2),
        // conv3-5: 3x3 on 13x13
        Layer::conv2d("conv3", 256, 384, (13, 13), 3, 1, 1),
        Layer::relu("relu3", 384, &[13, 13]),
        Layer::conv2d("conv4", 384, 384, (13, 13), 3, 1, 1),
        Layer::relu("relu4", 384, &[13, 13]),
        Layer::conv2d("conv5", 384, 256, (13, 13), 3, 1, 1),
        Layer::relu("relu5", 256, &[13, 13]),
        Layer::pool2d("pool5", 256, (13, 13), 3, 2),
        // FC layers on 256×6×6.
        Layer::fully_connected("fc6", 256 * 6 * 6, 4096),
        Layer::relu("relu6", 4096, &[1]),
        Layer::fully_connected("fc7", 4096, 4096),
        Layer::relu("relu7", 4096, &[1]),
        Layer::fully_connected("fc8", 4096, 1000),
    ];
    Model::new("AlexNet", 3, vec![227, 227], layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_count_is_about_61m() {
        let m = alexnet();
        let p = m.total_params();
        assert!((55_000_000..65_000_000).contains(&p), "AlexNet params = {p}");
        assert!(m.validate().is_ok());
    }

    #[test]
    fn pool_shapes_chain_correctly() {
        let m = alexnet();
        // conv1 output is 55x55, pool1 output 27x27, pool2 output 13x13,
        // pool5 output 6x6.
        let conv1 = &m.layers[0];
        assert_eq!(conv1.out_spatial(), vec![55, 55]);
        let pool1 = &m.layers[2];
        assert_eq!(pool1.out_spatial(), vec![27, 27]);
        let pool5 = m.layers.iter().find(|l| l.name == "pool5").unwrap();
        assert_eq!(pool5.out_spatial(), vec![6, 6]);
    }

    #[test]
    fn fc_layers_hold_most_parameters() {
        let m = alexnet();
        let fc: usize = m
            .layers
            .iter()
            .filter(|l| l.kind == paradl_core::layer::LayerKind::FullyConnected)
            .map(|l| l.param_count())
            .sum();
        assert!(fc as f64 > 0.9 * m.total_params() as f64);
    }
}
