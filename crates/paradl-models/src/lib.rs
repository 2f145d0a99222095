//! # paradl-models
//!
//! Model zoo for the ParaDL oracle: layer-by-layer descriptions of the CNNs
//! used in the paper's evaluation (Table 5) — ResNet-50, ResNet-152, VGG16
//! and CosmoFlow — plus AlexNet and a configurable synthetic CNN for tests
//! and ablation studies.
//!
//! Each builder returns a [`paradl_core::model::Model`] whose parameter
//! counts, layer counts and activation shapes match the published
//! architectures, so the oracle's projections are driven by the same tensor
//! shapes as the paper's experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alexnet;
pub mod cosmoflow;
pub mod resnet;
pub mod synthetic;
pub mod vgg;

pub use alexnet::alexnet;
pub use cosmoflow::{cosmoflow, cosmoflow_small, cosmoflow_with_input};
pub use resnet::{resnet152, resnet152_with_input, resnet50, resnet50_with_input};
pub use synthetic::SyntheticCnn;
pub use vgg::{vgg16, vgg16_with_input};

use paradl_core::model::Model;

/// The four models of the paper's Table 5, in the order they appear.
pub fn paper_models() -> Vec<Model> {
    vec![resnet50(), resnet152(), vgg16(), cosmoflow()]
}

/// The three ImageNet models used in Figure 3 (CosmoFlow is evaluated
/// separately with Data+Spatial in Figures 4 and 5).
pub fn imagenet_models() -> Vec<Model> {
    vec![resnet50(), resnet152(), vgg16()]
}

/// One model of [`ZOO`]: its case-insensitive names (short aliases and the
/// display name [`Model::name`]) and its builder.
#[derive(Debug, Clone, Copy)]
pub struct ZooModel {
    /// Every name the model answers to, in lower case.
    pub names: &'static [&'static str],
    /// Builds the model.
    pub build: fn() -> Model,
}

/// Every model [`by_name`] knows: the four [`paper_models`] and
/// [`alexnet()`].
pub const ZOO: [ZooModel; 5] = [
    ZooModel { names: &["resnet-50", "resnet50"], build: resnet50 },
    ZooModel { names: &["resnet-152", "resnet152"], build: resnet152 },
    ZooModel { names: &["vgg16", "vgg-16"], build: vgg16 },
    ZooModel { names: &["cosmoflow", "cosmoflow-256"], build: cosmoflow },
    ZooModel { names: &["alexnet"], build: alexnet },
];

/// The index in [`ZOO`] of the model called `name` (case-insensitive).
pub fn zoo_index(name: &str) -> Option<usize> {
    ZOO.iter().position(|z| z.names.iter().any(|n| n.eq_ignore_ascii_case(name)))
}

/// Looks a model up by its (case-insensitive) name: a short alias or the
/// display name ([`Model::name`]) of any model in [`paper_models`] or
/// [`alexnet()`].
pub fn by_name(name: &str) -> Option<Model> {
    zoo_index(name).map(|i| (ZOO[i].build)())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_models_match_table5_ordering_and_sizes() {
        let models = paper_models();
        assert_eq!(models.len(), 4);
        assert_eq!(models[0].name, "ResNet-50");
        assert_eq!(models[1].name, "ResNet-152");
        assert_eq!(models[2].name, "VGG16");
        assert!(models[3].name.starts_with("CosmoFlow"));
        // Relative ordering of parameter counts from Table 5:
        // CosmoFlow (≈2M) < ResNet-50 (≈25M) < ResNet-152 (≈58M) < VGG16 (≈138M).
        assert!(models[3].total_params() < models[0].total_params());
        assert!(models[0].total_params() < models[1].total_params());
        assert!(models[1].total_params() < models[2].total_params());
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("ResNet-50").is_some());
        assert!(by_name("resnet152").is_some());
        assert!(by_name("VGG16").is_some());
        assert!(by_name("cosmoflow").is_some());
        assert!(by_name("alexnet").is_some());
        assert!(by_name("transformer").is_none());
        // Every zoo entry answers to its display name.
        for (i, z) in ZOO.iter().enumerate() {
            assert_eq!(zoo_index(&(z.build)().name), Some(i));
        }
    }

    #[test]
    fn every_zoo_model_validates() {
        for m in paper_models() {
            assert!(m.validate().is_ok(), "{} invalid", m.name);
        }
        assert!(alexnet().validate().is_ok());
    }
}
