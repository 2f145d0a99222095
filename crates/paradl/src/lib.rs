//! # ParaDL-rs
//!
//! A Rust reproduction of *"An Oracle for Guiding Large-Scale Model/Hybrid
//! Parallel Training of Convolutional Neural Networks"* (HPDC 2021): an
//! analytical oracle projecting the performance, communication and memory of
//! CNN distributed training under data, spatial, filter, channel, pipeline
//! and hybrid parallelism, plus everything needed to evaluate it —
//! a model zoo, a link-level network model, a distributed-training simulator
//! (the "measured" side), and threaded reference implementations of every
//! strategy verified against a sequential tensor engine.
//!
//! This umbrella crate re-exports the public API of each component:
//!
//! * [`oracle`] (`paradl-core`) — the analytical model and the ParaDL oracle,
//!   including the precomputed `engine::CostEngine` search hot path (with
//!   incremental `rebatch`) and the amortized `grid::QueryGrid` /
//!   `grid::GridSweep` multi-query path,
//! * [`models`] (`paradl-models`) — ResNet-50/152, VGG16, CosmoFlow, AlexNet,
//! * [`net`] (`paradl-net`) — fat-tree topology, collective schedules,
//!   contention,
//! * [`sim`] (`paradl-sim`) — the distributed-training simulator,
//! * [`tensor`] (`paradl-tensor`) — the CPU tensor engine,
//! * [`parallel`] (`paradl-parallel`) — threaded strategy implementations.
//!
//! ```
//! use paradl::prelude::*;
//!
//! let model = paradl::models::resnet50();
//! let device = DeviceProfile::v100();
//! let cluster = ClusterSpec::paper_system();
//! let config = TrainingConfig::imagenet(32 * 64);
//! let oracle = Oracle::new(&model, &device, &cluster, config);
//! let cost = oracle.project(Strategy::Data { p: 64 });
//! assert!(cost.epoch_time() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use paradl_core as oracle;
pub use paradl_models as models;
pub use paradl_net as net;
pub use paradl_parallel as parallel;
pub use paradl_sim as sim;
pub use paradl_tensor as tensor;

/// The most commonly used types from every component crate.
pub mod prelude {
    pub use paradl_core::prelude::*;
    pub use paradl_models::{alexnet, cosmoflow, resnet152, resnet50, vgg16, SyntheticCnn};
    pub use paradl_net::{FatTree, Schedule, Transfer};
    pub use paradl_sim::{Conformance, MeasuredResult, OverheadModel, Simulator};
    pub use paradl_tensor::{SmallCnn, SmallCnnConfig, Tensor};
}
