//! # paradl-core
//!
//! The ParaDL oracle: an analytical performance, communication and memory
//! model for distributed CNN training under data, spatial, filter, channel,
//! pipeline and hybrid parallelism — a Rust reproduction of
//! *"An Oracle for Guiding Large-Scale Model/Hybrid Parallel Training of
//! Convolutional Neural Networks"* (HPDC 2021).
//!
//! The crate is organized around four inputs and one output:
//!
//! * a [`model::Model`] — the CNN as a list of [`layer::Layer`]s,
//! * a [`compute::ComputeModel`] — per-layer `FW`/`BW`/`WU` times (the
//!   paper's empirical parametrization; [`compute::DeviceProfile`] provides
//!   an analytical substitute),
//! * a [`cluster::ClusterSpec`] — the interconnect hierarchy providing
//!   Hockney α–β parameters per communicator size,
//! * a [`config::TrainingConfig`] — dataset size `D`, mini-batch `B`, datum
//!   width `δ`, memory-reuse factor `γ`,
//!
//! and the [`oracle::Oracle`] produces [`cost::CostEstimate`]s — per-phase
//! time breakdowns and per-PE memory — for any [`strategy::Strategy`].
//!
//! ```
//! use paradl_core::prelude::*;
//!
//! // A toy 3-layer CNN.
//! let model = Model::new(
//!     "toy", 3, vec![32, 32],
//!     vec![
//!         Layer::conv2d("c1", 3, 16, (32, 32), 3, 1, 1),
//!         Layer::global_pool("g", 16, &[32, 32]),
//!         Layer::fully_connected("fc", 16, 10),
//!     ],
//! );
//! let device = DeviceProfile::v100();
//! let cluster = ClusterSpec::paper_system();
//! let config = TrainingConfig::small(4096, 64);
//! let oracle = Oracle::new(&model, &device, &cluster, config);
//!
//! let cost = oracle.project(Strategy::Data { p: 16 });
//! assert!(cost.epoch_time() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod cluster;
pub mod comm;
pub mod compute;
pub mod config;
pub mod cost;
pub mod engine;
pub mod grid;
pub mod jsonio;
pub mod kernel;
pub mod key;
pub mod layer;
pub mod limits;
pub mod memory;
pub mod model;
pub mod oracle;
pub mod query;
mod resident;
pub mod scaling;
pub mod search;
pub mod strategy;
pub mod validate;
pub mod vet;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::calibrate::{CalSample, Calibration, FamilyScale};
    pub use crate::cluster::{ClusterSpec, CommLevel};
    pub use crate::comm::{CollectiveAlgorithm, CommModel, LinkParams};
    pub use crate::compute::{ComputeModel, DeviceProfile, LayerTimes, TabulatedProfile};
    pub use crate::config::TrainingConfig;
    pub use crate::cost::{CostEstimate, PhaseBreakdown};
    pub use crate::engine::{CostEngine, EngineCache, EngineCacheStats, EngineError, ModelLimits};
    pub use crate::grid::{
        GridCell, GridModel, GridQuery, GridReport, GridStageTimings, GridSweep, QueryGrid,
    };
    pub use crate::jsonio::{Json, JsonError};
    pub use crate::key::{KeyedModel, ProblemKey};
    pub use crate::layer::{Layer, LayerKind};
    pub use crate::limits::{diagnose_default, table6, Issue, IssueClass};
    pub use crate::memory::{memory_per_pe, V100_MEMORY_BYTES};
    pub use crate::model::Model;
    pub use crate::oracle::{
        breakdown_accuracy, projection_accuracy, Constraints, Oracle, PeSweep, Projection,
    };
    pub use crate::query::{Query, QueryAnswer, QueryMode};
    pub use crate::scaling::{powers_of_two, speedup_over, sweep, ScalingMode, SweepPoint};
    pub use crate::search::{BudgetWinner, RankedCandidate, SearchReport, StrategySpace};
    pub use crate::strategy::{SpatialSplit, Strategy, StrategyKind};
    pub use crate::validate::{
        spearman_rho, CellFidelity, ErrorSample, ErrorStats, FamilyFidelity, FidelityReport,
    };
    pub use crate::vet::{VetError, DEFAULT_CANDIDATE_CAP};
}
