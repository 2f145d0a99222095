//! The ParaDL oracle front-end (paper §4.1, Figure 2).
//!
//! Given the model, the dataset/training configuration, the system
//! specification and the user's constraints (maximum number of PEs, memory
//! capacity), the oracle projects the performance of each parallel strategy,
//! suggests the best one, and compares projections with measured results to
//! compute the accuracy metric reported in §5.2.

use crate::calibrate::Calibration;
use crate::cluster::ClusterSpec;
use crate::compute::ComputeModel;
use crate::config::TrainingConfig;
use crate::cost::{estimate, CostEstimate, PhaseBreakdown};
use crate::engine::{CostEngine, EngineCore, EngineError};
use crate::memory;
use crate::model::Model;
use crate::query::{Query, QueryAnswer, QueryMode};
use crate::strategy::{SpatialSplit, Strategy, StrategyKind};
use std::sync::{Arc, OnceLock};

pub use crate::search::{BudgetWinner, RankedCandidate, SearchReport, StrategySpace};

/// How the candidate enumeration sweeps PE counts within each strategy
/// family's scaling limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PeSweep {
    /// Powers of two only — the paper's sweep, and the default.
    #[default]
    PowersOfTwo,
    /// Every integer PE count the scaling limits admit. Spaces grow by
    /// orders of magnitude (CosmoFlow at 16 Ki PEs enumerates > 100 k
    /// candidates); meant for the engine-backed pruned search.
    Exhaustive,
}

/// User constraints for the strategy search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum number of PEs the user is willing to provision.
    pub max_pes: usize,
    /// Per-PE memory capacity in bytes.
    pub memory_capacity_bytes: f64,
    /// Number of pipeline segments to assume when evaluating the pipeline
    /// strategy.
    pub pipeline_segments: usize,
    /// When `Some(k)`, the search keeps only the `k` best candidates
    /// (bounded-heap ranking) and skips candidates statically dominated by
    /// the seed panel's winners ([`crate::kernel`]). `None` (default) ranks
    /// every feasible candidate and prunes nothing but memory.
    pub top_k: Option<usize>,
    /// PE-count sweep mode of the candidate enumeration.
    pub sweep: PeSweep,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            max_pes: 1024,
            memory_capacity_bytes: memory::V100_MEMORY_BYTES,
            pipeline_segments: 8,
            top_k: None,
            sweep: PeSweep::PowersOfTwo,
        }
    }
}

/// The oracle: owns the problem description and answers projection queries.
pub struct Oracle<'a, C: ComputeModel + ?Sized> {
    /// The CNN model being trained.
    pub model: &'a Model,
    /// Per-layer compute-time source (empirical parametrization).
    pub device: &'a C,
    /// System specification.
    pub cluster: &'a ClusterSpec,
    /// Training configuration (D, B, δ, γ).
    pub config: TrainingConfig,
    /// Lazily built batch-invariant engine core, so repeated
    /// [`Oracle::engine`] calls on one oracle pay the `O(layers²)`
    /// tabulation once and hydrate afterwards. Build failures are cached
    /// too: a degenerate problem keeps returning the same typed error.
    core_cache: OnceLock<Result<Arc<EngineCore>, EngineError>>,
}

/// A projection for one concrete strategy, with feasibility information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Cost estimate (time breakdown + memory).
    pub cost: CostEstimate,
    /// Whether the strategy fits the per-PE memory capacity.
    pub fits_memory: bool,
    /// Whether the strategy respects its scaling limit for this model/batch.
    pub within_scaling_limit: bool,
}

impl Projection {
    /// A strategy is feasible when it fits in memory and respects its scaling
    /// limit.
    pub fn feasible(&self) -> bool {
        self.fits_memory && self.within_scaling_limit
    }
}

impl<'a, C: ComputeModel + ?Sized> Oracle<'a, C> {
    /// Creates an oracle for the given problem.
    pub fn new(
        model: &'a Model,
        device: &'a C,
        cluster: &'a ClusterSpec,
        config: TrainingConfig,
    ) -> Self {
        Oracle { model, device, cluster, config, core_cache: OnceLock::new() }
    }

    /// The precomputed [`CostEngine`] for this oracle's problem. The first
    /// call pays the `O(layers²)` tabulation pass; the batch-invariant core
    /// is then cached on the oracle, so every later call merely hydrates a
    /// new engine from it ([`CostEngine::from_core`] — byte-for-byte
    /// identical to a fresh build, at `O(layers²)` float cost instead of
    /// the full device/topology pass). The search, [`Oracle::survey`] and
    /// [`Oracle::suggest`] all go through it.
    /// # Panics
    ///
    /// Panics if the engine refuses to build (see [`Oracle::try_engine`]
    /// for the fallible variant; [`Query::vet`] screens out the inputs that
    /// trigger this).
    pub fn engine(&self) -> CostEngine<'a> {
        self.try_engine().expect("oracle engine build failed")
    }

    /// Fallible variant of [`Oracle::engine`]: a degenerate problem (zero
    /// batch, non-finite device rates, …) returns the
    /// [`EngineError`] the build produced instead of panicking. The error
    /// is cached alongside the success path, so retries are cheap.
    pub fn try_engine(&self) -> Result<CostEngine<'a>, EngineError> {
        let core = self.core_cache.get_or_init(|| {
            Ok(CostEngine::new(self.model, self.device, self.cluster, self.config)?.core_handle())
        });
        match core {
            Ok(core) => {
                CostEngine::from_core(self.model, self.cluster, self.config, Arc::clone(core))
            }
            Err(e) => Err(e.clone()),
        }
    }

    /// Projects the cost of a single strategy (reference slow path; for
    /// repeated projections under one configuration prefer
    /// [`Oracle::engine`]).
    pub fn project(&self, strategy: Strategy) -> Projection {
        self.project_with(strategy, &self.config)
    }

    /// Projects the cost of a strategy under an explicit configuration
    /// (useful for weak-scaling sweeps where `B` grows with `p`).
    pub fn project_with(&self, strategy: Strategy, config: &TrainingConfig) -> Projection {
        let cost = estimate(self.model, self.device, self.cluster, config, strategy);
        let fits_memory = cost.memory_per_pe_bytes <= memory::V100_MEMORY_BYTES.max(0.0)
            || cost.memory_per_pe_bytes <= f64::INFINITY;
        // Feasibility against the *cluster device* capacity is checked by the
        // caller through `Constraints`; here we only record scaling validity.
        let within_scaling_limit = strategy.validate(self.model, config.batch_size).is_ok();
        Projection { cost, fits_memory, within_scaling_limit }
    }

    /// Builds a concrete strategy of the given kind using `p` PEs, choosing
    /// balanced splits for the composite strategies. Hybrid strategies place
    /// the model-parallel dimension inside a node (`gpus_per_node` PEs per
    /// group) as the paper's implementation does (§4.5.1).
    pub fn instantiate(&self, kind: StrategyKind, p: usize, segments: usize) -> Strategy {
        let per_node = self.cluster.gpus_per_node.max(1);
        match kind {
            StrategyKind::Serial => Strategy::Serial,
            StrategyKind::Data => Strategy::Data { p },
            StrategyKind::Spatial => {
                if self.model.input_spatial.len() >= 3 {
                    Strategy::Spatial { split: SpatialSplit::balanced_3d(p) }
                } else {
                    Strategy::Spatial { split: SpatialSplit::balanced_2d(p) }
                }
            }
            StrategyKind::Filter => Strategy::Filter { p },
            StrategyKind::Channel => Strategy::Channel { p },
            StrategyKind::Pipeline => Strategy::Pipeline { p, segments },
            StrategyKind::DataFilter => {
                let p2 = per_node.min(p);
                Strategy::DataFilter { p1: (p / p2).max(1), p2 }
            }
            StrategyKind::DataSpatial => {
                let p2 = per_node.min(p);
                let split = if self.model.input_spatial.len() >= 3 {
                    SpatialSplit::balanced_3d(p2)
                } else {
                    SpatialSplit::balanced_2d(p2)
                };
                Strategy::DataSpatial { p1: (p / p2).max(1), split }
            }
        }
    }

    /// Projects a strategy through a prebuilt [`CostEngine`], flagging memory
    /// feasibility against `constraints`. The scaling-limit check uses the
    /// engine's current batch, so it stays correct for rebatched engines.
    fn project_engine(
        &self,
        engine: &CostEngine<'_>,
        strategy: Strategy,
        constraints: &Constraints,
    ) -> Projection {
        let cost = engine.estimate(strategy);
        Projection {
            cost,
            fits_memory: cost.memory_per_pe_bytes <= constraints.memory_capacity_bytes,
            within_scaling_limit: engine.limits().is_valid(strategy, engine.config().batch_size),
        }
    }

    /// Projects every evaluated strategy family at `p` PEs and returns the
    /// projections (infeasible strategies are included and flagged).
    /// Equivalent to answering a [`QueryMode::Survey`] query; the cached
    /// engine core makes repeated calls cheap.
    pub fn survey(&self, p: usize, constraints: &Constraints) -> Vec<Projection> {
        self.survey_impl(&self.engine(), p, constraints)
    }

    /// Survey evaluation through an explicit engine — the shared body of
    /// [`Oracle::survey`] and the [`QueryMode::Survey`] arm of
    /// [`Oracle::answer_with_engine`] (the engine-reuse entry point).
    pub(crate) fn survey_impl(
        &self,
        engine: &CostEngine<'_>,
        p: usize,
        constraints: &Constraints,
    ) -> Vec<Projection> {
        StrategyKind::EVALUATED
            .iter()
            .map(|&kind| {
                let s = self.instantiate(kind, p, constraints.pipeline_segments);
                self.project_engine(engine, s, constraints)
            })
            .collect()
    }

    /// Suggests the best feasible strategy within the constraints: the one
    /// with the smallest projected epoch time among those that fit memory and
    /// scaling limits (paper §4.1, first bullet). Equivalent to answering a
    /// [`QueryMode::Suggest`] query; the cached engine core makes repeated
    /// calls cheap.
    pub fn suggest(&self, constraints: &Constraints) -> Option<Projection> {
        self.suggest_impl(&self.engine(), constraints, None)
    }

    /// Suggest evaluation through an explicit engine — the shared body of
    /// [`Oracle::suggest`] and the [`QueryMode::Suggest`] arm of
    /// [`Oracle::answer_with_engine`]; the sweep limits come from the
    /// *engine's* current batch, consistently with the exhaustive search.
    /// With a calibration, candidates compete on *calibrated* epoch time
    /// and the winning projection is returned calibrated — a family whose
    /// fitted overheads erase its raw-model advantage loses the suggestion.
    pub(crate) fn suggest_impl(
        &self,
        engine: &CostEngine<'_>,
        constraints: &Constraints,
        calibration: Option<&Calibration>,
    ) -> Option<Projection> {
        let batch = engine.config().batch_size;
        let mut best: Option<Projection> = None;
        for &kind in &StrategyKind::EVALUATED {
            let max_p = engine.limits().max_pes(batch, kind).min(constraints.max_pes);
            // Evaluate at powers of two up to the limit (the paper's sweep).
            let mut p = 1usize;
            while p <= max_p {
                let s = self.instantiate(kind, p, constraints.pipeline_segments);
                let proj = self.project_engine(engine, s, constraints);
                let proj = match calibration {
                    Some(cal) => cal.apply_projection(&proj),
                    None => proj,
                };
                if proj.feasible() {
                    let better = match &best {
                        None => true,
                        Some(b) => proj.cost.epoch_time() < b.cost.epoch_time(),
                    };
                    if better {
                        best = Some(proj);
                    }
                }
                if p == max_p {
                    break;
                }
                p = (p * 2).min(max_p);
            }
        }
        best
    }
}

impl<C: ComputeModel + ?Sized + Sync> Oracle<'_, C> {
    /// Answers a [`Query`] — the canonical entry point uniting the oracle's
    /// historical `suggest`/`search`/`survey` roles behind one request
    /// type. Only the query's `constraints` and `mode` are consulted: the
    /// oracle *is* the workload (a query's own model/config/cluster fields
    /// are for the standalone [`Query::run`] and the wire protocol).
    ///
    /// The ranked modes run the exhaustive parallel search — a one-cell
    /// [`crate::grid::GridSweep`] on the oracle's engine (hence the `Sync`
    /// bound); see [`Query::effective_constraints`] for how the mode
    /// picks the ranking depth. A degenerate problem that defeats engine
    /// construction (zero batch, non-finite device rates) returns the
    /// build's [`EngineError`] instead of panicking.
    pub fn answer(&self, query: &Query) -> Result<QueryAnswer, EngineError> {
        Ok(self.answer_with_engine(&self.try_engine()?, query))
    }

    /// Like [`Oracle::answer`], but evaluates through a [`CostEngine`] the
    /// caller already built (possibly [`CostEngine::rebatch`]ed or hydrated
    /// from a cached core) — the engine-reuse hook the `paradl-serve`
    /// daemon uses for its non-coalescable modes. A ranked query runs as a
    /// one-cell grid sweep on `engine` itself: no rebuild, no rebatch.
    /// With `query.calibration` set, answers come back calibrated: the
    /// suggestion competes on calibrated time, surveys and rankings are
    /// rescaled ([`QueryAnswer::recalibrated`]) — the search itself runs on
    /// the uncalibrated engine, whose kernel invariants (bit-consistent
    /// `CommCoef` reconstruction, admissible lower bounds) presume raw
    /// analytic costs.
    pub fn answer_with_engine(&self, engine: &CostEngine<'_>, query: &Query) -> QueryAnswer {
        let constraints = query.effective_constraints();
        match query.mode {
            QueryMode::Suggest => QueryAnswer::Suggestion(self.suggest_impl(
                engine,
                &constraints,
                query.calibration.as_ref(),
            )),
            QueryMode::Survey { pes } => {
                let survey = QueryAnswer::Survey(self.survey_impl(engine, pes, &constraints));
                match &query.calibration {
                    Some(cal) => survey.recalibrated(cal),
                    None => survey,
                }
            }
            QueryMode::TopK(_) | QueryMode::FullRank => {
                let report = crate::grid::GridSweep::new().run_one(engine, &constraints);
                let ranked = QueryAnswer::Ranked(report);
                match &query.calibration {
                    Some(cal) => ranked.recalibrated(cal),
                    None => ranked,
                }
            }
        }
    }
}

/// Accuracy of a projection against a measured value, as defined in §5.2:
/// `1 − |projected − measured| / measured`, clamped at 0.
pub fn projection_accuracy(projected: f64, measured: f64) -> f64 {
    if measured <= 0.0 {
        return 0.0;
    }
    (1.0 - (projected - measured).abs() / measured).max(0.0)
}

/// Accuracy of a full phase breakdown against a measured breakdown, using the
/// total times (the paper's per-column accuracy labels in Figure 3).
pub fn breakdown_accuracy(projected: &PhaseBreakdown, measured: &PhaseBreakdown) -> f64 {
    projection_accuracy(projected.total(), measured.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::DeviceProfile;
    use crate::layer::Layer;

    fn model() -> Model {
        Model::new(
            "m",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 64, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 64, (32, 32), 2, 2),
                Layer::conv2d("c2", 64, 128, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 128, &[16, 16]),
                Layer::fully_connected("fc", 128, 10),
            ],
        )
    }

    #[test]
    fn accuracy_metric_matches_paper_definition() {
        assert!((projection_accuracy(90.0, 100.0) - 0.9).abs() < 1e-12);
        assert!((projection_accuracy(110.0, 100.0) - 0.9).abs() < 1e-12);
        assert_eq!(projection_accuracy(300.0, 100.0), 0.0);
        assert_eq!(projection_accuracy(1.0, 0.0), 0.0);
        assert!((projection_accuracy(100.0, 100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn survey_covers_all_evaluated_strategies() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(8192, 64);
        let oracle = Oracle::new(&m, &d, &c, cfg);
        let survey = oracle.survey(16, &Constraints::default());
        assert_eq!(survey.len(), StrategyKind::EVALUATED.len());
        for proj in &survey {
            assert!(proj.cost.epoch_time().is_finite());
        }
    }

    #[test]
    fn suggest_returns_a_feasible_strategy() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(8192, 64);
        let oracle = Oracle::new(&m, &d, &c, cfg);
        let best = oracle.suggest(&Constraints::default()).expect("some strategy feasible");
        assert!(best.feasible());
        assert!(best.cost.epoch_time() > 0.0);
        // With plenty of memory and a compute-bound model, data parallelism at
        // the largest feasible scale should win.
        assert_eq!(best.cost.strategy.kind(), StrategyKind::Data);
    }

    #[test]
    fn instantiate_hybrids_use_node_sized_groups() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(8192, 64);
        let oracle = Oracle::new(&m, &d, &c, cfg);
        match oracle.instantiate(StrategyKind::DataFilter, 64, 8) {
            Strategy::DataFilter { p1, p2 } => {
                assert_eq!(p2, c.gpus_per_node);
                assert_eq!(p1 * p2, 64);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn with_engine_answers_match_fresh_builds() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(8192, 64);
        let oracle = Oracle::new(&m, &d, &c, cfg);
        let constraints = Constraints::default();
        let engine = oracle.engine();
        let suggest = Query::suggest().with_constraints(constraints);
        let survey = Query::survey(16).with_constraints(constraints);

        let fresh = oracle.suggest(&constraints).unwrap();
        let reused = oracle.answer_with_engine(&engine, &suggest);
        assert_eq!(fresh.cost, reused.suggestion().unwrap().cost);

        assert_eq!(
            oracle.survey(16, &constraints).as_slice(),
            oracle.answer_with_engine(&engine, &survey).survey().unwrap()
        );

        // A rebatched engine answers the other batch's problem exactly.
        let cfg2 = TrainingConfig::small(8192, 128);
        let oracle2 = Oracle::new(&m, &d, &c, cfg2);
        let rebatched = engine.rebatched(128);
        assert_eq!(
            oracle2.suggest(&constraints).unwrap().cost,
            oracle2.answer_with_engine(&rebatched, &suggest).suggestion().unwrap().cost
        );
        assert_eq!(
            oracle2.survey(16, &constraints).as_slice(),
            oracle2.answer_with_engine(&rebatched, &survey).survey().unwrap()
        );
    }

    #[test]
    fn constraint_on_memory_rules_out_strategies() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(8192, 256);
        let oracle = Oracle::new(&m, &d, &c, cfg);
        let tight = Constraints { memory_capacity_bytes: 1.0, ..Default::default() };
        assert!(oracle.suggest(&tight).is_none());
    }
}
